"""A prover for multiplicative linear logic with mix.

A sequent derivable in multiplicative linear logic extended with the binary
and nullary mix rules is a coarse causal-type inclusion, one between
tensor/par/lolli shapes that holds for every choice of first-order atoms.
Derivability is sound for inclusion but not complete: on first-order atoms
``A (+) B`` and ``A (x) B`` have the same members, yet
``A (+) B |- A (x) B`` has no derivation.  This module decides
derivability and produces checkable proof trees.

Formulas are kept in negation normal form: literals, the units ``1``/``bot``
(printed ``I`` and ``I^*``), and binary tensors and pars.  A two-sided
sequent ``A1, .., An |- B`` is the one-sided ``|- A1^*, .., An^*, B``.

Rules (one-sided, multisets)::

    ax:      |- a, a^*
    one:     |- 1
    mix0:    |-
    bot:     |- G          =>  |- G, bot
    par:     |- G, a, b    =>  |- G, a (+) b
    tensor:  |- G, a   |- D, b   =>  |- G, D, a (x) b
    mix:     |- G   |- D   =>  |- G, D

Search applies the invertible rules first (``bot``, ``par``, and removal of
``1`` from a context, which mix makes admissible), all in one step: only
the sequent left after them is memoized and counted against the budget.
Every rule preserves the property that each atom occurs as often
positively as negatively, so :func:`prove` refuses a root sequent without
it before any expansion and the search never tests it again.  Sequents of
bare literals are then paired off by matching.  Any other sequent has a
top-level tensor, and one memoized tensor step decides it by trying each
distinct tensor on its candidate contexts.
A proof that ends in ``mix`` can always push that mix into a tensor
premise's context (Fleury & Retoré, *The mix rule*, 1994), so no mix
bipartition is tried: proofs use ``mix`` only to drop a ``1``, to pair off
bare literals and, with ``mix0``, to reorder a memoized proof.

A *linear* sequent, where every atom occurs exactly once each way (as in
the containments between causal types, whose atoms ``fo_embedding`` labels
apart), has one possible axiom linking.  It is provable iff that proof
structure has no cycle under any Danos-Regnier switching (Danos & Regnier
1989; mix makes the units neutral), and every step is then forced.  A
tensor has at most one candidate context: the formulas that a chain of
shared atoms connects to its left factor once the tensor is removed go
left and all others right, and there is none when such a chain reaches the
right factor too.  The first tensor with a candidate is applied, and a
failing premise refutes the sequent, since subnets of an acyclic net are
acyclic; when no tensor has one, some switching has a cycle (the
splitting-tensor lemma).  Formulas that share no atom with the rest need
no separate mix: they fall to one side of such a split.

A sequent with a repeated atom backtracks: each distinct tensor is tried
on the splits of its context taken as a multiset, as equal formulas are
interchangeable and only how many copies of each go left matters, and a
split is tried only when its left premise balances (the right one then
does too).  Its subsequents that are linear are decided as above.  So ``n``
copies of ``(a (x) b) (+) (a^* (x) b^*)``, all on the same two atoms, are
refuted in one expansion: after the pars each formula has as many ``a`` as
``b`` (counted with sign) and each left factor does not, so no split
balances.
"""

from __future__ import annotations

import functools
import re
import weakref
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import (
    CombinatorialBlowup,
    MalformedProof,
    TypeSyntaxError,
    UnsupportedConnective,
)
from . import typesys


# -- formulas ------------------------------------------------------------------


# Formulas are interned: a weak table holds the live node for each class and
# its fields, so building equal fields again gives back that node, and ``==``
# and ``hash`` are identity.  Each node is made together with its dual (a
# literal with its flip, ``1`` with ``bot``, a tensor with the par of its
# factors' duals) and keeps it as ``dual``.  An atom key is an atom name of
# the type grammar, so names render formulas one to one.  Each formula also
# keeps its ``name`` (the rendering without outer parentheses) and its
# ``net`` (atom key -> positive minus negative occurrences), both made on
# first use (a name also when a formula around it is named, a net only when
# asked) and never written after: the search reads them often.

_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

# ``Name`` or ``Name[dim]`` with ``dim >= 1`` as ``formula_of_type`` writes it, never ``I``
_ATOM_KEY = re.compile(r"(?!I(?:\[|$))[A-Za-z_][A-Za-z0-9_']*(?:\[[1-9][0-9]*\])?")


class _Node:
    """An interned formula (see above).  ``_fields`` names a node's fields in
    constructor order; ``_duals(*fields)`` gives its dual's class and fields,
    and ``_ident(fields)`` the node's key in the table."""

    _fields: tuple[str, ...] = ()

    def __new__(cls, *fields):
        node = _NODES.get(cls._ident(fields))
        if node is None:
            dual_cls, dual_fields = cls._duals(*fields)
            node, dual = object.__new__(cls), object.__new__(dual_cls)
            vars(node).update(zip(cls._fields, fields), dual=dual)
            vars(dual).update(zip(cls._fields, dual_fields), dual=node)
            _NODES[cls._ident(fields)], _NODES[dual_cls._ident(dual_fields)] = node, dual
        return node

    @classmethod
    def _ident(cls, fields: tuple) -> tuple:
        return (cls, *fields)

    def __reduce__(self):
        return type(self), tuple(vars(self)[f] for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"formulas are immutable: cannot set {name!r}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}<{self.name}>"


def _net(*formulas: Formula) -> dict[str, int]:
    """Atom key -> positive minus negative occurrences over ``formulas``,
    counted with a stack rather than by recursion, so that a chain of any
    length is counted; no subformula keeps a count."""
    net: dict[str, int] = {}
    todo = list(formulas)
    while todo:
        f = todo.pop()
        if isinstance(f, FAtom):
            net[f.key] = net.get(f.key, 0) + (-1 if f.neg else 1)
        elif isinstance(f, (FTensor, FPar)):
            todo += f.left, f.right
    return net


class FAtom(_Node):
    _fields = ("key", "neg")
    net = functools.cached_property(_net)

    def __new__(cls, key: str, neg: bool = False):
        return super().__new__(cls, key, neg)

    @staticmethod
    def _duals(key: str, neg: bool):
        if _ATOM_KEY.fullmatch(key) is None:
            raise TypeSyntaxError(f"atom key {key!r} is not an atom name")
        return FAtom, (key, not neg)

    @functools.cached_property
    def name(self) -> str:
        return f"{self.key}^*" if self.neg else self.key


class FOne(_Node):
    name = "I"
    net = {}
    _duals = staticmethod(lambda: (FBot, ()))


class FBot(_Node):
    name = "I^*"
    net = {}
    _duals = staticmethod(lambda: (FOne, ()))


def _name(f: FTensor | FPar) -> str:
    """The rendering of ``f`` without outer parentheses, made with a stack
    rather than by recursion, so that a chain of any length renders: each
    tensor and par under ``f`` without a name gets one, children first."""
    unnamed, todo = [], [f]
    while todo:  # parents before their children
        g = todo.pop()
        unnamed.append(g)
        for h in (g.left, g.right):
            if isinstance(h, (FTensor, FPar)) and "name" not in vars(h):
                todo.append(h)
    for g in reversed(unnamed):
        ctx, op = (0, "(x)") if isinstance(g, FTensor) else (1, "(+)")
        vars(g)["name"] = f"{render_formula(g.left, ctx)} {op} {render_formula(g.right, ctx)}"
    return vars(f)["name"]


class _Binary(_Node):
    _fields = ("left", "right")
    net = functools.cached_property(_net)
    name = functools.cached_property(_name)

    def __new__(cls, left: Formula, right: Formula):
        return super().__new__(cls, left, right)

    @classmethod
    def _ident(cls, fields: tuple) -> tuple:
        # factors by id, so that the table keeps no formula alive and one
        # collection frees the node-dual cycles of a dropped formula at once;
        # a node keeps its factors, so the ids are theirs while it lives
        return cls, id(fields[0]), id(fields[1])


class FTensor(_Binary):
    _duals = staticmethod(lambda left, right: (FPar, (left.dual, right.dual)))


class FPar(_Binary):
    _duals = staticmethod(lambda left, right: (FTensor, (left.dual, right.dual)))


Formula = Union[FAtom, FOne, FBot, FTensor, FPar]


def formula_of_type(t: typesys.Type) -> Formula:
    """The formula of a type: its logical shape, with n-ary tensors and
    pars chained into binary ones.  A dimension stays in the atom's name
    (``A[2]``), so atoms of different dimensions never form an axiom."""
    if isinstance(t, typesys.Atom):
        return FAtom(t.label if t.dim is None else f"{t.label}[{t.dim}]")
    if isinstance(t, typesys.Unit):
        return FOne()
    if isinstance(t, typesys.Dual):
        return formula_of_type(t.body).dual
    if isinstance(t, typesys.Lolli):
        return FPar(formula_of_type(t.left).dual, formula_of_type(t.right))
    if isinstance(t, (typesys.Tensor, typesys.Par)):
        cls = FTensor if isinstance(t, typesys.Tensor) else FPar
        parts = [formula_of_type(p) for p in t.parts]
        f = parts[-1]
        for p in reversed(parts[:-1]):
            f = cls(p, f)
        return f
    raise UnsupportedConnective(f"{type(t).__name__} has no sequent counterpart")


def parse_formula(text: str) -> Formula:
    return formula_of_type(typesys.parse_type(text))


def _split_formulas(side: str) -> list[Formula]:
    """The formulas of a comma-separated list; a comma inside open
    parentheses, as in ``cap(..)``, ends no formula."""
    side = side.strip()
    if not side:
        return []
    parts: list[str] = []
    for piece in side.split(","):
        if parts and parts[-1].count("(") > parts[-1].count(")"):
            parts[-1] += "," + piece
        else:
            parts.append(piece)
    return [parse_formula(s) for s in parts]


def parse_sequent(text: str) -> tuple[Formula, ...]:
    """``A, B |- C`` becomes ``|- A^*, B^*, C``; a bare list is one-sided."""
    if "|-" in text:
        left, right = text.split("|-", 1)
        if "|-" in right:
            raise TypeSyntaxError(f"more than one |- in {text!r}")
        return tuple([f.dual for f in _split_formulas(left)] + _split_formulas(right))
    return tuple(_split_formulas(text))


def render_formula(f: Formula, ctx: int = 2) -> str:
    """``f.name``, parenthesized for a tensor when ``ctx`` is 0 and for a par
    when ``ctx`` is below 2."""
    prec = 1 if isinstance(f, FTensor) else 2 if isinstance(f, FPar) else 0
    return f"({f.name})" if prec > ctx else f.name


def render_sequent(seq: Sequence[Formula]) -> str:
    return "|- " + ", ".join(f.name for f in seq)


def _key(seq: Sequence[Formula]) -> tuple[str, ...]:
    return tuple(sorted(f.name for f in seq))


_Site = tuple[int, int]


def _atom_sites(seq: Sequence[Formula]) -> dict[str, list[_Site]]:
    """Per atom key, the site of each occurrence: ``(formula index,
    factor)`` with ``factor`` 1 inside the right factor of a top-level
    tensor and 0 elsewhere."""
    sites: dict[str, list[_Site]] = {}

    def walk(f: Formula, site: _Site) -> None:
        if isinstance(f, FAtom):
            sites.setdefault(f.key, []).append(site)
        elif isinstance(f, (FTensor, FPar)):
            walk(f.left, site)
            walk(f.right, site)

    for i, f in enumerate(seq):
        if isinstance(f, FTensor):
            walk(f.left, (i, 0))
            walk(f.right, (i, 1))
        else:
            walk(f, (i, 0))
    return sites


def _components(size: int, links: Sequence[tuple[int, int]]) -> list[int]:
    """A component label for each of ``size`` nodes joined by ``links``."""
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        parent[find(a)] = find(b)
    return [find(x) for x in range(size)]


def _contexts(seq: tuple[Formula, ...], i: int, links: list[list[_Site]]):
    """Given the axiom ``links`` of a linear sequent, the one candidate
    ``(left, right)`` context of the tensor ``seq[i]``, split by link
    components (none when the links reconnect the factors)."""
    # without the tensor, node i is its left factor and node n its right
    n, r = len(seq), (i, 1)
    comp = _components(n + 1, [(n if a == r else a[0], n if b == r else b[0]) for a, b in links])
    if comp[i] != comp[n]:
        yield (
            tuple(g for j, g in enumerate(seq) if j != i and comp[j] == comp[i]),
            tuple(g for j, g in enumerate(seq) if j != i and comp[j] != comp[i]),
        )


def _splits(rest: tuple[Formula, ...], factor: Formula):
    """Each split ``(left, right)`` of the multiset ``rest`` whose left
    premise ``left + (factor,)`` balances, once.

    Equal formulas form runs, and how many of each run go left is
    enumerated in reflected mixed-radix Gray order (Knuth, TAOCP 7.2.1.1,
    Algorithm H).  Each step moves one formula across, so the left
    premise's net count, packed into one integer ``sum(n * base**k)`` over
    its atoms ``k``, is kept with one addition.  ``base`` exceeds every
    ``|n|`` a split can reach, so the lowest non-zero ``n`` of a packed sum
    is not a multiple of it: the sum is 0 exactly when every atom balances."""
    runs: dict[str, list[Formula]] = {}
    for g in rest:
        runs.setdefault(g.name, []).append(g)
    groups = list(runs.values())
    reach = sum(map(abs, factor.net.values())) + sum(len(g) * sum(map(abs, g[0].net.values())) for g in groups)
    base, weight = reach + 1, {}

    def pack(f: Formula) -> int:
        return sum(n * weight.setdefault(key, base ** len(weight)) for key, n in f.net.items())

    step = [pack(g[0]) for g in groups]
    total = pack(factor)
    m = len(groups)
    count, direction, focus = [0] * m, [1] * m, list(range(m + 1))
    while True:
        if total == 0:
            yield (
                tuple(f for g, k in zip(groups, count) for f in g[:k]),
                tuple(f for g, k in zip(groups, count) for f in g[k:]),
            )
        j, focus[0] = focus[0], 0
        if j == m:
            return
        count[j] += direction[j]
        total += direction[j] * step[j]
        if count[j] == 0 or count[j] == len(groups[j]):
            direction[j] = -direction[j]
            focus[j], focus[j + 1] = focus[j + 1], j + 1


# -- proofs --------------------------------------------------------------------


@dataclass(frozen=True)
class Proof:
    """A derivation; ``principal`` is the index of the formula the rule acts
    on (absent for ``ax``/``one``/``mix0``/``mix``)."""

    rule: str
    sequent: tuple[Formula, ...]
    premises: tuple["Proof", ...] = ()
    principal: int | None = None


def _remove_at(seq: tuple[Formula, ...], i: int) -> tuple[Formula, ...]:
    return seq[:i] + seq[i + 1 :]


def _remove_one(seq: tuple[Formula, ...], f: Formula) -> tuple[Formula, ...] | None:
    for i, g in enumerate(seq):
        if g == f:
            return _remove_at(seq, i)
    return None


def verify_proof(proof: Proof) -> bool:
    """Check every rule application; raises :class:`MalformedProof` with the
    offending node's conclusion on failure, the first in pre-order.  Walked
    with a stack, so a proof of any depth is checked."""

    def fail(node: Proof, why: str):
        raise MalformedProof(f"{why} at {render_sequent(node.sequent)}")

    stack = [proof]
    while stack:  # pre-order, premises pushed in reverse
        node = stack.pop()
        seq = node.sequent
        rule = node.rule
        if rule == "ax":
            if node.premises:
                fail(node, "ax has premises")
            if len(seq) != 2 or not (
                isinstance(seq[0], FAtom)
                and isinstance(seq[1], FAtom)
                and seq[0] == seq[1].dual
            ):
                fail(node, "ax needs exactly a literal and its dual")
        elif rule == "one":
            if node.premises or seq != (FOne(),):
                fail(node, "one proves exactly |- I")
        elif rule == "mix0":
            if node.premises or seq:
                fail(node, "mix0 proves exactly the empty sequent")
        elif rule == "bot":
            i = node.principal
            if len(node.premises) != 1 or i is None or not (0 <= i < len(seq)):
                fail(node, "bot needs one premise and a principal index")
            if not isinstance(seq[i], FBot):
                fail(node, "bot principal is not I^*")
            if node.premises[0].sequent != _remove_at(seq, i):
                fail(node, "bot premise must drop exactly the principal")
        elif rule == "par":
            i = node.principal
            if len(node.premises) != 1 or i is None or not (0 <= i < len(seq)):
                fail(node, "par needs one premise and a principal index")
            f = seq[i]
            if not isinstance(f, FPar):
                fail(node, "par principal is not a par")
            want = seq[:i] + (f.left, f.right) + seq[i + 1 :]
            if node.premises[0].sequent != want:
                fail(node, "par premise must split the principal in place")
        elif rule == "tensor":
            i = node.principal
            if len(node.premises) != 2 or i is None or not (0 <= i < len(seq)):
                fail(node, "tensor needs two premises and a principal index")
            f = seq[i]
            if not isinstance(f, FTensor):
                fail(node, "tensor principal is not a tensor")
            g1 = _remove_one(node.premises[0].sequent, f.left)
            g2 = _remove_one(node.premises[1].sequent, f.right)
            if g1 is None or g2 is None:
                fail(node, "tensor premises must contain the factors")
            if _key(g1 + g2) != _key(_remove_at(seq, i)):
                fail(node, "tensor premises must split the context")
        elif rule == "mix":
            if len(node.premises) != 2:
                fail(node, "mix needs two premises")
            merged = node.premises[0].sequent + node.premises[1].sequent
            if _key(merged) != _key(seq):
                fail(node, "mix premises must partition the sequent")
        else:
            fail(node, f"unknown rule {rule!r}")
        stack += reversed(node.premises)
    return True


# -- search --------------------------------------------------------------------


class _Search:
    """One proof search from a balanced root sequent (see :func:`prove`),
    so every subsequent it expands balances too."""

    def __init__(self, budget: int):
        self.budget = budget
        self.expansions = 0
        self.memo: dict[tuple[str, ...], Proof | None] = {}

    def prove(self, seq: tuple[Formula, ...]) -> Proof | None:
        # The invertible phase (bot removal, par expansion, one removal via
        # mix) runs here in one loop; only the sequent left is an expansion.
        steps = []
        i = 0
        while i < len(seq):
            f = seq[i]
            if isinstance(f, FPar):
                steps.append(("par", seq, i))
                seq = seq[:i] + (f.left, f.right) + seq[i + 1 :]
            elif isinstance(f, FBot) or isinstance(f, FOne) and len(seq) > 1:
                steps.append(("bot" if isinstance(f, FBot) else "mix", seq, i))
                seq = _remove_at(seq, i)
            else:
                i += 1
        key = _key(seq)
        if key not in self.memo:
            self.expansions += 1
            if self.expansions > self.budget:
                raise CombinatorialBlowup(
                    f"proof search exceeded {self.budget} expansions"
                )
            self.memo[key] = self._prove(seq)
        proof = self.memo[key]
        if proof is None:
            return None
        proof = self._rebuild(proof, seq)
        for rule, conclusion, i in reversed(steps):
            if rule == "mix":
                unit = Proof("one", (FOne(),))
                proof = Proof("mix", conclusion, (proof, unit) if i == len(conclusion) - 1 else (unit, proof))
            else:
                proof = Proof(rule, conclusion, (proof,), i)
        return proof

    def _rebuild(self, proof: Proof, seq: tuple[Formula, ...]) -> Proof:
        # The memo key forgets formula order, so a hit may conclude a
        # reordering of ``seq``; a mix with the empty sequent is the exchange.
        if proof.sequent == seq:
            return proof
        return Proof("mix", seq, (proof, Proof("mix0", ())))

    def _prove(self, seq: tuple[Formula, ...]) -> Proof | None:
        if seq == (FOne(),):
            return Proof("one", seq)
        # literals only (or none): pair them off
        if all(isinstance(f, FAtom) for f in seq):
            return self._match_literals(seq)

        sites = _atom_sites(seq)
        linear = all(len(s) == 2 for s in sites.values())  # each atom once each way
        links = list(sites.values()) if linear else None
        tried = set()
        for i, f in enumerate(seq):
            if not isinstance(f, FTensor) or f.name in tried:
                continue
            tried.add(f.name)
            contexts = _contexts(seq, i, links) if linear else _splits(_remove_at(seq, i), f.left)
            for left, right in contexts:
                p1 = self.prove(left + (f.left,))
                p2 = None if p1 is None else self.prove(right + (f.right,))
                if p2 is not None:
                    return Proof("tensor", seq, (p1, p2), i)
                if linear:  # the split was forced, so the sequent is refuted
                    return None
        return None

    def _match_literals(self, seq: tuple[Formula, ...]) -> Proof:
        # balanced, so each literal's dual is there to pair it off: the first
        # literal with its first dual, then the rest alike, in a loop, so that
        # any number of pairs is matched; the mix chain is built innermost first
        pairs = []
        while len(seq) > 2:
            b = seq[0].dual
            pairs.append((seq, Proof("ax", (seq[0], b))))
            seq = _remove_one(seq[1:], b)
        proof = Proof("ax" if seq else "mix0", seq)
        for conclusion, axiom in reversed(pairs):
            proof = Proof("mix", conclusion, (axiom, proof))
        return proof


def prove(sequent: Sequence[Formula] | str, budget: int = 200_000) -> Proof | None:
    """Search for a derivation; ``None`` means not provable.  ``budget``
    bounds distinct subsequent expansions.  A sequent in which some atom
    does not occur as often positively as negatively is refused before any
    expansion, since every rule keeps each atom balanced."""
    seq = parse_sequent(sequent) if isinstance(sequent, str) else tuple(sequent)
    return None if any(_net(*seq).values()) else _Search(budget).prove(seq)


def provable(sequent: Sequence[Formula] | str, budget: int = 200_000) -> bool:
    return prove(sequent, budget) is not None


# -- rendering and re-parsing ----------------------------------------------------

_PROOF_LINE = re.compile(r"^(\s*)(ax|one|mix0|bot|par|tensor|mix)(?:@(\d+))?:\s*\|-\s*(.*)$")


def render_proof(proof: Proof) -> str:
    """Indented tree, one node per line: ``rule[@principal]: |- formulas``.
    Walked with a stack, so a proof of any depth renders."""
    lines: list[str] = []
    stack = [(proof, 0)]
    while stack:
        node, depth = stack.pop()
        at = "" if node.principal is None else f"@{node.principal}"
        lines.append(f"{'  ' * depth}{node.rule}{at}: {render_sequent(node.sequent)}")
        stack += [(prem, depth + 1) for prem in reversed(node.premises)]
    return "\n".join(lines)


def parse_proof(text: str) -> Proof:
    """Inverse of :func:`render_proof` (modulo whitespace)."""
    entries: list[tuple[int, str, int | None, tuple[Formula, ...]]] = []
    for raw in text.splitlines():
        if not raw.strip():
            continue
        m = _PROOF_LINE.match(raw)
        if m is None:
            raise MalformedProof(f"cannot parse proof line {raw.strip()!r}")
        indent, rule, principal, body = m.groups()
        if len(indent) % 2:
            raise MalformedProof(f"odd indentation in {raw.strip()!r}")
        formulas = tuple(_split_formulas(body))
        entries.append((len(indent) // 2, rule, None if principal is None else int(principal), formulas))

    pos = 0

    def build(depth: int) -> Proof:
        nonlocal pos
        if pos >= len(entries) or entries[pos][0] != depth:
            raise MalformedProof("proof tree indentation does not nest")
        d, rule, principal, seq = entries[pos]
        pos += 1
        premises = []
        while pos < len(entries) and entries[pos][0] == depth + 1:
            premises.append(build(depth + 1))
        return Proof(rule, seq, tuple(premises), principal)

    proof = build(0)
    if pos != len(entries):
        raise MalformedProof("trailing lines after the root derivation")
    return proof
