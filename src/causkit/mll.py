"""A prover for multiplicative linear logic with mix.

Coarse causal-type relationships (inclusions between tensor/par/lolli
shapes that hold for every choice of first-order atoms) are exactly the
sequents derivable in multiplicative linear logic extended with the binary
and nullary mix rules.  This module decides such sequents and produces
checkable proof trees.

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
``1`` from a context, which mix makes admissible) and short-circuits
sequents of bare literals by perfect matching.  Unbalanced literal counts
prune early: every rule preserves the property that each atom occurs as
often positively as negatively in a provable sequent.  Any other sequent
has a top-level tensor, and one memoized tensor step decides it by trying
each tensor on its candidate contexts.  A proof that ends in ``mix`` can
always push that mix into a tensor premise's context (Fleury & Retoré,
*The mix rule*, 1994), so no mix bipartition is tried: proofs use ``mix``
only to drop a ``1``, to pair off bare literals and, with ``mix0``, to
reorder a memoized proof.

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

A sequent with a repeated atom tries every context split of every tensor
and backtracks; its subsequents that are linear are decided as above.
"""

from __future__ import annotations

import functools
import re
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


@dataclass(frozen=True)
class FAtom:
    key: str
    neg: bool = False


@dataclass(frozen=True)
class FOne:
    pass


@dataclass(frozen=True)
class FBot:
    pass


@dataclass(frozen=True)
class FTensor:
    left: "Formula"
    right: "Formula"

    @functools.cached_property
    def text(self) -> str:
        """The rendering without outer parentheses, made once per formula."""
        return f"{render_formula(self.left, 0)} (x) {render_formula(self.right, 0)}"


@dataclass(frozen=True)
class FPar:
    left: "Formula"
    right: "Formula"

    @functools.cached_property
    def text(self) -> str:
        """The rendering without outer parentheses, made once per formula."""
        return f"{render_formula(self.left, 1)} (+) {render_formula(self.right, 1)}"


Formula = Union[FAtom, FOne, FBot, FTensor, FPar]


def dual(f: Formula) -> Formula:
    if isinstance(f, FAtom):
        return FAtom(f.key, not f.neg)
    if isinstance(f, FOne):
        return FBot()
    if isinstance(f, FBot):
        return FOne()
    if isinstance(f, FTensor):
        return FPar(dual(f.left), dual(f.right))
    return FTensor(dual(f.left), dual(f.right))


def formula_of_type(t: typesys.Type) -> Formula:
    """Forget dimensions and n-ary grouping; keep only the logical shape."""
    if isinstance(t, typesys.Atom):
        return FAtom(t.label if t.dim is None else f"{t.label}[{t.dim}]")
    if isinstance(t, typesys.Unit):
        return FOne()
    if isinstance(t, typesys.Dual):
        return dual(formula_of_type(t.body))
    if isinstance(t, typesys.Lolli):
        return FPar(dual(formula_of_type(t.left)), formula_of_type(t.right))
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


def parse_sequent(text: str) -> tuple[Formula, ...]:
    """``A, B |- C`` becomes ``|- A^*, B^*, C``; a bare list is one-sided."""

    def split_formulas(side: str) -> list[Formula]:
        side = side.strip()
        if not side:
            return []
        return [parse_formula(s) for s in side.split(",")]

    if "|-" in text:
        left, right = text.split("|-", 1)
        if "|-" in right:
            raise TypeSyntaxError(f"more than one |- in {text!r}")
        return tuple(
            [dual(f) for f in split_formulas(left)] + split_formulas(right)
        )
    return tuple(split_formulas(text))


def render_formula(f: Formula, ctx: int = 2) -> str:
    if isinstance(f, FAtom):
        return f"{f.key}^*" if f.neg else f.key
    if isinstance(f, FOne):
        return "I"
    if isinstance(f, FBot):
        return "I^*"
    prec = 1 if isinstance(f, FTensor) else 2
    return f"({f.text})" if prec > ctx else f.text


def render_sequent(seq: Sequence[Formula]) -> str:
    return "|- " + ", ".join(render_formula(f) for f in seq)


def _key(seq: Sequence[Formula]) -> tuple[str, ...]:
    return tuple(sorted(render_formula(f) for f in seq))


_Site = tuple[int, int]


def _atom_sites(seq: Sequence[Formula]) -> list[list] | None:
    """Per atom key, its net count (positive minus negative occurrences)
    followed by the site of each occurrence: ``(formula index, factor)``
    with ``factor`` 1 inside the right factor of a top-level tensor and 0
    elsewhere.  ``None`` when some net count is not 0."""
    sites: dict[str, list] = {}

    def walk(f: Formula, site: _Site) -> None:
        if isinstance(f, FAtom):
            entry = sites.get(f.key)
            if entry is None:
                sites[f.key] = [-1 if f.neg else 1, site]
            else:
                entry[0] += -1 if f.neg else 1
                entry.append(site)
        elif isinstance(f, (FTensor, FPar)):
            walk(f.left, site)
            walk(f.right, site)

    for i, f in enumerate(seq):
        if isinstance(f, FTensor):
            walk(f.left, (i, 0))
            walk(f.right, (i, 1))
        else:
            walk(f, (i, 0))
    entries = list(sites.values())
    return None if any(e[0] for e in entries) else entries


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


def _contexts(seq: tuple[Formula, ...], i: int, links: list[tuple[_Site, _Site]] | None):
    """The candidate ``(left, right)`` contexts of the tensor ``seq[i]``:
    every split, or, given the axiom ``links`` of a linear sequent, the one
    split by link components (none when the links reconnect the factors)."""
    if links is not None:
        # without the tensor, node i is its left factor and node n its right
        n, r = len(seq), (i, 1)
        comp = _components(n + 1, [(n if a == r else a[0], n if b == r else b[0]) for a, b in links])
        if comp[i] != comp[n]:
            yield (
                tuple(g for j, g in enumerate(seq) if j != i and comp[j] == comp[i]),
                tuple(g for j, g in enumerate(seq) if j != i and comp[j] != comp[i]),
            )
        return
    rest = _remove_at(seq, i)
    m = len(rest)
    for mask in range(1 << m):
        yield (
            tuple(rest[j] for j in range(m) if mask >> j & 1),
            tuple(rest[j] for j in range(m) if not mask >> j & 1),
        )


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
    offending node's conclusion on failure."""

    def fail(node: Proof, why: str):
        raise MalformedProof(f"{why} at {render_sequent(node.sequent)}")

    def go(node: Proof) -> None:
        seq = node.sequent
        rule = node.rule
        if rule == "ax":
            if node.premises:
                fail(node, "ax has premises")
            if len(seq) != 2 or not (
                isinstance(seq[0], FAtom)
                and isinstance(seq[1], FAtom)
                and seq[0] == dual(seq[1])
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
        for prem in node.premises:
            go(prem)

    go(proof)
    return True


# -- search --------------------------------------------------------------------


class _Search:
    def __init__(self, budget: int):
        self.budget = budget
        self.expansions = 0
        self.memo: dict[tuple[str, ...], Proof | None] = {}

    def prove(self, seq: tuple[Formula, ...]) -> Proof | None:
        key = _key(seq)
        if key in self.memo:
            cached = self.memo[key]
            return self._rebuild(cached, seq) if cached is not None else None
        self.expansions += 1
        if self.expansions > self.budget:
            raise CombinatorialBlowup(
                f"proof search exceeded {self.budget} expansions"
            )
        proof = self._prove(seq)
        self.memo[key] = proof
        return proof

    def _rebuild(self, proof: Proof, seq: tuple[Formula, ...]) -> Proof:
        # The memo key forgets formula order, so a hit may conclude a
        # reordering of ``seq``; a mix with the empty sequent is the exchange.
        if proof.sequent == seq:
            return proof
        return Proof("mix", seq, (proof, Proof("mix0", ())))

    def _prove(self, seq: tuple[Formula, ...]) -> Proof | None:
        # invertible: bot removal, par expansion, one removal (via mix)
        for i, f in enumerate(seq):
            if isinstance(f, FBot):
                sub = self.prove(_remove_at(seq, i))
                return Proof("bot", seq, (sub,), i) if sub else None
            if isinstance(f, FPar):
                sub = self.prove(seq[:i] + (f.left, f.right) + seq[i + 1 :])
                return Proof("par", seq, (sub,), i) if sub else None
        if seq == (FOne(),):
            return Proof("one", seq)
        for i, f in enumerate(seq):
            if isinstance(f, FOne):
                sub = self.prove(_remove_at(seq, i))
                if sub is None:
                    return None
                unit = Proof("one", (FOne(),))
                return Proof("mix", seq, (sub, unit) if i == len(seq) - 1 else (unit, sub))

        # literals only (or none): pair them off
        if all(isinstance(f, FAtom) for f in seq):
            return self._match_literals(seq)

        atoms = _atom_sites(seq)
        if atoms is None:
            return None
        linear = all(len(a) == 3 for a in atoms)
        links = [(a[1], a[2]) for a in atoms] if linear else None
        for i, f in enumerate(seq):
            if not isinstance(f, FTensor):
                continue
            for left, right in _contexts(seq, i, links):
                p1 = self.prove(left + (f.left,))
                p2 = None if p1 is None else self.prove(right + (f.right,))
                if p2 is not None:
                    return Proof("tensor", seq, (p1, p2), i)
                if linear:  # the split was forced, so the sequent is refuted
                    return None
        return None

    def _match_literals(self, seq: tuple[Formula, ...]) -> Proof | None:
        if not seq:
            return Proof("mix0", seq)
        if len(seq) == 2 and seq[0] == dual(seq[1]):
            return Proof("ax", seq)
        a = seq[0]
        rest = _remove_at(seq, 0)
        partner = _remove_one(rest, dual(a))
        if partner is None:
            return None
        sub = self._match_literals(partner)
        if sub is None:
            return None
        pair = Proof("ax", (a, dual(a)))
        return Proof("mix", seq, (pair, sub))


def prove(sequent: Sequence[Formula] | str, budget: int = 200_000) -> Proof | None:
    """Search for a derivation; ``None`` means not provable.  ``budget``
    bounds distinct subsequent expansions."""
    seq = parse_sequent(sequent) if isinstance(sequent, str) else tuple(sequent)
    return _Search(budget).prove(seq)


def provable(sequent: Sequence[Formula] | str, budget: int = 200_000) -> bool:
    return prove(sequent, budget) is not None


# -- rendering and re-parsing ----------------------------------------------------

_PROOF_LINE = re.compile(r"^(\s*)(ax|one|mix0|bot|par|tensor|mix)(?:@(\d+))?:\s*\|-\s*(.*)$")


def render_proof(proof: Proof) -> str:
    """Indented tree, one node per line: ``rule[@principal]: |- formulas``."""
    lines: list[str] = []

    def go(node: Proof, depth: int) -> None:
        at = "" if node.principal is None else f"@{node.principal}"
        lines.append(f"{'  ' * depth}{node.rule}{at}: {render_sequent(node.sequent)}")
        for prem in node.premises:
            go(prem, depth + 1)

    go(proof, 0)
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
        formulas = tuple(parse_formula(s) for s in body.split(",")) if body.strip() else ()
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
