"""Syntax and algebra of higher-order causal types.

Types are built from first-order atoms ``Name[dim]`` with tensor ``(x)``,
"par" ``(+)``, linear implication ``-o``, duality ``^*``, the self-dual unit
``I`` and intersections ``cap(s, t)``.  The concrete grammar, in decreasing
binding strength::

    postfix   ^*                       (tightest, postfix)
    tensor    s (x) t                  (left-chained, n-ary)
    par       s (+) t                  (left-chained, n-ary)
    lolli     s -o t                   (right associative, loosest)
    atoms     Name | Name[dim] | I | cap(s, t, ...) | ( s )

``s -o t`` abbreviates ``s^* (+) t``.  :func:`normalize` rewrites any type to
a negation normal form: duals pushed onto atoms, implications expanded,
units absorbed, and nested tensors/pars flattened into n-ary nodes.

Every type embeds canonically into a first-order channel shape.  The dualled
atom occurrences become input wires and the plain occurrences output wires,
so a type with negatives ``i1..im`` and positives ``o1..on`` sits inside the
ambient channel type ``i1 (x) .. (x) im -o o1 (x) .. (x) on``; within a
type, atom labels name wires and must be distinct.  :func:`intersect` forms
``cap(s, t)`` after checking both sides inhabit the same ambient shape.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .errors import (
    DuplicateLabel,
    EmbedMismatch,
    TypeSyntaxError,
    UnsupportedConnective,
)


# -- abstract syntax -----------------------------------------------------------


# a name of the grammar, and an atom's label: a name other than ``I``, also in ``mll``'s atom keys
_NAME = r"[A-Za-z_][A-Za-z0-9_']*"
_LABEL = rf"(?!I(?![A-Za-z0-9_'])){_NAME}"
_IS_LABEL = re.compile(_LABEL)


@dataclass(frozen=True)
class Atom:
    """A first-order system type; the label doubles as a wire name.  It is
    a name other than ``I`` and the dimension None or an ``int`` >= 1, so
    that :func:`render_type` writes what :func:`parse_type` reads back."""

    label: str
    dim: int | None = None

    def __post_init__(self):
        if not (isinstance(self.label, str) and _IS_LABEL.fullmatch(self.label)):
            raise TypeSyntaxError(f"atom label {self.label!r} is not a name of the grammar, or is I")
        if self.dim is not None and not (type(self.dim) is int and self.dim >= 1):
            raise TypeSyntaxError(f"atom dimension must be an int >= 1, got {self.dim!r}")


@dataclass(frozen=True)
class Unit:
    """The trivial system ``I`` (self-dual)."""


@dataclass(frozen=True)
class Dual:
    body: "Type"


class _Parts:
    """Coerces ``parts`` to a tuple, so every type is hashable and equality
    does not depend on the sequence type it was built from."""

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


@dataclass(frozen=True)
class Tensor(_Parts):
    parts: tuple["Type", ...]


@dataclass(frozen=True)
class Par(_Parts):
    parts: tuple["Type", ...]


@dataclass(frozen=True)
class Lolli:
    left: "Type"
    right: "Type"


@dataclass(frozen=True)
class Cap(_Parts):
    """Intersection of types over a common ambient channel shape."""

    parts: tuple["Type", ...]


Type = Union[Atom, Unit, Dual, Tensor, Par, Lolli, Cap]


# -- parsing -------------------------------------------------------------------

_TOKEN = re.compile(
    rf"""\s*(?:
        (?P<tensor>\(x\))
      | (?P<par>\(\+\))
      | (?P<lolli>-o)
      | (?P<dual>\^\*)
      | (?P<lpar>\()
      | (?P<rpar>\))
      | (?P<lbrk>\[)
      | (?P<rbrk>\])
      | (?P<comma>,)
      | (?P<num>[0-9]+)
      | (?P<name>{_NAME})
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == m.start():
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise TypeSyntaxError(f"cannot tokenize {rest[:12]!r} in {text!r}")
        pos = m.end()
        kind = m.lastgroup
        if kind is not None:
            tokens.append((kind, m.group(kind)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind: str | None = None) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise TypeSyntaxError(f"unexpected end of input in {self.text!r}")
        if kind is not None and tok[0] != kind:
            raise TypeSyntaxError(f"expected {kind} but found {tok[1]!r} in {self.text!r}")
        self.pos += 1
        return tok

    def parse(self) -> Type:
        t = self.lolli()
        if self.peek() is not None:
            raise TypeSyntaxError(f"trailing {self.peek()[1]!r} in {self.text!r}")
        return t

    def lolli(self) -> Type:
        left = self.par()
        if self.peek() and self.peek()[0] == "lolli":
            self.take("lolli")
            return Lolli(left, self.lolli())
        return left

    def par(self) -> Type:
        parts = [self.tensor()]
        while self.peek() and self.peek()[0] == "par":
            self.take("par")
            parts.append(self.tensor())
        return parts[0] if len(parts) == 1 else Par(tuple(parts))

    def tensor(self) -> Type:
        parts = [self.postfix()]
        while self.peek() and self.peek()[0] == "tensor":
            self.take("tensor")
            parts.append(self.postfix())
        return parts[0] if len(parts) == 1 else Tensor(tuple(parts))

    def postfix(self) -> Type:
        t = self.primary()
        while self.peek() and self.peek()[0] == "dual":
            self.take("dual")
            t = Dual(t)
        return t

    def primary(self) -> Type:
        tok = self.take()
        kind, value = tok
        if kind == "lpar":
            t = self.lolli()
            self.take("rpar")
            return t
        if kind == "name":
            if value == "I":
                return Unit()
            if value == "cap" and self.peek() and self.peek()[0] == "lpar":
                self.take("lpar")
                parts = [self.lolli()]
                while self.peek() and self.peek()[0] == "comma":
                    self.take("comma")
                    parts.append(self.lolli())
                self.take("rpar")
                if len(parts) < 2:
                    raise TypeSyntaxError("cap(...) needs at least two arguments")
                return Cap(tuple(parts))
            dim = None
            if self.peek() and self.peek()[0] == "lbrk":
                self.take("lbrk")
                dim = int(self.take("num")[1])
                self.take("rbrk")
            return Atom(value, dim)
        raise TypeSyntaxError(f"unexpected {value!r} in {self.text!r}")


def parse_type(text: str) -> Type:
    """Parse the concrete syntax described in the module docstring."""
    return _Parser(text).parse()


# -- printing ------------------------------------------------------------------

_PREC = {"atom": 0, "tensor": 1, "par": 2, "lolli": 3}


def render_type(t: Type) -> str:
    """Print a type; ``parse_type(render_type(t)) == t`` for normalized t."""

    def go(t: Type, ctx: int) -> str:
        if isinstance(t, Atom):
            return t.label if t.dim is None else f"{t.label}[{t.dim}]"
        if isinstance(t, Unit):
            return "I"
        if isinstance(t, Dual):
            body = go(t.body, _PREC["atom"])
            return f"{body}^*"
        if isinstance(t, Cap):
            return "cap(" + ", ".join(go(p, _PREC["lolli"]) for p in t.parts) + ")"
        if isinstance(t, Tensor):
            s = " (x) ".join(go(p, _PREC["tensor"] - 1) for p in t.parts)
            prec = _PREC["tensor"]
        elif isinstance(t, Par):
            s = " (+) ".join(go(p, _PREC["par"] - 1) for p in t.parts)
            prec = _PREC["par"]
        else:
            s = f"{go(t.left, _PREC['lolli'] - 1)} -o {go(t.right, _PREC['lolli'])}"
            prec = _PREC["lolli"]
        return f"({s})" if prec > ctx else s

    return go(t, _PREC["lolli"])


# -- normalization -------------------------------------------------------------


def normalize(t: Type) -> Type:
    """Negation normal form: duals on atoms only, no implications, units
    absorbed, nested tensors/pars flattened."""

    def flatten(cls, parts: Sequence[Type]) -> Type:
        flat: list[Type] = []
        for p in parts:
            if isinstance(p, cls):
                flat.extend(p.parts)
            elif isinstance(p, Unit):
                continue
            else:
                flat.append(p)
        if not flat:
            return Unit()
        if len(flat) == 1:
            return flat[0]
        return cls(tuple(flat))

    def go(t: Type, neg: bool) -> Type:
        if isinstance(t, Atom):
            return Dual(t) if neg else t
        if isinstance(t, Unit):
            return Unit()
        if isinstance(t, Dual):
            return go(t.body, not neg)
        if isinstance(t, Lolli):
            return go(Par((Dual(t.left), t.right)), neg)
        if isinstance(t, Tensor):
            cls = Par if neg else Tensor
            return flatten(cls, [go(p, neg) for p in t.parts])
        if isinstance(t, Par):
            cls = Tensor if neg else Par
            return flatten(cls, [go(p, neg) for p in t.parts])
        if isinstance(t, Cap):
            if neg:
                raise UnsupportedConnective("the dual of an intersection is not supported")
            flat: list[Type] = []
            for p in t.parts:
                q = go(p, False)
                if isinstance(q, Cap):
                    flat.extend(q.parts)
                elif q not in flat:
                    flat.append(q)
            return flat[0] if len(flat) == 1 else Cap(tuple(flat))
        raise UnsupportedConnective(f"unknown type node {t!r}")

    return go(t, False)


# -- atoms and first-order embedding -------------------------------------------


def atom_occurrences(t: Type) -> Iterator[tuple[Atom, bool]]:
    """Yield ``(atom, dualled)`` left to right; expects a normalized type."""
    if isinstance(t, Atom):
        yield (t, False)
    elif isinstance(t, Unit):
        return
    elif isinstance(t, Dual):
        if not isinstance(t.body, Atom):
            raise UnsupportedConnective("atom_occurrences expects a normalized type")
        yield (t.body, True)
    elif isinstance(t, (Tensor, Par, Cap)):
        for p in t.parts:
            yield from atom_occurrences(p)
    elif isinstance(t, Lolli):
        yield from atom_occurrences(normalize(t))
    else:
        raise UnsupportedConnective(f"unknown type node {t!r}")


def is_first_order(t: Type) -> bool:
    """True for tensors/pars of plain atoms (on such types the two products
    coincide, so both count as first-order)."""
    if isinstance(t, (Atom, Unit)):
        return True
    if isinstance(t, (Tensor, Par)):
        return all(is_first_order(p) for p in t.parts)
    return False


@dataclass(frozen=True)
class Embedding:
    """How a type sits inside its ambient first-order channel shape.

    ``in_atoms`` are the dualled occurrences (the channel's inputs) and
    ``out_atoms`` the plain ones (its outputs), each in left-to-right order
    of appearance.  The identity of wires is their label, so transporting
    process data into the ambient shape is a no-op; only the bookkeeping of
    which labels are inputs and which are outputs matters.
    """

    source: Type
    in_atoms: tuple[Atom, ...]
    out_atoms: tuple[Atom, ...]

    def ambient(self) -> Type:
        ins = Tensor(self.in_atoms) if len(self.in_atoms) != 1 else self.in_atoms[0]
        outs = Tensor(self.out_atoms) if len(self.out_atoms) != 1 else self.out_atoms[0]
        if not self.in_atoms:
            return normalize(outs if self.out_atoms else Unit())
        return normalize(Lolli(ins, outs))


def fo_embedding(t: Type) -> Embedding:
    """Embed ``t`` into its ambient channel type (negatives -o positives).

    Within a ``cap`` all branches must induce the same partition of labels
    into inputs and outputs (with equal dims), otherwise the intersection
    does not live in a single ambient shape and :class:`EmbedMismatch` is
    raised.
    """
    n = normalize(t)
    branches = n.parts if isinstance(n, Cap) else (n,)
    first: Embedding | None = None
    for b in branches:
        ins: list[Atom] = []
        outs: list[Atom] = []
        seen: set[str] = set()
        for atom, dualled in atom_occurrences(b):
            if atom.label in seen:
                raise DuplicateLabel(f"atom label {atom.label!r} used twice in {render_type(b)}")
            seen.add(atom.label)
            (ins if dualled else outs).append(atom)
        e = Embedding(n, tuple(ins), tuple(outs))
        if first is None:
            first = e
        else:
            if set(first.in_atoms) != set(e.in_atoms) or set(first.out_atoms) != set(e.out_atoms):
                raise EmbedMismatch(
                    f"branches of {render_type(n)} disagree on the ambient shape: "
                    f"{render_type(first.ambient())} vs {render_type(e.ambient())}"
                )
    if first is None:
        return Embedding(n, (), ())
    return first


def intersect(s: Type, t: Type) -> Type:
    """Form ``cap(s, t)``, requiring a common ambient channel shape."""
    cap = normalize(Cap((s, t)))
    fo_embedding(cap)
    return cap
