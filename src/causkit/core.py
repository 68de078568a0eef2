"""Dense process tensors with labeled wires.

A :class:`Process` is a box with named input and output wires, realized as a
dense numpy array in one of three backends:

``matr+``
    Nonnegative real matrices (classical stochastic linear maps).  One array
    axis per wire, ``float64``.

``cpm``
    Completely positive maps stored as Choi matrices, ``complex128``.  Each
    wire of Hilbert dimension ``d`` contributes *two* axes of size ``d`` — a
    ket axis and a bra axis.  All ket axes come before all bra axes, so
    flattening the first half of the axes against the second half yields the
    ordinary Choi matrix over (⊗ outputs) ⊗ (⊗ inputs).

``rel``
    Boolean matrices over the join/meet semiring, ``bool_``.  One axis per
    wire.

The canonical axis order is row-major with **all output wires before all
input wires**, in the order the wires are listed.  Serialized data (see
:func:`to_json_dict`) is the flat row-major ravel of exactly this layout.

Composing two wires always contracts like-with-like: a single axis pair for
``matr+``/``rel``, and ket-with-ket plus bra-with-bra for ``cpm`` (the link
product).  A pleasant consequence is that bending a wire from input to output
or back is pure relabeling — the stored array never changes, matching the
compact-closed cup/cap semantics in all three backends.

Every move that combines or removes wires is one ``np.einsum``, so one code
path serves all three backends: :func:`plug`, :func:`compose_seq` and
:func:`tensor_par` (plugging along no wires) are a contraction planned by
:func:`_plan`, :func:`plug_family` is the same contraction for every member
of a family at once, and :func:`discard_outputs` gives each discarded wire's
axes one subscript that the result leaves out (a sum, a join or a partial
trace).  Size-1 axes are squeezed out of every einsum, so only the larger
axes count against the 52 subscripts it can name.  :func:`permute` and
:func:`bend` only reorder axes.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import BACKENDS, CPM, DEFAULT_TOL, MATR, REL  # defined in the package, which loads no numpy
from .errors import (
    BackendMismatch,
    CyclicWiring,
    DuplicateLabel,
    FormatError,
    InvalidPermutation,
    NoSuchWire,
    ShapeMismatch,
    UnsupportedBackend,
)


@dataclass(frozen=True)
class _Backend:
    """What the wire bookkeeping and the verdict rule read about a backend."""

    dtype: type  # of the stored array
    scalar: type  # Python value of a process with no wires
    axes_per_wire: int  # cpm: a ket axis and a bra axis
    exact: bool  # verdicts pass only on a zero residual, whatever the tolerance


_BACKEND = {
    MATR: _Backend(np.float64, float, 1, False),
    CPM: _Backend(np.complex128, complex, 2, False),
    REL: _Backend(np.bool_, bool, 1, True),
}


def _spec(backend: str) -> _Backend:
    try:
        return _BACKEND[backend]
    except (KeyError, TypeError):
        raise UnsupportedBackend(f"unknown backend {backend!r}, expected one of {BACKENDS}") from None


def _wire_axes(n: int, positions: Sequence[int], per_wire: int) -> list[int]:
    """Array axes of the wires at ``positions`` in a tensor of ``n`` wires:
    the first axis of each, then (cpm) the second axis of each."""
    return [k * n + i for k in range(per_wire) for i in positions]


def _position(pos: Mapping[str, int], label: str) -> int:
    """``pos[label]`` of a label→position map; a missing label raises."""
    try:
        return pos[label]
    except KeyError:
        raise NoSuchWire(f"process has no wire {label!r} (wires: {list(pos)})") from None


@dataclass(frozen=True, order=True)
class System:
    """A wire type: a label together with its dimension.

    For ``cpm`` the dimension is the Hilbert-space dimension of the wire (the
    Choi axes have this size); for ``matr+`` it is the number of classical
    states; for ``rel`` the size of the underlying set.
    """

    label: str
    dim: int

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise ShapeMismatch(f"system label must be a non-empty string, got {self.label!r}")
        if isinstance(self.dim, bool) or not isinstance(self.dim, int) or self.dim < 1:
            raise ShapeMismatch(f"system {self.label!r} must have integer dimension >= 1, got {self.dim!r}")


@dataclass(frozen=True, eq=False)
class Process:
    """A dense process tensor. See the module docstring for the data layout."""

    backend: str
    out_wires: tuple[System, ...]
    in_wires: tuple[System, ...]
    data: np.ndarray
    _pos: dict[str, int] = field(init=False, repr=False)  # label -> canonical position

    def __post_init__(self):
        spec = _spec(self.backend)
        object.__setattr__(self, "out_wires", tuple(self.out_wires))
        object.__setattr__(self, "in_wires", tuple(self.in_wires))
        wires = self.out_wires + self.in_wires
        pos = {w.label: i for i, w in enumerate(wires)}
        if len(pos) != len(wires):
            labels = [w.label for w in wires]
            dupes = sorted({l for l in labels if labels.count(l) > 1})
            raise DuplicateLabel(f"wire labels must be unique within a process: {dupes}")
        object.__setattr__(self, "_pos", pos)
        data = np.asarray(self.data, dtype=spec.dtype)
        expected = tuple(w.dim for w in wires) * spec.axes_per_wire
        if data.shape != expected:
            raise ShapeMismatch(f"data shape {data.shape} does not match wires, expected {expected}")
        object.__setattr__(self, "data", data)

    # -- structural helpers -------------------------------------------------

    @staticmethod
    def expected_shape(backend: str, out_wires: Sequence[System], in_wires: Sequence[System]) -> tuple[int, ...]:
        dims = tuple(w.dim for w in out_wires) + tuple(w.dim for w in in_wires)
        return dims * _spec(backend).axes_per_wire

    @property
    def wires(self) -> tuple[System, ...]:
        """All wires in canonical order: outputs first, then inputs."""
        return self.out_wires + self.in_wires

    @property
    def n_wires(self) -> int:
        return len(self.out_wires) + len(self.in_wires)

    @property
    def is_scalar(self) -> bool:
        return self.n_wires == 0

    def wire_pos(self, label: str) -> int:
        """Position of the wire in the canonical wire order."""
        return _position(self._pos, label)

    def wire(self, label: str) -> System:
        return self.wires[self.wire_pos(label)]

    def role(self, label: str) -> str:
        return "out" if self.wire_pos(label) < len(self.out_wires) else "in"

    def axes(self, label: str) -> tuple[int, ...]:
        """Array axes belonging to one wire: ``(axis,)`` or ``(ket, bra)``."""
        return tuple(_wire_axes(self.n_wires, [self.wire_pos(label)], _spec(self.backend).axes_per_wire))

    def scalar_value(self):
        if not self.is_scalar:
            raise ShapeMismatch("process still has open wires, not a scalar")
        return _spec(self.backend).scalar(self.data[()])

    def __repr__(self):
        outs = ", ".join(f"{w.label}[{w.dim}]" for w in self.out_wires) or "I"
        ins = ", ".join(f"{w.label}[{w.dim}]" for w in self.in_wires) or "I"
        return f"<Process {self.backend}: {ins} -> {outs}>"


def _maxabs(a: np.ndarray, batch: int = 0):
    """Largest absolute entry of an array (booleans count as 0 and 1), as a
    float; or, with ``batch`` leading axes, an array of the largest entry of
    each array behind them."""
    m = np.abs(a)
    return m.max(axis=tuple(range(batch, a.ndim))) if batch else float(m.max())


def maxabs(p: Process) -> float:
    """Largest absolute entry; the natural scale for residual normalization."""
    return _maxabs(p.data)


def distance(f: Process, g: Process) -> float:
    """Max-abs difference between two processes with identical wire layout
    (0.0 or 1.0 for rel)."""
    _require_same_shape(f, g)
    return _maxdiff(f.data, g.data)


def _require_same_shape(f: Process, g: Process) -> None:
    if f.backend != g.backend:
        raise BackendMismatch(f"{f.backend} vs {g.backend}")
    if f.out_wires != g.out_wires or f.in_wires != g.in_wires:
        raise ShapeMismatch(
            f"wire layouts differ: {f.out_wires}/{f.in_wires} vs {g.out_wires}/{g.in_wires}"
        )


def _maxdiff(a: np.ndarray, b: np.ndarray, batch: int = 0):
    """Largest entry of ``|a - b|``, per batch index as in :func:`_maxabs`;
    booleans differ by their exclusive or."""
    return _maxabs(a ^ b if a.dtype == np.bool_ else a - b, batch)


def _reorder_data(p: Process, new_wires: Sequence[System]) -> np.ndarray:
    """Transpose ``p.data`` so its wire axes follow ``new_wires`` order."""
    idx = [p.wire_pos(w.label) for w in new_wires]
    return p.data.transpose(_wire_axes(p.n_wires, idx, _spec(p.backend).axes_per_wire))


# -- constructors -----------------------------------------------------------


def scalar(backend: str, value) -> Process:
    """A process with no wires."""
    return Process(backend, (), (), value)


def _unit(backend: str, dim: int) -> np.ndarray:
    """The tensor shared by the identity, the cap and the cup: a Kronecker
    delta between the two wires on each axis."""
    eye = np.eye(dim)
    return functools.reduce(np.multiply.outer, [eye] * _spec(backend).axes_per_wire)


def identity(backend: str, sys_in: System, out_label: str | None = None) -> Process:
    """The identity channel on one wire.

    The output wire needs its own label (labels are unique within a process);
    by default the input label with a prime appended.
    """
    out_label = sys_in.label + "'" if out_label is None else out_label
    return Process(backend, (System(out_label, sys_in.dim),), (sys_in,), _unit(backend, sys_in.dim))


def cap(backend: str, dim: int, label_x: str, label_y: str) -> Process:
    """The cap effect: two input wires of equal dimension contracted together."""
    return Process(backend, (), (System(label_x, dim), System(label_y, dim)), _unit(backend, dim))


def cup(backend: str, dim: int, label_x: str, label_y: str) -> Process:
    """The cup state: the same tensor as :func:`cap` with both wires as outputs."""
    return Process(backend, (System(label_x, dim), System(label_y, dim)), (), _unit(backend, dim))


# -- structural operations ---------------------------------------------------


def rename(p: Process, mapping: Mapping[str, str]) -> Process:
    """Relabel wires; dims and data are untouched."""
    for old in mapping:
        p.wire_pos(old)  # raises NoSuchWire
    new_out = tuple(System(mapping.get(w.label, w.label), w.dim) for w in p.out_wires)
    new_in = tuple(System(mapping.get(w.label, w.label), w.dim) for w in p.in_wires)
    return Process(p.backend, new_out, new_in, p.data)


def tensor_par(f: Process, g: Process) -> Process:
    """Place two processes side by side (monoidal product): the contraction
    along no wires.

    Result wires: ``f`` outputs, ``g`` outputs, ``f`` inputs, ``g`` inputs.
    """
    if f.backend != g.backend:
        raise BackendMismatch(f"{f.backend} vs {g.backend}")
    return _contract(f, g, ())


def compose_seq(f: Process, g: Process) -> Process:
    """Sequential composition: feed every output of ``f`` into ``g`` (f first).

    Matching is positional: the i-th output of ``f`` plugs into the i-th input
    of ``g``; labels at the interface disappear.
    """
    if f.backend != g.backend:
        raise BackendMismatch(f"{f.backend} vs {g.backend}")
    if tuple(w.dim for w in f.out_wires) != tuple(w.dim for w in g.in_wires):
        raise ShapeMismatch(
            f"cannot compose: f outputs {[w.dim for w in f.out_wires]} "
            f"vs g inputs {[w.dim for w in g.in_wires]}"
        )
    return _contract(f, g, tuple(zip((w.label for w in f.out_wires), (w.label for w in g.in_wires))))


def permute(p: Process, out_order: Sequence[str], in_order: Sequence[str]) -> Process:
    """Reorder the wires of a process (pure relabeling of axis positions)."""
    if sorted(out_order) != sorted(w.label for w in p.out_wires) or sorted(in_order) != sorted(
        w.label for w in p.in_wires
    ):
        raise InvalidPermutation(
            f"orders {list(out_order)}/{list(in_order)} are not permutations of "
            f"{[w.label for w in p.out_wires]}/{[w.label for w in p.in_wires]}"
        )
    new_out = tuple(p.wire(l) for l in out_order)
    new_in = tuple(p.wire(l) for l in in_order)
    return Process(p.backend, new_out, new_in, _reorder_data(p, new_out + new_in))


def bend(p: Process, label: str, to: str) -> Process:
    """Move one wire to the other side of the box (transposition via cup/cap).

    ``to`` is ``"in"`` or ``"out"``.  The wire keeps its label and dimension
    and is appended at the end of the target side; the stored array is
    unchanged up to axis order.
    """
    if to not in ("in", "out"):
        raise ShapeMismatch(f"bend target must be 'in' or 'out', got {to!r}")
    if p.role(label) == to:
        raise ShapeMismatch(f"wire {label!r} is already an {to}-wire")
    w = p.wire(label)
    if to == "in":
        new_out = tuple(x for x in p.out_wires if x.label != label)
        new_in = p.in_wires + (w,)
    else:
        new_out = p.out_wires + (w,)
        new_in = tuple(x for x in p.in_wires if x.label != label)
    return Process(p.backend, new_out, new_in, _reorder_data(p, new_out + new_in))


def discard_outputs(p: Process, labels: Iterable[str]) -> Process:
    """Marginalize output wires: sum (matr+), join (rel) or trace (cpm)."""
    labels = list(labels)
    for l in labels:
        if p.role(l) != "out":
            raise NoSuchWire(f"{l!r} is not an output wire of {p!r}")
    if len(set(labels)) != len(labels):
        raise DuplicateLabel(f"repeated labels in discard: {labels}")
    if not labels:
        return p
    keep_out = tuple(w for w in p.out_wires if w.label not in labels)
    data = _marginal(p.backend, p.data, p.n_wires, [p.wire_pos(l) for l in labels])
    return Process(p.backend, keep_out, p.in_wires, data)


def _marginal(backend: str, data: np.ndarray, n: int, gone: Iterable[int]) -> np.ndarray:
    """``data``, the array of an ``n``-wire process behind any leading batch
    axes, with the wires at the positions ``gone`` discarded."""
    return _einsum(_marginal_plan(backend, data.shape, n, tuple(sorted(gone))), data)


@functools.lru_cache(maxsize=4096)
def _marginal_plan(backend: str, shape: tuple[int, ...], n: int, gone: tuple[int, ...]):
    """The einsum of :func:`_marginal`: a discarded wire's axes share one
    subscript that the result omits."""
    wire_axes = _spec(backend).axes_per_wire * n
    batch = tuple(range(wire_axes, len(shape)))
    subs = tuple(ax % n if ax % n in gone else ax for ax in range(wire_axes))
    return _squeeze((shape,), (batch + subs,), batch + tuple(ax for ax in subs if ax % n not in gone))


def plug(f: Process, g: Process, wiring: Sequence[tuple[str, str]]) -> Process:
    """Contract two boxes along the given wire pairs in one shot.

    Each pair is ``(f_wire, g_wire)`` with equal dimensions and opposite
    roles; pairs may run in both directions (outputs of ``f`` into inputs of
    ``g`` and vice versa), which is how comb-shaped boxes interlock.  The
    result equals the equivalent expression built from ``bend``/``permute``/
    ``compose_seq`` with explicit caps.

    Remaining wires keep their order: ``f`` outputs, ``g`` outputs, ``f``
    inputs, ``g`` inputs.
    """
    if f.backend != g.backend:
        raise BackendMismatch(f"{f.backend} vs {g.backend}")
    if f is g:
        raise CyclicWiring("plugging a process into itself is a closed loop; use bend + cap")
    return _contract(f, g, tuple((fl, gl) for fl, gl in wiring))


def _contract(f: Process, g: Process, wiring: tuple[tuple[str, str], ...]) -> Process:
    """The one contraction: join wire ``fl`` of ``f`` to wire ``gl`` of ``g``
    for each pair ``(fl, gl)`` of ``wiring``, in one einsum planned by
    :func:`_plan`."""
    *_, outs, ins, plan = _plan(f.backend, f.out_wires, f.in_wires, g.out_wires, g.in_wires, wiring)
    return Process(f.backend, outs, ins, _einsum(plan, f.data, g.data))


def plug_family(
    backend: str,
    data: np.ndarray,
    outs: tuple[System, ...],
    ins: tuple[System, ...],
    family: Sequence[Process],
    wiring: Sequence[tuple[str, str]],
) -> tuple[np.ndarray, tuple[System, ...], tuple[System, ...]]:
    """:func:`plug` every member of ``family`` into every process of a batch.

    The processes share the wires ``outs``/``ins``, and ``data`` holds their
    arrays behind any number of leading batch axes; the members share their
    wires too.  The result is ``(data, outs, ins)`` of the plugged processes,
    with one more batch axis, after the others, indexed by the member:
    plugging families one after another stacks the batch axes in
    ``itertools.product`` order.

    Each member is one einsum over the whole batch, planned once by
    :func:`_plan`.  Each process's entries come out bit for bit as
    :func:`plug` gives them: an einsum with both operands batched can sum
    a contraction down to a scalar in another order.
    """
    g = family[0]
    if any(h.backend != backend or h.out_wires != g.out_wires or h.in_wires != g.in_wires for h in family):
        raise ShapeMismatch("the members of a family must share one backend and one wire layout")
    f_sub, g_sub, out_sub, outs, ins, _ = _plan(backend, outs, ins, g.out_wires, g.in_wires, tuple(wiring))
    top = len(f_sub) + len(g_sub)  # _plan numbers the wire axes below this
    batch = tuple(range(top, top + data.ndim - len(f_sub)))
    plan = _squeeze((data.shape, g.data.shape), (batch + f_sub, g_sub), batch + out_sub)

    def plugged(h: Process) -> np.ndarray:
        return _einsum(plan, data, h.data)

    # np.stack keeps the layout einsum chose, which the next einsum's order of
    # summation depends on; the other members overwrite their copies of the first
    result = np.stack([plugged(g)] * len(family), axis=len(batch))
    for i, h in enumerate(family[1:], 1):
        result[(slice(None),) * len(batch) + (i,)] = plugged(h)
    return result, outs, ins


#: ``np.einsum`` names array axes by the integers below this.
_SUBSCRIPTS = 52


def _einsum(plan, *arrays: np.ndarray) -> np.ndarray:
    """``np.einsum`` of ``arrays`` by a plan of :func:`_squeeze`."""
    shapes, subs, out, shape = plan
    args = []
    for a, sh, sub in zip(arrays, shapes, subs):
        args += (a if sh is None else a.reshape(sh), sub)
    result = np.einsum(*args, out)
    return result if shape is None else result.reshape(shape)


@functools.lru_cache(maxsize=4096)
def _squeeze(shapes: tuple[tuple[int, ...], ...], subs: tuple[tuple[int, ...], ...], out: tuple[int, ...]):
    """The plan of an einsum of operands of the given ``shapes`` and
    sublists ``subs`` into the sublist ``out``, for :func:`_einsum`: the
    operands' shapes and sublists without their size-1 axes, the result's
    sublist, and the result's full shape; a shape is None where it has no
    size-1 axis.  So only the distinct subscripts of larger axes count
    against the 52 that einsum can name; more raise :class:`ShapeMismatch`.
    The subscripts left are renumbered from 0 in their order, which keeps
    the order in which einsum sums.
    """
    size = {}
    for shape, sub in zip(shapes, subs):
        size.update(zip(sub, shape))
    kept = sorted(s for s, n in size.items() if n != 1)
    if len(kept) > _SUBSCRIPTS:
        raise ShapeMismatch(
            f"a contraction over {len(kept)} axes of size above 1; einsum names at most {_SUBSCRIPTS}"
        )
    number = {s: k for k, s in enumerate(kept)}
    shape = tuple(size[s] for s in out)
    return (
        tuple(tuple(n for n in sh if n != 1) if 1 in sh else None for sh in shapes),
        [[number[s] for s in sub if s in number] for sub in subs],
        [number[s] for s in out if s in number],
        shape if 1 in shape else None,
    )


@functools.lru_cache(maxsize=4096)
def _plan(
    backend: str,
    f_out: tuple[System, ...],
    f_in: tuple[System, ...],
    g_out: tuple[System, ...],
    g_in: tuple[System, ...],
    wiring: tuple[tuple[str, str], ...],
):
    """The wire bookkeeping of a contraction, which depends only on the two
    wire layouts and the wiring: it checks the pairs and returns the einsum
    sublists of ``f``, ``g`` and the result, the result's output and input
    wires, and the :func:`_squeeze` plan of the contraction.

    Remaining wires keep their order: ``f`` outputs, ``g`` outputs, ``f``
    inputs, ``g`` inputs.  A bad wiring raises here on every call, since the
    cache keeps only results.
    """
    f_wires, g_wires = f_out + f_in, g_out + g_in
    f_pos = {w.label: i for i, w in enumerate(f_wires)}
    g_pos = {w.label: j for j, w in enumerate(g_wires)}
    fo, go = len(f_out), len(g_out)
    pairs: list[tuple[int, int]] = []
    for fl, gl in wiring:
        i, j = _position(f_pos, fl), _position(g_pos, gl)
        if any(i == pi or j == pj for pi, pj in pairs):
            raise CyclicWiring(f"wire pair ({fl!r}, {gl!r}) reuses an already plugged wire")
        fw, gw = f_wires[i], g_wires[j]
        if fw.dim != gw.dim:
            raise ShapeMismatch(f"cannot plug {fl!r} (dim {fw.dim}) into {gl!r} (dim {gw.dim})")
        if (i < fo) == (j < go):
            raise CyclicWiring(f"wires {fl!r} and {gl!r} are both {'out' if i < fo else 'in'}-wires")
        pairs.append((i, j))

    nf, ng = len(f_wires), len(g_wires)
    # einsum subscripts: wire i of f is i, wire j of g is nf + j unless plugged
    g_ids = list(range(nf, nf + ng))
    for i, j in pairs:
        g_ids[j] = i
    f_kept = [i for i in range(nf) if i not in g_ids]
    g_kept = [j for j in range(ng) if g_ids[j] >= nf]
    overlap = {f_wires[i].label for i in f_kept} & {g_wires[j].label for j in g_kept}
    if overlap:
        raise DuplicateLabel(f"remaining wires share labels {sorted(overlap)}; rename() first")
    out_ids = [i for i in f_kept if i < fo] + [nf + j for j in g_kept if j < go]
    in_ids = [i for i in f_kept if i >= fo] + [nf + j for j in g_kept if j >= go]
    wires = f_wires + g_wires
    a, n = _spec(backend).axes_per_wire, nf + ng
    f_sub, g_sub = tuple(_wire_axes(n, range(nf), a)), tuple(_wire_axes(n, g_ids, a))
    out_sub = tuple(_wire_axes(n, out_ids + in_ids, a))
    shapes = tuple(tuple(w.dim for w in ws) * a for ws in (f_wires, g_wires))
    return (
        f_sub,
        g_sub,
        out_sub,
        tuple(wires[s] for s in out_ids),
        tuple(wires[s] for s in in_ids),
        _squeeze(shapes, (f_sub, g_sub), out_sub),
    )


# -- views --------------------------------------------------------------------


def matrix(p: Process) -> np.ndarray:
    """matr+/rel process as a (prod out dims) x (prod in dims) matrix."""
    if p.backend == CPM:
        raise UnsupportedBackend("use choi_matrix() for cpm processes")
    rows = math.prod([w.dim for w in p.out_wires])
    cols = math.prod([w.dim for w in p.in_wires])
    return p.data.reshape(rows, cols)


def choi_matrix(p: Process) -> np.ndarray:
    """cpm process as its square Choi matrix over (⊗ outs) ⊗ (⊗ ins)."""
    if p.backend != CPM:
        raise UnsupportedBackend(f"{p.backend} processes have no Choi matrix")
    d = math.prod([w.dim for w in p.wires])
    return p.data.reshape(d, d)


# -- serialization -------------------------------------------------------------


def to_json_dict(p: Process) -> dict:
    """Serialize to the interchange schema (see :func:`from_json_dict`)."""
    wires = [{"name": w.label, "dim": w.dim, "role": "out"} for w in p.out_wires]
    wires += [{"name": w.label, "dim": w.dim, "role": "in"} for w in p.in_wires]
    if p.backend == CPM:
        flat = choi_matrix(p).ravel()
        data = [[float(v.real), float(v.imag)] for v in flat]
    elif p.backend == REL:
        data = [int(v) for v in p.data.ravel()]
    else:
        data = [float(v) for v in p.data.ravel()]
    return {"backend": p.backend, "wires": wires, "data": data}


#: JSON names of the values other than numbers that ``json`` parses.
_JSON_TYPES = {type(None): "null", bool: "boolean", str: "string", list: "array", dict: "object"}


def from_json_dict(doc: Mapping) -> Process:
    """Deserialize a process.

    Schema::

        {"backend": "matr+" | "cpm" | "rel",
         "wires": [{"name": str, "dim": int, "role": "out" | "in"}, ...],
         "data": [...]}

    Wires must list every output before the first input (the canonical
    order); ``data`` is the flat row-major array in that order, of JSON
    numbers.  For ``cpm`` each entry is a ``[re, im]`` pair of numbers of
    the row-major Choi matrix.
    """
    try:
        backend = doc["backend"]
        wire_docs = doc["wires"]
        data = doc["data"]
    except (KeyError, TypeError) as e:
        raise FormatError(f"process document must have backend/wires/data: {e}") from e
    _spec(backend)  # an unknown backend raises
    if not isinstance(wire_docs, list):
        raise FormatError(f"wires must be an array, not {_JSON_TYPES.get(type(wire_docs), type(wire_docs).__name__)}")

    outs: list[System] = []
    ins: list[System] = []
    for wd in wire_docs:
        try:
            sysm = System(wd["name"], wd["dim"])
            role = wd["role"]
        except (KeyError, TypeError, ShapeMismatch) as e:
            raise FormatError(f"bad wire entry {wd!r}: {e}") from e
        if role == "out":
            if ins:
                raise FormatError("output wires must be listed before input wires")
            outs.append(sysm)
        elif role == "in":
            ins.append(sysm)
        else:
            raise FormatError(f"wire role must be 'out' or 'in', got {role!r}")

    shape = Process.expected_shape(backend, outs, ins)
    size = math.prod(shape)
    try:
        if len(data) != size:
            raise FormatError(f"{backend} data must have {size} entries, got {len(data)}")
        if backend == CPM:
            if set(map(type, data)) != {list} or set(map(len, data)) != {2}:
                raise FormatError("cpm data entries must be [re, im] pairs")
            data = list(itertools.chain.from_iterable(data))
        kinds = set(map(type, data)) - {int, float}  # by type(): a JSON true is a bool, an int subclass
        if kinds:
            kind = kinds.pop()
            raise FormatError(f"data entries must be JSON numbers, not {_JSON_TYPES.get(kind, kind.__name__)}")
        arr = np.fromiter(data, np.float64, len(data))
        arr = (arr.view(np.complex128) if backend == CPM else arr).reshape(shape)
    except (TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"malformed data payload: {e}") from e
    # json reads NaN and Infinity literals
    if not np.all(np.isfinite(arr)):
        raise FormatError("data entries must be finite numbers")
    if backend == REL:
        if not np.all((arr == 0) | (arr == 1)):
            raise FormatError("rel data entries must be 0 or 1")
        arr = arr.astype(np.bool_)
    return Process(backend, tuple(outs), tuple(ins), arr)


def load_process(path) -> Process:
    collecting = gc.isenabled()
    gc.disable()  # a parse makes a list per cpm entry and no cycle: a collection would free nothing
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as e:  # not UTF-8, not JSON, or a number too long to convert
        raise FormatError(f"{path}: {e}") from e
    finally:
        if collecting:
            gc.enable()
    return from_json_dict(doc)


def dump_process(p: Process, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(p), fh, indent=1)
        fh.write("\n")
