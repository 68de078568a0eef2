"""Signalling-structure checks and the causal-type membership dispatcher.

Everything here reduces to one primitive.  To say that a process ``K`` is
independent of some of its inputs means ``K = K' (x) discard`` on those
inputs, ``K'`` being ``K`` with the uniform causal state (uniform
distribution / maximally mixed state / full relation) plugged into them; the
residual is the largest entrywise deviation of ``K`` from that.
``_independence_residual`` computes it on arrays, ``K`` being ``p`` with
some outputs discarded: the marginal, its plugged diagonal as a view, the
weighted sum of that diagonal subtracted there in place, and a max; planned
once per wire layout.

One condition, ``_up_set_plan``, is every signalling condition: with an
up-set's outputs discarded, ``p`` itself must be independent of its inputs.
Besides causality, three procedures ask it of different up-sets, and one
body, ``_up_set_verdict``, judges causality's conditions and theirs at once:

* ``check_order_consistency``: the up-set of each event, when it is not
  every event, its plans and details compiled once per poset and wire
  layout; ``check_one_way`` (a two-event chain) and ``check_nonsignalling``
  (an antichain) call it, on a poset built once per events;
* ``check_comb``: the same on a chain, whose up-sets are its suffixes;
* ``check_via_totalisations``: the proper suffixes of every linear
  extension, each set once: ``2**n - 2`` on an ``n``-event antichain
  instead of ``(n - 1) * n!``.  The tests' oracle for order consistency.

``check_soc``: plugging every tuple of causal channels, drawn from one
spanning family per marked slot, leaves a causal process.  Each party's
family is plugged into the remainders of all tuples so far at once
(``core.plug_family``), and the remainders of all tuples are judged together
by ``backends._causality``: no ``plug`` or ``is_causal`` call per tuple.

Apart from these, ``check_projector`` decides any type built with tensor,
par and duality on the affine backends (matr+, cpm) without enumerating
anything: it compiles the type to the set of terms, patterns of wires off
the identity, that its members may contain, and checks that the process
contains no other term, has the type's total and is positive.  A wire is
free when the type allows every term that has it off the identity, as the
switches' final output: only its identity coefficients can meet a forbidden
term, so it is contracted with its identity direction before the change of
basis (on cpm, traced in the copy that brings each wire's ket and bra axes
together).  Per verdict that is one matrix product per group of
neighbouring kept wires for the coefficients, from a plan built once per
backend, data shape and free wires, then one gather of the coefficients
the type forbids and their largest ``|c|``, at indices kept once per type,
wire layout and backend.

``check_membership`` maps a causal type to whichever of these applies: one
event (its dualled atoms are inputs, its plain atoms outputs) to causality,
combs and tensors of events to their procedures on every backend, every
other type to the projector on matr+ and cpm and, on rel, to ``check_soc``.
Each type is compiled once (``_compile``): its normal form, wire roles,
procedure and events are kept for every later call with that type, and one
record per type and wire layout, found by one lookup of the process's
layout key (``core.Process._layout``), keeps its wire check and the
projector's terms and indices (a layout that fails is not kept); the
signalling conditions are compiled per poset and layout key too.
Scale and validity are decided once per ``Process`` (see ``backends``), so
a warm verdict does only the work on ``p.data``.  A cold call, such as every
CLI call, does the parsing and dispatch work that every call did before.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import backends, core
from .backends import CheckReport, _conjunction, _verdict
from .core import CPM, DEFAULT_TOL, MATR, REL, Process, System
from .errors import (
    CombinatorialBlowup,
    EmbedMismatch,
    NoSuchWire,
    ShapeMismatch,
    TooManyEvents,
    UnsupportedBackend,
    UnsupportedType,
)
from .events import Event, EventPoset, _check_partition
from .typesys import (
    Atom,
    Cap,
    Dual,
    Lolli,
    Par,
    Tensor,
    Type,
    atom_occurrences,
    fo_embedding,
    is_first_order,
    normalize,
    parse_type,
    render_type,
)


# -- the independence primitive -------------------------------------------------


def _independence_residual(p: Process, gone: tuple[str, ...], plugged: tuple[str, ...]) -> float:
    """Residual of ``q = q' (x) discard`` on the inputs ``plugged``, 0.0 if
    there are none: ``q`` is ``p`` with the outputs ``gone`` discarded, ``q'``
    is ``q`` with the uniform causal state plugged into ``plugged``.  Run by
    :func:`_planned_residual` on the plan of :func:`_independence_plan`."""
    return _planned_residual(_independence_plan(p.backend, p._layout, gone, plugged), p.data)


def _planned_residual(plan, data: np.ndarray) -> float:
    """:func:`_independence_residual` by its plan (None: nothing plugged) on
    ``data``, the array of a process with the plan's wires.

    In ``q``'s layout ``q' (x) discard`` is ``q'`` on the plugged diagonal
    (ket = bra on each plugged cpm wire; all of ``q`` elsewhere) and 0 off
    it.  So ``q'``, the diagonal weighted by the uniform state's, is
    subtracted (on rel: xor-ed) in place on an einsum view of the diagonal,
    and the residual is ``max |q|``, taken in place unless ``q`` is complex;
    ``data`` is never written.  A non-finite residual, which any non-finite
    entry of ``q`` gives, is NaN.

    On C-ordered data the residual is the process oracle's bit for bit
    (``tests/conftest.py::_independence_oracle``).  On a permuted layout,
    when every plugged-over wire above dimension 1 is plugged, the weighted
    sum is a scalar that numpy sums in another grouping, and the last bit
    can differ; the tests bound it by a few ulps, since the C-ordered
    property test cannot show it."""
    if plan is None:
        return 0.0
    marginal, sums, diagonal, uniform, weigh, shape = plan
    q = core._einsum(marginal, data)
    if not sums:  # einsum gave a view of data
        q = q.copy(order="K")  # the same layout, so the same order of summation
    d = q if diagonal is None else core._einsum(diagonal, q)
    recon = core._einsum(weigh, uniform, d).reshape(shape)
    if q.dtype == np.bool_:
        d ^= recon
    else:
        d -= recon
    m = np.abs(q) if q.dtype == complex else np.abs(q, out=q)  # q is einsum's result or a copy
    residual = float(m.max())
    return residual if math.isfinite(residual) else math.nan


@functools.lru_cache(maxsize=4096)
def _independence_plan(backend: str, layout: core._Layout, gone: tuple, plugged: tuple):
    """The plan of :func:`_planned_residual` for any ``p`` with this wire
    layout (``p._layout``), None if ``plugged`` is empty: the
    :func:`core._marginal_plan` discarding ``gone`` and whether it sums over
    any axis (if not, einsum gives a view of the data); the einsum view of
    the marginal's plugged diagonal, None where that is all of it (off cpm,
    or plugged wires of dimension 1); the uniform state's diagonal,
    read-only; the einsum weighing the one by the other, numbered as
    :func:`core._plan` numbers plugging the uniform state, so that it sums
    in the same order; and the shape of the weighted sum with size-1 axes
    where it was plugged.  A label that is not an output
    (``gone``) or an input (``plugged``) raises on every call: the cache
    keeps only results."""
    outs, ins = layout.out_wires, layout.in_wires
    for labels, wires, role in ((gone, outs, "output"), (plugged, ins, "input")):
        missing = set(labels) - {w.label for w in wires}
        if missing:
            raise NoSuchWire(f"no {role} wires {sorted(missing)} among {[w.label for w in wires]}")
    if not plugged:
        return None
    kept = tuple(w for w in outs if w.label not in gone)
    gone_at = tuple(i for i, w in enumerate(outs) if w.label in gone)
    marginal = core._marginal_plan(backend, Process.expected_shape(backend, outs, ins), len(outs + ins), gone_at)
    _, (sub,), out, _ = marginal
    sums = not set(sub) <= set(out)
    systems = tuple(w for w in ins if w.label in plugged)
    u_sub, q_sub, out_sub, *_ = core._plan(backend, systems, (), kept, ins, tuple((l, l) for l in plugged))
    q_shape = Process.expected_shape(backend, kept, ins)
    size = dict(zip(q_sub, q_shape))
    # on cpm the uniform state's bra subscripts follow its kets, each a ket's plus n
    n, kets = len(systems + kept + ins), u_sub[: len(systems)]
    bras = tuple(s for s in u_sub[len(systems) :] if size[s] > 1)
    diag_sub = tuple(s for s in q_sub if s not in bras)
    diagonal = core._squeeze((q_shape,), (tuple(s - n if s in bras else s for s in q_sub),), diag_sub) if bras else None
    uniform = backends.uniform_state(backend, systems).data
    if backend == CPM:
        total = math.prod(w.dim for w in systems)
        uniform = uniform.reshape(total, total).diagonal().reshape(tuple(w.dim for w in systems)).copy()
    uniform.flags.writeable = False
    weigh = core._squeeze((uniform.shape, tuple(size[s] for s in diag_sub)), (kets, diag_sub), out_sub)
    shape = tuple(1 if s in u_sub else size[s] for s in diag_sub)
    return marginal, sums, diagonal, uniform, weigh, shape


def _up_set_plan(poset: EventPoset, up: frozenset[str], backend: str, layout: core._Layout):
    """The plan of the condition that the events ``up`` do not signal into
    the rest: with their outputs discarded, ``p`` must be independent of
    their inputs.  Every signalling condition below is this one, on an
    up-set."""
    events = [e for e in poset.events if e.name in up]
    return _independence_plan(backend, layout, sum((e.outs for e in events), ()), sum((e.ins for e in events), ()))


# -- signalling along a partial order --------------------------------------------


def check_order_consistency(p: Process, poset: EventPoset, tol: float = DEFAULT_TOL) -> CheckReport:
    """Is ``p`` causal and compatible with the partial order?

    For every event ``x`` whose up-set ``U`` (the events at or above ``x``)
    is not every event, ``U`` must not signal into the rest; the first
    failing event, taken top first, is named.  Causality covers the rest.

    This says that no down-closed set is signalled into from its complement,
    a union of principal up-sets: discarding the outputs of ``U1 | U2``
    keeps the independence of ``U1``'s inputs and of ``U2``'s, and plugging
    the uniform state into one and then the other makes it independent of
    both.  The conditions are compiled once per poset and wire layout
    (:func:`_order_conditions`) and judged with causality's in one verdict
    (:func:`_up_set_verdict`).
    """
    return _up_set_verdict(p, _order_conditions(poset, p.backend, p._layout), tol)


def _up_set_verdict(p: Process, compiled, tol: float, prefix: str = "") -> CheckReport:
    """One verdict on causality's conditions, each detail prefixed with
    ``prefix``, and, when every causal residual is finite, the ``compiled``
    up-set conditions ``(plan, detail if it fails)``."""
    conditions = [(r, prefix + detail) for r, detail in backends._causal_conditions(p, tol)]
    if all(math.isfinite(r) for r, _ in conditions):  # else no up-set condition means anything
        conditions += [(_planned_residual(plan, p.data), detail) for plan, detail in compiled]
    return _verdict(p, tol, conditions)


@functools.lru_cache(maxsize=1024)
def _order_conditions(poset: EventPoset, backend: str, layout: core._Layout):
    """The up-set conditions of :func:`check_order_consistency` on processes
    with this wire layout: for each event whose up-set is not every event,
    top first, the up-set's plan and the detail if it fails.  Events that do
    not tile the wires raise :class:`BadPartition` on every call, since the
    cache keeps no exception."""
    _check_partition(poset.events, layout.out_wires, layout.in_wires)
    up = {x: frozenset(n for n in poset.names if x in poset._below[n]) for x in poset.names}
    return tuple(
        (
            _up_set_plan(poset, up[x], backend, layout),
            f"event {x!r} signals backwards to {[n for n in poset.names if n not in up[x]]}",
        )
        for x in sorted(poset.names, key=lambda x: len(up[x]))
        if len(up[x]) < len(poset)
    )


@functools.lru_cache(maxsize=1024)
def _poset(events: tuple[Event, ...], chain: bool) -> EventPoset:
    """``events`` as a chain in their order, or unordered; built once."""
    return EventPoset(events, [(a.name, b.name) for a, b in zip(events, events[1:])] if chain else ())


def check_one_way(p: Process, first: Event, second: Event, tol: float = DEFAULT_TOL) -> CheckReport:
    """Is ``p`` causal and signalling at most from ``first`` to ``second``?"""
    return check_order_consistency(p, _poset((first, second), True), tol)


def check_nonsignalling(p: Process, events: Sequence[Event], tol: float = DEFAULT_TOL) -> CheckReport:
    """Is ``p`` causal with no event signalling to the others?"""
    return check_order_consistency(p, _poset(tuple(events), False), tol)


def check_comb(p: Process, events: Sequence[Event], tol: float = DEFAULT_TOL) -> CheckReport:
    """Is ``p`` a comb with the given events in the given temporal order,
    i.e. consistent with their chain: no proper suffix of the events signals
    into the events before it (Chiribella, D'Ariano & Perinotti 2009)?"""
    return check_order_consistency(p, _poset(tuple(events), True), tol)


MAX_TOTALISED_EVENTS = 8


def check_via_totalisations(p: Process, poset: EventPoset, tol: float = DEFAULT_TOL) -> CheckReport:
    """Order consistency checked the expensive way, as the paper states it:
    ``p`` must be a comb for every linear extension of the partial order.
    The extensions share one verdict, causality's conditions named for the
    first extension, and a suffix set (:func:`check_comb`) met again in a
    later extension is left out: its residual is the same, and the first
    failure is always a set's first occurrence.  The conditions and that
    name are compiled once per poset and wire layout
    (:func:`_suffix_conditions`), so a warm call builds no extension."""
    if len(poset) > MAX_TOTALISED_EVENTS:
        raise TooManyEvents(
            f"{len(poset)} events can have up to {len(poset)}! linear extensions"
        )
    prefix, compiled = _suffix_conditions(poset, p.backend, p._layout)
    return _up_set_verdict(p, compiled, tol, prefix)


@functools.lru_cache(maxsize=1024)
def _suffix_conditions(poset: EventPoset, backend: str, layout: core._Layout):
    """The prefix of causality's details in :func:`check_via_totalisations`
    on processes with this wire layout, which names the first linear
    extension, and its conditions: each proper suffix set of a linear
    extension at its first occurrence, with its plan and the detail if it
    fails.  Events that do not tile the wires raise :class:`BadPartition` on
    every call."""
    _check_partition(poset.events, layout.out_wires, layout.in_wires)
    conditions, prefix = {}, ""
    for ext in poset.linear_extensions():
        prefix = prefix or f"not a comb for the extension {ext}: "
        for k in range(len(ext) - 1, 0, -1):
            up = frozenset(ext[k:])
            if up not in conditions:
                detail = f"event {ext[k]!r} signals backwards to {list(ext[:k])}"
                plan = _up_set_plan(poset, up, backend, layout)
                conditions[up] = plan, f"not a comb for the extension {ext}: {detail}"
    return prefix, tuple(conditions.values())


# -- second-order causal processes ------------------------------------------------


def check_soc(
    p: Process,
    parties: Sequence[Event],
    tol: float = DEFAULT_TOL,
    budget: int = 20000,
) -> CheckReport:
    """Does ``p`` send every tuple of causal party channels to a causal process?

    Each party event names the wires of ``p`` feeding that party (``outs`` of
    ``p``, the party's input) and the wires receiving the party's output
    (``ins`` of ``p``).  Every combination drawn from per-party spanning
    families (deterministic functions, or an affine basis of channels for
    cpm) is plugged in; since plugging is affine per slot — monotone for rel
    — this decides the quantification over all causal channels.

    A family is built once per backend and party shape and then shared,
    read-only.  The number of tuples, and, once it is within ``budget``,
    each party's family and the plan of plugging it in, are kept per wire
    layout and parties (:func:`_soc_tuples`, :func:`_soc_steps`), so a
    warm verdict hashes no wire.  Each party's family is plugged into the
    remainders left by the parties before it in one batched contraction
    (:func:`core.plug_family`), which adds a batch axis indexed by the
    party's channel.  The remainders of all
    tuples, one per index of the batch axes, are then judged at once, each
    against its own scale: normalization (:func:`backends._causality`) and,
    on matr+, non-negativity.  The residual is the worst over all tuples,
    NaN included.  The first failing tuple in ``itertools.product`` order,
    the C order of the batch axes, is named in ``detail`` by each party's
    index into its family.  On matr+ and cpm ``p`` must also be positive
    (:func:`backends.is_positive`, the report kept on ``p``), as every
    process of those categories is.

    Memory: after ``k`` parties the remainder holds one entry per tuple of
    their channels and per entry of a process on the wires left.  No family
    of a rel or matr+ party with an output is smaller than the entries of
    the wires it closes, so the last remainder, tuples x remainder entries,
    is the largest, and the peak is at most twice that plus the host (the
    remainder before a party and the one after it, beside ``p``).
    """
    parties = tuple(parties)
    if _soc_tuples(p.backend, p._layout, parties) > budget:
        raise CombinatorialBlowup(f"spanning the parties needs more than {budget} channel tuples")
    steps, outs, ins = _soc_steps(p.backend, p._layout, parties)
    data = p.data
    for planned, family in steps:
        data = core.plug_family(planned, data, family)
    residual = backends._causality(p.backend, outs, ins, data)
    if p.backend == MATR:
        residual = np.maximum(residual, backends._negativity(data, len(parties)))  # propagates NaN
    scale = None if p.backend == REL else backends._scales(data, len(parties))
    failed = np.flatnonzero(~(residual <= backends._bound(p.backend, tol, scale)))
    detail = ""
    if failed.size:
        index = np.unravel_index(failed[0], residual.shape)
        named = ", ".join(f"{e.name} #{i}" for e, i in zip(parties, index))
        detail = f"the channel tuple {named} leaves a non-causal remainder"
    conditions = [(not failed.size, residual.max(), detail)]
    if p.backend != REL:
        positive = backends.is_positive(p, tol)
        conditions.append((positive.passed, positive.residual, positive.detail))
    return _conjunction(conditions, tol)


def _party_wires(layout: core._Layout, e: Event) -> tuple[tuple[System, ...], tuple[System, ...]]:
    """The wires of a party's channel on this layout: the host outputs that
    feed the party, then the host inputs that it feeds.  A label the layout
    lacks raises :class:`NoSuchWire`."""
    wires = layout.out_wires + layout.in_wires
    pos = {w.label: i for i, w in enumerate(wires)}
    return tuple(wires[core._position(pos, l)] for l in e.ins), tuple(wires[core._position(pos, l)] for l in e.outs)


@functools.lru_cache(maxsize=1024)
def _soc_tuples(backend: str, layout: core._Layout, parties: tuple[Event, ...]) -> int:
    """How many channel tuples :func:`check_soc` plugs into a process with
    this wire layout: the product of the parties' family sizes, found
    without building a family."""
    return math.prod(backends.channel_family_size(backend, *_party_wires(layout, e)) for e in parties)


@functools.lru_cache(maxsize=256)
def _soc_steps(backend: str, layout: core._Layout, parties: tuple[Event, ...]):
    """The plugging of :func:`check_soc` on a process with this wire layout:
    per party, the :func:`core._plan` of plugging its family into the
    remainders so far, and the family; then the last remainders' wires."""
    steps, outs, ins = [], layout.out_wires, layout.in_wires
    for e in parties:
        family = backends._channel_family(backend, *_party_wires(layout, e))
        g = family[0]
        planned = core._plan(backend, outs, ins, g.out_wires, g.in_wires, tuple((l, l) for l in e.outs + e.ins))
        steps.append((planned, family))
        outs, ins = planned[3], planned[4]
    return tuple(steps), outs, ins


# -- affine types: the allowed-terms projector -------------------------------------


def _allowed_terms(n: Type, wires: Sequence[System]) -> tuple[np.ndarray, float]:
    """Which terms a member of the normalized type ``n`` may contain, and the
    total ``gamma`` every member has.

    A term is a pattern of wires carrying a non-identity component.  The
    patterns are the entries of a boolean array with one axis of size 2 per
    wire of ``wires`` (index 1: not at the identity).  Atoms allow every
    pattern (gamma 1), tensors allow what all their parts allow (gamma is the
    product), and the negation of ``X`` on its wires allows what ``X``
    forbids together with the all-identity pattern (gamma ``d_X / gamma_X``);
    a dual atom and a par are negations.  The mask is read-only.
    """
    axis = {w.label: i for i, w in enumerate(wires)}
    dim = {w.label: w.dim for w in wires}
    shape = (2,) * len(wires)

    def negate(mask: np.ndarray, gamma: float, labels: tuple[str, ...]):
        at_identity = np.ones(shape, dtype=bool)
        for l in labels:
            at_identity[(slice(None),) * axis[l] + (1,)] = False
        return ~mask | at_identity, math.prod(dim[l] for l in labels) / gamma, labels

    def tensor(parts):
        masks, gammas, labels = zip(*parts)
        return np.logical_and.reduce(masks), math.prod(gammas), sum(labels, ())

    def go(t: Type):
        if isinstance(t, Atom):
            return np.ones(shape, dtype=bool), 1.0, (t.label,)
        if isinstance(t, Dual):
            return negate(*go(t.body))
        if isinstance(t, Tensor):
            return tensor([go(part) for part in t.parts])
        if isinstance(t, Par):
            return negate(*tensor([negate(*go(part)) for part in t.parts]))
        raise UnsupportedType(f"the projector takes no {type(t).__name__} node; decide cap branches one by one")

    mask, gamma, _ = go(n)
    mask.flags.writeable = False
    return mask, gamma


@functools.lru_cache(maxsize=256)
def _basis(backend: str, dim: int) -> np.ndarray:
    """The change of basis on one wire of dimension ``dim``: a real symmetric
    orthogonal matrix whose row 0 is the identity direction, the unit vector
    ``u`` along the wire's discarding effect (the uniform vector, or
    ``I/sqrt(d)`` with its ket and bra axes merged).  It is the reflection
    ``I - 2 v v^T / (v.v)`` with ``v = u - e_0``, which swaps ``u`` and
    ``e_0``; on a dimension-1 wire ``u`` is ``e_0`` and the identity is the
    whole wire.  Built once per backend and dimension; read-only."""
    u = backends._discard_data(backend, (dim,)).real.ravel() / math.sqrt(dim)
    q = np.eye(u.size)
    if dim > 1:
        v = u - q[0]
        q -= np.outer(v, v) * (2.0 / (v @ v))
    q.flags.writeable = False
    return q


_STEP_ROWS = 16


@functools.lru_cache(maxsize=64)
def _projector_plan(backend: str, shape: tuple[int, ...], free: tuple[int, ...] = ()):
    """What the projector needs of data of this shape whose wires at the
    positions ``free`` are free (:func:`_forbidden_terms`), built once per
    backend, shape and free wires, its arrays read-only and none of the
    coefficients' size, in a cache of at most 64 plans:

    * ``perm``, the transpose that puts each wire's axes together, a cpm
      free wire's ket and bra axes first;
    * ``dims``, each kept wire's dimension in the coefficients (``dim**2``
      on cpm), a free wire having none;
    * ``steps``, the bases that :func:`_coefficients` multiplies by, one per
      group of neighbouring wires: the Kronecker product of their
      :func:`_basis` matrices, in wire order.  A wire joins the group before
      it while the group's basis keeps at most :data:`_STEP_ROWS` (16) rows:
      four bits or two trits on matr+, two qubit wires on cpm, a dimension-1
      wire with anything.  Why 16: a step costs a fixed dispatch, one pass
      over the coefficients and, for ``k`` rows, ``k`` multiply-adds per
      coefficient: the product of its wires' rows, where one step per wire
      costs their sum.  Up to 16 rows the dispatch and the passes dominate
      on the processes the projector decides (the switches and process
      matrices hold up to 16,384 coefficients); past 16 the arithmetic
      does.  On 8 cpm qubit wires (65,536 coefficients) the two about
      balance.  A free wire keeps only its basis's column 0, the identity
      direction, on matr+, and on cpm has no step: the trace takes its
      place, and the first step is scaled by ``1 / sqrt(d)`` for it;
    * ``diagonals``, on cpm with free wires, the index of each term of their
      trace in the transposed data: ket = bra on each, in C order;
    * ``shape``, that of the data the steps start from, kept wires only;
    * ``ends``, on matr+ with free wires, how many entries each step writes;
      empty where every step writes as many as it reads.
    """
    a = core._spec(backend).axes_per_wire
    n = len(shape) // a
    traced = free if backend == CPM else ()
    kept = tuple(i for i in range(n) if i not in traced)
    perm = tuple(i + k * n for i in traced + kept for k in range(a))
    terms = itertools.product(*(range(shape[i]) for i in traced)) if traced else ()
    diagonals = tuple(tuple(j for j in term for _ in range(a)) for term in terms)
    steps = []
    for i in kept:
        q = _basis(backend, shape[i])
        if i in free:
            q = q[:, :1]
        if steps and steps[-1].shape[0] * q.shape[0] <= _STEP_ROWS:
            steps[-1] = np.kron(steps[-1], q)
        else:
            steps.append(q)
    if traced:
        scale = 1.0 / math.sqrt(math.prod(shape[i] for i in traced))
        steps[:1] = [steps[0] * scale if steps else np.full((1, 1), scale)]
    for q in steps:
        q.flags.writeable = False
    ends, size = [], math.prod(shape)
    if any(q.shape[0] != q.shape[1] for q in steps):  # only matr+'s free wires shrink a step
        for q in steps:
            size = size // q.shape[0] * q.shape[1]
            ends.append(size)
    dims = tuple(shape[i] ** a for i in kept if i not in free)
    return perm, dims, tuple(steps), diagonals, tuple(shape[k] for k in perm[a * len(traced) :]), tuple(ends)


def _coefficients(p: Process, plan) -> np.ndarray:
    """``p``'s data with one axis per kept wire (a cpm wire's ket and bra
    axes merged), changed on each wire to the orthonormal basis of
    :func:`_basis`, whose element 0 is the identity direction, and taken at
    element 0 on each free wire; ``plan`` is :func:`_projector_plan` of
    ``p``'s data.  Real, of shape ``dims``, and on cpm ``(2, *dims)``: the
    real parts, then the imaginary ones.

    One matrix product per step of the plan, a group of neighbouring wires.
    With the group's axes leading, the data is a matrix whose rows they
    index; its transpose times the group's basis contracts them and moves
    them last, so after the last step the axes are back in order.  A free
    wire's column 0 alone contracts its axis with ``u``, so that step writes
    ``d`` times fewer entries.  The bases are real, so cpm data runs as its
    float64 view, each re/im pair on a trailing axis, which the products
    carry to the front.

    The products alternate between the two halves of one array, each the
    size of the data the steps start from.  On matr+ the data is already in wire order, so
    the first product reads ``p.data`` itself: the same C-order operand as a
    copy, so the same bits.  On cpm each wire's ket and bra axes are brought
    together first, by a copy into the second half; with free wires the
    copy is their trace, the sum of their ket = bra entries, which writes
    ``d**2`` times fewer entries per free wire.  One allocation, not
    two: with two, the C allocator gave the memory back to the system after
    each warm verdict on 8 cpm qubit wires, and the next verdict faulted it
    all in again (480 page faults each).
    """
    perm, dims, steps, diagonals, shape, ends = plan
    cpm = p.backend == CPM
    data = p.data.transpose(perm) if cpm else p.data
    halves = np.empty((2,) + shape, data.dtype)
    if diagonals:
        trace = halves[1, ...]  # an array even with no wire kept
        np.add(data[diagonals[0]], data[diagonals[1]], out=trace)
        for term in diagonals[2:]:
            np.add(trace, data[term], out=trace)
    elif cpm:
        halves[1] = data
    halves = halves.reshape(2, -1).view(np.float64)
    x = halves[1] if cpm else data.reshape(-1)  # a C-order copy if data is not C-contiguous
    for i, q in enumerate(steps):
        y = halves[i % 2, : ends[i]] if ends else halves[i % 2]
        np.matmul(x.reshape(q.shape[0], -1).T, q, out=y.reshape(-1, q.shape[1]))
        x = y
    return x.reshape((2,) + dims if cpm else dims)


def check_projector(p: Process, t: Type | str, tol: float = DEFAULT_TOL) -> CheckReport:
    """Does ``p`` inhabit the type ``t`` on an affine backend (matr+, cpm)?

    There every type built from atoms with tensor, par and duality is the set
    of positive processes that contain only the terms the type allows and
    have its total (Hoffreumon & Oreshkov, arXiv:2206.06206): the sum of all
    entries for matr+, the Choi trace for cpm.  Three conditions, on ``p``:
    the largest coefficient of a forbidden term (see :func:`_allowed_terms`),
    the distance of the total from the type's, and positivity
    (:func:`backends.is_positive`).
    """
    if p.backend not in (MATR, CPM):
        raise UnsupportedBackend(f"the projector needs an affine backend, not {p.backend}")
    compiled = _compile(t)
    return _projector(p, compiled, compiled.layout(p), tol)


def _projector(p: Process, compiled: _Compiled, record: dict, tol: float) -> CheckReport:
    """:func:`check_projector` given the compiled type and the record of
    ``p``'s wire layout, which keeps :func:`_forbidden_terms`, the type's
    free wires among them, and, per backend, the :func:`_projector_plan` of
    its data and :func:`_forbidden_coefficients` from their first verdict
    on: at most one ``intp`` per forbidden coefficient per backend, and no
    plan lookup by shape on a warm verdict.  A verdict computes the
    coefficients with each free wire at its identity direction only
    (:func:`_coefficients`), as only those can hold a forbidden term, and
    gathers the forbidden ones alone (on cpm, both halves into one complex
    buffer) for their largest ``|c|``; coefficient 0 gives the total.  The forbidden term, decoded
    from its flat index over the kept wires, and the total are named only
    when their condition is the first to fail (:func:`backends._verdict`)."""
    positive = backends.is_positive(p, tol)  # before any array of p's size is made here
    if not math.isfinite(backends._scale(p)):  # no coefficient of a non-finite process means anything
        return positive
    if p.backend not in record:
        if "terms" not in record:
            record["terms"] = _forbidden_terms(compiled.normal, p.wires)
        allowed, *_, free = record["terms"]
        plan = _projector_plan(p.backend, p.data.shape, free)
        record[p.backend] = plan, _forbidden_coefficients(allowed, plan[1])
    (_, gamma, labels, root, _), (plan, forbidden) = record["terms"], record[p.backend]
    c = _coefficients(p, plan)
    if p.backend == CPM:  # the real parts, then the imaginary ones
        halves = c.reshape(2, -1)
        total = complex(*halves[:, 0]) * root
        gathered = np.empty(forbidden.size, complex)
        gathered.real, gathered.imag = halves.take(forbidden, axis=1)
    else:
        total = complex(c.item(0)) * root
        gathered = c.take(forbidden)
    size = np.absolute(gathered)
    residual = float(np.maximum.reduce(size, initial=0.0))  # a type may forbid no pattern

    def term() -> str:
        k, on = int(forbidden[size.argmax()]) if forbidden.size else 0, ""
        for label, d in zip(labels[::-1], plan[1][::-1]):  # the last wire's index varies fastest
            if k % d:
                on = f"{label}, {on}" if on else label
            k //= d
        return f"the type forbids a term on {{{on}}}"

    return _verdict(p, tol, [
        (residual, term),
        (abs(total - gamma), lambda: f"total {total.real:.6g} is not {gamma:.6g}"),
        (positive.residual, positive.detail),
    ])


def _forbidden_terms(n: Type, wires: Sequence[System]):
    """What the projector keeps of the normalized type ``n`` on a wire
    layout, on matr+ and cpm alike: the read-only mask of the patterns ``n``
    allows (:func:`_allowed_terms`) on the kept wires, the total ``gamma``,
    the kept wires' labels, ``sqrt(prod dims)``, which turns coefficient 0
    into the total, and the positions of the free wires.

    A wire above dimension 1 is free when ``n`` allows every pattern that
    has it off the identity.  So every forbidden term has each free wire at
    the identity, and only the coefficients with element 0 on every free
    wire can hold one: the mask keeps the patterns with those wires at bit
    0, on the other wires' axes.  On the switch types the final output is
    free, and the projector reads a quarter of a qubit switch's
    coefficients."""
    allowed, gamma = _allowed_terms(n, wires)
    free = tuple(i for i, w in enumerate(wires) if w.dim > 1 and allowed.take(1, axis=i).all())
    kept = allowed[tuple(0 if i in free else slice(None) for i in range(len(wires))) + (...,)]  # a read-only view
    labels = tuple(w.label for i, w in enumerate(wires) if i not in free)
    return kept, gamma, labels, math.sqrt(math.prod(w.dim for w in wires)), free


def _forbidden_coefficients(allowed: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """The flat indices, read-only ``intp``, of the coefficients of shape
    ``dims`` on the patterns that ``allowed`` forbids (bit 1 where an index
    is not 0), grouped by pattern in increasing order and in flat order
    within one: the first largest coefficient gathered in this order lies
    on the lowest pattern that holds one, the pattern the detail names.
    Kept per backend, as the coefficients' shapes differ on matr+ and cpm."""
    pattern = np.ravel(np.ravel_multi_index(np.ix_(*(np.minimum(np.arange(d), 1) for d in dims)), allowed.shape))
    forbidden = np.flatnonzero(~allowed.reshape(-1)[pattern])
    forbidden = forbidden[np.argsort(pattern[forbidden], kind="stable")]
    forbidden.flags.writeable = False
    return forbidden


# -- membership in a causal type ---------------------------------------------------


@dataclass(eq=False)
class _Compiled:
    """What deciding membership needs of a causal type and nothing else.

    ``parsed`` is the type as given and ``normal`` its normal form; ``ins``
    and ``outs`` map the labels of its dualled and plain atoms (the wire
    roles) to their dims.  ``procedure`` is the one its shape selects:
    ``"is_causal"``, ``"comb"`` or ``"nonsignalling"`` on ``events``;
    ``"cap"``, the conjunction of ``branches``; or ``"higher"``, the
    projector on matr+ and cpm and, on rel, ``check_soc`` on the parties in
    ``events`` (None: no procedure).  ``layouts`` maps the key of each wire
    layout that passed :func:`_check_wires`, ``p._layout``, to its record.
    """

    parsed: Type
    normal: Type
    ins: dict[str, int | None]
    outs: dict[str, int | None]
    procedure: str
    events: tuple[Event, ...] | None = None
    branches: tuple["_Compiled", ...] = ()
    layouts: dict[core._Layout, dict] = field(default_factory=dict)

    def layout(self, p: Process) -> dict:
        """The record of ``p``'s wire layout, from one lookup by its key; on
        a miss the layout is kept once it passes :func:`_check_wires`.  The
        projector keeps :func:`_forbidden_terms` there, under ``"terms"``,
        and its plan and :func:`_forbidden_coefficients` under each
        backend's name."""
        record = self.layouts.get(p._layout)
        if record is None:
            _check_wires(p, self)
            record = self.layouts[p._layout] = {}
        return record


@functools.lru_cache(maxsize=4096)
def _compile(t: Type | str) -> _Compiled:
    """The record of the type ``t``, a type or its text, built on the first
    call with ``t``; a bad type raises on every call (no exception is kept).

    Of a ``cap`` the branches must share one ambient shape, and its wire
    roles are its first branch's, which every branch has.
    """
    parsed = parse_type(t) if isinstance(t, str) else t
    emb = fo_embedding(parsed)
    n = emb.source
    if isinstance(parsed, Cap):
        branches = tuple(_compile(part) for part in parsed.parts)
        return _Compiled(parsed, n, branches[0].ins, branches[0].outs, "cap", branches=branches)
    roles = ({a.label: a.dim for a in emb.in_atoms}, {a.label: a.dim for a in emb.out_atoms})
    seq = _comb_seq(parsed)
    if _one_event(n):
        procedure, events = "is_causal", None
    elif seq is not None and len(seq) >= 4:
        steps = [Lolli(seq[2 * k], seq[2 * k + 1]) for k in range(len(seq) // 2)]
        procedure, events = "comb", tuple(_event(f"e{k}", s) for k, s in enumerate(steps))
    elif isinstance(n, Tensor) and all(map(_one_event, n.parts)):
        procedure, events = "nonsignalling", tuple(_event(f"e{k}", q) for k, q in enumerate(n.parts))
    else:
        procedure, events = "higher", _soc_parties(parsed)
    return _Compiled(parsed, n, *roles, procedure, events)


def _check_wires(p: Process, compiled: _Compiled) -> None:
    """The type's atoms must be exactly the process wires, with dual
    occurrences naming inputs and plain ones naming outputs."""
    have_in = {w.label: w.dim for w in p.in_wires}
    have_out = {w.label: w.dim for w in p.out_wires}
    for want, have, side in ((compiled.ins, have_in, "input"), (compiled.outs, have_out, "output")):
        for label, dim in want.items():
            if label not in have:
                other = "output" if side == "input" else "input"
                if label in (have_out if side == "input" else have_in):
                    raise EmbedMismatch(
                        f"type uses {label!r} as an {side} but the process has it as an {other}"
                    )
                raise NoSuchWire(f"type mentions {side} wire {label!r} which the process lacks")
            if dim is not None and dim != have[label]:
                raise ShapeMismatch(
                    f"wire {label!r} has dimension {have[label]}, type says {dim}"
                )
        for label in have:
            if label not in want:
                raise NoSuchWire(f"process wire {label!r} does not appear in the type")


def _event(name: str, t: Type) -> Event:
    """The event of ``t``: the dualled atoms of its normal form are the
    inputs and the plain atoms the outputs, each in order."""
    ins, outs = [], []
    for atom, dualled in atom_occurrences(normalize(t)):
        (ins if dualled else outs).append(atom.label)
    return Event(name, ins=tuple(ins), outs=tuple(outs))


def _one_event(n: Type) -> bool:
    """Is the normalized ``n`` the type of one event?  Unit, first-order,
    effect and channel types, curried or as pars of channels: a dualled atom,
    a first-order piece, or a par of them.  Membership is then plain
    causality."""
    parts = n.parts if isinstance(n, Par) else (n,)
    return all(isinstance(q, Dual) or is_first_order(q) for q in parts)


def _comb_seq(t: Type) -> list[Type] | None:
    """Flatten ``G -o (M -o H)`` nests into ``[G, .., H]``; None if not comb-shaped."""
    if not isinstance(t, Lolli):
        return None
    if not is_first_order(t.left):
        return None
    if is_first_order(t.right):
        return [t.left, t.right]
    if isinstance(t.right, Lolli):
        inner = _comb_seq(t.right.left)
        if inner is not None and is_first_order(t.right.right):
            return [t.left] + inner + [t.right.right]
    return None


def _soc_parties(t: Type) -> tuple[Event, ...] | None:
    """Match ``T -o H`` or ``G -o (T -o H)``, ``T`` a tensor of slots in any
    bracketing, each slot and ``H`` an arrow or first-order.  A party is the
    event of its slot's dual, seen from the host: an arrow slot ``A -o A'``
    occupies host outputs ``A`` and host inputs ``A'``; a first-order slot
    only receives."""

    def slot(f: Type) -> bool:
        return is_first_order(f) or (
            isinstance(f, Lolli) and is_first_order(f.left) and is_first_order(f.right)
        )

    def flat(f: Type) -> list[Type]:
        return [g for part in f.parts for g in flat(part)] if isinstance(f, Tensor) else [f]

    if isinstance(t, Lolli) and is_first_order(t.left):
        t = t.right
    if not (isinstance(t, Lolli) and not is_first_order(t.left) and slot(t.right)):
        return None
    slots = flat(t.left)
    if not all(map(slot, slots)):
        return None
    return tuple(_event(f"party{k}", Dual(f)) for k, f in enumerate(slots))


def check_membership(
    p: Process,
    t: Type | str,
    tol: float = DEFAULT_TOL,
    budget: int = 20000,
) -> CheckReport:
    """Decide whether ``p`` inhabits the causal type ``t``.

    The type's shape selects the check: the types of one event (unit,
    first-order, effect and channel types, curried or as pars of channels)
    ask for causality; nested ``G -o (M -o H)`` combs for the comb
    conditions; tensors of one-event factors for non-signalling; ``cap`` for
    the conjunction of its branches.
    Every other type is decided by :func:`check_projector` on matr+ and cpm;
    on rel, ``(tensor of arrows) -o H``, optionally under one first-order
    argument, is decided by :func:`check_soc` and anything else raises
    :class:`UnsupportedType`.

    The one-event, comb and tensor shapes keep their own procedures on
    matr+ and cpm because the projector, with the same verdicts, is slower:
    about 2.2 times over the 34 matr+/cpm membership inputs of the
    ``signalling`` benchmark workload, about 4.9 times on its 4-event cpm comb
    (sums of the best of 30 warm calls, seed 1, 2-core x86-64, one BLAS
    thread).  Every procedure asks for causality, and so for matr+
    non-negativity and cpm complete positivity (:func:`backends.is_causal`).
    The positivity report is kept on ``p``, so checking one process against
    several types factors its Choi matrix once.
    """
    compiled = _compile(t)
    return _decide(p, compiled, compiled.layout(p), tol, budget)


def _decide(p: Process, compiled: _Compiled, record: dict, tol: float, budget: int) -> CheckReport:
    """Run the procedure of a compiled type on ``p``, given the record of its
    wire layout."""
    procedure, events = compiled.procedure, compiled.events
    if procedure == "cap":  # each branch has the cap's wire roles, so p's layout fits it
        reports = [_decide(p, b, b.layouts.setdefault(p._layout, {}), tol, budget) for b in compiled.branches]
        return _conjunction(((r.passed, r.residual, r.detail) for r in reports), tol)
    if procedure == "is_causal":
        return backends.is_causal(p, tol)
    if procedure == "comb":
        return check_comb(p, events, tol)
    if procedure == "nonsignalling":
        return check_nonsignalling(p, events, tol)
    if p.backend != REL:
        return _projector(p, compiled, record, tol)
    if events is None:
        raise UnsupportedType(f"no decision procedure for the shape of {render_type(compiled.parsed)} on rel")
    return check_soc(p, events, tol, budget)
