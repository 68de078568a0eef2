"""Signalling-structure checks and the causal-type membership dispatcher.

Everything here reduces to one primitive.  To say that a process ``K`` is
independent of some of its inputs means ``K = K' (x) discard`` on those
inputs; ``K'`` is recovered by plugging the uniform causal state (uniform
distribution / maximally mixed state / full relation) into them, and the
residual is the largest entrywise deviation between ``K`` and the
reconstruction ``K' (x) discard``.

One memo, ``_Peeling``, takes every signalling step: peeling an event after
an up-set discards its outputs and asks for independence of its inputs.
Besides causality, three procedures ask for different steps:

* ``check_order_consistency``: each event whose up-set is not every event,
  after the rest of its up-set; ``check_one_way`` (a two-event chain) and
  ``check_nonsignalling`` (an antichain) call it;
* ``check_comb``: the same on a chain, peeling events off the back;
* ``check_via_totalisations``: the comb steps of every linear extension:
  ``n * 2**(n - 1) - n`` peels on an ``n``-event antichain instead of
  ``(n - 1) * n!``.  The tests' oracle for order consistency.

``check_soc``: plugging every member of a spanning family of causal
channels into the marked slots always leaves a causal process.

Apart from these, ``check_projector`` decides any type built with tensor,
par and duality on the affine backends (matr+, cpm) without enumerating
anything: it compiles the type to the set of terms, patterns of wires off
the identity, that its members may contain, and checks that the process
contains no other term, has the type's total and is positive.

``check_membership`` maps a causal type to whichever of these applies: the
signalling shapes keep their procedures on every backend, every other type
goes to the projector on matr+ and cpm, and on rel second-order types go
to ``check_soc``.
"""

from __future__ import annotations

import math
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
from .events import Event, EventPoset, check_partition
from .typesys import (
    Atom,
    Cap,
    Dual,
    Lolli,
    Par,
    Tensor,
    Type,
    Unit,
    atom_occurrences,
    fo_embedding,
    is_first_order,
    normalize,
    parse_type,
    render_type,
)


# -- the independence primitive -------------------------------------------------


def _independence_residual(p: Process, in_labels: Sequence[str]) -> tuple[float, Process]:
    """Residual of ``p = p' (x) discard`` on ``in_labels``, and that ``p'``:
    ``p`` with the uniform causal state plugged into those inputs."""
    if not in_labels:
        return 0.0, p
    systems = tuple(p.wire(l) for l in in_labels)
    extracted = core.plug(backends.uniform_state(p.backend, systems), p, [(l, l) for l in in_labels])
    recon = core.tensor_par(extracted, backends.discard(p.backend, systems))
    recon = core.permute(
        recon, [w.label for w in p.out_wires], [w.label for w in p.in_wires]
    )
    return core.distance(recon, p), extracted


def _condition(rep: CheckReport) -> tuple[float, str]:
    """A report on ``p`` as a condition on ``p``; the same rule decides it again."""
    return rep.residual, rep.detail


class _Peeling:
    """The peel steps of one process along one poset, each taken once.

    Peeling ``x`` after an up-set ``S`` discards ``x``'s outputs from the
    remainder of ``S``, measures the marginal's dependence on ``x``'s inputs
    and plugs the uniform state into them, leaving the remainder of
    ``S | {x}``.  Steps on different wires commute, so a remainder depends
    only on its set: the first one computed is kept, and a missing one is
    built by peeling its events top first (every prefix is an up-set).
    """

    def __init__(self, p: Process, poset: EventPoset, tol: float):
        self.poset = poset
        self.up = {x: frozenset(n for n in poset.names if poset.leq(x, n)) for x in poset.names}
        self.top_first = sorted(poset.names, key=lambda x: len(self.up[x]))
        self.causal = _condition(backends.is_causal(p, tol))
        self.remainders: dict[frozenset[str], Process] = {frozenset(): p}
        self.residuals: dict[tuple[str, frozenset[str]], float] = {}

    def remainder(self, peeled: frozenset[str]) -> Process:
        """``p`` with the events ``peeled`` peeled."""
        if peeled not in self.remainders:
            *above, lowest = [x for x in self.top_first if x in peeled]
            self.step(lowest, frozenset(above))
        return self.remainders[peeled]

    def step(self, x: str, peeled: frozenset[str]) -> float:
        """Residual of peeling ``x`` once the events ``peeled`` are gone."""
        key = (x, peeled)
        if key not in self.residuals:
            e = self.poset.event(x)
            marg = core.discard_outputs(self.remainder(peeled), e.outs)
            self.residuals[key], rest = _independence_residual(marg, e.ins)
            self.remainders.setdefault(peeled | {x}, rest)
        return self.residuals[key]

    def condition(self, x: str, peeled: frozenset[str], order: Sequence[str]) -> tuple[float, str]:
        """The step as a condition, naming the events of ``order`` still there."""
        rest = [n for n in order if n != x and n not in peeled]
        return self.step(x, peeled), f"event {x!r} signals backwards to {rest}"


# -- signalling along a partial order --------------------------------------------


def check_order_consistency(p: Process, poset: EventPoset, tol: float = DEFAULT_TOL) -> CheckReport:
    """Is ``p`` causal and compatible with the partial order?

    For every event ``x`` whose up-set ``U`` (the events at or above ``x``)
    is not every event, peeling ``x`` after ``U - {x}`` must pass; the first
    failing event, taken top first, is named.  Causality covers the rest.

    This says that no down-closed set is signalled into from its complement,
    a union of principal up-sets: discarding the outputs of ``U1 | U2``
    keeps the independence of ``U1``'s inputs and of ``U2``'s, and plugging
    the uniform state into one and then the other makes it independent of
    both.  And once the events above ``x`` pass (induction up the order),
    ``p`` without ``U``'s outputs is the remainder of ``U - {x}`` without
    ``x``'s outputs, tensored with discarding the inputs of ``U - {x}``: it
    is independent of ``U``'s inputs exactly when ``x``'s step passes.
    """
    check_partition(poset.events, p)
    peeling = _Peeling(p, poset, tol)
    conditions = [peeling.causal]
    for x in peeling.top_first:
        if len(peeling.up[x]) < len(poset):
            conditions.append(peeling.condition(x, peeling.up[x] - {x}, poset.names))
    return _verdict(p, tol, conditions)


def check_one_way(p: Process, first: Event, second: Event, tol: float = DEFAULT_TOL) -> CheckReport:
    """Is ``p`` causal and signalling at most from ``first`` to ``second``?"""
    return check_order_consistency(p, EventPoset([first, second], [(first.name, second.name)]), tol)


def check_nonsignalling(p: Process, events: Sequence[Event], tol: float = DEFAULT_TOL) -> CheckReport:
    """Is ``p`` causal with no event signalling to the others?"""
    return check_order_consistency(p, EventPoset(events), tol)


def check_comb(p: Process, events: Sequence[Event], tol: float = DEFAULT_TOL) -> CheckReport:
    """Is ``p`` a comb with the given events in the given temporal order,
    i.e. consistent with their chain (peeled off the back one at a time)?"""
    chain = [(a.name, b.name) for a, b in zip(events, events[1:])]
    return check_order_consistency(p, EventPoset(events, chain), tol)


MAX_TOTALISED_EVENTS = 8


def check_via_totalisations(p: Process, poset: EventPoset, tol: float = DEFAULT_TOL) -> CheckReport:
    """Order consistency checked the expensive way, as the paper states it:
    ``p`` must be a comb for every linear extension of the partial order.
    The extensions share one :class:`_Peeling` and one verdict."""
    if len(poset) > MAX_TOTALISED_EVENTS:
        raise TooManyEvents(
            f"{len(poset)} events can have up to {len(poset)}! linear extensions"
        )
    check_partition(poset.events, p)
    peeling = _Peeling(p, poset, tol)
    exts = list(poset.linear_extensions())
    residual, detail = peeling.causal
    conditions = [(residual, f"not a comb for the extension {exts[0]}: {detail}")]
    for ext in exts:
        for k in range(len(ext) - 1, 0, -1):
            residual, detail = peeling.condition(ext[k], frozenset(ext[k + 1 :]), ext)
            conditions.append((residual, f"not a comb for the extension {ext}: {detail}"))
    return _verdict(p, tol, conditions)


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

    Tuples are enumerated depth first, in ``itertools.product`` order: each
    party's channel is plugged into the remainder left by the parties before
    it, so every prefix of a tuple is plugged once.  The first failing tuple
    is named in ``detail`` by each party's index into its family.
    """
    families = []
    total = 1
    for e in parties:
        outs = tuple(p.wire(l) for l in e.ins)
        ins = tuple(p.wire(l) for l in e.outs)
        total *= backends.channel_family_size(p.backend, outs, ins)
        if total > budget:
            raise CombinatorialBlowup(
                f"spanning the parties needs more than {budget} channel tuples"
            )
        families.append(backends.causal_channel_family(p.backend, outs, ins))
    wirings = [[(l, l) for l in e.outs] + [(l, l) for l in e.ins] for e in parties]

    def remainders(q: Process, prefix: tuple[int, ...]):
        """``(channel indices, is_causal report)`` of every tuple extending
        ``prefix``, whose channels are already plugged into ``q``."""
        k = len(prefix)
        if k == len(parties):
            yield prefix, backends.is_causal(q, tol)
            return
        for i, chan in enumerate(families[k]):
            yield from remainders(core.plug(q, chan, wirings[k]), prefix + (i,))

    def conditions():
        witnessed = False
        for index, rep in remainders(p, ()):
            detail = ""
            if not (rep.passed or witnessed):
                witnessed = True
                named = ", ".join(f"{e.name} #{i}" for e, i in zip(parties, index))
                detail = f"the channel tuple {named} leaves a non-causal remainder"
            yield rep.passed, rep.residual, detail

    # each remainder is judged against its own scale, so the reports are conjoined
    return _conjunction(conditions(), tol)


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
    a dual atom and a par are negations.
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
    return mask, gamma


def _coefficients(p: Process) -> np.ndarray:
    """``p``'s data with one axis per wire (a cpm wire's ket and bra axes
    merged), changed on each wire to an orthonormal basis whose element 0 is
    the identity direction: the unit vector ``u`` along the wire's discarding
    effect (the uniform vector, or ``I/sqrt(d)``).

    The change is the reflection ``x -> x - 2 v (v.x) / (v.v)`` with
    ``v = u - e_0``, which swaps ``u`` and ``e_0``.  It works in place on one
    copy of the data and touches only the entries where ``v`` is non-zero.
    """
    a, n = core._spec(p.backend).axes_per_wire, p.n_wires
    c = p.data.transpose([i + k * n for i in range(n) for k in range(a)]).copy()
    c = c.reshape(tuple(w.dim**a for w in p.wires))
    for i, w in enumerate(p.wires):
        if w.dim == 1:  # the identity is the whole wire
            continue
        u = backends.discard(p.backend, (w,)).data.real.ravel() / math.sqrt(w.dim)
        v = u - np.eye(1, u.size)[0]
        sites = [((slice(None),) * i + (k,), v[k]) for k in np.flatnonzero(v)]
        dot = sum(vk * c[site] for site, vk in sites) * (2.0 / (v @ v))
        for site, vk in sites:
            c[site] -= vk * dot
    return c


def _pattern_maxima(c: np.ndarray) -> np.ndarray:
    """The largest ``|coefficient|`` of each pattern, indexed as in
    :func:`_allowed_terms`.  Overwrites ``c`` with its absolute values."""
    m = np.absolute(c, out=c).real
    for i in range(m.ndim):
        keep = (slice(None),) * i
        rest = m[keep + (slice(1, None),)].max(axis=i, keepdims=True, initial=0.0)
        m = np.concatenate([m[keep + (slice(0, 1),)], rest], axis=i)
    return m


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
    n = normalize(parse_type(t) if isinstance(t, str) else t)
    _check_wires(p, n)
    return _projector(p, n, tol)


def _projector(p: Process, n: Type, tol: float) -> CheckReport:
    positive = backends.is_positive(p, tol)  # before any array of p's size is made here
    allowed, gamma = _allowed_terms(n, p.wires)
    c = _coefficients(p)
    total = complex(c[(0,) * c.ndim]) * math.sqrt(math.prod(w.dim for w in p.wires))
    forbidden = np.where(allowed, 0.0, _pattern_maxima(c))
    worst = np.unravel_index(np.argmax(forbidden), forbidden.shape)
    term = ", ".join(w.label for w, bit in zip(p.wires, worst) if bit)
    return _verdict(p, tol, [
        (float(forbidden[worst]), f"the type forbids a term on {{{term}}}"),
        (abs(total - gamma), f"total {total.real:.6g} is not {gamma:.6g}"),
        _condition(positive),
    ])


# -- membership in a causal type ---------------------------------------------------


def _split_labels(t: Type) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(input labels, output labels) of a normalized type, in order."""
    ins, outs = [], []
    for atom, dualled in atom_occurrences(t):
        (ins if dualled else outs).append(atom.label)
    return tuple(ins), tuple(outs)


def _check_wires(p: Process, t: Type) -> None:
    """The type's atoms must be exactly the process wires, with dual
    occurrences naming inputs and plain ones naming outputs."""
    emb = fo_embedding(t)
    want_in = {a.label: a.dim for a in emb.in_atoms}
    want_out = {a.label: a.dim for a in emb.out_atoms}
    have_in = {w.label: w.dim for w in p.in_wires}
    have_out = {w.label: w.dim for w in p.out_wires}
    for want, have, side in ((want_in, have_in, "input"), (want_out, have_out, "output")):
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


def _fo_labels(t: Type) -> tuple[str, ...]:
    return tuple(a.label for a, _ in atom_occurrences(normalize(t)))


def _is_arrow(t: Type) -> bool:
    return isinstance(t, Lolli) and is_first_order(t.left) and is_first_order(t.right)


def _party_events(t: Type) -> list[Event] | None:
    """Events for the factors of a tensor of arrows, from the host's side:
    an arrow party ``A -o A'`` occupies host outputs ``A`` and host inputs
    ``A'``; a bare first-order factor is a party that only receives."""
    factors = t.parts if isinstance(t, Tensor) else (t,)
    events = []
    for k, f in enumerate(factors):
        if _is_arrow(f):
            events.append(Event(f"party{k}", ins=_fo_labels(f.right), outs=_fo_labels(f.left)))
        elif is_first_order(f):
            events.append(Event(f"party{k}", ins=_fo_labels(f), outs=()))
        else:
            return None
    return events


def _soc_parties(t: Type) -> list[Event] | None:
    """Match ``T -o H`` or ``G -o (T -o H)`` with ``T`` a tensor of arrows."""

    def tail_ok(h: Type) -> bool:
        return is_first_order(h) or _is_arrow(h)

    if not isinstance(t, Lolli):
        return None
    if not is_first_order(t.left):
        parties = _party_events(t.left)
        if parties is not None and tail_ok(t.right):
            return parties
        return None
    if isinstance(t.right, Lolli) and not is_first_order(t.right.left):
        parties = _party_events(t.right.left)
        if parties is not None and tail_ok(t.right.right):
            return parties
    return None


def _causal_shape(n: Type) -> bool:
    """Normalized pars of dualled atoms and first-order pieces are channel
    types up to currying, and membership is plain causality."""
    if not isinstance(n, Par):
        return False
    return all(
        (isinstance(part, Dual) and isinstance(part.body, Atom)) or is_first_order(part)
        for part in n.parts
    )


def _nonsig_events(n: Type) -> list[Event] | None:
    """Events of a normalized tensor whose factors are channel-shaped."""
    if not isinstance(n, Tensor):
        return None
    events = []
    for k, part in enumerate(n.parts):
        if is_first_order(part):
            events.append(Event(f"e{k}", ins=(), outs=_fo_labels(part)))
        elif isinstance(part, Par) and _causal_shape(part):
            ins, outs = _split_labels(part)
            events.append(Event(f"e{k}", ins=ins, outs=outs))
        else:
            return None
    return events


def _signalling_check(p: Process, t: Type, n: Type, tol: float) -> CheckReport | None:
    """The unit, first-order, comb, channel and non-signalling shapes, which
    keep their own procedures on every backend; None for any other shape."""
    if isinstance(n, Unit):
        return _verdict(p, tol, [(abs(complex(p.scalar_value()) - 1.0), "scalar is not 1")])

    if is_first_order(n):
        return backends.is_causal(p, tol)

    seq = _comb_seq(t)
    if seq is not None and len(seq) >= 4:
        events = [
            Event(f"e{k}", ins=_fo_labels(seq[2 * k]), outs=_fo_labels(seq[2 * k + 1]))
            for k in range(len(seq) // 2)
        ]
        return check_comb(p, events, tol)

    if _causal_shape(n):
        return backends.is_causal(p, tol)

    events = _nonsig_events(n)
    if events is not None:
        return check_nonsignalling(p, events, tol)
    return None


def check_membership(
    p: Process,
    t: Type | str,
    tol: float = DEFAULT_TOL,
    budget: int = 20000,
) -> CheckReport:
    """Decide whether ``p`` inhabits the causal type ``t``.

    The type's shape selects the check: first-order types and channel types
    (including pars of channels and curried forms) ask for causality;
    tensors of channels for non-signalling; nested ``G -o (M -o H)`` combs
    for the comb conditions; ``cap`` for the conjunction of its branches.
    Every other type is decided by :func:`check_projector` on matr+ and cpm;
    on rel, ``(tensor of arrows) -o H``, optionally under one first-order
    argument, is decided by :func:`check_soc` and anything else raises
    :class:`UnsupportedType`.  A matr+ verdict also requires non-negative
    entries.
    """
    if isinstance(t, str):
        t = parse_type(t)
    if isinstance(t, Cap):
        fo_embedding(t)  # branches must share one ambient shape
        reports = [check_membership(p, part, tol, budget) for part in t.parts]
        return _conjunction(((r.passed, r.residual, r.detail) for r in reports), tol)

    n = normalize(t)
    _check_wires(p, n)
    rep = _signalling_check(p, t, n, tol)
    if rep is None and p.backend != REL:
        return _projector(p, n, tol)
    if rep is None:
        parties = _soc_parties(t)
        if parties is None:
            raise UnsupportedType(f"no decision procedure for the shape of {render_type(t)} on rel")
        return check_soc(p, parties, tol, budget)
    if p.backend == MATR:  # the PSD check of cpm stays off these paths (see ROADMAP)
        pos = backends.is_positive(p, tol)
        rep = _conjunction([(rep.passed, rep.residual, rep.detail), (pos.passed, pos.residual, pos.detail)], tol)
    return rep
