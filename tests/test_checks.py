"""Signalling structure: one-way, non-signalling, combs, posets, SOC and dispatch."""

from __future__ import annotations

import collections
import functools
import itertools
import re

import numpy as np
import pytest

from causkit import backends, checks, core, gallery
from causkit.core import BACKENDS, CPM, MATR, REL, Process, System
from causkit.errors import (
    CombinatorialBlowup,
    CyclicOrder,
    EmbedMismatch,
    NoSuchWire,
    ShapeMismatch,
    TooManyEvents,
    UnknownEvent,
    UnsupportedBackend,
    UnsupportedType,
)
from causkit.events import Event, EventPoset
from causkit.typesys import atom_occurrences, is_first_order, normalize, parse_type, render_type
from conftest import _unshared_comb, rand_data

TOL = 1e-9


def _chain(backend, rng, d=2):
    """first -> second signalling chain; wires K,L out and I,J in."""
    f = backends.random_causal(backend, (System("K", d), System("M", d)), (System("I", d),), rng)
    s = backends.random_causal(backend, (System("L", d),), (System("M", d), System("J", d)), rng)
    return core.permute(core.plug(f, s, [("M", "M")]), ["K", "L"], ["I", "J"])


E1 = Event("P1", ins="I", outs="K")
E2 = Event("P2", ins="J", outs="L")


@pytest.mark.parametrize("backend", BACKENDS)
def test_one_way_accepts_chain_rejects_reverse(backend, rng):
    p = _chain(backend, rng)
    assert checks.check_one_way(p, E1, E2, tol=TOL)
    # generic chains signal, so the opposite order fails
    rep = checks.check_one_way(p, E2, E1, tol=TOL)
    assert not rep and rep.detail == "event 'P1' signals backwards to ['P2']"


@pytest.mark.parametrize("backend", BACKENDS)
def test_nonsignalling_product_and_swap(backend, rng):
    f = backends.random_causal(backend, (System("K", 2),), (System("I", 2),), rng)
    g = backends.random_causal(backend, (System("L", 2),), (System("J", 2),), rng)
    prod = core.tensor_par(f, g)
    assert checks.check_nonsignalling(prod, [E1, E2], tol=TOL)
    swap = core.permute(
        core.tensor_par(
            core.identity(backend, System("I", 2), out_label="L"),
            core.identity(backend, System("J", 2), out_label="K"),
        ),
        ["K", "L"],
        ["I", "J"],
    )
    rep = checks.check_nonsignalling(swap, [E1, E2], tol=TOL)
    assert not rep and rep.residual > 0.4
    assert rep.detail == "event 'P1' signals backwards to ['P2']"


def test_nonsignalling_implies_both_one_way(rng):
    f = backends.random_causal(MATR, (System("K", 2),), (System("I", 2),), rng)
    g = backends.random_causal(MATR, (System("L", 2),), (System("J", 2),), rng)
    prod = core.tensor_par(f, g)
    assert checks.check_one_way(prod, E1, E2, tol=TOL)
    assert checks.check_one_way(prod, E2, E1, tol=TOL)


@pytest.mark.parametrize("backend", BACKENDS)
def test_comb_accepts_constructing_order(backend):
    inst = gallery.memory_comb(backend=backend, events=3, d=2, seed=5)
    evs = [Event(f"E{k}", ins=f"A{k}", outs=f"A{k}'") for k in (1, 2, 3)]
    assert checks.check_comb(inst.process, evs, tol=TOL)
    assert not checks.check_comb(inst.process, list(reversed(evs)), tol=TOL)


def test_comb_rejects_subnormalized():
    inst = gallery.memory_comb(backend=MATR, events=2, d=2, seed=3)
    p = inst.process
    bad = Process(MATR, p.out_wires, p.in_wires, 0.7 * p.data)
    evs = [Event(f"E{k}", ins=f"A{k}", outs=f"A{k}'") for k in (1, 2)]
    assert not checks.check_comb(bad, evs, tol=TOL)


def test_event_partition_must_cover_process(rng):
    from causkit.errors import BadPartition
    from causkit.events import check_partition

    p = _chain(MATR, rng)
    with pytest.raises(BadPartition):
        check_partition([E1, Event("P2", ins="J", outs="Z")], p)
    with pytest.raises(BadPartition):
        check_partition([E1], p)  # L and J not covered


def test_poset_past_and_down_closed_sets():
    evs = [Event(n, ins=f"{n}i", outs=f"{n}o") for n in "ABC"]
    poset = EventPoset(evs, [("A", "B")])  # C unordered
    assert poset.past({"B"}) == {"A", "B"}
    assert poset.past({"C"}) == {"C"}
    assert poset.is_down_closed({"A", "C"})
    assert not poset.is_down_closed({"B"})
    subsets = poset.down_closed_subsets()
    assert frozenset() in subsets and frozenset({"A", "B", "C"}) in subsets
    assert len(subsets) == 6  # {},{A},{C},{AB},{AC},{ABC}
    exts = list(poset.linear_extensions())
    assert ("A", "B", "C") in exts and len(exts) == 3


def test_poset_rejects_cycles():
    evs = [Event(n, ins=f"{n}i", outs=f"{n}o") for n in "AB"]
    with pytest.raises(CyclicOrder):
        EventPoset(evs, [("A", "B"), ("B", "A")])


def test_order_consistency_matches_construction(rng):
    inst = gallery.memory_comb(backend=MATR, events=3, d=2, seed=9)
    evs = [Event(f"E{k}", ins=f"A{k}", outs=f"A{k}'") for k in (1, 2, 3)]
    chain = EventPoset(evs, [("E1", "E2"), ("E2", "E3")])
    assert checks.check_order_consistency(inst.process, chain, tol=TOL)
    reverse = EventPoset(evs, [("E3", "E2"), ("E2", "E1")])
    assert not checks.check_order_consistency(inst.process, reverse, tol=TOL)
    # E1 signals to E2, which this order leaves unrelated to it
    fork = EventPoset(evs, [("E1", "E3"), ("E2", "E3")])
    rep = checks.check_order_consistency(inst.process, fork, tol=TOL)
    assert not rep and rep.detail == "event 'E1' signals backwards to ['E2']"


def test_order_consistency_equals_totalisations(rng):
    """The poset check and the all-linear-extensions check agree."""
    for seed in range(12):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(2, 4))
        systems = [(System(f"A{k}'", 2), System(f"A{k}", 2)) for k in range(n)]
        evs = [Event(f"E{k}", ins=f"A{k}", outs=f"A{k}'") for k in range(n)]
        outs = tuple(s for s, _ in systems)
        ins = tuple(s for _, s in systems)
        if seed % 3 == 0:
            p = backends.random_causal(MATR, outs, ins, gen)
        elif seed % 3 == 1:
            p = gallery.memory_comb(backend=MATR, events=n, d=2, seed=seed).process
            p = core.rename(
                p,
                {f"A{k}": f"A{k - 1}" for k in range(1, n + 1)}
                | {f"A{k}'": f"A{k - 1}'" for k in range(1, n + 1)},
            )
        else:
            p = Process(MATR, outs, ins, gen.random((2,) * (2 * n)))
        rels = [("E0", "E1")] if n >= 2 and seed % 2 else []
        poset = EventPoset(evs, rels)
        a = checks.check_order_consistency(p, poset, tol=TOL)
        b = checks.check_via_totalisations(p, poset, tol=TOL)
        assert a.passed == b.passed, f"seed {seed}: {a} vs {b}"


def _dimension_one(n):
    """The causal rel process of ``n`` events on dimension-1 wires."""
    evs = [Event(f"E{k}", ins=f"A{k}", outs=f"A{k}'") for k in range(n)]
    p = backends.uniform_state(REL, tuple(System(f"A{k}'", 1) for k in range(n)))
    p = Process(REL, p.out_wires, tuple(System(f"A{k}", 1) for k in range(n)), p.data.reshape((1,) * 2 * n))
    return p, evs


def test_order_consistency_decides_sixteen_events():
    p, evs = _dimension_one(16)
    chain = [(a.name, b.name) for a, b in zip(evs[:8], evs[1:8])]
    for poset in (EventPoset(evs), EventPoset(evs, chain)):
        rep = checks.check_order_consistency(p, poset)
        assert rep and rep.residual == 0.0


def test_totalisations_event_limit():
    p, evs = _dimension_one(checks.MAX_TOTALISED_EVENTS + 1)
    with pytest.raises(TooManyEvents):
        checks.check_via_totalisations(p, EventPoset(evs))
    p, evs = _dimension_one(checks.MAX_TOTALISED_EVENTS)
    chain = [(a.name, b.name) for a, b in zip(evs, evs[1:])]
    assert checks.check_via_totalisations(p, EventPoset(evs, chain))


def _signalling_oracle(p, poset, groups, tol):
    """Causality, and for each group of events: discarding the group's
    outputs leaves a process independent of the group's inputs."""
    conditions = [(backends.is_causal(p, tol).residual, "")]
    for group in groups:
        up = [poset.event(n) for n in poset.names if n in group]
        marg = core.discard_outputs(p, [l for e in up for l in e.outs])
        residual, _ = checks._independence_residual(marg, [l for e in up for l in e.ins])
        conditions.append((residual, ""))
    return backends._verdict(p, tol, conditions)


def _down_set_oracle(p, poset, tol):
    """Order consistency by enumeration: nothing outside a non-empty
    down-closed set signals into it.  Outside the empty set lie all events,
    whose condition causality implies; it is left to ``is_causal`` as in
    the comb and one-way conditions, since near ``tol`` its residual can
    reach twice that of ``is_causal``."""
    names = set(poset.names)
    groups = [names - sub for sub in poset.down_closed_subsets() if sub and sub != names]
    return _signalling_oracle(p, poset, groups, tol)


def _random_instance(backend, gen, k, n):
    """A random poset on ``n`` events with dimension-2 wires and a process
    for it, by ``k % 4``: an honest comb relabelled to a random linear
    extension (0), the same perturbed around tol on matr+/cpm (1), a generic
    causal process (2) or a product of channels, which fits every order (3)."""
    evs = [Event(f"E{j}", ins=f"A{j}", outs=f"A{j}'") for j in range(1, n + 1)]
    outs = tuple(System(f"A{j}'", 2) for j in range(1, n + 1))
    ins = tuple(System(f"A{j}", 2) for j in range(1, n + 1))
    perm = list(gen.permutation(n))
    rels = [
        (evs[perm[i]].name, evs[perm[j]].name)
        for i in range(n)
        for j in range(i + 1, n)
        if gen.random() < 0.5
    ]
    poset = EventPoset(evs, rels)
    kind = k % 4
    if kind == 3:
        parts = [backends.random_causal(backend, (o,), (i,), gen) for o, i in zip(outs, ins)]
        p = functools.reduce(core.tensor_par, parts)
    elif kind == 2:
        p = backends.random_causal(backend, outs, ins, gen)
    else:
        exts = list(poset.linear_extensions())
        ext = exts[int(gen.integers(len(exts)))]
        p = gallery.memory_comb(backend=backend, events=n, d=2, seed=k).process
        mapping = {}
        for j, name in enumerate(ext, start=1):
            mapping |= {f"A{j}": poset.event(name).ins[0], f"A{j}'": poset.event(name).outs[0]}
        p = core.rename(p, mapping)
        if kind == 1 and backend != REL:
            eps = 10 ** gen.uniform(-11, -6)
            p = Process(backend, p.out_wires, p.in_wires, p.data + eps * rand_data(backend, p.data.shape, gen))
    return p, poset, rels


@pytest.mark.parametrize("backend", BACKENDS)
def test_order_consistency_matches_down_set_oracle(backend):
    """Principal up-sets and every down-closed set give the same verdict; on
    antichains and two-event chains the conditions are the per-event ones of
    non-signalling and one-way signalling, with the same residual."""
    gen = np.random.default_rng({MATR: 701, CPM: 702, REL: 703}[backend])
    verdicts = set()
    for k in range(60):
        n = int(gen.integers(2, 5))
        p, poset, rels = _random_instance(backend, gen, k, n)
        evs = poset.events
        got = checks.check_order_consistency(p, poset, tol=TOL)
        want = _down_set_oracle(p, poset, TOL)
        assert got.passed == want.passed, f"{backend} pair {k}, order {rels}: {got} vs {want}"
        verdicts.add(got.passed)
        if not rels:
            old = _signalling_oracle(p, poset, [{e.name} for e in evs], TOL)
            assert got.residual == old.residual == checks.check_nonsignalling(p, evs, tol=TOL).residual
        if n == 2 and rels:
            (first, second), = rels
            old = _signalling_oracle(p, poset, [{second}], TOL)
            rep = checks.check_one_way(p, poset.event(first), poset.event(second), tol=TOL)
            assert got.residual == old.residual == rep.residual
    assert verdicts == {True, False}


def _unshared_totalisations(p, poset, tol):
    """Totalisations without shared work: a fresh comb check per extension."""
    conditions = []
    for ext in poset.linear_extensions():
        rep = _unshared_comb(p, [poset.event(n) for n in ext], tol)
        conditions.append((rep.passed, rep.residual, f"not a comb for the extension {ext}: {rep.detail}"))
    return backends._conjunction(conditions, tol)


@pytest.mark.parametrize("backend", BACKENDS)
def test_totalisations_match_unshared_combs(backend):
    """Sharing peel steps across extensions keeps every verdict and detail;
    a remainder reached by another peel order may differ only by rounding.
    A comb checked alone peels in one order and gives the same report."""
    gen = np.random.default_rng({MATR: 801, CPM: 802, REL: 803}[backend])
    verdicts = set()
    for k in range(20 if backend == CPM else 40):  # a 5-event cpm process has 16 MB of data
        n = int(gen.integers(2, 6))
        p, poset, rels = _random_instance(backend, gen, k, n)
        got = checks.check_via_totalisations(p, poset, tol=TOL)
        want = _unshared_totalisations(p, poset, TOL)
        assert (got.passed, got.detail) == (want.passed, want.detail), f"{backend} pair {k}, order {rels}"
        if backend == REL:
            assert got.residual == want.residual
        else:
            assert abs(got.residual - want.residual) <= 1e-12 * backends._scale(p)
        verdicts.add(got.passed)
        ext = [poset.event(name) for name in next(iter(poset.linear_extensions()))]
        assert checks.check_comb(p, ext, tol=TOL) == _unshared_comb(p, ext, TOL)
    assert verdicts == {True, False}


def _count_calls(monkeypatch, owner, name, counts):
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _channels(n, order=()):
    """A product of ``n`` dimension-2 matr+ channels and a poset on its events."""
    gen = np.random.default_rng(n)
    evs = [Event(f"E{k}", ins=f"A{k}", outs=f"A{k}'") for k in range(1, n + 1)]
    parts = [backends.random_causal(MATR, (System(f"A{k}'", 2),), (System(f"A{k}", 2),), gen) for k in range(1, n + 1)]
    return functools.reduce(core.tensor_par, parts), EventPoset(evs, order)


@pytest.mark.parametrize(
    "n, order, peels",
    [pytest.param(n, (), n * 2 ** (n - 1) - n, id=f"antichain{n}") for n in (3, 4, 5, 6)]
    + [
        pytest.param(4, (("E1", "E2"), ("E3", "E4"), ("E1", "E4")), 8, id="chains2+2"),
        pytest.param(5, (("E1", "E2"), ("E2", "E3"), ("E4", "E5"), ("E1", "E5")), 13, id="chains3+2"),
    ],
)
def test_totalisations_peel_each_up_set_once(monkeypatch, n, order, peels):
    """One causality check, and one peel per event and up-set above it: on an
    antichain ``n * 2**(n - 1) - n`` peels instead of ``(n - 1) * n!``; the
    last two are the benchmark's two-chain poset shapes."""
    p, poset = _channels(n, order)
    counts = collections.Counter()
    _count_calls(monkeypatch, checks, "_independence_residual", counts)
    _count_calls(monkeypatch, backends, "is_causal", counts)
    assert checks.check_via_totalisations(p, poset, tol=TOL)
    assert counts == {"_independence_residual": peels, "is_causal": 1}


@pytest.mark.parametrize(
    "n, order, peels",
    [pytest.param(n, (), n, id=f"antichain{n}") for n in (2, 4, 6)]
    + [
        pytest.param(n, [(f"E{k}", f"E{k + 1}") for k in range(1, n)], n - 1, id=f"chain{n}")
        for n in (2, 4, 6)
    ]
    + [
        pytest.param(4, (("E1", "E2"), ("E3", "E4"), ("E1", "E4")), 5, id="chains2+2"),
        pytest.param(5, (("E1", "E2"), ("E2", "E3"), ("E4", "E5"), ("E1", "E5")), 7, id="chains3+2"),
    ],
)
def test_order_consistency_peels_each_up_set_once(monkeypatch, n, order, peels):
    """One causality check, and each event peeled after the rest of its
    up-set, whose remainder is built from the peels above it: ``n`` peels on
    an antichain, ``n - 1`` on a chain."""
    p, poset = _channels(n, order)
    counts = collections.Counter()
    _count_calls(monkeypatch, checks, "_independence_residual", counts)
    _count_calls(monkeypatch, backends, "is_causal", counts)
    assert checks.check_order_consistency(p, poset, tol=TOL)
    assert counts == {"_independence_residual": peels, "is_causal": 1}


def test_totalisations_scale_the_process_at_most_twice(monkeypatch):
    """The 120 extensions of a 5-event antichain share one verdict: ``p``'s
    scale is taken by ``is_causal`` and by that verdict only."""
    p, poset = _channels(5)
    counts = collections.Counter()
    _count_calls(monkeypatch, backends, "_scale", counts)
    assert checks.check_via_totalisations(p, poset, tol=TOL)
    assert counts["_scale"] <= 2


def test_soc_single_party(rng):
    # normalizes every channel: uniform state on the output side, discard the input
    w = Process(MATR, (System("A", 2),), (System("A'", 2),), np.full((2, 2), 0.5))
    party = Event("P", ins="A'", outs="A")
    assert checks.check_soc(w, [party], tol=TOL)
    # trace functional is not second-order causal
    tr = Process(MATR, (System("A", 2),), (System("A'", 2),), np.eye(2))
    assert not checks.check_soc(tr, [party], tol=TOL)


def _soc_host(backend, n, rng):
    """An ``n``-party fixed-order chain: a state feeds party 0, party ``k``'s
    output reaches party ``k + 1`` through a random channel with a memory,
    and the last output is discarded."""
    a = [System(f"A{k}", 2) for k in range(n)]
    b = [System(f"A{k}'", 2) for k in range(n)]
    host = backends.random_causal(backend, (a[0], System("M0", 2)), (), rng)
    for k in range(1, n):
        mem_out = (System(f"M{k}", 2),) if k < n - 1 else ()
        step = backends.random_causal(backend, (a[k],) + mem_out, (System(f"M{k - 1}", 2), b[k - 1]), rng)
        host = core.plug(host, step, [(f"M{k - 1}", f"M{k - 1}")])
    host = core.tensor_par(host, backends.discard(backend, (b[-1],)))
    parties = [Event(f"party{k}", ins=x.label, outs=y.label) for k, (x, y) in enumerate(zip(b, a))]
    return core.permute(host, [w.label for w in a], [w.label for w in b]), parties


def _party_loop(host, party, rng):
    """Feed the party's output straight back into its input.  A union with a
    total relation stays total, so for rel the loop replaces the host."""
    (out,), (back,) = party.outs, party.ins
    term = core.identity(host.backend, host.wire(back), out_label=out)
    others_out = tuple(w for w in host.out_wires if w.label != out)
    others_in = tuple(w for w in host.in_wires if w.label != back)
    term = core.tensor_par(term, backends.uniform_state(host.backend, others_out))
    term = core.tensor_par(term, backends.discard(host.backend, others_in))
    term = core.permute(term, [w.label for w in host.out_wires], [w.label for w in host.in_wires])
    if host.backend == REL:
        return term
    eps = rng.uniform(0.1, 0.5)
    return Process(host.backend, host.out_wires, host.in_wires, (1 - eps) * host.data + eps * term.data)


def _soc_oracle(p, parties, tol):
    """Every tuple in ``itertools.product`` order, each plugged into the whole
    host: ``[(channel indices, is_causal report of the remainder)]``."""
    families = [
        backends.causal_channel_family(p.backend, [p.wire(l) for l in e.ins], [p.wire(l) for l in e.outs])
        for e in parties
    ]
    reports = []
    for index in itertools.product(*(range(len(f)) for f in families)):
        q = p
        for e, family, i in zip(parties, families, index):
            q = core.plug(q, family[i], [(l, l) for l in e.outs + e.ins])
        reports.append((index, backends.is_causal(q, tol)))
    return reports


@pytest.mark.parametrize("loop", [False, True])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("backend", BACKENDS)
def test_soc_matches_product_oracle(backend, n, loop, rng):
    host, parties = _soc_host(backend, n, rng)
    if loop:
        host = _party_loop(host, parties[int(rng.integers(n))], rng)
    rep = checks.check_soc(host, parties, tol=TOL)
    oracle = _soc_oracle(host, parties, TOL)
    assert rep.passed == all(r.passed for _, r in oracle) == (not loop)
    assert rep.residual == max(r.residual for _, r in oracle)
    if loop:
        named = tuple(int(i) for i in re.findall(r"party\d+ #(\d+)", rep.detail))
        first_failure = next(index for index, r in oracle if not r.passed)
        assert named == first_failure
    else:
        assert rep.detail == ""


def _soc_type(parties, d=2):
    arrows = " (x) ".join(f"({e.outs[0]}[{d}] -o {e.ins[0]}[{d}])" for e in parties)
    return f"({arrows}) -o I"


@pytest.mark.parametrize("loop", [False, True])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("backend", [MATR, CPM])
def test_projector_matches_soc_enumeration(backend, n, loop, rng):
    host, parties = _soc_host(backend, n, rng)
    if loop:
        host = _party_loop(host, parties[int(rng.integers(n))], rng)
    rep = checks.check_projector(host, _soc_type(parties), tol=TOL)
    assert rep.passed == checks.check_soc(host, parties, tol=TOL).passed == (not loop)
    if loop:
        assert re.fullmatch(r"the type forbids a term on \{.*\}", rep.detail)


def _leak(p, sender, receiver, rng):
    """Mix in a term whose output ``receiver`` copies the input ``sender``."""
    s, r = p.wire(sender), p.wire(receiver)
    term = core.identity(p.backend, s, out_label=r.label)
    rest_out = tuple(w for w in p.out_wires if w != r)
    rest_in = tuple(w for w in p.in_wires if w != s)
    term = core.tensor_par(term, backends.uniform_state(p.backend, rest_out))
    term = core.tensor_par(term, backends.discard(p.backend, rest_in))
    term = core.permute(term, [w.label for w in p.out_wires], [w.label for w in p.in_wires])
    return Process(p.backend, p.out_wires, p.in_wires, 0.7 * p.data + 0.3 * term.data)


@pytest.mark.parametrize("backend", [MATR, CPM])
def test_projector_matches_signalling_procedures(backend, rng):
    """On the shapes that keep their own procedures, the projector agrees
    with them, on members and on processes perturbed out of the type."""
    inst = gallery.memory_comb(backend=backend, events=3, d=2, seed=int(rng.integers(1 << 16)))
    evs = [Event(f"E{k}", ins=f"A{k}", outs=f"A{k}'") for k in (1, 2, 3)]
    pairs = [(f"A{k}[2]", f"A{k}'[2]") for k in (1, 2, 3)]
    for order in (pairs, pairs[::-1]):
        events = evs if order is pairs else evs[::-1]
        for p in (inst.process, _leak(inst.process, "A3", "A1'", rng)):
            want = checks.check_comb(p, events, tol=TOL).passed
            assert checks.check_projector(p, gallery.comb_type(order), tol=TOL).passed == want

    a, a_, b, b_ = System("A", 2), System("A'", 2), System("B", 3), System("B'", 2)
    prod = core.tensor_par(
        backends.random_causal(backend, (a_,), (a,), rng), backends.random_causal(backend, (b_,), (b,), rng)
    )
    leaky = _leak(prod, "A", "B'", rng)
    tensor = "(A[2] -o A'[2]) (x) (B[3] -o B'[2])"
    nonsig = [Event("e0", ins="A", outs="A'"), Event("e1", ins="B", outs="B'")]
    for p in (prod, leaky):
        want = checks.check_nonsignalling(p, nonsig, tol=TOL).passed
        assert checks.check_projector(p, tensor, tol=TOL).passed == want == (p is prod)

    par = "(A[2] -o A'[2]) (+) (B[3] -o B'[2])"
    scaled = Process(backend, leaky.out_wires, leaky.in_wires, 1.1 * leaky.data)
    for p in (leaky, scaled):
        want = backends.is_causal(p, tol=TOL).passed
        assert checks.check_projector(p, par, tol=TOL).passed == want == (p is leaky)
    assert "total" in checks.check_projector(scaled, par, tol=TOL).detail


def test_projector_refuses_rel_and_cap(rng):
    p = backends.random_causal(REL, (System("B", 2),), (System("A", 2),), rng)
    with pytest.raises(UnsupportedBackend):
        checks.check_projector(p, "A[2] -o B[2]", tol=TOL)
    q = backends.random_causal(MATR, (System("B", 2),), (System("A", 2),), rng)
    with pytest.raises(UnsupportedType):
        checks.check_projector(q, "cap(A[2] -o B[2], A[2]^* (x) B[2])", tol=TOL)


def test_projector_checks_positivity(rng):
    good = backends.random_causal(CPM, (System("B", 2),), (System("A", 2),), rng)
    flip = np.zeros((2,) * 4, dtype=complex)  # a traceless term the channel type allows
    flip[0, 0, 0, 0], flip[1, 0, 1, 0] = 1.0, -1.0
    bad = Process(CPM, good.out_wires, good.in_wires, good.data + 2.0 * flip)
    assert backends.is_causal(bad, tol=TOL)
    rep = checks.check_projector(bad, "A[2] -o B[2]", tol=TOL)
    assert not rep and rep.detail.startswith("negative eigenvalue")


def test_projector_decides_what_enumeration_refuses():
    big = gallery.classical_switch(4)
    assert checks.check_membership(big.process, big.expectations[0][0], tol=TOL)
    with pytest.raises(CombinatorialBlowup):
        parties = [Event("PA", ins="A'", outs="A"), Event("PB", ins="B'", outs="B")]
        checks.check_soc(big.process, parties, tol=TOL)
    host, parties = _soc_host(CPM, 4, np.random.default_rng(4))
    assert checks.check_membership(host, _soc_type(parties), tol=TOL)


# -- the paper's definition of X -o Y, as an oracle for higher-order types ---------


def _trace_and_replace(data, backend, n, i):
    """Discard wire ``i`` of an ``n``-wire data tensor and put back the
    uniform state on it: the projection onto its identity component."""
    if backend == MATR:
        return np.broadcast_to(data.mean(axis=i, keepdims=True), data.shape)
    ket, bra = i, n + i
    d = data.shape[i]
    traced = np.trace(data, axis1=ket, axis2=bra)
    eye = np.eye(d).reshape([d if ax in (ket, bra) else 1 for ax in range(2 * n)])
    return np.expand_dims(traced, (ket, bra)) * eye / d


def _pattern_part(data, backend, wires, pattern):
    """The component of ``data`` whose wires carry a non-identity part
    exactly where ``pattern`` has a 1."""
    for i, bit in enumerate(pattern):
        identity = _trace_and_replace(data, backend, len(wires), i)
        data = data - identity if bit else identity
    return data


def _terms(data, backend, wires, keep):
    """The sum of the pattern components of ``data`` that ``keep`` selects."""
    patterns = [s for s in itertools.product((0, 1), repeat=len(wires)) if keep(s)]
    return sum((_pattern_part(data, backend, wires, s) for s in patterns), np.zeros(data.shape))


def _affine_basis(backend, ty, outs, ins):
    """An affine basis of the states of ``ty`` on those wires: its uniform
    member, and that plus each element of an orthonormal basis of the range
    of its allowed non-identity patterns."""
    wires = outs + ins
    allowed, gamma = checks._allowed_terms(normalize(parse_type(ty)), wires)
    shape = Process.expected_shape(backend, outs, ins)
    units = np.eye(int(np.prod(shape))).reshape((-1,) + shape)
    columns = [_terms(e, backend, wires, lambda s: any(s) and allowed[s]).ravel() for e in units]
    u, sv, _ = np.linalg.svd(np.array(columns).T)
    directions = [u[:, k].reshape(shape) for k in range(int(np.sum(sv > 1e-9)))]
    base = gamma * backends.uniform_state(backend, wires).data
    return [Process(backend, outs, ins, base + r) for r in [0.0] + directions]


def _near_uniform(backend, ty, outs, ins, rng, inside):
    """The uniform member of ``ty`` plus a random term, small enough to stay
    positive, made of the type's allowed patterns (``inside``) or of all."""
    wires = outs + ins
    allowed, gamma = checks._allowed_terms(normalize(parse_type(ty)), wires)
    shape = Process.expected_shape(backend, outs, ins)
    term = _terms(rand_data(backend, shape, rng), backend, wires, lambda s: any(s) and (allowed[s] or not inside))
    size = int(np.prod([w.dim for w in wires]))
    term *= gamma / size / (2 * np.linalg.norm(term))
    return Process(backend, outs, ins, gamma * backends.uniform_state(backend, wires).data + term)


def _lolli_oracle(p, t):
    """The affine part of ``p : X -o Y`` by definition: plugging each member
    of an affine basis of ``X`` leaves a member of ``Y``, recursively, and a
    first-order type asks for normalization."""
    if is_first_order(t):
        return bool(backends.is_causal(p, tol=TOL))
    atoms = list(atom_occurrences(normalize(t.left)))
    x_outs = tuple(p.wire(a.label) for a, dual in atoms if not dual)
    x_ins = tuple(p.wire(a.label) for a, dual in atoms if dual)
    wiring = [(w.label, w.label) for w in x_outs + x_ins]
    return all(
        _lolli_oracle(core.plug(p, x, wiring), t.right)
        for x in _affine_basis(p.backend, render_type(t.left), x_outs, x_ins)
    )


def test_soc_budget_raises():
    inst = gallery.build("ocb_process")
    parties = [Event("PA", ins="A'", outs="A"), Event("PB", ins="B'", outs="B")]
    with pytest.raises(CombinatorialBlowup):
        checks.check_soc(inst.process, parties, tol=TOL, budget=10)


# -- membership dispatch ---------------------------------------------------------


def test_membership_first_order(rng):
    p = backends.random_causal(MATR, (System("B", 3),), (System("A", 2),), rng)
    assert checks.check_membership(p, "A[2] -o B[3]", tol=TOL)
    assert not checks.check_membership(
        Process(MATR, p.out_wires, p.in_wires, 2 * p.data), "A[2] -o B[3]", tol=TOL
    )
    # an infinite entry makes the scale infinite too; the verdict must still fail
    inf = Process(MATR, (System("A'", 2),), (System("A", 2),), np.array([[np.inf, 0.5], [0.0, 0.5]]))
    assert not checks.check_membership(inf, "A[2] -o A'[2]", tol=TOL)
    # a quasi-stochastic matrix: its columns sum to 1, but an entry is negative
    quasi = Process(MATR, (System("A'", 2),), (System("A", 2),), np.array([[1.5, 0.5], [-0.5, 0.5]]))
    assert backends.is_causal(quasi, tol=TOL)
    rep = checks.check_membership(quasi, "A[2] -o A'[2]", tol=TOL)
    assert not rep and rep.residual == 0.5 and rep.detail == "negative entry -0.5 at index (1, 0)"


def test_membership_tensor_vs_par(rng):
    inst = gallery.swap_process(backend=MATR, d=2)
    tensor, par = inst.expectations[0][0], inst.expectations[1][0]
    assert not checks.check_membership(inst.process, tensor, tol=TOL)
    assert checks.check_membership(inst.process, par, tol=TOL)
    # rel verdicts are exact: no tolerance lets the swap into the tensor
    swap = gallery.swap_process(REL).process
    for tol in (1.0, 5.0):
        assert not checks.check_membership(swap, tensor, tol=tol)
        assert checks.check_membership(swap, par, tol=tol)


def test_membership_comb_matches_check_comb():
    inst = gallery.memory_comb(backend=MATR, events=3, d=2, seed=21)
    ty = inst.expectations[0][0]
    evs = [Event(f"E{k}", ins=f"A{k}", outs=f"A{k}'") for k in (1, 2, 3)]
    direct = _unshared_comb(inst.process, evs, TOL)
    via_type = checks.check_membership(inst.process, ty, tol=TOL)
    assert direct.passed == via_type.passed == True  # noqa: E712


def test_membership_scalar_unit():
    one = core.scalar(MATR, 1.0)
    assert checks.check_membership(one, "I", tol=TOL)
    assert not checks.check_membership(core.scalar(MATR, 2.0), "I", tol=TOL)


def test_membership_cap_is_conjunction(rng):
    f = backends.random_causal(MATR, (System("A'", 2),), (System("A", 2),), rng)
    g = backends.random_causal(MATR, (System("B'", 2),), (System("B", 2),), rng)
    prod = core.tensor_par(f, g)
    both = "cap((A[2] -o A'[2]) (x) (B[2] -o B'[2]), (A[2] -o A'[2]) (+) (B[2] -o B'[2]))"
    assert checks.check_membership(prod, both, tol=TOL)


def test_membership_wire_mismatches(rng):
    p = backends.random_causal(MATR, (System("B", 3),), (System("A", 2),), rng)
    with pytest.raises(NoSuchWire):
        checks.check_membership(p, "A[2] -o C[3]", tol=TOL)
    with pytest.raises(ShapeMismatch):
        checks.check_membership(p, "A[2] -o B[4]", tol=TOL)
    with pytest.raises(EmbedMismatch):
        checks.check_membership(p, "B[3] -o A[2]", tol=TOL)  # roles flipped


def test_membership_unsupported_type(rng):
    ty = "A[2]^* (x) B[2]"
    # on rel a bare dual atom tensored with an atom is not a recognized shape
    chan = backends.random_causal(REL, (System("B", 2),), (System("A", 2),), rng)
    with pytest.raises(UnsupportedType):
        checks.check_membership(chan, ty, tol=TOL)
    # on matr+ the projector decides it: B must not depend on A
    reads_input = core.identity(MATR, System("A", 2), out_label="B")
    assert not checks.check_membership(reads_input, ty, tol=TOL)
    state = backends.random_state(MATR, (System("B", 2),), rng)
    ignores_input = core.tensor_par(state, backends.discard(MATR, (System("A", 2),)))
    assert checks.check_membership(ignores_input, ty, tol=TOL)


HIGHER_ORDER = [
    # (type, process outputs, process inputs)
    ("((A[2] -o B[2]) -o C[2]) -o D[2]", ("B", "D"), ("A", "C")),
    ("(A[2] -o B[2]) -o (C[2] -o D[2])", ("A", "D"), ("B", "C")),
    ("(((A[2] -o B[2]) -o C[2]) -o D[2]) -o E[2]", ("A", "C", "E"), ("B", "D")),
]


HIGHER_ORDER_CASES = [
    (backend, *case)
    for case in HIGHER_ORDER
    for backend in (MATR, CPM)
    if backend == MATR or len(case[1] + case[2]) <= 4  # a 5-qubit cpm basis has 1,024 columns
]


@pytest.mark.parametrize("backend, ty, outs, ins", HIGHER_ORDER_CASES)
def test_projector_matches_lolli_definition(backend, ty, outs, ins, rng):
    outs = tuple(System(l, 2) for l in outs)
    ins = tuple(System(l, 2) for l in ins)
    t = parse_type(ty)
    for inside in (True, False, True, False):
        p = _near_uniform(backend, ty, outs, ins, rng, inside)
        assert backends.is_positive(p, tol=TOL)
        want = _lolli_oracle(p, t)
        assert want == inside
        assert checks.check_membership(p, ty, tol=TOL).passed == want
    scaled = Process(backend, outs, ins, 1.2 * _near_uniform(backend, ty, outs, ins, rng, True).data)
    assert not _lolli_oracle(scaled, t)
    assert not checks.check_membership(scaled, ty, tol=TOL)


@pytest.mark.parametrize("backend", [MATR, CPM])
def test_third_order_comb_member(backend, rng):
    """A comb that acts as the channel ``A -o B`` and then maps ``C`` to
    ``D`` inhabits ``((A -o B) -o C) -o D``; signalling from ``C`` back to
    ``B`` does not."""
    a, b, c, d, m = (System(l, 2) for l in ("A", "B", "C", "D", "M"))
    first = backends.random_causal(backend, (b, m), (a,), rng)
    second = backends.random_causal(backend, (d,), (m, c), rng)
    comb = core.permute(core.plug(first, second, [("M", "M")]), ["B", "D"], ["A", "C"])
    ty = "((A[2] -o B[2]) -o C[2]) -o D[2]"
    t = parse_type(ty)
    assert _lolli_oracle(comb, t) and checks.check_membership(comb, ty, tol=TOL)
    loop = _leak(comb, "C", "B", rng)
    assert not _lolli_oracle(loop, t)
    assert not checks.check_membership(loop, ty, tol=TOL)
