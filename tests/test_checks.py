"""Signalling structure: one-way, non-signalling, combs, posets, SOC and dispatch."""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest

from causkit import backends, checks, core, gallery
from causkit.core import BACKENDS, MATR, REL, Process, System
from causkit.errors import (
    CombinatorialBlowup,
    CyclicOrder,
    EmbedMismatch,
    NoSuchWire,
    ShapeMismatch,
    TooManyEvents,
    UnknownEvent,
    UnsupportedType,
)
from causkit.events import Event, EventPoset

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
    assert not checks.check_one_way(p, E2, E1, tol=TOL)


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


def test_order_consistency_event_budget():
    evs = [Event(f"E{k}", ins=f"A{k}", outs=f"A{k}'") for k in range(13)]
    poset = EventPoset(evs)
    p = backends.uniform_state(REL, tuple(System(f"A{k}'", 1) for k in range(13)))
    p = Process(
        REL,
        p.out_wires,
        tuple(System(f"A{k}", 1) for k in range(13)),
        p.data.reshape((1,) * 26),
    )
    with pytest.raises(TooManyEvents):
        checks.check_order_consistency(p, poset)


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
    direct = checks.check_comb(inst.process, evs, tol=TOL)
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
    p = backends.random_causal(MATR, (System("B", 2),), (System("A", 2),), rng)
    # a bare dual atom tensored with an atom is not a recognized shape
    with pytest.raises(UnsupportedType):
        checks.check_membership(p, "A[2]^* (x) B[2]", tol=TOL)
