"""Per-backend primitives: discarding, causality, spanning families, factorization."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from causkit import backends, core
from causkit.core import BACKENDS, CPM, MATR, REL, Process, System
from causkit.errors import NotOneWay, UnsupportedBackend
from causkit.events import Event

TOL = 1e-9
RECONSTRUCT_TOL = 1e-12


def test_discard_and_uniform_are_dual():
    for backend, want in ((MATR, 1.0), (CPM, 1.0), (REL, True)):
        sys2 = (System("A", 2), System("B", 3))
        disc = backends.discard(backend, sys2)
        unif = backends.uniform_state(backend, sys2)
        s = core.plug(unif, disc, [("A", "A"), ("B", "B")])
        if backend == REL:
            assert s.scalar_value() == want
        else:
            assert abs(s.scalar_value() - want) <= TOL


def test_discard_is_shared_and_read_only():
    sys2 = (System("A", 2), System("B", 3))
    for backend in BACKENDS:
        disc = backends.discard(backend, sys2)
        again = backends.discard(backend, list(sys2))
        assert again.in_wires == disc.in_wires and core.distance(again, disc) == 0.0
        with pytest.raises(ValueError):
            disc.data[(0,) * disc.data.ndim] = 0
        unif = backends.uniform_state(backend, (System("A", 2),))
        built = [
            core.tensor_par(disc, backends.discard(backend, (System("C", 2),))),
            core.plug(unif, disc, [("A", "A")]),
        ]
        for p in built:
            p.data[(0,) * p.data.ndim] = 0


def test_dimension_scalar():
    assert backends.dimension(MATR, System("A", 3)) == 3.0
    assert backends.dimension(CPM, System("A", 3)) == 9.0
    assert backends.dimension(REL, System("A", 3)) is True


def test_random_causal_is_causal(rng):
    shapes = [
        ((System("B", 2),), (System("A", 3),)),
        ((System("B", 2), System("C", 2)), (System("A", 2),)),
        ((System("B", 3),), ()),
        ((), (System("A", 2),)),
    ]
    for backend in BACKENDS:
        for outs, ins in shapes:
            p = backends.random_causal(backend, outs, ins, rng)
            rep = backends.is_causal(p, tol=TOL)
            assert rep, rep.detail


def test_is_causal_fails_on_unnormalized(rng):
    p = backends.random_causal(MATR, (System("B", 2),), (System("A", 2),), rng)
    bad = Process(MATR, p.out_wires, p.in_wires, 1.3 * p.data)
    rep = backends.is_causal(bad)
    assert not rep and rep.residual == pytest.approx(0.3, abs=1e-12)
    c = backends.random_causal(CPM, (System("B", 2),), (System("A", 2),), rng)
    assert not backends.is_causal(Process(CPM, c.out_wires, c.in_wires, 2.0 * c.data))
    r = Process(REL, (System("B", 2),), (System("A", 2),), np.array([[True, False], [False, False]]))
    rep = backends.is_causal(r)
    assert not rep and "1" in rep.detail  # names the input with no related output
    inf = Process(MATR, (System("B", 2),), (System("A", 2),), np.array([[np.inf, 0.5], [0.0, 0.5]]))
    rep = backends.is_causal(inf)
    assert not rep and rep.residual == np.inf
    nan = Process(MATR, (System("B", 2),), (System("A", 2),), np.array([[np.nan, 0.5], [0.0, 0.5]]))
    assert not backends.is_causal(nan)


def test_is_positive():
    good = np.array([[1.0, 0.0], [0.0, 0.5]])
    assert backends.is_positive(Process(CPM, (System("A", 2),), (), good))
    assert not backends.is_positive(Process(CPM, (System("A", 2),), (), -good))
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert not backends.is_positive(Process(CPM, (System("A", 2),), (), skew))
    assert backends.is_positive(Process(MATR, (System("A", 2),), (), np.array([0.2, 0.8])))
    assert not backends.is_positive(Process(MATR, (System("A", 2),), (), np.array([-0.1, 1.1])))
    assert not backends.is_positive(Process(MATR, (System("A", 2),), (), np.array([np.nan, 1.0])))


def test_is_positive_takes_one_choi_sized_temporary():
    qubits = tuple(System(f"A{k}", 2) for k in range(8))
    rng = np.random.default_rng(8)
    g = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    p = Process(CPM, qubits, (), (g @ g.conj().T).reshape((2,) * 16))
    tracemalloc.start()
    try:
        rep = backends.is_positive(p, tol=TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep and peak <= 1.25 * p.data.nbytes


def test_causal_basis_sizes_and_causality():
    for backend, d, want in ((MATR, 3, 3), (CPM, 2, 4), (REL, 2, 2)):
        basis = backends.causal_basis(backend, System("A", d))
        assert len(basis) == want
        for b in basis:
            assert backends.is_causal(b, tol=TOL)


def test_cpm_basis_is_tomographically_complete():
    basis = backends.causal_basis(CPM, System("A", 3))
    stacked = np.stack([b.data.reshape(-1) for b in basis])
    assert np.linalg.matrix_rank(stacked, tol=1e-10) == 9


def test_channel_family_counts_and_causality(rng):
    a, b = System("A", 2), System("B", 2)
    for backend, want in ((MATR, 4), (REL, 4), (CPM, 13)):
        fam = backends.causal_channel_family(backend, (b,), (a,))
        assert len(fam) == want == backends.channel_family_size(backend, (b,), (a,))
        for f in fam:
            assert backends.is_causal(f, tol=TOL)
            if backend == CPM:
                assert backends.is_positive(f, tol=TOL)


def test_cpm_family_spans_trace_preserving_affine_space():
    a, b = System("A", 2), System("B", 2)
    fam = backends.causal_channel_family(CPM, (b,), (a,))
    diffs = np.stack([(f.data - fam[0].data).reshape(-1) for f in fam[1:]])
    assert np.linalg.matrix_rank(diffs, tol=1e-10) == 12  # (dout^2 - 1) * din^2


def _one_way_pair(backend, rng, d=2):
    """A first->second chain through a hidden memory wire."""
    first = backends.random_causal(backend, (System("K", d), System("M", d)), (System("I", d),), rng)
    second = backends.random_causal(backend, (System("L", d),), (System("M", d), System("J", d)), rng)
    p = core.plug(first, second, [("M", "M")])
    return core.permute(p, ["K", "L"], ["I", "J"])


@pytest.mark.parametrize("backend", [MATR, REL])
def test_factorize_one_way_reconstructs(backend, rng):
    ev1 = Event("P1", ins="I", outs="K")
    ev2 = Event("P2", ins="J", outs="L")
    for _ in range(10):
        p = _one_way_pair(backend, rng)
        p1, p2 = backends.factorize_one_way(p, ev1, ev2, tol=TOL)
        mem = [w.label for w in p1.out_wires if w.label not in ("K",)]
        assert len(mem) == 1
        back = core.plug(p1, p2, [(mem[0], mem[0])])
        back = core.permute(back, ["K", "L"], ["I", "J"])
        assert backends.is_causal(p1, tol=TOL) and backends.is_causal(p2, tol=TOL)
        if backend == REL:
            assert np.array_equal(back.data, p.data)
        else:
            assert core.distance(back, p) <= RECONSTRUCT_TOL


def test_factorize_one_way_rejects_wrong_direction(rng):
    p = _one_way_pair(MATR, rng)
    with pytest.raises(NotOneWay):
        backends.factorize_one_way(p, Event("P2", ins="J", outs="L"), Event("P1", ins="I", outs="K"))


def test_factorize_one_way_cpm_unsupported(rng):
    p = _one_way_pair(CPM, rng)
    with pytest.raises(UnsupportedBackend):
        backends.factorize_one_way(p, Event("P1", ins="I", outs="K"), Event("P2", ins="J", outs="L"))


def test_check_report_is_truthy_and_printable():
    rep = backends.is_causal(backends.uniform_state(MATR, (System("A", 2),)))
    assert bool(rep) is True
    assert "pass" in str(rep)
    bad = backends.is_causal(Process(MATR, (System("A", 2),), (), np.array([0.9, 0.9])))
    assert bool(bad) is False
    assert "FAIL" in str(bad)
