"""Per-backend primitives: discarding, causality, spanning families, factorization."""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import causkit
from causkit import backends, checks, core, gallery
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
    empty = Process(REL, (System("B", 2),), (), np.zeros(2, dtype=bool))
    rep = backends.is_causal(empty)
    assert not rep and rep.detail == "the relation is empty"  # no input index to name
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
    random_psd = Process(CPM, qubits, (), (g @ g.conj().T).reshape((2,) * 16))
    for p in (random_psd, gallery.quantum_z_switch().process):
        tracemalloc.start()
        try:
            rep = backends.is_positive(p, tol=TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep and peak <= 1.25 * p.data.nbytes


def test_positivity_certificate_agrees_with_eigvalsh():
    """The Cholesky certificate against eigvalsh, the independent oracle, on
    Hermitian matrices of every rank shifted across the boundary and skewed
    across the certificate's and the verdict's skew limits."""
    rng = np.random.default_rng(1701)
    certified = total = 0
    for n in (1, 2, 3, 5, 8, 16, 17, 31, 32, 33, 64, 65, 127, 128):
        for _ in range(14):
            rank = int(rng.integers(1, n + 1))
            g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
            h = g @ g.conj().T
            h /= np.abs(h).max()
            x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            anti = x - x.conj().T  # J - J^H = 2 * anti-Hermitian part
            skew = TOL * rng.uniform(0.0, 2.0) if rng.random() < 0.5 else 0.0
            j = h + rng.uniform(-3.0, 3.0) * TOL * np.eye(n) + anti * (skew / 2 / np.abs(anti).max())
            p = Process(CPM, (System("A", n),), (), j)
            scale = backends._scale(p)
            want_skew = np.abs(j - j.conj().T).max()
            neg = -np.linalg.eigvalsh((j + j.conj().T) / 2).min()
            want = want_skew <= TOL * scale and neg <= TOL * scale
            assert backends.is_positive(p, tol=TOL).passed == want
            got = backends._certified_skew(j, TOL, scale)
            if got is not None:
                assert want and got == want_skew
                certified += 1
            total += 1
    assert certified >= total // 4


def test_positivity_certificate_agrees_with_eigvalsh_on_qubit_choi_matrices():
    """On Choi matrices of 1-8 qubits, positive semidefinite, near-singular
    across the boundary and indefinite, a certified verdict is the verdict
    that eigvalsh gives."""
    rng = np.random.default_rng(1515)
    certified = 0
    for k in range(1, 9):
        n = 2**k
        qubits = tuple(System(f"A{i}", 2) for i in range(k))
        for kind in ("psd", "near_singular", "indefinite"):
            for _ in range(3):
                rank = n if kind == "psd" else int(rng.integers(1, n + 1))
                g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
                h = g @ g.conj().T
                h /= np.abs(h).max()
                if kind == "near_singular":
                    h += rng.uniform(-3.0, 3.0) * TOL * np.eye(n)
                elif kind == "indefinite":  # the least eigenvalue becomes -1.5 tol to -100 tol
                    h -= (np.linalg.eigvalsh(h).min() + rng.uniform(1.5, 100.0) * TOL) * np.eye(n)
                p = Process(CPM, qubits, (), h.reshape((2,) * 2 * k))
                scale = backends._scale(p)
                want = -np.linalg.eigvalsh(h).min() <= TOL * scale
                assert want or kind != "psd"
                assert backends.is_positive(p, tol=TOL).passed == want
                if backends._certified_skew(h, TOL, scale) is not None:
                    assert want
                    certified += 1
    assert certified >= 24


def test_forward_solve_inverts_lower_triangular_factors():
    """Block forward substitution solves ``L X = B`` on both sides of every
    block split."""
    rng = np.random.default_rng(16)
    for n in (1, 2, 15, 16, 17, 33, 64, 100, 128):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        low = np.linalg.cholesky(g @ g.conj().T + n * np.eye(n))
        b = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        x = backends._forward_solve(low, b)
        assert x.shape == b.shape
        assert np.abs(low @ x - b).max() <= 1e-12 * np.abs(b).max()


def test_positivity_certificate_declines_when_rounding_could_matter():
    """The identity factors at any shift, but at a tolerance just above the
    skip limit the certificate's rounding bound exceeds its margin."""
    n = 64
    tol = 4 * n * (n + 1) * (np.finfo(float).eps / 2)
    assert backends._certified_skew(np.eye(n, dtype=complex), tol, 1.0) is None
    assert backends._certified_skew(np.eye(n, dtype=complex), 100 * tol, 1.0) == 0.0


@pytest.mark.parametrize("backend", [CPM, MATR])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_data_fails_without_error_or_warning(backend, bad):
    a, b = System("A", 2), System("B", 2)
    data = backends.random_causal(backend, (b,), (a,), np.random.default_rng(3)).data.copy()
    data.flat[1] = bad
    p = Process(backend, (b,), (a,), data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rep in (backends.is_positive(p, tol=TOL), checks.check_projector(p, "A[2] -o B[2]", tol=TOL)):
            assert not rep and not np.isfinite(rep.residual)
            assert rep.detail == "an entry is not finite"


def test_cpm_checks_import_numpy_only():
    """causkit declares numpy as its one dependency: a cpm verdict through the
    certificate must not import scipy, even where scipy is installed."""
    code = (
        "import sys, numpy as np\n"
        "from causkit import checks\n"
        "from causkit.core import CPM, Process, System\n"
        "p = Process(CPM, (System('A', 2), System('B', 2)), (), (np.eye(4) / 4).reshape((2,) * 4))\n"
        "assert checks.check_projector(p, 'A[2] (x) B[2]')\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    src = os.path.dirname(os.path.dirname(causkit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


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


def test_channel_family_is_built_once_and_handed_out_fresh():
    """``check_soc`` reads one shared, read-only family per shape; the public
    function returns new processes that callers may change."""
    a, b = System("A", 2), System("B", 2)
    for backend in BACKENDS:
        shared = backends._channel_family(backend, (b,), (a,))
        assert shared is backends._channel_family(backend, (b,), (a,))
        for m in shared:
            with pytest.raises(ValueError):
                m.data[(0,) * m.data.ndim] = 0
        fresh = backends.causal_channel_family(backend, [b], [a])
        for f, m in zip(fresh, shared, strict=True):
            assert f.data.flags.writeable and not np.shares_memory(f.data, m.data)
            assert (f.out_wires, f.in_wires) == (m.out_wires, m.in_wires) and core.distance(f, m) == 0.0
            f.data[(0,) * f.data.ndim] = 0


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


def test_factorize_one_way_memory_wire_is_m_or_first_free_mn(rng):
    p = _one_way_pair(MATR, rng)
    p1, p2 = backends.factorize_one_way(p, Event("P1", ins="I", outs="K"), Event("P2", ins="J", outs="L"))
    assert [w.label for w in p1.out_wires] == ["K", "M"] and p2.in_wires[0].label == "M"
    q = core.rename(p, {"K": "M", "L": "M0"})
    q1, q2 = backends.factorize_one_way(q, Event("P1", ins="I", outs="M"), Event("P2", ins="J", outs="M0"))
    assert [w.label for w in q1.out_wires] == ["M", "M1"] and q2.in_wires[0].label == "M1"


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
