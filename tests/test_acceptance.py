"""Acceptance suite: the eleven headline properties, one test (and line) each.

Every test is deterministic (fixed seeds), states its tolerance up front, and
asserts its own runtime bound where one is part of the contract.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from causkit import axioms, backends, checks, core, gallery, mll
from causkit.core import BACKENDS, CPM, MATR, REL, Process, System
from causkit.events import Event, EventPoset
from conftest import _unshared_comb, fuzz_proof

TOL = 1e-9
FACTOR_TOL = 1e-12
EFFECT_TOL = 1e-9


def _announce(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_tensor_type_is_nonsignalling():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    for k in range(200):
        backend = MATR if k % 2 == 0 else CPM
        da, db = (int(x) for x in rng.integers(1, 4, size=2))
        da_, db_ = (int(x) for x in rng.integers(1, 4, size=2))
        f = backends.random_causal(backend, (System("A'", da_),), (System("A", da),), rng)
        g = backends.random_causal(backend, (System("B'", db_),), (System("B", db),), rng)
        prod = core.tensor_par(f, g)
        ty = f"(A[{da}] -o A'[{da_}]) (x) (B[{db}] -o B'[{db_}])"
        rep = checks.check_membership(prod, ty, tol=TOL)
        assert rep, f"product channel {k} ({backend}): {rep}"
    for backend in (MATR, CPM):
        inst = gallery.swap_process(backend=backend, d=2)
        tensor_ty, par_ty = inst.expectations[0][0], inst.expectations[1][0]
        assert not checks.check_membership(inst.process, tensor_ty, tol=TOL)
        assert checks.check_membership(inst.process, par_ty, tol=TOL)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _announce(1, "200 product channels inhabit the tensor of arrows; swap only the par")


def _comb_events(n: int) -> list[Event]:
    return [Event(f"E{k}", ins=f"A{k}", outs=f"A{k}'") for k in range(1, n + 1)]


def _comb_instance(backend: str, n: int, seed: int):
    inst = gallery.memory_comb(backend=backend, events=n, d=2, seed=seed)
    ty = inst.expectations[0][0]
    return inst.process, ty


def test_criterion_02_comb_checks_agree_with_comb_types():
    t0 = time.monotonic()
    backends_cycle = (MATR, CPM, REL)
    agree = 0
    for k in range(200):
        backend = backends_cycle[k % 3]
        n = 2 + k % 2
        p, ty = _comb_instance(backend, n, seed=k)
        direct = _unshared_comb(p, _comb_events(n), TOL)
        typed = checks.check_membership(p, ty, tol=TOL)
        assert direct.passed and typed.passed, f"honest comb {k} ({backend}, {n} events)"
        agree += 1
    for k in range(200):
        backend = backends_cycle[k % 3]
        n = 2 + k % 2
        p, ty = _comb_instance(backend, n, seed=1000 + k)
        if backend == REL:
            data = p.data.copy()  # break totality on the all-zero joint input
            data[(slice(None),) * len(p.out_wires) + (0,) * len(p.in_wires)] = False
            p = Process(REL, p.out_wires, p.in_wires, data)
            events = _comb_events(n)
        elif k % 2 == 0:
            events = list(reversed(_comb_events(n)))  # honest comb, wrong order
            pairs = [(f"A{j}[2]", f"A{j}'[2]") for j in range(n, 0, -1)]
            ty = gallery.comb_type(pairs)
        else:
            p = Process(p.backend, p.out_wires, p.in_wires, 1.3 * p.data)
            events = _comb_events(n)
        direct = _unshared_comb(p, events, TOL)
        typed = checks.check_membership(p, ty, tol=TOL)
        assert not direct.passed and not typed.passed, f"perturbed comb {k} ({backend})"
    elapsed = time.monotonic() - t0
    assert elapsed < 20.0, f"took {elapsed:.1f}s"
    _announce(2, f"comb check and comb type agree on {agree + 200} composites")


def test_criterion_03_order_consistency_equals_totalisations():
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    checked = 0
    for k in range(100):
        n = int(rng.integers(2, 5))
        evs = _comb_events(n)
        outs = tuple(System(f"A{j}'", 2) for j in range(1, n + 1))
        ins = tuple(System(f"A{j}", 2) for j in range(1, n + 1))
        kind = k % 3
        if kind == 0:
            p = gallery.memory_comb(backend=MATR, events=n, d=2, seed=k).process
        elif kind == 1:
            p = backends.random_causal(MATR, outs, ins, rng)
        else:
            p = Process(MATR, outs, ins, rng.random((2,) * (2 * n)))
        # random order over a random shuffle keeps the generator acyclic
        perm = list(rng.permutation(n))
        rels = [
            (evs[perm[i]].name, evs[perm[j]].name)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        poset = EventPoset(evs, rels)
        a = checks.check_order_consistency(p, poset, tol=TOL)
        b = checks.check_via_totalisations(p, poset, tol=TOL)
        assert a.passed == b.passed, f"pair {k}: subsets {a} vs totalisations {b}"
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _announce(3, f"{checked} process/poset pairs: up-set check == all totalisations")


def test_criterion_04_one_way_factorization_reconstructs():
    rng = np.random.default_rng(404)
    ev1 = Event("P1", ins="I", outs="K")
    ev2 = Event("P2", ins="J", outs="L")
    for backend, bound in ((MATR, FACTOR_TOL), (REL, 0.0)):
        for k in range(50):
            dims = [int(x) for x in rng.integers(1, 4, size=5)]
            di, dk, dm, dj, dl = dims
            first = backends.random_causal(
                backend, (System("K", dk), System("M", dm)), (System("I", di),), rng
            )
            second = backends.random_causal(
                backend, (System("L", dl),), (System("M", dm), System("J", dj)), rng
            )
            p = core.permute(core.plug(first, second, [("M", "M")]), ["K", "L"], ["I", "J"])
            p1, p2 = backends.factorize_one_way(p, ev1, ev2, tol=TOL)
            mem = [w.label for w in p1.out_wires if w.label != "K"]
            back = core.permute(
                core.plug(p1, p2, [(mem[0], mem[0])]), ["K", "L"], ["I", "J"]
            )
            assert backends.is_causal(p1, tol=TOL) and backends.is_causal(p2, tol=TOL)
            if backend == REL:
                assert np.array_equal(back.data, p.data), f"rel instance {k}"
            else:
                res = core.distance(back, p)
                assert res <= bound, f"matr+ instance {k}: residual {res}"
    _announce(4, "factorization reconstructs 50 stochastic (<1e-12) and 50 relational (exact)")


def _switch_equations(inst, backend):
    """Residuals of the two defining equations, for three random channel pairs."""
    rng = np.random.default_rng(505)
    out = []
    for _ in range(3):
        f = backends.random_causal(backend, (System("A'", 2),), (System("A", 2),), rng)
        g = backends.random_causal(backend, (System("B'", 2),), (System("B", 2),), rng)
        for bit in (0, 1):
            if backend == MATR:
                rho = Process(MATR, (System("X", 2),), (), np.array([1.0 - bit, float(bit)]))
            else:
                m = np.zeros((2, 2), dtype=complex)
                m[bit, bit] = 1.0
                rho = Process(CPM, (System("X", 2),), (), m)
            s = core.plug(inst.process, rho, [("X", "X")])
            s = core.plug(s, f, [("A", "A"), ("A'", "A'")])
            s = core.plug(s, g, [("B", "B"), ("B'", "B'")])
            s = core.permute(s, ["C'"], ["C"])
            first, fl = (f, "A") if bit == 0 else (g, "B")
            second, sl = (g, "B") if bit == 0 else (f, "A")
            h1 = core.rename(first, {fl: "C", f"{fl}'": "M"})
            h2 = core.rename(second, {sl: "M", f"{sl}'": "C'"})
            seq = core.permute(core.plug(h1, h2, [("M", "M")]), ["C'"], ["C"])
            out.append(core.distance(s, seq))
    return out


def test_criterion_05_switches_obey_their_equations_and_types():
    classical = gallery.build("classical_switch")
    for res in _switch_equations(classical, MATR):
        assert res == 0.0, f"classical switch equation residual {res}"
    quantum = gallery.build("quantum_z_switch")
    for res in _switch_equations(quantum, CPM):
        assert res < TOL, f"quantum switch equation residual {res}"
    for inst in (classical, quantum):
        (soc, want_soc), (ca, want_a), (cb, want_b) = inst.expectations
        assert checks.check_membership(inst.process, soc, tol=TOL).passed is want_soc is True
        assert checks.check_membership(inst.process, ca, tol=TOL).passed is want_a is False
        assert checks.check_membership(inst.process, cb, tol=TOL).passed is want_b is False
    _announce(5, "both switches satisfy the control equations, pass SOC2, fail both combs")


def test_criterion_06_indefinite_order_gallery():
    ocb = gallery.build("ocb_process")
    assert backends.is_positive(ocb.process, tol=TOL)
    for ty, want in ocb.expectations:
        assert checks.check_membership(ocb.process, ty, tol=TOL).passed == want, ty
    bw = gallery.build("bw_process")
    assert len(bw.expectations) == 7  # SOC3 plus six total orders
    for ty, want in bw.expectations:
        assert checks.check_membership(bw.process, ty, tol=TOL).passed == want, ty
    _announce(6, "OCB: positive, SOC2, no causal order; BW: SOC3, fails all six orders")


def test_criterion_07_backend_axioms():
    t0 = time.monotonic()
    results = axioms.run_all()
    for r in results:
        assert r.as_expected, f"{r.axiom}/{r.backend}: {r.detail}"
        if r.backend in (MATR, CPM):
            assert r.holds, f"{r.axiom}/{r.backend} should hold"
    rel_c5 = next(r for r in results if r.backend == REL and r.axiom == "C5")
    assert not rel_c5.holds and rel_c5.witness == "[[1, 1], [1, 0]]"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _announce(7, "stochastic and quantum backends satisfy C1-C5; rel refutes C5 via NAND")


def test_criterion_08_no_time_travel():
    for backend, square in ((MATR, 1), (CPM, 2)):
        for d in (2, 3):
            inst = gallery.time_travel(backend=backend, d=d)
            loop = inst.process.scalar_value()
            assert loop == pytest.approx(float(d) ** square if square == 2 else float(d))
            assert not backends.is_causal(inst.process, tol=TOL)
            assert not checks.check_membership(inst.process, "I", tol=TOL)
        trivial = gallery.time_travel(backend=backend, d=1)
        assert backends.is_causal(trivial.process, tol=TOL)
        assert checks.check_membership(trivial.process, "I", tol=TOL)
    _announce(8, "identity loops leave scalar d (d^2 quantum): non-causal unless d=1")


def test_criterion_09_first_order_tensor_equals_par():
    rng = np.random.default_rng(909)
    passed = failed = 0
    for k in range(100):
        backend = BACKENDS[k % 3]
        da, db = (int(x) for x in rng.integers(1, 4, size=2))
        a, b = System("A", da), System("B", db)
        state = backends.random_state(backend, (a, b), rng)
        if k % 2 == 1 and backend != REL:
            state = Process(backend, state.out_wires, (), state.data * (0.8 + 0.4 * rng.random()))
        elif k % 2 == 1:
            data = state.data.copy().reshape(-1)
            data[rng.integers(data.size)] = False
            state = Process(REL, state.out_wires, (), data.reshape(state.data.shape))
        tensor = checks.check_membership(state, f"A[{da}] (x) B[{db}]", tol=TOL)
        par = checks.check_membership(state, f"A[{da}] (+) B[{db}]", tol=TOL)
        assert tensor.passed == par.passed, f"state {k} ({backend})"
        passed += tensor.passed
        failed += not tensor.passed
    assert passed and failed  # the sample must exercise both verdicts
    _announce(9, f"tensor and par agree on all 100 first-order states ({passed} causal)")


def test_criterion_10_prover_on_reference_sequents():
    embed = "(A -o A') (x) (B -o B') |- A -o ((A' -o B) -o B')"
    comb_in_soc = "I -o ((A -o ((A' -o B) -o B')) -o I) |- ((A -o A') (x) (B -o B')) -o I"
    for text in (embed, comb_in_soc):
        t0 = time.monotonic()
        proof = mll.prove(text)
        elapsed = time.monotonic() - t0
        assert proof is not None and mll.verify_proof(proof)
        assert elapsed < 5.0, f"{text}: took {elapsed:.1f}s"
    reversed_soc = "((A -o A') (x) (B -o B')) -o I |- I -o ((A -o ((A' -o B) -o B')) -o I)"
    assert mll.prove(reversed_soc) is None
    rng = np.random.default_rng(1010)
    for _ in range(1000):
        assert mll.verify_proof(fuzz_proof(rng))
    _announce(10, "reference sequents proved <5s, reverse refuted, 1000 fuzzed proofs verify")


def test_criterion_11_discard_is_the_unique_causal_effect():
    for d in (2, 3, 4):
        # stochastic: effects are rows; <e, basis_i> = 1 forces every entry to 1
        rows = np.stack([b.data for b in backends.causal_basis(MATR, System("A", d))])
        sol, residual, rank, _ = np.linalg.lstsq(rows, np.ones(len(rows)), rcond=None)
        assert rank == d
        assert np.max(np.abs(sol - 1.0)) < EFFECT_TOL

        # quantum: tr(E rho_k) = 1 over a tomographically complete causal set
        basis = backends.causal_basis(CPM, System("A", d))
        rows = np.stack([b.data.T.reshape(-1) for b in basis])
        sol, _, rank, _ = np.linalg.lstsq(rows, np.ones(len(basis)), rcond=None)
        assert rank == d * d
        E = sol.reshape(d, d)
        assert np.max(np.abs(E - np.eye(d))) < EFFECT_TOL

        # relational: enumerate every effect; only all-ones accepts each singleton
        normalizers = [
            bits
            for bits in itertools.product([False, True], repeat=d)
            if all(any(b and s.data[i] for i, b in enumerate(bits))
                   for s in backends.causal_basis(REL, System("A", d)))
        ]
        assert normalizers == [tuple([True] * d)]
    _announce(11, "discard is the only effect normalizing the causal states (dims 2-4)")
