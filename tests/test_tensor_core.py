"""Wire bookkeeping: composition, plugging, bending and serialization."""

from __future__ import annotations

import gc
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causkit import core
from causkit.core import BACKENDS, CPM, MATR, REL, Process, System
from causkit.errors import (
    CyclicWiring,
    DuplicateLabel,
    FormatError,
    InvalidPermutation,
    NoSuchWire,
    ShapeMismatch,
)
from conftest import rand_process

EXACT = 0.0
CLOSE = 1e-12


def test_shape_is_validated():
    with pytest.raises(ShapeMismatch):
        Process(MATR, (System("A", 2),), (System("B", 3),), np.zeros((2, 2)))
    with pytest.raises(ShapeMismatch):
        Process(CPM, (System("A", 2),), (), np.zeros((2,)))  # needs ket and bra axes
    for dim in (True, 2.0, 0):
        with pytest.raises(ShapeMismatch):
            System("A", dim)


def test_duplicate_labels_rejected():
    with pytest.raises(DuplicateLabel):
        Process(MATR, (System("A", 2),), (System("A", 2),), np.zeros((2, 2)))


def test_identity_is_composition_unit(rng):
    for backend in BACKENDS:
        p = rand_process(backend, (System("B", 3),), (System("A", 2),), rng)
        left = core.compose_seq(core.identity(backend, System("A", 2)), p)
        right = core.compose_seq(p, core.identity(backend, System("B", 3), out_label="C"))
        assert core.distance(left, p) == EXACT
        assert core.distance(core.rename(right, {"C": "B"}), p) == EXACT


def test_plug_matches_dense_einsum_oracle(rng):
    """One contracted pair must agree with an independent einsum contraction."""
    a, b, m = System("A", 2), System("B", 3), System("M", 4)
    for backend in BACKENDS:
        f = rand_process(backend, (m,), (a,), rng)
        g = rand_process(backend, (b,), (m,), rng)
        got = core.permute(core.plug(f, g, [("M", "M")]), ["B"], ["A"])
        if backend == CPM:
            want = np.einsum("maMA,bmBM->baBA", f.data, g.data)
        else:
            want = np.einsum("ma,bm->ba", f.data, g.data)
        if backend == REL:
            assert np.array_equal(got.data, want > 0)
        else:
            np.testing.assert_allclose(got.data, want, atol=CLOSE)


def test_compose_seq_with_itself_matches_einsum_oracle(rng):
    """compose_seq(p, p) is no self-loop: the output of one copy feeds the other."""
    for backend in BACKENDS:
        p = rand_process(backend, (System("B", 3),), (System("A", 3),), rng)
        got = core.compose_seq(p, p)
        assert got.out_wires == p.out_wires and got.in_wires == p.in_wires
        if backend == CPM:
            want = np.einsum("bmBM,maMA->baBA", p.data, p.data)
        else:
            want = np.einsum("bm,ma->ba", p.data, p.data)
        if backend == REL:
            np.testing.assert_array_equal(got.data, want > 0)
        else:
            np.testing.assert_allclose(got.data, want, atol=CLOSE)


def test_plug_is_associative(rng):
    a, b, c, d = (System(x, 2) for x in "ABCD")
    for backend in BACKENDS:
        f = rand_process(backend, (b,), (a,), rng)
        g = rand_process(backend, (c,), (b,), rng)
        h = rand_process(backend, (d,), (c,), rng)
        fg_h = core.plug(core.plug(f, g, [("B", "B")]), h, [("C", "C")])
        f_gh = core.plug(f, core.plug(g, h, [("C", "C")]), [("B", "B")])
        assert core.distance(fg_h, core.permute(f_gh, ["D"], ["A"])) <= CLOSE


def test_plug_both_directions_in_one_call(rng):
    """A pair may run either way; two pairs close a loop between two boxes."""
    for backend, loop in ((MATR, 2.0), (CPM, 4.0), (REL, True)):
        f = core.identity(backend, System("A", 2), out_label="B")
        g = core.identity(backend, System("B2", 2), out_label="A2")
        s = core.plug(f, g, [("B", "B2"), ("A", "A2")])
        assert s.is_scalar
        assert s.scalar_value() == loop


def test_plug_rejects_self_loop():
    f = core.identity(MATR, System("A", 2), out_label="B")
    with pytest.raises(CyclicWiring):
        core.plug(f, f, [("B", "A")])


# (wiring, error, message) for f: C[3], B[2] <- A[2] and g: D[2] <- B2[2], C2[3], A[2]
_BAD_WIRINGS = [
    ([("X", "B2")], NoSuchWire, r"no wire 'X' \(wires: \['C', 'B', 'A'\]\)"),
    ([("B", "X")], NoSuchWire, r"no wire 'X' \(wires: \['D', 'B2', 'C2', 'A'\]\)"),
    ([("B", "C2")], ShapeMismatch, r"cannot plug 'B' \(dim 2\) into 'C2' \(dim 3\)"),
    ([("B", "B2"), ("B", "A")], CyclicWiring, r"\('B', 'A'\) reuses an already plugged wire"),
    ([("B", "D")], CyclicWiring, r"'B' and 'D' are both out-wires"),
    ([("B", "B2"), ("C", "C2")], DuplicateLabel, r"remaining wires share labels \['A'\]"),
]


@pytest.mark.parametrize("wiring, error, message", _BAD_WIRINGS)
def test_plug_errors_raise_before_and_after_a_cached_plan(wiring, error, message, rng):
    """A bad wiring raises every time, also once its layouts have a cached plan."""
    f = rand_process(MATR, (System("C", 3), System("B", 2)), (System("A", 2),), rng)
    g = rand_process(MATR, (System("D", 2),), (System("B2", 2), System("C2", 3), System("A", 2)), rng)
    with pytest.raises(error, match=message):
        core.plug(f, g, wiring)
    core.plug(f, g, [("B", "B2"), ("C", "C2"), ("A", "D")])
    with pytest.raises(error, match=message):
        core.plug(f, g, wiring)


def test_cached_plan_result_matches_fresh_process(rng):
    for backend in BACKENDS:
        f = rand_process(backend, (System("C", 3), System("B", 2)), (System("A", 2),), rng)
        g = rand_process(backend, (System("D", 2),), (System("B2", 2), System("E", 3)), rng)
        first = core.plug(f, g, [("B", "B2")])
        again = core.plug(f, g, [("B", "B2")])
        fresh = Process(backend, again.out_wires, again.in_wires, again.data.copy())
        assert np.array_equal(first.data, again.data)
        assert (again.out_wires, again.in_wires) == (first.out_wires, first.in_wires)
        for w in fresh.wires:
            assert again.wire_pos(w.label) == fresh.wire_pos(w.label)
            assert again.role(w.label) == fresh.role(w.label)


def test_snake_identity(rng):
    """Bending a wire out and back is the identity on the stored data."""
    for backend in BACKENDS:
        p = rand_process(backend, (System("B", 2),), (System("A", 3),), rng)
        bent = core.bend(p, "A", "out")
        assert [w.label for w in bent.out_wires] == ["B", "A"]
        back = core.bend(bent, "A", "in")
        assert core.distance(back, p) == EXACT


def test_cup_cap_contract_to_dimension():
    for backend, want in ((MATR, 3.0), (CPM, 9.0), (REL, True)):
        cup = core.cup(backend, 3, "x", "y")
        cap = core.cap(backend, 3, "u", "v")
        s = core.plug(cup, cap, [("x", "u"), ("y", "v")])
        assert s.scalar_value() == want


def test_permute_and_rename(rng):
    p = rand_process(MATR, (System("A", 2), System("B", 3)), (System("C", 4),), rng)
    q = core.permute(p, ["B", "A"], ["C"])
    assert q.data.shape == (3, 2, 4)
    np.testing.assert_array_equal(q.data, p.data.transpose(1, 0, 2))
    r = core.rename(p, {"A": "Z"})
    assert [w.label for w in r.out_wires] == ["Z", "B"]
    np.testing.assert_array_equal(r.data, p.data)
    with pytest.raises(InvalidPermutation):
        core.permute(p, ["A"], ["C"])
    with pytest.raises(NoSuchWire):
        core.rename(p, {"missing": "Z"})


def assert_data(backend, got, want):
    if backend == REL:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, atol=CLOSE)


def test_discard_outputs_marginalizes(rng):
    """One output, then two non-adjacent ones, one of dimension 1: a sum on
    matr+, a join on rel, a partial trace on cpm."""
    outs = (System("A", 2), System("B", 1), System("C", 3), System("D", 2))
    cases = {("B",): ((1,), "abcdeAbCDE->acdeACDE"), ("D", "B"): ((1, 3), "abcdeAbCdE->aceACE")}
    for backend in BACKENDS:
        p = rand_process(backend, outs, (System("E", 2),), rng)
        for labels, (axes, trace) in cases.items():
            q = core.discard_outputs(p, labels)
            assert [w.label for w in q.out_wires] == [w.label for w in outs if w.label not in labels]
            assert q.in_wires == p.in_wires
            if backend == CPM:
                want = np.einsum(trace, p.data)
            elif backend == REL:
                want = p.data.any(axis=axes)
            else:
                want = p.data.sum(axis=axes)
            assert_data(backend, q.data, want)


def test_tensor_par_shapes_and_order(rng):
    """Outputs of both factors come before their inputs, so the wires of
    factors with both interleave; a scalar factor only scales."""
    for backend in BACKENDS:
        f = rand_process(backend, (System("A", 2),), (System("B", 3),), rng)
        g = rand_process(backend, (System("C", 4), System("D", 1)), (System("E", 2),), rng)
        t = core.tensor_par(f, g)
        assert [w.label for w in t.out_wires] == ["A", "C", "D"]
        assert [w.label for w in t.in_wires] == ["B", "E"]
        if backend == CPM:  # kets (a, c, d, b, e), then bras in the same wire order
            want = np.einsum("abAB,cdeCDE->acdbeACDBE", f.data, g.data)
        else:
            want = np.einsum("ab,cde->acdbe", f.data, g.data)
        assert_data(backend, t.data, want)
        s = rand_process(backend, (), (), rng)
        for u in (core.tensor_par(s, f), core.tensor_par(f, s)):
            assert u.out_wires == f.out_wires and u.in_wires == f.in_wires
            assert_data(backend, u.data, f.data * s.data)  # rel: and
        with pytest.raises(DuplicateLabel, match=r"remaining wires share labels \['A', 'B'\]"):
            core.tensor_par(f, f)


def test_json_roundtrip_all_backends(rng, tmp_path):
    for backend in BACKENDS:
        p = rand_process(backend, (System("A", 2), System("B", 3)), (System("C", 2),), rng)
        q = core.from_json_dict(core.to_json_dict(p))
        assert q.backend == p.backend and q.out_wires == p.out_wires and q.in_wires == p.in_wires
        np.testing.assert_array_equal(q.data, p.data)
        path = tmp_path / f"{backend.strip('+')}.json"
        core.dump_process(p, path)
        np.testing.assert_array_equal(core.load_process(path).data, p.data)


def test_load_process_restores_garbage_collection(tmp_path):
    """The loader pauses the collector while it parses, and leaves it as it found it."""
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    core.dump_process(core.scalar(MATR, 1.0), good)
    bad.write_text("{")
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            core.load_process(good)
            with pytest.raises(FormatError):
                core.load_process(bad)
            with pytest.raises(OSError):
                core.load_process(tmp_path / "missing.json")
            assert gc.isenabled() == enabled
    finally:
        gc.enable()


def test_readme_process_example_loads():
    """The process file shown in README.md is accepted by the loader."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Process files look like:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    p = core.from_json_dict(json.loads(block))
    assert p.backend == MATR
    assert [w.label for w in p.out_wires] == ["B"] and [w.label for w in p.in_wires] == ["A"]
    np.testing.assert_array_equal(core.matrix(p), [[0.5, 1.0], [0.5, 0.0]])


def test_matrix_views(rng):
    p = rand_process(MATR, (System("B", 3),), (System("A", 2),), rng)
    assert core.matrix(p).shape == (3, 2)
    c = rand_process(CPM, (System("B", 3),), (System("A", 2),), rng)
    cm = core.choi_matrix(c)
    assert cm.shape == (6, 6)
    np.testing.assert_allclose(cm, cm.conj().T, atol=CLOSE)  # built Hermitian


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    n_out=st.integers(0, 4),
    seed=st.integers(0, 2**31),
    backend=st.sampled_from(BACKENDS),
)
def test_permute_reverse_roundtrip(dims, n_out, seed, backend):
    n_out = min(n_out, len(dims))
    systems = tuple(System(f"W{k}", d) for k, d in enumerate(dims))
    p = rand_process(backend, systems[:n_out], systems[n_out:], np.random.default_rng(seed))
    outs = [w.label for w in p.out_wires][::-1]
    ins = [w.label for w in p.in_wires][::-1]
    q = core.permute(core.permute(p, outs, ins), outs[::-1], ins[::-1])
    np.testing.assert_array_equal(q.data, p.data)


@settings(max_examples=60, deadline=None)
@given(
    d1=st.integers(1, 3),
    d2=st.integers(1, 3),
    seed=st.integers(0, 2**31),
    backend=st.sampled_from(BACKENDS),
)
def test_bend_preserves_contraction(d1, d2, seed, backend):
    """Plugging a bent wire with a cup equals the original wiring."""
    gen = np.random.default_rng(seed)
    f = rand_process(backend, (System("B", d2),), (System("A", d1),), gen)
    g = rand_process(backend, (System("C", d2),), (System("B2", d2),), gen)
    direct = core.plug(f, g, [("B", "B2")])
    bent = core.bend(f, "B", "in")  # B becomes an input; reconnect via a cup
    cup = core.cup(backend, d2, "u", "v")
    via_cup = core.plug(core.plug(bent, cup, [("B", "u")]), g, [("v", "B2")])
    assert core.distance(core.permute(via_cup, ["C"], ["A"]), core.permute(direct, ["C"], ["A"])) <= CLOSE
