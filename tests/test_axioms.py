"""The structural-assumption harness: every backend reports what it should."""

from __future__ import annotations

import pytest

from causkit import axioms
from causkit.axioms import AXIOMS, HarnessConfig, run_all, run_axiom
from causkit.core import BACKENDS, MATR, REL
from causkit.errors import FormatError, UnsupportedBackend

FAST = HarnessConfig(seed=7, instances=8, max_dim=3, tol=1e-9)


def test_unknown_axiom_and_backend():
    with pytest.raises(FormatError):
        run_axiom("C9", MATR)
    with pytest.raises(UnsupportedBackend):
        run_axiom("C1", "vect")


@pytest.mark.parametrize("backend", BACKENDS)
def test_all_axioms_report_as_expected(backend):
    for axiom in AXIOMS:
        r = run_axiom(axiom, backend, FAST)
        assert r.as_expected, f"{axiom}/{backend}: {r.detail} (residual {r.residual})"


def test_rel_refutes_uniform_preservation_with_witness():
    r = run_axiom("C5", REL, FAST)
    assert not r.holds
    assert r.witness == "[[1, 1], [1, 0]]"
    assert "depends" in r.detail


def test_runs_are_deterministic():
    a = run_all(config=FAST)
    b = run_all(config=FAST)
    assert [(x.axiom, x.backend, x.holds, x.residual) for x in a] == [
        (x.axiom, x.backend, x.holds, x.residual) for x in b
    ]
    assert len(a) == len(AXIOMS) * len(BACKENDS)


def test_result_serializes():
    r = run_axiom("C1", MATR, FAST)
    doc = r.to_dict()
    assert doc["axiom"] == "C1" and doc["backend"] == MATR
    assert isinstance(doc["holds"], bool) and isinstance(doc["residual"], float)
