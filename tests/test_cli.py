"""The command line: JSON on stdout, prose on stderr, exit codes 0/1/2."""

from __future__ import annotations

import json

import pytest

from causkit import core, gallery
from causkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def test_check_causal_default(capsys, tmp_path):
    path = tmp_path / "comb.json"
    core.dump_process(gallery.memory_comb(seed=2).process, path)
    code, doc, err = run(capsys, "check", str(path))
    assert code == 0
    assert doc["mode"] == "causal" and doc["passed"] is True
    assert "pass" in err


def test_check_membership_and_expect_fail(capsys):
    code, doc, _ = run(
        capsys, "check", "example:swap_process",
        "--type", "(A[2] -o A'[2]) (x) (B[2] -o B'[2])", "--expect", "fail",
    )
    assert code == 0 and doc["passed"] is False
    code, doc, _ = run(
        capsys, "check", "example:swap_process",
        "--type", "(A[2] -o A'[2]) (+) (B[2] -o B'[2])",
    )
    assert code == 0 and doc["passed"] is True


def test_check_poset(capsys, tmp_path):
    proc = tmp_path / "p.json"
    core.dump_process(gallery.memory_comb(events=2, seed=6).process, proc)
    poset = tmp_path / "o.json"
    poset.write_text(json.dumps({
        "events": [
            {"name": "E1", "in": ["A1"], "out": ["A1'"]},
            {"name": "E2", "in": ["A2"], "out": ["A2'"]},
        ],
        "order": [["E1", "E2"]],
    }))
    code, doc, _ = run(capsys, "check", str(proc), "--poset", str(poset))
    assert code == 0 and doc["mode"] == "order-consistency" and doc["passed"]
    code, doc, _ = run(capsys, "check", str(proc), "--poset", str(poset), "--totalise")
    assert code == 0 and doc["mode"] == "totalisations" and doc["passed"]


def test_prove_and_unprovable(capsys):
    code, doc, err = run(capsys, "prove", "A (x) B |- A (+) B")
    assert code == 0 and doc["provable"] is True and "ax" in doc["proof"]
    code, doc, err = run(capsys, "prove", "A (+) B |- A (x) B")
    assert code == 1 and doc["provable"] is False and doc["proof"] is None
    assert "not provable" in err
    code, doc, _ = run(capsys, "prove", "A (+) B |- A (x) B", "--expect", "fail")
    assert code == 0


def test_axioms_subcommand(capsys):
    code, doc, err = run(capsys, "axioms", "--backend", "rel")
    assert code == 0
    assert {r["axiom"] for r in doc["results"]} == {"C1", "C2", "C3", "C4", "C5"}
    assert all(r["backend"] == "rel" for r in doc["results"])
    assert "C5" in err


def test_examples_listing_and_verification(capsys):
    code, doc, _ = run(capsys, "examples")
    assert code == 0
    assert {e["name"] for e in doc["examples"]} == set(gallery.REGISTRY)
    code, doc, _ = run(capsys, "examples", "bw_process")
    assert code == 0
    assert all(row["expected"] == row["passed"] for row in doc["checks"])


def test_examples_with_params(capsys):
    code, doc, _ = run(
        capsys, "examples", "memory_comb", "--param", "events=2", "--seed", "9"
    )
    assert code == 0 and len(doc["checks"]) == 1


def test_examples_param_not_an_integer(capsys):
    code, out, err = run(capsys, "examples", "memory_comb", "--param", "events=--3")
    assert code == 2 and out is None
    assert err.startswith("error:") and "'--3'" in err


def test_check_totalise_names_failing_extension(capsys, tmp_path):
    """The swap process leaks from E2 back to E1, so E1 < E2 fails."""
    poset = tmp_path / "o.json"
    poset.write_text(json.dumps({
        "events": [
            {"name": "E1", "in": ["A"], "out": ["A'"]},
            {"name": "E2", "in": ["B"], "out": ["B'"]},
        ],
        "order": [["E1", "E2"]],
    }))
    argv = ("check", "example:swap_process", "--poset", str(poset), "--totalise")
    code, doc, _ = run(capsys, *argv)
    assert code == 1 and doc["mode"] == "totalisations" and doc["passed"] is False
    assert doc["detail"] == "not a comb for the extension ('E1', 'E2'): event 'E2' signals backwards to ['E1']"
    code, doc, _ = run(capsys, *argv, "--expect", "fail")
    assert code == 0 and doc["passed"] is False


def test_convert_permutes_and_writes(capsys, tmp_path):
    out = tmp_path / "sw.json"
    code, _, err = run(
        capsys, "convert", "example:classical_switch",
        "--out-order", "C',B,A", "--out", str(out),
    )
    assert code == 0 and "wrote" in err
    p = core.load_process(out)
    assert [w.label for w in p.out_wires] == ["C'", "B", "A"]


def test_error_paths_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 2 and "error" in err
    code, out, err = run(capsys, "check", str(tmp_path))
    assert code == 2 and out is None and err.startswith("error:") and "Is a directory" in err
    code, _, err = run(capsys, "check", "example:bw_process", "--type", "A[2] -o")
    assert code == 2
    code, _, err = run(capsys, "examples", "no_such_example")
    assert code == 2 and "unknown example" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{\"backend\": \"matr+\"}")
    code, _, _ = run(capsys, "check", str(bad))
    assert code == 2
    for argv in (("check", "example:swap_process"), ("examples", "bw_process")):
        for tol in ("nan", "inf", "-0.5", "tiny"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--tol", tol])
            out, err = capsys.readouterr()
            assert exc.value.code == 2 and out == ""
            assert f"argument --tol: expected a finite number >= 0, got '{tol}'" in err
    for argv in (("check", "example:swap_process"), ("examples", "bw_process"), ("prove", "A |- A")):
        for budget in ("-3", "0", "1.5", "many"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--budget", budget])
            out, err = capsys.readouterr()
            assert exc.value.code == 2 and out == ""
            assert f"argument --budget: expected an integer >= 1, got '{budget}'" in err
    code, out, err = run(capsys, "examples", "memory_comb", "--param", "d=2", "--param", "events=abc")
    assert code == 2 and out is None and "error: --param events expects an int, got 'abc'" in err
    code, out, err = run(capsys, "examples", "memory_comb", "--param", "nodes=3")
    assert code == 2 and out is None and "unknown --param 'nodes'; memory_comb takes backend, events, d, seed" in err


def test_non_finite_data_exits_2(capsys, tmp_path):
    """json reads NaN and Infinity; the loader must reject them."""
    doc = core.to_json_dict(gallery.swap_process().process)
    for bad in (float("nan"), float("inf"), float("-inf")):
        doc["data"][0] = bad
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(path))
        assert code == 2 and out is None and "finite" in err


def test_non_integer_dim_exits_2(capsys, tmp_path):
    """A wire dim must be a JSON integer: no truncated float, no bool."""
    doc = core.to_json_dict(gallery.swap_process().process)
    for bad in (2.9, 2.0, True, "2"):
        doc["wires"][0]["dim"] = bad
        path = tmp_path / "dim.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(path))
        assert code == 2 and out is None and "integer dimension" in err
