"""The command line: JSON on stdout, prose on stderr, exit codes 0/1/2."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import causkit
from causkit import core, events, gallery
from causkit.cli import main
from causkit.core import CPM, MATR, REL, Process, System
from causkit.errors import FormatError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def test_check_of_a_json_file_imports_no_gallery():
    """``check`` of a JSON file loads the process without ``causkit.gallery``,
    which only ``example:NAME`` needs; each subcommand imports what it uses."""
    data = Path(__file__).parent / "data" / "qubit_transpose.json"
    code = (
        "import sys\n"
        "from causkit.cli import main\n"
        f"assert main(['check', {str(data)!r}, '--type', 'A[2] -o B[2]', '--expect', 'fail']) == 0\n"
        "assert 'causkit.gallery' not in sys.modules, 'gallery was imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(causkit.__file__))}
    ran = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert ran.returncode == 0, ran.stderr


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
    with pytest.raises(SystemExit) as exc:
        main(["check", str(proc), "--poset", str(poset), "--totalise"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and "unrecognized arguments: --totalise" in err


def test_quasi_stochastic_fails_every_check_mode(capsys, tmp_path):
    """Columns that sum to 1 around a negative entry: not a matr+ process."""
    quasi = Process(MATR, (System("A'", 2),), (System("A", 2),), np.array([[1.5, 0.5], [-0.5, 0.5]]))
    proc = tmp_path / "quasi.json"
    core.dump_process(quasi, proc)
    poset = tmp_path / "o.json"
    poset.write_text(json.dumps({"events": [{"name": "E", "in": ["A"], "out": ["A'"]}]}))
    for mode in ((), ("--poset", str(poset)), ("--type", "A[2] -o A'[2]")):
        code, doc, _ = run(capsys, "check", str(proc), *mode)
        assert code == 1 and doc["passed"] is False
        assert doc["detail"] == "negative entry -0.5 at index (1, 0)"


DATA = Path(__file__).parent / "data"


def test_qubit_transpose_fails_every_check_mode(capsys):
    """The shipped qubit transpose is trace-preserving but not CP: plain
    causality, a channel type and a one-event poset all refuse it."""
    proc = str(DATA / "qubit_transpose.json")
    for mode in ((), ("--poset", str(DATA / "qubit_transpose_poset.json")), ("--type", "A[2] -o B[2]")):
        code, doc, _ = run(capsys, "check", proc, *mode)
        assert code == 1 and doc["passed"] is False and doc["detail"] == "negative eigenvalue -1"
        assert run(capsys, "check", proc, *mode, "--expect", "fail")[0] == 0


def test_prove_and_unprovable(capsys):
    code, doc, err = run(capsys, "prove", "A (x) B |- A (+) B")
    assert code == 0 and doc["provable"] is True and "ax" in doc["proof"]
    code, doc, err = run(capsys, "prove", "A (+) B |- A (x) B")
    assert code == 1 and doc["provable"] is False and doc["proof"] is None
    assert "not provable" in err
    code, doc, _ = run(capsys, "prove", "A (+) B |- A (x) B", "--expect", "fail")
    assert code == 0


def test_prove_splits_sequents_on_top_level_commas(capsys):
    """The comma inside ``cap(..)`` does not end a formula, so the intersection
    is refused by name; an empty formula stays a syntax error."""
    code, out, err = run(capsys, "prove", "cap(A -o B, A -o B) |- A -o B")
    assert code == 2 and out is None and err.strip() == "error: Cap has no sequent counterpart"
    code, out, err = run(capsys, "prove", "A, |- A")
    assert code == 2 and out is None and err.strip() == "error: unexpected end of input in ''"


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


def test_convert_permutes_and_writes(capsys, tmp_path):
    out = tmp_path / "sw.json"
    code, _, err = run(
        capsys, "convert", "example:classical_switch",
        "--out-order", "C',B,A", "--out", str(out),
    )
    assert code == 0 and "wrote" in err
    p = core.load_process(out)
    assert [w.label for w in p.out_wires] == ["C'", "B", "A"]
    want = tmp_path / "want.json"
    sw = gallery.classical_switch().process
    core.dump_process(core.permute(sw, ["C'", "B", "A"], [w.label for w in sw.in_wires]), want)
    assert out.read_bytes() == want.read_bytes()


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
    # the entry count is an exact integer: no int64 wrap-around on large dims
    bad.write_text(json.dumps({
        "backend": "matr+",
        "wires": [{"name": "A", "dim": 2**62 + 1, "role": "out"}, {"name": "B", "dim": 4, "role": "in"}],
        "data": [0.25] * 4,
    }))
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2 and out is None and "must have 18446744073709551620 entries, got 4" in err
    bad.write_text(json.dumps({"backend": "matr+", "wires": 5, "data": [1.0]}))
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2 and out is None and "error: wires must be an array, not int" in err
    # wire names, event names, event in/out entries and order pairs are JSON strings
    bad.write_text(json.dumps({"backend": "matr+", "wires": [{"name": ["x"], "dim": 1, "role": "out"}], "data": [1.0]}))
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2 and out is None and "system label must be a non-empty string, got ['x']" in err
    with pytest.raises(FormatError):
        core.load_process(bad)
    second = {"name": "E2", "in": "B", "out": "B'"}
    for doc, message in (
        ({"events": [{"name": 7, "in": "A", "out": "A'"}, second]}, "event names must be strings, not 7"),
        ({"events": [{"name": "E1", "in": [7], "out": "A'"}, second]}, "wire labels must be strings, not 7"),
        ({"events": [{"name": "E1", "in": "A", "out": [["A'"]]}, second]}, "wire labels must be strings, not [\"A'\"]"),
        ({"events": [{"name": "E1", "in": "A", "out": "A'"}, second], "order": [["E1", 2]]},
         "order pair entries must be strings, not 2"),
    ):
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", "example:swap_process", "--poset", str(bad))
        assert code == 2 and out is None and message in err, doc
        with pytest.raises(FormatError):
            events.load_poset(bad)
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


def test_files_that_are_not_utf8_or_json_numbers_exit_2(capsys, tmp_path):
    """A process or poset file that is not UTF-8, or holds an integer too
    long to convert, is a format error naming the file."""
    undecodable = tmp_path / "utf16.json"
    undecodable.write_bytes(b"\xff\xfe{\x00}\x00")
    digits = tmp_path / "digits.json"
    digits.write_text('{"backend": "matr+", "wires": [], "data": [' + "1" * 5000 + "]}")
    for argv in (
        ("check", str(undecodable)),
        ("check", str(digits)),
        ("check", "example:swap_process", "--poset", str(undecodable)),
        ("convert", str(undecodable)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out is None and err.startswith(f"error: {tmp_path}"), argv
    with pytest.raises(FormatError, match="utf16.json: 'utf-8' codec can't decode"):
        core.load_process(undecodable)
    with pytest.raises(FormatError, match="utf16.json: 'utf-8' codec can't decode"):
        events.load_poset(undecodable)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("check", "example:bw_process", "--type", "(" * 3000 + "A" + ")" * 3000), id="type-parens"),
        pytest.param(("prove", "(" * 3000 + "A" + ")" * 3000), id="sequent-parens"),
        pytest.param(("check", "example:bw_process", "--type", " -o ".join(["A"] * 601)), id="arrow-chain"),
        pytest.param(
            ("prove", "|- " + " (+) ".join(f"A{k}^*" for k in range(600)) + ", " + " (x) ".join(f"A{k}" for k in range(600))),
            id="flat-tensor-search",
        ),
    ],
)
def test_deeply_nested_input_exits_2(capsys, argv):
    """Nesting deeper than Python recurses, in the parser or in ``normalize``
    after a parse that succeeds, is bad input, not a crash.  So is a flat
    sequent whose n-ary tensor the prover chains into 599 binary levels,
    which its search recurses into level by level."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out is None
    assert err.strip() == "error: input too large or too deeply nested"


def test_flat_sequent_renders_its_proof(capsys):
    """A flat 401-atom sequent is proved, and its proof, 400 par levels on
    each side, is rendered: a formula's rendering and the proof's lines are
    made without recursion."""
    n = 401
    sequent = " (x) ".join(f"A{k}" for k in range(n)) + " |- " + " (+) ".join(f"A{k}" for k in range(n))
    code, doc, err = run(capsys, "prove", sequent)
    assert code == 0 and doc["provable"] is True
    lines = doc["proof"].splitlines()
    assert err.strip() == doc["proof"]
    assert lines[0].startswith("par@0: |- A0^* (+) (A1^* (+) (A2^* (+) ")
    assert sum(line.lstrip().startswith("ax: ") for line in lines) == n


def test_dimension_one_wires_beyond_einsum_subscripts(capsys, tmp_path):
    """27 events on dimension-1 wires: 54 array axes, more than the 52 that
    einsum can name, all of size 1.  numpy 1 arrays have at most 32 axes,
    so there the loader refuses the file with exit code 2."""
    n = 27
    wires = [{"name": f"A{k}'", "dim": 1, "role": "out"} for k in range(n)]
    wires += [{"name": f"A{k}", "dim": 1, "role": "in"} for k in range(n)]
    proc = tmp_path / "wide.json"
    proc.write_text(json.dumps({"backend": "matr+", "wires": wires, "data": [1.0]}))
    poset = tmp_path / "o.json"
    poset.write_text(json.dumps({
        "events": [{"name": f"E{k}", "in": [f"A{k}"], "out": [f"A{k}'"]} for k in range(n)],
        "order": [["E0", "E1"], ["E1", "E2"]],
    }))
    for mode in ((), ("--poset", str(poset))):
        code, doc, err = run(capsys, "check", str(proc), *mode)
        if np.lib.NumpyVersion(np.__version__) < "2.0.0":
            assert code == 2 and doc is None and err.startswith("error: malformed data payload")
        else:
            assert code == 0 and doc["passed"] is True and doc["residual"] == 0.0


def test_non_finite_data_exits_2(capsys, tmp_path):
    """json reads NaN and Infinity; the loader must reject them."""
    doc = core.to_json_dict(gallery.swap_process().process)
    for bad in (float("nan"), float("inf"), float("-inf")):
        doc["data"][0] = bad
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(path))
        assert code == 2 and out is None and "finite" in err


def test_out_of_memory_exits_2(capsys, monkeypatch):
    def build(name, **params):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000, 1000, 1000, 1000)")

    monkeypatch.setattr(gallery, "build", build)
    for argv in (("examples", "swap_process", "--param", "d=1000"), ("check", "example:swap_process")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out is None and err.startswith("error: Unable to allocate 7.28 TiB")


def test_undocumented_data_layout_exits_2(capsys, tmp_path):
    """``data`` is a flat list of JSON numbers, or of ``[re, im]`` number
    pairs for cpm: anything else is rejected and named by its JSON type."""
    numbers = "error: data entries must be JSON numbers, not "
    pairs = "error: cpm data entries must be [re, im] pairs"
    for backend in (MATR, REL, CPM):
        doc = core.to_json_dict(gallery.swap_process(backend).process)
        flat = doc["data"]
        if backend == CPM:
            bad = [
                (numbers + "boolean", [[bool(x) for x in v] for v in flat]),
                (numbers + "null", [[None, 0.0]] * len(flat)),
                (pairs, [v + [0.0] for v in flat]),
                (pairs, [flat[0] + [0.0], [0.0], *flat[2:]]),
                (pairs, [1.0] * len(flat)),
                (pairs, [{"re": 1.0, "im": 0.0}] * len(flat)),
            ]
        else:
            bad = [
                (numbers + "string", [str(v) for v in flat]),
                (numbers + "boolean", [bool(v) for v in flat]),
                (numbers + "array", [[v] for v in flat]),
                (numbers + "null", [None] * len(flat)),
                (numbers + "object", [{}] * len(flat)),
            ]
        for message, data in bad:
            path = tmp_path / "layout.json"
            path.write_text(json.dumps({**doc, "data": data}))
            code, out, err = run(capsys, "check", str(path))
            assert code == 2 and out is None and err.strip() == message


def test_non_integer_dim_exits_2(capsys, tmp_path):
    """A wire dim must be a JSON integer: no truncated float, no bool."""
    doc = core.to_json_dict(gallery.swap_process().process)
    for bad in (2.9, 2.0, True, "2"):
        doc["wires"][0]["dim"] = bad
        path = tmp_path / "dim.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(path))
        assert code == 2 and out is None and "integer dimension" in err
