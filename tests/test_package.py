"""The package's public names: one table, each module imported on first use."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest

import causkit

# The public API as it stood when the package imported every module eagerly,
# under the module each name was imported from.
PUBLIC_BY_MODULE = {
    "axioms": {"AXIOMS", "AxiomResult", "HarnessConfig", "run_all", "run_axiom"},
    "backends": {
        "CheckReport", "causal_basis", "causal_channel_family", "channel_family_size", "dimension", "discard",
        "factorize_one_way", "is_causal", "is_positive", "random_causal", "random_state", "uniform_state",
    },
    "checks": {
        "check_comb", "check_membership", "check_nonsignalling", "check_one_way", "check_order_consistency",
        "check_projector", "check_soc", "check_via_totalisations",
    },
    "core": {
        "BACKENDS", "CPM", "DEFAULT_TOL", "MATR", "REL", "Process", "System", "bend", "cap", "compose_seq", "cup",
        "discard_outputs", "distance", "dump_process", "from_json_dict", "identity", "load_process", "maxabs",
        "permute", "plug", "rename", "scalar", "tensor_par", "to_json_dict",
    },
    "errors": {
        "BackendMismatch", "BadPartition", "CauskitError", "CombinatorialBlowup", "CyclicOrder", "CyclicWiring",
        "DuplicateLabel", "EmbedMismatch", "FormatError", "InvalidPermutation", "MalformedProof", "NoSuchWire",
        "NotOneWay", "ShapeMismatch", "TooManyEvents", "TypeSyntaxError", "UnknownEvent", "UnsupportedBackend",
        "UnsupportedConnective", "UnsupportedType",
    },
    "events": {"Event", "EventPoset", "check_partition", "load_poset"},
    "gallery": {"REGISTRY", "ExampleInstance", "build", "comb_type", "load_golden"},
    "mll": {
        "Proof", "formula_of_type", "parse_proof", "parse_sequent", "prove", "provable", "render_proof",
        "render_sequent", "verify_proof",
    },
    "typesys": {
        "Atom", "Cap", "Dual", "Embedding", "Lolli", "Par", "Tensor", "Type", "Unit", "fo_embedding", "intersect",
        "is_first_order", "normalize", "parse_type", "render_type",
    },
}
PUBLIC = set().union(*PUBLIC_BY_MODULE.values())
HOME = {name: module for module, names in PUBLIC_BY_MODULE.items() for name in names}


def test_all_is_the_public_api():
    assert len(PUBLIC) == 102
    assert len(causkit.__all__) == len(set(causkit.__all__))
    assert set(causkit.__all__) == PUBLIC


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_name_is_the_object_of_its_module(name):
    module = importlib.import_module(f"causkit.{HOME[name]}")
    assert getattr(causkit, name) is getattr(module, name)


def test_dir_and_star_import_list_every_name():
    assert PUBLIC <= set(dir(causkit))
    namespace: dict = {}
    exec("from causkit import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == PUBLIC


def test_submodules_are_attributes_after_import_causkit():
    for m in PUBLIC_BY_MODULE:
        assert getattr(causkit, m) is sys.modules[f"causkit.{m}"]


def test_names_are_looked_up_in_their_module_each_time(monkeypatch):
    """A name rebound in its module (as a tracer does) shows through the
    package, and the package keeps no copy once it is restored."""
    original = causkit.prove
    monkeypatch.setattr(causkit.mll, "prove", lambda *args, **kwargs: None)
    assert causkit.prove is causkit.mll.prove is not original
    monkeypatch.undo()
    assert causkit.prove is original
    assert "prove" not in vars(causkit)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        causkit.no_such_name  # noqa: B018
    assert not hasattr(causkit, "cheks")


def test_import_and_prove_load_no_numpy():
    """The package init and the prover are pure Python: a fresh interpreter
    that imports causkit, imports causkit.mll and runs ``causkit prove``
    never imports numpy; a numpy module is still one attribute away."""
    code = (
        "import contextlib, io, sys\n"
        "import causkit\n"
        "assert 'numpy' not in sys.modules, 'import causkit imported numpy'\n"
        "import causkit.mll\n"
        "assert 'numpy' not in sys.modules, 'import causkit.mll imported numpy'\n"
        "from causkit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert cli.main(['prove', 'A (x) B |- B (x) A']) == 0\n"
        "assert 'numpy' not in sys.modules, 'causkit prove imported numpy'\n"
        "assert causkit.checks.check_soc is causkit.check_soc\n"
    )
    src = os.path.dirname(os.path.dirname(causkit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
