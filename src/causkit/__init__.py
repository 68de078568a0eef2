"""Causal-structure verification for stochastic, quantum and relational processes.

The package decides whether a concrete process — a stochastic matrix, a Choi
tensor, or a boolean relation — inhabits a causal type: plain causality,
non-signalling between parties, one-way signalling, combs, consistency with an
arbitrary partial order of events, and second- and higher-order causal maps.
A small linear-logic prover decides type-level transformations, and an axiom
harness re-verifies the structural assumptions each backend is supposed to
satisfy.
"""

import importlib

MATR = "matr+"
CPM = "cpm"
REL = "rel"
BACKENDS = (MATR, CPM, REL)

#: Default numerical tolerance for every check in the package.
DEFAULT_TOL = 1e-9

__version__ = "0.1.0"

# Each public name, under the module that defines it.  That module is imported
# the first time the name or the module is asked for (PEP 562), so neither
# ``import causkit`` nor the prover (``mll``, ``typesys``, ``errors``) loads numpy.
_EXPORTS = {
    "axioms": ["AXIOMS", "AxiomResult", "HarnessConfig", "run_all", "run_axiom"],
    "backends": [
        "CheckReport", "causal_basis", "causal_channel_family", "channel_family_size", "dimension", "discard",
        "factorize_one_way", "is_causal", "is_positive", "random_causal", "random_state", "uniform_state",
    ],
    "checks": [
        "check_comb", "check_membership", "check_nonsignalling", "check_one_way", "check_order_consistency",
        "check_projector", "check_soc", "check_via_totalisations",
    ],
    "core": [
        "Process", "System", "bend", "cap", "compose_seq", "cup", "discard_outputs", "distance", "dump_process",
        "from_json_dict", "identity", "load_process", "maxabs", "permute", "plug", "rename", "scalar",
        "tensor_par", "to_json_dict",
    ],
    "errors": [
        "BackendMismatch", "BadPartition", "CauskitError", "CombinatorialBlowup", "CyclicOrder", "CyclicWiring",
        "DuplicateLabel", "EmbedMismatch", "FormatError", "InvalidPermutation", "MalformedProof", "NoSuchWire",
        "NotOneWay", "ShapeMismatch", "TooManyEvents", "TypeSyntaxError", "UnknownEvent", "UnsupportedBackend",
        "UnsupportedConnective", "UnsupportedType",
    ],
    "events": ["Event", "EventPoset", "check_partition", "load_poset"],
    "gallery": ["REGISTRY", "ExampleInstance", "build", "comb_type", "load_golden"],
    "mll": [
        "Proof", "formula_of_type", "parse_proof", "parse_sequent", "prove", "provable", "render_proof",
        "render_sequent", "verify_proof",
    ],
    "typesys": [
        "Atom", "Cap", "Dual", "Embedding", "Lolli", "Par", "Tensor", "Type", "Unit", "fo_embedding", "intersect",
        "is_first_order", "normalize", "parse_type", "render_type",
    ],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["BACKENDS", "CPM", "DEFAULT_TOL", "MATR", "REL", *_HOME]


def __getattr__(name: str):
    # Nothing resolved here is stored in the package, so ``causkit.NAME`` is
    # always the defining module's current binding, also after a tracer or a
    # test has rebound it there and restored it.
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return [*globals(), *_HOME]
