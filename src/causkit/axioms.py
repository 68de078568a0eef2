"""Executable axioms of the three process backends.

Each backend is supposed to provide the structure the higher-order checks
rely on.  This harness turns the five load-bearing properties into
randomized or exhaustive verdicts:

``C1``  discarding a compound system is discarding its parts.
``C2``  the dimension scalar (the value of the identity loop) is invertible.
``C3``  causal states separate processes: distinct processes differ on some
        tuple of basis states plugged into their inputs.
``C4``  one-way signalling processes factor through a memory wire: the
        explicit construction is exercised for matr+ and rel; for cpm the
        defining marginal condition is verified on processes built from a
        hidden memory, the construction itself being out of scope there.
``C5``  effects that normalize every channel state split as an effect on
        the input factor times discarding: checked by computing the null
        space of the normalization constraints and matching it against the
        split pattern.  This one *fails* for rel — the witness effect
        ``w(i, j) = not (i and j)`` on bits normalizes all nine total
        relations without splitting — and the harness reports exactly that.

``run_all`` evaluates everything and compares against ``EXPECTED``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import backends, checks, core
from .core import BACKENDS, CPM, MATR, REL, Process, System
from .errors import FormatError, UnsupportedBackend
from .events import Event

AXIOMS = ("C1", "C2", "C3", "C4", "C5")

#: verdict each backend is supposed to produce
EXPECTED: dict[tuple[str, str], bool] = {
    (axiom, backend): True for axiom in AXIOMS for backend in BACKENDS
}
EXPECTED[("C5", REL)] = False


@dataclass(frozen=True)
class HarnessConfig:
    seed: int = 20260814
    instances: int = 50
    max_dim: int = 3
    tol: float = 1e-9


@dataclass(frozen=True)
class AxiomResult:
    axiom: str
    backend: str
    holds: bool
    residual: float
    detail: str = ""
    witness: str = ""

    @property
    def as_expected(self) -> bool:
        return self.holds == EXPECTED[(self.axiom, self.backend)]

    def to_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "backend": self.backend,
            "holds": self.holds,
            "expected": EXPECTED[(self.axiom, self.backend)],
            "residual": self.residual,
            "detail": self.detail,
            "witness": self.witness,
        }


def _rand_systems(rng: np.random.Generator, max_dim: int, prefix: str, count: int):
    return tuple(
        System(f"{prefix}{k}", int(rng.integers(2, max_dim + 1))) for k in range(count)
    )


# -- individual axioms -----------------------------------------------------------


def _c1(backend: str, cfg: HarnessConfig, rng: np.random.Generator) -> AxiomResult:
    worst = 0.0
    for _ in range(cfg.instances):
        systems = _rand_systems(rng, cfg.max_dim, "S", int(rng.integers(2, 4)))
        joint = backends.discard(backend, systems)
        split = backends.discard(backend, systems[:1])
        for s in systems[1:]:
            split = core.tensor_par(split, backends.discard(backend, (s,)))
        worst = max(worst, core.distance(joint, split))
        # discarding all outputs of a causal process leaves discarding
        f = backends.random_causal(backend, systems[:2], systems[2:], rng)
        marg = core.discard_outputs(f, [w.label for w in f.out_wires])
        worst = max(worst, core.distance(marg, backends.discard(backend, f.in_wires)))
    return AxiomResult("C1", backend, worst <= cfg.tol, worst,
                       "discard is multiplicative and absorbs causal processes")


def _c2(backend: str, cfg: HarnessConfig, rng: np.random.Generator) -> AxiomResult:
    worst = 0.0
    details = []
    for d in range(1, cfg.max_dim + 1):
        s = System("A", d)
        dim = backends.dimension(backend, s)
        f = core.identity(backend, s, out_label="B")
        g = core.identity(backend, System("B2", d), out_label="A2")
        loop = core.plug(f, g, [("B", "B2"), ("A", "A2")]).scalar_value()
        worst = max(worst, abs(complex(loop) - complex(dim)))
        inv = 1.0 / complex(dim)
        worst = max(worst, abs(inv * complex(dim) - 1.0))
        details.append(f"d={d}: loop={loop}")
    return AxiomResult("C2", backend, worst <= cfg.tol, float(worst), "; ".join(details))


def _c3(backend: str, cfg: HarnessConfig, rng: np.random.Generator) -> AxiomResult:
    separated = True
    margin = 0.0
    for _ in range(cfg.instances):
        ins = _rand_systems(rng, cfg.max_dim, "I", int(rng.integers(1, 3)))
        outs = _rand_systems(rng, cfg.max_dim, "O", 1)
        f = backends.random_causal(backend, outs, ins, rng)
        g = backends.random_causal(backend, outs, ins, rng)
        if core.distance(f, g) == 0.0:
            continue
        best = 0.0
        for combo in itertools.product(*(backends.causal_basis(backend, s) for s in ins)):
            state = combo[0]
            for st in combo[1:]:
                state = core.tensor_par(state, st)
            pairs = [(s.label, s.label) for s in ins]
            best = max(best, core.distance(core.plug(state, f, pairs), core.plug(state, g, pairs)))
        margin = max(margin, best)
        if best <= 1e-6:
            separated = False
    return AxiomResult(
        "C3", backend, separated, float(margin),
        "distinct processes are distinguished by basis states (residual = worst separation seen)",
    )


def _one_way_instance(backend: str, cfg: HarnessConfig, rng: np.random.Generator):
    dA = int(rng.integers(2, cfg.max_dim + 1))
    dB = int(rng.integers(2, cfg.max_dim + 1))
    dM = int(rng.integers(2, cfg.max_dim + 1))
    A, Ap = System("A", dA), System("A'", dA)
    B, Bp = System("B", dB), System("B'", dB)
    M = System("MEM", dM)
    p1 = backends.random_causal(backend, (Ap, M), (A,), rng)
    p2 = backends.random_causal(backend, (Bp,), (M, B), rng)
    joint = core.plug(p1, p2, [("MEM", "MEM")])
    return joint, Event("first", ins=("A",), outs=("A'",)), Event("second", ins=("B",), outs=("B'",))


def _c4(backend: str, cfg: HarnessConfig, rng: np.random.Generator) -> AxiomResult:
    worst = 0.0
    ok = True
    if backend == CPM:
        for _ in range(cfg.instances):
            joint, first, second = _one_way_instance(backend, cfg, rng)
            rep = checks.check_one_way(joint, first, second, cfg.tol)
            worst = max(worst, rep.residual)
            ok = ok and rep.passed
        try:
            joint, first, second = _one_way_instance(backend, cfg, rng)
            backends.factorize_one_way(joint, first, second)
            return AxiomResult("C4", backend, False, 1.0,
                               "factorization unexpectedly constructed for cpm")
        except UnsupportedBackend:
            pass
        return AxiomResult(
            "C4", backend, ok, float(worst),
            "one-way marginal condition verified; explicit factorization not constructed for cpm",
        )
    for _ in range(cfg.instances):
        joint, first, second = _one_way_instance(backend, cfg, rng)
        f1, f2 = backends.factorize_one_way(joint, first, second, cfg.tol)
        mem = f1.out_wires[-1].label
        recon = core.plug(f1, f2, [(mem, mem)])
        recon = core.permute(
            recon, [w.label for w in joint.out_wires], [w.label for w in joint.in_wires]
        )
        worst = max(worst, core.distance(recon, joint))
        for factor in (f1, f2):
            rep = backends.is_causal(factor, cfg.tol)
            worst = max(worst, rep.residual)
            ok = ok and rep.passed
    return AxiomResult(
        "C4", backend, ok and worst <= cfg.tol, float(worst),
        "one-way processes factor exactly through a memory wire, with causal factors",
    )


def _channel_states(backend: str, dA: int, dB: int) -> list[Process]:
    """Normalized states on (A, B) obtained by feeding half a maximally
    correlated pair through each member of the spanning channel family."""
    A, A0, B = System("A", dA), System("A0", dA), System("B", dB)
    cup = core.cup(backend, dA, "A", "A0")
    cup = Process(backend, cup.out_wires, (), cup.data / dA)
    states = []
    for chan in backends.causal_channel_family(backend, (B,), (A0,)):
        states.append(core.plug(cup, chan, [("A0", "A0")]))
    return states


def _c5_null_space(states: list[Process]) -> tuple[np.ndarray, tuple[int, ...]]:
    rows = np.stack([(s.data - states[0].data).ravel() for s in states[1:]])
    _, sing, vh = np.linalg.svd(rows)
    rank = int(np.sum(sing > 1e-10 * max(1.0, sing[0])))
    return vh[rank:].conj(), states[0].data.shape


def _c5(backend: str, cfg: HarnessConfig, rng: np.random.Generator) -> AxiomResult:
    if backend == REL:
        # counterexample on bits: w(i, j) = not (i and j)
        witness = np.array([[True, True], [True, False]])
        normalizes = True
        total_relations = 0
        dA, dB = 2, 2
        for cols in itertools.product(range(1, 1 << dB), repeat=dA):
            total_relations += 1
            graph = np.array([[(c >> j) & 1 == 1 for j in range(dB)] for c in cols])
            if not np.any(graph & witness):
                normalizes = False
        splits = bool(np.all(witness == witness[:, [0]]))
        return AxiomResult(
            "C5", REL, not (normalizes and not splits), 1.0,
            f"witness normalizes all {total_relations} total relations on bits "
            "yet depends on the second factor",
            witness="[[1, 1], [1, 0]]",
        )

    worst = 0.0
    for dA in range(2, cfg.max_dim + 1):
        for dB in range(2, cfg.max_dim + 1):
            null, shape = _c5_null_space(_channel_states(backend, dA, dB))
            for vec in null:
                w = vec.reshape(shape)
                if backend == MATR:
                    dev = float(np.max(np.abs(w - w[:, [0]])))
                else:
                    # pattern R (x) identity on the B factor
                    r = np.einsum("abcb->ac", w) / dB
                    recon = np.einsum("ac,bd->abcd", r, np.eye(dB))
                    dev = float(np.max(np.abs(w - recon)))
                worst = max(worst, dev)
    return AxiomResult(
        "C5", backend, worst <= 1e-8, float(worst),
        "every normalizing effect is constant in the output factor "
        "(null space of the constraints matches the split pattern)",
    )


_RUNNERS = {"C1": _c1, "C2": _c2, "C3": _c3, "C4": _c4, "C5": _c5}


def run_axiom(axiom: str, backend: str, config: HarnessConfig | None = None) -> AxiomResult:
    if axiom not in _RUNNERS:
        raise FormatError(f"unknown axiom {axiom!r}; known: {', '.join(AXIOMS)}")
    if backend not in BACKENDS:
        raise UnsupportedBackend(f"unknown backend {backend!r}")
    cfg = config or HarnessConfig()
    rng = np.random.default_rng(cfg.seed)
    return _RUNNERS[axiom](backend, cfg, rng)


def run_all(
    which_backends: tuple[str, ...] = BACKENDS,
    config: HarnessConfig | None = None,
) -> list[AxiomResult]:
    cfg = config or HarnessConfig()
    results = []
    for backend in which_backends:
        for axiom in AXIOMS:
            rng = np.random.default_rng(cfg.seed)
            results.append(_RUNNERS[axiom](backend, cfg, rng))
    return results
