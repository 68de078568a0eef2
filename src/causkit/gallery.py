"""A gallery of named processes with their expected causal-type verdicts.

Each entry builds a :class:`~causkit.core.Process` together with a list of
``(type, expected verdict)`` pairs that document — and let the test suite
re-verify — what the process is and is not:

* ``classical_switch`` / ``quantum_z_switch``: a bit (or a measured qubit)
  decides in which order two parties act.  Second-order causal, but not a
  comb for either fixed order.
* ``ocb_process``: a bipartite process matrix that is positive, normalized
  on all pairs of channels, yet incompatible with both one-way orderings.
* ``bw_process``: a deterministic three-party process whose unique-fixed-
  point property makes it second-order causal while failing all six total
  orders.
* ``memory_comb``: an honest chain of channels through memories; the
  canonical inhabitant of a comb type.
* ``swap_process``: in the tensor of channel types nothing may signal, so
  the swap lives only in the par.
* ``time_travel``: feeding an identity channel back into itself leaves the
  scalar ``d`` (``d**2`` for cpm), causal only in the degenerate ``d = 1``
  case.

Reference copies of the fixed-parameter examples are shipped as JSON under
``data/examples/v1`` (override the directory with the environment variable
``CAUSKIT_EXAMPLES_DIR``); the test suite compares freshly built processes
against them entry for entry.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import backends, core
from .core import CPM, MATR, Process, System


@dataclass(frozen=True)
class ExampleInstance:
    name: str
    description: str
    process: Process
    expectations: tuple[tuple[str, bool], ...]


def comb_type(pairs: Sequence[tuple[str, str]]) -> str:
    """The comb type whose events receive/emit the given first-order types.

    ``pairs = [(i1, o1), .., (in, on)]`` yields the nested implication
    ``i1 -o ((o1 -o .. ) -o on)``; use ``"I"`` for an event with no input
    or no output.
    """
    i1, o1 = pairs[0]
    if len(pairs) == 1:
        return f"({i1}) -o ({o1})"
    shifted = [(pairs[k][1], pairs[k + 1][0]) for k in range(len(pairs) - 1)]
    return f"({i1}) -o (({comb_type(shifted)}) -o ({pairs[-1][1]}))"


# -- switches ------------------------------------------------------------------


def classical_switch(d: int = 2) -> ExampleInstance:
    """A stochastic process routing two parties in an input-controlled order.

    Wires: outputs ``A``, ``B`` (the parties' inputs) and ``C'`` (the global
    future); inputs ``X`` (the control bit), ``C`` (the global past) and
    ``A'``, ``B'`` (the parties' outputs).  Control 0 wires ``C->A``,
    ``A'->B``, ``B'->C'``; control 1 wires ``C->B``, ``B'->A``, ``A'->C'``.
    """
    e = np.eye(d)
    w0 = np.einsum("ij,kl,mn->ikmjln", e, e, e)  # A=C, B=A', C'=B'
    w1 = np.einsum("kj,in,ml->ikmjln", e, e, e)  # B=C, A=B', C'=A'
    data = np.stack([w0, w1], axis=3)  # X input axis right after the outputs
    p = Process(
        MATR,
        (System("A", d), System("B", d), System("C'", d)),
        (System("X", 2), System("C", d), System("A'", d), System("B'", d)),
        core._own(data),
    )
    soc = (
        f"(X[2] (x) C[{d}]) -o "
        f"(((A[{d}] -o A'[{d}]) (x) (B[{d}] -o B'[{d}])) -o C'[{d}])"
    )
    comb_a = comb_type(
        [(f"X[2] (x) C[{d}]", f"A[{d}]"), (f"A'[{d}]", f"B[{d}]"), (f"B'[{d}]", f"C'[{d}]")]
    )
    comb_b = comb_type(
        [(f"X[2] (x) C[{d}]", f"B[{d}]"), (f"B'[{d}]", f"A[{d}]"), (f"A'[{d}]", f"C'[{d}]")]
    )
    return ExampleInstance(
        "classical_switch",
        classical_switch.__doc__.splitlines()[0],
        p,
        ((soc, True), (comb_a, False), (comb_b, False)),
    )


def quantum_z_switch() -> ExampleInstance:
    """A qubit process running two parties in a measurement-controlled order.

    The order of the two parties is controlled by a Z-basis measurement of
    the control input.

    The Choi tensor is ``sum_x W_x (x) |x><x|_X`` with ``W_x`` the identity
    routing for order x, so feeding ``|+>`` realizes an even mixture of the
    two orders.  Same wire layout as :func:`classical_switch` with ``d = 2``.
    """
    d = 2

    def routing(flip: bool) -> Process:
        # identity wires C -> first party, first' -> second, second' -> C'
        a, b = ("B", "A") if flip else ("A", "B")
        w = core.tensor_par(
            core.identity(CPM, System("C", d), out_label=a),
            core.identity(CPM, System(f"{a}'", d), out_label=b),
        )
        return core.tensor_par(
            w, core.identity(CPM, System(f"{b}'", d), out_label="C'")
        )

    X = System("X", 2)
    parts = []
    for x in (0, 1):
        proj = np.zeros((2, 2), dtype=complex)
        proj[x, x] = 1.0
        ctrl = Process(CPM, (), (X,), core._own(proj))
        parts.append(core.tensor_par(routing(bool(x)), ctrl))
    w0, w1 = parts
    w1 = core.permute(w1, [w.label for w in w0.out_wires], [w.label for w in w0.in_wires])
    summed = Process(CPM, w0.out_wires, w0.in_wires, core._own(w0.data + w1.data))
    p = core.permute(summed, ["A", "B", "C'"], ["X", "C", "A'", "B'"])
    p = Process(CPM, p.out_wires, p.in_wires, core._own(np.ascontiguousarray(p.data)))  # choi_matrix then needs no copy
    soc = "(X[2] (x) C[2]) -o (((A[2] -o A'[2]) (x) (B[2] -o B'[2])) -o C'[2])"
    comb_a = comb_type([("X[2] (x) C[2]", "A[2]"), ("A'[2]", "B[2]"), ("B'[2]", "C'[2]")])
    comb_b = comb_type([("X[2] (x) C[2]", "B[2]"), ("B'[2]", "A[2]"), ("A'[2]", "C'[2]")])
    return ExampleInstance(
        "quantum_z_switch",
        quantum_z_switch.__doc__.splitlines()[0],
        p,
        ((soc, True), (comb_a, False), (comb_b, False)),
    )


# -- processes beyond definite order ---------------------------------------------


def ocb_process() -> ExampleInstance:
    """A bipartite qubit process matrix with no compatible one-way order.

    ``W = (1 + (Z_B Z_A' + Z_A X_B Z_B')/sqrt(2)) / 4`` over the factors
    ``A (x) B (x) A' (x) B'``, where ``A``/``B`` feed the parties and
    ``A'``/``B'`` collect their outputs.  The two non-identity terms
    anticommute, so ``W`` has eigenvalues 0 and 1/2 and is positive.
    """
    I2 = np.eye(2, dtype=complex)
    Z = np.diag([1.0, -1.0]).astype(complex)
    X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

    def kron4(*ms: np.ndarray) -> np.ndarray:
        out = ms[0]
        for m in ms[1:]:
            out = np.kron(out, m)
        return out

    w = (
        kron4(I2, I2, I2, I2)
        + kron4(I2, Z, Z, I2) / np.sqrt(2.0)
        + kron4(Z, X, I2, Z) / np.sqrt(2.0)
    ) / 4.0
    p = Process(
        CPM,
        (System("A", 2), System("B", 2)),
        (System("A'", 2), System("B'", 2)),
        core._own(w.reshape((2,) * 8)),
    )
    soc = "((A[2] -o A'[2]) (x) (B[2] -o B'[2])) -o I"
    comb_a = comb_type([("I", "A[2]"), ("A'[2]", "B[2]"), ("B'[2]", "I")])
    comb_b = comb_type([("I", "B[2]"), ("B'[2]", "A[2]"), ("A'[2]", "I")])
    return ExampleInstance(
        "ocb_process",
        ocb_process.__doc__.splitlines()[0],
        p,
        ((soc, True), (comb_a, False), (comb_b, False)),
    )


def bw_process() -> ExampleInstance:
    """A deterministic tripartite process with no compatible total order.

    Party ``k`` receives ``A_k`` and replies on ``A_k'``; the process
    computes ``a1 = !b2 & b3``, ``a2 = !b3 & b1``, ``a3 = !b1 & b2``.  For
    every triple of reply functions there is exactly one consistent
    assignment, so all deterministic strategies — and by affinity all
    channels — are mapped to a normalized scalar.
    """
    data = np.zeros((2,) * 6)
    for b1 in range(2):
        for b2 in range(2):
            for b3 in range(2):
                a1 = (1 - b2) * b3
                a2 = (1 - b3) * b1
                a3 = (1 - b1) * b2
                data[a1, a2, a3, b1, b2, b3] = 1.0
    p = Process(
        MATR,
        tuple(System(f"A{k}", 2) for k in (1, 2, 3)),
        tuple(System(f"A{k}'", 2) for k in (1, 2, 3)),
        core._own(data),
    )
    soc = (
        "((A1[2] -o A1'[2]) (x) (A2[2] -o A2'[2]) (x) (A3[2] -o A3'[2])) -o I"
    )
    expectations = [(soc, True)]
    for order in itertools.permutations((1, 2, 3)):
        pairs = [("I", f"A{order[0]}[2]")]
        pairs += [
            (f"A{order[k]}'[2]", f"A{order[k + 1]}[2]") for k in range(2)
        ]
        pairs += [(f"A{order[2]}'[2]", "I")]
        expectations.append((comb_type(pairs), False))
    return ExampleInstance(
        "bw_process",
        bw_process.__doc__.splitlines()[0],
        p,
        tuple(expectations),
    )


# -- simpler shapes ---------------------------------------------------------------


def memory_comb(
    backend: str = MATR, events: int = 3, d: int = 2, seed: int = 11
) -> ExampleInstance:
    """A chain of random causal channels threaded through memory wires.

    The canonical inhabitant of the comb type for its event order.
    """
    rng = np.random.default_rng(seed)
    if events < 1:
        raise ValueError("a comb needs at least one event")
    sysA = [System(f"A{k}", d) for k in range(1, events + 1)]
    sysO = [System(f"A{k}'", d) for k in range(1, events + 1)]
    mem = [System(f"M{k}", d) for k in range(1, events)]
    if events == 1:
        p = backends.random_causal(backend, (sysO[0],), (sysA[0],), rng)
    else:
        p = backends.random_causal(backend, (sysO[0], mem[0]), (sysA[0],), rng)
        for k in range(1, events):
            outs = (sysO[k],) if k == events - 1 else (sysO[k], mem[k])
            step = backends.random_causal(backend, outs, (mem[k - 1], sysA[k]), rng)
            p = core.plug(p, step, [(mem[k - 1].label, mem[k - 1].label)])
    pairs = [(f"A{k}[{d}]", f"A{k}'[{d}]") for k in range(1, events + 1)]
    return ExampleInstance(
        "memory_comb",
        memory_comb.__doc__.splitlines()[0],
        p,
        ((comb_type(pairs), True),),
    )


def swap_process(backend: str = MATR, d: int = 2) -> ExampleInstance:
    """The swap channel: jointly causal, yet each side signals to the other.

    It inhabits the par of the two channel types but not their tensor."""
    p = core.tensor_par(
        core.identity(backend, System("A", d), out_label="B'"),
        core.identity(backend, System("B", d), out_label="A'"),
    )
    tensor = f"(A[{d}] -o A'[{d}]) (x) (B[{d}] -o B'[{d}])"
    par = f"(A[{d}] -o A'[{d}]) (+) (B[{d}] -o B'[{d}])"
    return ExampleInstance(
        "swap_process",
        swap_process.__doc__.splitlines()[0],
        p,
        ((tensor, d == 1), (par, True)),
    )


def time_travel(backend: str = MATR, d: int = 2) -> ExampleInstance:
    """Both wires of an identity channel bent around into a loop.

    The contraction leaves the scalar ``d`` (``d**2`` for cpm, ``True`` for
    rel): a normalized process only when that is 1, so in the trivial
    ``d = 1`` case for the numeric backends, which is why causal types never
    close a feedback loop.
    """
    f = core.identity(backend, System("A", d), out_label="B")
    g = core.identity(backend, System("B2", d), out_label="A2")
    p = core.plug(f, g, [("B", "B2"), ("A", "A2")])
    ok = backends.dimension(backend, System("A", d)) == 1
    return ExampleInstance(
        "time_travel",
        time_travel.__doc__.splitlines()[0],
        p,
        (("I", ok),),
    )


# -- registry and reference data ---------------------------------------------------

REGISTRY: dict[str, Callable[..., ExampleInstance]] = {
    "classical_switch": classical_switch,
    "quantum_z_switch": quantum_z_switch,
    "ocb_process": ocb_process,
    "bw_process": bw_process,
    "memory_comb": memory_comb,
    "swap_process": swap_process,
    "time_travel": time_travel,
}


def builder(name: str) -> Callable[..., ExampleInstance]:
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown example {name!r}; known: {', '.join(sorted(REGISTRY))}"
        ) from None


def build(name: str, **params) -> ExampleInstance:
    return builder(name)(**params)


GOLDEN_BUILDERS: dict[str, Callable[[], ExampleInstance]] = {
    "classical_switch_d2": lambda: classical_switch(2),
    "quantum_z_switch": quantum_z_switch,
    "ocb_process": ocb_process,
    "bw_process": bw_process,
}


def golden_dir() -> str:
    env = os.environ.get("CAUSKIT_EXAMPLES_DIR")
    if env:
        return env
    return os.path.join(os.path.dirname(__file__), "data", "examples", "v1")


def load_golden(name: str) -> Process:
    """Load the shipped reference copy of a fixed-parameter example."""
    return core.load_process(os.path.join(golden_dir(), f"{name}.json"))
