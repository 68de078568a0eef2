"""Shared helpers: arbitrary (not necessarily causal) processes and proof fuzzing."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from causkit import backends, core
from causkit.core import CPM, MATR, REL, Process, System
from causkit.mll import FAtom, FBot, FOne, FPar, FTensor, Proof

FUZZ_ATOMS = ("a", "b", "c")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)


def rand_data(backend: str, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Raw process data with no causality constraint (rel: ~half the pairs)."""
    if backend == MATR:
        return rng.random(shape)
    if backend == REL:
        return rng.random(shape) < 0.5
    h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    n = len(shape) // 2
    perm = tuple(range(n, 2 * n)) + tuple(range(n))
    return h + h.conj().transpose(perm)  # Hermitian under ket/bra swap


def rand_process(
    backend: str,
    out_systems: tuple[System, ...],
    in_systems: tuple[System, ...],
    rng: np.random.Generator,
) -> Process:
    shape = Process.expected_shape(backend, out_systems, in_systems)
    return Process(backend, out_systems, in_systems, rand_data(backend, shape, rng))


def rand_systems(
    rng: np.random.Generator, n: int, max_dim: int = 3, prefix: str = "W"
) -> tuple[System, ...]:
    return tuple(
        System(f"{prefix}{k}", int(rng.integers(1, max_dim + 1))) for k in range(n)
    )


def _independence_oracle(p: Process, in_labels) -> tuple[float, Process]:
    """Residual of ``p = p' (x) discard`` on ``in_labels``, and that ``p'``:
    ``p`` with the uniform causal state plugged into those inputs, built
    from processes.  The oracle for ``checks._independence_residual``.

    ``p'`` keeps ``p``'s other axes in order, so ``p' (x) discard`` in
    ``p``'s layout is ``p'`` expanded at the plugged wires' axes, times the
    identity there on cpm (elsewhere discarding is all ones)."""
    if not in_labels:
        return 0.0, p
    systems = tuple(sorted((p.wire(l) for l in in_labels), key=lambda w: p.wire_pos(w.label)))
    extracted = core.plug(backends.uniform_state(p.backend, systems), p, [(l, l) for l in in_labels])
    plugged = [ax for w in systems for ax in p.axes(w.label)]
    recon = np.expand_dims(extracted.data, plugged)
    if p.backend == CPM:
        others = [ax for ax in range(p.data.ndim) if ax not in plugged]
        recon = recon * np.expand_dims(backends.discard(CPM, systems).data, others)
    return core._maxdiff(p.data, recon), extracted


def _unshared_comb(p, events, tol):
    """The comb check peeling one remainder after another: each event, from
    the back, is checked with the events after it already averaged out.  An
    oracle for the verdicts of ``check_comb``, which checks whole suffixes."""
    causal = backends.is_causal(p, tol)
    conditions = [(causal.residual, causal.detail)]
    q = p
    for k in range(len(events) - 1, 0, -1):
        last = events[k]
        residual, q = _independence_oracle(core.discard_outputs(q, last.outs), last.ins)
        conditions.append((residual, f"event {last.name!r} signals backwards to {[e.name for e in events[:k]]}"))
    return backends._verdict(p, tol, conditions)


def fuzz_proof(rng: np.random.Generator, max_depth: int = 6, fresh: bool = False) -> Proof:
    """Grow a valid proof bottom-up by randomly chaining rule applications.

    With ``fresh`` every axiom gets its own atom, so the conclusion is linear:
    each atom occurs exactly once each way."""
    axioms = itertools.count()

    def leaf() -> Proof:
        roll = rng.random()
        if roll < 0.7:
            key = FUZZ_ATOMS[int(rng.integers(len(FUZZ_ATOMS)))]
            if fresh:
                key += str(next(axioms))
            pair = (FAtom(key, True), FAtom(key, False))
            if rng.random() < 0.5:
                pair = pair[::-1]
            return Proof("ax", pair, (), None)
        if roll < 0.9:
            return Proof("one", (FOne(),), (), None)
        return Proof("mix0", (), (), None)

    def grow(depth: int) -> Proof:
        if depth <= 0:
            return leaf()
        roll = rng.random()
        if roll < 0.3:
            p = grow(depth - 1)
            seq = p.sequent
            if len(seq) < 2:
                return p
            i = int(rng.integers(len(seq) - 1))
            merged = seq[:i] + (FPar(seq[i], seq[i + 1]),) + seq[i + 2 :]
            return Proof("par", merged, (p,), i)
        if roll < 0.45:
            p = grow(depth - 1)
            seq = p.sequent
            i = int(rng.integers(len(seq) + 1))
            return Proof("bot", seq[:i] + (FBot(),) + seq[i:], (p,), i)
        if roll < 0.75:
            p, q = grow(depth - 1), grow(depth - 2)
            sp, sq = p.sequent, q.sequent
            if not sp or not sq:
                return Proof("mix", sp + sq, (p, q), None)
            ia = int(rng.integers(len(sp)))
            ib = int(rng.integers(len(sq)))
            rest = tuple(x for k, x in enumerate(sp) if k != ia)
            rest += tuple(x for k, x in enumerate(sq) if k != ib)
            i = int(rng.integers(len(rest) + 1))
            merged = rest[:i] + (FTensor(sp[ia], sq[ib]),) + rest[i:]
            return Proof("tensor", merged, (p, q), i)
        p, q = grow(depth - 1), grow(depth - 2)
        return Proof("mix", p.sequent + q.sequent, (p, q), None)

    return grow(int(rng.integers(1, max_depth + 1)))
