"""Backend-specific structure: discarding, normalization, generators.

Each backend fixes what "discard" and "causal" mean concretely:

``matr+``
    Processes are tensors of non-negative reals.  Discarding is summation,
    a process is causal iff it is non-negative and every joint-input column
    sums to 1 (column-stochasticity): both are :func:`is_causal` conditions.
    The dimension scalar of a system is ``d``.

``cpm``
    Processes are Choi tensors of linear maps between Hilbert spaces.
    Discarding an output is the partial trace, a process is causal iff it is
    completely positive and trace-preserving (``tr_out J = I_in``), and the
    dimension scalar is ``d**2``.  Complete positivity is positive
    semidefiniteness of the Choi matrix (:func:`is_positive`): a blocked
    Cholesky factorization certifies a pass, reporting 0.0 for the
    eigenvalue it did not measure, and ``eigvalsh`` runs only when that
    certificate fails or is skipped, to report the most negative eigenvalue.
    Both are :func:`is_causal` conditions, so every cpm verdict asks for
    complete positivity.

``rel``
    Processes are boolean relations.  Discarding is existential projection
    (``any``), a process is causal iff it is total (every joint input relates
    to at least one joint output), and the dimension scalar is ``True``.
    All checks are exact; tolerances are ignored.

Verdicts are reported as :class:`CheckReport` objects carrying the worst
absolute residual.  One rule decides them all (:func:`_verdict`): a ``rel``
residual passes iff it is 0, any other passes iff it is at most
``tol * max(1, |process|_max)``, and a non-finite residual or scale fails.

What depends only on a process's data is decided once per :class:`Process`
and kept on it, since its data is read-only: the scale (:func:`_scale`) and
the positivity report of each tolerance (:func:`is_positive`), which is also
causality's validity condition on matr+ and cpm.  A verdict reads the kept
scale where it judges, so no scale is passed around, and measures only
normalization; ``check_soc`` still scans the non-negativity of each
remainder of the batched :func:`_causality`, which is not a
:class:`Process`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import core
from .core import CPM, DEFAULT_TOL, MATR, REL, Process, System
from .errors import NotOneWay, UnsupportedBackend
from .events import Event, check_partition


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a verification: verdict plus the residual that produced it.

    ``residual`` is an absolute deviation.  For ``rel`` it is 0.0 or 1.0 and
    the verdict is exact; otherwise the verdict compares it against
    ``tol * max(1, scale)`` where ``scale`` is the largest entry of the
    process being checked.  A non-finite residual or scale fails.
    """

    passed: bool
    residual: float
    tol: float
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed

    def __str__(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        msg = f"{verdict} (residual {self.residual:.3g}, tol {self.tol:.3g})"
        return f"{msg}: {self.detail}" if self.detail else msg


def _scale(p: Process) -> float | None:
    """``max(1, |p|_max)``, or NaN when ``p`` has a NaN entry; None on rel,
    whose verdicts are exact.  Measured once per process and kept on it."""
    memo = p._memo
    if "scale" not in memo:
        memo["scale"] = None if core._spec(p.backend).exact else float(_scales(p.data, 0))
    return memo["scale"]


def _scales(data, batch: int):
    """:func:`_scale` of each array behind the ``batch`` leading axes of
    ``data``; ``np.maximum`` keeps a NaN."""
    return np.maximum(core._maxabs(data, batch), 1.0)


def _bound(backend: str, tol: float, scale):
    """The largest residual that passes against a process of scale
    ``scale``, a float or an array with one scale per batch index: 0 on
    ``rel`` whatever ``tol`` is, else ``tol * scale``, and NaN where the scale
    is not finite.  A residual passes iff it is ``<=`` its bound, so no
    residual passes a NaN bound and no non-finite residual passes a finite
    one."""
    if core._spec(backend).exact:
        return 0.0
    if isinstance(scale, np.ndarray):
        return tol * np.where(np.isfinite(scale), scale, np.nan)
    return tol * scale if math.isfinite(scale) else math.nan


def _verdict(p: Process, tol: float, conditions: Iterable[tuple[float, str | Callable[[], str]]]) -> CheckReport:
    """The one verdict rule, for residuals measured against ``p``.

    Each condition is ``(residual, detail if it fails)``, judged against
    :func:`_bound`: a ``rel`` residual passes iff it is 0, whatever ``tol``
    is; any other passes iff it is at most ``tol * _scale(p)``.  A
    non-finite residual or scale fails.  A detail may be given unbuilt, as a
    callable of no arguments: only the first failing condition's is built
    (:func:`_conjunction`).
    """
    bound = _bound(p.backend, tol, _scale(p))
    return _conjunction([(r <= bound, r, detail) for r, detail in conditions], tol)


def _conjunction(conditions: Iterable[tuple[bool, float, str | Callable[[], str]]], tol: float) -> CheckReport:
    """Conjoin decided conditions ``(passed, residual, detail)``: the worst
    residual, NaN included, and the detail of the first failure, built there
    if it was given as a callable."""
    ok, worst, bad = True, 0.0, ""
    for passed, residual, detail in conditions:
        residual = float(residual)
        if not (math.isnan(worst) or residual <= worst):
            worst = residual
        if not passed and ok:
            ok, bad = False, detail
    if not ok and callable(bad):
        bad = bad()
    return CheckReport(ok, worst, tol, bad)


# -- canonical effects and states ----------------------------------------------


def discard(backend: str, systems: Sequence[System]) -> Process:
    """The discarding effect on ``systems`` (sum / trace / existential).

    Equal arguments give the same process, whose ``data`` is read-only.
    """
    return _discard(backend, tuple(systems))


@functools.lru_cache(maxsize=1024)
def _discard(backend: str, systems: tuple[System, ...]) -> Process:
    return Process(backend, (), systems, _discard_data(backend, tuple(s.dim for s in systems)))


@functools.lru_cache(maxsize=1024)
def _discard_data(backend: str, dims: tuple[int, ...]) -> np.ndarray:
    """The data of the discarding effect on wires of dimensions ``dims``,
    read-only and shared by every caller.  Keyed by the dimensions, so a
    lookup hashes no :class:`System`."""
    if backend == CPM:
        return core._own(np.eye(math.prod(dims), dtype=complex).reshape(dims + dims))
    return core._own(np.ones(dims, dtype=core._spec(backend).dtype))


def uniform_state(backend: str, systems: Sequence[System]) -> Process:
    """The canonical causal state: uniform distribution, maximally mixed
    state, or the full relation, on the given systems; the discarding
    effect's data over the total dimension."""
    systems = tuple(systems)
    total = math.prod(s.dim for s in systems)
    return Process(backend, systems, (), core._own(discard(backend, systems).data / total))


def dimension(backend: str, system: System):
    """The scalar obtained by discarding the uniform-weight point: ``d`` for
    matr+, ``d**2`` for cpm, ``True`` for rel."""
    spec = core._spec(backend)
    return spec.exact or float(system.dim**spec.axes_per_wire)  # rel: the nonzero scalar True


# -- verdicts ------------------------------------------------------------------


def is_causal(p: Process, tol: float = DEFAULT_TOL) -> CheckReport:
    """Is ``p`` a causal process of its backend's base category?

    Discarding every output must leave the discarding effect on the inputs:
    matr+ columns sum to 1, cpm outputs trace out to the identity on the
    inputs, a rel relation is total (the detail names an input related to
    no output).  On matr+ no entry may be negative either (the detail names
    the most negative), and on cpm the map must be completely positive:
    either is the report of :func:`is_positive`, one more condition decided
    once per process and tolerance.  The conditions are judged against one
    scale.  A process with a non-finite entry fails, with that NaN or inf as
    its residual, as in :func:`is_positive`.
    """
    return _verdict(p, tol, _causal_conditions(p, tol))


def _causal_conditions(p: Process, tol: float) -> list[tuple[float, str]]:
    """The conditions of :func:`is_causal`: normalization, then the
    :func:`is_positive` report kept on ``p`` (matr+, cpm); or
    ``(scale, "an entry is not finite")`` if ``p``'s scale is not."""
    scale = _scale(p)
    if scale is not None and not math.isfinite(scale):
        return [(scale, "an entry is not finite")]
    residual = _causality(p.backend, p.out_wires, p.in_wires, p.data)
    detail = "not normalized"
    if p.backend == REL and residual:
        cols = core.discard_outputs(p, [w.label for w in p.out_wires]).data
        bad = tuple(int(i) for i in np.argwhere(~cols)[0])
        detail = f"no output related to input index {bad}" if p.in_wires else "the relation is empty"
    conditions = [(float(residual), detail)]
    if p.backend != REL:
        positive = is_positive(p, tol)
        conditions.append((positive.residual, positive.detail))
    return conditions


def _causality(backend: str, outs: tuple[System, ...], ins: tuple[System, ...], data: np.ndarray):
    """Normalization's residual on ``data``, the array of a process with the
    wires ``outs``/``ins`` behind any number of leading batch axes: an array
    with one entry per batch index, or a scalar without batch axes."""
    n = len(outs) + len(ins)
    batch = data.ndim - core._spec(backend).axes_per_wire * n
    marg = core._marginal(backend, data, n, range(len(outs)))
    # the marginal's first axes after the batch are the inputs' (kets on cpm)
    return core._maxdiff(marg, _discard_data(backend, marg.shape[batch : batch + len(ins)]), batch)


def _negativity(data: np.ndarray, batch: int):
    """``max(0, -min)`` over each array behind the ``batch`` leading axes of
    ``data``: how negative its most negative entry is.  Subtracting from
    ``0.0`` gives ``0.0``, never ``-0.0``, where the minimum is a zero."""
    return 0.0 - np.minimum(data.min(axis=tuple(range(batch, data.ndim))), 0.0)


def is_positive(p: Process, tol: float = DEFAULT_TOL) -> CheckReport:
    """Entrywise non-negativity (matr+, and trivially rel), or Hermitian
    positive semidefiniteness of the Choi matrix (cpm).

    A process with a non-finite entry fails, with that NaN or inf as its
    residual.  On cpm two conditions are reported: the skew
    ``max |J - J^H|`` of the Choi matrix ``J``, always measured, and the most
    negative eigenvalue of its Hermitian part ``H``.  A blocked Cholesky
    factorization (:func:`_certified_skew`) proves most passes without
    computing an eigenvalue; such a pass reports 0.0 for the eigenvalue
    condition, which is then known to be within ``tol * scale``, not
    measured.  ``np.linalg.eigvalsh`` runs only when the certificate fails or
    is skipped because rounding could reach its margin, and then gives the
    residual and the detail.  The report, not ``J`` or a factor, is kept on
    ``p``, one per ``tol``, so a process is factored once however many
    verdicts ask.
    """
    key = ("positive", tol)
    memo = p._memo
    if key not in memo:
        memo[key] = _decide_positive(p, tol)
    return memo[key]


def _decide_positive(p: Process, tol: float) -> CheckReport:
    scale = _scale(p)
    if scale is not None and not math.isfinite(scale):
        return _verdict(p, tol, [(scale, "an entry is not finite")])
    if p.backend != CPM:
        at = np.unravel_index(np.argmin(p.data), p.data.shape)
        detail = f"negative entry {float(p.data[at]):.3g} at index {tuple(map(int, at))}"
        return _verdict(p, tol, [(float(_negativity(p.data, 0)), detail)])
    J = core.choi_matrix(p)
    skew = _certified_skew(J, tol, scale)
    neg = 0.0
    if skew is None:
        h, skew = _hermitian_block(J, slice(None), slice(None), 0.0)
        neg = max(0.0, -float(np.linalg.eigvalsh(h).min()))
    return _verdict(p, tol, [(skew, "not Hermitian"), (neg, f"negative eigenvalue {-neg:.3g}")])


_U = np.finfo(np.float64).eps / 2  # unit roundoff


def _certified_skew(J: np.ndarray, tol: float, scale: float) -> float | None:
    """``max |J - J^H|`` if a Cholesky factorization proves that the Hermitian
    part ``H`` of ``J`` has no eigenvalue below ``-3/4 * eps``, else None.

    With ``eps = tol * scale`` and ``s = eps / 2``, ``H + s I`` is factored in
    one 2x2 block split, so that no temporary exceeds a quarter of ``J``:
    ``L_A = chol(A + s I)``, ``W = L_A^-1 B`` (:func:`_forward_solve`) and
    ``L_C = chol(C + s I - W^H W)`` for ``H = [[A, B], [B^H, C]]``, each block
    read straight from ``J``.  The computed factor ``L = [[L_A, 0], [W^H, L_C]]``
    gives a positive semidefinite ``L L^H``, so by Weyl's inequality
    ``lambda_min(H) >= -s - |L L^H - (H + s I)|_2``.  That norm is bounded by
    measured quantities: twice ``rho = |L_A W - B|_F`` (measured, so the
    bound holds however ``W`` was computed), plus ``2 gamma_{4n+4} |L|_F^2`` for
    the rounding of the Cholesky factorizations and of the products (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 3 and Thm 10.3,
    with each complex inner product counted as real ones of twice the
    length), plus ``4 n u (scale + s)`` for forming ``H``, the shift and the
    Schur complement.  A pass needs ``s`` plus that bound to be at most
    ``3/4 * eps``, and the skew to be at most ``eps / 4``; the remaining
    ``eps / 4`` covers the error of ``eigvalsh``, so a certified pass is one
    that ``eigvalsh`` would also give.  When ``n (n + 1) u > tol / 4`` the
    rounding terms could reach that margin, and the certificate is skipped.
    """
    n = len(J)
    if not n * (n + 1) * _U <= tol / 4:
        return None
    eps = tol * scale
    s = eps / 2
    top, bottom = slice(0, n // 2), slice(n // 2, n)
    try:
        a, skew_a = _hermitian_block(J, top, top, s)
        la = np.linalg.cholesky(a)
        del a  # each temporary goes before the next is made: at most J's size is alive
        b, skew_b = _hermitian_block(J, top, bottom, 0.0)
        w = _forward_solve(la, b)
        r = la @ w
        r -= b
        rho = float(np.linalg.norm(r))
        del r, b
        norms = np.vdot(la, la).real + np.vdot(w, w).real
        del la
        c, skew_c = _hermitian_block(J, bottom, bottom, s)
        c -= w.conj().T @ w
        del w
        lc = np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        return None
    norms += np.vdot(lc, lc).real
    gamma = 4 * (n + 1) * _U / (1 - 4 * (n + 1) * _U)
    bound = 2 * rho + 2 * gamma * norms + 4 * n * _U * (scale + s)
    skew = max(skew_a, skew_b, skew_c)
    return skew if skew <= eps / 4 and s + bound <= 3 * eps / 4 else None


def _forward_solve(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``L^-1 B`` for a lower-triangular ``L`` by forward substitution in
    blocks: with ``L = [[L1, 0], [L2, L3]]``, ``X1 = L1^-1 B1`` and
    ``X2 = L3^-1 (B2 - L2 X1)``, split again down to diagonal blocks of at
    most 16 rows, whose inverses multiply their rows of ``B``.  Unlike
    ``np.linalg.solve`` it runs no pivoted LU of the whole of ``L``."""
    n = len(L)
    if n <= 16:
        return np.linalg.inv(L) @ B
    k = n // 2
    top = _forward_solve(L[:k, :k], B[:k])
    return np.concatenate([top, _forward_solve(L[k:, k:], B[k:] - L[k:, :k] @ top)])


def _hermitian_block(J: np.ndarray, rows: slice, cols: slice, shift: float) -> tuple[np.ndarray, float]:
    """The block ``rows x cols`` of the Hermitian part of ``J`` plus
    ``shift`` on its diagonal (a diagonal block's), and ``max |J - J^H|``
    over that block, in one temporary of the block's size."""
    h = np.conjugate(J[cols, rows].T, order="C")  # J's layout, so J - J^H needs no buffer
    h -= J[rows, cols]
    np.absolute(h, out=h)
    skew = float(h.real.max(initial=0.0))
    np.conjugate(J[cols, rows].T, out=h)
    h += J[rows, cols]
    h /= 2.0
    if shift:
        h.reshape(-1)[:: len(h) + 1] += shift  # a view: h is contiguous
    return h, skew


# -- state families ------------------------------------------------------------


def causal_basis(backend: str, system: System) -> list[Process]:
    """Causal states of a single system that are jointly informationally
    complete: point masses, a tomographically complete set of pure states,
    or the singleton relations."""
    eye = np.eye(system.dim, dtype=core._spec(backend).dtype)
    if backend != CPM:
        return [Process(backend, (system,), (), core._own(e)) for e in eye]
    pairs = itertools.combinations(range(system.dim), 2)
    kets = list(eye) + [(eye[i] + phase * eye[j]) / np.sqrt(2) for i, j in pairs for phase in (1, 1j)]
    return [Process(CPM, (system,), (), core._own(np.outer(k, k.conj()))) for k in kets]


def random_causal(
    backend: str,
    out_systems: Sequence[System],
    in_systems: Sequence[System],
    rng: np.random.Generator,
) -> Process:
    """Draw a random causal process with the given inputs and outputs.

    matr+: independent uniform weights, columns normalized.  cpm: the channel
    ``rho -> tr_env(V rho V^dag)`` for a Haar-ish random isometry ``V`` (QR of
    a Gaussian matrix).  rel: a random relation patched to be total.
    """
    out_systems, in_systems = tuple(out_systems), tuple(in_systems)
    out_dims = tuple(s.dim for s in out_systems)
    in_dims = tuple(s.dim for s in in_systems)
    dout = math.prod(out_dims)
    din = math.prod(in_dims)

    if backend == MATR:
        m = rng.uniform(0.05, 1.0, size=(dout, din))
        m /= m.sum(axis=0, keepdims=True)
        return Process(MATR, out_systems, in_systems, core._own(m.reshape(out_dims + in_dims)))

    if backend == REL:
        m = rng.random((dout, din)) < 0.35
        for j in range(din):
            if not m[:, j].any():
                m[rng.integers(dout), j] = True
        return Process(REL, out_systems, in_systems, core._own(m.reshape(out_dims + in_dims)))

    if backend == CPM:
        denv = max(1, -(-din // dout))  # smallest env with dout*denv >= din
        g = rng.normal(size=(dout * denv, din)) + 1j * rng.normal(size=(dout * denv, din))
        q, _ = np.linalg.qr(g)
        v = q[:, :din].reshape(dout, denv, din)
        # J[b, a, b', a'] = sum_e V[b,e,a] V*[b',e,a']
        j = np.einsum("bea,ceA->bacA", v, v.conj())
        j = j.reshape(out_dims + in_dims + out_dims + in_dims)
        return Process(CPM, out_systems, in_systems, core._own(j))

    raise UnsupportedBackend(f"unknown backend {backend!r}")


def random_state(backend: str, systems: Sequence[System], rng: np.random.Generator) -> Process:
    return random_causal(backend, systems, (), rng)


# -- spanning families of causal channels --------------------------------------
#
# Several checks quantify over "all causal processes one could plug in".  For
# matr+ that quantification reduces to the affine hull of the deterministic
# function channels; for rel, to the function channels by monotonicity (every
# total relation contains a function, and plugging is monotone in each
# argument); for cpm, to an affine basis of the trace-preserving subspace
# anchored at the completely depolarizing channel.


def channel_family_size(backend: str, out_systems: Sequence[System], in_systems: Sequence[System]) -> int:
    out_dims = [s.dim for s in out_systems]
    in_dims = [s.dim for s in in_systems]
    dout = math.prod(out_dims)
    din = math.prod(in_dims)
    if backend == CPM:
        return 1 + (dout**2 - 1) * din**2
    core._spec(backend)  # an unknown backend raises
    return dout**din


def _hermitian_basis(d: int) -> list[np.ndarray]:
    basis = []
    for i in range(d):
        m = np.zeros((d, d), dtype=complex)
        m[i, i] = 1.0
        basis.append(m)
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = m[j, i] = 1.0
            basis.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = -1j
            m[j, i] = 1j
            basis.append(m)
    return basis


def _traceless_hermitian_basis(d: int) -> list[np.ndarray]:
    basis = []
    for i in range(d - 1):
        m = np.zeros((d, d), dtype=complex)
        m[i, i] = 1.0
        m[i + 1, i + 1] = -1.0
        basis.append(m)
    basis.extend(m for m in _hermitian_basis(d) if abs(np.trace(m)) < 0.5)
    return basis


def causal_channel_family(
    backend: str, out_systems: Sequence[System], in_systems: Sequence[System]
) -> list[Process]:
    """Causal channels whose affine hull contains (matr+/cpm) or which
    dominate (rel) every causal channel of the given shape.

    matr+/rel: all deterministic function channels.  cpm: the completely
    depolarizing channel ``J0 = I_out/d_out (x) I_in`` plus the perturbations
    ``J0 + (G_m (x) F_n) / (2 d_out)`` over a traceless Hermitian basis
    ``{G_m}`` on the output factor and a full Hermitian basis ``{F_n}`` on
    the input factor; all are CPTP and they affinely span the
    trace-preserving subspace.  The members are built once per shape and
    shared by every call, like every process's data they are read-only.
    """
    return list(_channel_family(backend, tuple(out_systems), tuple(in_systems)))


@functools.lru_cache(maxsize=64)
def _channel_family(
    backend: str, out_systems: tuple[System, ...], in_systems: tuple[System, ...]
) -> tuple[Process, ...]:
    """:func:`causal_channel_family`, built once per shape.  The families of
    the last 64 shapes are kept."""
    out_dims = tuple(s.dim for s in out_systems)
    in_dims = tuple(s.dim for s in in_systems)
    dout = math.prod(out_dims)
    din = math.prod(in_dims)
    shape = out_dims + in_dims
    arrays = []
    if backend != CPM:
        dtype = core._spec(backend).dtype
        for g in itertools.product(range(dout), repeat=din):
            m = np.zeros((dout, din), dtype=dtype)
            m[g, range(din)] = 1
            arrays.append(m.reshape(shape))
    else:
        j0 = np.kron(np.eye(dout, dtype=complex) / dout, np.eye(din, dtype=complex))
        eps = 1.0 / (2.0 * dout)
        arrays.append(j0.reshape(shape + shape))
        for g in _traceless_hermitian_basis(dout):
            for f in _hermitian_basis(din):
                arrays.append((j0 + eps * np.kron(g, f)).reshape(shape + shape))
    return tuple(Process(backend, out_systems, in_systems, core._own(a)) for a in arrays)


# -- one-way factorization -----------------------------------------------------


def factorize_one_way(
    p: Process,
    first: Event,
    second: Event,
    tol: float = DEFAULT_TOL,
) -> tuple[Process, Process]:
    """Split a one-way process into ``first`` followed by ``second`` through
    an explicit classical memory wire, labelled ``M`` or, if ``p`` has that
    label, the first free ``M<n>``.

    Writing ``Phi[k, l | i, j]`` for the process with first-event input ``i``,
    first-event output ``k``, second-event input ``j``, second-event output
    ``l``, the premise is that the marginal ``Phi'[k | i] = sum_l Phi`` does
    not depend on ``j``.  The factors are then

        Phi1[k, (i',k') | i]  = Phi'[k | i] * delta(i,i') * delta(k,k')
        Phi2[l | (i',k'), j]  = Phi[k', l | i', j] / Phi'[k' | i']   if Phi' > 0
                              = delta(l, 0)                           otherwise

    and ``Phi1`` plugged into ``Phi2`` along the memory wire reconstructs the
    original process exactly.  For ``rel`` the same arrays are read in the
    boolean semiring: the marginal is a join and the division a case split.
    For ``cpm`` no comparable canonical construction is performed here and
    :class:`UnsupportedBackend` is raised.
    """
    if p.backend == CPM:
        raise UnsupportedBackend(
            "explicit one-way factorization is constructed for matr+ and rel only"
        )
    check_partition([first, second], p)

    order = first.outs + second.outs + first.ins + second.ins
    wires = tuple(p.wire(lbl) for lbl in order)
    data = core._reorder_data(p, wires)
    kdims = tuple(p.wire(lbl).dim for lbl in first.outs)
    ldims = tuple(p.wire(lbl).dim for lbl in second.outs)
    idims = tuple(p.wire(lbl).dim for lbl in first.ins)
    jdims = tuple(p.wire(lbl).dim for lbl in second.ins)
    K = math.prod(kdims)
    L = math.prod(ldims)
    I = math.prod(idims)
    J = math.prod(jdims)
    m = data.reshape(K, L, I, J)

    marg = m.sum(axis=1, dtype=m.dtype)  # for rel: the join over l
    dev = core._maxdiff(marg, marg[:, :, :1])
    if not _verdict(p, tol, [(dev, "")]):
        raise NotOneWay(
            f"marginal on {first.name!r} depends on the input of {second.name!r} "
            f"(deviation {dev:.3g}, tol {tol:.3g})"
        )
    phi_prime = marg.mean(axis=2)  # for rel: 1.0 or 0.0, equal for every j
    phi1 = np.zeros((K, I * K, I))
    phi2 = np.zeros((L, I * K, J))
    for i in range(I):
        for k in range(K):
            phi1[k, i * K + k, i] = phi_prime[k, i]
            if phi_prime[k, i] > 0.0:
                phi2[:, i * K + k, :] = m[k, :, i, :] / phi_prime[k, i]
            else:
                phi2[0, i * K + k, :] = 1.0

    taken = {w.label for w in p.wires}
    mem = "M"
    n = 0
    while mem in taken:
        mem = f"M{n}"
        n += 1
    mem_sys = System(mem, I * K)

    first_outs = tuple(p.wire(lbl) for lbl in first.outs)
    first_ins = tuple(p.wire(lbl) for lbl in first.ins)
    second_outs = tuple(p.wire(lbl) for lbl in second.outs)
    second_ins = tuple(p.wire(lbl) for lbl in second.ins)
    p1 = Process(
        p.backend,
        first_outs + (mem_sys,),
        first_ins,
        core._own(phi1.reshape(kdims + (I * K,) + idims)),
    )
    p2 = Process(
        p.backend,
        second_outs,
        (mem_sys,) + second_ins,
        core._own(phi2.reshape(ldims + (I * K,) + jdims)),
    )
    return p1, p2
