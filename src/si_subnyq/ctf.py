"""Continuous-to-finite recovery chain.

The compressed measurement sequences obey an infinite family of linear
systems sharing one unknown support. Recovery reduces that family to a
single finite joint-sparse problem:

    demodulate (undo W)  ->  Q = sum_n y[n] y[n]^H  ->  frame V with Q = V V^H
    ->  joint-sparse solve of V = A U  ->  support S
    ->  coefficients via the pseudo-inverse of A restricted to S (and Z undone).

``recover`` composes these steps once. Q = 0 gives a frame V with no columns,
which the solve answers like any V, after the same argument checks: with the
empty support.

Solvers: exhaustive minimum-support search (exact, combinatorial) and
simultaneous orthogonal matching pursuit (greedy).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InfeasibleError, InvalidInputError
from .sampling_design import MeasurementBank, MeasurementDesign, _require_finite
from .si_core import CoefficientBank, _require_int
from .tolerances import DEFAULT_TOLERANCES, Tolerances

EXHAUSTIVE_GUARD = 10 ** 6
SOLVERS = ("exhaustive", "somp")
_PINV_RCOND = 1e-15  # numpy.linalg.pinv's default; _coefficients needs it for pinv's bits


@dataclass(frozen=True)
class MMVProblem:
    """Finite joint-sparse system V = A U with a sparsity budget. V may have
    no columns (the frame of Q = 0); every solver returns the empty support."""

    A: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)
    k_max: int

    def __post_init__(self):
        a = np.asarray(self.A, dtype=np.complex128)
        v = np.asarray(self.V, dtype=np.complex128)
        if a.ndim != 2 or v.ndim != 2:
            raise DimensionError("A and V must be 2-D")
        if v.shape[0] != a.shape[0]:
            raise DimensionError(f"V has {v.shape[0]} rows but A has {a.shape[0]}")
        _require_finite(a, "A")
        _require_finite(v, "V")
        _require_int(self.k_max, "k_max")
        if not 0 <= self.k_max <= a.shape[1]:
            raise InvalidInputError(f"k_max={self.k_max} out of range 0..{a.shape[1]}")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "V", v)


@dataclass(frozen=True)
class RecoveryResult:
    support: frozenset[int]
    coefficients: CoefficientBank
    diagnostics: dict


def demodulate(y: MeasurementBank, design: MeasurementDesign,
               tol: Tolerances = DEFAULT_TOLERANCES) -> MeasurementBank:
    """Undo the shaping bank: y_tilde(w_q) = W^{-1}(w_q) y(w_q).

    Every call checks cond(W(w_q)) <= cond_tol, so a design built without
    ``make_design`` is still rejected at its singular grid point. The
    condition numbers are computed once per W object and cached on it (W is
    immutable, so the cache cannot go stale); after
    ``make_design`` the check is one comparison per bin.
    """
    if y.p != design.p or y.length != design.grid.n:
        raise DimensionError(
            f"measurements ({y.p} x {y.length}) incompatible with design "
            f"(p={design.p}, N={design.grid.n})")
    return MeasurementBank._owned(design.W.solve(y.sequences, tol.cond_tol, "W"))


def compute_q(y: MeasurementBank) -> np.ndarray:
    """Gram accumulation Q = sum_n y[n] y[n]^H over the N samples.

    By Parseval, the Gram of the grid spectra is N times this Q, with the
    same column span and hence the same recovered support.
    """
    q = y.sequences @ y.sequences.conj().T
    return (q + q.conj().T) / 2.0


def frame_from_q(q: np.ndarray,
                 tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[np.ndarray, np.ndarray]:
    """Factor Q = V V^H by eigendecomposition, dropping eigenvalues at or
    below ``tol.rank_rel_tol`` times the largest, and all when that is <= 0.
    Refuses Q if |Q - Q^H| exceeds ``tol.hermitian_tol`` max(max |Q|, 1); that
    Q^H also gives the (Q + Q^H) / 2 factored.

    Returns (V, eigenvalues) with eigenvalues sorted descending; V has one
    column per retained eigenvalue (possibly zero columns for Q = 0).
    """
    q = np.asarray(q, dtype=np.complex128)
    if q.ndim != 2 or q.shape[0] != q.shape[1] or q.size == 0:
        raise DimensionError(f"Q must be square and non-empty, got shape {q.shape}")
    _require_finite(q, "Q")
    q_h = q.conj().T
    herm_dev = float(np.max(np.abs(q - q_h)))
    scale = max(float(np.max(np.abs(q))), 1.0)
    if herm_dev > tol.hermitian_tol * scale:
        raise InvalidInputError(f"Q is not Hermitian (deviation {herm_dev:.3e})")
    eigvals, eigvecs = np.linalg.eigh((q + q_h) / 2.0)
    trace = float(np.sum(eigvals))
    if np.min(eigvals) < -tol.psd_tol * max(trace, 0.0) - tol.psd_tol:
        raise InvalidInputError(
            f"Q is indefinite: smallest eigenvalue {np.min(eigvals):.3e}")
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    keep = eigvals > tol.rank_rel_tol * max(float(eigvals[0]), 0.0)
    v = eigvecs[:, keep] * np.sqrt(eigvals[keep])
    return v, eigvals


def _pow2_scale(x: np.ndarray) -> float:
    """1 when the peak of x lies in [2^-400, 2^400], where norms taken on x
    neither overflow nor lose its largest entries to underflow; else the
    power of two s with the peak of s x in [1/2, 1). Multiplying by a power
    of two is exact, so ||s y|| = s ||y|| bit for bit wherever ||y|| is
    computed without over- or underflow.

    For complex x the peak is max(|re|, |im|), read from a float64 view (of
    a copy only if x is not contiguous), and max |x| / sqrt(2) <= peak <=
    max |x|. So an in-range peak puts max |x| in [2^-400, 2^400.5], which
    the window's distance from the float64 limits absorbs, and an
    out-of-range one still gives max |s x| < sqrt(2)."""
    if np.iscomplexobj(x):
        x = x.ravel(order="K").view(np.float64)
    peak = max(float(x.max(initial=0.0)), -float(x.min(initial=0.0)))
    if 2.0 ** -400 <= peak <= 2.0 ** 400:
        return 1.0
    return math.ldexp(1.0, min(-math.frexp(peak)[1], 1023))


def _norm(x: np.ndarray, scale: float) -> float:
    """||scale x||_F."""
    return float(np.linalg.norm(x if scale == 1.0 else scale * x))


def _frame(v: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(V, s, ||s V||_F) for s = ``_pow2_scale(V)``: taken once per support
    search and handed to each of its ``_support_residual`` calls."""
    scale = _pow2_scale(v)
    return v, scale, _norm(v, scale)


def _support_residual(A: np.ndarray, frame: tuple, support) -> float:
    """Relative Frobenius residual of projecting V onto the span of A_S, both
    norms taken on s V, for the ``_frame`` (V, s, ||s V||_F)."""
    v, scale, norm_v = frame
    if norm_v == 0.0:
        return 0.0
    if len(support) == 0:
        return 1.0
    a_s = A[:, sorted(support)]
    coef, *_ = np.linalg.lstsq(a_s, v, rcond=None)
    return _norm(v - a_s @ coef, scale) / norm_v


def solve_mmv_exhaustive(prob: MMVProblem,
                         tol: Tolerances = DEFAULT_TOLERANCES) -> frozenset[int]:
    """Exact minimum-support search: the reference oracle.

    Scans supports by increasing size (lexicographic within a size) and
    returns the first one whose ``_support_residual``, on one ``_frame(V)``,
    is within ``tol.mmv_residual_rel``. An all-zero V (no columns included)
    gets the empty support before the guard, which refuses C(m, k_max) > 1e6.

    Recovery (``solver="exhaustive"``) runs the rank-aware ``_screen`` first,
    which returns this function's answer, and calls this function for every
    case the screen cannot settle.
    """
    if not np.any(prob.V):
        return frozenset()
    m = prob.A.shape[1]
    if math.comb(m, prob.k_max) > EXHAUSTIVE_GUARD:
        raise InvalidInputError(
            f"exhaustive search refused: C({m}, {prob.k_max}) exceeds {EXHAUSTIVE_GUARD}")
    best_res = math.inf
    best_support: frozenset[int] = frozenset()
    frame = _frame(prob.V)
    for size in range(1, prob.k_max + 1):
        for combo in itertools.combinations(range(m), size):
            res = _support_residual(prob.A, frame, combo)
            if res <= tol.mmv_residual_rel:
                return frozenset(combo)
            if res < best_res:
                best_res = res
                best_support = frozenset(combo)
    raise InfeasibleError(
        f"no support of size <= {prob.k_max} fits the measurements "
        f"(best relative residual {best_res:.3e})",
        best_residual=best_res, best_support=best_support)


def _screen(prob: MMVProblem,
            tol: Tolerances) -> tuple[frozenset[int], float] | None:
    """Rank-aware minimum-support search: the answer of
    ``solve_mmv_exhaustive`` and its ``_support_residual`` when some r-subset
    fits, else None.

    Let t = ``tol.mmv_residual_rel``, tau = t ||V||_F, delta = tau +
    max(t, 2^20 eps) ||V||_F, and sigma_1 >= sigma_2 >= ... the singular
    values of V, with left singular vectors u_j. Let r be the number of
    sigma_j above 2 delta (sigma_{r+1} = 0 past the last one).

    A support S "fits" when the oracle's computed residual
    ``_support_residual(A, _frame(V), S)`` is at most t. The second term of
    delta allows for the rounding of that computed value (see below), so a
    fit leaves E = V - A_S C, for the computed coefficients C, with
    ||E||_2 <= ||E||_F <= delta. Then:

    1. No support with fewer than r columns fits: A_S C has rank < r, so
       by Eckart-Young ||E||_2 >= sigma_r > 2 delta.
    2. Every column of a fitting r-subset T lies near span(u_1..u_r). B =
       V - E = A_T C has sigma_r(B) >= sigma_r - delta > delta > 0, so B
       has rank r and range(B) = range(A_T). Each a_i, i in T, is B g with
       ||g|| <= ||a_i|| / sigma_r(B), and with P the projector onto
       span(u_1..u_r),
           ||(I - P) a_i|| <= ||(I - P) V g|| + ||E g||
                            <= (sigma_{r+1} + delta) ||g||
                            <= 3 delta ||a_i|| / (sigma_r - delta).
       So the screen keeps the columns M whose computed distance to
       span(u_1..u_r) is within twice that bound, and every fitting
       r-subset lies in M.

    So when r <= k_max and some r-subset fits, the oracle's answer is the
    first fitting r-subset in lexicographic order, which is the first
    fitting r-subset of M: the scan below tests those with the oracle's own
    ``_support_residual`` call, on one ``_frame(V)``, which also gives
    ||V||_F, so every fit decision is bit-identical. It returns None for
    every case it cannot settle: V = 0 or ||V||_F not finite, r = 0 or
    r > k_max, more than ``EXHAUSTIVE_GUARD`` r-subsets of M to test, and no
    fitting r-subset of M. ``_solve`` then runs the oracle,
    so the oracle's C(m, k_max) guard error, the empty support of V = 0 and
    the ``InfeasibleError`` with its ``best_residual`` and ``best_support``
    are the oracle's by construction. The argument above uses neither guard:
    the screen's own, on C(|M|, r), only bounds the work of its scan.

    Rounding. The computed relative residual of an A_S with condition
    number kappa is off by about eps kappa (backward stability of the SVD
    least-squares solve), so the allowance max(t, 2^20 eps) covers kappa up
    to ~1e7 at the default t = 1e-8; fit decisions of subsets worse than
    that are rounding noise in the oracle too. The SVD and the distances
    carry errors of a small multiple of eps ||V|| and eps ||a_i||. Since
    sigma_r - delta > delta >= 2^20 eps ||V||_F, these shift sigma_r, the
    bound and the distance by a relative ~2^-10 at most, which the factor
    two on the bound absorbs.
    """
    A, v = prob.A, prob.V
    frame = _frame(v)
    norm_v = frame[2] / frame[1]  # ||s V||_F / s
    if 0.0 < norm_v < math.inf:
        t = tol.mmv_residual_rel
        delta = (t + max(t, 2.0 ** 20 * np.finfo(np.float64).eps)) * norm_v
        u, sv, _ = np.linalg.svd(v, full_matrices=False)
        r = int(np.count_nonzero(sv > 2.0 * delta))
        if 0 < r <= prob.k_max:
            # dist and bound scale with a_i, so each column is divided by its
            # largest entry first: column norms cannot overflow or underflow.
            peak = np.max(np.abs(A), axis=0)
            cols = A / np.where(peak > 0.0, peak, 1.0)
            basis = u[:, :r]
            dist = np.linalg.norm(cols - basis @ (basis.conj().T @ cols), axis=0)
            bound = 6.0 * delta / (sv[r - 1] - delta) * np.linalg.norm(cols, axis=0)
            near = np.flatnonzero(dist <= bound).tolist()
            if math.comb(len(near), r) > EXHAUSTIVE_GUARD:
                return None
            for combo in itertools.combinations(near, r):
                residual = _support_residual(A, frame, combo)
                if residual <= t:
                    return frozenset(combo), residual
    return None


def solve_mmv_somp(prob: MMVProblem,
                   tol: Tolerances = DEFAULT_TOLERANCES) -> frozenset[int]:
    """Simultaneous orthogonal matching pursuit.

    Greedily picks the column maximizing ||a_i^H R||_2 / ||a_i||_2 against
    the current residual matrix, then re-projects V onto the selected
    columns. Stops at k_max atoms or when the relative residual drops below
    ``tol.mmv_residual_rel``. Ties break to the lowest index. The returned
    support is not verified; ``_solve`` fits it by ``_support_residual``.

    A and V are each brought into range by the power of two of
    ``_pow2_scale``, so no norm or score overflows or underflows; every
    pick reads only ratios, and an in-range problem is not touched.
    """
    a_scale, v_scale = _pow2_scale(prob.A), _pow2_scale(prob.V)
    A = prob.A if a_scale == 1.0 else a_scale * prob.A
    v = prob.V if v_scale == 1.0 else v_scale * prob.V
    norm_v = float(np.linalg.norm(v))
    if norm_v == 0.0:
        return frozenset()
    col_norms = np.linalg.norm(A, axis=0)
    a_h = A.conj().T
    selected: list[int] = []
    residual = v
    while len(selected) < prob.k_max:
        if np.linalg.norm(residual) / norm_v <= tol.mmv_residual_rel:
            break
        scores = np.linalg.norm(a_h @ residual, axis=1)
        scores = np.divide(scores, col_norms, out=np.zeros_like(scores),
                           where=col_norms > 0)
        scores[selected] = -1.0  # never reselect
        pick = int(np.argmax(scores))
        if scores[pick] <= 0:
            break
        selected.append(pick)
        a_s = A[:, sorted(selected)]
        coef, *_ = np.linalg.lstsq(a_s, v, rcond=None)
        residual = v - a_s @ coef
    return frozenset(selected)


def _solve(prob: MMVProblem, solver: str,
           tol: Tolerances) -> tuple[frozenset[int], float]:
    """(support, its ``_support_residual``) for the support ``solver`` finds.

    ``solver`` is checked first, whatever V holds; an empty V gives (empty
    support, 0.0). A screened support comes with the residual it was
    accepted on, a SOMP or oracle support with one ``_support_residual``
    call (for the oracle's, the call it was accepted on, repeated).

    A SOMP support whose residual exceeds ``tol.mmv_residual_rel`` is a miss;
    it gives way to the screen's fitting support when the screen settles, and
    stays otherwise. A miss never reaches the oracle, which could refuse or
    raise, so it costs a trial its exactness and not the run.
    """
    if solver not in SOLVERS:
        raise InvalidInputError(f"unknown solver {solver!r}; choose from {SOLVERS}")
    if solver == "somp":
        support = solve_mmv_somp(prob, tol)
    else:
        screened = _screen(prob, tol)
        if screened is not None:
            return screened
        support = solve_mmv_exhaustive(prob, tol)  # fits, or raises
    residual = _support_residual(prob.A, _frame(prob.V), support)
    if residual <= tol.mmv_residual_rel:
        return support, residual
    return _screen(prob, tol) or (support, residual)


def recover_support(y: MeasurementBank, design: MeasurementDesign, k_max: int,
                    solver: str = "exhaustive",
                    tol: Tolerances = DEFAULT_TOLERANCES) -> frozenset[int]:
    """Identify the active channel set from compressed measurements: the
    support of ``recover``, which also forms its coefficients."""
    return recover(y, design, k_max, solver, tol).support


def recover_coefficients(y: MeasurementBank, design: MeasurementDesign,
                         support, tol: Tolerances = DEFAULT_TOLERANCES) -> CoefficientBank:
    """Reconstruct the coefficient bank given a support set.

    Per grid bin: d_S(w_q) = Z_S^{-1}(w_q) A_S^+ y_tilde(w_q); channels off
    the support are exactly zero. Exact whenever the support covers the truth
    and A_S has full column rank. W and Z are re-checked as in ``validate_design``.
    """
    return _coefficients(demodulate(y, design, tol), design, support, tol)


def _coefficients(y_tilde: MeasurementBank, design: MeasurementDesign,
                  support, tol: Tolerances) -> CoefficientBank:
    """``recover_coefficients`` on measurements already demodulated; Z is
    re-checked before it is divided by, as ``demodulate`` re-checks W. One SVD
    of conj(A_S) gives A_S^+, formed bit for bit as ``numpy.linalg.pinv`` forms
    it, and the rank check, whose singular values equal A_S's up to rounding:
    only a ratio within rounding of ``tol.rank_rel_tol`` can be judged anew."""
    support = sorted(int(i) for i in set(support))
    if any(i < 0 or i >= design.m for i in support):
        raise InvalidInputError(f"support {support} out of range for m={design.m}")
    if design.Z is not None:
        design.Z.require_conditioned(tol.cond_tol, "Z")
    if not support:
        return CoefficientBank.zeros(design.m, design.grid.n)
    u, sv, vt = np.linalg.svd(design.A[:, support].conj(), full_matrices=False)
    # an A_S wider than tall has zero singular values the thin SVD leaves out
    smallest = sv[-1] if len(support) <= len(sv) else 0.0
    if smallest <= tol.rank_rel_tol * sv[0]:
        raise InvalidInputError(
            f"columns {support} of A are rank deficient (sv ratio {smallest / sv[0]:.3e})")
    s_inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=sv > _PINV_RCOND * sv[0])
    spectra = np.fft.fft(y_tilde.sequences, axis=1)
    x = (vt.T @ (s_inv[:, None] * u.T)) @ spectra  # A_S^+ y, (|S|, N)
    if design.Z is not None:
        x = x / design.Z.diagonal()[:, support].T
    sequences = np.zeros((design.m, design.grid.n), dtype=np.complex128)
    sequences[support] = np.fft.ifft(x, axis=1)
    return CoefficientBank._owned(sequences, frozenset(support))


def recover(y: MeasurementBank, design: MeasurementDesign, k_max: int,
            solver: str = "exhaustive",
            tol: Tolerances = DEFAULT_TOLERANCES) -> RecoveryResult:
    """Full pipeline with diagnostics: support, coefficients, Q spectrum.
    Q is formed from y_tilde times its exact ``_pow2_scale`` (1 in range), so
    it cannot over- or underflow; ``q_eigenvalues`` are this scaled Q's."""
    y_tilde = demodulate(y, design, tol)
    scale = _pow2_scale(y_tilde.sequences)
    q = compute_q(y_tilde if scale == 1.0 else MeasurementBank._owned(scale * y_tilde.sequences))
    v, eigvals = frame_from_q(q, tol=tol)
    support, residual = _solve(MMVProblem(design.A, v, k_max), solver, tol)
    coefficients = _coefficients(y_tilde, design, support, tol)
    diagnostics = {
        "rank_q": int(v.shape[1]),
        "residual": residual,
        "solver": solver,
        "q_eigenvalues": [float(e) for e in eigvals],
    }
    return RecoveryResult(support=support, coefficients=coefficients,
                          diagnostics=diagnostics)
