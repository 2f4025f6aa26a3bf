"""Shift-invariant space machinery on a uniform frequency grid.

All spectral quantities live on an N-point grid of digital frequencies
``w_q = 2*pi*q/N``. Length-N sequences carry circular (DFT) convolution
semantics, so a per-bin matrix product and the corresponding time-domain
circular filtering are exactly equivalent, and every alias sum is a finite,
exact sum over a declared support.

Sign convention: the grid spectrum of a sequence ``x[n]`` is the standard
forward DFT ``X(w_q) = sum_n x[n] exp(-1j*w_q*n)`` (``numpy.fft.fft``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, InvalidInputError, SingularOperatorError
from .tolerances import DEFAULT_TOLERANCES, Tolerances

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class FrequencyGrid:
    """N-point uniform grid of digital frequencies w_q = 2*pi*q/N in [0, 2*pi).

    N = 1 is permitted as the degenerate static case (single bin at w = 0),
    where the whole pipeline reduces to plain matrix-vector products.
    """

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise InvalidInputError(f"grid size must be a positive integer, got {self.n!r}")

    @property
    def points(self) -> np.ndarray:
        return TWO_PI * np.arange(self.n) / self.n

    def __len__(self) -> int:
        return self.n


def _as_complex_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GeneratorSet:
    """Frequency-domain description of m generators with finite alias support.

    ``spectra[l, q, j]`` holds the value of generator l's transform at the
    lattice frequency ``nu = (w_q - 2*pi*alias_support[j]) / period``. The
    represented generator is exactly zero outside the declared lattice cells,
    which is what makes every cross-spectrum alias sum finite and exact.
    """

    grid: FrequencyGrid
    period: float
    alias_support: tuple[int, ...]
    spectra: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.period <= 0:
            raise InvalidInputError(f"period must be positive, got {self.period}")
        support = tuple(int(j) for j in self.alias_support)
        if len(support) == 0:
            raise InvalidInputError("alias_support must be non-empty")
        if len(set(support)) != len(support):
            raise InvalidInputError("alias_support entries must be distinct")
        spectra = np.asarray(self.spectra)
        if spectra.ndim != 3:
            raise DimensionError(f"spectra must be (m, N, n_alias), got shape {spectra.shape}")
        if spectra.shape[1] != self.grid.n or spectra.shape[2] != len(support):
            raise DimensionError(
                f"spectra shape {spectra.shape} inconsistent with grid N={self.grid.n} "
                f"and alias support of size {len(support)}")
        # normalize the alias axis to ascending order so equality checks are stable
        order = np.argsort(support)
        object.__setattr__(self, "alias_support", tuple(support[i] for i in order))
        object.__setattr__(self, "spectra", _as_complex_readonly(spectra[:, :, order]))

    @property
    def m(self) -> int:
        return self.spectra.shape[0]

    def lattice_frequencies(self) -> np.ndarray:
        """(N, n_alias) array of the continuous frequencies nu_{q,j}."""
        w = self.grid.points
        j = np.asarray(self.alias_support, dtype=float)
        return (w[:, None] - TWO_PI * j[None, :]) / self.period


@dataclass(frozen=True)
class PeriodicMatrixFunction:
    """A matrix-valued 2*pi-periodic function sampled on the grid.

    ``values[q]`` is the (rows x cols) matrix at w_q.
    """

    grid: FrequencyGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 3 or values.shape[0] != self.grid.n:
            raise DimensionError(
                f"values must be (N, rows, cols) with N={self.grid.n}, got {values.shape}")
        object.__setattr__(self, "values", _as_complex_readonly(values))

    @property
    def rows(self) -> int:
        return self.values.shape[1]

    @property
    def cols(self) -> int:
        return self.values.shape[2]

    @classmethod
    def identity(cls, grid: FrequencyGrid, n: int) -> "PeriodicMatrixFunction":
        values = np.broadcast_to(np.eye(n, dtype=np.complex128), (grid.n, n, n))
        return cls(grid, values)

    def is_diagonal(self) -> bool:
        """Exactly diagonal: square, and every nonzero entry lies on the
        diagonal (NaN counts as nonzero, -0.0 as zero)."""
        return self.rows == self.cols and \
            bool(np.count_nonzero(self.values) == np.count_nonzero(self.diagonal()))

    def diagonal(self) -> np.ndarray:
        """(N, n) array of diagonal entries."""
        return np.einsum("qii->qi", self.values)

    def condition_numbers(self) -> np.ndarray:
        """(N,) read-only array of per-bin 2-norm condition numbers.

        Computed on first use and kept on the object: ``values`` is read-only,
        so the cache cannot go stale. An exactly diagonal function takes
        max|d| / min|d| per bin instead of an SVD; a bin with a zero diagonal
        entry gets inf, as ``np.linalg.cond`` reports for a singular matrix.
        A bin with a NaN or infinite entry gets nan and no SVD.
        """
        conds = self.__dict__.get("_condition_numbers")
        if conds is None:
            if self.is_diagonal():
                mag = np.abs(self.diagonal())
                finite = np.all(np.isfinite(mag), axis=1)
                lo = np.min(mag, axis=1)
                conds = np.where(finite, np.inf, np.nan)
                np.divide(np.max(mag, axis=1), lo, out=conds, where=finite & (lo > 0))
            else:
                finite = np.all(np.isfinite(self.values), axis=(1, 2))
                conds = np.full(self.grid.n, np.nan)
                conds[finite] = np.linalg.cond(self.values[finite])
            conds.setflags(write=False)
            object.__setattr__(self, "_condition_numbers", conds)
        return conds

    def require_conditioned(self, cond_tol: float, label: str) -> None:
        """Raise an error naming the first grid point whose condition number
        exceeds ``cond_tol`` (inf always does): InvalidInputError when that
        bin has a NaN or infinite entry, else SingularOperatorError."""
        conds = self.condition_numbers()
        bad = np.flatnonzero(~(conds <= cond_tol))
        if bad.size:
            q = int(bad[0])
            if np.isnan(conds[q]):
                raise InvalidInputError(f"{label} has a NaN or infinite entry at grid point {q}")
            raise SingularOperatorError(
                f"{label} singular at grid point {q}: "
                f"cond={conds[q]:.3e} exceeds {cond_tol:.1e}", grid_index=q)

    def solve(self, sequences: np.ndarray, cond_tol: float, label: str) -> np.ndarray:
        """After ``require_conditioned(cond_tol, label)``, solve values[q] x = s
        per bin for s the DFT of the (rows, N) ``sequences``; return ifft(x)."""
        self.require_conditioned(cond_tol, label)
        spectra = np.fft.fft(sequences, axis=1)
        # A general solve even for diagonal W: dividing by the diagonal rounds
        # differently (up to ~1e-15 on the multiband W), which would change the
        # recovered coefficients in their last digits and so the written outputs.
        solved = np.linalg.solve(self.values, spectra.T[:, :, None])[:, :, 0]
        return np.fft.ifft(solved.T, axis=1)


@dataclass(frozen=True)
class CoefficientBank:
    """m complex sequences of length N with circular convolution semantics.

    ``support`` is the set of channels that are not identically zero;
    channels outside it are exactly zero (enforced at construction).
    """

    sequences: np.ndarray = field(repr=False)
    support: frozenset[int]

    def __post_init__(self):
        seq = np.asarray(self.sequences)
        if seq.ndim != 2:
            raise DimensionError(f"sequences must be (m, N), got shape {seq.shape}")
        support = frozenset(int(i) for i in self.support)
        if any(i < 0 or i >= seq.shape[0] for i in support):
            raise InvalidInputError(f"support {sorted(support)} out of range for m={seq.shape[0]}")
        off = sorted(set(range(seq.shape[0])) - support)
        if off and np.any(seq[off] != 0):
            raise InvalidInputError("channels outside the declared support must be exactly zero")
        object.__setattr__(self, "sequences", _as_complex_readonly(seq))
        object.__setattr__(self, "support", support)

    @classmethod
    def from_sequences(cls, sequences: np.ndarray,
                       support=None) -> "CoefficientBank":
        """Build a bank; with ``support=None`` it is inferred from exact nonzeros."""
        seq = np.asarray(sequences, dtype=np.complex128)
        if support is None:
            support = frozenset(int(i) for i in range(seq.shape[0]) if np.any(seq[i] != 0))
        return cls(seq, frozenset(support))

    @classmethod
    def zeros(cls, m: int, n: int) -> "CoefficientBank":
        return cls(np.zeros((m, n), dtype=np.complex128), frozenset())

    @property
    def m(self) -> int:
        return self.sequences.shape[0]

    @property
    def length(self) -> int:
        return self.sequences.shape[1]


class RieszReport(NamedTuple):
    ok: bool
    min_eigenvalue: float
    max_eigenvalue: float


def _check_compatible(s: GeneratorSet, a: GeneratorSet) -> None:
    if s.grid.n != a.grid.n:
        raise DimensionError(f"grid mismatch: {s.grid.n} vs {a.grid.n}")
    if s.period != a.period:
        raise DimensionError(f"period mismatch: {s.period} vs {a.period}")
    if s.alias_support != a.alias_support:
        raise DimensionError(
            f"alias support mismatch: {s.alias_support} vs {a.alias_support}")


def cross_spectrum(s: GeneratorSet, a: GeneratorSet,
                   s_channel: int = 0, a_channel: int = 0) -> np.ndarray:
    """Sampled cross-correlation spectrum of one (s, a) generator pair.

    Returns the length-N array
    ``phi(w_q) = (1/T) * sum_j conj(S(nu_qj)) * A(nu_qj)``
    with the sum running over the shared finite alias support, so it is exact.
    """
    _check_compatible(s, a)
    return np.sum(np.conj(s.spectra[s_channel]) * a.spectra[a_channel], axis=1) / s.period


def cross_spectrum_matrix(s: GeneratorSet, a: GeneratorSet) -> PeriodicMatrixFunction:
    """Matrix of cross-spectra: entry (i, l) at w_q pairs s-channel i with a-channel l."""
    _check_compatible(s, a)
    values = np.einsum("iqj,lqj->qil", np.conj(s.spectra), a.spectra) / s.period
    return PeriodicMatrixFunction(s.grid, values)


def riesz_check(m_aa: PeriodicMatrixFunction, alpha: float, beta: float,
                tol: Tolerances = DEFAULT_TOLERANCES) -> RieszReport:
    """Check the frame-bound condition alpha*I <= M_AA(w_q) <= beta*I on the grid.

    The matrix function must be Hermitian at every grid point up to
    ``tol.hermitian_tol``; it is symmetrized before the eigensolve.
    """
    if m_aa.rows != m_aa.cols:
        raise DimensionError("riesz_check requires a square matrix function")
    if alpha <= 0 or beta <= 0:
        raise InvalidInputError("frame bounds must be positive")
    values = m_aa.values
    herm = np.conj(np.swapaxes(values, 1, 2))
    dev = np.max(np.abs(values - herm)) if values.size else 0.0
    if dev > tol.hermitian_tol:
        raise InvalidInputError(
            f"matrix function is non-Hermitian: max deviation {dev:.3e} "
            f"exceeds {tol.hermitian_tol:.3e}")
    eigs = np.linalg.eigvalsh((values + herm) / 2.0)
    min_eig = float(np.min(eigs))
    max_eig = float(np.max(eigs))
    return RieszReport(alpha <= min_eig and max_eig <= beta, min_eig, max_eig)


def filterbank_sample(d: CoefficientBank, m_sa: PeriodicMatrixFunction) -> np.ndarray:
    """Push a coefficient bank through the multichannel sampling operator.

    Output channel i at bin q is ``sum_l M[q, i, l] * D_l(w_q)``; the returned
    time-domain bank (rows x N) is its inverse DFT, i.e. the circular
    convolution realization of the filter bank.
    """
    if m_sa.cols != d.m:
        raise DimensionError(f"operator has {m_sa.cols} columns but bank has {d.m} channels")
    if m_sa.grid.n != d.length:
        raise DimensionError(f"grid length {m_sa.grid.n} != sequence length {d.length}")
    spectra = np.fft.fft(d.sequences, axis=1)
    out = np.einsum("qil,lq->iq", m_sa.values, spectra)
    return np.fft.ifft(out, axis=1)


def reconstruct_subspace(c: np.ndarray, m_sa: PeriodicMatrixFunction,
                         tol: Tolerances = DEFAULT_TOLERANCES) -> CoefficientBank:
    """Invert the sampling operator per grid point: solve M(w_q) d(w_q) = c(w_q).

    Raises as ``PeriodicMatrixFunction.require_conditioned`` does, naming the
    first grid point whose condition number exceeds ``tol.cond_tol``.
    """
    c = np.asarray(c, dtype=np.complex128)
    if m_sa.rows != m_sa.cols:
        raise DimensionError("reconstruction requires a square sampling operator")
    if c.shape != (m_sa.rows, m_sa.grid.n):
        raise DimensionError(
            f"sample bank shape {c.shape} incompatible with operator "
            f"({m_sa.rows} channels, N={m_sa.grid.n})")
    return CoefficientBank.from_sequences(m_sa.solve(c, tol.cond_tol, "sampling operator"))


def random_generator_set(m: int, grid: FrequencyGrid, period: float,
                         alias_support, rng: np.random.Generator,
                         max_cond: float = 1e6, max_draws: int = 64) -> GeneratorSet:
    """Draw a random band-limited generator set whose Gram matrix is well
    conditioned at every grid point (used by tests and the verification suite).

    Requires at least m alias cells, otherwise the Gram matrix is singular by
    rank count.
    """
    alias_support = tuple(int(j) for j in alias_support)
    if len(alias_support) < m:
        raise InvalidInputError(
            f"need at least m={m} alias cells for a Riesz family, got {len(alias_support)}")
    for _ in range(max_draws):
        spectra = rng.standard_normal((m, grid.n, len(alias_support))) \
            + 1j * rng.standard_normal((m, grid.n, len(alias_support)))
        gens = GeneratorSet(grid, period, alias_support, spectra)
        gram = cross_spectrum_matrix(gens, gens)
        if np.max(np.linalg.cond(gram.values)) <= max_cond:
            return gens
    raise InvalidInputError("failed to draw a well-conditioned generator set")
