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

import functools
from dataclasses import dataclass, field

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
        _require_int(self.n, "grid size")
        if self.n < 1:
            raise InvalidInputError(f"grid size must be a positive integer, got {self.n!r}")

    @property
    def points(self) -> np.ndarray:
        return TWO_PI * np.arange(self.n) / self.n


def _require_int(value, name: str) -> int:
    """``value`` as a Python int; a bool or a non-integer is refused."""
    if type(value) is bool or not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_complex_readonly(a: np.ndarray, order: str = "K") -> np.ndarray:
    out = np.array(a, dtype=np.complex128, copy=True, order=order)
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
        if not 0 < self.period < np.inf:
            raise InvalidInputError(f"period must be finite and positive, got {self.period}")
        support = tuple(_require_int(j, "alias_support entry") for j in self.alias_support)
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
        # ascending alias axis, so equality checks are stable
        object.__setattr__(self, "alias_support", tuple(sorted(support)))
        object.__setattr__(self, "spectra",
                           _as_complex_readonly(spectra[:, :, np.argsort(support)]))

    @property
    def m(self) -> int:
        return self.spectra.shape[0]

    def lattice_frequencies(self) -> np.ndarray:
        """(N, n_alias) array of the continuous frequencies nu_{q,j}."""
        w = self.grid.points
        j = np.asarray(self.alias_support, dtype=float)
        return (w[:, None] - TWO_PI * j[None, :]) / self.period


@dataclass(frozen=True, init=False, eq=False)
class PeriodicMatrixFunction:
    """A matrix-valued 2*pi-periodic function sampled on the grid.

    ``values[q]`` is the (rows x cols) matrix at w_q. A diagonal function
    built by ``_from_diagonal`` holds only its diagonal, as n read-only,
    C-contiguous rows of length N (``_rows``). ``apply`` and ``solve`` work
    from those; everything else is derived from them on first read and kept
    (``values``, ``_unit``, ``_reciprocal``, ``_conds``): the function is
    immutable, so no cache can go stale. Only this class reads its storage.
    """

    grid: FrequencyGrid
    _rows = None  # (n, N) diagonal rows; None for a dense function

    def __init__(self, grid: FrequencyGrid, values: np.ndarray):
        values = np.asarray(values)
        if values.ndim != 3 or values.shape[0] != grid.n:
            raise DimensionError(
                f"values must be (N, rows, cols) with N={grid.n}, got {values.shape}")
        vars(self).update(grid=grid, values=_as_complex_readonly(values))

    @classmethod
    def _of_rows(cls, grid: FrequencyGrid, rows: np.ndarray,
                 **derived) -> "PeriodicMatrixFunction":
        """The diagonal function of the read-only (n, N) ``rows``, with any
        derived values already known (cached-property names) seeded."""
        func = cls.__new__(cls)
        vars(func).update(grid=grid, _rows=rows, **derived)
        return func

    @classmethod
    def _from_diagonal(cls, grid: FrequencyGrid, d: np.ndarray) -> "PeriodicMatrixFunction":
        """The exactly diagonal function whose (N, n) diagonal is ``d``, kept
        as a read-only complex copy of its n rows, in C order."""
        d = np.asarray(d)
        if d.ndim != 2 or d.shape[0] != grid.n:
            raise DimensionError(f"diagonal must be (N, n) with N={grid.n}, got {d.shape}")
        return cls._of_rows(grid, _as_complex_readonly(d.T, order="C"))

    def _columns(self, cols) -> "PeriodicMatrixFunction":
        """The diagonal function of columns ``cols``, in order: whole rows of
        the diagonal and of its reciprocals, copied once and kept read-only,
        with their all-ones flags (every entry finite and nonzero)."""
        rows, r = (np.take(a, cols, axis=0) for a in (self._rows, self._reciprocal))
        rows.setflags(write=False)
        r.setflags(write=False)
        return self._of_rows(self.grid, rows, _reciprocal=r, _unit=np.take(self._unit, cols))

    @functools.cached_property
    def _unit(self) -> np.ndarray:
        """(n,) flags of the diagonal's all-ones columns."""
        return np.all(self._rows == 1, axis=1)

    @functools.cached_property
    def _reciprocal(self) -> np.ndarray:
        """(n, N) LAPACK solutions of d x = 1, one row per diagonal row. Only
        for a finite, nonzero diagonal, as after require_conditioned."""
        d = self._rows[..., None, None]
        r = np.linalg.solve(d, np.ones_like(d))[..., 0, 0]
        r.setflags(write=False)
        return r

    @functools.cached_property
    def values(self) -> np.ndarray:
        """(N, rows, cols) read-only array of the matrices."""
        n = self.cols
        values = np.zeros((self.grid.n, n, n), dtype=np.complex128)
        values[:, np.arange(n), np.arange(n)] = self._rows.T
        values.setflags(write=False)
        return values

    @property
    def rows(self) -> int:
        return self.cols if self._rows is not None else self.values.shape[1]

    @property
    def cols(self) -> int:
        return len(self._rows) if self._rows is not None else self.values.shape[2]

    @classmethod
    def identity(cls, grid: FrequencyGrid, n: int) -> "PeriodicMatrixFunction":
        return cls._from_diagonal(grid, np.ones((grid.n, n)))

    def is_diagonal(self) -> bool:
        """Exactly diagonal: built by ``_from_diagonal``, or square with every
        nonzero entry on the diagonal (NaN counts as nonzero, -0.0 as zero)."""
        return self._rows is not None or self.rows == self.cols and \
            bool(np.count_nonzero(self.values) == np.count_nonzero(self.diagonal()))

    def diagonal(self) -> np.ndarray:
        """(N, n) array of diagonal entries."""
        if self._rows is None:
            return np.einsum("qii->qi", self.values)
        return self._rows.T

    @functools.cached_property
    def _conds(self) -> np.ndarray:
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
        return conds

    def condition_numbers(self) -> np.ndarray:
        """(N,) read-only array of per-bin 2-norm condition numbers.

        Computed on first use and kept (``_conds``). An exactly diagonal
        function takes max|d| / min|d| per bin instead of an SVD; a bin with
        a zero diagonal entry gets inf, as ``np.linalg.cond`` reports for a
        singular matrix. A bin with a NaN or infinite entry gets nan and no
        SVD.
        """
        return self._conds

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

    def apply(self, spectra: np.ndarray) -> np.ndarray:
        """values[q] @ spectra[:, q] at every bin q, for (cols, N) ``spectra``.

        Each route gives the dense einsum's bits: an all-ones diagonal returns
        ``spectra`` itself and any other diagonal takes the einsum
        ``"qi,iq->iq"`` (``d.T * spectra`` rounds differently), so a diagonal
        function never builds its dense ``values``. The all-ones test is made
        once per function (``_unit``).
        """
        if self._rows is None:
            return np.einsum("qir,rq->iq", self.values, spectra)
        if self._unit.all():
            return spectra
        return np.einsum("qi,iq->iq", self._rows.T, spectra)

    def solve(self, sequences: np.ndarray, cond_tol: float, label: str) -> np.ndarray:
        """After ``require_conditioned(cond_tol, label)``, solve values[q] x = s
        per bin for s the DFT of the (rows, N) ``sequences``, or of each bank of
        an (n, rows, N) stack, along the last axis; return ifft(x).

        Three routes give the dense solve's bits: an all-ones diagonal skips
        the solve (LAPACK returns the right-hand side of I x = b unchanged),
        any other diagonal takes ``r * s`` with r its ``_reciprocal`` (LAPACK's
        1x1 solutions of d x = 1, made once, after the check), and a dense
        function runs LAPACK on its rows x rows systems. Operand order matters:
        ``s * r``, the einsum ``"qi,iq->iq"`` and dividing by d round
        differently (up to ~1e-15 on the multiband W), which would change the
        written digits. That ``r * s`` equals the solves is observed on
        OpenBLAS with numpy's SIMD complex product, not documented;
        tests/test_structured_w.py checks it on the running build.
        """
        self.require_conditioned(cond_tol, label)
        spectra = np.fft.fft(sequences, axis=-1)
        if self._rows is None:
            # LAPACK's solutions come out transposed; return C order, as the other routes do
            solved = np.linalg.solve(self.values, spectra.swapaxes(-1, -2)[..., None])[..., 0]
            return np.ascontiguousarray(np.fft.ifft(solved.swapaxes(-1, -2), axis=-1))
        if self._unit.all():
            solved = spectra
        else:
            solved = self._reciprocal * spectra
        return np.fft.ifft(solved, axis=-1)


def _checked_support(seq: np.ndarray, support: frozenset[int] | None) -> frozenset[int]:
    """``support`` once every row of ``seq`` outside it is found exactly zero
    (-0.0 is, NaN is not); with ``support`` None, the rows that are not. One
    reduction finds the nonzero rows, with no copy: over the real view of a
    C-contiguous complex array (a complex entry is zero exactly when both its
    parts are), else over ``seq`` itself."""
    view = seq
    if np.iscomplexobj(seq) and seq.flags.c_contiguous:
        view = seq.view(seq.real.dtype)
    nonzero = frozenset(np.flatnonzero(np.any(view, axis=1)).tolist())
    if support is None:
        return nonzero
    if not support.issuperset(nonzero):
        raise InvalidInputError("channels outside the declared support must be exactly zero")
    return support


@dataclass(frozen=True)
class CoefficientBank:
    """m complex sequences of length N with circular convolution semantics.

    ``support`` is the set of channels that are not identically zero;
    channels outside it are exactly zero (enforced at construction).

    The constructor keeps a read-only complex copy. ``_owned`` keeps the
    array it is given: only the pipeline's producers (``synthesize``,
    ``zeros``, ``from_sequences``, ``ctf``'s coefficient step) call it, each
    on a complex (m, N) array it has just made (for a chunk, one slice of
    it), to spare a trial's megabyte banks a second copy. Both routes run
    the off-support zero check.
    """

    sequences: np.ndarray = field(repr=False)
    support: frozenset[int]

    def __post_init__(self):
        seq = np.asarray(self.sequences)
        if seq.ndim != 2:
            raise DimensionError(f"sequences must be (m, N), got shape {seq.shape}")
        support = frozenset(_require_int(i, "support entry") for i in self.support)
        if any(i < 0 or i >= seq.shape[0] for i in support):
            raise InvalidInputError(f"support {sorted(support)} out of range for m={seq.shape[0]}")
        _checked_support(seq, support)
        object.__setattr__(self, "sequences", _as_complex_readonly(seq))
        object.__setattr__(self, "support", support)

    @classmethod
    def _owned(cls, sequences: np.ndarray,
               support: frozenset[int] | None = None) -> "CoefficientBank":
        """The bank of a fresh complex (m, N) array, made read-only and kept;
        a support left None is inferred from the exact nonzeros."""
        support = _checked_support(sequences, support)
        sequences.setflags(write=False)
        bank = cls.__new__(cls)
        object.__setattr__(bank, "sequences", sequences)
        object.__setattr__(bank, "support", support)
        return bank

    @classmethod
    def from_sequences(cls, sequences: np.ndarray) -> "CoefficientBank":
        """Build a bank of a complex copy of ``sequences`` whose support is
        inferred from exact nonzeros."""
        seq = _as_complex_readonly(sequences)
        if seq.ndim != 2:
            raise DimensionError(f"sequences must be (m, N), got shape {seq.shape}")
        return cls._owned(seq)

    @classmethod
    def zeros(cls, m: int, n: int) -> "CoefficientBank":
        return cls._owned(np.zeros((m, n), dtype=np.complex128), frozenset())

    @property
    def m(self) -> int:
        return self.sequences.shape[0]

    @property
    def length(self) -> int:
        return self.sequences.shape[1]


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
    return np.fft.ifft(m_sa.apply(np.fft.fft(d.sequences, axis=1)), axis=1)


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
                         alias_support, rng: np.random.Generator) -> GeneratorSet:
    """Draw a random band-limited generator set whose Gram matrix has
    condition number at most 1e6 at every grid point, in at most 64 draws
    (used by tests and the verification suite).

    Requires at least m alias cells, otherwise the Gram matrix is singular by
    rank count.
    """
    alias_support = tuple(alias_support)
    if len(alias_support) < m:
        raise InvalidInputError(
            f"need at least m={m} alias cells for a Riesz family, got {len(alias_support)}")
    for _ in range(64):
        spectra = rng.standard_normal((m, grid.n, len(alias_support))) \
            + 1j * rng.standard_normal((m, grid.n, len(alias_support)))
        gens = GeneratorSet(grid, period, alias_support, spectra)
        if np.max(cross_spectrum_matrix(gens, gens).condition_numbers()) <= 1e6:
            return gens
    raise InvalidInputError("failed to draw a well-conditioned generator set")
