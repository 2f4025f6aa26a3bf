"""End-to-end scenario builders: periodic coefficient sparsity and multiband.

Both scenarios emit plain (generators, design, signal) triples that feed the
generic sampling/recovery pipeline; no scenario-specific recovery code
exists.

Generator representation note: the frequency-domain generator sets declared
here are exact on the evaluation lattice. For the piecewise-constant (box)
scenario the declared spectra are the band-limited family with the same
sampled correlation sequences as the box family; every discrete quantity in
the pipeline (cross-spectra, samples, recovered coefficients) is therefore
identical to the true box system, while waveform-level checks integrate the
true piecewise-constant waveform directly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InvalidInputError
from .sampling_design import (
    MeasurementDesign,
    biorthogonalize,
    compressive_sample,
    make_cs_matrix,
    make_design,
)
from .si_core import (
    TWO_PI,
    CoefficientBank,
    FrequencyGrid,
    GeneratorSet,
    PeriodicMatrixFunction,
    cross_spectrum,
    cross_spectrum_matrix,
    filterbank_sample,
)
from .sparse_model import SparseSISignal, SparsityProfile, synthesize
from .tolerances import DEFAULT_TOLERANCES, Tolerances


# ---------------------------------------------------------------------------
# Periodic sparsity of a single-generator signal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodicSparsityScenario:
    """Single-generator signal whose coefficients are block-sparse.

    Out of each consecutive group of m coefficients at base period T', at
    most k are nonzero, in the fixed 0-based pattern ``s_pattern``. The
    reindexed system has m generators with period m*T' and p compressed
    output sequences.
    """

    m: int
    k: int
    s_pattern: frozenset[int]
    base_period: float
    n_blocks: int
    seed: int
    p: int
    matrix_kind: str = "gaussian"

    def __post_init__(self):
        pattern = frozenset(int(i) for i in self.s_pattern)
        if len(pattern) != self.k:
            raise InvalidInputError(
                f"s_pattern {sorted(pattern)} has {len(pattern)} entries, expected k={self.k}")
        if any(i < 0 or i >= self.m for i in pattern):
            raise InvalidInputError(f"s_pattern {sorted(pattern)} out of range 0..{self.m - 1}")
        if not 1 <= self.p <= self.m:
            raise InvalidInputError(f"p={self.p} must satisfy 1 <= p <= m={self.m}")
        if self.base_period <= 0:
            raise InvalidInputError("base_period must be positive")
        if self.n_blocks < 1:
            raise InvalidInputError("n_blocks must be >= 1")
        object.__setattr__(self, "s_pattern", pattern)


def shifted_box_generators(m: int, base_period: float,
                           grid: FrequencyGrid) -> GeneratorSet:
    """The reindexed box family a_i(t) = box(t - i*T'), period T = m*T'.

    Declared spectra are the exact lattice-equivalent band-limited family
    A_i(nu) = T' * exp(-1j*nu*i*T') on [0, 2*pi/T'): it has the same sampled
    cross-correlations as the box family (the Gram matrix is T' * I), which
    is all the sampling operators ever see.
    """
    period = m * base_period
    alias_support = tuple(range(-(m - 1), 1))
    w = grid.points
    j = np.asarray(alias_support, dtype=float)
    nu = (w[:, None] - TWO_PI * j[None, :]) / period  # (N, m) lattice, inside [0, 2*pi/T')
    channels = np.arange(m)[:, None, None]
    spectra = base_period * np.exp(-1j * nu[None, :, :] * channels * base_period)
    return GeneratorSet(grid, period, alias_support, spectra)


def box_prefilter_generator(base_period: float, grid: FrequencyGrid) -> GeneratorSet:
    """The normalized box q(t) = box(t)/T' as a single generator at period T'
    (lattice-equivalent spectrum: 1 on [0, 2*pi/T'))."""
    spectra = np.ones((1, grid.n, 1), dtype=np.complex128)
    return GeneratorSet(grid, base_period, (0,), spectra)


def _base_rate_box_pair(m: int, base_period: float,
                        n_blocks: int) -> tuple[GeneratorSet, GeneratorSet]:
    """The normalized box prefilter and the box generator, both at period T'
    on the base-rate grid of m * n_blocks points."""
    base_grid = FrequencyGrid(m * n_blocks)
    a_base = GeneratorSet(base_grid, base_period, (0,),
                          base_period * np.ones((1, base_grid.n, 1)))
    return box_prefilter_generator(base_period, base_grid), a_base


@dataclass(frozen=True)
class PeriodicSparsityBuild:
    scenario: PeriodicSparsityScenario
    generators: GeneratorSet
    biorthogonal: GeneratorSet
    design: MeasurementDesign
    signal: SparseSISignal
    report: dict = field(repr=False)


@functools.lru_cache(maxsize=1)
def _periodic_frame(m: int, base_period: float, grid: FrequencyGrid,
                    tol: Tolerances) -> tuple[GeneratorSet, GeneratorSet, float, float]:
    """The A-independent part of a periodic-sparsity build: box generators,
    their biorthogonal set, and the deviations of the two construction
    identities (M_VA = I, prefilter product spectrum = 1).

    Cached on its arguments, so the checks run once per key and not once per
    A redraw. The cache holds one entry; its generator sets are immutable
    (read-only arrays), so sharing them between builds is safe. A failed
    check raises and caches nothing.
    """
    generators = shifted_box_generators(m, base_period, grid)
    v = biorthogonalize(generators, generators, tol)
    m_va = cross_spectrum_matrix(v, generators)
    m_va_dev = float(np.max(np.abs(
        m_va.values - np.eye(m)[None, :, :])))
    if m_va_dev > tol.biorth_tol:
        raise InvalidInputError(
            f"biorthogonality identity failed: max deviation {m_va_dev:.3e}")

    # prefilter identity on the base-rate grid: the product spectrum of the
    # normalized box against the box generator is identically one
    g_values = cross_spectrum(*_base_rate_box_pair(m, base_period, grid.n))
    g_dev = float(np.max(np.abs(g_values - 1.0)))
    return generators, v, m_va_dev, g_dev


def build_periodic_sparsity(sc: PeriodicSparsityScenario,
                            tol: Tolerances = DEFAULT_TOLERANCES) -> PeriodicSparsityBuild:
    """Assemble the m-generator reformulation, its biorthogonal set, the
    design (A drawn from the seed, W = I) and a block-sparse signal.

    The build verifies the two construction identities numerically: the
    prefilter/generator product spectrum is identically 1 on the base-rate
    grid, and the biorthogonal cross-spectrum matrix is the identity. That
    part does not depend on A or the seed and is cached on (m, base_period,
    grid, tol), so repeated builds, such as the trials of a Monte Carlo run,
    share one generator set and one biorthogonal set and run the checks once.

    The build's first use of ``default_rng(sc.seed)`` is the draw of A, by
    ``make_cs_matrix(sc.matrix_kind, sc.p, sc.m, rng)``; the coefficients are
    drawn after it. A caller can therefore redraw only A to find an acceptable
    seed, then build the scenario once with that seed and get the same A.
    """
    grid = FrequencyGrid(sc.n_blocks)
    generators, v, m_va_dev, g_dev = _periodic_frame(sc.m, sc.base_period, grid, tol)

    rng = np.random.default_rng(sc.seed)
    a_matrix = make_cs_matrix(sc.matrix_kind, sc.p, sc.m, rng)
    design = make_design(a_matrix, grid, tol=tol)  # W = I

    profile = SparsityProfile(sc.m, sc.k, sc.s_pattern)
    coefficients = synthesize(profile, sc.n_blocks, rng)
    signal = SparseSISignal(profile, coefficients, generators)

    report = {
        "m_va_deviation": m_va_dev,
        "prefilter_identity_deviation": g_dev,
        "baseline_rate": 1.0 / sc.base_period,
        "compressed_rate": sc.p / (sc.m * sc.base_period),
        "compression_factor": sc.p / sc.m,
    }
    return PeriodicSparsityBuild(sc, generators, v, design, signal, report)


def flatten_block_coefficients(bank: CoefficientBank) -> np.ndarray:
    """Interleave channel sequences back into the flat base-rate sequence:
    d_flat[l + n*m] = d_l[n]."""
    return bank.sequences.T.reshape(-1)


def baseline_reference_samples(build: PeriodicSparsityBuild) -> np.ndarray:
    """The uncompressed reference path: one sequence at the base rate whose
    samples equal the flat coefficients (prefilter-then-sample, m = 1)."""
    sc = build.scenario
    m_qa = cross_spectrum_matrix(*_base_rate_box_pair(sc.m, sc.base_period, sc.n_blocks))
    flat = flatten_block_coefficients(build.signal.coefficients)
    d_flat = CoefficientBank.from_sequences(flat[None, :])
    return filterbank_sample(d_flat, m_qa)[0]


def piecewise_constant_waveform_check(build: PeriodicSparsityBuild,
                                      resolution: int = 64,
                                      tol: Tolerances = DEFAULT_TOLERANCES) -> dict:
    """Integrate the modulated true waveform and compare with the filter-bank
    samples.

    Each output sample is the integral over one length-(m*T') block of the
    waveform times the conjugated sampling filter, a piecewise-constant
    function with values A[i, l]/T' on base cell l. The integrand is constant
    on every fine cell (cell width divides T'), so per-cell rectangle sums
    integrate it exactly; the tolerance covers float accumulation only.
    """
    sc = build.scenario
    h = sc.base_period / resolution
    # the true waveform on the fine cells, as (blocks, base cell, fine cell)
    flat = flatten_block_coefficients(build.signal.coefficients)
    cells = np.repeat(flat, resolution).reshape(sc.n_blocks, sc.m, resolution)
    base_cell_integrals = cells.sum(axis=2) * h  # (blocks, m)
    modulator = build.design.A / sc.base_period  # conj(s_i) values per base cell
    y_quad = np.einsum("il,nl->in", modulator, base_cell_integrals)

    y_fb = compressive_sample(build.signal.coefficients, build.design, tol).sequences
    scale = float(np.max(np.abs(y_fb)))
    max_err = float(np.max(np.abs(y_quad - y_fb)))
    rel_err = max_err / scale if scale > 0 else max_err
    return {
        "max_relative_error": rel_err,
        "passed": bool(rel_err <= tol.quadrature_rel_tol),
        "samples_quadrature": y_quad,
        "samples_filterbank": y_fb,
    }


# ---------------------------------------------------------------------------
# Multiband sampling via coset delays
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultibandScenario:
    """Complex multiband signal observed through delayed sub-grid sampling.

    The band-limited range [0, 2*pi/T) is split into m equal slices; a signal
    with n_bands bands of width <= band_width occupies at most 2*n_bands
    slices. Sampling uses p distinct integer coset offsets c_i.
    """

    n_bands: int
    band_width: float
    m: int
    T: float
    cosets: tuple[int, ...]
    seed: int
    n_samples: int = 32

    def __post_init__(self):
        if self.n_bands < 1:
            raise InvalidInputError("n_bands must be >= 1")
        if self.T <= 0 or self.band_width <= 0:
            raise InvalidInputError("T and band_width must be positive")
        if self.m * self.band_width * self.T > TWO_PI * (1 + 1e-12):
            raise InvalidInputError(
                f"band_width={self.band_width:.6g} too wide for m={self.m} slices: need "
                f"m <= 2*pi/(band_width*T) = {TWO_PI / (self.band_width * self.T):.3f} "
                f"so each band spans <= 2 slices")
        cosets = tuple(int(c) for c in self.cosets)
        if any(c < 0 or c > self.m for c in cosets):
            raise InvalidInputError(f"cosets {cosets} must lie in 0..m={self.m}")
        if len(set(c % self.m for c in cosets)) != len(cosets):
            raise InvalidInputError(f"cosets {cosets} must be distinct mod m")
        if len(cosets) > self.m:
            raise InvalidInputError("more cosets than slices")
        if self.n_samples < 1:
            raise InvalidInputError("n_samples must be >= 1")
        object.__setattr__(self, "cosets", cosets)

    @property
    def p(self) -> int:
        return len(self.cosets)


@functools.lru_cache(maxsize=1)
def multiband_slice_generators(m: int, T: float, grid: FrequencyGrid) -> GeneratorSet:
    """m orthonormal brick-wall slice generators covering [0, 2*pi/T).

    Slice i has constant value sqrt(m*T) on [i*2*pi/(m*T), (i+1)*2*pi/(m*T))
    and is exactly zero elsewhere, so the Gram matrix is the identity.

    The last result is cached: it depends only on (m, T, grid), which a
    Monte Carlo run keeps fixed, and a GeneratorSet is immutable (read-only
    spectra), so every caller can share the one (m, N, m) array."""
    period = m * T
    alias_support = tuple(range(-(m - 1), 1))
    spectra = np.zeros((m, grid.n, m), dtype=np.complex128)
    for i in range(m):
        j_index = alias_support.index(-i)
        spectra[i, :, j_index] = np.sqrt(m * T)
    return GeneratorSet(grid, period, alias_support, spectra)


@functools.lru_cache(maxsize=1)
def _coset_shaping_table(m: int, T: float, grid: FrequencyGrid) -> PeriodicMatrixFunction:
    """Diagonal function with column c = exp(1j*c*w_q/m)/sqrt(T) for each coset
    c in 0..m, and its reciprocal if every entry is finite and nonzero."""
    w = grid.points
    diag = np.empty((grid.n, m + 1), dtype=np.complex128)
    for c in range(m + 1):
        diag[:, c] = np.exp(1j * c * w / m) / np.sqrt(T)
    table = PeriodicMatrixFunction._from_diagonal(grid, diag)
    if np.all(np.isfinite(table.condition_numbers())):
        table._reciprocal()
    return table


def multiband_shaping_bank(sc: MultibandScenario,
                           grid: FrequencyGrid) -> PeriodicMatrixFunction:
    """Diagonal shaping bank with entries exp(1j*c_i*w_q/m)/sqrt(T), read from
    the cached coset table with its reciprocals: no exp and no LAPACK call."""
    return _coset_shaping_table(sc.m, sc.T, grid)._columns(sc.cosets)


@dataclass(frozen=True)
class MultibandBuild:
    scenario: MultibandScenario
    generators: GeneratorSet
    design: MeasurementDesign
    signal: SparseSISignal
    report: dict = field(repr=False)


def build_multiband(sc: MultibandScenario,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> MultibandBuild:
    """Construct slice generators, the coset-row mixing matrix, the diagonal
    shaping bank and a sparse multiband signal occupying <= 2*n_bands slices.

    The slice generators come from the one-entry cache of
    ``multiband_slice_generators``: they depend only on (m, T, N), so builds
    that share those values share one immutable generator set.
    """
    grid = FrequencyGrid(sc.n_samples)
    generators = multiband_slice_generators(sc.m, sc.T, grid)

    a_matrix = make_cs_matrix("fourier_rows", sc.p, sc.m,
                              np.random.default_rng(sc.seed), cosets=sc.cosets)
    design = make_design(a_matrix, grid, W=multiband_shaping_bank(sc, grid), tol=tol)

    rng = np.random.default_rng(sc.seed)
    slice_width = TWO_PI / (sc.m * sc.T)
    active: set[int] = set()
    band_edges = []
    for _ in range(sc.n_bands):
        start = rng.uniform(0.0, TWO_PI / sc.T - sc.band_width)
        stop = start + sc.band_width
        first = int(start // slice_width)
        last = int((stop * (1 - 1e-12)) // slice_width)
        active.update(range(first, min(last, sc.m - 1) + 1))
        band_edges.append((float(start), float(stop)))

    profile = SparsityProfile(sc.m, len(active), frozenset(active))
    coefficients = synthesize(profile, sc.n_samples, rng)
    signal = SparseSISignal(profile, coefficients, generators)

    report = {
        "active_slices": sorted(active),
        "band_edges": band_edges,
        "k_max": 2 * sc.n_bands,
    }
    return MultibandBuild(sc, generators, design, signal, report)


def delay_filter_equivalence_check(build: MultibandBuild, n_points: int = 512,
                                   tol: Tolerances = DEFAULT_TOLERANCES) -> dict:
    """Verify that each synthesized sampling branch acts as a pure delay.

    Evaluates G_i(w) = W_i*(e^{j*w*m*T}) * sum_l conj(A[i, l]) A_l(w) on a
    dense grid inside [0, 2*pi/T) and compares with exp(-1j*c_i*w*T).
    """
    sc = build.scenario
    omega = np.arange(n_points) * (TWO_PI / sc.T) / n_points
    slice_width = TWO_PI / (sc.m * sc.T)
    ell = np.minimum((omega // slice_width).astype(int), sc.m - 1)
    wrapped = omega * sc.m * sc.T - TWO_PI * ell  # w*m*T reduced to [0, 2*pi)
    max_dev = 0.0
    for i, c in enumerate(sc.cosets):
        w_conj = np.exp(-1j * c * wrapped / sc.m) / np.sqrt(sc.T)
        slice_sum = np.sqrt(sc.m * sc.T) * np.conj(build.design.A[i, ell])
        g = w_conj * slice_sum
        target = np.exp(-1j * c * omega * sc.T)
        max_dev = max(max_dev, float(np.max(np.abs(g - target))))
    return {
        "max_deviation": max_dev,
        "passed": bool(max_dev <= tol.delay_identity_tol),
        "n_points": n_points,
    }


def fractional_delay_demodulate(y: np.ndarray, coset: int, m: int,
                                T: float = 1.0) -> np.ndarray:
    """Realize the scaled fractional delay c/m by a multirate time chain.

    Upsample by m, apply the ideal one-sided circular low-pass (passband
    [0, 2*pi/m) on the upsampled grid, gain m), circularly delay by ``coset``
    samples, downsample by m, and scale by 1/sqrt(T). On the DFT grid this
    equals multiplying the spectrum by exp(-1j*coset*w_q/m)/sqrt(T).
    """
    y = np.asarray(y, dtype=np.complex128)
    if y.ndim != 1:
        raise DimensionError("fractional_delay_demodulate expects a single sequence")
    n = y.shape[0]
    up = np.zeros(m * n, dtype=np.complex128)
    up[::m] = y
    spectrum = np.fft.fft(up)
    spectrum[n:] = 0.0
    spectrum *= m
    delayed = np.roll(np.fft.ifft(spectrum), coset)
    return delayed[::m] / np.sqrt(T)


def fractional_delay_direct(y: np.ndarray, coset: int, m: int,
                            T: float = 1.0) -> np.ndarray:
    """Frequency-domain counterpart of the fractional-delay chain."""
    y = np.asarray(y, dtype=np.complex128)
    n = y.shape[0]
    w = TWO_PI * np.arange(n) / n
    return np.fft.ifft(np.fft.fft(y) * np.exp(-1j * coset * w / m)) / np.sqrt(T)
