"""End-to-end scenario builders: periodic coefficient sparsity and multiband.

Both scenario builds emit a ``ScenarioBuild``: the design (A, W), the planted
coefficient bank and a report. That is the finite problem y(w) = W(w) A d(w)
the generic sampling/recovery pipeline solves; no scenario-specific recovery
code exists. The analog objects that justify it, the generator sets and their
biorthogonal sets, come from their own functions (``shifted_box_generators``,
``multiband_slice_generators``), which no build calls.

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
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InvalidInputError
from .sampling_design import (
    MeasurementDesign,
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
    cross_spectrum_matrix,
    filterbank_sample,
)
from .sparse_model import SparsityProfile, synthesize
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
        if not 0 < self.base_period < math.inf:
            raise InvalidInputError(
                f"base_period must be finite and positive, got {self.base_period}")
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


def _base_rate_box_pair(m: int, base_period: float,
                        n_blocks: int) -> tuple[GeneratorSet, GeneratorSet]:
    """The normalized box prefilter q(t) = box(t)/T' and the box generator,
    both at period T' on the base-rate grid of m * n_blocks points
    (lattice-equivalent spectra: 1 and T' on [0, 2*pi/T'))."""
    base_grid = FrequencyGrid(m * n_blocks)
    ones = np.ones((1, base_grid.n, 1), dtype=np.complex128)
    return (GeneratorSet(base_grid, base_period, (0,), ones),
            GeneratorSet(base_grid, base_period, (0,), base_period * ones))


@dataclass(frozen=True)
class ScenarioBuild:
    """What a Monte Carlo trial reads from a scenario: the design, the planted
    coefficient bank and a report (rates, or the active slices and k_max)."""

    scenario: PeriodicSparsityScenario | MultibandScenario
    design: MeasurementDesign
    coefficients: CoefficientBank
    report: dict = field(repr=False)


def build_periodic_sparsity(sc: PeriodicSparsityScenario,
                            tol: Tolerances = DEFAULT_TOLERANCES) -> ScenarioBuild:
    """Assemble the m-generator reformulation's design (A drawn from the seed,
    W = I) and a block-sparse coefficient bank.

    The box generators and their biorthogonal set do not enter the design, so
    the build makes neither; the ``scenarios.periodic_identities`` check of
    ``verify`` builds them and checks the two construction identities.
    """
    grid = FrequencyGrid(sc.n_blocks)
    rng = np.random.default_rng(sc.seed)
    a_matrix = make_cs_matrix(sc.matrix_kind, sc.p, sc.m, rng)
    design = make_design(a_matrix, grid, tol=tol)  # W = I

    profile = SparsityProfile(sc.m, sc.k, sc.s_pattern)
    coefficients = synthesize(profile, sc.n_blocks, rng)

    report = {
        "baseline_rate": 1.0 / sc.base_period,
        "compressed_rate": sc.p / (sc.m * sc.base_period),
        "compression_factor": sc.p / sc.m,
    }
    return ScenarioBuild(sc, design, coefficients, report)


def flatten_block_coefficients(bank: CoefficientBank) -> np.ndarray:
    """Interleave channel sequences back into the flat base-rate sequence:
    d_flat[l + n*m] = d_l[n]."""
    return bank.sequences.T.reshape(-1)


def baseline_reference_samples(build: ScenarioBuild) -> np.ndarray:
    """The uncompressed reference path: one sequence at the base rate whose
    samples equal the flat coefficients (prefilter-then-sample, m = 1)."""
    sc = build.scenario
    m_qa = cross_spectrum_matrix(*_base_rate_box_pair(sc.m, sc.base_period, sc.n_blocks))
    flat = flatten_block_coefficients(build.coefficients)
    d_flat = CoefficientBank.from_sequences(flat[None, :])
    return filterbank_sample(d_flat, m_qa)[0]


def piecewise_constant_waveform_check(build: ScenarioBuild,
                                      tol: Tolerances = DEFAULT_TOLERANCES) -> dict:
    """Integrate the modulated true waveform and compare with the filter-bank
    samples.

    Each output sample is the integral over one length-(m*T') block of the
    waveform times the conjugated sampling filter, a piecewise-constant
    function with values A[i, l]/T' on base cell l. The integrand is constant
    on every fine cell (64 to a base cell, so the width divides T'), so
    per-cell rectangle sums integrate it exactly, and ``quadrature_rel_tol``,
    which ``verify`` judges the returned error against, covers float
    accumulation only.
    """
    sc = build.scenario
    resolution = 64
    h = sc.base_period / resolution
    # the true waveform on the fine cells, as (blocks, base cell, fine cell)
    flat = flatten_block_coefficients(build.coefficients)
    cells = np.repeat(flat, resolution).reshape(sc.n_blocks, sc.m, resolution)
    base_cell_integrals = cells.sum(axis=2) * h  # (blocks, m)
    modulator = build.design.A / sc.base_period  # conj(s_i) values per base cell
    y_quad = np.einsum("il,nl->in", modulator, base_cell_integrals)

    y_fb = compressive_sample(build.coefficients, build.design, tol).sequences
    scale = float(np.max(np.abs(y_fb)))
    max_err = float(np.max(np.abs(y_quad - y_fb)))
    rel_err = max_err / scale if scale > 0 else max_err
    return {
        "max_relative_error": rel_err,
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
        for name in ("T", "band_width"):
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidInputError(
                    f"{name} must be finite and positive, got {getattr(self, name)}")
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
        if self.n_samples < 1:
            raise InvalidInputError("n_samples must be >= 1")
        object.__setattr__(self, "cosets", cosets)

    @property
    def p(self) -> int:
        return len(self.cosets)


def multiband_slice_generators(m: int, T: float, grid: FrequencyGrid) -> GeneratorSet:
    """m orthonormal brick-wall slice generators covering [0, 2*pi/T).

    Slice i has constant value sqrt(m*T) on [i*2*pi/(m*T), (i+1)*2*pi/(m*T))
    and is exactly zero elsewhere, so the Gram matrix is the identity."""
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
    c in 0..m. For the finite positive T a scenario holds, every entry is
    finite and nonzero."""
    w = grid.points
    diag = np.empty((grid.n, m + 1), dtype=np.complex128)
    for c in range(m + 1):
        diag[:, c] = np.exp(1j * c * w / m) / np.sqrt(T)
    return PeriodicMatrixFunction._from_diagonal(grid, diag)


def multiband_shaping_bank(sc: MultibandScenario,
                           grid: FrequencyGrid) -> PeriodicMatrixFunction:
    """Diagonal shaping bank with entries exp(1j*c_i*w_q/m)/sqrt(T), read with
    their reciprocals from the cached coset table, which computes both once
    per (m, T, grid): a trial makes no exp and no LAPACK call."""
    return _coset_shaping_table(sc.m, sc.T, grid)._columns(sc.cosets)


def build_multiband(sc: MultibandScenario,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> ScenarioBuild:
    """Construct the coset-row mixing matrix, the diagonal shaping bank and a
    sparse multiband coefficient bank occupying <= 2*n_bands slices."""
    grid = FrequencyGrid(sc.n_samples)
    rng = np.random.default_rng(sc.seed)
    a_matrix = make_cs_matrix("fourier_rows", sc.p, sc.m, rng, cosets=sc.cosets)
    design = make_design(a_matrix, grid, W=multiband_shaping_bank(sc, grid), tol=tol)

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

    report = {
        "active_slices": sorted(active),
        "band_edges": band_edges,
        "k_max": 2 * sc.n_bands,
    }
    return ScenarioBuild(sc, design, coefficients, report)


def delay_filter_equivalence_check(build: ScenarioBuild) -> dict:
    """Measure how far each synthesized sampling branch is from a pure delay.

    Evaluates G_i(w) = W_i*(e^{j*w*m*T}) * sum_l conj(A[i, l]) A_l(w) on a
    dense grid of 512 points inside [0, 2*pi/T) and returns its largest
    deviation from exp(-1j*c_i*w*T) over all branches.
    """
    sc = build.scenario
    n_points = 512
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
    return {"max_deviation": max_dev, "n_points": n_points}


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
