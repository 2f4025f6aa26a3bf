"""End-to-end scenario builders: periodic coefficient sparsity and multiband.

A scenario is described once, by an ``experiments.ExperimentConfig`` in mode
``periodic_sparsity`` or ``multiband``, which validates its fields. Both
builders read such a config and a scenario seed, and emit a ``ScenarioBuild``:
the config, the design (A, W), the planted coefficient bank and a report. That
is the finite problem y(w) = W(w) A d(w) the generic sampling/recovery
pipeline solves; no scenario-specific recovery code exists. The analog
objects that justify it, the generator sets and their biorthogonal sets, come
from their own functions (``shifted_box_generators``,
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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionError
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
from .sparse_model import SparsityProfile, _choose, synthesize
from .tolerances import DEFAULT_TOLERANCES, Tolerances

if TYPE_CHECKING:
    from .experiments import ExperimentConfig


# ---------------------------------------------------------------------------
# Periodic sparsity of a single-generator signal
# ---------------------------------------------------------------------------

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
    coefficient bank and a report (rates, or the cosets, active slices and
    k_max), with the config they were built from."""

    config: ExperimentConfig
    design: MeasurementDesign
    coefficients: CoefficientBank
    report: dict = field(repr=False)


def build_periodic_sparsity(cfg: ExperimentConfig, seed: int,
                            tol: Tolerances = DEFAULT_TOLERANCES) -> ScenarioBuild:
    """Assemble the m-generator reformulation of a ``periodic_sparsity``
    config, a single-generator signal at base period T' of which only the k
    coefficients in ``s_pattern`` of each group of m are nonzero: the design
    (A drawn from ``default_rng(seed)``, W = I) and a block-sparse coefficient
    bank of N blocks, which the same generator draws. An ``s_pattern`` the config leaves open is drawn as a periodic trial draws
    it, by ``_choose(default_rng(seed), m, k)``.

    The box generators and their biorthogonal set do not enter the design, so
    the build makes neither; the ``scenarios.periodic_identities`` check of
    ``verify`` builds them and checks the two construction identities.
    """
    grid = FrequencyGrid(cfg.N)
    pattern = (cfg.s_pattern if cfg.s_pattern is not None
               else _choose(np.random.default_rng(seed), cfg.m, cfg.k))
    rng = np.random.default_rng(seed)
    a_matrix = make_cs_matrix(cfg.matrix_kind, cfg.p, cfg.m, rng)
    design = make_design(a_matrix, grid, tol=tol)  # W = I

    profile = SparsityProfile(cfg.m, cfg.k, frozenset(pattern))
    coefficients = synthesize(profile, cfg.N, rng)

    report = {
        "baseline_rate": 1.0 / cfg.base_period,
        "compressed_rate": cfg.p / (cfg.m * cfg.base_period),
        "compression_factor": cfg.p / cfg.m,
    }
    return ScenarioBuild(cfg, design, coefficients, report)


def flatten_block_coefficients(bank: CoefficientBank) -> np.ndarray:
    """Interleave channel sequences back into the flat base-rate sequence:
    d_flat[l + n*m] = d_l[n]."""
    return bank.sequences.T.reshape(-1)


def baseline_reference_samples(build: ScenarioBuild) -> np.ndarray:
    """The uncompressed reference path: one sequence at the base rate whose
    samples equal the flat coefficients (prefilter-then-sample, m = 1)."""
    cfg = build.config
    m_qa = cross_spectrum_matrix(*_base_rate_box_pair(cfg.m, cfg.base_period, cfg.N))
    flat = flatten_block_coefficients(build.coefficients)
    d_flat = CoefficientBank.from_sequences(flat[None, :])
    return filterbank_sample(d_flat, m_qa)[0]


def piecewise_constant_waveform_check(build: ScenarioBuild) -> dict:
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
    cfg = build.config
    resolution = 64
    h = cfg.base_period / resolution
    # the true waveform on the fine cells, as (blocks, base cell, fine cell)
    flat = flatten_block_coefficients(build.coefficients)
    cells = np.repeat(flat, resolution).reshape(cfg.N, cfg.m, resolution)
    base_cell_integrals = cells.sum(axis=2) * h  # (blocks, m)
    modulator = build.design.A / cfg.base_period  # conj(s_i) values per base cell
    y_quad = np.einsum("il,nl->in", modulator, base_cell_integrals)

    y_fb = compressive_sample(build.coefficients, build.design).sequences
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
    c in 0..m. For the finite positive T a config holds, every entry is
    finite and nonzero."""
    w = grid.points
    diag = np.empty((grid.n, m + 1), dtype=np.complex128)
    for c in range(m + 1):
        diag[:, c] = np.exp(1j * c * w / m) / np.sqrt(T)
    return PeriodicMatrixFunction._from_diagonal(grid, diag)


def multiband_shaping_bank(m: int, T: float, cosets: tuple[int, ...],
                           grid: FrequencyGrid) -> PeriodicMatrixFunction:
    """Diagonal shaping bank with entries exp(1j*c_i*w_q/m)/sqrt(T), read with
    their reciprocals from the cached coset table, which computes both once
    per (m, T, grid): a trial makes no exp and no LAPACK call."""
    return _coset_shaping_table(m, T, grid)._columns(cosets)


def build_multiband(cfg: ExperimentConfig, seed: int,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> ScenarioBuild:
    """Construct the coset-row mixing matrix, the diagonal shaping bank and a
    sparse multiband coefficient bank of a ``multiband`` config: [0, 2*pi/T)
    is split into m equal slices, and n_bands bands of width ``band_width``
    occupy <= 2*n_bands of them. The p cosets are distinct integer offsets.

    A ``band_width`` the config leaves open is one slice, 2*pi/(m*T). Cosets
    it leaves open are drawn by ``_choose(default_rng(seed), m, p)``; the
    bands and coefficients are then drawn from a fresh ``default_rng(seed)``.
    The report records the cosets used.
    """
    grid = FrequencyGrid(cfg.N)
    band_width = cfg.band_width if cfg.band_width is not None else TWO_PI / (cfg.m * cfg.T)
    cosets = (cfg.cosets if cfg.cosets is not None
              else _choose(np.random.default_rng(seed), cfg.m, cfg.p))
    rng = np.random.default_rng(seed)
    a_matrix = make_cs_matrix("fourier_rows", cfg.p, cfg.m, rng, cosets=cosets)
    design = make_design(a_matrix, grid, W=multiband_shaping_bank(cfg.m, cfg.T, cosets, grid),
                         tol=tol)

    slice_width = TWO_PI / (cfg.m * cfg.T)
    active: set[int] = set()
    band_edges = []
    for _ in range(cfg.n_bands):
        start = rng.uniform(0.0, TWO_PI / cfg.T - band_width)
        stop = start + band_width
        first = int(start // slice_width)
        last = int((stop * (1 - 1e-12)) // slice_width)
        active.update(range(first, min(last, cfg.m - 1) + 1))
        band_edges.append((float(start), float(stop)))

    profile = SparsityProfile(cfg.m, len(active), frozenset(active))
    coefficients = synthesize(profile, cfg.N, rng)

    report = {
        "cosets": cosets,
        "active_slices": sorted(active),
        "band_edges": band_edges,
        "k_max": 2 * cfg.n_bands,
    }
    return ScenarioBuild(cfg, design, coefficients, report)


def delay_filter_equivalence_check(build: ScenarioBuild) -> dict:
    """Measure how far each synthesized sampling branch is from a pure delay.

    Evaluates G_i(w) = W_i*(e^{j*w*m*T}) * sum_l conj(A[i, l]) A_l(w) on a
    dense grid of 512 points inside [0, 2*pi/T) and returns its largest
    deviation from exp(-1j*c_i*w*T) over all branches.
    """
    m, T = build.config.m, build.config.T
    n_points = 512
    omega = np.arange(n_points) * (TWO_PI / T) / n_points
    slice_width = TWO_PI / (m * T)
    ell = np.minimum((omega // slice_width).astype(int), m - 1)
    wrapped = omega * m * T - TWO_PI * ell  # w*m*T reduced to [0, 2*pi)
    max_dev = 0.0
    for i, c in enumerate(build.report["cosets"]):
        w_conj = np.exp(-1j * c * wrapped / m) / np.sqrt(T)
        slice_sum = np.sqrt(m * T) * np.conj(build.design.A[i, ell])
        g = w_conj * slice_sum
        target = np.exp(-1j * c * omega * T)
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
