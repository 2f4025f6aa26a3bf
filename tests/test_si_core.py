import numpy as np
import pytest

from si_subnyq.errors import DimensionError, InvalidInputError, SingularOperatorError
from si_subnyq.scenarios import multiband_slice_generators, shifted_box_generators
from si_subnyq.si_core import (
    CoefficientBank,
    FrequencyGrid,
    GeneratorSet,
    PeriodicMatrixFunction,
    cross_spectrum,
    cross_spectrum_matrix,
    filterbank_sample,
    random_generator_set,
    reconstruct_subspace,
)
from si_subnyq.sparse_model import SparsityProfile, synthesize


def alias_sum_oracle(s, a, s_ch, a_ch):
    """Brute-force alias sum: explicit loop over every (q, j) pair."""
    n = s.grid.n
    out = np.zeros(n, dtype=np.complex128)
    for q in range(n):
        acc = 0.0 + 0.0j
        for j_idx in range(len(s.alias_support)):
            acc += np.conj(s.spectra[s_ch, q, j_idx]) * a.spectra[a_ch, q, j_idx]
        out[q] = acc / s.period
    return out


def circular_filterbank_oracle(values, sequences):
    """Time-domain circular convolution with the inverse-DFT filter taps."""
    n, p, m = values.shape
    taps = np.fft.ifft(values, axis=0)
    out = np.zeros((p, n), dtype=np.complex128)
    for i in range(p):
        for ell in range(m):
            for t in range(n):
                out[i, t] += sum(taps[s, i, ell] * sequences[ell, (t - s) % n]
                                 for s in range(n))
    return out


def full_bank(m, n, seed):
    return synthesize(SparsityProfile(m, m, frozenset(range(m))), n, seed)


# ---------------------------------------------------------------------------
# cross_spectrum
# ---------------------------------------------------------------------------

def test_box_generator_has_unit_cross_spectrum():
    # unit box on [0, 1], sampled against itself at period 1
    gens = shifted_box_generators(1, 1.0, FrequencyGrid(8))
    phi = cross_spectrum(gens, gens)
    assert np.max(np.abs(phi - 1.0)) <= 1e-14


def test_zero_spectrum_gives_zero():
    grid = FrequencyGrid(8)
    zero = GeneratorSet(grid, 1.0, (0, 1), np.zeros((1, 8, 2)))
    rng = np.random.default_rng(0)
    other = GeneratorSet(grid, 1.0, (0, 1),
                         rng.standard_normal((1, 8, 2)) + 1j * rng.standard_normal((1, 8, 2)))
    assert np.all(cross_spectrum(zero, other) == 0)


def test_generator_set_sorts_a_non_ascending_support_with_its_spectra():
    rng = np.random.default_rng(5)
    spectra = rng.standard_normal((2, 4, 3)) + 1j * rng.standard_normal((2, 4, 3))
    gens = GeneratorSet(FrequencyGrid(4), 1.0, (1, -2, 0), spectra)
    assert gens.alias_support == (-2, 0, 1)
    assert np.array_equal(gens.spectra, spectra[:, :, [1, 2, 0]])


@pytest.mark.parametrize("support", [(-1, 0, 1), (1, -1, 0)])
def test_generator_set_keeps_its_own_read_only_spectra(support):
    spectra = np.ones((1, 4, 3), dtype=np.complex128)
    gens = GeneratorSet(FrequencyGrid(4), 1.0, support, spectra)
    spectra[:] = 7.0
    assert np.all(gens.spectra == 1.0)
    assert not gens.spectra.flags.writeable and not np.shares_memory(gens.spectra, spectra)


def test_cross_spectrum_matches_alias_sum_oracle():
    rng = np.random.default_rng(3)
    grid = FrequencyGrid(8)
    gens = random_generator_set(2, grid, 1.5, (-2, -1, 0, 1), rng)
    phi = cross_spectrum(gens, gens, 0, 1)
    expected = alias_sum_oracle(gens, gens, 0, 1)
    assert np.max(np.abs(phi - expected)) <= 1e-14


def test_cross_spectrum_rejects_mismatched_period():
    grid = FrequencyGrid(4)
    a = GeneratorSet(grid, 1.0, (0,), np.ones((1, 4, 1)))
    b = GeneratorSet(grid, 2.0, (0,), np.ones((1, 4, 1)))
    with pytest.raises(DimensionError):
        cross_spectrum(a, b)


def test_cross_spectrum_rejects_mismatched_grid():
    a = GeneratorSet(FrequencyGrid(4), 1.0, (0,), np.ones((1, 4, 1)))
    b = GeneratorSet(FrequencyGrid(8), 1.0, (0,), np.ones((1, 8, 1)))
    with pytest.raises(DimensionError):
        cross_spectrum(a, b)


# ---------------------------------------------------------------------------
# cross_spectrum_matrix
# ---------------------------------------------------------------------------

def test_orthonormal_slices_give_identity_gram():
    gens = multiband_slice_generators(4, 1.0, FrequencyGrid(8))
    gram = cross_spectrum_matrix(gens, gens)
    assert np.max(np.abs(gram.values - np.eye(4))) <= 1e-14


def test_single_generator_matrix_reduces_to_scalar():
    rng = np.random.default_rng(5)
    gens = random_generator_set(1, FrequencyGrid(8), 1.0, (0, 1), rng)
    gram = cross_spectrum_matrix(gens, gens)
    assert gram.rows == gram.cols == 1
    assert np.max(np.abs(gram.values[:, 0, 0] - cross_spectrum(gens, gens))) <= 1e-15


def test_matrix_matches_entrywise_oracle():
    rng = np.random.default_rng(6)
    gens = random_generator_set(2, FrequencyGrid(4), 0.5, (-1, 0, 1), rng)
    gram = cross_spectrum_matrix(gens, gens)
    for i in range(2):
        for ell in range(2):
            expected = alias_sum_oracle(gens, gens, i, ell)
            assert np.max(np.abs(gram.values[:, i, ell] - expected)) <= 1e-14


# ---------------------------------------------------------------------------
# filterbank_sample
# ---------------------------------------------------------------------------

def test_identity_operator_passes_through():
    d = full_bank(3, 8, seed=11)
    out = filterbank_sample(d, PeriodicMatrixFunction.identity(FrequencyGrid(8), 3))
    assert np.max(np.abs(out - d.sequences)) <= 1e-14


def test_impulse_through_constant_operator():
    grid = FrequencyGrid(8)
    rng = np.random.default_rng(12)
    matrix = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    func = PeriodicMatrixFunction(grid, np.broadcast_to(matrix, (8, 2, 3)))
    sequences = np.zeros((3, 8), dtype=np.complex128)
    sequences[1, 0] = 1.0  # unit impulse in one channel
    out = filterbank_sample(CoefficientBank.from_sequences(sequences), func)
    expected = np.zeros((2, 8), dtype=np.complex128)
    expected[:, 0] = matrix[:, 1]
    assert np.max(np.abs(out - expected)) <= 1e-14


def test_filterbank_matches_circular_convolution_oracle():
    rng = np.random.default_rng(13)
    grid = FrequencyGrid(8)
    values = rng.standard_normal((8, 2, 3)) + 1j * rng.standard_normal((8, 2, 3))
    func = PeriodicMatrixFunction(grid, values)
    d = full_bank(3, 8, seed=14)
    fast = filterbank_sample(d, func)
    slow = circular_filterbank_oracle(values, d.sequences)
    assert np.max(np.abs(fast - slow)) / np.max(np.abs(slow)) <= 1e-12


def test_filterbank_rejects_dimension_mismatch():
    d = full_bank(3, 8, seed=15)
    with pytest.raises(DimensionError):
        filterbank_sample(d, PeriodicMatrixFunction.identity(FrequencyGrid(8), 2))


# ---------------------------------------------------------------------------
# reconstruct_subspace
# ---------------------------------------------------------------------------

def test_round_trip_recovers_bank():
    rng = np.random.default_rng(16)
    grid = FrequencyGrid(16)
    gens = random_generator_set(3, grid, 1.0, (-2, -1, 0, 1, 2), rng)
    gram = cross_spectrum_matrix(gens, gens)
    d = full_bank(3, 16, seed=17)
    c = filterbank_sample(d, gram)
    back = reconstruct_subspace(c, gram)
    err = np.max(np.abs(back.sequences - d.sequences)) / np.max(np.abs(d.sequences))
    assert err <= 1e-10


def test_singular_grid_point_is_named():
    grid = FrequencyGrid(8)
    values = np.broadcast_to(np.eye(2), (8, 2, 2)).copy()
    values[5] = 0.0
    func = PeriodicMatrixFunction(grid, values)
    with pytest.raises(SingularOperatorError) as err:
        reconstruct_subspace(np.ones((2, 8)), func)
    assert err.value.grid_index == 5
    assert "grid point 5" in str(err.value)


@pytest.mark.parametrize("small", [0.0, 1e-9])
def test_diagonal_condition_shortcut_matches_svd(small):
    # exactly diagonal W takes max|d|/min|d| per bin; it must flag the same
    # bins, first bad grid_index included, as the SVD-based np.linalg.cond
    grid = FrequencyGrid(8)
    values = np.broadcast_to(np.diag([1.0, 2.0j, -3.0]), (8, 3, 3)).copy()
    values[3, 1, 1] = small
    values[6, 0, 0] = small
    func = PeriodicMatrixFunction(grid, values)
    assert func.is_diagonal()
    # off the diagonal, -0.0 counts as zero and NaN does not
    off = values.copy()
    off[2, 0, 1] = -0.0
    assert PeriodicMatrixFunction(grid, off).is_diagonal()
    off[2, 0, 1] = np.nan
    assert not PeriodicMatrixFunction(grid, off).is_diagonal()
    tol = 1e8
    svd_bad = np.flatnonzero(~(np.linalg.cond(func.values) <= tol))
    fast_bad = np.flatnonzero(~(func.condition_numbers() <= tol))
    assert list(fast_bad) == list(svd_bad) == [3, 6]
    with pytest.raises(SingularOperatorError) as err:
        func.require_conditioned(tol, "W")
    assert err.value.grid_index == 3
    good = np.delete(np.arange(8), [3, 6])
    assert np.allclose(func.condition_numbers()[good],
                       np.linalg.cond(func.values)[good], rtol=1e-12)


def test_condition_numbers_are_cached_and_read_only():
    rng = np.random.default_rng(7)
    values = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    func = PeriodicMatrixFunction(FrequencyGrid(4), values)
    conds = func.condition_numbers()
    assert func.condition_numbers() is conds
    assert not conds.flags.writeable
    assert np.array_equal(conds, np.linalg.cond(func.values))


def test_single_channel_inverse_filter_chain():
    # one generator: recovery is filtering the samples by 1/phi
    gens = shifted_box_generators(1, 1.0, FrequencyGrid(16))
    phi = cross_spectrum(gens, gens)
    gram = cross_spectrum_matrix(gens, gens)
    d = full_bank(1, 16, seed=18)
    c = filterbank_sample(d, gram)
    via_filter = np.fft.ifft(np.fft.fft(c[0]) / phi)
    assert np.max(np.abs(via_filter - d.sequences[0])) <= 1e-12
    back = reconstruct_subspace(c, gram)
    assert np.max(np.abs(back.sequences - d.sequences)) <= 1e-12


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [21, 22, 23])
def test_gram_matrix_hermitian_psd(seed):
    rng = np.random.default_rng(seed)
    gens = random_generator_set(3, FrequencyGrid(8), 2.0, (-2, -1, 0, 1, 2), rng)
    gram = cross_spectrum_matrix(gens, gens)
    herm = np.conj(np.swapaxes(gram.values, 1, 2))
    assert np.max(np.abs(gram.values - herm)) <= 1e-12
    assert np.min(np.linalg.eigvalsh((gram.values + herm) / 2)) >= -1e-12


@pytest.mark.parametrize("seed", [24, 25])
def test_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    grid = FrequencyGrid(8)
    gens = random_generator_set(4, grid, 1.0, (-2, -1, 0, 1, 2, 3), rng)
    gram = cross_spectrum_matrix(gens, gens)
    d = full_bank(4, 8, seed=seed + 100)
    back = reconstruct_subspace(filterbank_sample(d, gram), gram)
    err = np.max(np.abs(back.sequences - d.sequences)) / np.max(np.abs(d.sequences))
    assert err <= 1e-10


def test_coefficient_bank_enforces_support_honesty():
    seq = np.zeros((3, 4), dtype=np.complex128)
    seq[1, 2] = 1.0
    with pytest.raises(InvalidInputError):
        CoefficientBank(seq, frozenset({0}))
    bank = CoefficientBank.from_sequences(seq)
    assert bank.support == frozenset({1})


def test_grid_requires_positive_size():
    with pytest.raises(InvalidInputError):
        FrequencyGrid(0)
