from dataclasses import replace

import numpy as np
import pytest

from si_subnyq.ctf import recover
from si_subnyq.errors import InvalidInputError
from si_subnyq.sampling_design import (
    MeasurementBank,
    compressive_sample,
    kruskal_rank,
    make_cs_matrix,
)
from si_subnyq.scenarios import (
    MultibandScenario,
    PeriodicSparsityScenario,
    baseline_reference_samples,
    build_multiband,
    build_periodic_sparsity,
    delay_filter_equivalence_check,
    flatten_block_coefficients,
    fractional_delay_demodulate,
    fractional_delay_direct,
    multiband_slice_generators,
    piecewise_constant_waveform_check,
)
from si_subnyq.si_core import CoefficientBank, FrequencyGrid, cross_spectrum_matrix
from si_subnyq.sparse_model import SparseSISignal, SparsityProfile
from si_subnyq.tolerances import DEFAULT_TOLERANCES


def periodic_scenario(**overrides):
    base = dict(m=7, k=2, s_pattern=frozenset({1, 4}), base_period=1.0,
                n_blocks=8, seed=5, p=5)
    base.update(overrides)
    return PeriodicSparsityScenario(**base)


def multiband_scenario(**overrides):
    base = dict(n_bands=1, band_width=2 * np.pi / 8, m=7, T=1.0,
                cosets=(0, 2, 3, 5), seed=9, n_samples=32)
    base.update(overrides)
    return MultibandScenario(**base)


# ---------------------------------------------------------------------------
# periodic sparsity
# ---------------------------------------------------------------------------

def test_build_verifies_identities():
    build = build_periodic_sparsity(periodic_scenario())
    assert build.report["m_va_deviation"] <= 1e-10
    assert build.report["prefilter_identity_deviation"] <= 1e-12


def test_repeated_periodic_builds_share_the_generator_frame():
    first = build_periodic_sparsity(periodic_scenario(seed=5))
    second = build_periodic_sparsity(periodic_scenario(seed=6))
    assert second.generators is first.generators
    assert second.biorthogonal is first.biorthogonal
    assert not first.biorthogonal.spectra.flags.writeable
    assert not np.array_equal(first.design.A, second.design.A)


def test_periodic_build_draws_a_first_from_the_scenario_seed():
    # The Monte Carlo runner redraws only A and builds the scenario once with
    # the accepted seed; that needs A to be the build's first draw.
    for kind in ("gaussian", "bernoulli"):
        sc = periodic_scenario(matrix_kind=kind, seed=17)
        expected = make_cs_matrix(kind, sc.p, sc.m, np.random.default_rng(sc.seed))
        assert np.array_equal(build_periodic_sparsity(sc).design.A, expected)


def test_tightened_biorth_tol_still_reaches_identity_check():
    sc = periodic_scenario()
    build_periodic_sparsity(sc)  # fills the cache at the default tolerances
    tight = DEFAULT_TOLERANCES.with_overrides(biorth_tol=1e-30)
    with pytest.raises(InvalidInputError, match="biorthogonality identity"):
        build_periodic_sparsity(sc, tight)


def test_box_case_biorthogonal_equals_generators_up_to_gain():
    # h = a with unit base period: the biorthogonal set is the generator set
    build = build_periodic_sparsity(periodic_scenario(base_period=1.0))
    assert np.max(np.abs(build.biorthogonal.spectra - build.generators.spectra)) <= 1e-12


def test_block_pattern_of_flat_sequence():
    build = build_periodic_sparsity(periodic_scenario())
    flat = flatten_block_coefficients(build.signal.coefficients)
    nonzero = np.flatnonzero(flat != 0)
    assert len(nonzero) > 0
    assert set(int(i) % 7 for i in nonzero) <= {1, 4}


def test_recovered_coefficients_respect_block_pattern():
    build = build_periodic_sparsity(periodic_scenario())
    y = compressive_sample(build.signal.coefficients, build.design)
    result = recover(y, build.design, k_max=2)
    assert result.support == frozenset({1, 4})
    flat = flatten_block_coefficients(result.coefficients)
    nonzero = np.flatnonzero(np.abs(flat) > 1e-12)
    assert set(int(i) % 7 for i in nonzero) <= {1, 4}
    truth = flatten_block_coefficients(build.signal.coefficients)
    assert np.linalg.norm(flat - truth) / np.linalg.norm(truth) <= 1e-9


def test_degenerate_single_channel_scenario():
    # m = 1, k = 1, p = 1: no compression, plain sample-and-solve
    build = build_periodic_sparsity(periodic_scenario(
        m=1, k=1, s_pattern=frozenset({0}), p=1))
    y = compressive_sample(build.signal.coefficients, build.design)
    result = recover(y, build.design, k_max=1)
    assert result.support == frozenset({0})
    err = np.linalg.norm(result.coefficients.sequences - build.signal.coefficients.sequences)
    assert err / np.linalg.norm(build.signal.coefficients.sequences) <= 1e-10


def test_baseline_reference_path_reads_off_coefficients():
    build = build_periodic_sparsity(periodic_scenario())
    baseline = baseline_reference_samples(build)
    flat = flatten_block_coefficients(build.signal.coefficients)
    assert np.max(np.abs(baseline - flat)) <= 1e-12 * max(1.0, np.max(np.abs(flat)))


def test_rate_accounting():
    build = build_periodic_sparsity(periodic_scenario(p=3))
    assert build.report["compression_factor"] == 3 / 7
    assert build.report["baseline_rate"] == 1.0
    assert build.report["compressed_rate"] == 3 / 7


def test_invalid_pattern_rejected():
    with pytest.raises(InvalidInputError):
        periodic_scenario(s_pattern=frozenset({1, 9}))
    with pytest.raises(InvalidInputError):
        periodic_scenario(s_pattern=frozenset({1}))  # size != k


# ---------------------------------------------------------------------------
# waveform-level quadrature
# ---------------------------------------------------------------------------

def test_zero_signal_integrates_to_zero():
    build = build_periodic_sparsity(periodic_scenario(
        k=0, s_pattern=frozenset()))
    report = piecewise_constant_waveform_check(build)
    assert np.all(report["samples_quadrature"] == 0)
    assert np.all(report["samples_filterbank"] == 0)
    assert report["passed"]


def test_single_block_value_gives_mixing_column():
    # one coefficient d_l[n0] = 1: sample i of block n0 is A[i, l]
    sc = periodic_scenario(m=4, k=1, s_pattern=frozenset({2}), p=3)
    build = build_periodic_sparsity(sc)
    sequences = np.zeros((4, sc.n_blocks), dtype=np.complex128)
    sequences[2, 3] = 1.0
    bank = CoefficientBank.from_sequences(sequences)
    signal = SparseSISignal(SparsityProfile(4, 1, frozenset({2})), bank, build.generators)
    build2 = replace(build, signal=signal)
    report = piecewise_constant_waveform_check(build2)
    assert report["passed"]
    quad = report["samples_quadrature"]
    for i in range(3):
        assert quad[i, 3] == pytest.approx(build.design.A[i, 2], abs=1e-12)
    assert np.max(np.abs(np.delete(quad, 3, axis=1))) <= 1e-12


@pytest.mark.parametrize("seed", [71, 72, 73])
def test_quadrature_matches_filterbank_samples(seed):
    sc = periodic_scenario(m=4, k=1, s_pattern=frozenset({1}), p=2, seed=seed)
    build = build_periodic_sparsity(sc)
    report = piecewise_constant_waveform_check(build)
    assert report["max_relative_error"] <= 1e-6
    assert report["passed"]


def test_quadrature_holds_for_non_unit_base_period():
    from si_subnyq.si_core import cross_spectrum_matrix as csm

    sc = periodic_scenario(m=4, k=2, s_pattern=frozenset({0, 3}),
                           base_period=0.5, p=3)
    build = build_periodic_sparsity(sc)
    gram = csm(build.generators, build.generators)
    assert np.max(np.abs(gram.values - 0.5 * np.eye(4))) <= 1e-12
    report = piecewise_constant_waveform_check(build)
    assert report["max_relative_error"] <= 1e-6


# ---------------------------------------------------------------------------
# multiband
# ---------------------------------------------------------------------------

def test_slice_generators_are_orthonormal():
    build = build_multiband(multiband_scenario())
    gram = cross_spectrum_matrix(build.generators, build.generators)
    assert np.max(np.abs(gram.values - np.eye(7))) <= 1e-12


def test_slice_generators_are_cached_and_read_only():
    grid = FrequencyGrid(16)
    gens = multiband_slice_generators(5, 1.0, grid)
    assert multiband_slice_generators(5, 1.0, FrequencyGrid(16)) is gens
    assert not gens.spectra.flags.writeable
    assert build_multiband(multiband_scenario(m=5, n_samples=16,
                                              band_width=2 * np.pi / 5,
                                              cosets=(0, 1, 3))).generators is gens
    assert multiband_slice_generators(5, 2.0, grid) is not gens


def test_mixing_matrix_entry_arithmetic():
    # m = 4, coset 2, slice index 2: exp(2j*pi*2*2/4)/2 = 1/2
    build = build_multiband(multiband_scenario(
        m=4, cosets=(2, 3), band_width=2 * np.pi / 4))
    assert build.design.A[0, 2] == pytest.approx(0.5, abs=1e-12)


def test_active_slice_count_bounded():
    for seed in range(6):
        build = build_multiband(multiband_scenario(n_bands=2, seed=seed))
        assert 1 <= len(build.report["active_slices"]) <= 4


def test_full_coset_set_recovers_trivially():
    sc = multiband_scenario(m=4, cosets=(0, 1, 2, 3), band_width=2 * np.pi / 4)
    build = build_multiband(sc)
    y = compressive_sample(build.signal.coefficients, build.design)
    result = recover(y, build.design, k_max=build.report["k_max"])
    assert result.support == build.signal.profile.support
    d = build.signal.coefficients.sequences
    assert np.linalg.norm(result.coefficients.sequences - d) <= 1e-10 * np.linalg.norm(d)


def test_prime_slice_count_gives_full_spark():
    build = build_multiband(multiband_scenario())  # m = 7 prime, 4 cosets
    assert kruskal_rank(build.design.A) == 4


def test_multiband_end_to_end_recovery():
    for seed in (80, 81, 82):
        build = build_multiband(multiband_scenario(seed=seed))
        y = compressive_sample(build.signal.coefficients, build.design)
        result = recover(y, build.design, k_max=build.report["k_max"])
        assert result.support == build.signal.profile.support
        d = build.signal.coefficients.sequences
        nmse = np.linalg.norm(result.coefficients.sequences - d) ** 2 / np.linalg.norm(d) ** 2
        assert nmse <= 1e-9


def test_scenario_validation():
    with pytest.raises(InvalidInputError):
        multiband_scenario(cosets=(0, 7))  # 7 == 0 mod 7
    with pytest.raises(InvalidInputError):
        multiband_scenario(cosets=(0, 8))  # out of range
    with pytest.raises(InvalidInputError):
        multiband_scenario(m=9)  # violates m <= 2*pi/(B*T) with B = 2*pi/8


# ---------------------------------------------------------------------------
# delay-filter identity
# ---------------------------------------------------------------------------

def test_zero_coset_branch_is_flat():
    build = build_multiband(multiband_scenario(cosets=(0,)))
    report = delay_filter_equivalence_check(build)
    assert report["passed"]
    # c = 0: the branch response is identically 1 (checked independently)
    sc = build.scenario
    omega = np.linspace(0, 2 * np.pi / sc.T, 64, endpoint=False)
    ell = np.minimum((omega * sc.m * sc.T / (2 * np.pi)).astype(int), sc.m - 1)
    g = (np.sqrt(sc.m * sc.T) / np.sqrt(sc.T)) * np.conj(build.design.A[0, ell])
    assert np.max(np.abs(g - 1.0)) <= 1e-12


def test_branch_value_at_slice_midpoints():
    build = build_multiband(multiband_scenario())
    sc = build.scenario
    slice_width = 2 * np.pi / (sc.m * sc.T)
    for i, coset in enumerate(sc.cosets):
        for ell in range(sc.m):
            omega = (ell + 0.5) * slice_width
            # independent evaluation from the raw construction formulas
            w_conj = np.exp(-1j * coset * (omega * sc.m * sc.T - 2 * np.pi * ell) / sc.m) \
                / np.sqrt(sc.T)
            g = w_conj * np.sqrt(sc.m * sc.T) * np.conj(build.design.A[i, ell])
            assert g == pytest.approx(np.exp(-1j * coset * omega * sc.T), abs=1e-12)


def test_delay_identity_on_dense_grid():
    report = delay_filter_equivalence_check(build_multiband(multiband_scenario()),
                                            n_points=512)
    assert report["max_deviation"] <= 1e-9
    assert report["passed"]


# ---------------------------------------------------------------------------
# fractional delay chain
# ---------------------------------------------------------------------------

def test_zero_coset_is_identity_up_to_scale():
    rng = np.random.default_rng(83)
    y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    out = fractional_delay_demodulate(y, 0, 4, T=2.0)
    assert np.max(np.abs(out - y / np.sqrt(2.0))) <= 1e-12


def test_full_coset_is_integer_delay():
    rng = np.random.default_rng(84)
    y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    out = fractional_delay_demodulate(y, 4, 4, T=1.0)
    assert np.max(np.abs(out - np.roll(y, 1))) <= 1e-12


def test_chain_matches_direct_multiplication():
    rng = np.random.default_rng(85)
    y = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    for coset, m in ((3, 4), (1, 4), (2, 7), (6, 7)):
        chain = fractional_delay_demodulate(y, coset, m)
        direct = fractional_delay_direct(y, coset, m)
        assert np.max(np.abs(chain - direct)) / np.max(np.abs(direct)) <= 1e-8


def demodulate_by_delays(bank, sc):
    """Apply the fractional-delay chain to every measurement channel."""
    rows = [fractional_delay_demodulate(bank.sequences[i], c, sc.m, sc.T)
            for i, c in enumerate(sc.cosets)]
    return MeasurementBank(np.stack(rows))


def test_bank_level_delay_demodulation_matches_w_inverse_up_to_scale():
    # the delay chain applies 1/sqrt(T) where the exact inverse of the
    # shaping bank applies sqrt(T): they differ by exactly 1/T
    from si_subnyq.ctf import demodulate

    for t_scale in (1.0, 2.0):
        build = build_multiband(multiband_scenario(
            T=t_scale, band_width=2 * np.pi / (8 * t_scale)))
        y = compressive_sample(build.signal.coefficients, build.design)
        via_w = demodulate(y, build.design)
        via_chain = demodulate_by_delays(y, build.scenario)
        assert np.max(np.abs(via_chain.sequences - via_w.sequences / t_scale)) \
            <= 1e-10 * np.max(np.abs(via_w.sequences))
