from dataclasses import replace

import numpy as np
import pytest

from si_subnyq import experiments, scenarios
from si_subnyq.ctf import recover
from si_subnyq.errors import ConfigError
from si_subnyq.experiments import ExperimentConfig, config_from_json
from si_subnyq.sampling_design import (
    MeasurementBank,
    biorthogonalize,
    compressive_sample,
    kruskal_rank,
    make_cs_matrix,
)
from si_subnyq.scenarios import (
    baseline_reference_samples,
    build_multiband,
    build_periodic_sparsity,
    delay_filter_equivalence_check,
    flatten_block_coefficients,
    fractional_delay_demodulate,
    fractional_delay_direct,
    multiband_slice_generators,
    piecewise_constant_waveform_check,
    shifted_box_generators,
)
from si_subnyq.si_core import (
    CoefficientBank,
    FrequencyGrid,
    GeneratorSet,
    cross_spectrum_matrix,
)
from si_subnyq.tolerances import DEFAULT_TOLERANCES
from si_subnyq.verification import CHECKS, check_periodic_identities


def periodic_config(**overrides):
    base = dict(mode="periodic_sparsity", m=7, k=2, s_pattern=(1, 4), base_period=1.0,
                N=8, p=5)
    base.update(overrides)
    return ExperimentConfig(**base)


def multiband_config(**overrides):
    base = dict(mode="multiband", n_bands=1, band_width=2 * np.pi / 8, m=7, T=1.0,
                cosets=(0, 2, 3, 5), N=32, p=4)
    base.update(overrides)
    return ExperimentConfig(**base)


def periodic_build(seed=5, **overrides):
    return build_periodic_sparsity(periodic_config(**overrides), seed)


def multiband_build(seed=9, **overrides):
    return build_multiband(multiband_config(**overrides), seed)


# ---------------------------------------------------------------------------
# the config as the one description of a scenario
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fields", [
    dict(mode="periodic_sparsity", m=7, k=2, p=5, N=8),
    dict(mode="periodic_sparsity", m=7, k=2, p=5, N=8, s_pattern=[1, 4], base_period=0.5),
    dict(mode="multiband", m=7, p=4, N=32, n_bands=2),
    dict(mode="multiband", m=7, p=4, N=32, band_width=0.4, T=2.0, cosets=[1, 2, 3, 7]),
], ids=["periodic", "periodic_pattern", "multiband", "multiband_cosets"])
def test_reading_a_scenario_config_draws_and_builds_nothing(monkeypatch, fields):
    def refuse(*args, **kwargs):
        raise AssertionError("a config draws or builds nothing")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(scenarios, "build_periodic_sparsity", refuse)
    monkeypatch.setattr(scenarios, "build_multiband", refuse)
    cfg = config_from_json(fields)
    assert cfg.mode == fields["mode"]
    assert ExperimentConfig(**vars(cfg)) == cfg


# ---------------------------------------------------------------------------
# periodic sparsity
# ---------------------------------------------------------------------------

def test_periodic_identities_check_passes_at_defaults():
    assert dict(CHECKS)["scenarios.periodic_identities"] is check_periodic_identities
    passed, _, metric = check_periodic_identities(DEFAULT_TOLERANCES)
    assert passed
    assert metric <= 1e-10


def test_periodic_builds_of_different_seeds_draw_different_a():
    first = periodic_build(seed=5)
    second = periodic_build(seed=6)
    assert not np.array_equal(first.design.A, second.design.A)


def test_periodic_build_draws_a_first_from_the_scenario_seed():
    # A periodic trial draws A, then the coefficients, from one generator;
    # the build at the trial's accepted seed draws them in the same order.
    for kind in ("gaussian", "bernoulli"):
        cfg = periodic_config(matrix_kind=kind)
        expected = make_cs_matrix(kind, cfg.p, cfg.m, np.random.default_rng(17))
        assert np.array_equal(build_periodic_sparsity(cfg, 17).design.A, expected)


def test_periodic_build_draws_an_open_pattern_as_a_trial_does():
    cfg = periodic_config(s_pattern=None)
    for seed in (3, 4, 5):
        expected = np.random.default_rng(seed).choice(7, size=2, replace=False)
        support = build_periodic_sparsity(cfg, seed).coefficients.support
        assert support == frozenset(int(i) for i in expected)
        assert support == experiments._sparse_instances(cfg, [seed])[0][1].support


def test_tightened_biorth_tol_still_reaches_identity_check():
    tight = DEFAULT_TOLERANCES.with_overrides(biorth_tol=1e-30)
    passed, detail, _ = check_periodic_identities(tight)
    assert not passed
    assert "M_VA - I" in detail


def test_box_case_biorthogonal_equals_generators_up_to_gain():
    # h = a with unit base period: the biorthogonal set is the generator set
    gens = shifted_box_generators(7, 1.0, FrequencyGrid(8))
    v = biorthogonalize(gens, gens)
    assert not v.spectra.flags.writeable
    assert np.max(np.abs(v.spectra - gens.spectra)) <= 1e-12


@pytest.mark.parametrize("cfg", [
    experiments.ExperimentConfig(mode="periodic_sparsity", m=7, k=2, p=5, N=8, seed=6,
                                 s_pattern=(1, 4)),
    experiments.ExperimentConfig(mode="multiband", m=7, k=2, p=4, N=32, seed=7,
                                 cosets=(0, 2, 3, 5)),
], ids=["periodic_sparsity", "multiband"])
def test_scenario_trial_builds_no_generator_set(monkeypatch, cfg):
    built = []
    original = GeneratorSet.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(GeneratorSet, "__post_init__", counting)
    record, = experiments.run_trials(cfg)
    assert record.exact
    assert built == []


def test_block_pattern_of_flat_sequence():
    build = periodic_build()
    flat = flatten_block_coefficients(build.coefficients)
    nonzero = np.flatnonzero(flat != 0)
    assert len(nonzero) > 0
    assert set(int(i) % 7 for i in nonzero) <= {1, 4}


def test_recovered_coefficients_respect_block_pattern():
    build = periodic_build()
    y = compressive_sample(build.coefficients, build.design)
    result = recover(y, build.design, k_max=2)
    assert result.support == frozenset({1, 4})
    flat = flatten_block_coefficients(result.coefficients)
    nonzero = np.flatnonzero(np.abs(flat) > 1e-12)
    assert set(int(i) % 7 for i in nonzero) <= {1, 4}
    truth = flatten_block_coefficients(build.coefficients)
    assert np.linalg.norm(flat - truth) / np.linalg.norm(truth) <= 1e-9


def test_degenerate_single_channel_scenario():
    # m = 1, k = 1, p = 1: no compression, plain sample-and-solve
    build = periodic_build(m=1, k=1, s_pattern=(0,), p=1)
    y = compressive_sample(build.coefficients, build.design)
    result = recover(y, build.design, k_max=1)
    assert result.support == frozenset({0})
    err = np.linalg.norm(result.coefficients.sequences - build.coefficients.sequences)
    assert err / np.linalg.norm(build.coefficients.sequences) <= 1e-10


def test_baseline_reference_path_reads_off_coefficients():
    build = periodic_build()
    baseline = baseline_reference_samples(build)
    flat = flatten_block_coefficients(build.coefficients)
    assert np.max(np.abs(baseline - flat)) <= 1e-12 * max(1.0, np.max(np.abs(flat)))


def test_rate_accounting():
    build = periodic_build(p=3)
    assert build.report["compression_factor"] == 3 / 7
    assert build.report["baseline_rate"] == 1.0
    assert build.report["compressed_rate"] == 3 / 7


def test_invalid_pattern_rejected():
    base = dict(mode="periodic_sparsity", m=7, k=2, p=5, N=8)
    with pytest.raises(ConfigError, match="s_pattern"):
        config_from_json(dict(base, s_pattern=[1, 9]))
    with pytest.raises(ConfigError, match="s_pattern"):
        config_from_json(dict(base, s_pattern=[1]))  # size != k


# ---------------------------------------------------------------------------
# waveform-level quadrature
# ---------------------------------------------------------------------------

def test_zero_signal_integrates_to_zero():
    build = periodic_build(k=0, s_pattern=())
    report = piecewise_constant_waveform_check(build)
    assert np.all(report["samples_quadrature"] == 0)
    assert np.all(report["samples_filterbank"] == 0)
    assert report["max_relative_error"] <= DEFAULT_TOLERANCES.quadrature_rel_tol


def test_single_block_value_gives_mixing_column():
    # one coefficient d_l[n0] = 1: sample i of block n0 is A[i, l]
    cfg = periodic_config(m=4, k=1, s_pattern=(2,), p=3)
    build = build_periodic_sparsity(cfg, 5)
    sequences = np.zeros((4, cfg.N), dtype=np.complex128)
    sequences[2, 3] = 1.0
    bank = CoefficientBank.from_sequences(sequences)
    build2 = replace(build, coefficients=bank)
    report = piecewise_constant_waveform_check(build2)
    assert report["max_relative_error"] <= DEFAULT_TOLERANCES.quadrature_rel_tol
    quad = report["samples_quadrature"]
    for i in range(3):
        assert quad[i, 3] == pytest.approx(build.design.A[i, 2], abs=1e-12)
    assert np.max(np.abs(np.delete(quad, 3, axis=1))) <= 1e-12


@pytest.mark.parametrize("seed", [71, 72, 73])
def test_quadrature_matches_filterbank_samples(seed):
    build = periodic_build(seed=seed, m=4, k=1, s_pattern=(1,), p=2)
    report = piecewise_constant_waveform_check(build)
    assert report["max_relative_error"] <= DEFAULT_TOLERANCES.quadrature_rel_tol


def test_quadrature_holds_for_non_unit_base_period():
    from si_subnyq.si_core import cross_spectrum_matrix as csm

    cfg = periodic_config(m=4, k=2, s_pattern=(0, 3), base_period=0.5, p=3)
    build = build_periodic_sparsity(cfg, 5)
    gens = shifted_box_generators(cfg.m, cfg.base_period, FrequencyGrid(cfg.N))
    gram = csm(gens, gens)
    assert np.max(np.abs(gram.values - 0.5 * np.eye(4))) <= 1e-12
    report = piecewise_constant_waveform_check(build)
    assert report["max_relative_error"] <= 1e-6


# ---------------------------------------------------------------------------
# multiband
# ---------------------------------------------------------------------------

def test_slice_generators_are_orthonormal():
    cfg = multiband_config()
    gens = multiband_slice_generators(cfg.m, cfg.T, FrequencyGrid(cfg.N))
    gram = cross_spectrum_matrix(gens, gens)
    assert np.max(np.abs(gram.values - np.eye(7))) <= 1e-12


def test_slice_generators_are_read_only():
    gens = multiband_slice_generators(5, 1.0, FrequencyGrid(16))
    assert not gens.spectra.flags.writeable


def test_mixing_matrix_entry_arithmetic():
    # m = 4, coset 2, slice index 2: exp(2j*pi*2*2/4)/2 = 1/2
    build = multiband_build(m=4, p=2, cosets=(2, 3), band_width=2 * np.pi / 4)
    assert build.design.A[0, 2] == pytest.approx(0.5, abs=1e-12)


def test_active_slice_count_bounded():
    for seed in range(6):
        build = multiband_build(seed=seed, n_bands=2)
        assert 1 <= len(build.report["active_slices"]) <= 4


def test_full_coset_set_recovers_trivially():
    build = multiband_build(m=4, cosets=(0, 1, 2, 3), band_width=2 * np.pi / 4)
    y = compressive_sample(build.coefficients, build.design)
    result = recover(y, build.design, k_max=build.report["k_max"])
    assert result.support == build.coefficients.support
    d = build.coefficients.sequences
    assert np.linalg.norm(result.coefficients.sequences - d) <= 1e-10 * np.linalg.norm(d)


def test_prime_slice_count_gives_full_spark():
    build = multiband_build()  # m = 7 prime, 4 cosets
    assert kruskal_rank(build.design.A) == 4


def test_multiband_end_to_end_recovery():
    for seed in (80, 81, 82):
        build = multiband_build(seed=seed)
        y = compressive_sample(build.coefficients, build.design)
        result = recover(y, build.design, k_max=build.report["k_max"])
        assert result.support == build.coefficients.support
        d = build.coefficients.sequences
        nmse = np.linalg.norm(result.coefficients.sequences - d) ** 2 / np.linalg.norm(d) ** 2
        assert nmse <= 1e-9


def test_scenario_validation():
    base = dict(mode="multiband", n_bands=1, band_width=2 * np.pi / 8, m=7, T=1.0, N=32)
    with pytest.raises(ConfigError, match="cosets"):
        config_from_json(dict(base, p=2, cosets=[0, 7]))  # 7 == 0 mod 7
    with pytest.raises(ConfigError, match="cosets"):
        config_from_json(dict(base, p=2, cosets=[0, 8]))  # out of range
    with pytest.raises(ConfigError, match="band_width"):
        # violates m <= 2*pi/(B*T) with B = 2*pi/8
        config_from_json(dict(base, m=9, p=4, cosets=[0, 2, 3, 5]))


# ---------------------------------------------------------------------------
# delay-filter identity
# ---------------------------------------------------------------------------

def test_zero_coset_branch_is_flat():
    build = multiband_build(p=1, cosets=(0,))
    report = delay_filter_equivalence_check(build)
    assert report["max_deviation"] <= DEFAULT_TOLERANCES.delay_identity_tol
    # c = 0: the branch response is identically 1 (checked independently)
    cfg = build.config
    omega = np.linspace(0, 2 * np.pi / cfg.T, 64, endpoint=False)
    ell = np.minimum((omega * cfg.m * cfg.T / (2 * np.pi)).astype(int), cfg.m - 1)
    g = (np.sqrt(cfg.m * cfg.T) / np.sqrt(cfg.T)) * np.conj(build.design.A[0, ell])
    assert np.max(np.abs(g - 1.0)) <= 1e-12


def test_branch_value_at_slice_midpoints():
    build = multiband_build()
    cfg = build.config
    slice_width = 2 * np.pi / (cfg.m * cfg.T)
    for i, coset in enumerate(cfg.cosets):
        for ell in range(cfg.m):
            omega = (ell + 0.5) * slice_width
            # independent evaluation from the raw construction formulas
            w_conj = np.exp(-1j * coset * (omega * cfg.m * cfg.T - 2 * np.pi * ell) / cfg.m) \
                / np.sqrt(cfg.T)
            g = w_conj * np.sqrt(cfg.m * cfg.T) * np.conj(build.design.A[i, ell])
            assert g == pytest.approx(np.exp(-1j * coset * omega * cfg.T), abs=1e-12)


def test_delay_identity_on_dense_grid():
    report = delay_filter_equivalence_check(multiband_build())
    assert report["n_points"] == 512
    assert report["max_deviation"] <= DEFAULT_TOLERANCES.delay_identity_tol


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


def demodulate_by_delays(bank, build):
    """Apply the fractional-delay chain to every measurement channel."""
    cfg = build.config
    rows = [fractional_delay_demodulate(bank.sequences[i], c, cfg.m, cfg.T)
            for i, c in enumerate(build.report["cosets"])]
    return MeasurementBank(np.stack(rows))


def test_bank_level_delay_demodulation_matches_w_inverse_up_to_scale():
    # the delay chain applies 1/sqrt(T) where the exact inverse of the
    # shaping bank applies sqrt(T): they differ by exactly 1/T
    from si_subnyq.ctf import demodulate

    for t_scale in (1.0, 2.0):
        build = multiband_build(T=t_scale, band_width=2 * np.pi / (8 * t_scale))
        y = compressive_sample(build.coefficients, build.design)
        via_w = demodulate(y, build.design)
        via_chain = demodulate_by_delays(y, build)
        assert np.max(np.abs(via_chain.sequences - via_w.sequences / t_scale)) \
            <= 1e-10 * np.max(np.abs(via_w.sequences))
