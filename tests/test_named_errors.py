"""Bad input fails at the boundary with a named error.

One parametrized test per module: each case calls a public entry point (or
one of ``PeriodicMatrixFunction``'s two constructors) with input it must
refuse, and checks the error class and a fragment of its message.
"""

import json

import numpy as np
import pytest

from si_subnyq import cli, ctf, experiments, scenarios, sparse_model
from si_subnyq.errors import (
    ConfigError,
    DimensionError,
    InfeasibleError,
    InvalidInputError,
)
from si_subnyq.experiments import ExperimentConfig
from si_subnyq.sampling_design import (
    MeasurementBank,
    MeasurementDesign,
    biorthogonalize,
    build_sampling_filters,
    compressive_sample,
    kruskal_rank,
    make_cs_matrix,
    make_design,
)
from si_subnyq.si_core import (
    CoefficientBank,
    FrequencyGrid,
    GeneratorSet,
    PeriodicMatrixFunction,
    cross_spectrum,
    filterbank_sample,
    random_generator_set,
    reconstruct_subspace,
)

GRID = FrequencyGrid(4)


def gens(m=1, support=(0,), n=4):
    return GeneratorSet(FrequencyGrid(n), 1.0, support, np.ones((m, n, len(support))))


def identity(n, grid=GRID):
    return PeriodicMatrixFunction.identity(grid, n)


def design(p=2, m=3, grid=GRID):
    return make_design(np.eye(p, m), grid)


def bank(m=3, n=4):
    return CoefficientBank(np.zeros((m, n)), frozenset())


def rng():
    return np.random.default_rng(0)


def refuse(cases, name, tmp_path):
    call, error, fragment = cases[name]
    with pytest.raises(error) as err:
        call(tmp_path)
    assert fragment in str(err.value)


SI_CORE = {
    "empty_alias_support": (
        lambda _: GeneratorSet(GRID, 1.0, (), np.zeros((1, 4, 0))),
        InvalidInputError, "alias_support must be non-empty"),
    "repeated_alias_entry": (
        lambda _: GeneratorSet(GRID, 1.0, (0, 0), np.zeros((1, 4, 2))),
        InvalidInputError, "alias_support entries must be distinct"),
    "2d_spectra": (
        lambda _: GeneratorSet(GRID, 1.0, (0,), np.zeros((4, 1))),
        DimensionError, "spectra must be (m, N, n_alias)"),
    "spectra_wrong_n": (
        lambda _: GeneratorSet(GRID, 1.0, (0,), np.zeros((1, 5, 1))),
        DimensionError, "inconsistent with grid N=4"),
    "spectra_wrong_alias_count": (
        lambda _: GeneratorSet(GRID, 1.0, (0,), np.zeros((1, 4, 2))),
        DimensionError, "alias support of size 1"),
    "values_not_3d": (
        lambda _: PeriodicMatrixFunction(GRID, np.zeros((4, 2))),
        DimensionError, "values must be (N, rows, cols) with N=4"),
    "values_wrong_n": (
        lambda _: PeriodicMatrixFunction(GRID, np.zeros((5, 2, 2))),
        DimensionError, "values must be (N, rows, cols) with N=4"),
    "diagonal_not_2d": (
        lambda _: PeriodicMatrixFunction._from_diagonal(GRID, np.ones(4)),
        DimensionError, "diagonal must be (N, n) with N=4"),
    "diagonal_wrong_n": (
        lambda _: PeriodicMatrixFunction._from_diagonal(GRID, np.ones((5, 2))),
        DimensionError, "diagonal must be (N, n) with N=4"),
    "1d_coefficient_sequences": (
        lambda _: CoefficientBank(np.zeros(4), frozenset()),
        DimensionError, "sequences must be (m, N)"),
    "support_above_m": (
        lambda _: CoefficientBank(np.zeros((2, 4)), frozenset({2})),
        InvalidInputError, "support [2] out of range for m=2"),
    "negative_support": (
        lambda _: CoefficientBank(np.zeros((2, 4)), frozenset({-1})),
        InvalidInputError, "support [-1] out of range for m=2"),
    "cross_spectrum_alias_mismatch": (
        lambda _: cross_spectrum(gens(support=(0,)), gens(support=(1,))),
        DimensionError, "alias support mismatch"),
    "filterbank_length_mismatch": (
        lambda _: filterbank_sample(bank(2, 8), identity(2)),
        DimensionError, "grid length 4 != sequence length 8"),
    "reconstruct_non_square": (
        lambda _: reconstruct_subspace(np.zeros((2, 4)),
                                       PeriodicMatrixFunction(GRID, np.ones((4, 2, 3)))),
        DimensionError, "requires a square sampling operator"),
    "reconstruct_wrong_bank_shape": (
        lambda _: reconstruct_subspace(np.zeros((3, 4)), identity(2)),
        DimensionError, "sample bank shape (3, 4) incompatible"),
    "too_few_alias_cells": (
        lambda _: random_generator_set(3, GRID, 1.0, (0, 1), rng()),
        InvalidInputError, "need at least m=3 alias cells"),
}


@pytest.mark.parametrize("name", sorted(SI_CORE))
def test_si_core_refuses_by_name(name, tmp_path):
    refuse(SI_CORE, name, tmp_path)


def profile(m=2):
    return sparse_model.SparsityProfile(m, 1, frozenset({0}))


SPARSE_MODEL = {
    "zero_samples": (
        lambda _: sparse_model.synthesize(profile(), 0, 1),
        InvalidInputError, "n_samples must be >= 1, got 0"),
    "bank_and_generators_differ_in_m": (
        lambda _: sparse_model.SparseSISignal(
            profile(), sparse_model.synthesize(profile(), 4, 1), gens(m=3, support=(0, 1, 2))),
        InvalidInputError, "coefficient bank has 2 channels, generator set has 3"),
}


@pytest.mark.parametrize("name", sorted(SPARSE_MODEL))
def test_sparse_model_refuses_by_name(name, tmp_path):
    refuse(SPARSE_MODEL, name, tmp_path)


SAMPLING_DESIGN = {
    "w_on_another_grid": (
        lambda _: MeasurementDesign(np.eye(2, 3), identity(2, FrequencyGrid(8)), GRID),
        DimensionError, "W lives on a different grid"),
    "w_not_p_by_p": (
        lambda _: MeasurementDesign(np.eye(2, 3), identity(3), GRID),
        DimensionError, "W must be 2 x 2, got 3 x 3"),
    "z_on_another_grid": (
        lambda _: MeasurementDesign(np.eye(2, 3), identity(2), GRID,
                                    Z=identity(3, FrequencyGrid(8))),
        DimensionError, "Z lives on a different grid"),
    "z_not_m_by_m": (
        lambda _: MeasurementDesign(np.eye(2, 3), identity(2), GRID, Z=identity(2)),
        DimensionError, "Z must be 3 x 3, got 2 x 2"),
    "1d_measurements": (
        lambda _: MeasurementBank(np.zeros(4)),
        DimensionError, "sequences must be (p, N)"),
    "biorthogonalize_channel_mismatch": (
        lambda _: biorthogonalize(gens(m=1, support=(0, 1)), gens(m=2, support=(0, 1))),
        DimensionError, "as many h channels (1) as generators (2)"),
    "filters_on_another_grid": (
        lambda _: build_sampling_filters(design(), gens(m=3, support=(0, 1, 2), n=8)),
        DimensionError, "design and biorthogonal set live on different grids"),
    "filters_m_mismatch": (
        lambda _: build_sampling_filters(design(), gens(m=2, support=(0, 1))),
        DimensionError, "design mixes 3 channels but biorthogonal set has 2"),
    "sample_length_mismatch": (
        lambda _: compressive_sample(bank(3, 8), design()),
        DimensionError, "sequence length 8 != grid length 4"),
    "kruskal_1d": (
        lambda _: kruskal_rank(np.ones(3)),
        DimensionError, "A must be 2-D or a stack of 2-D matrices"),
    "kruskal_4d": (
        lambda _: kruskal_rank(np.ones((1, 1, 2, 2))),
        DimensionError, "A must be 2-D or a stack of 2-D matrices"),
    "cs_matrix_p_above_m": (
        lambda _: make_cs_matrix("gaussian", 4, 3, rng()),
        InvalidInputError, "p=4 must not exceed m=3"),
    "cs_matrix_wrong_coset_count": (
        lambda _: make_cs_matrix("fourier_rows", 2, 4, rng(), cosets=[0]),
        InvalidInputError, "need 2 coset rows, got 1"),
    "cs_matrix_unknown_kind": (
        lambda _: make_cs_matrix("sparse", 2, 4, rng()),
        InvalidInputError, "unknown matrix kind 'sparse'"),
}


@pytest.mark.parametrize("name", sorted(SAMPLING_DESIGN))
def test_sampling_design_refuses_by_name(name, tmp_path):
    refuse(SAMPLING_DESIGN, name, tmp_path)


CTF = {
    "mmv_a_not_2d": (
        lambda _: ctf.MMVProblem(np.ones(3), np.ones((3, 1)), 1),
        DimensionError, "A and V must be 2-D"),
    "mmv_v_not_2d": (
        lambda _: ctf.MMVProblem(np.ones((3, 4)), np.ones(3), 1),
        DimensionError, "A and V must be 2-D"),
    "mmv_row_mismatch": (
        lambda _: ctf.MMVProblem(np.ones((3, 4)), np.ones((2, 1)), 1),
        DimensionError, "V has 2 rows but A has 3"),
    "demodulate_shape_mismatch": (
        lambda _: ctf.demodulate(MeasurementBank(np.zeros((3, 4))), design()),
        DimensionError, "measurements (3 x 4) incompatible with design (p=2, N=4)"),
    "coefficients_support_above_m": (
        lambda _: ctf.recover_coefficients(MeasurementBank(np.zeros((2, 4))), design(), {5}),
        InvalidInputError, "support [5] out of range for m=3"),
}


@pytest.mark.parametrize("name", sorted(CTF))
def test_ctf_refuses_by_name(name, tmp_path):
    refuse(CTF, name, tmp_path)


def not_json(path):
    path = path / "config.json"
    path.write_text("{not json", encoding="utf-8")
    return experiments.load_config(path)


EXPERIMENTS = {
    "unknown_mode": (
        lambda _: ExperimentConfig(mode="bogus"),
        ConfigError, "mode must be one of"),
    "zero_trials": (
        lambda _: ExperimentConfig(trials=0),
        ConfigError, "trials must be >= 1, got 0"),
    "zero_n": (
        lambda _: ExperimentConfig(N=0),
        ConfigError, "N=0 must be >= 1"),
    "unknown_matrix_kind": (
        lambda _: ExperimentConfig(matrix_kind="sparse"),
        ConfigError, "matrix_kind must be one of"),
    "cosets_wrong_length": (
        lambda _: ExperimentConfig(mode="multiband", m=8, p=4, cosets=(0, 1, 2)),
        ConfigError, "cosets has 3 entries but p=4"),
    "document_not_an_object": (
        lambda _: experiments.config_from_json([1]),
        ConfigError, "config document must be a JSON object"),
    "tolerances_not_an_object": (
        lambda _: experiments.config_from_json({"tolerances": 3}),
        ConfigError, "field 'tolerances' must be an object"),
    "config_file_not_json": (
        not_json, ConfigError, "is not valid JSON"),
    "trials_in_verify_mode": (
        lambda _: experiments.run_trials(ExperimentConfig(mode="verify")),
        ConfigError, "mode 'verify' does not run trials"),
    "sweep_without_values": (
        lambda path: experiments.run_sweep(ExperimentConfig(), "p", [], path),
        ConfigError, "sweep needs at least one value"),
}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiments_refuses_by_name(name, tmp_path):
    refuse(EXPERIMENTS, name, tmp_path)


SCENARIOS = {
    "2d_fractional_delay_input": (
        lambda _: scenarios.fractional_delay_demodulate(np.zeros((2, 4)), 1, 4),
        DimensionError, "fractional_delay_demodulate expects a single sequence"),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenarios_refuses_by_name(name, tmp_path):
    refuse(SCENARIOS, name, tmp_path)


def fail_in_run(monkeypatch):
    def infeasible(cfg, out_dir):
        raise InfeasibleError("no support fits")
    monkeypatch.setattr(cli, "run_experiment", infeasible)
    return "run"


CLI = {
    "sweep_values_not_integers": (
        lambda monkeypatch: "sweep", ["--var", "p", "--values", "3,x"], 2,
        "config error: --values must be a comma-separated integer list"),
    "library_error_in_run": (
        fail_in_run, [], 1, "error: no support fits"),
}


@pytest.mark.parametrize("name", sorted(CLI))
def test_cli_exits_with_the_named_error(name, tmp_path, monkeypatch, capsys):
    command, extra, code, message = CLI[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mode": "generic", "trials": 1}), encoding="utf-8")
    argv = [command(monkeypatch), "--config", str(config), "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv + extra) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
