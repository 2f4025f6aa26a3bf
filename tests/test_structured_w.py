"""Structured shaping banks against their dense twins, bit for bit.

An identity or diagonal ``PeriodicMatrixFunction`` built by
``_from_diagonal`` solves and applies W without the dense (N, n, n) array.
Each route must give exactly the bits the dense code gives on the same
matrices, ``PeriodicMatrixFunction(grid, W.values)``: the written nmse digits
depend on the last bits. That LAPACK's reciprocal r times the right-hand
side (``r * s``, r on the left) matches the n x n solve is a property observed
on OpenBLAS with numpy's SIMD complex product, not a documented one, so these
tests compare with ``np.array_equal`` on whatever build runs them.
"""

import dataclasses

import numpy as np
import pytest

from si_subnyq import ctf, experiments
from si_subnyq.errors import ConfigError, InvalidInputError, SingularOperatorError
from si_subnyq.experiments import ExperimentConfig, config_from_json
from si_subnyq.sampling_design import (
    compressive_sample,
    make_cs_matrix,
    make_design,
    random_diagonal_z,
)
from si_subnyq.scenarios import multiband_shaping_bank
from si_subnyq.si_core import (
    CoefficientBank,
    FrequencyGrid,
    PeriodicMatrixFunction,
    filterbank_sample,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

COND_TOL = 1e8


def dense_twin(w):
    return PeriodicMatrixFunction(w.grid, w.values)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def multiband_w():
    return multiband_shaping_bank(32, 1.0, tuple(range(0, 32, 2)), FrequencyGrid(2048))


def random_diagonal(n, p, seed):
    rng = np.random.default_rng(seed)
    return PeriodicMatrixFunction._from_diagonal(FrequencyGrid(n), random_complex(rng, (n, p)))


STRUCTURED = {
    "identity_256x10": lambda: PeriodicMatrixFunction.identity(FrequencyGrid(256), 10),
    "multiband_2048x16": multiband_w,
    "diagonal_16x4": lambda: random_diagonal(16, 4, 1),
    "diagonal_256x10": lambda: random_diagonal(256, 10, 2),
    "diagonal_2048x16": lambda: random_diagonal(2048, 16, 3),
}


@pytest.mark.parametrize("name", sorted(STRUCTURED))
def test_structured_w_reads_like_its_dense_twin(name):
    w = STRUCTURED[name]()
    twin = dense_twin(w)
    assert w.is_diagonal() and twin.is_diagonal()
    assert (w.rows, w.cols) == (twin.rows, twin.cols)
    assert np.array_equal(w.diagonal(), twin.diagonal())
    assert np.array_equal(w.condition_numbers(), twin.condition_numbers())
    assert np.array_equal(w.values, twin.values)
    assert w.values is w.values and not w.values.flags.writeable


@pytest.mark.parametrize("name", sorted(STRUCTURED))
def test_structured_solve_matches_dense_solve_bit_for_bit(name):
    w = STRUCTURED[name]()
    rng = np.random.default_rng(len(name))
    sequences = random_complex(rng, (w.rows, w.grid.n))
    solved = w.solve(sequences, COND_TOL, "W")
    assert w._values is None  # solved from the diagonal alone
    assert np.array_equal(solved, dense_twin(w).solve(sequences, COND_TOL, "W"))


@pytest.mark.parametrize("name", sorted(STRUCTURED))
def test_structured_sampling_matches_dense_einsum_bit_for_bit(name):
    w = STRUCTURED[name]()
    rng = np.random.default_rng(len(name) + 100)
    p, n = w.rows, w.grid.n
    m = p + 3
    design = make_design(make_cs_matrix("gaussian", p, m, rng), w.grid, W=w,
                         Z=random_diagonal_z(m, w.grid, rng))
    bank = CoefficientBank.from_sequences(random_complex(rng, (m, n)))
    twin = dataclasses.replace(design, W=dense_twin(w), Z=dense_twin(design.Z))
    assert np.array_equal(compressive_sample(bank, design).sequences,
                          compressive_sample(bank, twin).sequences)


@pytest.mark.parametrize("name", sorted(STRUCTURED))
def test_structured_filterbank_sample_matches_dense_twin_bit_for_bit(name):
    w = STRUCTURED[name]()
    rng = np.random.default_rng(len(name) + 200)
    bank = CoefficientBank.from_sequences(random_complex(rng, (w.cols, w.grid.n)))
    sampled = filterbank_sample(bank, w)
    assert w._values is None  # applied from the diagonal alone
    assert np.array_equal(sampled, filterbank_sample(bank, dense_twin(w)))


def test_default_w_is_one_shared_identity_that_apply_passes_through():
    rng = np.random.default_rng(8)
    w = make_design(make_cs_matrix("gaussian", 4, 6, rng), FrequencyGrid(16)).W
    assert make_design(make_cs_matrix("gaussian", 4, 7, rng), FrequencyGrid(16)).W is w
    assert np.array_equal(w.diagonal(), np.ones((16, 4)))
    spectra = random_complex(rng, (4, 16))
    assert w.apply(spectra) is spectra
    assert make_design(make_cs_matrix("gaussian", 3, 6, rng), FrequencyGrid(16)).W.cols == 3


@pytest.mark.parametrize("values, ones", [(np.ones((8, 3)), True),
                                          (np.full((8, 3), 1 + 1e-16j), False),
                                          (np.eye(8, 3) + 1, False)])
def test_diagonal_apply_passes_through_only_an_all_ones_diagonal(values, ones):
    w = PeriodicMatrixFunction._from_diagonal(FrequencyGrid(8), values)
    spectra = random_complex(np.random.default_rng(9), (3, 8))
    assert (w.apply(spectra) is spectra) == ones
    assert np.array_equal(w.apply(spectra), dense_twin(w).apply(spectra))


@pytest.mark.parametrize("cosets, ones", [((0,), True), ((8,), False), ((0, 3), False)])
def test_table_columns_carry_the_all_ones_answer(cosets, ones):
    # coset 0 with T = 1 gives the column exp(0) / 1 = 1 at every bin
    grid = FrequencyGrid(16)
    w = multiband_shaping_bank(8, 1.0, cosets, grid)
    fresh = PeriodicMatrixFunction._from_diagonal(grid, w.diagonal())
    spectra = random_complex(np.random.default_rng(10), (len(cosets), 16))
    assert (w.apply(spectra) is spectra) == ones
    assert (fresh.apply(spectra) is spectra) == ones


def per_coset_exp_loop(m, T, cosets, grid):
    """multiband_shaping_bank's diagonal as the per-trial loop built it
    before the cached coset table, verbatim."""
    w = grid.points
    diag = np.empty((grid.n, len(cosets)), dtype=np.complex128)
    for i, c in enumerate(cosets):
        diag[:, i] = np.exp(1j * c * w / m) / np.sqrt(T)
    return diag


# Cosets may include both ends 0 and m (each alone: they are equal mod m).
TABLE_CASES = [(32, 1.0, tuple(range(0, 32, 2))), (8, 0.37, (8, 3, 5, 1)),
               (8, 0.37, (0, 6, 2)), (5, 2.5, (4, 0, 1, 2, 3))]


@pytest.mark.parametrize("n", [1, 64, 2048])
@pytest.mark.parametrize("m, T, cosets", TABLE_CASES)
def test_table_shaping_bank_equals_the_per_coset_exp_loop(n, m, T, cosets):
    grid = FrequencyGrid(n)
    w = multiband_shaping_bank(m, T, cosets, grid)
    assert np.array_equal(w.diagonal(), per_coset_exp_loop(m, T, cosets, grid))
    assert w._values is None and not w.diagonal().flags.writeable


@pytest.mark.parametrize("m, T, cosets", TABLE_CASES)
def test_table_shaping_bank_solves_as_a_fresh_diagonal_and_its_dense_twin(m, T, cosets):
    w = multiband_shaping_bank(m, T, cosets, FrequencyGrid(256))
    assert "_r" in w.__dict__  # the table's reciprocals came with the columns
    fresh = PeriodicMatrixFunction._from_diagonal(
        w.grid, per_coset_exp_loop(m, T, cosets, w.grid))
    rng = np.random.default_rng(m)
    sequences = random_complex(rng, (len(cosets), 256)) * 1e30
    solved = w.solve(sequences, COND_TOL, "W")
    assert np.array_equal(solved, fresh.solve(sequences, COND_TOL, "W"))
    assert np.array_equal(solved, dense_twin(w).solve(sequences, COND_TOL, "W"))
    assert np.array_equal(w._reciprocal(), fresh._reciprocal())


@pytest.mark.parametrize("bad, error", [(0.0, SingularOperatorError),
                                        (np.nan, InvalidInputError)])
def test_bad_diagonal_fails_the_conditioning_check_before_any_lapack_call(bad, error):
    d = random_complex(np.random.default_rng(6), (32, 4))
    d[5, 2] = bad
    w = PeriodicMatrixFunction._from_diagonal(FrequencyGrid(32), d)
    sequences = np.ones((4, 32), dtype=np.complex128)
    with pytest.raises(error, match="grid point 5"):
        w.solve(sequences, COND_TOL, "W")
    assert "_r" not in w.__dict__  # numpy's LinAlgError could not have been raised


def test_shaping_bank_of_a_nan_period_fails_the_conditioning_check():
    # The config rejects the NaN period by name, so no table is built from it.
    with pytest.raises(ConfigError, match="T must be finite"):
        config_from_json(dict(mode="multiband", m=8, p=3, N=16, T=float("nan"),
                              cosets=[0, 3, 5]))
    # The bank the coset expression gives for it still fails the check in solve.
    grid = FrequencyGrid(16)
    with np.errstate(invalid="ignore"):  # the exp expression itself warns on 1/sqrt(nan)
        w = PeriodicMatrixFunction._from_diagonal(
            grid, per_coset_exp_loop(8, np.nan, (0, 3, 5), grid))
    with pytest.raises(InvalidInputError, match="grid point 0"):
        w.solve(np.ones((3, 16)), COND_TOL, "W")
    assert "_r" not in w.__dict__


# The four benchmark workload shapes (benchmarks/workloads.py).
WORKLOAD_SHAPES = {
    "mc_small": dict(mode="generic", m=6, k=2, p=4, N=16, matrix_kind="gaussian",
                     solver="exhaustive"),
    "wide_exhaustive": dict(mode="generic", m=12, k=5, p=10, N=256, compute_sigma=False,
                            matrix_kind="gaussian", solver="exhaustive"),
    "multiband_long": dict(mode="multiband", m=32, k=4, p=16, N=2048, n_bands=2,
                           solver="somp"),
    "periodic_redraw": dict(mode="periodic_sparsity", m=16, k=2, p=10, N=128,
                            matrix_kind="bernoulli", solver="exhaustive"),
}


@pytest.mark.parametrize("shape", sorted(WORKLOAD_SHAPES))
@pytest.mark.parametrize("seed", [4, 29])
def test_trial_with_structured_w_equals_trial_with_dense_twin(shape, seed):
    cfg = ExperimentConfig(**WORKLOAD_SHAPES[shape], seed=seed)
    design, bank, k_max, _ = experiments._INSTANCES[cfg.mode](
        cfg, [experiments.trial_seed(seed, 0)])[0]
    assert design.W.is_diagonal()

    def sample_and_recover(d):
        y = compressive_sample(bank, d)
        return ctf.recover(y, d, k_max=k_max, solver=cfg.solver, tol=cfg.tolerances)

    fast = sample_and_recover(design)
    assert design.W._values is None  # the trial never built the dense W
    dense = sample_and_recover(dataclasses.replace(design, W=dense_twin(design.W)))
    assert fast.support == dense.support == bank.support
    assert fast.coefficients.sequences.tobytes() == dense.coefficients.sequences.tobytes()
    assert fast.diagnostics["rank_q"] == dense.diagnostics["rank_q"]
    assert fast.diagnostics["residual"] == dense.diagnostics["residual"]
