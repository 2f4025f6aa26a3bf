"""Structured shaping banks against their dense twins, bit for bit.

An identity or diagonal ``PeriodicMatrixFunction`` built by
``_from_diagonal`` solves and applies W without the dense (N, n, n) array.
Each route must give exactly the bits the dense code gives on the same
matrices, ``PeriodicMatrixFunction(grid, W.values)``: the written nmse digits
depend on the last bits. The 1x1 LAPACK solve matching the n x n one is a
property observed on OpenBLAS, not a documented one, so these tests compare
with ``np.array_equal`` on whatever BLAS runs them.
"""

import dataclasses

import numpy as np
import pytest

from si_subnyq import ctf, experiments
from si_subnyq.experiments import ExperimentConfig
from si_subnyq.sampling_design import (
    compressive_sample,
    make_cs_matrix,
    make_design,
    random_diagonal_z,
)
from si_subnyq.scenarios import MultibandScenario, multiband_shaping_bank
from si_subnyq.si_core import CoefficientBank, FrequencyGrid, PeriodicMatrixFunction

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

COND_TOL = 1e8


def dense_twin(w):
    return PeriodicMatrixFunction(w.grid, w.values)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def multiband_w():
    sc = MultibandScenario(n_bands=2, band_width=2 * np.pi / 32, m=32, T=1.0,
                           cosets=tuple(range(0, 32, 2)), seed=3, n_samples=2048)
    return multiband_shaping_bank(sc, FrequencyGrid(2048))


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
        cfg, experiments.trial_seed(seed, 0))
    assert design.W.is_diagonal()

    def sample_and_recover(d):
        y = compressive_sample(bank, d, cfg.tolerances)
        return ctf.recover(y, d, k_max=k_max, solver=cfg.solver, tol=cfg.tolerances)

    fast = sample_and_recover(design)
    assert design.W._values is None  # the trial never built the dense W
    dense = sample_and_recover(dataclasses.replace(design, W=dense_twin(design.W)))
    assert fast.support == dense.support == bank.support
    assert fast.coefficients.sequences.tobytes() == dense.coefficients.sequences.tobytes()
    assert fast.diagnostics["rank_q"] == dense.diagnostics["rank_q"]
    assert fast.diagnostics["residual"] == dense.diagnostics["residual"]
