"""The one per-bin solve, ``PeriodicMatrixFunction.solve``, behind
``ctf.demodulate`` and ``si_core.reconstruct_subspace``; and the rejection of
non-finite W and Z at the design boundary."""

import numpy as np
import pytest

from si_subnyq.ctf import demodulate
from si_subnyq.errors import InvalidInputError, SingularOperatorError
from si_subnyq.sampling_design import (
    MeasurementBank,
    MeasurementDesign,
    compressive_sample,
    make_cs_matrix,
    make_design,
    random_invertible_w,
)
from si_subnyq.scenarios import MultibandScenario, build_multiband
from si_subnyq.si_core import FrequencyGrid, PeriodicMatrixFunction, reconstruct_subspace
from si_subnyq.sparse_model import SparsityProfile, synthesize

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def reference_solve(values, sequences):
    """The inline fft -> batched solve -> ifft that demodulate and
    reconstruct_subspace each spelled out before the shared solve."""
    spectra = np.fft.fft(sequences, axis=1)
    solved = np.linalg.solve(values, spectra.T[:, :, None])[:, :, 0]
    return np.fft.ifft(solved.T, axis=1)


def shaped_instance(kind):
    if kind == "diagonal":
        sc = MultibandScenario(n_bands=1, band_width=2 * np.pi / 8, m=8, T=1.0,
                               cosets=(0, 1, 3, 6), seed=71, n_samples=32)
        build = build_multiband(sc)
        return build.design, compressive_sample(build.signal.coefficients, build.design)
    rng = np.random.default_rng(90)
    grid = FrequencyGrid(16)
    w = random_invertible_w(4, grid, rng) if kind == "dense" else None
    design = make_design(make_cs_matrix("gaussian", 4, 6, rng), grid, W=w)
    d = synthesize(SparsityProfile(6, 2, frozenset({1, 4})), 16, rng)
    return design, compressive_sample(d, design)


@pytest.mark.parametrize("kind", ["identity", "diagonal", "dense"])
def test_demodulate_and_reconstruct_match_the_inline_solve_bit_for_bit(kind):
    design, y = shaped_instance(kind)
    assert design.W.is_diagonal() == (kind != "dense")
    expected = reference_solve(design.W.values, y.sequences)
    assert np.array_equal(demodulate(y, design).sequences, expected)
    back = reconstruct_subspace(y.sequences, design.W)
    assert np.array_equal(back.sequences, expected)


def singular_w(n=8, bad=5):
    values = np.broadcast_to(np.eye(2), (n, 2, 2)).copy()
    values[bad] = 0.0
    return PeriodicMatrixFunction(FrequencyGrid(n), values)


def test_singular_bin_keeps_each_callers_label():
    w = singular_w()
    design = MeasurementDesign(A=np.ones((2, 3)), W=w, grid=w.grid)
    with pytest.raises(SingularOperatorError, match="W singular") as err:
        demodulate(MeasurementBank(np.ones((2, 8))), design)
    assert err.value.grid_index == 5
    with pytest.raises(SingularOperatorError, match="sampling operator singular") as err:
        reconstruct_subspace(np.ones((2, 8)), w)
    assert err.value.grid_index == 5


# ---------------------------------------------------------------------------
# non-finite W and Z
# ---------------------------------------------------------------------------

GRID = FrequencyGrid(3)
A = np.random.default_rng(91).standard_normal((2, 3))


def identity_with(n, q, i, j, value):
    values = np.broadcast_to(np.eye(n, dtype=np.complex128), (GRID.n, n, n)).copy()
    values[q, i, j] = value
    return PeriodicMatrixFunction(GRID, values)


NON_FINITE_W = {
    "nan_dense": (0, 1, np.nan),
    "inf_dense": (1, 0, np.inf),
    "nan_diagonal": (0, 0, np.nan),
    "inf_diagonal": (1, 1, np.inf),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_W))
def test_make_design_rejects_non_finite_w(case):
    w = identity_with(2, 1, *NON_FINITE_W[case])
    with pytest.raises(InvalidInputError, match="W has a NaN or infinite entry at grid point 1"):
        make_design(A, GRID, W=w)


@pytest.mark.parametrize("case", sorted(NON_FINITE_W))
def test_demodulate_rejects_non_finite_w_of_a_raw_design(case):
    w = identity_with(2, 1, *NON_FINITE_W[case])
    design = MeasurementDesign(A=A, W=w, grid=GRID)
    with pytest.raises(InvalidInputError, match="W has a NaN or infinite entry at grid point 1"):
        demodulate(MeasurementBank(np.ones((2, GRID.n))), design)


def test_condition_numbers_mark_non_finite_bins_nan():
    w = identity_with(2, 2, 0, 1, np.nan)
    assert np.isnan(w.condition_numbers()[2])
    assert np.array_equal(w.condition_numbers()[:2], [1.0, 1.0])


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_z_diagonal_is_rejected(value):
    z = identity_with(3, 2, 1, 1, value)
    with pytest.raises(InvalidInputError, match="Z has a NaN or infinite entry at grid point 2"):
        make_design(A, GRID, Z=z)
    with pytest.raises(InvalidInputError, match="Z has a NaN or infinite entry at grid point 2"):
        MeasurementDesign(A=A, W=PeriodicMatrixFunction.identity(GRID, 2), grid=GRID, Z=z)
