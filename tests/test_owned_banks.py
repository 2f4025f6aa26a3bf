"""Banks the pipeline builds keep their own array; public constructors copy.

``synthesize``, ``compressive_sample``, ``ctf.demodulate`` and the
coefficient step of ``ctf.recover`` hand the array they have just made to
``CoefficientBank._owned`` / ``MeasurementBank._owned``, which keep it
without a copy. Each must return a fresh read-only array, equal to what the
copying public constructor gives and sharing no memory with any input. The
public constructors keep copying and validating.
"""

import numpy as np
import pytest

from si_subnyq import ctf
from si_subnyq.errors import DimensionError, InvalidInputError
from si_subnyq.sampling_design import (
    MeasurementBank,
    MeasurementDesign,
    compressive_sample,
    make_cs_matrix,
    make_design,
    random_diagonal_z,
)
from si_subnyq.scenarios import multiband_shaping_bank
from si_subnyq.si_core import CoefficientBank, FrequencyGrid, PeriodicMatrixFunction
from si_subnyq.sparse_model import SparsityProfile, synthesize
from si_subnyq.tolerances import DEFAULT_TOLERANCES

M, P, N = 8, 4, 16


def _designs():
    """Identity W, a dense W with a diagonal Z, and the multiband diagonal W."""
    rng = np.random.default_rng(11)
    grid = FrequencyGrid(N)
    a = make_cs_matrix("gaussian", P, M, rng)
    dense = rng.standard_normal((N, P, P)) + 1j * rng.standard_normal((N, P, P))
    yield "identity", make_design(a, grid)
    yield "dense", make_design(a, grid, PeriodicMatrixFunction(grid, dense),
                               random_diagonal_z(M, grid, rng))
    grid = FrequencyGrid(64)
    yield "multiband", make_design(make_cs_matrix("gaussian", 16, 32, rng), grid,
                                   multiband_shaping_bank(32, 1.0, tuple(range(0, 32, 2)), grid))


DESIGNS = dict(_designs())


def _design_arrays(design):
    arrays = [design.A, design.W.values, design.W.diagonal()]
    if design.Z is not None:
        arrays += [design.Z.values, design.Z.diagonal()]
    return arrays


def _assert_owned(out, public, inputs):
    assert not out.flags.writeable
    assert out.dtype == np.complex128
    assert np.array_equal(out, public)
    for arr in inputs:
        assert not np.shares_memory(out, arr)


@pytest.mark.parametrize("name", DESIGNS)
def test_producers_hand_over_fresh_read_only_arrays(name):
    design = DESIGNS[name]
    truth = frozenset({0, 3})
    d = synthesize(SparsityProfile(design.m, 2, truth), design.grid.n, 5)
    _assert_owned(d.sequences, CoefficientBank(d.sequences, truth).sequences, [])
    assert d.support == truth

    y = compressive_sample(d, design)
    inputs = [d.sequences] + _design_arrays(design)
    _assert_owned(y.sequences, MeasurementBank(y.sequences).sequences, inputs)

    y_tilde = ctf.demodulate(y, design)
    inputs.append(y.sequences)
    _assert_owned(y_tilde.sequences, MeasurementBank(y_tilde.sequences).sequences,
                  inputs)

    bank = ctf._coefficients(y_tilde, design, truth, DEFAULT_TOLERANCES)
    inputs.append(y_tilde.sequences)
    _assert_owned(bank.sequences, CoefficientBank(bank.sequences, truth).sequences,
                  inputs)
    assert bank.support == truth

    result = ctf.recover(y, design, 2)
    assert result.support == truth
    assert np.array_equal(result.coefficients.sequences, bank.sequences)
    for arr in inputs:
        assert not np.shares_memory(result.coefficients.sequences, arr)


def test_zeros_bank_is_read_only():
    bank = CoefficientBank.zeros(3, 5)
    assert not bank.sequences.flags.writeable
    assert bank.support == frozenset()
    assert np.array_equal(bank.sequences, np.zeros((3, 5)))


def test_public_constructors_keep_a_copy():
    seq = np.zeros((3, 4), dtype=np.complex128)
    seq[1] = 2.0
    bank = CoefficientBank(seq, frozenset({1}))
    meas = MeasurementBank(seq)
    grid = FrequencyGrid(4)
    design = MeasurementDesign(seq, PeriodicMatrixFunction.identity(grid, 3), grid)
    seq[1] = 7.0
    assert np.all(bank.sequences[1] == 2.0)
    assert np.all(meas.sequences[1] == 2.0)
    assert np.all(design.A[1] == 2.0)
    assert seq.flags.writeable
    assert not bank.sequences.flags.writeable
    assert not meas.sequences.flags.writeable
    assert not design.A.flags.writeable


@pytest.mark.parametrize("bad", [1e-300, -1.0, 1j, np.nan, complex(0.0, np.nan)])
def test_off_support_nonzero_or_nan_is_rejected_on_both_routes(bad):
    seq = np.zeros((3, 4), dtype=np.complex128)
    seq[1] = 1.0
    seq[2, 3] = bad
    with pytest.raises(InvalidInputError, match="outside the declared support"):
        CoefficientBank(seq, frozenset({1}))
    with pytest.raises(InvalidInputError, match="outside the declared support"):
        CoefficientBank._owned(seq, frozenset({1}))


def test_negative_zero_off_support_is_accepted():
    seq = np.zeros((3, 4), dtype=np.complex128)
    seq[1] = 1.0
    seq[0] = complex(-0.0, -0.0)
    seq[2, 1] = -0.0
    assert CoefficientBank(seq, frozenset({1})).support == frozenset({1})
    assert CoefficientBank(seq.real, frozenset({1})).support == frozenset({1})
    assert CoefficientBank._owned(seq, frozenset({1})).support == frozenset({1})


@pytest.mark.parametrize("layout", [lambda a: a[:, ::2], np.asfortranarray])
def test_off_support_check_reads_a_non_contiguous_complex_array(layout):
    seq = np.zeros((3, 8), dtype=np.complex128)
    seq[1] = 1.0
    seq[0, 2] = complex(-0.0, -0.0)
    seq[2, 2] = -0.0
    assert not layout(seq).flags.c_contiguous
    assert CoefficientBank(layout(seq), frozenset({1})).support == frozenset({1})
    seq[2, 4] = 1j  # imaginary part only
    with pytest.raises(InvalidInputError, match="outside the declared support"):
        CoefficientBank(layout(seq), frozenset({1}))


def test_off_support_check_skips_the_columns_a_view_leaves_out():
    seq = np.zeros((3, 8), dtype=np.complex128)
    seq[1] = 1.0
    seq[2, 3] = 5.0
    assert CoefficientBank(seq[:, ::2], frozenset({1})).support == frozenset({1})


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_off_support_check_reads_real_and_int_arrays(dtype):
    seq = np.zeros((3, 4), dtype=dtype)
    seq[1] = 2
    assert CoefficientBank(seq, frozenset({1})).support == frozenset({1})
    seq[0, 3] = -1
    with pytest.raises(InvalidInputError, match="outside the declared support"):
        CoefficientBank(seq, frozenset({1}))


def row_by_row_support(sequences):
    """The support rule ``from_sequences`` applied before it shared the
    constructor's one-pass reduction: a row at a time."""
    seq = np.asarray(sequences, dtype=np.complex128)
    return frozenset(i for i in range(seq.shape[0]) if np.any(seq[i] != 0))


def _support_cases():
    seq = np.zeros((5, 8), dtype=np.complex128)
    seq[1] = 1.0
    seq[0] = complex(-0.0, -0.0)
    seq[2, 3] = -0.0
    seq[3, 5] = np.nan
    seq[4, 6] = 1j  # imaginary part only
    yield "complex", seq
    yield "nan_imaginary", np.where(np.arange(8) == 7, complex(0.0, np.nan), 0j)[None, :]
    yield "real", seq.real.copy()
    yield "int", np.array([[0, 0, 0], [0, -3, 0], [0, 0, 0], [2, 0, 0]])
    yield "strided", seq[:, ::2]
    yield "fortran", np.asfortranarray(seq)
    yield "all_zero", np.zeros((3, 4))


@pytest.mark.parametrize("name, sequences", list(_support_cases()),
                         ids=[name for name, _ in _support_cases()])
def test_from_sequences_infers_the_row_by_row_support(name, sequences):
    before = np.array(sequences)
    bank = CoefficientBank.from_sequences(sequences)
    assert bank.support == row_by_row_support(sequences)
    assert np.array_equal(bank.sequences, np.asarray(sequences, dtype=np.complex128),
                          equal_nan=True)
    assert bank.sequences.dtype == np.complex128
    assert not bank.sequences.flags.writeable
    assert not np.shares_memory(bank.sequences, sequences)
    assert np.array_equal(sequences, before, equal_nan=True)


def test_from_sequences_rejects_a_single_sequence():
    with pytest.raises(DimensionError, match=r"\(m, N\)"):
        CoefficientBank.from_sequences(np.ones(4))
