"""``compressive_sample`` transforms only the channels of the bank's support.

Every other row of its spectra stays +0.0, and the measurements must equal,
bit for bit, the reference that transforms the whole bank:
ifft(W (A (Z fft(d)))), here with W and Z as dense per-bin products. At
N = 89 the FFT of a zero row holds -0.0 entries, so there the two spectra
differ in the signs of zeros and only the sums may agree.
"""

import numpy as np
import pytest

from si_subnyq.sampling_design import compressive_sample, make_cs_matrix, make_design
from si_subnyq.si_core import CoefficientBank, FrequencyGrid, PeriodicMatrixFunction

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

M, P = 7, 4


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def reference(d, design):
    x = np.fft.fft(d.sequences, axis=1)
    if design.Z is not None:
        x = np.einsum("qir,rq->iq", design.Z.values, x)
    return np.fft.ifft(np.einsum("qir,rq->iq", design.W.values, design.A @ x), axis=1)


def shaping(kind, grid, rng):
    if kind == "identity":
        return None  # make_design's default
    if kind == "diagonal":
        return PeriodicMatrixFunction._from_diagonal(grid, random_complex(rng, (grid.n, P)))
    return PeriodicMatrixFunction(grid, random_complex(rng, (grid.n, P, P)))


def bank(rng, n, support, scale=1.0):
    seq = np.zeros((M, n), dtype=np.complex128)
    rows = sorted(support)
    seq[rows] = random_complex(rng, (len(rows), n)) * scale
    return CoefficientBank(seq, frozenset(support))


@pytest.mark.parametrize("n", [1, 89, 256])
@pytest.mark.parametrize("k", [0, 1, 3, M])
@pytest.mark.parametrize("with_z", [False, True])
@pytest.mark.parametrize("w_kind", ["identity", "diagonal", "dense"])
def test_sampling_the_support_equals_sampling_the_whole_bank(w_kind, with_z, k, n):
    rng = np.random.default_rng([n, k, with_z, len(w_kind)])
    grid = FrequencyGrid(n)
    z = None
    if with_z:
        z = PeriodicMatrixFunction._from_diagonal(grid, random_complex(rng, (n, M)))
    design = make_design(make_cs_matrix("gaussian", P, M, rng), grid,
                         shaping(w_kind, grid, rng), z)
    d = bank(rng, n, rng.choice(M, size=k, replace=False))
    assert compressive_sample(d, design).sequences.tobytes() == reference(d, design).tobytes()


@pytest.mark.parametrize("scale", [2.0 ** -600, 2.0 ** 600])
def test_sampling_the_support_is_exact_at_any_scale(scale):
    rng = np.random.default_rng(4)
    grid = FrequencyGrid(128)
    design = make_design(make_cs_matrix("gaussian", P, M, rng), grid,
                         shaping("diagonal", grid, rng))
    d = bank(rng, 128, {0, 5}, scale)
    assert compressive_sample(d, design).sequences.tobytes() == reference(d, design).tobytes()


def test_a_declared_channel_of_zeros_is_sampled_like_the_rest():
    rng = np.random.default_rng(5)
    grid = FrequencyGrid(89)
    design = make_design(make_cs_matrix("gaussian", P, M, rng), grid)
    seq = np.zeros((M, 89), dtype=np.complex128)
    seq[2] = random_complex(rng, 89)
    d = CoefficientBank(seq, frozenset({2, 4}))  # row 4 is declared but zero
    assert compressive_sample(d, design).sequences.tobytes() == reference(d, design).tobytes()
