import itertools
import math

import numpy as np
import pytest

from references import pinv_coefficients
from si_subnyq import ctf, experiments
from si_subnyq.ctf import (
    MMVProblem,
    compute_q,
    demodulate,
    frame_from_q,
    recover,
    recover_coefficients,
    recover_support,
    solve_mmv_exhaustive,
    solve_mmv_somp,
)
from si_subnyq.errors import (
    DimensionError,
    InfeasibleError,
    InvalidInputError,
    SingularOperatorError,
)
from si_subnyq.experiments import ExperimentConfig
from si_subnyq.sampling_design import (
    MeasurementBank,
    MeasurementDesign,
    compressive_sample,
    kruskal_rank,
    make_cs_matrix,
    make_design,
    random_diagonal_z,
    random_invertible_w,
)
from si_subnyq.experiments import ExperimentConfig
from si_subnyq.scenarios import build_multiband
from si_subnyq.si_core import FrequencyGrid, PeriodicMatrixFunction
from si_subnyq.sparse_model import SparsityProfile, synthesize
from si_subnyq.tolerances import DEFAULT_TOLERANCES


def planted_instance(seed, m=6, p=4, k=2, n=16, with_w=False, with_z=False,
                     require_sigma=None):
    rng = np.random.default_rng(seed)
    grid = FrequencyGrid(n)
    while True:
        a_matrix = make_cs_matrix("gaussian", p, m, rng)
        if require_sigma is None or kruskal_rank(a_matrix) >= require_sigma:
            break
    w = random_invertible_w(p, grid, rng) if with_w else None
    z = random_diagonal_z(m, grid, rng) if with_z else None
    design = make_design(a_matrix, grid, W=w, Z=z)
    support = frozenset(int(i) for i in rng.choice(m, size=k, replace=False))
    d = synthesize(SparsityProfile(m, k, support), n, rng)
    y = compressive_sample(d, design)
    return design, support, d, y


# ---------------------------------------------------------------------------
# demodulate
# ---------------------------------------------------------------------------

def test_identity_w_passes_through():
    design, _, _, y = planted_instance(50)
    out = demodulate(y, design)
    assert np.max(np.abs(out.sequences - y.sequences)) <= 1e-14


def test_scalar_w_divides():
    grid = FrequencyGrid(8)
    a_matrix = make_cs_matrix("gaussian", 2, 4, np.random.default_rng(51))
    w = PeriodicMatrixFunction(grid, np.broadcast_to(2.0 * np.eye(2), (8, 2, 2)))
    design = make_design(a_matrix, grid, W=w)
    d = synthesize(SparsityProfile(4, 2, frozenset({0, 2})), 8, seed=52)
    y = compressive_sample(d, design)
    out = demodulate(y, design)
    plain = make_design(a_matrix, grid)
    expected = compressive_sample(d, plain).sequences
    assert np.max(np.abs(out.sequences - expected / 1.0)) <= 1e-12  # W undone entirely
    assert np.max(np.abs(out.sequences - expected)) <= 1e-12


def test_demodulation_recovers_unshaped_model():
    # forward model with random invertible W: after demodulation the
    # measurements equal the plain mixed coefficients
    design, _, d, y = planted_instance(53, with_w=True)
    out = demodulate(y, design)
    spectra = np.fft.fft(d.sequences, axis=1)
    expected = np.fft.ifft(design.A @ spectra, axis=1)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(out.sequences - expected)) / scale <= 1e-10


def test_demodulate_rejects_singular_w_point():
    from si_subnyq.errors import SingularOperatorError
    from si_subnyq.sampling_design import MeasurementDesign

    grid = FrequencyGrid(8)
    values = np.broadcast_to(np.eye(2), (8, 2, 2)).copy()
    values[6] = 0.0
    design = MeasurementDesign(A=np.ones((2, 3)),
                               W=PeriodicMatrixFunction(grid, values), grid=grid)
    with pytest.raises(SingularOperatorError) as err:
        demodulate(MeasurementBank(np.ones((2, 8))), design)
    assert err.value.grid_index == 6


# ---------------------------------------------------------------------------
# compute_q
# ---------------------------------------------------------------------------

def test_q_of_zero_is_zero():
    q = compute_q(MeasurementBank(np.zeros((3, 8))))
    assert np.all(q == 0)


def test_q_hand_computed_single_channel():
    q = compute_q(MeasurementBank(np.array([[1.0, 1.0j]])))
    assert q.shape == (1, 1)
    assert q[0, 0] == pytest.approx(2.0)


def test_q_rank_bounded_by_joint_support():
    design, support, _, y = planted_instance(54, with_w=True)
    q = compute_q(demodulate(y, design))
    sv = np.linalg.svd(q, compute_uv=False)
    k = len(support)
    assert np.all(sv[k:] <= 1e-10 * sv[0])


# ---------------------------------------------------------------------------
# frame_from_q
# ---------------------------------------------------------------------------

def test_frame_of_identity_spans_everything():
    v, eigvals = frame_from_q(np.eye(2))
    assert v.shape == (2, 2)
    assert np.max(np.abs(v @ v.conj().T - np.eye(2))) <= 1e-12
    assert eigvals == pytest.approx([1.0, 1.0])


def test_frame_of_zero_is_empty():
    v, _ = frame_from_q(np.zeros((3, 3)))
    assert v.shape == (3, 0)


def test_frame_of_low_rank_psd_matches_eigensolve_oracle():
    rng = np.random.default_rng(56)
    b = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    q = b @ b.conj().T
    v, _ = frame_from_q(q)
    assert v.shape[1] == 2
    assert np.linalg.norm(q - v @ v.conj().T) <= 1e-9 * np.linalg.norm(q)
    # column span equals the span of the top eigenvectors (projector match)
    eigvals, eigvecs = np.linalg.eigh(q)
    top = eigvecs[:, np.argsort(eigvals)[::-1][:2]]
    proj_v = v @ np.linalg.pinv(v)
    proj_top = top @ top.conj().T
    assert np.max(np.abs(proj_v - proj_top)) <= 1e-10


def test_frame_rejects_indefinite_matrix():
    with pytest.raises(InvalidInputError):
        frame_from_q(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("q, error, match", [
    (np.array([[1.0, 0.5], [0.0, 1.0]]), InvalidInputError, "not Hermitian"),
    (np.ones((2, 3)), DimensionError, "must be square"),
    (np.zeros((0, 0)), DimensionError, "must be square and non-empty"),
    (4.0 * np.array([[1.0, 1e-11], [0.0, 1.0]]), InvalidInputError, "not Hermitian"),
])
def test_frame_rejects_non_hermitian_or_non_square_matrix(q, error, match):
    with pytest.raises(error, match=match):
        frame_from_q(q)


def test_frame_hermitian_check_reads_tolerances():
    # deviation 1e-11 * scale: above the default hermitian_tol, within 1e-10
    q = 4.0 * np.array([[1.0, 1e-11], [0.0, 1.0]])
    v, eigvals = frame_from_q(q, DEFAULT_TOLERANCES.with_overrides(hermitian_tol=1e-10))
    assert v.shape == (2, 2)
    np.testing.assert_allclose(eigvals, [4.0, 4.0])


# ---------------------------------------------------------------------------
# solve_mmv_exhaustive
# ---------------------------------------------------------------------------

def test_exhaustive_single_column():
    rng = np.random.default_rng(57)
    a_matrix = make_cs_matrix("gaussian", 3, 5, rng)
    v = a_matrix[:, [2]]
    assert solve_mmv_exhaustive(MMVProblem(a_matrix, v, 2)) == frozenset({2})


def test_exhaustive_zero_measurements():
    a_matrix = make_cs_matrix("gaussian", 3, 5, np.random.default_rng(58))
    assert solve_mmv_exhaustive(MMVProblem(a_matrix, np.zeros((3, 2)), 2)) == frozenset()


@pytest.mark.parametrize("seed", range(5))
def test_exhaustive_recovers_planted_rows(seed):
    rng = np.random.default_rng(100 + seed)
    while True:
        a_matrix = make_cs_matrix("gaussian", 4, 6, rng)
        if kruskal_rank(a_matrix) == 4:
            break
    support = sorted(rng.choice(6, size=2, replace=False))
    x = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    v = a_matrix[:, support] @ x
    assert solve_mmv_exhaustive(MMVProblem(a_matrix, v, 2)) == frozenset(support)


def test_exhaustive_infeasible_reports_best_residual():
    rng = np.random.default_rng(59)
    a_matrix = make_cs_matrix("gaussian", 3, 6, rng)
    v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))  # full rank
    with pytest.raises(InfeasibleError) as err:
        solve_mmv_exhaustive(MMVProblem(a_matrix, v, 1))
    assert err.value.best_residual is not None
    assert 0 < err.value.best_residual <= 1.0


def test_exhaustive_combinatorial_guard():
    a_matrix = np.ones((2, 24))
    v = np.ones((2, 1))
    with pytest.raises(InvalidInputError, match="exceeds"):
        solve_mmv_exhaustive(MMVProblem(a_matrix, v, 12))


@pytest.mark.parametrize("columns", [0, 1])
def test_exhaustive_zero_measurements_answered_before_the_guard(columns):
    # C(24, 12) exceeds the guard, but V = 0 has the empty support
    prob = MMVProblem(np.ones((2, 24)), np.zeros((2, columns)), 12)
    assert solve_mmv_exhaustive(prob) == frozenset()


def test_recover_of_zero_signal_past_the_guard_is_empty():
    design = make_design(np.ones((2, 24)), FrequencyGrid(4))
    result = recover(MeasurementBank(np.zeros((2, 4))), design, 12)
    assert result.support == frozenset()
    assert result.diagnostics["rank_q"] == 0
    assert np.all(result.coefficients.sequences == 0)


def test_empty_frame_is_a_problem_every_solver_answers():
    a_matrix = make_cs_matrix("gaussian", 3, 5, np.random.default_rng(58))
    prob = MMVProblem(a_matrix, np.zeros((3, 0)), 2)
    assert prob.V.shape == (3, 0)
    assert solve_mmv_exhaustive(prob) == frozenset()
    assert solve_mmv_somp(prob) == frozenset()
    for solver in ("exhaustive", "somp"):
        assert ctf._solve(prob, solver, DEFAULT_TOLERANCES) == (frozenset(), 0.0)


# ---------------------------------------------------------------------------
# solve_mmv_somp
# ---------------------------------------------------------------------------

def test_somp_single_atom():
    rng = np.random.default_rng(60)
    a_matrix = make_cs_matrix("gaussian", 3, 5, rng)
    v = a_matrix[:, [1]]
    assert solve_mmv_somp(MMVProblem(a_matrix, v, 1)) == frozenset({1})


def test_somp_zero_measurements():
    a_matrix = make_cs_matrix("gaussian", 3, 5, np.random.default_rng(61))
    assert solve_mmv_somp(MMVProblem(a_matrix, np.zeros((3, 2)), 2)) == frozenset()


@pytest.mark.parametrize("seed", range(10))
def test_somp_recovers_planted_rows_with_generous_measurements(seed):
    rng = np.random.default_rng(200 + seed)
    a_matrix = make_cs_matrix("gaussian", 10, 20, rng)
    support = sorted(rng.choice(20, size=2, replace=False))
    x = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    v = a_matrix[:, support] @ x
    assert solve_mmv_somp(MMVProblem(a_matrix, v, 2)) == frozenset(support)


# ---------------------------------------------------------------------------
# recover_support / recover_coefficients / recover
# ---------------------------------------------------------------------------

def test_recover_support_of_zero_signal_is_empty():
    design, _, _, _ = planted_instance(62)
    d0 = synthesize(SparsityProfile(design.m, 0, frozenset()), design.grid.n, seed=0)
    y = compressive_sample(d0, design)
    assert recover_support(y, design, k_max=2) == frozenset()


@pytest.mark.parametrize("zero", [True, False], ids=["zero_y", "nonzero_y"])
@pytest.mark.parametrize("kwargs, match", [
    ({"k_max": 2, "solver": "bogus"}, "unknown solver"),
    ({"k_max": -3}, "k_max=-3 out of range"),
    ({"k_max": 7}, "k_max=7 out of range"),
], ids=["unknown_solver", "negative_k_max", "k_max_above_m"])
@pytest.mark.parametrize("entry", [recover, recover_support], ids=lambda f: f.__name__)
def test_argument_checks_do_not_depend_on_the_data(entry, kwargs, match, zero):
    design, _, _, y = planted_instance(62)  # m=6, p=4, N=16
    if zero:
        y = MeasurementBank(np.zeros_like(y.sequences))
    with pytest.raises(InvalidInputError, match=match):
        entry(y, design, **kwargs)


_GAUSSIAN_4X6 = make_cs_matrix("gaussian", 4, 6, np.random.default_rng(0))
_PROFILE = SparsityProfile(6, 2, frozenset({1, 4}))


@pytest.mark.parametrize("build, name", [
    (lambda n: MMVProblem(_GAUSSIAN_4X6, _GAUSSIAN_4X6[:, :2], n), "k_max"),
    (lambda n: synthesize(_PROFILE, n, 0), "n_samples"),
    (FrequencyGrid, "grid size"),
], ids=["MMVProblem", "synthesize", "FrequencyGrid"])
@pytest.mark.parametrize("value", [2.5, 2.0, np.float64(2.0), True, False, np.bool_(True),
                                   "2", None])
def test_integer_arguments_refuse_bools_and_non_integers(build, name, value):
    # unchecked, k_max=2.5 lets SOMP pick three columns and the oracle raise a
    # raw TypeError, and True passes for 1
    with pytest.raises(InvalidInputError, match=f"^{name} must be an integer, got "):
        build(value)


@pytest.mark.parametrize("value", [2, np.int64(2), np.int32(2), np.uint8(2)])
def test_integer_arguments_take_numpy_integers(value):
    prob = MMVProblem(_GAUSSIAN_4X6, _GAUSSIAN_4X6[:, [1, 4]], value)
    assert solve_mmv_exhaustive(prob) == solve_mmv_somp(prob) == frozenset({1, 4})
    assert synthesize(_PROFILE, value, 0).length == 2
    assert FrequencyGrid(value).n == 2


def test_recover_support_planted():
    rng = np.random.default_rng(63)
    grid = FrequencyGrid(16)
    while True:
        a_matrix = make_cs_matrix("gaussian", 4, 6, rng)
        if kruskal_rank(a_matrix) >= 4:
            break
    design = make_design(a_matrix, grid)
    d = synthesize(SparsityProfile(6, 2, frozenset({1, 4})), 16, rng)
    y = compressive_sample(d, design)
    assert recover_support(y, design, k_max=2) == frozenset({1, 4})


def test_support_invariant_to_shaping_bank():
    rng = np.random.default_rng(64)
    design, support, d, y = planted_instance(65, require_sigma=4)
    s_plain = recover_support(y, design, k_max=len(support))
    for _ in range(3):
        w = random_invertible_w(design.p, design.grid, rng)
        design_w = make_design(design.A, design.grid, W=w)
        y_w = compressive_sample(d, design_w)
        assert recover_support(y_w, design_w, k_max=len(support)) == s_plain == support


def test_recover_coefficients_exact_on_true_support():
    design, support, d, y = planted_instance(66, with_w=True, with_z=True,
                                             require_sigma=4)
    d_hat = recover_coefficients(y, design, support)
    err = np.linalg.norm(d_hat.sequences - d.sequences) / np.linalg.norm(d.sequences)
    assert err <= 1e-9
    off = sorted(set(range(design.m)) - support)
    assert np.all(d_hat.sequences[off] == 0)


def test_recover_coefficients_empty_support():
    design, _, _, y = planted_instance(67)
    d_hat = recover_coefficients(y, design, frozenset())
    assert np.all(d_hat.sequences == 0)


def test_recover_coefficients_superset_support_still_exact():
    design, support, d, y = planted_instance(68, require_sigma=4)
    extra = sorted(set(range(design.m)) - support)[0]
    superset = support | {extra}
    d_hat = recover_coefficients(y, design, superset)
    err = np.linalg.norm(d_hat.sequences - d.sequences) / np.linalg.norm(d.sequences)
    assert err <= 1e-9
    assert np.max(np.abs(d_hat.sequences[extra])) <= 1e-9 * np.max(np.abs(d.sequences))


def test_recover_coefficients_rejects_dependent_columns():
    grid = FrequencyGrid(4)
    a_matrix = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    design = make_design(a_matrix, grid)
    y = MeasurementBank(np.ones((2, 4)))
    with pytest.raises(InvalidInputError):
        recover_coefficients(y, design, {0, 1})


@pytest.mark.parametrize("columns", [(0, 1), (1, 2, 3)])
def test_rank_deficient_columns_are_refused_by_name(columns):
    # column 1 is twice column 0 and column 3 is column 1 + column 2
    rng = np.random.default_rng(3)
    a_matrix = make_cs_matrix("gaussian", 4, 5, rng).copy()
    a_matrix[:, 1] = 2.0 * a_matrix[:, 0]
    a_matrix[:, 3] = a_matrix[:, 1] + a_matrix[:, 2]
    design = make_design(a_matrix, FrequencyGrid(8))
    y_tilde = MeasurementBank(rng.standard_normal((4, 8)))
    message = rf"^columns \[{', '.join(map(str, columns))}\] of A are rank deficient"
    with pytest.raises(InvalidInputError, match=message):
        ctf._coefficients(y_tilde, design, set(columns), DEFAULT_TOLERANCES)
    with pytest.raises(InvalidInputError, match=message):
        recover_coefficients(y_tilde, design, set(columns))


def test_support_wider_than_a_is_tall_is_refused_as_rank_deficient():
    # three columns of a 2-row A are dependent, though the thin SVD of A_S
    # returns only its two nonzero singular values
    rng = np.random.default_rng(0)
    design = make_design(make_cs_matrix("gaussian", 2, 5, rng), FrequencyGrid(4))
    y_tilde = MeasurementBank(rng.standard_normal((2, 4)))
    message = r"^columns \[0, 1, 2\] of A are rank deficient \(sv ratio 0\.000e\+00\)$"
    with pytest.raises(InvalidInputError, match=message):
        ctf._coefficients(y_tilde, design, {0, 1, 2}, DEFAULT_TOLERANCES)
    with pytest.raises(InvalidInputError, match=message):
        recover_coefficients(y_tilde, design, {0, 1, 2})
    assert recover_coefficients(y_tilde, design, {0, 1}).support == frozenset({0, 1})


@pytest.mark.parametrize("rank_rel_tol", [1e-10, 1e-16, 1e-20])
def test_coefficients_equal_the_pinv_route_byte_for_byte(rank_rel_tol):
    # one SVD of conj(A_S) forms A_S^+ as np.linalg.pinv does; below
    # rank_rel_tol = 1e-15 a near-duplicate column passes the rank check and
    # pinv's own cutoff zeroes its singular value
    tol = DEFAULT_TOLERANCES.with_overrides(rank_rel_tol=rank_rel_tol)
    rng = np.random.default_rng(1234)
    seen = {"plain": 0, "cut": 0, "refused": 0}
    for index in range(300):
        m = int(rng.integers(2, 9))
        p = int(rng.integers(1, m + 1))
        n = int(rng.integers(1, 12))
        a_matrix = make_cs_matrix(("gaussian", "bernoulli")[index % 2], p, m, rng).copy()
        support = sorted(int(i) for i in rng.choice(m, size=int(rng.integers(1, p + 1)),
                                                    replace=False))
        if index % 3 == 0 and len(support) > 1:
            step = rng.standard_normal(p) + 1j * rng.standard_normal(p)
            a_matrix[:, support[1]] = a_matrix[:, support[0]] + step * 10.0 ** rng.uniform(-18, -15)
        design = make_design(a_matrix, FrequencyGrid(n))
        y_tilde = MeasurementBank(rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n)))
        try:
            expected = pinv_coefficients(y_tilde, design, support, rank_rel_tol)
        except ValueError:
            with pytest.raises(InvalidInputError, match="rank deficient"):
                ctf._coefficients(y_tilde, design, support, tol)
            seen["refused"] += 1
            continue
        found = ctf._coefficients(y_tilde, design, support, tol)
        assert found.sequences.tobytes() == expected.tobytes(), index
        sv = np.linalg.svd(design.A[:, support], compute_uv=False)
        seen["cut" if sv[-1] <= 1e-15 * sv[0] else "plain"] += 1
    assert seen["plain"] >= 100, seen
    if rank_rel_tol < 1e-15:
        assert seen["cut"] >= 10, seen
    else:
        assert seen["cut"] == 0 and seen["refused"] >= 10, seen


def _multiband_instance():
    cfg = ExperimentConfig(mode="multiband", n_bands=1, band_width=2 * np.pi / 8, m=8,
                           T=1.0, p=4, cosets=(0, 1, 3, 6), N=32)
    build = build_multiband(cfg, 71)
    y = compressive_sample(build.coefficients, build.design)
    return build.design, y, build.report["k_max"], build.coefficients


@pytest.mark.parametrize("kind", ["identity", "diagonal", "dense"])
def test_recover_coefficients_match_standalone_call(kind):
    # recover() demodulates once and reuses y_tilde for the coefficients; the
    # result must be bit-identical to demodulating again in the public call
    if kind == "diagonal":
        design, y, k_max, _ = _multiband_instance()
        assert design.W.is_diagonal() and not np.allclose(design.W.values[1], np.eye(4))
    else:
        design, support, _, y = planted_instance(72, with_w=kind == "dense",
                                                 require_sigma=4)
        k_max = len(support)
        assert design.W.is_diagonal() == (kind == "identity")
    result = recover(y, design, k_max=k_max, solver="somp")
    standalone = recover_coefficients(y, design, result.support)
    assert np.array_equal(result.coefficients.sequences, standalone.sequences)
    assert result.coefficients.support == standalone.support


def _scale_instance(kind):
    """(design, y, k_max, true bank): ``_multiband_instance``, or the README
    configuration (m=6 k=2 p=4 N=16) at seed 5, support {0, 3}."""
    if kind == "multiband":
        return _multiband_instance()
    design, d, k_max, _ = experiments._sparse_instances(ExperimentConfig(), [5])[0]
    return design, compressive_sample(d, design), k_max, d


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("exponent", [-600, -540, 540, 600])
@pytest.mark.parametrize("kind", ["generic", "multiband"])
def test_recovery_is_exact_at_any_scale_of_the_measurements(kind, exponent):
    # Q of y scaled by 2^-540 underflows to the empty frame, and by 2^515 it
    # overflows; recover forms Q from y_tilde times an exact power of two
    design, y, k_max, d = _scale_instance(kind)
    scaled = MeasurementBank(math.ldexp(1.0, exponent) * y.sequences)
    result = recover(scaled, design, k_max=k_max, solver="somp" if kind == "multiband"
                     else "exhaustive")
    assert result.support == d.support
    unscaled = math.ldexp(1.0, -exponent) * result.coefficients.sequences
    err = np.linalg.norm(unscaled - d.sequences) / np.linalg.norm(d.sequences)
    assert err <= DEFAULT_TOLERANCES.recovery_rel_tol


def test_q_eigenvalues_of_an_in_range_bank_are_unscaled():
    design, y, k_max, _ = _scale_instance("generic")
    result = recover(y, design, k_max=k_max)
    expected = np.linalg.eigvalsh(compute_q(y))[::-1]
    assert np.allclose(result.diagnostics["q_eigenvalues"], expected, rtol=1e-12, atol=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry", ["recover", "recover_coefficients"])
def test_recovery_rejects_singular_z_of_a_raw_design(entry):
    # a design built without make_design: Z is re-checked before it is
    # divided by, as W is before demodulate solves
    design, support, d, _ = planted_instance(73, require_sigma=4)
    z = np.array(random_diagonal_z(design.m, design.grid, np.random.default_rng(74)).values)
    z[5, sorted(support)[0], sorted(support)[0]] = 0.0
    raw = MeasurementDesign(A=design.A, W=design.W, grid=design.grid,
                            Z=PeriodicMatrixFunction(design.grid, z))
    y = compressive_sample(d, raw)
    with pytest.raises(SingularOperatorError, match="Z singular at grid point 5") as err:
        if entry == "recover":
            recover(y, raw, k_max=len(support))
        else:
            recover_coefficients(y, raw, set())
    assert err.value.grid_index == 5


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_uniformly_small_z_is_accepted_and_recovered_exactly():
    # cond(1e-9 I) = 1 at every bin: the per-bin rule accepts any uniform scale
    design, support, d, _ = planted_instance(75, require_sigma=4)
    z = PeriodicMatrixFunction(
        design.grid, np.broadcast_to(1e-9 * np.eye(design.m), (design.grid.n, design.m, design.m)))
    small = make_design(design.A, design.grid, Z=z)
    result = recover(compressive_sample(d, small), small, k_max=len(support))
    assert result.support == support
    err = np.linalg.norm(result.coefficients.sequences - d.sequences) / np.linalg.norm(d.sequences)
    assert err <= DEFAULT_TOLERANCES.recovery_rel_tol


def test_frame_independence_of_support():
    rng = np.random.default_rng(69)
    design, support, _, y = planted_instance(70, require_sigma=4)
    y_tilde = demodulate(y, design)
    v, _ = frame_from_q(compute_q(y_tilde))
    s1 = solve_mmv_exhaustive(MMVProblem(design.A, v, len(support)))
    g = rng.standard_normal((v.shape[1], v.shape[1])) \
        + 1j * rng.standard_normal((v.shape[1], v.shape[1]))
    s2 = solve_mmv_exhaustive(MMVProblem(design.A, v @ g, len(support)))
    assert s1 == s2 == support


def test_full_recovery_reports_diagnostics():
    design, support, d, y = planted_instance(71, with_w=True, require_sigma=4)
    result = recover(y, design, k_max=len(support))
    assert result.support == support
    assert result.diagnostics["rank_q"] == len(support)
    assert result.diagnostics["solver"] == "exhaustive"
    assert result.diagnostics["residual"] <= 1e-8
    assert len(result.diagnostics["q_eigenvalues"]) == design.p
    nmse = (np.linalg.norm(result.coefficients.sequences - d.sequences) ** 2
            / np.linalg.norm(d.sequences) ** 2)
    assert nmse <= 1e-9


def test_uniqueness_brute_force_under_rate_condition():
    # sigma(A) >= 2k: the planted support is the *only* fit among all of size <= k
    for seed in range(10):
        design, support, _, y = planted_instance(300 + seed, require_sigma=4)
        v, _ = frame_from_q(compute_q(demodulate(y, design)))
        fitting = []
        for size in range(0, 3):
            for combo in itertools.combinations(range(design.m), size):
                a_s = design.A[:, list(combo)]
                if combo:
                    coef, *_ = np.linalg.lstsq(a_s, v, rcond=None)
                    res = np.linalg.norm(v - a_s @ coef) / np.linalg.norm(v)
                else:
                    res = 1.0
                if res <= 1e-8:
                    fitting.append(frozenset(combo))
        assert fitting == [support]


def test_exhaustive_returns_planted_support_over_100_seeds():
    # desk-scale uniqueness: with sigma(A) >= 2k no equal-or-smaller support
    # competes, so the exhaustive solver must return exactly the planted one
    k = 2
    for seed in range(100):
        rng = np.random.default_rng(5000 + seed)
        while True:
            a_matrix = make_cs_matrix("gaussian", 4, 6, rng)
            if kruskal_rank(a_matrix) >= 2 * k:
                break
        support = sorted(int(i) for i in rng.choice(6, size=k, replace=False))
        x = rng.standard_normal((k, 3)) + 1j * rng.standard_normal((k, 3))
        v = a_matrix[:, support] @ x
        assert solve_mmv_exhaustive(MMVProblem(a_matrix, v, k)) == frozenset(support)
