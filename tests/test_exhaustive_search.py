"""The rank-aware exhaustive search behind recovery against the full
lexicographic scan ``solve_mmv_exhaustive``, the reference oracle: seeded
equivalence, which path runs, the fallback cases and problems scaled to the
edges of the double range. Also the check of SOMP's answer, which sends a
miss to the same screen and never to the oracle."""

import math
import warnings

import numpy as np
import pytest

from si_subnyq import ctf, experiments
from si_subnyq.ctf import (
    MMVProblem,
    recover,
    recover_support,
    solve_mmv_exhaustive,
    solve_mmv_somp,
)
from si_subnyq.errors import InfeasibleError, InvalidInputError
from si_subnyq.sampling_design import (
    MATRIX_KINDS,
    MeasurementBank,
    compressive_sample,
    make_cs_matrix,
    make_design,
)
from si_subnyq.si_core import FrequencyGrid
from si_subnyq.sparse_model import SparsityProfile, synthesize
from si_subnyq.tolerances import DEFAULT_TOLERANCES

TOLS = (DEFAULT_TOLERANCES,
        DEFAULT_TOLERANCES.with_overrides(mmv_residual_rel=1e-4),
        DEFAULT_TOLERANCES.with_overrides(mmv_residual_rel=1e-13))


@pytest.fixture
def oracle_calls(monkeypatch):
    """Arguments of every run of the oracle's scan, which both
    ``solve_mmv_exhaustive`` and recovery's fallback make."""
    calls = []
    original = ctf._exhaustive_scan

    def counting(prob, tol):
        calls.append(prob)
        return original(prob, tol)
    monkeypatch.setattr(ctf, "_exhaustive_scan", counting)
    return calls


def _screened(prob, tol):
    return ctf._solve(prob, "exhaustive", tol)[0]


def _outcome(solve, prob, tol):
    try:
        return solve(prob, tol)
    except InfeasibleError as exc:
        return ("infeasible", exc.best_residual, exc.best_support)


def _random_problem(rng, index):
    """A seeded MMV problem V = A U over one of the four matrix kinds, with
    p up to 2k + 2 (collisions below 2k), a planted support of size 1..k,
    N from 1 to 7 (rank(V) below k), and at random: a duplicate, near-duplicate
    or zero column, column scales 1e-8..1e8,
    whole-matrix scales 1e+-150 on A and on V, a V off every small span,
    noise near the fit tolerance, and a budget k_max below rank(V).
    Returns the problem and the planted support."""
    kind = MATRIX_KINDS[index % len(MATRIX_KINDS)]
    m = int(rng.integers(4, 11))
    k = int(rng.integers(1, min(4, m - 1) + 1))
    p = int(rng.integers(1, min(2 * k + 2, m) + 1))
    a = make_cs_matrix(kind, p, m, rng).copy()
    plant = rng.integers(8)
    if plant == 0:
        i, j = rng.choice(m, size=2, replace=False)
        a[:, j] = a[:, i] * rng.choice([1.0, -2.5, 1 + 1e-12])
    elif plant == 1:
        a[:, rng.integers(m)] = 0.0
    elif plant == 2:
        a = a * 10.0 ** rng.uniform(-8, 8, size=m)
    elif plant == 3:
        # a near-duplicate: swapping it into the support may fit just within
        # the tolerance, so it tests the screen's distance bound
        i, j = rng.choice(m, size=2, replace=False)
        step = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        a[:, j] = a[:, i] + step * (10.0 ** rng.uniform(-10, -7)
                                    * np.linalg.norm(a[:, i]) / np.linalg.norm(step))
    n = int(rng.integers(1, 8))
    size = int(rng.integers(1, k + 1))
    support = rng.choice(m, size=size, replace=False)
    u = rng.standard_normal((size, n)) + 1j * rng.standard_normal((size, n))
    v = a[:, support] @ u
    shape = rng.integers(10)
    if shape == 0:
        v = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
    elif shape == 1:
        noise = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
        v = v + noise * (10.0 ** rng.uniform(-12, -6) * np.linalg.norm(v)
                         / np.linalg.norm(noise))
    k_max = int(rng.integers(0, k)) if shape == 2 else k
    if plant != 2 and rng.integers(5) == 0:
        a = a * rng.choice([1e150, 1e-150])
        v = v * rng.choice([1.0, 1e150, 1e-150])
    return MMVProblem(a, v, k_max), frozenset(int(i) for i in support)


def test_rank_aware_search_matches_oracle_on_seeded_problems(oracle_calls):
    rng = np.random.default_rng(808)
    seen = {"screened": 0, "fallback": 0, "infeasible": 0, "collision": 0,
            "rank_below_k": 0, "rank_above_budget": 0}
    for index in range(1200):
        prob, planted = _random_problem(rng, index)
        tol = TOLS[index % len(TOLS)]
        expected = _outcome(solve_mmv_exhaustive, prob, tol)
        oracle_calls.clear()
        found = _outcome(_screened, prob, tol)
        assert found == expected, (index, prob.A.shape, prob.V.shape, prob.k_max)
        seen["fallback" if oracle_calls else "screened"] += 1
        rank = np.linalg.matrix_rank(prob.V)
        if isinstance(expected, tuple):
            seen["infeasible"] += 1
        elif expected != planted and len(expected) <= len(planted):
            seen["collision"] += 1  # another support, no larger, fits first
        seen["rank_below_k"] += int(rank < prob.k_max)
        seen["rank_above_budget"] += int(rank > prob.k_max)
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize("m, k, p", [(12, 5, 10), (6, 2, 4)])
def test_recovery_never_calls_the_oracle_on_benchmark_shapes(oracle_calls, m, k, p):
    grid = FrequencyGrid(32)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        design = make_design(make_cs_matrix("gaussian", p, m, rng), grid)
        truth = frozenset(int(i) for i in rng.choice(m, size=k, replace=False))
        d = synthesize(SparsityProfile(m, k, truth), grid.n, rng)
        assert recover(compressive_sample(d, design), design, k).support == truth
    assert oracle_calls == []


def test_unsettled_cases_fall_back_to_the_oracle(oracle_calls):
    rng = np.random.default_rng(5)
    a = make_cs_matrix("gaussian", 4, 7, rng)
    u = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    planted = a[:, [1, 3, 6]] @ u
    loose = DEFAULT_TOLERANCES.with_overrides(mmv_residual_rel=0.6)

    def solve(v, k_max, tol=DEFAULT_TOLERANCES):
        return _outcome(_screened, MMVProblem(a, v, k_max), tol)
    assert solve(planted, 3) == frozenset({1, 3, 6})
    assert oracle_calls == []
    assert solve(np.zeros((4, 2)), 2) == frozenset()          # V = 0
    assert solve(planted, 2)[0] == "infeasible"               # r = 3 > k_max
    assert solve(planted[:, :2], 3) == frozenset({1, 3, 6})   # no 2-subset fits
    assert len(solve(planted, 3, loose)) == 1                 # sigma_1 <= 2 delta
    assert len(oracle_calls) == 4


def test_guard_error_reaches_recover_with_the_oracle_message(oracle_calls):
    # 24 equal columns and a rank-2 V: no 2-subset fits, so the screen cannot
    # settle and the oracle, with C(24, 12) above its guard, refuses
    grid = FrequencyGrid(4)
    design = make_design(np.ones((2, 24)), grid)
    rng = np.random.default_rng(0)
    y = MeasurementBank(rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
    with pytest.raises(InvalidInputError) as via_recover:
        recover(y, design, 12)
    assert len(oracle_calls) == 1
    with pytest.raises(InvalidInputError) as direct:
        solve_mmv_exhaustive(MMVProblem(design.A, np.eye(2), 12))
    assert str(via_recover.value) == str(direct.value)
    assert "exceeds" in str(direct.value)


def test_screen_guard_bounds_only_the_subsets_it_scans(oracle_calls, monkeypatch):
    # with the guard lowered to 20, C(m, k_max) exceeds it on most problems,
    # where the oracle refuses; the screen scans C(|M|, r) subsets and must
    # still return the unguarded oracle's answer wherever it settles
    rng = np.random.default_rng(4242)
    cases = []
    for index in range(600):
        prob, _ = _random_problem(rng, index)
        tol = TOLS[index % len(TOLS)]
        cases.append((prob, tol, _outcome(solve_mmv_exhaustive, prob, tol)))
    monkeypatch.setattr(ctf, "EXHAUSTIVE_GUARD", 20)
    seen = {"settled_past_oracle_guard": 0, "fallback": 0, "refused": 0}
    for index, (prob, tol, expected) in enumerate(cases):
        oracle_calls.clear()
        try:
            found = _outcome(_screened, prob, tol)
        except InvalidInputError as exc:
            assert "refused" in str(exc), index
            assert math.comb(prob.A.shape[1], prob.k_max) > 20, index
            seen["refused"] += 1
            continue
        assert found == expected, index
        if oracle_calls:
            seen["fallback"] += 1
        elif math.comb(prob.A.shape[1], prob.k_max) > 20:
            seen["settled_past_oracle_guard"] += 1
    assert min(seen.values()) >= 20, seen


def test_screen_guard_counts_the_r_subsets_of_m(monkeypatch):
    # p = 2: every column lies in span(V), so M holds all 24 columns and the
    # screen has C(24, 2) = 276 subsets to scan; {0, 1} is the first that fits
    rng = np.random.default_rng(1)
    a = make_cs_matrix("gaussian", 2, 24, rng)
    prob = MMVProblem(a, a[:, [0, 1]] @ rng.standard_normal((2, 2)), 12)
    monkeypatch.setattr(ctf, "EXHAUSTIVE_GUARD", 276)
    assert ctf._screen(prob, DEFAULT_TOLERANCES)[0] == frozenset({0, 1})
    monkeypatch.setattr(ctf, "EXHAUSTIVE_GUARD", 275)
    assert ctf._screen(prob, DEFAULT_TOLERANCES) is None


def test_screened_support_costs_no_second_residual(monkeypatch):
    # p = 3 and V spans columns 0 and 3; column 1 = 2 * column 0 is near
    # span(V) too, so the screen tests (0, 1), which does not fit, then (0, 3)
    rng = np.random.default_rng(11)
    a = make_cs_matrix("gaussian", 3, 6, rng).copy()
    a[:, 1] = 2.0 * a[:, 0]
    prob = MMVProblem(a, a[:, [0, 3]] @ rng.standard_normal((2, 2)), 2)
    calls = []
    original = ctf._support_residual

    def counting(A, v, support):
        calls.append(tuple(support))
        return original(A, v, support)
    monkeypatch.setattr(ctf, "_support_residual", counting)
    screened = ctf._screen(prob, DEFAULT_TOLERANCES)
    tested = list(calls)
    assert tested == [(0, 1), (0, 3)]
    calls.clear()
    assert ctf._solve(prob, "exhaustive", DEFAULT_TOLERANCES) == screened
    assert calls == tested
    assert screened == (frozenset({0, 3}), original(a, prob.V, (0, 3)))


def test_oracle_support_costs_no_second_residual(monkeypatch):
    # V of rank 2 on the planted support {1, 3, 6}: no 2-subset fits, so the
    # screen cannot settle and the oracle scans up to (1, 3, 6), its answer
    rng = np.random.default_rng(5)
    a = make_cs_matrix("gaussian", 4, 7, rng)
    u = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    prob = MMVProblem(a, (a[:, [1, 3, 6]] @ u)[:, :2], 3)
    calls = []
    original = ctf._support_residual

    def counting(A, v, support):
        calls.append(tuple(support))
        return original(A, v, support)
    monkeypatch.setattr(ctf, "_support_residual", counting)
    support, residual = ctf._solve(prob, "exhaustive", DEFAULT_TOLERANCES)
    assert support == frozenset({1, 3, 6})
    assert residual == original(a, prob.V, (1, 3, 6))
    assert len(calls) == 50
    assert calls.count((1, 3, 6)) == 1
    assert calls[-1] == (1, 3, 6)


@pytest.mark.parametrize("scale", [1e-170, 1e155])
def test_scaled_problem_keeps_its_support(scale):
    # ||V||_F underflows to 0 at 1e-170 and overflows at 1e155 unless the
    # norms are taken on a rescaled copy
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 6))
    v = a[:, [1, 3]] @ rng.standard_normal((2, 2))
    prob = MMVProblem(scale * a, scale * v, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve_mmv_exhaustive(prob) == frozenset({1, 3})
        assert _screened(prob, DEFAULT_TOLERANCES) == frozenset({1, 3})
        # greedy SOMP misses {1, 3} here; scaled, it keeps its unscaled answer
        unscaled = solve_mmv_somp(MMVProblem(a, v, 2))
        assert unscaled == frozenset({3, 4})
        assert solve_mmv_somp(prob) == unscaled


def test_somp_answer_that_fits_is_kept_and_a_miss_takes_the_screen(oracle_calls):
    rng = np.random.default_rng(909)
    seen = {"kept": 0, "screened": 0, "missed": 0}
    for index in range(1200):
        prob, _ = _random_problem(rng, index)
        tol = TOLS[index % len(TOLS)]
        if prob.k_max == 0:
            continue
        somp = solve_mmv_somp(prob, tol)
        residual = ctf._support_residual(prob.A, prob.V, somp)
        oracle_calls.clear()
        found, found_residual = ctf._solve(prob, "somp", tol)
        assert oracle_calls == []
        assert found_residual == ctf._support_residual(prob.A, prob.V, found)
        if residual <= tol.mmv_residual_rel:
            assert (found, found_residual) == (somp, residual), index
            seen["kept"] += 1
        elif found != somp:
            # the screen settled, so its support is the oracle's answer
            assert found_residual <= tol.mmv_residual_rel
            assert found == solve_mmv_exhaustive(prob, tol), index
            seen["screened"] += 1
        else:
            assert ctf._screen(prob, tol) is None
            seen["missed"] += 1
    assert min(seen.values()) >= 20, seen


def test_somp_miss_without_a_screen_keeps_somp_support(oracle_calls):
    # 24 equal columns and a rank-2 V: any SOMP support misses, and the
    # screen finds no fitting 2-subset; the oracle would refuse C(24, 12)
    rng = np.random.default_rng(5)
    v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    prob = MMVProblem(np.ones((2, 24)), v, 12)
    somp = solve_mmv_somp(prob)
    assert 0 in somp
    assert ctf._screen(prob, DEFAULT_TOLERANCES) is None
    support, residual = ctf._solve(prob, "somp", DEFAULT_TOLERANCES)
    assert support == somp
    assert residual > DEFAULT_TOLERANCES.mmv_residual_rel
    assert oracle_calls == []
    with pytest.raises(InvalidInputError, match="refused"):
        ctf._solve(prob, "exhaustive", DEFAULT_TOLERANCES)
    assert len(oracle_calls) == 1


def _multiband_frames(count):
    """(A, frame V, k_max) of the first trials of a multiband_long run."""
    cfg = experiments.ExperimentConfig(mode="multiband", m=32, k=4, p=16, N=2048,
                                       n_bands=2, solver="somp", seed=7, trials=count)
    problems = []
    for trial in range(count):
        design, bank, k_max, _ = experiments._multiband_instance(
            cfg, experiments.trial_seed(7, trial))
        y_tilde = ctf.demodulate(compressive_sample(bank, design), design, cfg.tolerances)
        v, _ = ctf.frame_from_q(ctf.compute_q(y_tilde), tol=cfg.tolerances)
        problems.append(MMVProblem(design.A, v, k_max))
    return problems


def test_somp_last_fit_is_the_support_residual(monkeypatch):
    # unscaled, SOMP's last fit projects the same V on the same columns by
    # the same calls, so its residual is _support_residual's to the bit; a
    # rescaled A or V, V = 0 or an empty pick leave it to _support_residual
    frames = _multiband_frames(6)
    a, v, k_max = frames[0].A, frames[0].V, frames[0].k_max
    edges = [MMVProblem(2.0 ** 600 * a, v, k_max), MMVProblem(a, 2.0 ** -600 * v, k_max),
             MMVProblem(a, np.zeros_like(v), k_max), MMVProblem(a, v, 0),
             MMVProblem(np.zeros_like(a), v, k_max)]
    rng = np.random.default_rng(911)
    problems = [_random_problem(rng, index)[0] for index in range(600)]
    seen = {"fit": 0, "scaled": 0, "empty": 0}
    for prob in frames + problems + edges:
        support, fit = ctf._somp(prob, DEFAULT_TOLERANCES)
        assert support == solve_mmv_somp(prob)
        residual = ctf._support_residual(prob.A, prob.V, support)
        if not support:
            seen["empty"] += 1
            assert fit is None
        elif ctf._pow2_scale(prob.A) != 1.0 or ctf._pow2_scale(prob.V) != 1.0:
            seen["scaled"] += 1
            assert fit is None
        else:
            seen["fit"] += 1
            assert np.float64(fit).tobytes() == np.float64(residual).tobytes()
    assert min(seen.values()) >= 20, seen

    calls = []
    counted = ctf._support_residual

    def counting(*args):
        calls.append(args)
        return counted(*args)
    monkeypatch.setattr(ctf, "_support_residual", counting)
    for prob, fits in ((frames[0], 0), (edges[0], 1), (edges[1], 1), (edges[2], 1)):
        calls.clear()
        support, residual = ctf._solve(prob, "somp", DEFAULT_TOLERANCES)
        assert residual <= DEFAULT_TOLERANCES.mmv_residual_rel
        assert len(calls) == fits
        assert (np.float64(residual).tobytes()
                == np.float64(counted(prob.A, prob.V, support)).tobytes())


@pytest.mark.parametrize("seed, trials, truth", [
    (29000438, 1, (17, 18, 19, 20)),
    (57000183, 2, (2, 3, 4, 5)),
])
def test_multiband_somp_misses_become_exact(seed, trials, truth):
    # SOMP alone returned a wrong support on the last trial of each run
    cfg = experiments.ExperimentConfig(mode="multiband", m=32, k=4, p=16, N=2048,
                                       n_bands=2, solver="somp", seed=seed,
                                       trials=trials)
    record = experiments.run_trials(cfg)[-1]
    assert record.support_true == truth
    assert record.support_found == truth
    assert record.exact


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("name", ["A", "V"])
def test_non_finite_problem_is_rejected(name, bad):
    a = np.eye(3, 5, dtype=np.complex128)
    v = np.ones((3, 2), dtype=np.complex128)
    (a if name == "A" else v)[1, 1] = bad
    with pytest.raises(InvalidInputError, match=f"{name} has a NaN or infinite entry"):
        MMVProblem(a, v, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_q_is_rejected(bad):
    q = np.eye(3, dtype=np.complex128)
    q[1, 1] = bad
    with pytest.raises(InvalidInputError, match="Q has a NaN or infinite entry"):
        ctf.frame_from_q(q)


def test_non_finite_measurements_are_rejected_by_recovery():
    rng = np.random.default_rng(3)
    design = make_design(make_cs_matrix("gaussian", 4, 6, rng), FrequencyGrid(8))
    y = compressive_sample(synthesize(SparsityProfile(6, 2, frozenset({0, 3})), 8, rng),
                           design)
    sequences = y.sequences.copy()
    sequences[2, 5] = np.nan
    y = MeasurementBank(sequences)
    with pytest.raises(InvalidInputError, match="Q has a NaN or infinite entry"):
        recover_support(y, design, 2)
    with pytest.raises(InvalidInputError, match="Q has a NaN or infinite entry"):
        recover(y, design, 2)
