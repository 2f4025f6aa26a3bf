"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every tolerance and instance count is pinned here; each criterion
also asserts its runtime budget.
"""

import time

import numpy as np

from si_subnyq.ctf import (
    MMVProblem,
    compute_q,
    demodulate,
    frame_from_q,
    recover,
    recover_support,
    solve_mmv_exhaustive,
    solve_mmv_somp,
)
from si_subnyq.errors import InfeasibleError
from si_subnyq.experiments import ExperimentConfig
from si_subnyq.sampling_design import (
    biorthogonalize,
    build_sampling_filters,
    compressive_sample,
    kruskal_rank,
    make_cs_matrix,
    make_design,
    random_diagonal_z,
    random_invertible_w,
)
from si_subnyq.scenarios import (
    build_multiband,
    build_periodic_sparsity,
    delay_filter_equivalence_check,
    flatten_block_coefficients,
    fractional_delay_demodulate,
    fractional_delay_direct,
    piecewise_constant_waveform_check,
)
from si_subnyq.si_core import FrequencyGrid, cross_spectrum_matrix, random_generator_set
from si_subnyq.sparse_model import SparsityProfile, synthesize


def report(number: int, passed: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if passed and elapsed <= budget else "FAIL"
    print(f"{status} criterion {number}: {detail} (elapsed {elapsed:.2f}s <= {budget:.0f}s)")
    assert passed, f"criterion {number}: {detail}"
    assert elapsed <= budget, f"criterion {number} exceeded budget: {elapsed:.2f}s"


def draw_filtered_matrix(rng, p, m, sigma_target):
    while True:
        a_matrix = make_cs_matrix("gaussian", p, m, rng)
        if kruskal_rank(a_matrix) >= sigma_target:
            return a_matrix


def planted_pipeline(seed, m, p, k, n, sigma_target, with_w=False, with_z=False):
    rng = np.random.default_rng(seed)
    grid = FrequencyGrid(n)
    a_matrix = draw_filtered_matrix(rng, p, m, sigma_target)
    w = random_invertible_w(p, grid, rng) if with_w else None
    z = random_diagonal_z(m, grid, rng) if with_z else None
    design = make_design(a_matrix, grid, W=w, Z=z)
    support = frozenset(int(i) for i in rng.choice(m, size=k, replace=False))
    d = synthesize(SparsityProfile(m, k, support), n, rng)
    y = compressive_sample(d, design)
    return design, support, d, y


def test_criterion_1_exact_recovery_at_guaranteed_rate():
    started = time.perf_counter()
    successes = 0
    for seed in range(100):
        design, support, d, y = planted_pipeline(seed, m=6, p=4, k=2, n=16,
                                                 sigma_target=4)
        result = recover(y, design, k_max=2, solver="exhaustive")
        nmse = (np.linalg.norm(result.coefficients.sequences - d.sequences) ** 2
                / np.linalg.norm(d.sequences) ** 2)
        if result.support == support and nmse <= 1e-9:
            successes += 1
    report(1, successes == 100,
           f"exact support and coefficients (nmse <= 1e-9) on {successes}/100 instances",
           time.perf_counter() - started, budget=10.0)


def test_criterion_2_operator_identity_of_synthesized_filters():
    started = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 9))        # m <= 8
        p = int(rng.integers(1, min(m, 6) + 1))  # p <= 6
        n = int(rng.choice([8, 16, 32]))   # N <= 32
        grid = FrequencyGrid(n)
        alias = tuple(range(-(m // 2 + 1), m + 2 - (m // 2 + 1)))
        gens = random_generator_set(m, grid, 1.0, alias, rng)
        h = random_generator_set(m, grid, 1.0, alias, rng)
        v = biorthogonalize(h, gens)
        a_matrix = make_cs_matrix("gaussian", p, m, rng)
        w = random_invertible_w(p, grid, rng)
        design = make_design(a_matrix, grid, W=w)
        filters = build_sampling_filters(design, v)
        m_sa = cross_spectrum_matrix(filters, gens)
        worst = max(worst, float(np.max(np.abs(m_sa.values - w.values @ a_matrix))))
    report(2, worst <= 1e-10,
           f"max |M_SA - W A| = {worst:.2e} <= 1e-10 over 20 random designs",
           time.perf_counter() - started, budget=5.0)


def test_criterion_3_biorthogonality():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 7))
        grid = FrequencyGrid(int(rng.choice([8, 16])))
        alias = tuple(range(-m, 2))
        gens = random_generator_set(m, grid, 1.0, alias, rng)
        h = random_generator_set(m, grid, 1.0, alias, rng)
        v = biorthogonalize(h, gens)
        m_va = cross_spectrum_matrix(v, gens)
        worst = max(worst, float(np.max(np.abs(m_va.values - np.eye(m)))))
    report(3, worst <= 1e-10,
           f"max |M_VA - I| = {worst:.2e} <= 1e-10 over 20 admissible families",
           time.perf_counter() - started, budget=5.0)


def test_criterion_4_ctf_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    rank_ok = frame_ok = design_ok = True
    for seed in range(50):
        design, support, d, y = planted_pipeline(1000 + seed, m=6, p=4, k=2, n=16,
                                                 sigma_target=4)
        k = len(support)
        y_tilde = demodulate(y, design)
        q = compute_q(y_tilde)
        sv = np.linalg.svd(q, compute_uv=False)
        rank_ok = rank_ok and bool(np.all(sv[k:] <= 1e-10 * sv[0]))
        # frame choice invariance: V vs V G for random invertible G
        v, _ = frame_from_q(q)
        g = rng.standard_normal((v.shape[1], v.shape[1])) \
            + 1j * rng.standard_normal((v.shape[1], v.shape[1]))
        s1 = solve_mmv_exhaustive(MMVProblem(design.A, v, k))
        s2 = solve_mmv_exhaustive(MMVProblem(design.A, v @ g, k))
        frame_ok = frame_ok and s1 == s2 == support
        # shaping invariance: same A and d under random invertible W and Z
        w2 = random_invertible_w(design.p, design.grid, rng)
        z2 = random_diagonal_z(design.m, design.grid, rng)
        design2 = make_design(design.A, design.grid, W=w2, Z=z2)
        y2 = compressive_sample(d, design2)
        s3 = recover_support(y2, design2, k_max=k)
        design_ok = design_ok and s3 == support
    report(4, rank_ok and frame_ok and design_ok,
           "rank(Q) <= k, support invariant to frame choice and to (W, Z), 50 seeds",
           time.perf_counter() - started, budget=20.0)


def test_criterion_5_minimal_rate_boundary():
    import itertools
    started = time.perf_counter()
    successes = 0
    unique_ok = True
    k = 2
    for seed in range(50):
        design, support, d, y = planted_pipeline(2000 + seed, m=8, p=2 * k, k=k,
                                                 n=16, sigma_target=2 * k)
        result = recover(y, design, k_max=k, solver="exhaustive")
        nmse = (np.linalg.norm(result.coefficients.sequences - d.sequences) ** 2
                / np.linalg.norm(d.sequences) ** 2)
        if result.support == support and nmse <= 1e-9:
            successes += 1
        # brute force: no alternative support of size <= k fits
        v, _ = frame_from_q(compute_q(demodulate(y, design)))
        fitting = []
        for size in range(0, k + 1):
            for combo in itertools.combinations(range(design.m), size):
                if not combo:
                    continue
                a_s = design.A[:, list(combo)]
                coef, *_ = np.linalg.lstsq(a_s, v, rcond=None)
                res = np.linalg.norm(v - a_s @ coef) / np.linalg.norm(v)
                if res <= 1e-8:
                    fitting.append(frozenset(combo))
        unique_ok = unique_ok and fitting == [support]
    report(5, successes == 50 and unique_ok,
           f"p = 2k boundary: {successes}/50 exact, planted support is the unique fit",
           time.perf_counter() - started, budget=30.0)


def test_criterion_6_multiband_example():
    started = time.perf_counter()
    # delay-filter identity on a 512-point grid and the fractional-delay chain
    multiband = dict(mode="multiband", n_bands=1, band_width=2 * np.pi / 8, m=7, T=1.0, N=32)
    build0 = build_multiband(ExperimentConfig(p=4, cosets=(0, 2, 3, 5), **multiband), 0)
    delay_report = delay_filter_equivalence_check(build0)
    delay_ok = delay_report["max_deviation"] <= 1e-9

    rng = np.random.default_rng(606)
    chain_worst = 0.0
    for coset, m in ((0, 4), (3, 4), (4, 4), (2, 7), (6, 7)):
        y = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        chain = fractional_delay_demodulate(y, coset, m)
        direct = fractional_delay_direct(y, coset, m)
        chain_worst = max(chain_worst,
                          float(np.max(np.abs(chain - direct)) / np.max(np.abs(direct))))
    chain_ok = chain_worst <= 1e-8

    # end-to-end slice recovery: p = 4*n_bands cosets on a prime slice count
    n_bands = 1
    exact = 0
    for seed in range(50):
        rng_s = np.random.default_rng(3000 + seed)
        cosets = tuple(int(c) for c in rng_s.choice(7, size=4 * n_bands, replace=False))
        build = build_multiband(ExperimentConfig(p=len(cosets), cosets=cosets, **multiband),
                                seed)
        assert kruskal_rank(build.design.A) >= 2 * build.report["k_max"]  # per draw
        y = compressive_sample(build.coefficients, build.design)
        result = recover(y, build.design, k_max=build.report["k_max"])
        d = build.coefficients.sequences
        nmse = (np.linalg.norm(result.coefficients.sequences - d) ** 2
                / np.linalg.norm(d) ** 2)
        if result.support == build.coefficients.support and nmse <= 1e-9:
            exact += 1
    report(6, delay_ok and chain_ok and exact == 50,
           f"delay identity {delay_report['max_deviation']:.2e} <= 1e-9, "
           f"chain vs multiply {chain_worst:.2e} <= 1e-8, slice recovery {exact}/50",
           time.perf_counter() - started, budget=30.0)


def test_criterion_7_periodic_sparsity_example():
    started = time.perf_counter()
    quad_worst = 0.0
    quad_cfg = ExperimentConfig(mode="periodic_sparsity", m=4, k=1, s_pattern=(2,),
                                base_period=1.0, N=8, p=3)
    for seed in range(20):
        build = build_periodic_sparsity(quad_cfg, seed)
        quad = piecewise_constant_waveform_check(build)
        quad_worst = max(quad_worst, quad["max_relative_error"])
    quad_ok = quad_worst <= 1e-6

    pattern_ok = True
    pattern_cfg = ExperimentConfig(mode="periodic_sparsity", m=7, k=2, s_pattern=(1, 4),
                                   base_period=1.0, N=8, p=5)
    for seed in range(20):
        build = build_periodic_sparsity(pattern_cfg, seed)
        y = compressive_sample(build.coefficients, build.design)
        result = recover(y, build.design, k_max=2)
        flat = flatten_block_coefficients(result.coefficients)
        nonzero = np.flatnonzero(np.abs(flat) > 1e-12 * np.max(np.abs(flat)))
        pattern_ok = pattern_ok and set(int(i) % 7 for i in nonzero) <= {1, 4}
        truth = flatten_block_coefficients(build.coefficients)
        pattern_ok = pattern_ok and bool(
            np.linalg.norm(flat - truth) <= 1e-9 * np.linalg.norm(truth))
    report(7, quad_ok and pattern_ok,
           f"quadrature vs filter bank {quad_worst:.2e} <= 1e-6 (20 seeds), "
           "recovered indexes follow the {1, 4} mod 7 pattern (20 seeds)",
           time.perf_counter() - started, budget=20.0)


def test_criterion_8_somp_against_exhaustive_oracle():
    started = time.perf_counter()
    m, p, k = 20, 8, 2
    eligible = agreements = 0
    mismatches = []
    for seed in range(200):
        rng = np.random.default_rng(4000 + seed)
        a_matrix = make_cs_matrix("gaussian", p, m, rng)
        support = sorted(int(i) for i in rng.choice(m, size=k, replace=False))
        x = rng.standard_normal((k, 4)) + 1j * rng.standard_normal((k, 4))
        v = a_matrix[:, support] @ x
        prob = MMVProblem(a_matrix, v, k)
        try:
            s_exhaustive = solve_mmv_exhaustive(prob)
        except InfeasibleError:
            continue  # exhaustive did not succeed
        s_somp = solve_mmv_somp(prob)
        if not s_somp or len(s_somp) > k:
            continue
        a_s = a_matrix[:, sorted(s_somp)]
        coef, *_ = np.linalg.lstsq(a_s, v, rcond=None)
        if np.linalg.norm(v - a_s @ coef) / np.linalg.norm(v) > 1e-8:
            continue  # SOMP did not terminate cleanly
        eligible += 1
        if s_somp == s_exhaustive:
            agreements += 1
        else:
            mismatches.append((seed, sorted(s_exhaustive), sorted(s_somp)))
    rate = agreements / eligible if eligible else 0.0
    for seed, s_e, s_s in mismatches:
        print(f"  mismatch at seed {seed}: exhaustive {s_e} vs somp {s_s}")
    report(8, eligible >= 150 and rate >= 0.95,
           f"SOMP agrees with the exhaustive oracle on {agreements}/{eligible} "
           f"eligible instances ({rate:.1%} >= 95%)",
           time.perf_counter() - started, budget=60.0)
