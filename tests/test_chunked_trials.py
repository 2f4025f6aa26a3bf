"""Whole trials across run boundaries: ``run_trials`` cuts the trials into
runs of as many as ``_BANK_BLOCK`` bytes of banks hold; a run draws its A in
rounds, one ``kruskal_rank`` call per round (which splits a round wider than
its own stack), then builds and samples its banks with one stacked
``synthesize`` and ``compressive_sample`` call each, before it recovers each
trial. ``reference_trial`` takes the slow route of one trial at a time: a
per-trial draw loop with sigma from the plain SVD scan, a coefficient bank
drawn channel by channel, W held as dense per-bin matrices (so W is applied
by einsum and undone by ``np.linalg.solve``), sampling by a whole-bank FFT,
the exhaustive oracle settling every exhaustive recovery, and coefficients
through ``np.linalg.pinv``; the two must write the same trials.csv, wall time
aside."""

import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from references import per_channel_bank, pinv_coefficients, svd_scan_kruskal_rank
from si_subnyq import ctf, experiments, sampling_design, scenarios
from si_subnyq.experiments import TrialRecord, config_from_json, trial_seed
from si_subnyq.sampling_design import (
    MeasurementBank,
    kruskal_rank,
    make_cs_matrix,
    make_design,
)
from si_subnyq.scenarios import build_multiband
from si_subnyq.si_core import FrequencyGrid, PeriodicMatrixFunction
from si_subnyq.sparse_model import SparsityProfile


def _sigma(cfg, a):
    compute = cfg.compute_sigma
    if compute is None:
        compute = cfg.m <= 16
    return svd_scan_kruskal_rank(a, cfg.tolerances.rank_rel_tol) if compute else None


def _sample(bank, design):
    """y = ifft(W A fft(d)) with every row of the bank transformed."""
    assert design.Z is None
    x = np.fft.fft(bank.sequences, axis=1)
    return MeasurementBank(np.fft.ifft(design.W.apply(design.A @ x), axis=1))


def reference_trial(cfg, index, seed):
    """Trial ``index`` of ``cfg``, whose seed is ``seed``, one trial at a time."""
    tol = cfg.tolerances
    if cfg.mode == "multiband":
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scenarios, "synthesize", per_channel_bank)
            build = build_multiband(cfg, seed, tol)
        design, bank, k_max = build.design, build.coefficients, build.report["k_max"]
        sigma = _sigma(cfg, design.A)
    else:
        periodic = cfg.mode == "periodic_sparsity"
        shared = np.random.default_rng(seed)
        for attempt in range(64):
            rng = np.random.default_rng(trial_seed(seed, attempt)) if periodic else shared
            a = make_cs_matrix(cfg.matrix_kind, cfg.p, cfg.m, rng)
            sigma = _sigma(cfg, a)
            if sigma is None or sigma >= min(2 * cfg.k, cfg.p, cfg.m):
                break
        if periodic:
            support = cfg.s_pattern
            if support is None:
                support = np.random.default_rng(seed).choice(cfg.m, size=cfg.k, replace=False)
        else:
            support = rng.choice(cfg.m, size=cfg.k, replace=False)
        design = make_design(a, FrequencyGrid(cfg.N), tol=tol)
        profile = SparsityProfile(cfg.m, cfg.k, frozenset(int(i) for i in support))
        bank, k_max = per_channel_bank(profile, cfg.N, rng), cfg.k
    design = make_design(design.A, design.grid,
                         W=PeriodicMatrixFunction(design.grid, design.W.values), tol=tol)
    y = _sample(bank, design)
    with pytest.MonkeyPatch.context() as patch:
        if cfg.solver == "exhaustive":
            # a SOMP miss takes the screen by design, so only these skip it
            patch.setattr(ctf, "_screen", lambda prob, tol: None)
        result = ctf.recover(y, design, k_max=k_max, solver=cfg.solver, tol=tol)
    found = pinv_coefficients(ctf.demodulate(y, design, tol), design, result.support,
                              tol.rank_rel_tol)
    energy = np.linalg.norm(bank.sequences) ** 2
    nmse = float(np.linalg.norm(found - bank.sequences) ** 2) / energy
    return TrialRecord(
        trial=index, seed=seed, support_true=tuple(sorted(bank.support)),
        support_found=tuple(sorted(result.support)),
        exact=bank.support == result.support and nmse <= tol.recovery_rel_tol,
        nmse=nmse, rank_q=result.diagnostics["rank_q"], sigma_a=sigma, wall_time_s=0.0)


def _without_wall_time(csv):
    return [line.rsplit(",", 1)[0] for line in csv.splitlines()]


# Each runs its trials in one run, wider than one kruskal_rank stack, so
# kruskal_rank splits the run's first draw round; the stack size is in the id.
CONFIGS = {
    "generic_gaussian_17": dict(mode="generic", m=12, k=3, p=6, N=8, trials=20),
    "generic_bernoulli_N1_65": dict(mode="generic", m=10, k=2, p=5, N=1, trials=70,
                                    matrix_kind="bernoulli"),
    "generic_real_N_below_k_9": dict(mode="generic", m=13, k=4, p=6, N=3, trials=12,
                                     matrix_kind="gaussian_real"),
    "generic_p_below_2k_17": dict(mode="generic", m=12, k=4, p=6, N=8, trials=20,
                                  matrix_kind="bernoulli"),
    "generic_sigma_off_17": dict(mode="generic", m=12, k=3, p=6, N=8, trials=20,
                                 compute_sigma=False),
    "periodic_pattern_bernoulli_17": dict(mode="periodic_sparsity", m=12, k=2, p=6, N=8,
                                          trials=20, s_pattern=[1, 7],
                                          matrix_kind="bernoulli"),
    "periodic_fourier_12": dict(mode="periodic_sparsity", m=13, k=2, p=5, N=8, trials=14,
                                matrix_kind="fourier_rows"),
    "multiband_17": dict(mode="multiband", m=12, p=6, N=16, trials=20),
    "multiband_cosets_17": dict(mode="multiband", m=12, p=6, N=16, trials=20,
                                cosets=[0, 1, 3, 5, 8, 10]),
}


def _assert_trials_equal_the_reference(cfg):
    reference = [reference_trial(cfg, t, trial_seed(cfg.seed, t)) for t in range(cfg.trials)]
    chunked = experiments.run_trials(cfg)
    assert (_without_wall_time(experiments.records_to_csv(chunked))
            == _without_wall_time(experiments.records_to_csv(reference)))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_chunked_trials_equal_one_trial_at_a_time(name):
    cfg = config_from_json(dict(CONFIGS[name], seed=11))
    size = sampling_design._stack_size(cfg.m, cfg.p)
    assert size < cfg.trials <= experiments._BANK_BLOCK // (16 * cfg.m * cfg.N)
    assert name.endswith(f"_{size}")
    _assert_trials_equal_the_reference(cfg)


# Banks larger than a run holds together: 16 m N bytes each against
# _BANK_BLOCK; the trials of a run are in the id.
BUDGET_CONFIGS = {
    "generic_N2048_1": dict(mode="generic", m=8, k=2, p=4, N=2048, trials=3),
    "periodic_bernoulli_N1024_2": dict(mode="periodic_sparsity", m=8, k=2, p=4, N=1024,
                                       trials=5, matrix_kind="bernoulli"),
    # runs of 5, narrower than a kruskal_rank stack of 17
    "generic_chunks_N256_5": dict(mode="generic", m=12, k=3, p=6, N=256, trials=20),
}


@pytest.mark.parametrize("name", sorted(BUDGET_CONFIGS))
def test_runs_cut_by_the_bank_budget_equal_one_trial_at_a_time(monkeypatch, name):
    cfg = config_from_json(dict(BUDGET_CONFIGS[name], seed=5))
    run = experiments._BANK_BLOCK // (16 * cfg.m * cfg.N)
    assert run < cfg.trials and name.endswith(f"_{run}")
    built = []
    synthesize = experiments.synthesize
    monkeypatch.setattr(experiments, "synthesize",
                        lambda profiles, n, rngs: built.append(len(profiles))
                        or synthesize(profiles, n, rngs))
    _assert_trials_equal_the_reference(cfg)
    assert built == [min(run, cfg.trials - lo) for lo in range(0, cfg.trials, run)]


KINDS = ("gaussian", "gaussian_real", "bernoulli", "fourier_rows")


def _random_config(rng, mode):
    """A small seeded config of ``mode``: m up to 10, N in {1, 2, 3, 5, 8, 16,
    89} (often N < k), any p (often p < 2k), either solver, sigma on, off or
    left to m; a periodic pattern or a multiband coset set half the time."""
    m = int(rng.integers(2, 11))
    p = int(rng.integers(1, m + 1))
    doc = dict(mode=mode, m=m, p=p, N=int(rng.choice([1, 2, 3, 5, 8, 16, 89])),
               seed=int(rng.integers(2**31)), trials=int(rng.integers(1, 6)),
               solver=str(rng.choice(["exhaustive", "somp"])))
    if mode == "multiband":
        doc["n_bands"] = int(rng.integers(1, m // 2 + 1))
        if rng.random() < 0.5:
            doc["cosets"] = sorted(rng.choice(m, size=p, replace=False).tolist())
    else:
        doc["k"] = int(rng.integers(1, min(m, 4) + 1))
        doc["matrix_kind"] = str(rng.choice(KINDS))
        if mode == "periodic_sparsity" and rng.random() < 0.5:
            doc["s_pattern"] = sorted(rng.choice(m, size=doc["k"], replace=False).tolist())
    sigma = int(rng.integers(3))
    if sigma < 2:
        doc["compute_sigma"] = bool(sigma)
    return config_from_json(doc)


@pytest.mark.parametrize("mode", ["generic", "periodic_sparsity", "multiband"])
def test_random_configs_equal_one_trial_at_a_time(monkeypatch, mode):
    # 100 seeded configs per mode, each run in runs of 1 or 2 trials or as
    # many as _BANK_BLOCK holds, with kruskal_rank taking stacks of 1 or 2
    # matrices or its own _stack_size (at m <= 10 at least 65, more than the
    # 5 trials a config runs at most), so some generic and periodic runs are
    # wider than a stack and kruskal_rank splits their draw rounds
    rng = np.random.default_rng(["generic", "periodic_sparsity", "multiband"].index(mode) + 33)
    mismatched, split = [], 0
    for _ in range(100):
        cfg = _random_config(rng, mode)
        stack = [1, 2, sampling_design._stack_size(cfg.m, cfg.p)][int(rng.integers(3))]
        block = [1, 32 * cfg.m * cfg.N, experiments._BANK_BLOCK][int(rng.integers(3))]
        split += min(cfg.trials, block // (16 * cfg.m * cfg.N)) > stack
        reference = [reference_trial(cfg, t, trial_seed(cfg.seed, t)) for t in range(cfg.trials)]
        with monkeypatch.context() as patch:
            patch.setattr(sampling_design, "_stack_size", lambda m, p: stack)
            patch.setattr(experiments, "_BANK_BLOCK", block)
            batched = experiments.run_trials(cfg)
        if (_without_wall_time(experiments.records_to_csv(batched))
                != _without_wall_time(experiments.records_to_csv(reference))):
            mismatched.append((cfg, stack, block))
    assert mismatched == []
    assert split > 0 or mode == "multiband"  # a multiband build ranks its A alone


def test_a_chunk_far_over_the_bank_budget_keeps_memory_bounded():
    # 100 banks of 6 x 4096 values, 384 KiB each (37.5 MiB in all); in runs
    # of one bank the peak is one trial's working set
    cfg = config_from_json(dict(mode="generic", m=6, k=2, p=4, N=4096, trials=100, seed=2))
    experiments.run_trials(replace(cfg, trials=1))  # fills the per-process caches
    tracemalloc.start()
    try:
        experiments.run_trials(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * experiments._BANK_BLOCK


# The configs of test_exhaustive_search.py's oracle-forced test, at its seed.
ORACLE_CONFIGS = {
    "mc_small": dict(mode="generic", m=6, k=2, p=4, N=16, trials=200),
    "wide_exhaustive": dict(mode="generic", m=12, k=5, p=10, N=256, compute_sigma=False,
                            trials=12),
    "multiband": dict(mode="multiband", m=8, p=4, N=16, n_bands=1, trials=40),
    "periodic_bernoulli": dict(mode="periodic_sparsity", m=16, k=2, p=10, N=32,
                               matrix_kind="bernoulli", trials=20),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
def test_oracle_configs_equal_one_trial_at_a_time(name):
    _assert_trials_equal_the_reference(config_from_json(dict(ORACLE_CONFIGS[name], seed=7)))


def test_draw_rounds_stack_every_short_trial(monkeypatch):
    # round r ranks attempt r of each trial still short of min(2k, p, m), in
    # one call, and each trial keeps the A it keeps alone
    cfg = config_from_json(dict(CONFIGS["generic_bernoulli_N1_65"], seed=11))
    seeds = [trial_seed(cfg.seed, t) for t in range(65)]
    drawn = []
    make = experiments.make_cs_matrix
    monkeypatch.setattr(experiments, "make_cs_matrix",
                        lambda *args: drawn.append(args) or make(*args))
    alone, attempts = [], []
    for seed in seeds:
        drawn.clear()
        alone.append(experiments._draw_chunk(cfg, [seed])[0])
        attempts.append(len(drawn))
    stacks = []
    monkeypatch.setattr(experiments, "kruskal_rank",
                        lambda stack, tol: stacks.append(len(stack)) or kruskal_rank(stack, tol))
    together = experiments._draw_chunk(cfg, seeds)
    for (a, sigma, _, _), (b, sigma_alone, _, _) in zip(together, alone):
        assert np.array_equal(a, b) and sigma == sigma_alone
    assert stacks == [sum(n > r for n in attempts) for r in range(max(attempts))]
    assert stacks[0] == 65 and len(stacks) > 2


def test_wall_time_carries_the_draw_rounds(monkeypatch):
    # a trial's wall time is its own stages plus an equal share of each
    # draw round it took part in
    cfg = config_from_json(dict(mode="generic", m=6, k=2, p=4, N=16, trials=5, seed=3))
    draws = experiments._draw_chunk(cfg, [trial_seed(3, t) for t in range(5)])
    assert all(spent > 0 for *_, spent in draws)
    monkeypatch.setattr(experiments, "_draw_chunk",
                        lambda cfg, seeds: [(a, sigma, rng, 100.0) for a, sigma, rng, _ in
                                            draws[:len(seeds)]])
    assert all(100.0 < r.wall_time_s < 101.0 for r in experiments.run_trials(cfg))


def test_wall_time_carries_a_share_of_the_stacked_build(monkeypatch):
    # one run of 5 trials samples together; each trial's wall time holds a
    # fifth of the run's build, not all of it
    cfg = config_from_json(dict(mode="generic", m=6, k=2, p=4, N=16, trials=5, seed=3))
    sample = experiments.compressive_sample
    monkeypatch.setattr(experiments, "compressive_sample",
                        lambda banks, designs: time.sleep(0.25) or sample(banks, designs))
    assert all(0.05 <= r.wall_time_s < 0.25 for r in experiments.run_trials(cfg))
