"""A periodic_sparsity trial draws its instance in ``experiments`` alone: A is
drawn once per attempt, and the accepted attempt's generator goes on to draw
the coefficients. The reference below is the route of building the scenario
at the accepted attempt's seed, assembled from public pieces. A multiband
trial is the scenario build at the trial seed."""

from dataclasses import replace

import numpy as np
import pytest

from si_subnyq import experiments, scenarios
from si_subnyq.experiments import config_from_json, trial_seed
from si_subnyq.sampling_design import kruskal_rank, make_cs_matrix
from si_subnyq.scenarios import build_multiband, build_periodic_sparsity

PERIODIC_CONFIGS = {
    # Bernoulli columns collide, so most trials redraw A
    "bernoulli_redraws": dict(m=16, k=2, p=10, N=32, matrix_kind="bernoulli"),
    "fixed_pattern": dict(m=12, k=2, p=6, N=16, s_pattern=[1, 7]),
    "sigma_off": dict(m=20, k=2, p=8, N=16),
    # 16 Bernoulli columns of 4 rows always repeat one up to sign: sigma = 1
    # on every draw, so all of them fall short and the last is kept
    "all_draws_short": dict(m=16, k=2, p=4, N=16, matrix_kind="bernoulli"),
}


def reference_attempt(cfg, seed):
    """(accepted attempt, sigma) of a periodic trial: attempt i draws A from
    the scenario seed trial_seed(seed, i)."""
    compute = cfg.compute_sigma
    if compute is None:
        compute = cfg.m <= experiments._SIGMA_AUTO_MAX_M
    target = min(2 * cfg.k, cfg.p, cfg.m)
    for attempt in range(experiments._MAX_DRAWS):
        a = make_cs_matrix(cfg.matrix_kind, cfg.p, cfg.m,
                           np.random.default_rng(trial_seed(seed, attempt)))
        sigma = kruskal_rank(a) if compute else None
        if sigma is None or sigma >= target:
            break
    return attempt, sigma


def reference_build(cfg, seed, attempt):
    pattern = cfg.s_pattern
    if pattern is None:
        pattern = np.random.default_rng(seed).choice(cfg.m, size=cfg.k, replace=False)
    return build_periodic_sparsity(replace(cfg, s_pattern=tuple(int(i) for i in pattern)),
                                   trial_seed(seed, attempt))


@pytest.mark.parametrize("name", sorted(PERIODIC_CONFIGS))
def test_periodic_instance_is_the_scenario_build_at_the_accepted_seed(name):
    cfg = config_from_json(dict(mode="periodic_sparsity", seed=3, trials=6,
                                **PERIODIC_CONFIGS[name]))
    attempts = []
    for t in range(cfg.trials):
        seed = trial_seed(cfg.seed, t)
        attempt, sigma = reference_attempt(cfg, seed)
        attempts.append(attempt)
        build = reference_build(cfg, seed, attempt)
        design, bank, k_max, got_sigma = experiments._sparse_instances(cfg, [seed])[0]
        assert np.array_equal(design.A, build.design.A)
        assert np.array_equal(bank.sequences, build.coefficients.sequences)
        assert bank.support == build.coefficients.support
        assert k_max == cfg.k and got_sigma == sigma
    if name == "bernoulli_redraws":
        assert max(attempts) > 0
    if name == "all_draws_short":
        assert attempts == [experiments._MAX_DRAWS - 1] * cfg.trials


def test_periodic_trial_draws_a_once_per_attempt_and_builds_no_scenario(monkeypatch):
    cfg = config_from_json(dict(mode="periodic_sparsity", seed=1, trials=4,
                                **PERIODIC_CONFIGS["bernoulli_redraws"]))
    draws = []
    builds = []

    def counting_draw(*args):
        draws.append(args)
        return make_cs_matrix(*args)

    def counting_build(*args):
        builds.append(args)
        return build_periodic_sparsity(*args)

    monkeypatch.setattr(experiments, "make_cs_matrix", counting_draw)
    monkeypatch.setattr(scenarios, "make_cs_matrix", counting_draw)
    monkeypatch.setattr(scenarios, "build_periodic_sparsity", counting_build)
    records = experiments.run_trials(cfg)
    expected = sum(reference_attempt(cfg, r.seed)[0] + 1 for r in records)
    assert expected > cfg.trials  # some trial redrew A
    assert len(draws) == expected
    assert builds == []


MULTIBAND_CONFIGS = {
    # the multiband_long workload's shape, cut to a short grid
    "open_cosets": dict(m=32, k=4, p=16, N=64, n_bands=2, solver="somp"),
    "open_cosets_and_width": dict(m=8, p=4, N=16, T=0.5),
    "fixed_cosets": dict(m=7, p=4, N=32, cosets=[0, 2, 3, 5], band_width=0.7),
}


@pytest.mark.parametrize("name", sorted(MULTIBAND_CONFIGS))
def test_multiband_instance_is_the_build_of_cosets_drawn_from_the_trial_seed(name):
    """A multiband trial with ``cosets`` unset draws them from a generator of
    its own seed, then builds from a fresh one; with ``cosets`` set it builds
    from them."""
    cfg = config_from_json(dict(mode="multiband", seed=5, trials=4,
                                **MULTIBAND_CONFIGS[name]))
    for t in range(cfg.trials):
        seed = trial_seed(cfg.seed, t)
        cosets = cfg.cosets
        if cosets is None:
            cosets = np.random.default_rng(seed).choice(cfg.m, size=cfg.p, replace=False)
        reference = build_multiband(replace(cfg, cosets=tuple(int(c) for c in cosets)), seed)
        design, bank, k_max, sigma = experiments._multiband_instances(cfg, [seed])[0]
        assert np.array_equal(design.A, reference.design.A)
        assert np.array_equal(design.W.diagonal(), reference.design.W.diagonal())
        assert np.array_equal(bank.sequences, reference.coefficients.sequences)
        assert bank.support == reference.coefficients.support
        assert k_max == reference.report["k_max"] == 2 * cfg.n_bands
        assert sigma == (kruskal_rank(design.A) if cfg.m <= experiments._SIGMA_AUTO_MAX_M
                         else None)
        assert scenarios.build_multiband(cfg, seed).report["cosets"] == tuple(cosets)
