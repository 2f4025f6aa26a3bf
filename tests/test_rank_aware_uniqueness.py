"""The uniqueness claim at its rank-aware strength.

The paper guarantees a unique support when sigma(A) >= 2k. For a frame V of
rank r, sigma(A) >= 2k - r + 1 already suffices (Chen & Huo, IEEE TSP 2006;
Davies & Eldar, arXiv:1004.4529), so with r = k the rate p = k + 1 does.
Over a small grid of generic Gaussian configs with p from k + 1 to 2k, rows
with N < k (a rank-deficient Q) and one row at p = k, every trial that meets
the condition must recover the planted support, and a brute force over every
support of size <= k must find no other that fits. A collision may only
happen where the condition fails.
"""

import itertools

import pytest

from si_subnyq import ctf, experiments
from si_subnyq.experiments import ExperimentConfig, trial_seed
from si_subnyq.sampling_design import compressive_sample

TRIALS = 20

# (m, k, p, N)
ROWS = ([(8, 3, p, 16) for p in range(4, 7)] + [(10, 4, p, 32) for p in range(5, 9)]
        + [(8, 3, 4, 2), (8, 3, 6, 2), (10, 4, 5, 3), (10, 4, 8, 3)]  # N < k
        + [(10, 4, 4, 32)])  # p = k: collisions


def fitting_supports(a, v, k, tol):
    frame = ctf._frame(v)
    return [frozenset(s) for size in range(1, k + 1)
            for s in itertools.combinations(range(a.shape[1]), size)
            if ctf._support_residual(a, frame, s) <= tol.mmv_residual_rel]


@pytest.mark.parametrize("m, k, p, n", ROWS)
def test_rank_aware_condition_gives_the_unique_planted_support(m, k, p, n):
    cfg = ExperimentConfig(m=m, k=k, p=p, N=n, seed=5, trials=TRIALS)
    tol = cfg.tolerances
    records = experiments.run_trials(cfg)
    seeds = [trial_seed(cfg.seed, t) for t in range(TRIALS)]
    held = collisions = 0
    for record, (design, bank, _, sigma) in zip(records,
                                                experiments._sparse_instances(cfg, seeds)):
        planted = frozenset(record.support_true)
        assert bank.support == planted and sigma == record.sigma_a
        y_tilde = ctf.demodulate(compressive_sample(bank, design), design, tol)
        v, _ = ctf.frame_from_q(ctf.compute_q(y_tilde), tol)
        assert v.shape[1] == record.rank_q
        if sigma >= 2 * k - record.rank_q + 1:
            held += 1
            assert frozenset(record.support_found) == planted and record.exact
            assert fitting_supports(design.A, v, k, tol) == [planted]
        if record.collision:
            collisions += 1
            assert sigma < 2 * k - record.rank_q + 1
    # every row but the three below the rank-aware rate meets the condition;
    # at p = k, V spans everything and every trial collides
    assert held == (0 if (p, n) in {(4, 2), (5, 3)} or p == k else TRIALS)
    assert collisions == (TRIALS if p == k else 0)
