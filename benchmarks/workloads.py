"""Workload definitions: the CLI config each workload runs and how its runs
are cut into repetitions.

A repetition ("rep") is one ``si-subnyq run`` call on ``rep_trials`` trials.
Rep ``r`` of a run with benchmark seed ``s`` passes ``--seed rep_seed(s, r)``
to the CLI, so the inputs depend only on the benchmark seed and the rep index.
The one-line reason for each workload is the ``why`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

# Master seed of the README example config. The output digests in
# digests.json are recorded for one rep at this seed.
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    rep_trials: int
    # Rough length of one rep on a 2-core x86 box; only used to size the fixed
    # trial set of a traced run from --seconds, never to judge a result.
    nominal_rep_s: float

    def cli_config(self) -> dict:
        return dict(self.config, seed=DEFAULT_SEED, trials=self.rep_trials)

    def trace_reps(self, seconds: float) -> int:
        """Reps in the fixed trial set of a traced run: about half of
        ``seconds`` untraced, the other half traced."""
        return max(1, round(seconds / 2 / self.nominal_rep_s))


WORKLOADS = {w.name: w for w in (
    # README example: thousands of ~2 ms trials, where fixed per-trial cost
    # in every layer and the experiments loop dominate.
    Workload("mc_small", dict(
        mode="generic", m=6, k=2, p=4, N=16,
        matrix_kind="gaussian", solver="exhaustive"),
        rep_trials=200, nominal_rep_s=0.4),
    # Exhaustive support search dominates. With k = p/2 close to m/2 the
    # full scans of sizes 1..k-1 are most of the work, so the cost of a trial
    # depends little on where the planted support falls in lexicographic
    # order and a run of a few hundred trials is steady. sigma is off, so
    # kruskal_rank never runs.
    Workload("wide_exhaustive", dict(
        mode="generic", m=12, k=5, p=10, N=256, compute_sigma=False,
        matrix_kind="gaussian", solver="exhaustive"),
        rep_trials=6, nominal_rep_s=0.33),
    # The paper's multiband application: the only diagonal, non-identity W,
    # a 32 x 2048 x 32 generator array per trial, SOMP solver. With p=12
    # cosets greedy SOMP misses the support in about 0.6 % of trials; with 16
    # it missed none of 9500.
    Workload("multiband_long", dict(
        mode="multiband", m=32, k=4, p=16, N=2048, n_bands=2,
        solver="somp"),
        rep_trials=2, nominal_rep_s=0.37),
    # Bernoulli columns collide, so each trial redraws A (and rebuilds the
    # whole periodic scenario) until kruskal_rank reaches 2k.
    Workload("periodic_redraw", dict(
        mode="periodic_sparsity", m=16, k=2, p=10, N=128,
        matrix_kind="bernoulli", solver="exhaustive"),
        rep_trials=2, nominal_rep_s=0.45),
)}


def rep_seed(seed: int, rep: int) -> int:
    """CLI master seed of rep ``rep`` in a run with benchmark seed ``seed``."""
    return seed * 1_000_003 + rep
