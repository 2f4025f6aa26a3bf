"""Checks of the benchmark's exact work counts against brute counts.

Run from the repository root: python3 -m pytest benchmarks -q
"""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from si_subnyq import ctf  # noqa: E402
from si_subnyq.errors import InfeasibleError  # noqa: E402
from tracer import Tracer, lex_rank, subsets_exhausted, subsets_scanned  # noqa: E402
from run import tail  # noqa: E402

M, P, K = 7, 6, 3  # p = 2k, so a planted support of size <= k is the unique fit


def _matrix(rng):
    a = rng.standard_normal((P, M)) + 1j * rng.standard_normal((P, M))
    return a / np.linalg.norm(a, axis=0)


@pytest.fixture
def residual_calls(monkeypatch):
    """Every support the exhaustive solver tests, in order."""
    calls = []
    original = ctf._support_residual

    def counting(A, v, support):
        calls.append(tuple(support))
        return original(A, v, support)
    monkeypatch.setattr(ctf, "_support_residual", counting)
    return calls


def test_lex_rank_follows_itertools_order():
    for m in range(1, 7):
        for s in range(1, m + 1):
            for rank, combo in enumerate(itertools.combinations(range(m), s)):
                assert lex_rank(combo, m) == rank


@pytest.mark.parametrize("size", range(1, K + 1))
def test_subsets_scanned_matches_brute_count(size, residual_calls):
    rng = np.random.default_rng(size)
    for _ in range(6):
        a = _matrix(rng)
        support = sorted(int(i) for i in rng.choice(M, size=size, replace=False))
        v = a[:, support] @ (rng.standard_normal((size, size))
                             + 1j * rng.standard_normal((size, size)))
        residual_calls.clear()
        found = ctf.solve_mmv_exhaustive(ctf.MMVProblem(a, v, K))
        assert found == frozenset(support)
        assert subsets_scanned(M, found) == len(residual_calls)


def test_tracer_counts_scans_and_exhausted_searches(residual_calls):
    rng = np.random.default_rng(0)
    a = _matrix(rng)
    planted = a[:, [1, 4]] @ rng.standard_normal((2, 2))
    unfit = rng.standard_normal((P, P)) + 1j * rng.standard_normal((P, P))
    original = ctf.solve_mmv_exhaustive
    with Tracer() as tracer:
        assert ctf.solve_mmv_exhaustive is not original
        ctf.solve_mmv_exhaustive(ctf.MMVProblem(a, planted, K))
        with pytest.raises(InfeasibleError):
            ctf.solve_mmv_exhaustive(ctf.MMVProblem(a, unfit, K))
    assert ctf.solve_mmv_exhaustive is original
    assert tracer.counts["subsets_scanned"] == len(residual_calls)
    assert len(residual_calls) == subsets_scanned(M, {1, 4}) + subsets_exhausted(M, K)
    assert tracer.calls["ctf.solve_mmv_exhaustive"] == 2
    assert [span[0] for span in tracer.spans] == ["ctf.solve_mmv_exhaustive"] * 2


def test_tail_keeps_ten_samples_beyond_and_stops_at_p95():
    assert tail([float(i) for i in range(100, 0, -1)]) == (90.0, 90.0)
    assert tail([float(i) for i in range(1, 1001)]) == (950.0, 95.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
