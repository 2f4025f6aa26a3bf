"""kruskal_rank: the determinant screen against the plain SVD scan it replaced,
on single matrices, across block boundaries, at the widest A and through the
periodic trial path; the rows the level pass forms against the Schur
complements they stand for; the Chebotarev cross-check on prime-order DFT
rows, and input rejection."""

import itertools
import math

import numpy as np
import pytest

from si_subnyq import experiments, sampling_design
from si_subnyq.errors import InvalidInputError
from si_subnyq.experiments import trial_seed
from si_subnyq.sampling_design import (
    MATRIX_KINDS,
    design_from_json,
    design_to_json,
    kruskal_rank,
    make_cs_matrix,
    make_design,
)
from si_subnyq.si_core import FrequencyGrid
from si_subnyq.tolerances import DEFAULT_TOLERANCES

REL_TOLS = (0.0, 1e-10, 1e-3, 0.5, 1.0)
_ORACLE_CHUNK = 20000


def svd_scan_kruskal_rank(A, rel_tol=1e-10):
    """Reference: the exhaustive SVD scan, as kruskal_rank computed it before
    the determinant screen (input guards dropped)."""
    A = np.asarray(A, dtype=np.complex128)
    p, m = A.shape
    sigma = 0
    for q in range(1, min(p, m) + 1):
        combos = itertools.combinations(range(m), q)
        all_full_rank = True
        while True:
            chunk = list(itertools.islice(combos, _ORACLE_CHUNK))
            if not chunk:
                break
            subs = np.moveaxis(A[:, np.asarray(chunk)], 1, 0)  # (batch, p, q)
            sv = np.linalg.svd(subs, compute_uv=False)
            if not np.all(sv[:, -1] > rel_tol * sv[:, 0]):
                all_full_rank = False
                break
        if not all_full_rank:
            break
        sigma = q
    return sigma


def _rank_tol(rel_tol):
    """Tolerances whose ``rank_rel_tol`` is ``rel_tol``."""
    return DEFAULT_TOLERANCES.with_overrides(rank_rel_tol=rel_tol)


def _random_case(rng, index):
    """A seeded matrix of one of the four kinds, m in 2..13 and p in 1..m,
    with a planted exact dependency, a near-duplicate column scaled by
    1 + 1e-12, a zero column, or nothing planted."""
    kind = MATRIX_KINDS[index % len(MATRIX_KINDS)]
    m = int(rng.integers(2, 14))
    p = int(rng.integers(1, m + 1))
    a = make_cs_matrix(kind, p, m, rng).copy()
    plant = index // len(MATRIX_KINDS) % 4
    if plant == 0 and m >= 3:
        size = int(rng.integers(2, min(p + 1, m) + 1))
        cols = rng.choice(m, size=size, replace=False)
        a[:, cols[-1]] = a[:, cols[:-1]] @ rng.standard_normal(size - 1)
    elif plant == 1:
        i, j = rng.choice(m, size=2, replace=False)
        a[:, j] = a[:, i] * (1 + 1e-12)
    elif plant == 2:
        a[:, rng.integers(m)] = 0.0
    return a


def _periodic_draw(attempt):
    """The m = 16 Bernoulli A of the periodic_redraw config at master seed 7."""
    return make_cs_matrix("bernoulli", 10, 16, np.random.default_rng(trial_seed(7, attempt)))


def _columns(masks, size):
    """The set bits of each mask, ascending: (len(masks), size)."""
    bits = (masks[:, None] >> np.arange(sampling_design.KRUSKAL_MAX_COLUMNS)) & 1
    return np.nonzero(bits)[1].reshape(-1, size)


def test_screen_matches_svd_scan_on_seeded_matrices():
    rng = np.random.default_rng(2024)
    seen_sigma = set()
    for index in range(1000):
        a = _random_case(rng, index)
        rel_tol = REL_TOLS[index % len(REL_TOLS)]
        expected = svd_scan_kruskal_rank(a, rel_tol)
        assert kruskal_rank(a, _rank_tol(rel_tol)) == expected, (index, a.shape, rel_tol)
        seen_sigma.add(expected)
    assert seen_sigma >= set(range(0, 11))


def test_screen_matches_svd_scan_on_periodic_redraw_draws():
    # p=10, m=16 Bernoulli draws: columns collide, so sigma spreads over 1..7;
    # attempts 153 and 471 are the first with sigma 6 and 7, the deepest levels
    sigmas = []
    for attempt in [*range(48), 153, 471]:
        a = _periodic_draw(attempt)
        sigma = kruskal_rank(a)
        assert sigma == svd_scan_kruskal_rank(a), attempt
        sigmas.append(sigma)
    assert min(sigmas) == 1 and {5, 6, 7} <= set(sigmas)


@pytest.mark.parametrize("master", [1, 2])
def test_periodic_redraw_trials_are_exact_with_svd_sigma(master):
    # the benchmark's periodic_redraw config: a faster or wrong rank scan that
    # accepts another A shows here as a sigma off the SVD scan or a missed trial
    cfg = experiments.config_from_json(dict(
        mode="periodic_sparsity", m=16, k=2, p=10, N=128, matrix_kind="bernoulli",
        solver="exhaustive", seed=master, trials=20))
    for record in experiments.run_trials(cfg):
        assert record.exact, record
        a, sigma, _ = experiments._draw_a(
            cfg, lambda attempt: np.random.default_rng(trial_seed(record.seed, attempt)))
        assert sigma == record.sigma_a == svd_scan_kruskal_rank(a) >= 4, record


@pytest.mark.parametrize("rel_tol", REL_TOLS)
def test_screen_matches_svd_scan_on_planted_cases(rel_tol):
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    exact = a.copy()
    exact[:, 8] = exact[:, 0] - 2.0 * exact[:, 3] + 0.5j * exact[:, 5]
    near = a.copy()
    near[:, 4] = near[:, 1] * (1 + 1e-12)
    zero = a.copy()
    zero[:, 2] = 0.0
    # real duplicate columns scaled so that G = A^T A is subnormal: rounding
    # in G then reads the pair as independent, so the SVD test must decide
    dup = a.real.copy()
    dup[:, 4] = 3.0 * dup[:, 1]
    for case in (a, exact, near, zero, a.real, 1e-160 * a, 1e150 * a, 1e-158 * dup):
        assert (kruskal_rank(case, _rank_tol(rel_tol))
                == svd_scan_kruskal_rank(case, rel_tol))


def test_blocked_levels_match_svd_scan(monkeypatch):
    # blocks of a few children cut every level past the first between sibling
    # groups, and levels of more than 20 subsets are regrown from the last
    # kept; the two m = 16 periodic draws take the scan to levels 7 and 8
    monkeypatch.setattr(sampling_design, "_KRUSKAL_BLOCK", 7)
    monkeypatch.setattr(sampling_design, "_KRUSKAL_KEEP", 20)
    rng = np.random.default_rng(99)
    for index in range(120):
        a = _random_case(rng, index)
        rel_tol = REL_TOLS[index % len(REL_TOLS)]
        assert (kruskal_rank(a, _rank_tol(rel_tol))
                == svd_scan_kruskal_rank(a, rel_tol)), index
    for attempt, sigma in ((153, 6), (471, 7)):
        a = _periodic_draw(attempt)
        assert kruskal_rank(a) == svd_scan_kruskal_rank(a) == sigma, attempt


def test_a_second_call_of_the_same_m_builds_no_level(monkeypatch):
    built = []
    links = sampling_design._links

    def recording(b, counts, first):
        built.append(counts.size)
        return links(b, counts, first)

    sampling_design._whole_level.cache_clear()
    monkeypatch.setattr(sampling_design, "_links", recording)
    # sigma 7: the scan grows levels 2..8, each laid out once, from its parent
    assert kruskal_rank(_periodic_draw(471)) == 7
    assert built == [math.comb(16, q) for q in range(1, 8)]
    built.clear()
    for attempt in (471, 153, 0):
        assert kruskal_rank(_periodic_draw(attempt)) == svd_scan_kruskal_rank(
            _periodic_draw(attempt))
    assert built == []


def _family(m, count, rng):
    """Seeded p x m draws of every kind, half with column m - 1 a
    combination of two others."""
    p = min(m, 10)
    cases = []
    for index in range(count):
        a = make_cs_matrix(MATRIX_KINDS[index % len(MATRIX_KINDS)], p, m, rng).copy()
        if index % 2:
            a[:, m - 1] = a[:, 0] - 0.5 * a[:, index % (m - 1)]
        cases.append(a)
    return cases


def test_interleaved_m_match_svd_scan_cold_and_warm():
    rng = np.random.default_rng(616)
    family = [(m, _family(m, 3, rng)) for m in (6, 16, 12, 6, 16)]
    expected = [[svd_scan_kruskal_rank(a) for a in cases] for _, cases in family]
    sampling_design._whole_level.cache_clear()
    for _ in ("cold", "warm"):
        for (m, cases), sigmas in zip(family, expected):
            assert [kruskal_rank(a) for a in cases] == sigmas, m


def test_blocked_levels_after_a_warm_tree_match_svd_scan(monkeypatch):
    # the tree laid out at the default block size is not read once blocks
    # are cut
    draws = [_periodic_draw(attempt) for attempt in (153, 471)]
    rng = np.random.default_rng(17)
    cases = [_random_case(rng, index) for index in range(40)]
    for a in draws + cases:
        kruskal_rank(a)
    calls = []
    whole_level = sampling_design._whole_level

    def recording(m, q, block):
        level = whole_level(m, q, block)
        calls.append((m, q, block, level is not None))
        return level

    monkeypatch.setattr(sampling_design, "_KRUSKAL_BLOCK", 7)
    monkeypatch.setattr(sampling_design, "_KRUSKAL_KEEP", 20)
    monkeypatch.setattr(sampling_design, "_whole_level", recording)
    for a in draws + cases:
        assert kruskal_rank(a) == svd_scan_kruskal_rank(a)
    # a level is read from the tree only if it and every level before it
    # has at most 7 subsets
    assert {block for _, _, block, _ in calls} == {7}
    assert all(whole == all(math.comb(m, r) <= 7 for r in range(2, q + 1))
               for m, q, _, whole in calls)
    assert {whole for *_, whole in calls} == {True, False}


# Bytes the tree keeps per subset of a level it keeps: six int64 fields
# (_Links and _Shape).
_KEPT_BYTES_PER_SUBSET = 48


@pytest.mark.parametrize("m, whole, budget_mib", [(16, 16, 3.0), (24, 4, 0.6)])
def test_kept_tree_stays_under_its_budget(m, whole, budget_mib):
    # the tree keeps the levels grown whole, C(m, q) <= _KRUSKAL_BLOCK up to
    # the first that is cut, and no other
    block = sampling_design._KRUSKAL_BLOCK
    levels = [sampling_design._whole_level(m, q, block) for q in range(1, m + 1)]
    assert [level is not None for level in levels] == [q <= whole for q in range(1, m + 1)]
    kept = sum(field.nbytes for level in levels[:whole] for part in level
               if part is not None for field in part)
    assert kept <= _KEPT_BYTES_PER_SUBSET * sum(math.comb(m, q) for q in range(1, whole + 1))
    assert kept <= budget_mib * 2 ** 20
    # a full-spark A reads every kept level
    a = np.random.default_rng(m).standard_normal((min(m, whole + 1), m))
    assert kruskal_rank(a) == svd_scan_kruskal_rank(a) == min(m, whole + 1)


@pytest.mark.parametrize("case", ["complex 5x8", "bernoulli 10x16"])
def test_level_rows_are_the_schur_complement_entries(monkeypatch, case):
    # every row entry the level pass forms is K_P[j, c] for its child
    # P + {j, c}; level q forms C(m, q + 1) of them, and only when level
    # q + 1 is grown from it, so the level where the scan stops forms none
    if case == "complex 5x8":
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
    else:
        a = _periodic_draw(471)  # sigma 7: every K_P read has a regular G_P
    gram = a.conj().T @ a
    scale = np.abs(gram).max()
    formed = {}
    children = sampling_design._children

    def recording(b, counts, first, q, *rest):
        child = children(b, counts, first, q, *rest)
        cols = _columns(child.mask, q + 1)
        p_, j, c = cols[:, :-2], cols[:, -2], cols[:, -1]
        expected = gram[j, c]
        if q > 1:
            g_pp = gram[p_[:, :, None], p_[:, None, :]]
            g_pc = gram[p_, c[:, None]][..., None]
            expected = expected - (gram[j[:, None], p_][:, None, :]
                                   @ np.linalg.solve(g_pp, g_pc))[:, 0, 0]
        np.testing.assert_allclose(child.x, expected, rtol=1e-10, atol=1e-10 * scale)
        formed[q] = formed.get(q, 0) + child.x.size
        return child

    monkeypatch.setattr(sampling_design, "_children", recording)
    sigma = kruskal_rank(a)
    m = a.shape[1]
    assert sigma == (5 if case == "complex 5x8" else 7)
    last_scanned = min(sigma + 1, min(a.shape))
    assert formed == {q: math.comb(m, q + 1) for q in range(1, last_scanned)}


def test_widest_a_matches_svd_scan():
    # m = KRUSKAL_MAX_COLUMNS: 3 x 24 DFT rows, where consecutive rows are a
    # Vandermonde matrix and scan all C(24, 3) subsets, and a duplicated
    # Bernoulli column stops the scan at level 2
    m = sampling_design.KRUSKAL_MAX_COLUMNS
    rng = np.random.default_rng(24)
    sigmas = []
    for cosets in ((0, 1, 2), None, None, None):
        a = make_cs_matrix("fourier_rows", 3, m, rng, cosets=cosets)
        sigmas.append(kruskal_rank(a))
        assert sigmas[-1] == svd_scan_kruskal_rank(a), cosets
    assert sigmas[0] == 3
    a = make_cs_matrix("bernoulli", 12, m, rng).copy()
    a[:, 23] = -a[:, 5]
    assert kruskal_rank(a) == svd_scan_kruskal_rank(a) == 1


@pytest.mark.parametrize("m", [5, 7, 11, 13])
def test_chebotarev_prime_dft_rows_have_full_spark(m):
    # every minor of a prime-order DFT matrix is nonzero (Chebotarev)
    rng = np.random.default_rng(m)
    for p in range(1, m + 1):
        assert kruskal_rank(make_cs_matrix("fourier_rows", p, m, rng)) == p


def test_even_cosets_of_dft8_repeat_columns():
    # rows 0, 2, 4, 6 of the 8-point DFT: column l + 4 equals column l
    a = make_cs_matrix("fourier_rows", 4, 8, np.random.default_rng(0), cosets=(0, 2, 4, 6))
    assert kruskal_rank(a) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_non_finite_a_is_rejected(bad):
    a = np.eye(3, 4, dtype=np.complex128)
    a[1, 2] = bad
    with pytest.raises(InvalidInputError, match="A has a NaN or infinite entry"):
        kruskal_rank(a)
    with pytest.raises(InvalidInputError, match="A has a NaN or infinite entry"):
        make_design(a, FrequencyGrid(2))


def test_non_finite_a_is_rejected_on_load():
    design = make_design(np.eye(2, 3), FrequencyGrid(2))
    text = design_to_json(design)
    tampered = text.replace('"A": [[1.0, 0.0]', '"A": [[NaN, 0.0]', 1)
    assert tampered != text
    with pytest.raises(InvalidInputError, match="A has a NaN or infinite entry"):
        design_from_json(tampered)
