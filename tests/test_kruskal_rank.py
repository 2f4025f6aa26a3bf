"""kruskal_rank: the determinant screen against the plain SVD scan it replaced,
on single matrices, across block boundaries, at the widest A and through the
periodic trial path; the rows the level pass forms against the Schur
complements they stand for; the Chebotarev cross-check on prime-order DFT
rows, and input rejection."""

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
from references import svd_scan_kruskal_rank

REL_TOLS = (0.0, 1e-10, 1e-3, 0.5, 1.0)


def _rank_tol(rel_tol):
    """Tolerances whose ``rank_rel_tol`` is ``rel_tol``."""
    return DEFAULT_TOLERANCES.with_overrides(rank_rel_tol=rel_tol)


def _random_case(rng, index, shape=None):
    """A seeded matrix of one of the four kinds, m in 2..13 and p in 1..m
    unless ``shape`` gives (p, m), with a planted exact dependency, a
    near-duplicate column scaled by 1 + 1e-12, a zero column, or nothing
    planted."""
    kind = MATRIX_KINDS[index % len(MATRIX_KINDS)]
    if shape is None:
        m = int(rng.integers(2, 14))
        p = int(rng.integers(1, m + 1))
    else:
        p, m = shape
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
    records = experiments.run_trials(cfg)
    draws = experiments._draw_chunk(cfg, [record.seed for record in records])
    for record, (a, sigma, _, _) in zip(records, draws):
        assert record.exact, record
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


@pytest.mark.parametrize("rel_tol", REL_TOLS)
def test_stack_matches_per_matrix_ranks_and_svd_scan(rel_tol):
    # stacks of _random_case and _scaled_case draws of one shape, whose
    # planted dependencies stop the matrices at different levels, so
    # matrices leave the stack one level after another, and whose scales u
    # differ from matrix to matrix; (6, 13) stacks are split in runs of 9
    rng = np.random.default_rng(4242)
    spreads = []
    for shape in ((4, 6), (5, 9), (3, 12), (6, 13), (10, 13)):
        stack = np.stack([(_scaled_case if index % 3 else _random_case)(rng, index, shape)
                          for index in range(24)])
        expected = [svd_scan_kruskal_rank(a, rel_tol) for a in stack]
        ranks = kruskal_rank(stack, _rank_tol(rel_tol))
        assert ranks.shape == (24,) and ranks.dtype.kind == "i"
        assert ranks.tolist() == [kruskal_rank(a, _rank_tol(rel_tol)) for a in stack]
        assert ranks.tolist() == expected, (shape, rel_tol)
        spreads.append(len(set(expected)))
    assert sampling_design._stack_size(13, 6) == 9
    assert max(spreads) >= (3 if rel_tol < 1 else 1)  # rel_tol 1 clears no pair


def test_stack_wider_than_a_pass_is_one_call(monkeypatch):
    # the benchmark tracer wraps the module attribute, as here: a stack one
    # wider than a level pass takes is split inside the one call it counts
    calls = []
    inner = sampling_design.kruskal_rank
    monkeypatch.setattr(sampling_design, "kruskal_rank",
                        lambda *args, **kwargs: calls.append(args) or inner(*args, **kwargs))
    rng = np.random.default_rng(35)
    size = sampling_design._stack_size(13, 6)
    stack = np.stack([_random_case(rng, index, (6, 13)) for index in range(size + 1)])
    ranks = sampling_design.kruskal_rank(stack)
    assert len(calls) == 1
    assert ranks.tolist() == [inner(a) for a in stack] == [svd_scan_kruskal_rank(a) for a in stack]


def test_stack_mixing_real_and_complex_matches_svd_scan():
    # one complex matrix makes every Gram of the stack complex; the real
    # matrices' ranks must not move
    rng = np.random.default_rng(31)
    stack = np.stack([_random_case(rng, index, (5, 9)) for index in range(16)])
    real = ~np.any(stack.imag, axis=(1, 2))
    assert real.any() and not real.all()
    expected = [svd_scan_kruskal_rank(a) for a in stack]
    assert kruskal_rank(stack).tolist() == expected
    assert kruskal_rank(stack[real]).tolist() == [s for s, r in zip(expected, real) if r]
    assert len(set(expected)) >= 2


@pytest.mark.parametrize("m, cut", [(17, 7), (20, 6), (24, 5)])
def test_stack_of_one_at_cut_levels_matches_svd_scan(m, cut):
    # past m = 16 the levels from ``cut`` on are cut into pieces; column
    # m - 1 is a combination of cut - 1 others, so the scan stops at the
    # first cut level
    block = sampling_design._KRUSKAL_BLOCK
    assert sampling_design._whole_level(m, cut - 1, block) is not None
    assert sampling_design._whole_level(m, cut, block) is None
    rng = np.random.default_rng(m)
    a = make_cs_matrix("gaussian", cut + 1, m, rng).copy()
    a[:, m - 1] = a[:, [1, 4, 6, 9, 12, 15][:cut - 1]] @ rng.standard_normal(cut - 1)
    assert sampling_design._stack_size(m, cut + 1) == 1
    assert (kruskal_rank(a[None]).tolist() == [kruskal_rank(a)]
            == [svd_scan_kruskal_rank(a)] == [cut - 1])


def test_empty_stack_has_no_ranks():
    assert kruskal_rank(np.zeros((0, 4, 6))).shape == (0,)
    assert kruskal_rank(np.zeros((3, 2, 0))).tolist() == [0, 0, 0]


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


@pytest.mark.parametrize("case, cut", [("gaussian_9x17", 2), ("planted_9x18", 1)])
def test_cut_levels_at_the_default_block_match_svd_scan(monkeypatch, case, cut):
    # past m = 16 a level has more than _KRUSKAL_BLOCK subsets, so its blocks
    # are cut and each piece laid out per call: at m = 17 from level 7 on,
    # at m = 18 from level 6, whose first piece holds the six planted columns
    # and stops the scan
    rng = np.random.default_rng(0)
    if case == "gaussian_9x17":
        a, sigma = make_cs_matrix("gaussian", 9, 17, rng), 9
    else:
        a, sigma = make_cs_matrix("gaussian_real", 9, 18, rng).copy(), 5
        a[:, 17] = a[:, [2, 5, 8, 11, 14]] @ rng.standard_normal(5)
    pieces = []
    links = sampling_design._links

    def laid_out(b, counts, first):
        if isinstance(b, sampling_design._Block):
            pieces.append(counts.sum())
        return links(b, counts, first)
    monkeypatch.setattr(sampling_design, "_links", laid_out)
    assert kruskal_rank(a) == svd_scan_kruskal_rank(a) == sigma
    assert len(pieces) >= cut
    assert max(pieces) <= sampling_design._KRUSKAL_BLOCK


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


def _scaled_case(rng, index, shape=None):
    """A ``_random_case`` aimed at the screen's power-of-two scale u: its
    columns scaled over 2^+-40, the whole matrix at 1e+-150, a subnormal
    Gram (1e-160), a Gram whose diagonal overflows (1e155), zero columns, or
    column scales and a zero column together."""
    a = _random_case(rng, index, shape)
    m = a.shape[1]
    spread = 2.0 ** rng.integers(-40, 41, size=m)
    variant = index // 16 % 6
    if variant == 0:
        a = a * spread
    elif variant == 1:
        a = a * 10.0 ** (150 if index % 2 else -150)
    elif variant == 2:
        a = a * 1e-160
    elif variant == 3:
        a = a * 1e155
    elif variant == 4:
        a[:, rng.choice(m, size=int(rng.integers(1, m)), replace=False)] = 0.0
    else:
        a = a * spread
        a[:, rng.integers(m)] = 0.0
    return a


@pytest.mark.parametrize("block", [None, 7])
def test_shared_scale_matches_svd_scan(monkeypatch, block):
    # D_S = u^q det(G_S) with one u per call: column norms that share no
    # binade, Grams at the ends of the float range and zero columns, at every
    # rel_tol; block 7 cuts every level past the first between sibling groups
    if block is not None:
        monkeypatch.setattr(sampling_design, "_KRUSKAL_BLOCK", block)
        monkeypatch.setattr(sampling_design, "_KRUSKAL_KEEP", 20)
    rng = np.random.default_rng(2028)
    for index in range(480 if block is None else 192):
        a = _scaled_case(rng, index)
        rel_tol = REL_TOLS[index % len(REL_TOLS)]
        assert (kruskal_rank(a, _rank_tol(rel_tol))
                == svd_scan_kruskal_rank(a, rel_tol)), (index, a.shape, rel_tol)


@pytest.mark.parametrize("rel_tol", REL_TOLS)
def test_overflowed_gram_clears_nothing(rel_tol):
    # column 0's squared norm overflows to inf and column 1 is a tiny
    # multiple of it: rounding reads the pair's pivot as column 1's own
    # norm, so with a finite u the pair would look independent
    a = np.ones((3, 4)) * np.array([1e155, 1e-160, 1.0, -2.0])
    a[:, 2:] += np.random.default_rng(3).standard_normal((3, 2))
    with np.errstate(over="ignore"):
        assert np.isinf((a.T @ a)[0, 0])
    assert (kruskal_rank(a, _rank_tol(rel_tol)) == svd_scan_kruskal_rank(a, rel_tol)
            == (rel_tol < 1))


def test_threshold_carries_the_level_factor():
    # two columns of squared norm 0.99 (u = 1) at every angle: D_S =
    # 0.99^2 sin^2 alone passes 0.5 from about 46 degrees, where the SVD
    # ratio tan(theta / 2) is still 0.42, so the screen must hold D_S to
    # clear q^q / (q - 1)^(q - 1) = 4 clear
    for theta in np.linspace(0.0, np.pi / 2, 91):
        a = np.sqrt(0.99) * np.array([[1.0, np.cos(theta)], [0.0, np.sin(theta)]])
        for rel_tol in REL_TOLS:
            assert (kruskal_rank(a, _rank_tol(rel_tol))
                    == svd_scan_kruskal_rank(a, rel_tol)), (theta, rel_tol)


@pytest.mark.parametrize("shape", [(2, 0), (0, 0), (0, 3)])
def test_empty_a_has_rank_zero(shape):
    assert kruskal_rank(np.zeros(shape)) == 0


# Subsets that reached the SVD test before the screen read D_S (the trace
# chain nd = det(G_S) / tr(G_S)^q), measured on the same draws: a sound but
# weaker screen must not turn into more SVD work.
_SVD_SUBSETS_PERIODIC = 186  # the 106 draws of 40 periodic_redraw trials, seed 7
_SVD_SUBSETS_GAUSSIAN = 0  # 300 gaussian 4 x 6 draws


def test_screen_sends_no_more_subsets_to_the_svd_test(monkeypatch):
    subsets = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        subsets.append(a.shape[0])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    cfg = experiments.config_from_json(dict(
        mode="periodic_sparsity", m=16, k=2, p=10, N=128, matrix_kind="bernoulli",
        solver="exhaustive", seed=7, trials=40))
    draws = []
    make = experiments.make_cs_matrix
    monkeypatch.setattr(experiments, "make_cs_matrix",
                        lambda *args: draws.append(args) or make(*args))
    experiments._draw_chunk(cfg, [trial_seed(cfg.seed, t) for t in range(cfg.trials)])
    assert len(draws) == 106
    assert sum(subsets) <= _SVD_SUBSETS_PERIODIC
    subsets.clear()
    rng = np.random.default_rng(7)
    for _ in range(300):
        kruskal_rank(make_cs_matrix("gaussian", 4, 6, rng))
    assert sum(subsets) <= _SVD_SUBSETS_GAUSSIAN


def _without_wall_time(csv):
    return [line.rsplit(",", 1)[0] for line in csv.splitlines()]


@pytest.mark.parametrize("config", [
    dict(mode="periodic_sparsity", m=16, k=2, p=10, N=128, matrix_kind="bernoulli",
         solver="exhaustive", trials=40),
    dict(mode="generic", m=6, k=2, p=4, N=16, matrix_kind="gaussian",
         solver="exhaustive", trials=200),
], ids=["periodic_redraw", "mc_small"])
def test_trials_are_byte_identical_with_the_svd_scan(monkeypatch, config):
    # every sigma decides which A a trial keeps, so the whole trials.csv
    # (wall time aside) must not move when the SVD scan gives sigma
    cfg = experiments.config_from_json(dict(config, seed=7))
    fast = experiments.records_to_csv(experiments.run_trials(cfg))
    ranked = []

    def svd_scan_stack(stack, tol):
        ranked.append(len(stack))
        return np.array([svd_scan_kruskal_rank(a, tol.rank_rel_tol) for a in stack])

    monkeypatch.setattr(experiments, "kruskal_rank", svd_scan_stack)
    slow = experiments.records_to_csv(experiments.run_trials(cfg))
    assert _without_wall_time(fast) == _without_wall_time(slow)
    assert len(slow.splitlines()) == cfg.trials + 1
    # the scan ranked every draw: at least one per trial, in stacks as wide
    # as the runs
    assert sum(ranked) >= cfg.trials
    assert max(ranked) == min(cfg.trials, experiments._BANK_BLOCK // (16 * cfg.m * cfg.N))


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
        kruskal_rank(np.stack([np.eye(3, 4), a, np.eye(3, 4)]))
    with pytest.raises(InvalidInputError, match="A has a NaN or infinite entry"):
        make_design(a, FrequencyGrid(2))


def test_non_finite_a_is_rejected_on_load():
    design = make_design(np.eye(2, 3), FrequencyGrid(2))
    text = design_to_json(design)
    tampered = text.replace('"A": [[1.0, 0.0]', '"A": [[NaN, 0.0]', 1)
    assert tampered != text
    with pytest.raises(InvalidInputError, match="A has a NaN or infinite entry"):
        design_from_json(tampered)
