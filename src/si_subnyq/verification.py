"""Named invariant checks over the whole library, run by the CLI ``verify``.

Every check is deterministic (fixed seeds) and measures: it returns
(passed, detail[, metric]). ``CHECKS`` names each check once, under a dotted
group name so failures are attributable, and ``run_verification`` alone turns
an outcome, or the ``SiSubnyqError`` a check raised, into a CheckResult. The
checks re-derive expectations through independent routes (explicit loops,
alternate domains, brute force) rather than re-calling the code under test
with itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import ctf, experiments, sampling_design, scenarios, si_core, sparse_model
from .errors import SiSubnyqError
from .tolerances import DEFAULT_TOLERANCES, Tolerances


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    metric: float | None = None


@dataclass(frozen=True)
class VerificationReport:
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.passed]

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail, "metric": r.metric}
                for r in self.results
            ],
        }

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            out.append(f"{status}  {r.name}: {r.detail}")
        n_fail = len(self.failures)
        out.append(f"{'OK' if self.passed else 'FAILED'}: "
                   f"{len(self.results) - n_fail}/{len(self.results)} checks passed")
        return out


def _random_setup(seed: int, m: int = 3, n: int = 8, n_alias: int = 5):
    rng = np.random.default_rng(seed)
    grid = si_core.FrequencyGrid(n)
    alias = tuple(range(-(n_alias // 2), n_alias - n_alias // 2))
    gens = si_core.random_generator_set(m, grid, 1.0, alias, rng)
    return rng, grid, gens


def _time_domain_filterbank(values: np.ndarray, sequences: np.ndarray) -> np.ndarray:
    """O(N^2) circular-convolution realization of a multichannel filter bank."""
    n, p, m = values.shape
    taps = np.fft.ifft(values, axis=0)  # taps[s, i, l]
    out = np.zeros((p, n), dtype=np.complex128)
    for i in range(p):
        for ell in range(m):
            for t in range(n):
                acc = 0.0 + 0.0j
                for s in range(n):
                    acc += taps[s, i, ell] * sequences[ell, (t - s) % n]
                out[i, t] += acc
    return out


# ---------------------------------------------------------------------------
# si_core
# ---------------------------------------------------------------------------

def check_dft_consistency(tol: Tolerances) -> tuple:
    rng, grid, gens = _random_setup(seed=101, m=3, n=8)
    m_aa = si_core.cross_spectrum_matrix(gens, gens)
    d = sparse_model.synthesize(
        sparse_model.SparsityProfile(3, 3, frozenset({0, 1, 2})), grid.n, rng)
    fast = si_core.filterbank_sample(d, m_aa)
    slow = _time_domain_filterbank(m_aa.values, d.sequences)
    err = float(np.max(np.abs(fast - slow)) / np.max(np.abs(slow)))
    return err <= tol.dual_path_tol, f"freq vs time realization rel err {err:.2e}", err


def check_hermitian_psd(tol: Tolerances) -> tuple:
    _, _, gens = _random_setup(seed=102, m=4, n=8, n_alias=6)
    m_aa = si_core.cross_spectrum_matrix(gens, gens)
    herm = float(np.max(np.abs(m_aa.values - np.conj(np.swapaxes(m_aa.values, 1, 2)))))
    eigs = np.linalg.eigvalsh((m_aa.values + np.conj(np.swapaxes(m_aa.values, 1, 2))) / 2)
    min_eig = float(np.min(eigs))
    ok = herm <= tol.hermitian_tol and min_eig >= -tol.hermitian_tol
    return ok, f"hermitian dev {herm:.2e}, min eigenvalue {min_eig:.2e}", min_eig


def check_round_trip(tol: Tolerances) -> tuple:
    worst = 0.0
    for seed in (103, 104, 105):
        rng, grid, gens = _random_setup(seed=seed, m=3, n=16)
        m_aa = si_core.cross_spectrum_matrix(gens, gens)
        d = sparse_model.synthesize(
            sparse_model.SparsityProfile(3, 3, frozenset({0, 1, 2})), grid.n, rng)
        c = si_core.filterbank_sample(d, m_aa)
        back = si_core.reconstruct_subspace(c, m_aa, tol=tol)
        err = float(np.max(np.abs(back.sequences - d.sequences))
                    / np.max(np.abs(d.sequences)))
        worst = max(worst, err)
    return worst <= tol.round_trip_tol, f"sample->reconstruct rel err {worst:.2e}", worst


def check_scalar_reduction(tol: Tolerances) -> tuple:
    rng, grid, gens = _random_setup(seed=106, m=1, n=16, n_alias=3)
    phi = si_core.cross_spectrum(gens, gens)
    m_aa = si_core.cross_spectrum_matrix(gens, gens)
    d = sparse_model.synthesize(sparse_model.SparsityProfile(1, 1, frozenset({0})),
                                grid.n, rng)
    c = si_core.filterbank_sample(d, m_aa)
    via_filter = np.fft.ifft(np.fft.fft(c[0]) / phi)  # single-channel inverse filter
    via_solve = si_core.reconstruct_subspace(c, m_aa, tol=tol).sequences[0]
    err = float(np.max(np.abs(via_filter - via_solve)) / np.max(np.abs(via_solve)))
    return err <= tol.round_trip_tol, f"1/phi filter vs solver rel err {err:.2e}", err


# ---------------------------------------------------------------------------
# sparse_model
# ---------------------------------------------------------------------------

def check_support_honesty(tol: Tolerances) -> tuple:
    profile = sparse_model.SparsityProfile(6, 2, frozenset({1, 4}))
    bank = sparse_model.synthesize(profile, 16, seed=7)
    off = sorted(set(range(6)) - profile.support)
    off_energy = float(np.sum(np.abs(bank.sequences[off]) ** 2))
    ok = off_energy == 0.0 and bank.support == profile.support
    return ok, f"off-support energy {off_energy}", off_energy


def check_spectrum_linearity(tol: Tolerances) -> tuple:
    rng, grid, gens = _random_setup(seed=107, m=3, n=8)
    profile = sparse_model.SparsityProfile(3, 3, frozenset({0, 1, 2}))
    d1 = sparse_model.synthesize(profile, grid.n, rng)
    d2 = sparse_model.synthesize(profile, grid.n, rng)
    alpha = 0.7 - 0.3j
    mix = si_core.CoefficientBank.from_sequences(d1.sequences + alpha * d2.sequences)
    sig1 = sparse_model.SparseSISignal(profile, d1, gens)
    sig2 = sparse_model.SparseSISignal(profile, d2, gens)
    sig_mix = sparse_model.SparseSISignal(profile, mix, gens)
    worst = 0.0
    lattice = gens.lattice_frequencies()
    picks = rng.integers(0, grid.n, size=10)
    for q in picks:
        omega = float(lattice[q, 0])
        lhs = sparse_model.signal_spectrum(sig_mix, omega)
        rhs = (sparse_model.signal_spectrum(sig1, omega)
               + alpha * sparse_model.signal_spectrum(sig2, omega))
        scale = max(abs(rhs), 1e-30)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst <= 1e-12, f"max rel deviation {worst:.2e} over 10 frequencies", worst


def check_synthesize_determinism(tol: Tolerances) -> tuple:
    profile = sparse_model.SparsityProfile(5, 2, frozenset({0, 3}))
    a = sparse_model.synthesize(profile, 12, seed=42)
    b = sparse_model.synthesize(profile, 12, seed=42)
    ok = np.array_equal(a.sequences, b.sequences)
    return ok, "same seed reproduces the bank bit-for-bit"


# ---------------------------------------------------------------------------
# sampling_design
# ---------------------------------------------------------------------------

def _random_design_with_generators(seed: int):
    rng, grid, gens = _random_setup(seed=seed, m=4, n=8, n_alias=6)
    a_matrix = sampling_design.make_cs_matrix("gaussian", 2, 4, rng)
    w = sampling_design.random_invertible_w(2, grid, rng)
    design = sampling_design.make_design(a_matrix, grid, W=w)
    return rng, grid, gens, design


def check_operator_identity(tol: Tolerances) -> tuple:
    worst = 0.0
    for seed in (201, 202, 203, 204, 205):
        rng, grid, gens, design = _random_design_with_generators(seed)
        h = si_core.random_generator_set(gens.m, grid, gens.period, gens.alias_support, rng)
        v = sampling_design.biorthogonalize(h, gens, tol)
        filters = sampling_design.build_sampling_filters(design, v)
        m_sa = si_core.cross_spectrum_matrix(filters, gens)
        target = design.W.values @ design.A
        worst = max(worst, float(np.max(np.abs(m_sa.values - target))))
    return (worst <= tol.operator_identity_tol,
            f"max |M_SA - W A| = {worst:.2e} over 5 designs", worst)


def check_biorthogonality(tol: Tolerances) -> tuple:
    worst = 0.0
    for seed in (211, 212, 213):
        rng, grid, gens = _random_setup(seed=seed, m=4, n=8, n_alias=6)
        h = si_core.random_generator_set(4, grid, gens.period, gens.alias_support, rng)
        v = sampling_design.biorthogonalize(h, gens, tol)
        m_va = si_core.cross_spectrum_matrix(v, gens)
        worst = max(worst, float(np.max(np.abs(m_va.values - np.eye(4)))))
    return worst <= tol.biorth_tol, f"max |M_VA - I| = {worst:.2e}", worst


def check_biorthogonal_uniqueness(tol: Tolerances) -> tuple:
    rng, grid, gens = _random_setup(seed=214, m=3, n=8, n_alias=5)
    h = si_core.random_generator_set(3, grid, gens.period, gens.alias_support, rng)
    v1 = sampling_design.biorthogonalize(h, gens, tol)
    # recombine h by an invertible per-frequency matrix: spans the same space
    r = sampling_design.random_invertible_w(3, grid, rng)
    h2 = si_core.GeneratorSet(grid, gens.period, gens.alias_support,
                              np.einsum("qir,rqj->iqj", r.values, h.spectra))
    v2 = sampling_design.biorthogonalize(h2, gens, tol)
    dev = float(np.max(np.abs(v1.spectra - v2.spectra)))
    return (dev <= 1e-9,
            f"biorthogonal sets from equivalent families differ by {dev:.2e}", dev)


def check_dual_path(tol: Tolerances) -> tuple:
    rng = np.random.default_rng(215)
    grid = si_core.FrequencyGrid(8)
    m, p = 5, 3
    a_matrix = sampling_design.make_cs_matrix("gaussian", p, m, rng)
    w = sampling_design.random_invertible_w(p, grid, rng)
    z = sampling_design.random_diagonal_z(m, grid, rng)
    design = sampling_design.make_design(a_matrix, grid, W=w, Z=z)
    d = sparse_model.synthesize(
        sparse_model.SparsityProfile(m, m, frozenset(range(m))), grid.n, rng)
    direct = sampling_design.compressive_sample(d, design).sequences
    combined = sampling_design.combined_operator(design)
    via_bank = si_core.filterbank_sample(d, combined)
    err = float(np.max(np.abs(direct - via_bank)) / np.max(np.abs(direct)))
    return err <= tol.dual_path_tol, f"grid product vs filter bank rel err {err:.2e}", err


def check_w_invertible(tol: Tolerances) -> tuple:
    design = _random_design_with_generators(seed=216)[3]
    sampling_design.validate_design(design, tol)
    worst = float(np.max(design.W.condition_numbers()))
    return True, f"max cond(W) = {worst:.2e}", worst


def check_serialization(tol: Tolerances) -> tuple:
    rng = np.random.default_rng(217)
    grid = si_core.FrequencyGrid(6)
    a_matrix = sampling_design.make_cs_matrix("gaussian", 2, 4, rng)
    w = sampling_design.random_invertible_w(2, grid, rng)
    z = sampling_design.random_diagonal_z(4, grid, rng)
    design = sampling_design.make_design(a_matrix, grid, W=w, Z=z)
    text = sampling_design.design_to_json(design, matrix_kind="gaussian", seed=217)
    loaded, meta = sampling_design.design_from_json(text)
    ok = (np.array_equal(loaded.A, design.A)
          and np.array_equal(loaded.W.values, design.W.values)
          and np.array_equal(loaded.Z.values, design.Z.values)
          and meta["seed"] == 217)
    return ok, "bit-exact JSON round trip" if ok else "round trip altered values"


# ---------------------------------------------------------------------------
# ctf
# ---------------------------------------------------------------------------

def _planted_instance(seed: int, filtered: bool = False):
    """A trial instance of the README example config (m=6 k=2 p=4 N=16,
    Gaussian A); ``filtered`` keeps A only once sigma(A) = 4."""
    cfg = experiments.ExperimentConfig(m=6, k=2, p=4, N=16, compute_sigma=filtered)
    design, d, _, _ = experiments._sparse_instance(cfg, seed)
    return design, d.support, d, sampling_design.compressive_sample(d, design)


def check_rank_bound(tol: Tolerances) -> tuple:
    worst_ratio = 0.0
    for seed in (301, 302, 303):
        design, support, _, y = _planted_instance(seed)
        y_tilde = ctf.demodulate(y, design)
        q = ctf.compute_q(y_tilde)
        sv = np.linalg.svd(q, compute_uv=False)
        k = len(support)
        if sv.shape[0] > k and sv[0] > 0:
            worst_ratio = max(worst_ratio, float(sv[k] / sv[0]))
    return (worst_ratio <= tol.rank_rel_tol,
            f"largest beyond-k singular value ratio {worst_ratio:.2e}", worst_ratio)


def check_q_domain_equivalence(tol: Tolerances) -> tuple:
    design, support, _, y = _planted_instance(304)
    y_tilde = ctf.demodulate(y, design)
    q_time = ctf.compute_q(y_tilde)
    spectra = np.fft.fft(y_tilde.sequences, axis=1)  # the Gram of the grid spectra
    q_freq = spectra @ spectra.conj().T
    scale_err = float(np.max(np.abs(q_freq - design.grid.n * q_time))
                      / np.max(np.abs(q_freq)))
    s_time, s_freq = [
        ctf._solve(ctf.MMVProblem(design.A, ctf.frame_from_q(q, tol)[0], len(support)),
                   "exhaustive", tol)[0]
        for q in (q_time, q_freq)]
    ok = scale_err <= 1e-12 and s_time == s_freq == support
    return ok, f"Q_freq = N*Q_time rel err {scale_err:.2e}, supports match", scale_err


def check_frame_independence(tol: Tolerances) -> tuple:
    rng = np.random.default_rng(305)
    agree = True
    for seed in (306, 307, 308):
        design, support, _, y = _planted_instance(seed)
        y_tilde = ctf.demodulate(y, design)
        v, _ = ctf.frame_from_q(ctf.compute_q(y_tilde))
        g = rng.standard_normal((v.shape[1], v.shape[1])) \
            + 1j * rng.standard_normal((v.shape[1], v.shape[1]))
        s1 = ctf._solve(ctf.MMVProblem(design.A, v, len(support)), "exhaustive", tol)[0]
        s2 = ctf._solve(ctf.MMVProblem(design.A, v @ g, len(support)), "exhaustive", tol)[0]
        agree = agree and s1 == s2 == support
    return agree, "recovery's support invariant under frame change V -> V G"


def check_design_invariance(tol: Tolerances) -> tuple:
    rng = np.random.default_rng(309)
    worst = 0.0
    agree = True
    for seed in (310, 311):
        design, support, d, y = _planted_instance(seed)
        result_plain = ctf.recover(y, design, k_max=len(support))
        # same A and coefficients, different W and Z
        w = sampling_design.random_invertible_w(design.p, design.grid, rng)
        z = sampling_design.random_diagonal_z(design.m, design.grid, rng)
        design2 = sampling_design.make_design(design.A, design.grid, W=w, Z=z)
        y2 = sampling_design.compressive_sample(d, design2)
        result_wz = ctf.recover(y2, design2, k_max=len(support))
        agree = agree and result_plain.support == result_wz.support == support
        scale = float(np.max(np.abs(d.sequences)))
        worst = max(worst, float(np.max(np.abs(
            result_plain.coefficients.sequences - result_wz.coefficients.sequences))) / scale)
    ok = agree and worst <= tol.recovery_rel_tol
    return ok, f"support match and coefficient rel dev {worst:.2e}", worst


def check_end_to_end_exact(tol: Tolerances) -> tuple:
    worst = 0.0
    exact = True
    for seed in (312, 313, 314, 315):
        design, support, d, y = _planted_instance(seed, filtered=True)
        result = ctf.recover(y, design, k_max=len(support))
        exact = exact and result.support == support
        err = float(np.linalg.norm(result.coefficients.sequences - d.sequences) ** 2
                    / np.linalg.norm(d.sequences) ** 2)
        worst = max(worst, err)
    ok = exact and worst <= tol.recovery_rel_tol
    return ok, f"exact supports, worst NMSE {worst:.2e}", worst


def check_uniqueness_brute_force(tol: Tolerances) -> tuple:
    import itertools as it
    ok = True
    for seed in range(316, 336):
        design, support, _, y = _planted_instance(seed, filtered=True)
        y_tilde = ctf.demodulate(y, design)
        v, _ = ctf.frame_from_q(ctf.compute_q(y_tilde))
        k = len(support)
        fitting = []
        for size in range(0, k + 1):
            for combo in it.combinations(range(design.m), size):
                res = ctf._support_residual(design.A, v, combo)
                if res <= tol.mmv_residual_rel:
                    fitting.append(frozenset(combo))
        ok = (ok and fitting == [support]
              and ctf.recover_support(y, design, k, tol=tol) == support)
    return (ok,
            "planted support is the unique fit among all of size <= k "
            "and recovery returns it")


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _periodic_build(seed: int = 401):
    sc = scenarios.PeriodicSparsityScenario(
        m=7, k=2, s_pattern=frozenset({1, 4}), base_period=1.0,
        n_blocks=8, seed=seed, p=5)
    return scenarios.build_periodic_sparsity(sc)


def check_periodic_block_pattern(tol: Tolerances) -> tuple:
    build = _periodic_build()
    flat = scenarios.flatten_block_coefficients(build.coefficients)
    idx = np.flatnonzero(flat != 0)
    residues = set(int(i) % build.scenario.m for i in idx)
    ok = residues <= set(build.scenario.s_pattern)
    baseline = scenarios.baseline_reference_samples(build)
    ok = ok and bool(np.max(np.abs(baseline - flat)) <= 1e-10 * np.max(np.abs(flat)))
    return (ok,
            f"nonzero indexes fall in pattern {sorted(build.scenario.s_pattern)} "
            f"mod {build.scenario.m}; baseline path reproduces them")


def check_periodic_rate_accounting(tol: Tolerances) -> tuple:
    build = _periodic_build()
    sc = build.scenario
    factor = build.report["compression_factor"]
    ok = (factor == sc.p / sc.m
          and build.report["compressed_rate"] == sc.p / (sc.m * sc.base_period)
          and build.report["baseline_rate"] == 1.0 / sc.base_period)
    return ok, f"compression factor {factor} = p/m"


def check_periodic_waveform_quadrature(tol: Tolerances) -> tuple:
    worst = 0.0
    for seed in (402, 403, 404):
        sc = scenarios.PeriodicSparsityScenario(
            m=4, k=1, s_pattern=frozenset({2}), base_period=1.0,
            n_blocks=8, seed=seed, p=3)
        build = scenarios.build_periodic_sparsity(sc)
        report = scenarios.piecewise_constant_waveform_check(build)
        worst = max(worst, report["max_relative_error"])
    return (worst <= tol.quadrature_rel_tol,
            f"integration vs filter bank rel err {worst:.2e}", worst)


def check_periodic_identities(tol: Tolerances) -> tuple:
    """The two construction identities of the periodic reformulation, which
    do not depend on A: the biorthogonal set of the box generators gives
    M_VA = I, and the normalized box prefilter against the box generator has
    product spectrum 1 on the base-rate grid."""
    m, n_blocks = 7, 8
    m_va_dev = g_dev = 0.0
    for base_period in (1.0, 0.5):
        gens = scenarios.shifted_box_generators(m, base_period, si_core.FrequencyGrid(n_blocks))
        v = sampling_design.biorthogonalize(gens, gens, tol)
        m_va = si_core.cross_spectrum_matrix(v, gens)
        m_va_dev = max(m_va_dev, float(np.max(np.abs(m_va.values - np.eye(m)))))
        g = si_core.cross_spectrum(*scenarios._base_rate_box_pair(m, base_period, n_blocks))
        g_dev = max(g_dev, float(np.max(np.abs(g - 1.0))))
    return (m_va_dev <= tol.biorth_tol and g_dev <= 1e-12,
            f"max |M_VA - I| = {m_va_dev:.2e}, "
            f"max |prefilter product - 1| = {g_dev:.2e}", m_va_dev)


def _multiband_build(seed: int = 405):
    sc = scenarios.MultibandScenario(
        n_bands=1, band_width=2 * np.pi / 8, m=7, T=1.0,
        cosets=(0, 2, 3, 5), seed=seed, n_samples=32)
    return scenarios.build_multiband(sc)


def check_multiband_delay_identity(tol: Tolerances) -> tuple:
    build = _multiband_build()
    report = scenarios.delay_filter_equivalence_check(build)
    dev = report["max_deviation"]
    return (dev <= tol.delay_identity_tol,
            f"max |G_i - delay| = {dev:.2e} on {report['n_points']} frequencies", dev)


def check_multiband_fractional_delay(tol: Tolerances) -> tuple:
    rng = np.random.default_rng(406)
    y = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    worst = 0.0
    for coset, m in ((0, 4), (3, 4), (4, 4), (5, 7)):
        chain = scenarios.fractional_delay_demodulate(y, coset, m)
        direct = scenarios.fractional_delay_direct(y, coset, m)
        worst = max(worst, float(np.max(np.abs(chain - direct)) / np.max(np.abs(direct))))
    return (worst <= tol.frac_delay_rel_tol,
            f"time chain vs frequency multiply rel err {worst:.2e}", worst)


def check_multiband_end_to_end(tol: Tolerances) -> tuple:
    exact = True
    worst = 0.0
    for seed in (407, 408, 409):
        build = _multiband_build(seed)
        y = sampling_design.compressive_sample(build.coefficients, build.design)
        result = ctf.recover(y, build.design, k_max=build.report["k_max"])
        exact = exact and result.support == build.coefficients.support
        d = build.coefficients.sequences
        worst = max(worst, float(np.linalg.norm(result.coefficients.sequences - d) ** 2
                                 / np.linalg.norm(d) ** 2))
    ok = exact and worst <= tol.recovery_rel_tol
    return ok, f"slice supports exact, worst NMSE {worst:.2e}", worst


CHECKS: tuple[tuple[str, Callable[[Tolerances], tuple]], ...] = (
    ("si_core.dft_consistency", check_dft_consistency),
    ("si_core.hermitian_psd", check_hermitian_psd),
    ("si_core.round_trip", check_round_trip),
    ("si_core.scalar_reduction", check_scalar_reduction),
    ("sparse_model.support_honesty", check_support_honesty),
    ("sparse_model.linearity", check_spectrum_linearity),
    ("sparse_model.determinism", check_synthesize_determinism),
    ("sampling_design.operator_identity", check_operator_identity),
    ("sampling_design.biorthogonality", check_biorthogonality),
    ("sampling_design.biorthogonal_uniqueness", check_biorthogonal_uniqueness),
    ("sampling_design.dual_path", check_dual_path),
    ("sampling_design.W_invertible", check_w_invertible),
    ("sampling_design.serialization_round_trip", check_serialization),
    ("ctf.rank_bound", check_rank_bound),
    ("ctf.q_domain_equivalence", check_q_domain_equivalence),
    ("ctf.frame_independence", check_frame_independence),
    ("ctf.design_invariance", check_design_invariance),
    ("ctf.end_to_end_exact", check_end_to_end_exact),
    ("ctf.uniqueness_brute_force", check_uniqueness_brute_force),
    ("scenarios.periodic_block_pattern", check_periodic_block_pattern),
    ("scenarios.periodic_rate_accounting", check_periodic_rate_accounting),
    ("scenarios.periodic_waveform_quadrature", check_periodic_waveform_quadrature),
    ("scenarios.periodic_identities", check_periodic_identities),
    ("scenarios.multiband_delay_identity", check_multiband_delay_identity),
    ("scenarios.multiband_fractional_delay", check_multiband_fractional_delay),
    ("scenarios.multiband_end_to_end", check_multiband_end_to_end),
)


def run_verification(tol: Tolerances = DEFAULT_TOLERANCES) -> VerificationReport:
    """Run every check of the invariant suite, labelling each outcome with
    its ``CHECKS`` name; a check that raises ``SiSubnyqError`` fails."""
    results = []
    for name, fn in CHECKS:
        try:
            passed, detail, *metric = fn(tol)
        except SiSubnyqError as exc:
            passed, detail, metric = False, f"raised {type(exc).__name__}: {exc}", ()
        results.append(CheckResult(name, bool(passed), detail,
                                   float(metric[0]) if metric else None))
    return VerificationReport(tuple(results))
