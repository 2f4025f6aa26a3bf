"""Seeded Monte Carlo experiment engine behind the CLI.

A run draws per-trial instances (design + planted sparse signal), pushes
them through sampling and recovery, and writes one CSV row per trial plus a
JSON summary. Everything is deterministic given the master seed: trial seeds
derive from it via ``numpy.random.SeedSequence(master, spawn_key=(trial,))``
and are recorded in each row, so any single trial can be reproduced in
isolation.

Determinism note: all output bytes are reproducible for a fixed seed,
platform and BLAS thread count except the measured ``wall_time_s`` column
(and the ``timing`` block of the summary), which report real elapsed time.
The norms in ``_nmse`` go through the BLAS, whose threads split a large
bank's sum, so its last digits can follow the thread count.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import ctf, scenarios
from .errors import ConfigError
from .sampling_design import (
    KRUSKAL_MAX_COLUMNS,
    MATRIX_KINDS,
    compressive_sample,
    kruskal_rank,
    make_cs_matrix,
    make_design,
)
from .si_core import TWO_PI, FrequencyGrid
from .sparse_model import SparsityProfile, _choose, synthesize
from .tolerances import DEFAULT_TOLERANCES, Tolerances

MODES = ("generic", "periodic_sparsity", "multiband", "verify")
CSV_HEADER = "trial,seed,support_true,support_found,exact,nmse,rank_q,sigma_a,wall_time_s"
SWEEP_HEADER = "value,success_rate,median_nmse,trials"
SWEEP_VARS = ("p", "k", "N")
_SIGMA_AUTO_MAX_M = 16
_MAX_DRAWS = 64


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "generic"
    m: int = 6
    k: int = 2
    p: int = 4
    N: int = 16
    seed: int = 0
    trials: int = 1
    matrix_kind: str = "gaussian"
    solver: str = "exhaustive"
    tolerances: Tolerances = DEFAULT_TOLERANCES
    out_dir: str | None = None
    compute_sigma: bool | None = None
    # periodic_sparsity mode
    base_period: float = 1.0
    s_pattern: tuple[int, ...] | None = None
    # multiband mode
    n_bands: int = 1
    band_width: float | None = None
    T: float = 1.0
    cosets: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.p <= self.m:
            raise ConfigError(f"p={self.p} must satisfy 1 <= p <= m={self.m}")
        if not 0 <= self.k <= self.m:
            raise ConfigError(f"k={self.k} must satisfy 0 <= k <= m={self.m}")
        if self.N < 1:
            raise ConfigError(f"N={self.N} must be >= 1")
        if self.matrix_kind not in MATRIX_KINDS:
            raise ConfigError(
                f"matrix_kind must be one of {MATRIX_KINDS}, got {self.matrix_kind!r}")
        if self.solver not in ctf.SOLVERS:
            raise ConfigError(f"solver must be one of {ctf.SOLVERS}, got {self.solver!r}")
        if self.compute_sigma and self.m > KRUSKAL_MAX_COLUMNS:
            raise ConfigError(f"compute_sigma needs m <= {KRUSKAL_MAX_COLUMNS}, got m={self.m}")
        for name in ("base_period", "T", "band_width"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        if self.s_pattern is not None:
            pattern = tuple(sorted(int(i) for i in self.s_pattern))
            repeated = next((i for i, j in zip(pattern, pattern[1:]) if i == j), None)
            if repeated is not None:
                raise ConfigError(f"s_pattern entry {repeated} is given more than once")
            if len(pattern) != self.k:
                raise ConfigError(
                    f"s_pattern has {len(pattern)} entries but k={self.k}")
            if pattern and not 0 <= pattern[0] <= pattern[-1] < self.m:
                raise ConfigError(f"s_pattern {list(pattern)} out of range 0..{self.m - 1}")
            object.__setattr__(self, "s_pattern", pattern)
        if self.cosets is not None:
            cosets = tuple(int(c) for c in self.cosets)
            if len(cosets) != self.p:
                raise ConfigError(f"cosets has {len(cosets)} entries but p={self.p}")
            if any(not 0 <= c <= self.m for c in cosets):
                raise ConfigError(f"cosets {cosets} must lie in 0..m={self.m}")
            if len({c % self.m for c in cosets}) != len(cosets):
                raise ConfigError(f"cosets {cosets} must be distinct mod m={self.m}")
            object.__setattr__(self, "cosets", cosets)
        if (self.band_width is not None
                and self.m * self.band_width * self.T > TWO_PI * (1 + 1e-12)):
            raise ConfigError(
                f"band_width={self.band_width:.6g} too wide for m={self.m} slices: need "
                f"m <= 2*pi/(band_width*T) = {TWO_PI / (self.band_width * self.T):.3f} "
                f"so each band spans <= 2 slices")
        if self.mode == "multiband" and not 1 <= self.n_bands <= self.m // 2:
            # k_max = 2*n_bands slices must fit among the m
            raise ConfigError(
                f"n_bands={self.n_bands} must satisfy 1 <= n_bands and 2*n_bands <= m={self.m}")


_CONFIG_FIELDS = {
    "mode": str, "m": int, "k": int, "p": int, "N": int, "seed": int,
    "trials": int, "matrix_kind": str, "solver": str, "out_dir": str,
    "compute_sigma": bool, "base_period": float, "s_pattern": list,
    "n_bands": int, "band_width": float, "T": float, "cosets": list,
    "tolerances": dict,
}

# The modes that read a mode-specific field; any other mode refuses it.
_FIELD_MODES = {
    "s_pattern": ("periodic_sparsity",), "base_period": ("periodic_sparsity",),
    "n_bands": ("multiband",), "band_width": ("multiband",), "T": ("multiband",),
    "cosets": ("multiband",), "matrix_kind": ("generic", "periodic_sparsity", "verify"),
}


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true, false or null",
               str: "a string", list: "a list of integers"}


def _has_type(value, expected: type) -> bool:
    """Whether a value ``json.load`` produced has the field type ``expected``.
    A bool is not an integer; an integer is a float."""
    if expected is float:
        return type(value) in (int, float)
    if expected is list:
        return type(value) is list and all(type(v) is int for v in value)
    return type(value) is expected


def config_from_json(doc: dict) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig; every
    complaint names the offending field. Values are type-checked, never
    coerced: ``"m": 6.7`` or ``"compute_sigma": "no"`` is an error."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    kwargs = {}
    for key, value in doc.items():
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"unknown config field {key!r}")
        if key == "tolerances":
            if not isinstance(value, dict):
                raise ConfigError("field 'tolerances' must be an object")
            for name, entry in value.items():
                if not (_has_type(entry, float) and 0 < entry < math.inf):
                    raise ConfigError(
                        f"tolerance {name!r} must be a finite positive number, got {entry!r}")
            try:
                kwargs["tolerances"] = DEFAULT_TOLERANCES.with_overrides(
                    **{name: float(entry) for name, entry in value.items()})
            except TypeError as exc:
                raise ConfigError(f"field 'tolerances' has an unknown entry: {exc}") from exc
            continue
        expected = _CONFIG_FIELDS[key]
        if value is None and key in ("out_dir", "compute_sigma", "s_pattern",
                                     "band_width", "cosets"):
            kwargs[key] = None
        elif not _has_type(value, expected):
            raise ConfigError(f"field {key!r} must be {_TYPE_NAMES[expected]}, got {value!r}")
        elif expected is list:
            kwargs[key] = tuple(value)
        else:
            kwargs[key] = float(value) if expected is float else value
    mode = kwargs.get("mode", ExperimentConfig.mode)
    for key in kwargs:
        if mode in MODES and mode not in _FIELD_MODES.get(key, MODES):
            raise ConfigError(f"field {key!r} is not read in mode {mode!r}")
    return ExperimentConfig(**kwargs)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_json(doc)


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    support_true: tuple[int, ...]
    support_found: tuple[int, ...]
    exact: bool
    nmse: float
    rank_q: int
    sigma_a: int | None
    wall_time_s: float
    collision: bool = False


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Documented derivation: SeedSequence(master, spawn_key=(trial,))."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(trial_index,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _nmse(d_true: np.ndarray, d_hat: np.ndarray, tol: Tolerances) -> float:
    energy = float(np.linalg.norm(d_true) ** 2)
    if energy == 0.0:
        return 0.0 if float(np.linalg.norm(d_hat)) <= tol.zero_energy_tol else math.inf
    return float(np.linalg.norm(d_hat - d_true) ** 2) / energy


def _sigma(cfg: ExperimentConfig, a_matrix: np.ndarray) -> int | None:
    """The Kruskal rank of A, or None where it is not computed: as
    ``compute_sigma`` says when it is set, otherwise only for
    m <= _SIGMA_AUTO_MAX_M (the exhaustive rank scan grows as C(m, q))."""
    compute = cfg.compute_sigma
    if compute is None:
        compute = cfg.m <= _SIGMA_AUTO_MAX_M
    return kruskal_rank(a_matrix, tol=cfg.tolerances) if compute else None


def _draw_a(cfg: ExperimentConfig, rng_for) -> tuple[np.ndarray, int | None, np.random.Generator]:
    """Draw A until its Kruskal rank reaches min(2k, p, m); attempt i draws
    from ``rng_for(i)``.

    Returns (A, sigma, the generator that drew A). When sigma is not computed
    the first draw is taken; when all _MAX_DRAWS draws fall short the last one
    is kept and its sigma reported, so the trial still runs.
    """
    target = min(2 * cfg.k, cfg.p, cfg.m)
    for attempt in range(_MAX_DRAWS):
        rng = rng_for(attempt)
        a_matrix = make_cs_matrix(cfg.matrix_kind, cfg.p, cfg.m, rng)
        sigma = _sigma(cfg, a_matrix)
        if sigma is None or sigma >= target:
            break
    return a_matrix, sigma, rng


# One instance per mode: (design, planted coefficient bank, k_max, sigma).

def _sparse_instance(cfg: ExperimentConfig, seed: int):
    """A generic or periodic_sparsity instance: A kept once sigma(A) reaches
    min(2k, p, m), W = I, and k planted channels. A generic trial draws the
    attempts, then the support, from one generator. A periodic trial draws
    attempt i from ``trial_seed(seed, i)``, and its pattern, unless
    ``s_pattern`` fixes it, from ``default_rng(seed)``. The generator that drew
    the kept A draws the coefficients."""
    if cfg.mode == "periodic_sparsity":
        a_matrix, sigma, rng = _draw_a(
            cfg, lambda attempt: np.random.default_rng(trial_seed(seed, attempt)))
        support = (cfg.s_pattern if cfg.s_pattern is not None
                   else _choose(np.random.default_rng(seed), cfg.m, cfg.k))
    else:
        shared = np.random.default_rng(seed)
        a_matrix, sigma, rng = _draw_a(cfg, lambda attempt: shared)
        support = _choose(rng, cfg.m, cfg.k)
    design = make_design(a_matrix, FrequencyGrid(cfg.N), tol=cfg.tolerances)
    profile = SparsityProfile(cfg.m, cfg.k, frozenset(support))
    return design, synthesize(profile, cfg.N, rng), cfg.k, sigma


def _multiband_instance(cfg: ExperimentConfig, seed: int):
    build = scenarios.build_multiband(cfg, seed, cfg.tolerances)
    return (build.design, build.coefficients, build.report["k_max"],
            _sigma(cfg, build.design.A))


_INSTANCES = {
    "generic": _sparse_instance,
    "periodic_sparsity": _sparse_instance,
    "multiband": _multiband_instance,
}


def _trial(cfg: ExperimentConfig, trial_index: int, seed: int) -> TrialRecord:
    """Draw the mode's instance, sample it, recover once and score."""
    started = time.perf_counter()
    tol = cfg.tolerances
    design, bank, k_max, sigma = _INSTANCES[cfg.mode](cfg, seed)
    y = compressive_sample(bank, design)
    result = ctf.recover(y, design, k_max=k_max, solver=cfg.solver, tol=tol)
    nmse = _nmse(bank.sequences, result.coefficients.sequences, tol)
    return TrialRecord(
        trial=trial_index, seed=seed,
        support_true=tuple(sorted(bank.support)),
        support_found=tuple(sorted(result.support)),
        exact=bank.support == result.support and nmse <= tol.recovery_rel_tol,
        nmse=nmse,
        rank_q=result.diagnostics["rank_q"],
        sigma_a=sigma,
        wall_time_s=time.perf_counter() - started,
        collision=(bank.support != result.support
                   and result.diagnostics["residual"] <= tol.mmv_residual_rel))


def run_trials(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Execute all trials in trial-index order."""
    if cfg.mode not in _INSTANCES:
        raise ConfigError(
            f"mode {cfg.mode!r} does not run trials; use the verify command")
    return [_trial(cfg, t, trial_seed(cfg.seed, t)) for t in range(cfg.trials)]


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_support(support: tuple[int, ...]) -> str:
    return ";".join(str(i) for i in support)


def records_to_csv(records: list[TrialRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            str(r.trial),
            str(r.seed),
            _fmt_support(r.support_true),
            _fmt_support(r.support_found),
            "true" if r.exact else "false",
            _fmt_float(r.nmse),
            str(r.rank_q),
            "" if r.sigma_a is None else str(r.sigma_a),
            f"{r.wall_time_s:.6f}",
        ]))
    return "\n".join(lines) + "\n"


def summarize(cfg: ExperimentConfig, records: list[TrialRecord],
              total_time: float) -> dict:
    collisions = [
        {"trial": r.trial, "support_true": list(r.support_true),
         "support_found": list(r.support_found)}
        for r in records if r.collision
    ]
    return {
        "success_rate": float(np.mean([r.exact for r in records])),
        "median_nmse": float(np.median([r.nmse for r in records])),
        "trials": len(records),
        "collisions": collisions,
        "config": asdict(cfg),
        "timing": {"total_wall_time_s": total_time},
    }


def _write(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path) -> dict:
    """Run all trials, write trials.csv and summary.json, return the summary."""
    started = time.perf_counter()
    records = run_trials(cfg)
    summary = summarize(cfg, records, time.perf_counter() - started)
    out = Path(out_dir)
    _write(out / "trials.csv", records_to_csv(records))
    _write(out / "summary.json",
           json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def run_sweep(cfg: ExperimentConfig, var: str, values: list[int],
              out_dir: str | Path) -> list[dict]:
    """One run per value of the swept variable; writes sweep.csv plus the
    per-value run outputs in subdirectories."""
    if var not in SWEEP_VARS:
        raise ConfigError(f"sweep variable must be one of {SWEEP_VARS}, got {var!r}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    if var == "k" and cfg.mode == "multiband":
        # a multiband trial reads k_max = 2*n_bands, never k
        raise ConfigError("field 'k' is not read in mode 'multiband'")
    repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
    if repeated is not None:
        # a second run of one value would overwrite the first one's directory
        raise ConfigError(f"sweep value {repeated} is given more than once")
    # every value is checked before the first run writes anything
    configs = [replace(cfg, **{var: int(value)}) for value in values]
    out = Path(out_dir)
    rows = []
    summaries = []
    for value, sub_cfg in zip(values, configs):
        summary = run_experiment(sub_cfg, out / f"{var}_{value}")
        summaries.append(summary)
        rows.append(",".join([
            str(int(value)),
            _fmt_float(summary["success_rate"]),
            _fmt_float(summary["median_nmse"]),
            str(summary["trials"]),
        ]))
    _write(out / "sweep.csv", "\n".join([SWEEP_HEADER] + rows) + "\n")
    return summaries
