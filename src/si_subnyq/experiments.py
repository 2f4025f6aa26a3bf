"""Seeded Monte Carlo experiment engine behind the CLI.

An experiment draws per-trial instances (design + planted sparse signal),
pushes them through sampling and recovery, and writes one CSV row per trial
plus a JSON summary. Everything is deterministic given the master seed:
trial seeds derive from it via ``numpy.random.SeedSequence(master,
spawn_key=(trial,))`` and are recorded in each row, so any single trial can
be reproduced in isolation. Trials go in runs (``_run``) of as many as
``_BANK_BLOCK`` holds, which draw their A (multiband: build their scenarios),
build and sample together, then recover each trial alone; each generator is
read in the order a lone trial reads it.

Determinism note: all output bytes are reproducible for a fixed seed,
platform and BLAS thread count except the measured ``wall_time_s`` column
(a trial's own stages plus an equal share of each draw round it took part in
and of its run's build and sampling) and the ``timing`` block of the summary,
which report real elapsed time.
The norms in ``_nmse`` go through the BLAS, whose threads split a large
bank's sum, so its last digits can follow the thread count.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, astuple, dataclass, replace
from pathlib import Path

import numpy as np

from . import ctf, scenarios
from .errors import ConfigError
from .sampling_design import (
    KRUSKAL_MAX_COLUMNS,
    MATRIX_KINDS,
    MeasurementBank,
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
_BANK_BLOCK = 1 << 18  # bytes of complex (m, N) banks one run of trials holds


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings. The constructor judges each field's type, however
    the config is built: an integer is an int or a numpy integer, never a
    bool; a number also takes an integer; a list takes a list or tuple of
    integers; None only where it is the default. It stores Python values, so
    summary.json can hold them, then checks the ranges and scenario rules,
    and last refuses a value other than the default in a field the mode never
    reads (``_FIELD_MODES``)."""

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
        for name, expected in _CONFIG_FIELDS.items():
            value = getattr(self, name)
            if value is None and getattr(ExperimentConfig, name) is None:
                continue
            if not _has_type(value, expected):
                raise ConfigError(f"field {name!r} must be {_TYPE_NAMES[expected]}, got {value!r}")
            object.__setattr__(self, name, _STORED.get(expected, lambda v: v)(value))
        for name, entry in vars(self.tolerances).items():
            if not (_has_type(entry, float) and 0 < entry < math.inf):
                raise ConfigError(
                    f"tolerance {name!r} must be a finite positive number, got {entry!r}")
        object.__setattr__(self, "tolerances", Tolerances(*map(float, astuple(self.tolerances))))
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
            pattern = tuple(sorted(self.s_pattern))
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
            if len(self.cosets) != self.p:
                raise ConfigError(f"cosets has {len(self.cosets)} entries but p={self.p}")
            if any(not 0 <= c <= self.m for c in self.cosets):
                raise ConfigError(f"cosets {self.cosets} must lie in 0..m={self.m}")
            if len({c % self.m for c in self.cosets}) != self.p:
                raise ConfigError(f"cosets {self.cosets} must be distinct mod m={self.m}")
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
        for name, modes in _FIELD_MODES.items():
            if self.mode not in modes and getattr(self, name) != getattr(ExperimentConfig, name):
                raise ConfigError(f"field {name!r} is not read in mode {self.mode!r}")


_CONFIG_FIELDS = {
    "mode": str, "m": int, "k": int, "p": int, "N": int, "seed": int,
    "trials": int, "matrix_kind": str, "solver": str, "out_dir": str,
    "compute_sigma": bool, "base_period": float, "s_pattern": tuple,
    "n_bands": int, "band_width": float, "T": float, "cosets": tuple,
    "tolerances": Tolerances,
}

# The modes that read a mode-specific field; any other mode refuses it.
_FIELD_MODES = {
    "s_pattern": ("periodic_sparsity",), "base_period": ("periodic_sparsity",),
    "n_bands": ("multiband",), "band_width": ("multiband",), "T": ("multiband",),
    "cosets": ("multiband",), "matrix_kind": ("generic", "periodic_sparsity", "verify"),
}


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true, false or null",
               str: "a string", tuple: "a list of integers", Tolerances: "a Tolerances"}
_STORED = {int: int, float: float, tuple: lambda v: tuple(map(int, v))}


def _has_type(value, expected: type) -> bool:
    """Whether ``value`` has the field type ``expected`` (see ExperimentConfig);
    a number also takes a numpy float."""
    if expected is int:
        return isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if expected is float:
        return _has_type(value, int) or isinstance(value, (float, np.floating))
    if expected is tuple:
        return isinstance(value, (list, tuple)) and all(_has_type(v, int) for v in value)
    return type(value) is expected


def config_from_json(doc: dict) -> ExperimentConfig:
    """Map a parsed JSON document onto an ExperimentConfig, whose constructor
    judges every value. The mapper refuses only what a document alone gets
    wrong: not an object, an unknown field, a ``tolerances`` that is not an
    object or has an unknown entry, or a field the config's mode never reads,
    given even at its default."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    for key in doc:
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"unknown config field {key!r}")
    if not isinstance(doc.get("tolerances", {}), dict):
        raise ConfigError("field 'tolerances' must be an object")
    try:
        tolerances = DEFAULT_TOLERANCES.with_overrides(**doc.get("tolerances", {}))
    except TypeError as exc:
        raise ConfigError(f"field 'tolerances' has an unknown entry: {exc}") from exc
    cfg = ExperimentConfig(**{**doc, "tolerances": tolerances})
    for key in doc:
        if cfg.mode not in _FIELD_MODES.get(key, MODES):
            raise ConfigError(f"field {key!r} is not read in mode {cfg.mode!r}")
    return cfg


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


def _computes_sigma(cfg: ExperimentConfig) -> bool:
    """As ``compute_sigma`` says when it is set, otherwise only for
    m <= _SIGMA_AUTO_MAX_M (the exhaustive rank scan grows as C(m, q))."""
    return cfg.m <= _SIGMA_AUTO_MAX_M if cfg.compute_sigma is None else cfg.compute_sigma


def _draw_chunk(cfg: ExperimentConfig, seeds: list[int]) -> list[list]:
    """[A, sigma, the generator that drew A, seconds] of the generic or
    periodic trial of each seed, A kept once sigma(A) reaches min(2k, p, m).
    Round r draws attempt r of each trial still short, from default_rng(seed)
    (generic) or default_rng(trial_seed(seed, r)) (periodic), and one
    ``kruskal_rank`` call on the round's stack gives their sigmas. Without
    sigma the first draw is kept; if all _MAX_DRAWS fall short, the last. A
    trial's seconds are an equal share of each round it took part in."""
    periodic, compute = cfg.mode == "periodic_sparsity", _computes_sigma(cfg)
    target = min(2 * cfg.k, cfg.p, cfg.m)
    draws = [[None, None, None if periodic else np.random.default_rng(seed), 0.0] for seed in seeds]
    short = list(zip(seeds, draws))
    for attempt in range(_MAX_DRAWS):
        started = time.perf_counter()
        for seed, draw in short:
            if periodic:
                draw[2] = np.random.default_rng(trial_seed(seed, attempt))
            draw[0] = make_cs_matrix(cfg.matrix_kind, cfg.p, cfg.m, draw[2])
        sigmas = (kruskal_rank(np.array([draw[0] for _, draw in short]), tol=cfg.tolerances)
                  .tolist() if compute else [None] * len(short))
        share = (time.perf_counter() - started) / len(short)
        for (_, draw), sigma in zip(short, sigmas):
            draw[1], draw[3] = sigma, draw[3] + share
        short = [(seed, draw) for seed, draw in short if draw[1] is not None and draw[1] < target]
        if not short:
            break
    return draws


# The instances of a run of trials of one mode, from their seeds and
# ``_draw_chunk`` draws: (design, coefficient bank, k_max, sigma) each.

def _sparse_instances(cfg: ExperimentConfig, seeds: list[int],
                      draws: list | None = None) -> list[tuple]:
    """Generic or periodic_sparsity instances: each trial's drawn A (drawn here
    when ``draws`` is None), W = I, and k planted channels. A generic trial
    draws its support from the generator that drew A; a periodic one its
    pattern, unless ``s_pattern`` fixes it, from ``default_rng(seed)``. The
    generator that drew the kept A draws the coefficients (one call)."""
    draws = draws or _draw_chunk(cfg, seeds)
    grid, designs, profiles = FrequencyGrid(cfg.N), [], []
    for seed, (a_matrix, _, rng, _) in zip(seeds, draws):
        if cfg.mode == "periodic_sparsity":
            support = (cfg.s_pattern if cfg.s_pattern is not None
                       else _choose(np.random.default_rng(seed), cfg.m, cfg.k))
        else:
            support = _choose(rng, cfg.m, cfg.k)
        designs.append(make_design(a_matrix, grid, tol=cfg.tolerances))
        profiles.append(SparsityProfile(cfg.m, cfg.k, frozenset(support)))
    banks = synthesize(profiles, cfg.N, [rng for _, _, rng, _ in draws])
    return [(design, bank, cfg.k, sigma)
            for design, bank, (_, sigma, _, _) in zip(designs, banks, draws)]


def _multiband_instances(cfg: ExperimentConfig, seeds: list[int],
                         draws: list | None = None) -> list[tuple]:
    """The build at each trial seed; the build draws A, so there is no draw."""
    builds = [scenarios.build_multiband(cfg, seed, cfg.tolerances) for seed in seeds]
    return [(b.design, b.coefficients, b.report["k_max"],
             kruskal_rank(b.design.A, tol=cfg.tolerances) if _computes_sigma(cfg) else None)
            for b in builds]


_INSTANCES = {
    "generic": _sparse_instances,
    "periodic_sparsity": _sparse_instances,
    "multiband": _multiband_instances,
}


def _run(cfg: ExperimentConfig, first: int, seeds: list[int]) -> list[TrialRecord]:
    """Draw a generic or periodic run's A (``_draw_chunk``), build and sample
    the run together, then recover and score each trial alone, adding to its
    wall time an equal share of its draw rounds and of the build and sampling."""
    draws = None if cfg.mode == "multiband" else _draw_chunk(cfg, seeds)
    started = time.perf_counter()
    instances = _INSTANCES[cfg.mode](cfg, seeds, draws)
    designs, banks, *_ = zip(*instances)
    ys = compressive_sample(banks, designs)
    share = (time.perf_counter() - started) / len(seeds)
    return [_trial(cfg, first + i, seed, instance, y, share + (draws[i][3] if draws else 0.0))
            for i, (seed, instance, y) in enumerate(zip(seeds, instances, ys))]


def _trial(cfg: ExperimentConfig, trial_index: int, seed: int, instance: tuple,
           y: MeasurementBank, spent: float) -> TrialRecord:
    """Recover the sampled instance once and score it; the wall time adds the
    seconds ``spent`` before."""
    started = time.perf_counter()
    tol = cfg.tolerances
    design, bank, k_max, sigma = instance
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
        wall_time_s=time.perf_counter() - started + spent,
        collision=(bank.support != result.support
                   and result.diagnostics["residual"] <= tol.mmv_residual_rel))


def run_trials(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Execute all trials in trial-index order, in runs of as many trials as
    fit ``_BANK_BLOCK`` bytes of (m, N) complex banks, at least one."""
    if cfg.mode not in _INSTANCES:
        raise ConfigError(
            f"mode {cfg.mode!r} does not run trials; use the verify command")
    run = max(1, _BANK_BLOCK // (16 * cfg.m * cfg.N))
    records = []
    for lo in range(0, cfg.trials, run):
        seeds = [trial_seed(cfg.seed, t) for t in range(lo, min(lo + run, cfg.trials))]
        records += _run(cfg, lo, seeds)
    return records


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
    # every value is checked, its type first, before the first run writes anything
    configs = [replace(cfg, **{var: value}) for value in values]
    stored = [getattr(sub_cfg, var) for sub_cfg in configs]
    repeated = next((v for i, v in enumerate(stored) if v in stored[:i]), None)
    if repeated is not None:
        # a second run of one value would overwrite the first one's directory
        raise ConfigError(f"sweep value {repeated} is given more than once")
    out = Path(out_dir)
    rows = []
    summaries = []
    for value, sub_cfg in zip(values, configs):
        summary = run_experiment(sub_cfg, out / f"{var}_{value}")
        summaries.append(summary)
        rows.append(",".join([
            str(getattr(sub_cfg, var)),
            _fmt_float(summary["success_rate"]),
            _fmt_float(summary["median_nmse"]),
            str(summary["trials"]),
        ]))
    _write(out / "sweep.csv", "\n".join([SWEEP_HEADER] + rows) + "\n")
    return summaries
