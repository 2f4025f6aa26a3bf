import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from si_subnyq import cli
from si_subnyq import verification
from si_subnyq.errors import ConfigError, SingularOperatorError
from si_subnyq.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    config_from_json,
    run_experiment,
    run_sweep,
    trial_seed,
)
from si_subnyq.tolerances import DEFAULT_TOLERANCES, Tolerances
from si_subnyq.verification import CHECKS, run_verification


def write_config(path, **fields):
    path.write_text(json.dumps(fields), encoding="utf-8")
    return str(path)


def strip_wall_time(csv_text):
    rows = []
    for line in csv_text.strip().splitlines():
        rows.append(",".join(line.split(",")[:-1]))
    return "\n".join(rows)


def strip_timing(summary):
    out = dict(summary)
    out.pop("timing", None)
    return out


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_unknown_field_named():
    with pytest.raises(ConfigError, match="bogus"):
        config_from_json({"mode": "generic", "bogus": 1})


def test_config_invalid_p_named():
    with pytest.raises(ConfigError, match="p="):
        config_from_json({"mode": "generic", "m": 4, "p": 5})


def test_config_invalid_solver_named():
    with pytest.raises(ConfigError, match="solver"):
        config_from_json({"solver": "magic"})


@pytest.mark.parametrize("pattern, entry", [([1, 1], 1), ([4, 1, 4], 4)])
def test_config_rejects_a_repeated_s_pattern_entry(pattern, entry):
    with pytest.raises(ConfigError, match=f"s_pattern entry {entry} is given more than once"):
        config_from_json({"mode": "periodic_sparsity", "m": 7, "k": len(pattern), "p": 6,
                          "N": 8, "s_pattern": pattern})


def test_config_tolerance_overrides():
    cfg = config_from_json({"tolerances": {"recovery_rel_tol": 1e-6}})
    assert cfg.tolerances.recovery_rel_tol == 1e-6
    assert cfg.tolerances.cond_tol == DEFAULT_TOLERANCES.cond_tol


def test_config_unknown_tolerance_rejected():
    with pytest.raises(ConfigError, match="tolerances"):
        config_from_json({"tolerances": {"nope": 1.0}})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-8, "tight",
                                   "1e-6", True, None])
def test_config_bad_tolerance_value_named(value):
    with pytest.raises(ConfigError, match="cond_tol"):
        config_from_json({"tolerances": {"cond_tol": value}})


@pytest.mark.parametrize("field, value", [
    ("compute_sigma", "no"),
    ("m", 6.7),
    ("trials", 2.9),
    ("N", True),
    ("seed", 1.9),
    ("out_dir", 5),
    ("s_pattern", [1.5, 3.2]),
    ("cosets", [0, True]),
    ("mode", 1),
    ("T", "1.0"),
    ("base_period", False),
    ("n_bands", None),
])
def test_config_wrong_type_is_named_not_coerced(field, value):
    with pytest.raises(ConfigError, match=f"'{field}' must be"):
        config_from_json({field: value})


@pytest.mark.parametrize("field, value", [
    ("m", 6.5), ("k", True), ("p", 4.0), ("N", 16.0), ("seed", "1"),
    ("trials", 1.5), ("n_bands", True),
])
def test_config_built_directly_refuses_non_integers(field, value):
    # the chunk rule and the trials read these as integers: a bool or a
    # float is refused when the config is built, naming the field
    with pytest.raises(ConfigError, match=f"^field '{field}' must be an integer, got {value!r}$"):
        ExperimentConfig(**{field: value})


def test_config_built_directly_takes_numpy_integers(tmp_path):
    # kept as Python integers, so summary.json can hold the config
    cfg = ExperimentConfig(m=np.int64(6), seed=np.uint8(3), trials=np.int32(2))
    assert (type(cfg.m), type(cfg.seed), type(cfg.trials)) == (int, int, int)
    assert run_experiment(cfg, tmp_path)["config"]["m"] == 6


def test_config_accepts_json_integers_for_float_fields():
    cfg = config_from_json({"mode": "multiband", "m": 7, "p": 4, "T": 2,
                            "band_width": None, "compute_sigma": None,
                            "tolerances": {"cond_tol": 1000000}})
    assert cfg.T == 2.0 and isinstance(cfg.T, float)
    assert cfg.tolerances.cond_tol == 1e6 and isinstance(cfg.tolerances.cond_tol, float)
    assert cfg.compute_sigma is None


# One wrongly typed field a row, the last one, in a config otherwise valid.
WRONG_TYPES = [
    dict(mode="periodic_sparsity", s_pattern=[1.5, 4.2]),
    dict(mode="periodic_sparsity", s_pattern=[True, 3]),
    dict(mode="periodic_sparsity", base_period=True),
    dict(mode="multiband", cosets=[0.5, 2, 3, 5]),
    dict(mode="multiband", T="1.0"),
    dict(mode="multiband", n_bands=None),
    dict(compute_sigma="no"),
    dict(out_dir=5),
    dict(mode=1),
    dict(m=6.5),
    dict(seed=True),
    dict(matrix_kind=None),
]


@pytest.mark.parametrize("fields", WRONG_TYPES, ids=repr)
def test_wrong_type_is_refused_alike_however_the_config_is_built(fields):
    # the JSON document, the constructor and replace() meet one rule
    field = list(fields)[-1]
    messages = []
    for build in (lambda: config_from_json(fields), lambda: ExperimentConfig(**fields),
                  lambda: replace(ExperimentConfig(), **fields)):
        with pytest.raises(ConfigError) as refused:
            build()
        messages.append(str(refused.value))
    assert messages[0].startswith(f"field {field!r} must be ")
    assert messages[0].endswith(f", got {fields[field]!r}")
    assert messages == messages[:1] * 3


@pytest.mark.parametrize("entry", ["tight", True, None, float("nan"), 0])
def test_wrong_tolerance_entry_is_refused_alike_however_the_config_is_built(entry):
    expected = f"^tolerance 'cond_tol' must be a finite positive number, got {entry!r}$"
    with pytest.raises(ConfigError, match=expected):
        config_from_json({"tolerances": {"cond_tol": entry}})
    with pytest.raises(ConfigError, match=expected):
        ExperimentConfig(tolerances=Tolerances(cond_tol=entry))
    with pytest.raises(ConfigError, match=expected):
        replace(ExperimentConfig(), tolerances=Tolerances(cond_tol=entry))


def test_tolerances_built_directly_must_be_a_tolerances_record():
    # a dict would fail only at the first trial that reads a tolerance
    with pytest.raises(ConfigError, match="^field 'tolerances' must be a Tolerances, got "):
        ExperimentConfig(tolerances={"cond_tol": 1e3})


def test_config_built_directly_stores_numpy_values_as_python_values(tmp_path):
    cfg = ExperimentConfig(mode="multiband", m=np.int64(8), p=np.int32(4), N=np.uint16(8),
                           T=np.int64(2), band_width=np.float32(0.25), n_bands=np.int8(2),
                           cosets=(np.int64(0), 1, np.uint8(3), 5), solver="somp",
                           tolerances=Tolerances(cond_tol=np.float32(1e3), psd_tol=np.int64(1)))
    assert [type(v) for v in (cfg.m, cfg.p, cfg.N, cfg.n_bands)] == [int] * 4
    assert [type(v) for v in (cfg.T, cfg.band_width, cfg.tolerances.psd_tol)] == [float] * 3
    assert cfg.cosets == (0, 1, 3, 5) and {type(c) for c in cfg.cosets} == {int}
    assert json.loads(json.dumps(asdict(cfg)))["tolerances"]["cond_tol"] == 1e3


_DEFAULT_FIELDS = dict(mode="generic", m=6, k=2, p=4, N=16, seed=0, trials=1,
                      matrix_kind="gaussian", solver="exhaustive", out_dir=None,
                      compute_sigma=None, base_period=1.0, s_pattern=None, n_bands=1,
                      band_width=None, T=1.0, cosets=None,
                      tolerances=asdict(DEFAULT_TOLERANCES))


@pytest.mark.parametrize("doc, stored", [
    (dict(mode="multiband", m=8, p=4, N=16, seed=1, trials=2, solver="somp", T=2,
          band_width=0.25, cosets=[0, 1, 3, 5], compute_sigma=None, n_bands=2,
          tolerances={"cond_tol": 1000000}),
     dict(T=2.0, cosets=[0, 1, 3, 5], tolerances={**asdict(DEFAULT_TOLERANCES), "cond_tol": 1e6})),
    (dict(mode="periodic_sparsity", m=7, k=2, p=4, N=8, seed=3, trials=2, s_pattern=[5, 1],
          base_period=2, compute_sigma=True, matrix_kind="bernoulli", out_dir="ignored"),
     dict(base_period=2.0, s_pattern=[1, 5])),
], ids=["multiband", "periodic_sparsity"])
def test_summary_holds_the_config_as_read(tmp_path, doc, stored):
    # integers given for numbers are stored as floats, lists as sorted or given
    path = write_config(tmp_path / "cfg.json", **doc)
    assert cli.main(["run", "--config", path, "--out-dir", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert (json.dumps(summary["config"], sort_keys=True)
            == json.dumps({**_DEFAULT_FIELDS, **doc, **stored}, sort_keys=True))


def test_trial_seed_derivation_is_stable():
    assert trial_seed(7, 0) == trial_seed(7, 0)
    assert trial_seed(7, 0) != trial_seed(7, 1)
    assert trial_seed(7, 3) != trial_seed(8, 3)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_zero_sparsity_run(tmp_path):
    cfg = ExperimentConfig(mode="generic", m=4, k=0, p=2, N=8, seed=1, trials=1)
    summary = run_experiment(cfg, tmp_path)
    assert summary["success_rate"] == 1.0
    assert summary["median_nmse"] == 0.0
    csv_text = (tmp_path / "trials.csv").read_text()
    assert csv_text.splitlines()[0] == CSV_HEADER


def test_generic_run_exact_recovery(tmp_path):
    cfg = ExperimentConfig(mode="generic", m=6, k=2, p=4, N=16, seed=3, trials=20)
    summary = run_experiment(cfg, tmp_path)
    assert summary["success_rate"] == 1.0
    assert summary["median_nmse"] <= 1e-9
    lines = (tmp_path / "trials.csv").read_text().strip().splitlines()
    assert len(lines) == 21
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[4] == "true"
        assert float(fields[5]) <= 1e-9
        assert fields[7] == "4"  # sigma filtered to 2k


def test_run_is_deterministic_modulo_wall_time(tmp_path):
    cfg = ExperimentConfig(mode="generic", m=6, k=2, p=4, N=8, seed=11, trials=5)
    s1 = run_experiment(cfg, tmp_path / "a")
    s2 = run_experiment(cfg, tmp_path / "b")
    csv_a = (tmp_path / "a" / "trials.csv").read_text()
    csv_b = (tmp_path / "b" / "trials.csv").read_text()
    assert strip_wall_time(csv_a) == strip_wall_time(csv_b)
    assert strip_timing(s1) == strip_timing(s2)
    sum_a = json.loads((tmp_path / "a" / "summary.json").read_text())
    sum_b = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert strip_timing(sum_a) == strip_timing(sum_b)


def test_collisions_reported_below_unique_rate(tmp_path):
    # p = 1 < 2k: every single column fits a 1-row system, so the
    # lexicographically first support wins and planted ones collide
    cfg = ExperimentConfig(mode="generic", m=4, k=1, p=1, N=8, seed=5, trials=6)
    summary = run_experiment(cfg, tmp_path)
    assert summary["success_rate"] < 1.0
    assert summary["collisions"], "expected at least one reported collision"
    for item in summary["collisions"]:
        assert item["support_true"] != item["support_found"]


def test_periodic_mode_run(tmp_path):
    cfg = ExperimentConfig(mode="periodic_sparsity", m=7, k=2, p=5, N=8,
                           seed=6, trials=5, s_pattern=(1, 4))
    summary = run_experiment(cfg, tmp_path)
    assert summary["success_rate"] == 1.0


def test_multiband_mode_run(tmp_path):
    cfg = ExperimentConfig(mode="multiband", m=7, k=2, p=4, N=32, seed=7,
                           trials=5, n_bands=1, cosets=(0, 2, 3, 5))
    summary = run_experiment(cfg, tmp_path)
    assert summary["success_rate"] == 1.0


def read_sigma_column(out_dir):
    lines = (out_dir / "trials.csv").read_text().strip().splitlines()
    column = lines[0].split(",").index("sigma_a")
    return [line.split(",")[column] for line in lines[1:]]


def test_multiband_mode_honours_compute_sigma(tmp_path):
    for compute, expected in ((False, ""), (True, "4")):
        cfg = ExperimentConfig(mode="multiband", m=7, k=2, p=4, N=32, seed=7,
                               trials=2, cosets=(0, 2, 3, 5), compute_sigma=compute)
        run_experiment(cfg, tmp_path / str(compute))
        assert read_sigma_column(tmp_path / str(compute)) == [expected, expected]


def test_generic_run_keeps_last_draw_when_sigma_stays_short(tmp_path):
    # Sixteen +-1 columns of length 4 must repeat up to sign, so sigma(A) = 1
    # on every draw, below the target min(2k, p) = 4.
    cfg = ExperimentConfig(mode="generic", m=16, k=2, p=4, N=16, seed=3,
                           trials=2, matrix_kind="bernoulli")
    summary = run_experiment(cfg, tmp_path)
    assert summary["trials"] == 2
    assert read_sigma_column(tmp_path) == ["1", "1"]


def test_somp_solver_run(tmp_path):
    cfg = ExperimentConfig(mode="generic", m=12, k=2, p=8, N=8, seed=8,
                           trials=10, solver="somp")
    summary = run_experiment(cfg, tmp_path)
    assert summary["success_rate"] >= 0.9


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_single_value_matches_run(tmp_path):
    cfg = ExperimentConfig(mode="generic", m=6, k=2, p=4, N=8, seed=13, trials=5)
    run_summary = run_experiment(cfg, tmp_path / "run")
    sweep_summaries = run_sweep(cfg, "p", [4], tmp_path / "sweep")
    assert strip_timing(sweep_summaries[0]) == strip_timing(run_summary)
    sweep_csv = (tmp_path / "sweep" / "sweep.csv").read_text().strip().splitlines()
    assert sweep_csv[0] == "value,success_rate,median_nmse,trials"
    assert sweep_csv[1].startswith("4,1,")


def test_sweep_p_above_unique_rate_always_succeeds(tmp_path):
    cfg = ExperimentConfig(mode="generic", m=6, k=2, p=4, N=8, seed=14, trials=8)
    summaries = run_sweep(cfg, "p", [4, 5, 6], tmp_path)
    for summary in summaries:
        assert summary["success_rate"] == 1.0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 4


def test_sweep_refuses_a_non_integer_value_before_any_run(tmp_path):
    with pytest.raises(ConfigError, match=r"^field 'p' must be an integer, got 4\.7$"):
        run_sweep(ExperimentConfig(trials=2), "p", [4.7, 5.2], tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_sweep_judges_each_value_s_type_before_looking_for_repeats(tmp_path):
    # 4.0 == 4, but 4.0 is no integer: the type message, not the repeat one
    with pytest.raises(ConfigError, match=r"^field 'p' must be an integer, got 4\.0$"):
        run_sweep(ExperimentConfig(trials=1), "p", [4, 4.0], tmp_path)
    with pytest.raises(ConfigError, match=r"^sweep value 4 is given more than once$"):
        run_sweep(ExperimentConfig(trials=1), "p", [4, np.int64(4)], tmp_path)
    assert list(tmp_path.iterdir()) == []


# A value other than the default in a field each mode never reads.
UNREAD_FIELDS = [
    ("generic", dict(s_pattern=(1, 3)), "s_pattern"),
    ("generic", dict(T=2.0), "T"),
    ("generic", dict(n_bands=2), "n_bands"),
    ("periodic_sparsity", dict(band_width=0.5), "band_width"),
    ("periodic_sparsity", dict(cosets=(0, 2, 3, 5)), "cosets"),
    ("multiband", dict(base_period=2.0), "base_period"),
    ("multiband", dict(matrix_kind="bernoulli"), "matrix_kind"),
    ("verify", dict(T=0.5), "T"),
]


@pytest.mark.parametrize("mode, fields, field", UNREAD_FIELDS)
def test_config_built_in_python_refuses_a_field_its_mode_never_reads(mode, fields, field):
    message = rf"^field '{field}' is not read in mode '{mode}'$"
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(mode=mode, m=8, k=2, p=4, **fields)
    reading_mode = {"s_pattern": "periodic_sparsity", "base_period": "periodic_sparsity",
                    "matrix_kind": "generic"}.get(field, "multiband")
    built = ExperimentConfig(mode=reading_mode, m=8, k=2, p=4, **fields)
    with pytest.raises(ConfigError, match=message):
        replace(built, mode=mode)
    with pytest.raises(ConfigError, match=message):
        config_from_json(dict(mode=mode, m=8, k=2, p=4, **fields))


def test_multiband_config_switched_to_generic_drops_no_field_silently():
    multiband = ExperimentConfig(mode="multiband", m=8, p=4, cosets=(0, 2, 3, 5))
    with pytest.raises(ConfigError, match=r"^field 'cosets' is not read in mode 'generic'$"):
        replace(multiband, mode="generic")
    # a field left at its default is not given, so a built config takes it
    assert replace(multiband, mode="generic", cosets=None).mode == "generic"
    assert ExperimentConfig(T=1.0).T == 1.0


def test_sweep_rejects_bad_variable(tmp_path):
    cfg = ExperimentConfig()
    with pytest.raises(ConfigError, match="sweep variable"):
        run_sweep(cfg, "q", [1], tmp_path)


def test_somp_sweep_success_rate_nondecreasing(tmp_path):
    # empirical monotonicity over p; mismatches beyond the sampling-noise
    # slack would flag a solver regression
    cfg = ExperimentConfig(mode="generic", m=20, k=2, p=4, N=8, seed=21,
                           trials=200, solver="somp")
    summaries = run_sweep(cfg, "p", [4, 6, 8, 12], tmp_path)
    rates = [s["success_rate"] for s in summaries]
    print(f"somp sweep success rates over p=4,6,8,12: {rates}")
    for lo, hi in zip(rates, rates[1:]):
        assert hi >= lo - 0.05


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verification_suite_passes_and_has_enough_groups():
    report = run_verification()
    assert report.passed
    assert len(report.results) >= 12
    groups = {r.name.split(".")[0] for r in report.results}
    assert {"si_core", "sparse_model", "sampling_design", "ctf", "scenarios"} <= groups


def _only_check(monkeypatch, name, fn=None):
    """Restrict the suite to the check registered as ``name``, optionally
    replacing its function."""
    original = dict(CHECKS)[name]
    monkeypatch.setattr(verification, "CHECKS", ((name, fn or original),))


def test_tampered_w_fails_named_check(monkeypatch):
    from si_subnyq.sampling_design import MeasurementDesign
    from si_subnyq.si_core import FrequencyGrid, PeriodicMatrixFunction

    grid = FrequencyGrid(4)
    values = np.broadcast_to(np.eye(2), (4, 2, 2)).copy()
    values[2] = 0.0  # singular W at one grid point
    tampered = MeasurementDesign(A=np.ones((2, 3)),
                                 W=PeriodicMatrixFunction(grid, values), grid=grid)
    monkeypatch.setattr(verification, "_random_design_with_generators",
                        lambda seed: (None, grid, None, tampered))
    _only_check(monkeypatch, "sampling_design.W_invertible")
    (result,) = run_verification().results
    assert result.name == "sampling_design.W_invertible"
    assert not result.passed
    assert result.detail.startswith("raised SingularOperatorError:")
    assert result.metric is None


def test_check_that_raises_is_reported_under_its_registered_name(monkeypatch):
    def raising(tol):
        raise SingularOperatorError("planted failure")
    _only_check(monkeypatch, "ctf.rank_bound", raising)
    report = run_verification()
    (result,) = report.results
    assert (result.name, result.passed, result.metric) == ("ctf.rank_bound", False, None)
    assert result.detail == "raised SingularOperatorError: planted failure"
    assert not report.passed


def test_check_outcomes_are_coerced_once(monkeypatch):
    # a check returns numpy scalars; the report holds a bool and a float
    _only_check(monkeypatch, "ctf.rank_bound",
                lambda tol: (np.bool_(True), "measured", np.float32(0.5)))
    (result,) = run_verification().results
    assert result.passed is True
    assert type(result.metric) is float and result.metric == 0.5


# ---------------------------------------------------------------------------
# command-line entry
# ---------------------------------------------------------------------------

def test_cli_run(tmp_path, capsys):
    config = write_config(tmp_path / "cfg.json", mode="generic", m=6, k=2, p=4,
                          N=8, seed=3, trials=3)
    code = cli.main(["run", "--config", config, "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "trials.csv").exists()
    assert (tmp_path / "out" / "summary.json").exists()
    assert "success_rate=1.0000" in capsys.readouterr().out


def test_cli_run_exhaustive_multiband_beyond_the_oracle_guard(tmp_path):
    # C(64, 6) exceeds the oracle's guard; the screen scans only the subsets
    # near span(V), so every trial is settled without the oracle
    config = write_config(tmp_path / "cfg.json", mode="multiband", m=64, k=6, p=24,
                          N=256, n_bands=3, solver="exhaustive", trials=5, seed=3)
    assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "trials.csv").read_text().strip().splitlines()
    column = lines[0].split(",").index("exact")
    assert [line.split(",")[column] for line in lines[1:]] == ["true"] * 5


def test_cli_run_seed_override(tmp_path):
    config = write_config(tmp_path / "cfg.json", mode="generic", m=6, k=2, p=4,
                          N=8, seed=3, trials=3)
    assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path / "a"),
                     "--seed", "99"]) == 0
    assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path / "b"),
                     "--seed", "99"]) == 0
    a = json.loads((tmp_path / "a" / "summary.json").read_text())
    b = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert a["config"]["seed"] == 99
    assert strip_timing(a) == strip_timing(b)


def test_cli_sweep(tmp_path):
    config = write_config(tmp_path / "cfg.json", mode="generic", m=6, k=2, p=4,
                          N=8, seed=3, trials=3)
    code = cli.main(["sweep", "--config", config, "--var", "p",
                     "--values", "4,5,6", "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "sweep.csv").exists()
    assert (tmp_path / "out" / "p_5" / "trials.csv").exists()


def test_cli_sweep_repeated_value_exits_2(tmp_path, capsys):
    # a second p_4/ run would overwrite the first one's outputs
    config = write_config(tmp_path / "cfg.json", mode="generic", m=6, k=2, p=4,
                          N=8, seed=3, trials=3)
    code = cli.main(["sweep", "--config", config, "--var", "p",
                     "--values", "4,5,4", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "config error: sweep value 4 is given more than once" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_sweep_bad_later_value_writes_nothing(tmp_path, capsys):
    # k=7 exceeds m=6: refused before k_1/ is run and written
    config = write_config(tmp_path / "cfg.json", mode="generic", m=6, k=2, p=4,
                          N=8, seed=3, trials=3)
    code = cli.main(["sweep", "--config", config, "--var", "k",
                     "--values", "1,7", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "config error: k=7 must satisfy" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_multiband_sweep_of_k_exits_2(tmp_path, capsys):
    # a multiband trial reads k_max = 2*n_bands, never k: every run would be equal
    config = write_config(tmp_path / "cfg.json", mode="multiband", m=8, k=2, p=4,
                          N=16, seed=3, trials=2, solver="somp")
    code = cli.main(["sweep", "--config", config, "--var", "k",
                     "--values", "1,2,3", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "config error: field 'k' is not read in mode 'multiband'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # the config itself, which sets k, is valid, and so is a sweep of p
    code = cli.main(["sweep", "--config", config, "--var", "p",
                     "--values", "4,5", "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "p_5" / "trials.csv").exists()


def test_cli_multiband_bands_past_the_slices_exit_2(tmp_path, capsys):
    # k_max = 2*n_bands = 10 slices of m = 8: refused when the config is read,
    # not at trial 0
    config = write_config(tmp_path / "cfg.json", mode="multiband", m=8, p=4, N=16,
                          seed=1, trials=2, n_bands=5)
    assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: n_bands=5 must satisfy" in err and "m=8" in err
    assert not (tmp_path / "out").exists()
    for n_bands in (0, -1):
        with pytest.raises(ConfigError, match="n_bands"):
            config_from_json(dict(mode="multiband", m=8, p=4, n_bands=n_bands))
    assert config_from_json(dict(mode="multiband", m=8, p=4, n_bands=4)).n_bands == 4


def test_cli_config_error_exit_code(tmp_path, capsys):
    config = write_config(tmp_path / "cfg.json", mode="generic", m=4, p=6)
    assert cli.main(["run", "--config", config]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("fields", [
    dict(mode="periodic_sparsity", s_pattern=[1, 9]),
    dict(mode="periodic_sparsity", s_pattern=[1, 1]),
    dict(mode="multiband", cosets=[0, 2, 3, 9]),
    dict(mode="multiband", cosets=[0, 2, 3, 3]),
    dict(mode="multiband", band_width=3.0),
    dict(mode="multiband", T=0.0),
])
def test_cli_bad_scenario_fields_exit_2(tmp_path, capsys, fields):
    config = write_config(tmp_path / "cfg.json", m=7, k=2, p=4, N=8, seed=1,
                          trials=1, **fields)
    assert cli.main(["run", "--config", config]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    field = next(key for key in fields if key != "mode")
    assert field in err


@pytest.mark.parametrize("mode, field, value", [
    ("generic", "s_pattern", [1, 4]),
    ("generic", "base_period", 1.0),
    ("multiband", "s_pattern", [1, 4]),
    ("verify", "base_period", 2.0),
    ("generic", "n_bands", 1),
    ("generic", "cosets", None),
    ("periodic_sparsity", "band_width", 0.5),
    ("periodic_sparsity", "T", 1.0),
    ("verify", "cosets", [0, 2, 3, 5]),
    ("multiband", "matrix_kind", "bernoulli"),
])
def test_cli_field_the_mode_never_reads_exits_2(tmp_path, capsys, mode, field, value):
    config = write_config(tmp_path / "cfg.json", mode=mode, m=7, k=2, p=4, N=8, seed=1,
                          trials=1, **{field: value})
    assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error: field '{field}' is not read in mode '{mode}'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode, fields", [
    ("generic", dict(matrix_kind="bernoulli")),
    ("periodic_sparsity", dict(matrix_kind="bernoulli", s_pattern=[1, 4], base_period=2.0)),
    ("multiband", dict(n_bands=1, band_width=0.5, T=1.0, cosets=[0, 2, 3, 5])),
])
def test_config_accepts_the_fields_its_mode_reads(mode, fields):
    cfg = config_from_json(dict(mode=mode, m=7, k=2, p=4, **fields))
    for key, value in fields.items():
        assert getattr(cfg, key) == (tuple(value) if isinstance(value, list) else value)


def test_cli_compute_sigma_past_the_kruskal_limit_exits_2(tmp_path, capsys):
    config = write_config(tmp_path / "cfg.json", mode="generic", m=26, p=6,
                          compute_sigma=True)
    assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: compute_sigma" in err and "m=26" in err
    assert not (tmp_path / "out").exists()
    # the limit itself, and sigma left off or automatic past it, are accepted
    assert config_from_json({"m": 24, "compute_sigma": True}).m == 24
    for compute in (False, None):
        assert config_from_json({"m": 26, "compute_sigma": compute}).m == 26


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("mode, field", [("multiband", "T"), ("multiband", "band_width"),
                                         ("periodic_sparsity", "base_period")])
def test_cli_non_finite_scenario_float_exits_2(tmp_path, capsys, mode, field, value):
    config = write_config(tmp_path / "cfg.json", mode=mode, m=7, k=2, p=4, N=8, seed=1,
                          trials=1, **{field: value})
    assert cli.main(["run", "--config", config]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{field} must be finite and positive" in err


@pytest.mark.parametrize("config_seed, argv", [
    (-1, ["run"]),
    (3, ["run", "--seed", "-1"]),
    (3, ["sweep", "--var", "p", "--values", "4", "--seed", "-1"]),
], ids=["config", "run --seed", "sweep --seed"])
def test_cli_negative_seed_exits_2(tmp_path, capsys, config_seed, argv):
    config = write_config(tmp_path / "cfg.json", mode="generic", seed=config_seed, trials=1)
    code = cli.main(argv + ["--config", config, "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "seed" in err
    assert not (tmp_path / "out").exists()


def test_cli_missing_config_file(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2


def test_cli_verify(capsys):
    code = cli.main(["verify"])
    assert code == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "sampling_design.W_invertible" in out


def test_cli_verify_json(capsys):
    code = cli.main(["verify", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert len(doc["checks"]) >= 12


def test_cli_run_verify_mode(tmp_path):
    config = write_config(tmp_path / "cfg.json", mode="verify",
                          out_dir=str(tmp_path / "out"))
    code = cli.main(["run", "--config", config])
    assert code == 0
    assert (tmp_path / "out" / "verify.json").exists()


@pytest.mark.parametrize("mode", ["generic", "verify"])
def test_cli_run_output_under_a_file_exits_2(tmp_path, capsys, mode):
    # verify mode writes verify.json through the same writer as trials.csv
    (tmp_path / "blocker").write_text("a regular file\n", encoding="utf-8")
    out_dir = tmp_path / "blocker" / "out"
    config = write_config(tmp_path / "cfg.json", mode=mode, **(
        dict(m=6, k=2, p=4, N=8, seed=3, trials=1) if mode == "generic" else {}))
    assert cli.main(["run", "--config", config, "--out-dir", str(out_dir)]) == 2
    name = "verify.json" if mode == "verify" else "trials.csv"
    assert f"config error: cannot write output file {out_dir / name}" \
        in capsys.readouterr().err


def test_cli_run_verify_mode_uses_the_config_tolerances(tmp_path):
    config = write_config(tmp_path / "cfg.json", mode="verify",
                          out_dir=str(tmp_path / "out"),
                          tolerances={"dual_path_tol": 1e-40})
    assert cli.main(["run", "--config", config]) == 1
    doc = json.loads((tmp_path / "out" / "verify.json").read_text())
    failed = {c["name"] for c in doc["checks"] if not c["passed"]}
    assert "sampling_design.dual_path" in failed
