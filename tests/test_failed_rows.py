"""A trial whose recovery raises a library error (any ``SiSubnyqError`` but a
``ConfigError``) is written as a failed row and the run goes on: the row
keeps its trial, seed, planted support and sigma_a, with ``support_found``
and ``rank_q`` empty, ``exact`` false and ``nmse`` inf. ``summary.json``
counts the failures by error class under ``failures``, a key present only
when a trial failed, and the CLI exits 0 and says on stderr how many trials
failed. A config error or any other exception still ends the run."""

import json
import math

import pytest

from si_subnyq import cli, ctf, experiments
from si_subnyq.errors import ConfigError, InfeasibleError
from si_subnyq.experiments import CSV_HEADER, config_from_json, trial_seed

# N = 4 < k = 8, so the screen cannot settle, and the oracle refuses C(30, 8) > 1e6
REFUSED = {"mode": "generic", "m": 30, "k": 8, "p": 20, "N": 4, "seed": 1, "trials": 3}


def test_refused_searches_are_failed_rows_and_the_run_exits_0(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(REFUSED), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out-dir", str(out)]) == 0
    assert "3 of 3 trials failed" in capsys.readouterr().err
    lines = (out / "trials.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 4
    cfg = config_from_json(REFUSED)
    seeds = [trial_seed(1, t) for t in range(3)]
    banks = [bank for _, bank, *_ in experiments._sparse_instances(cfg, seeds)]
    for t, (line, bank) in enumerate(zip(lines[1:], banks)):
        *row, wall_time = line.split(",")
        planted = ";".join(map(str, sorted(bank.support)))
        # sigma_a is empty: m = 30 is past the automatic Kruskal scan
        assert row == [str(t), str(seeds[t]), planted, "", "false", "inf", "", ""]
        assert float(wall_time) > 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["failures"] == {"InvalidInputError": 3}
    assert summary["success_rate"] == 0.0 and summary["median_nmse"] == math.inf
    assert summary["trials"] == 3 and summary["collisions"] == []


def test_a_sweep_reports_its_failed_trials(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(REFUSED), encoding="utf-8")
    argv = ["sweep", "--config", str(config), "--var", "N", "--values", "4,5",
            "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert "6 of 6 trials failed" in capsys.readouterr().err


def _failing_on(monkeypatch, trial, error):
    """Make the ``trial``-th ``ctf.recover`` call raise ``error``."""
    recover, calls = ctf.recover, []

    def recover_or_raise(*args, **kwargs):
        calls.append(None)
        if len(calls) == trial + 1:
            raise error
        return recover(*args, **kwargs)

    monkeypatch.setattr(ctf, "recover", recover_or_raise)


def test_a_failed_row_keeps_its_draw_and_the_others_keep_their_bytes(monkeypatch):
    cfg = config_from_json(dict(mode="generic", m=6, k=2, p=4, N=16, trials=4, seed=3))
    clean = experiments.run_trials(cfg)
    assert "failures" not in experiments.summarize(cfg, clean, 0.0)
    _failing_on(monkeypatch, 1, InfeasibleError("no support fits"))
    records = experiments.run_trials(cfg)
    failed = records[1]
    assert failed.sigma_a is not None
    assert (failed.support_true, failed.sigma_a) == (clean[1].support_true, clean[1].sigma_a)
    lines = experiments.records_to_csv(records).splitlines()
    clean_lines = experiments.records_to_csv(clean).splitlines()
    support = ";".join(map(str, failed.support_true))
    assert lines[2].rsplit(",", 1)[0] == f"1,{failed.seed},{support},,false,inf,,{failed.sigma_a}"
    assert [line.rsplit(",", 1)[0] for line in lines[:2] + lines[3:]] == \
        [line.rsplit(",", 1)[0] for line in clean_lines[:2] + clean_lines[3:]]
    summary = experiments.summarize(cfg, records, 0.0)
    assert summary["failures"] == {"InfeasibleError": 1} and summary["success_rate"] == 0.75


@pytest.mark.parametrize("error", [ConfigError("bad field"), ValueError("a bug")],
                         ids=["config_error", "bug"])
def test_a_config_error_or_a_bug_still_ends_the_run(monkeypatch, error):
    cfg = config_from_json(dict(mode="generic", m=6, k=2, p=4, N=16, trials=4, seed=3))
    _failing_on(monkeypatch, 2, error)
    with pytest.raises(type(error), match=str(error)):
        experiments.run_trials(cfg)
