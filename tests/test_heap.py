"""The CLI pins glibc's mmap threshold and top pad once per process, so a
trial reuses the heap the trial before it freed; library entries leave the
host process's allocator alone."""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from si_subnyq import cli

SRC = Path(__file__).resolve().parent.parent / "src"

# The multiband_long shape: its arrays of ~1 MiB are above glibc's initial
# mmap threshold of 128 KiB.
MULTIBAND = dict(mode="multiband", m=32, k=4, p=16, N=2048, n_bands=2,
                 solver="somp", seed=7, trials=2)


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def _run_python(script: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout


@pytest.mark.skipif(not _glibc(), reason="mallopt is a glibc interface")
def test_cli_trials_reuse_the_heap_after_warm_up(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(MULTIBAND), encoding="utf-8")
    script = f"""
import contextlib, io, resource
from si_subnyq import cli

def rep(seed):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", "--config", {str(config)!r},
                         "--out-dir", {str(tmp_path / "out")!r},
                         "--seed", str(seed)]) == 0

for seed in range(3):
    rep(seed)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in range(3, 8):
    rep(seed)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / (5 * {MULTIBAND["trials"]}))
"""
    faults_per_trial = float(_run_python(script))
    assert faults_per_trial < 50


@pytest.mark.parametrize("error", [OSError, AttributeError, TypeError])
def test_cli_runs_where_mallopt_cannot_be_found(tmp_path, monkeypatch, error):
    lookups = []

    def no_libc(name):
        lookups.append(name)
        raise error("no mallopt here")

    monkeypatch.setattr(cli, "_heap_pinned", False)
    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(dict(mode="generic", m=6, k=2, p=4, N=8, seed=3,
                                      trials=2)), encoding="utf-8")
    for out in ("a", "b"):
        assert cli.main(["run", "--config", str(config),
                         "--out-dir", str(tmp_path / out)]) == 0
    assert lookups == [None]


def test_library_entries_leave_the_allocator_alone():
    # lookups are recorded from before si_subnyq is imported; the CLI's own
    # call at the end shows that the recording sees one
    script = f"""
import ctypes
lookups = []

class RecordingCDLL(ctypes.CDLL):
    def __getattr__(self, name):
        lookups.append(name)
        return super().__getattr__(name)

ctypes.CDLL = RecordingCDLL
from si_subnyq import cli, experiments
experiments.run_trials(experiments.config_from_json({MULTIBAND!r}))
print("mallopt" in lookups)
cli._pin_heap()
print("mallopt" in lookups)
"""
    assert _run_python(script).split() == ["False", "True"]
