"""Measured process of one benchmark run (started by run.py; not a user entry).

    worker.py probe <root> <config>
        Import si_subnyq and parse the config, print "ready" and exit. run.py
        times this from process start to the "ready" line as setup_s.

    worker.py run <root> <workload> <seed> <seconds> <trace> <out_dir>
        Drive ``si_subnyq.cli.main(["run", ...])`` in this process, serially,
        on repetitions of the workload config, and write worker.json to
        out_dir. trace 0: reps until ``seconds`` have passed, timed from
        outside; between reps the worker times the compute part of the
        reference kernel, prints "kernel <seconds>" and waits for a line on
        stdin while run.py times its memory part. trace 1: a fixed set
        of reps, once untraced and once traced. Both first run one rep at the
        default seed, whose output digest must match digests.json; it doubles
        as warm-up.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from collections import Counter
from pathlib import Path

from reference import compute_seconds
from tracer import TRACED, Tracer
from workloads import DEFAULT_SEED, WORKLOADS, rep_seed

CSV_HEADER = ["trial", "seed", "support_true", "support_found", "exact", "nmse",
              "rank_q", "sigma_a", "wall_time_s"]
HERE = Path(__file__).resolve().parent


def import_package(root: Path):
    """Import si_subnyq from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import si_subnyq
    from si_subnyq import cli, experiments
    if Path(si_subnyq.__file__).resolve().parent.parent != src:
        raise ImportError(f"si_subnyq was imported from {si_subnyq.__file__}, not {src}")
    return cli, experiments


def output_digest(out_dir: Path) -> str:
    """sha256 of trials.csv without its wall_time_s column and of summary.json
    without its timing block: the bytes that must not change for a fixed seed."""
    lines = (out_dir / "trials.csv").read_text(encoding="utf-8").splitlines()
    stripped = "\n".join(line.rsplit(",", 1)[0] for line in lines)
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    summary.pop("timing", None)
    h = hashlib.sha256(stripped.encode())
    h.update(b"\0")
    h.update(json.dumps(summary, sort_keys=True).encode())
    return h.hexdigest()


def record_errors(cli, experiments) -> Counter:
    """Count, by class, the errors raised inside the CLI's run; the CLI itself
    reports only the message."""
    errors: Counter[str] = Counter()

    def run_experiment(cfg, out):
        try:
            return experiments.run_experiment(cfg, out)
        except Exception as exc:
            errors[type(exc).__name__] += 1
            raise
    cli.run_experiment = run_experiment
    return errors


class Runner:
    """Runs reps through the CLI and keeps the failure accounting."""

    def __init__(self, cli, errors: Counter, config_path: Path, out_dir: Path,
                 rep_trials: int):
        self.cli = cli
        self.errors = errors
        self.config_path = config_path
        self.out_dir = out_dir
        self.rep_trials = rep_trials
        self.attempted = 0
        self.failed = 0
        self.malformed = 0

    def rep(self, seed: int):
        """One ``si-subnyq run`` call. Returns (elapsed seconds, CSV rows),
        with rows None when the run failed; every trial of a failed run counts
        as failed."""
        recorded = sum(self.errors.values())
        argv = ["run", "--config", str(self.config_path),
                "--out-dir", str(self.out_dir), "--seed", str(seed)]
        sink = io.StringIO()
        rc = None
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = self.cli.main(argv)
        except Exception as exc:  # a crash must not end the benchmark
            if sum(self.errors.values()) == recorded:
                self.errors[type(exc).__name__] += 1
        elapsed = time.perf_counter() - started
        self.attempted += self.rep_trials
        if rc != 0:
            if rc is not None and sum(self.errors.values()) == recorded:
                self.errors[f"exit_{rc}"] += 1
            self.failed += self.rep_trials
            return elapsed, None
        with open(self.out_dir / "trials.csv", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [dict(zip(header, row)) for row in reader]
        if header != CSV_HEADER or len(rows) != self.rep_trials:
            self.malformed += 1
            self.failed += self.rep_trials
            return elapsed, None
        self.failed += sum(row["exact"] != "true" for row in rows)
        return elapsed, rows


def environment() -> dict:
    import numpy
    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # older numpy has no dict mode; the record is informational
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
    }


def peak_rss_mib() -> float:
    """Peak resident set size of this process. ru_maxrss also counts the
    memory of the parent this process was forked from, before its exec, so
    the kernel's own high-water mark (VmHWM) is read where Linux has it."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(runner: Runner, seed: int, seconds: float) -> dict:
    """Reps until ``seconds`` have passed. Before the first rep and after each
    one, time the reference kernel (see pause_for_kernel)."""
    rep_s, rep_trials_ms = [], []
    pause_for_kernel()
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        elapsed, rows = runner.rep(rep_seed(seed, len(rep_s)))
        pause_for_kernel()
        rep_s.append(elapsed)
        rep_trials_ms.append([] if rows is None else
                             [float(row["wall_time_s"]) * 1000.0 for row in rows])
    return {"rep_seconds": rep_s, "rep_trial_ms": rep_trials_ms}


def pause_for_kernel() -> None:
    """Time the compute part of the reference kernel here, then wait while
    run.py times its memory part."""
    print(f"kernel {compute_seconds()!r}", flush=True)
    if sys.stdin.readline() == "":
        raise EOFError("run.py closed the kernel handshake")


def trace(runner: Runner, workload, seed: int, seconds: float,
          spans_path: Path) -> dict:
    """Run a fixed set of reps twice, untraced and traced, alternating which
    goes first so that drift in the machine's speed cancels out."""
    reps = workload.trace_reps(seconds)
    cfg = workload.config
    target = min(2 * cfg["k"], cfg["p"], cfg["m"])
    tracer = Tracer()
    passes = {False: [0.0, 0, []], True: [0.0, 0, []]}  # seconds, trials, digests
    shortfall = 0
    for rep in range(reps):
        for traced in ((False, True) if rep % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                elapsed, rows = runner.rep(rep_seed(seed, rep))
            finally:
                tracer.uninstall()
            acc = passes[traced]
            acc[0] += elapsed
            if rows is not None:
                acc[1] += len(rows)
                acc[2].append(output_digest(runner.out_dir))
                if traced:
                    shortfall += sum(row["sigma_a"] != "" and int(row["sigma_a"]) < target
                                     for row in rows)
    tracer.write_spans(spans_path)
    (untraced_s, trials, untraced_digests), (traced_s, traced_trials, traced_digests) = (
        passes[False], passes[True])

    per_trial = max(traced_trials, 1)
    layers = {}
    for module, names in TRACED.items():
        for fn in names:
            name = f"{module}.{fn}"
            layers[f"{name}.self_ms"] = tracer.self_s[name] * 1000.0 / per_trial
            layers[f"{name}.calls"] = tracer.calls[name] / per_trial
    draws = tracer.calls["sampling_design.make_cs_matrix"]
    layers.update({
        "ctf.solve_mmv_exhaustive.subsets_scanned":
            tracer.counts["subsets_scanned"] / per_trial,
        "ctf.demodulate.bins": tracer.counts["demodulate_bins"] / per_trial,
        "sampling_design.make_cs_matrix.accept_ratio":
            traced_trials / draws if draws else 0.0,
        "experiments.sigma_shortfall_trials": shortfall,
        "trace_overhead_frac": 1.0 - untraced_s / traced_s if traced_s > 0 else 0.0,
    })
    return {
        "reps": reps,
        "trials": traced_trials,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "traced_matches_untraced": (untraced_digests == traced_digests
                                    and trials == traced_trials),
        "trial_ends_seen": tracer.trial,
        "spans": len(tracer.spans),
        "layers": layers,
    }


def probe(root: Path, config_path: Path) -> int:
    cli, _ = import_package(root)
    cli.load_config(config_path)
    print("ready", flush=True)
    return 0


def run(root: Path, name: str, seed: int, seconds: float, traced: bool,
        out_dir: Path) -> int:
    workload = WORKLOADS[name]
    cli, experiments = import_package(root)
    config_path = out_dir / "config.json"  # written by run.py

    expected = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    errors = record_errors(cli, experiments)
    check = Runner(cli, errors, config_path, out_dir / "digest", workload.rep_trials)
    _, rows = check.rep(DEFAULT_SEED)
    digest = output_digest(check.out_dir) if rows is not None else None

    runner = Runner(cli, errors, config_path, out_dir / "rep", workload.rep_trials)
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "digest": digest,
        "digest_expected": expected.get(name),
        "digest_ok": digest is not None and digest == expected.get(name),
        "environment": environment(),
    }
    if traced:
        result["traced"] = trace(runner, workload, seed, seconds, out_dir / "spans.csv")
    else:
        result["measured"] = measure(runner, seed, seconds)
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        errors=dict(errors),
        malformed_outputs=runner.malformed + check.malformed,
        peak_rss_mib=peak_rss_mib(),
    )
    (out_dir / "worker.json").write_text(json.dumps(result, indent=2) + "\n",
                                         encoding="utf-8")
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["probe"] and len(argv) == 3:
        return probe(Path(argv[1]), Path(argv[2]))
    if argv[:1] == ["run"] and len(argv) == 7:
        _, root, name, seed, seconds, traced, out_dir = argv
        return run(Path(root), name, int(seed), float(seconds), traced == "1",
                   Path(out_dir))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
