"""Benchmark of the si-subnyq Monte Carlo path: ``si-subnyq run`` on four
generated workloads, timed from outside, with a separate traced run for the
per-layer numbers.

Run from the repository root:

    python3 benchmarks/run.py
        Every workload, untraced, at the default seed. Prints each end-to-end
        metric by name and unit and exits 1 when an output digest does not
        match benchmarks/digests.json, a trial fails or a workload crashes.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
        One workload. The last line of standard output is one JSON object with
        the keys correct, attempted, failed and metrics: the end_to_end metrics
        of BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.

The end-to-end times of trials (``throughput_ref_trials_per_s``,
``trial_ref_ms_p50``, ``trial_ref_ms_tail``) are at reference speed: scaled
by a reference kernel timed between reps (see reference.py), because the
speed of a shared machine drifts by more than a run can average out. The
times as measured are printed beside them and kept in the run record.
``setup_s`` and ``peak_rss_mib`` are as measured.

The program is imported from ``src/`` of this checkout and run with
SI_SUBNYQ_THREADS removed from the environment, so trials run serially as the
CLI does by default. Outputs, spans and per-run records go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from reference import memory_seconds, scales
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 170


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchmarkError(f"cannot read BENCHMARK.json: {exc}") from exc


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("SI_SUBNYQ_THREADS", None)
    return env


def probe_seconds(config_path: Path) -> float:
    """Time from starting a fresh interpreter until it has imported si_subnyq
    and parsed the config."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), "probe", str(ROOT), str(config_path)],
        stdout=subprocess.PIPE, env=worker_env(), text=True)
    watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.close()
        rc = proc.wait()
    finally:
        watchdog.cancel()
    if rc != 0 or line.strip() != "ready":
        raise BenchmarkError("set-up probe failed to import si_subnyq")
    return elapsed


def setup_seconds(config_path: Path, probes: int) -> list[float]:
    """Set-up times of ``probes`` probes after one unmeasured probe. Reported
    as measured: the reference kernel does not track process start-up and
    the loading of shared libraries that set-up consists of."""
    probe_seconds(config_path)
    return [probe_seconds(config_path) for _ in range(probes)]


def run_worker(name: str, seed: int, seconds: float, traced: bool,
               out_dir: Path) -> tuple[dict, list[tuple[float, float]]]:
    """Run the worker; each time it has timed the compute part of the
    reference kernel, time the memory part here. Returns worker.json and the
    (compute, memory) kernel times."""
    argv = [sys.executable, str(WORKER), "run", str(ROOT), name, str(seed),
            repr(seconds), "1" if traced else "0", str(out_dir)]
    memory_seconds()  # warm-up: first numpy calls in this process
    kernel_s = []
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=worker_env(), text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        with proc.stdin, proc.stdout:
            for line in proc.stdout:
                if line.startswith("kernel "):
                    kernel_s.append((float(line.split()[1]), memory_seconds()))
                    proc.stdin.write("\n")
                    proc.stdin.flush()
        rc = proc.wait()
    except BrokenPipeError:
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise BenchmarkError(f"{name}: worker exited with code {rc}")
    return json.loads((out_dir / "worker.json").read_text(encoding="utf-8")), kernel_s


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile, at most the 95th, with at least ten samples
    beyond it, and which percentile that is. Without the cap this is the
    11th-largest value; above p95 of the ~2 ms mc_small trials the values
    are scheduler stalls of a shared machine, not the program. With ten
    samples or fewer there is no such percentile; the maximum is returned
    as percentile 100."""
    n = len(values)
    if n <= 10:
        return max(values), 100.0
    rank = min(n - 11, math.ceil(0.95 * n) - 1)  # 0-based, ascending order
    return sorted(values)[rank], 100.0 * (rank + 1) / n


def trial_times(measured: dict, kernel_s: list[tuple[float, float]]) -> dict:
    """Throughput and per-trial times, as measured and at reference speed."""
    rep_s, rep_ms = measured["rep_seconds"], measured["rep_trial_ms"]
    factors = scales([compute + memory for compute, memory in kernel_s])
    raw_ms = [t for ts in rep_ms for t in ts]
    ref_ms = [t * f for ts, f in zip(rep_ms, factors) for t in ts]
    if not raw_ms:
        return {"trials": 0}
    tail_ms, tail_pct = tail(raw_ms)
    return {
        "trials": len(raw_ms),
        "reps": len(rep_s),
        "tail_percentile": tail_pct,
        "throughput_trials_per_s": len(raw_ms) / sum(rep_s),
        "trial_ms_p50": statistics.median(raw_ms),
        "trial_ms_tail": tail_ms,
        "throughput_ref_trials_per_s": len(ref_ms) / sum(
            e * f for e, f in zip(rep_s, factors)),
        "trial_ref_ms_p50": statistics.median(ref_ms),
        "trial_ref_ms_tail": tail(ref_ms)[0],
    }


def run_workload(spec: dict, name: str, seed: int, seconds: float,
                 traced: bool) -> dict:
    """Run one workload and return its result object (the last line printed)."""
    out_dir = OUT / name / f"seed{seed}_trace{int(traced)}"
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(WORKLOADS[name].cli_config(), indent=2) + "\n",
                           encoding="utf-8")
    # Half the set-up probes run before the worker and half after it, so the
    # median samples the machine at two moments of its drifting speed.
    setup_times = [] if traced else setup_seconds(config_path, SETUP_PROBES // 2)
    w, kernel_s = run_worker(name, seed, seconds, traced, out_dir)

    correct = w["digest_ok"] and w["malformed_outputs"] == 0
    if traced:
        t = w["traced"]
        correct = (correct and t["traced_matches_untraced"]
                   and t["trial_ends_seen"] == t["trials"])
        values = t["layers"]
        wanted = spec["per_layer"]
    else:
        setup_times += setup_seconds(config_path, SETUP_PROBES - SETUP_PROBES // 2)
        m = trial_times(w["measured"], kernel_s)
        w["measured"].update(m, kernel_seconds=kernel_s, setup_seconds=setup_times)
        values = {
            "throughput_ref_trials_per_s": m.get("throughput_ref_trials_per_s", 0.0),
            "trial_ref_ms_p50": m.get("trial_ref_ms_p50", 0.0),
            "trial_ref_ms_tail": m.get("trial_ref_ms_tail", 0.0),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": w["peak_rss_mib"],
        }
        correct = correct and m["trials"] > 0
        wanted = spec["end_to_end"]
    missing = [metric["name"] for metric in wanted if metric["name"] not in values]
    if missing:
        raise BenchmarkError(f"{name}: no value for metrics {missing}")
    result = {
        "correct": bool(correct),
        "attempted": w["attempted"],
        "failed": w["failed"],
        "metrics": {metric["name"]: {"value": values[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in wanted},
    }
    report(name, seed, traced, w, result)
    (out_dir / "result.json").write_text(
        json.dumps({"result": result, "worker": w}, indent=2) + "\n", encoding="utf-8")
    return result


def report(name: str, seed: int, traced: bool, w: dict, result: dict) -> None:
    mode = "traced" if traced else "untraced"
    print(f"== {name} seed={seed} {mode}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:48s} {entry['value']:.6g} {entry['unit']}")
    if traced:
        t = w["traced"]
        total = sum(v for k, v in t["layers"].items() if k.endswith(".self_ms"))
        top = sorted(((v, k) for k, v in t["layers"].items() if k.endswith(".self_ms")),
                     reverse=True)[:5]
        print(f"  traced {t['trials']} trials in {t['reps']} reps, {t['spans']} spans; "
              "largest self-time shares: "
              + ", ".join(f"{k[:-8]} {v / total:.0%}" for v, k in top if total > 0))
    else:
        m = w["measured"]
        if "tail_percentile" in m:
            print(f"  as measured: throughput_trials_per_s {m['throughput_trials_per_s']:.6g}, "
                  f"trial_ms_p50 {m['trial_ms_p50']:.6g}, trial_ms_tail "
                  f"{m['trial_ms_tail']:.6g}")
            print(f"  the tail is p{m['tail_percentile']:.2f} "
                  f"of {m['trials']} trials in {m['reps']} reps")
    rate = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"  failure_rate {rate:.6g} ({result['failed']} of {result['attempted']} "
          f"trials; errors {w['errors'] or 'none'})")
    digest = "ok" if w["digest_ok"] else f"MISMATCH got {w['digest']}"
    print(f"  output digest {digest}")
    env = w["environment"]
    print("  " + " ".join(f"{k}={v}" for k, v in env.items()))


def parse_args(argv, spec):
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    try:
        spec = load_spec()
        if not (ROOT / "src" / "si_subnyq" / "__init__.py").is_file():
            raise BenchmarkError(f"no si_subnyq sources under {ROOT / 'src'}")
        args = parse_args(argv, spec)
        if args.workload != "all":
            result = run_workload(spec, args.workload, args.seed, args.seconds,
                                  bool(args.trace))
            print(json.dumps(result))
            return 0
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    results, ok = {}, True
    for workload in spec["workloads"]:
        name = workload["name"]
        try:
            results[name] = run_workload(spec, name, args.seed, args.seconds,
                                         bool(args.trace))
        except BenchmarkError as exc:  # record the crash, go on to the next workload
            print(f"== {name} crashed: {exc}")
            results[name] = {"correct": False, "error": str(exc)}
            ok = False
            continue
        ok = ok and results[name]["correct"] and results[name]["failed"] == 0
    print(json.dumps(results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
