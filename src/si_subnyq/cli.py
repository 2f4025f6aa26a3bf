"""Command-line experiment runner.

Subcommands:
    run     --config <path> [--out-dir <path>] [--seed <u64>]
    sweep   --config <path> --var <p|k|N> --values <csv-list> [--out-dir ...]
    verify  [--json]

Exit codes: 0 success, 1 invariant/recovery-suite failure, 2 config error.
A trial whose recovery raises is a failed row, not a failed run: ``run`` and
``sweep`` still exit 0 and say on stderr how many trials failed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, SiSubnyqError
from .experiments import SWEEP_VARS, _write, load_config, run_experiment, run_sweep
from .tolerances import DEFAULT_TOLERANCES, Tolerances
from .verification import run_verification

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_CONFIG_ERROR = 2

# glibc mallopt parameters (malloc.h)
_M_TOP_PAD = -2
_M_MMAP_THRESHOLD = -3
_heap_pinned = False


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="si-subnyq",
        description="Compressive sampling experiments for sparse shift-invariant signals")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the JSON config")
    run_p.add_argument("--out-dir", default=None, help="output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override the master seed")

    sweep_p = sub.add_parser("sweep", help="sweep one variable over a list of values")
    sweep_p.add_argument("--config", required=True, help="path to the JSON config")
    sweep_p.add_argument("--var", required=True, choices=SWEEP_VARS,
                         help="variable to sweep")
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated list of integer values")
    sweep_p.add_argument("--out-dir", default=None, help="output directory")
    sweep_p.add_argument("--seed", type=int, default=None, help="override the master seed")

    verify_p = sub.add_parser("verify", help="run the invariant verification suite")
    verify_p.add_argument("--json", action="store_true", help="emit a JSON report")
    return parser


def _resolve_out_dir(cfg_out: str | None, cli_out: str | None) -> Path:
    if cli_out is not None:
        return Path(cli_out)
    if cfg_out is not None:
        return Path(cfg_out)
    return Path(".")


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if cfg.mode == "verify":
        return _cmd_verify_to(_resolve_out_dir(cfg.out_dir, args.out_dir), as_json=True,
                              tol=cfg.tolerances)
    out_dir = _resolve_out_dir(cfg.out_dir, args.out_dir)
    summary = run_experiment(cfg, out_dir)
    _report_failures([summary])
    print(f"wrote {out_dir / 'trials.csv'} and {out_dir / 'summary.json'}")
    print(f"success_rate={summary['success_rate']:.4f} "
          f"median_nmse={summary['median_nmse']:.3e} trials={summary['trials']}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    try:
        values = [int(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--values must be a comma-separated integer list: {exc}") from exc
    out_dir = _resolve_out_dir(cfg.out_dir, args.out_dir)
    summaries = run_sweep(cfg, args.var, values, out_dir)
    _report_failures(summaries)
    print(f"wrote {out_dir / 'sweep.csv'} ({len(summaries)} values of {args.var})")
    return EXIT_OK


def _report_failures(summaries: list[dict]) -> None:
    failed = sum(sum(s.get("failures", {}).values()) for s in summaries)
    if failed:
        print(f"{failed} of {sum(s['trials'] for s in summaries)} trials failed",
              file=sys.stderr)


def _cmd_verify_to(out_dir: Path | None, as_json: bool, tol: Tolerances) -> int:
    report = run_verification(tol)
    if as_json:
        text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
        print(text)
        if out_dir is not None:
            _write(out_dir / "verify.json", text + "\n")
    else:
        for line in report.lines():
            print(line)
    return EXIT_OK if report.passed else EXIT_SUITE_FAILURE


def _cmd_verify(args) -> int:
    return _cmd_verify_to(None, as_json=args.json, tol=DEFAULT_TOLERANCES)


def _pin_heap() -> None:
    """Keep freed heap in the process between trials, once per process.

    A trial allocates and frees the same arrays, up to ~1 MiB each, as the
    trial before it. By default glibc serves such an array by mmap or trims
    it off the top of the heap when it is freed, so every trial faults its
    pages in again. Arrays below 32 MiB now come from the heap, and up to
    64 MiB of free top stays mapped. Both are needed: any mallopt call
    freezes glibc's dynamic mmap threshold at its current value, which in a
    fresh process is 128 KiB. Where the C library has no mallopt (macOS,
    Windows) nothing changes. Only the CLI calls this: a library leaves its
    host process's allocator alone."""
    global _heap_pinned
    if _heap_pinned:
        return
    _heap_pinned = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # the ceiling of glibc's dynamic rule
        mallopt(_M_TOP_PAD, 64 << 20)
    except (OSError, AttributeError, TypeError):
        pass


def main(argv: list[str] | None = None) -> int:
    _pin_heap()
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "verify": _cmd_verify}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except SiSubnyqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SUITE_FAILURE


if __name__ == "__main__":
    sys.exit(main())
