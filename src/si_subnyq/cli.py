"""Command-line experiment runner.

Subcommands:
    run     --config <path> [--out-dir <path>] [--seed <u64>]
    sweep   --config <path> --var <p|k|N> --values <csv-list> [--out-dir ...]
    verify  [--json]

Exit codes: 0 success, 1 invariant/recovery-suite failure, 2 config error.
"""

from __future__ import annotations

import argparse
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
    print(f"wrote {out_dir / 'sweep.csv'} ({len(summaries)} values of {args.var})")
    return EXIT_OK


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


def main(argv: list[str] | None = None) -> int:
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
