"""Command-line entry point.

Subcommands:
  simulate   emit a synthetic peloton position trace CSV
  matrix     experiment 1: random-matrix aggregation at the sink
  routing    experiment 2: multi-round broadcast/aggregate routing
  dct-demo   lost-data demonstration (zero-filling vs column removal)
  sweep      run the configured scenario once per value of one key
  stress     compare two velocity CSVs

Exit codes: 0 success, 2 configuration error, 3 runtime numerical error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import experiments
from .config import ExperimentConfig, apply_setting, load_config
from .errors import ConfigError, CsaggError, NumericalError, TraceFormatError
from .metrics import stress
from .mobility import read_velocity_csv, simulate_race, write_trace_csv

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key=value config file")
    parser.add_argument(
        "--set",
        metavar="K=V",
        action="append",
        default=[],
        dest="overrides",
        help="override one config key (repeatable)",
    )
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--seed", type=int, metavar="N", help="random seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csagg",
        description="Compressive data aggregation experiments for peloton sensing",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("simulate", "emit a synthetic position trace CSV"),
        ("matrix", "run the random-matrix aggregation experiment"),
        ("routing", "run the multi-round routing experiment"),
        ("dct-demo", "run the lost-data DCT demonstration"),
    ]:
        _add_common(sub.add_parser(name, help=help_text))
    sweep_parser = sub.add_parser(
        "sweep", help="run the configured scenario once per value of one key"
    )
    sweep_parser.add_argument("points", metavar="KEY=V1,V2,...")
    _add_common(sweep_parser)
    cmp_parser = sub.add_parser("stress", help="compare two velocity CSVs")
    cmp_parser.add_argument("truth_csv")
    cmp_parser.add_argument("estimate_csv")
    return parser


def _resolve_config(args: argparse.Namespace, scenario: str | None = None):
    """The config from --config and --set, then the subcommand's scenario,
    --seed and --out; a sweep keeps the configured scenario."""
    overrides = list(args.overrides)
    if scenario is not None:
        overrides.append(f"scenario={scenario}")
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.out is not None:
        overrides.append(f"out={args.out}")
    return load_config(args.config, overrides)


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args, "simulate")
    path = cfg.output("trace.csv")
    trace = simulate_race(cfg.race())
    with open(path, "w", encoding="utf-8") as out:
        write_trace_csv(trace, out)
    print(f"wrote {path} ({trace.n} riders, {len(trace.times)} frames)")
    return 0


def _run_experiment(cfg: ExperimentConfig) -> None:
    """Run one matrix, routing or dct-demo config and print its summary line."""
    if cfg.scenario == "dct-demo":
        demo = experiments.run_dct_demo(cfg)
        print(
            f"wrote {demo.report_path}: zero_fill stress {demo.stress_zero_fill:.6g}, "
            f"column_removal stress {demo.stress_column_removal:.6g}"
        )
        return
    run = experiments.run_matrix if cfg.scenario == "matrix" else experiments.run_routing
    result = run(cfg)
    s = result.summary
    print(
        f"wrote {result.report_path}: mean stress {s.mean_stress:.6g}, "
        f"max {s.max_stress:.6g} at t={s.argmax_time:.0f}s, "
        f"determined fraction {s.determined_fraction:.3g}"
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    key, sep, text = args.points.partition("=")
    key = key.strip()
    if not sep or not key:
        raise ConfigError(f"sweep {args.points!r} is not KEY=V1,V2,...")
    values = [v.strip() for v in text.split(",")]
    if len(set(values)) != len(values):
        raise ConfigError(f"sweep {args.points!r} repeats a value")
    base = _resolve_config(args)
    points = []
    for value in values:
        cfg = apply_setting(base, key, value)
        cfg = replace(cfg, out_dir=os.path.join(base.out_dir, f"{key}={value}"))
        cfg.validate()
        if cfg.scenario == "simulate":
            raise ConfigError("sweep runs matrix, routing or dct-demo, not simulate")
        points.append(cfg)
    for cfg in points:
        _run_experiment(cfg)
    return 0


def _cmd_stress(args: argparse.Namespace) -> int:
    truth = read_velocity_csv(args.truth_csv)
    estimate = read_velocity_csv(args.estimate_csv)
    frames = []
    for t in sorted(truth.keys() | estimate.keys()):
        a, b = truth.get(t, {}), estimate.get(t, {})
        if a.keys() != b.keys():
            raise TraceFormatError(
                f"t={t!r}: rider ids {sorted(a.keys() - b.keys())} only in {args.truth_csv}, "
                f"{sorted(b.keys() - a.keys())} only in {args.estimate_csv}"
            )
        riders = sorted(a)
        frames.append((t, [a[r] for r in riders], [b[r] for r in riders]))
    if not frames:
        raise TraceFormatError("the two velocity CSVs hold no rows")
    values = [stress(x, x_hat) for _, x, x_hat in frames]
    print("time_s,stress")
    for (t, _, _), s in zip(frames, values):
        print(f"{t:.3f},{s:.12g}")
    print(f"# mean_stress={np.mean(values):.12g}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command in ("matrix", "routing", "dct-demo"):
            _run_experiment(_resolve_config(args, args.command))
            return 0
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_stress(args)
    except (ConfigError, TraceFormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, CsaggError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
