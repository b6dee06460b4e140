"""Command-line front end: run, converge, sweep, count.

Any `--key=value` argument whose key is a config key overrides the config
file (which is optional for converge/sweep).  Exit codes: 0 success,
2 config error, 3 solver error, 4 unprojected scheme left the bound
(`blowup`, the expected outcome of the comparison experiment; converge,
whose study needs every run's final field, ends at the first such run).
A sweep whose run fails still runs the other sigmas and writes the rows
of those that completed, without the slope, before it exits 3 or 4.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import config as config_mod
from . import experiments
from .errors import BlowupError, SolverError
from .grid import read_snapshot
from .stepper import run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_BLOWUP = 4


def _split_overrides(argv: list[str]) -> tuple[list[str], dict[str, str]]:
    rest, overrides = [], {}
    for arg in argv:
        if arg.startswith("--") and "=" in arg:
            key, value = arg[2:].split("=", 1)
            if key in config_mod.CONFIG_KEYS:
                overrides[key] = value
                continue
        rest.append(arg)
    return rest, overrides


def _load_config(path: str | None, overrides: dict[str, str]) -> config_mod.SimulationConfig:
    text = Path(path).read_text() if path else ""
    return config_mod.parse_config(text, overrides)


def _cmd_run(args, overrides) -> int:
    cfg = _load_config(args.config, overrides)
    if not cfg.output_dir:
        cfg = replace(cfg, output_dir="nch_out")
    result = run(cfg, pgm=args.pgm)
    last = result.diagnostics[-1]
    print(
        f"{cfg.scheme}: {last.step} steps to t={last.t:g}, status={result.status}, "
        f"sup_norm={last.sup_norm:.6g}, mass_increment={last.mass_increment:.3e}"
    )
    if result.csv_path is not None:
        print(f"diagnostics: {result.csv_path}")
    for path in result.snapshot_paths:
        print(f"snapshot: {path}")
    return EXIT_BLOWUP if result.status == "blowup" else EXIT_OK


def _cmd_converge(args, overrides) -> int:
    cfg = _load_config(args.config, overrides)
    if args.amplitude is not None:
        cfg = replace(cfg, initial=replace(cfg.initial, amplitude=args.amplitude))
    tau_list = [float(t) for t in args.tau_list.split(",")]
    benchmark_tau = float(args.benchmark_tau)
    experiments.check_step_sizes(tau_list, benchmark_tau, cfg.T_final)  # before the reference run
    reference = experiments.reference_field(cfg, benchmark_tau)
    report = experiments.convergence_study(cfg, tau_list, benchmark_tau, reference)
    table = experiments.format_convergence_table(report)
    print(table, end="")
    out_dir = Path(args.out or cfg.output_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"convergence_{cfg.scheme}"
    experiments.write_convergence_csv(out_dir / f"{stem}.csv", report)
    (out_dir / f"{stem}.txt").write_text(table)
    print(f"report: {out_dir / stem}.csv")
    return EXIT_OK


def _cmd_sweep(args, overrides) -> int:
    cfg = _load_config(args.config, overrides)
    if args.seed is not None:
        cfg = replace(cfg, initial=replace(cfg.initial, seed=args.seed))
    sigma_list = [float(s) for s in args.sigma_list.split(",")]
    out_dir = Path(args.out or cfg.output_dir or ".")
    try:
        results, slope = experiments.sigma_sweep(sigma_list, cfg)
    except (SolverError, BlowupError) as exc:
        # keep the sigmas that completed; main() reports the failure
        _report_sweep(out_dir, exc.completed, None)
        raise
    _report_sweep(out_dir, results, slope)
    return EXIT_OK


def _report_sweep(out_dir: Path, results: list, slope: float | None) -> None:
    for r in results:
        print(f"sigma={r.sigma:g}: {r.count} structures at t={r.final_time:g}")
    if slope is not None:
        print(f"log-log slope: {slope:.4f}")
    out_dir.mkdir(parents=True, exist_ok=True)
    experiments.write_sweep_csv(out_dir / "sigma_sweep.csv", results, slope)
    print(f"report: {out_dir / 'sigma_sweep.csv'}")


def _cmd_count(args) -> int:
    _, u, _ = read_snapshot(args.snapshot)
    print(experiments.count_structures(u, args.threshold))
    return EXIT_OK


def finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nch",
        description="Bound-preserving exponential integrators for the "
        "nonlocal Cahn-Hilliard equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation from a config file")
    p_run.add_argument("config", help="path to a key=value config file")
    p_run.add_argument("--pgm", action="store_true", help="also export snapshots as PGM")

    p_conv = sub.add_parser("converge", help="temporal convergence study")
    p_conv.add_argument("config", nargs="?", default=None)
    p_conv.add_argument(
        "--tau-list",
        default="1e-4,5e-5,2.5e-5,1.25e-5,6.25e-6",
        help="comma-separated decreasing step sizes",
    )
    p_conv.add_argument("--benchmark-tau", default="1e-6")
    p_conv.add_argument(
        "--amplitude", type=finite, default=None, help="overrides the a of initial = sine(a)"
    )
    p_conv.add_argument("--out", default=None, help="report directory")

    p_sweep = sub.add_parser("sweep", help="structure count vs nonlocal strength")
    p_sweep.add_argument("config", nargs="?", default=None)
    p_sweep.add_argument("--sigma-list", default="10,30,70")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--out", default=None)

    p_count = sub.add_parser("count", help="count structures in a snapshot file")
    p_count.add_argument("snapshot")
    p_count.add_argument("--threshold", type=finite, default=0.0)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    rest, overrides = _split_overrides(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(rest)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "run":
            return _cmd_run(args, overrides)
        if args.command == "converge":
            return _cmd_converge(args, overrides)
        if args.command == "sweep":
            return _cmd_sweep(args, overrides)
        return _cmd_count(args)
    except BlowupError as exc:
        print(f"nch: blowup: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except SolverError as exc:
        print(f"nch: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, FileNotFoundError) as exc:
        # config errors, missing files and bad flag values (scheme, tau list, ...)
        print(f"nch: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
