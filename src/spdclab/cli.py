"""Command-line interface.

Subcommands::

    spdclab analytic  CONFIG -o DIR             closed-form model curves
    spdclab smear     CONFIG -o DIR [--surface] window-averaged curves
    spdclab simulate  CONFIG -o DIR             event streams (.evt)
    spdclab count     CONFIG EVT -o DIR         histograms and estimators
    spdclab compare   A.csv B.csv [-o OUT]      per-bin z-scores
    spdclab sweep     CONFIG --key K --values V1,V2,... -o DIR CMD

Exit codes: 0 success, 2 configuration error, 3 numerical guard tripped.
``SPDC_LAB_THREADS`` caps sweep parallelism (default 1, sequential); the
sweep never starts more workers than it has values or the machine has CPUs.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import runner
from .params import ConfigError, GuardError, SpdcLabError
from .scenario import _ALL_KEYS, load_scenario, parse_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdclab",
        description="statistics lab for heralded photon-pair sources",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_cmd(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="scenario file")
        p.add_argument("-o", "--outdir", required=True)
        return p

    scenario_cmd("analytic", "emit closed-form model curves")
    smear = scenario_cmd("smear", "emit window-averaged curves and plateaus")
    smear.add_argument("--surface", action="store_true",
                       help="also emit the smeared triple-rate surface")
    scenario_cmd("simulate", "generate event streams")
    count = sub.add_parser("count", help="count coincidences in an .evt file")
    count.add_argument("config")
    count.add_argument("events", help=".evt file")
    count.add_argument("-o", "--outdir", required=True)

    compare = sub.add_parser("compare", help="z-scores between two curves")
    compare.add_argument("curve_a")
    compare.add_argument("curve_b")
    compare.add_argument("-o", "--out", default=None)

    sweep = sub.add_parser("sweep", help="re-run one product over a key sweep")
    sweep.add_argument("config")
    sweep.add_argument("--key", required=True)
    sweep.add_argument("--values", required=True,
                       help="comma-separated replacement values")
    sweep.add_argument("-o", "--outdir", required=True)
    sweep.add_argument("product", choices=("analytic", "smear", "simulate"))
    return parser


def _sweep_one(args_tuple):
    text, key, value, outdir, product = args_tuple
    lines = [
        line for line in text.splitlines()
        if line.split("#", 1)[0].partition("=")[0].strip() != key
    ]
    lines.append(f"{key} = {value}")
    scenario = parse_scenario("\n".join(lines))
    dest = os.path.join(outdir, f"{key.replace('.', '_')}={value}")
    _run_product(product, scenario, dest)
    return dest


def _run_product(command: str, scenario, outdir, **options) -> dict[str, str]:
    """Run ``runner.run_<command>``; it is looked up per call, so a function
    patched into ``runner`` is the one that runs."""
    return getattr(runner, f"run_{command}")(scenario, outdir=outdir, **options)


def _thread_limit() -> int:
    raw = os.environ.get("SPDC_LAB_THREADS", "1")
    try:
        limit = int(raw)
    except ValueError:
        raise ConfigError(f"SPDC_LAB_THREADS must be an integer, got {raw!r}") from None
    if limit < 1:
        raise ConfigError(f"SPDC_LAB_THREADS must be at least 1, got {limit}")
    return limit


def _run_sweep(args) -> int:
    if args.key not in _ALL_KEYS:
        raise ConfigError(
            f"--key must be one of {', '.join(_ALL_KEYS)}, got {args.key!r}"
        )
    with open(args.config, "r", encoding="utf-8") as fh:
        text = fh.read()
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep needs at least one value")
    jobs = [(text, args.key, v, args.outdir, args.product) for v in values]
    workers = min(_thread_limit(), len(jobs), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for dest in pool.map(_sweep_one, jobs):
                print(dest)
    else:
        for job in jobs:
            print(_sweep_one(job))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "compare":
            result = runner.run_compare(args.curve_a, args.curve_b, args.out)
            print(f"max_abs_z = {result.max_abs_z:.6g}")
            return EXIT_OK
        if args.command == "sweep":
            return _run_sweep(args)
        options = {}
        if args.command == "smear":
            options["with_surface"] = args.surface
        elif args.command == "count":
            options["evt_path"] = args.events
        products = _run_product(
            args.command, load_scenario(args.config), args.outdir, **options
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GuardError as exc:
        print(f"guard tripped: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (SpdcLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for name, path in products.items():
        print(f"{name}: {path}")
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
