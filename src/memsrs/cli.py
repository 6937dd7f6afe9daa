"""Command-line front end: device info, address mapping, benchmark sweeps.

Output is plain text for `info` and `map`, CSV for the bench commands
(stdout by default, a file with --out).  Device geometry comes from the
built-in reference preset unless --device-config points at a key/value
file; behavioral flags always win over both.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from functools import partial
from typing import List, Optional, Sequence

from . import bench
from .device import DeviceParams, cmu_defaults, load_config, named
from .emulator import SEEK_MODELS
from .rs import PhysAddr, RSAddr, mems_to_rs, rs_to_mems
from .spatial import CURVES


def _ratio(token: str) -> float:
    """Positive number or fraction: '8', '0.5', and '1/16' all parse."""
    num, slash, den = token.partition("/")
    try:
        value = float(num) / float(den) if slash else float(num)
    except (ValueError, ZeroDivisionError):
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{token!r} is not a positive finite number")
    return value


def _integer(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{token!r} is not an integer") from None


def _num_list(text: str, conv, option: str) -> List:
    """The comma-separated values of `option`; a token `conv` rejects
    fails naming the option, and a repeat would only make duplicate rows."""
    tokens = filter(None, map(str.strip, text.split(",")))
    with named(option):
        values = [conv(tok) for tok in tokens]
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{option} lists {value:g} twice")
    return values


def _listed(values) -> str:
    """Sweep points as a list option spells them: `bench`'s defaults."""
    return ",".join(format(value, "g") for value in values)


def _device(args: argparse.Namespace) -> DeviceParams:
    if args.device_config:
        return load_config(args.device_config)
    return cmu_defaults()


def _seeds(args: argparse.Namespace) -> tuple:
    if args.repeats < 1:
        raise ValueError(f"--repeats must be >= 1, got {args.repeats}")
    return tuple(range(args.seed, args.seed + args.repeats))


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands ---------------------------------------------------------------

def cmd_info(args: argparse.Namespace) -> int:
    p = _device(args)
    names = [field.name for field in fields(p)]
    names += [name for name, attr in vars(DeviceParams).items()
              if isinstance(attr, property)]
    for name in names:
        print(f"{name} = {getattr(p, name)}")
    # share of a full-region read spent settling between columns
    print(f"seek_fraction = "
          f"{(p.sectors_x - 1) * p.settle_time_s / p.region_read_time_s}")
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    p = _device(args)
    if args.direction == "rs-to-mems":
        if len(args.address) != 2:
            raise ValueError("rs-to-mems takes two integers: region sector")
        mapped = rs_to_mems(RSAddr(*args.address), p)
    else:
        if len(args.address) != 4:
            raise ValueError("mems-to-rs takes four integers: "
                             "region_x region_y column row")
        mapped = mems_to_rs(PhysAddr(*args.address), p)
    print(" ".join(str(part) for part in mapped))
    return 0


def _run_bench(args: argparse.Namespace, placements: Sequence[str],
               columns: Sequence[str], sweeps, **options) -> int:
    """Run the sweeps whose lists are not empty and write one CSV of all
    their rows.  Each sweep is (list option, its text, token parser, a
    function of the parsed list giving the sweep's `bench` call).  The
    device is checked first, then --repeats, then every list; with no
    seeds a sweep runs all its checks and makes no row, so every sweep
    is checked before any of them runs."""
    p = _device(args)
    seeds = _seeds(args)
    lists = [(make, _num_list(text, conv, option))
             for option, text, conv, make in sweeps]
    runs = [partial(make(values), p, seek_model=args.seek_model,
                    placements=tuple(args.placement or placements), **options)
            for make, values in lists if values]
    for run in runs:
        run(seeds=())
    rows = [row for run in runs for row in run(seeds=seeds)]
    _emit(bench.csv_text(rows, columns), args.out)
    return 0


def cmd_bench_relational(args: argparse.Namespace) -> int:
    return _run_bench(
        args, bench.RELATIONAL_PLACEMENTS, bench.RELATIONAL_FIELDS,
        [("--sizes", args.sizes, _ratio,
          lambda sizes: partial(bench.run_experiment1, sizes_mb=sizes)),
         ("--nproj", args.nproj, _integer,
          lambda nprojs: partial(bench.run_experiment2, n_projections=nprojs))],
        selectivity=args.selectivity)


def cmd_bench_spatial(args: argparse.Namespace) -> int:
    return _run_bench(
        args, bench.SPATIAL_PLACEMENTS, bench.SPATIAL_FIELDS,
        [("--query-sizes", args.query_sizes, _ratio,
          lambda pcts: partial(bench.run_experiment3,
                               query_fracs=[pct / 100 for pct in pcts])),
         ("--aspects", args.aspects, _ratio,
          lambda aspects: partial(bench.run_experiment4, aspects=aspects))],
        curve=args.curve)


# -- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--device-config", metavar="PATH",
                        help="key/value device geometry file "
                             "(defaults to the reference preset)")

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--placement", action="append", metavar="NAME",
                     help="restrict to one placement (repeatable)")
    run.add_argument("--seek-model", choices=SEEK_MODELS,
                     default="average")
    run.add_argument("--seed", type=int, default=0, metavar="N",
                     help="first seed (default 0)")
    run.add_argument("--repeats", type=int, default=20, metavar="N",
                     help="seeds per sweep point (default 20)")
    run.add_argument("--out", metavar="PATH",
                     help="CSV file (default: stdout)")

    parser = argparse.ArgumentParser(
        prog="memsrs",
        description="Probe-tip storage emulator and placement benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", parents=[common],
                          help="print device, derived, and averaged-model "
                               "parameters")
    info.set_defaults(handler=cmd_info)

    map_p = sub.add_parser("map", parents=[common],
                           help="convert one address between the logical "
                                "and physical spaces")
    map_p.add_argument("direction", choices=("rs-to-mems", "mems-to-rs"))
    map_p.add_argument("address", nargs="+", type=int)
    map_p.set_defaults(handler=cmd_map)

    bench_p = sub.add_parser("bench", help="run retrieval-time sweeps")
    bsub = bench_p.add_subparsers(dest="bench_command", required=True)

    rel = bsub.add_parser("relational", parents=[common, run],
                          help="data-size and projection-width sweeps")
    rel.add_argument("--sizes", default=_listed(bench.SIZES_MB), metavar="LIST",
                     help="data-size sweep in MB (empty string skips it)")
    rel.add_argument("--nproj", default=_listed(bench.N_PROJECTIONS),
                     metavar="LIST",
                     help="projection-width sweep (empty string skips it)")
    rel.add_argument("--selectivity", type=float, default=0.1, metavar="F")
    rel.set_defaults(handler=cmd_bench_relational)

    spa = bsub.add_parser("spatial", parents=[common, run],
                          help="query-size and query-aspect sweeps")
    spa.add_argument("--query-sizes", metavar="LIST",
                     default=_listed(100 * frac for frac in bench.QUERY_FRACS),
                     help="query sizes as percent of the space "
                          "(empty string skips the size sweep)")
    spa.add_argument("--aspects", default=_listed(bench.ASPECTS), metavar="LIST",
                     help="query aspect sweep; fractions like 1/16 are fine "
                          "(empty string skips it)")
    spa.add_argument("--curve", choices=CURVES,
                     default="hilbert")
    spa.set_defaults(handler=cmd_bench_spatial)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
