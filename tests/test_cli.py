"""Command-line front end tests.

Each test drives `main` directly with an argv list; the console script
is the same function behind a setuptools wrapper, and `python -m memsrs`
and `python -m memsrs.cli` call it too.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from memsrs import bench
from memsrs.cli import _integer, _num_list, _ratio, build_parser, main
from memsrs.device import DeviceParams, cmu_defaults, to_config_text
from memsrs.emulator import SEEK_MODELS
from memsrs.spatial import CURVES


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- map ---------------------------------------------------------------------

def test_map_rs_to_mems(capsys):
    code, out, _ = run_cli(["map", "rs-to-mems", "81", "28"], capsys)
    assert code == 0
    assert out.strip() == "1 2 2 27"


def test_map_mems_to_rs(capsys):
    code, out, _ = run_cli(["map", "mems-to-rs", "1", "1", "1", "1"], capsys)
    assert code == 0
    assert out.strip() == "1 1"


def test_map_round_trip_far_corner(capsys):
    code, out, _ = run_cli(["map", "rs-to-mems", "6400", "67500"], capsys)
    assert code == 0 and out.strip() == "80 80 2500 1"
    code, out, _ = run_cli(["map", "mems-to-rs", "80", "80", "2500", "1"],
                           capsys)
    assert code == 0 and out.strip() == "6400 67500"


def test_map_out_of_bounds_fails(capsys):
    code, out, err = run_cli(["map", "rs-to-mems", "6401", "1"], capsys)
    assert code != 0
    assert "bounds" in err


def test_map_wrong_arity_fails(capsys):
    code, _, err = run_cli(["map", "rs-to-mems", "1", "2", "3"], capsys)
    assert code != 0
    assert "two integers" in err
    code, _, err = run_cli(["map", "mems-to-rs", "1"], capsys)
    assert code != 0
    assert "four integers" in err


# -- info ----------------------------------------------------------------------

def _info_dict(out):
    pairs = (line.partition(" = ") for line in out.strip().splitlines())
    return {k: v for k, _, v in pairs}


def test_info_reports_derived_and_averaged_values(capsys):
    code, out, _ = run_cli(["info"], capsys)
    assert code == 0
    d = _info_dict(out)
    assert d["n_regions"] == "6400"
    assert d["n_active_tips"] == "1280"
    assert float(d["transfer_rate_rs_bits_s"]) == pytest.approx(
        cmu_defaults().transfer_rate_rs_bits_s, rel=1e-12)
    assert float(d["seek_time_rs_s"]) == pytest.approx(0.000735, rel=1e-12)
    assert float(d["seek_fraction"]) == pytest.approx(0.0801, abs=5e-4)


def test_info_lines_pinned(capsys):
    # every device field, every derived constant and the seek share, once
    code, out, _ = run_cli(["info"], capsys)
    assert code == 0
    assert sorted(out.splitlines()) == [
        "move_x_s = 0.00052",
        "move_y_s = 0.00035",
        "n_active_tips = 1280",
        "n_regions = 6400",
        "n_tips = 6400",
        "region_bits = 4320000",
        "region_read_time_s = 6.7087135714285715",
        "regions_x = 80",
        "regions_y = 80",
        "sector_bits = 64",
        "sector_time_s = 9.142857142857143e-05",
        "sectors_per_region = 67500",
        "sectors_x = 2500",
        "sectors_y = 27",
        "seek_fraction = 0.08008763442938123",
        "seek_time_rs_s = 0.000735",
        "settle_time_s = 0.000215",
        "tip_rate_bits_s = 700000.0",
        "transfer_rate_rs_bits_s = 643918.0196965664",
        "turnaround_time_s = 6e-05",
    ]


def test_info_honours_device_config(tmp_path, capsys):
    small = DeviceParams(regions_x=8, regions_y=8, sectors_x=20, sectors_y=5,
                         n_active_tips=16)
    path = tmp_path / "dev.cfg"
    path.write_text(to_config_text(small))
    code, out, _ = run_cli(["info", "--device-config", str(path)], capsys)
    assert code == 0
    d = _info_dict(out)
    assert d["regions_x"] == "8"
    assert float(d["transfer_rate_rs_bits_s"]) == pytest.approx(
        small.transfer_rate_rs_bits_s, rel=1e-12)


def test_bad_config_value_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("T_X abc\n")
    code, out, err = run_cli(["info", "--device-config", str(cfg)], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: config key T_X: bad value 'abc'\n"


def test_missing_config_fails(capsys):
    code, _, err = run_cli(["info", "--device-config", "/no/such/file"],
                           capsys)
    assert code != 0 and err


# -- bench ----------------------------------------------------------------------

def test_bench_relational_matches_library(tmp_path, capsys):
    out_path = tmp_path / "rel.csv"
    code, _, _ = run_cli(["bench", "relational", "--sizes", "5",
                          "--nproj", "4", "--repeats", "2",
                          "--out", str(out_path)], capsys)
    assert code == 0
    rows = (bench.run_experiment1(sizes_mb=[5.0], seeds=(0, 1))
            + bench.run_experiment2(n_projections=[4], seeds=(0, 1)))
    assert out_path.read_text() == bench.csv_text(rows,
                                                  bench.RELATIONAL_FIELDS)


def test_bench_spatial_stdout_matches_library(capsys):
    code, out, _ = run_cli(["bench", "spatial", "--query-sizes", "0.01",
                            "--aspects", "", "--repeats", "2",
                            "--placement", "spatial-lowerbound"], capsys)
    assert code == 0
    rows = bench.run_experiment3(query_fracs=[0.01 / 100], seeds=(0, 1),
                                 placements=("spatial-lowerbound",))
    assert out == bench.csv_text(rows, bench.SPATIAL_FIELDS)
    assert ",0.0001," in out.splitlines()[1]


def test_bench_spatial_parses_fractional_aspects(capsys):
    code, out, _ = run_cli(["bench", "spatial", "--query-sizes", "",
                            "--aspects", "1/16", "--repeats", "1",
                            "--placement", "spatial-lowerbound"], capsys)
    assert code == 0
    header, row = out.splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["aspect"] == "0.0625"
    assert (cells["qx"], cells["qy"]) == ("160", "2560")


def test_bench_placement_filter_and_seed_offset(capsys):
    code, out, _ = run_cli(["bench", "relational", "--sizes", "5",
                            "--nproj", "", "--repeats", "2", "--seed", "7",
                            "--placement", "nsm-griffin"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3  # header + one row per seed
    assert all(line.split(",")[1] == "nsm-griffin" for line in lines[1:])
    assert [line.split(",")[-1] for line in lines[1:]] == ["7", "8"]


def test_bench_unknown_placement_fails(capsys):
    code, _, err = run_cli(["bench", "relational", "--sizes", "5",
                            "--nproj", "", "--placement", "bogus"], capsys)
    assert code != 0
    assert "placement" in err


@pytest.mark.parametrize("placement", ["relational-lowerbound", "nsm-griffin",
                                       "dsm-griffin"])
def test_bench_projection_wider_than_schema_fails(placement, capsys):
    code, out, err = run_cli(["bench", "relational", "--sizes", "",
                              "--nproj", "17", "--repeats", "1",
                              "--placement", placement], capsys)
    assert code == 1
    assert out == ""
    assert err == ("error: experiment 2, data_mb=320, n_projection=17: "
                   "projection width 17 exceeds schema k=16\n")


def test_bench_relation_larger_than_the_device_fails(capsys):
    # a 100 GB relation: the lower bound needs no layout, so the point
    # itself is checked
    code, out, err = run_cli(["bench", "relational", "--sizes", "100000",
                              "--nproj", "", "--repeats", "1",
                              "--placement", "relational-lowerbound"], capsys)
    assert code == 1
    assert out == ""
    assert err == ("error: experiment 1, data_mb=100000, n_projection=8: "
                   "relation needs 13107200000 sectors, the device holds "
                   "432000000\n")


@pytest.mark.parametrize("argv, message", [
    (["relational", "--sizes", "5,5", "--nproj", ""], "--sizes lists 5 twice"),
    # checked before the size sweep runs
    (["relational", "--nproj", "1,2,1"], "--nproj lists 1 twice"),
    (["spatial", "--aspects", "1,1/2,2/4"], "--aspects lists 0.5 twice"),
    (["spatial", "--query-sizes", "0.01,1e-2"], "--query-sizes lists 0.01 twice"),
    (["spatial", "--placement", "spatial-lowerbound",
      "--placement", "spatial-lowerbound"],
     "placement 'spatial-lowerbound' listed twice"),
], ids=["sizes", "nproj", "aspects", "query-sizes", "placement"])
def test_bench_repeated_input_fails(argv, message, capsys):
    code, out, err = run_cli(["bench"] + argv + ["--repeats", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_bench_relational_checks_both_sweeps_before_either_runs(monkeypatch,
                                                               capsys):
    # the size sweep used to run in full before the width sweep's points
    # were checked
    def no_row(*args, **kwargs):
        raise AssertionError("a row was made")

    monkeypatch.setattr(bench, "_measured_row", no_row)
    monkeypatch.setattr(bench, "_lowerbound_row", no_row)
    code, out, err = run_cli(["bench", "relational", "--nproj", "0"], capsys)
    assert code == 1
    assert out == ""
    assert err == ("error: experiment 2, data_mb=320, n_projection=0: "
                   "projection width 0 is below 1\n")


def test_bench_spatial_checks_both_sweeps_before_either_runs(monkeypatch,
                                                            capsys):
    # the size sweep used to run in full before the aspect sweep's query
    # shapes were checked
    def no_row(*args, **kwargs):
        raise AssertionError("a row was made")

    monkeypatch.setattr(bench, "_measured_row", no_row)
    monkeypatch.setattr(bench, "_lowerbound_row", no_row)
    code, out, err = run_cli(["bench", "spatial", "--aspects", "1,100000"],
                             capsys)
    assert code == 1
    assert out == ""
    assert err == ("error: experiment 4, query_frac=0.01, aspect=100000: "
                   "query shape 202386x2 does not fit the space\n")


def test_bench_spatial_builds_each_block_grid_once(monkeypatch, capsys):
    # exp3's one grid and exp4's five block shapes; the check pass before
    # the runs builds none
    built = []
    build = bench.build_block_grid

    def counted(*args, **kwargs):
        built.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(bench, "build_block_grid", counted)
    code, out, err = run_cli(["bench", "spatial", "--repeats", "1"], capsys)
    assert (code, err) == (0, "")
    assert len(built) == 6


@pytest.mark.parametrize("command, flag", [("relational", "--nproj"),
                                           ("spatial", "--aspects")])
def test_bench_errors_come_config_then_repeats_then_lists(command, flag,
                                                          tmp_path, capsys):
    bad_lists = ["bench", command, flag, "1,x", "--repeats", "0"]
    code, out, err = run_cli(bad_lists, capsys)
    assert (code, out, err) == (1, "", "error: --repeats must be >= 1, got 0\n")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("T_X abc\n")
    code, out, err = run_cli(bad_lists + ["--device-config", str(cfg)], capsys)
    assert (code, out, err) == (1, "", "error: config key T_X: bad value 'abc'\n")


def test_bench_list_error_chains_the_token_error():
    args = build_parser().parse_args(["bench", "relational", "--nproj", "1,x"])
    with pytest.raises(ValueError) as err:
        args.handler(args)
    assert str(err.value) == "--nproj: 'x' is not an integer"
    assert str(err.value.__cause__) == "'x' is not an integer"


@pytest.mark.parametrize("command", [[], ["info"], ["map"],
                                     ["bench", "relational"],
                                     ["bench", "spatial"]],
                         ids=["memsrs", "info", "map", "bench-relational",
                              "bench-spatial"])
def test_help_renders(command, capsys):
    with pytest.raises(SystemExit) as done:
        main(command + ["--help"])
    assert done.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: {' '.join(['memsrs', *command])} ")
    assert "-h, --help" in out


@pytest.mark.parametrize("module", ["memsrs", "memsrs.cli"])
def test_python_m_runs_the_cli(module):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", module, "info"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "n_tips = 6400\n" in done.stdout


@pytest.mark.parametrize("command", ["relational", "spatial"])
@pytest.mark.parametrize("repeats", ["0", "-2"])
def test_bench_repeats_below_one_fails(command, repeats, capsys):
    code, out, err = run_cli(["bench", command, "--repeats", repeats], capsys)
    assert code != 0
    assert out == ""
    assert f"--repeats must be >= 1, got {repeats}" in err


@pytest.mark.parametrize("command, flag, token", [
    ("spatial", "--aspects", "1/0"),
    ("spatial", "--aspects", "0/0"),
    ("relational", "--sizes", "1/0"),
    ("relational", "--sizes", "inf"),
    ("spatial", "--query-sizes", "inf"),
    ("spatial", "--query-sizes", "-1"),
    ("spatial", "--aspects", "0"),
    ("spatial", "--aspects", "nan"),
    ("relational", "--nproj", "x"),
    ("relational", "--nproj", "2.5"),
])
def test_bench_bad_sweep_list_fails(command, flag, token, capsys):
    code, out, err = run_cli(["bench", command, flag, "1," + token,
                              "--repeats", "1"], capsys)
    kind = "an integer" if flag == "--nproj" else "a positive finite number"
    assert code == 1
    assert out == ""
    assert err == f"error: {flag}: {token!r} is not {kind}\n"


def test_bench_spatial_zorder_curve(capsys):
    code, out, _ = run_cli(["bench", "spatial", "--query-sizes", "0.01",
                            "--aspects", "", "--repeats", "1",
                            "--curve", "zorder",
                            "--placement", "spatial-parallel"], capsys)
    assert code == 0
    header, row = out.splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert int(cells["n_query_blocks"]) >= 1


def test_bench_distance_seek_model(capsys):
    code, out, _ = run_cli(["bench", "spatial", "--query-sizes", "0.01",
                            "--aspects", "", "--repeats", "1",
                            "--seek-model", "distance",
                            "--placement", "spatial-sequential-yu"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 2


def test_bench_selectivity_flag(capsys):
    code, out, _ = run_cli(["bench", "relational", "--sizes", "5",
                            "--nproj", "", "--repeats", "1",
                            "--selectivity", "0.5",
                            "--placement", "relational-lowerbound"], capsys)
    assert code == 0
    assert out.splitlines()[1].split(",")[4] == "0.5"


def _choices(commands, dest):
    """The `choices` of option `dest` under the sub-command path `commands`."""
    parser = build_parser()
    for name in commands:
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return next(a.choices for a in parser._actions if a.dest == dest)


def test_option_choices_come_from_their_owners():
    for sweep in ("relational", "spatial"):
        assert _choices(["bench", sweep], "seek_model") == SEEK_MODELS
    assert _choices(["bench", "spatial"], "curve") == CURVES


@pytest.mark.parametrize("command, dest, conv, points", [
    ("relational", "sizes", _ratio, bench.SIZES_MB),
    ("relational", "nproj", _integer, bench.N_PROJECTIONS),
    ("spatial", "query_sizes", lambda pct: _ratio(pct) / 100,
     bench.QUERY_FRACS),
    ("spatial", "aspects", _ratio, bench.ASPECTS),
], ids=["sizes", "nproj", "query-sizes", "aspects"])
def test_default_sweep_lists_are_benchs_points(command, dest, conv, points):
    # each default list parses to the library sweep's own default points,
    # so `memsrs bench` and `run_experiment1..4` sweep the same points
    text = getattr(build_parser().parse_args(["bench", command]), dest)
    assert _num_list(text, conv, dest) == list(points)
