"""Device parameter construction, derived constants, config round-trip."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsrs.device import (
    DeviceParams,
    check_integers,
    cmu_defaults,
    from_config_text,
    named,
    to_config_text,
)


def test_cmu_defaults_geometry():
    p = cmu_defaults()
    assert p.regions_x == 80 and p.regions_y == 80
    assert p.n_regions == 6400
    assert p.n_tips == 6400
    assert p.n_active_tips == 1280
    assert p.sectors_x == 2500 and p.sectors_y == 27
    assert p.sectors_per_region == 67500
    assert p.sector_bits == 64


def test_cmu_defaults_timing():
    p = cmu_defaults()
    assert p.tip_rate_bits_s == 0.7e6
    assert p.move_x_s == 0.52e-3
    assert p.move_y_s == 0.35e-3
    assert p.settle_time_s == 0.215e-3
    assert p.turnaround_time_s == 0.06e-3


def test_derived_region_bits():
    # 2500 * 27 * 64
    assert cmu_defaults().region_bits == 4_320_000


def test_derived_sector_time():
    p = cmu_defaults()
    assert p.sector_time_s == 64 / 0.7e6
    assert abs(p.sector_time_s - 91.43e-6) < 0.01e-6


def test_sector_time_unit_ratio():
    # one sector at a rate of one sector per second takes one second
    p = DeviceParams(sector_bits=64, tip_rate_bits_s=64.0)
    assert p.sector_time_s == 1.0


def test_region_read_time_matches_column_prime_composition():
    p = cmu_defaults()
    expected = p.region_bits / p.tip_rate_bits_s + (p.sectors_x - 1) * p.settle_time_s
    assert math.isclose(p.region_read_time_s, expected, rel_tol=0, abs_tol=1e-15)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        DeviceParams(regions_x=0)
    with pytest.raises(ValueError):
        DeviceParams(settle_time_s=0.0)
    with pytest.raises(ValueError):
        DeviceParams(n_active_tips=0)
    with pytest.raises(ValueError):
        # more active tips than tips exist
        DeviceParams(regions_x=2, regions_y=2, n_active_tips=5)


@pytest.mark.parametrize("field", ["regions_x", "regions_y", "sectors_x",
                                   "sectors_y", "n_active_tips", "sector_bits"])
@pytest.mark.parametrize("value", [80.5, 4.0, True])
def test_non_integer_count_rejected(field, value):
    with pytest.raises(ValueError,
                       match=f"^{field} must be an integer, got {value!r}$"):
        DeviceParams(**{field: value})


class _Tip(int):
    """An int subclass other than bool."""


@pytest.mark.parametrize("values, bad", [
    ([1, 2.5, True], "2.5"), ([1, True, "a"], "True"), ((False,), "False"),
    ((1, "a"), "'a'"), ((None,), "None"), ({3: 1, 4.0: 2}, "4.0")],
    ids=["float", "bool", "false", "str", "none", "mapping-key"])
def test_check_integers_names_the_first_value_that_is_not_an_int(values, bad):
    with pytest.raises(ValueError, match=rf"^tip {re.escape(bad)} is not an integer$"):
        check_integers("tip", values)


def test_check_integers_takes_ints_and_their_subclasses_but_bool():
    for values in ([], (1, 2, 3), range(5), [_Tip(2), 7], {1: "a", 2: "b"}):
        check_integers("tip", values)


@pytest.mark.parametrize("field", ["tip_rate_bits_s", "move_x_s", "move_y_s",
                                   "settle_time_s", "turnaround_time_s"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_timing_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite and > 0"):
        DeviceParams(**{field: value})


@pytest.mark.parametrize("line", ["T_X abc", "TransferRate 1.5.2", "R_x 4.5",
                                  "N_PT many"])
def test_config_bad_value_names_key_and_value(line):
    key, value = line.split()
    with pytest.raises(ValueError) as err:
        from_config_text(line + "\n")
    assert str(err.value) == f"config key {key}: bad value {value!r}"


def test_config_infinite_rate_rejected():
    with pytest.raises(ValueError, match="tip_rate_bits_s must be finite"):
        from_config_text("TransferRate inf\n")


def test_config_round_trip_cmu():
    p = cmu_defaults()
    assert from_config_text(to_config_text(p)) == p


def test_config_uses_conventional_units():
    text = to_config_text(cmu_defaults())
    fields = dict(
        line.split(None, 1) for line in text.splitlines() if line and not line.startswith("#")
    )
    assert fields["R_x"] == "80"
    assert fields["S_x"] == "2500"
    assert fields["S_y"] == "27"
    assert fields["N_APT"] == "1280"
    assert fields["SectorSize"] == "64"
    # Mbit/s and ms respectively
    assert float(fields["TransferRate"]) == 0.7
    assert float(fields["T_X"]) == 0.52
    assert float(fields["T_S"]) == 0.215


def test_config_derived_keys_validated():
    text = to_config_text(cmu_defaults())
    assert "N_PT 6400" in text
    bad = text.replace("N_PT 6400", "N_PT 6401")
    with pytest.raises(ValueError):
        from_config_text(bad)


def test_config_text_of_a_reduced_device_is_pinned():
    p = DeviceParams(regions_x=3, regions_y=2, sectors_x=4, sectors_y=5,
                     n_active_tips=3)
    assert to_config_text(p) == (
        "# device geometry and timing\n"
        "R_x 3\nR_y 2\nS_x 4\nS_y 5\nN_APT 3\nSectorSize 64\n"
        "N_R 6\nN_S 20\nN_PT 6\n"
        "TransferRate 0.7\nT_X 0.52\nT_Y 0.35\nT_S 0.215\nT_T 0.06\n")


@pytest.mark.parametrize("line, message", [
    ("N_R 7", "N_R 7 inconsistent with geometry (6)"),
    ("N_S 21", "N_S 21 inconsistent with geometry (20)"),
    ("N_PT 5", "N_PT 5 inconsistent with geometry (6)"),
])
def test_config_derived_key_mismatch_names_key_and_value(line, message):
    text = "R_x 3\nR_y 2\nS_x 4\nS_y 5\nN_APT 3\n" + line + "\n"
    with pytest.raises(ValueError) as err:
        from_config_text(text)
    assert str(err.value) == message


def test_named_prefixes_a_value_error_and_chains_it():
    with pytest.raises(ValueError) as err:
        with named("experiment 1"):
            raise ValueError("seed must be an integer, got 1.5")
    assert str(err.value) == "experiment 1: seed must be an integer, got 1.5"
    assert str(err.value.__cause__) == "seed must be an integer, got 1.5"
    # only a ValueError is named; anything else passes through unchanged
    with pytest.raises(TypeError, match=r"^bare$"):
        with named("experiment 1"):
            raise TypeError("bare")
    with named("experiment 1"):
        pass


def test_config_unknown_key_rejected():
    with pytest.raises(ValueError):
        from_config_text("R_x 4\nbogus 7\n")


def test_config_repeated_key_names_both_lines():
    # the second value used to win silently, giving a 40-wide device
    with pytest.raises(ValueError,
                       match=r"^config line 2: key R_x already set on line 1$"):
        from_config_text("R_x 80\nR_x 40\n")


@settings(max_examples=60, deadline=None)
@given(
    rx=st.integers(1, 50),
    ry=st.integers(1, 50),
    sx=st.integers(1, 200),
    sy=st.integers(1, 50),
    napt_frac=st.floats(0.01, 1.0),
    rate=st.floats(1.0, 1e9, allow_nan=False, allow_infinity=False),
    tx=st.floats(1e-6, 1.0),
    ty=st.floats(1e-6, 1.0),
    ts=st.floats(1e-6, 1.0),
    tt=st.floats(1e-6, 1.0),
)
def test_config_round_trip_any_valid_params(rx, ry, sx, sy, napt_frac, rate, tx, ty, ts, tt):
    napt = max(1, int(rx * ry * napt_frac))
    p = DeviceParams(
        regions_x=rx,
        regions_y=ry,
        sectors_x=sx,
        sectors_y=sy,
        n_active_tips=napt,
        sector_bits=64,
        tip_rate_bits_s=rate,
        move_x_s=tx,
        move_y_s=ty,
        settle_time_s=ts,
        turnaround_time_s=tt,
    )
    assert from_config_text(to_config_text(p)) == p

