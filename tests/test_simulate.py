import csv
import hashlib
import json
import math
import os
import re
import tracemalloc
import urllib.request
import warnings
from bisect import bisect_right
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splineids import cli, simulate
from splineids.errors import ConfigError, ParseError
from splineids.simulate import (
    CSV_HEADER,
    AttackType,
    CellParams,
    RowError,
    ScenarioConfig,
    TrafficRecord,
    TrafficTable,
    generate_dataset,
    read_csv,
    scenario_from_dict,
    scenario_to_dict,
    write_csv,
)


def poisson_rejection(rate: float) -> str | None:
    """numpy's message when its Poisson sampler rejects ``rate``, or None; a call of size 0 draws nothing."""
    try:
        np.random.default_rng(0).poisson(rate, 0)
    except ValueError as err:
        return str(err)
    return None


def poisson_limit() -> float:
    """The largest rate numpy's Poisson sampler takes, bisected over the float64 bit patterns."""
    taken, rejected = np.array([0.0, 1e30]).view(np.int64).tolist()
    while rejected - taken > 1:
        middle = (taken + rejected) // 2
        if poisson_rejection(np.int64(middle).view(np.float64).item()) is None:
            taken = middle
        else:
            rejected = middle
    return np.int64(taken).view(np.float64).item()


def rejected_rate_message(rate: float) -> str:
    """The config error of a drop rate numpy's Poisson sampler rejects."""
    return f"drop_rate must be a rate numpy's Poisson sampler takes, got {rate!r}: {poisson_rejection(rate)}"


class TestGenerateDataset:
    def test_deterministic_per_seed(self):
        a = generate_dataset(ScenarioConfig(seed=42))
        b = generate_dataset(ScenarioConfig(seed=42))
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_dataset(ScenarioConfig(seed=1))
        b = generate_dataset(ScenarioConfig(seed=2))
        assert a != b

    def test_count(self):
        assert len(generate_dataset(ScenarioConfig(n_records=37))) == 37

    def test_attack_fraction_zero(self):
        records = generate_dataset(ScenarioConfig(n_records=200, attack_fraction=0.0, seed=5))
        assert all(r.label == 0 and r.attack_type is AttackType.NONE for r in records)

    def test_attack_fraction_concentrates(self):
        records = generate_dataset(ScenarioConfig(n_records=10_000, attack_fraction=0.4, seed=9))
        frac = sum(r.label for r in records) / len(records)
        assert abs(frac - 0.4) < 0.03

    @pytest.mark.parametrize(
        "attacked,congested,cell",
        [
            (False, False, "normal_uncongested"),
            (False, True, "normal_congested"),
            (True, False, "attack_uncongested"),
            (True, True, "attack_congested"),
        ],
    )
    def test_cell_log_delay_means(self, attacked, congested, cell):
        config = ScenarioConfig(
            n_records=10_000,
            attack_fraction=1.0 if attacked else 0.0,
            congested_fraction=1.0 if congested else 0.0,
            seed=17,
        )
        records = generate_dataset(config)
        mean_ln = float(np.mean([math.log(r.packet_delay_ms) for r in records]))
        assert abs(mean_ln - getattr(config, cell).delay_mu) < 0.1

    def test_label_matches_attack_type(self):
        for r in generate_dataset(ScenarioConfig(n_records=500, seed=3)):
            assert (r.label == 1) == (r.attack_type is not AttackType.NONE)
            assert r.packet_delay_ms > 0 and r.transfer_interval_ms > 0
            assert r.packets_dropped >= 0

    def test_attack_mix_weights(self):
        config = ScenarioConfig(
            n_records=10_000, attack_fraction=1.0, attack_mix=(1.0, 0.0, 0.0, 1.0), seed=8
        )
        kinds = {r.attack_type for r in generate_dataset(config)}
        assert kinds == {AttackType.PROBE, AttackType.R2U}

    @pytest.mark.parametrize(
        "overrides,message",
        [
            # each {cell} is the first record of that cell in the same-seed data
            (
                {"attack_uncongested": {"delay_mu": 800}},
                "record {attack_uncongested}: packet_delay_ms must be finite and positive, got inf",
            ),
            (
                {"normal_congested": {"interval_mu": -800}, "congested_fraction": 0.5},
                "record {normal_congested}: transfer_interval_ms must be finite and positive, got 0.0",
            ),
            (
                {"normal_congested": {"delay_mu": 800}},
                "record {normal_congested}: packet_delay_ms must be finite and positive, got inf",
            ),
            (
                {"normal_uncongested": {"delay_mu": 800}},
                "record {normal_uncongested}: packet_delay_ms must be finite and positive, got inf",
            ),
            # at one record, the delay rule is reported ahead of the interval rule
            (
                {"attack_uncongested": {"delay_mu": 800, "interval_mu": 800}},
                "record {attack_uncongested}: packet_delay_ms must be finite and positive, got inf",
            ),
        ],
    )
    def test_invalid_draw_names_the_first_bad_record(self, overrides, message):
        # cell parameters change no uniform, so the valid scenario has the same cells record for record
        scenario = {k: v for k, v in overrides.items() if k not in simulate._CELL_NAMES}
        valid = generate_dataset(scenario_from_dict(scenario))
        cells = 2 * valid.label + valid.congested
        first = {name: int(np.argmax(cells == i)) for i, name in enumerate(simulate._CELL_NAMES)}
        with pytest.raises(ConfigError, match=f"^scenario draws an invalid {message.format(**first)}$"):
            generate_dataset(scenario_from_dict(overrides))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"normal_uncongested": {"drop_rate": 1e30}},
            # each of these scenarios with a valid rate draws an invalid record
            {"normal_uncongested": {"drop_rate": 1e30}, "normal_congested": {"delay_mu": 800}},
            {"attack_congested": {"drop_rate": 1e30}, "normal_uncongested": {"delay_mu": 800}},
            {"attack_uncongested": {"drop_rate": 1e30, "delay_mu": 800}},
            # the first attack_congested record of seed 42 is record 155
            {"attack_congested": {"drop_rate": 1e30}, "congested_fraction": 0.02},
        ],
    )
    def test_a_rejected_rate_is_a_config_error_at_every_n_and_seed(self, overrides):
        for n_records in (1, 155, 156, 600):
            for seed in (1, 2, 42):
                with pytest.raises(ConfigError, match=f"^{re.escape(rejected_rate_message(1e30))}$"):
                    scenario_from_dict({**overrides, "n_records": n_records, "seed": seed})

    def test_config_errors_name_field(self):
        with pytest.raises(ConfigError, match="n_records"):
            ScenarioConfig(n_records=0)
        with pytest.raises(ConfigError, match="attack_fraction"):
            ScenarioConfig(attack_fraction=1.5)
        with pytest.raises(ConfigError, match="attack_mix"):
            ScenarioConfig(attack_mix=(0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ConfigError, match="delay_sigma"):
            CellParams(1.0, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigError, match="drop_rate"):
            CellParams(1.0, 1.0, -2.0, 1.0, 1.0)

    @pytest.mark.parametrize("cell", simulate._CELL_NAMES)
    def test_cell_of_a_foreign_type_is_a_config_error_naming_its_field(self, cell):
        with pytest.raises(ConfigError, match=f"^{cell} must be a CellParams, got {{'delay_mu': 1}}$"):
            ScenarioConfig(**{cell: {"delay_mu": 1}})

    @pytest.mark.parametrize("value", [10**400, Fraction(10**400, 3)], ids=["int", "Fraction"])
    def test_real_beyond_the_float_range_is_a_config_error(self, value):
        with pytest.raises(ConfigError, match="^vehicle_jitter_sigma must be a finite number"):
            ScenarioConfig(vehicle_jitter_sigma=value)
        with pytest.raises(ConfigError, match="^delay_mu must be a finite number"):
            CellParams(value, 1.0, 1.0, 1.0, 1.0)


class TestFieldChecks:
    """``checked_int`` and ``checked_float`` convert a value to the type stored, then check what is stored."""

    @pytest.mark.parametrize("value", [3, np.int64(3), np.int32(3), np.uint8(3)], ids=repr)
    def test_integers_are_stored_as_ints(self, value):
        stored = simulate.checked_int("count", value, 0)
        assert stored == 3 and type(stored) is int

    @pytest.mark.parametrize(
        "value, lowest, highest",
        [(3.0, 0, math.inf), (np.float64(3), 0, math.inf), (Fraction(3), 0, math.inf), (True, 0, math.inf),
         ("3", 0, math.inf), (None, 0, math.inf), (-1, 0, math.inf), (6, 1, 5), (10**400, 1, simulate.MAX_COUNT)],
        ids=["float", "float64", "Fraction", "bool", "str", "None", "below", "above", "huge"],
    )
    def test_integer_rule_has_one_message(self, value, lowest, highest):
        message = f"count must be an integer in [{lowest}, {highest}], got {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            simulate.checked_int("count", value, lowest, highest)

    @pytest.mark.parametrize(
        "value", [0.25, np.float32(0.25), np.float64(0.25), Fraction(1, 4), np.float16(0.25)], ids=repr
    )
    def test_reals_are_stored_as_floats(self, value):
        stored = simulate.checked_float("share", value, 0, 1, open_=True)
        assert stored == 0.25 and type(stored) is float

    @pytest.mark.parametrize(
        "bounds, value, interval",
        [
            ((), "x", ""),
            ((), math.nan, ""),
            ((), -math.inf, ""),
            ((), 10**400, ""),
            ((), Fraction(-(10**400), 3), ""),
            ((), 1j, ""),
            ((0, 1), 1.5, " in [0, 1]"),
            ((0, 1), True, " in [0, 1]"),
            ((0, 1), np.float32(-0.5), " in [0, 1]"),
            ((0, math.inf), math.inf, " in [0, inf]"),
            ((0, 1, True), 0.0, " in (0, 1)"),
            ((0, math.inf, True), 0, " in (0, inf)"),
            # each stored float lies on a bound that the value itself is inside
            ((0, 1, True), Fraction(1, 10**400), " in (0, 1)"),
            ((0, 1, True), Fraction(10**20 - 1, 10**20), " in (0, 1)"),
        ],
        ids=[
            "str", "nan", "-inf", "huge_int", "huge_Fraction", "complex", "above", "bool", "float32_below",
            "inf", "open_at_0", "open_int_0", "stored_0", "stored_1",
        ],
    )
    def test_real_rule_has_one_message(self, bounds, value, interval):
        message = f"share must be a finite number{interval}, got {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            simulate.checked_float("share", value, *bounds)

    @pytest.mark.parametrize(
        "name, value, interval",
        [("delay_sigma", 0.0, "(0, inf)"), ("interval_sigma", -1, "(0, inf)"), ("drop_rate", -0.5, "[0, inf]")],
    )
    def test_cell_bounds(self, name, value, interval):
        fields = {"delay_mu": 1.0, "delay_sigma": 1.0, "drop_rate": 1.0, "interval_mu": 1.0, "interval_sigma": 1.0}
        message = f"{name} must be a finite number in {interval}, got {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            CellParams(**{**fields, name: value})

    @pytest.mark.parametrize("side", ["limit", "above"])
    def test_drop_rate_is_taken_exactly_when_numpys_poisson_sampler_takes_it(self, side):
        limit = poisson_limit()
        rate = limit if side == "limit" else math.nextafter(limit, math.inf)
        rejection = poisson_rejection(rate)
        assert (rejection is None) == (side == "limit")
        fields = {"delay_mu": 1.0, "delay_sigma": 1.0, "drop_rate": rate, "interval_mu": 1.0, "interval_sigma": 1.0}
        if rejection is None:
            assert CellParams(**fields).drop_rate == rate
        else:
            with pytest.raises(ConfigError, match=f"^{re.escape(rejected_rate_message(rate))}$"):
                CellParams(**fields)

    @pytest.mark.parametrize("cell", simulate._CELL_NAMES)
    def test_a_rejected_rate_is_a_config_error_in_every_cell_drawn_or_not(self, cell):
        # with no attacks no record is drawn from an attack cell
        with pytest.raises(ConfigError, match=f"^{re.escape(rejected_rate_message(1e30))}$"):
            scenario_from_dict({"attack_fraction": 0, "n_records": 1, cell: {"drop_rate": 1e30}})

    @pytest.mark.parametrize(
        "mix",
        [(Fraction(1, 10**400), 0, 0, 0), (1e308, 1e308, 0, 0), (1, 2, 3), (1, 2, 3, 4, 5), "abcd", None],
        ids=["sum_stored_as_0", "sum_overflows", "three", "five", "str", "None"],
    )
    def test_attack_mix_sum_is_checked_on_the_stored_floats(self, mix):
        message = f"attack_mix needs 4 nonnegative weights with a positive finite sum, got {mix!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ScenarioConfig(attack_mix=mix)

    @pytest.mark.parametrize("weight", [-1, math.nan, "1", True], ids=repr)
    def test_each_attack_mix_weight_is_a_nonnegative_real(self, weight):
        message = f"attack_mix must be a finite number in [0, inf], got {weight!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ScenarioConfig(attack_mix=(1, weight, 1, 1))

    def test_attack_mix_is_stored_as_floats(self):
        mix = ScenarioConfig(attack_mix=[Fraction(1, 3), np.float32(1), np.int64(1), 2]).attack_mix
        assert mix == (1 / 3, 1.0, 1.0, 2.0) and {type(w) for w in mix} == {float}


# finite positive reals at both ends of the float64 range, subnormals and values that need 17 digits
extreme_reals = st.one_of(
    st.sampled_from([
        5e-324, 1e-320, 2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
        0.30000000000000004, 1.0000000000000002, 9007199254740993.0, 123456789.12345679,
    ]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_subnormal=True),
)

# the k of each real k / 1000 that write_csv writes with 3 decimals, and those reals
grid_steps = st.one_of(st.integers(1, 10**6), st.integers(1, int(simulate._GRID_BOUND) * 1000 - 1))
grid_reals = grid_steps.map(lambda k: k / 1000)


class TestAttackTypeIndex:
    """Each attack-type uniform maps through the cumulative mix onto a type of positive weight."""

    top = 1 - 2**-53  # the largest uniform that Generator.random returns
    uniforms = np.array([math.nextafter(top, 0.0), top])
    mixes = np.random.default_rng(0).uniform(0.0, 10.0, (2000, 4))

    def check(self, mix):
        got = simulate._attack_type_index(tuple(mix), self.uniforms)
        assert (mix[got] > 0).all()
        cum_mix = np.cumsum(mix / mix.sum())
        below = self.uniforms < cum_mix[-1]
        # below the end of the cumulative mix the index is the plain search; at or above it, the last positive type
        assert np.array_equal(got[below], cum_mix.searchsorted(self.uniforms[below], side="right"))
        assert (got[~below] == np.flatnonzero(mix)[-1]).all()
        return not below.all()

    def test_random_mixes(self):
        # 375 of the 2000 cumulative sums end at 1 - 2**-53 under numpy 2.4
        assert sum(self.check(mix) for mix in self.mixes) > 0

    @pytest.mark.parametrize("zeros", [1, 2, 3])
    def test_mixes_with_trailing_zeros(self, zeros):
        mixes = self.mixes.copy()
        mixes[:, 4 - zeros :] = 0.0
        ends_low = sum(self.check(mix) for mix in mixes)
        # one positive weight gives a cumulative mix of exactly 1; under numpy 2.4, 308 and 229 end low at 1 and 2 zeros
        assert (ends_low > 0) == (zeros < 3)


class TestCsvRoundTrip:
    def test_empty_list(self, tmp_path):
        path = tmp_path / "empty.csv"
        empty = TrafficTable([], [], [], [], [])
        write_csv(empty, path)
        assert path.read_text() == (
            "packet_delay_ms,packets_dropped,transfer_interval_ms,congested,attack_type,label\n"
        )
        assert read_csv(path) == empty

    def test_generated_dataset_round_trips(self, tmp_path):
        records = generate_dataset(ScenarioConfig(n_records=600, seed=42))
        path = tmp_path / "traffic.csv"
        write_csv(records, path)
        assert read_csv(path) == records

    def test_write_is_deterministic(self, tmp_path):
        records = generate_dataset(ScenarioConfig(n_records=50, seed=6))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(records, p1)
        write_csv(records, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(
        delay=st.floats(1e-6, 1e6, allow_nan=False),
        drops=st.integers(0, 10_000),
        interval=st.floats(1e-6, 1e6, allow_nan=False),
        congested=st.booleans(),
        attack=st.sampled_from(list(AttackType)),
    )
    def test_round_trip_identity_on_valid_records(
        self, tmp_path_factory, delay, drops, interval, congested, attack
    ):
        record = TrafficRecord(
            packet_delay_ms=delay,
            packets_dropped=drops,
            transfer_interval_ms=interval,
            congested=congested,
            attack_type=attack,
            label=0 if attack is AttackType.NONE else 1,
        )
        path = tmp_path_factory.mktemp("rt") / "one.csv"
        table = TrafficTable([delay], [drops], [interval], [congested], [list(AttackType).index(attack)])
        write_csv(table, path)
        assert read_csv(path) == table
        assert list(read_csv(path)) == [record]

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(extreme_reals, st.integers(0, 2**63 - 1), extreme_reals, st.booleans(), st.integers(0, 4)),
            max_size=14,
        )
    )
    def test_round_trip_is_bit_exact_on_the_loadtxt_path(self, tmp_path_factory, rows):
        columns = list(zip(*rows)) or [[]] * 5
        table = TrafficTable(*columns)
        path = tmp_path_factory.mktemp("rt") / "table.csv"
        write_csv(table, path)
        with mock.patch.object(simulate, "_row_fault", wraps=simulate._row_fault) as row_fault:
            result = read_csv(path)
        # no written file leaves the loadtxt path
        assert row_fault.call_count == 0
        for name, dtype in simulate._COLUMNS:
            got, want = getattr(result, name), getattr(table, name)
            assert got.dtype == dtype
            if dtype is np.float64:
                got, want = got.view(np.int64), want.view(np.int64)
            assert np.array_equal(got, want), name


    def test_generated_reals_are_written_with_three_decimals(self, tmp_path):
        table = generate_dataset(ScenarioConfig(n_records=600, seed=42))
        for column in (table.packet_delay_ms, table.transfer_interval_ms):
            assert np.array_equal(np.rint(column * 1000) / 1000, column)
        path = tmp_path / "traffic.csv"
        write_csv(table, path)
        rows = list(csv.reader(path.read_text().splitlines()[1:]))
        assert all(len(real.split(".")[1]) == 3 for row in rows for real in (row[0], row[2]))

    @settings(max_examples=500, deadline=None)
    @given(k=grid_steps)
    def test_grid_real_below_the_bound_prints_and_reads_back_exactly(self, k):
        real = k / 1000
        assert real < simulate._GRID_BOUND
        assert float("%.3f" % real) == real
        assert np.rint(real * 1000) == k
        assert simulate._grid_steps(np.array([real])).tolist() == [k]

    def test_every_grid_real_below_1000_ms_round_trips(self, tmp_path):
        k = np.arange(1, 10**6)
        reals = k / 1000
        assert all(float("%.3f" % real) == real for real in reals.tolist())
        assert np.array_equal(np.rint(reals * 1000), k)
        # the same reals through the writer's 3 decimals and read_csv's parser
        table = TrafficTable(reals, np.zeros(len(k)), reals[::-1], np.zeros(len(k)), np.zeros(len(k)))
        path = tmp_path / "grid.csv"
        write_csv(table, path)
        with open(path) as fh:
            assert [next(fh), next(fh)] == [CSV_HEADER + "\n", "0.001,0,999.999,0,none,0\n"]
        result = read_csv(path)
        for name in ("packet_delay_ms", "transfer_interval_ms"):
            assert np.array_equal(getattr(result, name).view(np.int64), getattr(table, name).view(np.int64))

    @pytest.mark.parametrize(
        "real,text",
        [
            (1.0005, "1.0004999999999999"),  # between two grid points
            (math.nextafter(1.105, 2.0), "1.1050000000000002"),  # one ulp off the grid
            (4e-4, "0.00040000000000000002"),  # below 0.5 µs, which rounds to 0
            (2.0**33, "8589934592"),  # on the grid, at the bound
            (1.8e305, "1.7999999999999999e+305"),  # 1000 times it overflows
        ],
        ids=["between", "ulp_off", "below_half_step", "at_the_bound", "overflows"],
    )
    def test_block_with_one_off_grid_real_is_written_with_17_digits(self, tmp_path, monkeypatch, real, text):
        monkeypatch.setattr(simulate, "_BLOCK_ROWS", 3)
        # rows 3-5 make the second block; its last interval is off the grid, or at the bound
        delays = [1.5, 0.001, 2.25, 3.0, 4.125, 5.5, 2.0**33 - 0.001]
        intervals = [10.0, 20.5, 30.25, 40.0, 50.5, real, 70.0]
        table = TrafficTable(delays, [0] * 7, intervals, [0] * 7, [0] * 7)
        path = tmp_path / "table.csv"
        write_csv(table, path)
        assert path.read_text().splitlines()[1:] == [
            "1.500,0,10.000,0,none,0",
            "0.001,0,20.500,0,none,0",
            "2.250,0,30.250,0,none,0",
            "3,0,40,0,none,0",
            "4.125,0,50.5,0,none,0",
            f"5.5,0,{text},0,none,0",
            "8589934591.999,0,70.000,0,none,0",
        ]
        result = read_csv(path)
        for name in ("packet_delay_ms", "transfer_interval_ms"):
            assert np.array_equal(getattr(result, name).view(np.int64), getattr(table, name).view(np.int64))

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(grid_reals, extreme_reals),
                st.integers(0, 2**63 - 1),
                st.one_of(grid_reals, extreme_reals),
                st.booleans(),
                st.integers(0, 4),
            ),
            max_size=14,
        ),
        block_rows=st.sampled_from([1, 2, 3, 4096]),
    )
    def test_round_trip_is_bit_exact_through_grid_and_exact_blocks(self, tmp_path_factory, rows, block_rows):
        table = TrafficTable(*(list(zip(*rows)) or [[]] * 5))
        path = tmp_path_factory.mktemp("rt") / "table.csv"
        with mock.patch.object(simulate, "_BLOCK_ROWS", block_rows):
            write_csv(table, path)
        with mock.patch.object(simulate, "_row_fault", wraps=simulate._row_fault) as row_fault:
            result = read_csv(path)
        assert row_fault.call_count == 0
        for name in ("packet_delay_ms", "transfer_interval_ms"):
            assert np.array_equal(getattr(result, name).view(np.int64), getattr(table, name).view(np.int64))
        assert result == table

    def test_17_digit_csv_of_an_earlier_version_reads_and_writes_back_unchanged(self, tmp_path):
        # the first rows that an earlier version, which kept every bit of a draw, wrote for seed 42
        text = (
            CSV_HEADER + "\n"
            "22.300259897539263,5,40.953080663321536,0,u2r,1\n"
            "2.1380453229391585,2,197.55276447505184,1,none,0\n"
            "14.640028259580937,2,35.617914965238342,0,u2r,1\n"
            "44.9825126718492,2,49.754440465716442,1,probe,1\n"
            "2.6518564291673679,0,109.31308275250584,0,none,0\n"
            "12.937508682752343,1,34.500021512126651,0,dos,1\n"
        )
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_text(text)
        table = read_csv(old)
        assert table == TrafficTable(
            [22.300259897539263, 2.1380453229391585, 14.640028259580937, 44.9825126718492, 2.6518564291673679,
             12.937508682752343],
            [5, 2, 2, 2, 0, 1],
            [40.953080663321536, 197.55276447505184, 35.617914965238342, 49.754440465716442, 109.31308275250584,
             34.500021512126651],
            [0, 1, 0, 1, 0, 0],
            [3, 0, 3, 1, 0, 2],
        )
        write_csv(table, new)
        assert new.read_text() == text


class TestCsvParseErrors:
    header = "packet_delay_ms,packets_dropped,transfer_interval_ms,congested,attack_type,label\n"

    def write(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text(self.header + body)
        return path

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("delay,stuff\n")
        with pytest.raises(ParseError, match="line 1"):
            read_csv(path)

    def test_wrong_field_count(self, tmp_path):
        path = self.write(tmp_path, "1.0,2,3.0,0,none\n")
        with pytest.raises(ParseError, match="line 2"):
            read_csv(path)

    def test_unknown_attack_token(self, tmp_path):
        path = self.write(tmp_path, "1.0,2,3.0,0,worm,1\n")
        with pytest.raises(ParseError, match="worm"):
            read_csv(path)

    def test_negative_delay(self, tmp_path):
        path = self.write(tmp_path, "-1.0,2,3.0,0,none,0\n")
        with pytest.raises(ParseError, match="line 2"):
            read_csv(path)

    def test_inconsistent_label(self, tmp_path):
        path = self.write(tmp_path, "1.0,2,3.0,0,dos,0\n")
        with pytest.raises(ParseError, match="line 2"):
            read_csv(path)

    def test_error_line_number_counts_header(self, tmp_path):
        path = self.write(tmp_path, "1.0,2,3.0,0,none,0\nbroken\n")
        with pytest.raises(ParseError, match="line 3"):
            read_csv(path)


class TestScenarioDicts:
    def test_round_trip(self):
        config = ScenarioConfig(seed=77, attack_fraction=0.25)
        assert scenario_from_dict(scenario_to_dict(config)) == config

    def test_partial_dict_fills_defaults(self):
        config = scenario_from_dict({"seed": 7})
        assert config.seed == 7
        assert config.n_records == ScenarioConfig().n_records

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            scenario_from_dict({"mystery": 1})

    def test_default_scenario_dict_is_pinned(self):
        assert json.dumps(scenario_to_dict(ScenarioConfig()), sort_keys=True) == (
            '{"attack_congested": {"delay_mu": 3.35, "delay_sigma": 0.45, "drop_rate": 4.0, "interval_mu": 3.9, '
            '"interval_sigma": 0.45}, "attack_fraction": 0.5, "attack_mix": [0.4, 0.3, 0.15, 0.15], '
            '"attack_uncongested": {"delay_mu": 3.1, "delay_sigma": 0.4, "drop_rate": 2.5, "interval_mu": 3.7, '
            '"interval_sigma": 0.4}, "congested_fraction": 0.3, "n_records": 600, "n_vehicles": 52, '
            '"normal_congested": {"delay_mu": 1.25, "delay_sigma": 0.4, "drop_rate": 0.8, "interval_mu": 4.75, '
            '"interval_sigma": 0.35}, "normal_uncongested": {"delay_mu": 1.0, "delay_sigma": 0.35, "drop_rate": 0.2, '
            '"interval_mu": 4.6, "interval_sigma": 0.3}, "seed": 42, "vehicle_jitter_sigma": 0.05}'
        )

    def test_unknown_cell_key_rejected(self):
        with pytest.raises(ConfigError, match="normal_uncongested"):
            scenario_from_dict({"normal_uncongested": {"delay_muu": 1.0}})


@pytest.mark.parametrize(
    "n,seed,digest",
    [
        (600, 42, "380c05a25e69c3be1e3c7f05ae9aa62497bb7d7a2be44a3006989cb62e39e339"),
        (20000, 7, "27204158808e3b3652171c99cb14f0c50b2c86cbea133c0cd9fbada3156ba75f"),
    ],
)
def test_csv_digest_on_the_1us_grid_is_pinned(tmp_path, n, seed, digest):
    # recorded with numpy 2.4; NumPy does not promise Generator streams across versions
    path = tmp_path / "traffic.csv"
    assert cli.main(["simulate", "--n", str(n), "--seed", str(seed), "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_csv_digest_with_a_million_vehicles_on_the_1us_grid_is_pinned(tmp_path):
    # vehicle indices floor(u * n) near MAX_COUNT, and jitter for a million vehicles; recorded with numpy 2.4
    config, path = tmp_path / "scenario.json", tmp_path / "traffic.csv"
    config.write_text(json.dumps({"n_vehicles": 1_000_000}))
    argv = ["simulate", "--config", str(config), "--n", "20000", "--seed", "3", "--out", str(path)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "9ddad64e8b80344995464b8893e00f311402e845aa562d44b2436b823d1666f0"
    )


def oracle_generate_dataset(config: ScenarioConfig) -> TrafficTable:
    """Each column whole from its stream, then a scalar loop over the records.

    The loop works out each record's cell, attack type, vehicle and log-values
    in Python floats, and draws its Poisson drops with a scalar call.
    """
    streams = [np.random.Generator(np.random.PCG64(s)) for s in np.random.SeedSequence(config.seed).spawn(8)]
    n = config.n_records
    jitter = streams[0].normal(0.0, config.vehicle_jitter_sigma, config.n_vehicles).tolist()
    congested_u, attacked_u, type_u, vehicle_u = (stream.random(n).tolist() for stream in streams[1:5])
    delay_z, interval_z = streams[5].standard_normal(n).tolist(), streams[7].standard_normal(n).tolist()
    poisson = streams[6].poisson
    mix = np.asarray(config.attack_mix, dtype=float)
    cum_mix = np.cumsum(mix / mix.sum()).tolist()
    # indexed by 2 * attacked + congested
    cells = (config.normal_uncongested, config.normal_congested, config.attack_uncongested, config.attack_congested)

    congested, codes, log_delay, drops, log_interval = [], [], [], [], []
    for i in range(n):
        c = congested_u[i] < config.congested_fraction
        attacked = attacked_u[i] < config.attack_fraction
        cell = cells[2 * attacked + c]
        drops.append(poisson(cell.drop_rate))
        congested.append(c)
        codes.append(bisect_right(cum_mix, type_u[i]) + 1 if attacked else 0)
        vehicle = math.floor(vehicle_u[i] * config.n_vehicles)
        log_delay.append(cell.delay_mu + jitter[vehicle] + cell.delay_sigma * delay_z[i])
        log_interval.append(cell.interval_mu + cell.interval_sigma * interval_z[i])

    # an overflowing draw gives inf or NaN, which the table's check rejects
    with np.errstate(over="ignore", invalid="ignore"):
        delay, interval = np.exp(log_delay), np.exp(log_interval)
        # the 1 µs capture grid
        delay, interval = np.rint(delay * 1000) / 1000, np.rint(interval * 1000) / 1000
    try:
        return TrafficTable(delay, drops, interval, congested, codes)
    except RowError as err:
        raise ConfigError(f"scenario draws an invalid record {err.row}: {err.reason}") from None


def generated(generate, config):
    """The columns ``generate`` returns as lists, or the message of its ConfigError."""
    try:
        table = generate(config)
    except ConfigError as err:
        return str(err)
    return tuple(getattr(table, name).tolist() for name, _ in simulate._COLUMNS)


# one vehicle always gets index 0; the largest counts check floor(u * n) <= n - 1 near MAX_COUNT
VEHICLE_COUNTS = [1, 2, 3, 52, 65_537, 999_983, 1_000_000]
EDGE_FRACTIONS = [0.0, 5e-324, 2**-53, 0.5, 1 - 2**-53, 1.0]
fractions = st.one_of(st.sampled_from(EDGE_FRACTIONS), st.floats(0.0, 1.0))
# numpy's Poisson sampler inverts the CDF below a rate of 10 and uses rejection from 10 up
drop_rates = st.one_of(st.just(0.0), st.floats(0.0, 10.0, exclude_max=True), st.floats(10.0, 1e4))
cells = st.builds(
    CellParams,
    delay_mu=st.floats(-3.0, 6.0),
    delay_sigma=st.floats(0.01, 2.0),
    drop_rate=drop_rates,
    interval_mu=st.floats(-3.0, 6.0),
    interval_sigma=st.floats(0.01, 2.0),
)
scenarios = st.builds(
    ScenarioConfig,
    n_records=st.integers(1, 300),
    n_vehicles=st.sampled_from(VEHICLE_COUNTS),
    attack_fraction=fractions,
    congested_fraction=fractions,
    attack_mix=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 10.0)), min_size=4, max_size=4).filter(
        lambda mix: sum(mix) > 0
    ),
    normal_uncongested=cells,
    normal_congested=cells,
    attack_uncongested=cells,
    attack_congested=cells,
    vehicle_jitter_sigma=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**64),
)


class TestGeneratorOracle:
    """``generate_dataset`` equals a scalar loop over the same streams."""

    @settings(max_examples=200, deadline=None)
    @given(config=scenarios)
    def test_matches_the_scalar_loop(self, config):
        assert generated(generate_dataset, config) == generated(oracle_generate_dataset, config)

    @pytest.mark.parametrize("n_vehicles", VEHICLE_COUNTS)
    def test_matches_the_scalar_loop_at_each_vehicle_count(self, n_vehicles):
        config = ScenarioConfig(n_records=50, n_vehicles=n_vehicles, seed=n_vehicles)
        assert generate_dataset(config) == oracle_generate_dataset(config)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"attack_uncongested": {"delay_mu": 800}},
            {"normal_congested": {"interval_mu": -800}, "congested_fraction": 0.5},
            {"normal_uncongested": {"delay_mu": 800}},
            # the first invalid record comes late, at record 155 of seed 42
            {"attack_congested": {"delay_mu": 800}, "congested_fraction": 0.02},
            {"attack_uncongested": {"delay_mu": 800, "interval_mu": 800}},
        ],
    )
    def test_invalid_draws_match_the_scalar_loop(self, overrides):
        config = scenario_from_dict(overrides)
        message = generated(oracle_generate_dataset, config)
        assert isinstance(message, str)
        assert generated(generate_dataset, config) == message

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64), record=st.integers(0, 20), above=st.booleans())
    def test_a_congested_fraction_equal_to_a_drawn_uniform(self, seed, record, above):
        # a record is congested when its uniform from child stream 1 is below the fraction
        stream = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(8)[1]))
        uniform = stream.random(record + 1)[record]
        config = ScenarioConfig(
            n_records=record + 1, congested_fraction=math.nextafter(uniform, 1.0) if above else uniform, seed=seed
        )
        table = generate_dataset(config)
        assert table == oracle_generate_dataset(config)
        assert table.congested[record] == above


class TestTrafficTable:
    table = generate_dataset(ScenarioConfig(n_records=50, seed=4))

    def test_columns_have_their_dtypes_and_are_read_only(self):
        t = self.table
        columns = (t.packet_delay_ms, t.packets_dropped, t.transfer_interval_ms, t.congested, t.attack_code)
        assert [c.dtype for c in columns] == [np.float64, np.int64, np.float64, np.bool_, np.int8]
        with pytest.raises(ValueError):
            t.packet_delay_ms[0] = 1.0

    def test_label_follows_attack_code(self):
        assert np.array_equal(self.table.label, (self.table.attack_code != 0).astype(np.int64))

    def test_rows_iterate_as_records(self):
        t = self.table
        records = list(t)
        assert len(records) == len(t) == 50
        types = list(AttackType)
        for i, r in enumerate(records):
            assert type(r) is TrafficRecord
            assert r.packet_delay_ms == t.packet_delay_ms[i] and type(r.packet_delay_ms) is float
            assert r.packets_dropped == t.packets_dropped[i] and type(r.packets_dropped) is int
            assert r.transfer_interval_ms == t.transfer_interval_ms[i] and type(r.transfer_interval_ms) is float
            assert r.congested is bool(t.congested[i])
            assert r.attack_type is types[t.attack_code[i]]
            assert r.label == t.label[i] and type(r.label) is int

    def test_selection_and_equality(self):
        t = self.table
        assert t[np.arange(len(t))] == t
        assert t[:10] != t
        assert len(t[t.congested]) == int(t.congested.sum())
        assert (t == [*t]) is False

    @pytest.mark.parametrize(
        "column,value,message",
        [
            ("packet_delay_ms", math.inf, "row 2: packet_delay_ms must be finite and positive, got inf"),
            ("transfer_interval_ms", 0.0, "row 2: transfer_interval_ms must be finite and positive, got 0.0"),
            ("packets_dropped", -1, "row 2: packets_dropped must be nonnegative, got -1"),
            ("attack_code", 5, "row 2: unknown attack code 5"),
        ],
    )
    def test_first_bad_row_is_named(self, column, value, message):
        columns = {name: getattr(self.table, name).copy() for name, _ in simulate._COLUMNS}
        columns[column][2] = value
        columns[column][7] = value
        with pytest.raises(RowError, match=f"^{message}$") as err:
            TrafficTable(**columns)
        assert err.value.row == 2

    @pytest.mark.parametrize(
        "rows,message",
        [
            # an earlier row that fails a later check wins over a later row that fails an earlier one
            ({1: ("packets_dropped", -1), 3: ("packet_delay_ms", math.nan)},
             "row 1: packets_dropped must be nonnegative, got -1"),
            ({1: ("attack_code", 9), 3: ("transfer_interval_ms", -2.0)}, "row 1: unknown attack code 9"),
            ({1: ("transfer_interval_ms", math.inf), 3: ("packet_delay_ms", 0.0)},
             "row 1: transfer_interval_ms must be finite and positive, got inf"),
            ({3: ("packet_delay_ms", math.nan)}, "row 3: packet_delay_ms must be finite and positive, got nan"),
        ],
    )
    def test_first_bad_row_wins_over_check_order(self, rows, message):
        columns = {name: getattr(self.table, name).copy() for name, _ in simulate._COLUMNS}
        for row, (column, value) in rows.items():
            columns[column][row] = value
        with pytest.raises(RowError, match=f"^{message}$") as err:
            TrafficTable(**columns)
        assert err.value.row == min(rows)

    def test_earlier_check_wins_on_one_row(self):
        with pytest.raises(RowError, match="packet_delay_ms"):
            TrafficTable([-1.0], [-1], [-1.0], [False], [0])

    def test_columns_of_unequal_length(self):
        with pytest.raises(ValueError, match="1-D"):
            TrafficTable([1.0, 2.0], [0], [1.0], [False], [0])

    @pytest.mark.parametrize(
        "rows",
        [slice(3, 17), slice(None, None, -3), slice(0, 0), np.array([4, 0, 4, 49]), np.arange(50)[::-7], "mask"],
    )
    def test_rows_equal_a_checked_build_of_the_same_columns(self, rows):
        t = self.table
        rows = t.congested if isinstance(rows, str) else rows
        got = t[rows]
        want = TrafficTable(**{name: getattr(t, name)[rows].copy() for name, _ in simulate._COLUMNS})
        assert got == want
        for name, dtype in simulate._COLUMNS:
            column = getattr(got, name)
            assert column.ndim == 1 and column.dtype == dtype and not column.flags.writeable

    @pytest.mark.parametrize("index", [3, -1, np.int64(7)])
    def test_scalar_index_raises(self, index):
        with pytest.raises(ValueError, match="1-D"):
            self.table[index]

    def test_nbytes_counts_the_buffers_the_columns_keep(self, tmp_path):
        assert self.table.nbytes == 26 * len(self.table)
        assert self.table[2:5].nbytes == self.table.nbytes  # a slice keeps its columns alive
        path = tmp_path / "data.csv"
        write_csv(self.table, path)
        read = read_csv(path)
        assert read.packet_delay_ms.base is read.packets_dropped.base
        assert read.nbytes == read.packet_delay_ms.base.nbytes + 2 * len(read)


def oracle_read_csv(path):
    """The per-row reader that ``read_csv`` replaced, with its record checks inline.

    A record's ``line N`` is the file line it starts on.

    Returns the columns (delays, drops, intervals, congested flags, attack codes) as lists.
    """
    tokens = {t.value: t for t in AttackType}
    columns = ([], [], [], [], [])
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or ",".join(header) != CSV_HEADER:
            raise ParseError(f"line 1: expected header '{CSV_HEADER}'")
        start = reader.line_num + 1
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if not row:
                continue
            if len(row) != 6:
                raise ParseError(f"line {lineno}: expected 6 fields, got {len(row)}")
            delay_s, drops_s, interval_s, congested_s, type_s, label_s = row
            if type_s not in tokens:
                raise ParseError(f"line {lineno}: unknown attack_type '{type_s}'")
            if congested_s not in ("0", "1"):
                raise ParseError(f"line {lineno}: congested must be 0 or 1, got '{congested_s}'")
            try:
                delay, drops, interval = float(delay_s), int(drops_s), float(interval_s)
                attack_type, label = tokens[type_s], int(label_s)
                if not (math.isfinite(delay) and delay > 0):
                    raise ValueError(f"packet_delay_ms must be finite and positive, got {delay}")
                if not (math.isfinite(interval) and interval > 0):
                    raise ValueError(f"transfer_interval_ms must be finite and positive, got {interval}")
                if drops < 0:
                    raise ValueError(f"packets_dropped must be nonnegative, got {drops}")
                if label not in (0, 1):
                    raise ValueError(f"label must be 0 or 1, got {label}")
                if (label == 1) != (attack_type is not AttackType.NONE):
                    raise ValueError(f"label {label} inconsistent with attack_type {attack_type.value}")
            except ValueError as err:
                raise ParseError(f"line {lineno}: {err}") from None
            code = list(AttackType).index(attack_type)
            for column, value in zip(columns, (delay, drops, interval, congested_s == "1", code)):
                column.append(value)
    return columns


def result_or_csv_error(reader, path):
    """``outcome(reader, path)``, or the text of the csv.Error it raises."""
    try:
        return outcome(reader, path)
    except csv.Error as err:
        return f"csv.Error: {err}"


def outcome(reader, path):
    """The columns ``reader`` returns as lists, or the message of its ParseError."""
    try:
        result = reader(path)
    except ParseError as err:
        return str(err)
    if isinstance(result, TrafficTable):
        return tuple(getattr(result, name).tolist() for name, _ in simulate._COLUMNS)
    return tuple(result)


VALID_ROW = ["2.5", "1", "90.0", "0", "none", "0"]
ATTACK_ROW = ["30.25", "3", "40.5", "1", "dos", "1"]
JUNK = [
    "abc", '"1.5"', '"a,b"', '"', "nan", "inf", "-inf", "-0", "1_0", " 3", "", "1e400", "-1", "2",
    "0", "1", "none", "dos", "worm", "\udcff", "1.5\udcfe", "+1", "01", "0x10", "1e-320", "\r", "\x00",
    # loadtxt pitfalls: bytes fields drop a trailing NUL and cut a long spelling; loadtxt refuses an int
    # spelt as a real, and a # line is data
    "0\x00", "probeXX", "2.0", "1e3", "+2", " 0", "#", "#2.5", "\xe9", "\xa02.5",
]

row_strategy = st.one_of(
    st.just(VALID_ROW),
    st.just(ATTACK_ROW),
    st.builds(
        lambda d, k, i, c, t: [repr(d), str(k), repr(i), str(int(c)), t.value, str(int(t is not AttackType.NONE))],
        st.floats(1e-3, 1e3),
        st.integers(0, 50),
        st.floats(1e-3, 1e3),
        st.booleans(),
        st.sampled_from(list(AttackType)),
    ),
)
mutation_strategy = st.one_of(
    st.tuples(st.just("field"), st.integers(0, 30), st.integers(0, 5), st.sampled_from(JUNK) | st.text(max_size=3)),
    st.tuples(st.just("blank"), st.integers(0, 30)),
    st.tuples(st.just("drop"), st.integers(0, 30), st.integers(0, 5)),
    st.tuples(st.just("extra"), st.integers(0, 30), st.sampled_from(JUNK)),
)


def write_rows(path, rows):
    lines = [CSV_HEADER] + [",".join(row) if row is not None else "" for row in rows]
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))


PLAIN_ROWS = [",".join(VALID_ROW if i % 3 else ATTACK_ROW) for i in range(12)]


def csv_text(edits=(), end="\n"):
    """A CSV of ``PLAIN_ROWS``, each ended by ``end``; ``edits`` maps a row index to the text of its line."""
    lines = [row + end for row in PLAIN_ROWS]
    for i, line in dict(edits).items():
        lines[i] = line
    return CSV_HEADER + "\n" + "".join(lines)


# CSVs that are not plain files (see simulate._plain_file), or plain ones with a faulty row
QUOTED_NEWLINE = PLAIN_ROWS[3][:-1] + '"1\n"\n'  # an attack label that spans lines 5 and 6
OFF_PLAIN_PATH = {
    "quoted_field": csv_text({6: '"' + PLAIN_ROWS[6].replace(",", '",', 1) + "\n"}),
    "quoted_newline_in_a_field": csv_text({3: QUOTED_NEWLINE}),
    "quoted_newline_then_fault": csv_text({3: QUOTED_NEWLINE, 9: "-1" + PLAIN_ROWS[9][5:] + "\n"}),
    "nul": csv_text({7: PLAIN_ROWS[7].replace("90.0", "90.\x000") + "\n"}),
    "no_final_newline": csv_text()[:-1],
    # split as one run of fields, each of these pairs up into two valid rows
    "five_then_seven_fields": csv_text({2: "2.5,1,90.0,0,none\n", 3: "0,2.5,1,90.0,0,none,0\n"}),
    "two_rows_joined_by_a_field": csv_text({2: PLAIN_ROWS[2] + ",0," + PLAIN_ROWS[2] + "\n"}),
    "plain_file_with_a_faulty_row": csv_text({5: "-1" + PLAIN_ROWS[5][3:] + "\n"}),
    # numpy's integer parser looks a non-ASCII character up past the end of C's isdigit table, so loadtxt
    # read this drop count as 706626, or crashed
    "astral_plane_drops": csv_text({4: PLAIN_ROWS[4].replace(",1,", ",\U000ac872,") + "\n"}),
    # float() reads this delay, but it is past the csv field size limit
    "oversized_delay": csv_text({6: "1." + "0" * 140_000 + PLAIN_ROWS[6][5:] + "\n"}),
}

# line ends that csv.reader and loadtxt's text file both split at; each of these files is plain
CR_LINE_ENDS = {
    "crlf": csv_text(end="\r\n"),
    "crlf_header": csv_text().replace("\n", "\r\n"),
    "lone_cr": csv_text({5: PLAIN_ROWS[5] + "\r"}),
    "cr_then_crlf": csv_text({5: PLAIN_ROWS[5] + "\r\r\n"}),  # a blank line between rows 5 and 6
    "cr_at_the_end": csv_text()[:-1] + "\r",
}

# CSVs on which np.loadtxt and the csv.reader path were seen to part, or might
LOADTXT_PITFALLS = {
    **CR_LINE_ENDS,
    "label_then_nul": csv_text({4: PLAIN_ROWS[4][:-1] + "0\x00\n"}),  # loadtxt reads the label as b"0"
    # loadtxt cuts a bytes field to its width: probeXXXX reads as b"probeXXX"
    "type_cut_to_its_width": csv_text({3: PLAIN_ROWS[3].replace("dos", "probeXXXX") + "\n"}),
    "label_cut_to_its_width": csv_text({3: PLAIN_ROWS[3][:-1] + "1XX\n"}),
    "header_only": CSV_HEADER + "\n",  # loadtxt warns that the input holds no data
    "hash_line": csv_text({5: "# a comment\n"}),
    "hash_field": csv_text({5: "#" + PLAIN_ROWS[5] + "\n"}),
    **{
        f"drops_{name}": csv_text({7: PLAIN_ROWS[7].replace(",1,", f",{spelling},") + "\n"})
        for name, spelling in (("real", "2.0"), ("exponent", "1e3"), ("underscore", "1_0"), ("plus", "+2"))
    },
    "space_before_flag": csv_text({2: PLAIN_ROWS[2].replace(",0,none,", ", 0,none,") + "\n"}),
    "space_before_label": csv_text({2: PLAIN_ROWS[2][:-1] + " 0\n"}),
    "space_after_type": csv_text({2: PLAIN_ROWS[2].replace("none", "none ") + "\n"}),
    "space_only_line": csv_text({2: "   \n"}),
    "spaces_around_reals": csv_text({2: PLAIN_ROWS[2].replace("2.5,", " 2.5 ,").replace("90.0", "\xa090.0") + "\n"}),
    "lone_cr_in_a_field": csv_text({8: PLAIN_ROWS[8].replace("90.0", "90\r.0") + "\n"}),
    "invalid_utf8_label": csv_text({9: PLAIN_ROWS[9][:-1] + "\udcff\n"}),
    "invalid_utf8_delay": csv_text({9: "2\udcfe" + PLAIN_ROWS[9][1:] + "\n"}),
    "latin1_label": csv_text({9: PLAIN_ROWS[9][:-1] + "\xe9\n"}),
    "oversized_label": csv_text({10: PLAIN_ROWS[10][:-1] + "0" * 140_000 + "\n"}),
    # a line past the csv field size limit whose fields are all within it reads on the csv.reader path
    "long_line_of_short_fields": csv_text({10: "2." + "5" * 70_000 + ",1,9." + "0" * 70_000 + ",0,none,0\n"}),
    "delay_out_of_range": csv_text({11: "1e400" + PLAIN_ROWS[11][3:] + "\n"}),
}


class TestReaderParity:
    @settings(max_examples=1000, deadline=None)
    @given(rows=st.lists(row_strategy, max_size=12), mutations=st.lists(mutation_strategy, max_size=4))
    def test_mutated_csv_matches_the_per_row_reader(self, tmp_path_factory, rows, mutations):
        rows = [list(row) for row in rows]
        for kind, at, *args in mutations:
            if not rows:
                break
            at %= len(rows)
            if kind == "blank":
                rows.insert(at, None)
            elif not rows[at]:
                continue
            elif kind == "field":
                rows[at][args[0] % len(rows[at])] = args[1]
            elif kind == "drop":
                del rows[at][args[0] % len(rows[at])]
            else:
                rows[at].append(args[0])
        path = tmp_path_factory.mktemp("parity") / "data.csv"
        write_rows(path, rows)
        assert outcome(read_csv, path) == outcome(oracle_read_csv, path)

    @pytest.mark.parametrize("blank", [None, 2, 3, 4])
    @pytest.mark.parametrize("bad", [2, 3, 4, 5, 9])
    @pytest.mark.parametrize("fault", [("0", "-1.0"), ("4", "worm"), ("1", "x")], ids=["value", "token", "convert"])
    def test_first_of_two_faults_is_named_by_its_file_line(self, tmp_path, blank, bad, fault):
        rows = [list(VALID_ROW) for _ in range(12)]
        rows[bad][int(fault[0])] = fault[1]
        rows[bad + 2][0] = "-5"  # a later fault must not win
        if blank is not None:
            rows.insert(blank, None)
        path = tmp_path / "data.csv"
        write_rows(path, rows)
        expected = outcome(oracle_read_csv, path)
        assert expected.startswith(f"line {bad + 2 + (blank is not None and blank <= bad)}:")
        assert outcome(read_csv, path) == expected

    @pytest.mark.parametrize("text", OFF_PLAIN_PATH.values(), ids=OFF_PLAIN_PATH.keys())
    def test_rows_off_the_plain_path(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        assert result_or_csv_error(read_csv, path) == result_or_csv_error(oracle_read_csv, path)

    @pytest.mark.parametrize("text", LOADTXT_PITFALLS.values(), ids=LOADTXT_PITFALLS.keys())
    def test_loadtxt_pitfalls_match_the_per_row_reader(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert result_or_csv_error(read_csv, path) == result_or_csv_error(oracle_read_csv, path)

    @pytest.mark.parametrize(
        "name, text",
        [("data.csv", text) for text in CR_LINE_ENDS.values()]
        # np.loadtxt given a path would open a file so named with a decompressor
        + [(f"data.csv{suffix}", csv_text()) for suffix in (".gz", ".bz2", ".xz", ".lzma")],
        ids=[*CR_LINE_ENDS, "gz", "bz2", "xz", "lzma"],
    )
    def test_plain_files_read_on_the_loadtxt_path(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_bytes(text.encode())
        with (
            mock.patch.object(simulate, "_row_fault", wraps=simulate._row_fault) as row_fault,
            mock.patch.object(simulate.np, "loadtxt", wraps=np.loadtxt) as loadtxt,
        ):
            table = read_csv(path)
        assert row_fault.call_count == 0
        assert outcome(lambda _: table, path) == outcome(oracle_read_csv, path)
        # loadtxt reads a path in chunks in C and a file object line by line
        (source,), _ = loadtxt.call_args
        if name == "data.csv":
            assert source == str(path) and os.path.isabs(source)
        else:
            assert not isinstance(source, str) and source.name == str(path)

    def test_a_relative_name_like_a_url_is_read_from_disk(self, tmp_path, monkeypatch):
        # numpy takes a relative http://host/data.csv for a URL, which it would try to download
        path = tmp_path / "http:" / "host" / "data.csv"
        path.parent.mkdir(parents=True)
        path.write_text(csv_text())
        monkeypatch.chdir(tmp_path)

        def no_download(*args, **kwargs):
            raise AssertionError("numpy tried to open a URL")

        monkeypatch.setattr(urllib.request, "urlopen", no_download)
        with mock.patch.object(simulate, "_row_fault", wraps=simulate._row_fault) as row_fault:
            table = read_csv("http://host/data.csv")
        assert row_fault.call_count == 0
        assert outcome(lambda _: table, path) == outcome(oracle_read_csv, path)

    def test_decompressed_suffixes_are_numpys(self):
        # np.lib._datasource is private: a numpy that adds a decompressor suffix fails here first
        openers = np.lib._datasource._file_openers
        assert sorted(simulate._DECOMPRESSED_SUFFIXES) == sorted(key for key in openers.keys() if key is not None)

    @pytest.mark.parametrize("field", ["congested", "attack_type"])  # 2 and 8 bytes wide; label is as congested
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_spelling_codes_match_a_lookup(self, field, data):
        spellings = {"attack_type": simulate._TYPE_CODES}.get(field, simulate._FLAGS)
        width = simulate._ROW_DTYPE[field].itemsize
        known = [s.encode() for s in spellings]
        near = [b"", b"\x00", *(s + b"X" * width for s in known), *(s[:-1] for s in known), *(s.upper() for s in known)]
        words = data.draw(st.lists(st.sampled_from(known + near) | st.binary(max_size=width), max_size=40))
        rows = np.zeros(len(words), simulate._ROW_DTYPE)
        rows[field] = [word[:width] for word in words]  # loadtxt cuts a field to its width
        lookup = dict(zip(known, range(len(known))))
        expected = [lookup.get(word, -1) for word in rows[field].tolist()]  # numpy drops trailing NULs
        assert simulate._spelling_codes(rows[field], spellings).tolist() == expected

    def test_record_after_a_multiline_field_is_named_by_its_file_line(self, tmp_path):
        # the attack label of row 3 spans file lines 5 and 6, so the faulty row 9 is on file line 12
        path = tmp_path / "data.csv"
        path.write_bytes(OFF_PLAIN_PATH["quoted_newline_then_fault"].encode())
        for reader in (read_csv, oracle_read_csv):
            with pytest.raises(ParseError, match=r"^line 12: packet_delay_ms must be finite and positive, got -1\.0$"):
                reader(path)

    @pytest.mark.parametrize("blanks", [(), (3,), (3, 4), (0, 7)])
    def test_blank_lines_are_skipped(self, tmp_path, blanks):
        rows = [list(VALID_ROW if i % 3 else ATTACK_ROW) for i in range(9)]
        for at in blanks:
            rows.insert(at, None)
        path = tmp_path / "data.csv"
        write_rows(path, rows)
        assert outcome(read_csv, path) == outcome(oracle_read_csv, path)
        assert len(read_csv(path)) == 9

    def test_fault_before_an_unreadable_row_is_reported_first(self, tmp_path):
        rows = [list(VALID_ROW) for _ in range(6)]
        rows[5][0] = "-1"
        rows.append(["1", "0" * 140_000, "1", "0", "none", "0"])  # past the csv field size limit
        path = tmp_path / "data.csv"
        write_rows(path, rows)
        with pytest.raises(ParseError, match="^line 7: packet_delay_ms"):
            read_csv(path)
        rows[5][0] = "1"
        write_rows(path, rows)
        with pytest.raises(csv.Error):
            read_csv(path)

    @pytest.mark.parametrize("field, spelling", [(5, " 1"), (5, "01"), (5, "+1"), (1, "+2")])
    def test_valid_spellings_a_writer_never_writes(self, tmp_path, field, spelling):
        # int() reads each spelling; a label spelt so misses the tail decoding and is read by csv.reader
        rows = [list(VALID_ROW if i % 3 else ATTACK_ROW) for i in range(12)]
        rows[9][field] = spelling
        path = tmp_path / "data.csv"
        write_rows(path, rows)
        expected = outcome(oracle_read_csv, path)
        assert isinstance(expected, tuple) and len(expected[0]) == 12
        assert outcome(read_csv, path) == expected

    def test_tail_lookup_holds_exactly_the_tails_the_writer_writes(self, tmp_path):
        # each of the ten tails write_csv writes decodes on the loadtxt path; a label spelt 01 does not
        flags, codes = zip(*((c, code) for c in (False, True) for code in range(len(AttackType))))
        table = TrafficTable([1.0] * 10, [0] * 10, [1.0] * 10, flags, codes)
        path = tmp_path / "tails.csv"
        write_csv(table, path)
        with open(path, newline="") as fh:
            tails = [",".join(row[3:]) + "\n" for row in list(csv.reader(fh))[1:]]
        assert sorted(tails) == sorted(simulate._ROW_TAILS)
        with mock.patch.object(simulate, "_row_fault", wraps=simulate._row_fault) as row_fault:
            assert read_csv(path) == table
        assert row_fault.call_count == 0
        path.write_text(path.read_text().replace("dos,1\n", "dos,01\n"))
        with mock.patch.object(simulate, "_row_fault", wraps=simulate._row_fault) as row_fault:
            assert read_csv(path) == table
        assert row_fault.call_count == 10

    def test_header_only_file_reads_without_a_warning(self, tmp_path):
        # loadtxt warns on a file with no rows; the warning must not reach a caller that shows warnings
        path = tmp_path / "data.csv"
        path.write_text(CSV_HEADER + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert len(read_csv(path)) == 0
        assert caught == []

    def test_a_pipe_is_read_once(self, tmp_path):
        # a second read of the pipe would find it empty, and the file would seem to have no header
        table = generate_dataset(ScenarioConfig(n_records=50, seed=4))
        write_csv(table, tmp_path / "data.csv")
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, (tmp_path / "data.csv").read_bytes())  # under a pipe's buffer, so it does not block
            os.close(write_end)
            assert read_csv(f"/dev/fd/{read_end}") == table
        finally:
            os.close(read_end)

    def test_drop_count_outside_int64_names_its_line(self, tmp_path):
        # the per-row reader accepted any Python int here
        rows = [list(VALID_ROW), list(VALID_ROW)]
        rows[1][1] = "9" * 30
        path = tmp_path / "data.csv"
        write_rows(path, rows)
        with pytest.raises(ParseError, match="^line 3: packets_dropped must fit in int64"):
            read_csv(path)


def oracle_on_grid(reals):
    # the bound first, so that reals * 1000 cannot overflow
    return bool((reals < simulate._GRID_BOUND).all() and (np.rint(reals * 1000.0) / 1000.0 == reals).all())


def oracle_write_csv(table, path):
    """The writer before the digit kernel: Python's % formats each field, with 3 decimals in a grid block."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for start in range(0, len(table), simulate._BLOCK_ROWS):
            block = table[start : start + simulate._BLOCK_ROWS]
            tails = block.congested * len(AttackType) + block.attack_code
            on_grid = oracle_on_grid(block.packet_delay_ms) and oracle_on_grid(block.transfer_interval_ms)
            fh.write("".join(map(("%.3f,%d,%.3f,%s" if on_grid else "%.17g,%d,%.17g,%s").__mod__, zip(
                block.packet_delay_ms.tolist(),
                block.packets_dropped.tolist(),
                block.transfer_interval_ms.tolist(),
                map(simulate._ROW_TAILS.__getitem__, tails.tolist()),
            ))))


# the fewest and most digits of a grid real and of a drop count, and where a digit is added
EDGE_STEPS = [1, 999, 1000, int(simulate._GRID_BOUND) * 1000 - 1]
EDGE_DROPS = [0, 9, 10, 2**63 - 1]
TAILS = 2 * len(AttackType)  # a tail is indexed by len(AttackType) * congested + attack code


def table_of(rows):
    """The table of (delay, drops, interval, tail index) rows."""
    delay, drops, interval, tail = (list(column) for column in zip(*rows)) if rows else ([],) * 4
    congested, code = ([divmod(t, len(AttackType))[i] for t in tail] for i in (0, 1))
    return TrafficTable(delay, drops, interval, congested, code)


def edge_rows():
    """Every tail once, with the edge grid reals and drop counts spread over the rows."""
    return [
        (EDGE_STEPS[i % 4] / 1000, EDGE_DROPS[i % 4], EDGE_STEPS[(i + 1) % 4] / 1000, i) for i in range(TAILS)
    ]


class TestWriterParity:
    """write_csv writes the bytes of the %-format writer, on grid blocks and 17-digit blocks alike."""

    def check(self, tmp_path, table):
        mine, oracle = tmp_path / "mine.csv", tmp_path / "oracle.csv"
        write_csv(table, mine)
        oracle_write_csv(table, oracle)
        assert mine.read_bytes() == oracle.read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(st.sampled_from(EDGE_STEPS), grid_steps).map(lambda k: k / 1000),
                st.one_of(st.sampled_from(EDGE_DROPS), st.integers(0, 2**63 - 1)),
                st.one_of(st.sampled_from(EDGE_STEPS), grid_steps).map(lambda k: k / 1000),
                st.integers(0, TAILS - 1),
            ),
            max_size=20,
        ),
        # (row, real) pairs that take a row's delay or interval off the grid, so its block is written with %.17g
        off_grid=st.lists(st.tuples(st.integers(0, 19), st.booleans(), extreme_reals), max_size=2),
        block_rows=st.sampled_from([1, 2, 3, 4096]),
    )
    def test_random_tables_match_the_percent_format_writer(self, tmp_path_factory, rows, off_grid, block_rows):
        for at, interval, real in off_grid:
            if at < len(rows):
                row = list(rows[at])
                row[2 if interval else 0] = real
                rows[at] = tuple(row)
        with mock.patch.object(simulate, "_BLOCK_ROWS", block_rows):
            self.check(tmp_path_factory.mktemp("parity"), table_of(rows))

    @pytest.mark.parametrize("block_rows", [1, 2, 3, 4096])
    @pytest.mark.parametrize("off_grid", [None, 0, 5, 9], ids=["on_grid", "first_row", "middle_row", "last_row"])
    def test_edge_table_matches_the_percent_format_writer(self, tmp_path, monkeypatch, block_rows, off_grid):
        rows = edge_rows()
        if off_grid is not None:
            rows[off_grid] = (1.0005, *rows[off_grid][1:])  # between two grid points
        monkeypatch.setattr(simulate, "_BLOCK_ROWS", block_rows)
        self.check(tmp_path, table_of(rows))

    def test_edge_table_text(self, tmp_path):
        path = tmp_path / "edges.csv"
        write_csv(table_of(edge_rows()[:4]), path)
        assert path.read_text().splitlines()[1:] == [
            "0.001,0,0.999,0,none,0",
            "0.999,9,1.000,0,probe,1",
            "1.000,10,8589934591.999,0,dos,1",
            "8589934591.999,9223372036854775807,0.001,0,u2r,1",
        ]

    @pytest.mark.parametrize("n,seed", [(1, 3), (600, 2), (20_000, 42)])
    def test_generated_tables_match_the_percent_format_writer(self, tmp_path, n, seed):
        self.check(tmp_path, generate_dataset(ScenarioConfig(n_records=n, seed=seed)))


def test_write_peak_allocation_stays_below_1_mb(tmp_path):
    table = generate_dataset(ScenarioConfig(n_records=100_000, seed=3))
    tracemalloc.start()
    try:
        write_csv(table, tmp_path / "traffic.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_read_peak_allocation_stays_near_the_table(tmp_path):
    path = tmp_path / "traffic.csv"
    write_csv(generate_dataset(ScenarioConfig(n_records=100_000, seed=3)), path)
    tracemalloc.start()
    try:
        table = read_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * table.nbytes


def write_quoted_header_csv(path, n):
    """Write ``n`` generated records to ``path``, with a quoted header name that keeps the file off the plain path."""
    write_csv(generate_dataset(ScenarioConfig(n_records=n, seed=3)), path)
    path.write_bytes(path.read_bytes().replace(b"packet_delay_ms", b'"packet_delay_ms"', 1))


def test_csv_reader_path_peak_allocation_stays_near_the_table(tmp_path):
    path = tmp_path / "traffic.csv"
    write_quoted_header_csv(path, 100_000)
    tracemalloc.start()
    try:
        table = read_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * table.nbytes


@pytest.mark.parametrize("source", ["generate_dataset", "read_csv"])
def test_each_input_builds_one_checked_table(tmp_path, source):
    n, path = 10_000, tmp_path / "traffic.csv"
    write_quoted_header_csv(path, n)  # read on the csv.reader path
    check = TrafficTable.__post_init__
    with mock.patch.object(TrafficTable, "__post_init__", autospec=True, side_effect=check) as spy:
        table = generate_dataset(ScenarioConfig(n_records=n)) if source == "generate_dataset" else read_csv(path)
    assert len(table) == n
    assert spy.call_count == 1


def test_generate_peak_allocation_stays_near_the_table():
    # each real column is computed in place in one buffer; computed by whole-array expressions, with
    # int64 attack codes and cell indices, the peak was 2.5 times the table
    config = ScenarioConfig(n_records=100_000, seed=3)
    tracemalloc.start()
    try:
        table = generate_dataset(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.8 * table.nbytes
