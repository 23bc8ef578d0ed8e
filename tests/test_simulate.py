import csv
import hashlib
import json
import math
import tracemalloc
from bisect import bisect_right
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
            ({"normal_uncongested": {"drop_rate": 1e30}}, "record 0: lam value too large"),
            ({"attack_uncongested": {"delay_mu": 800}}, "record 1: packet_delay_ms must be finite and positive, got inf"),
            (
                {"normal_congested": {"interval_mu": -800}, "congested_fraction": 0.5},
                "record 5: transfer_interval_ms must be finite and positive, got 0.0",
            ),
            # an invalid record drawn before the Poisson failure is the one reported
            (
                {"attack_congested": {"drop_rate": 1e30}, "normal_uncongested": {"delay_mu": 800}},
                "record 0: packet_delay_ms must be finite and positive, got inf",
            ),
        ],
    )
    def test_invalid_draw_names_the_first_bad_record(self, overrides, message):
        with pytest.raises(ConfigError, match=f"^scenario draws an invalid {message}$"):
            generate_dataset(scenario_from_dict(overrides))

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


# finite positive reals at both ends of the float64 range, subnormals and values that need 17 digits
extreme_reals = st.one_of(
    st.sampled_from([
        5e-324, 1e-320, 2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
        0.30000000000000004, 1.0000000000000002, 9007199254740993.0, 123456789.12345679,
    ]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_subnormal=True),
)


class TestCsvRoundTrip:
    def test_empty_list(self, tmp_path):
        path = tmp_path / "empty.csv"
        empty = TrafficTable.from_records([])
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
        table = TrafficTable.from_records([record])
        write_csv(table, path)
        assert read_csv(path) == table

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(extreme_reals, st.integers(0, 2**63 - 1), extreme_reals, st.booleans(), st.integers(0, 4)),
            max_size=14,
        )
    )
    def test_round_trip_is_bit_exact_through_plain_blocks(self, tmp_path_factory, rows):
        columns = list(zip(*rows)) or [[]] * 5
        table = TrafficTable(*columns)
        path = tmp_path_factory.mktemp("rt") / "table.csv"
        write_csv(table, path)
        with mock.patch.object(simulate, "_BLOCK_ROWS", 3), mock.patch.object(
            simulate, "_row_fault", wraps=simulate._row_fault
        ) as row_fault:
            result = read_csv(path)
        # no row of a written file leaves the plain path
        assert row_fault.call_count == 0
        for name, dtype in simulate._COLUMNS:
            got, want = getattr(result, name), getattr(table, name)
            assert got.dtype == dtype
            if dtype is np.float64:
                got, want = got.view(np.int64), want.view(np.int64)
            assert np.array_equal(got, want), name


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

    def test_unknown_cell_key_rejected(self):
        with pytest.raises(ConfigError, match="normal_uncongested"):
            scenario_from_dict({"normal_uncongested": {"delay_muu": 1.0}})


@pytest.mark.parametrize(
    "n,seed,digest",
    [
        (600, 42, "c0c93d5bbe4ddad917dee26aca34b40719a1344ec5374f9cf736f7835313b3d1"),
        (20000, 7, "87a07e277f9a9f70034376df844331135d980231267b10c992e81d83a1ae0513"),
    ],
)
def test_stream_1_csv_digest_is_pinned(tmp_path, n, seed, digest):
    # recorded with numpy 2.4; NumPy does not promise Generator streams across versions
    path = tmp_path / "traffic.csv"
    assert cli.main(["simulate", "--n", str(n), "--seed", str(seed), "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_stream_1_csv_digest_with_lemire_rejections_is_pinned(tmp_path):
    # a million vehicles: this stream redraws 6 of its vehicle indices after a Lemire rejection,
    # which at the default 52 vehicles happens about once in 1e8 draws; recorded with numpy 2.4
    config, path = tmp_path / "scenario.json", tmp_path / "traffic.csv"
    config.write_text(json.dumps({"n_vehicles": 1_000_000}))
    argv = ["simulate", "--config", str(config), "--n", "20000", "--seed", "3", "--out", str(path)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "271058bc1e63d6002a4a615d8ae617173bb5c19b1416b99cf6a77bbf51613fc4"
    )


def oracle_generate_dataset(config: ScenarioConfig) -> TrafficTable:
    """The scalar loop that ``generate_dataset`` replaced: numpy's own uniform and integer samplers."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    jitter = rng.normal(0.0, config.vehicle_jitter_sigma, config.n_vehicles).tolist()
    mix = np.asarray(config.attack_mix, dtype=float)
    cum_mix = np.cumsum(mix / mix.sum()).tolist()
    # indexed by 2 * attacked + congested
    cells = (config.normal_uncongested, config.normal_congested, config.attack_uncongested, config.attack_congested)
    congested_fraction, attack_fraction = config.congested_fraction, config.attack_fraction
    n_vehicles = config.n_vehicles
    # numpy draws normal(mu, sigma) as mu + sigma * standard_normal(), so the stream is the same
    uniform, integers, normal, poisson = rng.random, rng.integers, rng.standard_normal, rng.poisson

    congested, codes, log_delay, drops, log_interval = [], [], [], [], []
    failure = None
    try:
        for _ in range(config.n_records):
            c = uniform() < congested_fraction
            attacked = uniform() < attack_fraction
            codes.append(bisect_right(cum_mix, uniform()) + 1 if attacked else 0)
            vehicle = integers(0, n_vehicles)
            cell = cells[2 * attacked + c]
            congested.append(c)
            log_delay.append(cell.delay_mu + jitter[vehicle] + cell.delay_sigma * normal())
            drops.append(poisson(cell.drop_rate))
            log_interval.append(cell.interval_mu + cell.interval_sigma * normal())
    except ValueError as err:  # numpy's Poisson sampler rejects too large a rate
        failure = str(err)

    n = len(log_interval)  # the records drawn in full
    # an overflowing draw gives inf, which the table's check rejects
    with np.errstate(over="ignore"):
        delay, interval = np.exp(log_delay[:n]), np.exp(log_interval)
    try:
        table = TrafficTable(delay, drops, interval, congested[:n], codes[:n])
    except RowError as err:
        raise ConfigError(f"scenario draws an invalid record {err.row}: {err.reason}") from None
    if failure is not None:
        raise ConfigError(f"scenario draws an invalid record {n}: {failure}")
    return table


def generated(generate, config):
    """The columns ``generate`` returns as lists, or the message of its ConfigError."""
    try:
        table = generate(config)
    except ConfigError as err:
        return str(err)
    return tuple(getattr(table, name).tolist() for name, _ in simulate._COLUMNS)


# 1 makes no integer draw and 2 never rejects one; n rejects a 32-bit draw with odds (2**32 % n) / 2**32
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
    """``generate_dataset`` draws the stream of numpy's scalar samplers, word for word."""

    @settings(max_examples=200, deadline=None)
    @given(config=scenarios)
    def test_matches_the_scalar_loop(self, config):
        assert generated(generate_dataset, config) == generated(oracle_generate_dataset, config)

    @pytest.mark.parametrize("n_vehicles", VEHICLE_COUNTS)
    def test_matches_the_scalar_loop_beside_a_block_boundary(self, monkeypatch, n_vehicles):
        monkeypatch.setattr(simulate, "_BLOCK_ROWS", 7)
        config = ScenarioConfig(n_records=50, n_vehicles=n_vehicles, seed=n_vehicles)
        assert generate_dataset(config) == oracle_generate_dataset(config)

    def test_matches_the_scalar_loop_through_lemire_rejections(self):
        # the stream of the third pinned digest, which redraws 6 vehicle indices
        config = ScenarioConfig(n_records=20_000, n_vehicles=1_000_000, seed=3)
        assert generate_dataset(config) == oracle_generate_dataset(config)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"normal_uncongested": {"drop_rate": 1e30}},
            {"attack_uncongested": {"delay_mu": 800}},
            {"normal_congested": {"interval_mu": -800}, "congested_fraction": 0.5},
            {"attack_congested": {"drop_rate": 1e30}, "normal_uncongested": {"delay_mu": 800}},
            # the Poisson sampler fails after the first block
            {"attack_uncongested": {"drop_rate": 1e30}},
        ],
    )
    @pytest.mark.parametrize("block_rows", [1, 3, 4096])
    def test_invalid_draws_match_the_scalar_loop(self, monkeypatch, overrides, block_rows):
        monkeypatch.setattr(simulate, "_BLOCK_ROWS", block_rows)
        config = scenario_from_dict(overrides)
        message = generated(oracle_generate_dataset, config)
        assert isinstance(message, str)
        assert generated(generate_dataset, config) == message

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64),
        n_vehicles=st.sampled_from(VEHICLE_COUNTS),
        record=st.integers(0, 20),
        above=st.booleans(),
    )
    def test_a_congested_fraction_equal_to_a_drawn_uniform(self, seed, n_vehicles, record, above):
        # with no attacks and no drops, a record draws two uniforms, a vehicle index and two normals
        rng = np.random.Generator(np.random.PCG64(seed))
        rng.normal(size=n_vehicles)
        for _ in range(record):
            rng.random(), rng.random(), rng.integers(0, n_vehicles), rng.standard_normal(2)
        uniform = rng.random()  # the congestion uniform of ``record``
        config = scenario_from_dict({
            "n_records": record + 1,
            "n_vehicles": n_vehicles,
            "attack_fraction": 0.0,
            "congested_fraction": math.nextafter(uniform, 1.0) if above else uniform,
            "seed": seed,
            **{name: {"drop_rate": 0.0} for name in simulate._CELL_NAMES},
        })
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
        records = list(self.table)
        assert len(records) == len(self.table) == 50
        assert TrafficTable.from_records(records) == self.table
        assert records[3].packet_delay_ms == self.table.packet_delay_ms[3]

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

    def test_inconsistent_record_label(self):
        record = TrafficRecord(1.0, 0, 1.0, False, AttackType.DOS, 0)
        with pytest.raises(RowError, match="label 0 inconsistent with attack_type dos"):
            TrafficTable.from_records([record])


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


# CSVs in which some line is not a plain row, or a plain block holds a fault; read 4 rows to a block
QUOTED_NEWLINE = PLAIN_ROWS[3][:-1] + '"1\n"\n'  # an attack label that spans lines 5 and 6, two blocks
OFF_PLAIN_PATH = {
    "crlf": csv_text(end="\r\n"),
    "lone_cr": csv_text({5: PLAIN_ROWS[5] + "\r"}),
    "quoted_field": csv_text({6: '"' + PLAIN_ROWS[6].replace(",", '",', 1) + "\n"}),
    "quoted_newline_across_blocks": csv_text({3: QUOTED_NEWLINE}),
    "quoted_newline_then_fault": csv_text({3: QUOTED_NEWLINE, 9: "-1" + PLAIN_ROWS[9][5:] + "\n"}),
    "nul": csv_text({7: PLAIN_ROWS[7].replace("90.0", "90.\x000") + "\n"}),
    "no_final_newline": csv_text()[:-1],
    # split as one run of fields, each of these pairs up into two valid rows
    "five_then_seven_fields": csv_text({2: "2.5,1,90.0,0,none\n", 3: "0,2.5,1,90.0,0,none,0\n"}),
    "two_rows_joined_by_a_field": csv_text({2: PLAIN_ROWS[2] + ",0," + PLAIN_ROWS[2] + "\n"}),
    "plain_block_then_faulty_block": csv_text({5: "-1" + PLAIN_ROWS[5][3:] + "\n"}),
    # float() reads this delay, but it is past the csv field size limit
    "oversized_delay": csv_text({6: "1." + "0" * 140_000 + PLAIN_ROWS[6][5:] + "\n"}),
}


class TestReaderParity:
    @settings(max_examples=300, deadline=None)
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
        with mock.patch.object(simulate, "_BLOCK_ROWS", 3):
            assert outcome(read_csv, path) == outcome(oracle_read_csv, path)

    @pytest.mark.parametrize("blank", [None, 2, 3, 4])
    @pytest.mark.parametrize("bad", [2, 3, 4, 5, 9])
    @pytest.mark.parametrize("fault", [("0", "-1.0"), ("4", "worm"), ("1", "x")], ids=["value", "token", "convert"])
    def test_fault_beside_a_block_boundary(self, tmp_path, monkeypatch, blank, bad, fault):
        monkeypatch.setattr(simulate, "_BLOCK_ROWS", 4)
        rows = [list(VALID_ROW) for _ in range(12)]
        rows[bad][int(fault[0])] = fault[1]
        rows[bad + 2][0] = "-5"  # a later fault, maybe in the next block, must not win
        if blank is not None:
            rows.insert(blank, None)
        path = tmp_path / "data.csv"
        write_rows(path, rows)
        expected = outcome(oracle_read_csv, path)
        assert expected.startswith(f"line {bad + 2 + (blank is not None and blank <= bad)}:")
        assert outcome(read_csv, path) == expected

    @pytest.mark.parametrize("text", OFF_PLAIN_PATH.values(), ids=OFF_PLAIN_PATH.keys())
    def test_rows_off_the_plain_path(self, tmp_path, monkeypatch, text):
        monkeypatch.setattr(simulate, "_BLOCK_ROWS", 4)
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())

        def result(reader):
            try:
                return outcome(reader, path)
            except csv.Error as err:
                return f"csv.Error: {err}"

        assert result(read_csv) == result(oracle_read_csv)

    @pytest.mark.parametrize("block_rows", [4, 4096])
    def test_record_after_a_multiline_field_is_named_by_its_file_line(self, tmp_path, monkeypatch, block_rows):
        # the attack label of row 3 spans file lines 5 and 6, so the faulty row 9 is on file line 12
        monkeypatch.setattr(simulate, "_BLOCK_ROWS", block_rows)
        path = tmp_path / "data.csv"
        path.write_bytes(OFF_PLAIN_PATH["quoted_newline_then_fault"].encode())
        for reader in (read_csv, oracle_read_csv):
            with pytest.raises(ParseError, match=r"^line 12: packet_delay_ms must be finite and positive, got -1\.0$"):
                reader(path)

    @pytest.mark.parametrize("blanks", [(), (3,), (3, 4), (0, 7)])
    def test_blank_lines_beside_a_block_boundary(self, tmp_path, monkeypatch, blanks):
        monkeypatch.setattr(simulate, "_BLOCK_ROWS", 4)
        rows = [list(VALID_ROW if i % 3 else ATTACK_ROW) for i in range(9)]
        for at in blanks:
            rows.insert(at, None)
        path = tmp_path / "data.csv"
        write_rows(path, rows)
        assert outcome(read_csv, path) == outcome(oracle_read_csv, path)
        assert len(read_csv(path)) == 9

    def test_fault_before_an_unreadable_row_is_reported_first(self, tmp_path, monkeypatch):
        monkeypatch.setattr(simulate, "_BLOCK_ROWS", 4)
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

    def test_drop_count_outside_int64_names_its_line(self, tmp_path):
        # the per-row reader accepted any Python int here
        rows = [list(VALID_ROW), list(VALID_ROW)]
        rows[1][1] = "9" * 30
        path = tmp_path / "data.csv"
        write_rows(path, rows)
        with pytest.raises(ParseError, match="^line 3: packets_dropped must fit in int64"):
            read_csv(path)


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


def test_csv_reader_path_peak_allocation_stays_near_the_table(tmp_path):
    # \r\n line ends keep every row off the plain path, so each one goes through csv.reader
    path = tmp_path / "traffic.csv"
    write_csv(generate_dataset(ScenarioConfig(n_records=100_000, seed=3)), path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    tracemalloc.start()
    try:
        table = read_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * table.nbytes


def test_generate_peak_allocation_stays_near_the_table():
    config = ScenarioConfig(n_records=100_000, seed=3)
    tracemalloc.start()
    try:
        table = generate_dataset(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * table.nbytes
