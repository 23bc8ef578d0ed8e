import csv
import hashlib
import math
import tracemalloc
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

    Returns the columns (delays, drops, intervals, congested flags, attack codes) as lists.
    """
    tokens = {t.value: t for t in AttackType}
    columns = ([], [], [], [], [])
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or ",".join(header) != CSV_HEADER:
            raise ParseError(f"line 1: expected header '{CSV_HEADER}'")
        for lineno, row in enumerate(reader, start=2):
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
    "0", "1", "none", "dos", "worm", "\udcff", "1.5\udcfe", "+1", "01", "0x10", "1e-320",
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
    assert peak <= 3 * table.nbytes
