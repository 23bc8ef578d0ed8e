import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splineids.errors import ConfigError, ParseError
from splineids.simulate import (
    AttackType,
    CellParams,
    ScenarioConfig,
    TrafficRecord,
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
        write_csv([], path)
        assert path.read_text() == (
            "packet_delay_ms,packets_dropped,transfer_interval_ms,congested,attack_type,label\n"
        )
        assert read_csv(path) == []

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
        write_csv([record], path)
        assert read_csv(path) == [record]


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
