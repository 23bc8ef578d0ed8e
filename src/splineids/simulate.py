"""Seeded generator of synthetic VANET-style traffic records, plus CSV I/O.

One record models one monitored message observation. Per (class, congestion)
cell, packet delay and transfer interval are log-normal and packet drops are
Poisson. Attack delays sit well above normal delays so packet delay alone is
an informative predictor; the default cell parameters below were frozen after
tuning the end-to-end pipeline into the >95%-accuracy regime for all five
models (see README).

Randomness: a single PCG64 generator seeded from ``ScenarioConfig.seed``.
Draw order is fixed: first ``n_vehicles`` per-vehicle delay-jitter normals,
then per record: congestion uniform, attack uniform, attack-type uniform
(only when attacked), vehicle index, delay normal, drop Poisson, interval
normal.
"""

import csv
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ConfigError, ParseError


class AttackType(Enum):
    NONE = "none"
    PROBE = "probe"
    DOS = "dos"
    U2R = "u2r"
    R2U = "r2u"


ATTACK_TYPES = (AttackType.PROBE, AttackType.DOS, AttackType.U2R, AttackType.R2U)

MAX_COUNT = 1_000_000  # most records or vehicles a scenario may ask for

CSV_HEADER = "packet_delay_ms,packets_dropped,transfer_interval_ms,congested,attack_type,label"


def _is_finite_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class TrafficRecord:
    """One simulated network observation."""

    packet_delay_ms: float
    packets_dropped: int
    transfer_interval_ms: float
    congested: bool
    attack_type: AttackType
    label: int

    def __post_init__(self):
        if not (math.isfinite(self.packet_delay_ms) and self.packet_delay_ms > 0):
            raise ValueError(f"packet_delay_ms must be finite and positive, got {self.packet_delay_ms}")
        if not (math.isfinite(self.transfer_interval_ms) and self.transfer_interval_ms > 0):
            raise ValueError(f"transfer_interval_ms must be finite and positive, got {self.transfer_interval_ms}")
        if self.packets_dropped < 0:
            raise ValueError(f"packets_dropped must be nonnegative, got {self.packets_dropped}")
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")
        if (self.label == 1) != (self.attack_type is not AttackType.NONE):
            raise ValueError(f"label {self.label} inconsistent with attack_type {self.attack_type.value}")


@dataclass(frozen=True)
class CellParams:
    """Feature distributions for one (class, congestion) cell.

    ``delay_mu``/``interval_mu`` are means of ln(milliseconds); ``drop_rate``
    is a Poisson mean.
    """

    delay_mu: float
    delay_sigma: float
    drop_rate: float
    interval_mu: float
    interval_sigma: float

    def __post_init__(self):
        for name in ("delay_mu", "delay_sigma", "drop_rate", "interval_mu", "interval_sigma"):
            if not _is_finite_number(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.delay_sigma <= 0:
            raise ConfigError("delay_sigma must be > 0")
        if self.interval_sigma <= 0:
            raise ConfigError("interval_sigma must be > 0")
        if self.drop_rate < 0:
            raise ConfigError("drop_rate must be >= 0")


@dataclass(frozen=True)
class ScenarioConfig:
    """Scenario knobs; the defaults are the frozen default scenario."""

    n_records: int = 600
    n_vehicles: int = 52
    attack_fraction: float = 0.5
    congested_fraction: float = 0.3
    attack_mix: tuple[float, float, float, float] = (0.4, 0.3, 0.15, 0.15)
    normal_uncongested: CellParams = field(
        default_factory=lambda: CellParams(1.00, 0.35, 0.2, 4.60, 0.30)
    )
    normal_congested: CellParams = field(
        default_factory=lambda: CellParams(1.25, 0.40, 0.8, 4.75, 0.35)
    )
    attack_uncongested: CellParams = field(
        default_factory=lambda: CellParams(3.10, 0.40, 2.5, 3.70, 0.40)
    )
    attack_congested: CellParams = field(
        default_factory=lambda: CellParams(3.35, 0.45, 4.0, 3.90, 0.45)
    )
    vehicle_jitter_sigma: float = 0.05
    seed: int = 42

    def __post_init__(self):
        for name, lowest, highest in (("n_records", 1, MAX_COUNT), ("n_vehicles", 1, MAX_COUNT), ("seed", 0, math.inf)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not lowest <= value <= highest:
                raise ConfigError(f"{name} must be an integer in [{lowest}, {highest}], got {value!r}")
        for name, highest in (("attack_fraction", 1.0), ("congested_fraction", 1.0), ("vehicle_jitter_sigma", math.inf)):
            value = getattr(self, name)
            if not (_is_finite_number(value) and 0.0 <= value <= highest):
                raise ConfigError(f"{name} must be a finite number in [0, {highest}], got {value!r}")
        mix = self.attack_mix
        if not (
            isinstance(mix, (tuple, list))
            and len(mix) == len(ATTACK_TYPES)
            and all(_is_finite_number(w) and w >= 0 for w in mix)
            and 0 < sum(mix) < math.inf
        ):
            raise ConfigError(f"attack_mix needs 4 nonnegative weights with a positive finite sum, got {mix!r}")
        object.__setattr__(self, "attack_mix", tuple(float(w) for w in mix))


def _cell_for(config: ScenarioConfig, attacked: bool, congested: bool) -> CellParams:
    if attacked:
        return config.attack_congested if congested else config.attack_uncongested
    return config.normal_congested if congested else config.normal_uncongested


def generate_dataset(config: ScenarioConfig) -> list[TrafficRecord]:
    """Generate exactly ``config.n_records`` records, deterministic per seed."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    jitter = rng.normal(0.0, config.vehicle_jitter_sigma, config.n_vehicles)
    mix = np.asarray(config.attack_mix, dtype=float)
    cum_mix = np.cumsum(mix / mix.sum())

    records = []
    # an overflowing draw gives inf, which the record's own check rejects
    with np.errstate(over="ignore"):
        try:
            for _ in range(config.n_records):
                congested = bool(rng.random() < config.congested_fraction)
                attacked = bool(rng.random() < config.attack_fraction)
                attack_type = AttackType.NONE
                if attacked:
                    u = rng.random()
                    attack_type = ATTACK_TYPES[int(np.searchsorted(cum_mix, u, side="right"))]
                vehicle = int(rng.integers(0, config.n_vehicles))
                cell = _cell_for(config, attacked, congested)
                records.append(
                    TrafficRecord(
                        packet_delay_ms=float(np.exp(rng.normal(cell.delay_mu + jitter[vehicle], cell.delay_sigma))),
                        packets_dropped=int(rng.poisson(cell.drop_rate)),
                        transfer_interval_ms=float(np.exp(rng.normal(cell.interval_mu, cell.interval_sigma))),
                        congested=congested,
                        attack_type=attack_type,
                        label=1 if attacked else 0,
                    )
                )
        except ValueError as err:
            raise ConfigError(f"scenario draws an invalid record {len(records)}: {err}") from None
    return records


def write_csv(records: Iterable[TrafficRecord], path: str | Path) -> None:
    """Write records in the canonical schema; reals carry 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(
                f"{r.packet_delay_ms:.17g},{r.packets_dropped},"
                f"{r.transfer_interval_ms:.17g},{int(r.congested)},"
                f"{r.attack_type.value},{r.label}\n"
            )


def read_csv(path: str | Path) -> list[TrafficRecord]:
    """Read records written by :func:`write_csv`; errors carry the file line number."""
    tokens = {t.value: t for t in AttackType}
    records = []
    # undecodable bytes fail the field checks below, which name their line
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
                record = TrafficRecord(
                    packet_delay_ms=float(delay_s),
                    packets_dropped=int(drops_s),
                    transfer_interval_ms=float(interval_s),
                    congested=congested_s == "1",
                    attack_type=tokens[type_s],
                    label=int(label_s),
                )
            except ValueError as err:
                raise ParseError(f"line {lineno}: {err}") from None
            records.append(record)
    return records


_CELL_NAMES = ("normal_uncongested", "normal_congested", "attack_uncongested", "attack_congested")


def scenario_to_dict(config: ScenarioConfig) -> dict:
    cells = {name: getattr(config, name) for name in _CELL_NAMES}
    out = {
        "n_records": config.n_records,
        "n_vehicles": config.n_vehicles,
        "attack_fraction": config.attack_fraction,
        "congested_fraction": config.congested_fraction,
        "attack_mix": list(config.attack_mix),
        "vehicle_jitter_sigma": config.vehicle_jitter_sigma,
        "seed": config.seed,
    }
    for name, cell in cells.items():
        out[name] = {
            "delay_mu": cell.delay_mu,
            "delay_sigma": cell.delay_sigma,
            "drop_rate": cell.drop_rate,
            "interval_mu": cell.interval_mu,
            "interval_sigma": cell.interval_sigma,
        }
    return out


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build a config from a (possibly partial) dict; unknown keys are rejected."""
    if not isinstance(data, dict):
        raise ConfigError("scenario config must be a JSON object")
    defaults = scenario_to_dict(ScenarioConfig())
    unknown = set(data) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown scenario field(s): {', '.join(sorted(unknown))}")
    merged = {**defaults, **data}
    for name in _CELL_NAMES:
        value = merged[name]
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be an object of cell parameters")
        cell_unknown = set(value) - set(defaults[name])
        if cell_unknown:
            raise ConfigError(f"{name}: unknown field(s): {', '.join(sorted(cell_unknown))}")
        merged[name] = CellParams(**{**defaults[name], **value})
    return ScenarioConfig(**merged)
