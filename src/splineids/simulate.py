"""Seeded generator of synthetic VANET-style traffic records, plus CSV I/O.

One record models one monitored message observation. Per (class, congestion)
cell, packet delay and transfer interval are log-normal and packet drops are
Poisson. Attack delays sit well above normal delays so packet delay alone is
an informative predictor; the default cell parameters below were frozen after
tuning the end-to-end pipeline into the >95%-accuracy regime for all five
models (see README).

Records travel as a :class:`TrafficTable`: one numpy column per field (packet
delay and transfer interval float64, packet drops int64, the congestion flag
bool, the attack type an int8 code into ``AttackType``), with the label
derived from the attack code. The table checks all its columns at once when
it is built, against the value rule ``_value_fault``; iterating it yields
:class:`TrafficRecord` rows.

Randomness: a single PCG64 generator seeded from ``ScenarioConfig.seed``.
Draw order is fixed: first ``n_vehicles`` per-vehicle delay-jitter normals,
then per record: congestion uniform, attack uniform, attack-type uniform
(only when attacked), vehicle index, delay normal, drop Poisson, interval
normal. These scalar draws are stream 1, the stream a seed reproduces; the
exponentials that turn log-delays and log-intervals into milliseconds run
once over each column afterwards. Stream 1 is defined by PCG64's 64-bit
words, as numpy's ``Generator`` reads them:

- a uniform is ``(word >> 11) * 2**-53`` (``Generator.random()``), one word
  each; the loop tests ``u < f`` as ``word < ceil(f * 2**53) << 11``, which
  is the same test for every f in [0, 1];
- the vehicle index is ``Generator.integers(0, n_vehicles)``: Lemire's
  multiply-and-reject on 32-bit draws ``x``, giving ``x * n >> 32`` unless
  the low 32 bits of ``x * n`` fall below ``2**32 % n``, which draws again.
  A 32-bit draw is the low half of a fresh word, and the high half is kept
  for the next 32-bit draw; one vehicle makes no draw;
- the normals and Poisson drops are numpy's scalar ``standard_normal`` and
  ``poisson``, called on the same generator.

The CSV reader and writer go ``_BLOCK_ROWS`` rows at a time, so neither holds
the whole file as text. The order in which a CSV row's faults are checked
lives in one per-row rule, ``_row_fault``.

A plain row is a line that ends in a newline, has exactly six
comma-separated fields, holds no quote, carriage return or NUL, and is no
longer than ``csv.field_size_limit()``; ``csv.reader`` splits it exactly as
``line[:-1].split(",")`` does. The reader splits a block of plain rows with
string operations and converts its columns with ``_table_of``. From the
first block that is not all plain rows, or that fails a check, every row
goes through ``csv.reader`` and is checked by ``_row_fault`` as it is read;
the first faulty row raises, and each ``_BLOCK_ROWS`` rows that pass are
converted with ``_table_of``.
"""

import csv
import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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
    """One simulated network observation: a row of a :class:`TrafficTable`."""

    packet_delay_ms: float
    packets_dropped: int
    transfer_interval_ms: float
    congested: bool
    attack_type: AttackType
    label: int


_ATTACK_CODES = {t: code for code, t in enumerate(AttackType)}  # NONE is 0

# the columns of a table, in CSV order, with their dtypes
_COLUMNS = (
    ("packet_delay_ms", np.float64),
    ("packets_dropped", np.int64),
    ("transfer_interval_ms", np.float64),
    ("congested", np.bool_),
    ("attack_code", np.int8),
)


class RowError(ValueError):
    """A table row fails a column check; ``row`` is the first row that does."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason


def _value_fault(delay: float, drops: int, interval: float, code: int) -> str | None:
    """The first value rule a row breaks, or None.

    The rules, in order: the delay, then the interval, must be finite and
    positive; the drop count must be nonnegative; the attack code must index
    ``AttackType``.
    """
    if not 0 < delay < math.inf:
        return f"packet_delay_ms must be finite and positive, got {delay}"
    if not 0 < interval < math.inf:
        return f"transfer_interval_ms must be finite and positive, got {interval}"
    if drops < 0:
        return f"packets_dropped must be nonnegative, got {drops}"
    if not 0 <= code < len(AttackType):
        return f"unknown attack code {code}"
    return None


@dataclass(frozen=True, eq=False)
class TrafficTable:
    """Traffic records as read-only numpy columns; row ``i`` of each is record ``i``.

    Each column is converted to its dtype in ``_COLUMNS``; ``attack_code``
    indexes ``AttackType`` (0 is ``NONE``). Every row is checked at once
    against the value rule, ``_value_fault``; the first row that breaks it
    raises :class:`RowError` with that rule's message.
    """

    packet_delay_ms: np.ndarray
    packets_dropped: np.ndarray
    transfer_interval_ms: np.ndarray
    congested: np.ndarray
    attack_code: np.ndarray

    def __post_init__(self):
        for name, dtype in _COLUMNS:
            column = np.asarray(getattr(self, name), dtype=dtype).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        shapes = {column.shape for column in self._columns()}
        if len(shapes) != 1 or len(next(iter(shapes))) != 1:
            raise ValueError(f"columns must be 1-D and of one length, got shapes {sorted(shapes)}")
        delay, drops, interval, _, code = self._columns()
        good = (delay > 0) & (delay < math.inf) & (interval > 0) & (interval < math.inf)
        good &= (drops >= 0) & (code >= 0) & (code < len(AttackType))
        if not good.all():
            row = int(good.argmin())
            raise RowError(row, _value_fault(*(column[row].item() for column in (delay, drops, interval, code))))

    @classmethod
    def from_records(cls, records: Iterable[TrafficRecord]) -> "TrafficTable":
        """The table of ``records``; a label that disagrees with its attack type is a RowError."""
        records = list(records)
        for i, r in enumerate(records):
            if r.label != int(r.attack_type is not AttackType.NONE):
                raise RowError(i, f"label {r.label} inconsistent with attack_type {r.attack_type.value}")
        return cls(
            [r.packet_delay_ms for r in records],
            [r.packets_dropped for r in records],
            [r.transfer_interval_ms for r in records],
            [r.congested for r in records],
            [_ATTACK_CODES[r.attack_type] for r in records],
        )

    def _columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name, _ in _COLUMNS)

    @property
    def label(self) -> np.ndarray:
        """1 where the record is an attack, else 0 (int64)."""
        return (self.attack_code != 0).astype(np.int64)

    @property
    def nbytes(self) -> int:
        return sum(column.nbytes for column in self._columns())

    def __len__(self) -> int:
        return len(self.packet_delay_ms)

    def __getitem__(self, rows) -> "TrafficTable":
        """The table of ``rows``: a slice, an array of row indices or a boolean mask."""
        return TrafficTable(*(column[rows] for column in self._columns()))

    def __iter__(self) -> Iterator[TrafficRecord]:
        types = tuple(AttackType)
        for delay, drops, interval, congested, code in zip(*(c.tolist() for c in self._columns())):
            yield TrafficRecord(delay, drops, interval, congested, types[code], int(code != 0))

    def __eq__(self, other):
        if not isinstance(other, TrafficTable):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self._columns(), other._columns()))


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


_BLOCK_ROWS = 4096  # records drawn, or CSV rows read or written, at a time


def _concat(tables: Sequence[TrafficTable]) -> TrafficTable:
    return TrafficTable(*(np.concatenate(column) for column in zip(*(t._columns() for t in tables))))


def generate_dataset(config: ScenarioConfig) -> TrafficTable:
    """Generate exactly ``config.n_records`` records, deterministic per seed.

    Stream 1 is drawn as the module docstring says, ``_BLOCK_ROWS`` records
    at a time; each block is checked as a table before the next is drawn.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    jitter = rng.normal(0.0, config.vehicle_jitter_sigma, config.n_vehicles).tolist()
    mix = np.asarray(config.attack_mix, dtype=float)
    cum_mix = np.cumsum(mix / mix.sum()).tolist()
    # indexed by 2 * attacked + congested
    cells = (config.normal_uncongested, config.normal_congested, config.attack_uncongested, config.attack_congested)
    # a uniform (word >> 11) * 2**-53 is below f exactly when word is below ceil(f * 2**53) << 11
    congested_below = math.ceil(config.congested_fraction * 2.0**53) << 11
    attacked_below = math.ceil(config.attack_fraction * 2.0**53) << 11
    n_vehicles = config.n_vehicles
    reject_below = 2**32 % n_vehicles  # Lemire's threshold for a 32-bit draw
    # numpy draws normal(mu, sigma) as mu + sigma * standard_normal(), so the stream is the same
    word, normal, poisson = rng.bit_generator.random_raw, rng.standard_normal, rng.poisson
    half = None  # the high half of a word whose low half was a 32-bit draw

    tables = []
    for start in range(0, config.n_records, _BLOCK_ROWS):
        congested, codes, log_delay, drops, log_interval = [], [], [], [], []
        failure = None
        try:
            for _ in range(min(_BLOCK_ROWS, config.n_records - start)):
                c = word() < congested_below
                attacked = word() < attacked_below
                codes.append(bisect_right(cum_mix, (word() >> 11) * 2.0**-53) + 1 if attacked else 0)
                vehicle = 0
                if n_vehicles > 1:
                    while True:
                        if half is None:
                            x = word()
                            x, half = x & 0xFFFFFFFF, x >> 32
                        else:
                            x, half = half, None
                        x *= n_vehicles
                        if x & 0xFFFFFFFF >= reject_below:
                            break
                    vehicle = x >> 32
                cell = cells[2 * attacked + c]
                congested.append(c)
                log_delay.append(cell.delay_mu + jitter[vehicle] + cell.delay_sigma * normal())
                drops.append(poisson(cell.drop_rate))
                log_interval.append(cell.interval_mu + cell.interval_sigma * normal())
        except ValueError as err:  # numpy's Poisson sampler rejects too large a rate
            failure = str(err)

        n = len(log_interval)  # the records of this block drawn in full
        # an overflowing draw gives inf, which the table's check rejects
        with np.errstate(over="ignore"):
            delay, interval = np.exp(log_delay[:n]), np.exp(log_interval)
        try:
            tables.append(TrafficTable(delay, drops, interval, congested[:n], codes[:n]))
        except RowError as err:
            raise ConfigError(f"scenario draws an invalid record {start + err.row}: {err.reason}") from None
        if failure is not None:
            raise ConfigError(f"scenario draws an invalid record {start + n}: {failure}")
    return _concat(tables)


# the last three fields of a written row, indexed by len(AttackType) * congested + attack code
_ROW_TAILS = tuple(f"{c},{t.value},{int(t is not AttackType.NONE)}\n" for c in (0, 1) for t in AttackType)


def write_csv(table: TrafficTable, path: str | Path) -> None:
    """Write ``table`` in the canonical schema; reals carry 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start : start + _BLOCK_ROWS]
            tails = block.congested * len(AttackType) + block.attack_code
            fh.write("".join(
                f"{delay:.17g},{drops},{interval:.17g},{_ROW_TAILS[tail]}"
                for delay, drops, interval, tail in zip(
                    block.packet_delay_ms.tolist(),
                    block.packets_dropped.tolist(),
                    block.transfer_interval_ms.tolist(),
                    tails.tolist(),
                )
            ))


_TYPE_CODES = {t.value: code for t, code in _ATTACK_CODES.items()}
_FLAGS = {"0": False, "1": True}


def _row_fault(row: list[str]) -> str | None:
    """The first check the csv ``row`` fails, or None.

    The checks, in order: the field count, the attack type, the congested
    flag, the conversion of each numeric field (a drop count must also fit
    in int64), the value rule ``_value_fault``, then the label: 0 or 1, and
    1 exactly when the record is an attack.
    """
    if len(row) != 6:
        return f"expected 6 fields, got {len(row)}"
    delay_s, drops_s, interval_s, flag_s, type_s, label_s = row
    if type_s not in _TYPE_CODES:
        return f"unknown attack_type '{type_s}'"
    if flag_s not in _FLAGS:
        return f"congested must be 0 or 1, got '{flag_s}'"
    try:
        delay, drops, interval, label = float(delay_s), np.int64(int(drops_s)), float(interval_s), int(label_s)
    except OverflowError:  # only np.int64 overflows
        return f"packets_dropped must fit in int64, got {drops_s}"
    except ValueError as err:
        return str(err)
    code = _TYPE_CODES[type_s]
    fault = _value_fault(delay, drops, interval, code)
    if fault is not None:
        return fault
    if label not in (0, 1):
        return f"label must be 0 or 1, got {label}"
    if label != (code != 0):
        return f"label {label} inconsistent with attack_type {type_s}"
    return None


def _table_of(columns: Iterable[Sequence[str]]) -> TrafficTable | None:
    """The table of six string columns in CSV order, or None if a field fails a conversion or a check.

    The checks are the table's value rule and then the label, which must be
    1 exactly when the record is an attack.
    """
    try:
        delay_s, drops_s, interval_s, flag_s, type_s, label_s = columns
        n = len(delay_s)
        codes = np.fromiter(map(_TYPE_CODES.__getitem__, type_s), np.int8, n)
        table = TrafficTable(
            np.fromiter(map(float, delay_s), np.float64, n),
            np.fromiter(map(int, drops_s), np.int64, n),
            np.fromiter(map(float, interval_s), np.float64, n),
            np.fromiter(map(_FLAGS.__getitem__, flag_s), np.bool_, n),
            codes,
        )
        if np.array_equal(np.fromiter(map(int, label_s), np.int64, n), codes != 0):
            return table
    except (KeyError, ValueError, OverflowError):
        pass
    return None


def _plain_block(lines: list[str]) -> TrafficTable | None:
    """The table of ``lines`` if each is a plain row (see the module docstring), or None.

    None also when a field fails a conversion or a check, so that the
    ``csv.reader`` path reports it.
    """
    text = "".join(lines)
    if '"' in text or "\r" in text or "\0" in text or max(map(len, lines)) > csv.field_size_limit():
        return None
    n = len(lines)
    # each newline becomes a field of its own, so the newline of line k must be field 7k + 6
    fields = text.replace("\n", ",\n,").split(",")
    if len(fields) != 7 * n + 1 or fields[6::7].count("\n") != n:
        return None
    columns = [fields[i : 7 * n : 7] for i in range(6)]
    del text, fields  # free the block's text before the conversions allocate
    return _table_of(columns)


def read_csv(path: str | Path) -> TrafficTable:
    """Read a table written by :func:`write_csv`; errors carry the file line number."""
    tables, rows, line = [], [], 2
    # undecodable bytes fail the field checks, which name their line
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None or ",".join(header) != CSV_HEADER:
            raise ParseError(f"line 1: expected header '{CSV_HEADER}'")
        while (lines := list(islice(fh, _BLOCK_ROWS))) and (table := _plain_block(lines)) is not None:
            tables.append(table)
            line += len(lines)
        # from the first block that is not plain, or fails a check, to the end of the file, each
        # row is checked as it is read; a row is numbered by the file line it starts on, as a
        # quoted field may hold newlines
        reader, first = csv.reader(chain(lines, fh)), line
        for row in reader:
            if row:
                fault = _row_fault(row)
                if fault is not None:
                    raise ParseError(f"line {line}: {fault}")
                rows.append(row)
                if len(rows) == _BLOCK_ROWS:
                    tables.append(_table_of(zip(*rows)))
                    rows = []
            line = first + reader.line_num
    tables.append(_table_of(zip(*rows) if rows else ((),) * 6))
    return _concat(tables)


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
