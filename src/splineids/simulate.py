"""Seeded generator of synthetic VANET-style traffic records, plus CSV I/O.

One record models one monitored message observation. Per (class, congestion)
cell, packet delay and transfer interval are log-normal and packet drops are
Poisson. Attack delays sit well above normal delays so packet delay alone is
an informative predictor; the default cell parameters below were frozen after
tuning the end-to-end pipeline into the >95%-accuracy regime for all five
models (see README). Delays and intervals are recorded at a 1 µs capture
resolution, as a pcap timestamp is: each drawn value in ms is rounded to the
nearest k / 1000 (``_to_grid``), and one below 0.5 µs, which rounds to 0, is
an invalid record.

Records travel as a :class:`TrafficTable`: one numpy column per field (packet
delay and transfer interval float64, packet drops int64, the congestion flag
bool, the attack type an int8 code into ``AttackType``), with the label
derived from the attack code. The value rule ``_value_fault`` runs where
values enter the program: building a table (from columns, from a generated
scenario or from a CSV file) checks all its columns at once, while rows taken
from a checked table by indexing are not checked again.
Iterating a table yields :class:`TrafficRecord` rows.

Randomness: one PCG64 stream per column, seeded by the children of
``np.random.SeedSequence(ScenarioConfig.seed).spawn(8)`` in this order:

0. the ``n_vehicles`` per-vehicle delay-jitter normals;
1. the congestion uniforms (congested when ``u < congested_fraction``);
2. the attack uniforms (attacked when ``u < attack_fraction``);
3. the attack-type uniforms, one for every record, through the cumulative
   ``attack_mix`` (see ``_attack_type_index``);
4. the vehicle-index uniforms: the index ``floor(u * n_vehicles)`` is at
   most ``n_vehicles - 1`` for every count up to ``MAX_COUNT``, and its odds
   differ from a uniform integer's by at most ``n_vehicles * 2**-53``;
5. the delay normals;
6. the Poisson drops, at each record's cell rate;
7. the interval normals.

Each column is drawn whole, and a generated scenario, like a file read,
is built as one table. Only the CSV writer goes in blocks, ``_BLOCK_ROWS``
rows at a time, so it never holds the whole file as text. It writes a
block's reals with 3 decimals when they all lie on the 1 µs grid below
``_GRID_BOUND`` ms, and with 17 significant digits otherwise; either
spelling reads back bit-exact. A grid block is spelt from integers over the
whole block: the int64 k of each real, and each drop count, becomes a
digits × points array of ASCII bytes (``_digits``), whose text is what
``%.3f`` and ``%d`` print. ``read_csv`` reads a plain file (ASCII, with no
quote, NUL or over-long line; see ``_plain_file``) with one ``np.loadtxt``
call and decodes its (congested, attack_type, label) bytes against the
spellings ``write_csv`` writes. Any other file, or one that ``loadtxt``
refuses or whose rows fail a check, is read again from its first line with
``csv.reader``: one per-row rule, ``_row_fault``, checks each row in a fixed
order and appends its converted fields to typed columns, and the first
faulty row raises with its file line.
"""

import contextlib
import csv
import json
import math
import numbers
import warnings
from array import array
from dataclasses import dataclass, field, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, ParseError, SplineIdsError


class AttackType(Enum):
    NONE = "none"
    PROBE = "probe"
    DOS = "dos"
    U2R = "u2r"
    R2U = "r2u"


ATTACK_TYPES = (AttackType.PROBE, AttackType.DOS, AttackType.U2R, AttackType.R2U)

MAX_COUNT = 1_000_000  # most records or vehicles a scenario may ask for

CSV_HEADER = "packet_delay_ms,packets_dropped,transfer_interval_ms,congested,attack_type,label"


def checked_int(name: str, value, lowest: int, highest: float = math.inf) -> int:
    """``value`` stored as an int; a stored int outside ``[lowest, highest]``, or a non-integer, is a ConfigError."""
    number = int(value) if isinstance(value, numbers.Integral) and not isinstance(value, bool) else None
    if number is None or not lowest <= number <= highest:
        raise ConfigError(f"{name} must be an integer in [{lowest}, {highest}], got {value!r}")
    return number


def checked_float(name: str, value, lowest: float = -math.inf, highest: float = math.inf, open_: bool = False) -> float:
    """``value`` stored as a float; a stored float that is not finite and within the bounds is a ConfigError.

    The bounds are closed, ``[lowest, highest]``, or with ``open_``, ``(lowest, highest)``; the message
    names them unless both are infinite.
    """
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int or a Fraction beyond the float range
            number = float(value)
    inside = lowest < number < highest if open_ else lowest <= number <= highest
    if not (inside and math.isfinite(number)):
        interval = ("({}, {})" if open_ else "[{}, {}]").format(lowest, highest)
        bounds = "" if (lowest, highest) == (-math.inf, math.inf) else f" in {interval}"
        raise ConfigError(f"{name} must be a finite number{bounds}, got {value!r}")
    return number


@dataclass(frozen=True)
class TrafficRecord:
    """One simulated network observation: a row of a :class:`TrafficTable`."""

    packet_delay_ms: float
    packets_dropped: int
    transfer_interval_ms: float
    congested: bool
    attack_type: AttackType
    label: int


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

    Values enter a table only through its five columns, each converted to its
    dtype in ``_COLUMNS``; ``attack_code`` indexes ``AttackType`` (0 is
    ``NONE``) and the label is derived from it. Building a table runs the
    value rule, ``_value_fault``, on every row at once, and the first row
    that breaks the rule raises :class:`RowError` with that rule's message.
    Rows taken from a checked table (``table[rows]``) are not checked again;
    they keep the read-only columns and the 1-D shape check.
    """

    packet_delay_ms: np.ndarray
    packets_dropped: np.ndarray
    transfer_interval_ms: np.ndarray
    congested: np.ndarray
    attack_code: np.ndarray

    def __post_init__(self):
        self._freeze()
        delay, drops, interval, _, code = self._columns()
        good = (delay > 0) & (delay < math.inf) & (interval > 0) & (interval < math.inf)
        good &= (drops >= 0) & (code >= 0) & (code < len(AttackType))
        if not good.all():
            row = int(good.argmin())
            raise RowError(row, _value_fault(*(column[row].item() for column in (delay, drops, interval, code))))

    def _freeze(self) -> None:
        """Convert the columns to read-only arrays of their dtypes, which must be 1-D and of one length."""
        for name, dtype in _COLUMNS:
            column = np.asarray(getattr(self, name), dtype=dtype).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        shapes = {column.shape for column in self._columns()}
        if len(shapes) != 1 or len(next(iter(shapes))) != 1:
            raise ValueError(f"columns must be 1-D and of one length, got shapes {sorted(shapes)}")

    def _columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name, _ in _COLUMNS)

    @property
    def label(self) -> np.ndarray:
        """1 where the record is an attack, else 0 (int64)."""
        return (self.attack_code != 0).astype(np.int64)

    @property
    def nbytes(self) -> int:
        """The bytes the columns keep alive: the buffer a column views, counted once, in place of the column."""
        buffers = {id(b): b for b in (column if column.base is None else column.base for column in self._columns())}
        return sum(buffer.nbytes for buffer in buffers.values())

    def __len__(self) -> int:
        return len(self.packet_delay_ms)

    def __getitem__(self, rows) -> "TrafficTable":
        """The table of ``rows``: a slice, an array of row indices or a boolean mask, not checked again."""
        table = object.__new__(TrafficTable)
        for (name, _), column in zip(_COLUMNS, self._columns()):
            object.__setattr__(table, name, column[rows])
        table._freeze()
        return table

    def __iter__(self) -> Iterator[TrafficRecord]:
        types = tuple(AttackType)
        for delay, drops, interval, congested, code in zip(*(c.tolist() for c in self._columns())):
            yield TrafficRecord(delay, drops, interval, congested, types[code], int(code != 0))

    def __eq__(self, other):
        if not isinstance(other, TrafficTable):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self._columns(), other._columns()))


# the bounds of the cell parameters that have any, as checked_float takes them; a mean of ln(ms) is any number
_CELL_BOUNDS = {"delay_sigma": (0, math.inf, True), "drop_rate": (0, math.inf), "interval_sigma": (0, math.inf, True)}


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
        # stored as floats: the config digest's JSON rejects a Fraction or np.float32, and writes an int as 1, not 1.0
        for name, value in tuple(vars(self).items()):
            object.__setattr__(self, name, checked_float(name, value, *_CELL_BOUNDS.get(name, ())))


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
        # each number is stored as a Python int or float, which the config digest encodes
        for name, lowest, highest in (("n_records", 1, MAX_COUNT), ("n_vehicles", 1, MAX_COUNT), ("seed", 0, math.inf)):
            object.__setattr__(self, name, checked_int(name, getattr(self, name), lowest, highest))
        for name, highest in (("attack_fraction", 1), ("congested_fraction", 1), ("vehicle_jitter_sigma", math.inf)):
            object.__setattr__(self, name, checked_float(name, getattr(self, name), 0, highest))
        mix = self.attack_mix
        weights = tuple(checked_float("attack_mix", w, 0) for w in mix) if isinstance(mix, (tuple, list)) else ()
        if len(weights) != len(ATTACK_TYPES) or not 0 < sum(weights) < math.inf:
            raise ConfigError(f"attack_mix needs 4 nonnegative weights with a positive finite sum, got {mix!r}")
        object.__setattr__(self, "attack_mix", weights)
        for name in _CELL_NAMES:
            if not isinstance(getattr(self, name), CellParams):
                raise ConfigError(f"{name} must be a CellParams, got {getattr(self, name)!r}")


# the four cells of a scenario, indexed by 2 * attacked + congested
_CELL_NAMES = ("normal_uncongested", "normal_congested", "attack_uncongested", "attack_congested")


_BLOCK_ROWS = 4096  # rows written at a time


def generate_dataset(config: ScenarioConfig) -> TrafficTable:
    """Generate exactly ``config.n_records`` records, deterministic per seed.

    Each column is drawn whole, as the module docstring says, the delays and
    intervals are rounded to the 1 µs grid, and the columns are checked as
    one table. The first invalid record is named: a record whose Poisson
    rate numpy rejects, or one whose values break the table's value rule (a
    delay or interval that overflows, or rounds to 0), whichever comes
    first; at one record, the rejected rate is reported.
    """
    streams = [np.random.Generator(np.random.PCG64(s)) for s in np.random.SeedSequence(config.seed).spawn(8)]
    jitter_rng, congested_rng, attacked_rng, type_rng, vehicle_rng, delay_rng, drops_rng, interval_rng = streams
    jitter = jitter_rng.normal(0.0, config.vehicle_jitter_sigma, config.n_vehicles)
    delay_mu, delay_sigma, drop_rate, interval_mu, interval_sigma = np.array(
        [list(vars(getattr(config, cell)).values()) for cell in _CELL_NAMES]
    ).T
    m = config.n_records
    congested = congested_rng.random(m) < config.congested_fraction
    attacked = attacked_rng.random(m) < config.attack_fraction
    codes = np.where(attacked, _attack_type_index(config.attack_mix, type_rng.random(m)) + 1, 0)
    vehicle = (vehicle_rng.random(m) * config.n_vehicles).astype(np.intp)
    cell = 2 * attacked + congested
    # an overflowing draw gives inf or NaN and one below 0.5 µs rounds to 0, which the table's check rejects
    with np.errstate(over="ignore", invalid="ignore"):
        delay = np.exp(delay_mu[cell] + jitter[vehicle] + delay_sigma[cell] * delay_rng.standard_normal(m))
        interval = np.exp(interval_mu[cell] + interval_sigma[cell] * interval_rng.standard_normal(m))
        delay, interval = _to_grid(delay), _to_grid(interval)
    # a vector Poisson call rejects the whole array, so the records before the first rejected rate draw alone
    rate_faults = [_poisson_fault(drops_rng, rate) for rate in drop_rate.tolist()]
    bad = np.array([fault is not None for fault in rate_faults])[cell]
    n = int(bad.argmax()) if bad.any() else m
    drops = drops_rng.poisson(drop_rate[cell[:n]])
    try:
        table = TrafficTable(delay[:n], drops, interval[:n], congested[:n], codes[:n])
    except RowError as err:
        raise ConfigError(f"scenario draws an invalid record {err.row}: {err.reason}") from None
    if n < m:
        raise ConfigError(f"scenario draws an invalid record {n}: {rate_faults[cell[n]]}")
    return table


def _to_grid(values: np.ndarray) -> np.ndarray:
    """``values`` in ms rounded to the nearest k / 1000, the 1 µs capture grid; below 0.5 µs that is 0."""
    return np.rint(values * 1000.0) / 1000.0


def _attack_type_index(mix: Sequence[float], u: np.ndarray) -> np.ndarray:
    """The ``ATTACK_TYPES`` index of each uniform ``u`` in [0, 1), through the cumulative ``mix``.

    Capped at the last type of positive weight, as the rounded cumulative sum can end just below 1.
    """
    weights = np.asarray(mix, dtype=float)
    index = np.cumsum(weights / weights.sum()).searchsorted(u, side="right")
    return np.minimum(index, np.flatnonzero(weights)[-1])


def _poisson_fault(stream: np.random.Generator, rate: float) -> str | None:
    """numpy's message if its Poisson sampler rejects ``rate`` (too large a rate), or None; draws nothing."""
    try:
        stream.poisson(rate, 0)
    except ValueError as err:
        return str(err)
    return None


# the last three fields of a written row, indexed by len(AttackType) * congested + attack code
_ROW_TAILS = tuple(f"{c},{t.value},{int(t is not AttackType.NONE)}\n" for c in (0, 1) for t in AttackType)
# the same tails, each after the comma that ends its row's interval, as rows of ASCII bytes padded with 0 bytes
_TAIL_BYTES = np.array([("," + tail).encode() for tail in _ROW_TAILS]).view(np.uint8).reshape(len(_ROW_TAILS), -1)


# below this many ms a real on the 1 µs grid, the double nearest some k / 1000, is within half an ulp
# (at most 2**-21 ms) of k / 1000, so its 3 decimals name k and read back as that double
_GRID_BOUND = 2.0**33


def _grid_steps(reals: np.ndarray) -> np.ndarray | None:
    """The int64 k of each real k / 1000 in ``reals``, or None unless all lie on the 1 µs grid below the bound."""
    if not (reals < _GRID_BOUND).all():  # first, so that reals * 1000 cannot overflow
        return None
    steps = np.rint(reals * 1000.0)  # the arithmetic of _to_grid
    return steps.astype(np.int64) if (steps / 1000.0 == reals).all() else None


def _digits(values: np.ndarray, keep: int) -> np.ndarray:
    """The decimal digits of nonnegative int64 ``values`` as ASCII bytes, laid out digits × points, aligned right.

    Each leading zero beyond the last ``keep`` digits is a 0 byte.
    """
    width = max(keep, len(str(values.max())))
    out = np.empty((width, len(values)), np.uint8)
    rest = values
    for row in range(width - 1, -1, -1):
        rest, digit = np.divmod(rest, 10)
        out[row] = digit + ord("0")
    places = 10 ** np.arange(width - 1, keep - 1, -1, dtype=np.int64)
    out[: width - keep][values < places[:, None]] = 0
    return out


def _grid_rows(delay_steps: np.ndarray, drops: np.ndarray, interval_steps: np.ndarray, tails: np.ndarray) -> bytes:
    """The CSV rows of reals k / 1000, given by their k, spelt as ``%.3f`` and ``%d`` spell them."""
    delay, interval = _digits(delay_steps, 4), _digits(interval_steps, 4)
    dot, comma = (np.full((1, len(tails)), ord(char), np.uint8) for char in ".,")
    rows = np.concatenate([
        delay[:-3], dot, delay[-3:], comma, _digits(drops, 1), comma, interval[:-3], dot, interval[-3:],
        _TAIL_BYTES[tails].T,
    ])
    return rows.T[rows.T != 0].tobytes()


def write_csv(table: TrafficTable, path: str | Path) -> None:
    """Write ``table`` in the canonical schema, ``_BLOCK_ROWS`` rows at a time, so that it reads back bit-exact.

    A block whose reals all lie on the 1 µs grid (see ``_to_grid``) and below
    ``_GRID_BOUND`` ms writes them with 3 decimals, spelt from their k by
    ``_grid_rows``, the text ``%.3f`` gives; any other block writes them
    with ``%.17g``, 17 significant digits.
    """
    with open(path, "wb") as fh:
        fh.write(_HEADER_LINE)
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start : start + _BLOCK_ROWS]
            tails = block.congested * len(AttackType) + block.attack_code
            delay, interval = _grid_steps(block.packet_delay_ms), _grid_steps(block.transfer_interval_ms)
            if delay is not None and interval is not None:
                fh.write(_grid_rows(delay, block.packets_dropped, interval, tails))
            else:
                fh.write("".join(map("%.17g,%d,%.17g,%s".__mod__, zip(
                    block.packet_delay_ms.tolist(),
                    block.packets_dropped.tolist(),
                    block.transfer_interval_ms.tolist(),
                    map(_ROW_TAILS.__getitem__, tails.tolist()),
                ))).encode("ascii"))


_TYPE_CODES = {t.value: code for code, t in enumerate(AttackType)}  # NONE is 0
_FLAGS = {"0": False, "1": True}
_INT64_RANGE = range(np.iinfo(np.int64).min, np.iinfo(np.int64).max + 1)
_HEADER_LINE = (CSV_HEADER + "\n").encode()
# a row as loadtxt reads it; each tail field is wider than any spelling write_csv writes there, so a longer
# spelling cut to the width still misses, and 2 or 8 bytes wide, so spellings compare as unsigned integers
_ROW_DTYPE = np.dtype([*_COLUMNS[:3], ("congested", "S2"), ("attack_type", "S8"), ("label", "S2")])


def _row_fault(row: list[str], columns: tuple[array, ...]) -> str | None:
    """The first check the csv ``row`` fails, or None once its converted values are appended to ``columns``.

    The checks, in order: the field count, the attack type, the congested
    flag, the conversion of each numeric field (a drop count must also fit
    in int64), the value rule ``_value_fault``, then the label: 0 or 1, and
    1 exactly when the record is an attack. Each of the five ``columns``,
    typed arrays in ``_COLUMNS`` order, gets one of the row's values: delay,
    drops, interval, congested (0 or 1), attack code.
    """
    if len(row) != 6:
        return f"expected 6 fields, got {len(row)}"
    delay_s, drops_s, interval_s, flag_s, type_s, label_s = row
    if type_s not in _TYPE_CODES:
        return f"unknown attack_type '{type_s}'"
    if flag_s not in _FLAGS:
        return f"congested must be 0 or 1, got '{flag_s}'"
    try:
        delay, drops = float(delay_s), int(drops_s)
        if drops not in _INT64_RANGE:
            return f"packets_dropped must fit in int64, got {drops_s}"
        interval, label = float(interval_s), int(label_s)
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
    delays, drop_counts, intervals, flags, codes = columns
    delays.append(delay)
    drop_counts.append(drops)
    intervals.append(interval)
    flags.append(_FLAGS[flag_s])
    codes.append(code)
    return None


def _read_rows(path: str | Path) -> TrafficTable:
    """Read ``path`` with ``csv.reader``; the first row ``_row_fault`` rejects raises, named by its first file line."""
    # typed arrays, 26 bytes a row, which numpy views in place, all but the flags
    columns = tuple(array(typecode) for typecode in "dqdbb")
    # undecodable bytes fail the field checks, which name their line
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or ",".join(header) != CSV_HEADER:
            raise ParseError(f"line 1: expected header '{CSV_HEADER}'")
        line = reader.line_num + 1
        for row in reader:
            if row:
                fault = _row_fault(row, columns)
                if fault is not None:
                    raise ParseError(f"line {line}: {fault}")
            line = reader.line_num + 1  # a quoted field may hold newlines
    return TrafficTable(*columns)


def _plain_file(path: str | Path) -> bool:
    """Whether ``path`` opens with the header line, is ASCII, and has no quote or NUL byte and no over-long line.

    A line is over-long when it has more bytes than ``csv.field_size_limit()``.
    In a plain file ``csv.reader`` splits each line at its commas, as ``np.loadtxt``
    does, and both end a line at ``\\n``, ``\\r\\n`` or a lone ``\\r``. Only ASCII
    reaches ``loadtxt``: its integer parser hands each character to C's
    ``isdigit``, whose table ends at 255, so a drop count ``\\U000ac872`` can
    read as 706626 or crash the process.
    """
    limit = csv.field_size_limit()
    with open(path, "rb") as fh:
        if fh.readline(len(_HEADER_LINE) + 1) not in (_HEADER_LINE, _HEADER_LINE[:-1] + b"\r\n"):
            return False
        run = 0  # the bytes since the last newline, the start of a line that may go on into the next chunk
        while chunk := fh.read(min(limit, 1 << 20)):  # a line inside one chunk is never over-long
            if not chunk.isascii() or b'"' in chunk or b"\0" in chunk:
                return False
            first = chunk.find(b"\n")
            if run + (len(chunk) if first < 0 else first) > limit:
                return False
            run = run + len(chunk) if first < 0 else len(chunk) - 1 - chunk.rfind(b"\n")
    return True


def _spelling_codes(column: np.ndarray, spellings: Iterable[str]) -> np.ndarray:
    """The index in ``spellings`` of each byte string in ``column``, or -1 where it is none of them."""
    as_int = np.dtype(f"u{column.itemsize}")
    words, codes = column.view(as_int), np.full(len(column), -1, np.int8)
    for code, value in enumerate(np.array([s.encode() for s in spellings], column.dtype).view(as_int)):
        codes[words == value] = code
    return codes


def read_csv(path: str | Path) -> TrafficTable:
    """Read a table written by :func:`write_csv`; errors carry the file line number.

    A plain file (see ``_plain_file``) is read by one ``np.loadtxt`` call,
    and its real and drop-count columns are views of the rows read. Any
    other file, or a plain one that ``loadtxt`` refuses or warns on, with a
    tail that ``write_csv`` does not write or a value that fails the table's
    check, is read again from its first line by ``_read_rows``.
    """
    if Path(path).is_file() and _plain_file(path):  # a pipe can be read only once, so only by csv.reader
        try:
            # an open file, as loadtxt would pick a decompressor by the suffix of a path
            with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
                warnings.simplefilter("error")  # loadtxt warns on a file with no rows
                rows = np.loadtxt(fh, dtype=_ROW_DTYPE, delimiter=",", skiprows=1, comments=None, ndmin=1)
            flags, codes, labels = (
                _spelling_codes(rows[name], spellings)
                for name, spellings in (("congested", _FLAGS), ("attack_type", _TYPE_CODES), ("label", _FLAGS))
            )
            if ((flags >= 0) & (codes >= 0) & (labels == (codes > 0))).all():
                return TrafficTable(*(rows[name] for name, _ in _COLUMNS[:3]), flags, codes)
        except (ValueError, Warning):  # UnicodeDecodeError and RowError are ValueErrors
            pass
    return _read_rows(path)


def json_default(value):
    """``json.dumps``'s ``default`` for configs: a dataclass encodes as the dict of its fields, an enum as its value."""
    if isinstance(value, Enum):
        return value.value
    if is_dataclass(value):
        return vars(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def read_json(path: str | Path, error: type[SplineIdsError], what: str):
    """The JSON document in the UTF-8 file ``path``; a file that cannot be read is an ``error`` naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError: bytes that are not UTF-8, text that is not JSON, an integer past the interpreter's digit limit
    except (OSError, ValueError, RecursionError) as err:
        # an OSError's strerror is its reason without the path, which the message names already
        raise error(f"cannot read {what} {path}: {getattr(err, 'strerror', None) or err}") from None


def scenario_to_dict(config: ScenarioConfig) -> dict:
    """The config as JSON data, encoded as its config digest encodes it."""
    return json.loads(json.dumps(config, default=json_default))


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
