"""Three-dimensional resource vectors, weighted scoring, and file I/O.

Every quantity in the placement and migration pipeline is a
(cpu, mem, bw) triple expressed in percent of a server's capacity, so
vectors from different servers compare directly.  Weighted scores are
plain dot products against a priority vector whose components sum to 1.
check_vector is the one rule of a resource vector, which its owners call.

Input JSON files are read by read_json_file, each object against a
table of its keys by json_object (trace files by traffic), and output
files are written by write_text_file, JSON ones as json_text lays them out
and every CSV field as _csv_field quotes it.  _csv_lines writes every
CSV file the program writes in bulk, from a name and a kind per column,
with _six_places' exact %.6f digits, a chunk of _csv_chunks at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .errors import ParseError, ValidationError

WEIGHT_SUM_TOL = 1e-9


def read_json_file(path: str, parse):
    """parse(the JSON value in the UTF-8 file at path, its line ends untranslated).

    An unreadable file or invalid JSON is a ParseError naming path, and a
    ParseError or ValidationError from parse is re-raised with path in front.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            obj = json.loads(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    try:
        return parse(obj)
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def write_text_file(path: str, text, what: str):
    """Write text to path as UTF-8 with LF line ends; an OSError names what and path.

    text may be a function that writes to the open file; its result is returned.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            return text(fh) if callable(text) else fh.write(text)
    except OSError as exc:
        raise OSError(f"writing {what} {path}: {exc}") from exc


def _csv_field(value: str) -> str:
    """value as one field of a CSV row: quoted, quotes doubled, if it holds , " \\n or \\r.

    This is csv.writer's minimal quoting with a CRLF line terminator,
    so every field reads back through csv.reader whatever ends the line.
    """
    if any(c in value for c in ',"\n\r'):
        return '"' + value.replace('"', '""') + '"'
    return value


CSV_CHUNK_ROWS = 2048  # lines per matrix: 4096 raised peak RSS on 3,000-line logs, 1024 cost speed
_DIGITS = np.array([b"%03d" % i for i in range(1000)]).view(np.uint8).reshape(1000, 3).T.copy()  # row j: digit j


def _put_digits(rows, end: int, values, width: int) -> None:
    """Write the last width digits of the non-negative int64 values into rows[:, end - width:end]."""
    for right in range(end, end - width, -3):
        high = values // 1000
        group = values - high * 1000
        for col in range(max(end - width, right - 3), right):
            rows[:, col] = _DIGITS[col - right + 3][group]
        values = high


def _six_places(x):
    """The floats x as _csv_lines fields, a sign and a (whole, frac) number, rint(fl(|x| * 1e6)), and where those
    are %.6f's, half to even: unless |x| >= 1e9 (0 then) or fl(|x| * 1e6) is within about 2**-53 of a half."""
    exact = np.abs(x) < 1e9
    scaled = np.where(exact, np.abs(x), 0.0) * 1e6
    exact &= np.abs(scaled - np.floor(scaled) - 0.5) > scaled * 2**-51
    return [([b"", b"-"], np.signbit(x)), np.divmod(np.rint(scaled).astype(np.int64), 10**6)], exact


def _csv_table(entries: list[bytes]) -> tuple:
    """entries as a _csv_lines table: a uint8 matrix of them padded to the longest, and a mask of their lengths."""
    width = max(map(len, entries), default=0) or 1
    return (np.array(entries, dtype=f"S{width}").view(np.uint8).reshape(-1, width),
            np.arange(width) < np.array(list(map(len, entries)))[:, None])


def _csv_chunks(blocks):
    """Column blocks, each a tuple of equal-length arrays, cut and joined into chunks of CSV_CHUNK_ROWS rows,
    the last one shorter, so a writer holds one chunk whatever the log's length."""
    group, rows = [], 0
    for block in blocks:
        lo = 0
        while lo < len(block[0]):
            group.append([column[lo:lo + CSV_CHUNK_ROWS - rows] for column in block])
            lo, rows = lo + len(group[-1][0]), rows + len(group[-1][0])
            if rows == CSV_CHUNK_ROWS:
                yield [np.concatenate(column) for column in zip(*group)]
                group, rows = [], 0
    if group:
        yield [np.concatenate(column) for column in zip(*group)]


def _csv_text(kind, value) -> str:
    """value as a field of a _csv_lines column of kind kind, by %."""
    if kind == "t":
        return "%d.%06d" % divmod(int(value), 1_000_000)
    return ("%d" if kind == "d" else "%.6f") % value if isinstance(kind, str) else _csv_field(kind[int(value)])


def _csv_lines(columns: dict, blocks):
    """A CSV file's text, a chunk at a time: its header, columns' names, then the rows of blocks (_csv_chunks).

    columns maps each name to its column's kind: "d", an int64 or bool as
    %d; "f", a float as %.6f in _six_places' digits; "t", int64 micros as
    signed floor seconds, '.' and six digits; or a list of texts, which
    the column indexes.  A chunk is one uint8 matrix, written by field: a
    bytes on every line, a (_csv_table, index) pair of one table column or
    adjacent ones, entries ending in separators, or an (int64, width)
    number, its last width digits (None: no leading zeros).  A line with a
    negative "d" or a float _six_places cannot write exactly is _csv_text's.
    """
    yield ",".join(map(_csv_field, columns)) + "\n"
    columns, signs = list(columns.values()), _csv_table([b"", b"-"])
    ends = [b","] * (len(columns) - 1) + [b"\n"]  # each column's separator, table entries holding their own
    tables = {k: [_csv_field(text).encode(errors="surrogatepass") + ends[k] for text in kind]
              for k, kind in enumerate(columns) if not isinstance(kind, str)}
    for k in sorted(tables, reverse=True):  # a table column after another joins it: one take, not two
        if k - 1 in tables:
            after = tables.pop(k)
            tables[k - 1] = [a + b for a in tables[k - 1] for b in after]
    tables = {k: _csv_table(entries) for k, entries in tables.items()}
    for chunk in _csv_chunks(blocks):
        fields, odd = [], np.zeros(len(chunk[0]), dtype=bool)
        for k, (kind, values) in enumerate(zip(columns, chunk)):
            if k in tables:
                fields.append((tables[k], values))
            elif not isinstance(kind, str):  # indexes the joined table with the columns before it
                fields[-1] = (fields[-1][0], fields[-1][1].astype(np.intp) * len(kind) + values)
            elif kind == "d":
                fields += [(values.astype(np.int64, copy=False), None), ends[k]]
                odd |= values < 0
            else:
                if kind == "f":
                    [(_, negative), (whole, frac)], exact = _six_places(values)
                    odd |= ~exact
                else:
                    whole, frac = np.divmod(values, 1_000_000)
                    negative, whole = whole < 0, np.abs(whole)
                fields += [(signs, negative)] * bool(negative.any()) + [(whole, None), b".", (frac, 6), ends[k]]
        if odd.any():  # the odd lines, as the last field
            lines = (",".join(map(_csv_text, columns, row)) + "\n" for row in zip(*(c[odd] for c in chunk)))
            fields.append((_csv_table([b"", *(line.encode(errors="surrogatepass") for line in lines)]),
                           np.cumsum(odd) * odd))
        widths = [len(f) if isinstance(f, bytes) else f[0][0].shape[1] if isinstance(f[0], tuple)
                  else f[1] or len(str(f[0].max())) for f in fields]
        span, col = sum(widths), 0
        rows, keep = np.empty((len(odd), span), dtype=np.uint8), np.ones((len(odd), span), dtype=bool)
        for field, width in zip(fields, widths):
            if isinstance(field, bytes):
                rows[:, col:col + width] = np.frombuffer(field, np.uint8)
            elif isinstance(field[0], tuple):
                rows[:, col:col + width] = np.take(field[0][0], field[1], axis=0)
                keep[:, col:col + width] = np.take(field[0][1], field[1], axis=0)
            else:
                for digit in range(width - 1) if field[1] is None else ():  # leading zeros
                    keep[:, col + digit] = field[0] >= 10 ** (width - 1 - digit)
                _put_digits(rows, col + width, field[0], width)
            col += width
        keep[odd, :span - widths[-1]] = False  # where odd, the last field alone
        yield rows[keep].tobytes().decode(errors="surrogatepass")


_SCALARS = frozenset((str, int, float, bool, type(None)))
# json's C encoder for a value at each depth, its item separator holding
# the line break and indent that json.dumps(indent=2) puts before an item
_ENCODERS: dict[int, object] = {}


def _encode(obj, depth: int) -> str:
    if depth not in _ENCODERS:
        _ENCODERS[depth] = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None,
                                          ": ", ",\n" + "  " * (depth + 1), True, False, True)
    return "".join(_ENCODERS[depth](obj, 0))


def _json_block(obj, depth: int) -> str:
    """obj laid out as json.dumps(indent=2, sort_keys=True) lays it out at depth.

    Raises TypeError on what it leaves to json.dumps: a dict with non-str
    keys that holds a container, or a value json cannot encode.
    """
    if type(obj) in _SCALARS:
        return _encode(obj, depth)
    is_dict = isinstance(obj, dict)
    if not is_dict and not isinstance(obj, (list, tuple)):
        raise TypeError(f"{type(obj).__name__} is not laid out here")
    inner = "\n" + "  " * (depth + 1)
    if _SCALARS.issuperset(map(type, obj.values() if is_dict else obj)):
        text = _encode(obj, depth)  # one C-encoder call for the whole container
        return text if len(text) == 2 else text[0] + inner + text[1:-1] + inner[:-2] + text[-1]
    if is_dict:  # encode_basestring_ascii raises TypeError on a non-str key
        items = [encode_basestring_ascii(key) + ": " + _json_block(obj[key], depth + 1) for key in sorted(obj)]
    else:
        items = [_json_block(value, depth + 1) for value in obj]
    brackets = "{}" if is_dict else "[]"
    return brackets[0] + inner + ("," + inner).join(items) + inner[:-2] + brackets[1]


def json_text(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) + "\n", byte for byte.

    indent makes json.dumps use its pure-Python encoder.  Here every list
    or dict that holds only scalars goes through json's C encoder in one
    call, and only the containers around them are laid out in Python.
    Whatever that cannot lay out, or any error, is left to json.dumps.
    """
    if c_make_encoder is not None:
        try:
            return _json_block(obj, 0) + "\n"
        except (TypeError, ValueError, RecursionError):
            pass
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def json_object(obj, where: str, readers: dict, required=(), what: str = "") -> dict:
    """The fields of the JSON object obj, each value read by readers[key].

    readers maps every allowed key to a reader(value, name) that returns
    the parsed value or raises a ParseError naming name: ``where.key``, or
    just ``key`` when where is empty (a file's top level, or a value such
    as a resource vector whose holder puts its own name in front).  A
    non-object or any unknown key is a ParseError naming where (what, when
    where is empty), checked before any value is read; a missing required
    key is one naming the key.  Absent optional keys are absent from the
    result, so callers pass it as keyword arguments and let their
    defaults cover them.
    """
    if not isinstance(obj, dict):
        raise ParseError(f"{where or what} must be a JSON object")
    if not obj.keys() <= readers.keys():
        unknown = sorted(obj.keys() - readers.keys())
        raise ParseError(f"{where or what}: unknown keys {unknown}; expected {', '.join(readers)}")
    prefix = f"{where}." if where else ""
    fields = {key: readers[key](value, prefix + key) for key, value in obj.items()}
    for key in required:
        if key not in fields:
            raise ParseError(f"{prefix}{key} is required")
    return fields


def json_list(value, name: str, read_item) -> list:
    """[read_item(item, f"{name}[i]") for each item] of a JSON array; else a ParseError."""
    if not isinstance(value, list):
        raise ParseError(f"{name} must be a JSON array")
    return [read_item(item, f"{name}[{i}]") for i, item in enumerate(value)]


def json_number(value, name: str) -> float:
    """value as a float, if it is a JSON int or float (a bool or a string is not).

    Anything else, or an integer too large for a float, is a ParseError
    naming name.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{name} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{name} is too large for a float") from None


def is_int(value) -> bool:
    """Whether value is an int and not a bool: a JSON integer, as json_int reads it."""
    return isinstance(value, int) and not isinstance(value, bool)


def json_int(value, name: str) -> int:
    """value, if it is a JSON integer (a bool is not); else a ParseError naming name."""
    if not is_int(value):
        raise ParseError(f"{name} must be a JSON integer, got {value!r}")
    return value


def json_str(value, name: str) -> str:
    """value, if it is a JSON string; else a ParseError naming name."""
    if not isinstance(value, str):
        raise ParseError(f"{name} must be a JSON string, got {value!r}")
    return value


def json_bool(value, name: str) -> bool:
    """value, if it is a JSON bool; else a ParseError naming name."""
    if not isinstance(value, bool):
        raise ParseError(f"{name} must be a JSON bool, got {value!r}")
    return value


def is_number(value) -> bool:
    """Whether value is an int or a float, numpy's included, and not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def is_text(value) -> bool:
    """Whether value is a str that encodes as UTF-8, holding no lone surrogate, as an id written to a file must."""
    return isinstance(value, str) and not any("\ud800" <= c <= "\udfff" for c in value)


def is_vector(vec) -> bool:
    """Whether vec is three numbers: a tuple, list or 1-d array of them."""
    shaped = isinstance(vec, (tuple, list)) or isinstance(vec, np.ndarray) and vec.ndim == 1
    return shaped and len(vec) == 3 and all(map(is_number, vec))


def check_vector(vec, name: str, positive: bool = False):
    """vec, if three numbers (is_vector), finite and >= 0 (> 0 if positive); else a ValidationError."""
    if not is_vector(vec):
        raise ValidationError(f"{name} must be three numbers, got {vec!r}")
    if not all((0 < c if positive else 0 <= c) and c < math.inf for c in vec):
        raise ValidationError(f"{name} components must be {'> 0' if positive else '>= 0'} and finite, got {vec}")
    return vec


_VECTOR_KEYS = {"cpu": json_number, "mem": json_number, "bw": json_number}
_WEIGHT_KEYS = {"w_cpu": json_number, "w_mem": json_number, "w_bw": json_number}


class ResourceVector(NamedTuple):
    """A (cpu, mem, bw) triple in percent-of-capacity units.

    Stored states keep every component finite, non-negative and at most
    100; transient values (feasibility sums, demand estimates) may
    exceed 100.  A named tuple, so + adds componentwise rather than
    concatenating, and a vector equals the plain tuple of its components.
    """

    cpu: float
    mem: float
    bw: float

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu + other.cpu, self.mem + other.mem, self.bw + other.bw)

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu - other.cpu, self.mem - other.mem, self.bw - other.bw)

    def scaled(self, factor: float) -> "ResourceVector":
        return ResourceVector(self.cpu * factor, self.mem * factor, self.bw * factor)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.cpu, self.mem, self.bw)

    def to_json(self) -> dict:
        return {"cpu": self.cpu, "mem": self.mem, "bw": self.bw}

    @classmethod
    def from_json(cls, obj: dict, where: str = "") -> "ResourceVector":
        """A vector from exactly the keys cpu, mem and bw, each a JSON number; read, not checked (see check_vector).

        Errors name the component bare (``cpu``), behind ``where: `` if where is given.
        """
        try:
            return cls(**json_object(obj, "", _VECTOR_KEYS, _VECTOR_KEYS, "resource vector"))
        except ParseError as exc:
            if not where:
                raise
            raise ParseError(f"{where}: {exc}") from exc


ZERO = ResourceVector(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class WeightVector:
    """Priority weights for (cpu, mem, bw); components in [0, 1] summing to 1."""

    w_cpu: float
    w_mem: float
    w_bw: float

    def __post_init__(self):
        comps = (self.w_cpu, self.w_mem, self.w_bw)
        if any(not math.isfinite(w) or w < 0.0 or w > 1.0 for w in comps):
            raise ValueError(f"weights must lie in [0, 1]: {comps}")
        if abs(sum(comps) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}: {comps}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.w_cpu, self.w_mem, self.w_bw)

    def to_json(self) -> dict:
        return {"w_cpu": self.w_cpu, "w_mem": self.w_mem, "w_bw": self.w_bw}

    @classmethod
    def from_json(cls, obj: dict) -> "WeightVector":
        """Weights from exactly the keys w_cpu, w_mem and w_bw."""
        fields = json_object(obj, "", _WEIGHT_KEYS, _WEIGHT_KEYS, "weight vector")
        try:
            return cls(**fields)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc


UNIFORM_WEIGHTS = WeightVector(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


def weighted_score(w: WeightVector, m: ResourceVector) -> float:
    """Dot product of priority weights and a utilization vector."""
    return w.w_cpu * m.cpu + w.w_mem * m.mem + w.w_bw * m.bw
