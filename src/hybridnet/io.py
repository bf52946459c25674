"""Edge-list ingestion, timestamp windows and deterministic exports.

The edge-file format is whitespace-separated integer columns
``source target [timestamp [scenario]]`` with ``%`` comment lines; missing
timestamps fall back to the record order.  The text is read once; a plain
one (checked with a byte table) is then decoded by one ``np.loadtxt`` call
on the file's path and checked as arrays, unless the file changed between
the text read and the decode.  Any other file, and any file that breaks a
rule, is read line by line from its text, so that the error names the
line.  ``window`` relabels by first appearance through the endpoint-stream
ordering that ``likelihood.replay`` also uses.  All exports produce
byte-stable output for a fixed input: sorted keys, ``\\n`` newlines and
17-significant-digit floats.  An edge log is rendered block by block with
numpy: the decimal digits of every column are computed by array arithmetic
into one byte buffer, and a mask drops leading zeros, unused sign slots and
absent scenario labels, so the text matches ``"%d"`` formatting for every
int64 without building a Python int per value.  Rows of every other
export are converted and written ``model._ROW_BLOCK`` at a time, so an
export's memory does not grow with its length.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Sequence

import numpy as np

from .degrees import DegreeCounts, LimitPmf
from .estimation import EstimationResult
from .model import EdgeLog, _end_stream, _row_blocks, _stable_order

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def parse_edge_file(path) -> EdgeLog:
    """Read an edge list, stably sorted by timestamp; node ids are preserved.

    Every value must fit in int64; a line that breaks a rule raises
    ``ValueError`` naming the file and line number.

    The text is read once and checked; where the check passes, one
    ``np.loadtxt`` call decodes the file from its path and the rules are
    checked as arrays.  That fast path is taken only where it cannot differ
    from reading the checked text line by line: outside ``%`` comment lines
    the text holds only ASCII digits, signs, spaces, tabs and newlines (a
    byte-table check), it holds at least one record, no value reaches
    10**18 in magnitude, and the file's device, inode, size and
    modification time are the same after the decode as before the text
    was read.  Otherwise,
    or when a rule fails, the text is read line by line, and the first
    offending line is named.  Unsorted timestamps are put in order by the
    radix ordering of ``model._stable_order``.
    """
    stamp = _stamp(path)
    text = Path(path).read_text()
    columns = _fast_columns(path, text, stamp)
    if columns is None:
        columns = _line_columns(path, text)
    time = columns[2]
    if np.any(time[1:] < time[:-1]):
        order = _stable_order(time)  # ties keep input order
        columns = [col[order] for col in columns]
    return EdgeLog.from_columns(*columns)


# A line whose first non-blank character is ``%``, up to (not including) any
# character that ``str.splitlines`` breaks at.
_COMMENT_LINE = re.compile(r"^[ \t]*%[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*", re.MULTILINE)
_PLAIN_BYTES = b"0123456789+- \t\n"
_EXACT_BOUND = 10**18  # every numpy version reads smaller int64 fields exactly
# suffixes on which np.loadtxt opens a path through a decompressor
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _stamp(path) -> tuple[int, int, int, int]:
    """What changes when a file is rewritten: its device, inode, size and
    modification time."""
    st = os.stat(path)
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _fast_columns(path, text: str, stamp: tuple[int, int, int, int]) -> list[np.ndarray] | None:
    """The columns of the file at ``path``, whose text ``text`` was read
    after its :func:`_stamp` was ``stamp``, decoded in one ``np.loadtxt``
    call; ``None`` when a rule fails or the result could differ from
    :func:`_line_columns` on ``text``.

    Comment lines are cut first.  What is left may hold only ASCII digits,
    signs, spaces, tabs and ``\\n``.  Then every ``%`` starts a comment
    line that ends at ``\\n``, so ``loadtxt(path, comments="%")``, which
    decodes the file as ``Path.read_text`` does (the locale encoding,
    universal newlines) and runs its C reader over the file in chunks,
    reads exactly the checked text.  On such text ``loadtxt`` splits lines and fields as
    ``str.splitlines`` and ``str.split`` do, and reads a field exactly
    when ``int`` does, to the same value, except out of the int64 range:
    numpy 2 rejects such a value but numpy 1 reads it through a float, so
    values of magnitude 10**18 or more are left to the loop.  The file is
    read a second time by ``loadtxt``, so its stamp is taken again after
    the decode; if it changed, the decoded values may not be those of the
    checked text, and the loop reads ``text`` instead."""
    data = _COMMENT_LINE.sub("", text) if "%" in text else text
    if not data.isascii() or data.encode("ascii").translate(None, _PLAIN_BYTES):
        return None
    if not data or data.isspace() or os.path.splitext(path)[1] in _COMPRESSED_SUFFIXES:
        return None
    try:
        # absolute, because np.loadtxt would fetch a relative path that parses as a URL
        table = np.loadtxt(os.path.abspath(path), dtype=np.int64, comments="%", ndmin=2)
        if _stamp(path) != stamp:
            return None
    except (OSError, ValueError):  # a malformed field, ragged rows, an int64 overflow, a gone file
        return None
    width = table.shape[1]
    if not 2 <= width <= 4 or not -_EXACT_BOUND < table.min() <= table.max() < _EXACT_BOUND:
        return None
    if (table[:, :2] < 1).any() or (width == 4 and ((table[:, 3] < 1) | (table[:, 3] > 5)).any()):
        return None
    n = len(table)
    source, target = np.ascontiguousarray(table[:, :2].T)
    time = table[:, 2].copy() if width >= 3 else np.arange(n, dtype=np.int64)
    scenario = table[:, 3].astype(np.int8) if width == 4 else np.zeros(n, dtype=np.int8)
    return [source, target, time, scenario]


def _line_columns(path, text: str) -> list[np.ndarray]:
    """The per-line reading: every rule checked line by line, and the first
    offending line named in the ``ValueError``."""
    sources: list[int] = []
    targets: list[int] = []
    times: list[int] = []
    scenarios: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields or fields[0].startswith("%"):
            continue
        if not 2 <= len(fields) <= 4:
            raise ValueError(f"{path}:{lineno}: expected 2-4 integer fields, got {len(fields)}")
        try:
            values = [int(f) for f in fields]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-integer field in {line.strip()!r}") from exc
        source, target = values[0], values[1]
        if source < 1 or target < 1:
            raise ValueError(f"{path}:{lineno}: node ids must be positive")
        if max(values) > _INT64_MAX or min(values) < _INT64_MIN:
            raise ValueError(f"{path}:{lineno}: integer outside the int64 range")
        scenario = values[3] if len(values) == 4 else 0
        if len(values) == 4 and scenario not in (1, 2, 3, 4, 5):
            raise ValueError(f"{path}:{lineno}: scenario label must be in 1..5")
        times.append(values[2] if len(values) >= 3 else len(times))
        sources.append(source)
        targets.append(target)
        scenarios.append(scenario)
    if not times:
        raise ValueError(f"{path}: no edge records found")
    columns = [np.array(col, dtype=np.int64) for col in (sources, targets, times)]
    columns.append(np.array(scenarios, dtype=np.int8))
    return columns


def window(log: EdgeLog, t_start: int, t_end: int) -> tuple[EdgeLog, dict[int, int]]:
    """Select records with ``t_start <= time <= t_end`` (inclusive) and
    relabel nodes densely by first appearance (source before target).

    Returns the windowed log and the original-to-new id mapping, whose keys
    are in first-appearance order.  The windowed log carries no seed edge;
    replay it with ``seeded=False``.  Scenario labels are dropped: node
    novelty inside the window redefines the scenarios, so labels from the
    full history would be inconsistent.
    """
    if t_start > t_end:
        raise ValueError(f"empty window: t_start={t_start} > t_end={t_end}")
    selected = (log.time >= t_start) & (log.time <= t_end)
    if not selected.any():
        raise ValueError(f"window [{t_start}, {t_end}] selects no records")
    order, ranked, group, start = _end_stream(log.source[selected], log.target[selected])
    by_appearance = _stable_order(order[start])  # distinct ids by first stream position
    new_id = np.empty(len(start), dtype=np.int64)
    new_id[by_appearance] = np.arange(1, len(start) + 1)
    ends = np.empty(len(order), dtype=np.int64)
    ends[order] = new_id[group]
    mapping = dict(zip(ranked[start[by_appearance]].tolist(), range(1, len(start) + 1)))
    return EdgeLog.from_columns(ends[0::2], ends[1::2], log.time[selected]), mapping


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

TRACE_HEADER = (
    "iteration",
    "alpha",
    "beta",
    "gamma",
    "xi",
    "eta",
    "p",
    "delta_in",
    "delta_out",
    "log_posterior",
)


def export(obj, path, format: str | None = None) -> None:
    """Write a supported object to disk with deterministic bytes.

    Supported: :class:`EdgeLog` (edge-list text), CCDF curves (``(m, value)``
    pairs), :class:`DegreeCounts`, :class:`LimitPmf` and estimation results
    (the thinned trace).  ``format`` selects ``csv`` or ``json``; by default
    the path names it: ``json`` for a ``.json`` suffix and ``csv`` for any
    other.  Edge logs are always plain edge-list text.
    """
    path = Path(path)
    format = _export_format(path, format)
    if isinstance(obj, EdgeLog):
        _write_edge_log(obj, path)
    elif isinstance(obj, DegreeCounts):
        degrees = sorted(set(obj.in_counts) | set(obj.out_counts))
        columns = [degrees, *([c.get(m, 0) for m in degrees] for c in (obj.in_counts, obj.out_counts))]
        columns = [np.array(col, dtype=np.int64) for col in columns]
        _write_rows(columns, ("m", "n_in", "n_out"), path, format)
    elif isinstance(obj, LimitPmf):
        count = obj.truncation_m + 1
        columns = [np.asarray(psi, dtype=float)[:count] for psi in (obj.psi_in, obj.psi_out)]
        _write_rows([np.arange(count, dtype=np.int64), *columns], ("m", "psi_in", "psi_out"), path, format)
    elif isinstance(obj, EstimationResult):
        _write_trace(obj, path, format)
    elif isinstance(obj, (list, tuple)):
        columns = [np.array([int(m) for m, _ in obj], dtype=np.int64), np.array([float(v) for _, v in obj])]
        _write_rows(columns, ("m", "value"), path, format)
    else:
        raise TypeError(f"no exporter for {type(obj).__name__}")


def _export_format(path: Path, format: str | None) -> str:
    """``format``, or by default the one the path names: ``json`` for a
    ``.json`` suffix and ``csv`` for any other."""
    if format is None:
        format = "json" if path.suffix.lower() == ".json" else "csv"
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    return format


# Rows rendered per write: the digit buffer of one block is alive at a time.
_EXPORT_ROWS = 1 << 16
# float64 digit arithmetic, floor(x / 10), is exact below this magnitude;
# larger values are first split at 10**9 with integer arithmetic
_FLOAT_EXACT = 2**49
_LIMB_DIGITS = 9


def _write_edge_log(log: EdgeLog, path: Path) -> None:
    if not len(log):
        path.write_text("\n")
        return
    columns = (log.source, log.target, log.time)
    with path.open("wb") as out:
        for lo in range(0, len(log), _EXPORT_ROWS):
            block = slice(lo, lo + _EXPORT_ROWS)
            out.write(_render_lines([col[block] for col in columns], log.scenario[block]))


def _render_lines(columns: list[np.ndarray], scenario: np.ndarray) -> bytes:
    """Edge-list lines of the int64 ``columns``, each followed by its
    ``scenario`` label where that is nonzero.

    Every field gets fixed slots in a position-major uint8 buffer, one row
    per character position: a separator (after the first field), a sign
    slot (only in a column that holds a negative value) and as many digit
    slots as the column's widest value.  A keep mask drops the unused sign
    slots, the leading zeros and, on unlabelled lines, the label and its
    separator; the kept bytes read line by line are the text."""
    fields = []
    for col in columns:
        magnitude = np.abs(col).view(np.uint64)  # |-(2**63)| wraps to 2**63
        top = int(magnitude.max())
        fields.append((col, magnitude, top, len(str(top)), bool(col.min() < 0)))
    labelled = scenario != 0
    has_labels = bool(labelled.any())
    height = sum(1 + signed + width for *_, width, signed in fields) + 2 * has_labels
    text = np.empty((height, len(scenario)), dtype=np.uint8)
    keep = np.ones(text.shape, dtype=bool)
    row = 0
    for k, (col, magnitude, top, width, signed) in enumerate(fields):
        if k:
            text[row] = ord(" ")
            row += 1
        if signed:
            text[row] = ord("-")
            keep[row] = col < 0
            row += 1
        digits = text[row : row + width]
        _digits(magnitude, top, digits)
        digits += ord("0")
        for power in range(1, width):  # a leading zero sits above the value's top power
            np.greater_equal(magnitude, 10**power, out=keep[row + width - 1 - power])
        row += width
    if has_labels:
        text[row] = ord(" ")
        text[row + 1] = scenario + ord("0")
        keep[row : row + 2] = labelled
        row += 2
    text[row] = ord("\n")
    return text.T[keep.T].tobytes()


def _digits(magnitude: np.ndarray, top: int, rows: np.ndarray) -> None:
    """Write the decimal digits of ``magnitude`` (uint64, at most ``top``)
    into ``rows``, most significant first and zero-padded."""
    if top >= _FLOAT_EXACT:
        high, magnitude = np.divmod(magnitude, 10**_LIMB_DIGITS)
        _digits(high, top // 10**_LIMB_DIGITS, rows[:-_LIMB_DIGITS])
        rows = rows[-_LIMB_DIGITS:]
    x = magnitude.astype(np.float64)
    for row in rows[::-1]:
        quotient = np.floor(x / 10)
        row[...] = x - 10 * quotient
        x = quotient


# the %-format of a CSV cell by dtype kind: "%d" gives str(int) and "%.17g"
# format(x, ".17g"); there are no boolean cells
_CELL_FORMATS = {"i": "%d", "f": "%.17g", "U": "%s"}


def _write_rows(columns: Sequence[np.ndarray], header: Sequence[str], path: Path, format: str) -> None:
    """Write the rows of ``columns``, one array per ``header`` name, as CSV
    or JSON, ``model._ROW_BLOCK`` rows at a time.

    Each block is one ``%``-format call over a row format.  A CSV row is
    the columns' cell formats.  The JSON text is the bytes of
    ``json.dumps(rows, sort_keys=True, indent=2)`` over the rows as dicts:
    its row format holds the sorted keys, and its cells are each column's
    tokens from the C encoder (``indent`` would select the pure-Python one),
    which renders numbers and strings the same way."""
    formats = [_CELL_FORMATS.get(col.dtype.kind) for col in columns]
    if None in formats:
        raise TypeError(f"no export cells of dtype {columns[formats.index(None)].dtype}")
    if format == "csv":
        head, row, sep, tail = ",".join(header) + "\n", ",".join(formats) + "\n", "", ""
        cell_blocks = _row_blocks(columns)
    else:
        # the dict's keys in sort order, each with the column it holds last
        keys = sorted(dict(zip(header, range(len(header)))).items())
        fields = ",\n".join(f"    {json.dumps(key).replace('%', '%%')}: %s" for key, _ in keys)
        head, row, sep, tail = "[\n", f"  {{\n{fields}\n  }}", ",\n", "\n]\n"
        cell_blocks = ([_json_tokens(block[k]) for _, k in keys] for block in _row_blocks(columns))
        if not len(columns[0]):
            head, tail = "[", "]\n"
    with path.open("w") as out:
        out.write(head)
        for k, block in enumerate(cell_blocks):
            width = len(block)
            cells = [None] * (width * len(block[0]))
            for j, values in enumerate(block):
                cells[j::width] = values
            out.write((sep if k else "") + sep.join([row] * len(block[0])) % tuple(cells))
        out.write(tail)


def _json_tokens(values: list) -> list[str]:
    """The JSON text of each value, from one C-encoder call whose item
    separator is a newline, which no token holds (strings escape it)."""
    return json.dumps(values, separators=("\n", ":"))[1:-1].split("\n")


def _write_trace(result: EstimationResult, path: Path, format: str) -> None:
    trace = result.trace
    if trace is None:
        raise ValueError("estimation result carries no trace")
    _write_rows([trace.iteration, *trace.draws.T, trace.log_posterior], TRACE_HEADER, path, format)
