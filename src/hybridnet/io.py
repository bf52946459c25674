"""Edge-list ingestion, timestamp windows and deterministic exports.

The edge-file format is whitespace-separated integer columns
``source target [timestamp [scenario]]`` with ``%`` comment lines; missing
timestamps fall back to the record order.  All exports produce byte-stable
output for a fixed input: sorted keys, ``\\n`` newlines and 17-significant-
digit floats.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .degrees import DegreeCounts, LimitPmf
from .estimation import EstimationResult
from .model import EdgeLog

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _cell(x) -> str:
    if isinstance(x, bool):
        raise TypeError("no boolean cells in exports")
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def parse_edge_file(path) -> EdgeLog:
    """Read an edge list, stably sorted by timestamp; node ids are preserved.

    Every value must fit in int64; a line that breaks a rule raises
    ``ValueError`` naming the file and line number.
    """
    lines = Path(path).read_text().splitlines()
    sources: list[int] = []
    targets: list[int] = []
    times: list[int] = []
    scenarios: list[int] = []
    for lineno, line in enumerate(lines, start=1):
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
    time = columns[2]
    if np.any(time[1:] < time[:-1]):
        order = np.argsort(time, kind="stable")  # ties keep input order
        columns = [col[order] for col in columns]
    return EdgeLog.from_columns(*columns)


def window(log: EdgeLog, t_start: int, t_end: int) -> tuple[EdgeLog, dict[int, int]]:
    """Select records with ``t_start <= time <= t_end`` (inclusive) and
    relabel nodes densely by first appearance (source before target).

    Returns the windowed log and the original-to-new id mapping.  The
    windowed log carries no seed edge; replay it with ``seeded=False``.
    Scenario labels are dropped: node novelty inside the window redefines
    the scenarios, so labels from the full history would be inconsistent.
    """
    if t_start > t_end:
        raise ValueError(f"empty window: t_start={t_start} > t_end={t_end}")
    selected = (log.time >= t_start) & (log.time <= t_end)
    if not selected.any():
        raise ValueError(f"window [{t_start}, {t_end}] selects no records")
    mapping: dict[int, int] = {}
    relabeled: list[int] = []
    for source, target in zip(log.source[selected].tolist(), log.target[selected].tolist()):
        for node in (source, target):
            if node not in mapping:
                mapping[node] = len(mapping) + 1
            relabeled.append(mapping[node])
    ends = np.array(relabeled, dtype=np.int64)
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


def export(obj, path, format: str = "csv") -> None:
    """Write a supported object to disk with deterministic bytes.

    Supported: :class:`EdgeLog` (edge-list text), CCDF curves (``(m, value)``
    pairs), :class:`DegreeCounts`, :class:`LimitPmf` and estimation results
    (the thinned trace).  ``format`` selects ``csv`` or ``json`` (edge logs
    are always plain edge-list text).
    """
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    path = Path(path)
    if isinstance(obj, EdgeLog):
        _write_edge_log(obj, path)
    elif isinstance(obj, DegreeCounts):
        degrees = sorted(set(obj.in_counts) | set(obj.out_counts))
        rows = [(m, obj.in_counts.get(m, 0), obj.out_counts.get(m, 0)) for m in degrees]
        _write_rows(rows, ("m", "n_in", "n_out"), path, format)
    elif isinstance(obj, LimitPmf):
        rows = [
            (m, float(obj.psi_in[m]), float(obj.psi_out[m])) for m in range(obj.truncation_m + 1)
        ]
        _write_rows(rows, ("m", "psi_in", "psi_out"), path, format)
    elif isinstance(obj, EstimationResult):
        _write_trace(obj, path, format)
    elif isinstance(obj, (list, tuple)):
        rows = [(int(m), float(v)) for m, v in obj]
        _write_rows(rows, ("m", "value"), path, format)
    else:
        raise TypeError(f"no exporter for {type(obj).__name__}")


def _write_edge_log(log: EdgeLog, path: Path) -> None:
    labelled = log.scenario != 0
    columns = [log.source, log.target, log.time]
    if labelled.all():
        columns.append(log.scenario)
    elif labelled.any():  # mixed: write a label only where there is one
        rows = zip(*(col.tolist() for col in (*columns, log.scenario)))
        path.write_text(
            "".join(f"{s} {t} {tm} {sc}\n" if sc else f"{s} {t} {tm}\n" for s, t, tm, sc in rows)
        )
        return
    row = " ".join(["%d"] * len(columns)) + "\n"
    path.write_text(row * len(log) % tuple(np.column_stack(columns).ravel().tolist()) or "\n")


def _write_rows(rows, header: Sequence[str], path: Path, format: str) -> None:
    if format == "csv":
        lines = [",".join(header)]
        lines += [",".join(_cell(c) for c in row) for row in rows]
        path.write_text("\n".join(lines) + "\n")
    else:
        payload = [dict(zip(header, row)) for row in rows]
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_trace(result: EstimationResult, path: Path, format: str) -> None:
    if result.trace is None:
        raise ValueError("estimation result carries no trace")
    rows = []
    for entry in result.trace:
        th = entry.params
        rows.append(
            (
                entry.iteration,
                th.alpha,
                th.beta,
                th.gamma,
                th.xi,
                th.eta,
                th.p,
                th.delta_in,
                th.delta_out,
                entry.log_posterior,
            )
        )
    _write_rows(rows, TRACE_HEADER, path, format)
