"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package: the benchmark wraps the public
entry points it calls, the functions ``hybridnet.cli`` imports from the other
modules, and the two estimator stages that ``fit_integrated`` looks up in its
own module.  Nothing inside ``src/`` is instrumented.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import time
import types
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

# module-level functions of these modules are the layers the benchmark reports
LAYERS = ("model", "generator", "degrees", "likelihood", "estimation", "io", "cli")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans; the parent of a span is the innermost open span."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), name, parent, self.run_id, self.clock())
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = self.clock()
            self._open.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(result, args, kwargs)``
        adds counters read from the returned object after the span closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                s.counts.update(count(result, args, kwargs))
            return result

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


# ---------------------------------------------------------------------------
# instrumentation of hybridnet
# ---------------------------------------------------------------------------


def _records(result, args, kwargs):
    return {"records": len(result)}


def _file_bytes(result, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": Path(path).stat().st_size}


def _window_records(result, args, kwargs):
    return {"records": len(result[0])}


def _simulated_edges(result, args, kwargs):
    return {"edges": sum(len(out.log) for out in result)}


def _nm_counts(result, args, kwargs):
    diag = result.diagnostics
    return {"evals": diag.get("function_evals", 0), "restarts": diag.get("restarts", 0)}


def _mh_counts(result, args, kwargs):
    config = args[1] if len(args) > 1 else kwargs["config"]
    return {
        "iterations": config.burn_in + config.iterations,
        "acceptance": result.acceptance_rate or 0.0,
    }


COUNTERS = {
    "io.parse_edge_file": _records,
    "io.export": _file_bytes,
    "io.window": _window_records,
    "model.classify_edge_log": _records,
    "likelihood.replay": _records,
    "generator.simulate_replicates": _simulated_edges,
    "estimation.fit_nelder_mead": _nm_counts,
    "estimation.fit_mh": _mh_counts,
}

# stages that fit_integrated looks up in its own module at call time
_ESTIMATION_STAGES = ("fit_mh", "fit_nelder_mead")


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _is_layer_function(obj) -> bool:
    return isinstance(obj, types.FunctionType) and obj.__module__.startswith("hybridnet.") and (
        obj.__module__.rsplit(".", 1)[-1] in LAYERS
    )


def _wrapped(tracer: Tracer, fn):
    name = _span_name(fn)
    return tracer.wrap(name, fn, COUNTERS.get(name))


@contextmanager
def instrumented(hybridnet, tracer: Tracer | None):
    """Yield the API namespace the workloads call.

    Untraced, it holds the package's own objects.  Traced, every public
    function is wrapped, and so are the names ``hybridnet.cli`` imported and
    the estimator stages inside ``fit_integrated``; the patched module
    attributes are restored on exit.
    """
    cli = hybridnet.cli
    names = {n: getattr(hybridnet, n) for n in hybridnet.__all__}
    names["cli_main"] = cli.main
    names["summarize_estimates"] = cli.summarize_estimates
    if tracer is None:
        yield types.SimpleNamespace(**names)
        return
    api = {n: _wrapped(tracer, obj) if _is_layer_function(obj) else obj for n, obj in names.items()}
    patches = [
        (cli, n, obj)
        for n, obj in vars(cli).items()
        if not n.startswith("_") and _is_layer_function(obj) and obj.__module__ != cli.__name__
    ]
    patches += [(hybridnet.estimation, n, getattr(hybridnet.estimation, n)) for n in _ESTIMATION_STAGES]
    try:
        for module, n, obj in patches:
            setattr(module, n, _wrapped(tracer, obj))
        yield types.SimpleNamespace(**api)
    finally:
        for module, n, obj in patches:
            setattr(module, n, obj)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _per(total: float, count: float, scale: float = 1e6) -> float:
    return total / count * scale if count else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and counts of one traced iteration.

    A layer the workload never calls reports 0 for its times and counts.
    """
    selfs = self_times(spans)

    def of(*names):
        return [s for s in spans if s.name in names]

    def secs(*names):
        return float(sum(s.duration for s in of(*names)))

    def total(key, *names):
        return float(sum(s.counts.get(key, 0) for s in of(*names)))

    sim_s = secs("generator.simulate_replicates")
    parse_s = secs("io.parse_edge_file")
    classify_s = secs("model.classify_edge_log")
    replay_s = secs("likelihood.replay")
    nm_s, nm_evals = secs("estimation.fit_nelder_mead"), total("evals", "estimation.fit_nelder_mead")
    mh_spans = of("estimation.fit_mh")
    mh_s = secs("estimation.fit_mh")
    return {
        "generator.simulate_s": sim_s,
        "generator.us_per_edge": _per(sim_s, total("edges", "generator.simulate_replicates")),
        "io.parse_s": parse_s,
        "io.parse_us_per_record": _per(parse_s, total("records", "io.parse_edge_file")),
        "io.parse_calls": float(len(of("io.parse_edge_file"))),
        "io.export_s": secs("io.export"),
        "io.export_bytes": total("bytes", "io.export"),
        "io.window_s": secs("io.window"),
        "model.classify_s": classify_s,
        "model.classify_us_per_record": _per(classify_s, total("records", "model.classify_edge_log")),
        "cli.self_s": float(sum(selfs[s.id] for s in of("cli.main"))),
        "likelihood.replay_s": replay_s,
        "likelihood.replay_us_per_record": _per(replay_s, total("records", "likelihood.replay")),
        "estimation.nm_s": nm_s,
        "estimation.nm_evals": nm_evals,
        "estimation.nm_restarts": total("restarts", "estimation.fit_nelder_mead"),
        "estimation.nm_us_per_eval": _per(nm_s, nm_evals),
        "estimation.mh_s": mh_s,
        "estimation.mh_us_per_iter": _per(mh_s, total("iterations", "estimation.fit_mh")),
        "estimation.mh_acceptance": (
            sum(s.counts.get("acceptance", 0.0) for s in mh_spans) / len(mh_spans) if mh_spans else 0.0
        ),
        "estimation.integrated_self_s": float(sum(selfs[s.id] for s in of("estimation.fit_integrated"))),
        "degrees.counts_s": secs("degrees.degree_counts", "degrees.degree_counts_from_arrays"),
        "degrees.ccdf_s": secs("degrees.ccdf"),
        "degrees.limit_pmf_s": secs("degrees.limit_pmf"),
    }


def spans_as_dicts(spans: list[Span]) -> list[dict]:
    selfs = self_times(spans)
    return [{**asdict(s), "self": selfs[s.id]} for s in spans]
