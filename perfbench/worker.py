"""One child process of a benchmark run; ``run.py`` starts it.

``setup`` imports hybridnet and generates the workload's inputs, and reports
how long that took.  ``measure`` runs the timed body in a loop for the given
number of seconds, checks every iteration's outputs, and reports wall times,
check results, per-layer metrics (when traced) and the peak resident memory
of this fresh process and its pool workers.  Results go to a JSON file.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Tracer, instrumented, layer_metrics, spans_as_dicts  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

PROBE_BATCHES = 7
PROBE_CALLS = 40


def _import_hybridnet():
    import hybridnet
    import hybridnet.cli  # noqa: F401  (the CLI module is part of the measured API)

    return hybridnet


def cmd_setup(args) -> dict:
    t0 = time.perf_counter()
    hn = _import_hybridnet()
    inputs = WORKLOADS[args.workload].setup(hn, Path(args.work), args.seed)
    return {"setup_s": time.perf_counter() - t0, "inputs": inputs}


def _probe_us(fn, *args) -> float:
    """Median over batches of the per-call time of ``fn(*args)``, in µs."""
    per_call = []
    for _ in range(PROBE_BATCHES):
        t0 = time.perf_counter()
        for _ in range(PROBE_CALLS):
            fn(*args)
        per_call.append((time.perf_counter() - t0) / PROBE_CALLS * 1e6)
    return statistics.median(per_call)


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def cmd_measure(args) -> dict:
    import numpy as np
    import scipy

    hn = _import_hybridnet()
    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    inputs = json.loads(Path(args.inputs).read_text())
    modes = (False, True) if args.trace else (False,)
    walls: dict[bool, list[float]] = {False: [], True: []}
    checks = Checks()
    layers: list[dict] = []
    spans: list[dict] = []
    ess_min: list[float] = []
    records = 0
    error = None
    rounds = 0
    t_start = time.perf_counter()
    while error is None:
        # alternate the order so neither mode always runs first in its round
        for traced in modes if rounds % 2 == 0 else modes[::-1]:
            tracer = Tracer(f"{workload.name}-{args.seed}-{rounds}") if traced else None
            try:
                with instrumented(hn, tracer) as api:
                    t0 = time.perf_counter()
                    it = workload.body(api, work, inputs)
                    wall = time.perf_counter() - t0
            except Exception as exc:  # a failing program is reported, not raised
                checks.expect(f"{workload.name} body raised {type(exc).__name__}: {exc}", False)
                error = repr(exc)
                break
            walls[traced].append(wall)
            records = it.records
            workload.check(hn, it, checks)
            if not traced:
                ess_min = workload.ess_min(it)
            else:
                row = layer_metrics(tracer.spans)
                row["generator.ipc_bytes"] = workload.ipc_bytes(it)
                if it.probe_stats is not None:
                    row["likelihood.eval_us"] = _probe_us(hn.log_likelihood, it.probe_stats, it.probe_point)
                    row["likelihood.score_us"] = _probe_us(hn.score, it.probe_stats, it.probe_point)
                else:
                    row["likelihood.eval_us"] = row["likelihood.score_us"] = 0.0
                layers.append(row)
                spans.extend(spans_as_dicts(tracer.spans))
            del it
            gc.collect()  # every iteration starts from the same heap state
        rounds += 1
        elapsed = time.perf_counter() - t_start
        if error is not None or elapsed + elapsed / rounds > args.seconds:
            break
    return {
        "walls": walls[False],
        "traced_walls": walls[True],
        "records": records,
        "attempted": checks.attempted,
        "failures": checks.failures,
        "error": error,
        "ess_min": ess_min,
        "layers": layers,
        "spans": spans,
        "peak_rss_mib": _peak_rss_mib(),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "hybridnet": hn.__version__,
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("role", choices=("setup", "measure"))
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--inputs")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = cmd_setup(args) if args.role == "setup" else cmd_measure(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
