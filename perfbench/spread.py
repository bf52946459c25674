#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload table_integrated --seeds 1-10 [--trace 1] [--out FILE]

For every workload and metric it reports the values, the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``.  For end-to-end metrics it also gives the bound from
BENCHMARK.json and whether the spread stays below a third of it (``setup_s``
is exempt from the spread rule; only its median is compared).  Runs are
sequential, so they do not compete for the cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in _seeds(args.seeds):
            report, result = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append((seed, report, result))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{n}={v['value']:.6g}" for n, v in result["metrics"].items()
                             if n in bounds or args.trace), file=sys.stderr)
        metrics = {}
        for name, first in runs[0][2]["metrics"].items():
            s = summarise([r[2]["metrics"][name]["value"] for r in runs])
            s["unit"] = first["unit"]
            if name in bounds:
                s["bound"] = bounds[name]
                s["steady"] = name == "setup_s" or s["spread"] < bounds[name] / 3
            metrics[name] = s
        extra = {}
        for name in ("error_rate", "ess_per_s"):
            vals = [r[1]["end_to_end"][name]["value"] for r in runs if name in r[1]["end_to_end"]]
            if vals:
                extra[name] = {**summarise(vals), "unit": runs[0][1]["end_to_end"][name]["unit"]}
        summary["workloads"][workload] = {
            "seeds": [r[0] for r in runs],
            "all_correct": all(r[2]["correct"] for r in runs),
            "provenance": runs[0][1]["provenance"],
            "metrics": metrics,
            "report_only": extra,
        }
    text = json.dumps(summary, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    for workload, w in summary["workloads"].items():
        for name, s in w["metrics"].items():
            if "bound" in s:
                print(f"{workload:18s} {name:14s} median={s['median']:.6g} {s['unit']} "
                      f"spread={s['spread']:.4f} bound={s['bound']} steady={s['steady']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
