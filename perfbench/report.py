#!/usr/bin/env python3
"""Run every workload and print all its metrics by name and unit.

Run from the repository root::

    python3 perfbench/report.py                       # one run per workload
    python3 perfbench/report.py --runs 10 --trace --baseline perfbench/baseline.json

Each run is ``perfbench/run.py`` on every workload of ``BENCHMARK.json``, for
its ``run_seconds``, with seed ``--first-seed + i``: the configuration that
``baseline.json`` records.  For every end-to-end metric the report gives the
median over runs and the spread: the distance between the first and third
quartile as a share of the median.  It also prints each workload's metrics
under their own names (for example ``t2i_queries_per_s``) and the operations
attempted and failed.  With ``--trace`` one traced run per workload adds the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

NAMED_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "train_positions_per_s": "1/s",
    "t2i_queries_per_s": "1/s", "i2t_queries_per_s": "1/s", "caption_per_s": "1/s",
    "caption_ms_p50": "ms", "caption_ms_p99": "ms",
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = {}
    for line in proc.stdout.strip().splitlines()[-3:]:
        out.update(json.loads(line))
    return out


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--trace", action="store_true", help="add one traced run per workload")
    p.add_argument("--baseline", default=None, help="write the summary to this JSON file")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary = {"seconds": seconds, "runs": args.runs, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, args.first_seed + i, seconds, 0)
                for i in range(args.runs)]
        entry = {
            "seeds": [args.first_seed + i for i in range(args.runs)],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "context": runs[0]["context"],
            "end_to_end": {name: summarize([r["metrics"][name]["value"] for r in runs])
                           for name in bounds},
            "named": {name: statistics.median(r["named"][name] for r in runs)
                      for name in runs[0]["named"]},
        }
        print(f"== {workload}: {args.runs} run(s) of {seconds} s, "
              f"attempted {entry['attempted']}, failed {entry['failed']}")
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  (spread above a third of bound)"
            print(f"  {name:28s} {s['median']:14.6g} {units[name]:6s} "
                  f"spread {s['spread']:.4f} bound {bounds[name]}{flag}")
        for name, value in entry["named"].items():
            print(f"  {name:28s} {value:14.6g} {NAMED_UNITS[name]}")
        if args.trace:
            traced = run_once(workload, args.first_seed, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["traced_failed"] = traced["failed"]
            for name, m in traced["metrics"].items():
                print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
        summary["workloads"][workload] = entry
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
