#!/usr/bin/env python3
"""Benchmark of the mrnn package: training, retrieval and captioning.

Run from the repository root::

    python3 perfbench/run.py --workload {train,retrieval,caption} --seed N \
        --seconds S --trace {0,1}

The runner generates the workload's inputs from the seed in a scratch
directory inside the repository, runs the workload in a fresh process with
the BLAS thread count pinned, checks every output against
``perfbench/expected.json`` and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Two lines before it give the run context and the
workload's metrics under their own names.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train", "retrieval", "caption")
# Inputs come from one of INPUT_SEEDS seeds (seed mod INPUT_SEEDS), the ones
# whose expected outputs expected.json holds.
INPUT_SEEDS = 16
WORK_DIR = ".perfbench-work"
OUT_DIR = ".perfbench-out"


# One BLAS thread: on a shared 2-core machine two threads gave caption calls
# a ~1 s warm-up and twice the round-to-round spread of one thread.
BLAS_THREADS = 1


def pin_blas(env) -> None:
    """Pin BLAS threads; must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)


def src_line_count(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(src.rglob("*.py")))


def git_commit(root: Path) -> str | None:
    """HEAD of ``root`` if it is a git work tree; git may not look above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def select(metrics: dict, declared: list[dict]) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise KeyError(f"workload did not report {', '.join(missing)}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def run_child(workload: str, work: Path, seconds: float, trace: int, expected: Path | None,
              spans: Path | None, env: dict) -> dict:
    result = work / "result.json"
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--inputs", str(work), "--seconds", repr(seconds), "--trace", str(trace),
           "--result", str(result)]
    if expected is not None:
        cmd += ["--expected", str(expected)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    # The program's own prints go to stderr: stdout ends with the result line.
    # A run may end up to one round (~10 s on train) past ``seconds``.
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=2 * seconds + 90)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(result.read_text())


def prepare(root: Path):
    """(environment for the workload process, module that makes inputs)."""
    src = root / "src"
    if not (src / "mrnn" / "__init__.py").is_file():
        raise FileNotFoundError(f"no mrnn package under {src}; run from the repository root")
    env = dict(os.environ)
    pin_blas(env)
    pin_blas(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(HERE)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.path[:0] = [str(src), str(HERE)]
    import workload
    return env, workload


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="mrnn benchmark runner")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        env, workload = prepare(root)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    input_seed = args.seed % INPUT_SEEDS
    table = json.loads((HERE / "expected.json").read_text())
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / WORK_DIR))
    try:
        workload.make_inputs(args.workload, input_seed, work)
        expected = work / "expected.json"
        expected.write_text(json.dumps(table[args.workload][str(input_seed)]))
        spans = None
        if args.trace:
            (root / OUT_DIR).mkdir(exist_ok=True)
            spans = root / OUT_DIR / f"trace-{args.workload}.npz"
        res = run_child(args.workload, work, args.seconds, args.trace, expected, spans, env)
        declared = spec["per_layer" if args.trace else "end_to_end"]
        metrics = select(res["metrics"], declared)
    except (OSError, ValueError, KeyError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass

    context = dict(res["context"], workload=args.workload, seed=args.seed,
                   input_seed=input_seed, seconds=args.seconds, trace=args.trace,
                   rounds=res["rounds"], latency_samples_per_round=res["samples_per_round"],
                   setup_samples=res["setup_samples"],
                   blas_threads=BLAS_THREADS, nproc=os.cpu_count(),
                   git_commit=git_commit(root), src_lines=src_line_count(root / "src"))
    print(json.dumps({"context": context}))
    if not args.trace:
        print(json.dumps({"named": res["named"]}))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
