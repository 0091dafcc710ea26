#!/usr/bin/env python3
"""Regenerate ``perfbench/expected.json``: each workload's outputs per input seed.

Run from the repository root, at the commit whose outputs are the reference::

    python3 perfbench/make_expected.py

For every workload and every input seed it generates the inputs, runs one
round in a fresh process without checks and stores what the round produced:
the per-epoch cost and validation perplexity (train), ``metrics.json`` of
each direction (retrieval), a 32-bit digest of every generated caption and
the corpus BLEU (caption).
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    root = Path.cwd()
    env, workload = run.prepare(root)
    table = {"input_seeds": run.INPUT_SEEDS}
    (root / run.WORK_DIR).mkdir(exist_ok=True)
    for name in run.WORKLOADS:
        table[name] = {}
        for seed in range(run.INPUT_SEEDS):
            work = Path(tempfile.mkdtemp(prefix=f"expect-{name}-", dir=root / run.WORK_DIR))
            try:
                workload.make_inputs(name, seed, work)
                res = run.run_child(name, work, 0.0, 0, None, None, env)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            table[name][str(seed)] = res["observed"]
            print(f"{name} seed {seed}: {res['named']}", file=sys.stderr)
    (run.HERE / "expected.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
