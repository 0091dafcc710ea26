"""The three benchmark workloads: inputs, set-up, timed rounds, output checks.

``run.py`` generates a workload's inputs with ``make_inputs`` and then runs
this file in a fresh process, so that peak memory is the workload's own::

    python3 perfbench/workload.py --workload caption --inputs DIR \
        --seconds 20 --trace 0 --expected DIR/expected.json --result DIR/result.json

A workload repeats identical *rounds* until ``--seconds`` have passed.  Every
round is checked against the expected outputs (see ``expected.json``), so an
operation fails when it raises or when its output differs.  With
``--trace 1`` the process runs an untraced round, set-up and a round under the
tracer, and another untraced round; the per-layer metrics describe the traced
set-up plus round, and the overhead compares it with the untraced rounds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mrnn import cli, corpus, evaluation, inference, model, training
from mrnn.numerics import Rng

from tracer import Tracer

# Paper dimensions: d_e1 = d_e2 = 128, d_r = 256, d_m = 512, float64.
PAPER_DIMS = {"d_e1": 128, "d_e2": 128, "d_r": 256, "d_m": 512}

# Synthetic corpora.  Topics set the vocabulary size, and so the share of the
# output layer: V~1000 for train, V=64 for retrieval, V~3300 for caption.
CORPORA = {
    "train": {"images": 200, "topics": 200},
    "retrieval": {"images": 200, "topics": 5},
    "caption": {"images": 1024, "topics": 400},
}

SETUP_BURST_S = 0.5        # set-up is repeated this long before and after each round
TRAIN_EPOCHS = 1           # epochs per train() call; one call is one round
COST_RTOL = 1e-9           # per-epoch cost and val perplexity
BLEU_RTOL = 1e-12
RETRIEVAL_SHORTLIST = 10
NORM_IMAGES = 100          # the CLI default of --norm-images
CHECKPOINT_SALT = 0x5EED   # checkpoint seed = input seed ^ salt
BENCH_SPANS = ("cli.retrieval_t2i", "cli.retrieval_i2t")
INPUTS_FILE = "bench_inputs.json"


def _quiet(fn, *args):
    """Call fn with its prints sent to stderr; stdout belongs to the runner."""
    with redirect_stdout(sys.stderr):
        return fn(*args)


def make_inputs(workload: str, seed: int, out_dir, corpus_spec: dict | None = None,
                dims: dict | None = None) -> Path:
    """Write one workload's inputs, all derived from ``seed``, into ``out_dir``.

    ``mrnn synth`` writes the corpus.  For retrieval and caption a seeded,
    untrained checkpoint at ``dims`` is written with ``save_checkpoint``, with
    the vocabulary that ``mrnn train`` would build from the same corpus.
    """
    out = Path(out_dir)
    spec = dict(corpus_spec or CORPORA[workload])
    dims = dict(dims or PAPER_DIMS)
    rc = _quiet(cli.main, ["synth", "--out", str(out), "--images", str(spec["images"]),
                           "--topics", str(spec["topics"]), "--seed", str(seed)])
    if rc != 0:
        raise RuntimeError(f"mrnn synth exited with {rc}")
    if workload != "train":
        pairs = corpus.load_captions(out / "captions.tsv")
        split = corpus.load_split_map(out / "split.tsv")
        store = corpus.load_features(out / "features.mrnf")
        vocab = corpus.build_vocabulary([t for i, t in pairs if split[i] == "train"])
        cfg = model.ModelConfig(vocab_size=vocab.size, d_i=store.feature_dim, **dims)
        params = model.ModelParams.initialize(cfg, Rng(seed ^ CHECKPOINT_SALT))
        model.save_checkpoint(params, out / "checkpoint.mrnm")
        corpus.save_vocab(vocab, out / "vocab.txt")
    (out / INPUTS_FILE).write_text(json.dumps(
        {"workload": workload, "seed": seed, "corpus": spec, "dims": dims}))
    return out


@dataclass
class Round:
    """One round: wall time, work units done, per-operation latencies, outputs."""
    seconds: float
    units: int
    latencies_ms: list[float]
    observed: dict
    named: dict = field(default_factory=dict)  # rates under the workload's own names
    attempted: int = 0
    failed: int = 0


class TrainWorkload:
    """``training.train`` with the default TrainConfig, one epoch per call.

    Operations: every SGD step plus the epoch's final ``cost()``; latency
    unit: one epoch as reported in ``TrainReport``; work unit: one
    predicted position.
    """

    ALIASES = {"train_positions_per_s": "work_per_s"}

    def __init__(self, inputs: Path, meta: dict):
        self.inputs, self.dims, self.seed = inputs, meta["dims"], meta["seed"]

    def setup(self) -> None:
        d = self.inputs
        self.store = self.dataset = None  # a reload must not hold the previous copy
        pairs = corpus.load_captions(d / "captions.tsv")
        self.store = corpus.load_features(d / "features.mrnf")
        split = corpus.load_split_map(d / "split.tsv")
        vocab = corpus.build_vocabulary([t for i, t in pairs if split.get(i) == "train"])
        self.dataset = corpus.build_dataset(pairs, split, vocab)
        mcfg = model.ModelConfig(vocab_size=vocab.size, d_i=self.store.feature_dim, **self.dims)
        self.config = training.TrainConfig(model=mcfg, epochs=TRAIN_EPOCHS, seed=self.seed)
        model.ModelParams.initialize(mcfg, Rng(self.config.seed), dtype=self.config.dtype)
        self.positions = sum(len(ex.tokens) + 1 for ex in self.dataset.train)
        self.steps = math.ceil(len(self.dataset.train) / self.config.batch_size)

    @property
    def ops(self) -> int:
        return TRAIN_EPOCHS * (self.steps + 1)

    def round(self, tracer) -> Round:
        t0 = time.perf_counter()
        _, report = training.train(self.config, self.dataset, self.store)
        seconds = time.perf_counter() - t0
        units = self.positions * TRAIN_EPOCHS
        return Round(seconds, units, [row.seconds * 1e3 for row in report.rows],
                     {"cost": [row.cost for row in report.rows],
                      "val_ppl": [row.val_ppl for row in report.rows]})

    def check(self, observed: dict, expected: dict | None) -> int:
        if expected is None:
            return 0
        failed = 0
        for e in range(TRAIN_EPOCHS):
            ok = all(e < len(observed[k]) and observed[k][e] is not None
                     and math.isclose(observed[k][e], expected[k][e], rel_tol=COST_RTOL)
                     for k in ("cost", "val_ppl"))
            failed += 0 if ok else self.steps + 1
        return failed


class RetrievalWorkload:
    """``mrnn eval retrieval`` in-process: t2i, then i2t with ``--shortlist``.

    Operations: queries (sentences for t2i, images for i2t); latency unit:
    one query, charged its command's wall time divided by its query count.
    Work unit: one teacher-forced position of one (sentence, image) pass as
    the paper defines the ranking (S*N passes for t2i, S*(N+K) for i2t), so
    that the rate does not depend on how long a seed's captions are.
    """

    ALIASES: dict = {}  # its own rates are per direction, in Round.named

    def __init__(self, inputs: Path, meta: dict):
        self.inputs = inputs

    def setup(self) -> None:
        d = self.inputs
        model.load_checkpoint(d / "checkpoint.mrnm")
        vocab = corpus.load_vocab(d / "vocab.txt")
        pairs = corpus.load_captions(d / "captions.tsv")
        corpus.load_features(d / "features.mrnf")
        split = corpus.load_split_map(d / "split.tsv")
        dataset = corpus.build_dataset(pairs, split, vocab)
        self.queries = {"t2i": len(dataset.validation),
                        "i2t": len({ex.image_id for ex in dataset.validation})}
        n_train = len({ex.image_id for ex in dataset.train})
        passes = {"t2i": self.queries["i2t"],
                  "i2t": self.queries["i2t"] + min(NORM_IMAGES, n_train)}
        positions = sum(len(ex.tokens) + 1 for ex in dataset.validation)
        self.units = {d: positions * n for d, n in passes.items()}

    @property
    def ops(self) -> int:
        return sum(self.queries.values())

    def _argv(self, direction: str) -> list[str]:
        d = self.inputs
        argv = ["eval", "retrieval", "--direction", direction,
                "--checkpoint", str(d / "checkpoint.mrnm"), "--vocab", str(d / "vocab.txt"),
                "--captions", str(d / "captions.tsv"), "--features", str(d / "features.mrnf"),
                "--split", str(d / "split.tsv"), "--subset", "val",
                "--out", str(d / f"out-{direction}")]
        if direction == "i2t":
            argv += ["--shortlist", str(RETRIEVAL_SHORTLIST)]
        return argv

    def round(self, tracer) -> Round:
        seconds, latencies, observed, named = 0.0, [], {}, {}
        for direction in ("t2i", "i2t"):
            metrics_path = self.inputs / f"out-{direction}" / "metrics.json"
            metrics_path.unlink(missing_ok=True)
            main = cli.main
            if tracer is not None:
                main = tracer.wrap(main, f"cli.retrieval_{direction}")
            t0 = time.perf_counter()
            rc = _quiet(main, self._argv(direction))
            dt = time.perf_counter() - t0
            n = self.queries[direction]
            seconds += dt
            latencies += [dt / n * 1e3] * n
            named[f"{direction}_queries_per_s"] = n / dt
            observed[direction] = (json.loads(metrics_path.read_text())
                                   if rc == 0 and metrics_path.exists() else None)
        return Round(seconds, sum(self.units.values()), latencies, observed, named)

    def check(self, observed: dict, expected: dict | None) -> int:
        return sum(n for direction, n in self.queries.items()
                   if observed[direction] is None
                   or (expected is not None and observed[direction] != expected[direction]))


FAILED_DIGEST = "--------"


def _digest(tokens) -> str:
    return hashlib.blake2b(" ".join(tokens).encode("utf-8"), digest_size=4).hexdigest()


class CaptionWorkload:
    """Closed loop, one caller: greedy, length-matched ``inference.generate``.

    One round captions every image once, in image-id order, forcing the
    length of the image's first reference caption (the ``eval bleu``
    protocol).  Operations: generate calls, plus the round's corpus BLEU.
    """

    ALIASES = {"caption_per_s": "work_per_s", "caption_ms_p50": "op_ms_p50",
               "caption_ms_p99": "op_ms_p99"}

    def __init__(self, inputs: Path, meta: dict):
        self.inputs = inputs

    def setup(self) -> None:
        d = self.inputs
        self.params = self.store = None  # a reload must not hold the previous copy
        self.params = model.load_checkpoint(d / "checkpoint.mrnm")
        self.vocab = corpus.load_vocab(d / "vocab.txt")
        pairs = corpus.load_captions(d / "captions.tsv")
        self.store = corpus.load_features(d / "features.mrnf")
        split = corpus.load_split_map(d / "split.tsv")
        dataset = corpus.build_dataset(pairs, split, self.vocab)
        refs: dict[str, list[list[str]]] = {}
        for ex in dataset.train + dataset.validation + dataset.test:
            refs.setdefault(ex.image_id, []).append(self.vocab.decode(ex.tokens))
        self.image_ids = sorted(refs)
        self.refs = [refs[i] for i in self.image_ids]
        self.configs = [inference.GenerationConfig(mode="greedy", force_length=len(r[0]))
                        for r in self.refs]

    @property
    def ops(self) -> int:
        return len(self.image_ids) + 1

    def round(self, tracer) -> Round:
        clock = time.perf_counter
        latencies, outputs = [], []
        start = clock()
        for image_id, gcfg in zip(self.image_ids, self.configs):
            t0 = clock()
            try:
                tokens = inference.generate(self.params, self.vocab, self.store.get(image_id), gcfg)
            except Exception:  # a failing call is counted, and the loop goes on
                traceback.print_exc(file=sys.stderr)
                tokens = None
            latencies.append((clock() - t0) * 1e3)
            outputs.append(tokens)
        seconds = clock() - start
        bleu = None
        if all(t is not None for t in outputs):
            bleu = list(evaluation.bleu(outputs, self.refs).as_tuple())
        return Round(seconds, len(outputs), latencies,
                     {"digests": "".join(_digest(t) if t is not None else FAILED_DIGEST
                                         for t in outputs), "bleu": bleu})

    def check(self, observed: dict, expected: dict | None) -> int:
        got = observed["digests"]
        if expected is None:  # only calls that raised can fail
            return got.count(FAILED_DIGEST) + (observed["bleu"] is None)
        want = expected["digests"]
        failed = sum(got[i:i + 8] != want[i:i + 8] for i in range(0, len(want), 8))
        bleu_ok = observed["bleu"] is not None and all(
            math.isclose(a, b, rel_tol=BLEU_RTOL, abs_tol=BLEU_RTOL)
            for a, b in zip(observed["bleu"], expected["bleu"]))
        return failed + (0 if bleu_ok and len(got) == len(want) else 1)


WORKLOADS = {"train": TrainWorkload, "retrieval": RetrievalWorkload,
             "caption": CaptionWorkload}


def run_round(wl, expected: dict | None, tracer=None) -> Round:
    """One round with failure accounting; a raising round fails all its ops."""
    try:
        rnd = wl.round(tracer)
    except Exception:  # the program under test failed: count it, keep running
        traceback.print_exc(file=sys.stderr)
        return Round(math.nan, 0, [], {}, attempted=wl.ops, failed=wl.ops)
    rnd.attempted = wl.ops
    try:
        rnd.failed = wl.check(rnd.observed, expected)
    except (KeyError, IndexError, TypeError):  # output of the wrong shape
        traceback.print_exc(file=sys.stderr)
        rnd.failed = wl.ops
    return rnd


def _setup_burst(wl, seconds: float, times: list[float]) -> None:
    """Set up repeatedly for ``seconds`` (at least once), recording each time.

    Bursts before and after every round sample set-up across the whole run,
    so that its minimum does not hang on the machine's state at one moment.
    """
    clock = time.perf_counter
    end = clock() + seconds
    while True:
        t0 = clock()
        wl.setup()
        t1 = clock()
        times.append(t1 - t0)
        if t1 >= end:
            return


def run(workload: str, inputs, seconds: float, trace: bool,
        expected: dict | None, spans_path=None) -> dict:
    """Run one workload on generated inputs; returns metrics and accounting."""
    inputs = Path(inputs)
    meta = json.loads((inputs / INPUTS_FILE).read_text())
    wl = WORKLOADS[workload](inputs, meta)
    setup_times: list[float] = []
    rounds = []
    metrics: dict = {}
    if trace:
        _setup_burst(wl, 0.0, setup_times)
        rounds.append(run_round(wl, expected))
        tracer = Tracer()
        for name in BENCH_SPANS:
            tracer.sid(name)
        with tracer:
            wl.setup()
            traced = run_round(wl, expected, tracer)
        rounds.append(run_round(wl, expected))
        metrics.update(tracer.layer_metrics())
        untraced_s = (rounds[0].seconds + rounds[1].seconds) / 2
        metrics["trace.overhead_s"] = traced.seconds - untraced_s
        metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / untraced_s
        if spans_path is not None:
            tracer.save(spans_path)
        rounds.append(traced)
    else:
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            _setup_burst(wl, SETUP_BURST_S, setup_times)
            rounds.append(run_round(wl, expected))
        _setup_burst(wl, SETUP_BURST_S, setup_times)

    # Set-up is ms-scale and contention only adds to it, so it is the minimum
    # over all samples.  Rates are taken per round, then their median: a burst
    # of contention moves one round, not the run.  Every round makes the same
    # operations in the same order, so an operation's latency is its best over
    # the rounds; p50 and p99 are taken over operations (1024 on caption, 11
    # beyond p99), so they follow the work per call, not preemption.
    ok = [r for r in rounds if r.units]
    if ok:
        best = np.min([r.latencies_ms for r in ok], axis=0)
        metrics["setup_s"] = min(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["work_per_s"] = statistics.median(r.units / r.seconds for r in ok)
        metrics["op_ms_p50"] = float(np.percentile(best, 50))
        metrics["op_ms_p99"] = float(np.percentile(best, 99))
    # The workload's metrics under the names it has for its users.
    named = {name: metrics.get(name) for name in ("setup_s", "peak_rss_mb")}
    named.update({alias: metrics.get(name) for alias, name in wl.ALIASES.items()})
    for key in (ok[0].named if ok else {}):
        named[key] = statistics.median(r.named[key] for r in ok)
    return {
        "metrics": metrics,
        "named": named,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "rounds": len(rounds),
        "samples_per_round": len(ok[0].latencies_ms) if ok else 0,
        "setup_samples": len(setup_times),
        "observed": rounds[0].observed,
        "context": {"numpy": np.__version__,
                    "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get(
                        "openblas configuration"),
                    "python": sys.version.split()[0]},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--inputs", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--expected", default=None,
                   help="expected outputs; without it the round's outputs are only recorded")
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None, help="where a traced run writes its spans (.npz)")
    args = p.parse_args(argv)
    expected = json.loads(Path(args.expected).read_text()) if args.expected else None
    result = run(args.workload, args.inputs, args.seconds, bool(args.trace), expected,
                 args.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
