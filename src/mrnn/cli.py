"""Command-line pipeline: synth, train, generate, eval, gradcheck, nearest.

Every run that writes artifacts writes them through ``write_run``, which
also writes a ``manifest.json`` capturing the settings, seeds and SHA-256
hashes of the input files, so two runs can be compared for drift.  Errors
come back as a single ``error: ...`` line on stderr and a nonzero exit code.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import math
import os
import sys
import time
from collections import Counter
from dataclasses import MISSING, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (MIN_COUNT, SynthSpec, build_dataset, build_vocabulary,
                     generate_synthetic_corpus, load_captions, load_features,
                     load_split_map, load_vocab, save_captions, save_features,
                     save_features_tsv, save_split_map, save_vocab, utf8_text)
from .evaluation import (check_fractions, corpus_perplexity, generation_bleu,
                         near_tie_sentences, recall_curve, retrieval_eval, shortlist)
from .inference import GenerationConfig, generate, log2_sum_exp2, log2prob_matrix
from .model import (VARIANTS, ModelConfig, load_checkpoint, nearest_words,
                    output_logit_scale, save_checkpoint)
from .numerics import Rng
from .training import (_DTYPES, CHECK_THRESHOLD, TINY_CONFIG, TrainConfig,
                       TrainingDiverged, batch_gradient, gradient_check, train)

# The `mrnn train` settings, each a --config key and a flag: the defaulted
# fields of ModelConfig and TrainConfig, plus the vocabulary cutoff.
TRAIN_DEFAULTS = {**{f.name: f.default for config in (ModelConfig, TrainConfig)
                     for f in fields(config) if f.default is not MISSING},
                  "min_count": MIN_COUNT}
TRAIN_CHOICES = {"variant": VARIANTS, "precision": tuple(_DTYPES)}


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# Flags that name an input file: a manifest records each one given as an
# input, with its SHA-256, and none of them as a setting.
FILE_FLAGS = ("captions", "features", "split", "config", "checkpoint", "vocab")
# Parsed values that are not options: the output directory and the dispatch.
NOT_SETTINGS = ("out", "command", "eval_command", "func")
REPORT_COLUMNS = ("epoch", "cost", "val_ppl", "grad_norm_mean", "grad_norm_max", "clip_frac")
TIMING_COLUMNS = ("epoch", "seconds", "positions_per_s", "sgd_s", "cost_s", "val_s")
RESCORE_COLUMNS = ("pass", "seconds", "sentences", "entries")

# A retrieval score's float32 error is taken to be under half of
# RESCORE_MARGIN * 2**-24 * a, a being the score's error scale: each
# position's |log2 P| + 1 + the model's logit error scale
# (``output_logit_scale``), summed as the score sums its positions.
# Measured errors reached 0.85x 2**-24 * a on the 16 retrieval input seeds
# (V=64) and 2.2x on tiny random-bias models whose outputs were sharpened
# up to 100x (tests/test_rescore.py): half of 16 is 3.6x the worst.  A
# re-scored entry past half its bound sends every sentence to float64
# (``_retrieval_scores``).
RESCORE_MARGIN = 16


# The variables that set the BLAS thread count, recorded in every manifest.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# Where the loaded libraries are listed, and OpenBLAS's thread getters: the
# scipy-openblas builds numpy ships, then a system OpenBLAS's.
MAPS_PATH = "/proc/self/maps"
THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                  "openblas_get_num_threads64_", "openblas_get_num_threads")


def _openblas_threads() -> int | None:
    """The thread count of the OpenBLAS loaded in this process, read with
    its own getter; None where no such library or getter is found."""
    try:
        with open(MAPS_PATH, encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in THREAD_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return int(getter())
    return None


@functools.cache
def blas_setup() -> dict:
    """The BLAS build and thread setup of this process, for the manifest:
    numpy's BLAS name and version, ``os.cpu_count()``, the thread variables
    (None where unset) and OpenBLAS's effective thread count.  Computed once
    per process; the thread count changes the bits of a GEMM's result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"),
            "cpu_count": os.cpu_count(), "env": {var: os.environ.get(var) for var in THREAD_VARS},
            "threads": _openblas_threads()}


def _csv(rows) -> str:
    """One line per row: text as itself, None as '', any other value its repr."""
    return "".join(",".join("" if v is None else v if isinstance(v, str) else repr(v)
                            for v in row) + "\n" for row in rows)


def write_run(args, outputs: dict, metrics: dict | None = None,
              settings: dict | None = None, unread=()) -> None:
    """Write a command's outputs and its ``manifest.json`` into ``--out``.

    ``outputs`` maps each output's manifest name to ``(file name, content)``:
    a list of rows (header row first) written as CSV, or a function that
    writes the file at the path it is given.  ``metrics`` adds
    ``metrics.json``, strict JSON with ``null`` for a value that is not
    finite, and ``metrics.csv``.  The manifest's inputs are the file flags
    given; its settings are ``settings``, by default every other option the
    command parsed but the ``unread`` ones, which the run never read.  The
    manifest's ``blas`` records ``blas_setup()``.
    Does nothing without ``--out``.
    """
    if args.out is None:
        return

    def dump(obj) -> str:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"

    if metrics is not None:
        finite = {name: None if isinstance(value, float) and not math.isfinite(value)
                  else value for name, value in metrics.items()}
        outputs = {"metrics_json": ("metrics.json",
                                    lambda path: path.write_text(dump(finite), encoding="utf-8")),
                   "metrics_csv": ("metrics.csv", [("metric", "value"),
                                                   *sorted(metrics.items())]),
                   **outputs}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for file_name, content in outputs.values():
        if callable(content):
            content(out / file_name)
        else:
            (out / file_name).write_text(_csv(content), encoding="utf-8")
    options = vars(args)
    manifest = {
        "blas": blas_setup(),
        "command": "-".join(filter(None, (args.command, options.get("eval_command")))),
        "inputs": {name: {"path": str(options[name]), "sha256": sha256_file(options[name])}
                   for name in FILE_FLAGS if options.get(name) is not None},
        "outputs": {name: file_name for name, (file_name, _) in outputs.items()},
        "settings": settings if settings is not None else {
            name: value for name, value in options.items()
            if name not in (*FILE_FLAGS, *NOT_SETTINGS, *unread)},
        "tool": "mrnn",
        "version": __version__,
    }
    (out / "manifest.json").write_text(dump(manifest), encoding="utf-8")


def load_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` settings file; '#' starts a comment."""
    values = {}
    with utf8_text(path):
        text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in TRAIN_DEFAULTS:
            raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
        values[key] = raw
    return values


def parse_setting(name: str, raw: str):
    """A config-file or flag string as the type of the setting's default.

    ``clip_norm``, the one setting that may be None, also takes ``none``.
    """
    if name == "clip_norm" and raw.lower() == "none":
        return None
    typ = type(TRAIN_DEFAULTS[name])
    try:
        return typ(raw)
    except ValueError:
        raise ValueError(f"{name} = {raw!r} is not a valid {typ.__name__}") from None


def resolve_settings(args) -> dict:
    """Defaults, then config file, then explicit command-line flags."""
    raw = load_config_file(args.config) if args.config else {}
    raw.update((name, getattr(args, name)) for name in TRAIN_DEFAULTS
               if getattr(args, name) is not None)
    return {**TRAIN_DEFAULTS, **{name: parse_setting(name, v) for name, v in raw.items()}}


def require_files(*paths) -> None:
    for path in paths:
        if path is not None and not Path(path).exists():
            raise FileNotFoundError(f"missing file: {path}")


def require_counts(args, *flags) -> None:
    """Count flags, where given, must be at least 1."""
    for flag in flags:
        value = getattr(args, flag.lstrip("-").replace("-", "_"), None)
        if value is not None and value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")


# ---------------------------------------------------------------------------
# commands

def cmd_synth(args) -> int:
    spec = SynthSpec(n_topics=args.topics, captions_per_image=args.captions_per_image,
                     noise_dim=args.noise_dim, train_frac=args.train_frac,
                     val_frac=args.val_frac)
    dataset, store, _ = generate_synthetic_corpus(Rng(args.seed), args.images, spec)

    examples = dataset.train + dataset.validation + dataset.test
    pairs = [(ex.image_id, ex.raw_text) for ex in examples]
    pairs.sort()
    split_map = {}
    for label, bucket in (("train", dataset.train), ("val", dataset.validation),
                          ("test", dataset.test)):
        for ex in bucket:
            split_map[ex.image_id] = label

    features = (("features.tsv", partial(save_features_tsv, store))
                if args.feature_format == "tsv"
                else ("features.mrnf", partial(save_features, store)))
    write_run(args, {"captions": ("captions.tsv", partial(save_captions, pairs)),
                     "features": features,
                     "split": ("split.tsv", partial(save_split_map, split_map))})
    print(f"wrote {len(split_map)} images / {len(pairs)} captions to {args.out}")
    return 0


def cmd_train(args) -> int:
    require_files(args.captions, args.features, args.split, args.config)
    settings = resolve_settings(args)
    pairs = load_captions(args.captions)
    store = load_features(args.features)
    split_map = load_split_map(args.split)

    train_texts = [text for image_id, text in pairs if split_map.get(image_id) == "train"]
    vocab = build_vocabulary(train_texts, min_count=settings["min_count"])
    dataset = build_dataset(pairs, split_map, vocab)

    params, report = train(TrainConfig.from_settings(settings, vocab.size, store.feature_dim),
                           dataset, store)

    def table(columns):
        return [columns, *([getattr(row, name) for name in columns] for row in report.rows)]

    # the wall-clock columns go to timing.csv, so every other file of a rerun
    # is byte-identical; clip_norm is recorded as a string: a float or "none"
    write_run(args, {"checkpoint": ("checkpoint.mrnm", partial(save_checkpoint, params)),
                     "vocab": ("vocab.txt", partial(save_vocab, vocab)),
                     "report": ("train_report.csv", table(REPORT_COLUMNS)),
                     "timing": ("timing.csv", table(TIMING_COLUMNS))},
              settings={**settings, "clip_norm": str(settings["clip_norm"]).lower()})
    last = report.rows[-1] if report.rows else None
    if last is not None:
        tail = f" val_ppl={last.val_ppl:.4f}" if last.val_ppl is not None else ""
        print(f"epoch {last.epoch}: cost={last.cost:.6f}{tail}")
    print(f"checkpoint written to {Path(args.out) / 'checkpoint.mrnm'}")
    return 0


def _load_model(args):
    """The checkpoint and the vocabulary it was trained with."""
    require_files(args.checkpoint, args.vocab)
    params = load_checkpoint(args.checkpoint)
    vocab = load_vocab(args.vocab)
    if vocab.size != params.config.vocab_size:
        raise ValueError(f"{args.vocab} has {vocab.size} words but {args.checkpoint} "
                         f"was trained on {params.config.vocab_size}")
    return params, vocab


def cmd_generate(args) -> int:
    require_files(args.features)
    params, vocab = _load_model(args)
    store = load_features(args.features)
    prefix = vocab.encode(args.prefix) if args.prefix else None
    gcfg = GenerationConfig(mode=args.mode, max_length=args.max_len,
                            prefix=prefix, seed=args.seed)
    for image_id in args.image_id:
        tokens = generate(params, vocab, store.get(image_id), gcfg)
        print(f"{image_id}\t{' '.join(tokens)}")
    return 0


def _load_eval_inputs(args):
    require_files(args.captions, args.features, args.split)
    params, vocab = _load_model(args)
    pairs = load_captions(args.captions)
    store = load_features(args.features)
    split_map = load_split_map(args.split) if args.split else None
    dataset = build_dataset(pairs, split_map or {p[0]: "test" for p in pairs}, vocab)
    subset = {"train": dataset.train, "val": dataset.validation,
              "test": dataset.test,
              "all": dataset.train + dataset.validation + dataset.test}[args.subset]
    if not subset:
        raise ValueError(f"subset {args.subset!r} is empty")
    return params, vocab, subset, store, dataset


def cmd_eval_ppl(args) -> int:
    params, _, subset, store, _ = _load_eval_inputs(args)
    ppl = corpus_perplexity(params, subset, store)
    print(f"ppl {ppl!r}")
    write_run(args, {}, metrics={"ppl": ppl})
    return 0


def cmd_eval_bleu(args) -> int:
    # works for the baseline variant too: its decoder ignores the image, so
    # every image gets the same (unconditioned) caption
    params, vocab, subset, store, _ = _load_eval_inputs(args)
    score, _ = generation_bleu(params, vocab, subset, store,
                               length_matched=not args.no_length_match,
                               max_length=args.max_len,
                               cumulative=not args.order_only)
    print(f"B-1 {score.b1:.4f} B-2 {score.b2:.4f} B-3 {score.b3:.4f}")
    # length matching overrides --max-len
    write_run(args, {}, metrics={"b1": score.b1, "b2": score.b2, "b3": score.b3},
              unread=() if args.no_length_match else ("max_len",))
    return 0


def _norm_feature_set(dataset, store, k: int, seed: int) -> np.ndarray:
    """Image features used to approximate the unconditional sentence probability.

    Sampled once per run from the training images (all images when no split
    was given), deterministically under the seed.
    """
    ids = sorted({ex.image_id for ex in dataset.train}) or store.ids()
    if k < len(ids):
        ids = sorted(Rng(seed).choice(ids, k))
    return store.matrix(ids)


def _retrieval_scores(args, params, subset, store, dataset):
    """Scores, same-shape boolean relevance and timing rows for one direction,
    images in id order and captions in subset order, so ties go to the lower
    id or caption.

    A float64 model scores every pair with a float32 copy of its weights,
    then only the sentences of a near-tie (``evaluation.near_tie_sentences``)
    again in float64, so that the ranks are float64's (README, "Retrieval
    precision"); a float32 model scores once.  The timing rows are
    ``(pass, seconds, sentences, entries)``, one per precision.
    """
    require_counts(args, "--norm-images", "--shortlist")
    image_ids = sorted({ex.image_id for ex in subset})
    row = {image_id: i for i, image_id in enumerate(image_ids)}
    own = np.array([row[ex.image_id] for ex in subset])  # each caption's image row
    # sentence by image until the return, which puts the queries first
    relevant = own[:, None] == np.arange(len(image_ids))
    feats = store.matrix(image_ids)
    tokens = [ex.tokens for ex in subset]
    t2i = args.direction == "t2i"
    positions = np.array([len(t) + 1 for t in tokens])
    masked = np.zeros(relevant.shape, dtype=bool)
    if not t2i:
        norm_feats = _norm_feature_set(dataset, store, args.norm_images, args.seed)
    if args.shortlist:
        near = shortlist(feats, feats, size=args.shortlist)
        # each image is at distance 0 from itself, so it drops out only when
        # K lower rows tie with it: then it takes the K-th row's place
        lost = ~(near == np.arange(len(near))[:, None]).any(axis=1)
        near[lost, -1] = np.nonzero(lost)[0]
        keep = np.zeros((len(image_ids), len(image_ids)), dtype=bool)
        np.put_along_axis(keep, near, True, axis=1)
        masked = ~keep[:, own].T
    floor = 1.0 + output_logit_scale(params)  # a position's error scale past |log2 P|
    seconds, counts = Counter(), Counter()

    def score(model, sentences):
        """The sentences' scores and their error scales, (sentences, images)."""
        start = time.perf_counter()
        some = [tokens[i] for i in sentences]
        if t2i:
            # -log2 perplexity: higher = more relevant, and finite where the
            # perplexity itself would overflow
            scores = log2prob_matrix(model, some, feats) / positions[sentences, None]
            scales = np.abs(scores) + floor
        else:
            # log2 P(s|q) less the sentence's marginal over the norm images,
            # log2 mean_k P(s|I'_k), from one pass over the sentences; each
            # of the two sums the sentence's positions
            logs = log2prob_matrix(model, some, np.vstack([feats, norm_feats]))
            log2p = logs[:, :len(feats)]
            marginals = log2_sum_exp2(logs[:, len(feats):]) - math.log2(len(norm_feats))
            scores = log2p - marginals[:, None]
            scales = (np.abs(log2p) + np.abs(marginals)[:, None]
                      + 2 * floor * positions[sentences, None])
        scores[masked[sentences]] = -np.inf
        seconds[model.dtype.name] += time.perf_counter() - start
        counts[model.dtype.name] += len(sentences)
        return scores, scales

    queries_first = (lambda a: a) if t2i else np.transpose

    def near_ties(scores, bounds, sentences, exact_ties=True):
        return near_tie_sentences(queries_first(scores), queries_first(relevant[sentences]),
                                  queries_first(bounds), 0 if t2i else 1, exact_ties)

    every = np.arange(len(tokens))
    two_pass = params.dtype == np.float64
    scores, scales = score(params.astype(np.float32) if two_pass else params, every)
    if two_pass:
        bound = RESCORE_MARGIN * 2.0 ** -24 * scales  # 2**-24: float32's unit roundoff
        redo = near_ties(scores, bound, every)
        if len(redo):
            exact, _ = score(params, redo)
            finite = ~masked[redo]
            # A float32 error past half its bound may hide an order.  And a
            # float64 score moves in its last ulps (2**-53) with the other
            # sentences of its call, so re-scored entries that close may
            # order unlike the all-sentence call's; an exact tie comes from
            # equal inputs (an exact repeat, equal image rows), which tie in
            # every call.  Either way every sentence is scored in float64,
            # in one call.
            past_bound = not (np.abs(exact[finite] - scores[redo][finite])
                              < bound[redo][finite] / 2).all()
            ulps_apart = len(redo) < len(every) and len(near_ties(
                exact, RESCORE_MARGIN * 2.0 ** -53 * scales[redo], redo, exact_ties=False))
            if past_bound or ulps_apart:
                redo, (exact, _) = every, score(params, every)
            scores[redo] = exact
    timing = [(name, float(seconds[name]), counts[name], counts[name] * len(image_ids))
              for name in ("float32", "float64")]
    return queries_first(scores), queries_first(relevant), timing


def cmd_eval_retrieval(args) -> int:
    if args.direction == "t2i" and args.shortlist is not None:
        raise ValueError("--shortlist restricts the i2t candidates; t2i takes none")
    try:
        fractions = [float(f) for f in args.fractions.split(",") if f.strip()]
    except ValueError:
        raise ValueError(f"--fractions takes comma-separated numbers, "
                         f"got {args.fractions!r}") from None
    check_fractions(fractions)
    params, _, subset, store, dataset = _load_eval_inputs(args)
    scores, relevant, timing = _retrieval_scores(args, params, subset, store, dataset)
    metrics = retrieval_eval(scores, relevant, ks=(1, 5, 10))
    points = recall_curve(scores, relevant, fractions).points
    print(f"{args.direction} R@1 {metrics.r_at[1]:.1f} R@5 {metrics.r_at[5]:.1f} "
          f"R@10 {metrics.r_at[10]:.1f} Med_r {metrics.med_r}")
    print(_csv(points), end="")
    write_run(args, {"curve": ("curve.csv", [("fraction", "mean_matches"), *points]),
                     "timing": ("timing.csv", [RESCORE_COLUMNS, *timing])},
              metrics={"direction": args.direction, "r_at_1": metrics.r_at[1],
                       "r_at_5": metrics.r_at[5], "r_at_10": metrics.r_at[10],
                       "med_r": metrics.med_r},
              # only i2t samples norm images
              unread=("norm_images", "seed") if args.direction == "t2i" else ())
    return 0


def cmd_gradcheck(args) -> int:
    require_counts(args, "--samples")
    grad_fn = batch_gradient
    if args.corrupt:
        blocks = list(ModelConfig(variant=args.variant, **TINY_CONFIG).param_shapes())
        if args.corrupt not in blocks:
            raise ValueError(f"--corrupt {args.corrupt!r} is not a block of the "
                             f"{args.variant} variant; valid blocks: {', '.join(blocks)}")

        def grad_fn(params, examples, features, _block=args.corrupt):
            grads = batch_gradient(params, examples, features)
            grads.arrays[_block] += 0.01
            return grads

    report = gradient_check(n_samples=args.samples, seed=args.seed,
                            variant=args.variant, grad_fn=grad_fn)
    worst = report.worst
    status = "PASS" if report.passed else "FAIL"
    print(f"gradcheck {status}: max relative error {report.max_rel_err:.3e} "
          f"(block {worst.block}, instance {worst.instance}) over "
          f"{args.samples} instances ({report.redraws} redrawn), "
          f"threshold {CHECK_THRESHOLD:.0e}")
    return 0 if report.passed else 1


def cmd_nearest(args) -> int:
    require_counts(args, "-k")
    params, vocab = _load_model(args)
    for token in nearest_words(params, vocab, args.token, args.k):
        print(token)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_eval_common(sub):
    sub.add_argument("--checkpoint", required=True)
    sub.add_argument("--vocab", required=True)
    sub.add_argument("--captions", required=True)
    sub.add_argument("--features", required=True)
    sub.add_argument("--split", default=None)
    sub.add_argument("--subset", default="test",
                     choices=["train", "val", "test", "all"])
    sub.add_argument("--out", default=None, help="directory for metric files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrnn",
        description="Multimodal RNN caption generation and image-sentence retrieval.")
    parser.add_argument("--version", action="version", version=f"mrnn {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("synth", help="write a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--images", type=int, required=True)
    p.add_argument("--topics", type=int, default=SynthSpec.n_topics)
    p.add_argument("--captions-per-image", type=int, default=SynthSpec.captions_per_image)
    p.add_argument("--noise-dim", type=int, default=SynthSpec.noise_dim)
    p.add_argument("--train-frac", type=float, default=SynthSpec.train_frac)
    p.add_argument("--val-frac", type=float, default=SynthSpec.val_frac)
    p.add_argument("--feature-format", choices=["bin", "tsv"], default="bin")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = commands.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--captions", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None,
                   help="key = value settings file; the keys are the flag names below "
                        "with '_' for '-'")
    for name, default in TRAIN_DEFAULTS.items():
        note = "; 'none' turns clipping off" if name == "clip_norm" else ""
        p.add_argument(f"--{name.replace('_', '-')}", dest=name,
                       choices=TRAIN_CHOICES.get(name), help=f"default {default}{note}")
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("generate", help="caption images from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--image-id", action="append", required=True)
    p.add_argument("--mode", choices=["greedy", "sample"], default="greedy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-len", type=int, default=GenerationConfig.max_length)
    p.add_argument("--prefix", default=None, help="reference words to seed generation")
    p.set_defaults(func=cmd_generate)

    p = commands.add_parser("eval", help="evaluation metrics")
    evals = p.add_subparsers(dest="eval_command", required=True)

    e = evals.add_parser("ppl", help="corpus perplexity")
    _add_eval_common(e)
    e.set_defaults(func=cmd_eval_ppl)

    e = evals.add_parser("bleu", help="BLEU of greedy generations")
    _add_eval_common(e)
    e.add_argument("--order-only", action="store_true",
                   help="report order-n precision instead of cumulative B-n")
    e.add_argument("--no-length-match", action="store_true",
                   help="stop at the end sign instead of matching reference length")
    e.add_argument("--max-len", type=int, default=GenerationConfig.max_length)
    e.set_defaults(func=cmd_eval_bleu)

    e = evals.add_parser("retrieval", help="R@K, median rank and recall curve")
    _add_eval_common(e)
    e.add_argument("--direction", required=True, choices=["i2t", "t2i"])
    e.add_argument("--norm-images", type=int, default=100,
                   help="images sampled for the i2t sentence-probability marginal")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--shortlist", type=int, default=None,
                   help="restrict i2t candidates to captions of the K nearest images")
    e.add_argument("--fractions", default="0.01,0.02,0.05,0.1,0.2,0.5,1.0",
                   help="recall-curve fractions of the candidates (curve.csv)")
    e.set_defaults(func=cmd_eval_retrieval)

    p = commands.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variant", choices=VARIANTS, default="mrnn")
    p.add_argument("--corrupt", default=None, metavar="BLOCK",
                   help="add a constant to the named gradient block (negative control)")
    p.set_defaults(func=cmd_gradcheck)

    p = commands.add_parser("nearest", help="nearest words in embedding space")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--token", required=True)
    p.add_argument("-k", type=int, default=5)
    p.set_defaults(func=cmd_nearest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, TrainingDiverged) as exc:
        # a KeyError's str() is the repr of its message, quotes and all
        text = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        message = " ".join(str(text).split())  # keep the error on a single line
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
