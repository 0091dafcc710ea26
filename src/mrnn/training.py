"""Perplexity-based cost, the SGD loop and the finite-difference harness.

The cost is the per-word average negative log2 probability over all
predicted positions (content words plus the end sign) plus an L2 penalty
on the weight matrices.  Gradients are computed by full BPTT per sentence,
normalized per word, averaged over the batch and converted to base-2 units
so a step descends exactly the reported cost.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .corpus import DatasetSplit, CaptionedExample, ImageFeatureStore
from .model import (LN2, Gradients, ModelConfig, ModelParams, backward_sentence,
                    forward_sentence, sentence_inputs_targets)
from .numerics import Rng

_DTYPES = {"float64": np.float64, "float32": np.float32}


class TrainingDiverged(RuntimeError):
    """Raised when the training cost stops being finite."""


@dataclass
class TrainConfig:
    model: ModelConfig
    learning_rate: float = 0.05
    lambda_reg: float = 1e-5
    batch_size: int = 16
    epochs: int = 10
    clip_norm: float | None = 5.0
    seed: int = 0
    eval_every: int = 1
    precision: str = "float64"

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.lambda_reg < 0:
            raise ValueError("lambda_reg must be >= 0")
        if self.batch_size < 1 or self.epochs < 0 or self.eval_every < 1:
            raise ValueError("batch_size/epochs/eval_every out of range")
        if self.clip_norm is not None and not (math.isfinite(self.clip_norm)
                                               and self.clip_norm > 0):
            raise ValueError("clip_norm must be a positive finite number or None")
        if self.precision not in _DTYPES:
            raise ValueError(f"precision must be one of {sorted(_DTYPES)}")

    @property
    def dtype(self):
        return _DTYPES[self.precision]

    @classmethod
    def from_settings(cls, settings: dict, vocab_size: int, d_i: int) -> "TrainConfig":
        """Both configs from ``{field name: value}`` settings; other keys are
        ignored, and fields the settings leave out keep their defaults."""
        def pick(config_cls):
            return {f.name: settings[f.name] for f in fields(config_cls) if f.name in settings}
        return cls(model=ModelConfig(vocab_size=vocab_size, d_i=d_i, **pick(ModelConfig)),
                   **pick(cls))


@dataclass
class EpochRow:
    epoch: int
    cost: float
    val_ppl: float | None
    seconds: float


@dataclass
class TrainReport:
    rows: list[EpochRow] = field(default_factory=list)
    checkpoint_path: str | None = None

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,cost,val_ppl,seconds\n")
            for row in self.rows:
                val = "" if row.val_ppl is None else repr(row.val_ppl)
                fh.write(f"{row.epoch},{row.cost!r},{val},{row.seconds:.3f}\n")


def _feature_for(params: ModelParams, features: ImageFeatureStore | None,
                 example: CaptionedExample):
    if params.config.variant == "baseline":
        return None
    if features is None:
        raise ValueError("the mrnn variant needs an image feature store")
    return features.get(example.image_id)


def bits_per_word(params: ModelParams, examples: list[CaptionedExample],
                  features: ImageFeatureStore | None) -> float:
    """Negative log2 likelihood per predicted position (content words and
    end signs), over all of ``examples``."""
    if not examples:
        raise ValueError("need at least one example")
    nll_bits = 0.0
    n_words = 0
    for ex in examples:
        trace = forward_sentence(params, ex.tokens, _feature_for(params, features, ex))
        _, targets = sentence_inputs_targets(ex.tokens)
        nll_bits -= trace.log2prob(targets)
        n_words += len(targets)
    return nll_bits / n_words


def cost(params: ModelParams, examples: list[CaptionedExample],
         features: ImageFeatureStore | None, lambda_reg: float) -> float:
    """Average per-word negative log2 likelihood plus lambda * ||weights||^2."""
    return bits_per_word(params, examples, features) + lambda_reg * params.weight_sq_norm()


def sentence_gradient(params: ModelParams, example: CaptionedExample,
                      features: ImageFeatureStore | None) -> tuple[Gradients, float, int]:
    """(gradient, summed nat loss, predicted positions) for one sentence."""
    feat = _feature_for(params, features, example)
    trace = forward_sentence(params, example.tokens, feat)
    _, targets = sentence_inputs_targets(example.tokens)
    grads, loss = backward_sentence(params, trace, targets, feat)
    return grads, loss, len(targets)


def apply_sgd_step(params: ModelParams, data_grad: Gradients, learning_rate: float,
                   lambda_reg: float, clip_norm: float | None) -> float:
    """One descent step; returns the applied global gradient norm.

    ``data_grad`` is consumed: the regularizer gradient is folded into it,
    then the whole thing is clipped and applied.  The parameter update is
    the single-writer step; callers must not share ``params`` concurrently.
    """
    if lambda_reg:
        for name, arr in data_grad.arrays.items():
            if not name.startswith("b_"):
                arr += (2.0 * lambda_reg) * params.arrays[name]
    norm = data_grad.global_norm()
    if clip_norm is not None and norm > clip_norm:
        data_grad.scale(clip_norm / norm)
        norm = clip_norm
    params.add_scaled(data_grad, -learning_rate)
    return norm


def train(config: TrainConfig, split: DatasetSplit,
          features: ImageFeatureStore | None) -> tuple[ModelParams, TrainReport]:
    """Mini-batch SGD on the perplexity cost; deterministic given the seed.

    Each sentence contributes its per-word-normalized gradient (base-2
    units); the batch gradient is the mean over sentences.  Examples are
    reshuffled every epoch with the seeded generator.
    """
    from .evaluation import corpus_perplexity

    examples = split.train
    if not examples:
        raise ValueError("training split is empty")
    rng = Rng(config.seed)
    params = ModelParams.initialize(config.model, rng, dtype=config.dtype)
    report = TrainReport()

    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        order = list(range(len(examples)))
        rng.shuffle(order)
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            batch_grad = params.zeros_like()
            for idx in batch:
                grads, _, n_pred = sentence_gradient(params, examples[idx], features)
                batch_grad.add_scaled(grads, 1.0 / (n_pred * LN2))
            batch_grad.scale(1.0 / len(batch))
            apply_sgd_step(params, batch_grad, config.learning_rate,
                           config.lambda_reg, config.clip_norm)

        epoch_cost = cost(params, examples, features, config.lambda_reg)
        if not math.isfinite(epoch_cost):
            raise TrainingDiverged(
                f"training cost became non-finite at epoch {epoch}; "
                "lower the learning rate or enable clipping")
        val_ppl = None
        if split.validation and (epoch % config.eval_every == 0 or epoch == config.epochs):
            val_ppl = corpus_perplexity(params, split.validation, features)
        report.rows.append(EpochRow(epoch, epoch_cost, val_ppl,
                                    time.perf_counter() - t0))
    return params, report


# ---------------------------------------------------------------------------
# gradient checking

TINY_CONFIG = dict(vocab_size=11, d_e1=4, d_e2=4, d_r=6, d_m=8, d_i=3)


@dataclass
class BlockCheck:
    instance: int
    block: str
    rel_err: float


@dataclass
class GradCheckReport:
    threshold: float
    checks: list[BlockCheck] = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        return max((c.rel_err for c in self.checks), default=0.0)

    @property
    def worst(self) -> BlockCheck | None:
        return max(self.checks, key=lambda c: c.rel_err, default=None)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.threshold


def gradient_check(n_samples: int = 20, seed: int = 0, variant: str = "mrnn",
                   sentence_len: int = 5, h: float = 1e-5, threshold: float = 1e-4,
                   grad_fn=None) -> GradCheckReport:
    """Analytic BPTT gradients vs central differences on tiny random models.

    For every parameter block the relative error is
    ||analytic - numeric||_2 / (||analytic||_2 + ||numeric||_2); the check
    passes when the worst block over all instances stays below the
    threshold.  Runs in float64.  ``grad_fn`` exists so tests can inject a
    deliberately corrupted backward pass as a negative control.
    """
    if grad_fn is None:
        grad_fn = backward_sentence
    cfg = ModelConfig(variant=variant, **TINY_CONFIG)
    rng = Rng(seed)
    report = GradCheckReport(threshold=threshold)

    for instance in range(n_samples):
        params = ModelParams.initialize(cfg, rng, dtype=np.float64)
        feat = rng.uniform(-1.0, 1.0, cfg.d_i) if variant == "mrnn" else None
        tokens = [rng.randint(cfg.vocab_size) for _ in range(sentence_len)]
        _, targets = sentence_inputs_targets(tokens)

        trace = forward_sentence(params, tokens, feat)
        analytic, _ = grad_fn(params, trace, targets, feat)

        for name, arr in params.arrays.items():
            numeric = np.zeros_like(arr)
            flat = arr.reshape(-1)
            num_flat = numeric.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = forward_sentence(params, tokens, feat).log2prob(targets)
                flat[i] = orig - h
                down = forward_sentence(params, tokens, feat).log2prob(targets)
                flat[i] = orig
                num_flat[i] = -LN2 * (up - down) / (2.0 * h)  # of the nat-log loss
            a = analytic.arrays[name]
            denom = float(np.linalg.norm(a) + np.linalg.norm(numeric))
            err = 0.0 if denom == 0.0 else float(np.linalg.norm(a - numeric)) / denom
            report.checks.append(BlockCheck(instance, name, err))
    return report
