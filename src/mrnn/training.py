"""Perplexity-based cost, the SGD loop and the finite-difference harness.

The reported cost is the per-word average negative log2 probability over
all predicted positions (content words plus the end sign) plus an L2
penalty on the weight matrices.  Each minibatch takes one packed forward
and one full-BPTT backward pass over all its sentences.  A step descends
the batch's mean over sentences of each sentence's bits per word, which
weights every sentence alike; the reported cost pools the positions, so a
long sentence weighs more in it, and a step does not descend it exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .corpus import DatasetSplit, CaptionedExample, ImageFeatureStore
from .model import (LN2, Gradients, ModelConfig, ModelParams, backward_batch, forward_batch,
                    target_log2prob)
from .numerics import Rng

_DTYPES = {"float64": np.float64, "float32": np.float32}

# Sentences per packed forward pass in ``bits_per_word``.  Packs of 64 raised
# the peak memory of a V~1000 training run from 70 to 98 MB.
_SCORE_PACK = 16

# An epoch whose data term (bits per word) passes this many times the
# uniform model's log2(V) diverged: trained epochs stay near or below log2(V).
DIVERGED_FACTOR = 10


class TrainingDiverged(RuntimeError):
    """Raised when the gradient norm or the cost is not finite, or by ``DIVERGED_FACTOR``."""


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
        for name in ("learning_rate", "lambda_reg"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ValueError(f"{name} must be a finite number >= 0")
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
    """One epoch.  ``grad_norm_mean``/``grad_norm_max`` are over the norms of
    the applied steps (after clipping), ``clip_frac`` is the share of steps
    that clipping shortened, and ``positions_per_s`` counts the predicted
    positions trained per second of the SGD steps (the end-of-epoch cost
    and validation are not in it).  ``seconds`` is the whole epoch, and
    ``sgd_s``, ``cost_s`` and ``val_s`` its phases: the SGD steps, the
    end-of-epoch cost, and the validation perplexity (None in an epoch
    without one).  ``seconds``, ``positions_per_s`` and the phases are the
    only wall-clock fields; the others repeat exactly on a rerun."""
    epoch: int
    cost: float
    val_ppl: float | None
    seconds: float
    grad_norm_mean: float
    grad_norm_max: float
    clip_frac: float
    positions_per_s: float
    sgd_s: float
    cost_s: float
    val_s: float | None


@dataclass
class TrainReport:
    rows: list[EpochRow] = field(default_factory=list)


def _forward(params: ModelParams, examples: list[CaptionedExample],
             features: ImageFeatureStore | None):
    """The packed forward pass over ``examples`` with their features in the model's dtype."""
    feats = None
    if params.config.variant != "baseline":
        if features is None:
            raise ValueError("the mrnn variant needs an image feature store")
        feats = features.matrix([ex.image_id for ex in examples]).astype(params.dtype, copy=False)
    return forward_batch(params, [ex.tokens for ex in examples], feats)


def bits_per_word(params: ModelParams, examples: list[CaptionedExample],
                  features: ImageFeatureStore | None) -> float:
    """Negative log2 likelihood per predicted position (content words and
    end signs), over all of ``examples``, scored in packs of sentences."""
    if not examples:
        raise ValueError("need at least one example")
    log2p = 0.0
    for lo in range(0, len(examples), _SCORE_PACK):
        trace = _forward(params, examples[lo:lo + _SCORE_PACK], features)
        log2p += float(target_log2prob(params, trace.m, trace.targets).sum())
    return -log2p / sum(len(ex.tokens) + 1 for ex in examples)


def perplexity(bits: float) -> float:
    """The perplexity of ``bits`` per word, 2 ** bits; inf from 1024 bits on."""
    return 2.0 ** bits if bits < 1024 else math.inf


def corpus_perplexity(params: ModelParams, examples: list[CaptionedExample],
                      features: ImageFeatureStore | None) -> float:
    """Word-weighted perplexity, ``perplexity`` of ``bits_per_word``."""
    return perplexity(bits_per_word(params, examples, features))


def cost(params: ModelParams, examples: list[CaptionedExample],
         features: ImageFeatureStore | None, lambda_reg: float) -> float:
    """Average per-word negative log2 likelihood plus lambda * ||weights||^2."""
    return bits_per_word(params, examples, features) + lambda_reg * params.weight_sq_norm()


def batch_gradient(params: ModelParams, examples: list[CaptionedExample],
                   features: ImageFeatureStore | None, out: Gradients | None = None) -> Gradients:
    """Gradient of one minibatch's data term.

    Each sentence's summed nat loss is divided by its predicted positions
    and by ln 2 (bits per word), and the batch takes the mean over its
    sentences (not the pooled positions of ``cost``); one packed forward
    and one backward pass compute it all.  The gradient overwrites ``out``
    and is returned (``backward_batch``); without ``out`` it is a new one.
    """
    n_pred = np.array([len(ex.tokens) + 1 for ex in examples])
    return backward_batch(params, _forward(params, examples, features),
                          1.0 / (n_pred * LN2 * len(examples)), out)


def sentence_gradient(params: ModelParams, example: CaptionedExample,
                      features: ImageFeatureStore | None) -> tuple[Gradients, float, int]:
    """(gradient, summed nat loss, predicted positions) for one sentence: the
    one-sentence ``batch_gradient`` scaled back from bits per word."""
    grads = batch_gradient(params, [example], features)
    n_pred = len(example.tokens) + 1
    grads.scale(n_pred * LN2)
    return grads, bits_per_word(params, [example], features) * n_pred * LN2, n_pred


def apply_sgd_step(params: ModelParams, data_grad: Gradients, learning_rate: float,
                   lambda_reg: float, clip_norm: float | None) -> float:
    """One descent step; returns the applied global gradient norm.

    ``data_grad`` is consumed: the regularizer gradient ``(2 lambda) W`` is
    folded into it, then the whole thing is clipped and applied.  A norm
    that is not finite raises ``TrainingDiverged``, naming the block with
    the largest norm, before any weight changes.  Each block-sized
    temporary (the penalty term, the squares of the norm, the scaled
    update) is freed before the next is made, so a step holds at most one
    beside ``params`` and ``data_grad``.  The parameter update is the
    single-writer step; callers must not share ``params`` concurrently.
    """
    if lambda_reg:
        for name, arr in data_grad.arrays.items():
            if not name.startswith("b_"):
                arr += (2.0 * lambda_reg) * params.arrays[name]
    norm = data_grad.global_norm()
    if not math.isfinite(norm):
        with np.errstate(over="ignore", invalid="ignore"):
            sq = data_grad.block_sq_norms()
        worst = max(sq, key=lambda name: (math.isnan(sq[name]), sq[name]))
        raise TrainingDiverged(f"gradient norm is {norm} (largest in block {worst})")
    if clip_norm is not None and norm > clip_norm:
        data_grad.scale(clip_norm / norm)
        norm = clip_norm
    params.add_scaled(data_grad, -learning_rate)
    return norm


def train(config: TrainConfig, split: DatasetSplit,
          features: ImageFeatureStore | None) -> tuple[ModelParams, TrainReport]:
    """Mini-batch SGD with full BPTT; deterministic given the seed.

    Each sentence contributes its per-word-normalized gradient (base-2
    units); the batch gradient is the mean over sentences, computed by one
    packed pass per batch (``batch_gradient``).  That mean weights each
    sentence alike, while the reported ``cost`` pools positions.  Examples
    are reshuffled every epoch with the seeded generator.  One gradient
    buffer serves every step, so a step holds the parameters, one gradient
    and at most one block-sized temporary beside the batch's activations.
    A non-finite gradient norm raises ``TrainingDiverged`` naming the epoch
    and the batch, and so does a cost that is not finite or whose data term
    passes ``limit``.
    """
    examples = split.train
    if not examples:
        raise ValueError("training split is empty")
    rng = Rng(config.seed)
    params = ModelParams.initialize(config.model, rng, dtype=config.dtype)
    report = TrainReport()
    positions = sum(len(ex.tokens) + 1 for ex in examples)
    limit = DIVERGED_FACTOR * math.log2(config.model.vocab_size)
    grads = params.zeros_like()

    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        order = list(range(len(examples)))
        rng.shuffle(order)
        norms = []
        for start in range(0, len(order), config.batch_size):
            batch = [examples[i] for i in order[start:start + config.batch_size]]
            batch_gradient(params, batch, features, out=grads)
            try:
                norms.append(apply_sgd_step(params, grads, config.learning_rate,
                                            config.lambda_reg, config.clip_norm))
            except TrainingDiverged as exc:
                raise TrainingDiverged(f"epoch {epoch}, batch {len(norms) + 1}: {exc}; "
                                       "lower the learning rate or enable clipping") from None
        t_sgd = time.perf_counter()

        # ``cost`` with its two terms kept apart: only the data term can trip ``limit``
        data_term = bits_per_word(params, examples, features)
        epoch_cost = data_term + config.lambda_reg * params.weight_sq_norm()
        if not (math.isfinite(epoch_cost) and data_term <= limit):
            raise TrainingDiverged(f"epoch {epoch}: cost {epoch_cost:.6g} is not finite or its "
                                   f"data term is over {DIVERGED_FACTOR} log2(V) = {limit:.4g}; "
                                   "lower the learning rate or enable clipping")
        t_cost = time.perf_counter()
        val_ppl = val_s = None
        if split.validation and (epoch % config.eval_every == 0 or epoch == config.epochs):
            val_ppl = corpus_perplexity(params, split.validation, features)
            val_s = time.perf_counter() - t_cost
        clipped = sum(config.clip_norm is not None and n >= config.clip_norm for n in norms)
        report.rows.append(EpochRow(epoch, epoch_cost, val_ppl, time.perf_counter() - t0,
                                    grad_norm_mean=sum(norms) / len(norms),
                                    grad_norm_max=max(norms), clip_frac=clipped / len(norms),
                                    positions_per_s=positions / (t_sgd - t0),
                                    sgd_s=t_sgd - t0, cost_s=t_cost - t_sgd, val_s=val_s))
    return params, report


# ---------------------------------------------------------------------------
# gradient checking

TINY_CONFIG = dict(vocab_size=11, d_e1=4, d_e2=4, d_r=6, d_m=8, d_i=3)
# Content tokens of the three sentences of each checked batch: one is empty,
# and packing (longest first) reorders them.
CHECK_LENGTHS = (2, 0, 5)
CHECK_STEP = 1e-5
CHECK_THRESHOLD = 1e-4
# A ReLU input this close to 0 may cross the kink under a +-CHECK_STEP
# step, where a central difference reads half a slope.
KINK_MARGIN = 1e-3


@dataclass
class BlockCheck:
    instance: int
    block: str
    rel_err: float


@dataclass
class GradCheckReport:
    checks: list[BlockCheck] = field(default_factory=list)
    redraws: int = 0

    @property
    def max_rel_err(self) -> float:
        return max((c.rel_err for c in self.checks), default=0.0)

    @property
    def worst(self) -> BlockCheck | None:
        return max(self.checks, key=lambda c: c.rel_err, default=None)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < CHECK_THRESHOLD


def relu_margin(params: ModelParams, examples: list[CaptionedExample],
                features: ImageFeatureStore | None) -> float:
    """The smallest |input| of a ReLU (the ``e2`` and recurrent layers) over
    every step of the forward pass of ``examples``."""
    trace = _forward(params, examples, features)
    e2_pre = trace.e1 @ params["E2"].T + params["b_e2"]
    r_pre = (trace.r[trace.packing.prev] @ params["U_r"].T
             + trace.e2 @ params["W_in"].T + params["b_r"])
    return float(min(np.abs(e2_pre).min(), np.abs(r_pre).min()))


def _data_term(params: ModelParams, examples: list[CaptionedExample],
               features: ImageFeatureStore | None) -> float:
    """The mean over ``examples`` of each sentence's bits per predicted
    position, from the forward pass alone."""
    trace = _forward(params, examples, features)
    bits = -target_log2prob(params, trace.m, trace.targets)
    per_sentence = np.bincount(trace.packing.sent, weights=bits, minlength=len(examples))
    return float(np.mean(per_sentence / [len(ex.tokens) + 1 for ex in examples]))


def _draw_instance(cfg: ModelConfig, rng: Rng):
    """A tiny model with uniform weights and biases, a batch of sentences of
    ``CHECK_LENGTHS`` tokens, and their image features."""
    params = ModelParams.initialize(cfg, rng, dtype=np.float64)
    for name, arr in params.arrays.items():
        if name.startswith("b_"):
            arr[:] = rng.uniform(-0.5, 0.5, arr.size)
    batch = [CaptionedExample(f"img{b}", [rng.randint(cfg.vocab_size) for _ in range(n)], "")
             for b, n in enumerate(CHECK_LENGTHS)]
    feats = rng.uniform(-1.0, 1.0, len(batch) * cfg.d_i).reshape(len(batch), cfg.d_i)
    return params, batch, ImageFeatureStore([ex.image_id for ex in batch], feats)


def gradient_check(n_samples: int = 20, seed: int = 0, variant: str = "mrnn",
                   grad_fn=batch_gradient) -> GradCheckReport:
    """``batch_gradient`` vs central differences on tiny random models.

    Each instance is a tiny model, a ragged batch of ``CHECK_LENGTHS``
    tokens and its image features.  An instance with a ReLU input within
    ``KINK_MARGIN`` of 0 is redrawn from the same stream before any
    gradient is compared; ``redraws`` counts them.  The numeric side takes
    central differences (step ``CHECK_STEP``) of the data term computed
    again from a forward pass (``_data_term``), so it shares neither the
    backward pass nor its per-sentence weights.  For every parameter block
    the relative error is ||analytic - numeric||_2 / (||analytic||_2 +
    ||numeric||_2); the check passes when the worst block over all
    instances stays below ``CHECK_THRESHOLD``.  Runs in float64.
    ``grad_fn(params, examples, features)`` returns the gradients; tests
    pass a deliberately wrong one as a negative control.
    """
    cfg = ModelConfig(variant=variant, **TINY_CONFIG)
    rng = Rng(seed)
    report = GradCheckReport()

    for instance in range(n_samples):
        params, batch, features = _draw_instance(cfg, rng)
        while relu_margin(params, batch, features) < KINK_MARGIN:
            report.redraws += 1
            params, batch, features = _draw_instance(cfg, rng)
        analytic = grad_fn(params, batch, features)

        for name, arr in params.arrays.items():
            numeric = np.zeros_like(arr)
            flat = arr.reshape(-1)
            num_flat = numeric.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + CHECK_STEP
                up = _data_term(params, batch, features)
                flat[i] = orig - CHECK_STEP
                down = _data_term(params, batch, features)
                flat[i] = orig
                num_flat[i] = (up - down) / (2.0 * CHECK_STEP)
            a = analytic.arrays[name]
            denom = float(np.linalg.norm(a) + np.linalg.norm(numeric))
            err = 0.0 if denom == 0.0 else float(np.linalg.norm(a - numeric)) / denom
            report.checks.append(BlockCheck(instance, name, err))
    return report
