"""Sentence generation and perplexity scoring.

All operations are pure given read-only parameters.  Every image-scoring
path goes through one engine, ``log2prob_matrix``; ``evaluation`` ranks its
scores in both retrieval directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import END_INDEX, START_INDEX, Vocabulary
from .model import (ContextTrie, ModelParams, forward_sentence, forward_step, frame,
                    image_term, multimodal_base, target_log2prob, word_layers)
from .numerics import Rng, scaled_tanh
from .training import perplexity

# Bound on the elements of one node block's (B, max(d_m, V)) activations,
# and of one image chunk's (images, B, max(d_m, V)), in log2prob_matrix, B
# being the block's trie nodes; a block of one node may exceed it.  2**15
# (256 KB at float64) held retrieval peak memory within ~1 MB of scoring
# pair by pair; 2**17 cost 4.6 MB more.
CHUNK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class GenerationConfig:
    """Decoding knobs.

    ``force_length`` implements the length-matched protocol used for BLEU:
    the end sign is suppressed until exactly that many tokens have been
    emitted, then generation stops regardless of the end sign.
    """
    mode: str = "greedy"
    max_length: int = 50
    prefix: list[int] | None = None
    seed: int = 0
    force_length: int | None = None

    def __post_init__(self):
        if self.mode not in ("greedy", "sample"):
            raise ValueError(f"unknown generation mode {self.mode!r}")
        if self.max_length < 1:
            raise ValueError("max_length must be >= 1")
        if len(self.prefix or []) > self.limit:
            raise ValueError(f"the prefix has {len(self.prefix)} words, more than the "
                             f"length limit of {self.limit}")

    @property
    def limit(self) -> int:
        """The most tokens ``generate`` returns."""
        return self.max_length if self.force_length is None else self.force_length


def _pick(y: np.ndarray, mode: str, rng: Rng | None, ban_end: bool) -> int:
    if ban_end:
        y = y.copy()
        y[END_INDEX] = 0.0
        total = y.sum()
        if total == 0.0:  # all mass sat on the end sign: uniform over the words
            y[:] = 1.0
            y[[START_INDEX, END_INDEX]] = 0.0
            total = y.sum()
        y = y / total
    if mode == "greedy":
        return int(np.argmax(y))  # argmax takes the lowest index on ties
    u = rng.random()
    return int(min(np.searchsorted(np.cumsum(y), u), len(y) - 1))


def generate(params: ModelParams, vocab: Vocabulary, image_feature,
             gcfg: GenerationConfig = GenerationConfig()) -> list[str]:
    """Decode a caption for one image feature vector.

    Starts from the start sign (plus any prefix tokens, which are echoed in
    the output), then repeatedly emits the argmax or a sampled token until
    the end sign or the length cap.  The framing start/end signs are not
    part of the returned sequence.  The image term is projected once.
    """
    rng = Rng(gcfg.seed) if gcfg.mode == "sample" else None
    term = image_term(params, [image_feature])
    term = None if term is None else term[0]

    r = np.zeros(params.config.d_r, dtype=params.dtype)
    y, r = forward_step(params, START_INDEX, r, term)
    out: list[int] = []
    for w in gcfg.prefix or []:
        out.append(w)
        y, r = forward_step(params, w, r, term)
    while len(out) < gcfg.limit:
        w = _pick(y, gcfg.mode, rng, ban_end=gcfg.force_length is not None)
        if w == END_INDEX:
            break
        out.append(w)
        if len(out) >= gcfg.limit:
            break
        y, r = forward_step(params, w, r, term)
    return vocab.decode(out)


def sentence_log2prob(params: ModelParams, tokens: list[int],
                      image_feature) -> tuple[float, float]:
    """(log2 probability, perplexity) of a token sequence given an image.

    Both count the end-sign prediction, so a sentence with L content tokens
    spans L+1 positions and log2prob == -(L+1) * log2(ppl).  This is the
    one-image reference that ``log2prob_matrix`` is tested against.
    """
    trace = forward_sentence(params, tokens, image_feature)
    log2p = float(target_log2prob(params, trace.m, trace.targets).sum())
    return log2p, perplexity(-log2p / len(trace))


def log2prob_matrix(params: ModelParams, token_lists: list[list[int]],
                    image_matrix) -> np.ndarray:
    """log2 P(sentence s | image n) for every sentence and image, shape (S, N).

    The image enters the model only at the multimodal layer and only
    linearly (``V_I . I``), so an output row depends only on its context
    (the words consumed so far) and the image.  The sentences' contexts
    merge into one ``ContextTrie``, whose nodes go through the layers below
    the image once; each (node, image) output row is computed once, in
    blocks of nodes by chunks of images within ``CHUNK_ELEMENTS``.  Each
    sentence position picks its target's log probability from its node's
    row, and each sentence sums its terms in time order, so an exact repeat
    follows the same path and ties exactly.  Agrees with
    ``sentence_log2prob`` to rounding.
    """
    img = image_term(params, image_matrix)
    if img is None:
        raise ValueError("image scoring needs the mrnn variant; the baseline ignores the image")
    logs = np.zeros((len(token_lists), len(img)))
    if not token_lists:
        return logs
    packing, inputs, targets = frame(params, token_lists)
    trie = ContextTrie.of(packing, inputs)
    e2, r = word_layers(params, trie.inputs, trie)[1:]
    # positions in node order: a block's positions are one slice, and each
    # sentence's stay in time order, since the nodes run depth by depth
    order = np.argsort(trie.node, kind="stable")
    node, targets, sent = trie.node[order], targets[order], packing.sent[order]
    width = max(params.config.d_m, params.config.vocab_size)
    block = max(1, CHUNK_ELEMENTS // width)
    for a in range(0, len(trie.inputs), block):
        lo, hi = np.searchsorted(node, [a, a + block])
        m_base = multimodal_base(params, e2[a:a + block], r[a + 1:a + 1 + block])
        chunk = max(1, CHUNK_ELEMENTS // (len(m_base) * width))
        for n in range(0, len(img), chunk):
            m = scaled_tanh(m_base + img[n:n + chunk, None, :])
            logp = target_log2prob(params, m, targets[lo:hi], node[lo:hi] - a)
            np.add.at(logs[:, n:n + chunk], sent[lo:hi], logp.T)
    return logs


def normalized_log2prob_matrix(params: ModelParams, token_lists: list[list[int]],
                               query_matrix, norm_images) -> np.ndarray:
    """log2 P(s|q) - log2 mean_k P(s|I'_k) for every sentence s and query q, (S, Q).

    The conditioning gain over the sampled-image marginal, which de-biases
    generically probable sentences.  Query and norm images are scored in
    the same pass over each sentence.
    """
    if len(norm_images) == 0:
        raise ValueError("norm_images must be non-empty")
    n_query = len(query_matrix)
    logs = log2prob_matrix(params, token_lists, np.vstack([query_matrix, *norm_images]))
    marginals = log2_sum_exp2(logs[:, n_query:]) - math.log2(len(norm_images))
    return logs[:, :n_query] - marginals[:, None]


def log2_sum_exp2(values) -> np.ndarray:
    """log2(sum(2**v)) along the last axis, computed stably."""
    return np.logaddexp2.reduce(np.asarray(values, dtype=np.float64), axis=-1)


def marginal_log2prob(params: ModelParams, tokens: list[int],
                      norm_images: list[np.ndarray]) -> float:
    """log2 of the mean sentence probability over a set of images.

    Approximates the unconditional sentence probability with images sampled
    from the training set, each weighted equally.
    """
    if len(norm_images) == 0:
        raise ValueError("norm_images must be non-empty")
    logs = log2prob_matrix(params, [tokens], np.vstack(norm_images))[0]
    return float(log2_sum_exp2(logs) - math.log2(len(norm_images)))
