"""BLEU, corpus perplexity (from training), R@K / median rank, recall curves, shortlists."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .corpus import CaptionedExample, ImageFeatureStore, Vocabulary
from .inference import GenerationConfig, generate
from .model import ModelParams
from .training import corpus_perplexity  # noqa: F401 (re-exported)


@dataclass
class BleuScore:
    b1: float
    b2: float
    b3: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.b1, self.b2, self.b3)


def _ngrams(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidates: list[list], references: list[list[list]],
         cumulative: bool = True) -> BleuScore:
    """Corpus-level BLEU with clipped modified n-gram precision.

    ``references[i]`` is the list of reference sentences for candidate i.
    Cumulative B-n is the geometric mean of orders 1..n times the brevity
    penalty; with ``cumulative=False`` B-n uses order n's precision alone.
    Under the length-matched generation protocol the brevity penalty is
    inert (candidate length equals reference length).
    """
    if len(candidates) != len(references) or not candidates:
        raise ValueError("candidates and references must align and be non-empty")
    matched = np.zeros(3)
    total = np.zeros(3)
    cand_len = 0
    ref_len = 0
    for cand, refs in zip(candidates, references):
        if not refs:
            raise ValueError("every candidate needs at least one reference")
        cand_len += len(cand)
        # Effective reference length: closest to the candidate, shorter on ties.
        ref_len += min((abs(len(r) - len(cand)), len(r)) for r in refs)[1]
        for n in range(1, 4):
            counts = _ngrams(cand, n)
            limits = Counter()
            for ref in refs:
                for gram, c in _ngrams(ref, n).items():
                    limits[gram] = max(limits[gram], c)
            matched[n - 1] += sum(min(c, limits[gram]) for gram, c in counts.items())
            total[n - 1] += sum(counts.values())

    precisions = [matched[n] / total[n] if total[n] else 0.0 for n in range(3)]
    bp = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / max(cand_len, 1))
    scores = []
    for n in range(1, 4):
        ps = precisions[:n] if cumulative else [precisions[n - 1]]
        if min(ps) == 0.0:
            scores.append(0.0)
        else:
            scores.append(bp * math.exp(sum(math.log(p) for p in ps) / len(ps)))
    return BleuScore(*scores)


# ---------------------------------------------------------------------------
# retrieval metrics

@dataclass
class RetrievalMetrics:
    r_at: dict[int, float]
    med_r: int
    ranks: list[int]


@dataclass
class RecallCurve:
    points: list[tuple[float, float]]


def _ranked_hits(scores: np.ndarray, relevant: np.ndarray) -> np.ndarray:
    """(queries, candidates) bools: is the candidate at each rank relevant?

    Every row is ranked at once by descending score, ties to the lower
    column, so a tie never favours the relevant and ``-inf`` ranks last.
    """
    scores, relevant = np.asarray(scores), np.asarray(relevant, dtype=bool)
    if relevant.shape != scores.shape:
        raise ValueError(f"relevance shape {relevant.shape} is not the scores' {scores.shape}")
    order = np.argsort(-scores, axis=1, kind="stable")
    return np.take_along_axis(relevant, order, axis=1)


def retrieval_eval(scores: np.ndarray, relevant: np.ndarray,
                   ks: tuple[int, ...] = (1, 5, 10)) -> RetrievalMetrics:
    """R@K and median rank of the first retrieved relevant candidate.

    ``scores`` is queries x candidates, higher meaning more relevant, and
    ``relevant`` the same shape, True for groundtruth.  The median is the
    lower median, so it is always an attained integer rank.
    """
    hits = _ranked_hits(scores, relevant)
    if not hits.any(axis=1).all():
        raise ValueError("a query has no relevant candidate")
    ranks = (hits.argmax(axis=1) + 1).tolist()
    n_q = len(ranks)
    r_at = {k: 100.0 * sum(r <= k for r in ranks) / n_q for k in ks}
    med_r = sorted(ranks)[(n_q - 1) // 2]
    return RetrievalMetrics(r_at, med_r, ranks)


def check_fractions(fractions: list[float]) -> None:
    """Recall-curve fractions: at least one, each in (0, 1]."""
    if not fractions:
        raise ValueError("need at least one fraction")
    if any(not 0.0 < f <= 1.0 for f in fractions):
        raise ValueError("fractions must lie in (0, 1]")


def recall_curve(scores: np.ndarray, relevant: np.ndarray,
                 fractions: list[float]) -> RecallCurve:
    """Mean number of relevant candidates inside the top ceil(f * C) retrieved.

    The ceiling is exact for the decimal that ``repr(f)`` denotes, so 0.07
    of 100 candidates is the top 7, although ``0.07 * 100 > 7`` in floats.
    """
    check_fractions(fractions)
    hits = _ranked_hits(scores, relevant)
    n_q, n_c = hits.shape
    # found[t]: relevant candidates inside the top t, summed over the queries
    found = [0] + np.cumsum(hits.sum(axis=0)).tolist()
    tops = [math.ceil(Fraction(repr(float(f))) * n_c) for f in fractions]
    return RecallCurve([(f, found[top] / n_q) for f, top in zip(fractions, tops)])


def shortlist(queries: np.ndarray, candidates: np.ndarray, size: int = 100) -> np.ndarray:
    """(Q, size) rows of the candidates nearest each query in feature space,
    nearest first, ties to the lower row; a query that is also a candidate
    is in its own shortlist (distance zero) unless ``size`` lower rows are
    duplicates of it.
    """
    queries, candidates = np.asarray(queries), np.asarray(candidates)
    if len(candidates) < size:
        raise ValueError(f"{len(candidates)} candidate images, shortlist needs {size}")
    dists = np.empty((len(queries), len(candidates)))
    for q, qvec in enumerate(queries):
        dists[q] = np.linalg.norm(candidates - qvec, axis=1)
    return np.argsort(dists, axis=1, kind="stable")[:, :size]


# ---------------------------------------------------------------------------
# generation protocol for BLEU

def generation_bleu(params: ModelParams, vocab: Vocabulary,
                    examples: list[CaptionedExample], features: ImageFeatureStore,
                    length_matched: bool = True,
                    max_length: int = GenerationConfig.max_length,
                    cumulative: bool = True) -> tuple[BleuScore, dict[str, list[str]]]:
    """Greedy-caption every image and score against its reference captions.

    With ``length_matched`` the decoder emits exactly as many words as the
    image's first reference (end sign suppressed until then); otherwise it
    stops at the end sign or ``max_length``.
    """
    refs_by_image: dict[str, list[list[str]]] = {}
    for ex in examples:
        refs_by_image.setdefault(ex.image_id, []).append(vocab.decode(ex.tokens))
    candidates = []
    references = []
    generated = {}
    for image_id in sorted(refs_by_image):
        refs = refs_by_image[image_id]
        force = len(refs[0]) if length_matched else None
        cand = generate(params, vocab, features.get(image_id),
                        GenerationConfig(mode="greedy", max_length=max_length,
                                         force_length=force))
        generated[image_id] = cand
        candidates.append(cand)
        references.append(refs)
    return bleu(candidates, references, cumulative=cumulative), generated
