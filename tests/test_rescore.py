"""Exact retrieval ranks from float32 scores: ``evaluation.near_tie_sentences``
and the error model it rests on.

``eval retrieval`` scores every pair in float32 and re-scores in float64 only
the sentences of a near-tie.  The property test draws score matrices with
exact ties, near ties, ``-inf`` entries, exact repeats and several relevant
candidates per query, and float32 stand-ins within half of each entry's
bound; the error-model test checks on tiny random-bias models, their outputs
sharpened until scores near 0, that float32 scores do stay within half of
``cli.RESCORE_MARGIN``'s bound.
"""

import argparse
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import randomize_biases  # noqa: E402
from mrnn import cli  # noqa: E402
from mrnn.evaluation import near_tie_sentences, recall_curve, retrieval_eval  # noqa: E402
from mrnn.corpus import (END_INDEX, START_INDEX, CaptionedExample, DatasetSplit,  # noqa: E402
                         ImageFeatureStore)
from mrnn.inference import log2_sum_exp2, log2prob_matrix  # noqa: E402
from mrnn.model import (ModelConfig, ModelParams, forward_step, image_term,  # noqa: E402
                        output_logit_scale)
from mrnn.numerics import Rng  # noqa: E402
from test_scoring_properties import sentence_lists  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None, database=None)
FRACTIONS = [0.1, 0.25, 0.5, 1.0]


@st.composite
def approximations(draw):
    """(exact, approx, relevant, bounds): float32 stand-ins on a few levels,
    so they tie and nearly tie; exact = approx + an error under half the
    entry's bound; some columns repeat an earlier one's finite values."""
    n_q, n_c = draw(st.integers(1, 4)), draw(st.integers(2, 7))
    cells = n_q * n_c
    level = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 8.0])
    approx = -2.0 + 1e-9 * np.array(draw(st.lists(level, min_size=cells, max_size=cells)))
    bounds = 1e-9 * np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                           min_size=cells, max_size=cells)))
    unit = st.one_of(st.sampled_from([-0.99, 0.99]), st.floats(-0.99, 0.99))
    exact = approx + bounds / 2 * np.array(draw(st.lists(unit, min_size=cells, max_size=cells)))
    approx, exact, bounds = (a.reshape(n_q, n_c) for a in (approx, exact, bounds))
    kinds = []  # each column new, or a repeat of an earlier one: its first column
    for c in range(n_c):
        j = draw(st.integers(0, c))
        kinds.append(c if j == c else kinds[j])
    kinds = np.array(kinds)
    approx, exact, bounds = approx[:, kinds], exact[:, kinds], bounds[:, kinds]
    masked = np.array(draw(st.lists(st.booleans(), min_size=cells, max_size=cells)))
    masked = masked.reshape(n_q, n_c) & (np.arange(n_c) > 0)  # column 0 stays finite
    approx[masked] = exact[masked] = -np.inf
    relevant = np.array(draw(st.lists(st.booleans(), min_size=cells, max_size=cells)))
    relevant = relevant.reshape(n_q, n_c)
    relevant[:, draw(st.integers(0, n_c - 1))] = True
    return exact, approx, relevant, bounds


def assert_same_metrics(scores, exact, relevant):
    assert retrieval_eval(scores, relevant).ranks == retrieval_eval(exact, relevant).ranks
    assert (recall_curve(scores, relevant, FRACTIONS).points
            == recall_curve(exact, relevant, FRACTIONS).points)


def rescored(approx, exact, sentences, axis):
    scores = approx.copy()
    index = (slice(None), sentences) if axis else sentences
    scores[index] = exact[index]
    return scores


@PROPERTY
@given(approximations())
def test_rescoring_the_picked_sentences_gives_the_exact_metrics(case):
    exact, approx, relevant, bounds = case
    # i2t: the candidates are sentences, and some of them exact repeats
    columns = near_tie_sentences(approx, relevant, bounds, 1)
    assert_same_metrics(rescored(approx, exact, columns, 1), exact, relevant)
    # t2i: the queries are sentences
    rows = near_tie_sentences(approx, relevant, bounds, 0)
    assert_same_metrics(rescored(approx, exact, rows, 0), exact, relevant)


def test_exact_ties_can_be_left_out():
    approx = np.array([[-1.0, -1.0, -1.5, -9.0]])
    relevant = np.array([[False, True, False, False]])
    bounds = np.full(approx.shape, 0.5)
    assert near_tie_sentences(approx, relevant, bounds, 1).tolist() == [0, 1, 2]
    assert near_tie_sentences(approx, relevant, bounds, 1, exact_ties=False).tolist() == [1, 2]


def greedy(params, feature, limit=8):
    """The argmax words for one image up to the end sign, or None past ``limit``."""
    term = image_term(params, [feature])[0]
    y, r = forward_step(params, START_INDEX, np.zeros(params.config.d_r), term)
    words = []
    while len(words) <= limit:
        w = 1 + int(np.argmax(y[1:]))  # never the start sign
        if w == END_INDEX:
            return words
        words.append(w)
        y, r = forward_step(params, w, r, term)
    return None


@st.composite
def models(draw):
    """(params, sentences, query features, norm features) of a tiny random-bias
    model, its output layer sharpened 1, 10 or 100 times; the sentences
    include the query images' argmax sentences, which score near 0 when sharp."""
    vocab_size = draw(st.integers(5, 12))
    cfg = ModelConfig(vocab_size=vocab_size, d_i=3, d_e1=4, d_e2=4, d_r=6, d_m=8)
    seed = draw(st.integers(0, 2**32 - 1))
    params = randomize_biases(ModelParams.initialize(cfg, Rng(seed)), seed)
    sharpen = draw(st.sampled_from([1.0, 10.0, 100.0]))
    params["W_out"][:] *= sharpen
    params["b_out"][:] *= sharpen
    feats = Rng(seed ^ 0xF00D).uniform(-1.0, 1.0, 7 * 3).reshape(7, 3)
    queries = feats[:draw(st.integers(1, 4))]
    argmax = [s for s in (greedy(params, q) for q in queries) if s is not None]
    sentences = draw(sentence_lists(vocab_size).filter(lambda s: s or argmax))
    return params, sentences + argmax, queries, feats[4:]


@PROPERTY
@given(models())
def test_float32_scores_lie_within_half_their_bound(case):
    params, sentences, queries, norm = case
    half = cli.RESCORE_MARGIN / 2 * 2.0 ** -24
    floor = 1.0 + output_logit_scale(params)
    draft = params.astype(np.float32)
    positions = np.array([len(s) + 1 for s in sentences])[:, None]
    # t2i: -log2 perplexity, an average over positions
    exact = log2prob_matrix(params, sentences, queries) / positions
    approx = log2prob_matrix(draft, sentences, queries) / positions
    assert (np.abs(approx - exact) < half * (np.abs(exact) + floor)).all()
    # i2t: the conditioning gain, log2 P(s|q) less the sentence's marginal,
    # both sums over positions, from one call on the query and norm images
    def i2t(model):
        logs = log2prob_matrix(model, sentences, np.vstack([queries, norm]))
        marginals = log2_sum_exp2(logs[:, len(queries):]) - math.log2(len(norm))
        return logs[:, :len(queries)], marginals

    log2p, marginals = i2t(params)
    draft_log2p, draft_marginals = i2t(draft)
    exact, approx = log2p - marginals[:, None], draft_log2p - draft_marginals[:, None]
    scales = np.abs(log2p) + np.abs(marginals)[:, None] + 2 * floor * positions
    assert (np.abs(approx - exact) < half * scales).all()


@pytest.mark.parametrize("direction", ["t2i", "i2t"])
def test_the_commands_bound_holds_where_scores_near_0(monkeypatch, direction):
    # a model sharpened 100 times, scored on its own argmax sentences; every
    # sentence is re-scored, so the self-check weighs every entry's float32
    # error against the bound eval retrieval uses: none passes half of it,
    # so there is no second, all-float64 pass
    cfg = ModelConfig(vocab_size=9, d_i=3, d_e1=4, d_e2=4, d_r=6, d_m=8)
    params = randomize_biases(ModelParams.initialize(cfg, Rng(19)), 19)
    params["W_out"][:] *= 100.0
    params["b_out"][:] *= 100.0
    feats = Rng(20).uniform(-1.0, 1.0, 12 * 3).reshape(12, 3)
    subset = [CaptionedExample(f"im{i}", words, "") for i, words in
              enumerate(greedy(params, f) for f in feats) if words is not None]
    store = ImageFeatureStore([f"im{i}" for i in range(12)], feats)
    args = argparse.Namespace(direction=direction, norm_images=4, seed=0, shortlist=None)
    monkeypatch.setattr(cli, "near_tie_sentences",
                        lambda scores, relevant, bounds, axis, exact_ties=True:
                        np.arange(scores.shape[axis]))
    scores, _, timing = cli._retrieval_scores(args, params, subset, store,
                                              DatasetSplit(subset))
    assert len(subset) == 6 and timing[1][2] == len(subset)
    if direction == "t2i":
        assert np.abs(scores).min() < 1e-6  # own-image scores near 0


@pytest.mark.parametrize("bounds", [[0.3, 0.0], [0.0, 0.3], [0.2, 0.1]])
def test_a_near_tie_is_within_the_sum_of_both_bounds(bounds):
    approx = np.array([[-1.0, -1.25]])
    relevant = np.array([[False, True]])
    assert near_tie_sentences(approx, relevant, np.array([bounds]), 1).tolist() == [0, 1]
    assert near_tie_sentences(approx, relevant, np.array([bounds]), 0).tolist() == [0]
    assert near_tie_sentences(approx, relevant, np.array([bounds]) / 2, 1).tolist() == []
