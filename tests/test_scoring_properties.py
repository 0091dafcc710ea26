"""Property tests of the retrieval scoring engine, ``inference.log2prob_matrix``.

Tiny models with random biases score drawn sentences, which share
prefixes, repeat exactly or are empty, against 0 to 4 images, with drawn
``CHUNK_ELEMENTS`` bounds.  Every score must be within 1e-12 of the
one-sentence oracle, exact repeats must get the same bits, the output layer
must compute one row per distinct context and image, and an out-of-range
word must raise the one ``IndexError`` message.
"""

import re
from contextlib import contextmanager

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import randomize_biases, sentence_log2prob_oracle  # noqa: E402
from mrnn import inference, model  # noqa: E402
from mrnn.model import ModelConfig, ModelParams  # noqa: E402
from mrnn.numerics import Rng  # noqa: E402

# Deterministic, bounded and without an example database, so the suite
# reruns the same examples everywhere.
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)
D_I = 3


@st.composite
def sentence_lists(draw, vocab_size, max_sentences=7):
    """Sentences of content words (indices from 3, past the reserved ones):
    each new, an earlier one's prefix plus up to two words, or an exact repeat."""
    word = st.integers(3, vocab_size - 1)
    sentences = []
    for _ in range(draw(st.integers(0, max_sentences))):
        kind = draw(st.sampled_from(["new", "prefix", "repeat"])) if sentences else "new"
        if kind == "new":
            sentences.append(draw(st.lists(word, max_size=5)))
        else:
            base = draw(st.sampled_from(sentences))
            if kind == "prefix":
                base = base[:draw(st.integers(0, len(base)))] + draw(st.lists(word, max_size=2))
            sentences.append(list(base))
    return sentences


@st.composite
def cases(draw):
    """(params, sentences, image features, CHUNK_ELEMENTS or None)."""
    vocab_size = draw(st.integers(5, 12))
    cfg = ModelConfig(vocab_size=vocab_size, d_i=D_I, d_e1=4, d_e2=4, d_r=6, d_m=8)
    seed = draw(st.integers(0, 2**32 - 1))
    params = randomize_biases(ModelParams.initialize(cfg, Rng(seed)), seed)
    n_images = draw(st.integers(0, 4))
    feats = Rng(seed ^ 0xF00D).uniform(-1.0, 1.0, n_images * D_I).reshape(n_images, D_I)
    # from one node by one image per block up to every row in one block
    width = max(cfg.d_m, vocab_size)
    chunk = draw(st.one_of(st.none(), st.integers(1, 40 * width)))
    return params, draw(sentence_lists(vocab_size)), feats, chunk


@contextmanager
def engine(chunk_elements):
    """``CHUNK_ELEMENTS`` set (unless None), and the (images, nodes) of
    every output-layer call recorded."""
    calls, saved = [], (inference.CHUNK_ELEMENTS, model.output_logits)

    def spy(params, m):
        calls.append(m.shape[:-1])
        return saved[1](params, m)

    if chunk_elements is not None:
        inference.CHUNK_ELEMENTS = chunk_elements
    model.output_logits = spy
    try:
        yield calls
    finally:
        inference.CHUNK_ELEMENTS, model.output_logits = saved


@PROPERTY
@given(cases())
def test_scores_match_the_one_sentence_oracle(case):
    params, sentences, feats, chunk = case
    with engine(chunk) as calls:
        got = inference.log2prob_matrix(params, sentences, feats)
    assert got.shape == (len(sentences), len(feats))
    for s, tokens in enumerate(sentences):
        for n, feat in enumerate(feats):
            assert abs(got[s, n] - sentence_log2prob_oracle(params, tokens, feat)) <= 1e-12
        first = sentences.index(tokens)
        assert got[s].tobytes() == got[first].tobytes(), (s, first)
    # one output row per distinct context (the words consumed) and image
    contexts = {tuple(tokens[:i]) for tokens in sentences for i in range(len(tokens) + 1)}
    assert sum(images * nodes for images, nodes in calls) == len(contexts) * len(feats)


@PROPERTY
@given(cases(), st.data())
def test_an_out_of_range_word_is_named(case, data):
    params, sentences, feats, chunk = case
    vocab_size = params.config.vocab_size
    bad = data.draw(st.one_of(st.integers(vocab_size, 2 * vocab_size), st.integers(-5, -1)))
    s = data.draw(st.integers(0, len(sentences)))
    sentences = [*sentences, []]
    at = data.draw(st.integers(0, len(sentences[s])))
    sentences[s] = [*sentences[s][:at], bad, *sentences[s][at:]]
    message = f"word index {bad} out of range for M={vocab_size}"
    with engine(chunk), pytest.raises(IndexError, match=f"^{re.escape(message)}$"):
        inference.log2prob_matrix(params, sentences, feats)
