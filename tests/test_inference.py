import math
import re

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from helpers import randomize_biases, sentence_log2prob_oracle
from mrnn import inference, model
from mrnn.corpus import END_INDEX, build_vocabulary
from mrnn.evaluation import retrieval_eval
from mrnn.inference import (GenerationConfig, generate, log2_sum_exp2,
                            log2prob_matrix, marginal_log2prob,
                            normalized_log2prob_matrix, sentence_log2prob)
from mrnn.model import ModelConfig, ModelParams, forward_step, image_term, output_logits
from mrnn.numerics import Rng

VOCAB = build_vocabulary(["sand waves shore surf", "summit ridge pines glacier"])
FEAT = Rng(77).uniform(-1, 1, 3)


def make_params(seed=0, zeros=False):
    cfg = ModelConfig(vocab_size=VOCAB.size, d_i=3, d_e1=4, d_e2=4, d_r=6, d_m=8)
    if zeros:
        return ModelParams.zeros(cfg)
    return ModelParams.initialize(cfg, Rng(seed))


class TestGenerate:
    def test_zero_params_hits_max_length_with_lowest_index(self):
        params = make_params(zeros=True)
        out = generate(params, VOCAB, FEAT, GenerationConfig(max_length=7))
        # uniform distribution: greedy tie-break picks index 0 every step
        assert out == ["##START##"] * 7

    @pytest.mark.parametrize("variant", ["mrnn", "baseline"])
    @pytest.mark.parametrize("length", [1, 4, 15])
    def test_image_projected_once_per_caption(self, monkeypatch, variant, length):
        projected, terms = [], []

        def counted_term(params, image_features):
            projected.append(np.shape(image_features))
            return image_term(params, image_features)

        def recorded_step(params, word_index, r_prev, term):
            terms.append(term)
            return forward_step(params, word_index, r_prev, term)

        monkeypatch.setattr(inference, "image_term", counted_term)
        monkeypatch.setattr(inference, "forward_step", recorded_step)
        params = ModelParams.initialize(
            ModelConfig(vocab_size=VOCAB.size, d_i=3, variant=variant, d_r=6, d_m=8), Rng(5))
        out = generate(params, VOCAB, FEAT, GenerationConfig(force_length=length))
        assert len(out) == length and projected == [(1, 3)]
        # one step per emitted word, the last excepted, plus the start sign's
        assert len(terms) == length and all(term is terms[0] for term in terms)
        assert (terms[0] is None) == (variant == "baseline")

    def test_terminates_within_max_length(self):
        for seed in range(5):
            out = generate(make_params(seed), VOCAB, FEAT,
                           GenerationConfig(max_length=9))
            assert len(out) <= 9

    def test_greedy_deterministic(self):
        params = make_params(3)
        a = generate(params, VOCAB, FEAT, GenerationConfig())
        b = generate(params, VOCAB, FEAT, GenerationConfig())
        assert a == b

    def test_sample_mode_seed_determinism(self):
        params = make_params(4)
        gcfg = GenerationConfig(mode="sample", seed=7, max_length=12)
        assert generate(params, VOCAB, FEAT, gcfg) == generate(params, VOCAB, FEAT, gcfg)

    def test_sample_mode_seeds_differ(self):
        params = make_params(4)
        outs = {tuple(generate(params, VOCAB, FEAT,
                               GenerationConfig(mode="sample", seed=s, max_length=12)))
                for s in range(8)}
        assert len(outs) > 1

    def test_prefix_is_echoed(self):
        params = make_params(5)
        prefix = VOCAB.encode("sand waves")
        out = generate(params, VOCAB, FEAT,
                       GenerationConfig(prefix=prefix, max_length=10))
        assert out[:2] == ["sand", "waves"]

    def test_force_length_exact(self):
        for n in (1, 4, 9):
            out = generate(make_params(6), VOCAB, FEAT,
                           GenerationConfig(force_length=n))
            assert len(out) == n
            assert "##END##" not in out

    @pytest.mark.parametrize("gcfg", [GenerationConfig(force_length=3),
                                      GenerationConfig(mode="sample", seed=3, force_length=4)],
                             ids=["greedy", "sample"])
    def test_banned_end_sign_fallback_emits_words(self, gcfg):
        # every probability but the end sign's underflows to 0, so banning
        # the end sign leaves no mass and the pick falls back to uniform
        params = ModelParams.initialize(ModelConfig(vocab_size=9, d_i=2, d_e1=3, d_e2=3,
                                                    d_r=4, d_m=5), Rng(1))
        params["b_out"][END_INDEX] = 800.0
        vocab = build_vocabulary(["w3 w4 w5 w6 w7 w8"])
        out = generate(params, vocab, [0.5, -0.25], gcfg)
        assert len(out) == gcfg.force_length
        assert "##START##" not in out and "##END##" not in out
        if gcfg.mode == "greedy":
            assert out == ["##UNK##"] * 3  # the lowest index of the uniform fallback

    def test_max_length_one(self):
        out = generate(make_params(7), VOCAB, FEAT, GenerationConfig(max_length=1))
        assert len(out) <= 1

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            GenerationConfig(mode="beam")

    @pytest.mark.parametrize("limits", [dict(max_length=2), dict(max_length=9, force_length=2)],
                             ids=["max_length", "force_length"])
    def test_prefix_longer_than_the_limit_is_refused(self, limits):
        with pytest.raises(ValueError, match="prefix has 3 words.*limit of 2"):
            GenerationConfig(prefix=VOCAB.encode("sand sand sand"), **limits)

    @pytest.mark.parametrize("limits", [dict(max_length=2), dict(max_length=1, force_length=2)],
                             ids=["max_length", "force_length"])
    def test_prefix_at_the_limit_is_the_whole_output(self, limits):
        out = generate(make_params(5), VOCAB, FEAT,
                       GenerationConfig(prefix=VOCAB.encode("sand waves"), **limits))
        assert out == ["sand", "waves"]


class TestSentenceLog2Prob:
    def test_uniform_model_ppl_is_vocab_size(self):
        params = make_params(zeros=True)
        m = VOCAB.size
        for tokens in ([3], [3, 4, 5], VOCAB.encode("sand waves shore")):
            log2p, ppl = sentence_log2prob(params, tokens, FEAT)
            assert ppl == pytest.approx(m, abs=1e-9)
            assert log2p == pytest.approx(-(len(tokens) + 1) * math.log2(m), abs=1e-9)

    def test_identity_log2prob_vs_ppl(self):
        for seed in range(6):
            params = make_params(seed)
            tokens = [3 + (seed + j) % (VOCAB.size - 3) for j in range(4)]
            log2p, ppl = sentence_log2prob(params, tokens, FEAT)
            n_positions = len(tokens) + 1
            assert log2p == pytest.approx(-n_positions * math.log2(ppl), abs=1e-9)

    def test_empty_sentence_scores_end_only(self):
        log2p, ppl = sentence_log2prob(make_params(zeros=True), [], FEAT)
        assert ppl == pytest.approx(VOCAB.size, abs=1e-9)


class TestLog2ProbMatrix:
    """The image-factored engine against one-sentence passes (``helpers.sentence_forward``)."""

    SENTENCES = [[], [3], [3, 4, 5], VOCAB.encode("summit ridge pines glacier sand"), [3, 4, 5]]

    @staticmethod
    def oracle(params, sentences, feats):
        return np.array([[sentence_log2prob_oracle(params, t, f) for f in feats]
                         for t in sentences])

    # chunk elements (the longest sentence has 6 framed steps, the widest
    # layer is V): one sentence per pack and one image per chunk; three
    # images per 2-step chunk (so 10 images end in a partial chunk); the
    # default bound, one pack of every sentence; packs of two sentences of
    # mixed lengths, the first pack's 3 rows taking 4 images per chunk; and
    # a bound below the longest sentence, which sits alone in its pack
    @pytest.mark.parametrize("chunk_elements", [1, 3 * 2 * VOCAB.size, None,
                                                2 * 6 * VOCAB.size, 5 * VOCAB.size])
    @pytest.mark.parametrize("n_images", [1, 10])
    def test_matches_per_step_oracle(self, monkeypatch, chunk_elements, n_images):
        if chunk_elements is not None:
            monkeypatch.setattr(inference, "CHUNK_ELEMENTS", chunk_elements)
        for seed in range(4):
            params = randomize_biases(make_params(seed), seed)
            feats = Rng(100 + seed).uniform(-1, 1, 3 * n_images).reshape(n_images, 3)
            got = log2prob_matrix(params, self.SENTENCES, feats)
            assert got.shape == (len(self.SENTENCES), n_images)
            np.testing.assert_allclose(got, self.oracle(params, self.SENTENCES, feats),
                                       rtol=0, atol=1e-12)

    def test_repeats_get_identical_rows_and_tie_by_candidate_id(self, monkeypatch):
        # two sentences per pack: were each copy scored, the three copies of
        # ``a`` would sit in three packs of different shapes
        monkeypatch.setattr(inference, "CHUNK_ELEMENTS", 2 * 6 * VOCAB.size)
        a = VOCAB.encode("summit ridge pines")
        sentences = [a, [3], [3, 4, 5, 6, 7], a, [], a]
        params = randomize_biases(make_params(5), 5)
        feats = Rng(105).uniform(-1, 1, 3 * 4).reshape(4, 3)
        got = log2prob_matrix(params, sentences, feats)
        assert_array_equal(got[3], got[0])
        assert_array_equal(got[5], got[0])
        # i2t: every image ranks the sentences; a candidate's id is its column,
        # so the copies of ``a`` (columns 0, 3 and 5) tie, lowest column first
        for column, copies_before in [(0, 0), (3, 1), (5, 2)]:
            relevant = np.zeros((4, len(sentences)), dtype=bool)
            relevant[:, column] = True
            metrics = retrieval_eval(got.T, relevant, ks=(1,))
            assert metrics.ranks == [int((got[:, q] > got[0, q]).sum()) + copies_before + 1
                                     for q in range(4)]

    @staticmethod
    def spy_rows(monkeypatch):
        """The (images, nodes) of every output-layer call in ``log2prob_matrix``."""
        calls = []

        def spy(params, m):
            calls.append(m.shape[:-1])
            return output_logits(params, m)

        monkeypatch.setattr(model, "output_logits", spy)
        return calls

    def test_blocks_keep_activations_within_the_bound(self, monkeypatch):
        # every node block x image chunk fits CHUNK_ELEMENTS unless the block
        # is one node; the widest layer is V
        calls = self.spy_rows(monkeypatch)
        sentences = [[3, 4, 5, 6, 7], [4, 5, 6, 7, 8], [5, 6, 7, 8, 9], [3, 4, 5, 6, 7], [6, 7]]
        for chunk_elements in (1, VOCAB.size, 3 * VOCAB.size, 7 * VOCAB.size, 1 << 15):
            monkeypatch.setattr(inference, "CHUNK_ELEMENTS", chunk_elements)
            calls.clear()
            log2prob_matrix(make_params(1), sentences, np.zeros((5, 3)))
            assert calls and all(images * nodes * VOCAB.size <= chunk_elements or nodes == 1
                                 for images, nodes in calls)

    @pytest.mark.parametrize("chunk_elements", [1, 3 * VOCAB.size, None])
    def test_scores_each_distinct_context_once(self, monkeypatch, chunk_elements):
        # one output row per (context, image): the contexts are the root,
        # (3), (3, 4), (3, 4, 5), (3, 4, 6), (3, 7) and (4)
        if chunk_elements is not None:
            monkeypatch.setattr(inference, "CHUNK_ELEMENTS", chunk_elements)
        calls = self.spy_rows(monkeypatch)
        sentences = [[3, 4, 5], [3, 4, 6], [3, 4], [3, 7], [4], [3, 4, 5]]
        contexts = {tuple(s[:i]) for s in sentences for i in range(len(s) + 1)}
        positions = sum(len(s) + 1 for s in sentences)
        log2prob_matrix(make_params(1), sentences, np.zeros((4, 3)))
        rows = sum(images * nodes for images, nodes in calls)
        assert len(contexts) == 7 and rows == 7 * 4 < positions * 4

    # one node per block (a bound of 1 and of the width V), two nodes by one
    # image, and the default bound: one block, every image in one chunk
    @pytest.mark.parametrize("chunk_elements", [1, VOCAB.size, 2 * VOCAB.size, None])
    @pytest.mark.parametrize("sentences", [
        pytest.param([[3, 4], [3, 4, 5]], id="prefix"),
        pytest.param([[]], id="empty"),
        pytest.param([[3, 4, 5], [4, 4, 5], [5, 4, 5]], id="first_word"),
        pytest.param([[3, 4, 5], [6], [3, 4, 5], [3, 4], [], [3, 4, 5]], id="repeats"),
    ])
    def test_shared_contexts_match_the_oracle(self, monkeypatch, chunk_elements, sentences):
        if chunk_elements is not None:
            monkeypatch.setattr(inference, "CHUNK_ELEMENTS", chunk_elements)
        params = randomize_biases(make_params(6), 6)
        feats = Rng(106).uniform(-1, 1, 3 * 3).reshape(3, 3)
        got = log2prob_matrix(params, sentences, feats)
        np.testing.assert_allclose(got, self.oracle(params, sentences, feats), rtol=0, atol=1e-12)
        for i, tokens in enumerate(sentences):
            assert_array_equal(got[i], got[sentences.index(tokens)])

    def test_empty_inputs_give_empty_matrix(self):
        params = make_params(2)
        assert log2prob_matrix(params, [], np.zeros((3, 3))).shape == (0, 3)
        assert log2prob_matrix(params, [[3]], np.zeros((0, 3))).shape == (1, 0)

    def test_bad_inputs(self):
        params = make_params(3)
        with pytest.raises(ValueError, match=re.escape("image feature has shape (4,), expected (3,)")):
            log2prob_matrix(params, [[3]], np.zeros((2, 4)))
        for sentences, word in ([[VOCAB.size]], VOCAB.size), ([[3], [4, -1]], -1):
            with pytest.raises(IndexError, match=re.escape(
                    f"word index {word} out of range for M={VOCAB.size}")):
                log2prob_matrix(params, sentences, np.zeros((2, 3)))
        baseline = ModelParams.initialize(
            ModelConfig(vocab_size=VOCAB.size, d_i=3, variant="baseline", d_r=6), Rng(0))
        with pytest.raises(ValueError, match="mrnn variant"):
            log2prob_matrix(baseline, [[3]], np.zeros((2, 3)))


class TestNormalizedLog2ProbMatrix:
    CANDS = [[3, 4], [5, 6, 7], [8, 9]]

    def test_norm_by_query_itself_gives_zero_scores(self):
        scores = normalized_log2prob_matrix(make_params(8), self.CANDS, [FEAT], [FEAT])
        assert scores.shape == (3, 1)
        np.testing.assert_allclose(scores, 0.0, rtol=0, atol=1e-12)

    def test_single_norm_image_is_log_ratio(self):
        params = make_params(9)
        other = Rng(60).uniform(-1, 1, 3)
        scores = normalized_log2prob_matrix(params, self.CANDS, [FEAT], [other])
        for tokens, score in zip(self.CANDS, scores[:, 0]):
            lq = sentence_log2prob_oracle(params, tokens, FEAT)
            lo = sentence_log2prob_oracle(params, tokens, other)
            assert score == pytest.approx(lq - lo, abs=1e-9)

    def test_empty_norm_images_error(self):
        with pytest.raises(ValueError, match="norm_images"):
            normalized_log2prob_matrix(make_params(), self.CANDS, [FEAT], [])


class TestLogSumExp:
    def test_matches_direct_computation(self):
        vals = [-3.0, -1.5, -20.0, 0.25]
        direct = math.log2(sum(2.0 ** v for v in vals))
        assert log2_sum_exp2(vals) == pytest.approx(direct, abs=1e-12)

    def test_stable_for_large_negatives(self):
        vals = [-1100.0, -1101.0]
        out = log2_sum_exp2(vals)
        assert math.isfinite(out)
        assert out == pytest.approx(-1100.0 + math.log2(1 + 0.5), abs=1e-9)

    def test_marginal_matches_direct_probability(self):
        # tiny instance where the direct probability does not underflow
        params = make_params(13)
        tokens = [3, 4]
        norm = [Rng(63).uniform(-1, 1, 3) for _ in range(4)]
        direct = math.log2(
            sum(2.0 ** sentence_log2prob_oracle(params, tokens, f) for f in norm) / 4)
        assert marginal_log2prob(params, tokens, norm) == pytest.approx(direct, abs=1e-9)
