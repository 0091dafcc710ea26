import math

import numpy as np
import pytest

from helpers import oracle_bleu, oracle_first_rank, oracle_top
from mrnn.corpus import ImageFeatureStore, build_vocabulary
from mrnn.evaluation import (bleu, corpus_perplexity, generation_bleu,
                             recall_curve, retrieval_eval, shortlist)
from mrnn.inference import sentence_log2prob
from mrnn.model import ModelConfig, ModelParams
from mrnn.numerics import Rng
from mrnn.training import cost
from mrnn.corpus import CaptionedExample


def random_token_fixtures(seed, count):
    """Candidate/reference pairs over a small alphabet, varied lengths."""
    rng = Rng(seed)
    alphabet = list("abcdefg")
    fixtures = []
    for _ in range(count):
        cand = [alphabet[rng.randint(len(alphabet))] for _ in range(3 + rng.randint(6))]
        refs = [[alphabet[rng.randint(len(alphabet))] for _ in range(3 + rng.randint(6))]
                for _ in range(1 + rng.randint(3))]
        fixtures.append((cand, refs))
    return fixtures


class TestBleu:
    def test_perfect_match(self):
        cand = "a man at a tree".split()
        score = bleu([cand], [[list(cand)]])
        assert score.as_tuple() == (1.0, 1.0, 1.0)

    def test_zero_overlap(self):
        score = bleu([list("abc")], [[list("xyz")]])
        assert score.b1 == 0.0 and score.b2 == 0.0 and score.b3 == 0.0

    def test_hand_derived_example(self):
        # candidate "a b b c" vs reference "a b c d": p1 = 3/4, p2 = 2/3
        score = bleu([list("abbc")], [[list("abcd")]])
        assert score.b1 == pytest.approx(0.75, abs=1e-12)
        assert score.b2 == pytest.approx(math.sqrt(0.75 * 2 / 3), abs=1e-12)
        assert score.b3 == 0.0  # no trigram overlap

    def test_matches_oracle_on_random_fixtures(self):
        fixtures = random_token_fixtures(1, 20)
        cands = [c for c, _ in fixtures]
        refs = [r for _, r in fixtures]
        for cumulative in (True, False):
            ours = bleu(cands, refs, cumulative=cumulative)
            expect = oracle_bleu(cands, refs, cumulative=cumulative)
            for got, want in zip(ours.as_tuple(), expect):
                assert got == pytest.approx(want, abs=1e-9)

    def test_pair_permutation_invariance(self):
        fixtures = random_token_fixtures(2, 10)
        cands = [c for c, _ in fixtures]
        refs = [r for _, r in fixtures]
        forward = bleu(cands, refs)
        backward = bleu(cands[::-1], refs[::-1])
        assert forward.as_tuple() == pytest.approx(backward.as_tuple(), abs=1e-12)

    def test_brevity_penalty_active_for_short_candidates(self):
        cand = list("ab")
        ref = list("abcd")
        score = bleu([cand], [[ref]])
        assert score.b1 == pytest.approx(math.exp(1 - 4 / 2) * 1.0, abs=1e-12)

    def test_brevity_penalty_inert_when_length_matched(self):
        cand = list("abxy")
        ref = list("abcd")
        score = bleu([cand], [[ref]])
        assert score.b1 == pytest.approx(0.5, abs=1e-12)  # BP == 1

    def test_misaligned_lists(self):
        with pytest.raises(ValueError):
            bleu([list("ab")], [])

    def test_works_on_integer_tokens(self):
        assert bleu([[1, 2, 3]], [[[1, 2, 3]]]).b1 == 1.0


VOCAB = build_vocabulary(["sand waves shore", "summit ridge pines"])
FEAT_STORE = ImageFeatureStore([f"im{i}" for i in range(3)],
                               [Rng(100 + i).uniform(-1, 1, 3) for i in range(3)])


def example(image_id, tokens):
    return CaptionedExample(image_id, tokens, "")


class TestCorpusPerplexity:
    def zero_params(self, m=32):
        cfg = ModelConfig(vocab_size=m, d_i=3, d_e1=4, d_e2=4, d_r=4, d_m=4)
        return ModelParams.zeros(cfg)

    def test_uniform_model(self):
        params = self.zero_params(32)
        examples = [example("im0", [3, 4, 5]), example("im1", [6, 7])]
        assert corpus_perplexity(params, examples, FEAT_STORE) == pytest.approx(
            32.0, abs=1e-9)

    def test_singleton_equals_sentence_ppl(self):
        cfg = ModelConfig(vocab_size=VOCAB.size, d_i=3, d_e1=4, d_e2=4, d_r=5, d_m=6)
        params = ModelParams.initialize(cfg, Rng(5))
        tokens = VOCAB.encode("sand waves")
        _, sent_ppl = sentence_log2prob(params, tokens, FEAT_STORE.get("im0"))
        corpus = corpus_perplexity(params, [example("im0", tokens)], FEAT_STORE)
        assert corpus == pytest.approx(sent_ppl, abs=1e-9)

    def test_equal_length_sentences_geometric_mean(self):
        # two sentences of equal length: corpus ppl is the geometric mean of
        # their sentence perplexities (the PPL 2 and 8 -> 4 oracle generalized)
        cfg = ModelConfig(vocab_size=VOCAB.size, d_i=3, d_e1=4, d_e2=4, d_r=5, d_m=6)
        params = ModelParams.initialize(cfg, Rng(6))
        ex1, ex2 = example("im0", [3, 4, 5]), example("im1", [5, 4, 3])
        _, p1 = sentence_log2prob(params, ex1.tokens, FEAT_STORE.get("im0"))
        _, p2 = sentence_log2prob(params, ex2.tokens, FEAT_STORE.get("im1"))
        corpus = corpus_perplexity(params, [ex1, ex2], FEAT_STORE)
        assert corpus == pytest.approx(math.sqrt(p1 * p2), rel=1e-9)

    def test_is_two_to_the_cost_data_term_bit_for_bit(self):
        # the word-weighted sum of sentence log2 probabilities, as an oracle; the
        # corpus is scored in packs of sentences, whose matrix products round
        # differently from one-sentence passes, so that agreement is to 1e-12
        cfg = ModelConfig(vocab_size=VOCAB.size, d_i=3, d_e1=4, d_e2=4, d_r=5, d_m=6)
        params = ModelParams.initialize(cfg, Rng(7))
        examples = [example("im0", [3, 4, 5]), example("im1", [5]), example("im2", [4, 6, 3, 7])]
        log2p = sum(sentence_log2prob(params, ex.tokens, FEAT_STORE.get(ex.image_id))[0]
                    for ex in examples)
        positions = sum(len(ex.tokens) + 1 for ex in examples)
        ppl = corpus_perplexity(params, examples, FEAT_STORE)
        assert ppl == pytest.approx(2.0 ** (-log2p / positions), rel=1e-12, abs=0)
        assert ppl == 2.0 ** cost(params, examples, FEAT_STORE, 0.0)

    def test_arithmetic_of_the_geometric_mean(self):
        assert math.sqrt(2 * 8) == pytest.approx(4.0)

    def test_empty_error(self):
        with pytest.raises(ValueError):
            corpus_perplexity(self.zero_params(), [], FEAT_STORE)

    def test_mrnn_without_feature_store_is_named_error(self):
        with pytest.raises(ValueError, match="needs an image feature store"):
            corpus_perplexity(self.zero_params(), [example("im0", [3, 4])], None)


def relevance(n_q, n_c, columns):
    """(n_q, n_c) bools, True at ``columns[q]`` in row q."""
    relevant = np.zeros((n_q, n_c), dtype=bool)
    for q in range(n_q):
        relevant[q, list(columns[q])] = True
    return relevant


def tied_masked_fixture():
    """Scores with exact ties and with ``-inf`` entries (what an i2t
    shortlist mask writes), and their relevance matrix.

    Query 0 ties everywhere, query 1 has every relevant candidate masked,
    and the rest draw from three values, a quarter of them masked.
    """
    rng = Rng(17)
    scores = np.array([[float(rng.randint(3)) for _ in range(8)] for _ in range(8)])
    scores[rng.uniform(0, 1, scores.size).reshape(scores.shape) < 0.25] = -np.inf
    scores[0] = 1.0
    scores[1] = [-np.inf, 2.0, -np.inf, 0.5, 2.0, -np.inf, 0.5, 1.0]
    columns = {q: {(3 * q) % 8, (5 * q + 2) % 8} for q in range(8)}
    columns[0] = {4, 7}
    columns[1] = {0, 2}
    return scores, relevance(8, 8, columns)


class TestRetrievalEval:
    def test_oracle_scores(self):
        scores = np.array([[9.0, 1, 2], [1, 9, 2], [2, 1, 9]])
        metrics = retrieval_eval(scores, np.eye(3, dtype=bool), ks=(1, 5, 10))
        assert metrics.r_at[1] == 100.0
        assert metrics.med_r == 1

    def test_anti_oracle(self):
        n_c = 6
        scores = np.tile(np.arange(n_c, 0, -1, dtype=float), (3, 1))
        relevant = relevance(3, n_c, [{n_c - 1}] * 3)  # the relevant one always scores lowest
        metrics = retrieval_eval(scores, relevant, ks=(1, 5))
        assert metrics.r_at[1] == 0.0 and metrics.r_at[5] == 0.0
        assert metrics.med_r == n_c

    def test_random_fixture_matches_rank_oracle(self):
        rng = Rng(9)
        scores = np.array([[rng.random() for _ in range(4)] for _ in range(3)])
        relevant = relevance(3, 4, [{1, 3}, {0}, {2}])
        metrics = retrieval_eval(scores, relevant, ks=(1, 2, 3, 4))
        expected = [oracle_first_rank(scores[q], relevant[q]) for q in range(3)]
        assert metrics.ranks == expected
        assert metrics.med_r == sorted(expected)[(3 - 1) // 2]

    def test_r_at_k_monotone(self):
        rng = Rng(10)
        scores = np.array([[rng.random() for _ in range(8)] for _ in range(5)])
        metrics = retrieval_eval(scores, np.eye(5, 8, dtype=bool), ks=(1, 2, 4, 8))
        vals = [metrics.r_at[k] for k in (1, 2, 4, 8)]
        assert vals == sorted(vals)

    def test_monotone_transform_invariance(self):
        rng = Rng(11)
        scores = np.array([[rng.random() for _ in range(6)] for _ in range(4)])
        relevant = relevance(4, 6, [{(q + 1) % 6} for q in range(4)])
        a = retrieval_eval(scores, relevant)
        b = retrieval_eval(np.exp(3 * scores) + 7, relevant)
        assert a.ranks == b.ranks

    def test_ties_break_by_candidate_id_never_favoring_groundtruth(self):
        # a candidate's id is its column: a tie goes to the lower column
        scores = np.array([[1.0, 1.0, 1.0]])
        metrics = retrieval_eval(scores, np.array([[False, False, True]]), ks=(1, 3))
        assert metrics.ranks == [3]

    def test_ties_and_masked_scores_match_rank_oracle(self):
        scores, relevant = tied_masked_fixture()
        metrics = retrieval_eval(scores, relevant, ks=(1, 2, 5))
        expected = [oracle_first_rank(scores[q], relevant[q]) for q in range(len(scores))]
        assert metrics.ranks == expected
        assert expected[0] == 5  # all tied: columns 0-3 come before column 4
        assert expected[1] == 6  # masked relevant ones rank after all five finite scores
        assert metrics.med_r == sorted(expected)[(len(expected) - 1) // 2]
        assert metrics.r_at == {k: 100.0 * sum(r <= k for r in expected) / len(expected)
                                for k in (1, 2, 5)}
        assert all(type(r) is int for r in metrics.ranks + [metrics.med_r])

    def test_missing_groundtruth_errors(self):
        with pytest.raises(ValueError, match="no relevant candidate"):
            retrieval_eval(np.ones((2, 3)), np.array([[True, False, False], [False] * 3]))

    def test_lower_median_for_even_counts(self):
        scores = np.array([[2.0, 1.0], [1.0, 2.0]])
        relevant = np.array([[True, False], [True, False]])  # ranks 1 and 2 -> lower median 1
        assert retrieval_eval(scores, relevant).med_r == 1

    @pytest.mark.parametrize("shape", [(2, 4), (3, 3), (4, 3), (3,)])
    def test_relevance_of_another_shape_is_refused(self, shape):
        with pytest.raises(ValueError, match="shape"):
            retrieval_eval(np.ones((3, 4)), np.ones(shape, dtype=bool))
        with pytest.raises(ValueError, match="shape"):
            recall_curve(np.ones((3, 4)), np.ones(shape, dtype=bool), [1.0])


class TestRecallCurve:
    def test_full_fraction_counts_all_groundtruth(self):
        rng = Rng(12)
        scores = np.array([[rng.random() for _ in range(5)] for _ in range(3)])
        curve = recall_curve(scores, relevance(3, 5, [{0, 1}, {2}, {3, 4}]), [1.0])
        assert curve.points[0][1] == pytest.approx((2 + 1 + 2) / 3)

    def test_oracle_scores_single_groundtruth(self):
        n_c = 5
        scores = np.zeros((3, n_c))
        for q in range(3):
            scores[q, q] = 1.0
        curve = recall_curve(scores, np.eye(3, n_c, dtype=bool), [1 / n_c, 0.5, 1.0])
        assert [m for _, m in curve.points] == [1.0, 1.0, 1.0]

    def test_matches_brute_force_on_random_fixture(self):
        rng = Rng(13)
        n_q, n_c = 4, 7
        scores = np.array([[rng.random() for _ in range(n_c)] for _ in range(n_q)])
        gt = {q: {(2 * q) % n_c, (2 * q + 1) % n_c} for q in range(n_q)}
        fractions = [0.15, 0.3, 0.6, 1.0]
        curve = recall_curve(scores, relevance(n_q, n_c, gt), fractions)
        for f, mean in curve.points:
            top = oracle_top(f, n_c)
            total = 0
            for q in range(n_q):
                order = sorted(range(n_c), key=lambda j: (-scores[q, j], j))
                total += sum(1 for j in order[:top] if j in gt[q])
            assert mean == pytest.approx(total / n_q)

    def test_ties_and_masked_scores_match_brute_force(self):
        scores, relevant = tied_masked_fixture()
        n_q, n_c = scores.shape
        fractions = [0.1, 0.25, 0.5, 0.8, 1.0]
        curve = recall_curve(scores, relevant, fractions)
        expected = []
        for f in fractions:
            top = oracle_top(f, n_c)
            total = 0
            for q in range(n_q):
                order = sorted(range(n_c), key=lambda j: (-scores[q, j], j))
                total += sum(1 for j in order[:top] if relevant[q, j])
            expected.append((f, total / n_q))
        assert curve.points == expected
        assert all(type(mean) is float for _, mean in curve.points)

    @pytest.mark.parametrize("fraction, n_c", [(0.07, 100), (0.14, 50)])
    def test_cutoff_is_exact_for_the_decimal(self, fraction, n_c):
        # fraction * n_c is 7.000000000000001 in floats; the top 7 are meant
        assert fraction * n_c > 7
        scores = -np.arange(n_c, dtype=float)[None]  # column j is ranked j + 1
        relevant = np.zeros((1, n_c), dtype=bool)
        relevant[0, [6, 7]] = True  # ranks 7 and 8
        assert recall_curve(scores, relevant, [fraction]).points == [(fraction, 1.0)]

    def test_monotone_nondecreasing(self):
        rng = Rng(14)
        scores = np.array([[rng.random() for _ in range(9)] for _ in range(4)])
        curve = recall_curve(scores, relevance(4, 9, [{q, q + 3} for q in range(4)]),
                             [0.1, 0.2, 0.4, 0.7, 1.0])
        means = [m for _, m in curve.points]
        assert means == sorted(means)

    @pytest.mark.parametrize("fractions", [[0.0], []], ids=["zero", "empty"])
    def test_invalid_fraction(self, fractions):
        with pytest.raises(ValueError):
            recall_curve(np.ones((1, 2)), np.array([[True, False]]), fractions)


class TestShortlist:
    def make_points(self, n=5):
        return np.array([[float(i), 0.0] for i in range(n)])

    def test_full_size_is_whole_store(self):
        near = shortlist(self.make_points(1), self.make_points(5), size=5)
        assert near.shape == (1, 5) and sorted(near[0]) == list(range(5))

    def test_query_always_in_own_shortlist(self):
        points = self.make_points(5)
        near = shortlist(points, points, size=2)
        assert near[:, 0].tolist() == list(range(5))  # distance zero ranks first

    def test_matches_brute_force(self):
        points = Rng(15).uniform(-1, 1, 15).reshape(5, 3)
        near = shortlist(points, points, size=3)
        for q, qvec in enumerate(points):
            expected = sorted(range(5), key=lambda c: (float(np.linalg.norm(points[c] - qvec)), c))
            assert near[q].tolist() == expected[:3]

    def test_store_too_small(self):
        with pytest.raises(ValueError, match="3 candidate images, shortlist needs 10"):
            shortlist(self.make_points(1), self.make_points(3), size=10)

    def test_distance_ties_break_by_id(self):
        # rows 1 and 3 both lie at distance 1 from row 2: the lower row first
        points = self.make_points(5)
        assert shortlist(points[[2]], points, size=3).tolist() == [[2, 1, 3]]
        # many ties: 40 points on two spots, past the sizes a sort handles by insertion
        points = np.array([[float(i % 3 == 0)] for i in range(40)])
        near = shortlist(points[[1]], points, size=40)[0].tolist()
        assert near == [i for i in range(40) if i % 3] + [i for i in range(40) if i % 3 == 0]

    def test_queries_need_not_be_candidates(self):
        points = self.make_points(6)
        near = shortlist(points[[1, 4]], points[[0, 3, 5]], size=2)
        assert near.tolist() == [[0, 1], [1, 2]]  # rows of the candidate matrix


class TestGenerationBleu:
    def test_length_matched_candidates(self):
        vocab = build_vocabulary(["sand waves shore", "summit ridge"])
        cfg = ModelConfig(vocab_size=vocab.size, d_i=2, d_e1=4, d_e2=4, d_r=4, d_m=4)
        params = ModelParams.initialize(cfg, Rng(16))
        store = ImageFeatureStore(["a", "b"], np.eye(2))
        examples = [CaptionedExample("a", vocab.encode("sand waves shore"), ""),
                    CaptionedExample("b", vocab.encode("summit ridge"), "")]
        _, generated = generation_bleu(params, vocab, examples, store)
        assert len(generated["a"]) == 3
        assert len(generated["b"]) == 2
