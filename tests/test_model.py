import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from helpers import (block_rel_err, checkpoint_bytes_oracle, corrupt_checkpoint,
                     numeric_sentence_gradient, per_step_backward, randomize_biases, sentence_backward,
                     sentence_forward, sentence_inputs_targets)
from mrnn.corpus import build_vocabulary
from mrnn.model import (LN2, VARIANTS, ContextTrie, ModelConfig, ModelParams, Packing,
                        backward_batch, backward_sentence, forward_batch, forward_sentence,
                        forward_step, frame, image_term, load_checkpoint, nearest_words,
                        output_logits, save_checkpoint, sentence_layers, target_log2prob,
                        word_layers)
from mrnn.numerics import Rng, scaled_tanh, softmax


def tiny_config(variant="mrnn"):
    return ModelConfig(vocab_size=11, d_i=3, variant=variant,
                       d_e1=4, d_e2=4, d_r=6, d_m=8)


def tiny_params(seed=0, variant="mrnn"):
    return ModelParams.initialize(tiny_config(variant), Rng(seed))


FEAT = Rng(123).uniform(-1, 1, 3)


def step_term(params, feat):
    """``forward_step``'s image term for one feature vector: None for the baseline."""
    term = image_term(params, [feat])
    return None if term is None else term[0]


def probs(params, trace):
    """The next-word distribution at each row of a trace."""
    return softmax(output_logits(params, trace.m))


def log2prob(params, trace):
    """A trace's summed log2 probability of its targets."""
    return float(target_log2prob(params, trace.m, trace.targets).sum())


class TestConfig:
    def test_bad_variant(self):
        with pytest.raises(ValueError, match="variant"):
            ModelConfig(vocab_size=5, d_i=2, variant="lstm")

    def test_nonpositive_dim(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=5, d_i=2, d_r=0)

    def test_baseline_ignores_multimodal_dims(self):
        # only the image dimension: the baseline has the multimodal layer
        ModelConfig(vocab_size=5, d_i=0, variant="baseline")
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=5, d_i=0, variant="baseline", d_m=0)

    def test_shape_congruence_params_vs_gradients(self):
        params = tiny_params()
        grads = params.zeros_like()
        for name in params.names():
            assert grads[name].shape == params[name].shape


class TestForward:
    def test_zero_params_uniform_distribution(self):
        for variant in ("mrnn", "baseline"):
            params = ModelParams.zeros(tiny_config(variant))
            trace = forward_sentence(params, [3, 4, 5], FEAT)
            assert_allclose(probs(params, trace), np.full((4, 11), 1 / 11), atol=1e-15)

    def test_zero_recurrent_state_kills_recurrent_term(self):
        params_a = tiny_params(seed=1)
        params_b = params_a.copy()
        params_b.arrays["U_r"] = Rng(99).uniform(-1, 1, 36).reshape(6, 6)
        r0 = np.zeros(6)
        ya, ra = forward_step(params_a, 4, r0, step_term(params_a, FEAT))
        yb, rb = forward_step(params_b, 4, r0, step_term(params_b, FEAT))
        assert_array_equal(ra, rb)
        assert_array_equal(ya, yb)

    def test_embedding_lookup_equals_onehot_matvec(self):
        params = tiny_params()
        k = 7
        onehot = np.zeros(11)
        onehot[k] = 1.0
        assert_array_equal(params["E1"][k], params["E1"].T @ onehot)

    def test_empty_sentence_single_step(self):
        trace = forward_sentence(tiny_params(), [], FEAT)
        assert len(trace) == 1
        assert_array_equal(trace.inputs, [0])
        assert_array_equal(trace.targets, [1])

    def test_trace_probabilities_normalized(self):
        params = tiny_params(seed=2)
        trace = forward_sentence(params, [1, 9, 2, 4], FEAT)
        assert len(trace) == 5
        y = probs(params, trace)
        assert np.all(np.abs(y.sum(axis=1) - 1.0) < 1e-6)
        assert_allclose(np.exp2(target_log2prob(params, trace.m, trace.targets)),
                        y[np.arange(5), trace.targets], rtol=1e-12)

    def test_deterministic(self):
        a = forward_sentence(tiny_params(seed=3), [5, 6], FEAT)
        b = forward_sentence(tiny_params(seed=3), [5, 6], FEAT)
        assert_array_equal(a.m, b.m)

    def test_word_index_out_of_range(self):
        with pytest.raises(IndexError):
            forward_step(tiny_params(), 11, np.zeros(6), step_term(tiny_params(), FEAT))

    def test_feature_dim_mismatch(self):
        with pytest.raises(ValueError, match=re.escape("image feature has shape (5,), expected (3,)")):
            image_term(tiny_params(), [np.zeros(5)])
        with pytest.raises(ValueError, match=re.escape("image term has shape (5,), expected (8,)")):
            forward_step(tiny_params(), 1, np.zeros(6), np.zeros(5))

    def test_zero_image_projection_makes_output_image_free(self):
        params = tiny_params(seed=4)
        params.arrays["V_I"][:] = 0.0
        feat_b = Rng(55).uniform(-2, 2, 3)
        ya = forward_sentence(params, [2, 3], FEAT)
        yb = forward_sentence(params, [2, 3], feat_b)
        assert_array_equal(ya.m, yb.m)  # the output reads only m

    def test_baseline_never_sees_the_image(self):
        params = tiny_params(variant="baseline")
        ya = forward_sentence(params, [2, 3], None)
        yb = forward_sentence(params, [2, 3], FEAT)
        assert_array_equal(ya.m, yb.m)

    @pytest.mark.parametrize("variant", ["mrnn", "baseline"])
    @pytest.mark.parametrize("tokens", [[], [1, 9, 2, 4], [3, 3, 7, 3]],
                             ids=["T=1", "distinct", "repeated"])
    def test_trace_rows_match_forward_step(self, variant, tokens):
        params = randomize_biases(tiny_params(seed=5, variant=variant), 5)
        inputs, _ = sentence_inputs_targets(tokens)
        trace = forward_sentence(params, tokens, FEAT)
        assert_array_equal(trace.inputs, inputs)
        assert_array_equal(trace.r[0], np.zeros(6))
        r, term = np.zeros(6), step_term(params, FEAT)
        for t, w in enumerate(inputs):
            y, r = forward_step(params, w, r, term)
            assert_allclose(probs(params, trace)[t], y, rtol=0, atol=1e-13)
            assert_allclose(trace.r[t + 1], r, rtol=0, atol=1e-13)

    def test_batched_layers_match_forward_step(self):
        params = randomize_biases(tiny_params(seed=5), 5)
        inputs, _ = sentence_inputs_targets([1, 9, 2, 4])
        _, m_base = sentence_layers(params, [[1, 9, 2, 4]])
        term = params["V_I"] @ FEAT
        m = scaled_tanh(m_base + term)
        r = np.zeros(6)
        for t, w in enumerate(inputs):
            y, r = forward_step(params, w, r, term)
            assert_allclose(softmax(output_logits(params, m[t])), y, rtol=0, atol=1e-13)

    def test_batched_word_index_out_of_range(self):
        with pytest.raises(IndexError):
            sentence_layers(tiny_params(), [[11]])


class TestTargetLog2Prob:
    def test_matches_log_of_softmax(self):
        params = randomize_biases(tiny_params(seed=21), 21)
        rng = np.random.default_rng(1)
        for _ in range(10):
            m = rng.normal(scale=5.0, size=(6, 8))
            targets = rng.integers(0, 11, 6)
            expected = np.log2(softmax(output_logits(params, m))[np.arange(6), targets])
            assert_allclose(target_log2prob(params, m, targets), expected, rtol=0, atol=1e-12)

    def test_leading_image_axis_matches_each_image_alone(self):
        # log2prob_matrix scores (images, P, d_m) chunks in one call
        params = randomize_biases(tiny_params(seed=22), 22)
        _, m_base = sentence_layers(params, [[1, 9, 2, 4], [3, 3]])
        images = Rng(23).uniform(-1, 1, 4 * 3).reshape(4, 3)
        m = scaled_tanh(m_base + (images @ params["V_I"].T)[:, None, :])
        targets = np.arange(len(m_base)) % 11
        stacked = target_log2prob(params, m, targets)
        assert stacked.shape == (4, len(m_base))
        for n in range(4):
            assert_allclose(stacked[n], target_log2prob(params, m[n], targets),
                            rtol=0, atol=1e-12)

    def test_overflow_safe(self):
        # logits of +-1000: the softmax of the last word underflows to 0
        params = ModelParams.zeros(ModelConfig(vocab_size=3, d_i=2, d_e1=2, d_e2=2,
                                               d_r=2, d_m=2))
        params["b_out"][:] = [1000.0, 1000.0, -1000.0]
        m, targets = np.zeros((3, 2)), np.arange(3)
        with np.errstate(divide="ignore"):
            assert np.log2(softmax(output_logits(params, m))[2, 2]) == -np.inf
        out = target_log2prob(params, m, targets)
        assert np.all(np.isfinite(out))
        assert_allclose(out, [-1.0, -1.0, -2000.0 / LN2 - 1.0], rtol=1e-15, atol=1e-12)


class TestBackward:
    def test_zero_params_loss_is_uniform(self):
        tokens = [3, 4, 5, 6]
        for variant in ("mrnn", "baseline"):
            params = ModelParams.zeros(tiny_config(variant))
            trace = forward_sentence(params, tokens, FEAT)
            assert -log2prob(params, trace) * LN2 == pytest.approx(
                (len(tokens) + 1) * np.log(11), abs=1e-9)
            # every row's output error is the uniform distribution less its target
            expected = (len(tokens) + 1) / 11 - np.bincount(trace.targets, minlength=11)
            assert_allclose(backward_sentence(params, trace)["b_out"], expected,
                            rtol=0, atol=1e-15)

    @pytest.mark.parametrize("variant", ["mrnn", "baseline"])
    def test_matches_finite_differences(self, variant):
        params = tiny_params(seed=6, variant=variant)
        feat = None if variant == "baseline" else FEAT
        tokens = [2, 7, 4, 9, 1]
        trace = forward_sentence(params, tokens, feat)
        analytic = backward_sentence(params, trace)
        numeric = numeric_sentence_gradient(params, tokens, feat)
        for name in params.names():
            assert block_rel_err(analytic[name], numeric[name]) < 1e-6, name

    @pytest.mark.parametrize("variant", ["mrnn", "baseline"])
    @pytest.mark.parametrize("tokens", [[], [2, 7, 4, 9, 1], [5, 5, 2, 5, 5]],
                             ids=["T=1", "distinct", "repeated"])
    def test_matches_per_step_reference(self, variant, tokens):
        params = randomize_biases(tiny_params(seed=9, variant=variant), 9)
        trace = forward_sentence(params, tokens, FEAT)
        grads = backward_sentence(params, trace)
        ref, ref_loss = per_step_backward(params, tokens, FEAT)
        assert -log2prob(params, trace) * LN2 == pytest.approx(ref_loss, rel=1e-12)
        for name in params.names():
            assert_allclose(grads[name], ref[name], rtol=0, atol=1e-12, err_msg=name)

    def test_gradient_additivity(self):
        # two backward passes on the same sentence sum to twice one pass
        params = tiny_params(seed=7)
        tokens = [1, 2, 3]
        trace = forward_sentence(params, tokens, FEAT)
        once = backward_sentence(params, trace)
        total = params.zeros_like()
        total.add_scaled(once, 1.0)
        again = backward_sentence(params, trace)
        total.add_scaled(again, 1.0)
        for name in params.names():
            assert_allclose(total[name], 2.0 * once[name], rtol=0, atol=1e-15)

    def test_gradients_finite(self):
        params = tiny_params(seed=8)
        trace = forward_sentence(params, [1, 5, 9], FEAT)
        grads = backward_sentence(params, trace)
        for name in params.names():
            assert np.all(np.isfinite(grads[name]))


# Mixed lengths with ties, an empty caption (T=1) and repeated words.
BATCH = [[2, 7, 4], [], [5, 5, 2, 5, 5], [9, 3, 9], [1]]
BATCH_FEATS = Rng(321).uniform(-1, 1, 3 * len(BATCH)).reshape(len(BATCH), 3)


def sentence_rows(trace, b):
    """Packed row indices of sentence b, in step order."""
    return np.nonzero(trace.packing.sent == b)[0]


class TestPacking:
    def test_layout(self):
        # lengths 2, 1, 3, 2: longest first, ties in batch order
        p = Packing.of([2, 1, 3, 2])
        assert_array_equal(p.offsets, [0, 4, 7, 8])
        assert_array_equal(p.sent, [2, 0, 3, 1, 2, 0, 3, 2])
        assert_array_equal(p.source, [3, 0, 6, 2, 4, 1, 7, 5])
        # row 0 of r is the zero state; row i + 1 the state after packed row i
        assert_array_equal(p.prev, [0, 0, 0, 0, 1, 2, 3, 5])

    def test_one_sequence_is_its_steps_in_order(self):
        p = Packing.of([4])
        assert_array_equal(p.offsets, np.arange(5))
        assert_array_equal(p.sent, np.zeros(4))
        assert_array_equal(p.source, np.arange(4))
        assert_array_equal(p.prev, np.arange(4))

    def test_pack_gathers_rows(self):
        p = Packing.of([2, 1, 3])
        assert_array_equal(p.pack([np.array([10, 11]), np.array([20]),
                                   np.array([30, 31, 32])]), [30, 10, 20, 31, 11, 32])


class TestContextTrie:
    # [3, 4] is a prefix of [3, 4, 5], [] is the root alone, [4] differs at
    # the first word: five contexts in 10 packed rows
    SENTENCES = [[3, 4], [3, 4, 5], [], [4]]

    def test_layout(self):
        packing, inputs, _ = frame(tiny_params(), self.SENTENCES)
        trie = ContextTrie.of(packing, inputs)
        # depth by depth: the root; (3) and (4); (3, 4); (3, 4, 5)
        assert_array_equal(trie.offsets, [0, 1, 3, 4, 5])
        assert_array_equal(trie.inputs, [0, 3, 4, 4, 5])
        # row 0 of the states is the zero state; row i + 1 is node i's
        assert_array_equal(trie.prev, [0, 1, 1, 2, 4])
        # packed rows (longest first): [3, 4, 5], [3, 4], [4], []
        assert_array_equal(packing.sent, [1, 0, 3, 2, 1, 0, 3, 1, 0, 1])
        assert_array_equal(trie.node, [0, 0, 0, 0, 1, 1, 2, 3, 3, 4])

    def test_one_sentence_is_its_own_path(self):
        packing, inputs, _ = frame(tiny_params(), [[5, 5, 5]])
        trie = ContextTrie.of(packing, inputs)
        assert_array_equal(trie.node, np.arange(4))
        assert_array_equal(trie.prev, packing.prev)
        assert_array_equal(trie.inputs, inputs)

    def test_node_states_match_the_packed_sentences(self):
        # the recurrent loop reads r[prev] for both layouts
        params = randomize_biases(tiny_params(seed=7), 7)
        packing, inputs, _ = frame(params, self.SENTENCES)
        trie = ContextTrie.of(packing, inputs)
        _, e2, r = word_layers(params, trie.inputs, trie)
        trace, _ = sentence_layers(params, self.SENTENCES)
        assert_array_equal(e2[trie.node], trace.e2)
        assert_allclose(r[1:][trie.node], trace.r[1:], rtol=0, atol=1e-15)


class TestPackedBatch:
    @pytest.mark.parametrize("variant", ["mrnn", "baseline"])
    def test_rows_match_one_sentence_passes(self, variant):
        params = randomize_biases(tiny_params(seed=11, variant=variant), 11)
        trace = forward_batch(params, BATCH, BATCH_FEATS)
        assert len(trace) == sum(len(t) + 1 for t in BATCH)
        for b, tokens in enumerate(BATCH):
            ref = sentence_forward(params, tokens, BATCH_FEATS[b])
            rows = sentence_rows(trace, b)
            assert_array_equal(trace.inputs[rows], ref["inputs"])
            assert_array_equal(trace.targets[rows], ref["targets"])
            assert_allclose(trace.r[rows + 1], ref["r"][1:], rtol=0, atol=1e-13)
            assert_allclose(trace.m[rows], ref["m"], rtol=0, atol=1e-13)
            assert_allclose(probs(params, trace)[rows], ref["y"], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("variant", ["mrnn", "baseline"])
    def test_gradient_is_weighted_sum_of_sentence_gradients(self, variant):
        params = randomize_biases(tiny_params(seed=12, variant=variant), 12)
        weights = Rng(13).uniform(0.1, 2.0, len(BATCH))
        trace = forward_batch(params, BATCH, BATCH_FEATS)
        grads = backward_batch(params, trace, weights)
        loss = -LN2 * float(weights[trace.packing.sent]
                            @ target_log2prob(params, trace.m, trace.targets))
        ref_loss = 0.0
        ref = {name: np.zeros_like(arr) for name, arr in params.arrays.items()}
        for b, tokens in enumerate(BATCH):
            g, sentence_loss = sentence_backward(params, tokens, BATCH_FEATS[b])
            ref_loss += weights[b] * sentence_loss
            for name in ref:
                ref[name] += weights[b] * g[name]
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        for name in params.names():
            assert_allclose(grads[name], ref[name], rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("variant", ["mrnn", "baseline"])
    def test_into_a_reused_buffer_is_a_fresh_call(self, variant):
        # training reuses one buffer for every step: every block is written
        # whatever it held (NaN here), and E1's rows are summed from zero;
        # BATCH repeats words, so some of those rows take several terms
        params = randomize_biases(tiny_params(seed=14, variant=variant), 14)
        weights = Rng(15).uniform(0.1, 2.0, len(BATCH))
        trace = forward_batch(params, BATCH, BATCH_FEATS)
        fresh = backward_batch(params, trace, weights)
        buffer = params.zeros_like()
        for arr in buffer.arrays.values():
            arr.fill(np.nan)
        assert backward_batch(params, trace, weights, out=buffer) is buffer
        for name in params.names():
            assert buffer[name].tobytes() == fresh[name].tobytes(), name

    def test_sentence_order_only_permutes_rows(self):
        params = randomize_biases(tiny_params(seed=14), 14)
        weights = np.arange(1.0, len(BATCH) + 1)
        grads = backward_batch(params, forward_batch(params, BATCH, BATCH_FEATS), weights)
        rev = backward_batch(
            params, forward_batch(params, BATCH[::-1], BATCH_FEATS[::-1]), weights[::-1])
        for name in params.names():
            assert_allclose(rev[name], grads[name], rtol=0, atol=1e-12, err_msg=name)

    def test_baseline_is_mrnn_with_zero_image_projection(self):
        # bit for bit: the image term is the only difference between the variants
        mrnn = randomize_biases(tiny_params(seed=16), 16)
        mrnn.arrays["V_I"][:] = 0.0
        baseline = ModelParams(tiny_config("baseline"),
                               {name: arr for name, arr in mrnn.arrays.items() if name != "V_I"})
        weights = Rng(17).uniform(0.1, 2.0, len(BATCH))
        trace = forward_batch(mrnn, BATCH, BATCH_FEATS)
        base_trace = forward_batch(baseline, BATCH, None)
        assert base_trace.feats is None
        assert_array_equal(base_trace.m, trace.m)
        assert_array_equal(target_log2prob(baseline, base_trace.m, base_trace.targets),
                           target_log2prob(mrnn, trace.m, trace.targets))
        grads = backward_batch(mrnn, trace, weights)
        base_grads = backward_batch(baseline, base_trace, weights)
        # in the parameter order, which fixes the rounding of the clipping norm
        assert list(grads.arrays) == mrnn.names()
        assert list(base_grads.arrays) == [name for name in mrnn.names() if name != "V_I"]
        for name in base_grads.names():
            assert_array_equal(base_grads[name], grads[name], err_msg=name)

    def test_feature_shape_mismatch(self):
        with pytest.raises(ValueError, match="image features"):
            forward_batch(tiny_params(), BATCH, BATCH_FEATS[:2])

    def test_word_index_out_of_range(self):
        with pytest.raises(IndexError):
            forward_batch(tiny_params(), [[1, 2], [11]], BATCH_FEATS[:2])

    @pytest.mark.parametrize("variant", ["mrnn", "baseline"])
    def test_one_sentence_matches_its_own_pass(self, variant):
        params = randomize_biases(tiny_params(seed=15, variant=variant), 15)
        tokens = [5, 5, 2, 5, 5]
        trace = forward_sentence(params, tokens, FEAT)
        grads = backward_sentence(params, trace)
        ref, ref_loss = sentence_backward(params, tokens, FEAT)
        assert -log2prob(params, trace) * LN2 == pytest.approx(ref_loss, rel=1e-12)
        for name in params.names():
            assert_allclose(grads[name], ref[name], rtol=0, atol=1e-12, err_msg=name)


class TestNearestWords:
    def make(self):
        vocab = build_vocabulary(["sand waves shore", "summit ridge pines"])
        cfg = ModelConfig(vocab_size=vocab.size, d_i=2, d_e1=4, d_e2=4, d_r=4, d_m=4)
        return vocab, ModelParams.initialize(cfg, Rng(10))

    def test_k_zero(self):
        vocab, params = self.make()
        assert nearest_words(params, vocab, "sand", 0) == []

    def test_duplicate_row_ranks_first(self):
        vocab, params = self.make()
        i, j = vocab.token_to_index["sand"], vocab.token_to_index["ridge"]
        params.arrays["E1"][j] = params.arrays["E1"][i]
        assert nearest_words(params, vocab, "sand", 1) == ["ridge"]

    def test_unknown_token(self):
        vocab, params = self.make()
        with pytest.raises(KeyError):
            nearest_words(params, vocab, "zebra", 3)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_ranks_by_embedding_distance_in_both_variants(self, variant):
        vocab, _ = self.make()
        params = ModelParams.initialize(
            ModelConfig(vocab_size=vocab.size, d_i=2, variant=variant,
                        d_e1=4, d_e2=4, d_r=4, d_m=4), Rng(3))
        e1 = params["E1"]
        query = vocab.token_to_index["sand"]
        others = [i for i in range(vocab.size) if i != query]
        by_distance = sorted(others, key=lambda i: (float(np.linalg.norm(e1[i] - e1[query])), i))
        assert nearest_words(params, vocab, "sand", 4) == [
            vocab.index_to_token[i] for i in by_distance[:4]]

    def test_excludes_query_and_breaks_ties_by_index(self):
        vocab, params = self.make()
        params.arrays["E1"][:] = 0.0  # all rows identical: order = vocab index
        out = nearest_words(params, vocab, "sand", 3)
        query = vocab.token_to_index["sand"]
        expected = [vocab.index_to_token[i] for i in range(3 + 1) if i != query][:3]
        assert out == expected

    def test_trained_embeddings_cluster_by_topic(self):
        # statistical oracle: after training on the synthetic corpus, nouns of
        # the same topic sit closer in embedding space than nouns of other
        # topics, on average (fixed seed; the margin is comfortable)
        from mrnn.corpus import SynthSpec, _topic_bank, generate_synthetic_corpus
        from mrnn.training import TrainConfig, train

        spec = SynthSpec(n_topics=3, captions_per_image=4, noise_dim=2,
                         train_frac=1.0, val_frac=0.0)
        split, store, vocab = generate_synthetic_corpus(Rng(33), 40, spec)
        config = TrainConfig(
            model=ModelConfig(vocab_size=vocab.size, d_i=store.feature_dim,
                              d_e1=24, d_e2=24, d_r=32, d_m=32),
            learning_rate=0.3, lambda_reg=0.0, batch_size=16, epochs=80, seed=2)
        params, _ = train(config, split, store)

        noun_banks = [[w for w in _topic_bank(k)[1] if w in vocab] for k in range(3)]
        same, cross = [], []
        for k, nouns in enumerate(noun_banks):
            others = [w for j in range(3) if j != k for w in noun_banks[j]]
            for w in nouns:
                ranked = nearest_words(params, vocab, w, vocab.size - 1)
                pos = {tok: i for i, tok in enumerate(ranked)}
                same += [pos[t] for t in nouns if t != w]
                cross += [pos[t] for t in others]
        assert np.mean(same) < np.mean(cross)


class TestInitialize:
    def test_peak_stays_near_the_arrays(self):
        # weights are drawn RNG_BLOCK at a time: the peak above the arrays is
        # a few block buffers, not a temporary of every weight per operation
        config = ModelConfig(vocab_size=3331, d_i=4096)
        tracemalloc.start()
        try:
            params = ModelParams.initialize(config, Rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sum(a.nbytes for a in params.arrays.values()) + (1 << 20)


class TestCheckpoint:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bytes_match_the_field_by_field_writer(self, tmp_path, dtype):
        params = ModelParams.initialize(tiny_config(), Rng(5), dtype=dtype)
        params.arrays["W_out"] = np.asfortranarray(params["W_out"])  # not C-contiguous
        save_checkpoint(params, tmp_path / "m.mrnm")
        assert (tmp_path / "m.mrnm").read_bytes() == checkpoint_bytes_oracle(params)

    def test_round_trip_params_equal(self, tmp_path):
        params = tiny_params(seed=11)
        save_checkpoint(params, tmp_path / "m.mrnm")
        loaded = load_checkpoint(tmp_path / "m.mrnm")
        assert loaded.config == params.config
        for name in params.names():
            assert_array_equal(loaded[name], params[name])

    def test_save_load_save_bit_identical(self, tmp_path):
        params = tiny_params(seed=12, variant="baseline")
        save_checkpoint(params, tmp_path / "a.mrnm")
        save_checkpoint(load_checkpoint(tmp_path / "a.mrnm"), tmp_path / "b.mrnm")
        assert (tmp_path / "a.mrnm").read_bytes() == (tmp_path / "b.mrnm").read_bytes()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_float64_arrays_are_views_of_one_block(self, tmp_path, variant):
        # the loader reads every payload into one buffer, not one per array
        save_checkpoint(tiny_params(variant=variant), tmp_path / "m.mrnm")
        loaded = load_checkpoint(tmp_path / "m.mrnm")
        block = loaded[loaded.names()[0]].base
        assert block is not None
        assert all(loaded[name].base is block for name in loaded.names())

    def test_float32_mode_preserved(self, tmp_path):
        params = ModelParams.initialize(tiny_config(), Rng(1), dtype=np.float32)
        save_checkpoint(params, tmp_path / "m.mrnm")
        loaded = load_checkpoint(tmp_path / "m.mrnm")
        assert loaded.dtype == np.float32
        for name in params.names():
            assert_array_equal(loaded[name], params[name])

    def test_float32_load_peaks_at_one_array_of_float64(self, tmp_path):
        # a float32 model casts each f64 payload from a buffer of its own:
        # the peak is the float32 arrays plus the largest payload, where one
        # f64 block for the whole file would add every payload
        config = ModelConfig(vocab_size=200, d_i=64, d_e1=64, d_e2=64, d_r=64, d_m=64)
        params = ModelParams.initialize(config, Rng(2), dtype=np.float32)
        save_checkpoint(params, tmp_path / "m.mrnm")
        f32 = sum(a.nbytes for a in params.arrays.values())
        largest = 2 * max(a.nbytes for a in params.arrays.values())
        assert 2 * f32 > f32 + largest + 64 * 1024  # one f64 block alone exceeds the bound
        tracemalloc.start()
        try:
            loaded = load_checkpoint(tmp_path / "m.mrnm")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.dtype == np.float32
        assert peak < f32 + largest + 64 * 1024

    def test_bad_magic(self, tmp_path):
        (tmp_path / "x.mrnm").write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(tmp_path / "x.mrnm")

    def test_truncated(self, tmp_path):
        params = tiny_params()
        save_checkpoint(params, tmp_path / "m.mrnm")
        blob = (tmp_path / "m.mrnm").read_bytes()
        (tmp_path / "cut.mrnm").write_bytes(blob[:-100])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(tmp_path / "cut.mrnm")

    @pytest.mark.parametrize("kind, shape", [
        pytest.param("huge_shape", (2147483647, 4), id="huge_shape"),
        pytest.param("overflow_shape", (4294967295, 4294967295), id="overflow_shape"),
    ])
    def test_oversized_shape_is_named_error(self, tmp_path, kind, shape):
        # refused before any allocation, and without an integer overflow
        save_checkpoint(tiny_params(), tmp_path / "m.mrnm")
        path = corrupt_checkpoint(tmp_path / "m.mrnm", kind)
        with pytest.raises(ValueError, match=re.escape(f"{kind}.mrnm: truncated: array E1 "
                                                       f"of shape {shape}")):
            load_checkpoint(path)

    @pytest.mark.parametrize("kind, match", [
        ("variant", "unknown variant code 7"),
        ("dtype", "unknown dtype code 9"),
        ("trailing", "trailing bytes"),
        ("nan", "b_out has NaN"),
    ])
    def test_corrupt_header_or_tail_is_named_error(self, tmp_path, kind, match):
        save_checkpoint(tiny_params(), tmp_path / "m.mrnm")
        path = corrupt_checkpoint(tmp_path / "m.mrnm", kind)
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("variant, block", [("mrnn", "W_out"), ("mrnn", "E1"),
                                                ("baseline", "U_r")])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_is_named_error(self, tmp_path, variant, block, value):
        params = tiny_params(variant=variant)
        params.arrays[block][2, 1] = value
        save_checkpoint(params, tmp_path / "m.mrnm")
        with pytest.raises(ValueError, match=f"array {block} has NaN or infinite"):
            load_checkpoint(tmp_path / "m.mrnm")

