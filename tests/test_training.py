import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from helpers import (block_rel_err, mean_sentence_gradient, numeric_sentence_gradient,
                     randomize_biases, run_cli, sentence_forward, sentence_log2prob_oracle,
                     sgd_step_oracle)
from mrnn import cli, training
from mrnn.corpus import (START_INDEX, CaptionedExample, DatasetSplit, ImageFeatureStore,
                         SynthSpec, generate_synthetic_corpus)
from mrnn.model import (LN2, ModelConfig, ModelParams, backward_batch, backward_sentence,
                        forward_batch, forward_sentence, save_checkpoint)
from mrnn.inference import log2prob_matrix
from mrnn.numerics import Rng
from mrnn.training import (KINK_MARGIN, TINY_CONFIG, TrainConfig, TrainingDiverged,
                           apply_sgd_step, batch_gradient, bits_per_word, cost,
                           gradient_check, relu_margin, train)


def uniform_dataset(m=8, length=3, n=1, d_i=4):
    """Sentences over a vocab of size m plus a store with constant features."""
    store = ImageFeatureStore([f"im{i}" for i in range(n)],
                              np.tile(np.linspace(-1, 1, d_i), (n, 1)))
    split = DatasetSplit()
    for i in range(n):
        image_id = f"im{i}"
        tokens = [(3 + j + i) % m for j in range(length)]
        tokens = [max(t, 3) for t in tokens]  # keep clear of reserved indices
        split.train.append(CaptionedExample(image_id, tokens, "x"))
    cfg = ModelConfig(vocab_size=m, d_i=d_i, d_e1=4, d_e2=4, d_r=5, d_m=6)
    return cfg, split, store


def random_examples(n, m=11, d_i=3, seed=0):
    """n captions of 0-6 words (repeats likely) over n // 2 + 1 images."""
    rng = Rng(seed)
    n_images = n // 2 + 1
    store = ImageFeatureStore([f"im{i}" for i in range(n_images)],
                              rng.uniform(-1, 1, n_images * d_i).reshape(n_images, d_i))
    examples = [CaptionedExample(f"im{rng.randint(n_images)}",
                                 [3 + rng.randint(m - 3) for _ in range(rng.randint(7))], "x")
                for _ in range(n)]
    return examples, store


def tiny_params(variant="mrnn", seed=0):
    cfg = ModelConfig(vocab_size=11, d_i=3, variant=variant, d_e1=4, d_e2=4, d_r=6, d_m=8)
    return randomize_biases(ModelParams.initialize(cfg, Rng(seed)), seed)


class TestPackedPasses:
    @pytest.mark.parametrize("variant", ["mrnn", "baseline"])
    def test_batch_gradient_is_mean_of_sentence_gradients(self, variant):
        examples, store = random_examples(9, seed=1)
        examples.append(CaptionedExample("im0", [], "x"))  # T=1
        params = tiny_params(variant, seed=2)
        grads = batch_gradient(params, examples, store)
        ref = mean_sentence_gradient(params, [ex.tokens for ex in examples],
                                     store.matrix([ex.image_id for ex in examples]))
        for name in params.names():
            assert_allclose(grads[name], ref[name], rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("variant", ["mrnn", "baseline"])
    def test_bits_per_word_matches_sentence_passes(self, variant):
        # more sentences than one scoring pack holds
        examples, store = random_examples(37, seed=3)
        params = tiny_params(variant, seed=4)
        nll_bits = 0.0
        for ex in examples:
            f = sentence_forward(params, ex.tokens, store.get(ex.image_id))
            nll_bits -= np.log2(f["y"][np.arange(len(f["targets"])), f["targets"]]).sum()
        positions = sum(len(ex.tokens) + 1 for ex in examples)
        assert bits_per_word(params, examples, store) == pytest.approx(
            nll_bits / positions, rel=1e-12, abs=0)

    def test_float32_batch_gradient_stays_float32(self):
        examples, store = random_examples(5, seed=5)
        params = ModelParams.initialize(tiny_params().config, Rng(6), dtype=np.float32)
        grads = batch_gradient(params, examples, store)
        assert {a.dtype for a in grads.arrays.values()} == {np.dtype(np.float32)}


class TestCost:
    def test_uniform_model_is_log2_m(self):
        cfg, split, store = uniform_dataset(m=8, length=3)
        params = ModelParams.zeros(cfg)
        assert cost(params, split.train, store, 0.0) == pytest.approx(3.0, abs=1e-9)

    def test_duplicating_dataset_leaves_data_term_unchanged(self):
        cfg, split, store = uniform_dataset(m=8, length=4, n=3)
        params = ModelParams.initialize(cfg, Rng(0))
        once = cost(params, split.train, store, 0.0)
        twice = cost(params, split.train + split.train, store, 0.0)
        assert twice == pytest.approx(once, abs=1e-12)

    def test_regularizer_term(self):
        cfg, split, store = uniform_dataset()
        params = ModelParams.initialize(cfg, Rng(1))
        lam = 0.01
        assert cost(params, split.train, store, lam) == pytest.approx(
            cost(params, split.train, store, 0.0) + lam * params.weight_sq_norm(),
            abs=1e-12)

    def test_missing_feature_id_names_it(self):
        cfg, split, store = uniform_dataset()
        split.train.append(CaptionedExample("ghost", [3, 4], "x"))
        params = ModelParams.zeros(cfg)
        with pytest.raises(KeyError, match="ghost"):
            cost(params, split.train, store, 0.0)

    def test_empty_dataset(self):
        cfg, _, store = uniform_dataset()
        with pytest.raises(ValueError):
            cost(ModelParams.zeros(cfg), [], store, 0.0)

    # float32 sums its 274 per-position terms in float32: 1e-6 is ~8 ulps
    @pytest.mark.parametrize("dtype, rel", [(np.float64, 1e-12), (np.float32, 1e-6)])
    def test_far_off_targets_stay_finite(self, dtype, rel):
        # b_out[5] = 120 puts the other words ~120 nats below word 5, where a
        # float32 softmax underflows to 0 and log2 of it read -inf
        cfg = ModelConfig(vocab_size=9, d_i=2, d_e1=3, d_e2=3, d_r=4, d_m=5)
        params = ModelParams.initialize(cfg, Rng(1), dtype=dtype)
        params["b_out"][5] = 120.0
        examples = [CaptionedExample("a", [3, 7, 3], "x")]
        examples += [CaptionedExample("a", [5] * 8, "x") for _ in range(30)]
        store = ImageFeatureStore(["a"], [[0.5, -0.25]])
        positions = sum(len(ex.tokens) + 1 for ex in examples)
        # the float64 softmax still resolves these targets
        ref64 = ModelParams(cfg, {k: v.astype(np.float64) for k, v in params.arrays.items()})
        oracle = -sum(sentence_log2prob_oracle(ref64, ex.tokens, store.get("a"))
                      for ex in examples) / positions
        assert oracle == pytest.approx(21.4687, abs=1e-4)
        bits = bits_per_word(params, examples, store)
        assert bits == pytest.approx(oracle, rel=rel)
        logs = log2prob_matrix(params, [ex.tokens for ex in examples], store.matrix(["a"]))
        assert np.isfinite(logs).all()
        assert -logs.sum() / positions == pytest.approx(oracle, rel=rel)


class TestSgdStep:
    def test_clipping_bounds_applied_norm(self):
        cfg, _, _ = uniform_dataset()
        params = ModelParams.initialize(cfg, Rng(2))
        grads = ModelParams.initialize(cfg, Rng(3))
        clip = 0.5
        assert grads.global_norm() > clip
        applied = apply_sgd_step(params, grads, 0.1, 0.0, clip)
        assert applied <= clip + 1e-9
        assert grads.global_norm() <= clip + 1e-9

    def test_clips_just_above_the_threshold(self):
        # 0.5% above clip_norm is above it: no margin lets the step through
        cfg, _, _ = uniform_dataset()
        params = ModelParams.initialize(cfg, Rng(2))
        grads = ModelParams.initialize(cfg, Rng(3))
        clip = grads.global_norm() / 1.005
        assert apply_sgd_step(params, grads, 0.1, 0.0, clip) == clip
        assert grads.global_norm() == pytest.approx(clip, rel=1e-12)

    def test_no_clip_when_under_threshold(self):
        cfg, _, _ = uniform_dataset()
        params = ModelParams.initialize(cfg, Rng(2))
        grads = ModelParams.initialize(cfg, Rng(3))
        before = grads.global_norm()
        applied = apply_sgd_step(params, grads, 0.1, 0.0, before * 10)
        assert applied == pytest.approx(before)

    def test_regularizer_shrinks_weights_with_zero_data_gradient(self):
        cfg, _, _ = uniform_dataset()
        params = ModelParams.initialize(cfg, Rng(4))
        before = params.weight_sq_norm()
        apply_sgd_step(params, params.zeros_like(), 0.1, 0.01, None)
        assert params.weight_sq_norm() < before

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_norm_raises_before_update(self, bad):
        cfg, _, _ = uniform_dataset()
        params = ModelParams.initialize(cfg, Rng(2))
        before = params.copy()
        grads = ModelParams.initialize(cfg, Rng(3))
        grads.arrays["V_w"][1, 2] = bad
        with pytest.raises(TrainingDiverged, match=r"gradient norm is (nan|inf).*block V_w"):
            apply_sgd_step(params, grads, 0.1, 0.01, 5.0)
        for name in params.names():
            assert_array_equal(params[name], before[name])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("clips", [True, False])
    def test_matches_the_step_with_a_new_array_per_product(self, dtype, clips):
        # train() steps with one reused gradient buffer; each elementwise
        # operation and each full-block sum stays as it was, so the weights
        # and the norm are the same bits as the oracle's
        cfg, _, _ = uniform_dataset()
        params = randomize_biases(ModelParams.initialize(cfg, Rng(6), dtype=dtype), 6)
        grads = randomize_biases(ModelParams.initialize(cfg, Rng(7), dtype=dtype), 7)
        _, norm = sgd_step_oracle(params, grads, 0.1, 0.03, None)
        clip = norm / 3 if clips else norm * 3
        want, want_norm = sgd_step_oracle(params, grads, 0.1, 0.03, clip)
        assert (want_norm == clip) == clips
        assert apply_sgd_step(params, grads, 0.1, 0.03, clip) == want_norm
        for name in params.names():
            assert params[name].tobytes() == want[name].tobytes(), name

    def test_biases_not_regularized(self):
        cfg, _, _ = uniform_dataset()
        params = ModelParams.initialize(cfg, Rng(5))
        params.arrays["b_m"][:] = 1.0
        apply_sgd_step(params, params.zeros_like(), 0.1, 0.01, None)
        assert_array_equal(params["b_m"], np.ones_like(params["b_m"]))


class TestTrain:
    def small_config(self, split_cfg, **kw):
        defaults = dict(learning_rate=0.3, lambda_reg=0.0, batch_size=4,
                        epochs=5, seed=0)
        defaults.update(kw)
        return TrainConfig(model=split_cfg, **defaults)

    def test_zero_learning_rate_is_noop(self):
        cfg, split, store = uniform_dataset(n=4)
        params, _ = train(self.small_config(cfg, learning_rate=0.0, epochs=3),
                          split, store)
        fresh = ModelParams.initialize(cfg, Rng(0))
        for name in params.names():
            assert_array_equal(params[name], fresh[name])

    def test_deterministic_checkpoints(self, tmp_path):
        cfg, split, store = uniform_dataset(n=4)
        for tag in ("a", "b"):
            params, _ = train(self.small_config(cfg), split, store)
            save_checkpoint(params, tmp_path / f"{tag}.mrnm")
        assert (tmp_path / "a.mrnm").read_bytes() == (tmp_path / "b.mrnm").read_bytes()

    def test_cost_improves_on_overfit_task(self):
        split, store, vocab = generate_synthetic_corpus(
            Rng(1), 4, SynthSpec(n_topics=4, captions_per_image=1,
                                 train_frac=1.0, val_frac=0.0))
        cfg = ModelConfig(vocab_size=vocab.size, d_i=store.feature_dim,
                          d_e1=8, d_e2=8, d_r=12, d_m=12)
        _, report = train(self.small_config(cfg, epochs=40), split, store)
        assert report.rows[-1].cost < report.rows[0].cost

    def test_empty_train_split(self):
        cfg, _, store = uniform_dataset()
        with pytest.raises(ValueError, match="empty"):
            train(self.small_config(cfg), DatasetSplit(), store)

    def test_divergence_detected(self):
        cfg, split, store = uniform_dataset(n=2)
        config = self.small_config(cfg, learning_rate=1e8, clip_norm=None, epochs=10)
        # lr 1e8 leaves every cost finite, but the data term is far past the
        # limit of 10 x log2(8) bits per word
        with pytest.raises(TrainingDiverged, match=r"^epoch 1: cost \S+ is not finite or "
                                                   r"its data term is over 10 log2\(V\) = 30;"):
            train(config, split, store)

    def test_epoch_cost_is_the_cost_of_the_trained_weights(self):
        examples, store = random_examples(12, seed=3)
        cfg = ModelConfig(vocab_size=11, d_i=3, d_e1=4, d_e2=4, d_r=6, d_m=8)
        # a penalty as large as the data term, so each term's last bits show
        params, report = train(self.small_config(cfg, learning_rate=0.1, lambda_reg=0.5, epochs=2),
                               DatasetSplit(train=examples), store)
        assert report.rows[-1].cost == cost(params, examples, store, 0.5)

    def test_an_epoch_holds_one_gradient(self):
        # The bound on the traced peak of an epoch above its start:
        # - the parameters and one gradient buffer, each `model` bytes;
        # - one temporary as large as the largest block (E1 and W_out
        #   here): the SGD step frees each such product before the next;
        # - the activations of the largest pass.  A pass over P rows holds
        #   its forward trace (e1, e2, r, m and the image rows) and one
        #   (P, V) array of logits or output error, and its temporaries are
        #   allowed twice that again.  The largest pass is the epoch's cost:
        #   all 8 sentences are one scoring pack.
        # A gradient that outlives its step (the previous batch's, alive
        # while the next is computed) adds `model` bytes, which is more
        # than the activation allowance at these sizes.
        cfg = ModelConfig(vocab_size=1000, d_i=8, d_e1=128, d_e2=8, d_r=8, d_m=128)
        rng = Rng(7)
        examples = [CaptionedExample("a", [3 + rng.randint(997) for _ in range(2)], "x")
                    for _ in range(8)]
        store = ImageFeatureStore(["a"], [rng.uniform(-1.0, 1.0, 8)])
        shapes = cfg.param_shapes().values()
        model = 8 * sum(math.prod(shape) for shape in shapes)
        largest = 8 * max(math.prod(shape) for shape in shapes)
        rows = sum(len(ex.tokens) + 1 for ex in examples)
        activations = 3 * 8 * rows * (cfg.vocab_size + cfg.d_e1 + cfg.d_e2 + cfg.d_r
                                      + cfg.d_m + cfg.d_i)
        config = self.small_config(cfg, epochs=1, batch_size=2, lambda_reg=1e-3)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            train(config, DatasetSplit(train=examples), store)
            growth = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert growth <= 2 * model + largest + activations

    def test_large_penalty_never_trips_the_divergence_rule(self):
        cfg, split, store = uniform_dataset(n=2)
        limit = training.DIVERGED_FACTOR * np.log2(cfg.vocab_size)
        _, report = train(self.small_config(cfg, learning_rate=0.0, lambda_reg=1e6, epochs=1),
                          split, store)
        assert report.rows[0].cost > 1e3 * limit

    def test_non_finite_gradient_names_epoch_batch_and_block(self):
        # the gradient overflows on the second step, before the epoch's cost
        cfg, split, store = uniform_dataset(n=6)
        config = self.small_config(cfg, learning_rate=1e200, clip_norm=None, batch_size=1)
        with np.errstate(all="ignore"), pytest.raises(
                TrainingDiverged, match=r"epoch 1, batch 2: gradient norm is nan "
                                        r"\(largest in block \w+\)"):
            train(config, split, store)

    def test_telemetry(self):
        cfg, split, store = uniform_dataset(n=6)
        _, report = train(self.small_config(cfg, epochs=2, batch_size=2), split, store)
        for row in report.rows:
            assert 0.0 < row.grad_norm_mean <= row.grad_norm_max <= 5.0
            assert 0.0 <= row.clip_frac <= 1.0
            assert row.positions_per_s > 0.0

    def test_telemetry_counts_clipped_steps(self):
        cfg, split, store = uniform_dataset(n=6)
        _, clipped = train(self.small_config(cfg, epochs=1, batch_size=2, clip_norm=1e-6),
                           split, store)
        assert clipped.rows[0].clip_frac == 1.0
        assert clipped.rows[0].grad_norm_max == 1e-6
        _, free = train(self.small_config(cfg, epochs=1, batch_size=2, clip_norm=None),
                        split, store)
        assert free.rows[0].clip_frac == 0.0
        assert free.rows[0].grad_norm_max > 1e-6

    def test_validation_ppl_respects_eval_every(self):
        split, store, vocab = generate_synthetic_corpus(
            Rng(2), 10, SynthSpec(n_topics=2, captions_per_image=1,
                                  train_frac=0.6, val_frac=0.4))
        cfg = ModelConfig(vocab_size=vocab.size, d_i=store.feature_dim,
                          d_e1=4, d_e2=4, d_r=6, d_m=6)
        _, report = train(self.small_config(cfg, epochs=5, eval_every=2), split, store)
        evaluated = [r.epoch for r in report.rows if r.val_ppl is not None]
        assert evaluated == [2, 4, 5]  # every other epoch plus the final one

    def test_report_csv_format(self, tmp_path, monkeypatch):
        # `mrnn train` writes the report's rows: each value its repr, and the
        # wall-clock columns in timing.csv
        data, run = tmp_path / "data", tmp_path / "run"
        run_cli("synth", "--out", str(data), "--images", "4", "--val-frac", "0", "--seed", "1")
        seen = []

        def spy(*args):
            seen.append(train(*args))
            return seen[-1]
        monkeypatch.setattr(cli, "train", spy)
        run_cli("train", "--captions", str(data / "captions.tsv"),
                "--features", str(data / "features.mrnf"),
                "--split", str(data / "split.tsv"), "--out", str(run),
                "--epochs", "2", "--d-e1", "4", "--d-e2", "4", "--d-r", "4", "--d-m", "4")
        rows = seen[0][1].rows
        assert (run / "train_report.csv").read_text() == "".join(
            ["epoch,cost,val_ppl,grad_norm_mean,grad_norm_max,clip_frac\n"]
            + [f"{r.epoch},{r.cost!r},,{r.grad_norm_mean!r},{r.grad_norm_max!r},"
               f"{r.clip_frac!r}\n" for r in rows])  # no validation split -> blank
        assert (run / "timing.csv").read_text() == "".join(
            ["epoch,seconds,positions_per_s,sgd_s,cost_s,val_s\n"]
            + [f"{r.epoch},{r.seconds!r},{r.positions_per_s!r},{r.sgd_s!r},{r.cost_s!r},\n"
               for r in rows])  # no validation, so no validation seconds

    def test_lambda_must_be_nonnegative(self):
        # and both it and the learning rate finite
        cfg, _, _ = uniform_dataset()
        for name, bad in [("lambda_reg", -1.0), ("lambda_reg", np.nan), ("lambda_reg", np.inf),
                          ("learning_rate", -1.0), ("learning_rate", np.nan),
                          ("learning_rate", np.inf)]:
            with pytest.raises(ValueError, match=f"^{name} must be a finite number >= 0$"):
                TrainConfig(model=cfg, **{name: bad})

    @pytest.mark.parametrize("clip", [0.0, -1.0, float("nan"), float("inf")])
    def test_clip_norm_must_be_positive_and_finite(self, clip):
        cfg, _, _ = uniform_dataset()
        with pytest.raises(ValueError, match="clip_norm"):
            TrainConfig(model=cfg, clip_norm=clip)

    def test_float32_one_epoch_smoke(self):
        split, store, vocab = generate_synthetic_corpus(
            Rng(3), 12, SynthSpec(n_topics=3, captions_per_image=2,
                                  train_frac=0.75, val_frac=0.25))
        cfg = ModelConfig(vocab_size=vocab.size, d_i=store.feature_dim,
                          d_e1=8, d_e2=8, d_r=12, d_m=12)
        params, report = train(self.small_config(cfg, epochs=1, precision="float32"),
                               split, store)
        assert {a.dtype for a in params.arrays.values()} == {np.dtype(np.float32)}
        row = report.rows[0]
        assert np.isfinite(row.cost) and np.isfinite(row.val_ppl)
        assert np.isfinite(row.grad_norm_max)

    def test_float32_speed_mode(self):
        cfg, split, store = uniform_dataset(n=2)
        params, _ = train(self.small_config(cfg, epochs=2, precision="float32"),
                          split, store)
        assert params.dtype == np.float32


class TestGradientCheck:
    def test_default_run_passes(self):
        report = gradient_check(n_samples=5, seed=0)
        assert report.passed
        assert report.max_rel_err < 1e-4

    def test_baseline_variant_passes(self):
        report = gradient_check(n_samples=3, seed=1, variant="baseline")
        assert report.passed

    def test_zero_parameter_model_softmax_ce(self):
        # with all-zero parameters only the output bias has gradient; it must
        # match the finite difference of softmax cross-entropy very tightly
        cfg = ModelConfig(vocab_size=7, d_i=2, d_e1=3, d_e2=3, d_r=4, d_m=4)
        params = ModelParams.zeros(cfg)
        tokens = [3, 4, 5]
        feat = np.array([0.3, -0.2])
        trace = forward_sentence(params, tokens, feat)
        analytic = backward_sentence(params, trace)
        numeric = numeric_sentence_gradient(params, tokens, feat)
        for name in params.names():
            assert block_rel_err(analytic[name], numeric[name]) < 1e-6, name

    def test_corrupted_gradient_fails(self):
        def corrupt(params, examples, features):
            grads = batch_gradient(params, examples, features)
            grads.arrays["U_r"] += 0.01
            return grads

        report = gradient_check(n_samples=1, seed=0, grad_fn=corrupt)
        assert not report.passed
        assert report.worst.block == "U_r"

    @pytest.mark.parametrize("seed", range(3))
    def test_sentence_weights_in_packed_order_fail(self, seed):
        # a batch_gradient that gives sentence b the weight of the b-th
        # longest sentence: the check's batch is one that packing reorders
        def packed_order(params, examples, features):
            n_pred = np.array([len(ex.tokens) + 1 for ex in examples])
            trace = forward_batch(params, [ex.tokens for ex in examples],
                                  features.matrix([ex.image_id for ex in examples]))
            weights = 1.0 / (n_pred * LN2 * len(examples))
            return backward_batch(params, trace, weights[np.argsort(-n_pred, kind="stable")])

        assert not gradient_check(n_samples=2, seed=seed, grad_fn=packed_order).passed

    def test_seed_one_passes(self):
        # with zero biases, some seeds drew a model whose first recurrent
        # pre-activation sat on the ReLU kink, and b_r failed
        assert gradient_check(n_samples=5, seed=1).passed

    @staticmethod
    def kink_instance():
        """Zero biases, as ``ModelParams.initialize`` gives, and a START
        embedding that E2 maps to no positive entry: the first step's e2 is
        0, so its recurrent pre-activation is exactly 0, the ReLU kink."""
        params = ModelParams.initialize(ModelConfig(**TINY_CONFIG), Rng(0))
        params["E2"][:] = -np.abs(params["E2"])
        params["E1"][START_INDEX] = np.abs(params["E1"][START_INDEX])
        batch = [CaptionedExample("a", [3, 4], "x")]
        return params, batch, ImageFeatureStore(["a"], [[0.1, -0.2, 0.3]])

    def test_kink_instance_has_zero_margin(self):
        params, batch, store = self.kink_instance()
        trace = forward_batch(params, [[3, 4]], store.matrix(["a"]))
        assert not trace.e2[0].any()
        assert relu_margin(params, batch, store) == 0.0 < KINK_MARGIN

    def test_kink_instance_is_redrawn_never_compared(self, monkeypatch):
        kink = self.kink_instance()
        draws = iter([kink])
        draw = training._draw_instance
        monkeypatch.setattr(training, "_draw_instance",
                            lambda cfg, rng: next(draws, None) or draw(cfg, rng))
        compared = []

        def recording(params, examples, features):
            compared.append((params, relu_margin(params, examples, features)))
            return batch_gradient(params, examples, features)

        report = gradient_check(n_samples=2, seed=0, grad_fn=recording)
        assert report.redraws >= 1 and report.passed
        assert len(compared) == 2
        assert all(params is not kink[0] and margin >= KINK_MARGIN
                   for params, margin in compared)

    def test_report_tracks_worst_block(self):
        report = gradient_check(n_samples=2, seed=3)
        assert report.worst.rel_err == report.max_rel_err
        blocks = {c.block for c in report.checks}
        assert "U_r" in blocks and "W_out" in blocks
