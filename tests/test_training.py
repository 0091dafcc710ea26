import numpy as np
import pytest
from numpy.testing import assert_array_equal

from helpers import block_rel_err, numeric_sentence_gradient
from mrnn.corpus import (CaptionedExample, DatasetSplit, ImageFeatureStore,
                         SynthSpec, generate_synthetic_corpus)
from mrnn.model import (ModelConfig, ModelParams, backward_sentence,
                        forward_sentence, save_checkpoint)
from mrnn.numerics import Rng
from mrnn.training import (TrainConfig, TrainingDiverged, apply_sgd_step,
                           cost, gradient_check, train)


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
        with pytest.raises(TrainingDiverged):
            train(config, split, store)

    def test_validation_ppl_respects_eval_every(self):
        split, store, vocab = generate_synthetic_corpus(
            Rng(2), 10, SynthSpec(n_topics=2, captions_per_image=1,
                                  train_frac=0.6, val_frac=0.4))
        cfg = ModelConfig(vocab_size=vocab.size, d_i=store.feature_dim,
                          d_e1=4, d_e2=4, d_r=6, d_m=6)
        _, report = train(self.small_config(cfg, epochs=5, eval_every=2), split, store)
        evaluated = [r.epoch for r in report.rows if r.val_ppl is not None]
        assert evaluated == [2, 4, 5]  # every other epoch plus the final one

    def test_report_csv_format(self, tmp_path):
        cfg, split, store = uniform_dataset(n=2)
        _, report = train(self.small_config(cfg, epochs=2), split, store)
        report.to_csv(tmp_path / "report.csv")
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == "epoch,cost,val_ppl,seconds"
        assert len(lines) == 3
        assert lines[1].split(",")[2] == ""  # no validation split -> blank

    def test_lambda_must_be_nonnegative(self):
        cfg, _, _ = uniform_dataset()
        with pytest.raises(ValueError):
            TrainConfig(model=cfg, lambda_reg=-1.0)

    @pytest.mark.parametrize("clip", [0.0, -1.0, float("nan"), float("inf")])
    def test_clip_norm_must_be_positive_and_finite(self, clip):
        cfg, _, _ = uniform_dataset()
        with pytest.raises(ValueError, match="clip_norm"):
            TrainConfig(model=cfg, clip_norm=clip)

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
        analytic, _ = backward_sentence(params, trace, tokens + [1], feat)
        numeric = numeric_sentence_gradient(params, tokens, feat)
        for name in params.names():
            assert block_rel_err(analytic[name], numeric[name]) < 1e-6, name

    def test_corrupted_gradient_fails(self):
        def corrupt(params, trace, targets, feat):
            grads, loss = backward_sentence(params, trace, targets, feat)
            grads.arrays["U_r"] += 0.01
            return grads, loss

        report = gradient_check(n_samples=1, seed=0, grad_fn=corrupt)
        assert not report.passed
        assert report.worst.block == "U_r"

    def test_report_tracks_worst_block(self):
        report = gradient_check(n_samples=2, seed=3)
        assert report.worst.rel_err == report.max_rel_err
        blocks = {c.block for c in report.checks}
        assert "U_r" in blocks and "W_out" in blocks
