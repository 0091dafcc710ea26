import numpy as np
import pytest

from mrnn.corpus import build_vocabulary
from mrnn.estimator import MRNNCaptioner
from mrnn.validation import NotFittedError, as_feature_matrix, check_captions


def topic_data():
    """Four captions, two topics, features that identify the topic."""
    X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    y = ["the waves roll on the sand", "the waves roll on the sand",
         "the summit rises over the ridge", "the summit rises over the ridge"]
    return X, y


def small_estimator(**kw):
    defaults = dict(d_e1=8, d_e2=8, d_r=12, d_m=16, epochs=60,
                    learning_rate=0.5, batch_size=2, lambda_reg=0.0, seed=0)
    defaults.update(kw)
    return MRNNCaptioner(**defaults)


class TestFitPredict:
    def test_fit_returns_self_and_sets_state(self):
        X, y = topic_data()
        est = small_estimator(epochs=2)
        assert est.fit(X, y) is est
        assert est.params_ is not None
        assert est.vocab_.size > 3

    def test_predict_memorizes_small_corpus(self):
        X, y = topic_data()
        est = small_estimator().fit(X, y)
        assert est.predict(X) == y

    def test_score_and_perplexity(self):
        X, y = topic_data()
        est = small_estimator().fit(X, y)
        ppl = est.perplexity(X, y)
        assert 1.0 <= ppl < 2.0  # memorized
        assert est.score(X, y) == pytest.approx(-np.log2(ppl))
        # an 800-nat bias on one word puts the others past 1024 bits per word,
        # where the perplexity overflows and the score stays finite
        est.params_["b_out"][5] = 800.0
        assert est.perplexity(X, y) == np.inf
        assert -np.inf < est.score(X, y) < -1024.0

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            MRNNCaptioner().predict(np.zeros((1, 2)))

    def test_baseline_variant_fits(self):
        X, y = topic_data()
        est = small_estimator(variant="baseline", epochs=5).fit(X, y)
        assert len(est.predict(X)) == 4


class TestSklearnContract:
    def test_get_params_round_trip(self):
        est = MRNNCaptioner(d_r=64, learning_rate=0.1)
        params = est.get_params()
        assert params["d_r"] == 64 and params["learning_rate"] == 0.1
        clone = MRNNCaptioner(**params)
        assert clone.get_params() == params

    def test_set_params(self):
        est = MRNNCaptioner()
        assert est.set_params(epochs=3, seed=9) is est
        assert est.epochs == 3 and est.seed == 9

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            MRNNCaptioner().set_params(dropout=0.5)

    def test_sklearn_clone_compatible(self):
        sklearn_base = pytest.importorskip("sklearn.base")
        est = MRNNCaptioner(epochs=4, d_m=32)
        cloned = sklearn_base.clone(est)
        assert cloned is not est
        assert cloned.get_params() == est.get_params()

    def test_deterministic_across_fits(self):
        X, y = topic_data()
        a = small_estimator(epochs=5).fit(X, y)
        b = small_estimator(epochs=5).fit(X, y)
        assert a.predict(X) == b.predict(X)
        for name in a.params_.names():
            np.testing.assert_array_equal(a.params_[name], b.params_[name])


class TestValidationHelpers:
    def test_feature_matrix_must_be_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            as_feature_matrix(np.zeros(3))

    def test_feature_matrix_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            as_feature_matrix(np.array([[1.0, np.nan]]))

    def test_feature_matrix_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            as_feature_matrix(np.zeros((0, 4)))

    def test_captions_length_mismatch(self):
        with pytest.raises(ValueError, match="captions for"):
            check_captions(["a"], 2)

    def test_captions_reject_single_string(self):
        with pytest.raises(ValueError, match="sequence"):
            check_captions("just one caption", 1)

    def test_captions_reject_blank(self):
        with pytest.raises(ValueError, match="non-empty"):
            check_captions(["ok", "   "], 2)

    def test_caption_without_tokens_is_refused_and_quoted(self):
        # check_captions refuses a blank caption first; the dataset refuses it too
        vocab = build_vocabulary(["a cat"])
        with pytest.raises(ValueError, match="tokenizes to nothing: ' '"):
            MRNNCaptioner()._dataset(np.ones((2, 3)), ["a cat", " "], vocab)

    def test_fit_rejects_mismatched_inputs(self):
        with pytest.raises(ValueError):
            MRNNCaptioner(epochs=1).fit(np.ones((2, 3)), ["one caption"])
