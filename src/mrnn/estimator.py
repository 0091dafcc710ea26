"""Scikit-learn style estimator wrapping the captioning pipeline.

``MRNNCaptioner`` follows the estimator contract (``get_params`` /
``set_params`` consistent with ``__init__``, ``fit`` returns self, fitted
state in trailing-underscore attributes) without depending on scikit-learn
itself, so ``sklearn.base.clone`` and friends work when that library is
around.
"""

from __future__ import annotations

import inspect

import numpy as np

from .corpus import (MIN_COUNT, DatasetSplit, ImageFeatureStore, build_vocabulary,
                     make_example)
from .evaluation import corpus_perplexity
from .inference import GenerationConfig, generate
from .model import ModelConfig
from .training import TrainConfig, bits_per_word, train
from .validation import as_feature_matrix, check_captions, check_is_fitted


class MRNNCaptioner:
    """Caption generator trained on (image feature vector, caption) pairs.

    ``fit`` takes X of shape (n_captions, feature_dim) and y, a caption
    string per row; images with several captions simply contribute several
    rows with the same feature vector.  ``predict`` greedily decodes one
    caption per row of X; ``score`` returns the negative log2 corpus
    perplexity (higher is better).
    """

    # The defaults are the config fields' own; scikit-learn reads this signature.
    def __init__(self, variant=ModelConfig.variant, d_e1=ModelConfig.d_e1,
                 d_e2=ModelConfig.d_e2, d_r=ModelConfig.d_r, d_m=ModelConfig.d_m,
                 learning_rate=TrainConfig.learning_rate, lambda_reg=TrainConfig.lambda_reg,
                 batch_size=TrainConfig.batch_size, epochs=TrainConfig.epochs,
                 clip_norm=TrainConfig.clip_norm, seed=TrainConfig.seed,
                 min_count=MIN_COUNT, max_length=GenerationConfig.max_length,
                 precision=TrainConfig.precision):
        given = locals()
        for name in self._param_names():
            setattr(self, name, given[name])

    @classmethod
    def _param_names(cls) -> list[str]:
        return [p for p in inspect.signature(cls.__init__).parameters if p != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "MRNNCaptioner":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    def _dataset(self, X: np.ndarray, captions: list[str], vocab):
        """One example per row, and a feature store with an image id per row."""
        image_ids = [f"x{i:06d}" for i in range(len(X))]
        examples = [make_example(vocab, *pair) for pair in zip(image_ids, captions)]
        return examples, ImageFeatureStore(image_ids, X)

    def fit(self, X, y) -> "MRNNCaptioner":
        X = as_feature_matrix(X)
        captions = check_captions(y, len(X))
        self.vocab_ = build_vocabulary(captions, min_count=self.min_count)
        examples, store = self._dataset(X, captions, self.vocab_)
        config = TrainConfig.from_settings(self.get_params(), self.vocab_.size, X.shape[1])
        self.params_, self.report_ = train(config, DatasetSplit(train=examples), store)
        return self

    def predict(self, X) -> list[str]:
        """One greedily decoded caption string per feature row."""
        check_is_fitted(self, "params_")
        X = as_feature_matrix(X)
        gcfg = GenerationConfig(mode="greedy", max_length=self.max_length)
        return [" ".join(generate(self.params_, self.vocab_, row, gcfg)) for row in X]

    def _scored(self, X, y):
        check_is_fitted(self, "params_")
        X = as_feature_matrix(X)
        return self.params_, *self._dataset(X, check_captions(y, len(X)), self.vocab_)

    def perplexity(self, X, y) -> float:
        return corpus_perplexity(*self._scored(X, y))

    def score(self, X, y) -> float:
        """Negative log2 corpus perplexity (minus the bits per word), so
        higher is better; it stays finite where the perplexity overflows."""
        return -bits_per_word(*self._scored(X, y))
