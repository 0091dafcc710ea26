"""Input validation helpers for the estimator (``MRNNCaptioner``)."""

from __future__ import annotations

import numpy as np


class NotFittedError(ValueError, AttributeError):
    """Estimator used before ``fit`` (mirrors the scikit-learn exception)."""


def as_feature_matrix(X, name: str = "X") -> np.ndarray:
    """Coerce to a finite 2-D float64 array with at least one row."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D (n_samples, n_features), got shape {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or infinite values")
    return arr


def check_captions(y, n_expected: int, name: str = "y") -> list[str]:
    """A list of non-empty caption strings, one per feature row."""
    if isinstance(y, str):
        raise ValueError(f"{name} must be a sequence of caption strings, not one string")
    captions = list(y)
    if len(captions) != n_expected:
        raise ValueError(f"{name} has {len(captions)} captions for {n_expected} feature rows")
    for i, text in enumerate(captions):
        if not isinstance(text, str) or not text.strip():
            raise ValueError(f"{name}[{i}] is not a non-empty caption string")
    return captions


def check_is_fitted(obj, attribute: str) -> None:
    if getattr(obj, attribute, None) is None:
        raise NotFittedError(
            f"this {type(obj).__name__} instance is not fitted yet; call fit first")
