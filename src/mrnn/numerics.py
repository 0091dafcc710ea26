"""Dense vector/matrix primitives, activations and a deterministic RNG.

Everything downstream (model, training, retrieval) is built on the small
set of operations in this module.  Vectors and matrices are plain numpy
arrays: float64 by default, float32 as an opt-in speed mode.  Gradient
checking requires float64.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

SCALED_TANH_GAIN = 1.7159
SCALED_TANH_SLOPE = 2.0 / 3.0


class Rng:
    """Counter-based splitmix64 generator.

    The same seed yields the same stream on every platform, whether values
    are drawn one at a time or in bulk, which is what makes training runs
    and synthetic corpora byte-reproducible.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._counter = 0

    @staticmethod
    def _mix(z: np.ndarray) -> np.ndarray:
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))

    def next_u64_array(self, n: int) -> np.ndarray:
        """Next n raw 64-bit values as a uint64 array."""
        base = np.uint64(self.seed)
        ks = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            return self._mix(base + ks * _GOLDEN)

    def next_u64(self) -> int:
        return int(self.next_u64_array(1)[0])

    def random(self) -> float:
        """Uniform float in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def random_array(self, n: int) -> np.ndarray:
        return (self.next_u64_array(n) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def uniform(self, low: float, high: float, n: int | None = None):
        if n is None:
            return low + (high - low) * self.random()
        return low + (high - low) * self.random_array(n)

    def randint(self, n: int) -> int:
        """Integer in [0, n).  Modulo bias is negligible for n << 2**64."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def choice(self, items, k: int) -> list:
        """k items sampled without replacement, order deterministic."""
        if k > len(items):
            raise ValueError("cannot sample %d items from %d" % (k, len(items)))
        pool = list(items)
        self.shuffle(pool)
        return pool[:k]


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product with an explicit dimension check."""
    if m.ndim != 2 or v.ndim != 1 or m.shape[1] != v.shape[0]:
        raise ValueError(f"matvec shape mismatch: {m.shape} x {v.shape}")
    return m @ v


def relu(v: np.ndarray) -> np.ndarray:
    return np.maximum(v, 0)


def scaled_tanh(v: np.ndarray) -> np.ndarray:
    """1.7159 * tanh(2x/3), the multimodal-layer activation, in one new array."""
    out = SCALED_TANH_SLOPE * v
    np.tanh(out, out=out)
    out *= SCALED_TANH_GAIN
    return out


def scaled_tanh_grad_from_output(out: np.ndarray) -> np.ndarray:
    """Derivative of scaled_tanh expressed through its output value."""
    t = out / SCALED_TANH_GAIN
    return (SCALED_TANH_GAIN * SCALED_TANH_SLOPE) * (1.0 - t * t)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Probabilities along ``axis``, max-subtracted for overflow safety."""
    e = np.exp(logits - np.max(logits, axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def init_matrix(rows: int, cols: int, rng: Rng, dtype=np.float64) -> np.ndarray:
    """Fresh (rows, cols) weight matrix, i.i.d. uniform on [-a, a] with
    a = sqrt(6 / (rows + cols)), the variance-preserving choice."""
    if rows <= 0 or cols <= 0:
        raise ValueError("matrix dims must be positive")
    a = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-a, a, rows * cols).reshape(rows, cols).astype(dtype)
