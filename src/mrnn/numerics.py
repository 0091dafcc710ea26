"""Dense vector/matrix primitives, activations and a deterministic RNG.

Everything downstream (model, training, retrieval) is built on the small
set of operations in this module.  Vectors and matrices are plain numpy
arrays: float64 by default, float32 as an opt-in speed mode.  Gradient
checking requires float64.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31, _S11 = (np.uint64(k) for k in (30, 27, 31, 11))

# Bulk draws are mixed this many values at a time, so each block's uint64
# buffers (256 KB each) stay in L2.  random_array(513024), min of 30 on a
# 2-core Xeon with 2 MB of L2 a core: 2^12 3.3 ms, 2^13 2.7, 2^14 2.3,
# 2^15 2.4, 2^16 2.5, 2^17 3.2, 2^18 5.2; whole-array passes took 6.9 ms.
RNG_BLOCK = 1 << 15

SCALED_TANH_GAIN = 1.7159
SCALED_TANH_SLOPE = 2.0 / 3.0


def _mix(z):
    """splitmix64's finalizer: in place on a uint64 array, or a new np.uint64."""
    z ^= z >> _S30
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31
    return z


class Rng:
    """Counter-based splitmix64 generator (Steele, Lea & Flood, OOPSLA 2014).

    Draw k (from 1) is the finalizer of seed + k * golden gamma, mod 2**64.
    The same seed yields the same stream on every platform, whether values
    are drawn one at a time or in bulk, which is what makes training runs
    and synthetic corpora byte-reproducible.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & MASK64
        self._counter = 0

    def _claim(self, n: int) -> int:
        """Advance past the next n draws; the unmixed word of the first."""
        first = (self.seed + (self._counter + 1) * _GOLDEN) & MASK64
        self._counter += n
        return first

    def _blocks(self, n: int):
        """The next n draws, mixed ``RNG_BLOCK`` at a time: yields (lo, z)
        with z the uint64 draws lo, lo + 1, ... in a buffer that the next
        block overwrites."""
        size = min(n, RNG_BLOCK)
        step = np.arange(size, dtype=np.uint64)
        step *= np.uint64(_GOLDEN)
        buf = np.empty(size, np.uint64)
        first = self._claim(n)
        for lo in range(0, n, RNG_BLOCK):
            z = buf[:n - lo]
            np.add(step[:z.size], np.uint64((first + lo * _GOLDEN) & MASK64), out=z)
            yield lo, _mix(z)

    def next_u64_array(self, n: int) -> np.ndarray:
        """Next n raw 64-bit values as a uint64 array."""
        out = np.empty(n, np.uint64)
        for lo, z in self._blocks(n):
            out[lo:lo + z.size] = z
        return out

    def next_u64(self) -> int:
        with np.errstate(over="ignore"):  # np.uint64 scalars warn where arrays wrap silently
            return int(_mix(np.uint64(self._claim(1))))

    def random(self) -> float:
        """Uniform float in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def random_array(self, n: int) -> np.ndarray:
        return self.uniform(0.0, 1.0, n)

    def uniform(self, low: float, high: float, n: int | None = None, dtype=np.float64):
        """``low + (high - low) * random()``, or n of them as an array of
        ``dtype``, computed in float64 and rounded once to ``dtype``."""
        if n is None:
            return low + (high - low) * self.random()
        out = np.empty(n, dtype)
        for lo, z in self._blocks(n):
            z >>= _S11
            x = z.view(np.float64)
            np.multiply(z, 2.0 ** -53, out=x)  # each word becomes its float, in place
            x *= high - low
            np.add(x, low, out=out[lo:lo + x.size])
        return out

    def randint(self, n: int) -> int:
        """Integer in [0, n).  Modulo bias is negligible for n << 2**64."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: for i from len - 1 down to 1, swap
        item i with item ``randint(i + 1)``, all n - 1 words drawn at once."""
        n = len(items)
        picks = self.next_u64_array(max(n - 1, 0)) % np.arange(n, 1, -1, dtype=np.uint64)
        for i, j in zip(range(n - 1, 0, -1), picks.tolist()):
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
    return rng.uniform(-a, a, rows * cols, dtype=dtype).reshape(rows, cols)
