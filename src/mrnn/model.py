"""The multimodal RNN: forward pass, full BPTT backward pass, checkpoints.

Two variants share one parameter/trace abstraction:

* ``mrnn``: word index -> embedding lookup -> second embedding (ReLU) ->
  ReLU recurrent layer -> multimodal fusion of word, recurrent and image
  features through a scaled tanh -> softmax over the vocabulary.
* ``baseline``: the classic Elman network.  The one-hot input word and the
  previous recurrent state are concatenated, passed through a sigmoid
  recurrent layer, then a softmax.  No image input.

A sentence with L content tokens unrolls into L+1 timesteps: step t consumes
input token t-1 (the start sign at t=1) and predicts token t, with the end
sign as the final target.  Parameters are shared across timesteps, and the
backward pass propagates through every step (no truncation).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .corpus import END_INDEX, START_INDEX, Vocabulary
from .numerics import (Rng, init_matrix, matvec, relu, scaled_tanh,
                       scaled_tanh_grad_from_output, sigmoid, softmax)

CHECKPOINT_MAGIC = b"MRNM"
CHECKPOINT_VERSION = 1

VARIANTS = ("mrnn", "baseline")


@dataclass
class ModelConfig:
    """Layer sizes for one model variant.

    ``baseline`` ignores ``d_m`` and ``d_i`` (it has no multimodal layer and
    never sees the image).
    """
    vocab_size: int
    d_i: int
    variant: str = "mrnn"
    d_e1: int = 128
    d_e2: int = 128
    d_r: int = 256
    d_m: int = 512

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        dims = [self.vocab_size, self.d_e1, self.d_e2, self.d_r]
        if self.variant == "mrnn":
            dims += [self.d_m, self.d_i]
        if any(d <= 0 for d in dims):
            raise ValueError("all layer dimensions must be positive")

    def param_shapes(self) -> dict[str, tuple]:
        """Canonical name -> shape map.  Bias names start with ``b_``."""
        m = self.vocab_size
        if self.variant == "mrnn":
            return {
                "E1": (m, self.d_e1),
                "E2": (self.d_e2, self.d_e1),
                "b_e2": (self.d_e2,),
                "U_r": (self.d_r, self.d_r),
                "W_in": (self.d_r, self.d_e2),
                "b_r": (self.d_r,),
                "V_w": (self.d_m, self.d_e2),
                "V_r": (self.d_m, self.d_r),
                "V_I": (self.d_m, self.d_i),
                "b_m": (self.d_m,),
                "W_out": (m, self.d_m),
                "b_out": (m,),
            }
        return {
            "U": (self.d_r, m + self.d_r),
            "b_r": (self.d_r,),
            "V": (m, self.d_r),
            "b_out": (m,),
        }


class ModelParams:
    """Named weight arrays shared across all timesteps.

    The same container is used for gradients (see ``Gradients`` alias); the
    two are shape-congruent by construction.
    """

    def __init__(self, config: ModelConfig, arrays: dict[str, np.ndarray]):
        expected = config.param_shapes()
        if set(arrays) != set(expected):
            raise ValueError(f"parameter names {sorted(arrays)} != {sorted(expected)}")
        for name, shape in expected.items():
            if arrays[name].shape != shape:
                raise ValueError(f"{name} has shape {arrays[name].shape}, expected {shape}")
        self.config = config
        self.arrays = arrays

    @classmethod
    def initialize(cls, config: ModelConfig, rng: Rng, dtype=np.float64,
                   scheme: str = "uniform") -> "ModelParams":
        """Weights from the named scheme, biases zero."""
        arrays = {}
        for name, shape in config.param_shapes().items():
            if name.startswith("b_"):
                arrays[name] = np.zeros(shape, dtype=dtype)
            elif len(shape) == 1:
                arrays[name] = init_matrix(shape[0], 1, scheme, rng, dtype=dtype)[:, 0]
            else:
                arrays[name] = init_matrix(shape[0], shape[1], scheme, rng, dtype=dtype)
        return cls(config, arrays)

    @classmethod
    def zeros(cls, config: ModelConfig, dtype=np.float64) -> "ModelParams":
        return cls(config, {name: np.zeros(shape, dtype=dtype)
                            for name, shape in config.param_shapes().items()})

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    @property
    def dtype(self):
        return next(iter(self.arrays.values())).dtype

    def names(self) -> list[str]:
        return list(self.config.param_shapes())

    def zeros_like(self) -> "ModelParams":
        return ModelParams.zeros(self.config, dtype=self.dtype)

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {k: v.copy() for k, v in self.arrays.items()})

    def add_scaled(self, other: "ModelParams", factor: float) -> None:
        """In-place self += factor * other (requires exclusive access)."""
        for name, arr in self.arrays.items():
            arr += factor * other.arrays[name]

    def scale(self, factor: float) -> None:
        for arr in self.arrays.values():
            arr *= factor

    def global_norm(self) -> float:
        return float(np.sqrt(sum(float(np.sum(a * a)) for a in self.arrays.values())))

    def weight_sq_norm(self) -> float:
        """Sum of squares over weight matrices only (biases excluded)."""
        return sum(float(np.sum(a * a)) for n, a in self.arrays.items()
                   if not n.startswith("b_"))

    def allclose(self, other: "ModelParams", **kw) -> bool:
        return all(np.allclose(self.arrays[n], other.arrays[n], **kw) for n in self.arrays)


Gradients = ModelParams


@dataclass
class StepTrace:
    """Activations of one timestep, retained for the backward pass."""
    input_index: int
    y: np.ndarray
    r: np.ndarray
    e1: np.ndarray | None = None
    e2: np.ndarray | None = None
    m_pre: np.ndarray | None = None
    m: np.ndarray | None = None


@dataclass
class ForwardTrace:
    """Per-timestep activations of one sentence's forward pass."""
    r0: np.ndarray
    steps: list[StepTrace] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)


def forward_step(params: ModelParams, word_index: int, r_prev: np.ndarray,
                 image_feature: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, StepTrace]:
    """One timestep: consume a word index, emit the next-word distribution.

    Returns (y, r, step_trace).  The embedding lookup is the one-hot matvec
    done as a row pick, which is mathematically identical and O(M) cheaper.
    """
    cfg = params.config
    if not 0 <= word_index < cfg.vocab_size:
        raise IndexError(f"word index {word_index} out of range for M={cfg.vocab_size}")
    if r_prev.shape != (cfg.d_r,):
        raise ValueError(f"recurrent state has shape {r_prev.shape}, expected ({cfg.d_r},)")

    if cfg.variant == "baseline":
        # r(t) = sigmoid(U . [onehot(w); r(t-1)]), y = softmax(V . r)
        u = params["U"]
        r = sigmoid(u[:, word_index] + matvec(u[:, cfg.vocab_size:], r_prev) + params["b_r"])
        y = softmax(matvec(params["V"], r) + params["b_out"])
        return y, r, StepTrace(word_index, y, r)

    feat = np.asarray(image_feature, dtype=params.dtype)
    if feat.shape != (cfg.d_i,):
        raise ValueError(f"image feature has shape {feat.shape}, expected ({cfg.d_i},)")
    e1 = params["E1"][word_index]
    e2 = relu(matvec(params["E2"], e1) + params["b_e2"])
    r = relu(matvec(params["U_r"], r_prev) + matvec(params["W_in"], e2) + params["b_r"])
    m_pre = (matvec(params["V_w"], e2) + matvec(params["V_r"], r)
             + matvec(params["V_I"], feat) + params["b_m"])
    m = scaled_tanh(m_pre)
    y = softmax(matvec(params["W_out"], m) + params["b_out"])
    return y, r, StepTrace(word_index, y, r, e1, e2, m_pre, m)


def multimodal_base(params: ModelParams, inputs: list[int]) -> np.ndarray:
    """Image-free part of the multimodal pre-activation over a sentence, (T, d_m).

    ``forward_step``'s embedding and recurrent layers run over all T input
    words at once; only the carry through ``U_r`` is sequential.  Adding
    ``V_I . I`` gives ``forward_step``'s ``m_pre`` at each step (mrnn only).
    """
    cfg = params.config
    bad = [w for w in inputs if not 0 <= w < cfg.vocab_size]
    if bad:
        raise IndexError(f"word index {bad[0]} out of range for M={cfg.vocab_size}")
    e2 = relu(params["E1"][inputs] @ params["E2"].T + params["b_e2"])
    drive = e2 @ params["W_in"].T + params["b_r"]
    rec = np.empty((len(inputs), cfg.d_r), dtype=params.dtype)
    r = np.zeros(cfg.d_r, dtype=params.dtype)
    for t, x in enumerate(drive):
        r = relu(matvec(params["U_r"], r) + x)
        rec[t] = r
    return e2 @ params["V_w"].T + rec @ params["V_r"].T + params["b_m"]


def output_logits(params: ModelParams, m_pre: np.ndarray) -> np.ndarray:
    """Output-layer logits for multimodal pre-activations along the last axis.

    ``forward_step``'s ``y`` is the softmax of these logits.
    """
    return scaled_tanh(m_pre) @ params["W_out"].T + params["b_out"]


def sentence_inputs_targets(tokens: list[int]) -> tuple[list[int], list[int]]:
    """Unrolled (inputs, targets) for a content-token sequence.

    The start sign is input-only, the end sign target-only: L tokens give
    L+1 prediction steps.
    """
    return [START_INDEX] + list(tokens), list(tokens) + [END_INDEX]


def forward_sentence(params: ModelParams, tokens: list[int],
                     image_feature: np.ndarray | None) -> ForwardTrace:
    """Run the unrolled network over a whole sentence; r(0) is the zero vector."""
    inputs, _ = sentence_inputs_targets(tokens)
    r = np.zeros(params.config.d_r, dtype=params.dtype)
    trace = ForwardTrace(r0=r)
    for w in inputs:
        _, r, step = forward_step(params, w, r, image_feature)
        trace.steps.append(step)
    return trace


def backward_sentence(params: ModelParams, trace: ForwardTrace, targets: list[int],
                      image_feature: np.ndarray | None) -> tuple[Gradients, float]:
    """Exact loss gradients for one sentence, accumulated through time.

    The loss is the summed negative natural-log probability of the targets;
    base-2 conversion happens at reporting boundaries.  Gradients flow
    through the full recurrent chain back to t=1 (untruncated BPTT).
    """
    if len(targets) != len(trace):
        raise ValueError(f"{len(targets)} targets for a trace of length {len(trace)}")
    cfg = params.config
    grads = params.zeros_like()
    g = grads.arrays
    loss = 0.0

    if cfg.variant == "baseline":
        u_rec = params["U"][:, cfg.vocab_size:]
        dr_carry = np.zeros(cfg.d_r, dtype=params.dtype)
        for t in range(len(trace) - 1, -1, -1):
            step = trace.steps[t]
            r_prev = trace.r0 if t == 0 else trace.steps[t - 1].r
            with np.errstate(divide="ignore"):
                loss += -float(np.log(step.y[targets[t]]))
            dlogit = step.y.copy()
            dlogit[targets[t]] -= 1.0
            g["V"] += np.outer(dlogit, step.r)
            g["b_out"] += dlogit
            dr = matvec(params["V"].T, dlogit) + dr_carry
            dz = dr * step.r * (1.0 - step.r)
            g["U"][:, step.input_index] += dz
            g["U"][:, cfg.vocab_size:] += np.outer(dz, r_prev)
            g["b_r"] += dz
            dr_carry = matvec(u_rec.T, dz)
        return grads, loss

    feat = np.asarray(image_feature, dtype=params.dtype)
    dr_carry = np.zeros(cfg.d_r, dtype=params.dtype)
    for t in range(len(trace) - 1, -1, -1):
        step = trace.steps[t]
        r_prev = trace.r0 if t == 0 else trace.steps[t - 1].r
        with np.errstate(divide="ignore"):
            loss += -float(np.log(step.y[targets[t]]))

        dlogit = step.y.copy()
        dlogit[targets[t]] -= 1.0
        g["W_out"] += np.outer(dlogit, step.m)
        g["b_out"] += dlogit

        dm = matvec(params["W_out"].T, dlogit)
        dm_pre = dm * scaled_tanh_grad_from_output(step.m)
        g["V_w"] += np.outer(dm_pre, step.e2)
        g["V_r"] += np.outer(dm_pre, step.r)
        g["V_I"] += np.outer(dm_pre, feat)
        g["b_m"] += dm_pre

        dr = matvec(params["V_r"].T, dm_pre) + dr_carry
        dr_pre = dr * (step.r > 0)
        g["U_r"] += np.outer(dr_pre, r_prev)
        g["W_in"] += np.outer(dr_pre, step.e2)
        g["b_r"] += dr_pre
        dr_carry = matvec(params["U_r"].T, dr_pre)

        de2 = matvec(params["W_in"].T, dr_pre) + matvec(params["V_w"].T, dm_pre)
        de2_pre = de2 * (step.e2 > 0)
        g["E2"] += np.outer(de2_pre, step.e1)
        g["b_e2"] += de2_pre
        g["E1"][step.input_index] += matvec(params["E2"].T, de2_pre)
    return grads, loss


def nearest_words(params: ModelParams, vocab: Vocabulary, token: str, k: int) -> list[str]:
    """The k tokens whose embedding rows are nearest the query's (Euclidean).

    The query itself is excluded; ties break by vocabulary index.
    """
    if params.config.variant != "mrnn":
        raise ValueError("the baseline variant has no word embedding table")
    if token not in vocab:
        raise KeyError(f"token {token!r} not in vocabulary")
    idx = vocab.token_to_index[token]
    e1 = params["E1"]
    dists = np.sqrt(np.sum((e1 - e1[idx]) ** 2, axis=1))
    order = sorted((i for i in range(len(vocab)) if i != idx),
                   key=lambda i: (dists[i], i))
    return [vocab.index_to_token[i] for i in order[:k]]


# ---------------------------------------------------------------------------
# checkpoints

_DTYPE_CODES = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}
_CODE_DTYPES = {0: np.float64, 1: np.float32}


def save_checkpoint(params: ModelParams, path) -> None:
    """Binary checkpoint: config fields then each array as dims + f64 LE payload."""
    cfg = params.config
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IBB", CHECKPOINT_VERSION,
                             VARIANTS.index(cfg.variant), _DTYPE_CODES[params.dtype]))
        fh.write(struct.pack("<6I", cfg.vocab_size, cfg.d_e1, cfg.d_e2,
                             cfg.d_r, cfg.d_m, cfg.d_i))
        names = params.names()
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            raw = name.encode("utf-8")
            arr = params.arrays[name]
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f8").tobytes())


def load_checkpoint(path) -> ModelParams:
    def read(fh, n: int, what: str) -> bytes:
        buf = fh.read(n)
        if len(buf) != n:
            raise ValueError(f"truncated checkpoint while reading {what}")
        return buf

    with open(path, "rb") as fh:
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path} is not a model checkpoint (bad magic)")
        version, variant_code, dtype_code = struct.unpack("<IBB", read(fh, 6, "header"))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        if variant_code >= len(VARIANTS):
            raise ValueError(f"unknown variant code {variant_code} in checkpoint header")
        if dtype_code not in _CODE_DTYPES:
            raise ValueError(f"unknown dtype code {dtype_code} in checkpoint header")
        m, d_e1, d_e2, d_r, d_m, d_i = struct.unpack("<6I", read(fh, 24, "config"))
        cfg = ModelConfig(vocab_size=m, d_i=d_i, variant=VARIANTS[variant_code],
                          d_e1=d_e1, d_e2=d_e2, d_r=d_r, d_m=d_m)
        dtype = _CODE_DTYPES[dtype_code]
        (n_arrays,) = struct.unpack("<I", read(fh, 4, "array count"))
        arrays = {}
        for _ in range(n_arrays):
            (name_len,) = struct.unpack("<H", read(fh, 2, "array name"))
            name = read(fh, name_len, "array name").decode("utf-8")
            (ndim,) = struct.unpack("<B", read(fh, 1, name))
            shape = struct.unpack(f"<{ndim}I", read(fh, 4 * ndim, name))
            count = int(np.prod(shape))
            buf = read(fh, 8 * count, name)
            arrays[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).astype(dtype)
        if fh.read(1):
            raise ValueError(f"{path} has trailing bytes after the last array")
    return ModelParams(cfg, arrays)
