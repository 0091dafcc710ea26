"""The multimodal RNN: forward pass, full BPTT backward pass, checkpoints.

One network: word index -> embedding lookup -> second embedding (ReLU) ->
ReLU recurrent layer -> multimodal fusion of word, recurrent and image
features through a scaled tanh -> softmax over the vocabulary.  The
``baseline`` variant is the same network without the image term
``V_I . I`` (and without ``V_I``), the paper's RNN-Base ablation.

A sentence with L content tokens unrolls into L+1 timesteps: step t consumes
input token t-1 (the start sign at t=1) and predicts token t, with the end
sign as the final target.  Parameters are shared across timesteps, and the
backward pass propagates through every step (no truncation).

The forward and backward passes run on a batch of sentences packed into
one time-major array (``Packing``), so every layer and every weight
gradient is one matrix product over the batch's positions; only the
recurrent carry loops, over the steps.  One sentence is the batch of one.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .corpus import END_INDEX, START_INDEX, Vocabulary, check_length, read_exact
from .numerics import (SCALED_TANH_GAIN, Rng, init_matrix, matvec, relu, scaled_tanh,
                       scaled_tanh_grad_from_output, softmax)

LN2 = math.log(2.0)

CHECKPOINT_MAGIC = b"MRNM"
CHECKPOINT_VERSION = 1

VARIANTS = ("mrnn", "baseline")


@dataclass
class ModelConfig:
    """Layer sizes for one model variant.

    ``baseline`` ignores ``d_i``: it never sees the image, and it has every
    block of ``mrnn`` except the image projection ``V_I``.
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
        dims = [self.vocab_size, self.d_e1, self.d_e2, self.d_r, self.d_m]
        if self.variant == "mrnn":
            dims.append(self.d_i)
        if any(d <= 0 for d in dims):
            raise ValueError("all layer dimensions must be positive")

    def param_shapes(self) -> dict[str, tuple]:
        """Canonical name -> shape map.  Bias names start with ``b_``."""
        m = self.vocab_size
        image = {"V_I": (self.d_m, self.d_i)} if self.variant == "mrnn" else {}
        return {
            "E1": (m, self.d_e1),
            "E2": (self.d_e2, self.d_e1),
            "b_e2": (self.d_e2,),
            "U_r": (self.d_r, self.d_r),
            "W_in": (self.d_r, self.d_e2),
            "b_r": (self.d_r,),
            "V_w": (self.d_m, self.d_e2),
            "V_r": (self.d_m, self.d_r),
            **image,
            "b_m": (self.d_m,),
            "W_out": (m, self.d_m),
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
    def initialize(cls, config: ModelConfig, rng: Rng, dtype=np.float64) -> "ModelParams":
        """Uniform weights (see ``init_matrix``), biases zero."""
        return cls(config, {name: np.zeros(shape, dtype=dtype) if name.startswith("b_")
                            else init_matrix(*shape, rng, dtype=dtype)
                            for name, shape in config.param_shapes().items()})

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

    def astype(self, dtype) -> "ModelParams":
        """A copy with every array cast to ``dtype``."""
        return ModelParams(self.config, {k: v.astype(dtype) for k, v in self.arrays.items()})

    def add_scaled(self, other: "ModelParams", factor: float) -> None:
        """In-place self += factor * other (requires exclusive access)."""
        for name, arr in self.arrays.items():
            arr += factor * other.arrays[name]

    def scale(self, factor: float) -> None:
        for arr in self.arrays.values():
            arr *= factor

    def block_sq_norms(self) -> dict[str, float]:
        """Each block's sum of squares, by name."""
        return {name: float(np.sum(a * a)) for name, a in self.arrays.items()}

    def global_norm(self) -> float:
        return float(np.sqrt(sum(self.block_sq_norms().values())))

    def weight_sq_norm(self) -> float:
        """Sum of squares over weight matrices only (biases excluded)."""
        return sum(sq for name, sq in self.block_sq_norms().items()
                   if not name.startswith("b_"))


Gradients = ModelParams


@dataclass(frozen=True)
class Packing:
    """Where the steps of B sequences sit in one time-major (P, d) array.

    The sequences are ordered longest first (a stable sort), so the ones
    still running at step t are a prefix of the ones running at step t-1.
    Step t's rows are ``offsets[t]:offsets[t+1]``, one per running sequence
    in that order.  There is no padding: P is the sum of the lengths.  One
    sequence packs to its own steps in order.
    """
    offsets: np.ndarray  # (T_max + 1,) first row of each step
    sent: np.ndarray     # (P,) batch index of each row's sequence
    source: np.ndarray   # (P,) each row's index in the sequences' concatenation
    prev: np.ndarray     # (P,) row of ``ForwardTrace.r`` holding each row's previous state

    @classmethod
    def of(cls, lengths) -> "Packing":
        lengths = np.asarray(lengths, dtype=np.intp)
        order = np.argsort(-lengths, kind="stable")
        steps, rank = np.nonzero(np.arange(lengths.max())[:, None] < lengths[order])
        offsets = np.searchsorted(steps, np.arange(lengths.max() + 1))
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        sent = order[rank]
        return cls(offsets=offsets, sent=sent, source=starts[sent] + steps,
                   prev=np.where(steps > 0, offsets[steps - 1] + rank + 1, 0))

    def pack(self, sequences) -> np.ndarray:
        """The B sequences of word indices as one array in packed row order."""
        return np.concatenate(sequences).astype(np.intp, copy=False)[self.source]


@dataclass(frozen=True)
class ContextTrie:
    """The distinct contexts of packed sentences: one node per input prefix.

    A row's context is the words it has consumed, from the start sign on;
    below the image a row depends on it alone, so sentences that share a
    prefix share its nodes.  Nodes are laid out like ``Packing``'s rows,
    depth by depth, with ``prev`` naming the state row of each node's parent.
    """
    offsets: np.ndarray  # (T_max + 1,) first node of each depth
    prev: np.ndarray     # (n,) row of the states holding each node's parent state
    inputs: np.ndarray   # (n,) the word each node consumes
    node: np.ndarray     # (P,) each packed row's node

    @classmethod
    def of(cls, packing: Packing, inputs: np.ndarray) -> "ContextTrie":
        """Merge the packed rows step by step on (parent node, input word)."""
        words = int(inputs.max()) + 1
        state = np.zeros(len(inputs) + 1, dtype=np.intp)  # packed state row -> node state row
        offsets, keys = [0], []
        for lo, hi in zip(packing.offsets[:-1], packing.offsets[1:]):
            depth_keys, node = np.unique(state[packing.prev[lo:hi]] * words + inputs[lo:hi],
                                         return_inverse=True)
            state[lo + 1:hi + 1] = offsets[-1] + 1 + node
            offsets.append(offsets[-1] + len(depth_keys))
            keys.append(depth_keys)
        keys = np.concatenate(keys)
        return cls(offsets=np.array(offsets), prev=keys // words, inputs=keys % words,
                   node=state[1:] - 1)


@dataclass(frozen=True)
class ForwardTrace:
    """The forward activations of B sentences, packed time-major (``Packing``).

    Row i of ``inputs``, ``targets``, ``e1``, ``e2`` and ``m`` is one
    timestep of one sentence; for one sentence the rows are its timesteps in
    order.  ``r`` has P+1 rows: row 0 is the zero initial state and row i+1
    the state after consuming ``inputs[i]``.  ``feats`` holds the B image
    features; it is None for the baseline variant only.  ``target_log2prob``
    scores ``m``, and ``backward_batch`` takes the softmax of its logits.
    ``forward_batch`` builds every trace, complete.
    """
    inputs: np.ndarray
    r: np.ndarray
    packing: Packing
    targets: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    m: np.ndarray
    feats: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.inputs)


def image_term(params: ModelParams, image_features) -> np.ndarray | None:
    """The image's one term, ``V_I . I`` (B, d_m) for the rows I of a (B, d_i)
    feature matrix, added at every step; None for the baseline (no image)."""
    cfg = params.config
    if cfg.variant == "baseline":
        return None
    feats = np.asarray(image_features, dtype=params.dtype)
    if feats.ndim != 2 or feats.shape[1] != cfg.d_i:
        raise ValueError(f"image feature has shape {feats.shape[1:]}, expected ({cfg.d_i},)")
    return feats @ params["V_I"].T


def forward_step(params: ModelParams, word_index: int, r_prev: np.ndarray,
                 term: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """One timestep: consume a word index, emit the next-word distribution.

    ``term`` is the image's ``image_term`` row, (d_m,), or None.  Returns
    (y, r).  Decoding runs on it; it is the per-step reference for
    ``forward_sentence``.  The embedding lookup is the one-hot matvec done
    as a row pick, which is mathematically identical and O(M) cheaper.
    """
    cfg = params.config
    if not 0 <= word_index < cfg.vocab_size:
        raise IndexError(f"word index {word_index} out of range for M={cfg.vocab_size}")
    if r_prev.shape != (cfg.d_r,):
        raise ValueError(f"recurrent state has shape {r_prev.shape}, expected ({cfg.d_r},)")
    if term is not None and term.shape != (cfg.d_m,):
        raise ValueError(f"image term has shape {term.shape}, expected ({cfg.d_m},)")

    e1 = params["E1"][word_index]
    e2 = relu(matvec(params["E2"], e1) + params["b_e2"])
    r = relu(matvec(params["U_r"], r_prev) + matvec(params["W_in"], e2) + params["b_r"])
    m_pre = matvec(params["V_w"], e2) + matvec(params["V_r"], r)
    if term is not None:
        m_pre += term
    m = scaled_tanh(m_pre + params["b_m"])
    y = softmax(matvec(params["W_out"], m) + params["b_out"])
    return y, r


def frame(params: ModelParams, token_lists) -> tuple[Packing, np.ndarray, np.ndarray]:
    """(packing, inputs, targets) of B sentences of content tokens, packed.

    The start sign is input-only and the end sign target-only, so L tokens
    unroll into L+1 prediction steps.  A word outside the vocabulary raises
    IndexError.
    """
    packing = Packing.of([len(tokens) + 1 for tokens in token_lists])
    inputs = packing.pack([[START_INDEX, *tokens] for tokens in token_lists])
    targets = packing.pack([[*tokens, END_INDEX] for tokens in token_lists])
    bad = inputs[(inputs < 0) | (inputs >= params.config.vocab_size)]
    if bad.size:
        raise IndexError(f"word index {bad[0]} out of range for M={params.config.vocab_size}")
    return packing, inputs, targets


def word_layers(params: ModelParams, inputs: np.ndarray,
                layout) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e1, e2, r): the embedding and recurrent layers over rows of input words.

    ``layout`` is a ``Packing`` or a ``ContextTrie``: step t's rows are
    ``offsets[t]:offsets[t+1]``, and ``prev`` names the row of ``r`` holding
    each row's previous state; row 0 of ``r`` is the zero state and row i+1
    the state after row i.  Each layer is one matrix product over the rows;
    only the carry through the recurrent weight loops, over the steps.
    """
    e1 = params["E1"][inputs]
    e2 = relu(e1 @ params["E2"].T + params["b_e2"])
    drive = e2 @ params["W_in"].T
    drive += params["b_r"]
    r = np.zeros((len(inputs) + 1, params.config.d_r), dtype=params.dtype)
    offsets, u_t = layout.offsets.tolist(), params["U_r"].T
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        r[lo + 1:hi + 1] = relu(r[layout.prev[lo:hi]] @ u_t + drive[lo:hi])
    return e1, e2, r


def multimodal_base(params: ModelParams, e2: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The image-free multimodal pre-activation ``e2 . V_w + r . V_r + b_m``;
    adding ``V_I . I`` gives it for image I."""
    m_base = e2 @ params["V_w"].T
    m_base += r @ params["V_r"].T
    m_base += params["b_m"]
    return m_base


def output_logits(params: ModelParams, m: np.ndarray) -> np.ndarray:
    """Output-layer logits (``y`` before the softmax) for multimodal activations ``m``."""
    return m @ params["W_out"].T + params["b_out"]


def output_logit_scale(params: ModelParams) -> float:
    """The most, over output rows, of |b_out| + the scaled tanh's gain x the
    row's 2-norm of ``W_out``: the scale of a logit's rounding error, in
    units of the unit roundoff, when the activations' independent roundings
    add in quadrature (Higham & Mary, SIAM J. Sci. Comput. 41(5), 2019)."""
    norms = np.linalg.norm(params["W_out"], axis=1)
    return float((np.abs(params["b_out"]) + SCALED_TANH_GAIN * norms).max())


def target_log2prob(params: ModelParams, m: np.ndarray, targets: np.ndarray,
                    rows: np.ndarray | None = None) -> np.ndarray:
    """log2 P(target) for each target, read from row ``rows[i]`` of multimodal
    activations ``m`` (row i by default; several targets may share a row): the
    target's logit minus the row's log-sum-exp, over ln 2, finite where
    softmax underflows.  ``m`` is (..., R, d_m), ``targets`` and ``rows``
    (P,): leading axes (images) broadcast.
    """
    rows = np.arange(len(targets)) if rows is None else rows
    logits = output_logits(params, m)
    logits -= logits.max(axis=-1, keepdims=True)
    return (logits[..., rows, targets] - np.log(np.exp(logits).sum(axis=-1))[..., rows]) / LN2


def forward_batch(params: ModelParams, token_lists: list[list[int]],
                  image_features: np.ndarray | None) -> ForwardTrace:
    """Run the unrolled network over B sentences at once, packed time-major.

    ``image_features`` is (B, d_i), row b for sentence b (ignored by the
    baseline).  Every r(0) is the zero vector.
    """
    packing, inputs, targets = frame(params, token_lists)
    e1, e2, r = word_layers(params, inputs, packing)
    m_pre = multimodal_base(params, e2, r[1:])
    term = image_term(params, image_features)
    feats = None
    if term is not None:
        if len(term) != len(token_lists):
            raise ValueError(f"image features for {len(term)} sentences, not {len(token_lists)}")
        feats = np.asarray(image_features, dtype=params.dtype)
        m_pre += term[packing.sent]
    return ForwardTrace(inputs, r, packing, targets, e1, e2, scaled_tanh(m_pre), feats)


def forward_sentence(params: ModelParams, tokens: list[int],
                     image_feature: np.ndarray | None) -> ForwardTrace:
    """``forward_batch`` for one sentence; r(0) is the zero vector."""
    return forward_batch(params, [tokens], [image_feature])


def backward_batch(params: ModelParams, trace: ForwardTrace, weights,
                   out: Gradients | None = None) -> Gradients:
    """Exact gradients of the weighted loss of B sentences, through all time.

    Sentence b's loss is its summed negative natural-log probability of the
    targets (``target_log2prob`` scores it), and ``weights[b]`` scales it.
    The output error is the softmax of the logits less the one-hot targets.
    Gradients flow through the full recurrent chain back to t=1 (untruncated
    BPTT).  Each sentence's output-error rows are scaled by its weight first,
    so each weight gradient is one matrix product over the P packed rows;
    only the carry back through the recurrent weight is a loop, over the
    steps, with one row per sentence still running.

    Every block is written into ``out`` (``matmul``/``sum`` with ``out=``,
    ``E1`` zeroed before its scatter-add), whatever it held, and ``out`` is
    returned; without it the gradients go into a new ``zeros_like``.  The
    values are the same bits either way, so a training loop can reuse one
    buffer for every step.
    """
    packing = trace.packing
    grads = params.zeros_like() if out is None else out

    def into(name, err, act=None):
        """Block ``name``'s gradient: ``err.T @ act``, or the column sums of ``err``."""
        if act is None:
            np.sum(err, axis=0, out=grads.arrays[name])
        else:
            np.matmul(err.T, act, out=grads.arrays[name])

    dlogit = softmax(output_logits(params, trace.m))
    dlogit[np.arange(len(trace)), trace.targets] -= 1.0
    dlogit *= np.asarray(weights, dtype=dlogit.dtype)[packing.sent][:, None]
    r, r_prev = trace.r[1:], trace.r[packing.prev]
    dm_pre = (dlogit @ params["W_out"]) * scaled_tanh_grad_from_output(trace.m)
    dr, active = dm_pre @ params["V_r"], r > 0
    # dr becomes dr_pre in place: each step's carry lands on the previous
    # step's rows of the same sentences, which are a prefix of that block
    offsets = packing.offsets.tolist()
    for t in range(len(offsets) - 2, -1, -1):
        lo, hi = offsets[t], offsets[t + 1]
        dr[lo:hi] *= active[lo:hi]
        if t:
            dr[offsets[t - 1]:offsets[t - 1] + hi - lo] += dr[lo:hi] @ params["U_r"]
    dr_pre = dr

    de2_pre = (dr_pre @ params["W_in"] + dm_pre @ params["V_w"]) * (trace.e2 > 0)
    g_e1 = grads.arrays["E1"]
    g_e1.fill(0.0)
    np.add.at(g_e1, trace.inputs, de2_pre @ params["E2"])
    into("E2", de2_pre, trace.e1)
    into("b_e2", de2_pre)
    into("U_r", dr_pre, r_prev)
    into("W_in", dr_pre, trace.e2)
    into("b_r", dr_pre)
    into("V_w", dm_pre, trace.e2)
    into("V_r", dm_pre, r)
    into("b_m", dm_pre)
    if trace.feats is not None:
        into("V_I", dm_pre, trace.feats[packing.sent])
    into("W_out", dlogit, trace.m)
    into("b_out", dlogit)
    return grads


def backward_sentence(params: ModelParams, trace: ForwardTrace) -> Gradients:
    """Exact gradients of one sentence's summed nat-log loss:
    ``backward_batch`` of a one-sentence trace, with weight 1."""
    return backward_batch(params, trace, [1.0])


def nearest_words(params: ModelParams, vocab: Vocabulary, token: str, k: int) -> list[str]:
    """The k tokens whose embedding rows are nearest the query's (Euclidean).

    The query itself is excluded; ties break by vocabulary index.
    """
    if token not in vocab:
        raise KeyError(f"token {token!r} not in vocabulary")
    idx = vocab.token_to_index[token]
    e1 = params["E1"]
    dists = np.sqrt(np.sum((e1 - e1[idx]) ** 2, axis=1))
    order = np.argsort(dists, kind="stable")
    return [vocab.index_to_token[i] for i in order[order != idx][:k]]


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
            fh.write(np.ascontiguousarray(arr, dtype="<f8").data)


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as fh:
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path} is not a model checkpoint (bad magic)")
        version, variant_code, dtype_code = struct.unpack("<IBB", read_exact(fh, 6, "header"))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        if variant_code >= len(VARIANTS):
            raise ValueError(f"unknown variant code {variant_code} in checkpoint header")
        if dtype_code not in _CODE_DTYPES:
            raise ValueError(f"unknown dtype code {dtype_code} in checkpoint header")
        m, d_e1, d_e2, d_r, d_m, d_i = struct.unpack("<6I", read_exact(fh, 24, "config"))
        cfg = ModelConfig(vocab_size=m, d_i=d_i, variant=VARIANTS[variant_code],
                          d_e1=d_e1, d_e2=d_e2, d_r=d_r, d_m=d_m)
        dtype = _CODE_DTYPES[dtype_code]
        (n_arrays,) = struct.unpack("<I", read_exact(fh, 4, "array count"))
        # a float64 model's payloads go into the next slice of one block, which
        # the rest of the file bounds: one allocation in place of one per
        # array.  Any other dtype casts each payload from a buffer of its own,
        # so no float64 copy of the whole model outlives the cast
        one_block = dtype is np.float64
        block = np.empty((os.fstat(fh.fileno()).st_size - fh.tell()) // 8 if one_block else 0,
                         dtype="<f8")
        used = 0
        arrays = {}
        for _ in range(n_arrays):
            (name_len,) = struct.unpack("<H", read_exact(fh, 2, "array name"))
            name = read_exact(fh, name_len, "array name").decode("utf-8")
            (ndim,) = struct.unpack("<B", read_exact(fh, 1, name))
            shape = struct.unpack(f"<{ndim}I", read_exact(fh, 4 * ndim, name))
            size = math.prod(shape)
            check_length(fh, 8 * size, f"array {name} of shape {shape}")
            payload = block[used:used + size] if one_block else np.empty(size, dtype="<f8")
            used += size
            arrays[name] = read_exact(fh, payload.reshape(shape), name).astype(dtype, copy=False)
            if not np.isfinite(arrays[name]).all():
                raise ValueError(f"{path}: array {name} has NaN or infinite entries")
        if fh.read(1):
            raise ValueError(f"{path} has trailing bytes after the last array")
    return ModelParams(cfg, arrays)
