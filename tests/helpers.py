"""Independent oracles shared by the unit and acceptance tests.

These deliberately avoid the library's own code paths: BLEU by explicit
n-gram scanning, ranks by pairwise counting, gradients by central
differences on the forward loss, by per-step BPTT or by one-sentence
array passes, an SGD step by a new array per product, the random stream
by whole-array expressions, and checkpoints by a field-by-field writer.
``run_cli`` drives the command line in this process, and
``run_cli_process`` in a new interpreter.
"""

import contextlib
import io
import math
import os
import struct
import subprocess
import sys
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np

import mrnn
from mrnn import cli
from mrnn.corpus import END_INDEX, FEATURE_MAGIC, FEATURE_VERSION, START_INDEX
from mrnn.model import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, LN2, VARIANTS
from mrnn.numerics import Rng, relu, scaled_tanh, scaled_tanh_grad_from_output, softmax


def oracle_bleu(candidates, references, n_max=3, cumulative=True):
    """Brute-force corpus BLEU from the definition (no Counter, no library)."""

    def count_occurrences(seq, gram):
        n = len(gram)
        return sum(1 for i in range(len(seq) - n + 1) if tuple(seq[i:i + n]) == gram)

    matched = [0] * n_max
    total = [0] * n_max
    cand_len = 0
    ref_len = 0
    for cand, refs in zip(candidates, references):
        cand_len += len(cand)
        best = None
        for r in refs:
            key = (abs(len(r) - len(cand)), len(r))
            if best is None or key < best:
                best = key
        ref_len += best[1]
        for n in range(1, n_max + 1):
            grams = {tuple(cand[i:i + n]) for i in range(len(cand) - n + 1)}
            for gram in grams:
                c_count = count_occurrences(cand, gram)
                r_count = max(count_occurrences(r, gram) for r in refs)
                matched[n - 1] += min(c_count, r_count)
            total[n - 1] += max(len(cand) - n + 1, 0)

    precisions = [m / t if t else 0.0 for m, t in zip(matched, total)]
    bp = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / max(cand_len, 1))
    out = []
    for n in range(1, n_max + 1):
        ps = precisions[:n] if cumulative else [precisions[n - 1]]
        if min(ps) == 0.0:
            out.append(0.0)
        else:
            out.append(bp * math.exp(sum(math.log(p) for p in ps) / len(ps)))
    return out


def oracle_first_rank(scores_row, relevant_row):
    """Rank of the first relevant candidate by pairwise counting (no sorting).

    candidate j outranks candidate i when its score is higher, or equal with
    a lower column.  The first relevant candidate's rank is 1 plus the
    number of candidates that outrank the best-placed relevant one.
    """
    n_c = len(scores_row)
    best = None
    for i in range(n_c):
        if not relevant_row[i]:
            continue
        ahead = sum(
            1 for j in range(n_c) if j != i and (
                scores_row[j] > scores_row[i]
                or (scores_row[j] == scores_row[i] and j < i)))
        if best is None or ahead + 1 < best:
            best = ahead + 1
    if best is None:
        raise ValueError("no relevant candidate")
    return best


def oracle_top(fraction, n_candidates):
    """How many top candidates a recall-curve fraction covers: the ceiling
    of fraction * C in decimal arithmetic, for the decimal the fraction's
    repr spells (0.07 * 100 is 7, not the float product's 7.000000000000001)."""
    return math.ceil(Decimal(repr(fraction)) * n_candidates)


def sentence_inputs_targets(tokens):
    """The unrolled (inputs, targets) of a sentence, framed by hand: the start
    sign is input-only and the end sign target-only."""
    return [START_INDEX, *tokens], [*tokens, END_INDEX]


def numeric_sentence_gradient(params, tokens, image_feature, h=1e-5):
    """Central-difference gradient of the summed nat-log sentence loss."""

    def loss():
        f = sentence_forward(params, tokens, image_feature)
        return -float(np.log(f["y"][np.arange(len(f["targets"])), f["targets"]]).sum())

    grads = {}
    for name, arr in params.arrays.items():
        numeric = np.zeros_like(arr)
        flat, num = arr.reshape(-1), numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss()
            flat[i] = orig - h
            down = loss()
            flat[i] = orig
            num[i] = (up - down) / (2 * h)
        grads[name] = numeric
    return grads


def per_step_backward(params, tokens, image_feature):
    """BPTT one timestep at a time with outer products: the reference backward.

    Steps forward one word at a time, written out as ``sentence_forward``
    writes the layers, then accumulates every step's gradient contribution
    from the last step back to the first.  The baseline is the same network
    without the image term.  Returns (gradient arrays by name, summed nat-log
    loss).
    """
    cfg = params.config
    inputs, targets = sentence_inputs_targets(tokens)
    g = {name: np.zeros_like(arr) for name, arr in params.arrays.items()}
    image = cfg.variant == "mrnn"
    feat = np.asarray(image_feature, dtype=np.float64) if image else None
    rs, e2s, ms, ys = [np.zeros(cfg.d_r)], [], [], []
    for w in inputs:
        e2 = relu(params["E2"] @ params["E1"][w] + params["b_e2"])
        r = relu(params["U_r"] @ rs[-1] + params["W_in"] @ e2 + params["b_r"])
        m_pre = params["V_w"] @ e2 + params["V_r"] @ r + params["b_m"]
        if image:
            m_pre = m_pre + params["V_I"] @ feat
        m = scaled_tanh(m_pre)
        rs.append(r)
        e2s.append(e2)
        ms.append(m)
        ys.append(softmax(params["W_out"] @ m + params["b_out"]))
    loss = -sum(float(np.log(y[t])) for y, t in zip(ys, targets))

    dr_carry = np.zeros(cfg.d_r)
    for t in range(len(inputs) - 1, -1, -1):
        y, r, r_prev, e2, m = ys[t], rs[t + 1], rs[t], e2s[t], ms[t]
        dlogit = y.copy()
        dlogit[targets[t]] -= 1.0
        g["W_out"] += np.outer(dlogit, m)
        g["b_out"] += dlogit

        dm_pre = (params["W_out"].T @ dlogit) * scaled_tanh_grad_from_output(m)
        g["V_w"] += np.outer(dm_pre, e2)
        g["V_r"] += np.outer(dm_pre, r)
        if image:
            g["V_I"] += np.outer(dm_pre, feat)
        g["b_m"] += dm_pre

        dr = params["V_r"].T @ dm_pre + dr_carry
        dr_pre = dr * (r > 0)
        g["U_r"] += np.outer(dr_pre, r_prev)
        g["W_in"] += np.outer(dr_pre, e2)
        g["b_r"] += dr_pre
        dr_carry = params["U_r"].T @ dr_pre

        de2_pre = (params["W_in"].T @ dr_pre + params["V_w"].T @ dm_pre) * (e2 > 0)
        g["E2"] += np.outer(de2_pre, params["E1"][inputs[t]])
        g["b_e2"] += de2_pre
        g["E1"][inputs[t]] += params["E2"].T @ de2_pre
    return g, loss


def sentence_forward(params, tokens, image_feature):
    """One sentence's forward pass as (T, d) arrays, the sentence on its own.

    Returns a dict with ``inputs``, ``targets``, ``r`` (T+1 rows, row 0 the
    zero state), ``e1``, ``e2``, ``m`` and ``y``.  The baseline skips the
    image term of ``m``.
    """
    cfg = params.config
    inputs, targets = sentence_inputs_targets(tokens)
    e1 = params["E1"][inputs]
    e2 = relu(e1 @ params["E2"].T + params["b_e2"])
    r = np.zeros((len(inputs) + 1, cfg.d_r))
    for t, e2_t in enumerate(e2):
        r[t + 1] = relu(params["U_r"] @ r[t] + params["W_in"] @ e2_t + params["b_r"])
    m_pre = e2 @ params["V_w"].T + r[1:] @ params["V_r"].T + params["b_m"]
    if cfg.variant == "mrnn":
        m_pre = m_pre + params["V_I"] @ np.asarray(image_feature)
    m = scaled_tanh(m_pre)
    return {"inputs": np.array(inputs), "targets": np.array(targets), "r": r,
            "e1": e1, "e2": e2, "m": m, "y": softmax(m @ params["W_out"].T + params["b_out"])}


def sentence_log2prob_oracle(params, tokens, image_feature):
    """A sentence's summed log2 probability: log2 of ``sentence_forward``'s
    ``y`` at the targets."""
    f = sentence_forward(params, tokens, image_feature)
    return float(np.log2(f["y"][np.arange(len(f["targets"])), f["targets"]]).sum())


def sentence_backward(params, tokens, image_feature):
    """One sentence's BPTT as (T, d) array products: (gradient arrays by
    name, summed nat-log loss)."""
    cfg = params.config
    f = sentence_forward(params, tokens, image_feature)
    steps = np.arange(len(f["inputs"]))
    loss = -float(np.log(f["y"][steps, f["targets"]]).sum())
    dlogit = f["y"].copy()
    dlogit[steps, f["targets"]] -= 1.0
    r, r_prev = f["r"][1:], f["r"][:-1]
    dm_pre = (dlogit @ params["W_out"]) * scaled_tanh_grad_from_output(f["m"])
    dr = dm_pre @ params["V_r"]
    dr_pre = np.empty_like(dr)
    carry = np.zeros(cfg.d_r)
    for t in reversed(steps):
        dr_pre[t] = (dr[t] + carry) * (r[t] > 0)
        carry = params["U_r"].T @ dr_pre[t]
    de2_pre = (dr_pre @ params["W_in"] + dm_pre @ params["V_w"]) * (f["e2"] > 0)
    g_e1 = np.zeros_like(params["E1"])
    np.add.at(g_e1, f["inputs"], de2_pre @ params["E2"])
    grads = {"E1": g_e1, "E2": de2_pre.T @ f["e1"], "b_e2": de2_pre.sum(axis=0),
             "U_r": dr_pre.T @ r_prev, "W_in": dr_pre.T @ f["e2"], "b_r": dr_pre.sum(axis=0),
             "V_w": dm_pre.T @ f["e2"], "V_r": dm_pre.T @ r, "b_m": dm_pre.sum(axis=0),
             "W_out": dlogit.T @ f["m"], "b_out": dlogit.sum(axis=0)}
    if cfg.variant == "mrnn":
        grads["V_I"] = np.outer(dm_pre.sum(axis=0), image_feature)
    return grads, loss


def mean_sentence_gradient(params, token_lists, image_features):
    """The minibatch gradient from one-sentence passes: each sentence's nat
    gradient over (predicted positions * ln 2), averaged over the batch."""
    total = {name: np.zeros_like(arr) for name, arr in params.arrays.items()}
    for tokens, feat in zip(token_lists, image_features):
        grads, _ = sentence_backward(params, tokens, feat)
        for name in total:
            total[name] += grads[name] / ((len(tokens) + 1) * LN2 * len(token_lists))
    return total


def sgd_step_oracle(params, data_grad, learning_rate, lambda_reg, clip_norm):
    """One SGD step on copies, each product a new array: ``(2 lambda) W``
    added to each weight's gradient, the global norm as the root of the
    blocks' sums of ``g * g``, clipping by ``clip_norm / norm``, then
    ``W += -learning_rate * g``.  Returns (new arrays by name, applied norm)."""
    grad = {name: arr.copy() for name, arr in data_grad.arrays.items()}
    new = {name: arr.copy() for name, arr in params.arrays.items()}
    for name, arr in grad.items():
        if not name.startswith("b_"):
            arr += (2.0 * lambda_reg) * params.arrays[name]
    norm = float(np.sqrt(sum(float(np.sum(arr * arr)) for arr in grad.values())))
    if clip_norm is not None and norm > clip_norm:
        for arr in grad.values():
            arr *= clip_norm / norm
        norm = clip_norm
    for name, arr in new.items():
        arr += -learning_rate * grad[name]
    return new, norm


class OracleRng:
    """splitmix64 as whole-array expressions, each a pass over all n values
    into a new array: the reference for ``Rng``'s blocked and scalar draws."""

    GOLDEN = np.uint64(0x9E3779B97F4A7C15)
    MIX1 = np.uint64(0xBF58476D1CE4E5B9)
    MIX2 = np.uint64(0x94D049BB133111EB)

    def __init__(self, seed):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.counter = 0

    def next_u64_array(self, n):
        ks = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        with np.errstate(over="ignore"):
            z = np.uint64(self.seed) + ks * self.GOLDEN
            z = (z ^ (z >> np.uint64(30))) * self.MIX1
            z = (z ^ (z >> np.uint64(27))) * self.MIX2
            return z ^ (z >> np.uint64(31))

    def next_u64(self):
        return int(self.next_u64_array(1)[0])

    def random(self):
        return (self.next_u64() >> 11) * 2.0 ** -53

    def random_array(self, n):
        return (self.next_u64_array(n) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def uniform(self, low, high, n=None):
        if n is None:
            return low + (high - low) * self.random()
        return low + (high - low) * self.random_array(n)

    def randint(self, n):
        return self.next_u64() % n

    def init_matrix(self, rows, cols, dtype=np.float64):
        a = math.sqrt(6.0 / (rows + cols))
        return self.uniform(-a, a, rows * cols).reshape(rows, cols).astype(dtype)

    def shuffle(self, items):
        """Fisher-Yates, one ``randint`` per step."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]


def checkpoint_bytes_oracle(params):
    """The bytes of a checkpoint of ``params``, field by field, each payload
    a little-endian float64 copy of its array."""
    cfg = params.config
    blob = CHECKPOINT_MAGIC + struct.pack("<IBB", CHECKPOINT_VERSION, VARIANTS.index(cfg.variant),
                                          {np.float64: 0, np.float32: 1}[params.dtype.type])
    blob += struct.pack("<6I", cfg.vocab_size, cfg.d_e1, cfg.d_e2, cfg.d_r, cfg.d_m, cfg.d_i)
    blob += struct.pack("<I", len(params.names()))
    for name in params.names():
        arr = params.arrays[name]
        blob += struct.pack("<H", len(name)) + name.encode("utf-8")
        blob += struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape)
        blob += arr.astype("<f8").tobytes()
    return blob


def randomize_biases(params, seed):
    """Give every bias random values (initialization leaves them at zero)."""
    rng = Rng(seed)
    for name, arr in params.arrays.items():
        if name.startswith("b_"):
            arr[:] = rng.uniform(-0.5, 0.5, arr.size)
    return params


def block_rel_err(analytic, numeric):
    denom = np.linalg.norm(analytic) + np.linalg.norm(numeric)
    return 0.0 if denom == 0 else float(np.linalg.norm(analytic - numeric)) / denom


def _first_shape(blob, *words):
    """The checkpoint with the leading shape words of its first array replaced."""
    # 38 header bytes (magic, version, variant, dtype, six dims, array count),
    # then the first array's u16 name length, name, u8 ndim and u32 shape words
    at = 38 + 2 + struct.unpack_from("<H", blob, 38)[0] + 1
    return blob[:at] + struct.pack(f"<{len(words)}I", *words) + blob[at + 4 * len(words):]


# Header layout: 4-byte magic, u32 version, u8 variant code, u8 dtype code.
# The file ends with the payload of the last array (b_out), little-endian f8.
CORRUPTIONS = {
    "variant": lambda blob: blob[:8] + bytes([7]) + blob[9:],
    "dtype": lambda blob: blob[:9] + bytes([9]) + blob[10:],
    "trailing": lambda blob: blob + b"\x00",
    "nan": lambda blob: blob[:-8] + struct.pack("<d", math.nan),
    # declared lengths far past the end of the file
    "huge_shape": lambda blob: _first_shape(blob, 0x7FFFFFFF),
    "overflow_shape": lambda blob: _first_shape(blob, 0xFFFFFFFF, 0xFFFFFFFF),
}


def corrupt_checkpoint(path, kind):
    """Write a copy of the checkpoint with one defect next to it."""
    bad = path.with_name(f"{kind}.mrnm")
    bad.write_bytes(CORRUPTIONS[kind](path.read_bytes()))
    return bad


def write_mrnf(path, entries, dim):
    """A binary feature file of (id, values) entries, written field by field,
    so it may hold what the library's writer cannot (e.g. a repeated id)."""
    blob = FEATURE_MAGIC + struct.pack("<IQI", FEATURE_VERSION, len(entries), dim)
    for image_id, values in entries:
        raw = image_id.encode("utf-8")
        blob += struct.pack("<H", len(raw)) + raw + np.asarray(values, "<f4").tobytes()
    path.write_bytes(blob)


def with_mrnf_dim(blob, dim):
    """A binary feature file with its header's dimension replaced."""
    # 4-byte magic, u32 version, u64 count, then the u32 dimension
    return blob[:16] + struct.pack("<I", dim) + blob[20:]


def _checked(proc, check):
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.stderr}\n{proc.stdout}")
    return proc


def run_cli(*args, check=True):
    """``mrnn.cli.main`` in this process, as a ``subprocess.CompletedProcess``
    with its exit code and what it printed on stdout and stderr.

    argparse's ``SystemExit`` (0 for ``--help``, 2 for a usage error) becomes
    the exit code.  Warnings are printed on the captured stderr, as a
    ``python -m mrnn`` process prints them, so a test that reads an empty
    stderr still sees one.  Any other exception propagates and fails the test.
    """
    argv = [str(arg) for arg in args]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    err.writelines(warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                   for w in caught)
    return _checked(subprocess.CompletedProcess(["mrnn", *argv], code, out.getvalue(),
                                                err.getvalue()), check)


def run_cli_process(hashseed, *args, check=True):
    """``python -m mrnn`` in a new interpreter, with ``PYTHONHASHSEED`` set to
    ``hashseed``, on the package this process imports.

    Only a test of the entry point itself, or of output that must not depend
    on set or dict order across runs, needs a second process.
    """
    env = {**os.environ, "PYTHONHASHSEED": str(hashseed),
           "PYTHONPATH": str(Path(mrnn.__file__).resolve().parents[1])}
    return _checked(subprocess.run([sys.executable, "-m", "mrnn", *map(str, args)],
                                   capture_output=True, text=True, env=env), check)
