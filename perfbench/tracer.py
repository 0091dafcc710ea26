"""Outside-in span tracer for the mrnn package.

Every traced function is replaced, wherever a module of the package binds
it, by a wrapper that records one span: (name, start, end, parent).
``from .x import y`` gives each importing module its own binding, so the
wrapper is installed in every module whose attribute *is* the original
function object.  ``ModelParams`` methods are wrapped on the class.

``numerics.matvec`` is attributed to a model layer by the weight array it
is called with: arrays of every ``ModelParams`` returned by
``load_checkpoint`` or ``ModelParams.initialize`` are registered, and a
transposed view (backward pass) is recognised through ``.base``.

Spans stay in memory; ``save`` writes them once, at the end of a run.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# (module, function) -> span name; every binding of the function is wrapped.
FUNCTIONS = {
    ("corpus", "load_features"): "corpus.load_features",
    ("corpus", "load_captions"): "corpus.load_captions",
    ("corpus", "load_split_map"): "corpus.load_split_map",
    ("corpus", "load_vocab"): "corpus.load_vocab",
    ("corpus", "build_vocabulary"): "corpus.build_vocabulary",
    ("corpus", "build_dataset"): "corpus.build_dataset",
    ("model", "load_checkpoint"): "model.load_checkpoint",
    ("model", "forward_sentence"): "model.forward_sentence",
    ("model", "forward_step"): "model.forward_step",
    ("model", "backward_sentence"): "model.backward_sentence",
    ("training", "train"): "training.train",
    ("training", "sentence_gradient"): "training.sentence_gradient",
    ("training", "apply_sgd_step"): "training.apply_sgd_step",
    ("training", "cost"): "training.cost",
    ("inference", "generate"): "inference.generate",
    ("inference", "sentence_log2prob"): "inference.sentence_log2prob",
    ("inference", "marginal_log2prob"): "inference.marginal_log2prob",
    ("evaluation", "corpus_perplexity"): "evaluation.corpus_perplexity",
    ("evaluation", "shortlist"): "evaluation.shortlist",
    ("evaluation", "retrieval_eval"): "evaluation.retrieval_eval",
    # The two non-matvec parts of the multimodal and output layers.
    ("numerics", "scaled_tanh"): "model.multimodal",
    ("numerics", "softmax"): "model.output",
}

METHODS = {
    "initialize": "model.initialize",
    "zeros_like": "model.params.zeros_like",
    "add_scaled": "model.params.add_scaled",
}

# Forward weight -> layer span name for numerics.matvec.
WEIGHT_LAYERS = {
    "E2": "model.embedding",
    "U_r": "model.recurrent",
    "W_in": "model.recurrent",
    "V_w": "model.multimodal",
    "V_r": "model.multimodal",
    "V_I": "model.multimodal",
    "W_out": "model.output",
}
BACKWARD_MATVEC = "model.backward_matvec"
OTHER_MATVEC = "model.other_matvec"


class Tracer:
    """Installs span wrappers on enter and restores every binding on exit."""

    def __init__(self):
        self.names: list[str] = []
        self._sid: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []
        self._weight_sid: dict[int, int] = {}
        self._registered: list = []  # keeps registered arrays (and their ids) alive
        self.counts = defaultdict(int)
        self._token_seqs: set = set()
        self._shortlisted = False

    # -- spans ---------------------------------------------------------------

    def sid(self, name: str) -> int:
        if name not in self._sid:
            self._sid[name] = len(self.names)
            self.names.append(name)
        return self._sid[name]

    def wrap(self, fn, name: str, before=None, after=None):
        """``fn`` recording one span per call; ``before`` sees the arguments,
        ``after`` the result."""
        sid = self.sid(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (sid, t0, t1, parent)
            if after is not None:
                after(result)
            return result

        return traced

    # -- observers (counts recorded at the same boundaries) --------------------

    def _register(self, params) -> None:
        self._registered.append(params)
        for weight, layer in WEIGHT_LAYERS.items():
            if weight in params.arrays:
                self._weight_sid[id(params.arrays[weight])] = self.sid(layer)

    def _on_forward_sentence(self, params, tokens, *_):
        self._token_seqs.add(tuple(tokens))

    def _on_sentence_gradient(self, params, example, *_):
        self.counts["positions_trained"] += len(example.tokens) + 1

    def _on_cost(self, params, examples, *_):
        self.counts["positions_costed"] += sum(len(ex.tokens) + 1 for ex in examples)

    def _on_shortlist(self, *_, **__):
        self._shortlisted = True

    def _on_retrieval_eval(self, scores, *_, **__):
        # Only the i2t command shortlists; its masked pairs are -inf scores.
        if self._shortlisted:
            scores = np.asarray(scores)
            self.counts["pairs_scored"] += scores.size
            self.counts["pairs_kept"] += int(np.isfinite(scores).sum())
            self._shortlisted = False

    def _matvec(self, fn):
        # Same span logic as wrap, but the span name comes from the weight;
        # kept separate because matvec is the hottest traced call.
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        weight_sid = self._weight_sid
        backward, other = self.sid(BACKWARD_MATVEC), self.sid(OTHER_MATVEC)

        def traced(m, v):
            sid = weight_sid.get(id(m))
            if sid is None:
                base = m.base
                sid = backward if base is not None and id(base) in weight_sid else other
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(m, v)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (sid, t0, t1, parent)

        return traced

    # -- install / restore ---------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mrnn" or mod_name.startswith("mrnn.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def __enter__(self) -> "Tracer":
        import mrnn.model
        import mrnn.numerics

        observers = {
            "model.forward_sentence": (self._on_forward_sentence, None),
            "training.sentence_gradient": (self._on_sentence_gradient, None),
            "training.cost": (self._on_cost, None),
            "evaluation.shortlist": (self._on_shortlist, None),
            "evaluation.retrieval_eval": (self._on_retrieval_eval, None),
            "model.load_checkpoint": (None, self._register),
        }
        for (mod_name, attr), name in FUNCTIONS.items():
            original = getattr(sys.modules[f"mrnn.{mod_name}"], attr)
            before, after = observers.get(name, (None, None))
            self._replace_everywhere(original, self.wrap(original, name, before, after))
        matvec = mrnn.numerics.matvec
        self._replace_everywhere(matvec, self._matvec(matvec))

        cls = mrnn.model.ModelParams
        for attr, name in METHODS.items():
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            if isinstance(original, classmethod):
                wrapped = self.wrap(original.__func__, name, after=self._register)
                setattr(cls, attr, classmethod(wrapped))
            else:
                setattr(cls, attr, self.wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns; call after exit, when every span is closed."""
        cols = list(zip(*self.spans)) if self.spans else [(), (), (), ()]
        return {"names": np.array(self.names),
                "sid": np.array(cols[0], dtype=np.int32),
                "start": np.array(cols[1], dtype=np.float64),
                "end": np.array(cols[2], dtype=np.float64),
                "parent": np.array(cols[3], dtype=np.int64)}

    def save(self, path) -> None:
        np.savez(path, **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """``<span>.calls``, ``.s`` and ``.self_s`` per span name, plus the ratios."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        calls = np.bincount(a["sid"], minlength=n_names)
        total = np.bincount(a["sid"], weights=dur, minlength=n_names)
        self_total = np.bincount(a["sid"], weights=dur - child, minlength=n_names)
        out = {}
        for sid, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[sid])
            out[f"{name}.s"] = float(total[sid])
            out[f"{name}.self_s"] = float(self_total[sid])
        c = self.counts
        fwd_calls = out.get("model.forward_sentence.calls", 0)
        out["model.forward_sentence.distinct_frac"] = (
            len(self._token_seqs) / fwd_calls if fwd_calls else 0.0)
        out["training.cost.positions_ratio"] = (
            c["positions_costed"] / c["positions_trained"] if c["positions_trained"] else 0.0)
        out["cli.shortlist.kept_frac"] = (
            c["pairs_kept"] / c["pairs_scored"] if c["pairs_scored"] else 0.0)
        return out

