"""The benchmark tracer's bindings exist in the package.

``perfbench/tracer.py`` wraps package functions and ``ModelParams``
methods by name; a refactor that drops or renames one should fail here
rather than in a traced benchmark run.
"""

import argparse
import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest
from numpy.testing import assert_allclose

from helpers import run_cli, sentence_backward
from mrnn import cli
from mrnn.corpus import (CaptionedExample, ImageFeatureStore, build_vocabulary,
                         load_captions, load_features, save_vocab)
from mrnn.model import LN2, ModelConfig, ModelParams, save_checkpoint
from mrnn.numerics import Rng
from mrnn.training import batch_gradient, bits_per_word, sentence_gradient

TESTS_DIR = Path(__file__).resolve().parent
TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "mrnn"
README_PATH = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(tracer):
    missing = [f"mrnn.{mod}.{attr}" for mod, attr in tracer.FUNCTIONS
               if not callable(getattr(importlib.import_module(f"mrnn.{mod}"), attr, None))]
    assert not missing


def test_every_traced_method_is_on_model_params(tracer):
    assert [m for m in tracer.METHODS if m not in ModelParams.__dict__] == []


def test_every_layer_weight_is_a_parameter(tracer):
    names = set(ModelConfig(vocab_size=5, d_i=2).param_shapes())
    assert set(tracer.WEIGHT_LAYERS) <= names
    # the baseline is the same network without the image projection
    baseline = set(ModelConfig(vocab_size=5, d_i=2, variant="baseline").param_shapes())
    assert set(tracer.WEIGHT_LAYERS) - {"V_I"} <= baseline


def test_tracer_self_test_bindings_exist():
    # perfbench/test_perfbench.py::test_tracer_restores_every_binding reads
    # these module-level imports, so a refactor that drops one fails here too
    import mrnn.inference
    import mrnn.model
    import mrnn.numerics
    assert mrnn.inference.forward_sentence is mrnn.model.forward_sentence
    assert mrnn.model.matvec is mrnn.numerics.matvec


def test_corpus_perplexity_lives_in_training():
    import mrnn.evaluation
    import mrnn.training
    # evaluation imports training, so training importing evaluation would be a cycle
    tree = ast.parse((PACKAGE_DIR / "training.py").read_text(encoding="utf-8"))
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "evaluation"]
    # the tracer binds evaluation.corpus_perplexity and wraps every binding
    # of that object, so train()'s validation call in training is traced too
    assert mrnn.evaluation.corpus_perplexity is mrnn.training.corpus_perplexity
    assert mrnn.corpus_perplexity is mrnn.training.corpus_perplexity


def test_sentence_gradient_is_the_one_sentence_batch_gradient():
    # the tracer's training.sentence_gradient span still times one sentence's
    # gradient: the batch gradient of that sentence alone, in nat-loss units
    params = ModelParams.initialize(ModelConfig(vocab_size=9, d_i=2, d_e1=3, d_e2=3,
                                                d_r=4, d_m=5), Rng(1))
    store = ImageFeatureStore(["a"], [[0.5, -0.25]])
    example = CaptionedExample("a", [3, 7, 3], "x")
    grads, loss, n_pred = sentence_gradient(params, example, store)
    batch = batch_gradient(params, [example], store)
    assert n_pred == 4
    assert loss == pytest.approx(bits_per_word(params, [example], store) * n_pred * LN2,
                                 rel=1e-12)
    ref, ref_loss = sentence_backward(params, example.tokens, store.get("a"))
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    for name in params.names():
        assert_allclose(grads[name], batch[name] * (n_pred * LN2), rtol=1e-12, atol=1e-15)
        assert_allclose(grads[name], ref[name], rtol=0, atol=1e-12, err_msg=name)


def numpy_logs(tree):
    """Where ``np.log`` and ``np.log2`` appear under an ``ast`` node."""
    return {(node.lineno, node.col_offset) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("log", "log2")
            and getattr(node.value, "id", None) == "np"}


def test_one_log_probability_path():
    # every score and loss reads target_log2prob's logit - log-sum-exp; a
    # log taken of the softmax anywhere else underflows to -inf
    inside = {}
    for module in ("model", "training", "inference"):
        tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8"))
        inside[module] = set().union(*[numpy_logs(func) for func in ast.walk(tree)
                                       if isinstance(func, ast.FunctionDef)
                                       and func.name == "target_log2prob"])
        assert numpy_logs(tree) == inside[module], module
    assert inside["model"] and not inside["training"] and not inside["inference"]
    assert not hasattr(importlib.import_module("mrnn.numerics"), "log_softmax")


def test_one_reader_of_the_image_projection():
    # the image enters the network as one term, V_I . I, which model.image_term
    # computes once per image: decoding, training and scoring all read it there
    reads = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk reaches a nested function after its parent, so the innermost wins
        owner = {id(node): func.name for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
        reads += [(path.stem, owner.get(id(node))) for node in ast.walk(tree)
                  if isinstance(node, ast.Subscript)
                  and getattr(node.slice, "value", None) == "V_I"]
    assert reads == [("model", "image_term")]


def test_one_writer_for_run_outputs():
    # every JSON file of a run is written by cli.write_run, strictly: a
    # non-finite float raises there instead of writing Infinity or NaN
    dumps = []
    for path in PACKAGE_DIR.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        writer = {id(node) for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                  and func.name == "write_run" for node in ast.walk(func)}
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "json"], path.name
        dumps += [(path.name, id(node) in writer,
                   [ast.literal_eval(k.value) for k in node.keywords if k.arg == "allow_nan"])
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", None) == "dumps"
                  and getattr(node.func.value, "id", None) == "json"]
    assert dumps and all(d == ("cli.py", True, [False]) for d in dumps), dumps
    # the training loop returns its report; it opens and writes no file
    tree = ast.parse((PACKAGE_DIR / "training.py").read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                and (getattr(node.func, "id", None) == "open"
                     or getattr(node.func, "attr", None) in ("open", "write_text",
                                                             "write_bytes"))]


def callers_in_package():
    """{called name: names of the package functions that call it}, from the
    ``ast`` of every module under ``src/mrnn``."""
    callers = {}
    for path in PACKAGE_DIR.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    callers.setdefault(name, set()).add(func.name)
    return callers


def test_per_sentence_leftovers_have_no_package_caller():
    # backward_sentence, sentence_gradient and marginal_log2prob remain only
    # because perfbench/tracer.py binds them, and forward_sentence only for
    # sentence_log2prob; once the benchmark traces the packed path they go
    callers = callers_in_package()
    for name in ("backward_sentence", "sentence_gradient", "marginal_log2prob"):
        assert name not in callers, (name, callers.get(name))
    assert callers["forward_sentence"] == {"sentence_log2prob"}


@pytest.mark.parametrize("size", [1, 3])
def test_shortlist_counter_is_the_kept_fraction(tracer, tmp_path, size):
    # every image has two captions, so an i2t shortlist of K of the Q images
    # keeps the scores of K * 2 of the Q * 2 captions in each query row
    data = tmp_path / "data"
    run_cli("synth", "--out", str(data), "--images", "8", "--topics", "2",
            "--captions-per-image", "2", "--seed", "6")
    pairs = load_captions(data / "captions.tsv")
    store = load_features(data / "features.mrnf")
    vocab = build_vocabulary([text for _, text in pairs], min_count=1)
    save_vocab(vocab, tmp_path / "vocab.txt")
    cfg = ModelConfig(vocab_size=vocab.size, d_i=store.feature_dim,
                      d_e1=4, d_e2=4, d_r=5, d_m=6)
    save_checkpoint(ModelParams.initialize(cfg, Rng(2)), tmp_path / "checkpoint.mrnm")
    argv = ["eval", "retrieval", "--direction", "i2t", "--shortlist", str(size),
            "--checkpoint", str(tmp_path / "checkpoint.mrnm"),
            "--vocab", str(tmp_path / "vocab.txt"),
            "--captions", str(data / "captions.tsv"),
            "--features", str(data / "features.mrnf"), "--norm-images", "4"]
    with tracer.Tracer() as t:
        run_cli(*argv)
    m = t.layer_metrics()
    assert m["evaluation.shortlist.calls"] == 1
    assert m["evaluation.retrieval_eval.calls"] == 1
    assert m["cli.shortlist.kept_frac"] == size / len(store)


def parser_commands(parser, prefix=""):
    """Every runnable command of ``parser``, nested ones as ``"eval ppl"``."""
    names = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                names += parser_commands(sub, f"{prefix}{name} ") or [prefix + name]
    return names


def test_readme_names_every_subcommand():
    # the "Subcommands:" sentence lists `cmd` or `cmd a|b|c` for each command
    sentence = re.search(r"Subcommands:(.*?)\.", README_PATH.read_text(encoding="utf-8"),
                         re.S).group(1)
    listed = []
    for item in re.findall(r"`([^`]+)`", sentence):
        name, *subs = item.split()
        listed += [f"{name} {sub}" for sub in subs[0].split("|")] if subs else [name]
    assert sorted(listed) == sorted(parser_commands(cli.build_parser()))


def calls_by_function(path, match):
    """``module::function`` or ``module::Class::method`` for each call in the
    module at ``path`` whose callee ``match`` accepts."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owners = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    owners += [(f"{cls.name}::{node.name}", node) for cls in tree.body
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef)]
    return [f"{path.stem}::{name}" for name, func in owners for node in ast.walk(func)
            if isinstance(node, ast.Call) and match(node.func)]


# the subprocess functions that start a process
STARTERS = ("run", "Popen", "call", "check_call", "check_output")


def test_one_subprocess_call_site_and_four_tests_that_start_processes():
    # tests run the command line in-process through helpers.run_cli; only the
    # entry-point test and the cross-run determinism tests need new processes
    sites, starters = [], set()
    for path in sorted(TESTS_DIR.glob("*.py")):
        sites += calls_by_function(path, lambda f: getattr(f, "attr", None) in STARTERS
                                   and getattr(f.value, "id", None) == "subprocess")
        starters.update(calls_by_function(path, lambda f: getattr(f, "id", None)
                                          == "run_cli_process"))
    assert sites == ["helpers::run_cli_process"], sites
    assert starters == {
        "test_acceptance::test_criterion_7_determinism",
        "test_cli::TestTrain::test_rerun_identical_checkpoint_and_manifest",
        "test_cli::TestEval::test_retrieval_rerun_identical_metrics",
        "test_cli::TestEntryPoint::test_python_m_mrnn_exit_codes",
    }


def test_retrieval_scores_is_the_one_caller_of_the_engine_in_the_cli():
    # both retrieval passes go through cli._retrieval_scores and the cli's
    # one engine name, so a test that monkeypatches that name covers them both
    cli_path = PACKAGE_DIR / "cli.py"
    assert set(calls_by_function(cli_path, lambda f: getattr(f, "id", None)
                                 == "log2prob_matrix")) == {"cli::_retrieval_scores"}
    below = ("word_layers", "target_log2prob", "scaled_tanh")
    assert calls_by_function(cli_path, lambda f: getattr(f, "id", getattr(f, "attr", None))
                             in below) == []


class StandInOpenBlas:
    """A loaded library that exposes one thread getter, by name."""

    def __init__(self, getter, threads):
        def get():
            return threads
        if getter is not None:
            setattr(self, getter, get)


@pytest.mark.parametrize("getter", cli.THREAD_GETTERS)
def test_openblas_thread_getter_fallback(monkeypatch, tmp_path, getter):
    maps = tmp_path / "maps"
    maps.write_text("7f00-7f01 r-xp 00000000 00:00 1 /usr/lib/libopenblas.so.0\n"
                    "7f02-7f03 r-xp 00000000 00:00 2 /usr/lib/libm.so.6\n")
    loaded = []

    def cdll(path):
        loaded.append(path)
        return StandInOpenBlas(getter, 3)
    monkeypatch.setattr(cli, "MAPS_PATH", str(maps))
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert cli._openblas_threads() == 3
    assert loaded == ["/usr/lib/libopenblas.so.0"]
    # a library with none of the getters records no count
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda path: StandInOpenBlas(None, 3))
    assert cli._openblas_threads() is None
