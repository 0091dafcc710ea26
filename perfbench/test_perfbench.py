"""Self-tests of the benchmark: negative controls, count identities, contract.

Run from the repository root: ``python3 -m pytest perfbench``.  They use
small corpora and dimensions so that they finish in seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workload  # noqa: E402
from mrnn import corpus, model  # noqa: E402

SMALL_DIMS = {"d_e1": 8, "d_e2": 8, "d_r": 12, "d_m": 16}
SMALL_CORPORA = {
    "train": {"images": 30, "topics": 6},
    "retrieval": {"images": 100, "topics": 3},  # i2t shortlists 10 of the val images
    "caption": {"images": 30, "topics": 6},
}


def small_inputs(name: str, tmp_path: Path, seed: int = 3) -> Path:
    return workload.make_inputs(name, seed, tmp_path / name, SMALL_CORPORA[name], SMALL_DIMS)


def record(name: str, inputs: Path) -> dict:
    return workload.run(name, inputs, 0.0, False, None)["observed"]


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_clean_inputs_pass_their_own_record(name, tmp_path):
    inputs = small_inputs(name, tmp_path)
    res = workload.run(name, inputs, 0.0, False, record(name, inputs))
    assert res["attempted"] > 0 and res["failed"] == 0


def test_perturbed_w_out_row_fails_caption_calls(tmp_path):
    inputs = small_inputs("caption", tmp_path)
    expected = record("caption", inputs)
    path = inputs / "checkpoint.mrnm"
    params = model.load_checkpoint(path)
    params.arrays["W_out"][corpus.UNK_INDEX + 1] += 50.0  # make one word win every argmax
    model.save_checkpoint(params, path)
    res = workload.run("caption", inputs, 0.0, False, expected)
    assert res["failed"] > 0


def test_swapped_caption_fails_train_steps(tmp_path):
    inputs = small_inputs("train", tmp_path)
    expected = record("train", inputs)
    path = inputs / "captions.tsv"
    pairs = corpus.load_captions(path)
    j = next(j for j, (image_id, _) in enumerate(pairs) if image_id != pairs[0][0])
    pairs[0], pairs[j] = (pairs[0][0], pairs[j][1]), (pairs[j][0], pairs[0][1])
    corpus.save_captions(pairs, path)
    res = workload.run("train", inputs, 0.0, False, expected)
    assert res["failed"] > 0


def test_retrieval_trace_counts_one_pass_per_pair(tmp_path):
    """forward_sentence runs S*N times for t2i and S*(N+K) for i2t."""
    inputs = small_inputs("retrieval", tmp_path)
    pairs = corpus.load_captions(inputs / "captions.tsv")
    split = corpus.load_split_map(inputs / "split.tsv")
    val = [text for image_id, text in pairs if split[image_id] == "val"]
    s = len(val)
    n = len({image_id for image_id, _ in pairs if split[image_id] == "val"})
    k = min(100, sum(label == "train" for label in split.values()))
    vocab = corpus.load_vocab(inputs / "vocab.txt")
    positions = sum(len(vocab.encode(text)) + 1 for text in val)

    m = workload.run("retrieval", inputs, 0.0, True, None)["metrics"]
    assert m["model.forward_sentence.calls"] == s * n + s * (n + k)
    assert m["model.forward_step.calls"] == positions * (n + (n + k))
    assert m["inference.marginal_log2prob.calls"] == s
    assert m["model.backward_sentence.calls"] == 0
    assert m["model.forward_sentence.distinct_frac"] == pytest.approx(
        len(set(tuple(vocab.encode(t)) for t in val)) / (s * n + s * (n + k)))
    assert 0.0 < m["cli.shortlist.kept_frac"] <= 1.0


def test_train_trace_counts_steps_and_cost(tmp_path):
    inputs = small_inputs("train", tmp_path)
    m = workload.run("train", inputs, 0.0, True, None)["metrics"]
    wl = workload.TrainWorkload(inputs, json.loads((inputs / workload.INPUTS_FILE).read_text()))
    wl.setup()
    n_train = len(wl.dataset.train)
    assert m["training.sentence_gradient.calls"] == n_train * workload.TRAIN_EPOCHS
    assert m["model.backward_sentence.calls"] == n_train * workload.TRAIN_EPOCHS
    assert m["training.apply_sgd_step.calls"] == wl.steps * workload.TRAIN_EPOCHS
    assert m["training.cost.positions_ratio"] == 1.0
    assert m["model.backward_matvec.s"] > 0.0
    assert m["model.other_matvec.calls"] == 0


def test_traced_run_reports_every_declared_per_layer_metric(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    inputs = small_inputs("caption", tmp_path)
    res = workload.run("caption", inputs, 0.0, True, None)
    missing = [m["name"] for m in declared["per_layer"] if m["name"] not in res["metrics"]]
    assert not missing
    assert res["metrics"]["inference.generate.calls"] == 30
    assert res["metrics"]["model.output.s"] > 0.0


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    inputs = small_inputs("retrieval", tmp_path)
    res = workload.run("retrieval", inputs, 0.0, False, None)
    assert {m["name"] for m in declared["end_to_end"]} <= set(res["metrics"])
    assert all(res["metrics"][m["name"]] > 0 for m in declared["end_to_end"])


def test_tracer_restores_every_binding(tmp_path):
    import mrnn.cli
    import mrnn.inference
    import mrnn.model
    from tracer import Tracer

    before = (mrnn.model.matvec, mrnn.inference.forward_sentence, mrnn.cli.load_checkpoint,
              mrnn.model.ModelParams.__dict__["initialize"])
    with Tracer():
        assert mrnn.model.matvec is not before[0]
    after = (mrnn.model.matvec, mrnn.inference.forward_sentence, mrnn.cli.load_checkpoint,
             mrnn.model.ModelParams.__dict__["initialize"])
    assert after == before


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
