import argparse
import dataclasses
import hashlib
import json
import math
import os
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from helpers import (corrupt_checkpoint, oracle_first_rank, oracle_top, randomize_biases,
                     run_cli, run_cli_process, sentence_log2prob_oracle, with_mrnf_dim,
                     write_mrnf)
from mrnn import cli
from mrnn.cli import _retrieval_scores, build_parser, resolve_settings
from mrnn.corpus import (UNK_INDEX, CaptionedExample, DatasetSplit, ImageFeatureStore,
                         SynthSpec, build_vocabulary, generate_synthetic_corpus, load_features,
                         load_vocab, save_captions, save_features, save_vocab)
from mrnn.estimator import MRNNCaptioner
from mrnn.inference import log2prob_matrix, sentence_log2prob
from mrnn.model import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, VARIANTS, ModelConfig,
                        ModelParams, load_checkpoint, save_checkpoint)
from mrnn.numerics import Rng
from mrnn.training import TrainConfig, bits_per_word, train


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthetic corpus plus a small trained checkpoint, shared by tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    run_cli("synth", "--out", str(data), "--images", "14", "--topics", "4",
            "--captions-per-image", "2", "--seed", "3",
            "--train-frac", "0.7", "--val-frac", "0.15")
    run_cli("train", "--captions", str(data / "captions.tsv"),
            "--features", str(data / "features.mrnf"),
            "--split", str(data / "split.tsv"), "--out", str(run),
            "--epochs", "12", "--learning-rate", "0.4", "--batch-size", "4",
            "--d-e1", "12", "--d-e2", "12", "--d-r", "16", "--d-m", "16",
            "--seed", "1")
    return {"data": data, "run": run}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def eval_args(ws, *extra):
    return ["--checkpoint", str(ws["run"] / "checkpoint.mrnm"),
            "--vocab", str(ws["run"] / "vocab.txt"),
            "--captions", str(ws["data"] / "captions.tsv"),
            "--features", str(ws["data"] / "features.mrnf"),
            "--split", str(ws["data"] / "split.tsv"), *extra]


class TestSynth:
    def test_writes_expected_files(self, workspace):
        data = workspace["data"]
        for name in ("captions.tsv", "features.mrnf", "split.tsv", "manifest.json"):
            assert (data / name).exists(), name

    def test_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            run_cli("synth", "--out", str(tmp_path / sub), "--images", "6",
                    "--seed", "9")
        for name in ("captions.tsv", "features.mrnf", "split.tsv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes(), name

    def test_tsv_feature_format(self, tmp_path):
        run_cli("synth", "--out", str(tmp_path), "--images", "4",
                "--feature-format", "tsv", "--seed", "0")
        assert (tmp_path / "features.tsv").exists()

    # The benchmark's inputs and its expected outputs are made by `mrnn synth`,
    # so its bytes are pinned, not only its run-to-run determinism.
    PINNED_SHA256 = {
        "captions.tsv": "7ffc586ce07342b5ea5a5de4e74f32eeda9d7873c9224e2c42ec74f7fea057c2",
        "features.mrnf": "d9e38cdac836fc95fd522a93b01c1510e982cf95b86743c607e6a2ba16eff9f9",
        "split.tsv": "25f124fa9e1665baf1dce2332f51997417f648280eb644671762c56f76aec6a3",
        "features.tsv": "390eb49fcbc2b47cb6713f0d8d3497b2533cf2689a082432e4582a1996731f83",
    }

    @pytest.mark.parametrize("feature_format, names", [
        ("bin", ("captions.tsv", "features.mrnf", "split.tsv")),
        ("tsv", ("features.tsv",)),
    ])
    def test_pinned_bytes(self, tmp_path, feature_format, names):
        run_cli("synth", "--out", str(tmp_path), "--images", "12", "--topics", "3",
                "--seed", "1", "--feature-format", feature_format)
        for name in names:
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == self.PINNED_SHA256[name], name

    @pytest.mark.parametrize("flag, value", [
        ("--topics", "0"), ("--topics", "-2"), ("--captions-per-image", "0"),
        ("--noise-dim", "-1"), ("--train-frac", "1.5"), ("--val-frac", "0.5"),
    ])
    def test_bad_spec_is_one_error_line(self, tmp_path, flag, value):
        proc = run_cli("synth", "--out", str(tmp_path / "o"), "--images", "6", flag, value,
                       check=False)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert not (tmp_path / "o").exists()


class TestTrain:
    def test_outputs_exist(self, workspace):
        run = workspace["run"]
        for name in ("checkpoint.mrnm", "vocab.txt", "train_report.csv",
                     "manifest.json"):
            assert (run / name).exists(), name

    def test_report_has_header_and_rows(self, workspace):
        lines = (workspace["run"] / "train_report.csv").read_text().splitlines()
        assert lines[0] == "epoch,cost,val_ppl,grad_norm_mean,grad_norm_max,clip_frac"
        assert len(lines) == 13
        # the wall-clock columns have their own file
        timing = (workspace["run"] / "timing.csv").read_text().splitlines()
        assert timing[0] == "epoch,seconds,positions_per_s,sgd_s,cost_s,val_s"
        assert [line.split(",")[0] for line in timing[1:]] == [str(e) for e in range(1, 13)]
        assert all(float(value) > 0 for line in timing[1:] for value in line.split(",")[1:])
        # the SGD steps, the epoch's cost and the validation are parts of the epoch
        for line in timing[1:]:
            _, seconds, _, *phases = map(float, line.split(","))
            assert sum(phases) <= seconds

    def test_missing_feature_file_names_path(self, workspace, tmp_path):
        data = workspace["data"]
        proc = run_cli("train", "--captions", str(data / "captions.tsv"),
                       "--features", str(tmp_path / "nope.mrnf"),
                       "--split", str(data / "split.tsv"),
                       "--out", str(tmp_path / "o"), check=False)
        assert proc.returncode != 0
        assert "nope.mrnf" in proc.stderr
        assert proc.stderr.strip().startswith("error:")
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_missing_path_with_a_newline_is_one_error_line(self, workspace, tmp_path):
        data = workspace["data"]
        captions = tmp_path / "two\nlines.tsv"
        proc = run_cli("train", "--captions", str(captions),
                       "--features", str(data / "features.mrnf"),
                       "--split", str(data / "split.tsv"),
                       "--out", str(tmp_path / "o"), check=False)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: missing file: {tmp_path}/two lines.tsv\n"

    def test_non_utf8_config_file_is_one_error_line(self, workspace, tmp_path):
        data = workspace["data"]
        (tmp_path / "run.cfg").write_bytes(b"epochs = 1\n# r\xe9glages\n")
        proc = run_cli("train", "--captions", str(data / "captions.tsv"),
                       "--features", str(data / "features.mrnf"),
                       "--split", str(data / "split.tsv"), "--out", str(tmp_path / "o"),
                       "--config", str(tmp_path / "run.cfg"), check=False)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (f"error: {tmp_path / 'run.cfg'}: not UTF-8 text "
                               f"(invalid continuation byte)\n")
        assert not (tmp_path / "o").exists()

    def test_rerun_identical_checkpoint_and_manifest(self, workspace, tmp_path):
        # two processes with two string-hash seeds: output that follows set or
        # dict order would differ between them, and not between two in-process runs
        data = workspace["data"]
        outs = []
        for hashseed, sub in ((1, "r1"), (2, "r2")):
            out = tmp_path / sub
            run_cli_process(hashseed, "train", "--captions", str(data / "captions.tsv"),
                            "--features", str(data / "features.mrnf"),
                            "--split", str(data / "split.tsv"), "--out", str(out),
                            "--epochs", "3", "--d-e1", "8", "--d-e2", "8",
                            "--d-r", "8", "--d-m", "8", "--seed", "5")
            outs.append(out)
        for name in ("checkpoint.mrnm", "vocab.txt", "manifest.json", "train_report.csv"):
            assert sha256(outs[0] / name) == sha256(outs[1] / name), name
        # evals of one checkpoint into two directories write the same files
        evals = []
        for hashseed, sub in ((1, "e1"), (2, "e2")):
            out = tmp_path / sub
            run_cli_process(hashseed, "eval", "ppl",
                            "--checkpoint", str(outs[0] / "checkpoint.mrnm"),
                            "--vocab", str(outs[0] / "vocab.txt"),
                            "--captions", str(data / "captions.tsv"),
                            "--features", str(data / "features.mrnf"),
                            "--split", str(data / "split.tsv"), "--out", str(out))
            evals.append(out)
        for name in ("manifest.json", "metrics.json", "metrics.csv"):
            assert sha256(evals[0] / name) == sha256(evals[1] / name), name

    def test_config_file_and_flag_override(self, workspace, tmp_path):
        data = workspace["data"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 1\nd_e1 = 8\nd_e2 = 8\nd_r = 8\nd_m = 8\n"
                       "# comment line\nseed = 2\n")
        out = tmp_path / "out"
        run_cli("train", "--captions", str(data / "captions.tsv"),
                "--features", str(data / "features.mrnf"),
                "--split", str(data / "split.tsv"), "--out", str(out),
                "--config", str(cfg), "--epochs", "2")
        lines = (out / "train_report.csv").read_text().splitlines()
        assert len(lines) == 3  # flag (2 epochs) overrode the file (1 epoch)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["settings"]["epochs"] == 2
        assert manifest["settings"]["d_r"] == 8

    def test_config_file_unknown_key(self, workspace, tmp_path):
        data = workspace["data"]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("optimizer = adam\n")
        proc = run_cli("train", "--captions", str(data / "captions.tsv"),
                       "--features", str(data / "features.mrnf"),
                       "--split", str(data / "split.tsv"),
                       "--out", str(tmp_path / "o"), "--config", str(cfg),
                       check=False)
        assert proc.returncode != 0 and "optimizer" in proc.stderr

    def test_inputs_never_mutated(self, workspace, tmp_path):
        data = workspace["data"]
        before = {name: (data / name).read_bytes()
                  for name in ("captions.tsv", "features.mrnf", "split.tsv")}
        run_cli("train", "--captions", str(data / "captions.tsv"),
                "--features", str(data / "features.mrnf"),
                "--split", str(data / "split.tsv"), "--out", str(tmp_path / "o"),
                "--epochs", "1", "--d-e1", "8", "--d-e2", "8", "--d-r", "8",
                "--d-m", "8")
        for name, blob in before.items():
            assert (data / name).read_bytes() == blob, name

    def test_manifest_detects_input_drift(self, workspace, tmp_path):
        data = workspace["data"]
        drifted = tmp_path / "captions.tsv"
        drifted.write_bytes((data / "captions.tsv").read_bytes()
                            + b"img0000\textra words here\n")
        outs = []
        for captions, sub in ((data / "captions.tsv", "m1"), (drifted, "m2")):
            out = tmp_path / sub
            run_cli("train", "--captions", str(captions),
                    "--features", str(data / "features.mrnf"),
                    "--split", str(data / "split.tsv"), "--out", str(out),
                    "--epochs", "1", "--d-e1", "8", "--d-e2", "8", "--d-r", "8",
                    "--d-m", "8")
            outs.append(json.loads((out / "manifest.json").read_text()))
        assert outs[0]["inputs"]["captions"]["sha256"] != \
               outs[1]["inputs"]["captions"]["sha256"]


    @pytest.mark.parametrize("min_count", [0, -3])
    def test_min_count_below_one_is_refused(self, workspace, tmp_path, min_count):
        with pytest.raises(ValueError, match="min_count"):
            build_vocabulary(["a b", "a c"], min_count=min_count)
        with pytest.raises(ValueError, match="min_count"):
            MRNNCaptioner(min_count=min_count, epochs=1).fit(np.eye(2), ["a b", "a c"])
        data = workspace["data"]
        proc = run_cli("train", "--captions", str(data / "captions.tsv"),
                       "--features", str(data / "features.mrnf"),
                       "--split", str(data / "split.tsv"),
                       "--out", str(tmp_path / "o"), "--epochs", "1",
                       "--min-count", str(min_count), check=False)
        assert proc.returncode == 1
        assert proc.stderr == f"error: min_count must be at least 1, got {min_count}\n"
        assert not (tmp_path / "o").exists()

    def test_repeated_feature_id_is_one_error_line(self, workspace, tmp_path):
        data = workspace["data"]
        store = load_features(data / "features.mrnf")
        ids = store.ids()
        first_id = ids[0]
        write_mrnf(tmp_path / "dup.mrnf", [(i, store.get(i)) for i in ids + [first_id]],
                   store.feature_dim)
        proc = run_cli("train", "--captions", str(data / "captions.tsv"),
                       "--features", str(tmp_path / "dup.mrnf"),
                       "--split", str(data / "split.tsv"),
                       "--out", str(tmp_path / "o"), "--epochs", "1", check=False)
        assert proc.returncode == 1 and proc.stderr.count("\n") == 1
        assert (proc.stderr.startswith("error: ")
                and f"duplicate image id {first_id!r}" in proc.stderr)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, name", [("--learning-rate", "learning_rate"),
                                            ("--lambda-reg", "lambda_reg")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rate_is_one_error_line(self, workspace, tmp_path, flag, name, value):
        # refused before training, not as a non-finite gradient norm later
        data = workspace["data"]
        proc = run_cli("train", "--captions", str(data / "captions.tsv"),
                       "--features", str(data / "features.mrnf"),
                       "--split", str(data / "split.tsv"),
                       "--out", str(tmp_path / "o"), "--epochs", "1", flag, value, check=False)
        assert (proc.returncode, proc.stderr) == (
            1, f"error: {name} must be a finite number >= 0\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("clip", ["-1", "0"])
    def test_bad_clip_norm_is_one_error_line(self, workspace, tmp_path, clip):
        data = workspace["data"]
        proc = run_cli("train", "--captions", str(data / "captions.tsv"),
                       "--features", str(data / "features.mrnf"),
                       "--split", str(data / "split.tsv"), "--out", str(tmp_path / "o"),
                       "--epochs", "1", "--clip-norm", clip, check=False)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "clip_norm" in proc.stderr
        assert not (tmp_path / "o").exists()


class TestGenerate:
    def test_prints_caption_per_id(self, workspace):
        proc = run_cli("generate", "--checkpoint", str(workspace["run"] / "checkpoint.mrnm"),
                       "--vocab", str(workspace["run"] / "vocab.txt"),
                       "--features", str(workspace["data"] / "features.mrnf"),
                       "--image-id", "img0000", "--image-id", "img0001")
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("img0000\t")

    def test_unknown_image_id(self, workspace):
        proc = run_cli("generate", "--checkpoint", str(workspace["run"] / "checkpoint.mrnm"),
                       "--vocab", str(workspace["run"] / "vocab.txt"),
                       "--features", str(workspace["data"] / "features.mrnf"),
                       "--image-id", "imgXXXX", check=False)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: no feature vector for image id 'imgXXXX'\n"

    def test_max_len_one(self, workspace):
        proc = run_cli("generate", "--checkpoint", str(workspace["run"] / "checkpoint.mrnm"),
                       "--vocab", str(workspace["run"] / "vocab.txt"),
                       "--features", str(workspace["data"] / "features.mrnf"),
                       "--image-id", "img0000", "--max-len", "1")
        caption = proc.stdout.strip().split("\t", 1)[1] if "\t" in proc.stdout else ""
        assert len(caption.split()) <= 1

    def test_sample_mode_seed_deterministic(self, workspace):
        args = ("generate", "--checkpoint", str(workspace["run"] / "checkpoint.mrnm"),
                "--vocab", str(workspace["run"] / "vocab.txt"),
                "--features", str(workspace["data"] / "features.mrnf"),
                "--image-id", "img0002", "--mode", "sample", "--seed", "7")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_prefix(self, workspace):
        words = (workspace["run"] / "vocab.txt").read_text().splitlines()[3:5]
        prefix = " ".join(words)
        proc = run_cli("generate", "--checkpoint", str(workspace["run"] / "checkpoint.mrnm"),
                       "--vocab", str(workspace["run"] / "vocab.txt"),
                       "--features", str(workspace["data"] / "features.mrnf"),
                       "--image-id", "img0000", "--prefix", prefix)
        caption = proc.stdout.strip().split("\t", 1)[1]
        assert caption.startswith(prefix)

    def test_prefix_longer_than_max_len_is_one_error_line(self, workspace):
        word = (workspace["run"] / "vocab.txt").read_text().splitlines()[3]
        proc = run_cli("generate", "--checkpoint", str(workspace["run"] / "checkpoint.mrnm"),
                       "--vocab", str(workspace["run"] / "vocab.txt"),
                       "--features", str(workspace["data"] / "features.mrnf"),
                       "--image-id", "img0000", "--prefix", " ".join([word] * 3),
                       "--max-len", "2", check=False)
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "prefix" in lines[0]


class TestEval:
    def test_ppl_prints_and_writes(self, workspace, tmp_path):
        proc = run_cli("eval", "ppl", *eval_args(workspace), "--subset", "test",
                       "--out", str(tmp_path))
        assert proc.stdout.startswith("ppl ")
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["ppl"] > 1.0
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_ppl_past_the_float_range_is_inf(self, workspace, tmp_path):
        # an 800-nat bias on word 5 puts the others past 1024 bits per word
        params = load_checkpoint(workspace["run"] / "checkpoint.mrnm")
        params["b_out"][5] = 800.0
        save_checkpoint(params, tmp_path / "loud.mrnm")
        args = eval_args(workspace, "--subset", "test")
        args[1] = str(tmp_path / "loud.mrnm")
        _, _, subset, store, _ = cli._load_eval_inputs(
            build_parser().parse_args(["eval", "ppl", *args]))
        assert 1024.0 <= bits_per_word(params, subset, store) < np.inf
        proc = run_cli("eval", "ppl", *args, "--out", str(tmp_path / "out"))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ppl inf\n", "")
        # strict JSON has no Infinity: a metric that is not finite is null
        metrics = json.loads((tmp_path / "out" / "metrics.json").read_text(),
                             parse_constant=refuse_constant)
        assert metrics == {"ppl": None}
        assert (tmp_path / "out" / "metrics.csv").read_text() == "metric,value\nppl,inf\n"

    def test_bleu_prints_three_scores(self, workspace):
        proc = run_cli("eval", "bleu", *eval_args(workspace), "--subset", "test")
        parts = proc.stdout.split()
        assert parts[0] == "B-1" and parts[2] == "B-2" and parts[4] == "B-3"
        scores = [float(parts[i]) for i in (1, 3, 5)]
        assert all(0.0 <= s <= 1.0 for s in scores)

    def test_retrieval_runs_both_directions(self, workspace):
        for direction in ("t2i", "i2t"):
            proc = run_cli("eval", "retrieval", "--direction", direction,
                           *eval_args(workspace), "--subset", "train",
                           "--norm-images", "5")
            assert f"{direction} R@1" in proc.stdout

    def test_retrieval_rerun_identical_metrics(self, workspace, tmp_path):
        # two processes with two string-hash seeds, as in TestTrain's rerun test
        blobs = []
        for hashseed, sub in ((1, "r1"), (2, "r2")):
            out = tmp_path / sub
            run_cli_process(hashseed, "eval", "retrieval", "--direction", "i2t",
                            *eval_args(workspace), "--subset", "train",
                            "--norm-images", "5", "--out", str(out))
            blobs.append([(out / name).read_bytes() for name in
                          ("metrics.json", "metrics.csv", "curve.csv", "manifest.json")])
        assert blobs[0] == blobs[1]

    def test_retrieval_shortlist(self, workspace):
        proc = run_cli("eval", "retrieval", "--direction", "i2t",
                       *eval_args(workspace), "--subset", "train",
                       "--norm-images", "5", "--shortlist", "3")
        assert "R@1" in proc.stdout

    def test_curve_monotone_and_csv(self, workspace, tmp_path):
        run_cli("eval", "retrieval", "--direction", "t2i", *eval_args(workspace),
                "--subset", "train", "--fractions", "0.25,0.5,1.0",
                "--out", str(tmp_path))
        lines = (tmp_path / "curve.csv").read_text().splitlines()
        assert lines[0] == "fraction,mean_matches"
        means = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(means) == 3 and means == sorted(means)
        assert (tmp_path / "metrics.json").exists()
        outputs = json.loads((tmp_path / "manifest.json").read_text())["outputs"]
        assert outputs == {"curve": "curve.csv", "metrics_csv": "metrics.csv",
                           "metrics_json": "metrics.json"}

    @pytest.mark.parametrize("direction, engine", [("t2i", "log2prob_matrix"),
                                                   ("i2t", "normalized_log2prob_matrix")])
    def test_metrics_and_curve_from_one_scoring_pass(self, workspace, tmp_path, monkeypatch,
                                                     direction, engine):
        calls = []
        score = getattr(cli, engine)

        def counted(*args, **kwargs):
            calls.append(args)
            return score(*args, **kwargs)
        monkeypatch.setattr(cli, engine, counted)
        out = run_cli("eval", "retrieval", "--direction", direction, *eval_args(workspace),
                      "--subset", "train", "--norm-images", "4", "--out", str(tmp_path)).stdout
        assert len(calls) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "curve.csv", "manifest.json", "metrics.csv", "metrics.json"]
        # the R@K line, then one curve row per default fraction
        assert out.startswith(f"{direction} R@1 ") and len(out.splitlines()) == 1 + 7

    @pytest.mark.parametrize("direction, extra", [("t2i", []), ("i2t", []),
                                                  ("i2t", ["--shortlist", "3"])],
                             ids=["t2i", "i2t", "i2t-shortlist"])
    def test_curve_matches_brute_force_on_the_ranked_scores(self, workspace, tmp_path,
                                                            direction, extra):
        fractions = [0.07, 0.1, 0.25, 0.5, 1.0]
        argv = ["eval", "retrieval", "--direction", direction, *eval_args(workspace),
                "--subset", "train", "--norm-images", "4", *extra,
                "--fractions", ",".join(map(repr, fractions)), "--out", str(tmp_path)]
        out = run_cli(*argv).stdout
        # the score matrix R@K ranks, masked by the shortlist where one is given
        args = build_parser().parse_args(argv)
        params, _, subset, store, dataset = cli._load_eval_inputs(args)
        scores, relevant = _retrieval_scores(args, params, subset, store, dataset)
        assert np.isfinite(scores).all() == (not extra)
        n_q, n_c = scores.shape
        # rank[q][i]: 1 + the candidates scored higher, or equal at a lower column
        rank = [[1 + sum(scores[q, j] > scores[q, i]
                         or (scores[q, j] == scores[q, i] and j < i) for j in range(n_c))
                 for i in range(n_c)] for q in range(n_q)]
        rows = []
        for f in fractions:
            top = oracle_top(f, n_c)
            found = sum(1 for q in range(n_q) for i in range(n_c)
                        if relevant[q, i] and rank[q][i] <= top)
            rows.append(f"{f!r},{found / n_q!r}")
        assert (tmp_path / "curve.csv").read_text().splitlines() == [
            "fraction,mean_matches", *rows]
        assert out.splitlines()[1:] == rows

    def test_eval_curve_is_gone(self, workspace):
        proc = run_cli("eval", "curve", "--direction", "t2i", *eval_args(workspace),
                       check=False)
        assert proc.returncode == 2
        assert "invalid choice: 'curve'" in proc.stderr

    def test_t2i_ranks_by_log2p_past_perplexity_overflow(self, workspace, tmp_path):
        # a 3000-nat unknown-word bias puts every perplexity past 2 ** 1024,
        # where -perplexity is -inf for every pair and ranks tie by column
        params = load_checkpoint(workspace["run"] / "checkpoint.mrnm")
        params["b_out"][UNK_INDEX] += 3000.0
        save_checkpoint(params, tmp_path / "loud.mrnm")
        args = eval_args(workspace, "--subset", "train")
        args[1] = str(tmp_path / "loud.mrnm")
        proc = run_cli("eval", "retrieval", "--direction", "t2i", *args,
                       "--out", str(tmp_path / "out"))
        assert proc.stderr == ""
        _, _, subset, store, _ = cli._load_eval_inputs(
            build_parser().parse_args(["eval", "retrieval", "--direction", "t2i", *args]))
        image_ids = sorted({ex.image_id for ex in subset})
        tokens = [ex.tokens for ex in subset]
        log2p = log2prob_matrix(params, tokens, store.matrix(image_ids))
        positions = np.array([len(t) + 1 for t in tokens])
        assert (log2p / positions[:, None] < -1024).all()
        ranks = [oracle_first_rank(row, [ex.image_id == i for i in image_ids])
                 for row, ex in zip(log2p, subset)]
        metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert metrics == {"direction": "t2i", "med_r": sorted(ranks)[(len(ranks) - 1) // 2],
                           **{f"r_at_{k}": 100.0 * sum(r <= k for r in ranks) / len(ranks)
                              for k in (1, 5, 10)}}

    @pytest.mark.parametrize("direction", ["t2i", "i2t"])
    @pytest.mark.parametrize("fractions", ["", "0"], ids=["empty", "zero"])
    def test_bad_fractions_are_refused_before_scoring(self, workspace, monkeypatch,
                                                      fractions, direction):
        def no_scoring(*args, **kwargs):
            raise AssertionError("pairs were scored")
        monkeypatch.setattr(cli, "log2prob_matrix", no_scoring)
        monkeypatch.setattr(cli, "normalized_log2prob_matrix", no_scoring)
        proc = run_cli("eval", "retrieval", "--direction", direction, *eval_args(workspace),
                       "--subset", "train", "--fractions", fractions, check=False)
        assert (proc.returncode, proc.stdout) == (1, "")
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "fraction" in lines[0]

    def test_non_numeric_fraction_names_the_flag(self, workspace):
        proc = run_cli("eval", "retrieval", "--direction", "t2i", *eval_args(workspace),
                       "--subset", "train", "--fractions", "0.1,abc", check=False)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: --fractions takes comma-separated numbers, got '0.1,abc'\n"

    def test_t2i_shortlist_is_refused_before_loading(self, workspace, tmp_path):
        # the input paths do not exist: the flag is refused before any is read
        missing = [str(tmp_path / name) for name in ("m", "v", "c", "f")]
        args = ["--checkpoint", missing[0], "--vocab", missing[1],
                "--captions", missing[2], "--features", missing[3]]
        proc = run_cli("eval", "retrieval", "--direction", "t2i", *args, "--shortlist", "2",
                       "--out", str(tmp_path / "o"), check=False)
        assert (proc.returncode, proc.stdout) == (1, "")
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "--shortlist" in lines[0]
        assert not (tmp_path / "o").exists()
        proc = run_cli("eval", "retrieval", "--direction", "t2i", *eval_args(workspace),
                       "--subset", "train", "--shortlist", "2", check=False)
        assert (proc.returncode == 1 and proc.stderr.count("\n") == 1
                and "--shortlist" in proc.stderr)

    def test_curve_i2t_direction(self, workspace):
        proc = run_cli("eval", "retrieval", "--direction", "i2t",
                       *eval_args(workspace), "--subset", "train",
                       "--norm-images", "4", "--fractions", "0.5,1.0")
        summary, *lines = proc.stdout.strip().splitlines()
        assert summary.startswith("i2t R@1 ")
        rows = [line.split(",") for line in lines]
        assert len(rows) == 2
        assert float(rows[1][0]) == 1.0

    def test_baseline_variant_ppl_and_bleu_workflow(self, workspace, tmp_path):
        data = workspace["data"]
        out = tmp_path / "base"
        run_cli("train", "--captions", str(data / "captions.tsv"),
                "--features", str(data / "features.mrnf"),
                "--split", str(data / "split.tsv"), "--out", str(out),
                "--variant", "baseline", "--epochs", "4", "--d-r", "16",
                "--learning-rate", "0.4", "--seed", "2")
        args = ["--checkpoint", str(out / "checkpoint.mrnm"),
                "--vocab", str(out / "vocab.txt"),
                "--captions", str(data / "captions.tsv"),
                "--features", str(data / "features.mrnf"),
                "--split", str(data / "split.tsv"), "--subset", "test"]
        assert run_cli("eval", "ppl", *args).stdout.startswith("ppl ")
        assert run_cli("eval", "bleu", *args).stdout.startswith("B-1 ")
        proc = run_cli("eval", "retrieval", "--direction", "t2i", *args,
                       check=False)
        assert proc.returncode != 0  # retrieval needs image conditioning

    def test_empty_subset_errors(self, workspace):
        # without a split file everything lands in "test", so "train" is empty
        data = workspace["data"]
        proc = run_cli("eval", "ppl", "--checkpoint",
                       str(workspace["run"] / "checkpoint.mrnm"),
                       "--vocab", str(workspace["run"] / "vocab.txt"),
                       "--captions", str(data / "captions.tsv"),
                       "--features", str(data / "features.mrnf"),
                       "--subset", "train", check=False)
        assert proc.returncode != 0  # no split file: everything lands in test

    @pytest.mark.parametrize("kind", ["variant", "dtype", "trailing", "nan",
                                      "huge_shape", "overflow_shape"])
    def test_corrupt_checkpoint_is_one_error_line(self, workspace, tmp_path, kind):
        good = tmp_path / "m.mrnm"
        good.write_bytes((workspace["run"] / "checkpoint.mrnm").read_bytes())
        args = eval_args(workspace, "--subset", "test")
        args[1] = str(corrupt_checkpoint(good, kind))
        proc = run_cli("eval", "ppl", *args, check=False)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_oversized_feature_dimension_is_one_error_line(self, workspace, tmp_path):
        blob = (workspace["data"] / "features.mrnf").read_bytes()
        (tmp_path / "big.mrnf").write_bytes(with_mrnf_dim(blob, 0xFFFFFFF0))
        args = eval_args(workspace, "--subset", "test")
        args[args.index("--features") + 1] = str(tmp_path / "big.mrnf")
        proc = run_cli("eval", "ppl", *args, check=False)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "big.mrnf: truncated" in proc.stderr

    def test_mis_sized_features_give_one_error_line(self, workspace, tmp_path):
        # every command that reads the image reads it through model.image_term
        store = load_features(workspace["data"] / "features.mrnf")
        d_i = store.feature_dim
        wide = ImageFeatureStore(store.ids(), np.hstack([store.matrix(), np.ones((len(store), 1))]))
        save_features(wide, tmp_path / "wide.mrnf")
        args = eval_args(workspace, "--subset", "test")
        args[args.index("--features") + 1] = str(tmp_path / "wide.mrnf")
        commands = [["generate", *args[:4], *args[6:8], "--image-id", store.ids()[0]],
                    ["eval", "ppl", *args], ["eval", "bleu", *args],
                    ["eval", "retrieval", *args, "--direction", "t2i"],
                    ["eval", "retrieval", *args, "--direction", "i2t"]]
        for command in commands:
            proc = run_cli(*command, check=False)
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                1, "", f"error: image feature has shape ({d_i + 1},), expected ({d_i},)\n"), command


@pytest.fixture(scope="module")
def baseline_run(workspace, tmp_path_factory):
    """An untrained baseline checkpoint over the workspace vocabulary."""
    run = tmp_path_factory.mktemp("baseline")
    shutil.copy(workspace["run"] / "vocab.txt", run / "vocab.txt")
    cfg = ModelConfig(vocab_size=load_vocab(run / "vocab.txt").size, d_i=8,
                      variant="baseline", d_r=8)
    save_checkpoint(ModelParams.initialize(cfg, Rng(4)), run / "checkpoint.mrnm")
    return {"data": workspace["data"], "run": run}


class TestBaselineVariant:
    """The engine, not the CLI, decides what the image-free baseline can do."""

    def test_generate_ignores_the_image(self, baseline_run):
        out = run_cli("generate", "--checkpoint", str(baseline_run["run"] / "checkpoint.mrnm"),
                      "--vocab", str(baseline_run["run"] / "vocab.txt"),
                      "--features", str(baseline_run["data"] / "features.mrnf"),
                      "--image-id", "img0000", "--image-id", "img0005").stdout
        captions = [line.split("\t", 1)[1] for line in out.splitlines()]
        assert len(captions) == 2 and captions[0] == captions[1]

    @pytest.mark.parametrize("command", ["retrieval"])
    @pytest.mark.parametrize("direction", ["t2i", "i2t"])
    def test_retrieval_is_one_error_line(self, baseline_run, command, direction):
        proc = run_cli("eval", command, *eval_args(baseline_run, "--subset", "all"),
                       "--direction", direction, check=False)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "mrnn variant" in proc.stderr

    def test_elman_checkpoint_is_one_error_line(self, baseline_run, tmp_path):
        # the arrays U, b_r, V, b_out of the Elman network that the baseline
        # variant used to be, under a baseline header with the default dims
        m, d_r, d_i = load_vocab(baseline_run["run"] / "vocab.txt").size, 8, 8
        blob = CHECKPOINT_MAGIC + struct.pack("<IBB", CHECKPOINT_VERSION, 1, 0)
        blob += struct.pack("<6I", m, 128, 128, d_r, 512, d_i) + struct.pack("<I", 4)
        for name, shape in [("U", (d_r, m + d_r)), ("b_r", (d_r,)), ("V", (m, d_r)),
                            ("b_out", (m,))]:
            blob += struct.pack("<H", len(name)) + name.encode() + struct.pack("<B", len(shape))
            blob += struct.pack(f"<{len(shape)}I", *shape) + bytes(8 * math.prod(shape))
        (tmp_path / "elman.mrnm").write_bytes(blob)
        args = eval_args(baseline_run, "--subset", "all")
        args[1] = str(tmp_path / "elman.mrnm")
        proc = run_cli("eval", "ppl", *args, check=False)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: parameter names ") and proc.stderr.count("\n") == 1


class TestCountFlags:
    """A count below 1 is refused, not read as "off" or as a slice from the end."""

    @pytest.mark.parametrize("command, flag, value", [
        ("eval retrieval", "--shortlist", "0"),
        ("eval retrieval", "--shortlist", "-3"),
        ("eval retrieval", "--norm-images", "-1"),
        ("eval retrieval", "--norm-images", "0"),
        ("nearest", "-k", "-1"),
        ("nearest", "-k", "0"),
        ("gradcheck", "--samples", "0"),
    ])
    def test_below_one_is_one_error_line(self, workspace, command, flag, value):
        if command == "nearest":
            args = ["nearest", "--checkpoint", str(workspace["run"] / "checkpoint.mrnm"),
                    "--vocab", str(workspace["run"] / "vocab.txt"), "--token", "the"]
        elif command == "gradcheck":
            args = ["gradcheck"]
        else:
            args = [*command.split(), *eval_args(workspace, "--subset", "all"),
                    "--direction", "i2t"]
        proc = run_cli(*args, flag, value, check=False)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: {flag} must be at least 1, got {value}\n"


# Every defaulted field of the two configs is a training setting.
SETTING_FIELDS = [f for config in (ModelConfig, TrainConfig) for f in dataclasses.fields(config)
                  if f.default is not dataclasses.MISSING]


def other_value(field) -> str:
    """A valid value other than the field's default, spelled as a user would."""
    if isinstance(field.default, str):
        return {"variant": "baseline", "precision": "float32"}[field.name]
    return str(field.default + 1 if isinstance(field.default, int) else field.default / 2)


class TestTrainSettings:
    """Drift guard: the config fields are the flags, the --config keys and the
    estimator's parameters, with the fields' defaults."""

    FILES = ["--captions", "c.tsv", "--features", "f.mrnf", "--split", "s.tsv", "--out", "o"]

    def resolve(self, *extra):
        return resolve_settings(build_parser().parse_args(["train", *self.FILES, *extra]))

    def configured(self, settings, field):
        config = TrainConfig.from_settings(settings, vocab_size=20, d_i=3)
        owner = config.model if field in dataclasses.fields(ModelConfig) else config
        return getattr(owner, field.name)

    def test_flags_and_choices_unchanged(self):
        train_parser = build_parser()._subparsers._group_actions[0].choices["train"]
        flags = {a.option_strings[-1]: a.choices for a in train_parser._actions}
        assert set(flags) == {
            "--help", "--captions", "--features", "--split", "--out", "--config",
            "--variant", "--d-e1", "--d-e2", "--d-r", "--d-m", "--learning-rate",
            "--lambda-reg", "--batch-size", "--epochs", "--clip-norm", "--seed",
            "--eval-every", "--min-count", "--precision"}
        assert tuple(flags["--variant"]) == ("mrnn", "baseline")
        assert tuple(flags["--precision"]) == ("float64", "float32")

    def test_defaults_are_the_fields(self):
        settings = self.resolve()
        assert settings == {**{f.name: f.default for f in SETTING_FIELDS}, "min_count": 1}
        assert TrainConfig.from_settings(settings, 20, 3) == TrainConfig(ModelConfig(20, 3))

    @pytest.mark.parametrize("field", SETTING_FIELDS, ids=lambda f: f.name)
    def test_flag_sets_the_field(self, field):
        value = other_value(field)
        settings = self.resolve(f"--{field.name.replace('_', '-')}", value)
        assert self.configured(settings, field) == type(field.default)(value) != field.default

    @pytest.mark.parametrize("field", SETTING_FIELDS, ids=lambda f: f.name)
    def test_config_key_sets_the_field(self, field, tmp_path):
        value = other_value(field)
        (tmp_path / "run.cfg").write_text(f"{field.name} = {value}\n")
        settings = self.resolve("--config", str(tmp_path / "run.cfg"))
        assert self.configured(settings, field) == type(field.default)(value) != field.default

    def test_estimator_params_default_to_the_fields(self):
        params = MRNNCaptioner().get_params()
        # fit holds out no validation split, so there is nothing to evaluate every n epochs
        assert {f.name for f in SETTING_FIELDS} - set(params) == {"eval_every"}
        for field in SETTING_FIELDS:
            assert params.get(field.name, field.default) == field.default, field.name

    @pytest.mark.parametrize("spelling", ["flag", "config"])
    def test_clip_norm_none_trains_unclipped(self, workspace, tmp_path, monkeypatch, spelling):
        seen = []

        def spy(config, *args):
            seen.append(config)
            return train(config, *args)

        monkeypatch.setattr(cli, "train", spy)
        (tmp_path / "run.cfg").write_text("clip_norm = None\n")
        extra = (["--clip-norm", "none"] if spelling == "flag"
                 else ["--config", str(tmp_path / "run.cfg")])
        data, out = workspace["data"], tmp_path / "out"
        run_cli("train", "--captions", str(data / "captions.tsv"),
                "--features", str(data / "features.mrnf"),
                "--split", str(data / "split.tsv"), "--out", str(out),
                "--epochs", "1", "--d-e1", "4", "--d-e2", "4", "--d-r", "4", "--d-m", "4", *extra)
        assert [config.clip_norm for config in seen] == [None]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["settings"]["clip_norm"] == "none"

    @pytest.mark.parametrize("flag, value, message", [
        ("--epochs", "two", "epochs = 'two' is not a valid int"),
        ("--d-r", "1.5", "d_r = '1.5' is not a valid int"),
        ("--clip-norm", "off", "clip_norm = 'off' is not a valid float"),
    ])
    def test_bad_value_is_one_error_line(self, workspace, tmp_path, flag, value, message):
        data = workspace["data"]
        proc = run_cli("train", "--captions", str(data / "captions.tsv"),
                       "--features", str(data / "features.mrnf"),
                       "--split", str(data / "split.tsv"),
                       "--out", str(tmp_path / "o"), flag, value, check=False)
        assert (proc.returncode, proc.stderr) == (1, f"error: {message}\n")
        assert not (tmp_path / "o").exists()


def option_names(*command):
    """The dests of a command's options, less --help, --out and the file flags."""
    parser = build_parser()
    for name in command:
        parser = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction)).choices[name]
    files = {"captions", "features", "split", "config", "checkpoint", "vocab"}
    return {action.dest for action in parser._actions if action.option_strings
            and action.dest not in {"help", "out", *files}}


class TestManifest:
    """Each command's manifest records every non-file option it parsed as a
    setting, every file flag given as an input and every file it wrote."""

    def command_args(self, ws, command, tmp_path):
        data, run = ws["data"], ws["run"]
        corpus = ["--captions", str(data / "captions.tsv"),
                  "--features", str(data / "features.mrnf"), "--split", str(data / "split.tsv")]
        model = ["--checkpoint", str(run / "checkpoint.mrnm"), "--vocab", str(run / "vocab.txt")]
        (tmp_path / "run.cfg").write_text("d_r = 4\n")
        return {
            "synth": ["synth", "--images", "4", "--seed", "2"],
            "train": ["train", *corpus, "--config", str(tmp_path / "run.cfg"), "--epochs", "1",
                      "--d-e1", "4", "--d-e2", "4", "--d-m", "4"],
            "eval ppl": ["eval", "ppl", *model, *corpus],
            "eval bleu": ["eval", "bleu", *model, *corpus, "--max-len", "3"],
            "eval retrieval": ["eval", "retrieval", *model, *corpus, "--direction", "i2t",
                               "--norm-images", "3", "--shortlist", "2"],
        }[command]

    @pytest.mark.parametrize("command", ["synth", "train", "eval ppl", "eval bleu",
                                         "eval retrieval"])
    def test_records_every_option_input_and_output(self, workspace, tmp_path, command):
        argv = self.command_args(workspace, command, tmp_path)
        out = tmp_path / "out"
        run_cli(*argv, "--out", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        args = build_parser().parse_args([*argv, "--out", str(out)])
        assert set(manifest["settings"]) == option_names(*command.split())
        if command == "train":
            assert manifest["settings"] == {**resolve_settings(args), "clip_norm": "5.0"}
            assert manifest["settings"]["d_r"] == 4  # resolved from the config file
        else:
            assert manifest["settings"] == {name: getattr(args, name)
                                            for name in manifest["settings"]}
        given = {flag.lstrip("-"): Path(path) for flag, path in zip(argv, argv[1:])
                 if flag in ("--captions", "--features", "--split", "--config",
                             "--checkpoint", "--vocab")}
        assert manifest["inputs"] == {name: {"path": str(path), "sha256": sha256(path)}
                                      for name, path in given.items()}
        assert sorted([*manifest["outputs"].values(), "manifest.json"]) == \
               sorted(p.name for p in out.iterdir())

    def test_records_the_blas_setup(self, tmp_path):
        # the BLAS thread count changes the bits of a GEMM, so every manifest
        # records the BLAS setup, under its own key: two runs of one process
        # write the same bytes
        manifests = []
        for sub in ("a", "b"):
            run_cli("synth", "--images", "4", "--seed", "2", "--out", str(tmp_path / sub))
            manifests.append((tmp_path / sub / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        manifest = json.loads(manifests[0])
        assert "blas" not in manifest["settings"]
        blas = manifest["blas"]
        assert blas == cli.blas_setup()
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert (blas["name"], blas["version"]) == (build["name"], build["version"])
        assert blas["cpu_count"] == os.cpu_count()
        assert blas["env"] == {var: os.environ.get(var) for var in
                               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        assert blas["threads"] is None or blas["threads"] >= 1

    def test_bleu_max_len_is_recorded(self, workspace, tmp_path):
        # without length matching --max-len changes the captions, so the scores
        settings, metrics = [], []
        for max_len in ("2", "20"):
            out = tmp_path / max_len
            run_cli("eval", "bleu", *eval_args(workspace), "--no-length-match",
                    "--max-len", max_len, "--out", str(out))
            settings.append(json.loads((out / "manifest.json").read_text())["settings"])
            metrics.append((out / "metrics.json").read_text())
        assert metrics[0] != metrics[1]
        assert [s["max_len"] for s in settings] == [2, 20]
        assert all(s["no_length_match"] is True for s in settings)


class TestRetrievalScores:
    """The engine-backed score matrices against per-pair sentence_log2prob."""

    @pytest.fixture(scope="class")
    def setup(self):
        spec = SynthSpec(n_topics=3, captions_per_image=2, train_frac=0.6, val_frac=0.2)
        dataset, store, vocab = generate_synthetic_corpus(Rng(5), 15, spec)
        cfg = ModelConfig(vocab_size=vocab.size, d_i=store.feature_dim,
                          d_e1=5, d_e2=6, d_r=7, d_m=9)
        return randomize_biases(ModelParams.initialize(cfg, Rng(8)), 9), dataset, store

    def scores(self, setup, direction, shortlist=None):
        params, dataset, store = setup
        args = argparse.Namespace(direction=direction, norm_images=4, seed=2,
                                  shortlist=shortlist)
        return _retrieval_scores(args, params, dataset.train, store, dataset)

    def test_t2i_matches_per_pair_oracle(self, setup):
        params, dataset, store = setup
        scores, relevant = self.scores(setup, "t2i")
        image_ids = sorted({ex.image_id for ex in dataset.train})
        # -log2 perplexity: summed log2 probability per predicted position
        oracle = [[sentence_log2prob_oracle(params, ex.tokens, store.get(i))
                   / (len(ex.tokens) + 1) for i in image_ids] for ex in dataset.train]
        np.testing.assert_allclose(scores, oracle, rtol=1e-12, atol=0)
        assert relevant.tolist() == [[ex.image_id == i for i in image_ids]
                                     for ex in dataset.train]

    @pytest.mark.parametrize("shortlist", [None, 3])
    def test_i2t_matches_per_pair_oracle(self, setup, shortlist):
        params, dataset, store = setup
        scores, relevant = self.scores(setup, "i2t", shortlist)
        image_ids = sorted({ex.image_id for ex in dataset.train})
        assert relevant.tolist() == [[ex.image_id == i for ex in dataset.train]
                                     for i in image_ids]
        norm = sorted(Rng(2).choice(image_ids, 4))
        oracle = np.empty((len(image_ids), len(dataset.train)))
        for c, ex in enumerate(dataset.train):
            marginal = math.log2(sum(2.0 ** sentence_log2prob(params, ex.tokens, store.get(i))[0]
                                     for i in norm) / len(norm))
            for q, image_id in enumerate(image_ids):
                oracle[q, c] = sentence_log2prob(params, ex.tokens, store.get(image_id))[0] - marginal
        finite = np.isfinite(scores)
        assert finite.all() == (shortlist is None)
        np.testing.assert_allclose(scores[finite], oracle[finite], rtol=0, atol=1e-12)

    def test_i2t_shortlist_keeps_the_captions_of_the_nearest_images(self, setup):
        params, dataset, store = setup
        scores, _ = self.scores(setup, "i2t", 3)
        image_ids = sorted({ex.image_id for ex in dataset.train})
        for q, qid in enumerate(image_ids):
            qvec = store.get(qid)
            near = sorted(image_ids,
                          key=lambda c: (float(np.linalg.norm(store.get(c) - qvec)), c))[:3]
            expected = [ex.image_id in near for ex in dataset.train]
            assert np.isfinite(scores[q]).tolist() == expected, qid

    def test_i2t_shortlist_of_one_keeps_each_images_own_captions(self, setup):
        # ids that differ only by trailing NULs, which numpy str arrays drop
        params, dataset, _ = setup
        ids = ["im", "im\x00", "im\x00\x00"]
        store = ImageFeatureStore(ids, Rng(4).uniform(-1, 1, 3 * params.config.d_i)
                                  .reshape(3, params.config.d_i))
        subset = [CaptionedExample(image_id, ex.tokens, "")
                  for image_id, ex in zip(ids * 2, dataset.train)]
        args = argparse.Namespace(direction="i2t", norm_images=4, seed=2, shortlist=1)
        scores, relevant = _retrieval_scores(args, params, subset, store, DatasetSplit(subset))
        own = [[ex.image_id == image_id for ex in subset] for image_id in sorted(ids)]
        assert np.isfinite(scores).tolist() == own
        assert relevant.tolist() == own

    def test_i2t_shortlist_keeps_the_own_image_of_a_twin(self, tmp_path):
        # "a" and "b" have equal features, so "a" fills the one-image
        # shortlist of "b" on the lower-row tie unless "b" keeps its own place
        vocab = build_vocabulary(["sand waves", "summit ridge", "pines"], min_count=1)
        save_vocab(vocab, tmp_path / "vocab.txt")
        save_captions([("a", "sand waves"), ("b", "summit ridge"), ("c", "pines")],
                      tmp_path / "captions.tsv")
        save_features(ImageFeatureStore(["a", "b", "c"], [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                      tmp_path / "features.mrnf")
        cfg = ModelConfig(vocab_size=vocab.size, d_i=2, d_e1=3, d_e2=3, d_r=4, d_m=5)
        save_checkpoint(ModelParams.initialize(cfg, Rng(0)), tmp_path / "checkpoint.mrnm")
        proc = run_cli("eval", "retrieval", "--direction", "i2t", "--shortlist", "1",
                       "--norm-images", "3", "--subset", "all",
                       "--checkpoint", str(tmp_path / "checkpoint.mrnm"),
                       "--vocab", str(tmp_path / "vocab.txt"),
                       "--captions", str(tmp_path / "captions.tsv"),
                       "--features", str(tmp_path / "features.mrnf"))
        assert proc.stderr == ""
        assert proc.stdout.startswith("i2t R@1 100.0 ")


class TestGradcheckCli:
    def test_passes_by_default(self):
        proc = run_cli("gradcheck", "--samples", "3")
        assert "PASS" in proc.stdout

    def test_corrupt_fails_and_names_block(self):
        proc = run_cli("gradcheck", "--samples", "1", "--corrupt", "V_w",
                       check=False)
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout and "V_w" in proc.stdout

    def test_reports_redraws_and_fixed_threshold(self):
        proc = run_cli("gradcheck", "--samples", "3", "--seed", "1")
        assert "PASS" in proc.stdout
        assert "instances (" in proc.stdout and " redrawn), threshold 1e-04" in proc.stdout

    def test_threshold_is_not_a_flag(self):
        gradcheck = build_parser()._subparsers._group_actions[0].choices["gradcheck"]
        flags = {a.option_strings[-1] for a in gradcheck._actions}
        assert flags == {"--help", "--samples", "--seed", "--variant", "--corrupt"}

    def test_variant_choices_are_the_model_variants(self):
        gradcheck = build_parser()._subparsers._group_actions[0].choices["gradcheck"]
        flags = {a.option_strings[-1]: a.choices for a in gradcheck._actions}
        assert tuple(flags["--variant"]) == VARIANTS

    @pytest.mark.parametrize("variant,block", [("mrnn", "XYZ"), ("baseline", "V_I")])
    def test_unknown_corrupt_block_is_one_error_line(self, monkeypatch, variant, block):
        def no_work(**kwargs):
            raise AssertionError("gradient_check ran")
        monkeypatch.setattr(cli, "gradient_check", no_work)
        proc = run_cli("gradcheck", "--variant", variant, "--corrupt", block, check=False)
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and repr(block) in lines[0]
        blocks = ModelConfig(variant=variant, vocab_size=5, d_i=2).param_shapes()
        assert lines[0].endswith("valid blocks: " + ", ".join(blocks))

    def test_deterministic_output(self):
        a = run_cli("gradcheck", "--samples", "1", "--seed", "3").stdout
        b = run_cli("gradcheck", "--samples", "1", "--seed", "3").stdout
        assert a == b


class TestVocabularyMismatch:
    """A vocabulary whose size differs from the checkpoint's is refused."""

    @pytest.fixture(params=["one_extra_word", "five_lines"])
    def bad_vocab(self, request, workspace, tmp_path):
        lines = (workspace["run"] / "vocab.txt").read_text().splitlines()
        lines = lines + ["zzextra"] if request.param == "one_extra_word" else lines[:5]
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("command", ["generate", "nearest", "eval ppl", "eval retrieval"])
    def test_one_error_line(self, workspace, bad_vocab, command):
        checkpoint = str(workspace["run"] / "checkpoint.mrnm")
        if command == "generate":
            args = ["generate", "--checkpoint", checkpoint, "--vocab", str(bad_vocab),
                    "--features", str(workspace["data"] / "features.mrnf"),
                    "--image-id", "img0000"]
        elif command == "nearest":
            args = ["nearest", "--checkpoint", checkpoint, "--vocab", str(bad_vocab),
                    "--token", "the"]
        else:
            args = [*command.split(), *eval_args(workspace, "--subset", "val")]
            args[args.index("--vocab") + 1] = str(bad_vocab)
            if command == "eval retrieval":
                args += ["--direction", "t2i"]
        proc = run_cli(*args, check=False)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "words" in proc.stderr


class TestNearest:
    def test_prints_k_tokens(self, workspace):
        proc = run_cli("nearest", "--checkpoint", str(workspace["run"] / "checkpoint.mrnm"),
                       "--vocab", str(workspace["run"] / "vocab.txt"),
                       "--token", "the", "-k", "3")
        assert len(proc.stdout.strip().splitlines()) == 3

    def test_unknown_token_errors(self, workspace):
        proc = run_cli("nearest", "--checkpoint", str(workspace["run"] / "checkpoint.mrnm"),
                       "--vocab", str(workspace["run"] / "vocab.txt"),
                       "--token", "zzzz", check=False)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: token 'zzzz' not in vocabulary\n"


class TestEntryPoint:
    def test_python_m_mrnn_exit_codes(self, workspace):
        # the one test of `python -m mrnn` itself, which every other test runs
        # as cli.main in-process: the interpreter's exit code is main()'s
        # return value, or argparse's 2 on a usage error
        model = ["--checkpoint", str(workspace["run"] / "checkpoint.mrnm"),
                 "--vocab", str(workspace["run"] / "vocab.txt")]
        proc = run_cli_process(0, "nearest", *model, "--token", "the", "-k", "2")
        assert (proc.returncode, proc.stderr, len(proc.stdout.splitlines())) == (0, "", 2)
        proc = run_cli_process(0, "nearest", *model, "--token", "zzzz", check=False)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", "error: token 'zzzz' not in vocabulary\n")
        proc = run_cli_process(0, "nearest", *model, check=False)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.endswith(
            "mrnn nearest: error: the following arguments are required: --token\n")
