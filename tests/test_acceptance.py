"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import hashlib
import math
import time

import numpy as np

from helpers import oracle_bleu, oracle_first_rank, oracle_top, run_cli, run_cli_process
from mrnn.corpus import SynthSpec, generate_synthetic_corpus
from mrnn.evaluation import bleu, corpus_perplexity, recall_curve, retrieval_eval, shortlist
from mrnn.inference import (GenerationConfig, generate, log2prob_matrix,
                            marginal_log2prob, sentence_log2prob)
from mrnn.model import ModelConfig, ModelParams
from mrnn.numerics import Rng
from mrnn.training import TrainConfig, cost, gradient_check, train
from mrnn.corpus import ImageFeatureStore


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_gradient_fidelity():
    t0 = time.perf_counter()
    rep = gradient_check(n_samples=20, seed=0, variant="mrnn")
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 30.0
    report(1, ok, f"max relative error {rep.max_rel_err:.3e} < 1e-4 over 20 "
                  f"instances in {elapsed:.1f}s (< 30s)")


def test_criterion_2_memorization_limit():
    t0 = time.perf_counter()
    spec = SynthSpec(n_topics=8, captions_per_image=1, noise_dim=2,
                     train_frac=1.0, val_frac=0.0)
    split, store, vocab = generate_synthetic_corpus(Rng(11), 8, spec)
    config = TrainConfig(
        model=ModelConfig(vocab_size=vocab.size, d_i=store.feature_dim,
                          d_e1=32, d_e2=32, d_r=64, d_m=64),
        learning_rate=0.5, lambda_reg=0.0, batch_size=4, epochs=120, seed=3)
    params, _ = train(config, split, store)
    ppl = corpus_perplexity(params, split.train, store)
    reproduced = all(
        generate(params, vocab, store.get(ex.image_id), GenerationConfig())
        == vocab.decode(ex.tokens)
        for ex in split.train)
    elapsed = time.perf_counter() - t0
    ok = ppl < 1.3 and reproduced and config.epochs <= 200 and elapsed < 60.0
    report(2, ok, f"train ppl {ppl:.4f} < 1.3 after {config.epochs} epochs "
                  f"(<= 200); all 8 captions reproduced exactly: {reproduced}; "
                  f"{elapsed:.1f}s (< 60s)")


def test_criterion_3_uniform_model_identities():
    m = 23
    cfg = ModelConfig(vocab_size=m, d_i=4, d_e1=4, d_e2=4, d_r=5, d_m=6)
    params = ModelParams.zeros(cfg)
    store = ImageFeatureStore(["im0"], [[0.1, -0.2, 0.3, 0.4]])
    from mrnn.corpus import CaptionedExample
    examples = [CaptionedExample("im0", [3, 4, 5], ""),
                CaptionedExample("im0", [6, 7, 8, 9], "")]
    ppl = corpus_perplexity(params, examples, store)
    data_term = cost(params, examples, store, 0.0)
    ppl_err = abs(ppl - m)
    cost_err = abs(data_term - math.log2(m))
    ok = ppl_err < 1e-9 and cost_err < 1e-9
    report(3, ok, f"zero model: corpus ppl {ppl!r} == M={m} (err {ppl_err:.1e}); "
                  f"data term {data_term!r} == log2(M) (err {cost_err:.1e})")


def test_criterion_4_image_conditioning_beats_baseline():
    t0 = time.perf_counter()
    spec = SynthSpec(n_topics=5, captions_per_image=2, noise_dim=4,
                     train_frac=0.8, val_frac=0.2)
    split, store, vocab = generate_synthetic_corpus(Rng(42), 200, spec)
    gaps = []
    for seed in (0, 1, 2):
        ppls = {}
        for variant in ("mrnn", "baseline"):
            config = TrainConfig(
                model=ModelConfig(vocab_size=vocab.size, d_i=store.feature_dim,
                                  variant=variant, d_e1=32, d_e2=32,
                                  d_r=64, d_m=64),
                learning_rate=0.25, batch_size=16, epochs=20, seed=seed,
                eval_every=20)
            params, report_ = train(config, split, store)
            ppls[variant] = report_.rows[-1].val_ppl
        gaps.append(1.0 - ppls["mrnn"] / ppls["baseline"])
    elapsed = time.perf_counter() - t0
    ok = all(g >= 0.10 for g in gaps) and elapsed < 600.0
    report(4, ok, "m-RNN vs baseline relative val-ppl gaps over 3 seeds: "
                  + ", ".join(f"{g:.1%}" for g in gaps)
                  + f" (each >= 10%); {elapsed:.0f}s (< 600s)")


def test_criterion_5_retrieval_round_trip():
    spec = SynthSpec(n_topics=50, captions_per_image=1, noise_dim=2,
                     train_frac=1.0, val_frac=0.0)
    split, store, vocab = generate_synthetic_corpus(Rng(9), 50, spec)
    config = TrainConfig(
        model=ModelConfig(vocab_size=vocab.size, d_i=store.feature_dim,
                          d_e1=32, d_e2=32, d_r=64, d_m=96),
        learning_rate=0.4, lambda_reg=0.0, batch_size=8, epochs=70, seed=5)
    params, _ = train(config, split, store)
    examples = split.train
    image_ids = store.ids()

    # text -> image: the most probable image, i.e. the lowest perplexity; the
    # store's ids are sorted, so argmax's first-index rule breaks ties by id
    best = log2prob_matrix(params, [ex.tokens for ex in examples], store.matrix()).argmax(axis=1)
    t2i_hits = sum(image_ids[j] == ex.image_id for j, ex in zip(best, examples))
    t2i_scores = np.array([[-sentence_log2prob(params, ex.tokens, store.get(i))[1]
                            for i in image_ids] for ex in examples])
    t2i_relevant = np.array([[i == ex.image_id for i in image_ids] for ex in examples])

    # image -> text: normalized probability, marginal over all 50 train images
    norm = [store.get(i) for i in image_ids]
    marginals = [marginal_log2prob(params, ex.tokens, norm) for ex in examples]
    i2t_scores = np.array(
        [[sentence_log2prob(params, ex.tokens, store.get(q))[0] - m
          for ex, m in zip(examples, marginals)] for q in image_ids])
    i2t_relevant = t2i_relevant.T

    t2i_metrics = retrieval_eval(t2i_scores, t2i_relevant)
    i2t_metrics = retrieval_eval(i2t_scores, i2t_relevant)
    i2t_hits = sum(r == 1 for r in i2t_metrics.ranks)

    # exact agreement with the brute-force rank oracle
    t2i_oracle = [oracle_first_rank(t2i_scores[q], t2i_relevant[q])
                  for q in range(len(examples))]
    i2t_oracle = [oracle_first_rank(i2t_scores[q], i2t_relevant[q])
                  for q in range(len(image_ids))]
    oracle_match = (t2i_metrics.ranks == t2i_oracle
                    and i2t_metrics.ranks == i2t_oracle
                    and t2i_metrics.med_r == sorted(t2i_oracle)[(50 - 1) // 2])

    ok = (t2i_hits >= 45 and i2t_hits >= 45 and oracle_match)
    report(5, ok, f"t2i rank-1 {t2i_hits}/50 (>= 45), i2t rank-1 {i2t_hits}/50 "
                  f"(>= 45); retrieval_eval ranks match brute-force oracle "
                  f"exactly: {oracle_match}")


def test_criterion_6_metric_oracles():
    # 20 BLEU fixtures: handcrafted edge cases plus seeded-random pairs
    fixtures = [
        (list("abc"), [list("abc")]),
        (list("abbc"), [list("abcd")]),
        (list("aaaa"), [list("ab")]),
        (list("ab"), [list("abcdef")]),
        (list("abcdef"), [list("ab")]),
        (list("xyz"), [list("abc")]),
        (list("aabb"), [list("abab"), list("bbaa")]),
        (list("a"), [list("a")]),
    ]
    rng = Rng(77)
    alphabet = list("abcde")
    while len(fixtures) < 20:
        cand = [alphabet[rng.randint(5)] for _ in range(2 + rng.randint(7))]
        refs = [[alphabet[rng.randint(5)] for _ in range(2 + rng.randint(7))]
                for _ in range(1 + rng.randint(3))]
        fixtures.append((cand, refs))

    worst = 0.0
    for cand, refs in fixtures:
        ours = bleu([cand], [refs]).as_tuple()
        expect = oracle_bleu([cand], [refs])
        worst = max(worst, max(abs(a - b) for a, b in zip(ours, expect)))
    corpus_ours = bleu([c for c, _ in fixtures], [r for _, r in fixtures]).as_tuple()
    corpus_expect = oracle_bleu([c for c, _ in fixtures], [r for _, r in fixtures])
    worst = max(worst, max(abs(a - b) for a, b in zip(corpus_ours, corpus_expect)))
    bleu_ok = worst <= 1e-9

    # recall_curve and shortlist vs exhaustive computation on small fixtures
    rng = Rng(78)
    scores = np.array([[rng.random() for _ in range(9)] for _ in range(5)])
    gt = {q: {(q * 2) % 9, (q * 2 + 1) % 9} for q in range(5)}
    relevant = np.array([[j in gt[q] for j in range(9)] for q in range(5)])
    fractions = [0.12, 0.3, 0.5, 0.78, 1.0]
    curve = recall_curve(scores, relevant, fractions)
    curve_ok = True
    for f, mean in curve.points:
        top = oracle_top(f, 9)
        total = sum(
            sum(1 for j in sorted(range(9), key=lambda j: (-scores[q, j], j))[:top]
                if j in gt[q]) for q in range(5))
        curve_ok &= mean == total / 5

    points = Rng(79).uniform(-1, 1, 24).reshape(8, 3)
    near = shortlist(points, points, size=4)
    short_ok = True
    for q, qvec in enumerate(points):
        expected = sorted(range(8),
                          key=lambda c: (float(np.linalg.norm(points[c] - qvec)), c))[:4]
        short_ok &= near[q].tolist() == expected

    ok = bleu_ok and curve_ok and short_ok
    report(6, ok, f"BLEU vs brute-force oracle on 20 fixtures: worst abs diff "
                  f"{worst:.1e} (<= 1e-9); recall_curve exhaustive match: "
                  f"{curve_ok}; shortlist exhaustive match: {short_ok}")


def test_criterion_7_determinism(tmp_path):
    data = tmp_path / "data"
    run_cli("synth", "--out", str(data), "--images", "10", "--topics", "3",
            "--seed", "4", "--train-frac", "0.8", "--val-frac", "0.0")
    train_args = ("--captions", str(data / "captions.tsv"),
                  "--features", str(data / "features.mrnf"),
                  "--split", str(data / "split.tsv"),
                  "--epochs", "3", "--d-e1", "8", "--d-e2", "8", "--d-r", "12",
                  "--d-m", "12", "--seed", "6")
    # each run is a process of its own, with its own string-hash seed, so
    # output that follows set or dict order differs between the two runs
    for hashseed, sub in ((1, "r1"), (2, "r2")):
        run_cli_process(hashseed, "train", *train_args, "--out", str(tmp_path / sub))

    def same(name, a="r1", b="r2"):
        return (hashlib.sha256((tmp_path / a / name).read_bytes()).digest()
                == hashlib.sha256((tmp_path / b / name).read_bytes()).digest())
    ckpt_same = same("checkpoint.mrnm") and same("vocab.txt")
    # the wall-clock columns are in timing.csv, so the report reruns too
    manifest_same = same("manifest.json") and same("train_report.csv")

    eval_args = ("--checkpoint", str(tmp_path / "r1" / "checkpoint.mrnm"),
                 "--vocab", str(tmp_path / "r1" / "vocab.txt"),
                 "--captions", str(data / "captions.tsv"),
                 "--features", str(data / "features.mrnf"),
                 "--split", str(data / "split.tsv"), "--subset", "train",
                 "--norm-images", "4")
    metrics_same = eval_manifests_same = True
    for direction in ("i2t", "t2i"):
        for hashseed, sub in ((1, "e1"), (2, "e2")):
            run_cli_process(hashseed, "eval", "retrieval", "--direction", direction,
                            *eval_args, "--out", str(tmp_path / f"{direction}-{sub}"))
        pair = (f"{direction}-e1", f"{direction}-e2")
        metrics_same &= all(same(name, *pair)
                            for name in ("metrics.json", "metrics.csv", "curve.csv"))
        eval_manifests_same &= same("manifest.json", *pair)

    ok = ckpt_same and manifest_same and metrics_same and eval_manifests_same
    report(7, ok, f"re-run checkpoints and vocabularies byte-identical: {ckpt_same}; "
                  f"train manifests and reports identical: {manifest_same}; re-run "
                  f"metric files identical: {metrics_same}; eval manifests identical: "
                  f"{eval_manifests_same}")
