"""Acceptance suite: eight criteria, one pass/fail line printed per criterion.

Run with `pytest tests/test_acceptance.py -v -s`. The overfitting experiments
(criteria 4 and 5) train for real and take a few minutes combined.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from rnnsum import autodiff as ad
from rnnsum.cli import main as cli_main
from rnnsum.corpus import Document, build_vocab, encode, write_corpus
from rnnsum.evaluation import SelectionPolicy, evaluate_corpus, select
from rnnsum.model import FACTORS, ModelConfig, forward, init_params
from rnnsum.oracle import greedy_trace, label_corpus
from rnnsum.rouge import LengthLimit, ngram_counts, rouge_l, rouge_n
from rnnsum.synthetic import synthetic_corpus
from rnnsum.training import (
    TrainConfig,
    abstractive_loss,
    adadelta_step,
    clip_gradients,
    extractive_loss,
    train,
)


def report(num, name, ok, detail):
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# shared independent oracles


def brute_ngram_counts(cand, ref, n):
    """Clipped n-gram match via explicit list removal."""
    cand_grams = [tuple(cand[i : i + n]) for i in range(len(cand) - n + 1)]
    ref_grams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
    pool = list(ref_grams)
    match = 0
    for gram in cand_grams:
        if gram in pool:
            pool.remove(gram)
            match += 1
    return match, len(cand_grams), len(ref_grams)


def brute_lcs(a, b):
    """LCS length by exhaustive subsequence enumeration of the shorter side."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    for length in range(len(short), 0, -1):
        for idxs in combinations(range(len(short)), length):
            sub = [short[i] for i in idxs]
            it = iter(long_)
            if all(tok in it for tok in sub):
                return length
    return 0


def brute_f1(cand, ref):
    match, c, r = brute_ngram_counts(cand, ref, 1)
    if not c or not r:
        return 0.0
    precision, recall = match / c, match / r
    return 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# criterion 1: gradient fidelity


def _generic_point(store, seed, scale=0.8):
    # a well-conditioned generic point: all gradient magnitudes must sit above
    # the float64 noise floor of the central-difference oracle
    rng = np.random.default_rng(seed)
    for _, node in store.items():
        node.value[...] = rng.uniform(-scale, scale, size=node.value.shape)


def test_criterion_1_gradient_fidelity():
    doc = [[0, 1], [2, 3], [4, 5]]
    labels = [1, 0, 1]
    reference = [5, 2, 7]
    started = time.perf_counter()

    cfg = ModelConfig(
        vocab_size=8, embedding_dim=4, hidden_dim=4, position_embedding_dim=2,
        max_abs_positions=3, num_rel_segments=2,
    )
    store = ad.ParameterStore()
    params = init_params(cfg, store, np.random.default_rng(0))
    _generic_point(store, seed=101)
    err_ext = ad.grad_check(lambda: extractive_loss(params, doc, labels), store, eps=1e-5)

    cfg_abs = ModelConfig(
        vocab_size=8, embedding_dim=4, hidden_dim=4, position_embedding_dim=2,
        max_abs_positions=3, num_rel_segments=2, decoder_enabled=True,
    )
    store_abs = ad.ParameterStore()
    params_abs = init_params(cfg_abs, store_abs, np.random.default_rng(0))
    _generic_point(store_abs, seed=202)
    err_abs = ad.grad_check(
        lambda: abstractive_loss(params_abs, doc, reference), store_abs, eps=1e-5
    )

    elapsed = time.perf_counter() - started
    ok = err_ext < 1e-4 and err_abs < 1e-4 and elapsed < 10.0
    report(
        1, "gradient fidelity", ok,
        f"extractive {err_ext:.2e}, abstractive {err_abs:.2e}, {elapsed:.1f}s",
    )
    assert err_ext < 1e-4
    assert err_abs < 1e-4
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 2: ROUGE oracle equivalence


def test_criterion_2_rouge_oracle_equivalence():
    rng = np.random.default_rng(2025)
    alphabet = ["a", "b", "c", "d"]
    started = time.perf_counter()
    for _ in range(1000):
        cand = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(0, 9))]
        ref = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(0, 9))]
        for n in (1, 2):
            match, c, r = brute_ngram_counts(cand, ref, n)
            got = rouge_n(ngram_counts(cand, n), ngram_counts(ref, n))
            assert got.recall == (match / r if r else 0.0)
            assert got.precision == (match / c if c else 0.0)
        lcs = brute_lcs(cand, ref)
        got = rouge_l(cand, ref)
        assert got.recall == (lcs / len(ref) if ref else 0.0)
        assert got.precision == (lcs / len(cand) if cand else 0.0)
    elapsed = time.perf_counter() - started
    ok = elapsed < 30.0
    report(2, "ROUGE oracle equivalence", ok, f"1000 pairs exact, {elapsed:.1f}s")
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 3: greedy-oracle step equivalence


def brute_greedy_steps(sentences, reference_tokens):
    selected = set()
    best = 0.0
    steps = []
    while True:
        choice, choice_score = None, best
        for i in range(len(sentences)):
            if i in selected:
                continue
            cand = [t for j in sorted(selected | {i}) for t in sentences[j]]
            score = brute_f1(cand, reference_tokens)
            if score > choice_score:
                choice, choice_score = i, score
        if choice is None:
            return steps
        selected.add(choice)
        best = choice_score
        steps.append((choice, best))


def test_criterion_3_greedy_oracle_step_equivalence():
    rng = np.random.default_rng(33)
    alphabet = ["a", "b", "c", "d"]
    started = time.perf_counter()
    for _ in range(200):
        n_sents = int(rng.integers(1, 7))
        sentences = [
            [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(1, 6))]
            for _ in range(n_sents)
        ]
        summary = [
            [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(1, 6))]
            for _ in range(int(rng.integers(1, 3)))
        ]
        doc = Document("r", sentences, summary=summary)
        trace = greedy_trace(doc, "rouge1_f1")
        expected = brute_greedy_steps(sentences, [t for s in summary for t in s])
        assert trace.picked == [i for i, _ in expected]
        for got, (_, want) in zip(trace.scores, expected):
            assert got == pytest.approx(want, abs=1e-12)
        assert all(b >= a for a, b in zip(trace.scores, trace.scores[1:]))
    elapsed = time.perf_counter() - started
    ok = elapsed < 30.0
    report(3, "greedy-oracle step equivalence", ok, f"200 documents exact, {elapsed:.1f}s")
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criteria 4 and 5: overfitting experiments


@pytest.fixture(scope="module")
def overfit_corpus():
    docs = synthetic_corpus(np.random.default_rng(42))
    labeled, _ = label_corpus(docs, "rouge1_f1")
    assert all(2 <= sum(d.labels) <= 3 for d in labeled)
    return labeled


def overfit_model_config(vocab_size, decoder=False):
    return ModelConfig(
        vocab_size=vocab_size, embedding_dim=16, hidden_dim=32,
        position_embedding_dim=8, max_abs_positions=20, num_rel_segments=5,
        decoder_enabled=decoder,
    )


def test_criterion_4_overfit_extractive(overfit_corpus, tmp_path):
    started = time.perf_counter()
    vocab = build_vocab(overfit_corpus, cap=150_000)
    cfg = overfit_model_config(len(vocab))
    store = ad.ParameterStore()
    params = init_params(cfg, store, np.random.default_rng([7, 0]))
    config = TrainConfig(
        mode="extractive", batch_size=4, max_epochs=120, patience=300, seed=7
    )
    result = train(store, params, vocab, overfit_corpus, overfit_corpus, config, tmp_path)
    accuracy = result.final_train_accuracy

    recovered = total_pos = 0
    for doc in overfit_corpus:
        probs = forward(params, encode(doc, vocab)).probability_values()
        k = sum(doc.labels)
        chosen = select(probs, doc, SelectionPolicy("topk", k), LengthLimit("none"))
        positives = {i for i, y in enumerate(doc.labels) if y}
        recovered += len(positives & set(chosen))
        total_pos += len(positives)
    recovery = recovered / total_pos

    elapsed = time.perf_counter() - started
    ok = accuracy >= 0.95 and recovery >= 0.90 and elapsed < 300.0
    report(
        4, "overfit experiment (extractive)", ok,
        f"accuracy {accuracy:.3f}, top-k recovery {recovery:.3f}, "
        f"{result.stopped_epoch} epochs in {elapsed:.0f}s",
    )
    assert accuracy >= 0.95
    assert recovery >= 0.90
    assert elapsed < 300.0


def test_criterion_5_overfit_abstractive(overfit_corpus, tmp_path):
    started = time.perf_counter()
    vocab = build_vocab(overfit_corpus, cap=150_000)
    cfg = overfit_model_config(len(vocab), decoder=True)
    store = ad.ParameterStore()
    params = init_params(cfg, store, np.random.default_rng([7, 0]))
    config = TrainConfig(
        mode="abstractive", batch_size=4, max_epochs=80, patience=300, seed=7
    )
    result = train(store, params, vocab, overfit_corpus, overfit_corpus, config, tmp_path)
    first = result.epochs[0].train_perplexity
    final = result.final_train_perplexity

    # the summary state must carry signal into the encoder stack
    from rnnsum.corpus import encode_summary

    doc = overfit_corpus[0]
    store.zero_grad()
    loss = abstractive_loss(params, encode(doc, vocab), encode_summary(doc, vocab))
    ad.backward(loss)
    encoder_grads = [
        float(np.abs(node.grad).max())
        for name, node in store.items()
        if not name.startswith("decoder.") and name != "embedding"
    ]
    nonzero = sum(1 for g in encoder_grads if g > 0)

    elapsed = time.perf_counter() - started
    ok = final < 0.2 * first and nonzero == len(encoder_grads) and elapsed < 600.0
    report(
        5, "overfit experiment (abstractive)", ok,
        f"perplexity {first:.1f} -> {final:.2f} (ratio {final / first:.3f}), "
        f"{nonzero}/{len(encoder_grads)} encoder tensors with gradient, {elapsed:.0f}s",
    )
    assert final < 0.2 * first
    assert nonzero == len(encoder_grads)
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# criterion 6: structural invariants


def test_criterion_6_structural_invariants():
    from reference_tape import reassembled

    from rnnsum.model import encode_document, score_sentences

    checks = []

    # six-factor identity and summary-state recurrence at 1e-12, random params
    for seed in range(5):
        cfg = ModelConfig(
            vocab_size=8, embedding_dim=3, hidden_dim=4, position_embedding_dim=2,
            max_abs_positions=6, num_rel_segments=3,
        )
        store = ad.ParameterStore()
        params = init_params(cfg, store, np.random.default_rng(seed))
        _generic_point(store, seed=seed + 700, scale=0.6)
        enc = encode_document(params, [[0, 1], [2, 3], [4, 5], [6, 7]])
        probs, factors, states = score_sentences(params, enc.sentence_reps, enc.doc_rep)
        assert np.abs(reassembled(factors) - probs).max() < 1e-12
        for j, (p, h) in enumerate(zip(probs, enc.sentence_reps)):
            step = states[j + 1] - states[j]
            assert np.abs(step - p * h).max() < 1e-12
    checks.append("factor identity & recurrence @1e-12")

    # novelty at the first sentence is exactly zero for 100 random draws
    for seed in range(100):
        cfg = ModelConfig(
            vocab_size=6, embedding_dim=2, hidden_dim=3, position_embedding_dim=2,
            max_abs_positions=4, num_rel_segments=2,
        )
        store = ad.ParameterStore()
        params = init_params(cfg, store, np.random.default_rng(seed))
        _generic_point(store, seed=seed + 9000, scale=1.0)
        result = forward(params, [[0, 1], [2, 3]])
        assert result.factors[0, FACTORS.index("novelty")] == 0.0
    checks.append("novelty@j=1 == 0 x100")

    # zero parameters emit probability exactly 0.5
    cfg = ModelConfig(
        vocab_size=6, embedding_dim=2, hidden_dim=3, position_embedding_dim=2,
        max_abs_positions=4, num_rel_segments=2,
    )
    store = ad.ParameterStore()
    params = init_params(cfg, store, np.random.default_rng(0))
    for _, node in store.items():
        node.value[...] = 0.0
    assert forward(params, [[0, 1], [2, 3]]).probability_values() == [0.5, 0.5]
    checks.append("zero params -> 0.5")

    # clipping caps the global norm and preserves direction
    store = ad.ParameterStore()
    w = store.add("w", np.zeros(2))
    w.grad[...] = [3.0, 4.0]
    clip_gradients(store, 1.0)
    assert np.allclose(w.grad, [0.6, 0.8], atol=1e-12)
    rng = np.random.default_rng(1)
    store = ad.ParameterStore()
    a = store.add("a", np.zeros(7))
    a.grad[...] = rng.normal(size=7) * 3
    before = a.grad.copy()
    clip_gradients(store, 2.0)
    cos = (a.grad @ before) / (np.linalg.norm(a.grad) * np.linalg.norm(before))
    assert abs(cos - 1.0) < 1e-12
    assert np.linalg.norm(a.grad) <= 2.0 + 1e-12
    checks.append("clip cap & direction")

    # adadelta first step for g=1, rho=0.95, eps=1e-6
    store = ad.ParameterStore()
    w = store.add("w", np.array([0.0]))
    w.grad[...] = 1.0
    adadelta_step(store, rho=0.95, eps=1e-6)
    assert abs(float(w.value[0]) - (-0.0044721)) < 1e-7
    checks.append("adadelta first step -0.0044721")

    report(6, "structural invariants", True, "; ".join(checks))


# ---------------------------------------------------------------------------
# criterion 7: end-to-end determinism


def test_criterion_7_end_to_end_determinism(tmp_path):
    docs = synthetic_corpus(
        np.random.default_rng(1), n_docs=6, sentence_range=(4, 6), words_range=(3, 5)
    )
    labeled, _ = label_corpus(docs, "rouge1_f1")
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(labeled, corpus)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "\n".join(
            [
                "seed = 13",
                "embedding_dim = 8",
                "hidden_dim = 8",
                "position_embedding_dim = 4",
                "num_rel_segments = 3",
                "max_sentences = 12",
                "batch_size = 2",
                "max_epochs = 3",
                "patience = 5",
                "policy = topk:2",
                "flavor = f1",
            ]
        )
        + "\n",
        encoding="utf-8",
    )

    def run_once(tag):
        train_dir = tmp_path / f"train_{tag}"
        eval_dir = tmp_path / f"eval_{tag}"
        rc = cli_main(
            ["train", "--config", str(cfg_file), "--train", str(corpus),
             "--valid", str(corpus), "--out", str(train_dir)]
        )
        assert rc == 0
        rc = cli_main(
            ["evaluate", "--config", str(cfg_file),
             "--checkpoint", str(train_dir / "checkpoint_final.json"),
             "--input", str(corpus), "--out", str(eval_dir)]
        )
        assert rc == 0
        return train_dir, eval_dir

    train_a, eval_a = run_once("a")
    train_b, eval_b = run_once("b")
    pairs = [
        (train_a / "training_report.json", train_b / "training_report.json"),
        (train_a / "checkpoint_best.json", train_b / "checkpoint_best.json"),
        (train_a / "checkpoint_final.json", train_b / "checkpoint_final.json"),
        (train_a / "run_config.cfg", train_b / "run_config.cfg"),
        (eval_a / "evaluation_report.json", eval_b / "evaluation_report.json"),
        (eval_a / "run_config.cfg", eval_b / "run_config.cfg"),
    ]
    identical = all(x.read_bytes() == y.read_bytes() for x, y in pairs)
    report(7, "end-to-end determinism", identical, f"{len(pairs)} artifacts byte-identical")
    assert identical


# ---------------------------------------------------------------------------
# criterion 8: protocol plumbing


def protocol_corpus():
    doc_a = Document(
        "A",
        [
            ["alpha", "beta", "gamma"],
            ["delta", "epsilon"],
            ["zeta", "eta"],
            ["noise", "words"],
        ],
        summary=[["alpha", "beta", "gamma", "delta"]],
    )
    b_tokens = [f"bbbbbbbb{i}" for i in range(1, 10)]  # 9 bytes each
    doc_b = Document(
        "B",
        [b_tokens[0:3], b_tokens[3:6], b_tokens[6:9], ["irrelevant"]],
        summary=[[b_tokens[0], b_tokens[3], b_tokens[6], b_tokens[7]]],
    )
    c_tokens = [f"w{i:03d}" for i in range(1, 79)]  # 4 bytes each
    doc_c = Document(
        "C",
        [c_tokens[0:26], c_tokens[26:52], c_tokens[52:78], ["pad"]],
        summary=[c_tokens[0:5] + c_tokens[15:20]],
    )
    return [doc_a, doc_b, doc_c]


# hand-derived clipped-match counts (match, candidate_total, reference_total)
# for the lead-3 candidate under each protocol; verified against the
# brute-force counters above before freezing
PROTOCOL_COUNTS = {
    "bytes:75": {
        "A": {"rouge1": (4, 7, 4), "rouge2": (3, 6, 3), "rougeL": (4, 7, 4)},
        "B": {"rouge1": (3, 7, 4), "rouge2": (0, 6, 3), "rougeL": (3, 7, 4)},
        "C": {"rouge1": (5, 15, 10), "rouge2": (4, 14, 9), "rougeL": (5, 15, 10)},
    },
    "bytes:275": {
        "A": {"rouge1": (4, 7, 4), "rouge2": (3, 6, 3), "rougeL": (4, 7, 4)},
        "B": {"rouge1": (4, 9, 4), "rouge2": (1, 8, 3), "rougeL": (4, 9, 4)},
        "C": {"rouge1": (10, 55, 10), "rouge2": (8, 54, 9), "rougeL": (10, 55, 10)},
    },
    "words:75": {
        "A": {"rouge1": (4, 7, 4), "rouge2": (3, 6, 3), "rougeL": (4, 7, 4)},
        "B": {"rouge1": (4, 9, 4), "rouge2": (1, 8, 3), "rougeL": (4, 9, 4)},
        "C": {"rouge1": (10, 75, 10), "rouge2": (8, 74, 9), "rougeL": (10, 75, 10)},
    },
    "none": {
        "A": {"rouge1": (4, 7, 4), "rouge2": (3, 6, 3), "rougeL": (4, 7, 4)},
        "B": {"rouge1": (4, 9, 4), "rouge2": (1, 8, 3), "rougeL": (4, 9, 4)},
        "C": {"rouge1": (10, 78, 10), "rouge2": (8, 77, 9), "rougeL": (10, 78, 10)},
    },
}

PROTOCOLS = [
    ("bytes:75", "recall"),
    ("bytes:275", "recall"),
    ("words:75", "recall"),
    ("none", "f1"),
]


def expected_mean(counts_by_doc, variant, flavor):
    values = []
    for doc_id in ("A", "B", "C"):
        match, cand_total, ref_total = counts_by_doc[doc_id][variant]
        recall = match / ref_total if ref_total else 0.0
        precision = match / cand_total if cand_total else 0.0
        if flavor == "recall":
            values.append(recall)
        else:
            values.append(
                0.0
                if recall + precision == 0
                else 2.0 * recall * precision / (recall + precision)
            )
    return sum(values) / 3


def test_criterion_8_protocol_plumbing():
    docs = protocol_corpus()
    # re-verify the frozen counts with the brute-force oracle before using them
    for limit_text, counts_by_doc in PROTOCOL_COUNTS.items():
        limit = LengthLimit.parse(limit_text)
        for doc in docs:
            lead = [tok for sent in doc.sentences[:3] for tok in sent]
            if limit.unit == "bytes":
                cut, used = [], 0
                for tok in lead:
                    need = len(tok.encode("utf-8")) + (1 if cut else 0)
                    if used + need > limit.amount:
                        break
                    cut.append(tok)
                    used += need
            elif limit.unit == "words":
                cut = lead[: limit.amount]
            else:
                cut = lead
            ref = [tok for sent in doc.summary for tok in sent]
            frozen = counts_by_doc[doc.doc_id]
            assert brute_ngram_counts(cut, ref, 1) == frozen["rouge1"]
            assert brute_ngram_counts(cut, ref, 2) == frozen["rouge2"]
            lcs = brute_lcs(cut, ref)
            assert (lcs, len(cut), len(ref)) == frozen["rougeL"]

    mismatches = []
    for limit_text, flavor in PROTOCOLS:
        got = evaluate_corpus(
            None, docs, SelectionPolicy("lead", 3), LengthLimit.parse(limit_text), flavor
        )
        for variant in ("rouge1", "rouge2", "rougeL"):
            want = expected_mean(PROTOCOL_COUNTS[limit_text], variant, flavor)
            if got[variant] != want:
                mismatches.append((limit_text, flavor, variant, got[variant], want))
    report(
        8, "protocol plumbing", not mismatches,
        f"{len(PROTOCOLS)} protocols x 3 variants exact" if not mismatches else str(mismatches),
    )
    assert not mismatches
