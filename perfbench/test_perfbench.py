"""Self-tests of the benchmark: its output checks catch perturbed outputs,
and two runs with the same seed write byte-identical artifacts.

    python3 -m pytest perfbench -q

Run from the root of a checkout; each test runs the real pipeline on a tiny
corpus at small dims, so the suite takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import pytest

import checks
import run
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

TINY = {
    "extractive": dataclasses.replace(
        WORKLOADS["extractive-paper"], n_docs=15, n_sentences=6, n_words=5, token_pool=200,
        n_train=3, n_valid=2, n_test=6, embedding_dim=6, hidden_dim=5,
        position_embedding_dim=3, num_rel_segments=3, max_sentences=10, batch_size=2, epochs=2,
    ),
    "abstractive": dataclasses.replace(
        WORKLOADS["abstractive-vocab"], n_docs=16, n_sentences=4, n_words=5, token_pool=500,
        summary_words=12, n_train=3, n_valid=2, n_test=6, oracle_sample=5, embedding_dim=6,
        hidden_dim=5, position_embedding_dim=3, num_rel_segments=3, max_sentences=10,
        batch_size=2, epochs=2,
    ),
}


def pipeline(tmp: Path, mode: str, seed: int = 3):
    w = TINY[mode]
    corpus = run.prepare(w, seed, tmp)
    r = run.run_round(ROOT, w, tmp, 0, False, time.monotonic() + 120)
    assert r["ok"], (r["dir"] / "worker.err").read_text()
    assert all(i["rc"] == 0 for i in r["invocations"]), r["invocations"]
    return w, corpus, r["dir"]


def failures(w, corpus, rd):
    """Failed operations per command over all slices, and the problems."""
    failed, problems, facts = run.check_first_round(w, corpus, rd)
    per_command = dict.fromkeys(run.COMMANDS, 0)
    for (command, _), n in failed.items():
        per_command[command] += n
    return per_command, problems, facts


@pytest.fixture(scope="module", params=sorted(TINY))
def outputs(request, tmp_path_factory):
    w, corpus, rd = pipeline(tmp_path_factory.mktemp(request.param), request.param)
    failed, problems, facts = failures(w, corpus, rd)
    assert failed == dict.fromkeys(run.COMMANDS, 0), facts["train_problems"]
    assert problems == []
    return w, corpus, rd


def rewrite_jsonl(path: Path, index: int, edit) -> None:
    records = checks.read_jsonl(path)
    edit(records[index])
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def test_flipped_probability_fails_summarize(outputs):
    w, corpus, rd = outputs
    path = rd / "sums-1" / "summaries.jsonl"
    original = path.read_text(encoding="utf-8")
    try:
        rewrite_jsonl(path, 1, lambda r: r["probabilities"].__setitem__(0, 1.0 - r["probabilities"][0]))
        failed, _, _ = failures(w, corpus, rd)
        assert failed["summarize"] == 1
    finally:
        path.write_text(original, encoding="utf-8")


def test_altered_rouge_fails_evaluate(outputs):
    w, corpus, rd = outputs
    path = rd / f"eval-{w.slices - 1}" / "evaluation_report.json"
    original = path.read_text(encoding="utf-8")
    try:
        report = json.loads(original)
        report["per_document"][1]["rouge2"]["recall"] += 1e-6
        path.write_text(json.dumps(report), encoding="utf-8")
        failed, problems, _ = failures(w, corpus, rd)
        assert failed["evaluate"] == 1 and problems == []
        report = json.loads(original)
        report["rougeL"] += 1e-6
        path.write_text(json.dumps(report), encoding="utf-8")
        failed, problems, _ = failures(w, corpus, rd)
        assert failed["evaluate"] == 0 and len(problems) == 1
    finally:
        path.write_text(original, encoding="utf-8")


def test_flipped_label_fails_make_labels(outputs):
    w, corpus, rd = outputs
    first, last = rd / "labeled-0.jsonl", rd / f"labeled-{w.slices - 1}.jsonl"
    originals = {p: p.read_text(encoding="utf-8") for p in (first, last)}
    try:
        # the first document is re-labelled by the independent oracle: any flip shows;
        # elsewhere a dropped pick breaks the stopping property
        rewrite_jsonl(first, 0, lambda r: r["labels"].__setitem__(0, 1 - r["labels"][0]))
        rewrite_jsonl(last, -1, lambda r: r["labels"].__setitem__(r["labels"].index(1), 0))
        failed, _, _ = failures(w, corpus, rd)
        assert failed["make-labels"] == 2
    finally:
        for p, text in originals.items():
            p.write_text(text, encoding="utf-8")


def test_wrong_valid_loss_or_parameter_fails_train(outputs):
    w, corpus, rd = outputs
    for name, edit in (
        ("training_report.json", lambda p: p["epochs"][-1].__setitem__("valid_loss", p["epochs"][-1]["valid_loss"] * (1 + 1e-6))),
        ("checkpoint_final.json", lambda p: p["params"]["score.b"]["data"].__setitem__(0, float("nan"))),
        ("checkpoint_final.json", lambda p: p["params"].pop("score.b")),
    ):
        path = rd / "run" / name
        original = path.read_text(encoding="utf-8")
        try:
            payload = json.loads(original)
            edit(payload)
            path.write_text(json.dumps(payload), encoding="utf-8")
            failed, _, facts = failures(w, corpus, rd)
            assert failed["train"] == w.epochs * w.n_train, name
            assert facts["train_problems"]
        finally:
            path.write_text(original, encoding="utf-8")


@pytest.mark.parametrize("mode", sorted(TINY))
def test_same_seed_gives_identical_artifacts(mode, tmp_path):
    _, _, first = pipeline(tmp_path / "a", mode)
    _, _, second = pipeline(tmp_path / "b", mode)
    for a, b in zip(run.reproduced(TINY[mode], first), run.reproduced(TINY[mode], second)):
        assert a.read_bytes() == b.read_bytes(), a.name


def test_reference_rouge_matches_hand_values():
    cand = "the cat sat on the mat".split()
    ref = "the cat lay on the mat today".split()
    assert checks.rouge_n(cand, ref, 1) == pytest.approx((5 / 7, 5 / 6, 2 * (5 / 7) * (5 / 6) / (5 / 7 + 5 / 6)))
    assert checks.rouge_n(cand, ref, 2)[:2] == pytest.approx((3 / 6, 3 / 5))
    assert checks.lcs(cand, ref) == 5
    assert checks.truncate(["ab", "cd", "ef"], "bytes:5") == ["ab", "cd"]
    assert checks.truncate(["ab", "cd", "ef"], "words:1") == ["ab"]


@pytest.mark.parametrize("mode", sorted(TINY))
def test_traced_counts_match_the_files(mode, tmp_path):
    w = TINY[mode]
    corpus = run.prepare(w, 5, tmp_path)
    r = run.run_round(ROOT, w, tmp_path, 0, True, time.monotonic() + 120)
    _, problems, facts = run.check_first_round(w, corpus, r["dir"])
    metrics = run.layer_metrics(w, [r], facts, problems)
    assert problems == []
    assert r["trace"]["absent"] == []
    names = {f"{c}.{layer}" for c in run.COMMANDS for layer in run.LAYERS[c]}
    assert names <= set(metrics)
    assert metrics["train.model.word_gru_steps"]["value"] > 0
    assert (metrics["train.training.decoder_words"]["value"] > 0) == (mode == "abstractive")


def test_failing_command_fails_its_operations_only(tmp_path):
    w = TINY["extractive"]
    corpus = run.prepare(w, 3, tmp_path)
    (tmp_path / "corpus-1.jsonl").write_text("not json\n", encoding="utf-8")
    r = run.run_round(ROOT, w, tmp_path, 0, False, time.monotonic() + 120)
    assert r["ok"]
    rcs = {(i["name"], i["slice"]): i["rc"] for i in r["invocations"]}
    assert rcs.pop(("make-labels", 1)) != 0 and set(rcs.values()) == {0}
    failed, problems, _ = run.check_first_round(w, corpus, r["dir"])
    assert failed.pop(("make-labels", 1)) == w.n_docs // w.slices
    assert set(failed.values()) == {0} and problems == []
