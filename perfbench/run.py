#!/usr/bin/env python3
"""rnnsum benchmark: make-labels -> train -> summarize -> evaluate on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The corpus is drawn from --seed (the program
only sees the JSONL files), then whole rounds of the pipeline run, each in a
fresh worker process, until another round would overrun --seconds (at least
one round). Every round does the same operations on the same files, so later
rounds must reproduce the first byte for byte. The outputs of the first
round are checked apart from the program (checks.py). The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and the
metrics (end-to-end with --trace 0, per layer with --trace 1). The line
before it holds details: BLAS threads, numpy version, per-command timings.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import WORKLOADS, Workload, generate, write_jsonl  # noqa: E402

WORK_DIR = ".perfbench_work"
ROUND_LIMIT_S = 170.0  # a worker still running after this is killed; the run must end in 180 s
COMMANDS = ("make-labels", "train", "summarize", "evaluate")
RATE_METRICS = {
    "make-labels": "label_docs_per_s",
    "train": "train_docs_per_s",
    "summarize": "summarize_docs_per_s",
    "evaluate": "evaluate_docs_per_s",
}

# per-layer metrics, reported per command as `<command>.<layer metric>`
_SERVING = (
    "model.word_gru_s", "model.word_gru_steps", "model.sent_gru_s", "model.sent_gru_steps",
    "model.encode_self_s", "model.score_s", "autodiff.tape_nodes",
    "python.gc_s", "python.gc_full_collections", "corpus.load_s", "model.load_s",
    "evaluation.select_s",
)
LAYERS = {
    "make-labels": (
        "corpus.load_s", "corpus.write_s", "oracle.greedy_s", "oracle.rouge_calls", "python.gc_s",
    ),
    "train": (
        "corpus.load_s", "corpus.vocab_s", "model.init_s",
        "model.word_gru_s", "model.word_gru_steps", "model.sent_gru_s", "model.sent_gru_steps",
        "model.encode_self_s", "model.score_s", "autodiff.backward_s", "autodiff.tape_nodes",
        "training.decoder_s", "training.decoder_words", "training.loop_self_s",
        "training.clip_s", "training.adadelta_s", "training.steps", "model.save_s", "model.saves",
        "python.gc_s", "python.gc_full_collections",
    ),
    "summarize": _SERVING,
    "evaluate": _SERVING + ("rouge.score_s", "rouge.lcs_cells"),
}
COUNT_SUFFIXES = ("_steps", "_nodes", "_collections", "_words", "_calls", "_cells", ".steps", ".saves")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def slices(items: list, n: int) -> list[list]:
    size = len(items) // n
    return [items[k * size : (k + 1) * size] for k in range(n)]


def reproduced(w: Workload, rd: Path) -> list[Path]:
    """Artifacts every round must reproduce byte for byte."""
    names = ["run/training_report.json", "run/checkpoint_best.json", "run/checkpoint_final.json"]
    for k in range(w.slices):
        names += [f"labeled-{k}.jsonl", f"sums-{k}/summaries.jsonl", f"eval-{k}/evaluation_report.json"]
    return [rd / n for n in names]


def command_lines(w: Workload, work: Path, rd: Path) -> list[dict]:
    """The round's invocations. Labelling, summarizing and evaluating run once
    per slice, spread over the round, so each rate averages the machine's
    speed over most of the round rather than one stretch of it. Slice 0 is
    labelled first because training needs its labels."""
    common = ["--config", str(work / "run.cfg")]
    ckpt = str(rd / "run" / "checkpoint_final.json")

    def label(k):
        return {"name": "make-labels", "slice": k, "argv": [
            "make-labels", *common, "--input", str(work / f"corpus-{k}.jsonl"),
            "--output", str(rd / f"labeled-{k}.jsonl"), "--metric", w.oracle_metric]}

    lines = [label(0), {"name": "train", "slice": 0, "argv": [
        "train", *common, "--train", str(rd / "train.jsonl"), "--valid", str(rd / "valid.jsonl"),
        "--out", str(rd / "run")]}]
    for k in range(w.slices):
        test = str(work / f"test-{k}.jsonl")
        lines.append({"name": "summarize", "slice": k, "argv": [
            "summarize", *common, "--checkpoint", ckpt, "--input", test, "--out", str(rd / f"sums-{k}")]})
        lines.append({"name": "evaluate", "slice": k, "argv": [
            "evaluate", *common, "--checkpoint", ckpt, "--input", test, "--out", str(rd / f"eval-{k}"),
            "--verbose"]})
        if k + 1 < w.slices:
            lines.append(label(k + 1))
    return lines


def docs_per_invocation(w: Workload) -> dict[str, int]:
    return {
        "make-labels": w.n_docs // w.slices,
        "train": w.epochs * w.n_train,
        "summarize": w.n_test // w.slices,
        "evaluate": w.n_test // w.slices,
    }


def prepare(w: Workload, seed: int, work: Path):
    """Fresh work directory with the seeded corpus slices and the program's config."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    corpus = generate(w, seed)
    for k, part in enumerate(slices(corpus.docs, w.slices)):
        write_jsonl(part, work / f"corpus-{k}.jsonl")
    for k, part in enumerate(slices(corpus.docs[len(corpus.docs) - w.n_test :], w.slices)):
        write_jsonl(part, work / f"test-{k}.jsonl")
    (work / "run.cfg").write_text(w.config_text(seed), encoding="utf-8")
    return corpus


def run_round(root: Path, w: Workload, work: Path, k: int, trace: bool, deadline: float) -> dict:
    rd = work / f"round-{k}"
    rd.mkdir()
    spec = {
        "src": str(root / "src"),
        "round_dir": str(rd),
        "split": {"from": str(rd / "labeled-0.jsonl"), "train": w.n_train, "valid": w.n_valid},
        "trace": trace,
        "commands": command_lines(w, work, rd),
    }
    spec_path = rd / "round.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    spec["launched"] = started = time.monotonic()
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(rd / "worker.err", "w", encoding="utf-8") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=err,
        )
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, rusage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"dir": rd, "elapsed": time.monotonic() - started, "maxrss_kb": rusage.ru_maxrss}
    timings_path = rd / "timings.json"
    if proc.returncode != 0 or not timings_path.exists():
        return {**result, "ok": False, "invocations": []}
    return {**result, "ok": True, **json.loads(timings_path.read_text(encoding="utf-8"))}


def digest(path: Path) -> str | None:
    if not path.exists():
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_first_round(w: Workload, corpus, rd: Path) -> tuple[dict, list[str], dict]:
    """Failed operations per (command, slice), problems that make the run
    incorrect, and the parsed outputs the traced run's cross-checks need. An
    output that is missing or unreadable fails every operation it covers."""
    docs = docs_per_invocation(w)
    failed: dict[tuple[str, int], int] = {}
    problems: list[str] = []
    facts: dict = {"labeled": [], "summaries": [], "test": corpus.docs[len(corpus.docs) - w.n_test :]}
    for k, (part, copied) in enumerate(zip(slices(corpus.docs, w.slices), slices(corpus.copied, w.slices))):
        try:
            labeled = checks.read_jsonl(rd / f"labeled-{k}.jsonl")
            sample = w.oracle_sample if k == 0 else 0
            failed["make-labels", k] = len(checks.check_labels(w, part, copied, labeled, sample))
        except (OSError, ValueError, KeyError, TypeError):
            labeled = []
            failed["make-labels", k] = docs["make-labels"]
        facts["labeled"] += labeled
    train = facts["labeled"][: w.n_train]
    valid = facts["labeled"][w.n_train : w.n_train + w.n_valid]
    ref = None
    try:
        ref = checks.Reference(rd / "run" / "checkpoint_final.json")
        facts["train_problems"] = checks.check_training(w, rd / "run", ref, valid, train)
    except (OSError, ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        facts["train_problems"] = [f"unreadable output: {exc!r}"]
    failed["train", 0] = docs["train"] if facts["train_problems"] else 0
    for k, test in enumerate(slices(facts["test"], w.slices)):
        try:
            summaries = checks.read_jsonl(rd / f"sums-{k}" / "summaries.jsonl")
            if ref is None:
                raise ValueError("no readable checkpoint_final.json")
            failed["summarize", k] = len(checks.check_summaries(w, ref, test, summaries))
        except (OSError, ValueError, KeyError, TypeError):
            summaries = []
            failed["summarize", k] = docs["summarize"]
        facts["summaries"] += summaries
        try:
            report = json.loads((rd / f"eval-{k}" / "evaluation_report.json").read_text(encoding="utf-8"))
            wrong, mean_problems = checks.check_evaluation(w, test, summaries, report)
            failed["evaluate", k] = len(wrong)
            problems += mean_problems
        except (OSError, ValueError, KeyError, TypeError):
            failed["evaluate", k] = docs["evaluate"]
    return failed, problems, facts


def expected_counts(w: Workload, facts: dict, rd: Path) -> dict[str, int]:
    """Per-layer counts derived from the generated files, not from the program."""
    labeled = facts["labeled"]
    train = labeled[: w.n_train]
    valid = labeled[w.n_train : w.n_train + w.n_valid]

    def words(docs):
        return sum(len(s) for d in docs for s in d["sentences"])

    def sents(docs):
        return sum(len(d["sentences"]) for d in docs)

    def ref_words(docs):
        return sum(len(s) for d in docs for s in d["summary"])

    e = w.epochs
    # each epoch steps every training doc and scores every validation doc;
    # the final accuracy or perplexity pass scores the training docs once more
    passes = lambda f: e * f(train) + e * f(valid) + f(train)  # noqa: E731
    report = json.loads((rd / "run" / "training_report.json").read_text(encoding="utf-8"))
    improving, best = 0, math.inf
    for epoch in report["epochs"]:
        if epoch["valid_loss"] < best:
            best, improving = epoch["valid_loss"], improving + 1
    expected = {
        "make-labels.oracle.rouge_calls": checks.oracle_rouge_calls(w.oracle_metric, labeled),
        "train.model.word_gru_steps": 2 * passes(words),
        "train.model.sent_gru_steps": 2 * passes(sents),
        "train.training.decoder_words": passes(ref_words) if w.mode == "abstractive" else 0,
        "train.training.steps": e * math.ceil(w.n_train / w.batch_size),
        "train.model.saves": improving + 1,
        "evaluate.rouge.lcs_cells": checks.lcs_cells(facts["test"], facts["summaries"], w.limit),
    }
    for command in ("summarize", "evaluate"):
        expected[f"{command}.model.word_gru_steps"] = 2 * words(facts["test"])
        expected[f"{command}.model.sent_gru_steps"] = 2 * sents(facts["test"])
    return expected


def layer_metrics(w: Workload, done: list[dict], facts: dict, problems: list[str]) -> dict:
    """Per-layer metrics of traced rounds: times averaged per round, counts
    per round, which must repeat between rounds and match the files.
    Appends what disagrees to `problems`."""
    metrics = {}
    n = len(done)
    counts: dict[str, set] = {}
    absent = set(done[0]["trace"]["absent_keys"])
    for c in COMMANDS:
        for r in done:
            totals = r["trace"]["totals"].get(c, {})
            for layer in LAYERS[c]:
                if layer in absent:
                    continue
                key = f"{c}.{layer}"
                value = totals.get(layer, 0.0)
                if key.endswith(COUNT_SUFFIXES):
                    counts.setdefault(key, set()).add(int(value))
                    metrics[key] = {"value": int(value), "unit": "count"}
                else:
                    prev = metrics.get(key, {"value": 0.0})["value"]
                    metrics[key] = {"value": prev + value / n, "unit": "s"}
            if totals.get("model.other_gru_steps") and "model.word_gru_steps" not in absent:
                problems.append(f"{c}: GRU steps on unrecognised parameters")
        wall = sum(i["wall_s"] for r in done for i in r["invocations"] if i["name"] == c)
        metrics[f"{c}.wall_s"] = {"value": wall / n, "unit": "s"}
    for key, seen in counts.items():
        if len(seen) > 1:
            problems.append(f"{key} differs between rounds: {sorted(seen)}")
    try:
        expected = expected_counts(w, facts, done[0]["dir"])
    except (OSError, ValueError, KeyError) as exc:
        expected = {}
        problems.append(f"cannot derive expected counts: {exc!r}")
    for key, value in expected.items():
        if key in metrics and metrics[key]["value"] != value:
            problems.append(f"{key} = {metrics[key]['value']}, files imply {value}")
    return metrics


def end_to_end_metrics(w: Workload, done: list[dict]) -> dict:
    """A rate is every document the command handled in the run over the time
    it took, set-up excluded, summed over its invocations (slices and
    rounds). Set-up is the first round's, one cold start per run."""
    docs = docs_per_invocation(w)
    metrics = {}
    for c in COMMANDS:
        timed = [i["wall_s"] - i["setup_s"] for r in done for i in r["invocations"] if i["name"] == c]
        metrics[RATE_METRICS[c]] = {"value": docs[c] * len(timed) / sum(timed), "unit": "docs/s"}
    first = done[0]
    metrics["setup_s"] = {
        "value": first["import_s"] + sum(i["setup_s"] for i in first["invocations"]), "unit": "s"
    }
    size = (first["dir"] / "run" / "checkpoint_best.json").stat().st_size
    metrics["checkpoint_mb"] = {"value": size / 1e6, "unit": "MB"}
    metrics["peak_rss_mb"] = {"value": max(r["maxrss_kb"] for r in done) / 1024.0, "unit": "MB"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rnnsum" / "cli.py").is_file():
        return fail(f"no rnnsum sources under {root / 'src'}; run from the root of a checkout")
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    trace = bool(args.trace)
    began = time.monotonic()
    work = root / WORK_DIR / w.name
    corpus = prepare(w, args.seed, work)

    rounds = []
    measure_start = time.monotonic()
    deadline = began + ROUND_LIMIT_S
    while True:
        rounds.append(run_round(root, w, work, len(rounds), trace, deadline))
        last = rounds[-1]
        if not last["ok"] or time.monotonic() - measure_start + last["elapsed"] > args.seconds:
            break
        if time.monotonic() + 1.5 * last["elapsed"] > deadline:
            break
    if not rounds[0]["ok"]:
        err = (rounds[0]["dir"] / "worker.err").read_text(encoding="utf-8", errors="replace")
        return fail(f"worker failed:\n{err[-2000:]}")

    first = rounds[0]["dir"]
    failed_first, problems, facts = check_first_round(w, corpus, first)
    docs = docs_per_invocation(w)
    per_round = sum(docs[c] * (1 if c == "train" else w.slices) for c in COMMANDS)
    reference = [digest(p) for p in reproduced(w, first)]
    failed_total = 0
    for r in rounds:
        ran = {(i["name"], i["slice"]): i["rc"] for i in r["invocations"]}
        for (c, k), n_failed in failed_first.items():
            failed_total += docs[c] if ran.get((c, k)) != 0 else n_failed
        if r is not rounds[0]:
            if not r["ok"]:
                problems.append(f"{r['dir'].name} did not finish")
            elif [digest(p) for p in reproduced(w, r["dir"])] != reference:
                problems.append(f"{r['dir'].name} did not reproduce {first.name}")
            shutil.rmtree(r["dir"], ignore_errors=True)
    done = [r for r in rounds if r["ok"]]
    blas = {r.get("blas_threads") for r in done}
    if blas != {1}:
        problems.append(f"BLAS threads {sorted(blas, key=str)}, expected 1")

    detail = {
        "workload": w.name,
        "seed": args.seed,
        "rounds": len(rounds),
        "blas_threads": sorted(blas, key=str),
        "numpy_version": done[0].get("numpy_version"),
        "import_s": [r["import_s"] for r in done],
        "invocations": [r["invocations"] for r in done],
        "failed_first_round": {f"{c}[{k}]": n for (c, k), n in failed_first.items() if n},
        "train_problems": facts["train_problems"],
        "problems": problems,
    }
    if trace:
        metrics = layer_metrics(w, done, facts, problems)
        detail["absent"] = done[0]["trace"]["absent"]
    else:
        metrics = end_to_end_metrics(w, done)
    detail["elapsed_s"] = time.monotonic() - began
    print(json.dumps({"detail": detail}, sort_keys=True, default=str))
    result = {
        "correct": not problems,
        "attempted": len(rounds) * per_round,
        "failed": failed_total,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
