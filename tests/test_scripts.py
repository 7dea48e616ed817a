import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rnnsum.corpus import CorpusConfig, load_corpus

ROOT = Path(__file__).parents[1]


def test_synthetic_corpus_script_writes_labelled_documents(tmp_path):
    out = tmp_path / "synthetic.jsonl"
    result = subprocess.run(
        [sys.executable, ROOT / "scripts" / "make_synthetic_corpus.py",
         "--out", out, "--docs", "6", "--label"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, check=False,
    )
    assert result.returncode == 0, result.stderr
    assert f"wrote 6 documents -> {out}" in result.stdout
    docs, skipped = load_corpus(out, CorpusConfig())
    assert (len(docs), skipped) == (6, 0)
    for doc in docs:
        assert doc.labels is not None and len(doc.labels) == len(doc.sentences)
        assert sum(doc.labels) >= 1  # each summary is copied from the document's sentences


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summarizes_result_lines():
    bench_pairs = load_script("bench_pairs")
    rates = {1: (100.0, 300.0), 2: (120.0, 280.0), 3: (110.0, 100.0), 4: (90.0, 310.0)}
    lines = []
    for seed, (parent, change) in rates.items():
        for side, rate in (("parent", parent), ("change", change)):
            result = {"correct": True, "failed": 0, "metrics": {
                "label_docs_per_s": {"value": rate, "unit": "docs/s"},
                "setup_s": {"value": rate / 100, "unit": "s"},
            }}
            lines.append({"workload": "w", "seed": seed, "side": side, "result": result}
                         | ({"identical": True} if side == "change" else {}))
    metrics = [
        {"name": "label_docs_per_s", "unit": "docs/s", "better": "higher"},
        {"name": "setup_s", "unit": "s", "better": "lower"},
    ]
    summary = bench_pairs.summarize(lines, metrics)["w"]
    assert (summary["runs_correct"], summary["failed_operations"]) == (True, 0)
    assert summary["artifacts_byte_identical_per_seed"] is True
    label = summary["metrics"]["label_docs_per_s"]
    # parent 90, 100, 110, 120: median 105, inclusive quartiles 97.5 and 112.5
    assert label["parent"] == {"median": 105.0, "min": 90.0, "iqr": 15.0}
    assert label["change"] == {"median": 290.0, "min": 100.0, "iqr": 67.5}
    assert label["ratio_of_medians"] == round(290 / 105, 3)
    assert label["change_wins"] == "3/4"
    assert label["per_seed"]["3"] == {"parent": 110.0, "change": 100.0}
    # lower is better for set-up time: the change's higher values lose
    assert summary["metrics"]["setup_s"]["change_wins"] == "1/4"


def test_bench_pairs_digests_need_every_artifact(tmp_path):
    bench_pairs = load_script("bench_pairs")
    first = tmp_path / ".perfbench_work" / "w" / "round-0"
    names = ["labeled-0.jsonl", "labeled-0.jsonl.stats.json", "run/training_report.json",
             "run/checkpoint_best.json", "run/checkpoint_final.json",
             "sums-0/summaries.jsonl", "eval-0/evaluation_report.json"]
    for name in names:
        (first / name).parent.mkdir(parents=True, exist_ok=True)
        (first / name).write_text(name, encoding="utf-8")
    assert sorted(bench_pairs.artifact_digests(tmp_path, "w")) == sorted(names)
    (first / "run" / "checkpoint_best.json").unlink()
    with pytest.raises(RuntimeError, match="no run/checkpoint_best.json"):
        bench_pairs.artifact_digests(tmp_path, "w")
