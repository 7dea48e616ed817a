import os
import subprocess
import sys
from pathlib import Path

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
