"""Corpus ingestion: JSONL documents, vocabulary, word vectors, encoding.

On-disk schema is UTF-8 JSON-Lines, one document per line:

    {"id": str, "sentences": [[str]], "summary": [[str]]?, "labels": [int]?}

Documents arrive pre-tokenized and pre-sentence-split. Loading truncates to
the configured sentence/word caps, keeping the prefix; labels are truncated in
lockstep with sentences.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

PAD, UNK, BOS, EOS = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<unk>", "<bos>", "<eos>")


class CorpusError(ValueError):
    """Malformed corpus or word-vector file."""


@dataclass
class CorpusConfig:
    max_sentences: int = 100
    max_words_per_sentence: int = 50

    def __post_init__(self):
        for name in ("max_sentences", "max_words_per_sentence"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class Document:
    doc_id: str
    sentences: list[list[str]]
    summary: list[list[str]] | None = None
    labels: list[int] | None = None

    def __post_init__(self):
        if not self.sentences:
            raise ValueError(f"document {self.doc_id!r} has no sentences")
        if any(not s for s in self.sentences):
            raise ValueError(f"document {self.doc_id!r} contains an empty sentence")
        if self.labels is not None:
            if len(self.labels) != len(self.sentences):
                raise ValueError(
                    f"document {self.doc_id!r}: {len(self.labels)} labels for "
                    f"{len(self.sentences)} sentences"
                )
            if any(y not in (0, 1) for y in self.labels):
                raise ValueError(f"document {self.doc_id!r}: labels must be 0/1")


class Vocabulary:
    """Token/index bijection with four reserved indices (pad/unk/bos/eos)."""

    def __init__(self, tokens: list[str]):
        self.index_to_token = list(RESERVED_TOKENS) + list(tokens)
        self.token_to_index = {tok: i for i, tok in enumerate(self.index_to_token)}
        if len(self.token_to_index) != len(self.index_to_token):
            raise ValueError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.index_to_token)

    def lookup(self, token: str) -> int:
        return self.token_to_index.get(token, UNK)

    def non_reserved(self) -> list[str]:
        return self.index_to_token[len(RESERVED_TOKENS) :]


def _field(obj: dict, name: str, where: str):
    if name not in obj:
        raise CorpusError(f"{where}: missing required field {name!r}")
    return obj[name]


def _check_sentences(value, name: str, where: str) -> list[list[str]]:
    if not isinstance(value, list) or any(
        not isinstance(s, list) or any(not isinstance(t, str) for t in s) for s in value
    ):
        raise CorpusError(f"{where}: field {name!r} must be a list of token lists")
    return value


def parse_document(obj: dict, where: str) -> Document | None:
    """Validate one JSONL record, `where` (file and line) starting each error; None if empty."""
    doc_id = _field(obj, "id", where)
    if not isinstance(doc_id, str):
        raise CorpusError(f"{where}: field 'id' must be a string")
    sentences = _check_sentences(_field(obj, "sentences", where), "sentences", where)
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or any(y not in (0, 1) for y in labels):
            raise CorpusError(f"{where}: field 'labels' must be a list of 0/1")
        if len(labels) != len(sentences):
            raise CorpusError(
                f"{where}: {len(labels)} labels for {len(sentences)} sentences"
            )
    summary = obj.get("summary")
    if summary is not None:
        summary = _check_sentences(summary, "summary", where)
        summary = [s for s in summary if s]
        if not summary:
            summary = None

    # drop empty sentences, keeping labels aligned
    if labels is not None:
        kept = [(s, y) for s, y in zip(sentences, labels) if s]
        sentences = [s for s, _ in kept]
        labels = [y for _, y in kept]
    else:
        sentences = [s for s in sentences if s]
    if not sentences:
        return None
    return Document(doc_id, sentences, summary, labels)


def truncate_document(doc: Document, config: CorpusConfig) -> Document:
    sentences = [s[: config.max_words_per_sentence] for s in doc.sentences[: config.max_sentences]]
    labels = doc.labels[: config.max_sentences] if doc.labels is not None else None
    return replace(doc, sentences=sentences, labels=labels)


def load_corpus(path: str | Path, config: CorpusConfig) -> tuple[list[Document], int]:
    """Read a JSONL corpus; returns (documents, count of skipped empty docs).

    Document ids must be unique within the file.
    """
    docs: list[Document] = []
    skipped = 0
    first_line: dict[str, int] = {}  # document id -> line it first appeared on
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{where}: invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise CorpusError(f"{where}: expected a JSON object")
            doc = parse_document(obj, where)
            doc_id = obj["id"]
            if doc_id in first_line:
                raise CorpusError(
                    f"{where}: duplicate document id {doc_id!r} "
                    f"(first on line {first_line[doc_id]})"
                )
            first_line[doc_id] = lineno
            if doc is None:
                skipped += 1
                continue
            docs.append(truncate_document(doc, config))
    return docs, skipped


def write_corpus(docs: list[Document], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            record: dict = {"id": doc.doc_id, "sentences": doc.sentences}
            if doc.summary is not None:
                record["summary"] = doc.summary
            if doc.labels is not None:
                record["labels"] = doc.labels
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


def build_vocab(docs: list[Document], cap: int) -> Vocabulary:
    """Frequency-ranked vocabulary (ties broken lexicographically) up to `cap`.

    Counts cover document sentences and reference summaries, so decoder
    targets are representable when the corpus carries summaries.
    """
    if cap <= len(RESERVED_TOKENS):
        raise ValueError(
            f"vocab_cap must exceed the {len(RESERVED_TOKENS)} reserved tokens "
            f"({', '.join(RESERVED_TOKENS)}) to hold a word, got {cap}"
        )
    if not docs:
        raise ValueError("build_vocab: empty corpus")
    counts: Counter = Counter()
    for doc in docs:
        for sent in doc.sentences:
            counts.update(sent)
        if doc.summary is not None:
            for sent in doc.summary:
                counts.update(sent)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary([tok for tok, _ in ranked[: cap - len(RESERVED_TOKENS)]])


def load_word_vectors(
    path: str | Path, vocab: Vocabulary, dim: int, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """Load word2vec-text vectors for vocabulary rows.

    Rows for tokens missing from the file (including the reserved tokens) are
    drawn uniform from [-0.05, 0.05]. A leading `count dim` header line is
    tolerated. A non-finite component of a vocabulary token's vector, or a
    second line for one vocabulary token, is an error. Returns (matrix, number
    of vocabulary tokens covered).
    """
    matrix = rng.uniform(-0.05, 0.05, size=(len(vocab), dim))
    covered: dict[int, int] = {}  # vocabulary index -> line
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2 and all(p.lstrip("-").isdigit() for p in parts):
                continue  # word2vec header
            token, values = parts[0], parts[1:]
            if len(values) != dim:
                raise CorpusError(
                    f"{path}: line {lineno}: expected {dim} vector components, got {len(values)}"
                )
            idx = vocab.token_to_index.get(token)
            if idx is None or idx < len(RESERVED_TOKENS):
                continue
            if idx in covered:
                raise CorpusError(
                    f"{path}: line {lineno}: {token!r} already has a vector on line {covered[idx]}"
                )
            try:
                matrix[idx] = [float(v) for v in values]
            except ValueError as exc:
                raise CorpusError(f"{path}: line {lineno}: non-numeric vector component") from exc
            if not np.isfinite(matrix[idx]).all():
                raise CorpusError(
                    f"{path}: line {lineno}: non-finite vector component for {token!r}"
                )
            covered[idx] = lineno
    return matrix, len(covered)


def encode(doc: Document, vocab: Vocabulary) -> list[list[int]]:
    """Map every token to its vocabulary index (OOV -> UNK)."""
    return [[vocab.lookup(tok) for tok in sent] for sent in doc.sentences]


def encode_summary(doc: Document, vocab: Vocabulary) -> list[int]:
    """Flattened reference-summary token indices for decoder targets."""
    if doc.summary is None:
        raise ValueError(f"document {doc.doc_id!r} has no reference summary")
    return [vocab.lookup(tok) for sent in doc.summary for tok in sent]
