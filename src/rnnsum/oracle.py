"""Greedy conversion of abstractive reference summaries to extractive labels.

Starting from an empty selection, each step adds the unselected sentence whose
inclusion most improves the configured ROUGE metric of the selection (rendered
in document order) against the reference, stopping when no addition strictly
improves it. Ties go to the earliest sentence, which also makes the procedure
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Document
from .rouge import flatten, ngram_counts, rouge_n

# the n of each ROUGE-N a metric reads, and how it combines their scores
_METRICS = {
    "rouge1_f1": ((1,), lambda r1: r1.f1),
    "rouge2_f1": ((2,), lambda r2: r2.f1),
    "mean_r1_r2_f1": ((1, 2), lambda r1, r2: 0.5 * (r1.f1 + r2.f1)),
    "rouge1_recall": ((1,), lambda r1: r1.recall),
}
ORACLE_METRICS = tuple(_METRICS)


class OracleError(ValueError):
    pass


@dataclass
class GreedyTrace:
    labels: list[int]
    picked: list[int]  # sentence index chosen at each step
    scores: list[float]  # metric value after each step


@dataclass
class LabelStats:
    documents: int
    mean_selected: float
    mean_score: float


def greedy_trace(doc: Document, metric: str) -> GreedyTrace:
    """Greedy selection for one document. The reference is counted once; each
    candidate, the selection plus one sentence flattened in document order, is
    counted and scored with one `rouge_n` call per n the metric reads."""
    if doc.summary is None:
        raise OracleError(f"document {doc.doc_id!r} has no reference summary")
    orders, combine = _METRICS[metric]
    reference = flatten(doc.summary)
    references = [ngram_counts(reference, n) for n in orders]
    n = len(doc.sentences)
    selected: set[int] = set()
    best_score = 0.0
    picked: list[int] = []
    scores: list[float] = []

    while True:
        best_idx = None
        best_new = best_score
        for i in range(n):
            if i in selected:
                continue
            candidate = flatten(
                [doc.sentences[j] for j in sorted(selected | {i})]
            )
            score = combine(
                *[rouge_n(ngram_counts(candidate, k), ref) for k, ref in zip(orders, references)]
            )
            if score > best_new:  # strict: ascending scan keeps lowest index on ties
                best_new = score
                best_idx = i
        if best_idx is None:
            break
        selected.add(best_idx)
        best_score = best_new
        picked.append(best_idx)
        scores.append(best_score)

    labels = [1 if i in selected else 0 for i in range(n)]
    return GreedyTrace(labels, picked, scores)


def label_corpus(docs: list[Document], metric: str) -> tuple[list[Document], LabelStats]:
    """Label every document; input order preserved, inputs not mutated."""
    if metric not in ORACLE_METRICS:
        raise ValueError(f"unknown oracle metric {metric!r}")
    missing = [d.doc_id for d in docs if d.summary is None]
    if missing:
        raise OracleError(f"documents without reference summaries: {', '.join(missing)}")
    labeled: list[Document] = []
    total_selected = 0
    total_score = 0.0
    for doc in docs:
        trace = greedy_trace(doc, metric)
        labeled.append(
            Document(doc.doc_id, doc.sentences, doc.summary, trace.labels)
        )
        total_selected += sum(trace.labels)
        total_score += trace.scores[-1] if trace.scores else 0.0
    count = len(docs)
    stats = LabelStats(
        documents=count,
        mean_selected=total_selected / count if count else 0.0,
        mean_score=total_score / count if count else 0.0,
    )
    return labeled, stats
