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
from .rouge import flatten, rouge_n

ORACLE_METRICS = ("rouge1_f1", "rouge2_f1", "mean_r1_r2_f1", "rouge1_recall")


class OracleError(ValueError):
    pass


@dataclass
class OracleConfig:
    metric: str = "rouge1_f1"
    max_selected: int | None = None

    def __post_init__(self):
        if self.metric not in ORACLE_METRICS:
            raise ValueError(f"unknown oracle metric {self.metric!r}")
        if self.max_selected is not None and self.max_selected < 1:
            raise ValueError("max_selected must be >= 1")


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


def metric_value(metric: str, candidate: list[str], reference: list[str]) -> float:
    if metric == "rouge1_f1":
        return rouge_n(candidate, reference, 1).f1
    if metric == "rouge2_f1":
        return rouge_n(candidate, reference, 2).f1
    if metric == "mean_r1_r2_f1":
        r1 = rouge_n(candidate, reference, 1).f1
        r2 = rouge_n(candidate, reference, 2).f1
        return 0.5 * (r1 + r2)
    if metric == "rouge1_recall":
        return rouge_n(candidate, reference, 1).recall
    raise ValueError(f"unknown oracle metric {metric!r}")


def greedy_trace(doc: Document, config: OracleConfig) -> GreedyTrace:
    if doc.summary is None:
        raise OracleError(f"document {doc.doc_id!r} has no reference summary")
    reference = flatten(doc.summary)
    n = len(doc.sentences)
    selected: set[int] = set()
    best_score = 0.0
    picked: list[int] = []
    scores: list[float] = []

    while config.max_selected is None or len(selected) < config.max_selected:
        best_idx = None
        best_new = best_score
        for i in range(n):
            if i in selected:
                continue
            candidate = flatten(
                [doc.sentences[j] for j in sorted(selected | {i})]
            )
            score = metric_value(config.metric, candidate, reference)
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


def label_corpus(
    docs: list[Document], config: OracleConfig
) -> tuple[list[Document], LabelStats]:
    """Label every document; input order preserved, inputs not mutated."""
    missing = [d.doc_id for d in docs if d.summary is None]
    if missing:
        raise OracleError(f"documents without reference summaries: {', '.join(missing)}")
    labeled: list[Document] = []
    total_selected = 0
    total_score = 0.0
    for doc in docs:
        trace = greedy_trace(doc, config)
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
