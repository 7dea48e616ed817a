"""Test-time sentence selection and corpus-level ROUGE reporting.

Selection policies: probability-sorted under a length budget (the sentence
that first overflows the budget is still included, and metric-side truncation
trims it), fixed top-k, and the lead baseline. Corpus scores are per-document
means of the requested recall or F1 flavor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .corpus import Document
from .rouge import LengthLimit, RougeScore, evaluate_summary

Scorer = Callable[[Document], list[float]]

ROUGE_VARIANTS = ("rouge1", "rouge2", "rougeL")


class EvaluationError(ValueError):
    pass


@dataclass(frozen=True)
class SelectionPolicy:
    kind: str  # "prob" | "topk" | "lead"
    limit: LengthLimit | None = None  # for "prob"
    k: int | None = None  # for "topk"
    n: int | None = None  # for "lead"

    def __post_init__(self):
        if self.kind == "prob":
            if self.limit is None:
                raise ValueError("prob policy requires a length limit")
        elif self.kind == "topk":
            if self.k is None or self.k < 1:
                raise ValueError("topk policy requires k >= 1")
        elif self.kind == "lead":
            if self.n is None or self.n < 1:
                raise ValueError("lead policy requires n >= 1")
        else:
            raise ValueError(f"unknown selection policy {self.kind!r}")

    @classmethod
    def by_probability(cls, limit: LengthLimit) -> "SelectionPolicy":
        return cls("prob", limit=limit)

    @classmethod
    def top_k(cls, k: int) -> "SelectionPolicy":
        return cls("topk", k=k)

    @classmethod
    def lead(cls, n: int) -> "SelectionPolicy":
        return cls("lead", n=n)

    @classmethod
    def parse(cls, text: str, limit: LengthLimit | None = None) -> "SelectionPolicy":
        """Parse the CLI syntax: "prob", "topk:K", or "lead:N"."""
        kind, _, arg = text.partition(":")
        if kind == "prob":
            return cls.by_probability(limit if limit is not None else LengthLimit.none())
        if kind == "topk":
            return cls.top_k(int(arg))
        if kind == "lead":
            return cls.lead(int(arg))
        raise ValueError(f"cannot parse selection policy {text!r}")

    def __str__(self) -> str:
        if self.kind == "prob":
            return f"prob[{self.limit}]"
        if self.kind == "topk":
            return f"topk:{self.k}"
        return f"lead:{self.n}"


def _sentence_cost(sentence: list[str], unit: str) -> int:
    if unit == "words":
        return len(sentence)
    return sum(len(tok.encode("utf-8")) for tok in sentence) + len(sentence)  # token + space


def select(probabilities: list[float], doc: Document, policy: SelectionPolicy) -> list[int]:
    """Chosen sentence indices, always sorted by document position."""
    n = len(doc.sentences)
    if len(probabilities) != n:
        raise EvaluationError(
            f"{len(probabilities)} probabilities for {n} sentences in {doc.doc_id!r}"
        )
    if policy.kind == "lead":
        return list(range(min(policy.n, n)))
    if policy.kind == "topk":
        ranked = sorted(range(n), key=lambda i: (-probabilities[i], i))
        return sorted(ranked[: policy.k])
    # probability-sorted under a budget: greedily take the most probable
    # sentences; the first one to push the running length past the budget is
    # kept, then selection stops
    ranked = sorted(range(n), key=lambda i: (-probabilities[i], i))
    if policy.limit.unit == "none":
        return list(range(n))
    chosen: list[int] = []
    used = 0
    for i in ranked:
        chosen.append(i)
        used += _sentence_cost(doc.sentences[i], policy.limit.unit)
        if used > policy.limit.amount:
            break
    return sorted(chosen)


@dataclass
class DocumentScores:
    doc_id: str
    selected: list[int]
    scores: dict[str, RougeScore]


@dataclass
class CorpusRougeReport:
    policy: str
    limit: str
    flavor: str
    rouge1: float
    rouge2: float
    rougeL: float
    per_document: list[DocumentScores]

    def value(self, variant: str) -> float:
        return {"rouge1": self.rouge1, "rouge2": self.rouge2, "rougeL": self.rougeL}[variant]


def evaluate_corpus(
    scorer: Scorer | None,
    docs: list[Document],
    policy: SelectionPolicy,
    limit: LengthLimit,
    flavor: str = "recall",
) -> CorpusRougeReport:
    """Select, assemble in document order, score each document, average.

    `scorer` maps a document to per-sentence probabilities; it may be None for
    the lead policy, which ignores probabilities entirely.
    """
    if flavor not in ("recall", "f1"):
        raise EvaluationError(f"flavor must be 'recall' or 'f1', got {flavor!r}")
    missing = [d.doc_id for d in docs if d.summary is None]
    if missing:
        raise EvaluationError(f"documents without reference summaries: {', '.join(missing)}")
    if not docs:
        raise EvaluationError("empty corpus")
    if scorer is None and policy.kind != "lead":
        raise EvaluationError(f"policy {policy} needs a probability scorer")

    per_doc: list[DocumentScores] = []
    sums = {name: 0.0 for name in ROUGE_VARIANTS}
    for doc in docs:
        probs = scorer(doc) if policy.kind != "lead" else [0.0] * len(doc.sentences)
        chosen = select(probs, doc, policy)
        candidate = [doc.sentences[i] for i in chosen]
        scores = evaluate_summary(candidate, doc.summary, limit)
        per_doc.append(DocumentScores(doc.doc_id, chosen, scores))
        for name in ROUGE_VARIANTS:
            sums[name] += getattr(scores[name], flavor)
    n = len(docs)
    return CorpusRougeReport(
        policy=str(policy),
        limit=str(limit),
        flavor=flavor,
        rouge1=sums["rouge1"] / n,
        rouge2=sums["rouge2"] / n,
        rougeL=sums["rougeL"] / n,
        per_document=per_doc,
    )

