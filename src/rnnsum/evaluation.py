"""Test-time sentence selection and corpus-level ROUGE reporting.

Selection policies: probability-sorted under a length budget (the sentence
that first overflows the budget is still included, and metric-side truncation
trims it), fixed top-k, and the lead baseline. Corpus scores are per-document
means of the requested recall or F1 flavor.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

from .corpus import Document
from .rouge import LengthLimit, evaluate_summary, is_integer

Scorer = Callable[[Document], list[float]]

ROUGE_VARIANTS = ("rouge1", "rouge2", "rougeL")

# the count each policy takes, by the name its messages give it
_COUNT_NAMES = {"prob": None, "topk": "k", "lead": "n"}


class EvaluationError(ValueError):
    pass


@dataclass(frozen=True)
class SelectionPolicy:
    kind: str  # "prob" | "topk" | "lead"
    count: int | None = None  # k for "topk", n for "lead"

    def __post_init__(self):
        if self.kind not in _COUNT_NAMES:
            raise ValueError(f"unknown selection policy {self.kind!r}")
        name = _COUNT_NAMES[self.kind]
        if name is None and self.count is not None:
            raise ValueError(f"{self.kind} policy takes no count")
        if name is not None and (self.count is None or self.count < 1):
            raise ValueError(f"{self.kind} policy requires {name} >= 1")

    @classmethod
    def parse(cls, text: str) -> "SelectionPolicy":
        """Parse the CLI syntax: "prob", "topk:K", or "lead:N"."""
        if text == "prob":
            return cls("prob")
        kind, _, count = text.partition(":")
        if _COUNT_NAMES.get(kind) and is_integer(count):
            return cls(kind, int(count))
        raise ValueError(f"cannot parse selection policy {text!r}")

    def describe(self, limit: LengthLimit) -> str:
        """The report's name for the policy; only "prob" reads the limit."""
        return f"prob[{limit}]" if self.kind == "prob" else f"{self.kind}:{self.count}"


def _sentence_cost(sentence: list[str], unit: str) -> int:
    if unit == "words":
        return len(sentence)
    return sum(len(tok.encode("utf-8")) for tok in sentence) + len(sentence)  # token + space


def select(
    probabilities: list[float] | None, doc: Document, policy: SelectionPolicy, limit: LengthLimit
) -> list[int]:
    """Chosen sentence indices, always sorted by document position.

    `probabilities` may be None only under lead:N, which ignores them.
    """
    n = len(doc.sentences)
    if probabilities is None and policy.kind != "lead":
        raise EvaluationError(f"policy {policy.describe(limit)} needs probabilities")
    if probabilities is not None and len(probabilities) != n:
        raise EvaluationError(
            f"{len(probabilities)} probabilities for {n} sentences in {doc.doc_id!r}"
        )
    if policy.kind == "lead":
        return list(range(min(policy.count, n)))
    ranked = sorted(range(n), key=lambda i: (-probabilities[i], i))
    if policy.kind == "topk":
        return sorted(ranked[: policy.count])
    if limit.unit == "none":
        return list(range(n))
    # probability-sorted under a budget: greedily take the most probable
    # sentences; the first one to push the running length past the budget is
    # kept, then selection stops
    chosen: list[int] = []
    used = 0
    for i in ranked:
        chosen.append(i)
        used += _sentence_cost(doc.sentences[i], limit.unit)
        if used > limit.amount:
            break
    return sorted(chosen)


def evaluate_corpus(
    scorer: Scorer | None,
    docs: list[Document],
    policy: SelectionPolicy,
    limit: LengthLimit,
    flavor: str = "recall",
) -> dict:
    """Select, assemble in document order, score each document, average.

    `scorer` maps a document to per-sentence probabilities; it may be None for
    the lead policy, which ignores probabilities entirely. Returns the
    `evaluation_report.json` record: the policy, limit and flavor, the corpus
    mean of each ROUGE variant, and `per_document` selections and scores.
    """
    if flavor not in ("recall", "f1"):
        raise EvaluationError(f"flavor must be 'recall' or 'f1', got {flavor!r}")
    missing = [d.doc_id for d in docs if d.summary is None]
    if missing:
        raise EvaluationError(f"documents without reference summaries: {', '.join(missing)}")
    if not docs:
        raise EvaluationError("empty corpus")

    per_doc = []
    for doc in docs:
        chosen = select(scorer(doc) if scorer else None, doc, policy, limit)
        scores = evaluate_summary([doc.sentences[i] for i in chosen], doc.summary, limit)
        per_doc.append(
            {"id": doc.doc_id, "selected_indices": chosen}
            | {name: asdict(score) for name, score in scores.items()}
        )
    return {
        "policy": policy.describe(limit),
        "limit": str(limit),
        "flavor": flavor,
        **{name: sum(d[name][flavor] for d in per_doc) / len(docs) for name in ROUGE_VARIANTS},
        "per_document": per_doc,
    }
