"""Self-contained ROUGE-1/2/L with the three candidate length-limit policies.

Candidates and references are pre-tokenized. Byte limits are measured on the
single-space-joined string (UTF-8), counting separator spaces; a token is kept
only if the joined prefix through it still fits. Multi-sentence texts are
flattened before matching; no stemming or stopword filtering is applied.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

Sentences = list[list[str]]


@dataclass(frozen=True)
class RougeScore:
    recall: float
    precision: float
    f1: float


@dataclass(frozen=True)
class LengthLimit:
    """Candidate truncation policy: no limit, a byte budget, or a word budget."""

    unit: str  # "none" | "bytes" | "words"
    amount: int | None = None

    def __post_init__(self):
        if self.unit not in ("none", "bytes", "words"):
            raise ValueError(f"unknown length-limit unit {self.unit!r}")
        if self.unit != "none" and (self.amount is None or self.amount <= 0):
            raise ValueError(f"{self.unit} limit requires a positive amount")

    @classmethod
    def parse(cls, text: str) -> "LengthLimit":
        """Parse "none", "bytes:N", or "words:N" (the CLI flag syntax)."""
        if text == "none":
            return cls("none")
        kind, _, amount = text.partition(":")
        if kind in ("bytes", "words") and is_integer(amount):
            return cls(kind, int(amount))
        raise ValueError(f"cannot parse length limit {text!r}")

    def __str__(self) -> str:
        return self.unit if self.unit == "none" else f"{self.unit}:{self.amount}"


def is_integer(text: str) -> bool:
    """True for a decimal integer with an optional minus sign, e.g. "75" or "-1"."""
    return text.removeprefix("-").isdecimal()


def flatten(sentences: Sentences) -> list[str]:
    return [tok for sent in sentences for tok in sent]


def truncate(candidate: Sentences, limit: LengthLimit) -> list[str]:
    """Flatten candidate sentences in order and cut to the length budget."""
    tokens = flatten(candidate)
    if limit.unit == "none":
        return tokens
    if limit.unit == "words":
        return tokens[: limit.amount]
    out: list[str] = []
    used = 0
    for tok in tokens:
        need = len(tok.encode("utf-8")) + (1 if out else 0)
        if used + need > limit.amount:
            break
        out.append(tok)
        used += need
    return out


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _score(match: float, cand_total: int, ref_total: int) -> RougeScore:
    recall = match / ref_total if ref_total else 0.0
    precision = match / cand_total if cand_total else 0.0
    f1 = 0.0 if recall + precision == 0 else 2.0 * recall * precision / (recall + precision)
    return RougeScore(recall, precision, f1)


def rouge_n(candidate: list[str], reference: list[str], n: int) -> RougeScore:
    """Clipped n-gram overlap recall/precision/F1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cand = _ngram_counts(candidate, n)
    ref = _ngram_counts(reference, n)
    match = sum(min(count, ref[gram]) for gram, count in cand.items())
    return _score(match, sum(cand.values()), sum(ref.values()))


def _lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        for j, y in enumerate(b, 1):
            curr.append(prev[j - 1] + 1 if x == y else max(prev[j], curr[j - 1]))
        prev = curr
    return prev[-1]


def rouge_l(candidate: list[str], reference: list[str]) -> RougeScore:
    """Longest-common-subsequence recall/precision/F1."""
    lcs = _lcs_length(candidate, reference)
    return _score(lcs, len(candidate), len(reference))


def evaluate_summary(
    candidate: Sentences, reference: Sentences, limit: LengthLimit
) -> dict[str, RougeScore]:
    """Score a candidate against one reference under a truncation policy.

    Only the candidate is truncated; the reference is flattened whole.
    """
    ref_tokens = flatten(reference)
    if not ref_tokens:
        raise ValueError("evaluate_summary: reference summary is empty")
    cand_tokens = truncate(candidate, limit)
    return {
        "rouge1": rouge_n(cand_tokens, ref_tokens, 1),
        "rouge2": rouge_n(cand_tokens, ref_tokens, 2),
        "rougeL": rouge_l(cand_tokens, ref_tokens),
    }
