"""Token-level re-scoring greedy oracle: the test oracle for `rnnsum.oracle`.

This is the greedy loop as it stood before the oracle scored count tables:
every candidate (the selection plus one sentence, flattened in document
order) and the reference are both cut into n-gram tuples again for each
score. `tests/test_oracle.py` checks that `rnnsum.oracle.greedy_trace` gives
the same labels, picks and scores for every metric. The arithmetic of a score
is the same, so the comparison is exact.
"""

from __future__ import annotations

from collections import Counter

from rnnsum.oracle import GreedyTrace


def rouge_n(candidate: list[str], reference: list[str], n: int) -> tuple[float, float, float]:
    """Clipped n-gram overlap (recall, precision, F1) of two token lists."""
    cand = Counter(tuple(candidate[i : i + n]) for i in range(len(candidate) - n + 1))
    ref = Counter(tuple(reference[i : i + n]) for i in range(len(reference) - n + 1))
    match = sum(min(count, ref[gram]) for gram, count in cand.items())
    cand_total, ref_total = sum(cand.values()), sum(ref.values())
    recall = match / ref_total if ref_total else 0.0
    precision = match / cand_total if cand_total else 0.0
    f1 = 0.0 if recall + precision == 0 else 2.0 * recall * precision / (recall + precision)
    return recall, precision, f1


def metric_value(metric: str, candidate: list[str], reference: list[str]) -> float:
    if metric == "rouge1_f1":
        return rouge_n(candidate, reference, 1)[2]
    if metric == "rouge2_f1":
        return rouge_n(candidate, reference, 2)[2]
    if metric == "mean_r1_r2_f1":
        r1 = rouge_n(candidate, reference, 1)[2]
        r2 = rouge_n(candidate, reference, 2)[2]
        return 0.5 * (r1 + r2)
    if metric == "rouge1_recall":
        return rouge_n(candidate, reference, 1)[0]
    raise ValueError(f"unknown oracle metric {metric!r}")


def greedy_trace(sentences: list[list[str]], summary: list[list[str]], metric: str) -> GreedyTrace:
    reference = [tok for sent in summary for tok in sent]
    n = len(sentences)
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
            candidate = [tok for j in sorted(selected | {i}) for tok in sentences[j]]
            score = metric_value(metric, candidate, reference)
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
