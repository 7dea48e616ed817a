"""Output checks written apart from the program.

Nothing here imports `rnnsum`. The model is re-implemented in plain numpy
from the paper's equations and the model's docstrings and reads the
checkpoint with `json`; ROUGE, the length limits, the selection policies and
the greedy oracle are re-implemented from their documented definitions.
Each check returns the ids of the documents whose output is wrong, so a
wrong output counts as a failed operation.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

RESERVED = ("<pad>", "<unk>", "<bos>", "<eos>")
UNK, BOS = 1, 2
LOG_EPS = 1e-12
PROB_TOL = 1e-9
ROUGE_TOL = 1e-12


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# reference model


class Reference:
    """The checkpointed model's forward pass and losses in plain numpy."""

    def __init__(self, checkpoint: Path):
        with open(checkpoint, encoding="utf-8") as fh:
            payload = json.load(fh)
        self.index = {tok: i for i, tok in enumerate(list(RESERVED) + payload["vocab"])}
        self.P = {
            name: np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
            for name, entry in payload["params"].items()
        }

    def ids(self, tokens: list[str]) -> list[int]:
        return [self.index.get(t, UNK) for t in tokens]

    def _gru(self, prefix: str, xs: np.ndarray, ctx: np.ndarray | None = None) -> np.ndarray:
        """h_t = u*h_{t-1} + (1-u)*tanh(W_hx x + W_hh (r*h_{t-1}) [+ W_hc c] + b_h)."""
        P = self.P
        g = {k: P[f"{prefix}.{k}"] for k in ("W_ux", "W_uh", "b_u", "W_rx", "W_rh", "b_r", "W_hx", "W_hh", "b_h")}
        h = np.zeros(g["b_u"].shape[0])
        out = []
        for x in xs:
            cu = cr = ch = 0.0
            if ctx is not None:
                cu, cr, ch = (P[f"{prefix}.W_{k}c"] @ ctx for k in "urh")
            u = sigmoid(g["W_ux"] @ x + g["W_uh"] @ h + cu + g["b_u"])
            r = sigmoid(g["W_rx"] @ x + g["W_rh"] @ h + cr + g["b_r"])
            cand = np.tanh(g["W_hx"] @ x + g["W_hh"] @ (r * h) + ch + g["b_h"])
            h = u * h + (1.0 - u) * cand
            out.append(h)
        return np.array(out)

    def probabilities(self, sentences: list[list[str]]) -> tuple[np.ndarray, np.ndarray]:
        """Membership probabilities and the final running summary state."""
        P = self.P
        E = P["embedding"]
        pooled = []
        for sent in sentences:
            xs = E[self.ids(sent)]
            fwd = self._gru("word_fwd", xs)
            bwd = self._gru("word_bwd", xs[::-1])[::-1]
            pooled.append(np.concatenate([fwd, bwd], axis=1).mean(axis=0))
        pooled = np.array(pooled)
        cat = np.concatenate(
            [self._gru("sent_fwd", pooled), self._gru("sent_bwd", pooled[::-1])[::-1]], axis=1
        )
        reps = np.tanh(cat @ P["sent_proj.W"].T + P["sent_proj.b"])
        doc = np.tanh(P["doc.W"] @ cat.mean(axis=0) + P["doc.b"])
        n = len(reps)
        segments = P["pos.rel"].shape[0]
        salience = P["score.W_salience"] @ doc
        s = np.zeros(reps.shape[1])
        probs = []
        for j, h in enumerate(reps, start=1):
            z = (
                P["score.w_content"] @ h
                + h @ salience
                - h @ (P["score.W_novelty"] @ np.tanh(s))
                + P["score.w_abs"] @ P["pos.abs"][j - 1]
                + P["score.w_rel"] @ P["pos.rel"][(j - 1) * segments // n]
                + P["score.b"]
            )
            p = float(sigmoid(z))
            probs.append(p)
            s = s + p * h
        return np.array(probs), s

    def bce(self, sentences, labels) -> float:
        probs, _ = self.probabilities(sentences)
        total = 0.0
        for p, y in zip(probs, labels):
            c = min(max(p, LOG_EPS), 1.0 - LOG_EPS)
            total += -math.log(c) if y == 1 else -math.log1p(-c)
        return total

    def nll(self, sentences, summary) -> float:
        """Teacher-forced decoder NLL; the context is the final summary state."""
        P = self.P
        E = P["embedding"]
        _, ctx = self.probabilities(sentences)
        targets = self.ids([t for sent in summary for t in sent])
        inputs = E[[BOS] + targets[:-1]]
        hs = self._gru("decoder", inputs, ctx)
        total = 0.0
        for h, x, w in zip(hs, inputs, targets):
            f = np.tanh(
                P["decoder.emit.W_h"] @ h + P["decoder.emit.W_x"] @ x
                + P["decoder.emit.W_c"] @ ctx + P["decoder.emit.b"]
            )
            logits = P["decoder.out.W"] @ f + P["decoder.out.b"]
            m = logits.max()
            total += math.log(np.exp(logits - m).sum()) + m - logits[w]
        return total


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def parameter_count(w, vocab_size: int) -> int:
    """Parameters implied by the workload's dims (see the model docstrings)."""
    e, h, p = w.embedding_dim, w.hidden_dim, w.position_embedding_dim

    def gru(inp, hid, ctx=0):
        return 3 * (hid * inp + hid * hid + hid * ctx + hid)

    count = vocab_size * e + 2 * gru(e, h) + 2 * gru(2 * h, h)
    count += 2 * (h * 2 * h + h)  # sentence projection, document vector
    count += h + 2 * h * h + 2 * p + 1  # content, salience, novelty, positions, bias
    count += w.max_sentences * p + w.num_rel_segments * p  # position tables
    if w.mode == "abstractive":
        count += gru(e, h, ctx=h) + h * (h + e + h) + h + vocab_size * h + vocab_size
    return count


# ---------------------------------------------------------------------------
# ROUGE, length limits, selection


def ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def prf(match: int, cand_total: int, ref_total: int) -> tuple[float, float, float]:
    recall = match / ref_total if ref_total else 0.0
    precision = match / cand_total if cand_total else 0.0
    f1 = 0.0 if recall + precision == 0 else 2.0 * recall * precision / (recall + precision)
    return recall, precision, f1


def rouge_n(cand: list[str], ref: list[str], n: int):
    c, r = ngrams(cand, n), ngrams(ref, n)
    return prf(sum((c & r).values()), sum(c.values()), sum(r.values()))


def lcs(a: list[str], b: list[str]) -> int:
    """Longest common subsequence length, by the textbook table filled row by row."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, x in enumerate(a, 1):
        for j, y in enumerate(b, 1):
            table[i][j] = table[i - 1][j - 1] + 1 if x == y else max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def truncate(tokens: list[str], limit: str) -> list[str]:
    """Candidate cut: first N words, or tokens while the space-joined text fits N bytes."""
    if limit == "none":
        return tokens
    unit, amount = limit.split(":")
    amount = int(amount)
    if unit == "words":
        return tokens[:amount]
    kept = []
    for tok in tokens:
        if len(" ".join(kept + [tok]).encode("utf-8")) > amount:
            break
        kept.append(tok)
    return kept


def rouge_scores(candidate: list[list[str]], reference: list[list[str]], limit: str) -> dict:
    cand = truncate([t for s in candidate for t in s], limit)
    ref = [t for s in reference for t in s]
    return {
        "rouge1": rouge_n(cand, ref, 1),
        "rouge2": rouge_n(cand, ref, 2),
        "rougeL": prf(lcs(cand, ref), len(cand), len(ref)),
    }


def expected_selection(probs: list[float], sentences: list[list[str]], policy: str, limit: str) -> list[int]:
    order = sorted(range(len(probs)), key=lambda i: (-probs[i], i))
    if policy.startswith("topk:"):
        return sorted(order[: int(policy.split(":")[1])])
    if limit == "none":
        return list(range(len(probs)))
    unit, amount = limit.split(":")
    chosen, used = [], 0
    for i in order:  # most probable first; the sentence that overflows is kept
        chosen.append(i)
        sent = sentences[i]
        used += len(sent) if unit == "words" else sum(len(t.encode("utf-8")) + 1 for t in sent)
        if used > int(amount):
            break
    return sorted(chosen)


# ---------------------------------------------------------------------------
# greedy oracle


class OracleMetric:
    """The oracle's objective for subsets of one document's sentences."""

    def __init__(self, metric: str, sentences: list[list[str]], summary: list[list[str]]):
        self.metric = metric
        self.sentences = sentences
        ref = [t for s in summary for t in s]
        self.ref = {1: ngrams(ref, 1), 2: ngrams(ref, 2)}
        self.ref_total = {n: sum(c.values()) for n, c in self.ref.items()}

    def _score(self, tokens: list[str], n: int) -> tuple[float, float, float]:
        c = ngrams(tokens, n)
        return prf(sum((c & self.ref[n]).values()), sum(c.values()), self.ref_total[n])

    def __call__(self, subset) -> float:
        tokens = [t for i in sorted(subset) for t in self.sentences[i]]
        if self.metric == "rouge1_f1":
            return self._score(tokens, 1)[2]
        if self.metric == "rouge2_f1":
            return self._score(tokens, 2)[2]
        if self.metric == "rouge1_recall":
            return self._score(tokens, 1)[0]
        return 0.5 * (self._score(tokens, 1)[2] + self._score(tokens, 2)[2])


def greedy_oracle(score: OracleMetric) -> list[int]:
    """Add the sentence that most improves the score, earliest on ties, until none does."""
    selected: set[int] = set()
    best = 0.0
    while True:
        pick = None
        for i in range(len(score.sentences)):
            if i not in selected:
                value = score(selected | {i})
                if value > best:
                    best, pick = value, i
        if pick is None:
            return sorted(selected)
        selected.add(pick)


# ---------------------------------------------------------------------------
# checks per command; each returns the ids of wrong documents


def check_labels(workload, docs: list[dict], copied: list[list[int]], labeled: list[dict], sample: int) -> set[str]:
    """Stopping property on every document, the full greedy on the first
    `sample`, and exact recovery of the copied sentences where references
    copy. Returns the wrong ids."""
    wrong: set[str] = set()
    by_id = {d["id"]: d for d in labeled}
    for k, (doc, copy) in enumerate(zip(docs, copied)):
        out = by_id.get(doc["id"])
        if out is None or out["sentences"] != doc["sentences"] or out.get("summary") != doc["summary"]:
            wrong.add(doc["id"])
            continue
        labels = out.get("labels") or []
        chosen = {i for i, y in enumerate(labels) if y == 1}
        if len(labels) != len(doc["sentences"]):
            wrong.add(doc["id"])
            continue
        score = OracleMetric(workload.oracle_metric, doc["sentences"], doc["summary"])
        final = score(chosen)
        if any(score(chosen | {i}) > final for i in range(len(labels)) if i not in chosen):
            wrong.add(doc["id"])
        if workload.summary == "copy" and chosen != set(copy):
            wrong.add(doc["id"])
        if k < sample and greedy_oracle(score) != sorted(chosen):
            wrong.add(doc["id"])
    return wrong


def oracle_rouge_calls(metric: str, labeled: list[dict]) -> int:
    """ROUGE calls of the greedy oracle, from its labels alone: each of the
    m picks and the final scan that finds no improvement scores every
    still-unselected sentence, with two calls per score for mean_r1_r2_f1."""
    per_score = 2 if metric == "mean_r1_r2_f1" else 1
    total = 0
    for doc in labeled:
        n, m = len(doc["labels"]), sum(doc["labels"])
        total += per_score * sum(n - k for k in range(m + 1))
    return total


def check_training(workload, run_dir: Path, ref: Reference, valid: list[dict], train: list[dict]) -> list[str]:
    """Problems with the trained model (`ref` reads checkpoint_final.json);
    any one fails every training document."""
    problems = []
    report = json.loads((run_dir / "training_report.json").read_text(encoding="utf-8"))
    if len(report["epochs"]) != workload.epochs:
        problems.append(f"{len(report['epochs'])} epochs run, {workload.epochs} configured")
    tokens = set()
    for doc in train:
        for sent in doc["sentences"] + doc.get("summary", []):
            tokens.update(sent)
    implied = parameter_count(workload, len(RESERVED) + len(tokens))
    count = sum(values.size for values in ref.P.values())
    if count != implied:
        problems.append(f"{count} parameters, dims imply {implied}")
    problems += [f"{name}: non-finite values" for name, v in ref.P.items() if not np.isfinite(v).all()]
    if workload.mode == "extractive":
        losses = [ref.bce(d["sentences"], d["labels"]) for d in valid]
    else:
        losses = [ref.nll(d["sentences"], d["summary"]) for d in valid]
    expected = sum(losses) / len(losses)
    got = report["epochs"][-1]["valid_loss"]
    if abs(got - expected) > PROB_TOL * max(1.0, abs(expected)):
        problems.append(f"final valid_loss {got!r}, reference {expected!r}")
    return problems


def check_summaries(workload, ref: Reference, test: list[dict], summaries: list[dict]) -> set[str]:
    wrong = set()
    by_id = {s.get("id"): s for s in summaries}
    for doc in test:
        out = by_id.get(doc["id"])
        try:
            probs = out["probabilities"]
            expected, _ = ref.probabilities(doc["sentences"])
            ok = (
                len(probs) == len(expected)
                and float(np.max(np.abs(np.asarray(probs) - expected))) <= PROB_TOL
                and out["selected_indices"]
                == expected_selection(probs, doc["sentences"], workload.policy, workload.limit)
                and out["summary_sentences"] == [doc["sentences"][i] for i in out["selected_indices"]]
            )
        except (TypeError, KeyError, IndexError):
            ok = False
        if not ok:
            wrong.add(doc["id"])
    return wrong


def check_evaluation(workload, test: list[dict], summaries: list[dict], report: dict) -> tuple[set[str], list[str]]:
    """Recompute every document's ROUGE from summaries.jsonl and the corpus means."""
    wrong, problems = set(), []
    chosen = {s["id"]: s["selected_indices"] for s in summaries}
    per_doc = {d.get("id"): d for d in report.get("per_document", [])}
    sums = {name: 0.0 for name in ("rouge1", "rouge2", "rougeL")}
    flavor = {"recall": 0, "f1": 2}[workload.flavor]
    for doc in test:
        sel = chosen.get(doc["id"], [])
        scores = rouge_scores([doc["sentences"][i] for i in sel], doc["summary"], workload.limit)
        out = per_doc.get(doc["id"])
        for name, (r, p, f) in scores.items():
            sums[name] += (r, p, f)[flavor]
            try:
                got = out[name]
                ok = out["selected_indices"] == sel and all(
                    abs(got[k] - v) <= ROUGE_TOL for k, v in zip(("recall", "precision", "f1"), (r, p, f))
                )
            except (TypeError, KeyError):
                ok = False
            if not ok:
                wrong.add(doc["id"])
    for name, total in sums.items():
        if abs(report.get(name, math.nan) - total / len(test)) > ROUGE_TOL:
            problems.append(f"{name} {report.get(name)!r} != recomputed {total / len(test)!r}")
    return wrong, problems


def lcs_cells(test: list[dict], summaries: list[dict], limit: str) -> int:
    """LCS table cells the evaluation's ROUGE-L fills, from the files alone."""
    chosen = {s["id"]: s["selected_indices"] for s in summaries}
    total = 0
    for doc in test:
        cand = truncate([t for i in chosen[doc["id"]] for t in doc["sentences"][i]], limit)
        total += len(cand) * sum(len(s) for s in doc["summary"])
    return total
