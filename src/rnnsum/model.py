"""Two-layer bidirectional GRU sentence classifier with factored scoring.

The word-level bidirectional GRU pair encodes each sentence (average-pooled
concatenated states); the sentence-level pair runs over those vectors. Each
sentence is then scored by a logistic layer that sums six interpretable
factors: content, salience against the document vector, a subtracted novelty
term against the running summary state, absolute and relative position terms,
and a bias. The running summary state is the probability-weighted sum of
sentence vectors seen so far.

The forward pass is plain numpy, one layer at a time, and each layer kind has
one hand-written backward: `gru_backward` serves all GRUs, `_score_backward`
the scorer and `_encoder_backward` the rest of the encoder. `forward` hands
its outputs to the autodiff tape as two nodes that run that backward.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .corpus import Vocabulary

CHECKPOINT_FORMAT = "rnnsum-checkpoint"
CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    pass


@dataclass
class ModelConfig:
    vocab_size: int
    embedding_dim: int = 100
    hidden_dim: int = 200  # per direction
    position_embedding_dim: int = 50
    max_abs_positions: int = 100
    num_rel_segments: int = 10
    decoder_enabled: bool = False
    decoder_hidden_dim: int | None = None  # defaults to hidden_dim
    decoder_ff_dim: int | None = None  # defaults to hidden_dim

    def __post_init__(self):
        for name in (
            "vocab_size",
            "embedding_dim",
            "hidden_dim",
            "position_embedding_dim",
            "max_abs_positions",
            "num_rel_segments",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        for name in ("decoder_hidden_dim", "decoder_ff_dim"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

    @property
    def dec_hidden(self) -> int:
        return self.decoder_hidden_dim or self.hidden_dim

    @property
    def dec_ff(self) -> int:
        return self.decoder_ff_dim or self.hidden_dim


@dataclass
class GruParams:
    W_ux: ad.Node
    W_uh: ad.Node
    b_u: ad.Node
    W_rx: ad.Node
    W_rh: ad.Node
    b_r: ad.Node
    W_hx: ad.Node
    W_hh: ad.Node
    b_h: ad.Node
    # context weights, present only in a cell that reads a context vector
    W_uc: ad.Node | None = None
    W_rc: ad.Node | None = None
    W_hc: ad.Node | None = None

    def weights(self, kind: str) -> list[ad.Node]:
        """The u, r and candidate gates' weights on input `x`, state `h` or context `c`."""
        return [getattr(self, f"W_{gate}{kind}") for gate in "urh"]

    def biases(self) -> list[ad.Node]:
        return [self.b_u, self.b_r, self.b_h]


@dataclass
class DecoderParams:
    """GRU with an extra context input plus the word-emission head."""

    gru: GruParams
    emit_Wh: ad.Node
    emit_Wx: ad.Node
    emit_Wc: ad.Node
    emit_b: ad.Node
    out_W: ad.Node
    out_b: ad.Node


@dataclass
class ModelParams:
    config: ModelConfig
    embedding: ad.Node
    word_fwd: GruParams
    word_bwd: GruParams
    sent_fwd: GruParams
    sent_bwd: GruParams
    sent_proj_W: ad.Node
    sent_proj_b: ad.Node
    doc_W: ad.Node
    doc_b: ad.Node
    content_w: ad.Node  # vector
    salience_W: ad.Node  # matrix, pairs sentence with document vector
    novelty_W: ad.Node  # matrix, pairs sentence with running summary state
    abs_pos_w: ad.Node  # vector over the absolute-position embedding
    rel_pos_w: ad.Node  # vector over the relative-segment embedding
    abs_pos_table: ad.Node
    rel_pos_table: ad.Node
    score_bias: ad.Node  # scalar
    decoder: DecoderParams | None = None


# the columns of a factor array: pre-sigmoid terms, novelty the subtracted one
FACTORS = ("content", "salience", "novelty", "abs_pos", "rel_pos", "bias")


@dataclass
class EncoderState:
    """Encoder outputs, and what the encoder's backward needs of its forward."""

    sentence_reps: np.ndarray  # (sentences, hidden)
    doc_rep: np.ndarray  # (hidden,)
    sentence_states: np.ndarray  # (sentences, 2 * hidden): concatenated fwd/bwd states
    ids: np.ndarray  # every word id of the document, in order
    lengths: np.ndarray  # words per sentence
    flip: np.ndarray  # word order of the backward word GRU
    runs: tuple[GruRun, GruRun, GruRun, GruRun]  # word_fwd, word_bwd, sent_fwd, sent_bwd


@dataclass
class ForwardResult:
    probabilities: ad.Node  # vector in (0, 1), one entry per sentence
    factors: np.ndarray  # (sentences, 6), columns in FACTORS order
    s_last: ad.Node  # running summary state after the final sentence

    def probability_values(self) -> list[float]:
        return self.probabilities.value.tolist()


# ---------------------------------------------------------------------------
# parameter creation


def _gru_shapes(prefix: str, in_dim: int, hid: int, ctx: int | None = None) -> dict:
    shapes = {}
    for gate in ("u", "r", "h"):
        shapes[f"{prefix}.W_{gate}x"] = (hid, in_dim)
        shapes[f"{prefix}.W_{gate}h"] = (hid, hid)
        if ctx is not None:
            shapes[f"{prefix}.W_{gate}c"] = (hid, ctx)
        shapes[f"{prefix}.b_{gate}"] = (hid,)
    return shapes


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every named parameter and its shape, in canonical creation order."""
    h, e, p = config.hidden_dim, config.embedding_dim, config.position_embedding_dim
    shapes: dict[str, tuple[int, ...]] = {"embedding": (config.vocab_size, e)}
    shapes.update(_gru_shapes("word_fwd", e, h))
    shapes.update(_gru_shapes("word_bwd", e, h))
    shapes.update(_gru_shapes("sent_fwd", 2 * h, h))
    shapes.update(_gru_shapes("sent_bwd", 2 * h, h))
    shapes["sent_proj.W"] = (h, 2 * h)
    shapes["sent_proj.b"] = (h,)
    shapes["doc.W"] = (h, 2 * h)
    shapes["doc.b"] = (h,)
    shapes["score.w_content"] = (h,)
    shapes["score.W_salience"] = (h, h)
    shapes["score.W_novelty"] = (h, h)
    shapes["score.w_abs"] = (p,)
    shapes["score.w_rel"] = (p,)
    shapes["score.b"] = ()
    shapes["pos.abs"] = (config.max_abs_positions, p)
    shapes["pos.rel"] = (config.num_rel_segments, p)
    if config.decoder_enabled:
        shapes.update(_gru_shapes("decoder", e, config.dec_hidden, ctx=h))
        shapes["decoder.emit.W_h"] = (config.dec_ff, config.dec_hidden)
        shapes["decoder.emit.W_x"] = (config.dec_ff, e)
        shapes["decoder.emit.W_c"] = (config.dec_ff, h)
        shapes["decoder.emit.b"] = (config.dec_ff,)
        shapes["decoder.out.W"] = (config.vocab_size, config.dec_ff)
        shapes["decoder.out.b"] = (config.vocab_size,)
    return shapes


def _init_array(name: str, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    leaf = name.rsplit(".", 1)[-1]
    if name == "embedding" or name.startswith("pos."):
        return rng.uniform(-0.05, 0.05, size=shape)
    if leaf.startswith("b"):
        return np.zeros(shape)
    if len(shape) == 2:
        fan_out, fan_in = shape
    else:
        fan_out, fan_in = 1, shape[0]  # weight vectors reduce to a scalar
    r = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-r, r, size=shape)


def init_params(
    config: ModelConfig,
    store: ad.ParameterStore,
    rng: np.random.Generator,
    embedding: np.ndarray | None = None,
) -> ModelParams:
    """Create and register all model parameters; optional pre-trained embedding."""
    for name, shape in parameter_shapes(config).items():
        if name == "embedding" and embedding is not None:
            if embedding.shape != shape:
                raise ValueError(f"embedding shape {embedding.shape} != expected {shape}")
            store.add(name, embedding)
        else:
            store.add(name, _init_array(name, shape, rng))
    return wire_params(store, config)


def _wire_gru(store: ad.ParameterStore, prefix: str) -> GruParams:
    names = (f.name for f in fields(GruParams))
    return GruParams(**{n: store[f"{prefix}.{n}"] for n in names if f"{prefix}.{n}" in store})


def wire_params(store: ad.ParameterStore, config: ModelConfig) -> ModelParams:
    decoder = None
    if config.decoder_enabled:
        d = lambda n: store[f"decoder.{n}"]
        decoder = DecoderParams(
            _wire_gru(store, "decoder"),
            d("emit.W_h"), d("emit.W_x"), d("emit.W_c"), d("emit.b"),
            d("out.W"), d("out.b"),
        )
    return ModelParams(
        config=config,
        embedding=store["embedding"],
        word_fwd=_wire_gru(store, "word_fwd"),
        word_bwd=_wire_gru(store, "word_bwd"),
        sent_fwd=_wire_gru(store, "sent_fwd"),
        sent_bwd=_wire_gru(store, "sent_bwd"),
        sent_proj_W=store["sent_proj.W"],
        sent_proj_b=store["sent_proj.b"],
        doc_W=store["doc.W"],
        doc_b=store["doc.b"],
        content_w=store["score.w_content"],
        salience_W=store["score.W_salience"],
        novelty_W=store["score.W_novelty"],
        abs_pos_w=store["score.w_abs"],
        rel_pos_w=store["score.w_rel"],
        abs_pos_table=store["pos.abs"],
        rel_pos_table=store["pos.rel"],
        score_bias=store["score.b"],
        decoder=decoder,
    )


# ---------------------------------------------------------------------------
# forward and backward computation
#
# Every layer computes in numpy over whole sequences and keeps what its
# backward needs. Input projections and weight gradients are matrix products
# over all timesteps; only the recurrences step one position at a time.


def _sigmoid(x: np.ndarray) -> np.ndarray:
    z = np.exp(-np.abs(x))  # in (0, 1], never overflows
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def _add_split(nodes: list[ad.Node], grad: np.ndarray) -> None:
    for node, part in zip(nodes, np.split(grad, len(nodes))):
        node.grad += part


def gate_inputs(gru: GruParams, xs: np.ndarray, ctx: np.ndarray | None = None) -> np.ndarray:
    """Input terms of the update, reset and candidate gates at every step.

    Row t is [W_ux x_t + b_u, W_rx x_t + b_r, W_hx x_t + b_h], plus each
    gate's W_*c ctx for a cell with a constant context vector.
    """
    a = np.hstack([xs @ w.value.T + b.value for w, b in zip(gru.weights("x"), gru.biases())])
    if ctx is not None:
        a += np.concatenate([w.value @ ctx for w in gru.weights("c")])
    return a


def gru_step(gru: GruParams, a: np.ndarray, h_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One update/reset-gated recurrence step.

    `a` is one row of `gate_inputs`. Returns the gate values [u, r, candidate]
    as one vector and the new state u * h_prev + (1 - u) * candidate.
    """
    hid = h_prev.shape[0]
    ur = _sigmoid(a[: 2 * hid] + np.concatenate((gru.W_uh.value @ h_prev, gru.W_rh.value @ h_prev)))
    u, r = ur[:hid], ur[hid:]
    cand = np.tanh(a[2 * hid :] + gru.W_hh.value @ (r * h_prev))
    return np.concatenate((ur, cand)), u * h_prev + (1.0 - u) * cand


@dataclass
class GruRun:
    """One GRU over packed sequences, each started from the zero state."""

    inputs: np.ndarray  # (steps, input dim)
    states: np.ndarray  # (steps, hidden): the state after each step
    gates: np.ndarray  # (steps, 3 * hidden): u, r and the candidate
    bounds: list[tuple[int, int]]  # [start, end) of each sequence


def _run_gru(gru: GruParams, xs: np.ndarray, bounds: list[tuple[int, int]]) -> GruRun:
    a = gate_inputs(gru, xs)
    hid = gru.b_u.value.shape[0]
    states = np.empty((len(xs), hid))
    gates = np.empty((len(xs), 3 * hid))
    for start, end in bounds:
        h = np.zeros(hid)
        for t in range(start, end):
            gates[t], h = gru_step(gru, a[t], h)
            states[t] = h
    return GruRun(xs, states, gates, bounds)


def gru_backward(
    gru: GruParams, run: GruRun, d_states: np.ndarray, ctx: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Backpropagation through time over `run`, given dLoss/d(each state).

    Adds the gradient of every weight of `gru`, each as one product over all
    steps, and returns the gradients at the inputs and, for a cell that read
    the context `ctx`, at the context.
    """
    hid = d_states.shape[1]
    u_all, r_all, c_all = np.split(run.gates, 3, axis=1)
    prev = np.zeros_like(run.states)
    prev[1:] = run.states[:-1]
    prev[[start for start, _ in run.bounds]] = 0.0
    W_uh, W_rh, W_hh = gru.W_uh.value, gru.W_rh.value, gru.W_hh.value
    dz = np.empty_like(run.gates)  # gradient at the gates' pre-activations
    for start, end in run.bounds:
        dh = np.zeros(hid)
        for t in range(end - 1, start - 1, -1):
            dh = dh + d_states[t]
            u, r, c, hp = u_all[t], r_all[t], c_all[t], prev[t]
            dz_c = dh * (1.0 - u) * (1.0 - c * c)
            dz_u = dh * (hp - c) * u * (1.0 - u)
            d_rh = W_hh.T @ dz_c
            dz_r = d_rh * hp * r * (1.0 - r)
            dz[t, :hid], dz[t, hid : 2 * hid], dz[t, 2 * hid :] = dz_u, dz_r, dz_c
            dh = dh * u + d_rh * r + W_uh.T @ dz_u + W_rh.T @ dz_r
    _add_split(gru.weights("h")[:2], dz[:, : 2 * hid].T @ prev)
    gru.W_hh.grad += dz[:, 2 * hid :].T @ (r_all * prev)
    _add_split(gru.weights("x"), dz.T @ run.inputs)
    dz_sum = dz.sum(axis=0)
    _add_split(gru.biases(), dz_sum)
    d_inputs = sum(d @ w.value for d, w in zip(np.split(dz, 3, axis=1), gru.weights("x")))
    if ctx is None:
        return d_inputs, None
    _add_split(gru.weights("c"), np.outer(dz_sum, ctx))
    return d_inputs, sum(w.value.T @ d for d, w in zip(np.split(dz_sum, 3), gru.weights("c")))


def rel_segment(j: int, n_d: int, segments: int) -> int:
    """Quantized relative position: document split into `segments` equal parts."""
    if not 1 <= j <= n_d:
        raise IndexError(f"sentence index {j} out of range 1..{n_d}")
    return (j - 1) * segments // n_d


def encode_document(params: ModelParams, sent_ids: list[list[int]]) -> EncoderState:
    """Run both RNN layers; yields per-sentence vectors and the document vector.

    All words of the document are gathered and projected at once; each
    sentence's word recurrence starts from the zero state.
    """
    cfg = params.config
    if not sent_ids:
        raise ValueError("encode_document: document has no sentences")
    if any(not s for s in sent_ids):
        raise ValueError("encode_document: document contains an empty sentence")
    if len(sent_ids) > cfg.max_abs_positions:
        raise ValueError(
            f"encode_document: {len(sent_ids)} sentences exceed the "
            f"{cfg.max_abs_positions}-position table"
        )
    ids = np.concatenate(sent_ids)
    lengths = np.array([len(s) for s in sent_ids])
    starts = np.cumsum(lengths) - lengths
    bounds = [(int(s), int(s + n)) for s, n in zip(starts, lengths)]
    flip = np.concatenate([np.arange(e - 1, s - 1, -1) for s, e in bounds])  # self-inverse
    xs = params.embedding.value[ids]
    word_fwd = _run_gru(params.word_fwd, xs, bounds)
    word_bwd = _run_gru(params.word_bwd, xs[flip], bounds)
    words = np.hstack((word_fwd.states, word_bwd.states[flip]))
    pooled = np.add.reduceat(words, starts, axis=0) / lengths[:, None]

    whole = [(0, len(sent_ids))]
    sent_fwd = _run_gru(params.sent_fwd, pooled, whole)
    sent_bwd = _run_gru(params.sent_bwd, pooled[::-1], whole)
    cat = np.hstack((sent_fwd.states, sent_bwd.states[::-1]))
    reps = np.tanh(cat @ params.sent_proj_W.value.T + params.sent_proj_b.value)
    doc_rep = np.tanh(params.doc_W.value @ cat.mean(axis=0) + params.doc_b.value)
    runs = (word_fwd, word_bwd, sent_fwd, sent_bwd)
    return EncoderState(reps, doc_rep, cat, ids, lengths, flip, runs)


def _encoder_backward(
    params: ModelParams, enc: EncoderState, d_reps: np.ndarray, d_doc: np.ndarray
) -> None:
    hid = params.config.hidden_dim
    cat = enc.sentence_states
    dz = d_reps * (1.0 - enc.sentence_reps * enc.sentence_reps)
    params.sent_proj_W.grad += dz.T @ cat
    params.sent_proj_b.grad += dz.sum(axis=0)
    dz_doc = d_doc * (1.0 - enc.doc_rep * enc.doc_rep)
    params.doc_W.grad += np.outer(dz_doc, cat.mean(axis=0))
    params.doc_b.grad += dz_doc
    d_cat = dz @ params.sent_proj_W.value + params.doc_W.value.T @ dz_doc / len(cat)

    word_fwd, word_bwd, sent_fwd, sent_bwd = enc.runs
    d_pooled = gru_backward(params.sent_fwd, sent_fwd, d_cat[:, :hid])[0]
    d_pooled += gru_backward(params.sent_bwd, sent_bwd, d_cat[::-1, hid:])[0][::-1]
    d_words = np.repeat(d_pooled / enc.lengths[:, None], enc.lengths, axis=0)
    d_xs = gru_backward(params.word_fwd, word_fwd, d_words[:, :hid])[0]
    d_xs += gru_backward(params.word_bwd, word_bwd, d_words[enc.flip, hid:])[0][enc.flip]
    np.add.at(params.embedding.grad, enc.ids, d_xs)


def _segments(params: ModelParams, n: int) -> list[int]:
    return [rel_segment(j, n, params.config.num_rel_segments) for j in range(1, n + 1)]


def score_sentences(
    params: ModelParams, sentence_reps: np.ndarray, doc_rep: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sequential second pass emitting membership probabilities.

    The running summary state starts at zero (so the novelty term vanishes at
    the first sentence) and accumulates probability-weighted sentence vectors;
    it is squashed by tanh only inside the novelty term. Returns the
    probabilities, the (sentences, 6) factor array in FACTORS order, and the
    summary states s_1 .. s_{N+1} (one more row than sentences). Only novelty
    is recurrent; the other factors are computed for all sentences at once.
    """
    if not len(sentence_reps):
        raise ValueError("score_sentences: no sentence representations")
    n = len(sentence_reps)
    content = sentence_reps @ params.content_w.value
    salience = sentence_reps @ (params.salience_W.value @ doc_rep)
    abs_pos = params.abs_pos_table.value[:n] @ params.abs_pos_w.value
    rel_pos = params.rel_pos_table.value[_segments(params, n)] @ params.rel_pos_w.value
    bias = float(params.score_bias.value)
    novelty, probs = np.empty(n), np.empty(n)
    states = np.zeros((n + 1, params.config.hidden_dim))
    for j, h in enumerate(sentence_reps):
        novelty[j] = h @ (params.novelty_W.value @ np.tanh(states[j]))
        probs[j] = _sigmoid(content[j] + salience[j] - novelty[j] + abs_pos[j] + rel_pos[j] + bias)
        states[j + 1] = states[j] + h * probs[j]
    factors = np.column_stack((content, salience, novelty, abs_pos, rel_pos, np.full(n, bias)))
    return probs, factors, states


def _score_backward(params: ModelParams, enc: EncoderState, probs, states, d_probs, d_s_last):
    """Gradients at the sentence vectors and the document vector."""
    reps, n = enc.sentence_reps, len(probs)
    W_nov = params.novelty_W.value
    tanh_s = np.tanh(states[:-1])
    nov_dirs = tanh_s @ W_nov.T  # row j is W_novelty tanh(s_j)
    d_reps, d_nov_dirs, d_pre = np.empty_like(reps), np.empty_like(reps), np.empty(n)
    ds = d_s_last
    for j in range(n - 1, -1, -1):  # ds is dLoss/ds_{j+1}
        dp = ds @ reps[j] + d_probs[j]
        d_reps[j] = ds * probs[j]
        d_pre[j] = dp * probs[j] * (1.0 - probs[j])
        d_reps[j] -= d_pre[j] * nov_dirs[j]
        d_nov_dirs[j] = -d_pre[j] * reps[j]
        ds = ds + (W_nov.T @ d_nov_dirs[j]) * (1.0 - tanh_s[j] * tanh_s[j])
    params.novelty_W.grad += d_nov_dirs.T @ tanh_s

    salience_dir = params.salience_W.value @ enc.doc_rep
    d_reps += np.outer(d_pre, params.content_w.value + salience_dir)
    d_pre_reps = d_pre @ reps
    params.content_w.grad += d_pre_reps
    params.salience_W.grad += np.outer(d_pre_reps, enc.doc_rep)
    segments = _segments(params, n)
    params.abs_pos_w.grad += d_pre @ params.abs_pos_table.value[:n]
    params.abs_pos_table.grad[:n] += np.outer(d_pre, params.abs_pos_w.value)
    params.rel_pos_w.grad += d_pre @ params.rel_pos_table.value[segments]
    np.add.at(params.rel_pos_table.grad, segments, np.outer(d_pre, params.rel_pos_w.value))
    params.score_bias.grad += d_pre.sum()
    return d_reps, params.salience_W.value.T @ d_pre_reps


def forward(params: ModelParams, sent_ids: list[list[int]]) -> ForwardResult:
    """Encode and score one document.

    The probabilities and the final summary state are tape nodes that share
    one backward: scorer, sentence layer, word layer, embedding rows.
    """
    enc = encode_document(params, sent_ids)
    probs, factors, states = score_sentences(params, enc.sentence_reps, enc.doc_rep)

    def backward(d_probs, d_s_last):
        d_reps, d_doc = _score_backward(params, enc, probs, states, d_probs, d_s_last)
        _encoder_backward(params, enc, d_reps, d_doc)

    return ForwardResult(
        ad.Node(probs, backward=lambda g: backward(g, np.zeros_like(states[-1]))),
        factors,
        ad.Node(states[-1], backward=lambda g: backward(np.zeros_like(probs), g)),
    )


# ---------------------------------------------------------------------------
# checkpoints


def _write_v1(fh, store: ad.ParameterStore, config: ModelConfig, vocab: Vocabulary) -> None:
    """Write the version-1 document to a binary file: one JSON object with
    keys `config`, `format`, `params`, `version` and `vocab`, keys sorted at
    every level, no spaces, and a final newline.

    Each part goes through `json.dumps`, which uses the C encoder, and one
    tensor is encoded at a time, so the whole file is never held in memory.
    """

    def dumps(obj) -> bytes:
        return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("ascii")

    fh.write(b'{"config":' + dumps(asdict(config)))
    fh.write(b',"format":' + dumps(CHECKPOINT_FORMAT) + b',"params":{')
    for i, (name, node) in enumerate(sorted(store.items())):
        entry = {"data": node.value.reshape(-1).tolist(), "shape": list(node.value.shape)}
        fh.write((b"," if i else b"") + dumps(name) + b":")
        fh.write(dumps(entry))
    fh.write(b'},"version":' + dumps(CHECKPOINT_VERSION))
    fh.write(b',"vocab":' + dumps(vocab.non_reserved()) + b"}\n")


def save_checkpoint(
    path: str | Path,
    store: ad.ParameterStore,
    config: ModelConfig,
    vocab: Vocabulary,
    copy_of: str | Path | None = None,
) -> None:
    """Write config, vocabulary, and all named parameters as one JSON file.

    `copy_of` names a checkpoint already written from this same store, config
    and vocabulary; its bytes are copied instead of encoded again. The file is
    written under a temporary name in the same directory and then renamed
    over `path`, so a failed write leaves the previous file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            if copy_of is None:
                _write_v1(fh, store, config, vocab)
            else:
                with open(copy_of, "rb") as src:
                    shutil.copyfileobj(src, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(
    path: str | Path,
) -> tuple[ad.ParameterStore, ModelParams, ModelConfig, Vocabulary]:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # malformed JSON or UTF-8: a truncated or corrupt file
        raise CheckpointError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {payload.get('version')!r} "
            f"!= supported version {CHECKPOINT_VERSION}"
        )
    try:
        config = ModelConfig(**payload["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad config block ({exc})") from exc
    try:
        vocab = Vocabulary(payload["vocab"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad vocabulary ({exc})") from exc
    if len(vocab) != config.vocab_size:
        raise CheckpointError(
            f"{path}: vocabulary size {len(vocab)} != config vocab_size {config.vocab_size}"
        )
    expected = parameter_shapes(config)
    stored = payload.get("params", {})
    if set(stored) != set(expected):
        missing = sorted(set(expected) - set(stored))
        extra = sorted(set(stored) - set(expected))
        raise CheckpointError(f"{path}: parameter mismatch (missing {missing}, extra {extra})")
    store = ad.ParameterStore()
    for name in expected:
        entry = stored[name]
        data = entry.get("data") if isinstance(entry, dict) else None
        if not isinstance(data, list) or "shape" not in entry:
            raise CheckpointError(f"{path}: parameter {name!r} needs a list 'data' and a 'shape'")
        try:
            arr = np.asarray(data, dtype=np.float64).reshape(entry["shape"])
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: parameter {name!r}: {exc}") from exc
        if tuple(arr.shape) != expected[name]:
            raise CheckpointError(
                f"{path}: parameter {name!r} has shape {arr.shape}, expected {expected[name]}"
            )
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: parameter {name!r} has a non-finite value")
        store.add(name, arr)
    return store, wire_params(store, config), config, vocab
