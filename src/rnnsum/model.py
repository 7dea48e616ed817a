"""Two-layer bidirectional GRU sentence classifier with factored scoring.

The word-level bidirectional GRU pair encodes each sentence (average-pooled
concatenated states); the sentence-level pair runs over those vectors. Each
sentence is then scored by a logistic layer that sums six interpretable
factors: content, salience against the document vector, a subtracted novelty
term against the running summary state, absolute and relative position terms,
and a bias. The running summary state is the probability-weighted sum of
sentence vectors seen so far.
"""

from __future__ import annotations

import json
import os
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


FACTORS = ("content", "salience", "novelty", "abs_pos", "rel_pos", "bias")


@dataclass(frozen=True)
class SentenceScoreBreakdown:
    """Pre-sigmoid factor values for one sentence; novelty is the subtracted term."""

    content: float
    salience: float
    novelty: float
    abs_pos: float
    rel_pos: float
    bias: float
    probability: float

    def reassembled(self) -> float:
        z = self.content + self.salience - self.novelty + self.abs_pos + self.rel_pos + self.bias
        return float(ad._stable_sigmoid(np.asarray(z)))


@dataclass
class EncoderState:
    pooled_words: list[ad.Node]  # one vector per sentence, word-level pooling
    sentence_states: list[ad.Node]  # concatenated fwd/bwd states, pre-projection
    sentence_reps: list[ad.Node]
    doc_rep: ad.Node


@dataclass
class ForwardResult:
    probabilities: list[ad.Node]  # scalar nodes in (0, 1)
    breakdowns: list[SentenceScoreBreakdown]
    s_last: ad.Node  # running summary state after the final sentence
    encoder: EncoderState

    def probability_values(self) -> list[float]:
        return [float(p.value) for p in self.probabilities]


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
# forward computation


def gru_step(
    gru: GruParams, x: ad.Node, h_prev: ad.Node, ctx: ad.Node | None = None
) -> ad.Node:
    """One update/reset-gated recurrence step.

    A context vector `ctx`, when given, enters every gate through the cell's
    W_*c weights as the last term of the gate's affine map.
    """
    c = lambda w: () if ctx is None else ((w, ctx),)
    u = ad.sigmoid(ad.affine(gru.b_u, (gru.W_ux, x), (gru.W_uh, h_prev), *c(gru.W_uc)))
    r = ad.sigmoid(ad.affine(gru.b_r, (gru.W_rx, x), (gru.W_rh, h_prev), *c(gru.W_rc)))
    h_cand = ad.tanh(
        ad.affine(gru.b_h, (gru.W_hx, x), (gru.W_hh, ad.hadamard(r, h_prev)), *c(gru.W_hc))
    )
    return ad.lerp(u, h_prev, h_cand)


def _run_gru(gru: GruParams, xs: list[ad.Node], hidden: int) -> list[ad.Node]:
    h = ad.constant(np.zeros(hidden))
    states = []
    for x in xs:
        h = gru_step(gru, x, h)
        states.append(h)
    return states


def rel_segment(j: int, n_d: int, segments: int) -> int:
    """Quantized relative position: document split into `segments` equal parts."""
    if not 1 <= j <= n_d:
        raise IndexError(f"sentence index {j} out of range 1..{n_d}")
    return (j - 1) * segments // n_d


def encode_document(params: ModelParams, sent_ids: list[list[int]]) -> EncoderState:
    """Run both RNN layers; yields per-sentence vectors and the document vector."""
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

    pooled = []
    for sent in sent_ids:
        xs = [ad.row(params.embedding, idx) for idx in sent]
        fwd = _run_gru(params.word_fwd, xs, cfg.hidden_dim)
        bwd = _run_gru(params.word_bwd, xs[::-1], cfg.hidden_dim)[::-1]
        pooled.append(ad.mean_pool([ad.concat(f, b) for f, b in zip(fwd, bwd)]))

    sent_fwd = _run_gru(params.sent_fwd, pooled, cfg.hidden_dim)
    sent_bwd = _run_gru(params.sent_bwd, pooled[::-1], cfg.hidden_dim)[::-1]
    cat = [ad.concat(f, b) for f, b in zip(sent_fwd, sent_bwd)]
    reps = [
        ad.tanh(ad.affine(params.sent_proj_b, (params.sent_proj_W, c))) for c in cat
    ]
    doc_rep = ad.tanh(ad.affine(params.doc_b, (params.doc_W, ad.mean_pool(cat))))
    return EncoderState(pooled, cat, reps, doc_rep)


def score_sentences(
    params: ModelParams, sentence_reps: list[ad.Node], doc_rep: ad.Node
) -> tuple[list[ad.Node], list[SentenceScoreBreakdown], list[ad.Node]]:
    """Sequential second pass emitting membership probabilities.

    The running summary state starts at zero (so the novelty term vanishes at
    the first sentence) and accumulates probability-weighted sentence vectors;
    it is squashed by tanh only inside the novelty term. Returns the
    probability nodes, per-sentence factor breakdowns, and the summary states
    s_1 .. s_{N+1} (one more state than sentences).
    """
    if not sentence_reps:
        raise ValueError("score_sentences: no sentence representations")
    cfg = params.config
    n = len(sentence_reps)
    salience_dot_doc = ad.matmul(params.salience_W, doc_rep)
    s = ad.constant(np.zeros(cfg.hidden_dim))
    summary_states = [s]
    probs: list[ad.Node] = []
    breakdowns: list[SentenceScoreBreakdown] = []
    for j, h in enumerate(sentence_reps, start=1):
        content = ad.dot(params.content_w, h)
        salience = ad.dot(h, salience_dot_doc)
        novelty = ad.dot(h, ad.matmul(params.novelty_W, ad.tanh(s)))
        abs_pos = ad.dot(params.abs_pos_w, ad.row(params.abs_pos_table, j - 1))
        rel_pos = ad.dot(
            params.rel_pos_w,
            ad.row(params.rel_pos_table, rel_segment(j, n, cfg.num_rel_segments)),
        )
        pre = ad.add(
            ad.add(ad.add(ad.add(ad.add(content, salience), ad.negate(novelty)), abs_pos), rel_pos),
            params.score_bias,
        )
        p = ad.sigmoid(pre)
        breakdowns.append(
            SentenceScoreBreakdown(
                content=float(content.value),
                salience=float(salience.value),
                novelty=float(novelty.value),
                abs_pos=float(abs_pos.value),
                rel_pos=float(rel_pos.value),
                bias=float(params.score_bias.value),
                probability=float(p.value),
            )
        )
        s = ad.add(s, ad.scalar_mul(h, p))
        summary_states.append(s)
        probs.append(p)
    return probs, breakdowns, summary_states


def forward(params: ModelParams, sent_ids: list[list[int]]) -> ForwardResult:
    encoder = encode_document(params, sent_ids)
    probs, breakdowns, states = score_sentences(params, encoder.sentence_reps, encoder.doc_rep)
    return ForwardResult(probs, breakdowns, states[-1], encoder)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(
    path: str | Path, store: ad.ParameterStore, config: ModelConfig, vocab: Vocabulary
) -> None:
    """Write config, vocabulary, and all named parameters as one JSON file.

    The file is written under a temporary name in the same directory and
    then renamed over `path`, so a failed write leaves the previous file.
    """
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "vocab": vocab.non_reserved(),
        "params": {
            name: {"shape": list(node.value.shape), "data": node.value.reshape(-1).tolist()}
            for name, node in store.items()
        },
    }
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(
    path: str | Path,
) -> tuple[ad.ParameterStore, ModelParams, ModelConfig, Vocabulary]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {payload.get('version')!r} "
            f"!= supported version {CHECKPOINT_VERSION}"
        )
    try:
        config = ModelConfig(**payload["config"])
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: bad config block ({exc})") from exc
    vocab = Vocabulary(payload["vocab"])
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
        arr = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        if tuple(arr.shape) != expected[name]:
            raise CheckpointError(
                f"{path}: parameter {name!r} has shape {arr.shape}, expected {expected[name]}"
            )
        store.add(name, arr)
    return store, wire_params(store, config), config, vocab
