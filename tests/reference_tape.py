"""Per-operation reference tape: the test oracle for the layer-level backward.

Each op builds one `rnnsum.autodiff.Node` holding its value and a backward
rule for that op alone, and the model below is spelled out op by op on top
of them, one graph node per scalar factor and per gate. It runs on the same
parameters as `rnnsum.model`, so `test_layers_match_the_reference_tape` in
`tests/test_training.py` can compare the layer-level probabilities, losses and
parameter gradients against it. `tests/test_autodiff.py` tests the ops.
`reassembled` recomputes probabilities from the serving forward's factors.
"""

from __future__ import annotations

import numpy as np

from rnnsum.autodiff import Node, ParameterStore, backward, grad_check  # noqa: F401
from rnnsum.corpus import BOS
from rnnsum.model import rel_segment

LOG_EPS = 1e-12


def constant(values) -> Node:
    return Node(np.asarray(values, dtype=np.float64))


def parameter(values) -> Node:
    node = constant(values)
    node.grad = np.zeros_like(node.value)
    return node


def matmul(a: Node, b: Node) -> Node:
    """Matrix product a @ b; the right operand may be a vector."""
    av, bv = a.value, b.value

    def _bw(g):
        a.grad += g @ bv.T if bv.ndim == 2 else np.outer(g, bv)
        b.grad += av.T @ g

    return Node(av @ bv, (a, b), _bw)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def reassembled(factors: np.ndarray) -> np.ndarray:
    """sigma(content + salience - novelty + abs_pos + rel_pos + bias) for each
    row of a factor array in `rnnsum.model.FACTORS` order."""
    content, salience, novelty, abs_pos, rel_pos, bias = factors.T
    return _stable_sigmoid(content + salience - novelty + abs_pos + rel_pos + bias)


def sigmoid(x: Node) -> Node:
    s = _stable_sigmoid(x.value)

    def _bw(g):
        x.grad += g * s * (1.0 - s)

    return Node(s, (x,), _bw)


def tanh(x: Node) -> Node:
    t = np.tanh(x.value)

    def _bw(g):
        x.grad += g * (1.0 - t * t)

    return Node(t, (x,), _bw)


def add(a: Node, b: Node) -> Node:
    def _bw(g):
        a.grad += g
        b.grad += g

    return Node(a.value + b.value, (a, b), _bw)


def hadamard(a: Node, b: Node) -> Node:
    def _bw(g):
        a.grad += g * b.value
        b.grad += g * a.value

    return Node(a.value * b.value, (a, b), _bw)


def scale(x: Node, c: float) -> Node:
    """Multiply by a python float constant (not a graph node)."""

    def _bw(g):
        x.grad += g * c

    return Node(x.value * c, (x,), _bw)


def negate(x: Node) -> Node:
    return scale(x, -1.0)


def scalar_mul(x: Node, s: Node) -> Node:
    """Tensor times a scalar graph node (gradient flows into both)."""

    def _bw(g):
        x.grad += g * s.value
        s.grad += (g * x.value).sum()

    return Node(x.value * s.value, (x, s), _bw)


def lerp(t: Node, a: Node, b: Node) -> Node:
    """Gated mix t*a + (1-t)*b."""

    def _bw(g):
        t.grad += g * (a.value - b.value)
        a.grad += g * t.value
        b.grad += g * (1.0 - t.value)

    return Node(t.value * a.value + (1.0 - t.value) * b.value, (t, a, b), _bw)


def concat(a: Node, b: Node) -> Node:
    m = a.value.shape[0]

    def _bw(g):
        a.grad += g[:m]
        b.grad += g[m:]

    return Node(np.concatenate([a.value, b.value]), (a, b), _bw)


def mean_pool(xs: list[Node]) -> Node:
    if not xs:
        raise ValueError("mean_pool: empty input list")
    n = len(xs)
    acc = xs[0].value.copy()
    for x in xs[1:]:
        acc += x.value

    def _bw(g):
        for x in xs:
            x.grad += g / n

    return Node(acc / n, tuple(xs), _bw)


def dot(a: Node, b: Node) -> Node:
    def _bw(g):
        a.grad += g * b.value
        b.grad += g * a.value

    return Node(np.asarray(a.value @ b.value), (a, b), _bw)


def sum_all(x: Node) -> Node:
    def _bw(g):
        x.grad += g

    return Node(np.asarray(x.value.sum()), (x,), _bw)


def row(matrix: Node, index: int) -> Node:
    """One row of a matrix (embedding-table lookup)."""

    def _bw(g):
        matrix.grad[index] += g

    return Node(matrix.value[index].copy(), (matrix,), _bw)


def affine(bias: Node, *terms: tuple[Node, Node]) -> Node:
    """bias + sum of W @ x products."""
    acc = bias.value.copy()
    for w, x in terms:
        acc += w.value @ x.value

    def _bw(g):
        bias.grad += g
        for w, x in terms:
            w.grad += np.outer(g, x.value)
            x.grad += w.value.T @ g

    return Node(acc, (bias,) + tuple(n for pair in terms for n in pair), _bw)


def bce_loss(p: Node, y: int) -> Node:
    """-[y log p + (1-y) log(1-p)], p clamped to [LOG_EPS, 1-LOG_EPS]."""
    c = min(max(float(p.value), LOG_EPS), 1.0 - LOG_EPS)

    def _bw(g):
        p.grad += g * (-1.0 / c if y == 1 else 1.0 / (1.0 - c))

    return Node(np.asarray(-np.log(c) if y == 1 else -np.log1p(-c)), (p,), _bw)


def softmax_nll(logits: Node, target: int) -> Node:
    """Negative log softmax probability of `target` (max-subtracted)."""
    v = logits.value
    picked = v[target]  # IndexError for a target outside the logits
    m = v.max()
    z = np.exp(v - m)
    sm = z / z.sum()

    def _bw(g):
        d = sm.copy()
        d[target] -= 1.0
        logits.grad += g * d

    return Node(np.asarray(np.log(z.sum()) - (picked - m)), (logits,), _bw)


# ---------------------------------------------------------------------------
# the model, one op per factor and per gate


def gru_step(gru, x: Node, h: Node, ctx: Node | None = None) -> Node:
    c = lambda w: () if ctx is None else ((w, ctx),)  # noqa: E731
    u = sigmoid(affine(gru.b_u, (gru.W_ux, x), (gru.W_uh, h), *c(gru.W_uc)))
    r = sigmoid(affine(gru.b_r, (gru.W_rx, x), (gru.W_rh, h), *c(gru.W_rc)))
    cand = tanh(affine(gru.b_h, (gru.W_hx, x), (gru.W_hh, hadamard(r, h)), *c(gru.W_hc)))
    return lerp(u, h, cand)


def _run(gru, xs: list[Node], hidden: int) -> list[Node]:
    h = constant(np.zeros(hidden))
    states = []
    for x in xs:
        h = gru_step(gru, x, h)
        states.append(h)
    return states


def forward(params, sent_ids: list[list[int]]) -> tuple[list[Node], Node]:
    """Probability nodes and the final summary-state node."""
    hid, n = params.config.hidden_dim, len(sent_ids)
    pooled = []
    for sent in sent_ids:
        xs = [row(params.embedding, i) for i in sent]
        fwd, bwd = _run(params.word_fwd, xs, hid), _run(params.word_bwd, xs[::-1], hid)[::-1]
        pooled.append(mean_pool([concat(f, b) for f, b in zip(fwd, bwd)]))
    fwd, bwd = _run(params.sent_fwd, pooled, hid), _run(params.sent_bwd, pooled[::-1], hid)[::-1]
    cat = [concat(f, b) for f, b in zip(fwd, bwd)]
    reps = [tanh(affine(params.sent_proj_b, (params.sent_proj_W, c))) for c in cat]
    doc = tanh(affine(params.doc_b, (params.doc_W, mean_pool(cat))))
    salience_dir = matmul(params.salience_W, doc)
    s = constant(np.zeros(hid))
    probs = []
    for j, h in enumerate(reps, start=1):
        seg = rel_segment(j, n, params.config.num_rel_segments)
        terms = [
            dot(params.content_w, h),
            dot(h, salience_dir),
            negate(dot(h, matmul(params.novelty_W, tanh(s)))),
            dot(params.abs_pos_w, row(params.abs_pos_table, j - 1)),
            dot(params.rel_pos_w, row(params.rel_pos_table, seg)),
            params.score_bias,
        ]
        pre = terms[0]
        for term in terms[1:]:
            pre = add(pre, term)
        p = sigmoid(pre)
        s = add(s, scalar_mul(h, p))
        probs.append(p)
    return probs, s


def extractive_loss(params, sent_ids, labels) -> Node:
    probs, _ = forward(params, sent_ids)
    loss = bce_loss(probs[0], labels[0])
    for p, y in zip(probs[1:], labels[1:]):
        loss = add(loss, bce_loss(p, y))
    return loss


def abstractive_loss(params, sent_ids, reference) -> Node:
    dec = params.decoder
    _, s_last = forward(params, sent_ids)
    h = constant(np.zeros(params.config.hidden_dim))
    x = row(params.embedding, BOS)
    loss = None
    for w in reference:
        h = gru_step(dec.gru, x, h, s_last)
        f = tanh(affine(dec.emit_b, (dec.emit_Wh, h), (dec.emit_Wx, x), (dec.emit_Wc, s_last)))
        term = softmax_nll(affine(dec.out_b, (dec.out_W, f)), w)
        loss = term if loss is None else add(loss, term)
        x = row(params.embedding, w)
    return loss
