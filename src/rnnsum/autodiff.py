"""Reverse-mode automatic differentiation on small dense float64 tensors.

Values are plain numpy float64 arrays; scalars use shape (). Every operation
builds a fresh graph node carrying its value, a zero-initialized gradient of
the same shape, and a closure implementing the backward rule. Graphs are
rebuilt per example (dynamic tape); parameters are long-lived leaf nodes held
in a ParameterStore together with the two per-parameter accumulators the
adadelta optimizer needs.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

LOG_EPS = 1e-12  # clamp for log arguments in bce_loss


class DimensionError(ValueError):
    """Operand shapes do not conform."""


def _as_f64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


class Node:
    """One vertex of the computation graph.

    `value` and `grad` always share a shape. Leaf nodes ("param", "const")
    have no parents and no backward rule. The backward rule receives the
    node's gradient as its argument and holds no reference to the node, so a
    graph is freed by reference counting as soon as its root is dropped.
    """

    __slots__ = ("op", "value", "grad", "parents", "_backward")

    def __init__(self, op: str, value: np.ndarray, parents: tuple = ()):
        self.op = op
        self.value = value
        self.grad = np.zeros_like(value)
        self.parents = parents
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self):
        return self.value.shape


def constant(values) -> Node:
    return Node("const", _as_f64(values))


def parameter(values) -> Node:
    return Node("param", _as_f64(values))


# ---------------------------------------------------------------------------
# forward ops


def matmul(a: Node, b: Node) -> Node:
    """Matrix product a @ b; the right operand may be a vector."""
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim not in (1, 2) or av.shape[1] != bv.shape[0]:
        raise DimensionError(f"matmul: shapes {av.shape} and {bv.shape} do not conform")
    out = Node("matmul", av @ bv, (a, b))

    def _bw(g):
        if bv.ndim == 2:
            a.grad += g @ bv.T
        else:
            a.grad += np.outer(g, bv)
        b.grad += av.T @ g

    out._backward = _bw
    return out


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    z = np.exp(-np.abs(x))  # in (0, 1], never overflows
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def sigmoid(x: Node) -> Node:
    s = _stable_sigmoid(x.value)
    out = Node("sigmoid", s, (x,))

    def _bw(g):
        x.grad += g * s * (1.0 - s)

    out._backward = _bw
    return out


def tanh(x: Node) -> Node:
    t = np.tanh(x.value)
    out = Node("tanh", t, (x,))

    def _bw(g):
        x.grad += g * (1.0 - t * t)

    out._backward = _bw
    return out


def _require_same_shape(op: str, a: Node, b: Node):
    if a.value.shape != b.value.shape:
        raise DimensionError(f"{op}: shapes {a.value.shape} and {b.value.shape} differ")


def add(a: Node, b: Node) -> Node:
    _require_same_shape("add", a, b)
    out = Node("add", a.value + b.value, (a, b))

    def _bw(g):
        a.grad += g
        b.grad += g

    out._backward = _bw
    return out


def hadamard(a: Node, b: Node) -> Node:
    _require_same_shape("hadamard", a, b)
    out = Node("hadamard", a.value * b.value, (a, b))

    def _bw(g):
        a.grad += g * b.value
        b.grad += g * a.value

    out._backward = _bw
    return out


def scale(x: Node, c: float) -> Node:
    """Multiply by a python float constant (not a graph node)."""
    out = Node("scale", x.value * c, (x,))

    def _bw(g):
        x.grad += g * c

    out._backward = _bw
    return out


def negate(x: Node) -> Node:
    return scale(x, -1.0)


def scalar_mul(x: Node, s: Node) -> Node:
    """Tensor times a scalar graph node (gradient flows into both)."""
    if s.value.ndim != 0:
        raise DimensionError(f"scalar_mul: scalar operand has shape {s.value.shape}")
    out = Node("scalar_mul", x.value * s.value, (x, s))

    def _bw(g):
        x.grad += g * s.value
        s.grad += (g * x.value).sum()

    out._backward = _bw
    return out


def lerp(t: Node, a: Node, b: Node) -> Node:
    """Gated mix t*a + (1-t)*b, all operands the same shape."""
    _require_same_shape("lerp", t, a)
    _require_same_shape("lerp", t, b)
    out = Node("lerp", t.value * a.value + (1.0 - t.value) * b.value, (t, a, b))

    def _bw(g):
        t.grad += g * (a.value - b.value)
        a.grad += g * t.value
        b.grad += g * (1.0 - t.value)

    out._backward = _bw
    return out


def concat(a: Node, b: Node) -> Node:
    """Concatenate two rank-1 vectors; backward splits at len(a)."""
    if a.value.ndim != 1 or b.value.ndim != 1:
        raise DimensionError(
            f"concat: expected two vectors, got shapes {a.value.shape} and {b.value.shape}"
        )
    m = a.value.shape[0]
    out = Node("concat", np.concatenate([a.value, b.value]), (a, b))

    def _bw(g):
        a.grad += g[:m]
        b.grad += g[m:]

    out._backward = _bw
    return out


def mean_pool(xs: list[Node]) -> Node:
    """Arithmetic mean of equally shaped tensors."""
    if not xs:
        raise ValueError("mean_pool: empty input list")
    shape = xs[0].value.shape
    for x in xs[1:]:
        if x.value.shape != shape:
            raise DimensionError(f"mean_pool: shapes {shape} and {x.value.shape} differ")
    n = len(xs)
    acc = xs[0].value.copy()
    for x in xs[1:]:
        acc += x.value
    out = Node("mean_pool", acc / n, tuple(xs))

    def _bw(g):
        share = g / n
        for x in xs:
            x.grad += share

    out._backward = _bw
    return out


def dot(a: Node, b: Node) -> Node:
    """Inner product of two rank-1 vectors, yielding a scalar node."""
    if a.value.ndim != 1 or b.value.ndim != 1 or a.value.shape != b.value.shape:
        raise DimensionError(f"dot: shapes {a.value.shape} and {b.value.shape} do not conform")
    out = Node("dot", np.asarray(a.value @ b.value), (a, b))

    def _bw(g):
        a.grad += g * b.value
        b.grad += g * a.value

    out._backward = _bw
    return out


def sum_all(x: Node) -> Node:
    out = Node("sum_all", np.asarray(x.value.sum()), (x,))

    def _bw(g):
        x.grad += g

    out._backward = _bw
    return out


def row(matrix: Node, index: int) -> Node:
    """Select one row of a rank-2 tensor (embedding-table lookup)."""
    if matrix.value.ndim != 2:
        raise DimensionError(f"row: expected a matrix, got shape {matrix.value.shape}")
    if not 0 <= index < matrix.value.shape[0]:
        raise IndexError(f"row: index {index} out of range for {matrix.value.shape[0]} rows")
    out = Node("row", matrix.value[index].copy(), (matrix,))

    def _bw(g):
        matrix.grad[index] += g

    out._backward = _bw
    return out


def affine(bias: Node, *terms: tuple[Node, Node]) -> Node:
    """bias + sum of W @ x products (fused multi-input linear map).

    Each term is a (matrix, vector) pair; the bias fixes the output length.
    Fusing the GRU gate pre-activations into one node keeps graphs small.
    """
    if bias.value.ndim != 1:
        raise DimensionError(f"affine: bias has shape {bias.value.shape}, expected a vector")
    acc = bias.value.copy()
    for w, x in terms:
        if (
            w.value.ndim != 2
            or x.value.ndim != 1
            or w.value.shape[0] != acc.shape[0]
            or w.value.shape[1] != x.value.shape[0]
        ):
            raise DimensionError(
                f"affine: term shapes {w.value.shape} @ {x.value.shape} "
                f"do not conform to output length {acc.shape[0]}"
            )
        acc += w.value @ x.value
    parents = (bias,) + tuple(n for pair in terms for n in pair)
    out = Node("affine", acc, parents)

    def _bw(g):
        bias.grad += g
        for w, x in terms:
            w.grad += np.outer(g, x.value)
            x.grad += w.value.T @ g

    out._backward = _bw
    return out


def bce_loss(p: Node, y: int) -> Node:
    """Binary cross-entropy -[y log p + (1-y) log(1-p)] for a scalar p node.

    p is clamped to [LOG_EPS, 1-LOG_EPS] before the log, so a saturated
    sigmoid never produces an infinite loss.
    """
    if p.value.ndim != 0:
        raise DimensionError(f"bce_loss: probability has shape {p.value.shape}")
    if y not in (0, 1):
        raise ValueError(f"bce_loss: label must be 0 or 1, got {y!r}")
    c = min(max(float(p.value), LOG_EPS), 1.0 - LOG_EPS)
    val = -np.log(c) if y == 1 else -np.log1p(-c)
    out = Node("bce_loss", np.asarray(val), (p,))

    def _bw(g):
        d = -1.0 / c if y == 1 else 1.0 / (1.0 - c)
        p.grad += g * d

    out._backward = _bw
    return out


def softmax_nll(logits: Node, target: int) -> Node:
    """Negative log softmax probability of `target` (max-subtracted for stability)."""
    v = logits.value
    if v.ndim != 1:
        raise DimensionError(f"softmax_nll: logits have shape {v.shape}, expected a vector")
    if not 0 <= target < v.shape[0]:
        raise IndexError(f"softmax_nll: target {target} out of range for {v.shape[0]} logits")
    m = v.max()
    z = np.exp(v - m)
    total = z.sum()
    sm = z / total
    out = Node("softmax_nll", np.asarray(np.log(total) - (v[target] - m)), (logits,))

    def _bw(g):
        d = sm.copy()
        d[target] -= 1.0
        logits.grad += g * d

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# backward pass


def graph_nodes(root: Node) -> list[Node]:
    """All nodes reachable from root, parents before children."""
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Node) -> None:
    """Populate grad on every node reachable from a scalar root.

    Caller is responsible for zeroing long-lived leaf gradients first;
    fan-out contributions accumulate by summation.
    """
    if root.value.ndim != 0:
        raise ValueError(f"backward: root must be scalar, got shape {root.value.shape}")
    order = graph_nodes(root)
    root.grad[...] = 1.0
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# parameters


class ParameterStore:
    """Named leaf parameters plus the optimizer's two running accumulators."""

    def __init__(self):
        self._params: dict[str, Node] = {}
        self.sq_grad: dict[str, np.ndarray] = {}
        self.sq_delta: dict[str, np.ndarray] = {}

    def add(self, name: str, values) -> Node:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        node = parameter(values)
        self._params[name] = node
        self.sq_grad[name] = np.zeros_like(node.value)
        self.sq_delta[name] = np.zeros_like(node.value)
        return node

    def __getitem__(self, name: str) -> Node:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterable[tuple[str, Node]]:
        return self._params.items()

    def zero_grad(self) -> None:
        for node in self._params.values():
            node.grad[...] = 0.0


# ---------------------------------------------------------------------------
# verification


def grad_check(
    build_loss: Callable[[], Node], store: ParameterStore, eps: float = 1e-5
) -> float:
    """Max relative error between backward gradients and central differences.

    `build_loss` must deterministically rebuild the scalar loss graph from the
    store's current parameter values. Relative error per element is
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    root = build_loss()
    store.zero_grad()
    backward(root)
    analytic = {name: node.grad.copy() for name, node in store.items()}

    worst = 0.0
    for name, node in store.items():
        flat = node.value.reshape(-1)
        ref = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(build_loss().value)
            flat[i] = orig - eps
            f_minus = float(build_loss().value)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            denom = max(1e-8, abs(ref[i]) + abs(numeric))
            worst = max(worst, abs(ref[i] - numeric) / denom)
    return worst
