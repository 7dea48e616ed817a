"""A small reverse-mode tape over whole layers, plus the parameter store.

The model's layers (embedding gather, bidirectional GRU, six-factor scorer,
decoder) compute in plain numpy and each has one hand-written backward. A
layer's output enters the tape as one `Node` whose backward rule adds the
layer's parameter gradients straight into the parameters' `grad` arrays and
passes the rest on to its parent nodes, so one document's loss is a tape of
two nodes in either training mode. Parameters are long-lived leaf nodes held
in a ParameterStore together with the two per-parameter accumulators the
adadelta optimizer needs. `grad_check` is the finite-difference oracle for all
of it.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np


class Node:
    """One vertex of the computation graph.

    `grad` has the shape of `value`. A parameter's gradient array lives as
    long as the parameter; any other node gets a zero one only when
    `backward` reaches it, so a forward pass that is never differentiated
    allocates no gradients. The backward rule receives the node's gradient as
    its argument and holds no reference to the node, so a graph is freed by
    reference counting as soon as its root is dropped.
    """

    __slots__ = ("value", "grad", "parents", "_backward")

    def __init__(self, value: np.ndarray, parents: tuple = (), backward: Callable | None = None):
        self.value = value
        self.grad: np.ndarray | None = None
        self.parents = parents
        self._backward = backward


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
    """Run every backward rule reachable from a scalar root, children first.

    Caller is responsible for zeroing long-lived parameter gradients first;
    contributions accumulate by summation.
    """
    if root.value.ndim != 0:
        raise ValueError(f"backward: root must be scalar, got shape {root.value.shape}")
    order = graph_nodes(root)
    for node in order:
        if node.grad is None:
            node.grad = np.zeros_like(node.value)
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
        node = Node(np.asarray(values, dtype=np.float64))
        node.grad = np.zeros_like(node.value)
        self._params[name] = node
        self.sq_grad[name] = np.zeros_like(node.value)
        self.sq_delta[name] = np.zeros_like(node.value)
        return node

    def __getitem__(self, name: str) -> Node:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def items(self) -> Iterable[tuple[str, Node]]:
        return self._params.items()

    def zero_grad(self) -> None:
        for node in self._params.values():
            node.grad[...] = 0.0


# ---------------------------------------------------------------------------
# verification


def grad_check(build_loss: Callable[[], Node], store: ParameterStore, eps: float = 1e-5) -> float:
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
