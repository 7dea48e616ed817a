"""The reference tape's ops, and the engine and gradient checker under them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tape as ad


def test_matmul_identity():
    a = ad.constant(np.eye(2))
    b = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(ad.matmul(a, b).value, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_hand_product():
    a = ad.constant([[1.0, 2.0]])
    b = ad.constant([[3.0], [4.0]])
    np.testing.assert_array_equal(ad.matmul(a, b).value, [[11.0]])


def test_matmul_zero_annihilates():
    a = ad.constant(np.zeros((2, 2)))
    b = ad.constant([[5.0, 6.0, 7.0], [8.0, 9.0, 10.0]])
    np.testing.assert_array_equal(ad.matmul(a, b).value, np.zeros((2, 3)))


def test_matmul_matrix_vector():
    w = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    x = ad.constant([5.0, 6.0])
    out = ad.matmul(w, x)
    np.testing.assert_array_equal(out.value, [17.0, 39.0])
    loss = ad.sum_all(out)
    ad.backward(loss)
    np.testing.assert_allclose(w.grad, [[5.0, 6.0], [5.0, 6.0]])
    np.testing.assert_allclose(x.grad, [4.0, 6.0])


def test_sigmoid_at_zero():
    assert float(ad.sigmoid(ad.constant(0.0)).value) == 0.5


def test_tanh_at_zero():
    assert float(ad.tanh(ad.constant(0.0)).value) == 0.0


def test_hadamard_hand_product():
    out = ad.hadamard(ad.constant([1.0, 2.0]), ad.constant([3.0, 4.0]))
    np.testing.assert_array_equal(out.value, [3.0, 8.0])


def test_concat_basic():
    out = ad.concat(ad.constant([1.0, 2.0]), ad.constant([3.0]))
    np.testing.assert_array_equal(out.value, [1.0, 2.0, 3.0])


def test_concat_empty_left():
    out = ad.concat(ad.constant(np.zeros(0)), ad.constant([5.0]))
    np.testing.assert_array_equal(out.value, [5.0])


def test_concat_backward_splits_gradient():
    a = ad.constant([1.0, 1.0])
    b = ad.constant([1.0])
    out = ad.concat(a, b)
    loss = ad.sum_all(out)
    ad.backward(loss)
    np.testing.assert_array_equal(a.grad, [1.0, 1.0])
    np.testing.assert_array_equal(b.grad, [1.0])


def test_mean_pool_hand_mean():
    out = ad.mean_pool([ad.constant([1.0, 3.0]), ad.constant([3.0, 5.0])])
    np.testing.assert_array_equal(out.value, [2.0, 4.0])


def test_mean_pool_single_element_is_identity():
    v = ad.constant([7.0, -2.0])
    np.testing.assert_array_equal(ad.mean_pool([v]).value, v.value)


def test_mean_pool_copies_idempotent():
    v = np.array([1.5, -0.5, 2.0])
    nodes = [ad.constant(v) for _ in range(5)]
    np.testing.assert_allclose(ad.mean_pool(nodes).value, v)


def test_mean_pool_empty_rejected():
    with pytest.raises(ValueError):
        ad.mean_pool([])


def test_mean_pool_backward_distributes():
    xs = [ad.constant([1.0, 2.0]), ad.constant([3.0, 4.0])]
    loss = ad.sum_all(ad.mean_pool(xs))
    ad.backward(loss)
    for x in xs:
        np.testing.assert_allclose(x.grad, [0.5, 0.5])


def test_bce_symmetric_point():
    for y in (0, 1):
        loss = ad.bce_loss(ad.constant(0.5), y)
        assert float(loss.value) == pytest.approx(math.log(2), abs=1e-12)


def test_bce_hand_value():
    loss = ad.bce_loss(ad.constant(0.9), 1)
    assert float(loss.value) == pytest.approx(0.105361, abs=1e-6)


def test_bce_clamps_extreme_probabilities():
    assert np.isfinite(float(ad.bce_loss(ad.constant(1.0), 0).value))
    assert np.isfinite(float(ad.bce_loss(ad.constant(0.0), 1).value))


def test_softmax_nll_uniform():
    loss = ad.softmax_nll(ad.constant([2.0, 2.0, 2.0, 2.0]), 3)
    assert float(loss.value) == pytest.approx(math.log(4), abs=1e-12)


def test_softmax_nll_hand_value():
    loss = ad.softmax_nll(ad.constant([10.0, 0.0]), 0)
    assert float(loss.value) == pytest.approx(4.5398e-5, rel=1e-3)


def test_softmax_nll_shift_invariance():
    logits = np.array([0.3, -1.2, 2.0])
    a = ad.softmax_nll(ad.constant(logits), 1)
    b = ad.softmax_nll(ad.constant(logits + 100.0), 1)
    assert float(a.value) == pytest.approx(float(b.value), abs=1e-9)


def test_softmax_nll_target_out_of_range():
    with pytest.raises(IndexError):
        ad.softmax_nll(ad.constant([1.0, 2.0]), 2)


def test_softmax_nll_large_logits_finite():
    loss = ad.softmax_nll(ad.constant([1e4, -1e4, 0.0]), 1)
    assert np.isfinite(float(loss.value))
    ad.backward(loss)


def test_backward_sigmoid_chain():
    w = ad.constant(np.array(0.0))
    x = ad.constant(np.array(1.0))
    root = ad.sigmoid(ad.hadamard(w, x))
    ad.backward(root)
    assert float(w.grad) == pytest.approx(0.25, abs=1e-12)


def test_backward_sum_is_ones():
    v = ad.constant([1.0, 2.0, 3.0])
    ad.backward(ad.sum_all(v))
    np.testing.assert_array_equal(v.grad, [1.0, 1.0, 1.0])


def test_backward_diamond_fanout():
    a = ad.constant(np.array(3.0))
    y = ad.add(a, a)
    ad.backward(y)
    assert float(a.grad) == 2.0


def test_backward_requires_scalar_root():
    with pytest.raises(ValueError):
        ad.backward(ad.constant([1.0, 2.0]))


def test_backward_deterministic_after_zeroing():
    rng = np.random.default_rng(0)
    w = ad.parameter(rng.normal(size=(3, 3)))
    x = ad.constant(rng.normal(size=3))
    ad.backward(ad.sum_all(ad.tanh(ad.matmul(w, x))))
    first = w.grad.copy()
    w.grad[...] = 0.0
    ad.backward(ad.sum_all(ad.tanh(ad.matmul(w, x))))
    np.testing.assert_array_equal(w.grad, first)


def test_scale_and_negate():
    x = ad.constant([1.0, -2.0])
    np.testing.assert_array_equal(ad.scale(x, 2.5).value, [2.5, -5.0])
    np.testing.assert_array_equal(ad.negate(x).value, [-1.0, 2.0])


def test_scalar_mul_backward():
    x = ad.constant([1.0, 2.0])
    s = ad.constant(np.array(3.0))
    loss = ad.sum_all(ad.scalar_mul(x, s))
    ad.backward(loss)
    np.testing.assert_allclose(x.grad, [3.0, 3.0])
    assert float(s.grad) == pytest.approx(3.0)


def test_lerp_matches_definition():
    t = ad.constant([0.25, 0.75])
    a = ad.constant([1.0, 1.0])
    b = ad.constant([0.0, 2.0])
    np.testing.assert_allclose(ad.lerp(t, a, b).value, [0.25, 1.25])


def test_parameter_store_accumulators_and_uniqueness():
    store = ad.ParameterStore()
    w = store.add("w", np.ones((2, 2)))
    assert store.sq_grad["w"].shape == w.value.shape
    assert store.sq_delta["w"].shape == w.value.shape
    with pytest.raises(ValueError):
        store.add("w", np.zeros(1))


# ---------------------------------------------------------------------------
# gradient checking


def test_grad_check_quadratic():
    store = ad.ParameterStore()
    w = store.add("w", np.array(3.0))
    err = ad.grad_check(lambda: ad.hadamard(w, w), store, eps=1e-5)
    assert err < 1e-9
    # analytic derivative at w=3 is 6
    root = ad.hadamard(w, w)
    store.zero_grad()
    ad.backward(root)
    assert float(w.grad) == pytest.approx(6.0, abs=1e-12)


def test_grad_check_constant_function():
    store = ad.ParameterStore()
    store.add("w", np.array(1.0))
    c = ad.constant(np.array(4.0))
    err = ad.grad_check(lambda: ad.hadamard(c, c), store, eps=1e-5)
    assert err == 0.0


def _random_store_and_builders(seed):
    """One scalar graph builder per registered op, over shared random params."""
    rng = np.random.default_rng(seed)
    store = ad.ParameterStore()
    w = store.add("w", rng.normal(size=(3, 4)) * 0.7)
    m = store.add("m", rng.normal(size=(4, 2)) * 0.7)
    u = store.add("u", rng.normal(size=4) * 0.7)
    v = store.add("v", rng.normal(size=4) * 0.7)
    g = store.add("g", rng.uniform(0.1, 0.9, size=4))
    s = store.add("s", np.asarray(rng.normal() * 0.5))
    b = store.add("b", rng.normal(size=3) * 0.3)

    return store, {
        "matmul": lambda: ad.sum_all(ad.tanh(ad.matmul(w, m))),
        "matvec": lambda: ad.sum_all(ad.sigmoid(ad.matmul(w, u))),
        "sigmoid": lambda: ad.sum_all(ad.sigmoid(u)),
        "tanh": lambda: ad.sum_all(ad.tanh(v)),
        "add": lambda: ad.sum_all(ad.add(u, v)),
        "hadamard": lambda: ad.sum_all(ad.hadamard(u, v)),
        "scale": lambda: ad.sum_all(ad.scale(u, -1.7)),
        "negate": lambda: ad.sum_all(ad.negate(v)),
        "concat": lambda: ad.sum_all(ad.tanh(ad.concat(u, v))),
        "mean_pool": lambda: ad.sum_all(ad.mean_pool([u, v, ad.hadamard(u, v)])),
        "dot": lambda: ad.sigmoid(ad.dot(u, v)),
        "scalar_mul": lambda: ad.sum_all(ad.scalar_mul(u, s)),
        "lerp": lambda: ad.sum_all(ad.lerp(ad.sigmoid(u), v, ad.tanh(u))),
        "row": lambda: ad.sum_all(ad.tanh(ad.row(w, 1))),
        "affine": lambda: ad.sum_all(ad.tanh(ad.affine(b, (w, u), (w, ad.tanh(v))))),
        "bce": lambda: ad.bce_loss(ad.sigmoid(ad.dot(u, v)), 1),
        "softmax_nll": lambda: ad.softmax_nll(ad.matmul(w, u), 2),
        "sum_all": lambda: ad.sum_all(ad.hadamard(g, g)),
    }


@pytest.mark.parametrize("opname", sorted(_random_store_and_builders(0)[1]))
@pytest.mark.parametrize("seed", [1, 2])
def test_grad_check_every_op(opname, seed):
    store, builders = _random_store_and_builders(seed)
    assert ad.grad_check(builders[opname], store, eps=1e-5) < 1e-4


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=6))
def test_forward_ops_finite_on_finite_inputs(values):
    x = ad.constant(values)
    for node in (
        ad.sigmoid(x),
        ad.tanh(x),
        ad.softmax_nll(x, 0),
        ad.bce_loss(ad.sigmoid(ad.sum_all(x)), 1),
        ad.mean_pool([x, ad.negate(x)]),
    ):
        assert np.all(np.isfinite(node.value))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_grad_check_random_composite(seed):
    rng = np.random.default_rng(seed)
    store = ad.ParameterStore()
    w1 = store.add("w1", rng.normal(size=(3, 3)) * 0.6)
    w2 = store.add("w2", rng.normal(size=3) * 0.6)
    x = rng.normal(size=3)

    def build():
        h = ad.tanh(ad.matmul(w1, ad.constant(x)))
        return ad.bce_loss(ad.sigmoid(ad.dot(w2, h)), 1)

    assert ad.grad_check(build, store, eps=1e-5) < 1e-4
