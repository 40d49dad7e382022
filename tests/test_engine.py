"""Dense-tensor engine: shape rules, tape semantics, op oracles, gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asap_pool.engine import (
    Tape,
    Tensor,
    add,
    concat_cols,
    gather_rows,
    grad_check,
    hadamard,
    leaky_relu,
    matmul,
    reduce_sum,
    relu,
    rsqrt,
    segment_reduce,
    segment_softmax,
    sigmoid,
    sub,
)
from asap_pool.engine.ops import scatter_add_rows
from asap_pool.engine.tensor import ShapeError, TapeError


def rand(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


# ---------------------------------------------------------------------------
# Tensor construction


def test_scalar_becomes_one_by_one():
    t = Tensor(3.5)
    assert t.data.shape == (1, 1)
    assert t.item() == 3.5


def test_vector_becomes_column():
    t = Tensor([1.0, 2.0, 3.0])
    assert t.data.shape == (3, 1)


def test_matrix_shape_preserved():
    t = Tensor(np.ones((2, 4)))
    assert t.data.shape == (2, 4)


def test_three_dimensional_input_rejected():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 2, 2)))


def test_item_requires_single_entry():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 1))).item()


# ---------------------------------------------------------------------------
# Tape semantics


def test_backward_returns_leaf_gradients():
    x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    w = Tensor(np.array([[3.0], [4.0]]), requires_grad=True)
    with Tape() as tape:
        y = reduce_sum(matmul(x, w))
    grads = tape.backward(y)
    np.testing.assert_allclose(grads[x], [[3.0, 4.0]])
    np.testing.assert_allclose(grads[w], [[1.0], [2.0]])
    np.testing.assert_allclose(x.grad, [[3.0, 4.0]])


def test_backward_inside_recording_context_rejected():
    x = Tensor(np.ones((1, 1)), requires_grad=True)
    with pytest.raises(TapeError):
        with Tape() as tape:
            y = add(x, x)
            tape.backward(y)


def test_tape_consumed_after_backward():
    x = Tensor(np.ones((1, 1)), requires_grad=True)
    with Tape() as tape:
        y = add(x, x)
    tape.backward(y)
    with pytest.raises(TapeError):
        tape.backward(y)


def test_nested_tapes_rejected():
    with pytest.raises(TapeError):
        with Tape():
            with Tape():
                pass


def test_gradients_accumulate_when_input_reused():
    x = Tensor(np.array([[2.0]]), requires_grad=True)
    with Tape() as tape:
        y = add(hadamard(x, x), x)  # x^2 + x -> dy/dx = 2x + 1 = 5
    tape.backward(y)
    np.testing.assert_allclose(x.grad, [[5.0]])


def test_ops_outside_tape_do_not_track():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = relu(x)
    assert not y.requires_grad


def test_untracked_inputs_propagate_no_gradient():
    x = Tensor(np.ones((1, 1)), requires_grad=True)
    c = Tensor(np.full((1, 1), 3.0))
    with Tape() as tape:
        y = hadamard(x, c)
    grads = tape.backward(y)
    assert c not in grads
    np.testing.assert_allclose(grads[x], [[3.0]])


# ---------------------------------------------------------------------------
# Arithmetic against numpy oracles


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((3, 5))
    expected = np.zeros((4, 5))
    for i in range(4):
        for j in range(5):
            for k in range(3):
                expected[i, j] += a[i, k] * b[k, j]
    out = matmul(Tensor(a), Tensor(b))
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_matmul_inner_dimension_mismatch():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_add_sub_equal_shapes_only():
    a = Tensor(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        add(a, Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        sub(a, Tensor(np.ones((3, 2))))


def test_hadamard_column_broadcast_both_orders():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((3, 4))
    col = rng.standard_normal((3, 1))
    np.testing.assert_allclose(hadamard(Tensor(col), Tensor(m)).data, col * m)
    # Only the column may come first; the matrix-first order is rejected.
    with pytest.raises(ShapeError):
        hadamard(Tensor(m), Tensor(col))


def test_hadamard_rejects_incompatible_shapes():
    with pytest.raises(ShapeError):
        hadamard(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))


def test_elementwise_activations_match_numpy():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 3))
    np.testing.assert_allclose(relu(Tensor(x)).data, np.maximum(x, 0.0))
    np.testing.assert_allclose(
        leaky_relu(Tensor(x)).data, np.where(x > 0, x, 0.2 * x)
    )
    np.testing.assert_allclose(sigmoid(Tensor(x)).data, 1.0 / (1.0 + np.exp(-x)))
    pos = np.abs(x) + 0.5
    np.testing.assert_allclose(rsqrt(Tensor(pos)).data, pos ** -0.5)


def test_rsqrt_rejects_nonpositive():
    with pytest.raises(ValueError):
        rsqrt(Tensor(np.array([[1.0], [0.0]])))


def test_reductions_match_numpy():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 3))
    assert reduce_sum(Tensor(x)).item() == pytest.approx(x.sum())


def test_concat_and_gather_match_numpy():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((4, 3))
    c = rng.standard_normal((2, 5))
    np.testing.assert_allclose(
        concat_cols(Tensor(a), Tensor(c)).data, np.hstack([a, c])
    )
    idx = np.array([3, 0, 0, 2])
    np.testing.assert_allclose(gather_rows(Tensor(b), idx).data, b[idx])


def test_gather_rows_out_of_range():
    with pytest.raises(IndexError):
        gather_rows(Tensor(np.ones((2, 2))), np.array([0, 2]))


def test_scatter_add_rows_accumulates_duplicates():
    rows = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    out = scatter_add_rows(4, np.array([2, 0, 2]), rows)
    np.testing.assert_allclose(
        out, [[2.0, 2.0], [0.0, 0.0], [4.0, 4.0], [0.0, 0.0]]
    )
    empty = scatter_add_rows(3, np.zeros(0, dtype=np.int64), np.zeros((0, 2)))
    np.testing.assert_array_equal(empty, np.zeros((3, 2)))
    # Rows past the largest index are never written but still present.
    trailing = scatter_add_rows(5, np.array([1, 0, 1]), rows)
    np.testing.assert_allclose(trailing, [[2.0, 2.0], [4.0, 4.0], [0, 0], [0, 0], [0, 0]])


# ---------------------------------------------------------------------------
# Segment operations against loop oracles


def loop_segment_reduce(kind, x, ids, n_segments):
    out = np.zeros((n_segments, x.shape[1]))
    for s in range(n_segments):
        block = x[ids == s]
        if block.size == 0:
            continue
        if kind == "sum":
            out[s] = block.sum(axis=0)
        elif kind == "mean":
            out[s] = block.mean(axis=0)
        else:
            out[s] = block.max(axis=0)
    return out


@pytest.mark.parametrize("kind", ["sum", "mean", "max"])
def test_segment_reduce_matches_loop(kind):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((10, 3))
    ids = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2, 3])
    out = segment_reduce(kind, Tensor(x), ids)
    np.testing.assert_allclose(out.data, loop_segment_reduce(kind, x, ids, 4))


def test_segment_reduce_sum_handles_empty_segments():
    x = np.ones((2, 2))
    out = segment_reduce("sum", Tensor(x), np.array([0, 3]), n_segments=5)
    np.testing.assert_allclose(out.data[[1, 2, 4]], 0.0)


@pytest.mark.parametrize("kind", ["mean", "max"])
def test_segment_reduce_empty_segment_undefined_for(kind):
    with pytest.raises(ValueError):
        segment_reduce(kind, Tensor(np.ones((2, 2))), np.array([0, 2]), n_segments=3)


def test_segment_reduce_requires_sorted_ids():
    with pytest.raises(ValueError):
        segment_reduce("sum", Tensor(np.ones((3, 1))), np.array([1, 0, 1]))


def test_segment_max_gradient_breaks_ties_toward_lowest_row():
    # Segment 0 ties on rows 0/1 (col 0), 1/2 (col 1) and 0/1/2 (col 2);
    # segment 1 is a single row; segment 2 ties on rows 4/5 in cols 0 and 1.
    x = Tensor(
        np.array(
            [
                [2.0, 1.0, 5.0],
                [2.0, 3.0, 5.0],
                [1.0, 3.0, 5.0],
                [-1.0, 0.0, 7.0],
                [4.0, -2.0, 0.0],
                [4.0, -2.0, 1.0],
            ]
        ),
        requires_grad=True,
    )
    with Tape() as tape:
        peak = segment_reduce("max", x, np.array([0, 0, 0, 1, 2, 2]))
        y = reduce_sum(peak)
    tape.backward(y)
    np.testing.assert_array_equal(peak.data, [[2, 3, 5], [-1, 0, 7], [4, -2, 1]])
    np.testing.assert_array_equal(
        x.grad, [[1, 0, 1], [0, 1, 0], [0, 0, 0], [1, 1, 1], [1, 1, 0], [0, 0, 1]]
    )


def test_segment_softmax_matches_numpy_per_segment():
    rng = np.random.default_rng(6)
    scores = rng.standard_normal((7, 1))
    ids = np.array([0, 0, 1, 1, 1, 2, 2])
    out = segment_softmax(Tensor(scores), ids).data.ravel()
    for s in range(3):
        seg = scores.ravel()[ids == s]
        expected = np.exp(seg - seg.max())
        expected /= expected.sum()
        np.testing.assert_allclose(out[ids == s], expected, atol=1e-12)


def test_segment_softmax_stable_for_large_scores():
    scores = Tensor(np.array([[1000.0], [1000.0], [-1000.0]]))
    out = segment_softmax(scores, np.array([0, 0, 0])).data.ravel()
    np.testing.assert_allclose(out, [0.5, 0.5, 0.0], atol=1e-12)


def test_segment_softmax_rejects_empty_segment():
    with pytest.raises(ValueError):
        segment_softmax(Tensor(np.ones((2, 1))), np.array([0, 2]), n_segments=3)


# ---------------------------------------------------------------------------
# Gradient checks (central differences, fp64)


def test_gradient_matmul_chain():
    rng = np.random.default_rng(7)
    x, w = rand(rng, 3, 4), rand(rng, 4, 2)
    err = grad_check(lambda: reduce_sum(matmul(x, w)), [x, w])
    assert err < 1e-7


def test_gradient_elementwise_ops():
    rng = np.random.default_rng(8)
    x = rand(rng, 4, 3)
    for op in (relu, leaky_relu, sigmoid):
        err = grad_check(lambda: reduce_sum(op(x)), [x])
        assert err < 1e-6


def test_gradient_rsqrt():
    rng = np.random.default_rng(9)
    x = Tensor(rng.uniform(0.5, 2.0, (4, 1)), requires_grad=True)
    assert grad_check(lambda: reduce_sum(rsqrt(x)), [x]) < 1e-7


def test_gradient_hadamard_broadcast():
    rng = np.random.default_rng(10)
    col, m = rand(rng, 3, 1), rand(rng, 3, 4)
    err = grad_check(lambda: reduce_sum(hadamard(col, m)), [col, m])
    assert err < 1e-7


def test_gradient_concat_and_gather():
    rng = np.random.default_rng(11)
    a, b = rand(rng, 5, 3), rand(rng, 5, 2)
    idx = np.array([4, 0, 0, 3])

    def f():
        stacked = concat_cols(a, b)
        return reduce_sum(hadamard(gather_rows(stacked, idx), gather_rows(stacked, idx)))

    assert grad_check(f, [a, b]) < 1e-6


def test_gradient_segment_ops():
    rng = np.random.default_rng(12)
    x = rand(rng, 6, 2)
    ids = np.array([0, 0, 1, 1, 1, 2])
    for kind in ("sum", "mean", "max"):
        err = grad_check(lambda: reduce_sum(segment_reduce(kind, x, ids)), [x])
        assert err < 1e-6


def test_gradient_segment_softmax():
    rng = np.random.default_rng(13)
    s = rand(rng, 6, 1)
    w = rand(rng, 6, 1)
    ids = np.array([0, 0, 0, 1, 1, 2])
    err = grad_check(lambda: reduce_sum(hadamard(segment_softmax(s, ids), w)), [s, w])
    assert err < 1e-6


# ---------------------------------------------------------------------------
# Property-based checks


@given(
    n=st.integers(1, 6),
    k=st.integers(1, 6),
    m=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_property_matmul_transpose_identity(n, k, m, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((n, k)), rng.standard_normal((k, m))
    left = matmul(Tensor(a), Tensor(b)).data.T
    right = matmul(Tensor(b.T), Tensor(a.T)).data
    np.testing.assert_allclose(left, right, atol=1e-12)


@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 20), segs=st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_property_segment_sum_equals_dense_sum(seed, n, segs):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    ids = np.sort(rng.integers(0, segs, n))
    out = segment_reduce("sum", Tensor(x), ids, n_segments=segs)
    assert out.data.sum() == pytest.approx(x.sum())


@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 16))
@settings(max_examples=30, deadline=None)
def test_property_segment_softmax_sums_to_one(seed, n):
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((n, 1)) * 10
    dense_ids = np.searchsorted(np.unique(raw := np.sort(rng.integers(0, 3, n))), raw)
    out = segment_softmax(Tensor(scores), dense_ids).data
    sums = np.bincount(dense_ids, weights=out.ravel())
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)
