"""Sparse kernels: canonical storage, dense-oracle equality, gradient checks."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from asap_pool.engine import (
    SparseMatrix,
    Tape,
    Tensor,
    grad_check,
    hadamard,
    matmul,
    reduce_sum,
    sparse_add_identity,
    sparse_make,
    sparse_row_sums,
    sparse_scale_entries,
    sparse_select_columns,
    sparse_submatrix,
    sparse_transpose,
    sparse_zero_diagonal,
    spmm,
    spspmm,
)
from asap_pool.engine.tensor import EngineError


def random_sparse(rng, rows, cols, density=0.4, requires_grad=False):
    mask = rng.random((rows, cols)) < density
    r, c = np.nonzero(mask)
    vals = rng.standard_normal(r.size)
    return SparseMatrix.from_coo((rows, cols), r, c, vals, requires_grad=requires_grad)


def weighted_sum(s):
    """``sum((s @ W) * V)`` for fixed random ``W``, ``V``: entry ``(i, j)`` gets weight ``V[i]·W[j]``.

    Every stored entry carries its own upstream gradient, so a backward that
    routes gradients to the wrong entries cannot pass a gradient check.
    """
    rng = np.random.default_rng(99)
    w = Tensor(rng.standard_normal((s.shape[1], 3)))
    v = Tensor(rng.standard_normal((s.shape[0], 3)))
    return reduce_sum(hadamard(spmm(s, w), v))


# ---------------------------------------------------------------------------
# Construction and canonical form


def test_from_coo_sorts_row_major():
    s = SparseMatrix.from_coo((3, 3), [2, 0, 1], [0, 2, 1], [1.0, 2.0, 3.0])
    assert s.rows.tolist() == [0, 1, 2]
    assert s.cols.tolist() == [2, 1, 0]
    np.testing.assert_allclose(s.values, [2.0, 3.0, 1.0])


def test_duplicate_entries_rejected():
    with pytest.raises(EngineError):
        SparseMatrix.from_coo((2, 2), [0, 0], [1, 1], [1.0, 2.0])


def test_out_of_bounds_entries_rejected():
    with pytest.raises(IndexError):
        SparseMatrix.from_coo((2, 2), [0], [2], [1.0])


def test_identity_and_empty():
    eye = SparseMatrix.identity(3)
    np.testing.assert_allclose(eye.to_dense(), np.eye(3))
    empty = SparseMatrix.empty((2, 4))
    assert empty.rows.size == 0
    np.testing.assert_allclose(empty.to_dense(), np.zeros((2, 4)))


def test_to_dense_matches_scipy():
    rng = np.random.default_rng(0)
    s = random_sparse(rng, 5, 7)
    ref = sp.coo_matrix((s.values, (s.rows, s.cols)), shape=(5, 7)).toarray()
    np.testing.assert_allclose(s.to_dense(), ref)


# ---------------------------------------------------------------------------
# Products against dense oracles


def test_spmm_matches_dense_product():
    rng = np.random.default_rng(2)
    s = random_sparse(rng, 5, 4)
    d = rng.standard_normal((4, 3))
    np.testing.assert_allclose(
        spmm(s, Tensor(d)).data, s.to_dense() @ d, atol=1e-12
    )


def test_spspmm_matches_dense_product():
    rng = np.random.default_rng(3)
    a = random_sparse(rng, 4, 5)
    b = random_sparse(rng, 5, 3)
    np.testing.assert_allclose(
        spspmm(a, b).to_dense(), a.to_dense() @ b.to_dense(), atol=1e-12
    )


def assert_csr_identical(got, want):
    assert got.shape == want.shape
    for field in ("indptr", "indices", "data"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.dtype == w.dtype, field
        np.testing.assert_array_equal(g, w)


@given(seed=st.integers(0, 2**31 - 1), n_rows=st.integers(0, 7), n_cols=st.integers(1, 7))
@settings(max_examples=40, deadline=None)
def test_csr_matches_scipy_coo_construction(seed, n_rows, n_cols):
    rng = np.random.default_rng(seed)
    s = random_sparse(rng, n_rows, n_cols, density=rng.uniform(0.0, 1.0))
    coo_built = sp.csr_matrix((s.values, (s.rows, s.cols)), shape=s.shape)
    assert_csr_identical(s.csr(), coo_built)


def test_csr_empty_rows_and_no_entries():
    # Rows 0, 2 and the trailing rows 4-5 are empty.
    s = SparseMatrix.from_coo((6, 4), [1, 1, 3], [0, 3, 2], [1.0, 2.0, 3.0])
    assert s.csr().indptr.tolist() == [0, 0, 2, 2, 3, 3, 3]
    for m in (s, SparseMatrix.empty((3, 5)), SparseMatrix.empty((0, 2))):
        assert_csr_identical(m.csr(), sp.csr_matrix((m.values, (m.rows, m.cols)), shape=m.shape))


def test_csr_uses_wide_indices_when_shape_needs_them():
    wide = 2**31 + 5
    s = SparseMatrix((3, wide), [0, 2], [5, wide - 1], [1.0, 2.0])
    assert s.csr().indices.dtype == np.int64
    assert_csr_identical(s.csr(), sp.csr_matrix((s.values, (s.rows, s.cols)), shape=s.shape))


def test_spspmm_gradient_is_dense_product_sampled_on_each_pattern():
    rng = np.random.default_rng(21)
    mask_a = rng.random((4, 5)) < 0.6
    mask_b = rng.random((5, 4)) < 0.6
    # a's column 2 meets b's empty row 2, and b's row 3 meets a's empty
    # column 3: those operand entries are absent from every gradient product.
    mask_a[:, 3], mask_a[0, 2], mask_a[1, 0] = False, True, True
    mask_b[2, :], mask_b[3, 1], mask_b[0, 0] = False, True, True
    a, b = (
        SparseMatrix.from_coo(m.shape, *np.nonzero(m), rng.standard_normal(m.sum()), requires_grad=True)
        for m in (mask_a, mask_b)
    )
    with Tape() as tape:
        out = spspmm(a, b)
        # Upstream gradient G on out's pattern: d/d out[i, j] of sum((out @ I) * G) is G[i, j].
        g = np.zeros(out.shape)
        g[out.rows, out.cols] = rng.standard_normal(out.nnz)
        loss = reduce_sum(hadamard(spmm(out, Tensor(np.eye(out.shape[1]))), Tensor(g)))
    grads = tape.backward(loss)
    np.testing.assert_allclose(grads[a], (g @ b.to_dense().T)[a.rows, a.cols], atol=1e-12)
    np.testing.assert_allclose(grads[b], (a.to_dense().T @ g)[b.rows, b.cols], atol=1e-12)
    assert np.all(grads[a][a.cols == 2] == 0.0)
    assert np.all(grads[b][b.rows == 3] == 0.0)


def test_spspmm_shape_mismatch():
    with pytest.raises(EngineError):
        spspmm(SparseMatrix.identity(3), SparseMatrix.identity(4))


# ---------------------------------------------------------------------------
# Structural transforms against dense oracles


def test_transpose_matches_dense_and_round_trips():
    rng = np.random.default_rng(4)
    s = random_sparse(rng, 3, 6)
    np.testing.assert_allclose(sparse_transpose(s).to_dense(), s.to_dense().T)
    np.testing.assert_allclose(
        sparse_transpose(sparse_transpose(s)).to_dense(), s.to_dense()
    )


def test_row_sums_matches_dense():
    rng = np.random.default_rng(5)
    s = random_sparse(rng, 6, 4)
    np.testing.assert_allclose(
        sparse_row_sums(s).data.ravel(), s.to_dense().sum(axis=1), atol=1e-12
    )


def test_scale_entries_matches_diagonal_sandwich():
    rng = np.random.default_rng(6)
    s = random_sparse(rng, 4, 5)
    r = rng.uniform(0.5, 2.0, (4, 1))
    c = rng.uniform(0.5, 2.0, (5, 1))
    out = sparse_scale_entries(s, Tensor(r), Tensor(c))
    expected = np.diag(r.ravel()) @ s.to_dense() @ np.diag(c.ravel())
    np.testing.assert_allclose(out.to_dense(), expected, atol=1e-12)


def test_add_identity_matches_dense():
    rng = np.random.default_rng(7)
    s = random_sparse(rng, 5, 5)
    np.testing.assert_allclose(
        sparse_add_identity(s).to_dense(), s.to_dense() + np.eye(5), atol=1e-12
    )


def test_add_identity_merges_existing_diagonal():
    s = SparseMatrix.from_coo((2, 2), [0, 1], [0, 1], [3.0, -1.0])
    out = sparse_add_identity(s)
    assert out.rows.size == 2  # no duplicated diagonal entries
    np.testing.assert_allclose(out.to_dense(), [[4.0, 0.0], [0.0, 0.0]])


def test_zero_diagonal_matches_dense():
    rng = np.random.default_rng(8)
    s = sparse_add_identity(random_sparse(rng, 4, 4))
    expected = s.to_dense()
    np.fill_diagonal(expected, 0.0)
    np.testing.assert_allclose(sparse_zero_diagonal(s).to_dense(), expected)


def test_select_columns_matches_dense_slice():
    rng = np.random.default_rng(9)
    s = random_sparse(rng, 5, 6)
    cols = np.array([4, 0, 2])
    np.testing.assert_allclose(
        sparse_select_columns(s, cols).to_dense(), s.to_dense()[:, cols]
    )


def test_submatrix_matches_dense_fancy_index():
    rng = np.random.default_rng(10)
    s = random_sparse(rng, 6, 6)
    rows = np.array([5, 1, 3])
    cols = np.array([0, 2, 4])
    np.testing.assert_allclose(
        sparse_submatrix(s, rows, cols).to_dense(),
        s.to_dense()[np.ix_(rows, cols)],
    )


# ---------------------------------------------------------------------------
# Gradients through sparse ops


def test_gradient_spmm_both_operands():
    rng = np.random.default_rng(12)
    s = random_sparse(rng, 5, 4, requires_grad=True)
    d = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    err = grad_check(lambda: reduce_sum(spmm(s, d)), [s, d])
    assert err < 1e-7


def test_gradient_spspmm_pattern_restricted():
    rng = np.random.default_rng(13)
    a = random_sparse(rng, 4, 5, requires_grad=True)
    b = random_sparse(rng, 5, 4, requires_grad=True)
    err = grad_check(lambda: weighted_sum(spspmm(a, b)), [a, b])
    assert err < 1e-7


def test_gradient_structural_ops():
    rng = np.random.default_rng(14)
    s = random_sparse(rng, 5, 5, requires_grad=True)
    r = Tensor(rng.uniform(0.5, 2.0, (5, 1)), requires_grad=True)
    c = Tensor(rng.uniform(0.5, 2.0, (5, 1)), requires_grad=True)

    checks = [
        (lambda: weighted_sum(sparse_transpose(s)), [s]),
        (lambda: reduce_sum(sparse_row_sums(s)), [s]),
        (lambda: weighted_sum(sparse_scale_entries(s, r, c)), [s, r, c]),
        (lambda: weighted_sum(sparse_add_identity(s)), [s]),
        (lambda: weighted_sum(sparse_zero_diagonal(s)), [s]),
        (lambda: weighted_sum(sparse_select_columns(s, np.array([3, 0]))), [s]),
        (lambda: weighted_sum(sparse_submatrix(s, np.array([1, 4]), np.array([0, 2]))), [s]),
    ]
    for f, params in checks:
        assert grad_check(f, params) < 1e-7


def test_structural_ops_that_take_no_entries():
    rng = np.random.default_rng(16)
    s = random_sparse(rng, 5, 5, requires_grad=True)
    empty = SparseMatrix((4, 6), [], [], [], requires_grad=True)
    diagonal = SparseMatrix((3, 3), [0, 1, 2], [0, 1, 2], [1.0, -2.0, 3.0], requires_grad=True)
    cases = [
        (s, lambda: sparse_select_columns(s, np.zeros(0, dtype=np.int64)), (5, 0)),
        (empty, lambda: sparse_submatrix(empty, np.array([3, 0]), np.array([1, 5, 2])), (2, 3)),
        (diagonal, lambda: sparse_zero_diagonal(diagonal), (3, 3)),
    ]
    for source, op, shape in cases:
        with Tape() as tape:
            out = op()
            loss = weighted_sum(out)
        assert out.shape == shape and out.nnz == 0
        grads = tape.backward(loss)
        np.testing.assert_array_equal(grads[source], np.zeros(source.nnz))


def test_gradient_flows_through_sparse_make():
    rng = np.random.default_rng(15)
    base = random_sparse(rng, 4, 4)
    vals = Tensor(rng.standard_normal((base.rows.size, 1)), requires_grad=True)
    weight = Tensor(rng.standard_normal((4, 2)), requires_grad=True)

    def f():
        s = sparse_make((4, 4), base.rows, base.cols, vals)
        return reduce_sum(spmm(s, weight))

    made = sparse_make((4, 4), base.rows, base.cols, vals)
    expected = np.zeros((4, 4))
    expected[base.rows, base.cols] = vals.data[:, 0]
    np.testing.assert_array_equal(made.to_dense(), expected)
    assert grad_check(f, [vals, weight]) < 1e-7


def test_backward_accumulates_when_sparse_used_twice():
    s = SparseMatrix.from_coo((2, 2), [0, 1], [1, 0], [2.0, 3.0], requires_grad=True)
    d = Tensor(np.ones((2, 1)))
    with Tape() as tape:
        y = reduce_sum(hadamard(spmm(s, d), spmm(s, d)))
    grads = tape.backward(y)
    # d/dv of (v*1)^2 summed per entry = 2v
    np.testing.assert_allclose(grads[s].ravel(), [4.0, 6.0])


# ---------------------------------------------------------------------------
# Properties


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_property_spspmm_associates_with_dense(seed):
    rng = np.random.default_rng(seed)
    a = random_sparse(rng, 3, 4, density=0.5)
    b = random_sparse(rng, 4, 3, density=0.5)
    c = rng.standard_normal((3, 2))
    left = spmm(spspmm(a, b), Tensor(c)).data
    right = a.to_dense() @ (b.to_dense() @ c)
    np.testing.assert_allclose(left, right, atol=1e-10)


@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_property_add_identity_then_zero_diagonal_clears_diagonal(seed, n):
    rng = np.random.default_rng(seed)
    s = random_sparse(rng, n, n, density=0.5)
    out = sparse_zero_diagonal(sparse_add_identity(s)).to_dense()
    np.testing.assert_allclose(np.diag(out), 0.0)
    off_diag = s.to_dense().copy()
    np.fill_diagonal(off_diag, 0.0)
    np.testing.assert_allclose(out, off_diag)
