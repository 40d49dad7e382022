"""Sparse kernels: canonical storage, dense-oracle equality, gradient checks."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from asap_pool.engine import (
    ClusterLayout,
    SparseMatrix,
    Tape,
    Tensor,
    cluster_sum,
    grad_check,
    hadamard,
    matmul,
    normalize_gcn,
    reduce_sum,
    sparse_add_identity,
    sparse_make,
    sparse_row_sums,
    sparse_select_rows,
    sparse_submatrix,
    sparse_transpose,
    sparse_zero_diagonal,
    spmm,
    spspmm,
)
from asap_pool.engine import ops
from asap_pool.engine.sparse import _identity_merge
from asap_pool.engine.tensor import EngineError, ShapeError


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


def dense_weighted_sum(t):
    """``sum((t @ W) * V)`` for fixed random ``W``, ``V``: every entry of ``t`` gets its own upstream value."""
    rng = np.random.default_rng(98)
    w = Tensor(rng.standard_normal((t.data.shape[1], 3)))
    v = Tensor(rng.standard_normal((t.data.shape[0], 3)))
    return reduce_sum(hadamard(matmul(t, w), v))


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
    eye = sparse_add_identity(SparseMatrix((3, 3), [], [], []))
    np.testing.assert_allclose(eye.to_dense(), np.eye(3))
    empty = SparseMatrix((2, 4), [], [], [])
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
    for m in (s, SparseMatrix((3, 5), [], [], []), SparseMatrix((0, 2), [], [], [])):
        assert_csr_identical(m.csr(), sp.csr_matrix((m.values, (m.rows, m.cols)), shape=m.shape))


def test_csr_index_is_the_matrix_own_int64_columns():
    s = SparseMatrix.from_coo((4, 3), [2, 0, 2], [1, 2, 0], [1.0, 2.0, 3.0])
    indices, indptr = s.csr_index()
    assert indices.dtype == indptr.dtype == np.int64
    assert np.shares_memory(indices, s.cols)
    assert indptr.tolist() == [0, 1, 1, 3, 3]
    # A product's index is its own columns as well.
    product = spspmm(s, sparse_transpose(s))
    indices, indptr = product.csr_index()
    assert indices.dtype == indptr.dtype == np.int64
    assert np.shares_memory(indices, product.cols)


def test_csr_uses_wide_indices_when_shape_needs_them():
    wide = 2**31 + 5
    s = SparseMatrix((3, wide), [0, 2], [5, wide - 1], [1.0, 2.0])
    assert s.csr().indices.dtype == np.int64
    assert_csr_identical(s.csr(), sp.csr_matrix((s.values, (s.rows, s.cols)), shape=s.shape))


def test_csr_shares_no_array_with_the_matrix():
    # One stored 0.0: scipy's in-place eliminate_zeros must not rewrite this pattern.
    s = SparseMatrix((2, 3), [0, 0, 1], [0, 2, 1], [1.0, 0.0, 2.0])
    m = s.csr()
    m.eliminate_zeros()
    m.data[:] = 7.0
    assert m.nnz == 2
    indices, indptr = s.csr_index()
    assert s.nnz == 3 == indptr[-1] == indices.shape[0]
    assert indptr.tolist() == [0, 2, 3]
    assert indices.tolist() == s.cols.tolist() == [0, 2, 1]
    assert s.values.tolist() == [1.0, 0.0, 2.0]
    assert s.csr().nnz == 3
    assert s._csr is None


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


def scipy_entries_at(product, s):
    """Values of a scipy matrix at ``s``'s stored coordinates, 0.0 where it stores nothing."""
    coo = product.tocoo()
    stored = dict(zip(zip(coo.row.tolist(), coo.col.tolist()), coo.data.tolist()))
    return np.array([stored.get(key, 0.0) for key in zip(s.rows.tolist(), s.cols.tolist())])


def assert_same_bits(got, want):
    """Equal float64 arrays, signed zeros included."""
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def assert_spspmm_is_scipy_bit_for_bit(a, b, rng):
    want = a.csr() @ b.csr()
    want.sum_duplicates()
    with Tape() as tape:
        out = spspmm(a, b)
        # Seeds exactly G on out's entries: spmm against I reads each entry once.
        g = np.zeros(out.shape)
        g[out.rows, out.cols] = rng.standard_normal(out.nnz)
        loss = reduce_sum(hadamard(spmm(out, Tensor(np.eye(out.shape[1]))), Tensor(g)))
    grads = tape.backward(loss)
    assert np.array_equal(out.rows, np.repeat(np.arange(want.shape[0]), np.diff(want.indptr)))
    assert np.array_equal(out.cols, want.indices)
    assert_same_bits(out.values, want.data)
    g_csr = sp.csr_matrix((g[out.rows, out.cols], (out.rows, out.cols)), shape=out.shape)
    assert_same_bits(grads[a], scipy_entries_at(g_csr @ b.csr().T, a))
    assert_same_bits(grads[b], scipy_entries_at(a.csr().T @ g_csr, b))
    return out


@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(1, 7),
    k=st.integers(1, 7),
    n=st.integers(1, 7),
    density=st.floats(0.1, 0.9),
)
@settings(max_examples=40, deadline=None)
def test_spspmm_is_scipy_product_bit_for_bit(seed, m, k, n, density):
    rng = np.random.default_rng(seed)
    a = random_sparse(rng, m, k, density, requires_grad=True)
    b = random_sparse(rng, k, n, density, requires_grad=True)
    assert_spspmm_is_scipy_bit_for_bit(a, b, rng)


def test_spspmm_drops_a_sum_that_cancels_to_zero_and_handles_an_empty_product():
    rng = np.random.default_rng(22)
    # [1 1] @ [1 -1]ᵀ: two product terms that sum to exactly 0.0.
    a = SparseMatrix((1, 2), [0, 0], [0, 1], [1.0, 1.0], requires_grad=True)
    b = SparseMatrix((2, 1), [0, 1], [0, 0], [1.0, -1.0], requires_grad=True)
    assert assert_spspmm_is_scipy_bit_for_bit(a, b, rng).nnz == 0
    # a's columns 0-1 meet b's empty rows 0-1: no product term at all.
    a = SparseMatrix((3, 4), [0, 1, 2], [0, 1, 0], [1.0, 2.0, 3.0], requires_grad=True)
    b = SparseMatrix((4, 2), [2, 3], [0, 1], [4.0, 5.0], requires_grad=True)
    assert assert_spspmm_is_scipy_bit_for_bit(a, b, rng).nnz == 0


def test_spspmm_shape_mismatch():
    with pytest.raises(EngineError):
        spspmm(SparseMatrix((3, 3), [], [], []), SparseMatrix((4, 4), [], [], []))


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


def test_normalize_gcn_matches_diagonal_sandwich():
    rng = np.random.default_rng(6)
    s = random_sparse(rng, 5, 5)
    s.values[:] = np.abs(s.values)
    augmented = s.to_dense() + np.eye(5)
    scale = np.diag(augmented.sum(axis=1) ** -0.5)
    np.testing.assert_allclose(normalize_gcn(s).to_dense(), scale @ augmented @ scale, atol=1e-12)


def test_normalize_gcn_rounds_like_the_chain_it_replaces():
    # Add identity, row sums, d ** -0.5 and scale entries, each as its own
    # step, forward and backward: the fused op must keep every bit.
    rng = np.random.default_rng(17)
    a = random_sparse(rng, 6, 6, density=0.5, requires_grad=True)
    a.values[:] = np.abs(a.values) * 10.0 ** rng.integers(-3, 3, a.nnz)
    upstream = rng.standard_normal((6, 6))
    with Tape() as tape:
        out = normalize_gcn(a)
        loss = reduce_sum(hadamard(spmm(out, Tensor(np.eye(6))), Tensor(upstream)))
    grads = tape.backward(loss)

    aug = sparse_add_identity(a)
    rows, cols, values = aug.rows, aug.cols, aug.values
    y = 1.0 / np.sqrt(np.bincount(rows, weights=values, minlength=6)[:, None])
    rf = cf = y[:, 0]
    assert out.values.tobytes() == (values * rf[rows] * cf[cols]).tobytes()
    grad = upstream[rows, cols]
    g_y = (np.bincount(rows, weights=grad * values * cf[cols], minlength=6)[:, None]
           + np.bincount(cols, weights=grad * values * rf[rows], minlength=6)[:, None])
    g_aug = grad * rf[rows] * cf[cols] + (g_y * (-0.5 * y ** 3))[rows, 0]
    landed = np.searchsorted(aug.pattern_key(), a.pattern_key())
    assert grads[a].tobytes() == g_aug[landed].tobytes()


def test_normalize_gcn_rejects_nonpositive_degree():
    a = SparseMatrix.from_coo((2, 2), [0, 1], [1, 0], [-1.0, -1.0])
    with pytest.raises(EngineError):
        normalize_gcn(a)


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


def argsort_identity_merge(s):
    """The merge as one stable argsort of ``s``'s keys then the identity's, collapsed by ``bincount``."""
    n = s.shape[0]
    diag = np.arange(n, dtype=np.int64)
    all_rows = np.concatenate((s.rows, diag))
    all_cols = np.concatenate((s.cols, diag))
    all_vals = np.concatenate((s.values, np.ones(n)))
    keys = all_rows * n + all_cols
    order = np.argsort(keys, kind="stable")
    sk, sr, sc, sv = keys[order], all_rows[order], all_cols[order], all_vals[order]
    group_starts = np.concatenate(([0], np.flatnonzero(np.diff(sk)) + 1))
    group_of = np.cumsum(np.concatenate(([0], (np.diff(sk) != 0).astype(np.int64))))
    merged = np.bincount(group_of, weights=sv)
    position = np.empty(all_rows.shape[0], dtype=np.int64)
    position[order] = group_of
    return sr[group_starts], sc[group_starts], merged, position[: s.nnz]


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 9),
    density=st.floats(0.0, 1.0),
    diagonal=st.sampled_from(["any", "none", "full"]),
)
@settings(max_examples=80, deadline=None)
def test_property_identity_merge_equals_argsort_merge(seed, n, density, diagonal):
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    if diagonal != "any":
        np.fill_diagonal(mask, diagonal == "full")
    r, c = np.nonzero(mask)
    values = rng.standard_normal(r.size)
    values[rng.random(r.size) < 0.2] = -0.0
    values[rng.random(r.size) < 0.1] = 0.0
    values[rng.random(r.size) < 0.1] = -1.0
    s = SparseMatrix((n, n), r, c, values)
    for got, want in zip(_identity_merge(s), argsort_identity_merge(s)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_constructor_rejects_an_unsorted_pattern_without_debug_checks(monkeypatch):
    monkeypatch.setattr(ops, "DEBUG_CHECKS", False)  # the public constructor checks its pattern even so
    with pytest.raises(EngineError, match="row-major"):
        SparseMatrix((2, 2), [1, 0], [0, 1], [1.0, 1.0])
    with pytest.raises(EngineError, match="duplicate"):
        SparseMatrix((2, 2), [0, 0], [1, 1], [1.0, 1.0])


def test_op_outputs_are_scanned_only_under_debug_checks(monkeypatch):
    s = SparseMatrix((2, 2), [0, 1], [1, 0], [2.0, 3.0])
    monkeypatch.setattr(SparseMatrix, "__init__", None)  # fails if an op calls the validating constructor
    monkeypatch.setattr(ops, "DEBUG_CHECKS", False)
    out = normalize_gcn(s)
    np.testing.assert_array_equal(out.rows, [0, 0, 1, 1])
    monkeypatch.setattr(ops, "DEBUG_CHECKS", True)
    with pytest.raises(TypeError):
        normalize_gcn(s)


def test_zero_diagonal_matches_dense():
    rng = np.random.default_rng(8)
    s = sparse_add_identity(random_sparse(rng, 4, 4))
    expected = s.to_dense()
    np.fill_diagonal(expected, 0.0)
    np.testing.assert_allclose(sparse_zero_diagonal(s).to_dense(), expected)


def test_select_rows_matches_dense_slice():
    rng = np.random.default_rng(9)
    s = random_sparse(rng, 6, 5)
    s = SparseMatrix(s.shape, s.rows[s.rows != 2], s.cols[s.rows != 2], s.values[s.rows != 2])
    rows = np.array([4, 0, 2, 5])  # row 2 stores nothing
    np.testing.assert_array_equal(sparse_select_rows(s, rows).to_dense(), s.to_dense()[rows])


def test_select_rows_rejects_duplicate_and_out_of_range_indices():
    s = random_sparse(np.random.default_rng(11), 4, 4)
    with pytest.raises(EngineError):
        sparse_select_rows(s, [1, 3, 1])
    with pytest.raises(IndexError):
        sparse_select_rows(s, [0, 4])
    with pytest.raises(IndexError):
        sparse_select_rows(s, [-1])


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
    err = grad_check(lambda: dense_weighted_sum(spmm(s, d)), [s, d])
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
    weights = random_sparse(rng, 5, 5, requires_grad=True)
    weights.values[:] = rng.uniform(0.5, 2.0, weights.nnz)

    checks = [
        (lambda: weighted_sum(sparse_transpose(s)), [s]),
        (lambda: reduce_sum(sparse_row_sums(s)), [s]),
        (lambda: weighted_sum(normalize_gcn(weights)), [weights]),
        (lambda: weighted_sum(sparse_add_identity(s)), [s]),
        (lambda: weighted_sum(sparse_zero_diagonal(s)), [s]),
        (lambda: weighted_sum(sparse_select_rows(s, np.array([3, 0]))), [s]),
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
        (s, lambda: sparse_select_rows(s, np.zeros(0, dtype=np.int64)), (0, 5)),
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
        s = sparse_make(base, vals)
        return reduce_sum(spmm(s, weight))

    made = sparse_make(base, vals)
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
# Cluster ops


def layout_of(member_lists):
    """Layout whose cluster ``c`` has the ascending members ``member_lists[c]``."""
    n = len(member_lists)
    rows = np.repeat(np.arange(n), [len(m) for m in member_lists])
    cols = np.concatenate([np.asarray(m, dtype=np.int64) for m in member_lists])
    return ClusterLayout(SparseMatrix((n, n), rows, cols, np.ones(rows.size)))


def random_layout(rng, sizes):
    """Clusters with the given member counts first, then 1-3 members each, over enough nodes."""
    n = max(len(sizes), max(sizes))
    sizes = list(sizes) + list(rng.integers(1, min(n, 3) + 1, n - len(sizes)))
    return layout_of([np.sort(rng.choice(n, size, replace=False)) for size in sizes])


def mixed_values(rng, shape):
    """Random signs and magnitudes over sixteen decades, with some exact zeros of either sign."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    values[rng.random(shape) < 0.1] = 0.0
    values[rng.random(shape) < 0.1] = -0.0
    return values


def test_cluster_sum_matches_loop():
    rng = np.random.default_rng(20)
    layout = random_layout(rng, [1, 2, 8, 9, 20])
    w = rng.standard_normal(layout.member_ids.shape[0])
    x = rng.standard_normal((layout.n, 3))
    got = cluster_sum(layout, Tensor(w[:, None]), Tensor(x)).data
    want = np.zeros_like(got)
    for k, (c, m) in enumerate(zip(layout.cluster_ids, layout.member_ids)):
        want[c] += w[k] * x[m]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("size", [1, 2, 8, 9, 16, 17, 20, 128, 129, 130, 137, 200, 257])
def test_cluster_sum_rounds_like_reduceat_at_each_cluster_size(size):
    rng = np.random.default_rng(size)
    layout = random_layout(rng, [size] * 3)
    w = mixed_values(rng, layout.member_ids.shape[0])
    x = mixed_values(rng, (layout.n, 4))
    got = cluster_sum(layout, Tensor(w[:, None]), Tensor(x)).data
    want = np.add.reduceat(w[:, None] * x[layout.member_ids], layout.starts, axis=0)
    assert got.tobytes() == want.tobytes()


def test_cluster_sum_keeps_negative_zero():
    # Every product is -0.0: reduceat gives -0.0, a sum started from +0.0 would give +0.0.
    layout = layout_of([[0, 1], [1], [0, 1, 2]])
    x = np.array([[-0.0, 1.0], [-0.0, 2.0], [-0.0, 3.0]])
    got = cluster_sum(layout, Tensor(np.ones((6, 1))), Tensor(x)).data
    assert np.all(np.signbit(got[:, 0])) and np.all(got[:, 0] == 0.0)


@given(
    seed=st.integers(0, 2**31 - 1),
    sizes=st.lists(
        st.sampled_from([1, 2, 3, 8, 9, 16, 17, 20, 27, 128, 129, 130, 137, 200, 257]), min_size=1, max_size=12
    ),
    d=st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_property_cluster_sum_rounds_like_reduceat(seed, sizes, d):
    rng = np.random.default_rng(seed)
    layout = random_layout(rng, sizes)
    w = mixed_values(rng, layout.member_ids.shape[0])
    x = mixed_values(rng, (layout.n, d))
    got = cluster_sum(layout, Tensor(w[:, None]), Tensor(x)).data
    want = np.add.reduceat(w[:, None] * x[layout.member_ids], layout.starts, axis=0)
    assert got.tobytes() == want.tobytes()


def test_cluster_layout_splits_wide_clusters_into_eight_accumulators():
    # Cluster 0 has 1 + 19 members: accumulator j holds rest pairs j and j + 8,
    # the tail the last three; cluster 1 (three members) stays on its own row.
    layout = layout_of([np.arange(20), [0, 1, 2]] + [[c] for c in range(2, 20)])
    np.testing.assert_array_equal(layout.wide, [0])
    rest_indices, rest_indptr = layout.rest_index
    n = layout.n
    np.testing.assert_array_equal(np.diff(rest_indptr), [0, 2] + [0] * (n - 2) + [2] * 8)
    np.testing.assert_array_equal(layout.rest_pairs[:2], [21, 22])
    np.testing.assert_array_equal(layout.rest_pairs[2:].reshape(8, 2), np.arange(1, 17).reshape(2, 8).T)
    np.testing.assert_array_equal(layout.tail_pairs, [17, 18, 19])
    np.testing.assert_array_equal(layout.tail_index[0], [17, 18, 19])


def test_cluster_layout_without_wide_clusters_keeps_one_row_per_cluster():
    layout = random_layout(np.random.default_rng(22), [1, 2, 8, 3])
    indices, indptr = layout.index
    rest = np.setdiff1d(np.arange(layout.member_ids.shape[0]), layout.starts)
    np.testing.assert_array_equal(layout.rest_pairs, rest)
    np.testing.assert_array_equal(layout.rest_index[0], indices[rest])
    np.testing.assert_array_equal(layout.rest_index[1], indptr - np.arange(layout.n + 1))
    assert layout.wide.size == layout.tail_pairs.size == layout.exact.size == 0


def test_gradient_cluster_ops():
    rng = np.random.default_rng(21)
    layout = random_layout(rng, [1, 2, 3, 9, 12])
    weights = Tensor(rng.standard_normal((layout.member_ids.shape[0], 1)), requires_grad=True)
    x = Tensor(rng.standard_normal((layout.n, 2)), requires_grad=True)
    assert grad_check(lambda: dense_weighted_sum(cluster_sum(layout, weights, x)), [weights, x]) < 1e-7


def test_cluster_layout_rejects_empty_cluster_and_non_square_pattern():
    with pytest.raises(EngineError):
        ClusterLayout(SparseMatrix((3, 3), [0, 2], [0, 2], [1.0, 1.0]))
    with pytest.raises(ShapeError):
        ClusterLayout(SparseMatrix((2, 3), [0, 1], [0, 1], [1.0, 1.0]))


def test_cluster_ops_check_operand_shapes():
    layout = layout_of([[0, 1], [1]])
    with pytest.raises(ShapeError):
        cluster_sum(layout, Tensor(np.ones((3, 1))), Tensor(np.ones((3, 2))))
    with pytest.raises(ShapeError):
        cluster_sum(layout, Tensor(np.ones((2, 1))), Tensor(np.ones((2, 2))))


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
