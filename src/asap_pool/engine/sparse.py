"""Sparse matrices in canonical COO form and their differentiable operations.

A :class:`SparseMatrix` stores a fixed sparsity pattern (``rows``, ``cols`` in
row-major order, no duplicates) and a 1-D ``values`` array that participates
in gradient flow exactly like a dense tensor's entries: sparse outputs of
taped operations are tracked, and leaves created with ``requires_grad=True``
receive a per-entry gradient vector on ``.grad``.

scipy.sparse provides the CSR kernels behind matrix products; the pattern
bookkeeping (selection, transposes, unions) is done here so gradients can be
routed entry-for-entry.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import ops
from .tensor import EngineError, ShapeError, Tensor, record

__all__ = [
    "SparseMatrix",
    "spmm",
    "spspmm",
    "sparse_make",
    "sparse_row_sums",
    "sparse_transpose",
    "sparse_scale_entries",
    "sparse_add_identity",
    "sparse_zero_diagonal",
    "sparse_select_columns",
    "sparse_submatrix",
]


def _encode(rows: np.ndarray, cols: np.ndarray, n_cols: int) -> np.ndarray:
    return rows.astype(np.int64) * np.int64(n_cols) + cols.astype(np.int64)


class SparseMatrix:
    """A 2-D float64 sparse matrix with a canonical COO layout.

    Entries are sorted by ``(row, col)`` and unique; ``values[k]`` is the
    entry at ``(rows[k], cols[k])``. The pattern is immutable; ``values`` may
    be perturbed in place (finite-difference checks do), which is why the CSR
    view is only cached for untracked matrices.
    """

    __slots__ = ("shape", "rows", "cols", "values", "requires_grad", "grad", "_csr", "_index")

    def __init__(self, shape, rows, cols, values, requires_grad: bool = False):
        n_rows, n_cols = (int(shape[0]), int(shape[1]))
        if n_rows < 0 or n_cols < 0:
            raise ShapeError(f"bad sparse shape {shape}")
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=np.float64).ravel()
        if not (rows.shape == cols.shape == values.shape):
            raise ShapeError("rows, cols and values must have equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols:
                raise IndexError(f"sparse entry outside shape ({n_rows}, {n_cols})")
            keys = _encode(rows, cols, n_cols)
            deltas = np.diff(keys)
            if np.any(deltas < 0):
                raise EngineError("sparse entries must be in row-major order")
            if np.any(deltas == 0):
                raise EngineError("duplicate sparse entry")
        self.shape = (n_rows, n_cols)
        self.rows = rows
        self.cols = cols
        self.values = values
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._csr = None
        self._index = None

    @classmethod
    def from_coo(cls, shape, rows, cols, values, requires_grad: bool = False) -> "SparseMatrix":
        """Build from unordered COO triplets; duplicate coordinates are an error."""
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=np.float64).ravel()
        order = np.lexsort((cols, rows))
        return cls(shape, rows[order], cols[order], values[order], requires_grad=requires_grad)

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        idx = np.arange(n)
        return cls((n, n), idx, idx, np.ones(n))

    @classmethod
    def empty(cls, shape) -> "SparseMatrix":
        z = np.zeros(0)
        return cls(shape, z, z, z)

    @property
    def nnz(self) -> int:
        return self.values.shape[0]

    def csr_index(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(indices, indptr)`` of the pattern, in the index dtype scipy picks (cached).

        The pattern is already row-major and unique, so ``indptr`` is just the
        running count of entries per row; no COO conversion is needed.
        """
        if self._index is None:
            n_rows = self.shape[0]
            fits = max(self.nnz, n_rows, self.shape[1]) <= np.iinfo(np.int32).max
            dtype = np.int32 if fits else np.int64
            indptr = np.zeros(n_rows + 1, dtype=dtype)
            np.cumsum(np.bincount(self.rows, minlength=n_rows), out=indptr[1:])
            self._index = (self.cols.astype(dtype), indptr)
        return self._index

    def csr(self) -> sp.csr_matrix:
        """scipy CSR view of the current values (cached only when untracked)."""
        if self._csr is not None:
            return self._csr
        mat = _csr_on(self, self.values)
        if not self.requires_grad:
            self._csr = mat
        return mat

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.values
        return out

    def pattern_key(self) -> np.ndarray:
        """Row-major linear index of each stored entry (sorted, unique)."""
        return _encode(self.rows, self.cols, self.shape[1])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz}{flag})"


def _csr_on(pattern: SparseMatrix, values: np.ndarray) -> sp.csr_matrix:
    """scipy CSR matrix with ``pattern``'s layout holding ``values``."""
    indices, indptr = pattern.csr_index()
    mat = sp.csr_matrix((values, indices, indptr), shape=pattern.shape)
    mat.has_canonical_format = True
    return mat


def _sample(product: sp.spmatrix, pattern: SparseMatrix) -> np.ndarray:
    """Entries of a scipy product at ``pattern``'s coordinates (0 where it stores none)."""
    product = product.tocsr()
    product.sort_indices()
    if product.nnz == 0:
        return np.zeros(pattern.nnz)
    rows = np.repeat(np.arange(product.shape[0], dtype=np.int64), np.diff(product.indptr))
    keys = _encode(rows, product.indices, product.shape[1])
    wanted = pattern.pattern_key()
    pos = np.minimum(np.searchsorted(keys, wanted), keys.shape[0] - 1)
    return np.where(keys[pos] == wanted, product.data[pos], 0.0)


def _sparse_out(shape, rows, cols, values) -> SparseMatrix:
    if ops.DEBUG_CHECKS and not np.all(np.isfinite(values)):
        raise EngineError("non-finite values produced by a sparse operation")
    return SparseMatrix(shape, rows, cols, values)


def spmm(s: SparseMatrix, d: Tensor) -> Tensor:
    """Sparse @ dense product with gradients to both operands."""
    if s.shape[1] != d.data.shape[0]:
        raise ShapeError(f"spmm inner dims differ: {s.shape} @ {d.data.shape}")
    out_data = s.csr() @ d.data if s.nnz else np.zeros((s.shape[0], d.data.shape[1]))
    out = Tensor(out_data)

    def backward(grad, accumulate):
        if d.requires_grad:
            accumulate(d, s.csr().T @ grad)
        if s.requires_grad:
            accumulate(s, (grad[s.rows] * d.data[s.cols]).sum(axis=1))

    record(out, (s, d), backward)
    return out


def spspmm(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Sparse @ sparse product; the result pattern is whatever is structurally nonzero."""
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"spspmm inner dims differ: {a.shape} @ {b.shape}")
    prod = (a.csr() @ b.csr()).tocsr()
    prod.sum_duplicates()
    rows = np.repeat(np.arange(prod.shape[0], dtype=np.int64), np.diff(prod.indptr))
    out = _sparse_out((a.shape[0], b.shape[1]), rows, prod.indices, prod.data)

    def backward(grad, accumulate):
        # dA = G Bᵀ and dB = Aᵀ G, each read off at that operand's stored entries.
        grad_csr = _csr_on(out, grad)
        if a.requires_grad:
            accumulate(a, _sample(grad_csr @ b.csr().T, a))
        if b.requires_grad:
            accumulate(b, _sample(a.csr().T @ grad_csr, b))

    record(out, (a, b), backward)
    return out


def sparse_make(shape, rows, cols, values: Tensor) -> SparseMatrix:
    """Assemble a sparse matrix whose values come from an ``nnz x 1`` tensor."""
    rows = np.asarray(rows, dtype=np.int64).ravel()
    cols = np.asarray(cols, dtype=np.int64).ravel()
    if values.data.shape != (rows.shape[0], 1):
        raise ShapeError(f"values must be {rows.shape[0]}x1, got {values.data.shape}")
    out = _sparse_out(shape, rows, cols, values.data[:, 0].copy())

    def backward(grad, accumulate):
        accumulate(values, grad[:, None])

    record(out, (values,), backward)
    return out


def sparse_row_sums(s: SparseMatrix) -> Tensor:
    """Row sums as an ``n x 1`` tensor."""
    sums = np.bincount(s.rows, weights=s.values, minlength=s.shape[0])
    out = Tensor(sums[:, None])

    def backward(grad, accumulate):
        accumulate(s, grad[s.rows, 0])

    record(out, (s,), backward)
    return out


def _take_entries(s: SparseMatrix, shape, source: np.ndarray, rows, cols) -> SparseMatrix:
    """A ``shape`` matrix holding ``s.values[source]`` at the canonical ``(rows, cols)``.

    Every structural op that only picks, renumbers or reorders stored entries
    reduces to this gather; its backward scatters the gradient back to
    ``source`` (entries not taken get zero).
    """
    out = _sparse_out(shape, rows, cols, s.values[source])

    def backward(grad, accumulate):
        back = np.zeros(s.nnz)
        back[source] = grad
        accumulate(s, back)

    record(out, (s,), backward)
    return out


def sparse_transpose(s: SparseMatrix) -> SparseMatrix:
    """Transpose, re-sorted into canonical order."""
    order = np.lexsort((s.rows, s.cols))
    return _take_entries(s, (s.shape[1], s.shape[0]), order, s.cols[order], s.rows[order])


def sparse_scale_entries(s: SparseMatrix, row_factors: Tensor, col_factors: Tensor) -> SparseMatrix:
    """Scale entry ``(i, j)`` by ``row_factors[i] * col_factors[j]``.

    This is the symmetric-normalization primitive: with both factor columns
    equal to ``degree ** -0.5`` it computes ``D^-1/2 A D^-1/2``.
    """
    if row_factors.data.shape != (s.shape[0], 1):
        raise ShapeError("row_factors must be a column with one entry per row")
    if col_factors.data.shape != (s.shape[1], 1):
        raise ShapeError("col_factors must be a column with one entry per column")
    rf = row_factors.data[:, 0]
    cf = col_factors.data[:, 0]
    out = _sparse_out(s.shape, s.rows, s.cols, s.values * rf[s.rows] * cf[s.cols])

    def backward(grad, accumulate):
        accumulate(s, grad * rf[s.rows] * cf[s.cols])
        if row_factors.requires_grad:
            contrib = grad * s.values * cf[s.cols]
            accumulate(row_factors, np.bincount(s.rows, weights=contrib, minlength=s.shape[0])[:, None])
        if col_factors.requires_grad:
            contrib = grad * s.values * rf[s.rows]
            accumulate(col_factors, np.bincount(s.cols, weights=contrib, minlength=s.shape[1])[:, None])

    record(out, (s, row_factors, col_factors), backward)
    return out


def sparse_add_identity(s: SparseMatrix) -> SparseMatrix:
    """Add the identity to a square matrix (pattern union; diagonal +1)."""
    n = s.shape[0]
    if s.shape[0] != s.shape[1]:
        raise ShapeError("sparse_add_identity needs a square matrix")
    diag = np.arange(n, dtype=np.int64)
    all_rows = np.concatenate((s.rows, diag))
    all_cols = np.concatenate((s.cols, diag))
    all_vals = np.concatenate((s.values, np.ones(n)))
    keys = _encode(all_rows, all_cols, n)
    order = np.argsort(keys, kind="stable")
    sk, sr, sc, sv = keys[order], all_rows[order], all_cols[order], all_vals[order]
    # Collapse duplicate coordinates (an existing diagonal entry gets +1).
    group_starts = np.concatenate(([0], np.flatnonzero(np.diff(sk)) + 1))
    group_of = np.cumsum(np.concatenate(([0], (np.diff(sk) != 0).astype(np.int64))))
    merged = np.bincount(group_of, weights=sv)
    out = _sparse_out(s.shape, sr[group_starts], sc[group_starts], merged)

    # Where each original entry landed in the merged layout.
    position = np.empty(all_rows.shape[0], dtype=np.int64)
    position[order] = group_of
    original_pos = position[: s.nnz]

    def backward(grad, accumulate):
        accumulate(s, grad[original_pos])

    record(out, (s,), backward)
    return out


def sparse_zero_diagonal(s: SparseMatrix) -> SparseMatrix:
    """Drop any diagonal entries of a square matrix."""
    if s.shape[0] != s.shape[1]:
        raise ShapeError("sparse_zero_diagonal needs a square matrix")
    keep = np.flatnonzero(s.rows != s.cols)
    return _take_entries(s, s.shape, keep, s.rows[keep], s.cols[keep])


def _position_map(idx: np.ndarray, size: int, what: str) -> np.ndarray:
    """``lookup[i]`` is the position of ``i`` in ``idx``, or -1 where ``i`` is absent."""
    if idx.size and (idx.min() < 0 or idx.max() >= size):
        raise IndexError(f"{what} index out of range")
    lookup = np.full(size, -1, dtype=np.int64)
    lookup[idx] = np.arange(idx.shape[0])
    if np.count_nonzero(lookup >= 0) != idx.shape[0]:
        raise EngineError(f"duplicate {what} index")
    return lookup


def _renumbered(s: SparseMatrix, shape, new_rows: np.ndarray, new_cols: np.ndarray) -> SparseMatrix:
    """Entries whose new row and column are both >= 0, re-sorted into canonical order."""
    keep = np.flatnonzero((new_rows >= 0) & (new_cols >= 0))
    rows, cols = new_rows[keep], new_cols[keep]
    order = np.lexsort((cols, rows))
    return _take_entries(s, shape, keep[order], rows[order], cols[order])


def sparse_select_columns(s: SparseMatrix, col_indices) -> SparseMatrix:
    """Keep columns listed in ``col_indices``, renumbered to that order."""
    col_indices = np.asarray(col_indices, dtype=np.int64).ravel()
    new_cols = _position_map(col_indices, s.shape[1], "column")[s.cols]
    return _renumbered(s, (s.shape[0], col_indices.shape[0]), s.rows, new_cols)


def sparse_submatrix(s: SparseMatrix, row_indices, col_indices) -> SparseMatrix:
    """Entries with row in ``row_indices`` and column in ``col_indices``, renumbered."""
    row_indices = np.asarray(row_indices, dtype=np.int64).ravel()
    col_indices = np.asarray(col_indices, dtype=np.int64).ravel()
    new_rows = _position_map(row_indices, s.shape[0], "row")[s.rows]
    new_cols = _position_map(col_indices, s.shape[1], "column")[s.cols]
    return _renumbered(s, (row_indices.shape[0], col_indices.shape[0]), new_rows, new_cols)
