"""Sparse matrices in canonical COO form and their differentiable operations.

A :class:`SparseMatrix` stores a fixed sparsity pattern (``rows``, ``cols`` in
row-major order, no duplicates) and a 1-D ``values`` array that participates
in gradient flow exactly like a dense tensor's entries: sparse outputs of
taped operations are tracked, and leaves created with ``requires_grad=True``
receive a per-entry gradient vector on ``.grad``.

Sparse × dense and sparse × sparse products call scipy's compiled CSR
kernels (``_sparsetools``) on each operand's CSR index: its own int64
``cols`` and a cached ``indptr``. The pattern bookkeeping (selection,
transposes, unions) is done here so gradients can be routed
entry-for-entry. Only the public constructors validate a pattern; an op
builds its output's pattern canonical and skips that scan unless
``ops.DEBUG_CHECKS`` is on, and ``sparse_make(pattern, values)`` puts taped
values on an existing matrix's pattern, sharing its arrays and CSR index.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from . import ops
from .tensor import EngineError, ShapeError, Tensor, record

__all__ = [
    "SparseMatrix",
    "ClusterLayout",
    "cluster_sum",
    "spmm",
    "spspmm",
    "sparse_make",
    "sparse_row_sums",
    "sparse_transpose",
    "sparse_add_identity",
    "normalize_gcn",
    "sparse_zero_diagonal",
    "sparse_select_rows",
    "sparse_submatrix",
]


def _encode(rows: np.ndarray, cols: np.ndarray, n_cols: int) -> np.ndarray:
    return rows * np.int64(n_cols) + cols


def _ranges(firsts: np.ndarray, lengths: np.ndarray, step: int = 1) -> np.ndarray:
    """The ranges ``firsts[i], firsts[i] + step, ...`` of ``lengths[i]`` numbers each, concatenated."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(firsts - step * offsets, lengths) + step * np.arange(int(lengths.sum()))


def _indptr(lengths: np.ndarray) -> np.ndarray:
    """CSR row pointers of rows holding ``lengths`` entries."""
    indptr = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


class SparseMatrix:
    """A 2-D float64 sparse matrix with a canonical COO layout.

    Entries are sorted by ``(row, col)`` and unique; ``values[k]`` is the
    entry at ``(rows[k], cols[k])``. The pattern is immutable; ``values`` may
    be perturbed in place (finite-difference checks do). ``_csr`` stays
    ``None``: no scipy matrix is cached, so none can share these arrays.
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
            deltas = keys[1:] - keys[:-1]
            if (deltas < 0).any():
                raise EngineError("sparse entries must be in row-major order")
            if (deltas == 0).any():
                raise EngineError("duplicate sparse entry")
        self._set((n_rows, n_cols), rows, cols, values, bool(requires_grad))

    def _set(self, shape, rows, cols, values, requires_grad: bool) -> None:
        self.shape = shape
        self.rows = rows
        self.cols = cols
        self.values = values
        self.requires_grad = requires_grad
        self.grad = None
        self._csr = None
        self._index = None

    @classmethod
    def _canonical(cls, shape, rows, cols, values) -> "SparseMatrix":
        """Wrap int64 ``rows``/``cols`` and 1-D float64 ``values`` known to be canonical, with no scan."""
        out = cls.__new__(cls)
        out._set(shape, rows, cols, values, False)
        return out

    @classmethod
    def from_coo(cls, shape, rows, cols, values, requires_grad: bool = False) -> "SparseMatrix":
        """Build from unordered COO triplets; duplicate coordinates are an error."""
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=np.float64).ravel()
        order = np.lexsort((cols, rows))
        return cls(shape, rows[order], cols[order], values[order], requires_grad=requires_grad)

    @property
    def nnz(self) -> int:
        return self.values.shape[0]

    def csr_index(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(indices, indptr)`` of the pattern: ``cols`` itself and a cached int64 ``indptr``.

        The pattern is already row-major and unique, so ``indptr`` is just the
        running count of entries per row.
        """
        if self._index is None:
            self._index = (self.cols, _indptr(np.bincount(self.rows, minlength=self.shape[0])))
        return self._index

    def csr(self) -> sp.csr_matrix:
        """A new scipy CSR matrix of the current values, on copies of the arrays.

        The engine's own products call scipy's kernels on :meth:`csr_index`
        and build no scipy matrix; this is for callers that want one, and
        what they do to it leaves the pattern and values here as they are.
        """
        indices, indptr = self.csr_index()
        mat = sp.csr_matrix((self.values.copy(), indices.copy(), indptr.copy()), shape=self.shape)
        mat.has_canonical_format = True
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


def _csr_transpose(shape, index, values: np.ndarray):
    """CSR ``(indices, indptr)`` and values of a CSR matrix's transpose, by scipy's ``csr_tocsc``.

    The kernel is a counting sort by column, so each row of the transpose
    lists its columns in ascending order, as scipy's ``.T.tocsr()`` does.
    """
    indices, indptr = index
    n_rows, n_cols = shape
    t_indptr = np.empty(n_cols + 1, dtype=np.int64)
    t_indices = np.empty(indices.shape[0], dtype=np.int64)
    t_values = np.empty(indices.shape[0])
    _sparsetools.csr_tocsc(n_rows, n_cols, indptr, indices, values, t_indptr, t_indices, t_values)
    return (t_indices, t_indptr), t_values


def _csr_product(n_rows, n_cols, a_index, a_values, b_index, b_values):
    """CSR ``(indices, indptr)`` and values of ``A @ B``, columns sorted within each row.

    The kernels are those scipy's ``A @ B`` then ``sum_duplicates`` run, so
    the values round the same: entry ``(i, j)`` adds each ``A[i, k] *
    B[k, j]`` to ``0.0`` in the order ``A``'s row ``i`` stores its ``k``, and
    a sum that is exactly zero is not stored.
    """
    (a_indices, a_indptr), (b_indices, b_indptr) = a_index, b_index
    bound = _sparsetools.csr_matmat_maxnnz(n_rows, n_cols, a_indptr, a_indices, b_indptr, b_indices)
    indptr = np.empty(n_rows + 1, dtype=np.int64)
    indices = np.empty(bound, dtype=np.int64)
    values = np.empty(bound)
    _sparsetools.csr_matmat(
        n_rows, n_cols, a_indptr, a_indices, a_values, b_indptr, b_indices, b_values, indptr, indices, values
    )
    stored = int(indptr[-1])
    indices, values = indices[:stored], values[:stored]
    _sparsetools.csr_sort_indices(n_rows, indptr, indices, values)
    return (indices, indptr), values


def _sample(pattern: SparseMatrix, index, values: np.ndarray) -> np.ndarray:
    """Entries of a same-shape CSR matrix with sorted columns at ``pattern``'s coordinates.

    scipy's ``csr_sample_values`` binary-searches each row for the pattern's
    columns; an entry the matrix does not store reads as ``0.0``.
    """
    indices, indptr = index
    out = np.empty(pattern.nnz)
    _sparsetools.csr_sample_values(
        pattern.shape[0], pattern.shape[1], indptr, indices, values, pattern.nnz, pattern.rows, pattern.cols, out
    )
    return out


# Rows gathered per block by ``_sampled_dot``, counted in entries (rows x
# columns): small blocks stay in cache, where nnz x d temporaries would not.
_SAMPLE_BLOCK = 1 << 15


def _sampled_dot(a: np.ndarray, rows: np.ndarray, b: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``(a @ b.T)[rows[k], cols[k]]`` for every ``k``, without forming the product (an SDDMM).

    ``np.take`` gathers the rows; it is faster than fancy indexing here.
    """
    out = np.empty(rows.shape[0])
    step = max(1, _SAMPLE_BLOCK // max(1, a.shape[1]))
    for lo in range(0, rows.shape[0], step):
        hi = lo + step
        out[lo:hi] = np.einsum("ij,ij->i", np.take(a, rows[lo:hi], axis=0), np.take(b, cols[lo:hi], axis=0))
    return out


def _compressed_times_dense(kernel, shape, indptr, indices, values, dense: np.ndarray, out=None) -> np.ndarray:
    """``M @ dense`` by scipy's own ``csr_matvecs``/``csc_matvecs`` kernel, for ``M`` given by its int64 arrays.

    The kernel adds each row's products to ``out`` in storage order, after
    whatever a given C-contiguous ``out`` already holds.
    """
    if out is None:
        out = np.zeros((shape[0], dense.shape[1]))
    kernel(shape[0], shape[1], dense.shape[1], indptr, indices, values,
           np.ascontiguousarray(dense).ravel(), out.ravel())
    return out


def _sparse_out(shape, rows, cols, values) -> SparseMatrix:
    """An op's output on a canonical pattern the op built, scanned only under ``ops.DEBUG_CHECKS``."""
    if not ops.DEBUG_CHECKS:
        return SparseMatrix._canonical(shape, rows, cols, values)
    if not np.all(np.isfinite(values)):
        raise EngineError("non-finite values produced by a sparse operation")
    return SparseMatrix(shape, rows, cols, values)


def spmm(s: SparseMatrix, d: Tensor) -> Tensor:
    """Sparse @ dense product with gradients to both operands."""
    if s.shape[1] != d.data.shape[0]:
        raise ShapeError(f"spmm inner dims differ: {s.shape} @ {d.data.shape}")
    indices, indptr = s.csr_index()
    out = Tensor(_compressed_times_dense(_sparsetools.csr_matvecs, s.shape, indptr, indices, s.values, d.data))

    def backward(grad, accumulate):
        if d.requires_grad:
            # s's CSR arrays read as CSC are sᵀ.
            shape = (s.shape[1], s.shape[0])
            accumulate(d, _compressed_times_dense(_sparsetools.csc_matvecs, shape, indptr, indices, s.values, grad))
        if s.requires_grad:
            accumulate(s, _sampled_dot(grad, s.rows, d.data, s.cols))

    record(out, (s, d), backward)
    return out


def spspmm(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Sparse @ sparse product, storing each entry that has a product term and a nonzero sum.

    ``(i, j)`` is stored when some ``k`` has both ``a[i, k]`` and ``b[k, j]``
    stored and the terms do not sum to exactly ``0.0``: ``[1 1] @ [1 -1]ᵀ``
    stores nothing. Forward and backward call scipy's compiled kernels on
    the operands' cached :meth:`~SparseMatrix.csr_index` arrays. The values
    equal scipy's ``a.csr() @ b.csr()`` bit for bit, and the gradients equal
    scipy's ``G @ b.T`` and ``a.T @ G`` read at each operand's entries.
    """
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"spspmm inner dims differ: {a.shape} @ {b.shape}")
    n_rows, inner, n_cols = a.shape[0], a.shape[1], b.shape[1]
    index, values = _csr_product(n_rows, n_cols, a.csr_index(), a.values, b.csr_index(), b.values)
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(index[1]))
    out = _sparse_out((n_rows, n_cols), rows, index[0], values)
    out._index = index  # the product's own CSR arrays, rows and columns sorted

    def backward(grad, accumulate):
        # dA = G Bᵀ and dB = Aᵀ G, each read off at that operand's stored entries.
        if a.requires_grad:
            b_t = _csr_transpose(b.shape, b.csr_index(), b.values)
            accumulate(a, _sample(a, *_csr_product(n_rows, inner, index, grad, *b_t)))
        if b.requires_grad:
            # Aᵀ's rows list i ascending, so each entry of Aᵀ G adds its
            # terms in the order scipy's (Gᵀ A)ᵀ does.
            a_t = _csr_transpose(a.shape, a.csr_index(), a.values)
            accumulate(b, _sample(b, *_csr_product(inner, n_cols, *a_t, index, grad)))

    record(out, (a, b), backward)
    return out


def sparse_make(pattern: SparseMatrix, values: Tensor) -> SparseMatrix:
    """A matrix on ``pattern``'s pattern whose values come from an ``nnz x 1`` tensor.

    The result shares ``pattern``'s ``rows``, ``cols`` and CSR index, which
    a canonical pattern guarantees are valid, so none is scanned again.
    """
    if values.data.shape != (pattern.nnz, 1):
        raise ShapeError(f"values must be {pattern.nnz}x1, got {values.data.shape}")
    out = _sparse_out(pattern.shape, pattern.rows, pattern.cols, values.data[:, 0].copy())
    out._index = pattern.csr_index()

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


def _identity_merge(s: SparseMatrix):
    """Canonical ``(rows, cols, values)`` of ``s + I`` and where each entry of ``s`` landed in it.

    No sort: each row of ``s + I`` is row ``i`` of ``s`` with ``(i, i)``
    inserted after the entries left of the diagonal, unless ``s`` stores it.
    Values round as a ``bincount`` of ``s``'s entries then the identity's:
    a stored ``v`` becomes ``v + 0.0`` and a stored diagonal ``(v + 0.0) + 1.0``.
    """
    n = s.shape[0]
    if s.shape[0] != s.shape[1]:
        raise ShapeError("adding the identity needs a square matrix")
    rows, cols = s.rows, s.cols
    on_diagonal = rows == cols
    missing = np.ones(n, dtype=np.int64)
    missing[rows[on_diagonal]] = 0
    inserted_before = np.cumsum(missing) - missing
    landed = np.arange(s.nnz) + inserted_before[rows] + ((cols > rows) & (missing[rows] == 1))
    inserted = np.flatnonzero(missing)
    left_of_diagonal = np.bincount(rows[cols < rows], minlength=n)
    diagonal_at = (s.csr_index()[1][:-1] + left_of_diagonal + inserted_before)[inserted]
    size = s.nnz + inserted.shape[0]
    out_rows, out_cols, values = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64), np.empty(size)
    out_rows[landed], out_cols[landed], values[landed] = rows, cols, s.values + 0.0
    out_rows[diagonal_at], out_cols[diagonal_at], values[diagonal_at] = inserted, inserted, 1.0
    values[landed[on_diagonal]] += 1.0
    return out_rows, out_cols, values, landed


def sparse_add_identity(s: SparseMatrix) -> SparseMatrix:
    """Add the identity to a square matrix (pattern union; diagonal +1)."""
    rows, cols, values, landed = _identity_merge(s)
    out = _sparse_out(s.shape, rows, cols, values)

    def backward(grad, accumulate):
        accumulate(s, grad[landed])

    record(out, (s,), backward)
    return out


def normalize_gcn(a: SparseMatrix) -> SparseMatrix:
    """Symmetrically renormalized adjacency ``D^-1/2 (A + I) D^-1/2``.

    Degrees are the row sums of ``A + I`` and must be positive; with a
    non-negative ``A`` every degree is at least one and the result is
    non-negative. The output participates in gradient flow when ``a`` does.
    Rounding contract: forward and backward evaluate the composition add
    identity, row sums, ``d ** -0.5``, scale entries with each step's
    expressions in that step's order, so they equal that composition of
    separate taped ops bit for bit.
    """
    rows, cols, values, landed = _identity_merge(a)
    n = a.shape[0]
    degrees = np.bincount(rows, weights=values, minlength=n)
    if np.any(degrees <= 0.0):
        raise EngineError("normalize_gcn needs strictly positive degrees")
    scale = 1.0 / np.sqrt(degrees)
    out = _sparse_out(a.shape, rows, cols, values * scale[rows] * scale[cols])

    def backward(grad, accumulate):
        direct = grad * scale[rows] * scale[cols]
        d_rf = np.bincount(rows, weights=grad * values * scale[cols], minlength=n)
        d_cf = np.bincount(cols, weights=grad * values * scale[rows], minlength=n)
        g_deg = (d_rf + d_cf) * (-0.5 * scale ** 3)
        accumulate(a, (direct + g_deg[rows])[landed])

    record(out, (a,), backward)
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


def sparse_select_rows(s: SparseMatrix, row_indices) -> SparseMatrix:
    """Keep the rows listed in ``row_indices``, renumbered to that order.

    Each kept row is a contiguous slice of the canonical layout, so the
    result is canonical as gathered, with no sort.
    """
    row_indices = np.asarray(row_indices, dtype=np.int64).ravel()
    _position_map(row_indices, s.shape[0], "row")
    indptr = s.csr_index()[1]
    starts = indptr[row_indices]
    counts = indptr[row_indices + 1] - starts
    source = _ranges(starts, counts)
    rows = np.repeat(np.arange(row_indices.shape[0], dtype=np.int64), counts)
    return _take_entries(s, (row_indices.shape[0], s.shape[1]), source, rows, s.cols[source])


def sparse_submatrix(s: SparseMatrix, row_indices, col_indices) -> SparseMatrix:
    """Entries with row in ``row_indices`` and column in ``col_indices``, renumbered."""
    row_indices = np.asarray(row_indices, dtype=np.int64).ravel()
    col_indices = np.asarray(col_indices, dtype=np.int64).ravel()
    new_rows = _position_map(row_indices, s.shape[0], "row")[s.rows]
    new_cols = _position_map(col_indices, s.shape[1], "column")[s.cols]
    keep = np.flatnonzero((new_rows >= 0) & (new_cols >= 0))
    rows, cols = new_rows[keep], new_cols[keep]
    order = np.lexsort((cols, rows))
    return _take_entries(s, (row_indices.shape[0], col_indices.shape[0]), keep[order], rows[order], cols[order])


# np.add.reduceat adds a segment's first row to numpy's pairwise sum of the
# others (``pairwise_sum`` in numpy/_core/src/umath/loops_utils.h.src). That
# sum adds fewer than eight numbers left to right. Up to 128 numbers it runs
# eight accumulators, accumulator j adding numbers j, j + 8, ... of the full
# blocks of eight, combines them as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) +
# (r6 + r7)) and adds the remaining numbers left to right. Beyond 128 it
# splits the numbers in two and recurses.
_UNROLL = 8
_PAIRWISE_BLOCK = 128
_NEGATIVE_ZERO_BITS = np.float64(-0.0).view(np.int64)


class ClusterLayout:
    """The (cluster, member) pairs of one pooling level, indexed for the cluster ops.

    ``pattern`` is square; its row ``c`` lists the members of the cluster
    centred on node ``c`` in ascending order, and no row is empty. Pair ``k``
    is ``(cluster_ids[k], member_ids[k])`` in the pattern's row-major order.
    Built once per level and read by :func:`cluster_sum`, the layout holds:

    * the pattern's CSR index (``index``), each cluster's first pair
      (``starts``) and member count (``counts``);
    * the accumulator rows (``rest_pairs`` and their CSR index
      ``rest_index``, ``n + 8 * len(wide)`` rows): row ``c`` holds every pair
      but the first of a cluster of up to eight members, and row
      ``n + 8 * i + j`` holds pairs ``j, j + 8, ...`` of the full blocks of
      eight after the first pair of the ``i``-th wide cluster;
    * the wide clusters, of 9 to 129 members (``wide``), and the pairs of
      each after its last full block (``tail_pairs``, ``tail_index``);
    * the clusters of more than 129 members (``exact``), which
      :func:`cluster_sum` leaves to ``np.add.reduceat``.

    M2T needs no per-cluster maximum: the attention query's term cancels in
    the per-cluster softmax, so M2T runs with the medoid query.
    """

    __slots__ = (
        "index", "n", "cluster_ids", "member_ids", "starts", "counts", "rest_pairs", "rest_index", "wide",
        "tail_pairs", "tail_index", "exact",
    )

    def __init__(self, pattern: SparseMatrix):
        n = pattern.shape[0]
        if pattern.shape[1] != n:
            raise ShapeError("a cluster layout needs a square pattern")
        self.index = indices, indptr = pattern.csr_index()
        counts = np.diff(indptr)
        if np.any(counts == 0):
            raise EngineError("every cluster needs at least one member")
        self.n, self.counts = n, counts
        self.cluster_ids, self.member_ids = pattern.rows, pattern.cols
        self.starts = starts = indptr[:-1]
        rest = counts - 1
        narrow_lengths = np.where(rest < _UNROLL, rest, 0)
        self.wide = wide = np.flatnonzero((rest >= _UNROLL) & (rest <= _PAIRWISE_BLOCK))
        self.exact = np.flatnonzero(rest > _PAIRWISE_BLOCK)
        wide_rest = rest[wide]
        full = wide_rest - wide_rest % _UNROLL
        block_lengths = np.repeat(full // _UNROLL, _UNROLL)
        block_firsts = (starts[wide, None] + 1 + np.arange(_UNROLL)).ravel()
        self.rest_pairs = np.concatenate(
            (_ranges(starts + 1, narrow_lengths), _ranges(block_firsts, block_lengths, _UNROLL))
        )
        self.rest_index = (indices[self.rest_pairs], _indptr(np.concatenate((narrow_lengths, block_lengths))))
        self.tail_pairs = _ranges(starts[wide] + 1 + full, wide_rest - full)
        self.tail_index = (indices[self.tail_pairs], _indptr(wide_rest - full))


def cluster_sum(layout: ClusterLayout, weights: Tensor, x: Tensor) -> Tensor:
    """Cluster features ``X^c = Sᵀ X``: row ``c`` sums ``weights[k] * x[member_ids[k]]`` over cluster ``c``'s pairs.

    Rounding contract: the result equals
    ``np.add.reduceat(weights * x[member_ids], starts, axis=0)`` bit for bit,
    signed zeros included. Fitness of automorphic nodes ties exactly only
    because the cluster features round like the dense reference, and
    selection breaks exact ties by index; any other summation order (a plain
    ``spmm``, say) moves fitness by ~1e-16 and reorders the survivors.

    reduceat adds a cluster's first product to numpy's pairwise sum of the
    others, and scipy's compiled CSR product repeats that order here. One
    ``csr_matvecs`` call sums the rest of each cluster of up to eight members
    left to right, and each wide cluster's eight accumulators. Their
    combination, in numpy's order, then takes the wide cluster's tail in a
    second ``csr_matvecs`` call that accumulates into it. The compiled sums
    start from +0.0 where numpy's start from the first number, so they differ
    only where every product of a cluster column is -0.0; such clusters, and
    those of more than 129 members, go through reduceat on their own pairs.

    Backward: ``dX = S G`` is one CSR product and the weight gradient is
    ``G Xᵀ`` sampled on the pairs; neither forms a pairs x d tape node.
    """
    n = layout.n
    data = x.data
    if data.shape[0] != n:
        raise ShapeError(f"cluster_sum needs {n} feature rows, got {data.shape[0]}")
    if weights.data.shape != (layout.member_ids.shape[0], 1):
        raise ShapeError(f"weights must be {layout.member_ids.shape[0]}x1, got {weights.data.shape}")
    w = weights.data[:, 0]
    members, starts, wide = layout.member_ids, layout.starts, layout.wide
    firsts = np.take(data, members[starts], axis=0)
    firsts *= w[starts, None]
    rest_indices, rest_indptr = layout.rest_index
    rests = _compressed_times_dense(
        _sparsetools.csr_matvecs, (rest_indptr.shape[0] - 1, n), rest_indptr, rest_indices, w[layout.rest_pairs], data
    )
    if wide.size:
        r = rests[n:].reshape(wide.shape[0], _UNROLL, data.shape[1]).transpose(1, 0, 2)
        blocks = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        tail_indices, tail_indptr = layout.tail_index
        _compressed_times_dense(
            _sparsetools.csr_matvecs, (wide.shape[0], n), tail_indptr, tail_indices, w[layout.tail_pairs], data,
            out=blocks,
        )
        rests[wide] = blocks
    exact = layout.exact
    negative_zero = firsts.view(np.int64) == _NEGATIVE_ZERO_BITS
    if negative_zero.any():
        exact = np.union1d(exact, np.flatnonzero(negative_zero.any(axis=1)))
    sums = firsts
    sums += rests[:n]
    if exact.size:
        counts = layout.counts[exact]
        pairs = _ranges(starts[exact], counts)
        sums[exact] = np.add.reduceat(w[pairs, None] * data[members[pairs]], np.cumsum(counts) - counts, axis=0)
    out = ops._out(sums)

    def backward(grad, accumulate):
        if x.requires_grad:
            # S^T's CSR arrays read as CSC are S itself.
            indices, indptr = layout.index
            accumulate(x, _compressed_times_dense(_sparsetools.csc_matvecs, (n, n), indptr, indices, w, grad))
        if weights.requires_grad:
            accumulate(weights, _sampled_dot(grad, layout.cluster_ids, data, members)[:, None])

    record(out, (weights, x), backward)
    return out
