"""Dense differentiable operations.

Every function takes and returns :class:`~asap_pool.engine.tensor.Tensor`
objects, computes eagerly with numpy, and registers a backward closure on the
active tape. Broadcasting is deliberately restricted: elementwise binary ops
require equal shapes, except ``hadamard`` which also accepts a column vector
(first) against a matrix with the same number of rows (a per-row scale).

Segment operations act on rows grouped by a sorted ``segment_ids`` vector
(row i belongs to segment ``segment_ids[i]``); segments index contiguous row
ranges, which is how per-cluster and per-graph reductions are expressed.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .tensor import EngineError, ShapeError, Tensor, record

__all__ = [
    "DEBUG_CHECKS",
    "matmul",
    "add",
    "sub",
    "hadamard",
    "relu",
    "leaky_relu",
    "sigmoid",
    "rsqrt",
    "reduce_sum",
    "gather_rows",
    "concat_cols",
    "segment_reduce",
    "segment_softmax",
    "scatter_add_rows",
]

# When true, every op asserts its output is finite; enabled by the test suite.
DEBUG_CHECKS = False


def _out(arr: np.ndarray) -> Tensor:
    if DEBUG_CHECKS and not np.all(np.isfinite(arr)):
        raise EngineError("non-finite values produced by an operation")
    return Tensor(arr)


def _as_tensor(x) -> Tensor:
    if not isinstance(x, Tensor):
        raise TypeError(f"expected Tensor, got {type(x).__name__}")
    return x


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product ``a @ b``."""
    _as_tensor(a), _as_tensor(b)
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    out = _out(a.data @ b.data)

    def backward(grad, accumulate):
        accumulate(a, grad @ b.data.T)
        accumulate(b, a.data.T @ grad)

    record(out, (a, b), backward)
    return out


def _require_same_shape(a: Tensor, b: Tensor, name: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{name} needs equal shapes, got {a.data.shape} and {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two equal-shape tensors."""
    _require_same_shape(a, b, "add")
    out = _out(a.data + b.data)

    def backward(grad, accumulate):
        accumulate(a, grad)
        accumulate(b, grad)

    record(out, (a, b), backward)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise difference ``a - b`` of two equal-shape tensors."""
    _require_same_shape(a, b, "sub")
    out = _out(a.data - b.data)

    def backward(grad, accumulate):
        accumulate(a, grad)
        accumulate(b, -grad)

    record(out, (a, b), backward)
    return out


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; ``a`` may instead be a column vector scaling ``b``'s rows."""
    ashape, bshape = a.data.shape, b.data.shape
    row_scale = ashape[0] == bshape[0] and ashape[1] == 1 and bshape[1] != 1
    if not (ashape == bshape or row_scale):
        raise ShapeError(f"hadamard cannot broadcast {ashape} with {bshape}")
    out = _out(a.data * b.data)

    def backward(grad, accumulate):
        ga = grad * b.data
        accumulate(a, ga.sum(axis=1, keepdims=True) if row_scale else ga)
        accumulate(b, grad * a.data)

    record(out, (a, b), backward)
    return out


def relu(x: Tensor) -> Tensor:
    """Elementwise ``max(x, 0)``."""
    out = _out(np.maximum(x.data, 0.0))

    def backward(grad, accumulate):
        accumulate(x, grad * (x.data > 0.0))

    record(out, (x,), backward)
    return out


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    """Elementwise ``x if x > 0 else slope * x``."""
    slope = float(negative_slope)
    out = _out(np.where(x.data > 0.0, x.data, slope * x.data))

    def backward(grad, accumulate):
        accumulate(x, grad * np.where(x.data > 0.0, 1.0, slope))

    record(out, (x,), backward)
    return out


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic function ``1 / (1 + exp(-x))``."""
    y = expit(x.data)
    out = _out(y)

    def backward(grad, accumulate):
        accumulate(x, grad * y * (1.0 - y))

    record(out, (x,), backward)
    return out


def rsqrt(x: Tensor) -> Tensor:
    """Elementwise ``x ** -0.5`` (entries must be positive)."""
    if np.any(x.data <= 0.0):
        raise EngineError("rsqrt needs strictly positive entries")
    y = 1.0 / np.sqrt(x.data)
    out = _out(y)

    def backward(grad, accumulate):
        accumulate(x, grad * (-0.5 * y ** 3))

    record(out, (x,), backward)
    return out


def reduce_sum(x: Tensor) -> Tensor:
    """Sum all entries into a 1x1 tensor."""
    out = _out(np.array([[x.data.sum()]]))

    def backward(grad, accumulate):
        accumulate(x, np.full_like(x.data, grad[0, 0]))

    record(out, (x,), backward)
    return out


def scatter_add_rows(n_rows: int, indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Sum ``rows[k]`` into an ``n_rows``-row zero matrix at row ``indices[k]``.

    Plain-numpy helper (not taped); duplicate indices accumulate. One flat
    ``bincount`` over (row, column) slots does the whole scatter.
    """
    d = rows.shape[1]
    slots = (np.asarray(indices, dtype=np.int64).reshape(-1, 1) * d + np.arange(d)).ravel()
    summed = np.bincount(slots, weights=rows.ravel(), minlength=n_rows * d)
    return summed.reshape(n_rows, d)


def gather_rows(x: Tensor, indices) -> Tensor:
    """Select rows ``x[indices[k]]`` (duplicates allowed)."""
    idx = np.asarray(indices, dtype=np.int64).ravel()
    n = x.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"gather_rows index out of range for {n} rows")
    out = _out(x.data[idx])

    def backward(grad, accumulate):
        accumulate(x, scatter_add_rows(n, idx, grad))

    record(out, (x,), backward)
    return out


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    """Stack two tensors with equal row counts side by side."""
    if a.data.shape[0] != b.data.shape[0]:
        raise ShapeError("concat_cols needs equal row counts")
    ca = a.data.shape[1]
    out = _out(np.hstack((a.data, b.data)))

    def backward(grad, accumulate):
        accumulate(a, grad[:, :ca])
        accumulate(b, grad[:, ca:])

    record(out, (a, b), backward)
    return out


def _segment_layout(segment_ids, n_rows: int, n_segments: int | None):
    """Validate sorted segment ids and return (ids, n_segments, counts, starts)."""
    seg = np.asarray(segment_ids, dtype=np.int64).ravel()
    if seg.shape[0] != n_rows:
        raise ShapeError(f"segment ids cover {seg.shape[0]} rows, tensor has {n_rows}")
    if seg.size:
        if seg.min() < 0:
            raise EngineError("negative segment id")
        if np.any(np.diff(seg) < 0):
            raise EngineError("segment ids must be sorted non-decreasing")
    inferred = int(seg.max()) + 1 if seg.size else 0
    if n_segments is None:
        n_segments = inferred
    elif inferred > n_segments:
        raise EngineError(f"segment id {inferred - 1} outside {n_segments} segments")
    counts = np.bincount(seg, minlength=n_segments) if n_segments else np.zeros(0, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1])) if n_segments else np.zeros(0, dtype=np.int64)
    return seg, n_segments, counts, starts


def segment_reduce(kind: str, x: Tensor, segment_ids, n_segments: int | None = None) -> Tensor:
    """Per-segment ``sum``/``mean``/``max`` over rows of ``x``.

    Returns one row per segment. ``sum`` tolerates empty segments (zero rows);
    ``mean`` and ``max`` reject them. ``max`` routes its gradient to the
    lowest row index among tied maxima, which keeps it deterministic; that
    tie-break is found in backward, so the forward pass only takes maxima.
    """
    if kind not in ("sum", "mean", "max"):
        raise ValueError(f"unknown segment_reduce kind {kind!r}")
    seg, n_segments, counts, starts = _segment_layout(segment_ids, x.data.shape[0], n_segments)
    data = x.data
    n, d = data.shape

    if kind == "max":
        if np.any(counts == 0):
            raise EngineError("segment_reduce max over an empty segment")
        # Running max into flat (segment, column) slots: exact, so it equals
        # a per-segment reduce bit for bit.
        maxes = np.full(n_segments * d, -np.inf)
        np.maximum.at(maxes, (seg[:, None] * d + np.arange(d)).ravel(), data.ravel())
        maxes = maxes.reshape(n_segments, d)
        out = _out(maxes)

        def backward(grad, accumulate):
            # Route each slot's gradient to its lowest-index maximal row: for
            # a fixed column, flat positions in ``data`` order rows.
            hits = np.flatnonzero(data == maxes[seg])
            first = np.full(n_segments * d, n * d)
            np.minimum.at(first, seg[hits // d] * d + hits % d, hits)
            buf = np.zeros(n * d)
            buf[first] = grad.ravel()
            accumulate(x, buf.reshape(n, d))

        record(out, (x,), backward)
        return out

    if kind == "mean" and np.any(counts == 0):
        raise EngineError("segment_reduce mean over an empty segment")

    if np.any(counts == 0):
        sums = np.zeros((n_segments, d))
        nonempty = counts > 0
        if np.any(nonempty):
            sums[nonempty] = np.add.reduceat(data, starts[nonempty], axis=0)
    else:
        sums = np.add.reduceat(data, starts, axis=0) if n_segments else np.zeros((0, d))

    if kind == "sum":
        out = _out(sums)

        def backward(grad, accumulate):
            accumulate(x, grad[seg])

        record(out, (x,), backward)
        return out

    inv_counts = 1.0 / counts
    out = _out(sums * inv_counts[:, None])

    def backward(grad, accumulate):
        accumulate(x, (grad * inv_counts[:, None])[seg])

    record(out, (x,), backward)
    return out


def segment_softmax(scores: Tensor, segment_ids, n_segments: int | None = None) -> Tensor:
    """Softmax of a column of scores within each segment.

    Stabilized by subtracting the per-segment maximum; every segment must be
    non-empty. Output rows sum to one within each segment.
    """
    if scores.data.shape[1] != 1:
        raise ShapeError("segment_softmax expects an nx1 score column")
    seg, n_segments, counts, starts = _segment_layout(segment_ids, scores.data.shape[0], n_segments)
    if np.any(counts == 0):
        raise EngineError("segment_softmax over an empty segment")
    s = scores.data[:, 0]
    shifted = s - np.maximum.reduceat(s, starts)[seg] if seg.size else s
    weights = np.exp(shifted)
    totals = np.add.reduceat(weights, starts) if seg.size else weights
    alpha = (weights / totals[seg])[:, None]
    out = _out(alpha)

    def backward(grad, accumulate):
        weighted = alpha * grad
        seg_dot = np.add.reduceat(weighted[:, 0], starts)[seg][:, None]
        accumulate(scores, weighted - alpha * seg_dot)

    record(out, (scores,), backward)
    return out
