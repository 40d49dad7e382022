"""Dense 2-D tensors and the gradient tape.

Everything in the engine is float64 and strictly two-dimensional: scalars are
1x1, column vectors are nx1. Operations (see the ``ops`` and ``sparse``
modules) execute eagerly and, when a :class:`Tape` is active on the current
thread and an operand is tracked, register a backward closure.
``Tape.backward`` walks the recorded closures in reverse and returns the
gradient of the loss for every tracked leaf.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "EngineError",
    "ShapeError",
    "TapeError",
    "Tensor",
    "Tape",
    "active_tape",
    "record",
]


class EngineError(ValueError):
    """Base class for engine failures."""


class ShapeError(EngineError):
    """Operands with incompatible or non-2-D shapes."""


class TapeError(EngineError):
    """Tape misuse: nested tapes, double backward, non-scalar loss."""


_THREAD = threading.local()


def active_tape():
    """Return the tape currently recording on this thread, or ``None``."""
    return getattr(_THREAD, "tape", None)


class Tensor:
    """A ``rows x cols`` float64 matrix, optionally tracked for gradients.

    ``data`` is the backing numpy array. ``grad`` is populated (with an array
    of the same shape) for leaves after ``Tape.backward``.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        elif arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D, got ndim={arr.ndim}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class Tape:
    """Records executed operations and replays them in reverse for gradients.

    Use as a context manager around the forward computation; one tape may be
    active per thread at a time, and :meth:`backward` may run once, after the
    ``with`` block has exited.
    """

    def __init__(self):
        self._nodes: list[tuple[object, object]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        if active_tape() is not None:
            raise TapeError("a tape is already active on this thread")
        if self._consumed:
            raise TapeError("this tape has already been consumed by backward()")
        _THREAD.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _THREAD.tape = None
        return False

    def backward(self, loss: Tensor) -> dict:
        """Accumulate ``d loss / d leaf`` for every tracked leaf.

        Returns a mapping from leaf object (Tensor or SparseMatrix) to its
        gradient array; each leaf also receives the array on ``.grad``. The
        tape is cleared afterwards and cannot be reused.
        """
        if active_tape() is self:
            raise TapeError("backward() must run outside the recording context")
        if self._consumed:
            raise TapeError("backward() on a cleared tape")
        if not isinstance(loss, Tensor) or loss.data.shape != (1, 1):
            raise TapeError("loss must be a 1x1 tensor")
        self._consumed = True

        produced = {id(out) for out, _ in self._nodes}
        grads: dict[int, np.ndarray] = {}
        objs: dict[int, object] = {}

        def accumulate(operand, contribution):
            if not operand.requires_grad:
                return
            key = id(operand)
            cur = grads.get(key)
            grads[key] = contribution if cur is None else cur + contribution
            objs[key] = operand

        accumulate(loss, np.ones((1, 1)))
        for out, backward in reversed(self._nodes):
            grad_out = grads.pop(id(out), None)
            if grad_out is None:
                continue
            backward(grad_out, accumulate)
        self._nodes.clear()

        leaf_grads = {}
        for key, grad in grads.items():
            if key not in produced:
                leaf = objs[key]
                leaf.grad = grad
                leaf_grads[leaf] = grad
        return leaf_grads


def record(output, inputs, backward) -> None:
    """Register ``backward`` on the active tape if any input is tracked.

    ``backward(grad_out, accumulate)`` receives the output gradient and a
    callback ``accumulate(operand, contribution)``; it must route a
    contribution to every operand it wants credited. Outside a tape, or with
    no tracked inputs, this is a no-op and the output stays untracked.
    """
    tape = active_tape()
    if tape is None:
        return
    if any(op.requires_grad for op in inputs):
        output.requires_grad = True
        tape._nodes.append((output, backward))
