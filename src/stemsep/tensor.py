"""Dense tensors with reverse-mode automatic differentiation.

Values are plain numpy arrays in float64 for verification work
(finite-difference gradient checks are unreliable in single precision)
or float32 for training. Precision is per-thread engine state, like the
tape and the grad flag: float64 until ``using_dtype`` selects another
for a block, and read only where a tensor is made from a value without a
float dtype of its own (``Tensor(...)`` and ``astensor``). Everything
after that follows the dtype of its operands, so a model keeps the
precision it was built in whichever thread runs it. Every operation
executed while gradients are enabled appends its backward rule to the
thread's tape; ``backward`` replays the tape in reverse order and
accumulates gradients into each tensor that requires them. A rule that
makes a fresh gradient array (``leaky_relu``, the training loss) hands it
over with ``hand_over_grad``: it becomes the input's gradient without a
copy when the input has none yet, and is added to it otherwise.

The engine holds only the ops the package runs; its one binary op,
``add``, sums two tensors of one shape.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "using_dtype",
    "no_grad",
    "grad_enabled",
    "current_tape",
    "record_op",
    "accumulate_grad",
    "hand_over_grad",
    "astensor",
    "add",
    "leaky_relu",
    "reduce_mean",
    "reshape",
    "concat",
    "stack",
    "backward",
    "gradient_check",
]

_VALID_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tape:
    """Ordered record of executed operations and their backward rules.

    Operations are appended in execution order, so inputs always precede
    the operations that consume them; replaying the rules in reverse
    yields gradients by the chain rule.
    """

    __slots__ = ("ops",)

    def __init__(self):
        self.ops: list[_TapeOp] = []

    def __len__(self) -> int:
        return len(self.ops)

    def clear(self) -> None:
        self.ops.clear()


class _TapeOp:
    __slots__ = ("out", "inputs", "backward")

    def __init__(self, out, inputs, backward):
        self.out = out
        self.inputs = inputs
        self.backward = backward


_local = threading.local()


def _ctx():
    if not hasattr(_local, "tape"):
        _local.tape = Tape()
        _local.grad_enabled = True
        _local.dtype = np.dtype(np.float64)
    return _local


def grad_enabled() -> bool:
    """Whether operations on the calling thread record to its tape."""
    return _ctx().grad_enabled


def current_tape() -> Tape:
    """The tape recording operations on the calling thread."""
    return _ctx().tape


@contextmanager
def using_dtype(dtype):
    """Make tensors in ``dtype`` (float32 or float64) on the calling thread
    for the duration of the block."""
    dt = np.dtype(dtype)
    if dt not in _VALID_DTYPES:
        raise ValueError(f"unsupported dtype {dt}; expected float32 or float64")
    ctx = _ctx()
    previous = ctx.dtype
    ctx.dtype = dt
    try:
        yield
    finally:
        ctx.dtype = previous


@contextmanager
def no_grad():
    """Disable tape recording (inference / numeric probing)."""
    ctx = _ctx()
    previous = ctx.grad_enabled
    ctx.grad_enabled = False
    try:
        yield
    finally:
        ctx.grad_enabled = previous


class Tensor:
    """A dense real-valued array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        dt = np.dtype(dtype) if dtype is not None else _ctx().dtype
        if dt not in _VALID_DTYPES:
            raise ValueError(f"unsupported dtype {dt}")
        self.data = np.asarray(data, dtype=dt)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @classmethod
    def _wrap(cls, data: np.ndarray) -> "Tensor":
        # Internal: wrap an op result without recasting its dtype.
        t = cls.__new__(cls)
        t.data = data
        t.grad = None
        t.requires_grad = False
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def zero_grad(self) -> None:
        """Drop the gradient buffer; the next backward starts fresh."""
        self.grad = None

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def astensor(x, like: Tensor | None = None) -> Tensor:
    """Wrap arrays and scalars as constant tensors; pass tensors through.

    Float arrays keep their own dtype unless ``like`` asks otherwise;
    scalars and lists adopt ``like``'s dtype or the thread's precision.
    """
    if isinstance(x, Tensor):
        return x
    if like is None and isinstance(x, np.ndarray) and x.dtype in _VALID_DTYPES:
        return Tensor._wrap(x)
    dtype = like.data.dtype if like is not None else _ctx().dtype
    return Tensor._wrap(np.asarray(x, dtype=dtype))


def record_op(out: Tensor, inputs: Sequence[Tensor], backward_rule: Callable[[np.ndarray], None]) -> Tensor:
    """Register ``out`` on the current tape if any input needs gradients.

    ``backward_rule`` receives the upstream gradient of ``out`` and must
    push contributions into the inputs via ``accumulate_grad``, or
    ``hand_over_grad`` for an array it has just made. This is
    the extension point used by the layer library for fused operations
    (convolutions, normalization) that bypass the elementwise ops.
    """
    ctx = _ctx()
    if ctx.grad_enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        ctx.tape.ops.append(_TapeOp(out, tuple(inputs), backward_rule))
    return out


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    """Add a gradient contribution into ``t`` (no-op unless it requires grad)."""
    if not t.requires_grad:
        return
    if g.shape != t.data.shape:
        raise ShapeError(f"gradient shape {g.shape} does not match tensor shape {t.data.shape}")
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def hand_over_grad(t: Tensor, g: np.ndarray) -> None:
    """``accumulate_grad`` for a fresh array that nothing else holds: when
    ``t`` has no gradient yet, ``g`` becomes it without a copy."""
    if t.requires_grad and t.grad is None and g.dtype == t.data.dtype and g.shape == t.data.shape:
        t.grad = g
    else:
        accumulate_grad(t, g)


# ---------------------------------------------------------------------------
# Elementwise operations


def add(a: Tensor, b: Tensor) -> Tensor:
    """Sum of two tensors of one shape: a skip merge, a residual total."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} differ")
    out = Tensor._wrap(a.data + b.data)

    def backward_rule(g):
        accumulate_grad(a, g)
        accumulate_grad(b, g)

    return record_op(out, (a, b), backward_rule)


def _leaky(a: np.ndarray, mask: np.ndarray, slope: float) -> np.ndarray:
    # ``np.where(mask, a, a * slope)`` with one fresh array and no temporary.
    res = np.multiply(a, slope, out=np.empty_like(a))
    np.copyto(res, a, where=mask)
    return res


def leaky_relu(x, slope: float = 0.01) -> Tensor:
    x = astensor(x)
    out = Tensor._wrap(_leaky(x.data, x.data >= 0, slope))

    def backward_rule(g):
        hand_over_grad(x, _leaky(g, x.data >= 0, slope))

    return record_op(out, (x,), backward_rule)


# ---------------------------------------------------------------------------
# Reductions


def _normalize_axes(axes, ndim: int) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    normalized = []
    for ax in axes:
        if not -ndim <= ax < ndim:
            raise ShapeError(f"axis {ax} out of range for rank-{ndim} tensor")
        normalized.append(ax % ndim)
    if len(set(normalized)) != len(normalized):
        raise ShapeError(f"duplicate axes in {axes}")
    return tuple(sorted(normalized))


def _expand_reduced(g: np.ndarray, shape: tuple, axes: tuple) -> np.ndarray:
    keep = list(shape)
    for ax in axes:
        keep[ax] = 1
    return np.broadcast_to(g.reshape(keep), shape)


def reduce_mean(x, axes=None) -> Tensor:
    x = astensor(x)
    ax = _normalize_axes(axes, x.data.ndim)
    count = 1
    for a in ax:
        count *= x.data.shape[a]
    out = Tensor._wrap(x.data.mean(axis=ax))

    def backward_rule(g):
        accumulate_grad(x, _expand_reduced(g / count, x.data.shape, ax))

    return record_op(out, (x,), backward_rule)


# ---------------------------------------------------------------------------
# Shape manipulation


def reshape(x, shape) -> Tensor:
    x = astensor(x)
    out = Tensor._wrap(x.data.reshape(shape))

    def backward_rule(g):
        accumulate_grad(x, g.reshape(x.data.shape))

    return record_op(out, (x,), backward_rule)


def concat(tensors, axis: int = 0) -> Tensor:
    parts = [astensor(t) for t in tensors]
    if not parts:
        raise ShapeError("concat of an empty sequence")
    axis = axis % parts[0].data.ndim
    out = Tensor._wrap(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.data.shape[axis] for p in parts]

    def backward_rule(g):
        offset = 0
        for p, n in zip(parts, sizes):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(offset, offset + n)
                # Copy: ascontiguousarray would return an axis-0 slice of g as a view.
                hand_over_grad(p, np.array(g[tuple(idx)], order="C"))
            offset += n

    return record_op(out, tuple(parts), backward_rule)


def stack(tensors, axis: int = 0) -> Tensor:
    parts = [astensor(t) for t in tensors]
    if not parts:
        raise ShapeError("stack of an empty sequence")
    out = Tensor._wrap(np.stack([p.data for p in parts], axis=axis))

    def backward_rule(g):
        for i, p in enumerate(parts):
            # np.take copies; do not wrap in ascontiguousarray, which would
            # promote 0-d slices of scalar stacks to shape (1,).
            accumulate_grad(p, np.take(g, i, axis=axis))

    return record_op(out, tuple(parts), backward_rule)


# ---------------------------------------------------------------------------
# Backward pass and verification


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar loss into every tensor on its tape.

    The tape is consumed: a second backward needs a fresh forward pass.
    """
    if not isinstance(loss, Tensor):
        raise TypeError(f"backward expects a Tensor, got {type(loss).__name__}")
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    tape = _ctx().tape
    if not tape.ops:
        raise RuntimeError("backward on an empty tape")
    if not any(op.out is loss for op in tape.ops):
        raise RuntimeError("loss is not an output recorded on the current tape")
    loss.grad = np.ones_like(loss.data)
    try:
        for op in reversed(tape.ops):
            g = op.out.grad
            if g is not None:
                op.backward(g)
    finally:
        tape.ops.clear()


def gradient_check(f, x: Tensor, eps: float = 1e-5, max_coords: int | None = None, rng=None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be a deterministic function producing a scalar Tensor. It
    is re-evaluated with ``x.data`` perturbed in place, so closures that
    read ``x`` through captured references (e.g. model parameters) work
    as well as functions of the argument itself. Requires float64 data.
    """
    if x.data.dtype != np.float64:
        raise ValueError("gradient_check requires float64 tensors; make them under using_dtype(np.float64)")
    ctx = _ctx()
    previous_flag, previous_grad = x.requires_grad, ctx.grad_enabled
    x.requires_grad = True
    x.grad = None
    ctx.grad_enabled = True  # record even inside a ``no_grad`` region
    try:
        loss = f(x)
        if loss.data.size != 1:
            raise ShapeError(f"gradient_check needs a scalar-valued function, got {loss.data.shape}")
        if not np.isfinite(loss.data).all():
            raise FloatingPointError("non-finite loss in gradient_check")
        backward(loss)
        analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

        flat = x.data.reshape(-1)
        n = flat.size
        if max_coords is not None and max_coords < n:
            rng = rng or np.random.default_rng(0)
            indices = np.sort(rng.choice(n, size=max_coords, replace=False))
        else:
            indices = np.arange(n)

        worst = 0.0
        analytic_flat = analytic.reshape(-1)
        with no_grad():
            for i in indices:
                original = flat[i]
                flat[i] = original + eps
                f_plus = float(f(x).data.reshape(-1)[0])
                flat[i] = original - eps
                f_minus = float(f(x).data.reshape(-1)[0])
                flat[i] = original
                if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                    raise FloatingPointError("non-finite values encountered in finite differences")
                numeric = (f_plus - f_minus) / (2.0 * eps)
                rel = abs(analytic_flat[i] - numeric) / max(abs(numeric), 1e-8)
                worst = max(worst, rel)
        return worst
    finally:
        x.requires_grad = previous_flag
        ctx.grad_enabled = previous_grad
