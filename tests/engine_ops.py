"""Autodiff ops that only the tests compose: broadcasting add, sub and
mul, the rank-2 matrix product, tanh, sigmoid, axis permutation, slicing
and summation. The reference GRU in ``gru_oracle``, the oracles and the
engine's own tests build on them; the package's layers do this work in
fused tape ops instead.

Broadcasting in binary operations is restricted to leading dimensions:
the smaller operand's shape must equal the trailing suffix of the larger
one (a scalar broadcasts against anything).

Also the former bodies of two engine paths, kept as oracles for their
replacements: the composite ``mse_loss`` chain, and ``leaky_relu`` on
``np.where`` with a copied gradient."""

import numpy as np

from stemsep.errors import ShapeError
from stemsep.tensor import (Tensor, _expand_reduced, _normalize_axes, accumulate_grad, astensor,
                            record_op, reduce_mean, reshape)


def _check_broadcast(sa: tuple, sb: tuple, opname: str) -> tuple:
    if sa == sb:
        return sa
    small, big = (sa, sb) if len(sa) <= len(sb) else (sb, sa)
    if len(small) == len(big) or (small and small != big[len(big) - len(small):]):
        raise ShapeError(f"{opname}: shapes {sa} and {sb} are not broadcast-compatible "
                         "(broadcasting over leading dimensions only)")
    return big


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    return g


def _binary(a, b, opname, fwd, bwd_a, bwd_b) -> Tensor:
    if not isinstance(a, Tensor) and isinstance(b, Tensor):
        a = astensor(a, like=b)
    a = astensor(a)
    b = astensor(b, like=a)
    _check_broadcast(a.data.shape, b.data.shape, opname)
    out = Tensor._wrap(fwd(a.data, b.data))

    def backward_rule(g):
        accumulate_grad(a, _unbroadcast(bwd_a(g, a.data, b.data), a.data.shape))
        accumulate_grad(b, _unbroadcast(bwd_b(g, a.data, b.data), b.data.shape))

    return record_op(out, (a, b), backward_rule)


def add(a, b) -> Tensor:
    return _binary(a, b, "add", lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, "sub", lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, "mul", lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x)


def slice_axis(x, axis: int, start: int, stop: int) -> Tensor:
    x = astensor(x)
    axis = axis % x.data.ndim
    extent = x.data.shape[axis]
    if not (0 <= start <= stop <= extent):
        raise ShapeError(f"slice [{start}:{stop}) out of range for axis {axis} of shape {x.data.shape}")
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = Tensor._wrap(x.data[idx])

    def backward_rule(g):
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[idx] += g

    return record_op(out, (x,), backward_rule)


def _unary(x, fwd, make_bwd) -> Tensor:
    x = astensor(x)
    out_data = fwd(x.data)
    out = Tensor._wrap(out_data)
    bwd = make_bwd(x.data, out_data)

    def backward_rule(g):
        accumulate_grad(x, bwd(g))

    return record_op(out, (x,), backward_rule)


def tanh(x) -> Tensor:
    return _unary(x, np.tanh, lambda xd, od: lambda g: g * (1.0 - od * od))


def _sigmoid_data(x: np.ndarray) -> np.ndarray:
    # Stable in both tails: never exponentiates a large positive value.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x) -> Tensor:
    return _unary(x, _sigmoid_data, lambda xd, od: lambda g: g * od * (1.0 - od))


def matmul(a, b) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    a = astensor(a)
    b = astensor(b, like=a)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul requires rank-2 operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")
    out = Tensor._wrap(a.data @ b.data)

    def backward_rule(g):
        accumulate_grad(a, g @ b.data.T)
        accumulate_grad(b, a.data.T @ g)

    return record_op(out, (a, b), backward_rule)


def reduce_sum(x, axes=None) -> Tensor:
    x = astensor(x)
    ax = _normalize_axes(axes, x.data.ndim)
    out = Tensor._wrap(x.data.sum(axis=ax))

    def backward_rule(g):
        accumulate_grad(x, _expand_reduced(g, x.data.shape, ax))

    return record_op(out, (x,), backward_rule)


def transpose(x, axes=None) -> Tensor:
    x = astensor(x)
    if axes is None:
        axes = tuple(reversed(range(x.data.ndim)))
    inverse = tuple(np.argsort(axes))
    out = Tensor._wrap(x.data.transpose(axes))

    def backward_rule(g):
        accumulate_grad(x, np.ascontiguousarray(g.transpose(inverse)))

    return record_op(out, (x,), backward_rule)


def mse_loss_chain(pred, target_mags) -> Tensor:
    """``training.mse_loss`` as four tape ops: reshape, sub, mul, reduce_mean."""
    pred = astensor(pred)
    target = np.asarray(target_mags, dtype=pred.data.dtype)
    if pred.data.size != target.size:
        raise ShapeError(f"prediction {pred.data.shape} does not match targets {target.shape}")
    if pred.data.shape != target.shape:
        pred = reshape(pred, target.shape)
    diff = sub(pred, astensor(np.log1p(target), like=pred))
    return reduce_mean(mul(diff, diff))


def leaky_relu_where(x, slope: float = 0.01) -> Tensor:
    return _unary(x, lambda xd: np.where(xd >= 0, xd, slope * xd),
                  lambda xd, od: lambda g: np.where(xd >= 0, g, g * slope))

