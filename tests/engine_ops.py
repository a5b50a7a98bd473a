"""Autodiff ops that only the tests compose: the rank-2 matrix product,
tanh, sigmoid, axis permutation and summation. The reference GRU in
``gru_oracle`` and the engine's own tests build on them; the package's
layers do this work in fused tape ops instead."""

import numpy as np

from stemsep.errors import ShapeError
from stemsep.tensor import (Tensor, _expand_reduced, _normalize_axes, _unary, accumulate_grad,
                            astensor, record_op)


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
