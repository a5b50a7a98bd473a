"""Reference GRU composed from core tensor ops: about a dozen tape ops per
frame, with backpropagation through time left to the tape. It is the
oracle for the fused ``stemsep.layers.GRU`` and reads that layer's
parameters, so both run the same weights."""

import numpy as np
from engine_ops import matmul, sigmoid, tanh, transpose

from stemsep.errors import ShapeError
from stemsep.tensor import add, astensor, mul, reshape, slice_axis, stack, sub


def composed_gru(gru, x):
    """Forward ``x`` ((B, C, T)) through ``gru``'s parameters from a zero state."""
    x = astensor(x)
    b, c, t = x.data.shape
    if c != gru.input_size:
        raise ShapeError(f"gru: input has {c} channels, expected {gru.input_size}")
    hsize = gru.hidden_size

    flat = reshape(transpose(x, (0, 2, 1)), (b * t, c))
    proj = {}
    for gate in gru.GATES:
        p = add(matmul(flat, transpose(gru.w[gate])), gru.b[gate])
        proj[gate] = reshape(p, (b, t, hsize))
    u_t = {gate: transpose(gru.u[gate]) for gate in gru.GATES}

    h = astensor(np.zeros((b, hsize), dtype=x.data.dtype))

    steps = []
    for i in range(t):
        xg = {gate: reshape(slice_axis(proj[gate], 1, i, i + 1), (b, hsize))
              for gate in gru.GATES}
        z = sigmoid(add(xg["z"], matmul(h, u_t["z"])))
        r = sigmoid(add(xg["r"], matmul(h, u_t["r"])))
        hcand = tanh(add(xg["h"], matmul(mul(r, h), u_t["h"])))
        h = add(mul(sub(1.0, z), h), mul(z, hcand))
        steps.append(h)

    return transpose(stack(steps, axis=1), (0, 2, 1))
