"""Layer vocabulary: 1-D (transposed) convolution along time, GRU,
weight/batch normalization, and parameter initialization.

Convolutions and the GRU are fused tape operations: each call records
one op whose hand-written backward rule does the work in BLAS matmuls.
Both convolutions share ``_gather_taps``, which stacks the K time-shifted
copies of a ``(B, C, T)`` input as ``(B, K*C, T_out)`` rows, and
``_scatter_taps``, its adjoint, which adds such rows back at their
shifts. A convolution is one GEMM over the gathered input taps per
batch item, landing directly in ``(C, T)`` layout. A transposed
convolution with stride s is s interleaved stride-1 convolutions of its
input, one per output phase (Dumoulin & Visin 2016), so it too gathers
only input taps and runs one GEMM per phase; no output-sized tap buffer
is ever built. The GRU's backward is backpropagation through time. Every
layer takes ``(B, C, T)`` only; the model lifts a single ``(C, T)`` input.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor, accumulate_grad, astensor, record_op

NORM_KINDS = ("weight_norm", "batch_norm")


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) float64 draws; ``Tensor``
    casts them to the thread's precision."""
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# Functional convolution ops


def _batched(x) -> Tensor:
    x = astensor(x)
    if x.data.ndim != 3:
        raise ShapeError(f"expected (B, C, T) input, got shape {x.data.shape}")
    return x


def _gather_taps(x: np.ndarray, kernel: int, stride: int, t_out: int) -> np.ndarray:
    """(B, C, T) -> (B, K*C, t_out); row k*C + c holds x[:, c, k + j*stride].

    The result keeps the memory order of ``x``: a time-major input (the
    transposed STFT features) gathers into a time-major buffer, which the
    GEMMs read as a transposed operand, so no copy ever walks across rows.
    """
    b, c, _ = x.shape
    if x.strides[2] > x.strides[1]:
        taps = np.empty((b, t_out, kernel * c), dtype=x.dtype).transpose(0, 2, 1)
    else:
        taps = np.empty((b, kernel * c, t_out), dtype=x.dtype)
    span = (t_out - 1) * stride + 1
    for k in range(kernel):
        taps[:, k * c:(k + 1) * c] = x[:, :, k:k + span:stride]
    return taps


def _scatter_taps(taps: np.ndarray, kernel: int, stride: int, t: int) -> np.ndarray:
    """Adjoint of ``_gather_taps``: (B, K*C, n) -> (B, C, t), adding the
    rows of tap k into every stride-th frame from frame k on."""
    b, kc, n = taps.shape
    c = kc // kernel
    out = np.zeros((b, c, t), dtype=taps.dtype)
    span = (n - 1) * stride + 1
    for k in range(kernel):
        out[:, :, k:k + span:stride] += taps[:, k * c:(k + 1) * c]
    return out


def _summed_gemm(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """sum_i lhs[i] (M, N) @ rhs[i].T (N, P), the weight-gradient product."""
    total = lhs[0] @ rhs[0].T
    for i in range(1, lhs.shape[0]):
        total += lhs[i] @ rhs[i].T
    return total


def conv1d(x, weight: Tensor, bias: Tensor, stride: int = 1, padding: tuple[int, int] = (0, 0)) -> Tensor:
    """Valid cross-correlation along time with optional zero padding.

    ``weight`` has shape (out_channels, in_channels, kernel); output time
    extent is floor((T + pad - K) / stride) + 1.
    """
    x = _batched(x)
    xb = x.data
    c_out, c_in, kernel = weight.data.shape
    if xb.shape[1] != c_in:
        raise ShapeError(f"conv1d: input has {xb.shape[1]} channels, weight expects {c_in}")
    pl, pr = padding
    padded = np.pad(xb, ((0, 0), (0, 0), (pl, pr))) if (pl or pr) else xb
    if padded.shape[2] < kernel:
        raise ShapeError(f"conv1d: time extent {padded.shape[2]} shorter than kernel {kernel}")

    t_pad = padded.shape[2]
    t_out = (t_pad - kernel) // stride + 1
    cols = _gather_taps(padded, kernel, stride, t_out)                    # (B, K*C_in, T_out)
    w2 = weight.data.transpose(0, 2, 1).reshape(c_out, kernel * c_in)    # (C_out, K*C_in)
    out_data = w2 @ cols
    out_data += bias.data[:, None]
    out = Tensor._wrap(out_data)

    def backward_rule(g):
        dw = _summed_gemm(g, cols).reshape(c_out, kernel, c_in).transpose(0, 2, 1)
        accumulate_grad(weight, np.ascontiguousarray(dw))
        accumulate_grad(bias, g.sum(axis=(0, 2)))
        if x.requires_grad:
            dpad = _scatter_taps(w2.T @ g, kernel, stride, t_pad)
            accumulate_grad(x, dpad[:, :, pl:t_pad - pr] if (pl or pr) else dpad)

    return record_op(out, (x, weight, bias), backward_rule)


def conv_transpose1d(x, weight: Tensor, bias: Tensor, stride: int = 1,
                     length: int | None = None) -> Tensor:
    """Gradient-of-convolution semantics: output time = (T - 1) * stride + K,
    with overlapping contributions summed; ``length`` keeps the first frames.

    Output phase p (frames p, p + stride, ...) sees only taps p, p + stride,
    ..., so it is a stride-1 convolution of the input with those Q_p taps
    reversed: one GEMM over the last Q_p blocks of the input's
    Q = ceil(K / stride) stride-1 taps (padded by Q - 1 frames), whose
    frames below ``length`` go into ``out[:, :, p::stride]``. Phases p >= K
    hold only the bias. The backward splits the same way, with a zero
    gradient past ``length``, and sums the phases' input-side products into
    one tap buffer for ``_scatter_taps``. The GEMMs keep their full width,
    so the kept frames, dx and dW equal the full op's bit for bit.
    """
    x = _batched(x)
    xb = x.data
    c_out, c_in, kernel = weight.data.shape
    if xb.shape[1] != c_in:
        raise ShapeError(f"conv_transpose1d: input has {xb.shape[1]} channels, weight expects {c_in}")
    b, _, t = xb.shape
    t_out = (t - 1) * stride + kernel
    if length is not None and not 1 <= length <= t_out:
        raise ShapeError(f"conv_transpose1d: length {length} outside 1..{t_out}")
    t_out = t_out if length is None else length
    q = -(-kernel // stride)
    pad = q - 1
    padded = np.pad(xb, ((0, 0), (0, 0), (pad, pad))) if pad else xb
    cols = _gather_taps(padded, q, 1, t + pad)                          # (B, Q*C_in, T+Q-1)

    # phases[p] = (first tap row of cols, frame count, frames kept, W_p (C_out, Q_p*C_in))
    phases = []
    for p in range(min(stride, kernel)):
        taps = weight.data[:, :, p::stride][:, :, ::-1]                  # (C_out, C_in, Q_p)
        q_p = taps.shape[2]
        phases.append(((q - q_p) * c_in, t + q_p - 1, len(range(p, t_out, stride)),
                       taps.transpose(0, 2, 1).reshape(c_out, q_p * c_in)))

    out_data = np.empty((b, c_out, t_out), dtype=np.result_type(xb, weight.data))
    bias_col = bias.data[:, None]
    for p, (row, frames, kept, w_p) in enumerate(phases):
        np.add((w_p @ cols[:, row:, :frames])[:, :, :kept], bias_col,
               out=out_data[:, :, p::stride])
    for p in range(kernel, stride):
        out_data[:, :, p::stride] = bias_col
    out = Tensor._wrap(out_data)

    def backward_rule(g):
        dw = np.empty_like(weight.data)
        dcols = np.zeros_like(cols) if x.requires_grad else None
        for p, (row, frames, kept, w_p) in enumerate(phases):
            dw_p = np.zeros_like(w_p)
            g_p = np.zeros((c_out, frames), dtype=g.dtype)              # zero past ``kept``
            # Per batch item, so each de-interleaved gradient copy stays cache-sized.
            for i in range(b):
                g_p[:, :kept] = g[i, :, p::stride]
                dw_p += g_p @ cols[i, row:, :frames].T
                if dcols is not None:
                    dcols[i, row:, :frames] += w_p.T @ g_p
            dw[:, :, p::stride] = dw_p.reshape(c_out, -1, c_in)[:, ::-1].transpose(0, 2, 1)
        accumulate_grad(weight, dw)
        accumulate_grad(bias, g.sum(axis=(0, 2)))
        if dcols is not None:
            dpad = _scatter_taps(dcols, q, 1, t + 2 * pad)
            accumulate_grad(x, dpad[:, :, pad:pad + t])

    return record_op(out, (x, weight, bias), backward_rule)


def weight_normalized(v: Tensor, g: Tensor) -> Tensor:
    """Effective weight g * v / ||v||, norm taken per output channel."""
    flat = v.data.reshape(v.data.shape[0], -1)
    norms = np.sqrt((flat * flat).sum(axis=1))
    if np.any(norms == 0.0):
        raise ShapeError("weight_normalized: zero-norm direction tensor")
    scale = (g.data / norms).reshape((-1,) + (1,) * (v.data.ndim - 1))
    out = Tensor._wrap(v.data * scale)

    def backward_rule(grad):
        grad_flat = grad.reshape(grad.shape[0], -1)
        dots = (grad_flat * flat).sum(axis=1)
        accumulate_grad(g, dots / norms)
        if v.requires_grad:
            coef = (g.data * dots / norms**3).reshape(scale.shape)
            accumulate_grad(v, scale * grad - coef * v.data)

    return record_op(out, (v, g), backward_rule)


# ---------------------------------------------------------------------------
# Batch normalization


class BatchNorm1d:
    """Per-channel normalization over (batch, time) with running statistics.

    Train mode normalizes with batch moments and updates the running
    estimates; eval mode normalizes with the running estimates and fails
    if none were ever recorded. Population (biased) variance throughout.
    """

    MOMENTUM = 0.1
    EPS = 1e-5

    def __init__(self, channels: int):
        self.channels = channels
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=self.gamma.dtype)
        self.running_var = np.ones(channels, dtype=self.gamma.dtype)
        self.batches_tracked = 0

    def __call__(self, x, training: bool) -> Tensor:
        x = astensor(x)
        if x.data.ndim != 3 or x.data.shape[1] != self.channels:
            raise ShapeError(f"batch norm expects (B, {self.channels}, T), got {x.data.shape}")
        if training:
            mean = x.data.mean(axis=(0, 2))
            var = x.data.var(axis=(0, 2))
            m = self.MOMENTUM
            self.running_mean = (1 - m) * self.running_mean + m * mean
            self.running_var = (1 - m) * self.running_var + m * var
            self.batches_tracked += 1
        else:
            if self.batches_tracked == 0:
                raise RuntimeError("batch norm eval mode before any running statistics were recorded")
            mean = self.running_mean
            var = self.running_var

        inv_std = 1.0 / np.sqrt(var + self.EPS)
        xhat = (x.data - mean[:, None]) * inv_std[:, None]
        out = Tensor._wrap(self.gamma.data[:, None] * xhat + self.beta.data[:, None])
        gamma, beta = self.gamma, self.beta
        n = x.data.shape[0] * x.data.shape[2]

        def backward_rule(g):
            accumulate_grad(beta, g.sum(axis=(0, 2)))
            accumulate_grad(gamma, (g * xhat).sum(axis=(0, 2)))
            if x.requires_grad:
                coef = (gamma.data * inv_std)[:, None]
                if training:
                    g_mean = g.mean(axis=(0, 2))[:, None]
                    gx_mean = (g * xhat).mean(axis=(0, 2))[:, None]
                    accumulate_grad(x, coef * (g - g_mean - xhat * gx_mean))
                else:
                    accumulate_grad(x, coef * g)

        return record_op(out, (x, gamma, beta), backward_rule)

    def named_parameters(self, prefix: str):
        yield prefix + "gamma", self.gamma
        yield prefix + "beta", self.beta

    def named_buffers(self, prefix: str):
        yield prefix + "running_mean", self.running_mean
        yield prefix + "running_var", self.running_var

    def load_buffer(self, name: str, value: np.ndarray) -> None:
        if name.endswith("running_mean"):
            self.running_mean = value.copy()
        elif name.endswith("running_var"):
            self.running_var = value.copy()
        else:
            raise KeyError(name)
        self.batches_tracked = max(self.batches_tracked, 1)


# ---------------------------------------------------------------------------
# Convolution layer


class Conv1d:
    """Convolution (or transposed convolution) layer with selectable
    normalization. Activation is applied by the model, not here. A
    convolution gives 1 + ceil(max(T + pl + pr - K, 0) / stride) frames; a
    transposed one, the ``length`` its mirrored convolution consumed."""

    group = "conv"  # optimizer group of every parameter, batch norm's included

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, *,
                 stride: int = 1, padding: tuple[int, int] = (0, 0),
                 transposed: bool = False, norm: str = "weight_norm",
                 rng: np.random.Generator | None = None):
        if kernel_size < 1 or stride < 1:
            raise ConfigError(f"kernel_size and stride must be >= 1, got {kernel_size}, {stride}")
        if norm not in NORM_KINDS:
            raise ConfigError(f"unknown norm kind {norm!r}; expected one of {NORM_KINDS}")
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.transposed = transposed
        self.norm = norm

        self.weight = Tensor(uniform_init(rng, (out_channels, in_channels, kernel_size),
                                          in_channels * kernel_size), requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)
        self.weight_g = None
        self.bn = None
        if norm == "weight_norm":
            norms = np.sqrt((self.weight.data.reshape(out_channels, -1) ** 2).sum(axis=1))
            self.weight_g = Tensor(norms, requires_grad=True)
        elif norm == "batch_norm":
            self.bn = BatchNorm1d(out_channels)

    def effective_weight(self) -> Tensor:
        if self.norm == "weight_norm":
            return weight_normalized(self.weight, self.weight_g)
        return self.weight

    def __call__(self, x, training: bool = False, length: int | None = None) -> Tensor:
        x = astensor(x)
        w = self.effective_weight()
        if self.transposed:
            out = conv_transpose1d(x, w, self.bias, stride=self.stride, length=length)
        else:
            # A tail frame the strided walk skipped is one the mirrored decoder
            # could never predict, so zero-pad the right edge until it is covered.
            pl, pr = self.padding
            over = x.data.shape[-1] + pl + pr - self.kernel_size
            extra = -over if over < 0 else -over % self.stride
            out = conv1d(x, w, self.bias, stride=self.stride, padding=(pl, pr + extra))
        if self.bn is not None:
            out = self.bn(out, training)
        return out

    def named_parameters(self, prefix: str):
        yield prefix + "weight", self.weight
        yield prefix + "bias", self.bias
        if self.weight_g is not None:
            yield prefix + "weight_g", self.weight_g
        if self.bn is not None:
            yield from self.bn.named_parameters(prefix + "bn.")

    def named_buffers(self, prefix: str):
        if self.bn is not None:
            yield from self.bn.named_buffers(prefix + "bn.")

    def load_buffer(self, name: str, value: np.ndarray) -> None:
        self.bn.load_buffer(name, value)


# ---------------------------------------------------------------------------
# GRU


def _sigmoid_inplace(a: np.ndarray) -> None:
    # 0.5 * (1 + tanh(a / 2)): never exponentiates, so stable in both tails.
    a *= 0.5
    np.tanh(a, out=a)
    a += 1.0
    a *= 0.5


class GRU:
    """Unidirectional gated recurrent unit over the time axis.

    Per frame: z = sigmoid(Wz x + Uz h + bz), r = sigmoid(Wr x + Ur h + br),
    hcand = tanh(Wh x + Uh (r * h) + bh), h' = (1 - z) * h + z * hcand
    (Cho et al. 2014). A call is one tape op, laid out as in Appleyard et
    al. 2016: the input projections of all three gates and all frames are
    one GEMM, and each frame runs one (H, 2H) recurrent product for z and
    r and one (H, H) product for hcand. The backward rule is hand-written
    backpropagation through time: a reverse frame loop carries dL/dh, then
    the weight, bias and input gradients are single GEMMs over all frames.
    """

    GATES = ("z", "r", "h")
    group = "gru"  # optimizer group: lower learning rate, clipped

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w = {}
        self.u = {}
        self.b = {}
        for gate in self.GATES:
            self.w[gate] = Tensor(uniform_init(rng, (hidden_size, input_size), input_size),
                                  requires_grad=True)
            self.u[gate] = Tensor(uniform_init(rng, (hidden_size, hidden_size), hidden_size),
                                  requires_grad=True)
            self.b[gate] = Tensor(np.zeros(hidden_size), requires_grad=True)

    def __call__(self, x) -> Tensor:
        x = _batched(x)
        xb = x.data
        b, c, t = xb.shape
        if c != self.input_size:
            raise ShapeError(f"gru: input has {c} channels, expected {self.input_size}")
        hsize = self.hidden_size
        params = [p for _, p in self.named_parameters("")]
        dt = np.result_type(xb, *(p.data for p in params))

        # hs[:, i] is the state entering frame i; hs[:, 1:] is the output.
        hs = np.empty((b, t + 1, hsize), dtype=dt)
        hs[:, 0] = 0.0

        w_all = np.concatenate([self.w[g].data for g in self.GATES])   # (3H, C)
        u_zr = np.concatenate([self.u["z"].data, self.u["r"].data])    # (2H, H)
        u_h = self.u["h"].data
        xf = np.ascontiguousarray(xb.transpose(0, 2, 1)).reshape(b * t, c)
        # Input projections of all frames in one GEMM; the recurrent loop
        # turns the pre-activations into the z | r | hcand gate values in place.
        gates = (xf @ w_all.T).reshape(b, t, 3 * hsize)
        gates += np.concatenate([self.b[g].data for g in self.GATES])
        rh = np.empty((b, t, hsize), dtype=dt)
        for i in range(t):
            h = hs[:, i]
            zr = gates[:, i, :2 * hsize]
            zr += h @ u_zr.T
            _sigmoid_inplace(zr)
            z, r = zr[:, :hsize], zr[:, hsize:]
            np.multiply(r, h, out=rh[:, i])
            hc = gates[:, i, 2 * hsize:]
            hc += rh[:, i] @ u_h.T
            np.tanh(hc, out=hc)
            h_next = hs[:, i + 1]
            np.subtract(hc, h, out=h_next)
            h_next *= z
            h_next += h

        out = Tensor._wrap(np.ascontiguousarray(hs[:, 1:].transpose(0, 2, 1)))

        def backward_rule(grad):
            gh = grad.transpose(0, 2, 1)  # (B, T, H)
            dpre = np.empty_like(gates)  # gradients of the gate pre-activations
            dh = np.zeros((b, hsize), dtype=dt)
            for i in reversed(range(t)):
                dh += gh[:, i]
                h = hs[:, i]
                z, r, hc = (gates[:, i, k * hsize:(k + 1) * hsize] for k in range(3))
                dz, dr, dhc = (dpre[:, i, k * hsize:(k + 1) * hsize] for k in range(3))
                np.subtract(hc, h, out=dz)
                dz *= dh
                np.multiply(dh, z, out=dhc)
                dh_prev = dh - dhc
                dhc *= 1.0 - hc * hc
                drh = dhc @ u_h
                np.multiply(drh, h, out=dr)
                drh *= r
                dh_prev += drh
                dz *= z * (1.0 - z)
                dr *= r * (1.0 - r)
                dh_prev += dpre[:, i, :2 * hsize] @ u_zr
                dh = dh_prev

            d2 = dpre.reshape(b * t, 3 * hsize)
            dw = d2.T @ xf
            du_zr = d2[:, :2 * hsize].T @ hs[:, :-1].reshape(b * t, hsize)
            du_h = d2[:, 2 * hsize:].T @ rh.reshape(b * t, hsize)
            db = d2.sum(axis=0)
            for k, gate in enumerate(self.GATES):
                rows = slice(k * hsize, (k + 1) * hsize)
                accumulate_grad(self.w[gate], dw[rows])
                accumulate_grad(self.b[gate], db[rows])
            accumulate_grad(self.u["z"], du_zr[:hsize])
            accumulate_grad(self.u["r"], du_zr[hsize:])
            accumulate_grad(self.u["h"], du_h)
            if x.requires_grad:
                dx = np.ascontiguousarray((d2 @ w_all).reshape(b, t, c).transpose(0, 2, 1))
                accumulate_grad(x, dx)

        return record_op(out, (x, *params), backward_rule)

    def named_parameters(self, prefix: str):
        for gate in self.GATES:
            yield prefix + f"w_{gate}", self.w[gate]
            yield prefix + f"u_{gate}", self.u[gate]
            yield prefix + f"b_{gate}", self.b[gate]

    def named_buffers(self, prefix: str):
        return iter(())
