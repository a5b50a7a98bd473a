"""Adam with per-group learning rates and optional gradient-norm clipping.

Convolution parameters train at a higher rate than recurrent ones, and
the recurrent group is clipped by global norm since those gradients are
the ones that blow up in practice.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor


class Adam:
    """Adaptive-moment estimation over named parameter groups.

    ``groups`` is a list of dicts: {"name": str, "params": [(pname, Tensor)],
    "lr": float, "clip_norm": float | None}. A parameter whose gradient is
    identically zero is left untouched (moments included), so an idle step
    never moves parameters regardless of optimizer state.
    """

    def __init__(self, groups, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.groups = []
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        seen = set()
        for group in groups:
            params = list(group["params"])
            for pname, p in params:
                if pname in seen:
                    raise ValueError(f"duplicate parameter name {pname!r}")
                seen.add(pname)
                self._m[pname] = np.zeros_like(p.data)
                self._v[pname] = np.zeros_like(p.data)
            self.groups.append({
                "name": group["name"],
                "params": params,
                "lr": float(group["lr"]),
                "clip_norm": group.get("clip_norm"),
            })

    def parameters(self):
        for group in self.groups:
            yield from group["params"]

    def zero_grad(self) -> None:
        for _, p in self.parameters():
            p.grad = None

    def _clip_scale(self, params, clip_norm: float) -> float:
        total = 0.0
        for _, p in params:
            if p.grad is not None:
                total += float((p.grad * p.grad).sum())
        norm = math.sqrt(total)
        if norm > clip_norm > 0:
            return clip_norm / norm
        return 1.0

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for group in self.groups:
            scale = 1.0
            if group["clip_norm"]:
                scale = self._clip_scale(group["params"], group["clip_norm"])
            lr = group["lr"]
            for pname, p in group["params"]:
                if p.grad is None:
                    raise RuntimeError(f"adam step with missing gradient for {pname!r}")
                g = p.grad if scale == 1.0 else p.grad * scale
                if not g.any():
                    continue
                m = self._m[pname]
                v = self._v[pname]
                m *= self.beta1
                m += (1.0 - self.beta1) * g
                v *= self.beta2
                v += (1.0 - self.beta2) * (g * g)
                update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
                p.data -= lr * update


def build_optimizer(conv_params, gru_params, lr_conv: float, lr_gru: float,
                    gru_clip_norm: float | None = 5.0) -> Adam:
    """Standard two-group optimizer: convolutions fast, recurrences slow."""
    return Adam([
        {"name": "conv", "params": list(conv_params), "lr": lr_conv, "clip_norm": None},
        {"name": "gru", "params": list(gru_params), "lr": lr_gru, "clip_norm": gru_clip_norm},
    ])
