"""In-memory span tracer that wraps stemsep's layer functions from outside.

Each wrapped function records a span: name, start, end, parent span and
op id, plus an optional exact count (FLOPs, bytes or tape ops) taken from
the call's arguments or result. Functions are wrapped where their callers
look them up: a module global for module-level functions, the class
attribute for methods. Leaving the ``with`` block puts back the originals.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

def _shape(x):
    return getattr(x, "data", x).shape


def _conv1d_flops(args, result):
    """2 * output elements * C_in * K (one multiply-add per tap)."""
    _, c_in, kernel = _shape(args[1])
    return 2.0 * result.data.size * c_in * kernel


def _frames(x):
    """B * T of a (C, T) or (B, C, T) input."""
    shape = _shape(x)
    return shape[0] * shape[2] if len(shape) == 3 else shape[1]


def _tconv_flops(args, result):
    """2 * input frames * C_in * C_out * K."""
    c_out, c_in, kernel = _shape(args[1])
    return 2.0 * _frames(args[0]) * c_in * c_out * kernel


def _gru_flops(args, result):
    """Three gates, each an input and a recurrent GEMM per frame."""
    gru = args[0]
    return 6.0 * _frames(args[1]) * gru.hidden_size * (gru.input_size + gru.hidden_size)


def _file_bytes(path):
    return float(os.path.getsize(path))


def targets():
    """(span name, owner, attribute, pre-count, post-count) for every
    function the tracer wraps."""
    training = importlib.import_module("stemsep.training")
    tensor = importlib.import_module("stemsep.tensor")
    models = importlib.import_module("stemsep.models")
    optim = importlib.import_module("stemsep.optim")
    layers = importlib.import_module("stemsep.layers")
    dsp = importlib.import_module("stemsep.dsp")
    # ``stemsep.evaluate`` as a package attribute is the function, which
    # shadows the submodule; sys.modules holds the module itself.
    evaluate = importlib.import_module("stemsep.evaluate")
    checkpoint = importlib.import_module("stemsep.checkpoint")
    audio_io = importlib.import_module("stemsep.audio_io")

    return [
        ("training.make_batch", training, "make_batch", None, None),
        ("training.mse_loss", training, "mse_loss", None, None),
        # training imports ``backward`` by name, so its global is the lookup site.
        ("tensor.backward", training, "backward",
         lambda args: float(len(tensor.current_tape())), None),
        ("models.forward", models.Separator, "forward", None, None),
        ("optim.step", optim.Adam, "step", None, None),
        ("layers.conv1d", layers, "conv1d", None, _conv1d_flops),
        ("layers.conv_transpose1d", layers, "conv_transpose1d", None, _tconv_flops),
        ("layers.gru", layers.GRU, "__call__", None, _gru_flops),
        ("layers.weight_norm", layers, "weight_normalized", None, None),
        ("dsp.stft", dsp, "stft", None, None),
        ("dsp.istft", dsp, "istft", None, None),
        ("dsp.wiener_masks", dsp, "wiener_masks", None, None),
        ("evaluate.separate_song", evaluate, "separate_song", None, None),
        ("checkpoint.load", checkpoint, "load_checkpoint",
         lambda args: _file_bytes(args[0]), None),
        ("checkpoint.bundle", checkpoint, "bundle_from_checkpoint", None, None),
        ("checkpoint.save", checkpoint, "save_checkpoint",
         None, lambda args, result: _file_bytes(args[0])),
        ("audio_io.read_wav", audio_io, "read_wav", lambda args: _file_bytes(args[0]), None),
        ("audio_io.write_wav", audio_io, "write_wav",
         None, lambda args, result: _file_bytes(args[0])),
    ]


class Tracer:
    """Records spans while installed (``with tracer:``). Spans are lists
    ``[name, start, end, parent, op, count]``; ``parent`` is an index into
    ``spans`` or -1, ``count`` is None where nothing is counted."""

    def __init__(self):
        self.spans: list = []
        self.op = 0
        self._stack: list = []
        self._originals: list = []

    def __enter__(self) -> "Tracer":
        """Install: replace every target with its recording wrapper."""
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for name, owner, attr, pre, post in targets():
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, pre, post))
        return self

    def __exit__(self, *exc) -> None:
        """Uninstall: put back the original objects."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        """Put the originals back for a while, e.g. around output checks."""
        self.__exit__()
        try:
            yield
        finally:
            self.__enter__()

    def _wrap(self, name, fn, pre, post):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    pre(args) if pre else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if post:
                span[5] = post(args, result)
            return result

        return traced

    def totals(self) -> dict:
        """Per span name: calls, busy seconds, self seconds, count sum."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "busy": 0.0, "self": 0.0, "count": 0.0})
        for i, (name, start, end, _, _, count) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["busy"] += end - start
            entry["self"] += end - start - child_time[i]
            entry["count"] += count or 0.0
        return out

    def write(self, path: Path, header: dict) -> None:
        """Write the header and every span as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[name, round(start - origin, 9), round(end - origin, 9), parent, op, count]
                for name, start, end, parent, op, count in self.spans]
        path.write_text(json.dumps({**header, "span_fields":
                                    ["name", "start_s", "end_s", "parent", "op", "count"],
                                    "spans": rows}))
