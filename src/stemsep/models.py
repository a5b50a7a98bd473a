"""Model assembly: the separation network (strided 1-D conv encoder /
transposed-conv decoder with two skip connections), its skip-kind and
recurrence-placement variants, per-source enhancement networks, and the
iterative residual-refinement wrapper.

Skip connections tap the first and second encoder layer outputs and are
added to the inputs of the mirrored decoder layers after an optional
transform (identity, a 1x1 convolution layer, or a GRU whose hidden size
equals the skip's channel count). The ``after_tconv4`` recurrence variant
instead threads the first decoder layer's output through a GRU. The
convolution layers own the time lengths: an encoder layer right-pads until
its strided walk covers the last frame, and its mirrored decoder layer
returns exactly the length it consumed, so any input length works. Every
convolution layer, convolution skips included, applies the model's leaky
ReLU itself (``Conv1d(..., slope=)``): with weight norm, the norm and the
activation run inside the layer's one convolution op, so a layer is one
tape op in training and one in-place pass in inference.

One walk, ``modules()``, yields every parameterised layer with its name
prefix; parameter and buffer traversal, checkpoint state and optimizer
groups all follow it, and each layer declares its own group (``conv`` or
``gru``). ``ModelBundle.predict`` is the one inference path for all three
bundle modes, batched or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .dsp import FREQ_BINS
from .errors import ConfigError, CorruptCheckpointError, ShapeError
from .layers import GRU, NORM_KINDS, Conv1d, ZeroInit
from .tensor import (
    Tensor,
    add,
    astensor,
    concat,
    no_grad,
    reshape,
)

SKIP_KINDS = ("none", "identity", "conv", "gru")
RECURRENCE_KINDS = ("skips", "after_tconv4", "none")
BUNDLE_MODES = ("separator", "residual", "enhancer")

DEFAULT_CHANNELS = (512, 256, 128)
DEFAULT_KERNELS = (5, 5, 3)
DEFAULT_STRIDES = (2, 2, 2)


@dataclass(frozen=True)
class ModelConfig:
    """Declarative description of one separation/enhancement network.

    ``encoder_specs`` and ``decoder_specs`` are three (out_channels,
    kernel, stride) tuples each; the decoder must be
    ``mirror_decoder(encoder_specs, source_count * freq_bins)``.
    """

    encoder_specs: tuple
    decoder_specs: tuple
    skip_kind: str = "gru"
    recurrence: str = "skips"
    norm_kind: str = "weight_norm"
    input_channels: int = FREQ_BINS
    freq_bins: int = FREQ_BINS
    source_count: int = 4
    leaky_slope: float = 0.01

    def validate(self) -> None:
        if self.skip_kind not in SKIP_KINDS:
            raise ConfigError(f"skip_kind {self.skip_kind!r} not in {SKIP_KINDS}")
        if self.recurrence not in RECURRENCE_KINDS:
            raise ConfigError(f"recurrence {self.recurrence!r} not in {RECURRENCE_KINDS}")
        if self.norm_kind not in NORM_KINDS:
            raise ConfigError(f"norm_kind {self.norm_kind!r} not in {NORM_KINDS}")
        if not 0.0 <= self.leaky_slope <= 1.0:
            raise ConfigError(f"leaky_slope {self.leaky_slope} outside [0, 1]")
        if len(self.encoder_specs) != 3 or len(self.decoder_specs) != 3:
            raise ConfigError("expected exactly three encoder and three decoder layers, got "
                              f"{len(self.encoder_specs)}/{len(self.decoder_specs)}")
        for side, specs in (("encoder", self.encoder_specs), ("decoder", self.decoder_specs)):
            for i, (channels, kernel, stride) in enumerate(specs):
                if channels < 1 or kernel < 1 or stride < 1:
                    raise ConfigError(f"{side} layer {i + 1} has invalid spec {(channels, kernel, stride)}")
        mirror = mirror_decoder(self.encoder_specs, self.source_count * self.freq_bins)
        for i, (spec, expected) in enumerate(zip(self.decoder_specs, mirror)):
            if tuple(spec) != expected:
                raise ConfigError(f"decoder layer {i + 1} is {tuple(spec)}; "
                                  f"the mirror of the encoder needs {expected}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["encoder_specs"] = [list(s) for s in self.encoder_specs]
        d["decoder_specs"] = [list(s) for s in self.decoder_specs]
        return d

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        d = dict(d)
        d["encoder_specs"] = tuple(tuple(s) for s in d["encoder_specs"])
        d["decoder_specs"] = tuple(tuple(s) for s in d["decoder_specs"])
        return ModelConfig(**d)


def mirror_decoder(encoder_specs, out_channels: int) -> tuple:
    """Decoder layer i undoes encoder layer 4 - i's kernel and stride and
    emits encoder layer 3 - i's channels (the last, ``out_channels``)."""
    widths = [channels for channels, _, _ in encoder_specs[-2::-1]] + [out_channels]
    return tuple((width, kernel, stride)
                 for width, (_, kernel, stride) in zip(widths, encoder_specs[::-1]))


def separator_config(source_count: int = 4, freq_bins: int = FREQ_BINS,
                     channels=DEFAULT_CHANNELS, kernels=DEFAULT_KERNELS,
                     strides=DEFAULT_STRIDES, skip_kind: str = "gru",
                     recurrence: str = "skips", norm_kind: str = "weight_norm",
                     residual: bool = False) -> ModelConfig:
    """Build and validate the standard mirrored bottleneck configuration.

    In residual mode the input is the mixture concatenated with the
    previous iteration's running totals, so the input channel count is
    freq_bins * (1 + source_count).
    """
    encoder = tuple(zip(channels, kernels, strides, strict=True))
    decoder = mirror_decoder(encoder, source_count * freq_bins)
    input_channels = freq_bins * (1 + source_count) if residual else freq_bins
    cfg = ModelConfig(encoder, decoder, skip_kind=skip_kind, recurrence=recurrence,
                      norm_kind=norm_kind, input_channels=input_channels,
                      freq_bins=freq_bins, source_count=source_count)
    cfg.validate()
    return cfg


def enhancer_config(freq_bins: int = FREQ_BINS, channels=DEFAULT_CHANNELS,
                    kernels=DEFAULT_KERNELS, strides=DEFAULT_STRIDES,
                    norm_kind: str = "weight_norm") -> ModelConfig:
    """Per-source enhancement network: same shell, convolution skips,
    one source in and out."""
    return separator_config(source_count=1, freq_bins=freq_bins, channels=channels,
                            kernels=kernels, strides=strides, skip_kind="conv",
                            recurrence="none", norm_kind=norm_kind)


@dataclass(frozen=True)
class ResidualConfig:
    """Iterative refinement: the network re-consumes its running totals
    and only has to predict the correction."""

    iterations: int = 3

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError(f"residual iterations must be >= 1, got {self.iterations}")


class Separator:
    """The separation network. Construct through ``build_separator``."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator | None = None):
        cfg.validate()
        rng = rng or np.random.default_rng()
        self.cfg = cfg
        norm = cfg.norm_kind

        self.encoder = []
        in_ch = cfg.input_channels
        for channels, kernel, stride in cfg.encoder_specs:
            padding = _same_padding(kernel) if stride == 1 else (0, 0)
            self.encoder.append(Conv1d(in_ch, channels, kernel, stride=stride,
                                       padding=padding, norm=norm, rng=rng))
            in_ch = channels

        self.decoder = []
        for channels, kernel, stride in cfg.decoder_specs:
            self.decoder.append(Conv1d(in_ch, channels, kernel, stride=stride,
                                       transposed=True, norm=norm, rng=rng))
            in_ch = channels

        # Skip transforms for encoder layer 1 and 2 outputs.
        self.skips: list = []
        for skip_channels in (cfg.encoder_specs[0][0], cfg.encoder_specs[1][0]):
            if cfg.skip_kind == "none":
                self.skips.append(None)
            elif cfg.skip_kind == "identity":
                self.skips.append("identity")
            elif cfg.skip_kind == "conv":
                self.skips.append(Conv1d(skip_channels, skip_channels, 1, norm=norm, rng=rng))
            else:
                self.skips.append(GRU(skip_channels, skip_channels, rng=rng))

        self.post_gru = None
        if cfg.recurrence == "after_tconv4":
            width = cfg.decoder_specs[0][0]
            self.post_gru = GRU(width, width, rng=rng)

    @property
    def dtype(self) -> np.dtype:
        return self.encoder[0].weight.data.dtype

    def forward(self, x, training: bool = False) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor._wrap(np.asarray(x, dtype=self.dtype))
        squeeze = x.data.ndim == 2
        if squeeze:
            x = reshape(x, (1,) + x.data.shape)
        if x.data.ndim != 3:
            raise ShapeError(f"expected (C, T) or (B, C, T) input, got {x.data.shape}")
        if x.data.shape[1] != self.cfg.input_channels:
            raise ShapeError(f"input has {x.data.shape[1]} channels, "
                             f"model expects {self.cfg.input_channels}")
        slope = self.cfg.leaky_slope

        lengths = []
        taps = []
        h = x
        for layer in self.encoder:
            lengths.append(h.data.shape[-1])
            h = layer(h, training, slope=slope)
            taps.append(h)

        h = self.decoder[0](h, training, lengths[2], slope)
        if self.post_gru is not None:
            h = self.post_gru(h)
        h = self._merge_skip(h, taps[1], self.skips[1], training)
        h = self.decoder[1](h, training, lengths[1], slope)
        h = self._merge_skip(h, taps[0], self.skips[0], training)
        h = self.decoder[2](h, training, lengths[0], slope)

        return reshape(h, h.data.shape[1:]) if squeeze else h

    def _merge_skip(self, decoded: Tensor, tap: Tensor, transform, training: bool) -> Tensor:
        if transform is None:
            return decoded
        if transform == "identity":
            branch = tap
        elif isinstance(transform, Conv1d):
            branch = transform(tap, training, slope=self.cfg.leaky_slope)
        else:
            branch = transform(tap)
        return add(decoded, branch)

    # -- parameter plumbing ------------------------------------------------

    def modules(self, prefix: str = ""):
        """(name prefix, layer) for every layer with parameters, in the
        order that names, checkpoints and optimizer groups follow."""
        for i, layer in enumerate(self.encoder):
            yield f"{prefix}encoder.{i}.", layer
        for i, layer in enumerate(self.decoder):
            yield f"{prefix}decoder.{i}.", layer
        for i, skip in enumerate(self.skips):
            if isinstance(skip, (Conv1d, GRU)):
                kind = "conv" if isinstance(skip, Conv1d) else "gru"
                yield f"{prefix}skip.{i}.{kind}.", skip
        if self.post_gru is not None:
            yield f"{prefix}post_gru.", self.post_gru

    def named_parameters(self, prefix: str = ""):
        for name, layer in self.modules(prefix):
            yield from layer.named_parameters(name)

    def named_buffers(self, prefix: str = ""):
        for name, layer in self.modules(prefix):
            yield from layer.named_buffers(name)

    def parameter_count(self) -> int:
        return sum(p.data.size for _, p in self.named_parameters())


def _same_padding(kernel: int) -> tuple[int, int]:
    left = (kernel - 1) // 2
    return (left, kernel - 1 - left)


def build_separator(cfg: ModelConfig, rng=None) -> Separator:
    """Instantiate a separation network; ``rng`` may be a Generator, a seed,
    or a ``ZeroInit`` for parameters that are about to be restored."""
    if rng is not None and not isinstance(rng, (np.random.Generator, ZeroInit)):
        rng = np.random.default_rng(rng)
    return Separator(cfg, rng)


def build_enhancer(cfg: ModelConfig, rng=None) -> Separator:
    """Instantiate a single-source enhancement network (conv skips)."""
    if cfg.source_count != 1:
        raise ConfigError(f"enhancer must have source_count 1, got {cfg.source_count}")
    if cfg.input_channels != cfg.freq_bins:
        raise ConfigError(f"enhancer input must be one source's {cfg.freq_bins} bins, "
                          f"got {cfg.input_channels}")
    if cfg.skip_kind != "conv":
        raise ConfigError("enhancer skip connections are convolution layers; "
                          f"got skip_kind {cfg.skip_kind!r}")
    return build_separator(cfg, rng)


@dataclass
class ResidualOutput:
    """Per-iteration running totals (tape tensors)."""

    totals: list

    @property
    def final(self) -> Tensor:
        return self.totals[-1]

    @property
    def residuals(self) -> list:
        """The increments, computed on read as the exact differences of
        consecutive totals (the first from zero)."""
        data = [np.zeros_like(self.totals[0].data)] + [t.data for t in self.totals]
        return [after - before for before, after in zip(data, data[1:])]


def residual_forward(model: Separator, mixture_features, iterations: int,
                     training: bool = False) -> ResidualOutput:
    """Iterative refinement: start from all-zero totals, feed the mixture
    concatenated with the running totals, and accumulate the network's
    output into the totals each iteration."""
    ResidualConfig(iterations)  # refuses fewer than one
    mixture = mixture_features
    if not isinstance(mixture, Tensor):
        mixture = Tensor._wrap(np.asarray(mixture, dtype=model.dtype))
    f, t = mixture.data.shape[-2:]
    out_channels = model.cfg.source_count * model.cfg.freq_bins
    if model.cfg.input_channels != f + out_channels:
        raise ConfigError(
            f"residual mode needs input_channels = {f + out_channels} "
            f"(mixture {f} + totals {out_channels}), model has {model.cfg.input_channels}")

    # The channel axis is the second to last for (F, T) and (B, F, T) alike.
    channel_axis = mixture.data.ndim - 2
    totals_shape = mixture.data.shape[:-2] + (out_channels, t)
    total = astensor(np.zeros(totals_shape, dtype=mixture.data.dtype))
    totals = []
    for _ in range(iterations):
        step_input = concat([mixture, total], axis=channel_axis)
        increment = model.forward(step_input, training=training)
        total = add(total, increment)
        totals.append(total)
    return ResidualOutput(totals)


@dataclass
class ModelBundle:
    """Everything a runner needs: the separator plus optional per-source
    enhancers or a residual-iteration schedule."""

    mode: str  # one of BUNDLE_MODES
    separator: Separator
    enhancers: list | None = None
    residual: ResidualConfig | None = None
    sources: tuple = field(default_factory=tuple)

    def predict(self, mixture_features, training: bool = False) -> Tensor:
        """The bundle's full pipeline: (F, T) or (B, F, T) mixture features
        in, (S*F, T) or (B, S*F, T) source estimates out."""
        if self.mode == "residual":
            return residual_forward(self.separator, mixture_features,
                                    self.residual.iterations, training=training).final
        if self.mode == "enhancer":
            # The separation model is frozen while enhancers run or train.
            with no_grad():
                base = self.separator.forward(mixture_features, training=False).data
            f = self.separator.cfg.freq_bins
            parts = [enhancer.forward(base[..., s * f:(s + 1) * f, :], training=training)
                     for s, enhancer in enumerate(self.enhancers)]
            return concat(parts, axis=base.ndim - 2)
        return self.separator.forward(mixture_features, training=training)

    def _parts(self) -> list:
        """(name prefix, network) pairs: the separator, then each enhancer."""
        return [("separator.", self.separator)] + [
            (f"enhancer.{s}.", enhancer) for s, enhancer in enumerate(self.enhancers or ())]

    def modules(self):
        """(name prefix, layer) over the separator, then each enhancer."""
        for part_prefix, network in self._parts():
            yield from network.modules(part_prefix)

    def named_parameters(self):
        for name, layer in self.modules():
            yield from layer.named_parameters(name)

    def named_buffers(self):
        for name, layer in self.modules():
            yield from layer.named_buffers(name)

    def trainable_groups(self):
        """(conv_params, gru_params) for the parts this mode trains, each
        layer's parameters in the group the layer declares."""
        parts = self._parts()
        if self.mode == "enhancer":
            parts = parts[1:]  # the separator is frozen
        groups = {"conv": [], "gru": []}
        for part_prefix, network in parts:
            for name, layer in network.modules(part_prefix):
                groups[layer.group].extend(layer.named_parameters(name))
        return groups["conv"], groups["gru"]


def collect_state(bundle: ModelBundle) -> dict:
    """Copy every parameter and buffer into a flat name-keyed dict."""
    state = {name: p.data.copy() for name, p in bundle.named_parameters()}
    state.update({name: buf.copy() for name, buf in bundle.named_buffers()})
    return state


def restore_state(bundle: ModelBundle, state: dict) -> None:
    """Write a collected state back into the bundle's tensors and buffers;
    a missing entry raises CorruptCheckpointError, a misshapen one ShapeError.
    A parameter takes the state's own array when its dtype already matches,
    so the state must not be modified afterwards; buffers are copied."""
    for prefix, layer in bundle.modules():
        for name, p in layer.named_parameters(prefix):
            p.data = _saved(state, name, p.data).astype(p.data.dtype, copy=False)
        for name, buf in layer.named_buffers(prefix):
            layer.load_buffer(name, _saved(state, name, buf))


def _saved(state: dict, name: str, current: np.ndarray) -> np.ndarray:
    if name not in state:
        raise CorruptCheckpointError(f"saved state lacks {name!r}")
    saved = np.asarray(state[name])
    if saved.shape != current.shape:
        raise ShapeError(f"state for {name} has shape {saved.shape}, expected {current.shape}")
    return saved
