"""Plain-text key=value experiment configuration.

Every key can be overridden on the command line by a flag of the same
dotted name (``--train.lr_conv 0.0005``). Unknown keys fail loudly so a
config file always describes a reproducible run. Each key parses once, to
the type its consumer takes, and defaults to that consumer's own default.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from .audio_io import SOURCES
from .dsp import FREQ_BINS
from .errors import ConfigError
from .evaluate import ACCOMPANIMENT_MODES
from .layers import NORM_KINDS
from .models import (DEFAULT_CHANNELS, DEFAULT_KERNELS, DEFAULT_STRIDES, RECURRENCE_KINDS,
                     SKIP_KINDS, ModelConfig, ResidualConfig, enhancer_config, separator_config)
from .training import TrainConfig, clip_length


def _one_of(choices):
    def parse(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"expected one of {choices}")
        return raw
    return parse


def _int_triple(raw: str) -> tuple:
    parts = raw.split(",")
    if len(parts) != 3:
        raise ValueError("needs exactly three comma-separated integers")
    return tuple(int(p) for p in parts)


def _names(raw: str) -> tuple:
    names = tuple(s.strip() for s in raw.split(",") if s.strip())
    if not names:
        raise ValueError("needs at least one name")
    return names


def _clip_seconds(raw: str) -> float:
    clip_length(float(raw))
    return float(raw)


def _ratio(raw: str) -> float:
    ratio = float(raw)
    if not 0 < ratio < 1:
        raise ValueError("must lie strictly between 0 and 1")
    return ratio


# key -> (parser, default, help)
SCHEMA = {
    "model.skip_kind": (_one_of(SKIP_KINDS), ModelConfig.skip_kind, "skip-connection transform"),
    "model.recurrence": (_one_of(RECURRENCE_KINDS), ModelConfig.recurrence,
                         "after_tconv4 adds a GRU after decoder layer 1"),
    "model.norm": (_one_of(NORM_KINDS), ModelConfig.norm_kind, "per-layer normalization"),
    "model.channels": (_int_triple, DEFAULT_CHANNELS, "encoder channel widths"),
    "model.kernels": (_int_triple, DEFAULT_KERNELS, "encoder kernel sizes"),
    "model.strides": (_int_triple, DEFAULT_STRIDES, "encoder strides"),
    "train.mode": (_one_of(("separator", "residual")), "separator", "training mode"),
    "train.batch_size": (int, TrainConfig.batch_size, "instances per step"),
    "train.lr_conv": (float, TrainConfig.lr_conv, "learning rate for convolution parameters"),
    "train.lr_gru": (float, TrainConfig.lr_gru, "learning rate for recurrent parameters"),
    "train.max_epochs": (int, TrainConfig.max_epochs, "epoch budget (epoch = epoch_batches steps)"),
    "train.patience": (int, TrainConfig.patience, "stale validations before stopping"),
    "train.epoch_batches": (int, TrainConfig.epoch_batches, "augmented batches per epoch"),
    "train.seed": (int, TrainConfig.seed, "seed for init, split, and augmentation"),
    "train.residual_iterations": (int, ResidualConfig.iterations, "residual refinement passes"),
    "train.dtype": (_one_of(("float32", "float64")), "float32", "training precision"),
    "train.gru_clip_norm": (float, TrainConfig.gru_clip_norm, "global-norm clip, recurrent grads"),
    "data.sources": (_names, SOURCES, "stem names, comma separated"),
    "data.clip_seconds": (_clip_seconds, 5.0, "sub-clip length, at least one STFT window"),
    "data.val_ratio": (_ratio, 0.1, "validation share of songs, in (0, 1)"),
    "separate.accompaniment": (_one_of(ACCOMPANIMENT_MODES), "nonvocal", "accompaniment rule"),
}


def defaults() -> dict:
    return {key: default for key, (_, default, _) in SCHEMA.items()}


def _parse_value(key: str, raw: str):
    if key not in SCHEMA:
        raise ConfigError(f"unknown configuration key {key!r}")
    try:
        return SCHEMA[key][0](raw)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"cannot parse {key}={raw!r}: {exc}") from None


def load_config_file(path) -> dict:
    """Read ``key = value`` lines; '#' starts a comment."""
    values = {}
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        values[key.strip()] = _parse_value(key.strip(), raw.strip())
    return values


def resolve(config_path=None, overrides=()) -> dict:
    """Defaults, then the config file, then ``overrides``: (key, raw value)
    pairs from CLI flags."""
    values = defaults()
    if config_path:
        values.update(load_config_file(config_path))
    values.update((key, _parse_value(key, raw)) for key, raw in overrides)
    return values


def model_config(values: dict) -> ModelConfig:
    """The validated separator configuration."""
    if values["model.recurrence"] == "none" and values["model.skip_kind"] == "gru":
        raise ConfigError("model.recurrence=none asks for no recurrent layer, but "
                          "model.skip_kind=gru puts a GRU on each skip")
    return separator_config(
        source_count=len(values["data.sources"]),
        freq_bins=FREQ_BINS,
        channels=values["model.channels"],
        kernels=values["model.kernels"],
        strides=values["model.strides"],
        skip_kind=values["model.skip_kind"],
        recurrence=values["model.recurrence"],
        norm_kind=values["model.norm"],
        residual=(values["train.mode"] == "residual"),
    )


def enhancer_model_config(values: dict) -> ModelConfig:
    """The validated per-source enhancer configuration."""
    return enhancer_config(freq_bins=FREQ_BINS, channels=values["model.channels"],
                           kernels=values["model.kernels"], strides=values["model.strides"],
                           norm_kind=values["model.norm"])


def train_config(values: dict) -> TrainConfig:
    """The validated training configuration: each field from its train.* key."""
    cfg = TrainConfig(**{f.name: values[f"train.{f.name}"] for f in fields(TrainConfig)})
    cfg.validate()
    return cfg
