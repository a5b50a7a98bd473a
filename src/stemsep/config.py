"""Plain-text key=value experiment configuration.

Every key can be overridden on the command line by a flag of the same
dotted name (``--train.lr_conv 0.0005``). Unknown keys fail loudly so a
config file always describes a reproducible run.
"""

from __future__ import annotations

from pathlib import Path

from .dsp import FREQ_BINS
from .errors import ConfigError
from .evaluate import ACCOMPANIMENT_MODES
from .layers import NORM_KINDS
from .models import RECURRENCE_KINDS, SKIP_KINDS, ModelConfig, enhancer_config, separator_config
from .training import TrainConfig

_CHOICES = {
    "model.skip_kind": SKIP_KINDS,
    "model.recurrence": RECURRENCE_KINDS,
    "model.norm": NORM_KINDS,
    "train.mode": ("separator", "residual"),
    "train.dtype": ("float32", "float64"),
    "separate.accompaniment": ACCOMPANIMENT_MODES,
}

# key -> (parser, default, help)
SCHEMA = {
    "model.skip_kind": (str, "gru", "skip-connection transform"),
    "model.recurrence": (str, "skips", "where recurrent layers sit"),
    "model.norm": (str, "weight_norm", "per-layer normalization"),
    "model.channels": (str, "512,256,128", "encoder channel widths"),
    "model.kernels": (str, "5,5,3", "encoder kernel sizes"),
    "model.strides": (str, "2,2,2", "encoder strides"),
    "model.freq_bins": (int, 1025, "spectrogram rows the model consumes"),
    "train.mode": (str, "separator", "separator or residual training"),
    "train.batch_size": (int, 10, "instances per step"),
    "train.lr_conv": (float, 1e-3, "learning rate for convolution parameters"),
    "train.lr_gru": (float, 1e-4, "learning rate for recurrent parameters"),
    "train.max_epochs": (int, 50, "epoch budget (one epoch = epoch_batches steps)"),
    "train.patience": (int, 10, "stale validations before stopping"),
    "train.epoch_batches": (int, 100, "augmented batches per epoch"),
    "train.seed": (int, 0, "seed for init, split, and augmentation"),
    "train.residual_iterations": (int, 3, "refinement passes in residual mode"),
    "train.dtype": (str, "float32", "training precision"),
    "train.gru_clip_norm": (float, 5.0, "global-norm clip for recurrent grads"),
    "data.sources": (str, "drums,bass,other,vocals", "stem names, comma separated"),
    "data.clip_seconds": (float, 5.0, "training sub-clip length"),
    "data.val_ratio": (float, 0.1, "fraction of songs held out for validation"),
    "separate.accompaniment": (str, "nonvocal", "accompaniment definition"),
    "eval.jobs": (int, 1, "parallel tracks during evaluation"),
}


def defaults() -> dict:
    return {key: default for key, (_, default, _) in SCHEMA.items()}


def _parse_value(key: str, raw: str):
    if key not in SCHEMA:
        raise ConfigError(f"unknown configuration key {key!r}")
    parser = SCHEMA[key][0]
    try:
        value = parser(raw)
    except ValueError:
        raise ConfigError(f"cannot parse {key}={raw!r} as {parser.__name__}")
    if key in _CHOICES and value not in _CHOICES[key]:
        raise ConfigError(f"{key}={value!r}; expected one of {_CHOICES[key]}")
    return value


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


def apply_overrides(values: dict, overrides) -> dict:
    """``overrides`` is a list of (key, raw_value) pairs from CLI flags."""
    merged = dict(values)
    for key, raw in overrides:
        merged[key] = _parse_value(key, raw)
    return merged


def resolve(config_path=None, overrides=()) -> dict:
    values = defaults()
    if config_path:
        values.update(load_config_file(config_path))
    return apply_overrides(values, overrides)


def _int_triple(raw: str, key: str) -> tuple:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"{key} needs exactly three comma-separated integers, got {raw!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{key} needs integers, got {raw!r}")


def source_names(values: dict) -> tuple:
    names = tuple(s.strip() for s in values["data.sources"].split(",") if s.strip())
    if not names:
        raise ConfigError("data.sources is empty")
    return names


def _freq_bins(values: dict) -> int:
    # The STFT fixes the spectrogram height, so any other value would only
    # fail at the first training step, after the whole dataset has loaded.
    if values["model.freq_bins"] != FREQ_BINS:
        raise ConfigError(f"model.freq_bins={values['model.freq_bins']}; the STFT yields "
                          f"{FREQ_BINS} bins, so it must be {FREQ_BINS}")
    return FREQ_BINS


def model_config(values: dict) -> ModelConfig:
    return separator_config(
        source_count=len(source_names(values)),
        freq_bins=_freq_bins(values),
        channels=_int_triple(values["model.channels"], "model.channels"),
        kernels=_int_triple(values["model.kernels"], "model.kernels"),
        strides=_int_triple(values["model.strides"], "model.strides"),
        skip_kind=values["model.skip_kind"],
        recurrence=values["model.recurrence"],
        norm_kind=values["model.norm"],
        residual=(values["train.mode"] == "residual"),
    )


def enhancer_model_config(values: dict) -> ModelConfig:
    return enhancer_config(
        freq_bins=_freq_bins(values),
        channels=_int_triple(values["model.channels"], "model.channels"),
        kernels=_int_triple(values["model.kernels"], "model.kernels"),
        strides=_int_triple(values["model.strides"], "model.strides"),
        norm_kind=values["model.norm"],
    )


def train_config(values: dict) -> TrainConfig:
    return TrainConfig(
        batch_size=values["train.batch_size"],
        lr_conv=values["train.lr_conv"],
        lr_gru=values["train.lr_gru"],
        max_epochs=values["train.max_epochs"],
        patience=values["train.patience"],
        seed=values["train.seed"],
        epoch_batches=values["train.epoch_batches"],
        gru_clip_norm=values["train.gru_clip_norm"],
    )
