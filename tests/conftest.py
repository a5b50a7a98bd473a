"""Shared helpers: per-name random generators, tiny model configurations,
eval-mode forward passes and the synthetic two-source dataset
(band-limited noise vs. a harmonic tone complex)."""

import zlib

import numpy as np
import pytest

from stemsep import tensor as T
from stemsep.audio_io import SAMPLE_RATE, AudioClip
from stemsep.models import ModelConfig, separator_config


def rng_for(name: str) -> np.random.Generator:
    """A generator seeded from a stable digest of ``name``: the same draws
    in every process, unlike the salted built-in ``hash``."""
    return np.random.default_rng(zlib.crc32(name.encode("utf-8")))


def bits(a) -> np.ndarray:
    """The raw bit patterns of a float array or scalar: tells -0.0 from +0.0."""
    a = np.ascontiguousarray(a)
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def tiny_config(skip_kind="gru", recurrence="skips", norm_kind="weight_norm",
                freq_bins=12, source_count=2, residual=False) -> ModelConfig:
    """A miniature separator: enough structure for every variant, small
    enough for finite differences."""
    return separator_config(
        source_count=source_count, freq_bins=freq_bins,
        channels=(8, 6, 4), kernels=(3, 3, 2), strides=(2, 2, 2),
        skip_kind=skip_kind, recurrence=recurrence, norm_kind=norm_kind,
        residual=residual)


def eval_forward(model, x) -> np.ndarray:
    """``Separator.forward`` in eval mode, recording no tape."""
    with T.no_grad():
        return model.forward(x).data


def tone_waveform(rng: np.random.Generator, num_samples: int, sample_rate: int = SAMPLE_RATE) -> np.ndarray:
    """Harmonic complex with a fundamental in [140, 280] Hz, partials below 4 kHz."""
    f0 = rng.uniform(140.0, 280.0)
    t = np.arange(num_samples) / sample_rate
    wave = np.zeros(num_samples)
    k = 1
    while k * f0 < 4000.0 and k <= 10:
        wave += (1.0 / k) * np.sin(2.0 * np.pi * k * f0 * t + rng.uniform(0, 2 * np.pi))
        k += 1
    return 0.25 * wave / np.max(np.abs(wave))


def bandnoise_waveform(rng: np.random.Generator, num_samples: int,
                       sample_rate: int = SAMPLE_RATE,
                       band=(5000.0, 10000.0)) -> np.ndarray:
    """White noise band-limited to ``band`` via an FFT brick-wall mask."""
    white = rng.normal(size=num_samples)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(num_samples, d=1.0 / sample_rate)
    spectrum[(freqs < band[0]) | (freqs > band[1])] = 0.0
    shaped = np.fft.irfft(spectrum, n=num_samples)
    return 0.15 * shaped / np.max(np.abs(shaped))


SYNTH_SOURCES = ("noise", "tone")


def synth_clips(n_clips: int, seconds: float = 5.0, seed: int = 0,
                sample_rate: int = SAMPLE_RATE) -> dict[str, list[AudioClip]]:
    """Aligned per-source clip lists for the synthetic separation task."""
    rng = np.random.default_rng(seed)
    num_samples = int(round(seconds * sample_rate))
    clips = {name: [] for name in SYNTH_SOURCES}
    for _ in range(n_clips):
        clips["noise"].append(AudioClip(bandnoise_waveform(rng, num_samples), sample_rate))
        clips["tone"].append(AudioClip(tone_waveform(rng, num_samples), sample_rate))
    return clips


@pytest.fixture(scope="session")
def synth_dataset():
    """20 training clips plus 4 aligned validation clips per source."""
    return {
        "train": synth_clips(20, seed=101),
        "val": synth_clips(4, seed=202),
    }
