"""Signal processing: STFT analysis/synthesis, log1p features, Wiener
soft masks, and a simplified signal-to-distortion ratio.

The geometry is fixed: every STFT uses a periodic Hann window of 2048
samples with hop 1024 (half-overlap satisfies the constant-overlap-add
condition exactly) and reflection padding of half a window on both ends,
so a spectrogram carries only its data, sample rate and signal length,
and the inverse transform reconstructs interior samples to better than
1e-6 relative RMS. ``stft`` takes one 1-D channel; callers split stereo
first. Masking is a single-pass power-ratio soft mask applied to the
complex mixture with the mixture's phase; the SDR here is a plain
energy ratio over the whole track, not the full BSS-Eval decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import AudioClip
from .errors import DataError, ShapeError

WINDOW_SIZE = 2048
HOP_SIZE = 1024
FREQ_BINS = WINDOW_SIZE // 2 + 1
WIENER_POWER_FLOOR = 1e-10
SDR_CAP_DB = 100.0


def hann_window() -> np.ndarray:
    """Periodic Hann window: w[n] + w[n + hop] == 1 at half-overlap."""
    n = np.arange(WINDOW_SIZE)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * n / WINDOW_SIZE))


@dataclass
class ComplexSpectrogram:
    """Complex STFT of one audio channel: ``data`` is (bins, frames)."""

    data: np.ndarray
    sample_rate: int
    length: int  # samples in the originating signal; drives exact-length synthesis

    @property
    def bins(self) -> int:
        return self.data.shape[0]

    @property
    def frames(self) -> int:
        return self.data.shape[1]


def stft(samples: np.ndarray, sample_rate: int = 0) -> ComplexSpectrogram:
    """Hann-windowed STFT of a 1-D signal with reflection padding of
    window/2 per side.

    Frame count is 1 + floor((N + window - window) / hop) = 1 + floor(N / hop)
    for an N-sample input.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise DataError(f"stft expects a 1-D signal, got shape {samples.shape}")
    n = samples.size
    if n < WINDOW_SIZE:
        raise DataError(f"signal of {n} samples is shorter than one {WINDOW_SIZE}-sample window")
    padded = np.pad(samples, WINDOW_SIZE // 2, mode="reflect")
    segments = np.lib.stride_tricks.sliding_window_view(padded, WINDOW_SIZE)[::HOP_SIZE]
    segments = segments * hann_window()
    spec = np.fft.rfft(segments, n=WINDOW_SIZE, axis=1).T  # (bins, frames)
    return ComplexSpectrogram(spec, sample_rate, n)


def istft(spec: ComplexSpectrogram) -> AudioClip:
    """Weighted overlap-add inverse with the analysis window as synthesis
    window, normalized by the accumulated squared-window envelope.

    At half-overlap, hop slot k receives the first half of frame k and the
    second half of frame k - 1, so the envelope of every interior slot is
    the same hop-long sum, and the last slot holds only a second half.
    Slot 0 is the reflection padding and is never returned.
    """
    if spec.bins != FREQ_BINS:
        raise ShapeError(f"spectrogram has {spec.bins} bins, expected {FREQ_BINS}")
    window = hann_window()
    segments = np.fft.irfft(spec.data.T, n=WINDOW_SIZE, axis=1)
    segments *= window
    out = np.zeros((spec.frames + 1, HOP_SIZE))
    out[:-1] += segments[:, :HOP_SIZE]
    out[1:] += segments[:, HOP_SIZE:]
    wsq = window * window
    out[1:-1] /= wsq[:HOP_SIZE] + wsq[HOP_SIZE:]
    out[-1] /= np.maximum(wsq[HOP_SIZE:], 1e-12)
    samples = out.reshape(-1)[HOP_SIZE:HOP_SIZE + spec.length]
    if samples.size < spec.length:
        samples = np.pad(samples, (0, spec.length - samples.size))
    return AudioClip(samples, spec.sample_rate)


def log1p_magnitude(spec: ComplexSpectrogram) -> np.ndarray:
    """The model's feature map: log(1 + |X|)."""
    return np.log1p(np.abs(spec.data))


def magnitude_from_features(features: np.ndarray) -> np.ndarray:
    """Invert the feature map back to magnitudes, clipping the negative
    excursions a leaky output nonlinearity can produce."""
    return np.maximum(np.expm1(features), 0.0)


def wiener_masks(source_mags, mixture: ComplexSpectrogram) -> list[ComplexSpectrogram]:
    """Single-pass power-ratio soft masks applied to the complex mixture.

    mask_s = mag_s^2 / max(sum_j mag_j^2, floor); the floor only binds in
    (near-)silent bins, so wherever it does not, the masked sources sum
    exactly to the mixture bin. The mixture phase is inherited.

    The arithmetic runs frame-major, (S, T, F), against ``mixture.data.T``
    (the contiguous ``rfft`` output of ``stft``). Each returned ``data`` is
    the (bins, frames) transpose of a contiguous frame-major array, so the
    ``irfft`` in ``istft`` reads contiguous rows.
    """
    mags = np.asarray(source_mags)
    if mags.ndim != 3:
        raise ShapeError(f"expected source magnitudes of shape (S, F, T), got {mags.shape}")
    if mags.shape[1:] != mixture.data.shape:
        raise ShapeError(f"source magnitudes {mags.shape[1:]} do not match mixture {mixture.data.shape}")
    if np.any(mags < 0):
        raise DataError("negative magnitudes passed to wiener_masks")
    ratios = np.square(mags.transpose(0, 2, 1), dtype=np.float64, order="C")  # (S, T, F) power
    ratios /= np.maximum(ratios.sum(axis=0), WIENER_POWER_FLOOR)
    mixture_tf = mixture.data.T
    return [ComplexSpectrogram((ratio * mixture_tf).T, mixture.sample_rate, mixture.length)
            for ratio in ratios]


def sdr(reference: AudioClip, estimate: AudioClip) -> float | None:
    """Energy-ratio SDR in dB over the full track, averaged per channel.

    10*log10(|s|^2 / |s - s_hat|^2), capped to [-100, +100] dB. Returns
    None ("undefined") when the reference is silent; silent channels of a
    stereo reference are likewise excluded from the channel average.
    """
    if reference.num_samples != estimate.num_samples or reference.channels != estimate.channels:
        raise ShapeError(
            f"reference {reference.data.shape} and estimate {estimate.data.shape} do not align")
    values = []
    for c in range(reference.channels):
        s = reference.channel(c)
        err = s - estimate.channel(c)
        signal_power = float(s @ s)
        if signal_power == 0.0:
            continue
        noise_power = float(err @ err)
        if noise_power == 0.0:
            values.append(SDR_CAP_DB)
            continue
        db = 10.0 * np.log10(signal_power / noise_power)
        values.append(float(np.clip(db, -SDR_CAP_DB, SDR_CAP_DB)))
    if not values:
        return None
    return float(np.mean(values))
