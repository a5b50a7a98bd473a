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

Synthesis streams: ``overlap_add`` inverts consecutive blocks of
``SYNTHESIS_BLOCK_FRAMES`` frames into a caller's output buffer, carrying
one hop of samples between blocks, and ``wiener_synthesis`` masks each
block just before it is inverted, so whole-song separation never holds a
whole-song mask or masked spectrogram. Masks and ``irfft`` act frame by
frame and every hop slot sums exactly two terms, so the blocked result is
bit-identical to a whole-spectrogram pass.
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
# Mask-input magnitude floor: keeps every mixture bin fully distributed
# across stems (conservation) even where the network predicts silence.
# At -80 dBFS it is far below audibility.
MASK_MAG_FLOOR = 1e-4
SDR_CAP_DB = 100.0
# Frames per synthesis block: the working set of ``overlap_add`` and
# ``wiener_synthesis``. For 4 sources over a 120 s channel on a 2-vCPU
# box, blocks of 32, 64 and 128 frames take 0.64, 0.67 and 0.72 s, 256
# frames 0.88 s, and one whole-song block 1.42 s.
SYNTHESIS_BLOCK_FRAMES = 64


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


def frame_blocks(frames: int) -> list[slice]:
    """Consecutive slices of at most ``SYNTHESIS_BLOCK_FRAMES`` frames
    covering frames 0 .. frames - 1."""
    return [slice(start, min(start + SYNTHESIS_BLOCK_FRAMES, frames))
            for start in range(0, frames, SYNTHESIS_BLOCK_FRAMES)]


def overlap_add(blocks, out: np.ndarray) -> np.ndarray:
    """Weighted overlap-add inverse of consecutive frame blocks into ``out``,
    with the analysis window as synthesis window, normalized by the
    accumulated squared-window envelope.

    Each block is the frame-major complex spectrum (..., t, FREQ_BINS) of
    the next t frames, and ``out`` is (..., length). A block takes one
    batched ``irfft``; only the second half of its last frame is carried
    into the next block. At half-overlap, hop slot k receives the first
    half of frame k and the second half of frame k - 1, so the envelope of
    every interior slot is the same hop-long sum, and the last slot holds
    only a second half. Slot 0 is the reflection padding and is never
    written; samples past the last slot are zero. Returns ``out``.
    """
    window = hann_window()
    wsq = window * window
    length = out.shape[-1]

    def write(slots, first_slot):
        start = (first_slot - 1) * HOP_SIZE
        samples = slots.reshape(slots.shape[:-2] + (-1,))
        lo, hi = max(start, 0), min(start + samples.shape[-1], length)
        if lo < hi:
            out[..., lo:hi] = samples[..., lo - start:hi - start]

    tail = np.zeros(out.shape[:-1] + (HOP_SIZE,))
    slot = 0
    for block in blocks:
        segments = np.fft.irfft(block, n=WINDOW_SIZE, axis=-1)
        segments *= window
        frames = segments.shape[-2]
        # Both halves are added onto zeros, so every slot, signed zeros
        # included, equals the whole-spectrogram overlap-add bit for bit.
        slots = np.zeros(segments.shape[:-2] + (frames + 1, HOP_SIZE))
        slots[..., 0, :] = tail
        slots[..., :-1, :] += segments[..., :HOP_SIZE]
        slots[..., 1:, :] += segments[..., HOP_SIZE:]
        tail = slots[..., -1, :]
        done = slots[..., :-1, :]
        done /= wsq[:HOP_SIZE] + wsq[HOP_SIZE:]
        write(done, slot)
        slot += frames
    tail /= np.maximum(wsq[HOP_SIZE:], 1e-12)
    write(tail[..., None, :], slot)
    out[..., slot * HOP_SIZE:] = 0.0
    return out


def istft(spec: ComplexSpectrogram) -> AudioClip:
    """Inverse STFT of one channel, exactly ``spec.length`` samples long
    (see ``overlap_add``)."""
    if spec.bins != FREQ_BINS:
        raise ShapeError(f"spectrogram has {spec.bins} bins, expected {FREQ_BINS}")
    frames = spec.data.T
    samples = overlap_add((frames[block] for block in frame_blocks(spec.frames)),
                          np.empty(spec.length))
    return AudioClip(samples, spec.sample_rate)


def log1p_magnitude(spec: ComplexSpectrogram) -> np.ndarray:
    """The model's feature map: log(1 + |X|)."""
    return np.log1p(np.abs(spec.data))


def masked_frames(source_mags: np.ndarray, mixture_frames: np.ndarray) -> np.ndarray:
    """Power-ratio soft masks of (S, F, t) source magnitudes applied to the
    frame-major (t, F) mixture frames: (S, t, F) complex.

    mask_s = mag_s^2 / max(sum_j mag_j^2, floor); the floor only binds in
    (near-)silent bins, so wherever it does not, the masked sources sum
    exactly to the mixture bin. The mixture phase is inherited. The
    arithmetic runs frame-major against the contiguous ``rfft`` rows of
    ``stft``, so each frame's ``irfft`` reads a contiguous row.
    """
    ratios = np.square(source_mags.transpose(0, 2, 1), dtype=np.float64, order="C")  # power
    ratios /= np.maximum(ratios.sum(axis=0), WIENER_POWER_FLOOR)
    return ratios * mixture_frames


def wiener_masks(source_mags, mixture: ComplexSpectrogram) -> list[ComplexSpectrogram]:
    """Single-pass power-ratio soft masks (``masked_frames``) of (S, F, T)
    source magnitudes applied to the complex mixture, one spectrogram per
    source. Each returned ``data`` is the (bins, frames) transpose of a
    contiguous frame-major array."""
    mags = np.asarray(source_mags)
    if mags.ndim != 3:
        raise ShapeError(f"expected source magnitudes of shape (S, F, T), got {mags.shape}")
    if mags.shape[1:] != mixture.data.shape:
        raise ShapeError(f"source magnitudes {mags.shape[1:]} do not match mixture {mixture.data.shape}")
    if np.any(mags < 0):
        raise DataError("negative magnitudes passed to wiener_masks")
    return [ComplexSpectrogram(masked.T, mixture.sample_rate, mixture.length)
            for masked in masked_frames(mags, mixture.data.T)]


def wiener_synthesis(source_features: np.ndarray, mixture: ComplexSpectrogram,
                     out: np.ndarray) -> np.ndarray:
    """Every source's waveform from its (S, F, T) log1p-magnitude estimate:
    magnitudes clipped at ``MASK_MAG_FLOOR``, Wiener-masked against
    ``mixture`` and inverted, one frame block at a time, into ``out``
    (S, length).

    Bit-identical to ``istft`` of each of ``wiener_masks(np.maximum(
    np.maximum(np.expm1(source_features), 0), MASK_MAG_FLOOR), mixture)``,
    but only one block of masks and masked frames exists at a time.
    """
    if source_features.shape[1:] != mixture.data.shape:
        raise ShapeError(f"source estimates {source_features.shape[1:]} do not match mixture "
                         f"{mixture.data.shape}")
    if out.shape != (source_features.shape[0], mixture.length):
        raise ShapeError(f"output buffer {out.shape} is not (sources, {mixture.length})")
    frames = mixture.data.T
    blocks = (masked_frames(np.maximum(np.expm1(source_features[..., block]), MASK_MAG_FLOOR),
                            frames[block])
              for block in frame_blocks(mixture.frames))
    return overlap_add(blocks, out)


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
