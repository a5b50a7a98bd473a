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

Analysis and synthesis stream in blocks of ``SYNTHESIS_BLOCK_FRAMES``
frames. ``block_frames`` builds the windowed ``rfft`` frames of any frame
range from a local copy of only the samples they cover, so neither a
padded copy of the signal nor, in synthesis, the mixture spectrum is ever
needed whole: ``stft`` writes block after block into its result, and
``wiener_synthesis`` recomputes each block's mixture frames, masks them
and inverts them at once through ``overlap_add``, which carries one hop
of samples between blocks into a caller's output buffer. Masks, ``rfft``
and ``irfft`` act frame by frame and every hop slot sums exactly two
terms, so the blocked result is bit-identical to a whole-signal pass.
Everything runs on the calling thread.

Precision follows the data. ``stft`` analyses in float64 by default and in
float32 on request; a complex64 spectrum is masked with float32 powers and
inverted by a float32 ``irfft`` and overlap-add, a complex128 one entirely
in float64. Every transform is ``scipy.fft``'s: ``np.fft`` computes float32
input in double precision (NumPy 1.x even returns complex128), at five times
the output's size in temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

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
# Frames per block: the working set of ``stft``, ``overlap_add`` and
# ``wiener_synthesis``. For 4 sources over a 120 s channel on a 2-vCPU
# box, synthesis with the mixture frames rebuilt per block takes 0.33,
# 0.29, 0.29, 0.33 and 0.36 s in float32 for blocks of 16, 32, 64, 128 and
# 256 frames (0.62, 0.61, 0.61, 0.64 and 0.69 s in float64), level with
# the STFT plus synthesis it replaces; the STFT takes 0.05 s from 32
# frames up (0.09 to 0.11 s in float64).
SYNTHESIS_BLOCK_FRAMES = 64


def hann_window(dtype=np.float64) -> np.ndarray:
    """Periodic Hann window: w[n] + w[n + hop] == 1 at half-overlap;
    computed in float64 and rounded once to ``dtype``."""
    n = np.arange(WINDOW_SIZE)
    return (0.5 * (1.0 - np.cos(2.0 * np.pi * n / WINDOW_SIZE))).astype(dtype, copy=False)


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


def frame_blocks(frames: int) -> list[slice]:
    """Consecutive slices of at most ``SYNTHESIS_BLOCK_FRAMES`` frames
    covering frames 0 .. frames - 1."""
    return [slice(start, min(start + SYNTHESIS_BLOCK_FRAMES, frames))
            for start in range(0, frames, SYNTHESIS_BLOCK_FRAMES)]


def _channel(samples) -> np.ndarray:
    """``samples`` as a 1-D array of at least one window."""
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise DataError(f"expected a 1-D signal, got shape {samples.shape}")
    if samples.size < WINDOW_SIZE:
        raise DataError(f"signal of {samples.size} samples is shorter than one "
                        f"{WINDOW_SIZE}-sample window")
    return samples


def block_frames(samples: np.ndarray, lo: int, hi: int, dtype) -> np.ndarray:
    """The frame-major (hi - lo, FREQ_BINS) ``rfft`` of frames lo .. hi - 1
    of the 1-D ``samples``, reflection-padded by half a window per side and
    Hann-windowed in ``dtype``.

    Frame t covers samples t * hop - window/2 .. t * hop + window/2 - 1, so
    only those of frames lo .. hi - 1 are copied (and cast) into a local
    buffer, mirrored about the first or last sample where they run past
    the signal as ``np.pad(mode="reflect")`` does. Every frame is the same
    row of a whole-signal pass bit for bit.
    """
    n = samples.size
    start = lo * HOP_SIZE - WINDOW_SIZE // 2
    stop = (hi - 1) * HOP_SIZE + WINDOW_SIZE // 2
    local = np.empty(stop - start, dtype=dtype)
    left, right = max(-start, 0), max(stop - n, 0)
    local[:left] = samples[left:0:-1]
    local[left:local.size - right] = samples[max(start, 0):min(stop, n)]
    local[local.size - right:] = samples[n - 2:n - 2 - right:-1]
    segments = np.lib.stride_tricks.sliding_window_view(local, WINDOW_SIZE)[::HOP_SIZE]
    segments = segments * hann_window(dtype)
    del local
    return scipy.fft.rfft(segments, n=WINDOW_SIZE, axis=1)


def stft(samples: np.ndarray, sample_rate: int = 0, dtype=np.float64) -> ComplexSpectrogram:
    """Hann-windowed STFT of a 1-D signal with reflection padding of
    window/2 per side, computed in ``dtype`` (float64, or float32 for a
    complex64 spectrum).

    Frame count is 1 + floor((N + window - window) / hop) = 1 + floor(N / hop)
    for an N-sample input. Frames are transformed a block at a time
    (``block_frames``) straight into the spectrum: no padded or windowed
    copy of the whole signal exists.
    """
    samples = _channel(samples)
    spectrum = np.empty((1 + samples.size // HOP_SIZE, FREQ_BINS),
                        dtype=np.result_type(dtype, np.complex64))
    for block in frame_blocks(spectrum.shape[0]):
        spectrum[block] = block_frames(samples, block.start, block.stop, dtype)
    return ComplexSpectrogram(spectrum.T, sample_rate, samples.size)  # (bins, frames)


def overlap_add(blocks, out: np.ndarray) -> np.ndarray:
    """Weighted overlap-add inverse of consecutive frame blocks into ``out``,
    with the analysis window as synthesis window, normalized by the
    accumulated squared-window envelope.

    Each block is the frame-major complex spectrum (..., t, FREQ_BINS) of
    the next t frames, and ``out`` is (..., length). The ``irfft`` runs in
    the blocks' precision, and the window, sums and carried samples in
    ``out``'s (float32 for complex64 blocks, as every caller passes them).
    A block takes one batched ``irfft``; only the second half of its last
    frame is carried into the next block. At half-overlap, hop slot k
    receives the first half of frame k and the second half of frame k - 1,
    so the envelope of every interior slot is the same hop-long sum, and
    the last slot holds only a second half. Slot 0 is the reflection
    padding and is never written; samples past the last slot are zero.
    Returns ``out``.
    """
    window = hann_window(out.dtype)
    wsq = window * window
    length = out.shape[-1]

    def write(slots, first_slot):
        start = (first_slot - 1) * HOP_SIZE
        samples = slots.reshape(slots.shape[:-2] + (-1,))
        lo, hi = max(start, 0), min(start + samples.shape[-1], length)
        if lo < hi:
            out[..., lo:hi] = samples[..., lo - start:hi - start]

    tail = np.zeros(out.shape[:-1] + (HOP_SIZE,), dtype=out.dtype)
    slot = 0
    for block in blocks:
        segments = scipy.fft.irfft(block, n=WINDOW_SIZE, axis=-1)
        segments *= window
        frames = segments.shape[-2]
        # Both halves are added onto zeros, so every slot, signed zeros
        # included, equals the whole-spectrogram overlap-add bit for bit.
        slots = np.zeros(segments.shape[:-2] + (frames + 1, HOP_SIZE), dtype=out.dtype)
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


def real_dtype(spectrum: np.ndarray) -> np.dtype:
    """float32 for a complex64 array, float64 for a complex128 one."""
    return np.finfo(spectrum.dtype).dtype


def istft(spec: ComplexSpectrogram) -> AudioClip:
    """Inverse STFT of one channel, exactly ``spec.length`` samples long,
    in the spectrum's precision (see ``overlap_add``)."""
    if spec.bins != FREQ_BINS:
        raise ShapeError(f"spectrogram has {spec.bins} bins, expected {FREQ_BINS}")
    frames = spec.data.T
    samples = overlap_add((frames[block] for block in frame_blocks(spec.frames)),
                          np.empty(spec.length, dtype=real_dtype(spec.data)))
    return AudioClip(samples, spec.sample_rate)


def log1p_magnitude(spec: ComplexSpectrogram) -> np.ndarray:
    """The model's feature map: log(1 + |X|), computed in place in |X|."""
    magnitude = np.abs(spec.data)
    return np.log1p(magnitude, out=magnitude)


def masked_frames(source_mags: np.ndarray, mixture_frames: np.ndarray) -> np.ndarray:
    """Power-ratio soft masks of frame-major (S, t, F) source magnitudes
    applied to the frame-major (t, F) mixture frames: (S, t, F) complex, in
    the mixture's precision.

    mask_s = mag_s^2 / max(sum_j mag_j^2, floor); the floor only binds in
    (near-)silent bins, so wherever it does not, the masked sources sum
    exactly to the mixture bin. The mixture phase is inherited. The
    arithmetic runs frame-major against the contiguous ``rfft`` rows of
    ``stft``, so each frame's ``irfft`` reads a contiguous row.

    Complex128 frames square the magnitudes in float64. Complex64 frames
    first divide each bin by its largest source magnitude, so float32
    powers neither overflow (a magnitude of expm1(60) squares past the
    float32 range) nor lose the ratio; the scaled sum is 1 or more unless
    every source is silent, so there the floor binds only at exact zeros.
    """
    real = real_dtype(mixture_frames)
    if real == np.float64:
        ratios = np.square(source_mags, dtype=real, order="C")  # power
    else:
        peak = np.maximum(source_mags.max(axis=0), np.finfo(real).tiny)
        ratios = np.divide(source_mags, peak, dtype=real, order="C")
        np.square(ratios, out=ratios)
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
            for masked in masked_frames(mags.transpose(0, 2, 1), mixture.data.T)]


def wiener_synthesis(source_features: np.ndarray, samples: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
    """Every source's waveform from its (S, F, T) log1p-magnitude estimate
    of the 1-D mixture ``samples``: magnitudes clipped at
    ``MASK_MAG_FLOOR``, Wiener-masked against the mixture's STFT and
    inverted, one frame block at a time, into ``out`` (S, length), in
    ``out``'s precision.

    Each block's mixture frames are recomputed from the samples they cover
    (``block_frames``), so neither the mixture spectrum nor a whole-song
    mask or masked spectrum ever exists. Bit-identical to ``istft`` of
    each of ``wiener_masks(np.maximum(np.maximum(np.expm1(source_features),
    0), MASK_MAG_FLOOR), stft(samples, dtype=out.dtype))``.
    """
    samples = _channel(samples)
    frames = 1 + samples.size // HOP_SIZE
    if source_features.shape[1:] != (FREQ_BINS, frames):
        raise ShapeError(f"source estimates {source_features.shape[1:]} do not match the "
                         f"mixture's {(FREQ_BINS, frames)} STFT")
    if out.shape != (source_features.shape[0], samples.size):
        raise ShapeError(f"output buffer {out.shape} is not (sources, {samples.size})")

    def block_mags(block):
        # Frame-major from the start: expm1 reads the (S, F, t) block once,
        # and every later pass runs over contiguous rows.
        mags = np.expm1(source_features[..., block].transpose(0, 2, 1), order="C")
        return np.maximum(mags, MASK_MAG_FLOOR, out=mags)

    blocks = (masked_frames(block_mags(block),
                            block_frames(samples, block.start, block.stop, out.dtype))
              for block in frame_blocks(frames))
    return overlap_add(blocks, out)


def sdr(reference: AudioClip, estimate: AudioClip) -> float | None:
    """Energy-ratio SDR in dB over the full track, averaged per channel.

    10*log10(|s|^2 / |s - s_hat|^2), capped to [-100, +100] dB. Returns
    None ("undefined") when the reference is silent; silent channels of a
    stereo reference are likewise excluded from the channel average. Powers
    are float64 sums whatever the clips' dtype.
    """
    if reference.num_samples != estimate.num_samples or reference.channels != estimate.channels:
        raise ShapeError(
            f"reference {reference.data.shape} and estimate {estimate.data.shape} do not align")
    values = []
    for c in range(reference.channels):
        s = reference.channel(c).astype(np.float64, copy=False)
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
