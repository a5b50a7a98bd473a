"""STFT/iSTFT against a direct DFT-sum oracle and round-trips; Wiener
mask conservation; blocked Wiener synthesis against the whole-spectrogram
formulas and its working memory; block frames from local copies and any
block size bit-equal to one whole-signal block; energy-ratio SDR
contracts; and a source scan that keeps the package to FFT calls NumPy
1.24 runs."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import rng_for
from stemsep import dsp
from stemsep.audio_io import AudioClip
from stemsep.errors import DataError, ShapeError


def dft_frame_oracle(padded, frame_index):
    """Direct windowed DFT sum of one analysis frame."""
    w = dsp.hann_window()
    start = frame_index * dsp.HOP_SIZE
    seg = padded[start:start + dsp.WINDOW_SIZE] * w
    n = np.arange(dsp.WINDOW_SIZE)
    out = np.empty(dsp.FREQ_BINS, dtype=complex)
    for f in range(dsp.FREQ_BINS):
        out[f] = np.sum(seg * np.exp(-2j * np.pi * f * n / dsp.WINDOW_SIZE))
    return out


def stft_index_oracle(samples):
    """The STFT framed by an explicit (frames, window) fancy index."""
    padded = np.pad(samples, dsp.WINDOW_SIZE // 2, mode="reflect")
    frames = 1 + (padded.size - dsp.WINDOW_SIZE) // dsp.HOP_SIZE
    starts = np.arange(frames) * dsp.HOP_SIZE
    segments = padded[starts[:, None] + np.arange(dsp.WINDOW_SIZE)] * dsp.hann_window()
    return np.fft.rfft(segments, n=dsp.WINDOW_SIZE, axis=1).T


def istft_loop_oracle(spec):
    """Frame-by-frame overlap-add, normalized by the squared-window envelope."""
    window = dsp.hann_window()
    total = (spec.frames - 1) * dsp.HOP_SIZE + dsp.WINDOW_SIZE
    out = np.zeros(total)
    envelope = np.zeros(total)
    segments = np.fft.irfft(spec.data.T, n=dsp.WINDOW_SIZE, axis=1) * window
    for t in range(spec.frames):
        start = t * dsp.HOP_SIZE
        out[start:start + dsp.WINDOW_SIZE] += segments[t]
        envelope[start:start + dsp.WINDOW_SIZE] += window * window
    out /= np.maximum(envelope, 1e-12)
    half = dsp.WINDOW_SIZE // 2
    return out[half:half + spec.length]


def samples_for_frames(frames, extra=0):
    """A signal length whose STFT has ``frames`` frames (1 + n // hop);
    ``extra`` < hop samples spill into the last hop slot."""
    return (frames - 1) * dsp.HOP_SIZE + extra


BLOCK = dsp.SYNTHESIS_BLOCK_FRAMES


def interior_rel_rms(x, y, margin=dsp.WINDOW_SIZE):
    xi = x[margin:-margin]
    yi = y[margin:-margin]
    return np.sqrt(np.mean((xi - yi) ** 2)) / np.sqrt(np.mean(xi**2))


# ---------------------------------------------------------------------------
# stft


def test_stft_of_zeros_is_zero():
    spec = dsp.stft(np.zeros(4 * dsp.WINDOW_SIZE), sample_rate=44100)
    assert spec.bins == 1025
    assert np.all(spec.data == 0)


def test_stft_frame_count_contract():
    n = 5 * 44100
    spec = dsp.stft(rng_for("frames").normal(size=n), sample_rate=44100)
    assert spec.frames == 1 + n // dsp.HOP_SIZE
    assert spec.length == n


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**16), st.integers(dsp.WINDOW_SIZE, 6 * dsp.WINDOW_SIZE))
def test_stft_bit_equal_to_index_framing(seed, n):
    x = np.random.default_rng(seed).normal(size=n)
    assert np.array_equal(dsp.stft(x, sample_rate=44100).data, stft_index_oracle(x))


def test_stft_in_float32_is_complex64_and_holds_only_frames_and_spectrum():
    # scipy.fft transforms float32 in single precision on every NumPy line;
    # np.fft.rfft would return complex128 (NumPy 1.x) or build about five
    # times the output in double-precision temporaries (NumPy 2.x).
    x = rng_for("stft-float32").normal(size=samples_for_frames(400, 300)).astype(np.float32)
    oracle = stft_index_oracle(x.astype(np.float64))
    tracemalloc.start()
    try:
        spec = dsp.stft(x, sample_rate=44100, dtype=np.float32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.data.dtype == np.complex64
    windowed_frames = spec.frames * dsp.WINDOW_SIZE * 4
    assert peak <= windowed_frames + spec.data.nbytes + 65536, peak
    # Rounding of the transform is relative to the frame, not to each bin.
    error = np.max(np.abs(spec.data - oracle)) / np.max(np.abs(oracle))
    assert error <= 4 * np.finfo(np.float32).eps, error


def test_stft_shorter_than_window_errors():
    with pytest.raises(DataError):
        dsp.stft(np.zeros(dsp.WINDOW_SIZE - 1), sample_rate=44100)


def test_stft_impulse_at_frame_center_is_flat():
    n = 8 * dsp.WINDOW_SIZE
    x = np.zeros(n)
    # Padded position 3072 = frame 2 start (2048) + window center (1024).
    x[2048] = 1.0
    spec = dsp.stft(x, sample_rate=44100)
    center_value = dsp.hann_window()[dsp.WINDOW_SIZE // 2]
    mags = np.abs(spec.data[:, 2])
    assert np.allclose(mags, center_value, atol=1e-9)
    padded = np.pad(x, dsp.WINDOW_SIZE // 2, mode="reflect")
    assert np.allclose(spec.data[:, 2], dft_frame_oracle(padded, 2), atol=1e-9)


def test_stft_sinusoid_peaks_at_its_bin():
    k = 40
    n = 8 * dsp.WINDOW_SIZE
    t = np.arange(n)
    x = np.cos(2 * np.pi * k * t / dsp.WINDOW_SIZE)
    spec = dsp.stft(x, sample_rate=44100)
    frame = 4
    mags = np.abs(spec.data[:, frame])
    assert int(np.argmax(mags)) == k
    padded = np.pad(x, dsp.WINDOW_SIZE // 2, mode="reflect")
    assert np.allclose(spec.data[:, frame], dft_frame_oracle(padded, frame), atol=1e-8)


# ---------------------------------------------------------------------------
# istft


def test_istft_of_zero_spectrogram_is_silence():
    spec = dsp.stft(np.zeros(3 * dsp.WINDOW_SIZE), sample_rate=44100)
    out = dsp.istft(spec)
    assert np.all(out.data == 0)
    assert out.num_samples == 3 * dsp.WINDOW_SIZE


def test_istft_rejects_wrong_bin_count():
    spec = dsp.stft(np.zeros(3 * dsp.WINDOW_SIZE), sample_rate=44100)
    spec.data = spec.data[:-1]
    with pytest.raises(ShapeError):
        dsp.istft(spec)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**16), st.integers(dsp.WINDOW_SIZE, 6 * dsp.WINDOW_SIZE))
def test_istft_bit_equal_to_frame_loop(seed, n):
    rng = np.random.default_rng(seed)
    spec = dsp.stft(rng.normal(size=n), sample_rate=44100)
    spec.data = spec.data * rng.uniform(0.0, 2.0, size=spec.data.shape)  # not a valid STFT
    assert np.array_equal(dsp.istft(spec).channel(0), istft_loop_oracle(spec))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**16), st.integers(dsp.WINDOW_SIZE, samples_for_frames(3 * BLOCK + 2)))
@example(1, samples_for_frames(BLOCK - 1, 517))
@example(2, samples_for_frames(BLOCK))
@example(3, samples_for_frames(BLOCK + 1, 1))
def test_istft_bit_equal_to_frame_loop_across_blocks(seed, n):
    rng = np.random.default_rng(seed)
    spec = dsp.stft(rng.normal(size=n), sample_rate=44100)
    spec.data = spec.data * rng.uniform(0.0, 2.0, size=spec.data.shape)  # not a valid STFT
    assert np.array_equal(dsp.istft(spec).channel(0), istft_loop_oracle(spec))


def test_istft_zero_fills_past_the_last_frame():
    spec = dsp.stft(rng_for("short-spec").normal(size=4 * dsp.HOP_SIZE), sample_rate=44100)
    spec.length = 6 * dsp.HOP_SIZE + 5  # its 5 frames cover only 5 hops
    covered = istft_loop_oracle(spec)
    out = dsp.istft(spec).channel(0)
    assert covered.size == 5 * dsp.HOP_SIZE and out.size == spec.length
    assert np.array_equal(out[:covered.size], covered)
    assert not out[covered.size:].any()


def test_roundtrip_white_noise():
    n = 3 * 44100
    x = rng_for("roundtrip").normal(size=n)
    back = dsp.istft(dsp.stft(x, sample_rate=44100)).channel(0)
    assert back.size == n
    assert interior_rel_rms(x, back) < 1e-6


def test_roundtrip_linearity():
    n = 5 * dsp.WINDOW_SIZE
    rng = rng_for("linearity")
    x, y = rng.normal(size=n), rng.normal(size=n)
    sx, sy = dsp.stft(x, sample_rate=44100), dsp.stft(y, sample_rate=44100)
    summed = dsp.ComplexSpectrogram(sx.data + sy.data, 44100, n)
    back = dsp.istft(summed).channel(0)
    assert interior_rel_rms(x + y, back) < 1e-6


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**16), st.integers(4 * dsp.WINDOW_SIZE, 6 * dsp.WINDOW_SIZE))
def test_roundtrip_property(seed, n):
    x = np.random.default_rng(seed).normal(size=n)
    back = dsp.istft(dsp.stft(x, sample_rate=44100)).channel(0)
    assert back.size == n
    assert interior_rel_rms(x, back) < 1e-6


def test_feature_map_inverse():
    mags = np.linspace(0.0, 1e4, 2048).astype(np.float32)
    back = np.expm1(np.log1p(mags))
    assert np.allclose(back, mags, rtol=1e-6, atol=1e-6)


def test_log1p_magnitude_is_bit_equal_and_peaks_at_one_result_array():
    spec = dsp.stft(rng_for("log1p-memory").normal(size=samples_for_frames(200)),
                    sample_rate=44100)
    oracle = np.log1p(np.abs(spec.data))
    tracemalloc.start()
    try:
        features = dsp.log1p_magnitude(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert features.dtype == np.float64
    assert np.array_equal(features.view(np.uint64), oracle.view(np.uint64))
    assert features.nbytes <= peak <= features.nbytes + 4096


def magnitude_from_features(features):
    """Invert the feature map back to magnitudes, clipping the negative
    excursions a leaky output nonlinearity can produce."""
    return np.maximum(np.expm1(features), 0.0)


def test_magnitude_from_features_clips_negatives():
    out = magnitude_from_features(np.array([-0.5, 0.0, 1.0]))
    assert out[0] == 0.0 and out[1] == 0.0 and out[2] == pytest.approx(np.expm1(1.0))


# ---------------------------------------------------------------------------
# wiener masks


def make_mixture(f=16, t=8, seed="mix"):
    rng = rng_for(seed)
    data = rng.normal(size=(f, t)) + 1j * rng.normal(size=(f, t))
    return dsp.ComplexSpectrogram(data, 44100, t * dsp.HOP_SIZE)


def test_equal_magnitudes_split_evenly():
    mix = make_mixture()
    mags = np.ones((2,) + mix.data.shape)
    out = dsp.wiener_masks(mags, mix)
    assert np.allclose(out[0].data, 0.5 * mix.data, atol=1e-12)
    assert np.allclose(out[1].data, 0.5 * mix.data, atol=1e-12)


def test_zero_source_gets_nothing():
    mix = make_mixture(seed="mix-zero")
    mags = np.stack([np.zeros(mix.data.shape), np.ones(mix.data.shape)])
    out = dsp.wiener_masks(mags, mix)
    assert np.all(out[0].data == 0)
    assert np.allclose(out[1].data, mix.data, atol=1e-12)


def test_mask_conservation():
    mix = make_mixture(f=64, t=12, seed="mix-conserve")
    mags = np.abs(rng_for("conserve-mags").normal(size=(4,) + mix.data.shape))
    out = dsp.wiener_masks(mags, mix)
    total = sum(o.data for o in out)
    power = (mags**2).sum(axis=0)
    active = power > 1e-8
    assert active.any()
    assert np.allclose(total[active], mix.data[active], atol=1e-9)


def test_negative_magnitudes_rejected():
    mix = make_mixture(seed="mix-neg")
    mags = -np.ones((1,) + mix.data.shape)
    with pytest.raises(DataError):
        dsp.wiener_masks(mags, mix)


def test_mismatched_shapes_rejected():
    mix = make_mixture()
    with pytest.raises(ShapeError):
        dsp.wiener_masks(np.ones((2, 4, 4)), mix)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**16))
def test_mask_conservation_property(seed):
    rng = np.random.default_rng(seed)
    f, t = 8, 4
    mix = dsp.ComplexSpectrogram(rng.normal(size=(f, t)) + 1j * rng.normal(size=(f, t)),
                                 44100, t * dsp.HOP_SIZE)
    mags = np.abs(rng.normal(size=(3, f, t))) + 1e-3
    total = sum(o.data for o in dsp.wiener_masks(mags, mix))
    assert np.allclose(total, mix.data, atol=1e-9)


def bins_major_wiener(source_mags, mixture):
    """The formula ``wiener_masks`` replaced: a float64 copy of the
    magnitudes, then power, sum and ratios laid out (S, bins, frames)."""
    mags = np.asarray(source_mags, dtype=np.float64)
    power = mags * mags
    denom = np.maximum(power.sum(axis=0), dsp.WIENER_POWER_FLOOR)
    return [(power[s] / denom) * mixture.data for s in range(mags.shape[0])]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), hops=st.integers(2, 40), sources=st.integers(1, 4),
       single=st.booleans())
def test_frame_major_wiener_and_istft_match_bins_major_formula(seed, hops, sources, single):
    rng = np.random.default_rng(seed)
    n = hops * dsp.HOP_SIZE + int(rng.integers(0, dsp.HOP_SIZE))
    mix = dsp.stft(rng.normal(size=n), sample_rate=44100)
    mags = rng.random((sources,) + mix.data.shape) * np.abs(mix.data)
    mags[:, rng.random(mix.data.shape) < 0.1] = 0.0  # silent bins: the power floor binds
    if single:
        mags = mags.astype(np.float32)  # what separate_song passes
    masked = dsp.wiener_masks(mags, mix)
    for got, want in zip(masked, bins_major_wiener(mags, mix), strict=True):
        assert np.array_equal(got.data, want)
        assert got.data.T.flags["C_CONTIGUOUS"]  # istft's irfft reads contiguous rows
        reference = dsp.ComplexSpectrogram(want, mix.sample_rate, mix.length)
        assert np.array_equal(dsp.istft(got).data, dsp.istft(reference).data)


def whole_spectrogram_synthesis(features, mixture):
    """Every source's waveform the unblocked way: whole-spectrogram
    magnitudes and masks, then the frame-loop inverse per source."""
    mags = np.maximum(magnitude_from_features(features), dsp.MASK_MAG_FLOOR)
    return np.stack([istft_loop_oracle(dsp.ComplexSpectrogram(masked, mixture.sample_rate,
                                                              mixture.length))
                     for masked in bins_major_wiener(mags, mixture)])


def float32_envelope(n):
    """Per-sample scale of float32 synthesis error for an n-sample signal:
    rounding in a frame's spectrum spreads evenly over the frame, and the
    overlap-add divides it by the synthesis envelope. Inside the signal
    that is about 1; the last n mod hop samples are covered only by the
    last frame's window tail, which decays towards 2e-6."""
    last = (1 + n // dsp.HOP_SIZE - 1) * dsp.HOP_SIZE
    scale = np.ones(n)
    scale[last:] = dsp.hann_window()[dsp.HOP_SIZE:dsp.HOP_SIZE + n - last]
    return scale


# Float32 synthesis of float32 estimates against a complex64 STFT, within
# this many float32 ulps of the float64 synthesis's peak, per sample
# scaled by ``float32_envelope``: the worst over 1,000 seeds of the test
# below was 3.1 ulps.
SYNTHESIS_ULPS_32 = 4


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sources=st.integers(1, 4),
       n=st.integers(dsp.WINDOW_SIZE, samples_for_frames(3 * BLOCK + 2)), single=st.booleans())
@example(seed=1, sources=4, n=samples_for_frames(BLOCK - 1, 517), single=True)
@example(seed=2, sources=2, n=samples_for_frames(BLOCK), single=False)
@example(seed=3, sources=3, n=samples_for_frames(BLOCK + 1, 1), single=True)
def test_wiener_synthesis_bit_equal_to_whole_spectrogram(seed, sources, n, single):
    # Float64 synthesis is the whole-spectrogram one bit for bit; float32
    # synthesis (what separate_song runs for a float32 model) is bounded
    # against that same float64 oracle.
    rng = np.random.default_rng(seed)
    signal = rng.normal(size=n)
    mixture = dsp.stft(signal, sample_rate=44100)
    features = rng.normal(0.0, 1.5, size=(sources,) + mixture.data.shape)  # negative excursions
    features[:, rng.random(mixture.data.shape) < 0.05] = -np.inf  # magnitude 0: the floors bind
    features[0, 5, int(rng.integers(mixture.frames))] = np.nan
    dtype = np.float32 if single else np.float64
    features = features.astype(dtype)
    want = whole_spectrogram_synthesis(features, mixture)
    out = np.full((sources, n), 7.0, dtype=dtype)
    dsp.wiener_synthesis(features, signal, out)
    assert np.isnan(out).any()
    if not single:
        assert np.array_equal(out, want, equal_nan=True)
        return
    assert np.array_equal(np.isnan(out), np.isnan(want))
    error = np.nan_to_num(np.abs(out - want)) * float32_envelope(n)
    assert np.max(error) <= SYNTHESIS_ULPS_32 * np.finfo(np.float32).eps * np.nanmax(np.abs(want))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_wiener_synthesis_of_loud_estimates_stays_finite(dtype):
    # A log1p estimate of 60 is a magnitude of 1.1e26, whose square
    # overflows float32: masks must not square it unscaled.
    rng = rng_for("loud-estimate")
    signal = rng.normal(size=samples_for_frames(2 * BLOCK, 7))
    mixture = dsp.stft(signal, sample_rate=44100, dtype=dtype)
    features = rng.normal(0.0, 1.0, size=(3,) + mixture.data.shape).astype(dtype)
    features[0, 100, 10] = 60.0
    features[:, 200, 20] = np.log1p(np.finfo(np.float32).max) - 0.01  # every source at the limit
    out = np.empty((3, mixture.length), dtype=dtype)
    dsp.wiener_synthesis(features, signal, out)
    assert np.isfinite(out).all()
    back = dsp.istft(mixture).channel(0)
    assert interior_rel_rms(back, out.sum(axis=0)) < 1e-6


def test_wiener_synthesis_rejects_mismatched_shapes():
    signal = np.zeros(3 * dsp.WINDOW_SIZE)
    mixture = dsp.stft(signal, sample_rate=44100)
    features = np.zeros((2,) + mixture.data.shape)
    with pytest.raises(ShapeError):
        dsp.wiener_synthesis(features[:, :, :-1], signal, np.empty((2, mixture.length)))
    with pytest.raises(ShapeError):
        dsp.wiener_synthesis(features, signal, np.empty((3, mixture.length)))


def synthesis_peak_bytes(frames, sources, dtype):
    """tracemalloc's peak while ``wiener_synthesis`` runs in ``dtype`` over
    a song of ``frames`` frames; inputs and the output buffer exist
    beforehand."""
    rng = rng_for(f"synthesis-memory-{frames}")
    signal = rng.normal(size=samples_for_frames(frames))
    features = rng.random((sources, dsp.FREQ_BINS, frames), dtype=np.float32).astype(dtype)
    out = np.empty((sources, signal.size), dtype=dtype)
    tracemalloc.start()
    try:
        dsp.wiener_synthesis(features, signal, out)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wiener_synthesis_working_memory_does_not_grow_with_frames(monkeypatch):
    # A complex64 mixture is masked and inverted in float32 blocks, a
    # complex128 one in float64 blocks; neither grows with the song.
    inverted = []

    def irfft_spy(x, *args, _real=dsp.scipy.fft.irfft, **kwargs):
        out = _real(x, *args, **kwargs)
        inverted.append((x.dtype, out.dtype))
        return out

    monkeypatch.setattr(dsp.scipy.fft, "irfft", irfft_spy)
    sources = 4
    for dtype in (np.float32, np.float64):
        itemsize = np.dtype(dtype).itemsize
        # One block's masked frames (complex) and their irfft output (real).
        block_bytes = sources * BLOCK * (dsp.FREQ_BINS * 2 + dsp.WINDOW_SIZE) * itemsize
        inverted.clear()
        short = synthesis_peak_bytes(2 * BLOCK, sources, dtype)
        long = synthesis_peak_bytes(8 * BLOCK, sources, dtype)
        assert short > block_bytes // 2  # the trace sees numpy's buffers
        assert long - short <= block_bytes
        assert short <= 3 * block_bytes, (dtype, short / block_bytes)
        assert set(inverted) == {(np.result_type(dtype, np.complex64), np.dtype(dtype))}


# ---------------------------------------------------------------------------
# frame blocks


def padded_frames_oracle(samples, dtype):
    """Every frame's ``rfft`` from the whole reflect-padded signal."""
    padded = np.pad(np.asarray(samples, dtype=dtype), dsp.WINDOW_SIZE // 2, mode="reflect")
    segments = np.lib.stride_tricks.sliding_window_view(padded, dsp.WINDOW_SIZE)[::dsp.HOP_SIZE]
    return dsp.scipy.fft.rfft(segments * dsp.hann_window(dtype), n=dsp.WINDOW_SIZE, axis=1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [dsp.WINDOW_SIZE, dsp.WINDOW_SIZE + 1, 3000,
                               2 * dsp.WINDOW_SIZE - 1, samples_for_frames(9, 17)])
def test_block_frames_from_local_copies_equal_the_whole_padded_signal(n, dtype):
    # The first and last frames reach into the reflection padding; below two
    # windows a frame reaches into both.
    samples = rng_for(f"block-frames-{n}").normal(size=n)
    want = padded_frames_oracle(samples, dtype)
    frames = want.shape[0]
    for lo, hi in {(0, 1), (0, 2), (0, frames), (frames - 1, frames), (frames - 2, frames),
                   (1, frames - 1), (frames // 2, frames // 2 + 1)}:
        if lo < hi:
            got = dsp.block_frames(samples, lo, hi, dtype)
            assert got.dtype == np.result_type(dtype, np.complex64)
            assert np.array_equal(got, want[lo:hi]), (lo, hi)


def one_block_results(signal, features, dtype):
    """``stft`` and ``wiener_synthesis`` as one whole-signal block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dsp, "SYNTHESIS_BLOCK_FRAMES", features.shape[-1])
        spectrum = dsp.stft(signal, sample_rate=44100, dtype=dtype).data
        out = dsp.wiener_synthesis(features, signal,
                                   np.empty((features.shape[0], signal.size), dtype=dtype))
    return spectrum, out


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), block=st.sampled_from([1, 2, 3, 5, 8, BLOCK]),
       frames=st.integers(3, 3 * BLOCK + 2), extra=st.integers(0, dsp.HOP_SIZE - 1),
       single=st.booleans())
@example(seed=1, block=BLOCK, frames=3, extra=0, single=True)  # one window
@example(seed=2, block=4, frames=BLOCK - 1, extra=5, single=False)
@example(seed=3, block=BLOCK // 8, frames=BLOCK, extra=0, single=True)
@example(seed=4, block=2, frames=BLOCK + 1, extra=1023, single=True)
@example(seed=5, block=4, frames=4 * 5, extra=0, single=False)
@example(seed=6, block=8, frames=8 * 8, extra=3, single=True)
def test_stft_and_wiener_synthesis_bit_equal_across_block_sizes(seed, block, frames, extra,
                                                                single):
    # Any block size gives the whole-signal result bit for bit: the spectrum
    # is the whole padded signal's, and synthesis that of a single block.
    # The examples put the last block boundary on the last frame (frames a
    # multiple of the block) and the first length holds exactly one window.
    dtype = np.float32 if single else np.float64
    rng = np.random.default_rng(seed)
    signal = rng.normal(size=max(samples_for_frames(frames, extra), dsp.WINDOW_SIZE))
    sources = int(rng.integers(1, 4))
    features = rng.normal(0.0, 1.5, size=(sources, dsp.FREQ_BINS, frames)).astype(dtype)
    features[:, rng.random((dsp.FREQ_BINS, frames)) < 0.05] = -np.inf  # the floors bind
    want_spectrum, want_out = one_block_results(signal, features, dtype)
    assert np.array_equal(want_spectrum, padded_frames_oracle(signal, dtype).T)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dsp, "SYNTHESIS_BLOCK_FRAMES", block)
        spectrum = dsp.stft(signal, sample_rate=44100, dtype=dtype).data
        out = dsp.wiener_synthesis(features, signal, np.full_like(want_out, 7.0))
    assert np.array_equal(spectrum, want_spectrum)
    assert np.array_equal(out, want_out)


# ---------------------------------------------------------------------------
# sdr


def test_sdr_perfect_estimate_hits_cap():
    x = AudioClip(rng_for("sdr-perfect").normal(size=1000))
    assert dsp.sdr(x, x) == 100.0


def test_sdr_zero_estimate_is_zero_db():
    x = AudioClip(rng_for("sdr-zero").normal(size=1000))
    silent = AudioClip(np.zeros(1000))
    assert dsp.sdr(x, silent) == pytest.approx(0.0, abs=1e-12)


def test_sdr_known_noise_ratio():
    rng = rng_for("sdr-ratio")
    s = rng.normal(size=5000)
    noise = rng.normal(size=5000)
    noise *= np.sqrt((s @ s) / (10.0 * (noise @ noise)))
    estimate = AudioClip(s + noise)
    assert dsp.sdr(AudioClip(s), estimate) == pytest.approx(10.0, abs=1e-9)


def test_sdr_scale_sensitivity():
    s = rng_for("sdr-scale").normal(size=2000)
    assert dsp.sdr(AudioClip(s), AudioClip(2.0 * s)) == pytest.approx(0.0, abs=1e-12)


def test_sdr_silent_reference_is_undefined():
    silent = AudioClip(np.zeros(100))
    est = AudioClip(np.ones(100))
    assert dsp.sdr(silent, est) is None


def test_sdr_stereo_averages_channels():
    rng = rng_for("sdr-stereo")
    s = rng.normal(size=(2, 3000))
    ref = AudioClip(s)
    est = AudioClip(np.stack([s[0], np.zeros(3000)]))
    per_channel = [100.0, 0.0]
    assert dsp.sdr(ref, est) == pytest.approx(np.mean(per_channel), abs=1e-9)


def test_sdr_and_mono_of_float32_clips_equal_their_float64_values():
    rng = rng_for("sdr-float32")
    ref32 = rng.normal(size=(2, 3000)).astype(np.float32)
    est32 = (ref32 + 0.1 * rng.normal(size=(2, 3000))).astype(np.float32)
    ref64, est64 = ref32.astype(np.float64), est32.astype(np.float64)
    want = dsp.sdr(AudioClip(ref64), AudioClip(est64))
    for ref, est in [(ref32, est32), (ref32, est64), (ref64, est32)]:
        assert dsp.sdr(AudioClip(ref), AudioClip(est)) == want
    mono = AudioClip(ref32).mono().data
    assert mono.dtype == np.float64
    assert np.array_equal(mono, AudioClip(ref64).mono().data)


def test_sdr_length_mismatch_rejected():
    with pytest.raises(ShapeError):
        dsp.sdr(AudioClip(np.ones(10)), AudioClip(np.ones(11)))


# ---------------------------------------------------------------------------
# NumPy floor

FFT_NAMES = {"fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2",
             "rfft2", "irfft2", "hfft", "ihfft"}


def _dotted(node) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def test_package_source_keeps_to_what_numpy_1_24_runs():
    # pyproject.toml allows numpy>=1.24, and nothing runs the suite on NumPy
    # 1.x. There ``np.fft`` returns complex128 for float32 input, and
    # scipy.fft's transforms take no ``out=``: the package uses neither.
    package = Path(dsp.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted(node.func)
            where = f"{path.name}:{node.lineno} {name}"
            if name.startswith(("np.fft.", "numpy.fft.")):
                found.append(where)
            elif name.rsplit(".", 1)[-1] in FFT_NAMES and any(kw.arg == "out" for kw in node.keywords):
                found.append(where + "(out=...)")
    assert found == []
    assert len(list(package.glob("*.py"))) > 10

