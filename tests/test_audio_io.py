"""WAV round-trips, malformed WAV bytes and the dataset directory layout."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from conftest import rng_for
from stemsep.audio_io import (
    SOURCES,
    AudioClip,
    load_split,
    load_track,
    read_wav,
    track_dirs,
    write_wav,
)
from stemsep.errors import DataError


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.float16, np.int16])
def test_audio_clip_keeps_float32_and_converts_the_rest_to_float64(dtype):
    data = np.arange(-3, 3, dtype=dtype).reshape(2, 3)
    clip = AudioClip(data)
    assert clip.data.dtype == (np.float32 if dtype == np.float32 else np.float64)
    assert np.array_equal(clip.data, data)
    if dtype in (np.float32, np.float64):
        assert clip.data is data  # no copy


def test_float32_wav_roundtrip_is_bit_exact(tmp_path):
    samples = rng_for("f32").normal(size=(2, 5000)).astype(np.float32).astype(np.float64)
    clip = AudioClip(samples, 44100)
    path = tmp_path / "x.wav"
    write_wav(path, clip, fmt="float32")
    back = read_wav(path)
    assert back.sample_rate == 44100
    assert back.channels == 2
    assert back.data.dtype == np.float32  # kept, not widened to float64
    assert np.array_equal(back.data, samples)


def test_read_wav_widens_pcm16_to_float64(tmp_path):
    pcm = np.array([[-32768, -1, 0, 1, 32767]], dtype=np.int16)
    wavfile.write(tmp_path / "p.wav", 44100, pcm[0])
    back = read_wav(tmp_path / "p.wav")
    assert back.data.dtype == np.float64
    assert np.array_equal(back.data, pcm / 32768.0)


def test_float32_file_roundtrip_bytes(tmp_path):
    clip = AudioClip(rng_for("bytes").normal(size=4000).astype(np.float32).astype(np.float64))
    a, b = tmp_path / "a.wav", tmp_path / "b.wav"
    write_wav(a, clip, fmt="float32")
    write_wav(b, read_wav(a), fmt="float32")
    assert a.read_bytes() == b.read_bytes()


def transposed_writer(path, clip, fmt):
    """The former writer: a (samples, channels) cast that keeps the
    transposed layout, which scipy then interleaves with a second copy."""
    data = clip.data.T
    if data.shape[1] == 1:
        data = data[:, 0]
    if fmt == "float32":
        wavfile.write(path, clip.sample_rate, data.astype(np.float32))
    else:
        clipped = np.clip(data, -1.0, 32767.0 / 32768.0)
        wavfile.write(path, clip.sample_rate, np.round(clipped * 32768.0).astype(np.int16))


@pytest.mark.parametrize("fmt", ["float32", "pcm16"])
@pytest.mark.parametrize("channels", [1, 2])
def test_write_wav_bytes_equal_the_transposed_writer(tmp_path, channels, fmt):
    # Excursions past full scale, so pcm16 clips at both ends.
    samples = 0.8 * rng_for(f"writer-{channels}-{fmt}").normal(size=(channels, 3001))
    assert samples.max() > 1.0 and samples.min() < -1.0
    for dtype in (np.float32, np.float64):
        clip = AudioClip(samples.astype(dtype), 22050)
        write_wav(tmp_path / "new.wav", clip, fmt=fmt)
        transposed_writer(tmp_path / "old.wav", clip, fmt)
        assert (tmp_path / "new.wav").read_bytes() == (tmp_path / "old.wav").read_bytes(), dtype


def test_pcm16_roundtrip_within_quantization(tmp_path):
    samples = 0.7 * np.sin(np.linspace(0, 40 * np.pi, 8000))
    path = tmp_path / "p.wav"
    write_wav(path, AudioClip(samples), fmt="pcm16")
    back = read_wav(path)
    assert np.max(np.abs(back.channel(0) - samples)) <= 1.0 / 32768.0


def test_mono_shape_and_duration():
    clip = AudioClip(np.zeros(44100))
    assert clip.channels == 1
    assert clip.duration == pytest.approx(1.0)
    assert clip.mono() is clip


def test_stereo_mono_downmix():
    data = np.stack([np.ones(100), np.zeros(100)])
    assert np.allclose(AudioClip(data).mono().channel(0), 0.5)


def test_nonfinite_samples_rejected():
    with pytest.raises(DataError):
        AudioClip(np.array([0.0, np.nan]))


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError):
        read_wav(tmp_path / "nope.wav")


# The 16-byte start of a WAV file: RIFF header and the fmt chunk's ID.
TRUNCATED_WAV = b"RIFF\x24\x00\x00\x00WAVEfmt "


def test_truncated_wav_is_data_error(tmp_path):
    path = tmp_path / "short.wav"
    path.write_bytes(TRUNCATED_WAV)
    with pytest.raises(DataError):
        read_wav(path)


@pytest.fixture(scope="module")
def wav_blobs():
    """A float32 stereo and a PCM16 mono WAV file, as bytes."""
    blobs = []
    rng = rng_for("wav-blobs")
    for data in (rng.normal(size=(300, 2)).astype(np.float32),
                 (1000 * rng.normal(size=300)).astype(np.int16)):
        buffer = io.BytesIO()
        wavfile.write(buffer, 44100, data)
        blobs.append(buffer.getvalue())
    return blobs


@pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_truncated_or_mutated_wav_loads_or_raises_data_error(wav_blobs, tmp_path_factory, data):
    blob = bytearray(data.draw(st.sampled_from(wav_blobs), label="file"))
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="cut")]
    else:
        # Mostly hit the RIFF and fmt headers, where a byte changes meaning.
        stop = data.draw(st.sampled_from([64, len(blob)]), label="region")
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            blob[data.draw(st.integers(0, stop - 1), label="at")] = data.draw(
                st.integers(0, 255), label="byte")
    path = tmp_path_factory.getbasetemp() / "mutant.wav"
    path.write_bytes(bytes(blob))
    try:
        read_wav(path)
    except DataError:
        pass


def make_dataset(tmp_path, split="test", tracks=("alpha", "beta"), seconds=0.2,
                 channels=1, sources=SOURCES, with_mixture=True):
    rng = rng_for("dataset")
    n = int(seconds * 44100)
    for name in tracks:
        d = tmp_path / split / name
        d.mkdir(parents=True)
        stems = {}
        for source in sources:
            stems[source] = 0.1 * rng.normal(size=(channels, n))
            write_wav(d / f"{source}.wav", AudioClip(stems[source]), fmt="float32")
        if with_mixture:
            write_wav(d / "mixture.wav", AudioClip(sum(stems.values())), fmt="float32")
    return tmp_path


def test_load_split_reads_all_tracks(tmp_path):
    make_dataset(tmp_path)
    tracks = load_split(tmp_path, "test")
    assert [t.name for t in tracks] == ["alpha", "beta"]
    assert set(tracks[0].stems) == set(SOURCES)


def test_track_missing_stem_is_data_error(tmp_path):
    make_dataset(tmp_path)
    (tmp_path / "test" / "alpha" / "vocals.wav").unlink()
    with pytest.raises(DataError) as err:
        load_track(tmp_path / "test" / "alpha")
    assert "vocals" in str(err.value)


def test_missing_mixture_uses_stem_sum(tmp_path):
    make_dataset(tmp_path, with_mixture=False)
    track = load_track(tmp_path / "test" / "alpha")
    # The stems read as float32; their sum is taken in float64.
    total = np.zeros(track.stems[SOURCES[0]].data.shape)
    for s in SOURCES:
        total += track.stems[s].data
    assert track.stems[SOURCES[0]].data.dtype == np.float32
    assert track.mixture.data.dtype == np.float64
    assert np.array_equal(track.mixture.data, total)


def test_empty_split_is_data_error(tmp_path):
    (tmp_path / "test").mkdir()
    with pytest.raises(DataError):
        track_dirs(tmp_path, "test")
    with pytest.raises(DataError):
        track_dirs(tmp_path, "train")


def test_length_mismatch_rejected(tmp_path):
    make_dataset(tmp_path)
    short = AudioClip(np.zeros(100))
    write_wav(tmp_path / "test" / "alpha" / "drums.wav", short, fmt="float32")
    with pytest.raises(DataError):
        load_track(tmp_path / "test" / "alpha")
