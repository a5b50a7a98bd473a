"""WAV round-trips and the dataset directory layout."""

import numpy as np
import pytest

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


def test_float32_wav_roundtrip_is_bit_exact(tmp_path):
    samples = rng_for("f32").normal(size=(2, 5000)).astype(np.float32).astype(np.float64)
    clip = AudioClip(samples, 44100)
    path = tmp_path / "x.wav"
    write_wav(path, clip, fmt="float32")
    back = read_wav(path)
    assert back.sample_rate == 44100
    assert back.channels == 2
    assert np.array_equal(back.data.astype(np.float32), samples.astype(np.float32))


def test_float32_file_roundtrip_bytes(tmp_path):
    clip = AudioClip(rng_for("bytes").normal(size=4000).astype(np.float32).astype(np.float64))
    a, b = tmp_path / "a.wav", tmp_path / "b.wav"
    write_wav(a, clip, fmt="float32")
    write_wav(b, read_wav(a), fmt="float32")
    assert a.read_bytes() == b.read_bytes()


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
    total = sum(track.stems[s].data for s in SOURCES)
    assert np.allclose(track.mixture.data, total, atol=1e-7)


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
