"""separate_song conservation and shape contracts, report generation with
oracle estimates, spectrogram dumps."""

import numpy as np
import pytest

from conftest import rng_for
from stemsep import dsp
from stemsep import tensor as T
from stemsep.audio_io import SOURCES, AudioClip, Track, write_wav
from stemsep.errors import ConfigError, DataError
from stemsep.evaluate import (
    EvalReport,
    EvalRow,
    dump_spectrogram,
    dump_stem_grid,
    evaluate,
    read_spectrogram_dump,
    separate_song,
)
from stemsep.models import (
    ModelBundle,
    ResidualConfig,
    build_enhancer,
    build_separator,
    enhancer_config,
    separator_config,
)

from test_audio_io import TRUNCATED_WAV, make_dataset


def full_bins_bundle(mode="separator", sources=SOURCES, seed=0):
    with T.using_dtype(np.float32):
        cfg = separator_config(
            source_count=len(sources), freq_bins=dsp.FREQ_BINS,
            channels=(8, 6, 4), kernels=(3, 3, 2), strides=(2, 2, 2),
            skip_kind="identity", residual=(mode == "residual"))
        sep = build_separator(cfg, rng=seed)
        residual = ResidualConfig(2) if mode == "residual" else None
        enhancers = None
        if mode == "enhancer":
            enh_cfg = enhancer_config(freq_bins=dsp.FREQ_BINS, channels=(8, 6, 4),
                                      kernels=(3, 3, 2))
            enhancers = [build_enhancer(enh_cfg, rng=seed + 1 + s) for s in range(len(sources))]
        return ModelBundle(mode, sep, enhancers=enhancers, residual=residual,
                           sources=tuple(sources))


def short_song(seconds=0.5, channels=2, seed="song"):
    n = int(seconds * 44100)
    return AudioClip(0.2 * rng_for(seed).normal(size=(channels, n)), 44100)


def test_separate_song_shape_contract():
    bundle = full_bins_bundle()
    song = short_song()
    stems = separate_song(bundle, song)
    assert set(stems) == set(SOURCES) | {"accompaniment"}
    for clip in stems.values():
        assert clip.num_samples == song.num_samples
        assert clip.channels == song.channels


def test_masked_stems_sum_to_mixture_waveform():
    bundle = full_bins_bundle()
    song = short_song(channels=1, seed="conserve")
    stems = separate_song(bundle, song, accompaniment="all4")
    total = sum(stems[s].data for s in SOURCES)
    spec = dsp.stft(song.channel(0), sample_rate=song.sample_rate)
    reference = dsp.istft(spec).data
    rms = np.sqrt(np.mean((total - reference) ** 2)) / np.sqrt(np.mean(reference**2))
    assert rms < 1e-6
    # all4 accompaniment is exactly that sum
    assert np.allclose(stems["accompaniment"].data, total, atol=1e-12)


def test_nonvocal_accompaniment_excludes_vocals():
    bundle = full_bins_bundle()
    song = short_song(channels=1, seed="accomp")
    stems = separate_song(bundle, song, accompaniment="nonvocal")
    expected = sum(stems[s].data for s in SOURCES if s != "vocals")
    assert np.allclose(stems["accompaniment"].data, expected, atol=1e-12)


def test_silent_song_gives_silent_stems():
    bundle = full_bins_bundle()
    stems = separate_song(bundle, AudioClip.silence(44100 // 2))
    for clip in stems.values():
        assert np.all(clip.data == 0)


def test_song_shorter_than_window_rejected():
    bundle = full_bins_bundle()
    with pytest.raises(DataError):
        separate_song(bundle, AudioClip.silence(dsp.WINDOW_SIZE - 1))


def test_residual_bundle_runs_end_to_end():
    bundle = full_bins_bundle(mode="residual")
    stems = separate_song(bundle, short_song(channels=1, seed="res"))
    assert set(stems) == set(SOURCES) | {"accompaniment"}


def test_enhancer_bundle_separates_a_song():
    bundle = full_bins_bundle(mode="enhancer", sources=("noise", "tone"))
    song = short_song(channels=2, seed="enhancer")
    stems = separate_song(bundle, song, accompaniment="all4")
    for clip in stems.values():
        assert clip.num_samples == song.num_samples
        assert clip.channels == song.channels
    total = stems["noise"].data + stems["tone"].data
    for c in range(song.channels):
        reference = dsp.istft(dsp.stft(song.channel(c), sample_rate=song.sample_rate)).data[0]
        rms = np.sqrt(np.mean((total[c] - reference) ** 2)) / np.sqrt(np.mean(reference**2))
        assert rms < 1e-6


def test_bad_accompaniment_mode():
    with pytest.raises(ConfigError):
        separate_song(full_bins_bundle(), short_song(), accompaniment="everything")


# ---------------------------------------------------------------------------
# evaluate


def test_oracle_estimates_hit_cap(tmp_path):
    make_dataset(tmp_path, seconds=0.3)
    report = evaluate(tmp_path, split="test", estimates_dir=tmp_path / "test")
    assert report.rows
    for row in report.rows:
        assert row.sdr_db == 100.0
    agg = report.aggregates()
    assert agg["vocals"]["median"] == 100.0


def test_oracle_estimates_all4_accompaniment_hits_cap(tmp_path):
    # Without accompaniment.wav the estimate is summed from the stems by the
    # same rule as the reference, so oracle stems score the cap under all4 too.
    make_dataset(tmp_path, seconds=0.3, tracks=("alpha",))
    report = evaluate(tmp_path, split="test", estimates_dir=tmp_path / "test",
                      accompaniment="all4")
    accomp = [row for row in report.rows if row.source == "accompaniment"]
    assert len(accomp) == 1 and accomp[0].sdr_db == 100.0


def test_zero_estimates_give_zero_db(tmp_path):
    make_dataset(tmp_path, seconds=0.3, tracks=("alpha",))
    est = tmp_path / "estimates" / "alpha"
    est.mkdir(parents=True)
    n = int(0.3 * 44100)
    for source in SOURCES:
        write_wav(est / f"{source}.wav", AudioClip.silence(n), fmt="float32")
    report = evaluate(tmp_path, split="test", estimates_dir=tmp_path / "estimates")
    for row in report.rows:
        assert row.sdr_db == pytest.approx(0.0, abs=1e-9)


def test_csv_row_format_golden(tmp_path):
    report = EvalReport([
        EvalRow("alpha", "drums", 1.234567),
        EvalRow("alpha", "vocals", None),
    ])
    expected = "track,source,sdr_db\nalpha,drums,1.234567\nalpha,vocals,undefined\n"
    assert report.to_csv() == expected


def test_aggregates_skip_undefined():
    report = EvalReport([
        EvalRow("a", "vocals", 10.0),
        EvalRow("b", "vocals", None),
        EvalRow("c", "vocals", 20.0),
    ])
    agg = report.aggregates()["vocals"]
    assert agg["median"] == 15.0
    assert agg["mean"] == 15.0
    assert agg["count"] == 2


def test_missing_stem_track_skipped(tmp_path):
    make_dataset(tmp_path, seconds=0.3)
    (tmp_path / "test" / "beta" / "bass.wav").unlink()
    report = evaluate(tmp_path, split="test", estimates_dir=tmp_path / "test")
    assert report.skipped == ["beta"]
    assert {row.track for row in report.rows} == {"alpha"}


def test_truncated_wav_track_skipped(tmp_path):
    make_dataset(tmp_path, seconds=0.3)
    (tmp_path / "test" / "beta" / "mixture.wav").write_bytes(TRUNCATED_WAV)
    report = evaluate(tmp_path, split="test", estimates_dir=tmp_path / "test")
    assert report.skipped == ["beta"]
    assert {row.track for row in report.rows} == {"alpha"}
    assert "skipped tracks: beta" in report.to_table()


def test_model_evaluation_produces_rows(tmp_path):
    make_dataset(tmp_path, seconds=0.3, tracks=("alpha",))
    report = evaluate(tmp_path, split="test", model=full_bins_bundle())
    assert {row.source for row in report.rows} == set(SOURCES) | {"accompaniment"}
    assert report.config_echo["mode"] == "separator"


def test_evaluate_requires_exactly_one_input(tmp_path):
    make_dataset(tmp_path, seconds=0.3)
    with pytest.raises(ConfigError):
        evaluate(tmp_path, split="test")
    with pytest.raises(ConfigError):
        evaluate(tmp_path, split="test", model=full_bins_bundle(),
                 estimates_dir=tmp_path / "test")


def test_evaluate_parallel_matches_serial(tmp_path):
    make_dataset(tmp_path, seconds=0.3, tracks=("alpha", "beta", "gamma"))
    bundle = full_bins_bundle()
    serial = evaluate(tmp_path, split="test", model=bundle)
    parallel = evaluate(tmp_path, split="test", model=bundle, jobs=3)
    assert serial.to_csv() == parallel.to_csv()


def test_evaluate_is_pure_with_respect_to_the_model(tmp_path):
    from stemsep.checkpoint import parameter_fingerprint

    make_dataset(tmp_path, seconds=0.3, tracks=("alpha",))
    bundle = full_bins_bundle()
    before = parameter_fingerprint(bundle)
    evaluate(tmp_path, split="test", model=bundle)
    assert parameter_fingerprint(bundle) == before


def test_separate_song_is_deterministic():
    bundle = full_bins_bundle()
    song = short_song(channels=1, seed="determinism")
    first = separate_song(bundle, song)
    second = separate_song(bundle, song)
    for name in first:
        assert np.array_equal(first[name].data, second[name].data)


# ---------------------------------------------------------------------------
# spectrogram dumps


def test_dump_zero_audio_is_zero_matrix(tmp_path):
    path = tmp_path / "zero.txt"
    dump_spectrogram(AudioClip.silence(3 * dsp.WINDOW_SIZE), path)
    matrix = read_spectrogram_dump(path)
    assert matrix.shape[0] == dsp.FREQ_BINS
    assert np.all(matrix == 0)


def test_dump_dims_match_stft_contract(tmp_path):
    n = 4 * dsp.WINDOW_SIZE
    clip = AudioClip(rng_for("dump").normal(size=n))
    path = tmp_path / "m.txt"
    dump_spectrogram(clip, path)
    matrix = read_spectrogram_dump(path)
    assert matrix.shape == (dsp.FREQ_BINS, 1 + n // dsp.HOP_SIZE)


def test_dump_roundtrip_close_to_memory(tmp_path):
    clip = AudioClip(0.3 * rng_for("roundtrip-dump").normal(size=3 * dsp.WINDOW_SIZE))
    expected = dsp.log1p_magnitude(dsp.stft(clip.channel(0), sample_rate=44100))
    path = tmp_path / "rt.txt"
    dump_spectrogram(clip, path)
    matrix = read_spectrogram_dump(path)
    assert np.allclose(matrix, expected, atol=1e-6, rtol=1e-6)


def test_dump_header_line(tmp_path):
    clip = AudioClip.silence(3 * dsp.WINDOW_SIZE)
    path = tmp_path / "h.txt"
    dump_spectrogram(clip, path)
    first = path.read_text().splitlines()[0]
    assert first == f"{dsp.FREQ_BINS} {1 + (3 * dsp.WINDOW_SIZE) // dsp.HOP_SIZE}"


def test_stem_grid_layout(tmp_path):
    n = 3 * dsp.WINDOW_SIZE
    rng = rng_for("grid")
    stems = {s: AudioClip(0.1 * rng.normal(size=n)) for s in SOURCES}
    mixture = AudioClip(sum(c.data for c in stems.values()))
    track = Track("demo", mixture, stems)
    written = dump_stem_grid(track, tmp_path / "grid", model=full_bins_bundle())
    names = {p.name for p in written}
    assert "groundtruth_mixture.txt" in names
    for source in SOURCES:
        assert f"groundtruth_{source}.txt" in names
        assert f"estimate_{source}.txt" in names
