"""separate_song conservation and shape contracts, report generation with
oracle estimates, spectrogram dumps."""

import tracemalloc

import numpy as np
import pytest

from conftest import rng_for
from stemsep import dsp
from stemsep import tensor as T
from stemsep.audio_io import SOURCES, AudioClip, Track, read_wav, write_wav
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
from test_dsp import BLOCK, float32_envelope, samples_for_frames, whole_spectrogram_synthesis


def full_bins_bundle(mode="separator", sources=SOURCES, seed=0, dtype=np.float32):
    with T.using_dtype(dtype):
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


def whole_song_oracle(bundle, song, accompaniment):
    """separate_song before frame-blocked synthesis and model-precision
    stems: whole-song masks and inverse STFTs per channel, stacked in
    float64, and a fresh float64 array for every partial accompaniment
    sum."""
    sources = list(bundle.sources)
    channels = []
    for c in range(song.channels):
        mixture = dsp.stft(song.channel(c), sample_rate=song.sample_rate)
        features = dsp.log1p_magnitude(mixture)
        with T.no_grad():
            estimates = bundle.predict(features).data.reshape((len(sources),) + features.shape)
        channels.append(whole_spectrogram_synthesis(estimates, mixture))
    stems = dict(zip(sources, np.stack(channels, axis=1)))
    nonvocal = [name for name in sources if name != "vocals"] or sources
    accomp = np.zeros_like(song.data)
    for name in (sources if accompaniment == "all4" else nonvocal):
        accomp = accomp + stems[name]
    stems["accompaniment"] = accomp
    return stems


SONG_LENGTHS = {
    "block-1": samples_for_frames(BLOCK - 1, 517),
    "block": samples_for_frames(BLOCK),
    "block+1": samples_for_frames(BLOCK + 1, 1),
    "window": dsp.WINDOW_SIZE,
}


# A float32 model separates in float32 from its STFT on, so its stems and
# accompaniment are bounded against the float64 oracle in float32 ulps of
# the oracle's peak, per sample scaled by ``float32_envelope``. Float32
# synthesis alone stays within 3 ulps (SYNTHESIS_ULPS_32); the rest is the
# model's own response to features from a float32 STFT: this small random
# model predicts near-silence for every source in some bins, where a mask
# is a ratio of tiny magnitudes whose relative error is the estimate's
# error over the estimate (the same 30 ulps with float64 synthesis of
# those estimates). The worst over every case below was 122 ulps for a
# source stem and 56 for an accompaniment.
STEM_ULPS_32 = 160


@pytest.mark.parametrize("length", SONG_LENGTHS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("mode", ["separator", "residual", "enhancer"])
def test_separate_song_bit_equal_to_whole_song_oracle(mode, dtype, length):
    # Stems come back in the model's dtype: a float64 model's equal the
    # oracle bit for bit, a float32 model's are bounded (STEM_ULPS_32).
    bundle = full_bins_bundle(mode=mode, dtype=dtype)
    n = SONG_LENGTHS[length]
    envelope = float32_envelope(n)
    for channels in (1, 2):
        song = AudioClip(0.2 * rng_for(f"oracle-{length}").normal(size=(channels, n)), 44100)
        for accompaniment in ("nonvocal", "all4"):
            stems = separate_song(bundle, song, accompaniment=accompaniment)
            expected = whole_song_oracle(bundle, song, accompaniment)
            assert set(stems) == set(expected)
            for name, want in expected.items():
                got, case = stems[name].data, (channels, accompaniment, name)
                assert got.dtype == dtype, case
                if dtype == np.float64:
                    assert np.array_equal(got, want), case
                else:
                    bound = STEM_ULPS_32 * np.finfo(np.float32).eps * np.max(np.abs(want))
                    assert np.max(np.abs(got - want) * envelope) <= bound, case


# tracemalloc's peak while separating 30 s of stereo, over the song's own
# bytes, with a small float32 model: 8.0 while stems were float64 and the
# features and spectrum outlived their use, 5.5 once they did not, 4.3
# with the float32 transform chain, and 3.8 since synthesis rebuilds the
# mixture frames it needs from the samples, so the spectrum is dropped
# before the network runs.
SEPARATION_PEAK_OVER_SONG = 4.8


def peak_memory_case():
    """A small float32 model and 30 s of float64 stereo."""
    with T.using_dtype(np.float32):
        sep = build_separator(separator_config(channels=(16, 8, 4)), rng=0)
    bundle = ModelBundle("separator", sep, sources=SOURCES)
    return bundle, AudioClip(0.2 * rng_for("peak-memory").normal(size=(2, 30 * 44100)), 44100)


def test_separate_song_peak_memory_is_bounded_by_song_size():
    bundle, song = peak_memory_case()
    tracemalloc.start()
    try:
        stems = separate_song(bundle, song)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SEPARATION_PEAK_OVER_SONG * song.data.nbytes, peak / song.data.nbytes
    # The source stems are float32 views of one shared buffer, not copies.
    buffer = stems[SOURCES[0]].data.base
    assert buffer is not None and buffer.dtype == np.float32
    for name in SOURCES:
        assert stems[name].data.base is buffer
    assert stems["accompaniment"].data.dtype == np.float32


def test_separate_song_holds_no_whole_song_spectrum_past_the_features(monkeypatch):
    # Traced live bytes where the network and synthesis start, and the
    # synthesis's own peak above its start. A whole-song complex spectrum
    # (half the song's bytes here) or a padded copy of a channel (a quarter)
    # kept beside the features, the estimates or the synthesis breaks them.
    bundle, song = peak_memory_case()
    frames = 1 + song.num_samples // dsp.HOP_SIZE
    spectrum_bytes = dsp.FREQ_BINS * frames * np.dtype(np.complex64).itemsize
    stem_bytes = len(SOURCES) * song.data.size * np.dtype(np.float32).itemsize
    seen = {"predict": [], "synthesis": []}

    def predict_spy(features, _real=bundle.predict):
        seen["predict"].append((tracemalloc.get_traced_memory()[0], features.nbytes))
        return _real(features)

    def synthesis_spy(estimates, samples, out, _real=dsp.wiener_synthesis):
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _real(estimates, samples, out)
        seen["synthesis"].append((live, estimates.nbytes, tracemalloc.get_traced_memory()[1] - live))

    monkeypatch.setattr(bundle, "predict", predict_spy)
    monkeypatch.setattr(dsp, "wiener_synthesis", synthesis_spy)
    tracemalloc.start()
    try:
        separate_song(bundle, song)
    finally:
        tracemalloc.stop()
    assert len(seen["predict"]) == len(seen["synthesis"]) == song.channels
    slack = 2**20
    for live, features in seen["predict"]:
        assert live <= stem_bytes + features + slack, (live - stem_bytes - features) / 2**20
    for live, estimates, working in seen["synthesis"]:
        assert live <= stem_bytes + estimates + slack, (live - stem_bytes - estimates) / 2**20
        assert working < spectrum_bytes, working / spectrum_bytes


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


def test_mono_mixture_with_stereo_stems_is_scored(tmp_path):
    # load_track checks lengths, not channel counts: the accompaniment sums
    # broadcast the mono mixture's shape against the stereo stems.
    make_dataset(tmp_path, seconds=0.3, tracks=("alpha",), channels=2)
    track = tmp_path / "test" / "alpha"
    write_wav(track / "mixture.wav", AudioClip(read_wav(track / "mixture.wav").data[:1]),
              fmt="float32")
    for accompaniment in ("nonvocal", "all4"):
        report = evaluate(tmp_path, split="test", estimates_dir=tmp_path / "test",
                          accompaniment=accompaniment)
        assert report.skipped == []
        assert [row.sdr_db for row in report.rows] == [100.0] * (len(SOURCES) + 1)


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


def test_accompaniments_of_float32_stem_files_sum_in_float64(tmp_path):
    # Stem files read as float32; the reference accompaniment and one built
    # from estimate files are float64 sums, so scores do not depend on the
    # files' sample format.
    make_dataset(tmp_path, seconds=0.3, tracks=("alpha",), channels=2)
    est = tmp_path / "estimates" / "alpha"
    est.mkdir(parents=True)
    refs, ests = {}, {}
    for source in SOURCES:
        refs[source] = read_wav(tmp_path / "test" / "alpha" / f"{source}.wav").data
        ests[source] = (refs[source] * np.float32(0.7) + np.float32(1e-3)).astype(np.float32)
        write_wav(est / f"{source}.wav", AudioClip(ests[source]), fmt="float32")
    assert refs[SOURCES[0]].dtype == np.float32
    report = evaluate(tmp_path, split="test", estimates_dir=tmp_path / "estimates")

    def accompaniment(stems):
        total = np.zeros(stems[SOURCES[0]].shape)
        for source in SOURCES:
            if source != "vocals":
                total += stems[source]
        return AudioClip(total)

    want = dsp.sdr(accompaniment(refs), accompaniment(ests))
    assert [row.sdr_db for row in report.rows if row.source == "accompaniment"] == [want]


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
