"""Augmentation against the waveform remix formula, segmentation, the MSE
loss against a quadruple-loop oracle, and training-loop behavior
(reproducibility, descent, early stopping bookkeeping, residual loss
averaging, enhancer freezing)."""

import numpy as np
import pytest

from conftest import SYNTH_SOURCES, rng_for, tiny_config
from stemsep import dsp
from stemsep import tensor as T
from stemsep.audio_io import AudioClip, Track
from stemsep.checkpoint import parameter_fingerprint
from stemsep.errors import ConfigError, DataError, DivergenceError
from stemsep.models import ModelBundle, ResidualConfig, build_separator, collect_state, restore_state
from stemsep.optim import build_optimizer
from stemsep.training import (
    SourcePool,
    TrainConfig,
    clip_spectrum,
    make_batch,
    mse_loss,
    segment_songs,
    split_counts,
    train,
    training_step,
    validation_arrays,
    validation_loss,
)


def tiny_pool(n_clips=3, seconds=0.6, seed=0, sources=("a", "b")):
    """A pool and the waveform clips it was built from."""
    rng = np.random.default_rng(seed)
    n = int(seconds * 44100)
    clips = {name: [AudioClip(0.1 * rng.normal(size=n)) for _ in range(n_clips)]
             for name in sources}
    return SourcePool(tuple(sources), clips, 44100, n), clips


# ---------------------------------------------------------------------------
# mse_loss and its oracle


def mse_oracle(pred, target_mags):
    b, s, f, t = target_mags.shape
    pred = pred.reshape(b, s, f, t)
    total = 0.0
    for bi in range(b):
        for si in range(s):
            for ti in range(t):
                for fi in range(f):
                    diff = pred[bi, si, fi, ti] - np.log1p(target_mags[bi, si, fi, ti])
                    total += diff * diff
    return total / (b * s * t * f)


def test_mse_zero_when_prediction_matches():
    target = np.abs(rng_for("mse-zero").normal(size=(2, 3, 4, 5)))
    pred = np.log1p(target).reshape(2, 12, 5)
    assert float(mse_loss(T.Tensor(pred), target).data) == 0.0


def test_mse_constant_offset():
    target = np.abs(rng_for("mse-const").normal(size=(1, 2, 3, 4)))
    pred = np.log1p(target) + 0.5
    loss = float(mse_loss(T.Tensor(pred.reshape(1, 6, 4)), target).data)
    assert loss == pytest.approx(0.25, rel=1e-12)


def test_mse_matches_quadruple_loop():
    rng = rng_for("mse-loop")
    target = np.abs(rng.normal(size=(2, 2, 5, 3)))
    pred = rng.normal(size=(2, 10, 3))
    loss = float(mse_loss(T.Tensor(pred), target).data)
    assert abs(loss - mse_oracle(pred, target)) < 1e-10


def test_mse_shape_mismatch():
    with pytest.raises(Exception):
        mse_loss(T.Tensor(np.zeros((1, 4, 3))), np.zeros((1, 2, 3, 3)))


def test_mse_gradient():
    rng = rng_for("mse-grad")
    target = np.abs(rng.normal(size=(1, 2, 3, 4)))
    pred = T.Tensor(rng.normal(size=(1, 6, 4)), requires_grad=True)
    assert T.gradient_check(lambda p: mse_loss(p, target), pred, eps=1e-5) < 1e-6


# ---------------------------------------------------------------------------
# Augmentation


def remix_oracle(clips, sources, rng, batch_size):
    """The waveform remix formula: per instance and per source one
    ``rng.integers`` pick, then the STFT of the summed waveforms for the
    features and of each chosen clip for the targets."""
    feats, mags = [], []
    for _ in range(batch_size):
        chosen = [clips[name][int(rng.integers(len(clips[name])))].channel(0)
                  for name in sources]
        feats.append(dsp.log1p_magnitude(dsp.stft(sum(chosen))))
        mags.append(np.stack([np.abs(dsp.stft(wave).data) for wave in chosen]))
    return np.stack(feats), np.stack(mags)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_make_batch_matches_waveform_formula(dtype):
    pool, clips = tiny_pool(n_clips=4, seed=19)
    rng, replay = np.random.default_rng(8), np.random.default_rng(8)
    with T.using_dtype(dtype):
        feats, mags = make_batch(pool, rng, 6)
    want_feats, want_mags = remix_oracle(clips, pool.sources, replay, 6)
    assert feats.dtype == mags.dtype == dtype
    assert np.max(np.abs(feats - want_feats)) <= 1e-6 * np.max(want_feats)
    assert np.max(np.abs(mags - want_mags)) <= 1e-6 * np.max(want_mags)
    assert rng.bit_generator.state == replay.bit_generator.state


def test_validation_arrays_match_waveform_formula():
    _, clips = tiny_pool(n_clips=2, seed=23)
    windows = [{name: clips[name][k] for name in clips} for k in range(2)]
    for (feats, mags), window in zip(validation_arrays(windows, ("a", "b")), windows):
        waves = [window[name].channel(0) for name in ("a", "b")]
        want_feats = dsp.log1p_magnitude(dsp.stft(sum(waves)))
        want_mags = np.stack([np.abs(dsp.stft(wave).data) for wave in waves])
        assert np.max(np.abs(feats - want_feats)) <= 1e-6 * np.max(want_feats)
        assert np.max(np.abs(mags - want_mags)) <= 1e-6 * np.max(want_mags)


def test_single_clip_pools_are_deterministic():
    pool, _ = tiny_pool(n_clips=1)
    f1, m1 = make_batch(pool, np.random.default_rng(0), 2)
    f2, m2 = make_batch(pool, np.random.default_rng(12345), 2)
    assert np.array_equal(f1, f2)
    assert np.array_equal(m1, m2)


def test_mixture_is_bitwise_sum_of_chosen_sources():
    pool, _ = tiny_pool(n_clips=4, seed=7)
    feats, mags = make_batch(pool, np.random.default_rng(3), 3)
    replay = np.random.default_rng(3)
    for b in range(3):
        chosen = [pool.spectra[name][int(replay.integers(4))] for name in pool.sources]
        assert np.array_equal(feats[b], np.log1p(np.abs(chosen[0] + chosen[1])))
        assert np.array_equal(mags[b], np.abs(np.stack(chosen)))


def test_fixed_seed_reproduces_samples():
    pool, _ = tiny_pool(n_clips=5, seed=11)
    a = make_batch(pool, np.random.default_rng(42), 3)
    b = make_batch(pool, np.random.default_rng(42), 3)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_sources_drawn_independently():
    pool, _ = tiny_pool(n_clips=6, seed=13)
    _, mags = make_batch(pool, np.random.default_rng(0), 40)

    def index_of(name, mag):
        return next(i for i, spec in enumerate(pool.spectra[name])
                    if np.array_equal(np.abs(spec), mag))

    indices = {name: [index_of(name, m[s]) for m in mags]
               for s, name in enumerate(pool.sources)}
    assert indices["a"] != indices["b"]


def test_empty_pool_rejected():
    clips = {"a": [], "b": [AudioClip(np.zeros(4 * dsp.WINDOW_SIZE))]}
    with pytest.raises(DataError):
        SourcePool(("a", "b"), clips, 44100, 4 * dsp.WINDOW_SIZE)


@pytest.mark.parametrize("length, rate", [(4 * dsp.WINDOW_SIZE - 1, 44100),
                                          (4 * dsp.WINDOW_SIZE, 8000)])
def test_pool_rejects_inconsistent_clip(length, rate):
    n = 4 * dsp.WINDOW_SIZE
    clips = {"a": [AudioClip(np.zeros(n)), AudioClip(np.zeros(length), rate)]}
    with pytest.raises(DataError):
        SourcePool(("a",), clips, 44100, n)


def test_target_shape_and_nonnegativity():
    pool, _ = tiny_pool()
    feats, mags = make_batch(pool, np.random.default_rng(1), 2)
    assert mags.shape == (2, 2) + feats.shape[1:]
    assert np.all(mags >= 0)


# ---------------------------------------------------------------------------
# Segmentation


def make_track(name, seconds, channels=1, seed=0, sources=SYNTH_SOURCES, sr=44100):
    rng = np.random.default_rng(seed)
    n = int(seconds * sr)
    stems = {s: AudioClip(0.1 * rng.normal(size=(channels, n)), sr) for s in sources}
    mix = AudioClip(sum(c.data for c in stems.values()), sr)
    return Track(name, mix, stems)


def test_seventeen_second_song_gives_three_clips():
    tracks = [make_track("t1", 17.0)]
    pool, _ = segment_songs(tracks, clip_seconds=5.0, val_ratio=0.0, sources=SYNTH_SOURCES)
    assert pool.counts() == {"noise": 3, "tone": 3}


def test_subclips_stay_index_aligned():
    track = make_track("t1", 12.0, seed=5)
    pool, _ = segment_songs([track], clip_seconds=5.0, val_ratio=0.0, sources=SYNTH_SOURCES)
    n = pool.clip_samples
    for k in range(2):
        for name in SYNTH_SOURCES:
            expected = AudioClip(track.stems[name].channel(0)[k * n:(k + 1) * n])
            assert np.array_equal(pool.spectra[name][k], clip_spectrum(expected))


def test_ninety_ten_split():
    assert split_counts(100, val_ratio=0.1) == (90, 10)


def test_segment_songs_split_matches_split_counts():
    for n_songs in range(1, 21):
        # one 50 ms clip (one STFT window) per mono song, so clips count songs
        tracks = [make_track(f"t{i}", 0.05, seed=i) for i in range(n_songs)]
        pool, val = segment_songs(tracks, clip_seconds=0.05, sources=SYNTH_SOURCES)
        assert (pool.counts()["noise"], len(val)) == split_counts(n_songs), n_songs


def test_short_song_skipped_with_warning(caplog):
    tracks = [make_track("long", 11.0), make_track("blip", 2.0, seed=3)]
    with caplog.at_level("WARNING"):
        pool, _ = segment_songs(tracks, clip_seconds=5.0, val_ratio=0.0, sources=SYNTH_SOURCES)
    assert pool.counts()["noise"] == 2
    assert any("blip" in r.message for r in caplog.records)


def test_stereo_channels_contribute_aligned_material():
    tracks = [make_track("st", 6.0, channels=2, seed=9)]
    pool, _ = segment_songs(tracks, clip_seconds=5.0, val_ratio=0.0, sources=SYNTH_SOURCES)
    assert pool.counts()["noise"] == 2  # one window per channel


@pytest.mark.parametrize("rates", [(8000, 8000), (44100, 8000)])
def test_segment_songs_rejects_other_sample_rates(rates):
    # 30 s: long enough for a 5 s clip at the first track's rate
    tracks = [make_track(f"t{i}", 30.0, seed=i, sr=sr) for i, sr in enumerate(rates)]
    with pytest.raises(DataError):
        segment_songs(tracks, clip_seconds=5.0, val_ratio=0.0, sources=SYNTH_SOURCES)


def test_split_is_deterministic_given_seed():
    tracks = [make_track(f"t{i}", 6.0, seed=i) for i in range(5)]
    _, val_a = segment_songs(tracks, val_ratio=0.4, seed=77, sources=SYNTH_SOURCES)
    _, val_b = segment_songs(tracks, val_ratio=0.4, seed=77, sources=SYNTH_SOURCES)
    assert len(val_a) == len(val_b) == 2
    for wa, wb in zip(val_a, val_b):
        assert np.array_equal(wa["tone"].data, wb["tone"].data)


# ---------------------------------------------------------------------------
# Training steps and the loop

FEAT_BINS = 12


def spectral_pool_and_val(seed=0, n_clips=3, n_val=2):
    """A pool whose STFT size stays tiny: clips of 3 windows at 44.1 kHz."""
    rng = np.random.default_rng(seed)
    n = 4 * dsp.WINDOW_SIZE
    names = ("a", "b")
    clips = {name: [AudioClip(0.05 * rng.normal(size=n)) for _ in range(n_clips)]
             for name in names}
    pool = SourcePool(names, clips, 44100, n)
    val = [{name: AudioClip(0.05 * rng.normal(size=n)) for name in names}
           for _ in range(n_val)]
    return pool, val


def small_bundle(mode="separator", seed=0, skip_kind="identity"):
    cfg = tiny_config(skip_kind=skip_kind, freq_bins=dsp.FREQ_BINS, source_count=2,
                      residual=(mode == "residual"))
    sep = build_separator(cfg, rng=seed)
    residual = ResidualConfig(3) if mode == "residual" else None
    return ModelBundle(mode, sep, residual=residual, sources=("a", "b"))


def test_training_step_is_bit_reproducible():
    def run():
        with T.using_dtype(np.float32):
            pool, _ = spectral_pool_and_val(seed=5)
            bundle = small_bundle(seed=9)
            conv, gru = bundle.trainable_groups()
            opt = build_optimizer(conv, gru, 1e-3, 1e-4)
            rng = np.random.default_rng(123)
            losses = []
            for _ in range(10):
                feats, mags = make_batch(pool, rng, 2)
                losses.append(training_step(bundle, opt, feats, mags).loss)
        return losses

    assert run() == run()


def test_one_step_descends_with_backtracking():
    with T.using_dtype(np.float32):
        pool, _ = spectral_pool_and_val(seed=21)
        rng = np.random.default_rng(0)
        feats, mags = make_batch(pool, rng, 2)
        lr = 1e-3
        for _ in range(8):  # halve the rate until the step descends
            bundle = small_bundle(seed=33)
            conv, gru = bundle.trainable_groups()
            opt = build_optimizer(conv, gru, lr, lr / 10.0)
            before = training_step(bundle, opt, feats, mags).loss
            with T.no_grad():
                after_t, _ = _loss_only(bundle, feats, mags)
            if after_t < before:
                return
            lr /= 2.0
        pytest.fail("no learning rate in the backtracking schedule descended")


def _loss_only(bundle, feats, mags):
    from stemsep.training import _forward_loss
    loss, per = _forward_loss(bundle, feats, mags, training=False)
    return float(loss.data), per


def test_residual_training_loss_is_mean_of_iteration_losses():
    with T.using_dtype(np.float32):
        pool, _ = spectral_pool_and_val(seed=8)
        bundle = small_bundle(mode="residual", seed=3)
        conv, gru = bundle.trainable_groups()
        opt = build_optimizer(conv, gru, 1e-3, 1e-4)
        feats, mags = make_batch(pool, np.random.default_rng(4), 2)
        report = training_step(bundle, opt, feats, mags)
        assert report.per_iteration is not None and len(report.per_iteration) == 3
        expected = np.mean(np.array(report.per_iteration, dtype=np.float32))
        assert np.float32(report.loss) == expected


def test_enhancer_training_leaves_separator_untouched():
    from stemsep.models import build_enhancer, enhancer_config
    with T.using_dtype(np.float32):
        pool, val = spectral_pool_and_val(seed=13)
        sep = build_separator(tiny_config(skip_kind="identity", freq_bins=dsp.FREQ_BINS,
                                          source_count=2), rng=1)
        enh_cfg = enhancer_config(freq_bins=dsp.FREQ_BINS, channels=(8, 6, 4),
                                  kernels=(3, 3, 2))
        bundle = ModelBundle("enhancer", sep,
                             enhancers=[build_enhancer(enh_cfg, rng=2 + s) for s in range(2)],
                             sources=("a", "b"))
        before = parameter_fingerprint(sep)
        cfg = TrainConfig(batch_size=2, max_epochs=2, epoch_batches=3, patience=2, seed=5)
        train(bundle, pool, val, cfg)
        assert parameter_fingerprint(sep) == before


def test_train_early_stopping_and_monotone_best_sequence():
    with T.using_dtype(np.float32):
        pool, val = spectral_pool_and_val(seed=17, n_clips=1, n_val=1)
        bundle = small_bundle(seed=29)
        cfg = TrainConfig(batch_size=2, max_epochs=6, epoch_batches=4, patience=2, seed=7)
        ckpt = train(bundle, pool, val, cfg)
    best_sequence = ckpt.meta["best_sequence"]
    assert best_sequence == sorted(best_sequence, reverse=True)
    assert ckpt.meta["best_val_loss"] == best_sequence[-1]
    assert ckpt.meta["step"] <= 24


def test_validation_runs_in_eval_mode_and_mutates_nothing():
    with T.using_dtype(np.float32):
        pool, val = spectral_pool_and_val(seed=31)
        bundle = small_bundle(seed=41, skip_kind="conv")
        # exercise batch norm's eval path too
        cfg_model = tiny_config(skip_kind="conv", norm_kind="batch_norm",
                                freq_bins=dsp.FREQ_BINS, source_count=2)
        bundle = ModelBundle("separator", build_separator(cfg_model, rng=43), sources=("a", "b"))
        conv, gru = bundle.trainable_groups()
        opt = build_optimizer(conv, gru, 1e-3, 1e-4)
        feats, mags = make_batch(pool, np.random.default_rng(0), 2)
        training_step(bundle, opt, feats, mags)  # records running stats
        pairs = validation_arrays(val, pool.sources)
        state_before = collect_state(bundle)
        fp_before = parameter_fingerprint(bundle)
        v1 = validation_loss(bundle, pairs, batch_size=2)
        v2 = validation_loss(bundle, pairs, batch_size=2)
        assert v1 == v2
        assert parameter_fingerprint(bundle) == fp_before
        for name, arr in collect_state(bundle).items():
            assert np.array_equal(arr, state_before[name]), name


def test_divergence_raises_with_snapshot():
    with T.using_dtype(np.float32):
        pool, val = spectral_pool_and_val(seed=37)
        bundle = small_bundle(seed=47)
        bundle.separator.encoder[0].bias.data[0] = np.float32("nan")
        cfg = TrainConfig(batch_size=2, max_epochs=1, epoch_batches=2, patience=1, seed=0)
        with pytest.raises(DivergenceError) as err:
            train(bundle, pool, val, cfg)
        assert err.value.step == 1
        assert len(err.value.loss_history) >= 1


def test_non_finite_loss_leaves_parameters_and_moments_untouched():
    with T.using_dtype(np.float32):
        pool, _ = spectral_pool_and_val(seed=3)
        bundle = small_bundle(seed=5, skip_kind="gru")
        conv, gru = bundle.trainable_groups()
        opt = build_optimizer(conv, gru, 1e-3, 1e-4)
        feats, mags = make_batch(pool, np.random.default_rng(0), 2)
        training_step(bundle, opt, feats, mags)  # leaves non-zero Adam moments
        fingerprint = parameter_fingerprint(bundle)
        moments = {name: arr.copy() for name, arr in opt.state_dict()["arrays"].items()}
        feats[0, 3, 1] = np.nan
        with pytest.raises(DivergenceError) as err:
            training_step(bundle, opt, feats, mags)
        assert np.isnan(err.value.loss_history[-1])
        assert parameter_fingerprint(bundle) == fingerprint
        assert opt.t == 1
        for name, arr in opt.state_dict()["arrays"].items():
            assert np.array_equal(arr, moments[name]), name
        assert len(T.current_tape()) == 0
        feats[0, 3, 1] = 0.0
        assert np.isfinite(training_step(bundle, opt, feats, mags).loss)


def test_non_finite_gradient_leaves_parameters_and_moments_untouched(monkeypatch):
    # A NaN in one conv gradient at a finite loss: the conv group has no
    # clip and Adam's zero-gradient skip passes NaN, so only this check stops it.
    from stemsep import training
    with T.using_dtype(np.float32):
        pool, _ = spectral_pool_and_val(seed=3)
        bundle = small_bundle(seed=5, skip_kind="gru")
        conv, gru = bundle.trainable_groups()
        opt = build_optimizer(conv, gru, 1e-3, 1e-4)
        feats, mags = make_batch(pool, np.random.default_rng(0), 2)
        training_step(bundle, opt, feats, mags)  # leaves non-zero Adam moments
        fingerprint = parameter_fingerprint(bundle)
        moments = {name: arr.copy() for name, arr in opt.state_dict()["arrays"].items()}
        weight = bundle.separator.encoder[1].weight
        real_backward = training.backward

        def poisoned_backward(loss):
            real_backward(loss)
            weight.grad[0, 0, 0] = np.nan

        monkeypatch.setattr(training, "backward", poisoned_backward)
        with pytest.raises(DivergenceError) as err:
            training_step(bundle, opt, feats, mags)
        assert np.isfinite(err.value.loss_history[-1])
        assert parameter_fingerprint(bundle) == fingerprint
        assert opt.t == 1
        for name, arr in opt.state_dict()["arrays"].items():
            assert np.array_equal(arr, moments[name]), name
        assert all(p.grad is None for _, p in opt.parameters())


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(patience=0).validate()


def test_restore_state_roundtrip():
    with T.using_dtype(np.float32):
        bundle = small_bundle(seed=51)
        state = collect_state(bundle)
        for _, p in bundle.separator.named_parameters():
            p.data += 1.0
        restore_state(bundle, state)
        assert parameter_fingerprint(bundle) == parameter_fingerprint(state)
