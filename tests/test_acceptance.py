"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The scaled-down learning demonstration (criteria 6 and 7) trains a
reduced separator on the synthetic two-source task once per session and
reuses it; everything else runs on purpose-built small inputs. Run with
``pytest tests/test_acceptance.py -v -s`` to watch the lines appear.
"""

import time

import numpy as np
import pytest

from conftest import SYNTH_SOURCES, rng_for, synth_clips, tiny_config
from engine_ops import mul
from stemsep import dsp
from stemsep import tensor as T
from stemsep.audio_io import SOURCES, AudioClip, read_wav, write_wav
from stemsep.checkpoint import (
    load_checkpoint,
    make_checkpoint,
    parameter_fingerprint,
    save_checkpoint,
)
from stemsep.cli import main as cli_main
from stemsep.layers import GRU, BatchNorm1d, conv1d, conv_transpose1d, weight_normalized
from stemsep.models import (
    ModelBundle,
    ResidualConfig,
    build_enhancer,
    build_separator,
    enhancer_config,
    residual_forward,
    separator_config,
)
from stemsep.optim import build_optimizer
from stemsep.training import (
    SourcePool,
    make_batch,
    mse_loss,
    training_step,
    validation_arrays,
    validation_loss,
)
from stemsep.evaluate import separate_song

from test_audio_io import make_dataset
from test_models import composite_gradient_worst_error


def report(number, name, ok, detail=""):
    print(f"[ACCEPTANCE {number}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def reduced_separator_config(skip_kind="gru", recurrence="skips", norm_kind="weight_norm"):
    return separator_config(
        source_count=2, freq_bins=dsp.FREQ_BINS, channels=(64, 32, 16),
        kernels=(5, 5, 3), strides=(2, 2, 2), skip_kind=skip_kind,
        recurrence=recurrence, norm_kind=norm_kind)


def synth_pool(clips):
    return SourcePool(SYNTH_SOURCES, clips, 44100,
                      clips[SYNTH_SOURCES[0]][0].num_samples)


# ---------------------------------------------------------------------------
# Criterion 1: gradient suite, < 2 min, 64-bit, eps 1e-5, error < 1e-4


def test_criterion_1_gradient_suite():
    started = time.time()
    tolerance = 1e-4
    eps = 1e-5
    worst = {}
    with T.using_dtype(np.float64):
        rng = rng_for("accept-grad")

        # leaky ReLU (kept clear of the kink at 0)
        x = rng.normal(size=(4, 12))
        x = np.where(np.abs(x) < 0.1, x + 0.25, x)
        xt = T.Tensor(x, requires_grad=True)
        probe_lr = rng.normal(size=x.shape)
        worst["leaky_relu"] = T.gradient_check(
            lambda t: T.reduce_mean(mul(T.leaky_relu(t, 0.01), T.Tensor(probe_lr))),
            xt, eps=eps)

        # conv1d: input, weight, bias
        xc = T.Tensor(rng.normal(size=(2, 6, 16)), requires_grad=True)
        wc = T.Tensor(rng.normal(size=(4, 6, 5)), requires_grad=True)
        bc = T.Tensor(rng.normal(size=4), requires_grad=True)

        def conv_loss(_):
            out = conv1d(xc, wc, bc, stride=2, padding=(1, 1))
            return T.reduce_mean(mul(out, out))

        worst["conv1d"] = max(
            T.gradient_check(conv_loss, xc, eps=eps, max_coords=24, rng=rng),
            T.gradient_check(conv_loss, wc, eps=eps, max_coords=24, rng=rng),
            T.gradient_check(conv_loss, bc, eps=eps))

        # transposed conv1d
        xt2 = T.Tensor(rng.normal(size=(2, 4, 8)), requires_grad=True)
        wt2 = T.Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
        bt2 = T.Tensor(rng.normal(size=3), requires_grad=True)

        def tconv_loss(_):
            out = conv_transpose1d(xt2, wt2, bt2, stride=2)
            return T.reduce_mean(mul(out, out))

        worst["tconv1d"] = max(
            T.gradient_check(tconv_loss, xt2, eps=eps, max_coords=24, rng=rng),
            T.gradient_check(tconv_loss, wt2, eps=eps, max_coords=24, rng=rng),
            T.gradient_check(tconv_loss, bt2, eps=eps))

        # GRU: all nine parameter matrices and the input
        gru = GRU(5, 4, rng=rng)
        xg = T.Tensor(rng.normal(size=(1, 5, 6)), requires_grad=True)

        def gru_loss(_):
            out = gru(xg)
            return T.reduce_mean(mul(out, out))

        gru_err = T.gradient_check(gru_loss, xg, eps=eps, max_coords=16, rng=rng)
        for _, p in gru.named_parameters(""):
            gru_err = max(gru_err, T.gradient_check(gru_loss, p, eps=eps, max_coords=8, rng=rng))
        worst["gru"] = gru_err

        # weight normalization (probe projection keeps the check non-degenerate)
        v = T.Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
        g = T.Tensor(np.abs(rng.normal(size=4)) + 0.5, requires_grad=True)
        probe = rng.normal(size=(4, 3, 3))

        def wn_loss(_):
            return T.reduce_mean(mul(weight_normalized(v, g), T.Tensor(probe)))

        worst["weight_norm"] = max(T.gradient_check(wn_loss, v, eps=eps),
                                   T.gradient_check(wn_loss, g, eps=eps))

        # batch norm, train mode
        bn = BatchNorm1d(3)
        bn.gamma.data[:] = rng.normal(size=3)
        bn.beta.data[:] = rng.normal(size=3)
        xb = T.Tensor(rng.normal(size=(4, 3, 8)), requires_grad=True)
        probe_bn = rng.normal(size=(4, 3, 8))

        def bn_loss(_):
            return T.reduce_mean(mul(bn(xb, training=True), T.Tensor(probe_bn)))

        worst["batch_norm"] = max(
            T.gradient_check(bn_loss, xb, eps=eps, max_coords=24, rng=rng),
            T.gradient_check(bn_loss, bn.gamma, eps=eps),
            T.gradient_check(bn_loss, bn.beta, eps=eps))

        # full separator forward + MSE composite, both norms
        worst["composite_wn"] = composite_gradient_worst_error(
            "gru", "skips", "weight_norm", t=5, max_coords=4)
        worst["composite_bn"] = composite_gradient_worst_error(
            "gru", "after_tconv4", "batch_norm", t=24, max_coords=4)

    elapsed = time.time() - started
    bad = {k: v for k, v in worst.items() if v >= tolerance}
    detail = (f"max rel err {max(worst.values()):.2e} over {len(worst)} checks, "
              f"{elapsed:.0f}s" + (f"; failures: {bad}" if bad else ""))
    report(1, "gradient suite", not bad and elapsed < 120.0, detail)


# ---------------------------------------------------------------------------
# Criterion 2: STFT round-trip


def test_criterion_2_stft_roundtrip():
    rng = rng_for("accept-stft")
    n = 5 * 44100
    margin = dsp.WINDOW_SIZE
    worst = 0.0
    for _ in range(10):
        x = rng.normal(size=n)
        back = dsp.istft(dsp.stft(x, sample_rate=44100)).channel(0)
        xi, yi = x[margin:-margin], back[margin:-margin]
        rel = np.sqrt(np.mean((xi - yi) ** 2)) / np.sqrt(np.mean(xi**2))
        worst = max(worst, rel)
    report(2, "stft round-trip", worst < 1e-6, f"worst interior rel RMS {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 3: Wiener conservation


def test_criterion_3_wiener_conservation():
    rng = rng_for("accept-wiener")
    worst = 0.0
    for trial in range(5):
        f, t = 257, 24
        mix = dsp.ComplexSpectrogram(rng.normal(size=(f, t)) + 1j * rng.normal(size=(f, t)),
                                     44100, t * dsp.HOP_SIZE)
        mags = np.abs(rng.normal(size=(4, f, t)))
        mags[:, rng.integers(0, f, size=20), :] *= 1e-5  # exercise near-silent bins
        outputs = dsp.wiener_masks(mags, mix)
        total = sum(o.data for o in outputs)
        active = (mags**2).sum(axis=0) > 1e-8
        worst = max(worst, float(np.abs(total - mix.data)[active].max()))
    report(3, "wiener conservation", worst < 1e-9, f"worst active-bin deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 4: residual telescoping and loss averaging, bitwise


def test_criterion_4_residual_telescoping():
    with T.using_dtype(np.float32):
        cfg = tiny_config(skip_kind="gru", freq_bins=dsp.FREQ_BINS, source_count=2,
                          residual=True)
        model = build_separator(cfg, rng=7)
        bundle = ModelBundle("residual", model, residual=ResidualConfig(3),
                             sources=SYNTH_SOURCES)
        pool = synth_pool(synth_clips(2, seconds=1.0, seed=404))
        feats, mags = make_batch(pool, np.random.default_rng(0), 2)

        with T.no_grad():
            out = residual_forward(model, feats, 3)
        telescoping = True
        previous = np.zeros_like(out.totals[0].data)
        for total, residual in zip(out.totals, out.residuals):
            telescoping &= np.array_equal(total.data - previous, residual)
            previous = total.data

        conv, gru = bundle.trainable_groups()
        opt = build_optimizer(conv, gru, 1e-3, 1e-4)
        step = training_step(bundle, opt, feats, mags)
        expected = np.mean(np.array(step.per_iteration, dtype=np.float32))
        loss_matches = np.float32(step.loss) == expected

    report(4, "residual telescoping", telescoping and loss_matches,
           f"telescoping={telescoping}, loss==mean(iteration losses)={loss_matches}")


# ---------------------------------------------------------------------------
# Criterion 5: variant matrix learns


@pytest.fixture(scope="session")
def synth_train_clips():
    return synth_clips(20, seed=101)


def test_criterion_5_variant_matrix(synth_train_clips):
    pool = synth_pool(synth_train_clips)
    failures = []
    slowest = 0
    for skip_kind in ("none", "identity", "conv", "gru"):
        for norm_kind in ("weight_norm", "batch_norm"):
            for recurrence in ("skips", "after_tconv4"):
                with T.using_dtype(np.float32):
                    cfg = reduced_separator_config(skip_kind, recurrence, norm_kind)
                    bundle = ModelBundle("separator", build_separator(cfg, rng=3),
                                         sources=SYNTH_SOURCES)
                    conv, gru = bundle.trainable_groups()
                    opt = build_optimizer(conv, gru, 1e-3, 1e-4)
                    rng = np.random.default_rng(5)
                    first = None
                    recent = []
                    hit = None
                    for step in range(200):
                        feats, mags = make_batch(pool, rng, 4)
                        r = training_step(bundle, opt, feats, mags)
                        if first is None:
                            first = r.loss
                        recent.append(r.loss)
                        if len(recent) >= 3 and np.mean(recent[-3:]) <= 0.5 * first:
                            hit = step + 1
                            break
                    if hit is None:
                        failures.append(f"{skip_kind}/{norm_kind}/{recurrence}")
                    else:
                        slowest = max(slowest, hit)
    report(5, "variant matrix", not failures,
           f"16 variants halved the loss (slowest in {slowest} steps)"
           + (f"; failed: {failures}" if failures else ""))


# ---------------------------------------------------------------------------
# Criterion 6: scaled-down learning run (shared with criterion 7)


@pytest.fixture(scope="session")
def trained_tiny_separator(synth_train_clips):
    pool = synth_pool(synth_train_clips)
    stats = {}
    with T.using_dtype(np.float32):
        bundle = ModelBundle("separator",
                             build_separator(reduced_separator_config(), rng=7),
                             sources=SYNTH_SOURCES)
        conv, gru = bundle.trainable_groups()
        opt = build_optimizer(conv, gru, 1e-3, 1e-4)
        rng = np.random.default_rng(11)
        started = time.time()
        initial = None
        recent = []
        steps = 0
        while steps < 2000:
            feats, mags = make_batch(pool, rng, 10)
            r = training_step(bundle, opt, feats, mags)
            steps += 1
            if initial is None:
                initial = r.loss
            recent.append(r.loss)
            if len(recent) >= 5 and np.mean(recent[-5:]) < 0.1 * initial:
                break
        stats.update(initial_loss=initial, final_loss=float(np.mean(recent[-5:])),
                     steps=steps, elapsed=time.time() - started)
    return bundle, pool, stats


def test_criterion_6_scaled_learning(trained_tiny_separator, synth_train_clips):
    bundle, _, stats = trained_tiny_separator
    loss_ok = stats["final_loss"] < 0.1 * stats["initial_loss"] and stats["steps"] <= 2000
    runtime_ok = stats["elapsed"] < 1800.0

    sdrs = []
    for k in range(5):
        noise = synth_train_clips["noise"][k]
        tone = synth_train_clips["tone"][k]
        mixture = AudioClip(noise.data + tone.data, 44100)
        stems = separate_song(bundle, mixture)
        sdrs.append(dsp.sdr(tone, stems["tone"]))
    median_sdr = float(np.median(sdrs))
    report(6, "scaled-down learning", loss_ok and runtime_ok and median_sdr > 10.0,
           f"loss {stats['initial_loss']:.4f}->{stats['final_loss']:.4f} "
           f"in {stats['steps']} steps ({stats['elapsed']:.0f}s), "
           f"tone SDR median {median_sdr:.1f} dB")


# ---------------------------------------------------------------------------
# Criterion 7: enhancement contract


def test_criterion_7_enhancement_contract(trained_tiny_separator):
    separator_bundle, pool, _ = trained_tiny_separator
    separator = separator_bundle.separator
    val_clips = synth_clips(4, seed=202)
    val_windows = [{name: val_clips[name][i] for name in SYNTH_SOURCES} for i in range(4)]

    with T.using_dtype(np.float32):
        val_pairs = validation_arrays(val_windows, SYNTH_SOURCES)
        separator_val = validation_loss(separator_bundle, val_pairs, batch_size=4)

        fingerprint_before = parameter_fingerprint(separator)
        enh_cfg = enhancer_config(freq_bins=dsp.FREQ_BINS, channels=(32, 16, 8),
                                  kernels=(5, 5, 3), strides=(2, 2, 2))
        bundle = ModelBundle("enhancer", separator,
                             enhancers=[build_enhancer(enh_cfg, rng=100 + s) for s in range(2)],
                             sources=SYNTH_SOURCES)
        conv, gru = bundle.trainable_groups()
        opt = build_optimizer(conv, gru, 1e-3, 1e-4)
        rng = np.random.default_rng(17)
        enhanced_val = None
        for step in range(800):
            feats, mags = make_batch(pool, rng, 10)
            training_step(bundle, opt, feats, mags)
            if (step + 1) % 25 == 0:
                enhanced_val = validation_loss(bundle, val_pairs, batch_size=4)
                if enhanced_val < separator_val:
                    break
        frozen = parameter_fingerprint(separator) == fingerprint_before

    improved = enhanced_val is not None and enhanced_val < separator_val
    report(7, "enhancement contract", frozen and improved,
           f"separator hash unchanged={frozen}, "
           f"val MSE {separator_val:.6f} -> {enhanced_val:.6f}")


# ---------------------------------------------------------------------------
# Criterion 8: end-to-end CLI


def test_criterion_8_cli_end_to_end(tmp_path):
    # separate: a 30 s stereo WAV in, 4 stems + accompaniment out, exact length
    with T.using_dtype(np.float32):
        cfg = separator_config(source_count=4, freq_bins=dsp.FREQ_BINS,
                               channels=(8, 6, 4), kernels=(3, 3, 2), strides=(2, 2, 2),
                               skip_kind="identity")
        bundle = ModelBundle("separator", build_separator(cfg, rng=0), sources=SOURCES)
    ckpt_path = tmp_path / "model.ssck"
    save_checkpoint(ckpt_path, make_checkpoint(bundle, meta={"seed": 0, "step": 0}))

    n = 30 * 44100
    song = AudioClip(0.1 * rng_for("accept-cli").normal(size=(2, n)), 44100)
    write_wav(tmp_path / "song.wav", song, fmt="float32")
    stems_dir = tmp_path / "stems"
    sep_code = cli_main(["separate", "--checkpoint", str(ckpt_path),
                         "--input", str(tmp_path / "song.wav"),
                         "--out-dir", str(stems_dir)])
    lengths_ok = sep_code == 0
    for name in list(SOURCES) + ["accompaniment"]:
        clip = read_wav(stems_dir / f"{name}.wav")
        lengths_ok &= clip.num_samples == n and clip.channels == 2

    # evaluate with oracle estimates: every row at the +100 dB cap
    make_dataset(tmp_path / "data", split="test", tracks=("alpha", "beta"), seconds=0.4)
    report_a, report_b = tmp_path / "a.csv", tmp_path / "b.csv"
    eval_args = ["evaluate", "--dataset", str(tmp_path / "data"),
                 "--estimates-dir", str(tmp_path / "data" / "test")]
    code_a = cli_main(eval_args + ["--out", str(report_a)])
    code_b = cli_main(eval_args + ["--out", str(report_b)])
    rows = report_a.read_text().splitlines()
    capped = all(line.endswith("100.000000") for line in rows[1:])
    deterministic = report_a.read_bytes() == report_b.read_bytes()

    report(8, "end-to-end CLI",
           lengths_ok and code_a == code_b == 0 and capped and deterministic,
           f"stems exact-length={lengths_ok}, oracle rows capped={capped}, "
           f"byte-identical reports={deterministic}")


# ---------------------------------------------------------------------------
# Criterion 9: checkpoint round-trip


def test_criterion_9_checkpoint_roundtrip(tmp_path):
    with T.using_dtype(np.float32):
        cfg = tiny_config(skip_kind="gru", norm_kind="batch_norm")
        bundle = ModelBundle("separator", build_separator(cfg, rng=9), sources=("a", "b"))
        conv, gru = bundle.trainable_groups()
        opt = build_optimizer(conv, gru, 1e-3, 1e-4)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 12, 16)).astype(np.float32)
        target = np.abs(rng.normal(size=(2, 2, 12, 16))).astype(np.float32)
        training_step(bundle, opt, T.Tensor(x, dtype=np.float32).data, target)

        path_a = tmp_path / "a.ssck"
        path_b = tmp_path / "b.ssck"
        save_checkpoint(path_a, make_checkpoint(bundle, opt, meta={"seed": 1, "step": 1}))
        loaded = load_checkpoint(path_a)
        save_checkpoint(path_b, loaded)
        bytes_identical = path_a.read_bytes() == path_b.read_bytes()

        from stemsep.checkpoint import bundle_from_checkpoint
        restored = bundle_from_checkpoint(loaded)
        probe = rng.normal(size=(12, 40)).astype(np.float32)
        with T.no_grad():
            before = bundle.separator.forward(probe).data
            after = restored.separator.forward(probe).data
        forward_identical = np.array_equal(before, after)

    report(9, "checkpoint round-trip", bytes_identical and forward_identical,
           f"save-load-save bytes identical={bytes_identical}, "
           f"forward bit-identical={forward_identical}")
