"""Separator/enhancer assembly: shape contracts, the closed-form parameter
count oracle, gradient flow, residual telescoping, and variant matrix."""

import numpy as np
import pytest

from conftest import bits, eval_forward, rng_for, tiny_config
from engine_ops import mul, reduce_sum
from model_oracle import pad_and_crop_forward
from stemsep import tensor as T
from stemsep.errors import ConfigError, ShapeError
from stemsep.layers import NORM_KINDS
from stemsep.models import (
    BUNDLE_MODES,
    RECURRENCE_KINDS,
    SKIP_KINDS,
    ModelBundle,
    ModelConfig,
    ResidualConfig,
    build_enhancer,
    build_separator,
    enhancer_config,
    residual_forward,
    separator_config,
)
from stemsep.training import mse_loss


@pytest.fixture(autouse=True)
def _float64_default():
    with T.using_dtype(np.float64):
        yield


# ---------------------------------------------------------------------------
# Parameter count oracle


def conv_param_count(c_in, c_out, k, norm):
    count = c_out * c_in * k + c_out
    if norm == "weight_norm":
        count += c_out
    elif norm == "batch_norm":
        count += 2 * c_out
    return count


def gru_param_count(c_in, hidden):
    return 3 * (hidden * c_in + hidden * hidden + hidden)


def model_param_count(cfg: ModelConfig):
    total = 0
    c = cfg.input_channels
    for channels, kernel, _ in cfg.encoder_specs:
        total += conv_param_count(c, channels, kernel, cfg.norm_kind)
        c = channels
    for channels, kernel, _ in cfg.decoder_specs:
        total += conv_param_count(c, channels, kernel, cfg.norm_kind)
        c = channels
    for skip_channels in (cfg.encoder_specs[0][0], cfg.encoder_specs[1][0]):
        if cfg.skip_kind == "conv":
            total += conv_param_count(skip_channels, skip_channels, 1, cfg.norm_kind)
        elif cfg.skip_kind == "gru":
            total += gru_param_count(skip_channels, skip_channels)
    if cfg.recurrence == "after_tconv4":
        width = cfg.decoder_specs[0][0]
        total += gru_param_count(width, width)
    return total


# ---------------------------------------------------------------------------
# Construction and shapes


def test_all_variants_share_output_shape():
    rng = rng_for("variants")
    x = rng.normal(size=(12, 16))
    shapes = set()
    for skip_kind in ("none", "identity", "conv", "gru"):
        for recurrence in ("skips", "after_tconv4"):
            model = build_separator(tiny_config(skip_kind, recurrence), rng=1)
            out = eval_forward(model, x)
            shapes.add(out.shape)
    assert shapes == {(2 * 12, 16)}


def test_parameter_count_ordering():
    counts = {}
    for skip_kind in ("none", "identity", "conv", "gru"):
        model = build_separator(tiny_config(skip_kind), rng=0)
        counts[skip_kind] = model.parameter_count()
        assert counts[skip_kind] == model_param_count(model.cfg)
    assert counts["none"] == counts["identity"]
    assert counts["identity"] < counts["conv"] < counts["gru"]


def test_after_tconv4_adds_one_gru():
    base = build_separator(tiny_config("identity", "skips"), rng=0)
    extended = build_separator(tiny_config("identity", "after_tconv4"), rng=0)
    width = base.cfg.decoder_specs[0][0]
    assert extended.parameter_count() - base.parameter_count() == gru_param_count(width, width)


def test_zero_input_finite_output():
    model = build_separator(tiny_config("gru"), rng=3)
    out = eval_forward(model, np.zeros((12, 16)))
    assert np.isfinite(out).all()


def test_norm_swap_changes_only_norm_parameter_names():
    names_wn = {n for n, _ in build_separator(tiny_config("conv", norm_kind="weight_norm"), rng=0).named_parameters()}
    names_bn = {n for n, _ in build_separator(tiny_config("conv", norm_kind="batch_norm"), rng=0).named_parameters()}
    only_wn = {n for n in names_wn - names_bn}
    only_bn = {n for n in names_bn - names_wn}
    assert all(n.endswith("weight_g") for n in only_wn)
    assert all(".bn." in n for n in only_bn)


def test_invalid_channel_arithmetic_names_offending_layer():
    cfg = separator_config(source_count=2, freq_bins=12, channels=(8, 6, 4),
                           kernels=(3, 3, 2), strides=(2, 2, 2))
    broken = ModelConfig(cfg.encoder_specs,
                         ((5, 2, 2), cfg.decoder_specs[1], cfg.decoder_specs[2]),
                         skip_kind="identity", input_channels=12, freq_bins=12, source_count=2)
    with pytest.raises(ConfigError) as err:
        build_separator(broken)
    assert "decoder layer 1" in str(err.value)


@pytest.mark.parametrize("layer", [1, 2, 3])
@pytest.mark.parametrize("field", [1, 2])
def test_decoder_must_mirror_encoder_kernels_and_strides(layer, field):
    # Decoder layer i returns the length encoder layer 4 - i consumed, which
    # only a transposed conv with that layer's kernel and stride can.
    cfg = tiny_config("identity")
    decoder = [list(spec) for spec in cfg.decoder_specs]
    decoder[layer - 1][field] += 1
    broken = ModelConfig(cfg.encoder_specs, tuple(map(tuple, decoder)), skip_kind="identity",
                         input_channels=12, freq_bins=12, source_count=2)
    with pytest.raises(ConfigError) as err:
        build_separator(broken)
    assert f"decoder layer {layer}" in str(err.value)


@pytest.mark.parametrize("slope", [-0.01, 1.01])
def test_leaky_slope_outside_the_unit_interval_rejected(slope):
    # The layers' activation epilogue, max(a, slope * a), is a leaky ReLU
    # only for 0 <= slope <= 1; a checkpoint's config is checked on load.
    cfg = tiny_config()
    broken = ModelConfig(cfg.encoder_specs, cfg.decoder_specs, input_channels=12, freq_bins=12,
                         source_count=2, leaky_slope=slope)
    with pytest.raises(ConfigError):
        build_separator(broken)


def test_wrong_input_channel_count_rejected():
    model = build_separator(tiny_config(), rng=0)
    with pytest.raises(ShapeError):
        eval_forward(model, np.zeros((13, 16)))


# ---------------------------------------------------------------------------
# separate


def test_separate_shape_contract_default_model():
    # The full-size model: (1025, T) in, (4*1025, T) out.
    model = build_separator(
        separator_config(channels=(12, 10, 8), kernels=(5, 5, 3)), rng=0)
    out = eval_forward(model, rng_for("full-shape").normal(size=(1025, 64)) * 0.1)
    assert out.shape == (4 * 1025, 64)


def test_separate_is_deterministic():
    model = build_separator(tiny_config("gru"), rng=5)
    x = rng_for("determ").normal(size=(12, 16))
    assert np.array_equal(eval_forward(model, x), eval_forward(model, x))


@pytest.mark.parametrize("t", [7, 16, 23, 31])
def test_time_extent_preserved_for_arbitrary_lengths(t):
    model = build_separator(tiny_config("identity"), rng=2)
    out = eval_forward(model, rng_for(f"len-{t}").normal(size=(12, t)))
    assert out.shape == (24, t)


def test_batched_forward_matches_single():
    model = build_separator(tiny_config("gru", "after_tconv4"), rng=7)
    x = rng_for("batch-match").normal(size=(3, 12, 16))
    with T.no_grad():
        batched = model.forward(x).data
    for i in range(3):
        assert np.allclose(batched[i], eval_forward(model, x[i]), atol=1e-12)


def _forward_and_grads(forward, model, x, probe):
    out = forward(x)
    T.backward(reduce_sum(mul(out, T.Tensor(probe))))
    grads = {name: p.grad for name, p in model.named_parameters()}
    for _, p in model.named_parameters():
        p.zero_grad()
    return out.data, grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("norm", NORM_KINDS)
@pytest.mark.parametrize("recurrence", ["skips", "after_tconv4"])
@pytest.mark.parametrize("skip_kind", SKIP_KINDS)
def test_forward_bit_equal_to_pad_and_crop_oracle(skip_kind, recurrence, norm, dtype):
    # Batch norm runs in eval mode: in training mode a decoder layer's batch
    # statistics now cover only the frames it returns, not the cropped tail.
    training = norm == "weight_norm"
    with T.using_dtype(dtype):
        model = build_separator(tiny_config(skip_kind, recurrence, norm), rng=19)
        rng = rng_for(f"oracle-{skip_kind}-{recurrence}-{norm}")
        for prefix, layer in model.modules():
            for name, buf in layer.named_buffers(prefix):
                layer.load_buffer(name, rng.uniform(0.5, 1.5, size=buf.shape).astype(dtype))
        for t in (7, 16, 23, 31):
            x = rng.normal(size=(2, 12, t)).astype(dtype)
            probe = rng.normal(size=(2, 24, t)).astype(dtype)
            out, grads = _forward_and_grads(lambda v: model.forward(v, training), model, x, probe)
            want_out, want_grads = _forward_and_grads(
                lambda v: pad_and_crop_forward(model, v, training), model, x, probe)
            assert out.dtype == dtype
            assert np.array_equal(bits(out), bits(want_out)), t
            for name, grad in grads.items():
                want = want_grads[name]
                if name.startswith("decoder.") and name.endswith(("bias", "gamma", "beta")):
                    # A per-channel sum over (batch, time) that no longer adds the
                    # cropped tail's zeros: numpy's pairwise sum may group it
                    # differently (at t = 31, 7 frames against 8).
                    bound = 8 * np.finfo(dtype).eps * np.max(np.abs(want))
                    assert np.max(np.abs(grad - want)) <= bound, (t, name)
                else:
                    assert np.array_equal(bits(grad), bits(want)), (t, name)


def test_training_tape_holds_no_pad_or_crop_op():
    # At t = 16 the second encoder layer needs a one-frame pad and the last
    # two decoder layers a crop; only the layers (each activating its own
    # output), the skip adds and the loss are left on the tape.
    model = build_separator(tiny_config("gru"), rng=23)
    rng = rng_for("tape-count")
    x = rng.normal(size=(2, 12, 16))
    target = np.abs(rng.normal(size=(2, 2, 12, 16)))
    tape = T.current_tape()
    tape.clear()
    mse_loss(model.forward(x, training=True), target)
    convs = activations = 6  # each weight-norm layer normalizes inside its one op
    grus, skip_adds, loss = 2, 2, 1
    ops = convs + grus + skip_adds + loss
    assert len(tape) == ops == 11
    tape.clear()
    mse_loss(pad_and_crop_forward(model, x, training=True), target)
    # The oracle's separate activations, its pad concat and two crops.
    assert len(tape) == ops + activations + 3
    tape.clear()


# ---------------------------------------------------------------------------
# Gradient flow


@pytest.mark.parametrize("skip_kind,recurrence,norm", [
    ("none", "skips", "weight_norm"),
    ("identity", "skips", "batch_norm"),
    ("conv", "after_tconv4", "weight_norm"),
    ("gru", "skips", "weight_norm"),
    ("gru", "after_tconv4", "batch_norm"),
])
def test_gradient_reaches_every_parameter(skip_kind, recurrence, norm):
    model = build_separator(tiny_config(skip_kind, recurrence, norm), rng=11)
    rng = rng_for(f"flow-{skip_kind}-{recurrence}-{norm}")
    x = rng.normal(size=(2, 12, 16))
    target = np.abs(rng.normal(size=(2, 2, 12, 16)))
    loss = mse_loss(model.forward(x, training=True), target)
    T.backward(loss)
    for name, p in model.named_parameters():
        assert p.grad is not None, f"{name} got no gradient"
        assert np.any(p.grad != 0.0), f"{name} gradient is identically zero"


def composite_gradient_worst_error(skip_kind, recurrence, norm, t=5, max_coords=4):
    """Worst finite-difference error across every parameter of a tiny model.

    Conditioning matters more than the point chosen: targets sit near the
    model's own output so the loss (and its evaluation noise) stays small,
    and batch-norm shifts are nudged off the leaky-ReLU kink at zero.
    """
    model = build_separator(tiny_config(skip_kind, recurrence, norm), rng=13)
    rng = rng_for(f"composite-{skip_kind}-{recurrence}-{norm}")
    x = np.abs(rng.normal(size=(12, t)))
    for name, p in model.named_parameters():
        if name.endswith("bn.beta"):
            p.data += 0.1 * rng.normal(size=p.data.shape)
    with T.no_grad():
        pred0 = model.forward(x, training=True).data
    jitter = 0.05 * rng.normal(size=pred0.shape)
    target = np.maximum(np.expm1(pred0) + jitter, 0.0).reshape(1, 2, 12, t)

    def loss(_):
        pred = model.forward(x, training=True)
        return mse_loss(T.reshape(pred, (1,) + pred.data.shape), target)

    worst = 0.0
    for name, p in model.named_parameters():
        err = T.gradient_check(loss, p, eps=1e-5, max_coords=max_coords, rng=rng_for(name))
        worst = max(worst, err)
    return worst


@pytest.mark.parametrize("skip_kind,recurrence,norm,t", [
    ("gru", "skips", "weight_norm", 1),  # single-frame input
    ("gru", "skips", "weight_norm", 5),
    ("identity", "after_tconv4", "weight_norm", 5),
    ("conv", "skips", "batch_norm", 24),
    ("gru", "after_tconv4", "batch_norm", 24),
])
def test_composite_model_gradient_check(skip_kind, recurrence, norm, t):
    assert composite_gradient_worst_error(skip_kind, recurrence, norm, t) < 1e-4


# ---------------------------------------------------------------------------
# Residual refinement


def residual_model(iterations=3):
    cfg = tiny_config(residual=True)
    return build_separator(cfg, rng=17), ResidualConfig(iterations)


def test_residual_single_iteration_base_case():
    model, _ = residual_model()
    x = rng_for("residual-base").normal(size=(12, 16))
    out = residual_forward(model, x, iterations=1)
    stacked = np.concatenate([x, np.zeros((24, 16))], axis=0)
    direct = eval_forward(model, stacked)
    assert np.array_equal(out.totals[0].data, direct)
    assert np.array_equal(out.residuals[0], direct)


def test_residual_telescoping_bitwise():
    model, rc = residual_model(3)
    x = rng_for("residual-tele").normal(size=(12, 16))
    with T.no_grad():
        out = residual_forward(model, x, rc.iterations)
    assert len(out.totals) == 3
    previous = np.zeros_like(out.totals[0].data)
    for total, residual in zip(out.totals, out.residuals):
        assert np.array_equal(total.data - previous, residual)
        previous = total.data


def test_residual_channel_mismatch_rejected():
    model = build_separator(tiny_config(), rng=0)  # not a residual model
    with pytest.raises(ConfigError):
        residual_forward(model, np.zeros((12, 16)), iterations=2)


def test_residual_iterations_validated():
    model, _ = residual_model()
    with pytest.raises(ConfigError):
        residual_forward(model, np.zeros((12, 16)), iterations=0)
    with pytest.raises(ConfigError):
        ResidualConfig(0)


# ---------------------------------------------------------------------------
# Enhancer


def test_enhancer_shape_roundtrip():
    cfg = enhancer_config(freq_bins=12, channels=(8, 6, 4), kernels=(3, 3, 2))
    enhancer = build_enhancer(cfg, rng=19)
    out = eval_forward(enhancer, rng_for("enh").normal(size=(12, 16)))
    assert out.shape == (12, 16)


def test_enhancer_rejects_multi_source_config():
    with pytest.raises(ConfigError):
        build_enhancer(tiny_config("conv"), rng=0)


def test_enhancer_bundle_freezes_separator():
    sep = build_separator(tiny_config("identity"), rng=23)
    cfg = enhancer_config(freq_bins=12, channels=(8, 6, 4), kernels=(3, 3, 2))
    enhancers = [build_enhancer(cfg, rng=29 + s) for s in range(2)]
    bundle = ModelBundle("enhancer", sep, enhancers=enhancers, sources=("a", "b"))
    x = rng_for("enh-freeze").normal(size=(2, 12, 16))
    target = np.abs(rng_for("enh-target").normal(size=(2, 2, 12, 16)))
    loss = mse_loss(bundle.predict(x, training=True), target)
    T.backward(loss)
    for name, p in sep.named_parameters():
        assert p.grad is None, f"separator parameter {name} received a gradient"
    for s, enhancer in enumerate(enhancers):
        grads = [p.grad is not None for _, p in enhancer.named_parameters()]
        assert all(grads), f"enhancer {s} missing gradients"


def tiny_bundle(mode, skip_kind="gru", recurrence="skips", norm_kind="weight_norm"):
    """A two-source bundle of the given mode over a tiny separator."""
    cfg = tiny_config(skip_kind, recurrence, norm_kind, residual=(mode == "residual"))
    enhancers = None
    if mode == "enhancer":
        enh_cfg = enhancer_config(freq_bins=12, channels=(8, 6, 4), kernels=(3, 3, 2),
                                  norm_kind=norm_kind)
        enhancers = [build_enhancer(enh_cfg, rng=37 + s) for s in range(2)]
    residual = ResidualConfig(2) if mode == "residual" else None
    return ModelBundle(mode, build_separator(cfg, rng=31), enhancers=enhancers,
                       residual=residual, sources=("a", "b"))


def expected_parameter_names(cfg: ModelConfig, prefix: str) -> list:
    """Parameter names in checkpoint and optimizer order, built from the config."""
    conv = ["weight", "bias"] + (["weight_g"] if cfg.norm_kind == "weight_norm"
                                 else ["bn.gamma", "bn.beta"])
    gru = [f"{kind}_{gate}" for gate in "zrh" for kind in "wub"]
    layers = [(f"{side}.{i}.", conv) for side in ("encoder", "decoder") for i in range(3)]
    if cfg.skip_kind in ("conv", "gru"):
        layers += [(f"skip.{i}.{cfg.skip_kind}.", conv if cfg.skip_kind == "conv" else gru)
                   for i in range(2)]
    if cfg.recurrence == "after_tconv4":
        layers.append(("post_gru.", gru))
    return [prefix + layer + suffix for layer, suffixes in layers for suffix in suffixes]


def in_gru_group_by_name(name: str, prefix: str) -> bool:
    """The name-substring rule that picked the GRU optimizer group before
    layers declared their own group; kept as the oracle."""
    return ".gru." in name or name.startswith(f"{prefix}post_gru.")


@pytest.mark.parametrize("mode,skip_kind,recurrence,norm_kind", [
    ("separator", skip_kind, recurrence, norm_kind)
    for skip_kind in SKIP_KINDS for recurrence in RECURRENCE_KINDS for norm_kind in NORM_KINDS
] + [
    ("residual", "gru", "after_tconv4", "batch_norm"),
    ("enhancer", "gru", "skips", "weight_norm"),
    ("enhancer", "identity", "after_tconv4", "batch_norm"),
])
def test_bundle_trainable_groups_by_mode(mode, skip_kind, recurrence, norm_kind):
    bundle = tiny_bundle(mode, skip_kind, recurrence, norm_kind)
    parts = [("separator.", bundle.separator.cfg)]
    parts += [(f"enhancer.{s}.", e.cfg) for s, e in enumerate(bundle.enhancers or ())]
    params = dict(bundle.named_parameters())
    assert list(params) == [n for prefix, cfg in parts for n in expected_parameter_names(cfg, prefix)]

    trained = parts[1:] if mode == "enhancer" else parts  # the separator is frozen
    expected_conv, expected_gru = [], []
    for prefix, cfg in trained:
        for name in expected_parameter_names(cfg, prefix):
            (expected_gru if in_gru_group_by_name(name, prefix) else expected_conv).append(name)
    conv, gru = bundle.trainable_groups()
    assert [n for n, _ in conv] == expected_conv
    assert [n for n, _ in gru] == expected_gru
    assert all(p is params[n] for n, p in conv + gru)


@pytest.mark.parametrize("mode", BUNDLE_MODES)
def test_predict_keeps_input_rank(mode):
    bundle = tiny_bundle(mode)
    x = rng_for(f"predict-rank-{mode}").normal(size=(12, 16))
    with T.no_grad():
        single = bundle.predict(x).data
        batched = bundle.predict(x[None]).data
    assert single.shape == (24, 16)
    assert batched.shape == (1, 24, 16)
    assert np.array_equal(single, batched[0])


def test_tiny_model_overfits_one_pair():
    # Training as its own oracle: a band-disjoint (mixture, sources) pair
    # must be reproducible almost exactly by a tiny model.
    from stemsep.optim import build_optimizer
    from stemsep.training import training_step

    with T.using_dtype(np.float32):
        rng = rng_for("overfit-pair")
        f_bins, frames = 12, 16
        mags = np.zeros((1, 2, f_bins, frames), dtype=np.float32)
        mags[0, 0, :6] = np.abs(rng.normal(size=(6, frames)))
        mags[0, 1, 6:] = np.abs(rng.normal(size=(6, frames)))
        feats = np.log1p(mags.sum(axis=1))

        cfg = separator_config(source_count=2, freq_bins=f_bins, channels=(16, 12, 8),
                               kernels=(3, 3, 2), strides=(2, 2, 2), skip_kind="gru")
        bundle = ModelBundle("separator", build_separator(cfg, rng=1), sources=("a", "b"))
        conv, gru = bundle.trainable_groups()
        loss = np.inf
        for lr in (1e-3, 1e-4):  # second phase settles below Adam's jitter floor
            opt = build_optimizer(conv, gru, lr, lr / 10.0)
            for _ in range(2500):
                loss = training_step(bundle, opt, feats, mags).loss
                if loss < 1e-3:
                    break
            if loss < 1e-3:
                break
        assert loss < 1e-3


def test_concurrent_builds_keep_their_own_precision():
    # Thread A builds and predicts while thread B sits inside
    # using_dtype(float64): a process-wide setting hands A a float64 model
    # and, as the threads exit out of order, leaves the main thread in
    # float32.
    import threading

    a_in, b_in, a_done = threading.Event(), threading.Event(), threading.Event()
    built, errors = {}, []

    def build(name):
        bundle = ModelBundle("separator", build_separator(tiny_config(norm_kind="batch_norm"), rng=0))
        with T.no_grad():
            out = bundle.predict(np.ones((12, 16)), training=True)  # float64 features
        built[name] = {str(out.dtype)} | {str(p.data.dtype) for _, p in bundle.named_parameters()} | \
            {str(buf.dtype) for _, buf in bundle.named_buffers()}

    def thread_a():
        try:
            with T.using_dtype(np.float32):
                a_in.set()
                assert b_in.wait(10)
                build("a")
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)
        finally:
            a_done.set()

    def thread_b():
        try:
            assert a_in.wait(10)
            with T.using_dtype(np.float64):
                b_in.set()
                assert a_done.wait(10)
                build("b")
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert T.Tensor([1.0]).dtype == np.float64  # the main thread's precision
    assert built == {"a": {"float32"}, "b": {"float64"}}
