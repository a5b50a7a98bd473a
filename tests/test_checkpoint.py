"""Checkpoint format: bitwise round-trips, corruption and version
handling, cross-mode mismatch, forward-pass restoration, format 1.0
files, and the loader's memory."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eval_forward, tiny_config
from stemsep import tensor as T
from stemsep.checkpoint import (
    FORMAT_MAJOR,
    Checkpoint,
    bundle_from_checkpoint,
    load_checkpoint,
    make_checkpoint,
    parameter_fingerprint,
    save_checkpoint,
)
from stemsep.errors import (
    CheckpointError,
    CheckpointMismatchError,
    CheckpointVersionError,
    CorruptCheckpointError,
)
from stemsep.models import ModelBundle, ResidualConfig, build_separator, collect_state
from stemsep.optim import build_optimizer


def make_bundle(mode="separator", dtype=np.float32, seed=3):
    with T.using_dtype(dtype):
        cfg = tiny_config(skip_kind="gru", norm_kind="batch_norm",
                          residual=(mode == "residual"))
        sep = build_separator(cfg, rng=seed)
        residual = ResidualConfig(3) if mode == "residual" else None
        return ModelBundle(mode, sep, residual=residual, sources=("a", "b"))


def checkpoint_with_optimizer(tmp_path, mode="separator"):
    bundle = make_bundle(mode)
    conv, gru = bundle.trainable_groups()
    opt = build_optimizer(conv, gru, 1e-3, 1e-4)
    # one fake step so moments are nonzero
    rng = np.random.default_rng(0)
    for _, p in opt.parameters():
        p.grad = rng.normal(size=p.data.shape).astype(p.data.dtype)
    opt.step()
    opt.zero_grad()
    ckpt = make_checkpoint(bundle, opt, meta={"seed": 1, "step": 1, "best_val_loss": 0.5})
    path = tmp_path / "model.ssck"
    save_checkpoint(path, ckpt)
    return bundle, opt, ckpt, path


def test_save_load_save_is_byte_identical(tmp_path):
    _, _, _, path = checkpoint_with_optimizer(tmp_path)
    first = path.read_bytes()
    loaded = load_checkpoint(path)
    second_path = tmp_path / "again.ssck"
    save_checkpoint(second_path, loaded)
    assert second_path.read_bytes() == first


def test_load_restores_parameters_bitwise(tmp_path):
    bundle, _, _, path = checkpoint_with_optimizer(tmp_path)
    loaded = bundle_from_checkpoint(load_checkpoint(path))
    assert parameter_fingerprint(loaded) == parameter_fingerprint(bundle)
    originals = dict(bundle.named_parameters())
    for name, p in loaded.named_parameters():
        assert p.data.dtype == originals[name].data.dtype
        assert np.array_equal(p.data, originals[name].data)


def test_load_restores_bit_identical_forward(tmp_path):
    bundle, _, _, path = checkpoint_with_optimizer(tmp_path)
    x = np.random.default_rng(11).normal(size=(12, 16))
    # train-mode batch stats were never recorded for eval; use train off path
    with T.using_dtype(np.float64):  # ambient dtype must not leak into the model
        before = bundle.predict(x.astype(np.float32), training=True)
        loaded = bundle_from_checkpoint(load_checkpoint(path))
        after = loaded.predict(x.astype(np.float32), training=True)
    assert before.data.dtype == after.data.dtype == np.float32
    assert np.array_equal(before.data, after.data)


def test_config_fields_round_trip(tmp_path):
    bundle, _, ckpt, path = checkpoint_with_optimizer(tmp_path, mode="residual")
    loaded = load_checkpoint(path)
    assert loaded.model_config == bundle.separator.cfg
    assert loaded.mode == "residual"
    assert loaded.residual == ResidualConfig(3)
    assert loaded.sources == ("a", "b")
    assert loaded.meta["best_val_loss"] == 0.5


def manifest_names(path) -> list:
    """The tensor names in a checkpoint file's manifest, in file order."""
    blob = Path(path).read_bytes()
    header_len = int.from_bytes(blob[8:16], "little")
    return [entry["name"] for entry in json.loads(blob[16:16 + header_len])["tensors"]]


def test_saved_optimizer_is_its_scalars_and_the_file_only_parameters(tmp_path):
    bundle, opt, _, path = checkpoint_with_optimizer(tmp_path)
    state = collect_state(bundle)
    assert manifest_names(path) == sorted("param." + name for name in state)
    header_len = int.from_bytes(path.read_bytes()[8:16], "little")
    assert path.stat().st_size == 16 + header_len + sum(arr.nbytes for arr in state.values())
    loaded = load_checkpoint(path)
    assert loaded.optimizer == {"t": opt.t, "beta1": opt.beta1, "beta2": opt.beta2,
                                "eps": opt.eps, "group_lrs": {"conv": 1e-3, "gru": 1e-4}}
    assert loaded.optimizer["t"] == 1


def test_truncated_file_reports_corruption(tmp_path):
    _, _, _, path = checkpoint_with_optimizer(tmp_path)
    blob = path.read_bytes()
    for cut in (4, 10, 40, len(blob) // 2, len(blob) - 3):
        clipped = tmp_path / f"cut{cut}.ssck"
        clipped.write_bytes(blob[:cut])
        with pytest.raises(CorruptCheckpointError) as err:
            load_checkpoint(clipped)
        assert err.value.offset is not None


def test_bad_magic_rejected(tmp_path):
    _, _, _, path = checkpoint_with_optimizer(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"WAT0"
    bad = tmp_path / "bad.ssck"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpointError) as err:
        load_checkpoint(bad)
    assert err.value.offset == 0


def test_newer_major_version_refused(tmp_path):
    _, _, _, path = checkpoint_with_optimizer(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[4:6] = (FORMAT_MAJOR + 1).to_bytes(2, "little")
    newer = tmp_path / "newer.ssck"
    newer.write_bytes(bytes(blob))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(newer)


def test_cross_mode_load_rejected(tmp_path):
    _, _, _, path = checkpoint_with_optimizer(tmp_path, mode="separator")
    with pytest.raises(CheckpointMismatchError):
        load_checkpoint(path, expect_mode="residual")
    loaded = load_checkpoint(path, expect_mode="separator")
    assert loaded.mode == "separator"


def test_float64_checkpoints_supported(tmp_path):
    with T.using_dtype(np.float64):
        cfg = tiny_config(skip_kind="gru", norm_kind="weight_norm")
        bundle = ModelBundle("separator", build_separator(cfg, rng=3), sources=("a", "b"))
    ckpt = make_checkpoint(bundle)
    path = tmp_path / "f64.ssck"
    save_checkpoint(path, ckpt)
    loaded = bundle_from_checkpoint(load_checkpoint(path))
    assert next(iter(loaded.named_parameters()))[1].data.dtype == np.float64
    x = np.random.default_rng(5).normal(size=(12, 16))
    assert np.array_equal(eval_forward(loaded.separator, x), eval_forward(bundle.separator, x))


# ---------------------------------------------------------------------------
# atomic save and malformed bytes


class _FailingFile:
    """A binary file that raises once ``budget`` bytes have been written."""

    def __init__(self, fh, budget):
        self.fh = fh
        self.budget = budget

    def write(self, data):
        if len(data) > self.budget:
            self.fh.write(data[:self.budget])
            raise OSError("injected: no space left on device")
        self.budget -= len(data)
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("fault", ["header", "tensor", "fsync", "rename"])
def test_interrupted_save_keeps_previous_checkpoint(tmp_path, monkeypatch, fault):
    import stemsep.checkpoint as ckmod

    _, _, ckpt, path = checkpoint_with_optimizer(tmp_path)
    before = path.read_bytes()
    listing = sorted(p.name for p in tmp_path.iterdir())
    ckpt.meta["step"] = 2  # the new save differs from the file on disk
    if fault in ("header", "tensor"):
        budget = 30 if fault == "header" else len(before) // 2
        monkeypatch.setattr(ckmod, "open",
                            lambda p, mode: _FailingFile(open(p, mode), budget), raising=False)
    else:
        def boom(*args):
            raise OSError(f"injected {fault} failure")
        monkeypatch.setattr(ckmod.os, "fsync" if fault == "fsync" else "replace", boom)
    with pytest.raises(OSError, match="injected"):
        save_checkpoint(path, ckpt)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == listing


def test_save_replaces_existing_checkpoint(tmp_path):
    _, _, ckpt, path = checkpoint_with_optimizer(tmp_path)
    ckpt.meta["step"] = 7
    save_checkpoint(path, ckpt)
    assert load_checkpoint(path).meta["step"] == 7
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


@pytest.fixture(scope="module")
def tiny_blob(tmp_path_factory):
    with T.using_dtype(np.float32):
        cfg = tiny_config(skip_kind="identity", freq_bins=3, source_count=1)
        bundle = ModelBundle("separator", build_separator(cfg, rng=0), sources=("a",))
    path = tmp_path_factory.mktemp("tiny") / "tiny.ssck"
    save_checkpoint(path, make_checkpoint(bundle, meta={"step": 1}))
    return path.read_bytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_truncated_or_mutated_checkpoint_loads_or_raises_checkpoint_error(
        tiny_blob, tmp_path_factory, data):
    blob = bytearray(tiny_blob)
    header_end = 16 + int.from_bytes(blob[8:16], "little")
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="cut")]
    else:
        # Mostly hit the fixed and JSON headers, where a byte changes meaning.
        stop = data.draw(st.sampled_from([header_end, len(blob)]), label="region")
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            blob[data.draw(st.integers(0, stop - 1), label="at")] = data.draw(
                st.integers(0, 255), label="byte")
    path = tmp_path_factory.getbasetemp() / "mutant.ssck"
    path.write_bytes(bytes(blob))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


# ---------------------------------------------------------------------------
# format 1.0 files and the loader's memory

# Written by the format 1.0 writer, which also stored Adam's moments as
# ``opt.`` tensors: tiny_config(skip_kind="identity", freq_bins=64) built
# at rng 3, after one Adam step (lrs 1e-3 / 1e-4) on standard normal
# gradients from default_rng(0), saved with meta {"seed": 3, "step": 1}.
LEGACY = Path(__file__).resolve().parent / "data" / "legacy_1_0.ssck"
LEGACY_FINGERPRINT = "5982f0a6dbd3865d5f1a8a22ea20e73029bca61e7114e432b9a39449a8e05aba"


def test_legacy_checkpoint_loads_to_its_recorded_fingerprint():
    names = manifest_names(LEGACY)
    assert any(name.startswith("opt.") for name in names)
    ckpt = load_checkpoint(LEGACY)
    assert sorted("param." + name for name in ckpt.params) == [
        name for name in names if name.startswith("param.")]
    assert parameter_fingerprint(ckpt.params) == LEGACY_FINGERPRINT
    assert parameter_fingerprint(bundle_from_checkpoint(ckpt)) == LEGACY_FINGERPRINT
    assert ckpt.optimizer == {"t": 1, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
                              "group_lrs": {"conv": 1e-3, "gru": 1e-4}}
    assert ckpt.meta == {"seed": 3, "step": 1}


def header_parse_peak(path) -> int:
    """tracemalloc's peak while reading and parsing only the JSON header."""
    tracemalloc.start()
    try:
        with open(path, "rb", buffering=0) as fh:
            header_len = int.from_bytes(fh.read(16)[8:], "little")
            json.loads(fh.read(header_len))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fresh_checkpoint(tmp_path):
    """A gru / batch-norm model over all 1025 bins, saved with its optimizer."""
    with T.using_dtype(np.float32):
        cfg = tiny_config(skip_kind="gru", norm_kind="batch_norm", freq_bins=1025)
        bundle = ModelBundle("separator", build_separator(cfg, rng=5), sources=("a", "b"))
    conv, gru = bundle.trainable_groups()
    path = tmp_path / "fresh.ssck"
    save_checkpoint(path, make_checkpoint(bundle, build_optimizer(conv, gru, 1e-3, 1e-4),
                                          meta={"step": 0}))
    return path


# parameter_fingerprint of seeded builds, recorded before checkpoint
# restores stopped drawing an initialisation: training's draws must not move.
SEEDED_FINGERPRINTS = {
    np.float32: "281f495e91e2f117a0211ef9355c106200df1f150f877713e33e06ad1dd7b16f",
    np.float64: "965dedb084039e12c5bd587a65c24da2f9c72e7bf80e09d30dac517aa0bcc82e",
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_seeded_build_draws_the_recorded_initialisation(dtype):
    with T.using_dtype(dtype):
        cfg = tiny_config(recurrence="after_tconv4", norm_kind="batch_norm", freq_bins=1025)
        assert parameter_fingerprint(build_separator(cfg, rng=5)) == SEEDED_FINGERPRINTS[dtype]


@pytest.mark.parametrize("norm_kind", ["weight_norm", "batch_norm"])
def test_bundle_from_checkpoint_peaks_at_the_parameters_plus_one_array(tmp_path, norm_kind):
    with T.using_dtype(np.float32):
        cfg = tiny_config(skip_kind="gru", norm_kind=norm_kind, freq_bins=1025)
        bundle = ModelBundle("separator", build_separator(cfg, rng=5), sources=("a", "b"))
    ckpt = make_checkpoint(bundle)
    sizes = [arr.nbytes for arr in ckpt.params.values()]
    tracemalloc.start()
    try:
        loaded = bundle_from_checkpoint(ckpt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The zeros standing in for the parameters, one weight-norm square, and
    # a few per-layer vectors (biases are built as float64 zeros and cast).
    assert peak <= sum(sizes) + max(sizes) + 16384, (peak, sum(sizes))
    assert parameter_fingerprint(loaded) == parameter_fingerprint(bundle)
    for name, p in loaded.named_parameters():  # taken over, not copied
        assert p.data is ckpt.params[name], name


@pytest.mark.parametrize("which", ["legacy", "fresh"])
def test_load_peaks_at_the_parameters_plus_one_array(tmp_path, which):
    path = LEGACY if which == "legacy" else fresh_checkpoint(tmp_path)
    sizes = [arr.nbytes for arr in load_checkpoint(path).params.values()]
    header = header_parse_peak(path)
    tracemalloc.start()
    try:
        load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= header + sum(sizes) + max(sizes)
