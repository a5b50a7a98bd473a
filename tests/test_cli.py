"""CLI verbs end to end against a synthetic miniature dataset, plus exit
codes and the config override surface."""

import inspect
import json
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from stemsep import dsp
from stemsep import tensor as T
from stemsep.audio_io import SOURCES, AudioClip, read_wav, write_wav
from stemsep import cli
from stemsep.checkpoint import (bundle_from_checkpoint, load_checkpoint, make_checkpoint,
                                save_checkpoint)
from stemsep.cli import main
from stemsep.config import (SCHEMA, defaults, enhancer_model_config, load_config_file,
                            model_config, resolve, train_config)
from stemsep import training
from stemsep.errors import EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGED, EXIT_OK, ConfigError, DivergenceError
from stemsep.evaluate import read_spectrogram_dump, separate_song
from stemsep.models import (
    ModelBundle,
    ResidualConfig,
    build_enhancer,
    build_separator,
    enhancer_config,
    separator_config,
)

from test_audio_io import TRUNCATED_WAV, make_dataset
from test_dsp import float32_envelope
from test_evaluate import STEM_ULPS_32, whole_song_oracle

TINY_MODEL_ARGS = [
    "--model.channels", "8,6,4",
    "--model.kernels", "3,3,2",
    "--model.strides", "2,2,2",
    "--model.skip_kind", "identity",
]


def small_checkpoint(tmp_path, sources=SOURCES, seed=0, mode="separator", meta=None,
                     norm_kind="weight_norm"):
    with T.using_dtype(np.float32):
        cfg = separator_config(source_count=len(sources), freq_bins=dsp.FREQ_BINS,
                               channels=(8, 6, 4), kernels=(3, 3, 2), strides=(2, 2, 2),
                               skip_kind="identity", norm_kind=norm_kind)
        enhancers = None
        if mode == "enhancer":
            enh_cfg = enhancer_config(freq_bins=dsp.FREQ_BINS, channels=(8, 6, 4),
                                      kernels=(3, 3, 2))
            enhancers = [build_enhancer(enh_cfg, rng=seed + 1 + s) for s in range(len(sources))]
        bundle = ModelBundle(mode, build_separator(cfg, rng=seed), enhancers=enhancers,
                             sources=tuple(sources))
    path = tmp_path / "model.ssck"
    save_checkpoint(path, make_checkpoint(bundle, meta=meta or {"seed": seed, "step": 0}))
    return path


def test_train_verb_end_to_end(tmp_path):
    make_dataset(tmp_path / "data", split="train", tracks=("one", "two"), seconds=0.35)
    out = tmp_path / "trained.ssck"
    code = main([
        "train", "--dataset", str(tmp_path / "data"), "--out", str(out),
        *TINY_MODEL_ARGS,
        "--data.clip_seconds", "0.15",
        "--data.val_ratio", "0.5",
        "--train.batch_size", "2",
        "--train.max_epochs", "2",
        "--train.epoch_batches", "2",
        "--train.patience", "1",
    ])
    assert code == EXIT_OK
    ckpt = load_checkpoint(out)
    assert ckpt.mode == "separator"
    assert ckpt.sources == SOURCES
    assert ckpt.meta["step"] >= 2


TRAIN_ARGS = [
    *TINY_MODEL_ARGS,
    "--data.clip_seconds", "0.15",
    "--data.val_ratio", "0.5",
    "--train.batch_size", "2",
    "--train.epoch_batches", "2",
]


def _diverge_from_step(monkeypatch, first_bad_step):
    """Make ``training_step`` raise DivergenceError from the given step on."""
    real_step = training.training_step
    calls = []

    def step(*args):
        calls.append(1)
        if len(calls) >= first_bad_step:
            raise DivergenceError("non-finite training loss nan", loss_history=[float("nan")])
        return real_step(*args)

    monkeypatch.setattr(training, "training_step", step)


@pytest.mark.parametrize("verb", ["train", "train-enhancer"])
def test_train_divergence_saves_best_state(tmp_path, monkeypatch, verb):
    make_dataset(tmp_path / "data", split="train", tracks=("one", "two"), seconds=0.35)
    out = tmp_path / "trained.ssck"
    argv = [verb, "--dataset", str(tmp_path / "data"), "--out", str(out), *TRAIN_ARGS,
            "--train.max_epochs", "3", "--train.patience", "3"]
    if verb == "train-enhancer":
        argv += ["--separator", str(small_checkpoint(tmp_path))]
    _diverge_from_step(monkeypatch, 3)  # the first step of epoch 2
    assert main(argv) == EXIT_DIVERGED
    ckpt = load_checkpoint(out)
    assert ckpt.meta["val_history"] == [ckpt.meta["best_val_loss"]]
    assert ckpt.meta["step"] == 3


def test_train_divergence_before_first_validation_writes_nothing(tmp_path, monkeypatch):
    make_dataset(tmp_path / "data", split="train", tracks=("one", "two"), seconds=0.35)
    out = tmp_path / "trained.ssck"
    _diverge_from_step(monkeypatch, 2)
    code = main(["train", "--dataset", str(tmp_path / "data"), "--out", str(out), *TRAIN_ARGS,
                 "--train.max_epochs", "2"])
    assert code == EXIT_DIVERGED
    assert not out.exists()


def test_train_rejects_unknown_mode(tmp_path):
    code = main(["train", "--dataset", str(tmp_path / "nowhere"),
                 "--out", str(tmp_path / "x.ssck"), "--train.mode", "nonsense"])
    assert code == EXIT_CONFIG


def test_separate_verb_writes_stems(tmp_path):
    ckpt_path = small_checkpoint(tmp_path)
    song = AudioClip(0.1 * np.random.default_rng(0).normal(size=(2, 22050)), 44100)
    write_wav(tmp_path / "song.wav", song, fmt="float32")
    out_dir = tmp_path / "stems"
    code = main(["separate", "--checkpoint", str(ckpt_path),
                 "--input", str(tmp_path / "song.wav"), "--out-dir", str(out_dir)])
    assert code == EXIT_OK
    for name in list(SOURCES) + ["accompaniment"]:
        clip = read_wav(out_dir / f"{name}.wav")
        assert clip.num_samples == song.num_samples
        assert clip.channels == 2


@pytest.mark.parametrize("fmt", ["float32", "pcm16"])
def test_separate_verb_writes_the_float64_oracle_stems(tmp_path, fmt):
    # A float32 model separates in float32: as float32 WAVs its source stems
    # are within STEM_ULPS_32 of the float64 oracle's (worst measured: 96
    # ulps of the peak); as PCM16 they are within one LSB of the oracle's.
    ckpt_path = small_checkpoint(tmp_path)
    n = 3 * 44100
    write_wav(tmp_path / "song.wav",
              AudioClip(0.1 * np.random.default_rng(2).normal(size=(2, n)), 44100),
              fmt="float32")
    out_dir = tmp_path / "stems"
    assert main(["separate", "--checkpoint", str(ckpt_path), "--input", str(tmp_path / "song.wav"),
                 "--out-dir", str(out_dir), "--format", fmt]) == EXIT_OK
    oracle = whole_song_oracle(bundle_from_checkpoint(load_checkpoint(ckpt_path)),
                               read_wav(tmp_path / "song.wav"), "nonvocal")
    for name in SOURCES:
        assert oracle[name].dtype == np.float64
        want = tmp_path / "oracle" / f"{name}.wav"
        write_wav(want, AudioClip(oracle[name]), fmt=fmt)
        if fmt == "float32":
            got = wavfile.read(out_dir / f"{name}.wav")[1]
            assert got.dtype == np.float32, name
            bound = STEM_ULPS_32 * np.finfo(np.float32).eps * np.max(np.abs(oracle[name]))
            error = np.abs(got.T - oracle[name]) * float32_envelope(n)
            assert np.max(error) <= bound, name
        else:
            got = wavfile.read(out_dir / f"{name}.wav")[1].astype(np.int32)
            assert np.max(np.abs(got - wavfile.read(want)[1])) <= 1, name


def test_separate_verb_runs_an_enhancer_checkpoint(tmp_path):
    ckpt_path = small_checkpoint(tmp_path, mode="enhancer")
    song = AudioClip(0.1 * np.random.default_rng(1).normal(size=(2, 22050)), 44100)
    write_wav(tmp_path / "song.wav", song, fmt="float32")
    out_dir = tmp_path / "stems"
    code = main(["separate", "--checkpoint", str(ckpt_path), "--mode", "enhancer",
                 "--input", str(tmp_path / "song.wav"), "--out-dir", str(out_dir)])
    assert code == EXIT_OK
    for name in list(SOURCES) + ["accompaniment"]:
        assert read_wav(out_dir / f"{name}.wav").num_samples == song.num_samples


def test_separate_holds_no_checkpoint_while_separating(tmp_path, monkeypatch):
    argv = _verb_argv(tmp_path, "separate", tmp_path / "stems")
    loaded, alive = [], []

    def load_spy(*args, _real=cli.load_checkpoint, **kwargs):
        ckpt = _real(*args, **kwargs)
        loaded.append(weakref.ref(ckpt))
        return ckpt

    def separate_spy(*args, _real=cli.separate_song, **kwargs):
        alive.extend(ref() is not None for ref in loaded)
        return _real(*args, **kwargs)

    monkeypatch.setattr(cli, "load_checkpoint", load_spy)
    monkeypatch.setattr(cli, "separate_song", separate_spy)
    assert main(argv) == EXIT_OK
    assert alive == [False]


def test_separate_mode_mismatch_exit_code(tmp_path):
    ckpt_path = small_checkpoint(tmp_path)
    song_path = tmp_path / "song.wav"
    write_wav(song_path, AudioClip.silence(22050), fmt="float32")
    code = main(["separate", "--checkpoint", str(ckpt_path), "--input", str(song_path),
                 "--out-dir", str(tmp_path / "o"), "--mode", "residual"])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("song", ["truncated", "8 kHz"])
def test_separate_rejects_unusable_audio(tmp_path, song):
    ckpt_path = small_checkpoint(tmp_path)
    song_path = tmp_path / "song.wav"
    if song == "truncated":
        song_path.write_bytes(TRUNCATED_WAV)
    else:
        write_wav(song_path, AudioClip(np.zeros((2, 8000)), 8000), fmt="float32")
    code = main(["separate", "--checkpoint", str(ckpt_path), "--input", str(song_path),
                 "--out-dir", str(tmp_path / "stems")])
    assert code == EXIT_DATA
    assert not (tmp_path / "stems").exists()


def test_evaluate_verb_oracle_and_determinism(tmp_path):
    make_dataset(tmp_path / "data", split="test", seconds=0.3)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    base = ["evaluate", "--dataset", str(tmp_path / "data"),
            "--estimates-dir", str(tmp_path / "data" / "test")]
    assert main(base + ["--out", str(out_a)]) == EXIT_OK
    assert main(base + ["--out", str(out_b)]) == EXIT_OK
    text = out_a.read_text()
    assert text.splitlines()[0] == "track,source,sdr_db"
    assert "100.000000" in text
    assert out_a.read_bytes() == out_b.read_bytes()


def test_evaluate_with_checkpoint(tmp_path):
    make_dataset(tmp_path / "data", split="test", tracks=("alpha",), seconds=0.3)
    ckpt_path = small_checkpoint(tmp_path)
    out = tmp_path / "r.csv"
    code = main(["evaluate", "--dataset", str(tmp_path / "data"),
                 "--checkpoint", str(ckpt_path), "--out", str(out)])
    assert code == EXIT_OK
    assert len(out.read_text().splitlines()) == 1 + 5  # header + 4 stems + accomp


def test_evaluate_missing_dataset_is_data_error(tmp_path):
    code = main(["evaluate", "--dataset", str(tmp_path / "nowhere"),
                 "--estimates-dir", str(tmp_path)])
    assert code == EXIT_DATA


def test_unknown_override_is_config_error(tmp_path):
    make_dataset(tmp_path / "data", split="train", seconds=0.3)
    code = main(["train", "--dataset", str(tmp_path / "data"),
                 "--out", str(tmp_path / "x.ssck"), "--train.warp_speed", "9"])
    assert code == EXIT_CONFIG


def test_dump_spec_verb(tmp_path):
    n = 3 * dsp.WINDOW_SIZE
    write_wav(tmp_path / "clip.wav", AudioClip(np.zeros(n)), fmt="float32")
    out = tmp_path / "spec.txt"
    assert main(["dump-spec", "--input", str(tmp_path / "clip.wav"),
                 "--out", str(out)]) == EXIT_OK
    matrix = read_spectrogram_dump(out)
    assert matrix.shape == (dsp.FREQ_BINS, 1 + n // dsp.HOP_SIZE)
    assert np.all(matrix == 0)


def test_dump_spec_track_grid(tmp_path):
    make_dataset(tmp_path / "data", split="test", tracks=("alpha",), seconds=0.2)
    ckpt_path = small_checkpoint(tmp_path)
    out_dir = tmp_path / "grid"
    code = main(["dump-spec", "--track-dir", str(tmp_path / "data" / "test" / "alpha"),
                 "--out-dir", str(out_dir), "--checkpoint", str(ckpt_path)])
    assert code == EXIT_OK
    assert (out_dir / "groundtruth_vocals.txt").exists()
    assert (out_dir / "estimate_vocals.txt").exists()


@pytest.mark.parametrize("flag", ["--track-dir", "--out"],
                         ids=["track-dir-without-out-dir", "out-without-input"])
def test_dump_spec_missing_argument_is_config_error(tmp_path, caplog, flag):
    make_dataset(tmp_path / "data", split="test", tracks=("alpha",), seconds=0.2)
    value = tmp_path / "data" / "test" / "alpha" if flag == "--track-dir" else tmp_path / "spec.txt"
    assert main(["dump-spec", flag, str(value)]) == EXIT_CONFIG
    assert "is required" in caplog.text
    assert not (tmp_path / "spec.txt").exists()


def _verb_argv(tmp_path, verb, out):
    """Usable inputs for ``verb``, writing to ``out``."""
    if verb in ("train", "train-enhancer"):
        make_dataset(tmp_path / "data", split="train", tracks=("one", "two"), seconds=0.35)
        argv = [verb, "--dataset", str(tmp_path / "data"), "--out", str(out), *TRAIN_ARGS,
                "--train.max_epochs", "1"]
        return argv + (["--separator", str(small_checkpoint(tmp_path))]
                       if verb == "train-enhancer" else [])
    if verb == "separate":
        write_wav(tmp_path / "song.wav", AudioClip(np.zeros((2, 22050))), fmt="float32")
        return ["separate", "--checkpoint", str(small_checkpoint(tmp_path)),
                "--input", str(tmp_path / "song.wav"), "--out-dir", str(out)]
    if verb == "evaluate":
        make_dataset(tmp_path / "data", split="test", tracks=("alpha",), seconds=0.3)
        return ["evaluate", "--dataset", str(tmp_path / "data"),
                "--checkpoint", str(small_checkpoint(tmp_path)), "--out", str(out)]
    if verb == "dump-spec":
        write_wav(tmp_path / "clip.wav", AudioClip(np.zeros(3 * dsp.WINDOW_SIZE)), fmt="float32")
        return ["dump-spec", "--input", str(tmp_path / "clip.wav"), "--out", str(out)]
    make_dataset(tmp_path / "data", split="test", tracks=("alpha",), seconds=0.2)
    return ["dump-spec", "--track-dir", str(tmp_path / "data" / "test" / "alpha"),
            "--out-dir", str(out)]


DIRECTORY_OUTPUTS = ("separate", "dump-spec-grid")


@pytest.mark.parametrize("where", ["under-a-file", "wrong-kind"])
@pytest.mark.parametrize("verb", ["train", "train-enhancer", "separate", "evaluate",
                                  "dump-spec", "dump-spec-grid"])
def test_unusable_output_path_is_config_error_before_any_work(tmp_path, caplog, monkeypatch,
                                                              verb, where):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    if where == "under-a-file":
        out = blocker / "out"
    elif verb in DIRECTORY_OUTPUTS:
        out = blocker
    else:
        out = tmp_path / "existing-directory"
        out.mkdir()
    argv = _verb_argv(tmp_path, verb, out)
    calls = _spy_on_work(monkeypatch)
    assert main(argv) == EXIT_CONFIG
    assert calls == []
    assert str(out) in caplog.text
    assert blocker.read_text() == "not a directory"


def _spy_on_work(monkeypatch) -> list:
    """Record the name of each input-reading call a verb makes."""
    calls = []
    for name in ("load_split", "load_track", "read_wav", "load_checkpoint", "evaluate"):
        def spy(*args, _real=getattr(cli, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(cli, name, spy)
    return calls


TRAINING_SETTINGS = [
    ["--train.batch_size", "0"],
    ["--model.channels", "0,4,4"],
    ["--train.patience", "0"],
    ["--data.clip_seconds", "0"],
    ["--data.clip_seconds", "-1"],
    ["--data.val_ratio", "1.5"],
    ["--data.val_ratio", "-0.5"],
]


@pytest.mark.parametrize("verb,flags", [
    *(("train", flags) for flags in TRAINING_SETTINGS),
    *(("train-enhancer", flags) for flags in TRAINING_SETTINGS),
    ("train", ["--train.mode", "residual", "--train.residual_iterations", "0"]),
    ("train", ["--model.skip_kind", "gru", "--model.recurrence", "none"]),
    ("separate", ["--model.channels", "8,6"]),
    ("evaluate", ["--model.kernels", "3,x,2"]),
    ("evaluate", ["--eval.jobs", "2"]),
    ("dump-spec", ["--model.strides", "2,2,2,2"]),
], ids=lambda v: v if isinstance(v, str) else "_".join(flag.removeprefix("--") for flag in v))
def test_invalid_setting_is_config_error_before_any_work(tmp_path, monkeypatch, verb, flags):
    argv = _verb_argv(tmp_path, verb, tmp_path / "out") + flags
    calls = _spy_on_work(monkeypatch)
    assert main(argv) == EXIT_CONFIG
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_inspect_checkpoint(tmp_path, capsys):
    ckpt_path = small_checkpoint(tmp_path)
    assert main(["inspect-checkpoint", "--checkpoint", str(ckpt_path)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "mode: separator" in printed
    assert "drums" in printed


def test_inspect_checkpoint_refuses_stray_tokens(tmp_path, caplog, monkeypatch):
    argv = ["inspect-checkpoint", "--checkpoint", str(small_checkpoint(tmp_path)),
            "--bogus.key", "1"]
    calls = _spy_on_work(monkeypatch)
    assert main(argv) == EXIT_CONFIG
    assert calls == []
    assert "--bogus.key 1" in caplog.text


def test_inspect_checkpoint_prints_training_history(tmp_path, capsys):
    meta = {"best_val_loss": 0.25, "val_history": [0.5, 0.25, 0.375],
            "best_sequence": [0.5, 0.25]}
    ckpt_path = small_checkpoint(tmp_path, meta=meta)
    assert main(["inspect-checkpoint", "--checkpoint", str(ckpt_path)]) == EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    assert "meta.val_history: [0.5, 0.25, 0.375]" in printed
    assert "meta.best_sequence: [0.5, 0.25]" in printed
    assert "meta.best_val_loss: 0.25" in printed


def test_inspect_checkpoint_reads_no_parameter_array(tmp_path, capsys):
    with T.using_dtype(np.float32):
        cfg = separator_config(channels=(64, 32, 16))
        bundle = ModelBundle("separator", build_separator(cfg, rng=0), sources=SOURCES)
    path = tmp_path / "model.ssck"
    save_checkpoint(path, make_checkpoint(bundle))
    params = load_checkpoint(path).params
    size = path.stat().st_size
    tracemalloc.start()
    try:
        assert main(["inspect-checkpoint", "--checkpoint", str(path)]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size / 8, (peak, size)
    assert (f"parameters+buffers: {len(params)} arrays, "
            f"{sum(arr.size for arr in params.values())} values") in capsys.readouterr().out
    path.write_bytes(path.read_bytes()[:-1])  # the manifest is still checked against the size
    assert main(["inspect-checkpoint", "--checkpoint", str(path)]) == EXIT_DATA


def test_inspect_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.ssck"
    bad.write_bytes(b"not a checkpoint at all")
    assert main(["inspect-checkpoint", "--checkpoint", str(bad)]) == EXIT_DATA


@pytest.mark.parametrize("verb", ["inspect-checkpoint", "separate", "evaluate", "train-enhancer"])
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unreadable_checkpoint_path_is_data_error(tmp_path, caplog, verb, target):
    path = str(tmp_path / "nope.ssck" if target == "missing" else tmp_path)
    data = str(tmp_path / "data")
    argv = {
        "inspect-checkpoint": ["--checkpoint", path],
        "separate": ["--checkpoint", path, "--input", str(tmp_path / "song.wav"),
                     "--out-dir", str(tmp_path / "stems")],
        "evaluate": ["--dataset", data, "--checkpoint", path],
        "train-enhancer": ["--dataset", data, "--separator", path, "--out", str(tmp_path / "e.ssck")],
    }[verb]
    assert main([verb, *argv]) == EXIT_DATA
    assert "cannot read checkpoint" in caplog.text


def _rewrite_checkpoint(path, edit_header, tail=b""):
    """Re-serialize ``path`` after ``edit_header(header, data)`` edits the JSON
    header in place and returns the tensor bytes to keep; ``tail`` is appended."""
    blob = path.read_bytes()
    header_end = 16 + int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:header_end])
    data = edit_header(header, blob[header_end:])
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(blob[:8] + len(header_bytes).to_bytes(8, "little") + header_bytes
                     + data + tail)


def _drop_last_tensor(header, data):
    last = header["tensors"].pop()
    return data[:last["offset"]]


def _set(entry_edit):
    def edit(header, data):
        entry_edit(header)
        return data
    return edit


@pytest.mark.parametrize("edit,tail", [
    (_set(lambda h: h.pop("tensors")), b""),
    (_set(lambda h: h.update(tensors={"param.x": 1})), b""),
    (_set(lambda h: h.pop("mode")), b""),
    (_set(lambda h: h.update(sources="drums")), b""),
    (_set(lambda h: h.update(residual={"steps": 3})), b""),
    (_set(lambda h: h["model_config"].pop("encoder_specs")), b""),
    (_set(lambda h: h["tensors"][0].update(dtype="object")), b""),
    (_set(lambda h: h["tensors"][0].update(dtype="(2,f4")), b""),
    (_set(lambda h: h["tensors"][0].update(nbytes=h["tensors"][0]["nbytes"] + 4)), b""),
    (_set(lambda h: h["tensors"][0]["shape"].append(2)), b""),
    (_drop_last_tensor, b""),
    (lambda h, data: h.update(tensors=[]) or b"", b""),
    (_set(lambda h: [e.update(dtype="int32") for e in h["tensors"]]), b""),
    (_set(lambda h: h.update(mode="bogus")), b""),
    (_set(lambda h: None), b"\0\0\0\0"),
    (_set(lambda h: h.update(mode="residual", residual=None)), b""),
], ids=["no-tensors", "tensors-not-list", "no-mode", "sources-not-list", "residual-keys",
        "model-config-keys", "object-dtype", "unparseable-dtype", "nbytes-mismatch",
        "shape-mismatch", "missing-parameter", "empty-manifest", "integer-parameters",
        "unknown-mode", "trailing-bytes", "residual-without-iterations"])
def test_malformed_checkpoint_exits_data_error(tmp_path, caplog, edit, tail):
    ckpt_path = small_checkpoint(tmp_path)
    _rewrite_checkpoint(ckpt_path, edit, tail)
    write_wav(tmp_path / "song.wav", AudioClip.silence(22050), fmt="float32")
    code = main(["separate", "--checkpoint", str(ckpt_path), "--input", str(tmp_path / "song.wav"),
                 "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_DATA
    assert "Traceback" not in caplog.text


def _drop_tensor(suffix):
    """Remove the first tensor whose name ends in ``suffix``, bytes included."""
    def edit(header, data):
        entry = next(e for e in header["tensors"] if e["name"].endswith(suffix))
        header["tensors"].remove(entry)
        for later in header["tensors"]:
            if later["offset"] > entry["offset"]:
                later["offset"] -= entry["nbytes"]
        return data[:entry["offset"]] + data[entry["offset"] + entry["nbytes"]:]
    return edit


def _reshape_first(suffix, shape):
    return _set(lambda h: next(e for e in h["tensors"] if e["name"].endswith(suffix))
                .update(shape=shape))


@pytest.mark.parametrize("edit,code", [
    (_drop_tensor("running_mean"), EXIT_DATA),
    (_reshape_first("running_mean", [2, 3]), EXIT_CONFIG),
], ids=["missing-buffer", "misshapen-buffer"])
def test_malformed_batch_norm_state_names_the_buffer(tmp_path, caplog, edit, code):
    # Buffers are checked as parameters are: a missing one is corrupt data,
    # a misshapen one does not fit the model the header describes.
    ckpt_path = small_checkpoint(tmp_path, norm_kind="batch_norm")
    _rewrite_checkpoint(ckpt_path, edit)
    write_wav(tmp_path / "song.wav", AudioClip.silence(22050), fmt="float32")
    code_seen = main(["separate", "--checkpoint", str(ckpt_path),
                      "--input", str(tmp_path / "song.wav"), "--out-dir", str(tmp_path / "o")])
    assert code_seen == code
    assert "separator.decoder.0.bn.running_mean" in caplog.text
    assert not (tmp_path / "o").exists()


def test_checkpoint_with_unmirrored_decoder_exits_config_error(tmp_path, caplog):
    # Decoder layer 1 strides 1 where encoder layer 3 strides 2; the weight
    # shapes still match, so only the config check can refuse the model.
    ckpt_path = small_checkpoint(tmp_path)
    _rewrite_checkpoint(ckpt_path, _set(lambda h: h["model_config"]["decoder_specs"][0]
                                        .__setitem__(2, 1)))
    write_wav(tmp_path / "song.wav", AudioClip.silence(22050), fmt="float32")
    code = main(["separate", "--checkpoint", str(ckpt_path), "--input", str(tmp_path / "song.wav"),
                 "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "decoder layer 1" in caplog.text
    assert not (tmp_path / "o").exists()


def test_checkpoint_rewrite_helper_is_byte_exact(tmp_path):
    # So in the cases above only the edit itself can make a load fail.
    ckpt_path = small_checkpoint(tmp_path)
    before = ckpt_path.read_bytes()
    _rewrite_checkpoint(ckpt_path, lambda header, data: data)
    assert ckpt_path.read_bytes() == before


def test_train_rejects_freq_bins_before_loading_data(tmp_path):
    code = main(["train", "--dataset", str(tmp_path / "nowhere"),
                 "--out", str(tmp_path / "x.ssck"), "--model.freq_bins", "512"])
    assert code == EXIT_CONFIG


def test_train_enhancer_rejects_freq_bins_before_loading_data(tmp_path):
    code = main(["train-enhancer", "--dataset", str(tmp_path / "nowhere"),
                 "--separator", str(tmp_path / "missing.ssck"), "--out", str(tmp_path / "x.ssck"),
                 "--model.freq_bins", "512"])
    assert code == EXIT_CONFIG


# ---------------------------------------------------------------------------
# config parsing


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment\n"
        "model.skip_kind = conv\n"
        "train.lr_conv = 0.0005\n"
        "data.sources = noise,tone\n")
    values = load_config_file(cfg)
    assert values["model.skip_kind"] == "conv"
    assert values["train.lr_conv"] == 0.0005
    merged = resolve(cfg, [("train.lr_conv", "0.001")])
    assert merged["train.lr_conv"] == 0.001
    assert merged["model.skip_kind"] == "conv"


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model.flux_capacitor = 1\n")
    with pytest.raises(ConfigError):
        load_config_file(cfg)


def test_config_defaults_are_the_library_defaults():
    values = defaults()
    assert model_config(values) == separator_config()
    assert enhancer_model_config(values) == enhancer_config()
    assert train_config(values) == training.TrainConfig()
    assert values["train.residual_iterations"] == ResidualConfig().iterations
    assert values["data.sources"] == SOURCES
    for key, function, name in [("data.clip_seconds", training.segment_songs, "clip_seconds"),
                                ("data.val_ratio", training.segment_songs, "val_ratio"),
                                ("separate.accompaniment", separate_song, "accompaniment")]:
        assert values[key] == inspect.signature(function).parameters[name].default, key


def test_readme_names_only_schema_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = set(re.findall(r"(?:`|--)((?:model|train|data|separate|eval)\.[a-z_]+)", readme))
    assert "model.recurrence" in named
    assert named <= set(SCHEMA), named - set(SCHEMA)


def test_config_rejects_bad_choice(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model.skip_kind = teleport\n")
    with pytest.raises(ConfigError):
        load_config_file(cfg)
