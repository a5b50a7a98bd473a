"""CLI verbs end to end against a synthetic miniature dataset, plus exit
codes and the config override surface."""

import json

import numpy as np
import pytest

from stemsep import dsp
from stemsep import tensor as T
from stemsep.audio_io import SOURCES, AudioClip, read_wav, write_wav
from stemsep import cli
from stemsep.checkpoint import load_checkpoint, make_checkpoint, save_checkpoint
from stemsep.cli import main
from stemsep.config import load_config_file, resolve
from stemsep import training
from stemsep.errors import EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGED, EXIT_OK, ConfigError, DivergenceError
from stemsep.evaluate import read_spectrogram_dump
from stemsep.models import (
    ModelBundle,
    build_enhancer,
    build_separator,
    enhancer_config,
    separator_config,
)

from test_audio_io import TRUNCATED_WAV, make_dataset

TINY_MODEL_ARGS = [
    "--model.channels", "8,6,4",
    "--model.kernels", "3,3,2",
    "--model.strides", "2,2,2",
    "--model.skip_kind", "identity",
]


def small_checkpoint(tmp_path, sources=SOURCES, seed=0, mode="separator", meta=None):
    with T.using_dtype(np.float32):
        cfg = separator_config(source_count=len(sources), freq_bins=dsp.FREQ_BINS,
                               channels=(8, 6, 4), kernels=(3, 3, 2), strides=(2, 2, 2),
                               skip_kind="identity")
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
    calls = []
    for name in ("load_split", "load_track", "read_wav", "load_checkpoint", "evaluate"):
        def spy(*args, _real=getattr(cli, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(cli, name, spy)
    assert main(argv) == EXIT_CONFIG
    assert calls == []
    assert str(out) in caplog.text
    assert blocker.read_text() == "not a directory"


def test_inspect_checkpoint(tmp_path, capsys):
    ckpt_path = small_checkpoint(tmp_path)
    assert main(["inspect-checkpoint", "--checkpoint", str(ckpt_path)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "mode: separator" in printed
    assert "drums" in printed


def test_inspect_checkpoint_prints_training_history(tmp_path, capsys):
    meta = {"best_val_loss": 0.25, "val_history": [0.5, 0.25, 0.375],
            "best_sequence": [0.5, 0.25]}
    ckpt_path = small_checkpoint(tmp_path, meta=meta)
    assert main(["inspect-checkpoint", "--checkpoint", str(ckpt_path)]) == EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    assert "meta.val_history: [0.5, 0.25, 0.375]" in printed
    assert "meta.best_sequence: [0.5, 0.25]" in printed
    assert "meta.best_val_loss: 0.25" in printed


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
], ids=["no-tensors", "tensors-not-list", "no-mode", "sources-not-list", "residual-keys",
        "model-config-keys", "object-dtype", "unparseable-dtype", "nbytes-mismatch",
        "shape-mismatch", "missing-parameter", "empty-manifest", "integer-parameters",
        "unknown-mode", "trailing-bytes"])
def test_malformed_checkpoint_exits_data_error(tmp_path, caplog, edit, tail):
    ckpt_path = small_checkpoint(tmp_path)
    _rewrite_checkpoint(ckpt_path, edit, tail)
    write_wav(tmp_path / "song.wav", AudioClip.silence(22050), fmt="float32")
    code = main(["separate", "--checkpoint", str(ckpt_path), "--input", str(tmp_path / "song.wav"),
                 "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_DATA
    assert "Traceback" not in caplog.text


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


def test_config_rejects_bad_choice(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model.skip_kind = teleport\n")
    with pytest.raises(ConfigError):
        load_config_file(cfg)
