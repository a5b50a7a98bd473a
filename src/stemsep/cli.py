"""Command-line interface: train, train-enhancer, separate, evaluate,
dump-spec, and inspect-checkpoint.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
divergence, 1 anything unexpected.
"""

from __future__ import annotations

import argparse
import logging
import sys
import traceback
from pathlib import Path

from . import config as cfgmod
from .audio_io import load_split, load_track, read_wav, write_wav
from .checkpoint import (
    bundle_from_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from .errors import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_UNEXPECTED,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointVersionError,
    ConfigError,
    DataError,
    DivergenceError,
    ShapeError,
    StemsepError,
)
from .evaluate import dump_spectrogram, dump_stem_grid, evaluate, separate_song
from .models import BUNDLE_MODES, ModelBundle, ResidualConfig, build_enhancer, build_separator
from .tensor import using_dtype
from .training import segment_songs, train

log = logging.getLogger("stemsep")


def _split_overrides(extras) -> list:
    """Turn leftover ``--dotted.key value`` tokens into override pairs."""
    overrides = []
    i = 0
    while i < len(extras):
        token = extras[i]
        if not token.startswith("--"):
            raise ConfigError(f"unexpected argument {token!r}")
        key = token[2:]
        if "=" in key:
            key, _, raw = key.partition("=")
            overrides.append((key, raw))
            i += 1
            continue
        if i + 1 >= len(extras):
            raise ConfigError(f"flag --{key} is missing a value")
        overrides.append((key, extras[i + 1]))
        i += 2
    return overrides


def _resolved(args) -> dict:
    return cfgmod.resolve(getattr(args, "config", None), _split_overrides(args.overrides))


def _check_output(path, directory: bool = False) -> None:
    """ConfigError unless ``path`` can be written as a file (or used as a
    directory): it is not an existing directory (or file), and its nearest
    existing ancestor is a directory. Verbs check before any work."""
    path = Path(path)
    if path.exists():
        if path.is_dir() != directory:
            kind = "not a directory" if directory else "a directory"
            raise ConfigError(f"output path {path} is {kind}")
        return
    for parent in path.parents:
        if parent.exists():
            if not parent.is_dir():
                raise ConfigError(f"cannot create output path {path}: {parent} is not a directory")
            return


# ---------------------------------------------------------------------------
# Verbs


def _train_windows(dataset, values, sources):
    """The train split's source pool and validation windows; an empty
    validation split is a DataError."""
    tracks = load_split(dataset, "train", sources=sources)
    pool, val_windows = segment_songs(
        tracks, clip_seconds=values["data.clip_seconds"],
        val_ratio=values["data.val_ratio"], seed=values["train.seed"], sources=sources)
    if not val_windows:
        raise DataError("validation split is empty; add songs or lower data.clip_seconds")
    return pool, val_windows


def _train_and_save(out, bundle, pool, val_windows, tcfg):
    """Train and save the best state to ``out``. A run that diverges after
    its first validation saves its best state before the error propagates."""
    try:
        ckpt = train(bundle, pool, val_windows, tcfg)
    except DivergenceError as exc:
        if exc.checkpoint is not None:
            save_checkpoint(out, exc.checkpoint)
            log.error("saved the best state before divergence to %s", out)
        raise
    save_checkpoint(out, ckpt)
    return ckpt


def cmd_train(args) -> int:
    values = _resolved(args)
    model_cfg = cfgmod.model_config(values)
    train_cfg = cfgmod.train_config(values)
    mode = values["train.mode"]
    residual = ResidualConfig(values["train.residual_iterations"]) if mode == "residual" else None
    _check_output(args.out)
    pool, val_windows = _train_windows(args.dataset, values, values["data.sources"])
    with using_dtype(values["train.dtype"]):
        separator = build_separator(model_cfg, rng=values["train.seed"])
        bundle = ModelBundle(mode, separator, residual=residual, sources=values["data.sources"])
        ckpt = _train_and_save(args.out, bundle, pool, val_windows, train_cfg)
    log.info("saved checkpoint to %s (best val loss %.6f)", args.out, ckpt.meta["best_val_loss"])
    return EXIT_OK


def cmd_train_enhancer(args) -> int:
    values = _resolved(args)
    enh_cfg = cfgmod.enhancer_model_config(values)
    train_cfg = cfgmod.train_config(values)
    _check_output(args.out)
    base = load_checkpoint(args.separator)
    if base.mode != "separator":
        raise CheckpointMismatchError(
            f"enhancers train on top of a separator checkpoint, got mode {base.mode!r}")
    sources, dtype = tuple(base.sources), base.dtype()
    pool, val_windows = _train_windows(args.dataset, values, sources)
    frozen = bundle_from_checkpoint(base)
    del base  # the bundle holds its own copy of every parameter
    with using_dtype(dtype):
        enhancers = [build_enhancer(enh_cfg, rng=values["train.seed"] + 1 + s)
                     for s in range(len(sources))]
        bundle = ModelBundle("enhancer", frozen.separator, enhancers=enhancers, sources=sources)
        _train_and_save(args.out, bundle, pool, val_windows, train_cfg)
    log.info("saved enhancer checkpoint to %s", args.out)
    return EXIT_OK


def cmd_separate(args) -> int:
    values = _resolved(args)
    _check_output(args.out_dir, directory=True)
    # Only the bundle outlives this line: the loaded copy is freed before separating.
    bundle = bundle_from_checkpoint(load_checkpoint(args.checkpoint, expect_mode=args.mode))
    song = read_wav(args.input)
    stems = separate_song(bundle, song, accompaniment=values["separate.accompaniment"])
    out_dir = Path(args.out_dir)
    for name, clip in stems.items():
        write_wav(out_dir / f"{name}.wav", clip, fmt=args.format)
    log.info("wrote %d stems to %s", len(stems), out_dir)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    values = _resolved(args)
    if args.out:
        _check_output(args.out)
    model = None
    if args.checkpoint:
        model = bundle_from_checkpoint(load_checkpoint(args.checkpoint))
    sources = values["data.sources"] if args.estimates_dir else None
    report = evaluate(args.dataset, split=args.split, model=model,
                      estimates_dir=args.estimates_dir, sources=sources,
                      accompaniment=values["separate.accompaniment"])
    csv_text = report.to_csv()
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(csv_text)
        log.info("wrote report to %s", args.out)
    else:
        sys.stdout.write(csv_text)
    sys.stdout.write(report.to_table())
    return EXIT_OK


def cmd_dump_spec(args) -> int:
    _resolved(args)  # no setting applies, but a malformed or unknown one is still an error
    if args.track_dir:
        if not args.out_dir:
            raise ConfigError("--out-dir is required with --track-dir")
        _check_output(args.out_dir, directory=True)
        model = None
        if args.checkpoint:
            model = bundle_from_checkpoint(load_checkpoint(args.checkpoint))
        track = load_track(args.track_dir, require_stems=(model is None))
        written = dump_stem_grid(track, args.out_dir, model=model)
        log.info("wrote %d matrices to %s", len(written), args.out_dir)
    else:
        if not args.input:
            raise ConfigError("--input or --track-dir is required")
        if not args.out:
            raise ConfigError("--out is required when dumping a single file")
        _check_output(args.out)
        dump_spectrogram(read_wav(args.input), args.out)
        log.info("wrote %s", args.out)
    return EXIT_OK


def cmd_inspect(args) -> int:
    if args.overrides:
        raise ConfigError("inspect-checkpoint takes no settings; unexpected arguments: "
                          + " ".join(args.overrides))
    ckpt = load_checkpoint(args.checkpoint, arrays=False)  # counts and sizes from the manifest
    total = sum(arr.size for arr in ckpt.params.values())
    print(f"mode: {ckpt.mode}")
    print(f"sources: {', '.join(ckpt.sources)}")
    print(f"dtype: {ckpt.dtype()}")
    print(f"parameters+buffers: {len(ckpt.params)} arrays, {total} values")
    cfg = ckpt.model_config
    print(f"model: encoder={cfg.encoder_specs} decoder={cfg.decoder_specs}")
    print(f"       skip_kind={cfg.skip_kind} recurrence={cfg.recurrence} norm={cfg.norm_kind}")
    if ckpt.residual:
        print(f"residual iterations: {ckpt.residual.iterations}")
    if ckpt.optimizer:
        print(f"optimizer: adam (t={ckpt.optimizer['t']}, lrs={ckpt.optimizer['group_lrs']})")
    for key, value in sorted((ckpt.meta or {}).items()):
        print(f"meta.{key}: {value}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stemsep",
        description="Music source separation: train, separate songs into stems, evaluate SDR.",
        epilog="Any configuration key can be overridden as --<key> <value>, "
               "e.g. --model.skip_kind conv --train.lr_conv 0.0005.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--config", help="key=value configuration file")

    p = sub.add_parser("train", help="train a separator (or residual) model")
    common(p)
    p.add_argument("--dataset", required=True, help="dataset root with a train/ split")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("train-enhancer", help="train per-source enhancers on a frozen separator")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--separator", required=True, help="separator checkpoint to build on")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_enhancer)

    p = sub.add_parser("separate", help="split a song into stems")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="mixture WAV file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--mode", choices=BUNDLE_MODES,
                   help="require the checkpoint to be of this mode")
    p.add_argument("--format", choices=("float32", "pcm16"), default="float32")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("evaluate", help="score separations against reference stems")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--checkpoint", help="model to run")
    p.add_argument("--estimates-dir", help="pre-rendered estimates to score instead")
    p.add_argument("--out", help="write CSV rows here (default: stdout)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("dump-spec", help="write spectrogram matrices as text")
    common(p)
    p.add_argument("--input", help="audio file to dump")
    p.add_argument("--out", help="output path for a single dump")
    p.add_argument("--track-dir", help="dump a whole track's groundtruth/estimate grid")
    p.add_argument("--out-dir", help="output directory for a grid")
    p.add_argument("--checkpoint", help="also dump model estimates")
    p.set_defaults(func=cmd_dump_spec)

    p = sub.add_parser("inspect-checkpoint", help="describe a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    args.overrides = extras
    try:
        return args.func(args)
    except (ConfigError, CheckpointVersionError, CheckpointMismatchError, ShapeError) as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    except (DataError, CheckpointError) as exc:
        log.error("%s", exc)
        return EXIT_DATA
    except DivergenceError as exc:
        log.error("training diverged: %s (step %s)", exc, exc.step)
        return EXIT_DIVERGED
    except StemsepError as exc:
        log.error("%s", exc)
        return EXIT_UNEXPECTED
    except Exception:
        traceback.print_exc()
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
