"""Dataset segmentation, online remix augmentation, the spectrogram MSE
loss, and the training loop with early stopping.

Every training mixture is assembled on the fly: one sub-clip is drawn
independently per source, with no gain or shift (the remix augmentation
of Uhlich et al., ICASSP 2017). The STFT is linear, so the pool holds
each sub-clip's spectrum, computed once, and a mixture's spectrum is the
sum of the chosen sources' spectra. The network sees log(1 + |mixture|)
and the targets are the per-source magnitudes. An "epoch" is a fixed
budget of augmented batches (the augmentation stream is unbounded);
validation after each epoch drives early stopping on held-out,
non-augmented mixtures.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import dsp
from .audio_io import SAMPLE_RATE, SOURCES, AudioClip, Track
from .errors import ConfigError, DataError, DivergenceError, ShapeError
from .models import ModelBundle, collect_state, residual_forward, restore_state
from .optim import Adam, build_optimizer
from .tensor import (
    Tensor,
    astensor,
    backward,
    current_tape,
    get_default_dtype,
    mul,
    no_grad,
    reduce_mean,
    reshape,
    stack,
    sub,
    using_dtype,
)

log = logging.getLogger(__name__)


class SourcePool:
    """Per-source lists of complex64 (F, T) spectra of equal-length mono
    sub-clips from the train split.

    Each clip's STFT is computed here, once (about 0.4 s for 64 five-second
    clips, which batches of 10 repay within about 2 steps), and the
    waveforms are not kept. An empty source, a clip of another length or
    rate, or audio at a rate other than ``SAMPLE_RATE`` raises DataError.
    """

    def __init__(self, sources, clips: dict, sample_rate: int, clip_samples: int):
        self.sources = tuple(sources)
        self.clip_samples = clip_samples
        for name in self.sources:
            if not clips.get(name):
                raise DataError(f"source pool for {name!r} is empty")
            for clip in clips[name]:
                if clip.num_samples != clip_samples or clip.sample_rate != sample_rate:
                    raise DataError(f"sub-clip of source {name!r} has inconsistent length or rate")
        # One array per clip, not one per source: a (clips, F, T) block per
        # source made each later model build page-fault its memory back in.
        self.spectra = {name: [clip_spectrum(clip) for clip in clips[name]]
                        for name in self.sources}

    def counts(self) -> dict:
        return {name: len(self.spectra[name]) for name in self.sources}


@dataclass
class TrainConfig:
    batch_size: int = 10
    lr_conv: float = 1e-3
    lr_gru: float = 1e-4
    max_epochs: int = 50
    patience: int = 10
    seed: int = 0
    epoch_batches: int = 100
    gru_clip_norm: float = 5.0

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.epoch_batches < 1 or self.max_epochs < 1:
            raise ConfigError("epoch_batches and max_epochs must be >= 1")


# ---------------------------------------------------------------------------
# Segmentation


def segment_songs(tracks, clip_seconds: float = 5.0, val_ratio: float = 0.1,
                  seed: int = 0, sources=SOURCES):
    """Cut songs into consecutive non-overlapping sub-clips per source.

    Songs are first split train/validation by a seeded shuffle; the
    trailing remainder of each song is dropped, songs shorter than one
    clip are skipped with a warning. Stereo songs contribute each channel
    as separate (still source-aligned) mono material. Returns the train
    SourcePool and the validation windows as per-window source dicts.
    Audio at another rate than the first song's, or than ``SAMPLE_RATE``,
    raises DataError.
    """
    tracks = list(tracks)
    if not tracks:
        raise DataError("no songs to segment")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(tracks))
    n_train, _ = split_counts(len(tracks), val_ratio)
    train_tracks = [tracks[i] for i in order[:n_train]]
    val_tracks = [tracks[i] for i in order[n_train:]]

    sample_rate = tracks[0].mixture.sample_rate
    clip_samples = int(round(clip_seconds * sample_rate))
    for track in tracks:
        if any(clip.sample_rate != sample_rate for clip in (track.mixture, *track.stems.values())):
            raise DataError(f"song {track.name} is not at the first song's {sample_rate} Hz")

    def windows(track: Track):
        n = track.mixture.num_samples
        count = n // clip_samples
        if count == 0:
            log.warning("song %s is shorter than one %.1f s clip; skipped", track.name, clip_seconds)
            return
        channels = track.mixture.channels
        for c in range(channels):
            for w in range(count):
                start = w * clip_samples
                yield {name: AudioClip(track.stems[name].channel(c)[start:start + clip_samples].copy(),
                                       sample_rate)
                       for name in sources}

    pool_clips = {name: [] for name in sources}
    for track in train_tracks:
        for window in windows(track):
            for name in sources:
                pool_clips[name].append(window[name])
    val_windows = [window for track in val_tracks for window in windows(track)]

    return SourcePool(sources, pool_clips, sample_rate, clip_samples), val_windows


def split_counts(n_songs: int, val_ratio: float = 0.1) -> tuple[int, int]:
    """Train/validation song counts for a given split ratio."""
    n_train = int(round((1.0 - val_ratio) * n_songs))
    if n_songs >= 2:
        n_train = min(max(n_train, 1), n_songs - 1)
    return n_train, n_songs - n_train


# ---------------------------------------------------------------------------
# Augmentation and features


def clip_spectrum(clip: AudioClip) -> np.ndarray:
    """The C-contiguous complex64 (F, T) STFT of a clip's first channel."""
    if clip.sample_rate != SAMPLE_RATE:
        raise DataError(f"training audio is at {clip.sample_rate} Hz; "
                        f"the STFT geometry needs {SAMPLE_RATE} Hz")
    return np.array(dsp.stft(clip.channel(0)).data, dtype=np.complex64, order="C")


def spectral_features(spectra: np.ndarray):
    """Mixture features log(1 + |sum_s X_s|) (..., F, T) and target
    magnitudes |X_s| (..., S, F, T) from source spectra (..., S, F, T)."""
    return np.log1p(np.abs(spectra.sum(axis=-3))), np.abs(spectra)


def make_batch(pool: SourcePool, rng: np.random.Generator, batch_size: int):
    """A remixed batch in the default dtype: features (B, F, T) and target
    magnitudes (B, S, F, T). Per instance and per source, in that order,
    one ``rng.integers`` call picks the clip."""
    chosen = [[pool.spectra[name][int(rng.integers(len(pool.spectra[name])))]
               for name in pool.sources]
              for _ in range(batch_size)]
    feats, mags = spectral_features(np.array(chosen))
    dt = get_default_dtype()
    return feats.astype(dt, copy=False), mags.astype(dt, copy=False)


def validation_arrays(val_windows, sources):
    """Fixed (non-augmented) validation features/targets, one per window."""
    return [spectral_features(np.stack([clip_spectrum(window[name]) for name in sources]))
            for window in val_windows]


# ---------------------------------------------------------------------------
# Loss


def mse_loss(pred: Tensor, target_mags) -> Tensor:
    """Mean squared error between predictions and log1p of the targets.

    The normalizer is the full element count (batch * sources * bins *
    frames); targets arrive as raw magnitudes and are mapped through
    log1p here.
    """
    pred = astensor(pred)
    target = np.asarray(target_mags, dtype=pred.data.dtype)
    if pred.data.size != target.size:
        raise ShapeError(f"prediction {pred.data.shape} does not match targets {target.shape}")
    if pred.data.shape != target.shape:
        pred = reshape(pred, target.shape)
    diff = sub(pred, astensor(np.log1p(target), like=pred))
    return reduce_mean(mul(diff, diff))


# ---------------------------------------------------------------------------
# Steps and the loop


@dataclass
class StepReport:
    loss: float
    per_iteration: list | None = None


def _forward_loss(bundle: ModelBundle, feats, mags, training: bool):
    """Mode-dispatched loss; residual mode averages per-iteration losses."""
    if bundle.mode == "residual":
        out = residual_forward(bundle.separator, feats, bundle.residual.iterations,
                               training=training)
        losses = [mse_loss(total, mags) for total in out.totals]
        loss = reduce_mean(stack(losses))
        return loss, [float(l.data) for l in losses]
    pred = bundle.predict(feats, training=training)
    return mse_loss(pred, mags), None


def training_step(bundle: ModelBundle, optimizer: Adam, feats, mags) -> StepReport:
    """One forward/backward/update cycle on an assembled batch.

    A non-finite loss raises DivergenceError before any gradient exists,
    and a non-finite gradient raises it before the update, so parameters
    and optimizer moments are left as they were either way.
    """
    loss, per_iteration = _forward_loss(bundle, feats, mags, training=True)
    value = float(loss.data)
    if not np.isfinite(value):
        current_tape().clear()
        raise DivergenceError(f"non-finite training loss {value}", loss_history=[value])
    backward(loss)
    if not all(p.grad is None or np.isfinite(p.grad).all() for _, p in optimizer.parameters()):
        optimizer.zero_grad()
        raise DivergenceError(f"non-finite gradient at training loss {value}",
                              loss_history=[value])
    optimizer.step()
    optimizer.zero_grad()
    return StepReport(value, per_iteration)


def validation_loss(bundle: ModelBundle, val_pairs, batch_size: int = 10) -> float:
    """Eval-mode loss over fixed validation windows; mutates nothing."""
    if not val_pairs:
        raise DataError("validation set is empty")
    dt = get_default_dtype()
    total, count = 0.0, 0
    with no_grad():
        for start in range(0, len(val_pairs), batch_size):
            chunk = val_pairs[start:start + batch_size]
            feats = np.stack([f for f, _ in chunk]).astype(dt)
            mags = np.stack([m for _, m in chunk]).astype(dt)
            loss, _ = _forward_loss(bundle, feats, mags, training=False)
            total += float(loss.data) * len(chunk)
            count += len(chunk)
    return total / count


def train(bundle: ModelBundle, pool: SourcePool, val_windows, cfg: TrainConfig):
    """Train the bundle with online augmentation and early stopping.

    Returns a Checkpoint holding the best-validation parameters. Aborts
    with DivergenceError (carrying the recent loss history) if the loss or
    a gradient goes non-finite; once a validation has run, the error also
    carries a checkpoint of the best state so far as ``checkpoint``.
    """
    from .checkpoint import make_checkpoint  # deferred: checkpoint imports models

    cfg.validate()
    param_dtype = next(iter(bundle.named_parameters()))[1].data.dtype

    with using_dtype(param_dtype):
        val_pairs = validation_arrays(val_windows, pool.sources)
        conv_params, gru_params = bundle.trainable_groups()
        optimizer = build_optimizer(conv_params, gru_params, cfg.lr_conv, cfg.lr_gru,
                                    gru_clip_norm=cfg.gru_clip_norm)
        aug_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])

        best_state = collect_state(bundle)
        best_val = float("inf")
        best_sequence: list[float] = []
        val_history: list[float] = []
        loss_history: list[float] = []
        bad_validations = 0
        step = 0

        def best_checkpoint():
            restore_state(bundle, best_state)
            meta = {
                "seed": cfg.seed,
                "step": step,
                "best_val_loss": best_val,
                "val_history": val_history,
                "best_sequence": best_sequence,
            }
            return make_checkpoint(bundle, optimizer, meta)

        for epoch in range(cfg.max_epochs):
            epoch_losses = []
            for _ in range(cfg.epoch_batches):
                feats, mags = make_batch(pool, aug_rng, cfg.batch_size)
                step += 1
                try:
                    report = training_step(bundle, optimizer, feats, mags)
                except DivergenceError as exc:
                    raise DivergenceError(
                        f"{exc} at step {step}", step=step,
                        loss_history=(loss_history + exc.loss_history)[-50:],
                        checkpoint=best_checkpoint() if val_history else None) from exc
                loss_history.append(report.loss)
                epoch_losses.append(report.loss)
            vloss = validation_loss(bundle, val_pairs, cfg.batch_size)
            val_history.append(vloss)
            if vloss < best_val:
                best_val = vloss
                best_state = collect_state(bundle)
                best_sequence.append(vloss)
                bad_validations = 0
            else:
                bad_validations += 1
            log.info("epoch %d: train loss %.6f, val loss %.6f (best %.6f)",
                     epoch + 1, float(np.mean(epoch_losses)), vloss, best_val)
            if bad_validations >= cfg.patience:
                log.info("early stopping after %d stale validations", bad_validations)
                break

        return best_checkpoint()
