"""The stemsep benchmark workloads: inputs made from a seed, the closed
timing loop, output checks, and the end-to-end and per-layer metrics.

Every workload drives stemsep as a library through the same public
functions as the ``train`` and ``separate`` verbs, and calls them through
their modules so that a traced run can wrap them (see ``tracer``).
"""

from __future__ import annotations

import importlib
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import machine
from tracer import Tracer

from stemsep import audio_io, checkpoint, dsp, models, optim, tensor, training

evaluate = importlib.import_module("stemsep.evaluate")  # the package attribute is the function

SAMPLE_RATE = audio_io.SAMPLE_RATE
# The separation checkpoint stands for one trained model, so its weights
# do not follow the workload seed; the audio does.
MODEL_SEED = 0
# Acceptance criterion 2's tolerance for stems summing back to the mixture.
CONSERVATION_RTOL = 1e-6


@dataclass(frozen=True)
class Sizes:
    """Input and model sizes. ``FULL`` is the benchmark; ``TINY`` keeps
    the self-tests fast."""

    train_channels: tuple = (64, 32, 16)
    clip_seconds: float = 5.0
    batch: int = 10
    pool_clips: int = 32  # per source; a larger pool steadies loss_end across seeds
    loss_steps: int = 24  # loss_end averages steps loss_steps-loss_window+1 .. loss_steps
    loss_window: int = 8
    sep_channels: tuple = (512, 256, 128)
    long_seconds: float = 120.0
    # Set-up repeats; setup_s is their median. The first few set-ups in a
    # process run slow, so the median needs many of them to settle.
    train_setups: int = 200
    sep_setups: int = 15


FULL = Sizes()
TINY = Sizes(train_channels=(8, 6, 4), clip_seconds=1.0, batch=2, pool_clips=2,
             loss_steps=12, loss_window=4, sep_channels=(16, 8, 4),
             long_seconds=3.0, train_setups=2, sep_setups=2)


# ---------------------------------------------------------------------------
# Synthetic audio: the tests' band-noise and harmonic-tone generators


def tone(rng: np.random.Generator, n: int, f0_range=(140.0, 280.0)) -> np.ndarray:
    """Harmonic complex with a random fundamental, partials below 4 kHz."""
    f0 = rng.uniform(*f0_range)
    t = np.arange(n) / SAMPLE_RATE
    wave = np.zeros(n)
    k = 1
    while k * f0 < 4000.0 and k <= 10:
        wave += (1.0 / k) * np.sin(2.0 * np.pi * k * f0 * t + rng.uniform(0, 2 * np.pi))
        k += 1
    return 0.25 * wave / np.max(np.abs(wave))


def bandnoise(rng: np.random.Generator, n: int, band=(5000.0, 10000.0)) -> np.ndarray:
    """White noise band-limited by an FFT brick-wall mask."""
    spectrum = np.fft.rfft(rng.normal(size=n))
    freqs = np.fft.rfftfreq(n, d=1.0 / SAMPLE_RATE)
    spectrum[(freqs < band[0]) | (freqs > band[1])] = 0.0
    shaped = np.fft.irfft(spectrum, n=n)
    return 0.15 * shaped / np.max(np.abs(shaped))


# The default model's four stems, each a sequence of one-second notes so
# that a song's content, and with it the separation loss, averages over
# many draws. PAN gives each stem's (left, right) gain.
SONG_GENERATORS = {
    "drums": lambda rng, n: bandnoise(rng, n, (5000.0, 10000.0)),
    "bass": lambda rng, n: tone(rng, n, (40.0, 80.0)),
    "other": lambda rng, n: bandnoise(rng, n, (1000.0, 4000.0)),
    "vocals": lambda rng, n: tone(rng, n, (140.0, 280.0)),
}
PAN = {"drums": (1.0, 0.8), "bass": (0.9, 0.9), "other": (0.7, 1.0), "vocals": (1.0, 0.95)}


def song_sources(rng: np.random.Generator, seconds: float) -> dict:
    """Mono float32 source waves of one song, keyed by stem name."""
    n = int(round(seconds * SAMPLE_RATE))
    sources = {}
    for name in audio_io.SOURCES:
        wave = np.empty(n, dtype=np.float32)
        for start in range(0, n, SAMPLE_RATE):
            stop = min(start + SAMPLE_RATE, n)
            wave[start:stop] = SONG_GENERATORS[name](rng, stop - start)
        sources[name] = wave
    return sources


def stereo_mixture(sources: dict) -> audio_io.AudioClip:
    data = np.zeros((2, next(iter(sources.values())).size))
    for name, wave in sources.items():
        for c in range(2):
            data[c] += PAN[name][c] * wave
    return audio_io.AudioClip(data, SAMPLE_RATE)


def log_spectral_mse(estimate: np.ndarray, reference: np.ndarray, block: int) -> float:
    """Training-loss distance, MSE of log(1 + |STFT|), taken over blocks of
    ``block`` samples so that the check never holds a whole-song STFT."""
    total, count = 0.0, 0
    for start in range(0, reference.size, block):
        stop = min(start + block, reference.size)
        if stop - start < dsp.WINDOW_SIZE:
            break
        est = dsp.log1p_magnitude(dsp.stft(estimate[start:stop]))
        ref = dsp.log1p_magnitude(dsp.stft(reference[start:stop]))
        total += float(np.sum((est - ref) ** 2))
        count += ref.size
    return total / count


# ---------------------------------------------------------------------------
# Workloads


class TrainReduced:
    name = "train_reduced"
    tail_percentile = 75
    run_end_op = True  # the final checkpoint save
    sources = ("noise", "tone")

    def __init__(self, seed: int, sizes: Sizes, work_dir: Path):
        self.sizes = sizes
        self.seed = seed
        rng = np.random.default_rng(seed)
        n = int(round(sizes.clip_seconds * SAMPLE_RATE))
        clips = {name: [] for name in self.sources}
        for _ in range(sizes.pool_clips):
            clips["noise"].append(audio_io.AudioClip(bandnoise(rng, n), SAMPLE_RATE))
            clips["tone"].append(audio_io.AudioClip(tone(rng, n), SAMPLE_RATE))
        self.pool = training.SourcePool(self.sources, clips, SAMPLE_RATE, n)
        self.aug_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        self.cfg = training.TrainConfig(batch_size=sizes.batch, seed=seed)
        self.model_cfg = models.separator_config(
            source_count=2, freq_bins=dsp.FREQ_BINS, channels=sizes.train_channels,
            kernels=(5, 5, 3), strides=(2, 2, 2), skip_kind="gru", recurrence="skips",
            norm_kind="weight_norm")
        self.path = work_dir / "train.ckpt"
        self.min_ops = sizes.loss_steps
        self.setup_repeats = sizes.train_setups
        self.clips_per_op = sizes.batch
        self.audio_seconds_per_op = sizes.batch * sizes.clip_seconds
        self.losses: list = []

    def setup(self) -> None:
        separator = models.build_separator(self.model_cfg, rng=self.seed)
        self.bundle = models.ModelBundle("separator", separator, sources=self.sources)
        conv_params, gru_params = self.bundle.trainable_groups()
        self.optimizer = optim.build_optimizer(
            conv_params, gru_params, self.cfg.lr_conv, self.cfg.lr_gru,
            gru_clip_norm=self.cfg.gru_clip_norm)

    def op(self):
        feats, mags = training.make_batch(self.pool, self.aug_rng, self.cfg.batch_size)
        return training.training_step(self.bundle, self.optimizer, feats, mags)

    def check(self, report) -> str | None:
        self.losses.append(report.loss)
        if not math.isfinite(report.loss):
            return f"non-finite training loss {report.loss} at step {len(self.losses)}"
        return None

    def finish(self) -> None:
        meta = {"seed": self.seed, "step": len(self.losses)}
        ckpt = checkpoint.make_checkpoint(self.bundle, self.optimizer, meta)
        checkpoint.save_checkpoint(self.path, ckpt)

    def check_finish(self) -> str | None:
        loaded = checkpoint.bundle_from_checkpoint(checkpoint.load_checkpoint(self.path))
        if checkpoint.parameter_fingerprint(loaded) != checkpoint.parameter_fingerprint(self.bundle):
            return "saved checkpoint does not load back to the trained parameters"
        if not self.loss_end() < self.losses[0]:
            return f"loss did not fall: first step {self.losses[0]}, loss_end {self.loss_end()}"
        return None

    def loss_end(self) -> float:
        """Mean loss over a fixed window of steps, so that it repeats
        exactly at one seed whatever the run length."""
        stop = self.sizes.loss_steps
        return float(np.mean(self.losses[stop - self.sizes.loss_window:stop]))

    def floor_shapes(self) -> tuple:
        frames = 1 + int(round(self.sizes.clip_seconds * SAMPLE_RATE)) // dsp.HOP_SIZE
        return self.sizes.batch, frames


class SeparateLong:
    """``stemsep separate`` on a long song: the default model saved as a
    checkpoint, and a stereo song made from the seed."""

    name = "separate_long"
    # At least three songs, so that the median is a warm song's time; with
    # so few ops no percentile above the median has 10 samples beyond it.
    min_ops = 3
    tail_percentile = 50
    run_end_op = False
    clips_per_op = 1

    def __init__(self, seed: int, sizes: Sizes, work_dir: Path):
        self.path = work_dir / "separator.ckpt"
        separator = models.build_separator(
            models.separator_config(channels=sizes.sep_channels), rng=MODEL_SEED)
        bundle = models.ModelBundle("separator", separator, sources=audio_io.SOURCES)
        checkpoint.save_checkpoint(self.path, checkpoint.make_checkpoint(bundle))
        self.seconds = sizes.long_seconds
        self.sources = song_sources(np.random.default_rng(seed), self.seconds)
        self.wav = work_dir / "song.wav"
        audio_io.write_wav(self.wav, stereo_mixture(self.sources), fmt="float32")
        self.out_dir = work_dir / "stems"
        self.setup_repeats = sizes.sep_setups
        self.audio_seconds_per_op = self.seconds
        self._loss = None

    def setup(self) -> None:
        self.bundle = None  # the previous repeat's model is freed before loading again
        self.bundle = checkpoint.bundle_from_checkpoint(checkpoint.load_checkpoint(self.path))

    def op(self):
        song = audio_io.read_wav(self.wav)
        stems = evaluate.separate_song(self.bundle, song, accompaniment="nonvocal")
        for name, clip in stems.items():
            audio_io.write_wav(self.out_dir / f"{name}.wav", clip, fmt="float32")
        return song, stems

    def check(self, out) -> str | None:
        song, stems = out
        for name, clip in stems.items():
            if clip.data.shape != song.data.shape:
                return f"stem {name} has shape {clip.data.shape}, input {song.data.shape}"
            if not np.isfinite(clip.data).all():
                return f"stem {name} is not finite"
        for c in range(song.channels):
            total = sum(stems[name].data[c] for name in audio_io.SOURCES)
            mix = song.data[c]
            error = np.sqrt(np.mean((total - mix) ** 2)) / np.sqrt(np.mean(mix ** 2))
            if not error <= CONSERVATION_RTOL:
                return f"stems miss the mixture by {error:.3e} relative RMS on channel {c}"
        if self._loss is None:  # outputs repeat exactly, so one op gives the loss
            self._loss = float(np.mean([
                log_spectral_mse(stems[name].data[0],
                                 PAN[name][0] * self.sources[name].astype(np.float64),
                                 10 * SAMPLE_RATE)
                for name in audio_io.SOURCES]))
        return None

    def loss_end(self) -> float:
        return self._loss if self._loss is not None else float("nan")

    def floor_shapes(self) -> tuple:
        return 1, 1 + int(round(self.seconds * SAMPLE_RATE)) // dsp.HOP_SIZE


WORKLOADS = {w.name: w for w in (TrainReduced, SeparateLong)}


# ---------------------------------------------------------------------------
# Timing


@dataclass
class Phase:
    latencies: list = field(default_factory=list)  # of successful ops
    attempted: int = 0
    failed: int = 0
    busy: float = 0.0


def _fail(what: str) -> None:
    print(f"perfbench: {what}", file=sys.stderr)


def _check(check, tracer: Tracer | None, *args) -> str | None:
    """Run an output check untraced; a check that raises is a failure."""
    with tracer.paused() if tracer is not None else nullcontext():
        try:
            return check(*args)
        except Exception:
            return f"output check raised:\n{traceback.format_exc()}"


def run_ops(wl, seconds: float, min_ops: int, tracer: Tracer | None = None,
            first_op: int = 1) -> Phase:
    """Closed loop: the next op starts when the previous one and its
    check are done. Stops once another op would overrun ``seconds``, after
    at least ``min_ops``. Checks run outside the timed region."""
    phase = Phase()
    start = time.perf_counter()
    while phase.attempted < min_ops or (
            time.perf_counter() - start + statistics.median(phase.latencies or [0.0]) < seconds):
        phase.attempted += 1
        if tracer is not None:
            tracer.op = first_op + phase.attempted - 1
        t0 = time.perf_counter()
        try:
            out = wl.op()
        except Exception:
            phase.busy += time.perf_counter() - t0
            phase.failed += 1
            _fail(f"op {phase.attempted} raised:\n{traceback.format_exc()}")
            continue
        elapsed = time.perf_counter() - t0
        phase.busy += elapsed
        problem = _check(wl.check, tracer, out)
        out = None
        if problem:
            phase.failed += 1
            _fail(problem)
        else:
            phase.latencies.append(elapsed)
    return phase


def run_finish(wl, phase: Phase, tracer: Tracer | None = None) -> None:
    """The run-end op (the training checkpoint save), timed into ``busy``."""
    if not wl.run_end_op:
        return
    if tracer is not None:
        tracer.op = -1
    phase.attempted += 1
    t0 = time.perf_counter()
    try:
        wl.finish()
    except Exception:
        problem = f"run-end op raised:\n{traceback.format_exc()}"
    else:
        problem = None
    phase.busy += time.perf_counter() - t0
    if problem is None:
        problem = _check(wl.check_finish, tracer)
    if problem:
        phase.failed += 1
        _fail(problem)


def timed_setups(wl, repeats: int) -> list:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return times


def percentile(values: list, q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# ---------------------------------------------------------------------------
# Metrics


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit), the JSON line's metrics (bounded in BENCHMARK.json)
    extra: dict  # name -> (value, unit), printed in the table only
    notes: dict  # name -> explanation printed next to the value
    fingerprint: dict

    def line(self) -> dict:
        return {"correct": self.correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in self.metrics.items()}}


def end_to_end(wl, setups: list, phase: Phase, rss: float) -> tuple:
    lat = phase.latencies
    q = wl.tail_percentile
    # max(): a run in which every op failed still prints its result.
    audio_seconds = max(len(lat), 1) * wl.audio_seconds_per_op
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_s_p50": (percentile(lat, 50), "s"),
        "clips_per_s": (len(lat) * wl.clips_per_op / phase.busy, "1/s"),
        "rtf": (phase.busy / audio_seconds, "s/s"),
        "loss_end": (wl.loss_end(), "loss"),
        "peak_rss_mb": (rss, "MB"),
    }
    # The tail is printed but has no bound: its spread across runs follows the
    # share of ops that meet contention from other tenants of the machine,
    # and exceeded 0.25 of its median on a shared 2-vCPU box.
    tail = percentile(lat, q)
    extra = {"latency_s_tail": (tail, "s")}
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "latency_s_p50": f"{len(lat)} ops",
        "latency_s_tail": f"p{q} of {len(lat)} ops, {sum(v > tail for v in lat)} beyond",
        "clips_per_s": f"{len(lat) * wl.clips_per_op} clips in {phase.busy:.3f} s",
        "rtf": f"{len(lat) * wl.audio_seconds_per_op:.0f} s of audio",
    }
    return metrics, extra, notes


LAYER_TIMES = {  # metric -> (span, "busy" | "self"), seconds per op
    "training.make_batch_s": ("training.make_batch", "busy"),
    "training.mse_loss_s": ("training.mse_loss", "busy"),
    "models.forward_s": ("models.forward", "busy"),
    "models.forward_self_s": ("models.forward", "self"),
    "tensor.backward_s": ("tensor.backward", "busy"),
    "optim.step_s": ("optim.step", "busy"),
    "layers.conv1d_s": ("layers.conv1d", "busy"),
    "layers.conv_transpose1d_s": ("layers.conv_transpose1d", "busy"),
    "layers.gru_s": ("layers.gru", "busy"),
    "layers.weight_norm_s": ("layers.weight_norm", "busy"),
    "dsp.stft_s": ("dsp.stft", "busy"),
    "dsp.istft_s": ("dsp.istft", "busy"),
    "dsp.wiener_masks_s": ("dsp.wiener_masks", "busy"),
    "evaluate.separate_song_self_s": ("evaluate.separate_song", "self"),
    "audio_io.read_wav_s": ("audio_io.read_wav", "busy"),
    "audio_io.write_wav_s": ("audio_io.write_wav", "busy"),
}
LAYER_CALLS = {  # metric -> span, calls per op
    "layers.conv1d_calls": "layers.conv1d",
    "layers.conv_transpose1d_calls": "layers.conv_transpose1d",
    "layers.gru_calls": "layers.gru",
    "layers.weight_norm_calls": "layers.weight_norm",
    "dsp.stft_calls": "dsp.stft",
}
LAYER_GFLOPS = {  # metric -> span; FLOPs computed from shapes over busy time
    "layers.conv1d_gflops": "layers.conv1d",
    "layers.conv_transpose1d_gflops": "layers.conv_transpose1d",
    "layers.gru_gflops": "layers.gru",
}
SETUP_TIMES = {  # metric -> span, seconds per call: these run in set-up or at the run's end
    "checkpoint.load_s": "checkpoint.load",
    "checkpoint.bundle_s": "checkpoint.bundle",
    "checkpoint.save_s": "checkpoint.save",
}
COMPUTED = ("layers.conv1d_gflops", "layers.conv_transpose1d_gflops", "layers.gru_gflops",
            "checkpoint.mb", "audio_io.mb")


def per_layer(tracer: Tracer, ops: int, overhead: float, floors: dict) -> dict:
    totals = tracer.totals()
    op_totals = {name: t for name, t in totals.items() if name not in SETUP_TIMES.values()}

    def get(span, key):
        return op_totals[span][key] if span in op_totals else 0.0

    metrics = {}
    for metric, (span, key) in LAYER_TIMES.items():
        metrics[metric] = (get(span, key) / ops, "s")
    metrics["tensor.tape_ops"] = (get("tensor.backward", "count") / ops, "count")
    for metric, span in LAYER_CALLS.items():
        metrics[metric] = (get(span, "calls") / ops, "count")
    for metric, span in LAYER_GFLOPS.items():
        busy = get(span, "busy")
        metrics[metric] = (get(span, "count") / busy / 1e9 if busy else 0.0, "GFLOP/s")
    for metric, span in SETUP_TIMES.items():
        t = totals.get(span)
        metrics[metric] = (t["busy"] / t["calls"] if t else 0.0, "s")
    ckpt = [totals[s] for s in ("checkpoint.load", "checkpoint.save") if s in totals]
    ckpt_calls = sum(t["calls"] for t in ckpt)
    metrics["checkpoint.mb"] = (sum(t["count"] for t in ckpt) / ckpt_calls / 1e6
                                if ckpt_calls else 0.0, "MB")
    metrics["audio_io.mb"] = ((get("audio_io.read_wav", "count")
                               + get("audio_io.write_wav", "count")) / ops / 1e6, "MB")
    metrics["machine.sgemm_gflops"] = (floors["sgemm_gflops"], "GFLOP/s")
    metrics["machine.rfft_s"] = (floors["rfft_s"], "s")
    metrics["trace.overhead"] = (overhead, "s")
    return metrics


def measure_floors(wl) -> dict:
    batch, frames = wl.floor_shapes()
    # The largest layer GEMM is the last transposed convolution's:
    # (B * T1, C1) @ (C1, S * F * K1), T1 being the first encoder layer's
    # output length (the forward pads its input to a whole stride).
    cfg = wl.bundle.separator.cfg
    c1, k1, s1 = cfg.encoder_specs[0]
    t1 = 1 + max(0, -(-(frames - k1) // s1))
    m, k, n = batch * t1, c1, cfg.decoder_specs[2][0] * cfg.decoder_specs[2][1]
    return {"sgemm_gflops": machine.sgemm_gflops(m, k, n), "sgemm_shape": [m, k, n],
            "rfft_s": machine.rfft_seconds(frames, dsp.WINDOW_SIZE),
            "rfft_shape": [frames, dsp.WINDOW_SIZE]}


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        sizes: Sizes = FULL) -> Result:
    """One benchmark run of one workload in this process."""
    work_dir = root / ".perfbench" / f"work-{name}-{seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        with tensor.using_dtype(np.float32):
            return _run(WORKLOADS[name], seed, seconds, trace, root, work_dir, sizes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(cls, seed, seconds, trace, root, work_dir, sizes) -> Result:
    wl = cls(seed, sizes, work_dir)
    if not trace:
        setups = timed_setups(wl, wl.setup_repeats)
        phase = run_ops(wl, seconds, wl.min_ops)
        run_finish(wl, phase)
        metrics, extra, notes = end_to_end(wl, setups, phase, peak_rss_mb())
        attempted, failed = phase.attempted, phase.failed
        fp = {**machine.fingerprint(), "floors": measure_floors(wl)}
    else:
        tracer = Tracer()
        with tracer:  # set-up spans give the checkpoint.* metrics
            timed_setups(wl, wl.setup_repeats)
        untraced = run_ops(wl, seconds / 2, 1)
        with tracer:
            phase = run_ops(wl, seconds / 2, max(1, wl.min_ops - untraced.attempted),
                            tracer, first_op=untraced.attempted + 1)
            run_finish(wl, phase, tracer)
        fp = {**machine.fingerprint(), "floors": measure_floors(wl)}
        overhead = percentile(phase.latencies, 50) - percentile(untraced.latencies, 50)
        metrics = per_layer(tracer, phase.attempted - wl.run_end_op, overhead, fp["floors"])
        extra = {}
        notes = {m: "computed" for m in COMPUTED}
        notes["trace.overhead"] = "traced minus untraced latency_s_p50"
        attempted = untraced.attempted + phase.attempted
        failed = untraced.failed + phase.failed
        tracer.write(root / ".perfbench" / f"trace-{cls.name}-{seed}.json",
                     {"workload": cls.name, "seed": seed, "machine": fp,
                      "metrics": {k: v for k, (v, _) in metrics.items()}})
    extra["failed_ratio"] = (failed / attempted, "ratio")
    notes["failed_ratio"] = f"{failed}/{attempted}"
    return Result(failed == 0, attempted, failed, metrics, extra, notes, fp)
