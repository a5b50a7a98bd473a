"""Whole-song inference with Wiener post-processing, SDR evaluation
reports, and spectrogram dumps for qualitative inspection.

Each channel of a song is processed independently with the shared model:
STFT -> log1p features -> network (residual runners iterate; enhancer
runners refine per source) -> expm1 -> power-ratio masks against the
mixture STFT (mixture phase) -> inverse STFT, trimmed to the input
length. The accompaniment is the sum of the non-vocal stems by default;
``accompaniment="all4"`` sums all four instead.
"""

from __future__ import annotations

import concurrent.futures
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dsp
from .audio_io import SAMPLE_RATE, AudioClip, Track, load_track, read_wav, track_dirs
from .errors import ConfigError, DataError
from .models import ModelBundle
from .tensor import no_grad

log = logging.getLogger(__name__)

ACCOMPANIMENT_MODES = ("nonvocal", "all4")
VOCALS = "vocals"
# Mask-input magnitude floor: keeps every mixture bin fully distributed
# across stems (conservation) even where the network predicts silence.
# At -80 dBFS it is far below audibility.
MASK_MAG_FLOOR = 1e-4


def separate_song(bundle: ModelBundle, song: AudioClip, accompaniment: str = "nonvocal") -> dict:
    """Split a song into stems plus an accompaniment estimate.

    Returns {source_name: AudioClip} with every clip exactly the input
    length; source names come from the checkpoint (training pool order).
    A song at a rate other than ``SAMPLE_RATE`` raises DataError.
    """
    if accompaniment not in ACCOMPANIMENT_MODES:
        raise ConfigError(f"accompaniment mode {accompaniment!r} not in {ACCOMPANIMENT_MODES}")
    sources = list(bundle.sources)
    if len(sources) != bundle.separator.cfg.source_count:
        raise ConfigError("checkpoint source names do not match the model's source count")
    if song.sample_rate != SAMPLE_RATE:
        raise DataError(f"song is at {song.sample_rate} Hz; the model needs {SAMPLE_RATE} Hz")
    if song.num_samples < dsp.WINDOW_SIZE:
        raise DataError(f"song is shorter than one {dsp.WINDOW_SIZE}-sample analysis window")

    per_channel = {name: [] for name in sources}
    for c in range(song.channels):
        mixture_spec = dsp.stft(song.channel(c), sample_rate=song.sample_rate)
        features = dsp.log1p_magnitude(mixture_spec)
        with no_grad():
            mags = bundle.predict(features).data.reshape((len(sources),) + features.shape)
        # Rebinding frees the log-domain estimates before the next channel's forward.
        mags = np.maximum(dsp.magnitude_from_features(mags), MASK_MAG_FLOOR)
        for name, masked in zip(sources, dsp.wiener_masks(mags, mixture_spec)):
            per_channel[name].append(dsp.istft(masked).channel(0))

    stems = {name: AudioClip(np.stack(chans), song.sample_rate)
             for name, chans in per_channel.items()}
    stems["accompaniment"] = _accompaniment_stem(stems, sources, accompaniment, song)
    return stems


def _accompaniment_stem(stems: dict, sources, accompaniment: str, like: AudioClip) -> AudioClip:
    """Sum of the non-vocal stems (of all stems if none is non-vocal), or of
    every stem when ``accompaniment == "all4"``; shaped and rated as ``like``."""
    if accompaniment == "all4":
        parts = list(sources)
    else:
        parts = [name for name in sources if name != VOCALS] or list(sources)
    data = np.zeros_like(like.data)
    for name in parts:
        data = data + stems[name].data
    return AudioClip(data, like.sample_rate)


# ---------------------------------------------------------------------------
# Evaluation reports


@dataclass
class EvalRow:
    track: str
    source: str
    sdr_db: float | None  # None renders as "undefined"


@dataclass
class EvalReport:
    rows: list
    skipped: list = field(default_factory=list)
    config_echo: dict = field(default_factory=dict)

    def sources(self) -> list:
        seen = []
        for row in self.rows:
            if row.source not in seen:
                seen.append(row.source)
        return seen

    def aggregates(self) -> dict:
        """Per-source median and mean over the defined entries only."""
        out = {}
        for source in self.sources():
            values = [r.sdr_db for r in self.rows if r.source == source and r.sdr_db is not None]
            out[source] = {
                "median": float(np.median(values)) if values else None,
                "mean": float(np.mean(values)) if values else None,
                "count": len(values),
            }
        return out

    def to_csv(self) -> str:
        lines = ["track,source,sdr_db"]
        for row in self.rows:
            value = "undefined" if row.sdr_db is None else f"{row.sdr_db:.6f}"
            lines.append(f"{row.track},{row.source},{value}")
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        agg = self.aggregates()
        width = max([len(s) for s in agg] + [6])
        lines = [f"{'source':<{width}}  {'median':>10}  {'mean':>10}  {'tracks':>6}"]
        for source, stats in agg.items():
            med = "undefined" if stats["median"] is None else f"{stats['median']:10.3f}"
            mean = "undefined" if stats["mean"] is None else f"{stats['mean']:10.3f}"
            lines.append(f"{source:<{width}}  {med:>10}  {mean:>10}  {stats['count']:>6}")
        if self.skipped:
            lines.append("skipped tracks: " + ", ".join(self.skipped))
        return "\n".join(lines) + "\n"


def _reference_stems(track: Track, sources, accompaniment: str) -> dict:
    refs = dict(track.stems)
    refs["accompaniment"] = _accompaniment_stem(track.stems, sources, accompaniment, track.mixture)
    return refs


def _score_track(track: Track, estimates: dict, sources, accompaniment: str) -> list:
    refs = _reference_stems(track, sources, accompaniment)
    rows = []
    for source in list(sources) + ["accompaniment"]:
        rows.append(EvalRow(track.name, source, dsp.sdr(refs[source], estimates[source])))
    return rows


def _load_estimates(estimates_dir: Path, track: Track, sources, accompaniment: str) -> dict:
    est_track = load_track(estimates_dir / track.name, sources=sources, require_stems=True)
    estimates = dict(est_track.stems)
    accomp_path = estimates_dir / track.name / "accompaniment.wav"
    if accomp_path.exists():
        estimates["accompaniment"] = read_wav(accomp_path)
    else:
        estimates["accompaniment"] = _accompaniment_stem(estimates, sources, accompaniment,
                                                         track.mixture)
    return estimates


def evaluate(dataset_dir, split: str = "test", model=None, estimates_dir=None,
             sources=None, accompaniment: str = "nonvocal", jobs: int = 1) -> EvalReport:
    """Score every track of a split, via a model bundle or a directory of
    pre-rendered estimate stems (oracle evaluation). Tracks with missing
    stems are skipped and noted in the report."""
    if (model is None) == (estimates_dir is None):
        raise ConfigError("provide exactly one of a model bundle or an estimates directory")
    if sources is None:
        if model is not None:
            sources = tuple(model.sources)
        else:
            from .audio_io import SOURCES
            sources = SOURCES

    def run_one(track_dir: Path):
        """The track's score rows, or None if its data is unusable."""
        try:
            track = load_track(track_dir, sources=sources)
            if model is not None:
                estimates = separate_song(model, track.mixture, accompaniment=accompaniment)
            else:
                estimates = _load_estimates(Path(estimates_dir), track, sources, accompaniment)
            return _score_track(track, estimates, sources, accompaniment)
        except DataError as exc:
            log.warning("skipping track %s: %s", track_dir.name, exc)
            return None

    dirs = track_dirs(dataset_dir, split)
    if jobs > 1 and model is not None:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_one, dirs))
    else:
        results = [run_one(d) for d in dirs]
    rows = {d.name: r for d, r in zip(dirs, results) if r is not None}
    skipped = [d.name for d, r in zip(dirs, results) if r is None]

    flat = [row for name in sorted(rows) for row in rows[name]]
    echo = {"split": split, "accompaniment": accompaniment}
    if model is not None:
        echo["model"] = model.separator.cfg.to_dict()
        echo["mode"] = model.mode
    return EvalReport(flat, skipped=sorted(skipped), config_echo=echo)


# ---------------------------------------------------------------------------
# Spectrogram dumps


def dump_spectrogram(clip: AudioClip, path) -> None:
    """Write a clip's log1p magnitudes as whitespace-delimited text: one
    "F T" header line, then F rows of T columns. Stereo is downmixed."""
    mono = clip.mono()
    matrix = dsp.log1p_magnitude(dsp.stft(mono.channel(0), sample_rate=mono.sample_rate))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(path, matrix, fmt="%.9e", header=f"{matrix.shape[0]} {matrix.shape[1]}",
               comments="")


def read_spectrogram_dump(path) -> np.ndarray:
    path = Path(path)
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise DataError(f"malformed dump header in {path}")
        f, t = int(header[0]), int(header[1])
        matrix = np.loadtxt(fh, ndmin=2)
    if matrix.shape != (f, t):
        raise DataError(f"dump {path} promised {(f, t)} but holds {matrix.shape}")
    return matrix


def dump_stem_grid(track: Track, out_dir, model=None) -> list:
    """Per-source groundtruth (and, with a model, estimate) matrices plus
    the mixture, mirroring a groundtruth-row / estimate-row figure."""
    out_dir = Path(out_dir)
    sources = tuple(track.stems)
    written = []

    def emit(name, clip):
        path = out_dir / f"{name}.txt"
        dump_spectrogram(clip, path)
        written.append(path)

    emit("groundtruth_mixture", track.mixture)
    for source in sources:
        emit(f"groundtruth_{source}", track.stems[source])
    if model is not None:
        estimates = separate_song(model, track.mixture)
        for source in sources:
            emit(f"estimate_{source}", estimates[source])
    return written
