"""Whole-song inference with Wiener post-processing, SDR evaluation
reports, and spectrogram dumps for qualitative inspection.

Each channel of a song runs through the shared model whole, in the
model's precision from front to back: STFT (complex64 for a float32
model) -> log1p features -> network (residual runners iterate; enhancer
runners refine per source). The spectrum is dropped once its features
exist, before the network runs. Synthesis then walks that channel's
frames in blocks (``dsp.wiener_synthesis``), rebuilding each block's
mixture frames from the channel's samples: expm1 -> power-ratio masks
against the mixture STFT (mixture phase) -> inverse STFT, written straight
into one (sources, channels, samples) stem buffer of exactly the input
length. So no whole-song spectrum or padded copy exists while the network
or synthesis runs, and each other whole-song temporary (features,
estimates) is dropped as soon as it is used. A float64 model's stems are
bit-identical to masking and inverting the whole song at once in float64;
a float32 model's carry float32 rounding, which the model amplifies
where it predicts near-silence (within 2e-6 of the peak of a float64
separation on a 120 s song with the default random-weight model). The
accompaniment, in the stems' dtype, is the sum of the non-vocal stems by
default; ``accompaniment="all4"`` sums all four instead.
"""

from __future__ import annotations

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

    dtype = bundle.separator.dtype
    samples = np.empty((len(sources), song.channels, song.num_samples), dtype=dtype)
    for c in range(song.channels):
        # The spectrum lives only until its features exist; synthesis
        # recomputes each block's mixture frames from the samples.
        features = dsp.log1p_magnitude(dsp.stft(song.channel(c), sample_rate=song.sample_rate,
                                                dtype=dtype))
        with no_grad():
            estimates = bundle.predict(features).data.reshape((len(sources),) + features.shape)
        del features
        dsp.wiener_synthesis(estimates, song.channel(c), samples[:, c])
        del estimates

    stems = {name: AudioClip(samples[s], song.sample_rate) for s, name in enumerate(sources)}
    stems["accompaniment"] = _accompaniment_stem(stems, sources, accompaniment, song)
    return stems


def _accompaniment_stem(stems: dict, sources, accompaniment: str, like: AudioClip,
                        dtype=None) -> AudioClip:
    """Sum of the non-vocal stems (of all stems if none is non-vocal), or of
    every stem when ``accompaniment == "all4"``, rated as ``like``. Its
    shape is ``like``'s broadcast against the stems', so a mono mixture
    with stereo stems gives a stereo sum; its dtype is ``dtype``, by default
    the stems'."""
    if accompaniment == "all4":
        parts = list(sources)
    else:
        parts = [name for name in sources if name != VOCALS] or list(sources)
    data = np.zeros(np.broadcast_shapes(like.data.shape, *(stems[n].data.shape for n in parts)),
                    dtype=dtype or np.result_type(*(stems[n].data for n in parts)))
    for name in parts:
        data += stems[name].data
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
    # Scored in float64, whatever dtype the stem files hold.
    refs["accompaniment"] = _accompaniment_stem(track.stems, sources, accompaniment, track.mixture,
                                                np.float64)
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
                                                         track.mixture, np.float64)
    return estimates


def evaluate(dataset_dir, split: str = "test", model=None, estimates_dir=None,
             sources=None, accompaniment: str = "nonvocal") -> EvalReport:
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

    def score(track_dir: Path) -> list:
        """The track's score rows; its arrays are freed on return."""
        track = load_track(track_dir, sources=sources)
        if model is not None:
            estimates = separate_song(model, track.mixture, accompaniment=accompaniment)
        else:
            estimates = _load_estimates(Path(estimates_dir), track, sources, accompaniment)
        return _score_track(track, estimates, sources, accompaniment)

    rows, skipped = [], []
    for track_dir in track_dirs(dataset_dir, split):  # sorted by name
        try:
            rows.extend(score(track_dir))
        except DataError as exc:
            log.warning("skipping track %s: %s", track_dir.name, exc)
            skipped.append(track_dir.name)

    echo = {"split": split, "accompaniment": accompaniment}
    if model is not None:
        echo["model"] = model.separator.cfg.to_dict()
        echo["mode"] = model.mode
    return EvalReport(rows, skipped=skipped, config_echo=echo)


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
