"""Audio clips, WAV file I/O, and the on-disk dataset layout.

A dataset is a directory of splits (``train/``, ``test/``), each split a
directory of tracks, each track a directory holding ``mixture.wav`` plus
one WAV per source stem. WAV support covers 16-bit PCM and 32-bit float
at any rate, but training and separation accept only ``SAMPLE_RATE``;
float32 round-trips bit-exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .errors import DataError

log = logging.getLogger(__name__)

SAMPLE_RATE = 44100
SOURCES = ("drums", "bass", "other", "vocals")
MIXTURE_NAME = "mixture"


@dataclass
class AudioClip:
    """Multi-channel audio: ``data`` is (channels, samples) float64."""

    data: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2:
            raise DataError(f"audio data must be (channels, samples), got shape {arr.shape}")
        if arr.shape[0] not in (1, 2):
            raise DataError(f"expected 1 or 2 channels, got {arr.shape[0]}")
        if not np.isfinite(arr).all():
            raise DataError("audio contains non-finite samples")
        self.data = arr

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def num_samples(self) -> int:
        return self.data.shape[1]

    @property
    def duration(self) -> float:
        return self.num_samples / self.sample_rate

    def channel(self, index: int) -> np.ndarray:
        return self.data[index]

    def mono(self) -> "AudioClip":
        if self.channels == 1:
            return self
        return AudioClip(self.data.mean(axis=0), self.sample_rate)

    @staticmethod
    def silence(num_samples: int, channels: int = 1, sample_rate: int = SAMPLE_RATE) -> "AudioClip":
        return AudioClip(np.zeros((channels, num_samples)), sample_rate)


def read_wav(path) -> AudioClip:
    """Read a PCM16 or float32 WAV file at any rate into an AudioClip;
    a file that does not parse raises DataError."""
    path = Path(path)
    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise DataError(f"missing audio file: {path}")
    except Exception as exc:  # malformed bytes also raise struct.error, UnboundLocalError, ...
        raise DataError(f"unreadable WAV file {path}: {type(exc).__name__}: {exc}")
    if data.ndim == 1:
        data = data[:, None]
    samples = data.T  # (channels, samples)
    if samples.dtype == np.int16:
        samples = samples.astype(np.float64) / 32768.0
    elif samples.dtype in (np.float32, np.float64):
        samples = samples.astype(np.float64)
    else:
        raise DataError(f"unsupported WAV sample format {samples.dtype} in {path}")
    return AudioClip(samples, int(rate))


def write_wav(path, clip: AudioClip, fmt: str = "float32") -> None:
    """Write a WAV file; ``fmt`` is "float32" (bit-exact) or "pcm16"."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = clip.data.T  # (samples, channels)
    if data.shape[1] == 1:
        data = data[:, 0]
    if fmt == "float32":
        wavfile.write(path, clip.sample_rate, data.astype(np.float32))
    elif fmt == "pcm16":
        clipped = np.clip(data, -1.0, 32767.0 / 32768.0)
        wavfile.write(path, clip.sample_rate, np.round(clipped * 32768.0).astype(np.int16))
    else:
        raise DataError(f"unknown WAV format {fmt!r}; expected float32 or pcm16")


# ---------------------------------------------------------------------------
# Dataset layout


@dataclass
class Track:
    """One song: the mixture plus aligned source stems."""

    name: str
    mixture: AudioClip
    stems: dict[str, AudioClip] = field(default_factory=dict)


def track_dirs(dataset_dir, split: str) -> list[Path]:
    split_dir = Path(dataset_dir) / split
    if not split_dir.is_dir():
        raise DataError(f"dataset split not found: {split_dir}")
    dirs = sorted(d for d in split_dir.iterdir() if d.is_dir())
    if not dirs:
        raise DataError(f"no tracks under {split_dir}")
    return dirs


def load_track(track_dir, sources=SOURCES, require_stems: bool = True) -> Track:
    """Load one track directory; raises DataError on missing pieces."""
    track_dir = Path(track_dir)
    mixture_path = track_dir / f"{MIXTURE_NAME}.wav"
    stems: dict[str, AudioClip] = {}
    missing = []
    for source in sources:
        stem_path = track_dir / f"{source}.wav"
        if stem_path.exists():
            stems[source] = read_wav(stem_path)
        else:
            missing.append(source)
    if missing and require_stems:
        raise DataError(f"track {track_dir.name} is missing stems: {', '.join(missing)}")
    if mixture_path.exists():
        mixture = read_wav(mixture_path)
    elif stems and len(stems) == len(sources):
        data = np.zeros_like(next(iter(stems.values())).data)
        for clip in stems.values():
            data = data + clip.data
        mixture = AudioClip(data, next(iter(stems.values())).sample_rate)
        log.info("track %s has no mixture.wav; using the stem sum", track_dir.name)
    else:
        raise DataError(f"track {track_dir.name} has no mixture.wav")
    lengths = {clip.num_samples for clip in stems.values()} | {mixture.num_samples}
    if len(lengths) > 1:
        raise DataError(f"track {track_dir.name}: mixture/stem lengths disagree: {sorted(lengths)}")
    return Track(track_dir.name, mixture, stems)


def load_split(dataset_dir, split: str, sources=SOURCES) -> list[Track]:
    tracks = []
    for d in track_dirs(dataset_dir, split):
        tracks.append(load_track(d, sources=sources))
    return tracks
