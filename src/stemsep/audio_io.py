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
    """Multi-channel audio: ``data`` is (channels, samples) float32 or
    float64. Float32 data is kept as given; any other dtype is converted to
    float64."""

    data: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.dtype != np.float32:
            arr = arr.astype(np.float64, copy=False)
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
        return AudioClip(self.data.mean(axis=0, dtype=np.float64), self.sample_rate)

    @staticmethod
    def silence(num_samples: int, channels: int = 1, sample_rate: int = SAMPLE_RATE) -> "AudioClip":
        return AudioClip(np.zeros((channels, num_samples)), sample_rate)


def read_wav(path) -> AudioClip:
    """Read a PCM16 or float WAV file at any rate into an AudioClip: float
    samples keep their dtype (a float32 file's clip is float32), PCM16
    becomes float64 in [-1, 1). A file that does not parse raises DataError."""
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
    elif samples.dtype not in (np.float32, np.float64):
        raise DataError(f"unsupported WAV sample format {samples.dtype} in {path}")
    return AudioClip(samples, int(rate))


def write_wav(path, clip: AudioClip, fmt: str = "float32") -> None:
    """Write a WAV file; ``fmt`` is "float32" (bit-exact) or "pcm16"."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt not in ("float32", "pcm16"):
        raise DataError(f"unknown WAV format {fmt!r}; expected float32 or pcm16")
    # Channels are interleaved by column assignment into one (samples,
    # channels) buffer that the writer takes as is: a column at a time
    # reads each channel in order, where a transposed copy strides across
    # all of them.
    frames = np.empty((clip.num_samples, clip.channels),
                      dtype=np.float32 if fmt == "float32" else np.int16)
    for c in range(clip.channels):
        if fmt == "float32":
            frames[:, c] = clip.channel(c)
        else:
            frames[:, c] = np.round(np.clip(clip.channel(c), -1.0, 32767.0 / 32768.0) * 32768.0)
    wavfile.write(path, clip.sample_rate, frames[:, 0] if clip.channels == 1 else frames)


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
        # Summed in float64 whatever the stems' dtype.
        data = np.zeros(next(iter(stems.values())).data.shape)
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
