"""Versioned binary checkpoints: model configuration, parameters, buffers
and training metadata with bitwise round-trips.

Layout: a 4-byte magic, u16 format major/minor, a u64 header length, a
canonical JSON header (sorted keys, no whitespace), then the raw little-
endian array blobs in manifest order. Canonical serialization makes
save -> load -> save byte-identical; loading refuses newer majors and
reports the byte offset of any truncation or corruption it detects. A
save writes a temporary file beside the target and renames it into place,
so an interrupted save leaves the previous checkpoint intact.

No optimizer moments are stored: no verb resumes training. The header
keeps the optimizer's step count, betas, epsilon and group learning rates
as run history. Format 1.0 files also hold the Adam moments as ``opt.``
tensors; loading checks their manifest entries and skips their bytes
unread.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CheckpointMismatchError,
    CheckpointVersionError,
    CorruptCheckpointError,
    DataError,
)
from .layers import ZeroInit
from .models import (
    BUNDLE_MODES,
    ModelBundle,
    ModelConfig,
    ResidualConfig,
    build_enhancer,
    build_separator,
    collect_state,
    restore_state,
)
from .optim import Adam
from .tensor import using_dtype

MAGIC = b"SSEP"
FORMAT_MAJOR = 1
FORMAT_MINOR = 1
_HEADER_STRUCT = struct.Struct("<4sHHQ")


@dataclass
class Checkpoint:
    """In-memory checkpoint contents."""

    model_config: ModelConfig
    mode: str
    sources: tuple
    params: dict
    residual: ResidualConfig | None = None
    enhancer_config: ModelConfig | None = None
    optimizer: dict | None = None  # t, beta1, beta2, eps and group_lrs; no moment arrays
    meta: dict | None = None

    def dtype(self) -> np.dtype:
        return next(iter(self.params.values())).dtype


def _plain(value):
    """Recursively convert numpy scalars/containers to JSON-able types."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    return value


def make_checkpoint(bundle: ModelBundle, optimizer: Adam | None = None,
                    meta: dict | None = None) -> Checkpoint:
    """Snapshot a bundle into a Checkpoint; of ``optimizer`` only the step
    count, betas, epsilon and group learning rates are kept."""
    opt_state = None
    if optimizer is not None:
        opt_state = {"t": int(optimizer.t), "beta1": float(optimizer.beta1),
                     "beta2": float(optimizer.beta2), "eps": float(optimizer.eps),
                     "group_lrs": {g["name"]: float(g["lr"]) for g in optimizer.groups}}
    return Checkpoint(
        model_config=bundle.separator.cfg,
        mode=bundle.mode,
        sources=tuple(bundle.sources),
        params=collect_state(bundle),
        residual=bundle.residual,
        enhancer_config=bundle.enhancers[0].cfg if bundle.enhancers else None,
        optimizer=opt_state,
        meta=_plain(meta or {}),
    )


def bundle_from_checkpoint(ckpt: Checkpoint) -> ModelBundle:
    """Rebuild the models and load every parameter bitwise. The models are
    built without drawing an initialisation, and their parameters are the
    checkpoint's arrays, not copies."""
    if not ckpt.params:
        raise CorruptCheckpointError("checkpoint holds no parameter tensors")
    if ckpt.dtype() not in (np.float32, np.float64):
        raise CorruptCheckpointError(f"checkpoint parameters have dtype {ckpt.dtype()}, "
                                     "expected float32 or float64")
    undrawn = ZeroInit(ckpt.dtype())
    with using_dtype(ckpt.dtype()):
        separator = build_separator(ckpt.model_config, rng=undrawn)
        enhancers = None
        if ckpt.mode == "enhancer":
            if ckpt.enhancer_config is None:
                raise CheckpointMismatchError("enhancer checkpoint is missing the enhancer config")
            enhancers = [build_enhancer(ckpt.enhancer_config, rng=undrawn)
                         for _ in range(ckpt.model_config.source_count)]
        bundle = ModelBundle(ckpt.mode, separator, enhancers=enhancers,
                             residual=ckpt.residual, sources=tuple(ckpt.sources))
        restore_state(bundle, ckpt.params)
    return bundle


# ---------------------------------------------------------------------------
# Serialization


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = [("param." + name, arr) for name, arr in sorted(ckpt.params.items())]
    manifest = []
    offset = 0
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr)
        nbytes = arr.nbytes
        manifest.append({"name": name, "dtype": str(arr.dtype),
                         "shape": list(arr.shape), "offset": offset, "nbytes": nbytes})
        offset += nbytes
    header = {
        "format": {"major": FORMAT_MAJOR, "minor": FORMAT_MINOR},
        "mode": ckpt.mode,
        "sources": list(ckpt.sources),
        "model_config": ckpt.model_config.to_dict(),
        "residual": {"iterations": ckpt.residual.iterations} if ckpt.residual else None,
        "enhancer_config": ckpt.enhancer_config.to_dict() if ckpt.enhancer_config else None,
        "optimizer": ckpt.optimizer,
        "meta": _plain(ckpt.meta or {}),
        "tensors": manifest,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":"),
                              ensure_ascii=True).encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER_STRUCT.pack(MAGIC, FORMAT_MAJOR, FORMAT_MINOR, len(header_bytes)))
            fh.write(header_bytes)
            for _, arr in arrays:
                fh.write(np.ascontiguousarray(arr).tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# Top-level header fields and the JSON types each may take.
_HEADER_FIELDS = {
    "mode": str, "sources": list, "model_config": dict, "residual": (dict, type(None)),
    "enhancer_config": (dict, type(None)), "optimizer": (dict, type(None)), "meta": dict,
    "tensors": list,
}
_OPTIMIZER_FIELDS = {"t": int, "beta1": float, "beta2": float, "eps": float, "group_lrs": dict}


def _check_header(header, path) -> None:
    """Raise CorruptCheckpointError unless every header field is present,
    of its type, and the mode is one a bundle can run in."""
    def fail(what):
        raise CorruptCheckpointError(f"checkpoint {path} header {what}", offset=_HEADER_STRUCT.size)

    if not isinstance(header, dict):
        fail(f"is a JSON {type(header).__name__}, not an object")
    for fields, where in ((_HEADER_FIELDS, header), (_OPTIMIZER_FIELDS, header.get("optimizer"))):
        for key, kind in fields.items():
            if where is not None and not (key in where and isinstance(where[key], kind)):
                fail(f"field {key!r} is missing or not of type {kind}")
    if header["mode"] not in BUNDLE_MODES:
        fail(f"names unknown mode {header['mode']!r}; expected one of {BUNDLE_MODES}")
    if header["mode"] == "residual" and header["residual"] is None:
        fail("is in residual mode but carries no residual iterations")
    if not all(isinstance(name, str) for name in header["sources"]):
        fail("lists a source name that is not a string")


def _tensor_entry(entry, offset: int, path) -> tuple:
    """(name, dtype, shape, nbytes) of one manifest entry, which must start
    at ``offset`` (tensors are stored back to back) and hold exactly
    prod(shape) numeric items."""
    def fail(what):
        raise CorruptCheckpointError(f"checkpoint {path} tensor entry {what}",
                                     offset=_HEADER_STRUCT.size)

    if not isinstance(entry, dict):
        fail(f"{entry!r} is not an object")
    name, dtype, shape, nbytes = (entry.get(key) for key in ("name", "dtype", "shape", "nbytes"))
    if not isinstance(name, str):
        fail(f"{entry!r} has no string name")
    # Look names up rather than parse them: numpy's dtype parser accepts
    # (and can choke on) far more than the plain names save_checkpoint writes.
    known = isinstance(dtype, str) and dtype in np.sctypeDict
    dtype = np.dtype(np.sctypeDict[dtype]) if known else None
    if dtype is None or dtype.kind not in "biufc":
        fail(f"{name!r} has dtype {entry.get('dtype')!r}; expected a numeric dtype name")
    if not (isinstance(shape, list) and all(isinstance(n, int) and n >= 0 for n in shape)):
        fail(f"{name!r} has malformed shape {shape!r}")
    if not isinstance(entry.get("offset"), int) or entry["offset"] != offset:
        fail(f"{name!r} starts at {entry.get('offset')!r}, expected {offset}")
    if not isinstance(nbytes, int) or nbytes != math.prod(shape) * dtype.itemsize:
        fail(f"{name!r} declares {nbytes!r} bytes for shape {shape} of {dtype}")
    return name, dtype, shape, nbytes


def load_checkpoint(path, expect_mode: str | None = None, arrays: bool = True) -> Checkpoint:
    """Read a checkpoint. Every header field and manifest entry is checked
    against the file's size before any array is read; each parameter array
    is then read straight into its own buffer, and any other tensor (a 1.0
    file's optimizer moments) is skipped unread. With ``arrays=False``
    nothing past the manifest is read: each parameter is a read-only,
    zero-stride stand-in of its manifest shape and dtype."""
    path = Path(path)
    try:
        with open(path, "rb", buffering=0) as fh:
            ckpt = _read_checkpoint(fh, path, arrays)
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc.strerror or exc}") from exc
    if expect_mode is not None and ckpt.mode != expect_mode:
        raise CheckpointMismatchError(
            f"checkpoint was trained in mode {ckpt.mode!r}, but {expect_mode!r} was requested")
    return ckpt


def _read_checkpoint(fh, path, arrays: bool) -> Checkpoint:
    size = os.fstat(fh.fileno()).st_size
    if size < _HEADER_STRUCT.size:
        raise CorruptCheckpointError(
            f"checkpoint {path} truncated inside the fixed header "
            f"({size} of {_HEADER_STRUCT.size} bytes)", offset=size)
    magic, major, minor, header_len = _HEADER_STRUCT.unpack(fh.read(_HEADER_STRUCT.size))
    if magic != MAGIC:
        raise CorruptCheckpointError(f"{path} is not a checkpoint (bad magic {magic!r})", offset=0)
    if major > FORMAT_MAJOR:
        raise CheckpointVersionError(
            f"checkpoint format {major}.{minor} is newer than supported {FORMAT_MAJOR}.{FORMAT_MINOR}")
    header_end = _HEADER_STRUCT.size + header_len
    if size < header_end:
        raise CorruptCheckpointError(
            f"checkpoint {path} truncated inside the JSON header", offset=size)
    try:
        header = json.loads(fh.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpointError(f"unparseable checkpoint header: {exc}",
                                     offset=_HEADER_STRUCT.size)

    _check_header(header, path)
    entries = []
    end = header_end
    for entry in header["tensors"]:
        name, dtype, shape, nbytes = _tensor_entry(entry, end - header_end, path)
        end += nbytes
        if end > size:
            raise CorruptCheckpointError(
                f"checkpoint {path} truncated inside tensor {name!r}", offset=size)
        entries.append((name, dtype, shape, nbytes))
    if size > end:
        raise CorruptCheckpointError(
            f"checkpoint {path} has {size - end} trailing bytes after its last tensor",
            offset=end)

    params = {}
    for name, dtype, shape, nbytes in entries:  # the file is positioned at header_end
        if not name.startswith("param."):
            fh.seek(nbytes, os.SEEK_CUR)
            continue
        if not arrays:
            params[name[len("param."):]] = np.broadcast_to(np.zeros((), dtype), shape)
            continue
        params[name[len("param."):]] = arr = np.empty(shape, dtype)
        if fh.readinto(arr) != nbytes:
            raise CorruptCheckpointError(
                f"checkpoint {path} truncated inside tensor {name!r}", offset=fh.tell())

    try:
        return Checkpoint(
            model_config=ModelConfig.from_dict(header["model_config"]),
            mode=header["mode"],
            sources=tuple(header["sources"]),
            params=params,
            residual=ResidualConfig(header["residual"]["iterations"]) if header["residual"] else None,
            enhancer_config=(ModelConfig.from_dict(header["enhancer_config"])
                             if header["enhancer_config"] else None),
            optimizer=header["optimizer"],
            meta=header["meta"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptCheckpointError(f"checkpoint {path} has a malformed configuration: {exc!r}",
                                     offset=_HEADER_STRUCT.size)


def parameter_fingerprint(source) -> str:
    """SHA-256 over all parameter names and bytes; accepts a ModelBundle,
    a Separator, or a name->array dict."""
    if isinstance(source, dict):
        items = sorted((name, np.asarray(arr)) for name, arr in source.items())
    elif hasattr(source, "named_parameters"):
        items = sorted((name, p.data) for name, p in source.named_parameters())
    else:
        raise TypeError(f"cannot fingerprint {type(source).__name__}")
    digest = hashlib.sha256()
    for name, arr in items:
        digest.update(name.encode("utf-8"))
        digest.update(str(arr.dtype).encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()
