"""Binary checkpoints with bit-exact round trips.

Layout (little-endian throughout):

    magic   4 bytes  b"CRMA"
    version u32
    digest  32 bytes SHA-256 of the canonical config text
    config  u32 length + utf-8 canonical config text
    tensors u32 count, then per tensor:
        u16 name length + utf-8 dotted name
        u8 dtype code (0 = float32, 1 = float64)
        u8 rank, then rank u32 dims
        raw element bytes
    end     4 bytes b"END!"

``checkpoint_bytes`` packs this layout with ``struct`` and
``parse_checkpoint`` unpacks it in the same order, checking the bounds of
every read; the dtype code is an index into one table of the two dtypes.
Tensor names are the registry's, which the model's walk over its
component dataclasses gives. Every registry entry is stored, frozen ones
included, so a restore reproduces the model bit for bit.

Saves stage to a uniquely named temporary file beside the target, commit
with an atomic rename and sync the directory. Loads verify the stored
digest against the config text's raw bytes, before decoding them, and
fail on truncation or on text that is not utf-8 with the byte offset;
restores fail on a tensor holding NaN or Inf, naming it. The config
text is the only description of the run, so the modality order and the
fusion strategy are read from it alone. A file of any other version
fails to load, with or without ``force``; it is retrained, not
converted. Every error about a loaded file starts with its path, and a
config error in it with ``path:line``.
``force`` skips the digest check and downgrades tensor mismatches to
warnings, skipping tensors whose name or shape no longer fits, which is
how a checkpoint from a smaller modality set is carried into an extended
model.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import secrets
import struct
from dataclasses import dataclass, field

import numpy as np

from modfuse.adapters import ParamRegistry
from modfuse.config import RunConfig, build_model, parse_config

MAGIC = b"CRMA"
END = b"END!"
VERSION = 2
_DTYPES = (np.dtype("<f4"), np.dtype("<f8"))    # index = dtype code


class CheckpointError(ValueError):
    """Unreadable, truncated, or inconsistent checkpoint file."""


@dataclass
class Checkpoint:
    digest: str
    config_text: str
    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    # where the bytes came from, named by every error; set on load
    source: str = "<checkpoint>"


def checkpoint_bytes(registry: ParamRegistry, config: RunConfig) -> bytes:
    text = config.to_text().encode("utf-8")
    entries = registry.named()
    parts = [MAGIC, struct.pack("<I", VERSION), bytes.fromhex(config.digest()),
             struct.pack("<I", len(text)), text,
             struct.pack("<I", len(entries))]
    for name, t in entries:
        if t.data.dtype not in _DTYPES:
            raise CheckpointError(f"tensor '{name}' has unsupported dtype "
                                  f"{t.data.dtype}")
        b = name.encode("utf-8")
        if len(b) > 0xFFFF:
            raise CheckpointError(f"name too long ({len(b)} bytes)")
        parts += [struct.pack(f"<H{len(b)}sBB{t.data.ndim}I", len(b), b,
                              _DTYPES.index(t.data.dtype), t.data.ndim,
                              *t.data.shape),
                  t.data.tobytes()]
    parts.append(END)
    return b"".join(parts)


def save_checkpoint(path: str, registry: ParamRegistry,
                    config: RunConfig) -> None:
    """Stage to a uniquely named sibling, then commit with an atomic rename.

    The unique name keeps concurrent saves to one path from sharing a
    staging file; the staging file is removed if the write fails, and
    the directory is synced so the rename itself is durable.
    """
    data = checkpoint_bytes(registry, config)
    tmp = f"{path}.{secrets.token_hex(8)}.staging"
    # O_EXCL never reuses an existing file; mode 0o666 honours the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def parse_checkpoint(data: bytes, force: bool = False) -> Checkpoint:
    off = 0

    def raw(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise CheckpointError(
                f"truncated at byte {off}: needed {n} bytes for {what}")
        off += n
        return data[off - n:off]

    def unpack(fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, raw(struct.calcsize(fmt), what))

    def utf8(b: bytes, what: str) -> str:
        # b is the last read, so it starts at off - len(b)
        try:
            return b.decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(
                f"{what} is not utf-8: bad byte at {off - len(b) + e.start}"
            ) from None

    def string(fmt: str, what: str) -> str:
        return utf8(raw(unpack(fmt, what)[0], what), what)

    if raw(4, "magic") != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    version, = unpack("<I", "version")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    digest = raw(32, "config digest").hex()
    # the digest covers the raw bytes, so corrupt text fails it first
    config = raw(unpack("<I", "config text")[0], "config text")
    if hashlib.sha256(config).hexdigest() != digest and not force:
        raise CheckpointError("config text does not match the stored digest; "
                              "the file is corrupt (or pass force)")
    config_text = utf8(config, "config text")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(unpack("<I", "tensor count")[0]):
        name = string("<H", "tensor name")
        code, = unpack("<B", f"dtype of '{name}'")
        if code >= len(_DTYPES):
            raise CheckpointError(f"tensor '{name}' has unknown dtype code")
        dtype = _DTYPES[code]
        rank, = unpack("<B", f"rank of '{name}'")
        dims = tuple(unpack("<I", f"dim of '{name}'")[0] for _ in range(rank))
        count = int(np.prod(dims, dtype=np.int64)) if dims else 1
        buf = raw(count * dtype.itemsize, f"data of '{name}'")
        if name in tensors:
            raise CheckpointError(f"duplicate tensor '{name}'")
        tensors[name] = np.frombuffer(buf, dtype=dtype).reshape(dims).copy()
    if raw(4, "end marker") != END:
        raise CheckpointError("bad end marker")
    if off != len(data):
        raise CheckpointError(f"{len(data) - off} trailing bytes after "
                              f"the end marker")
    return Checkpoint(digest=digest, config_text=config_text,
                      tensors=tensors)


def load_checkpoint(path: str, force: bool = False) -> Checkpoint:
    with open(path, "rb") as f:
        data = f.read()
    try:
        ckpt = parse_checkpoint(data, force=force)
    except CheckpointError as e:
        raise CheckpointError(f"{path}: {e}") from None
    ckpt.source = path
    return ckpt


def restore_into(registry: ParamRegistry, ckpt: Checkpoint,
                 force: bool = False) -> list[str]:
    """Copy checkpoint values into registry tensors, by exact name.

    Strict mode errors on any missing tensor, extra tensor, or shape or
    dtype mismatch. With ``force`` those become warnings and the entry
    keeps its current value, so compatible tensors survive a structural
    change such as adding a modality. A tensor holding NaN or Inf is
    corruption, not a structural change, and fails under ``force`` too.
    """
    for name, arr in ckpt.tensors.items():
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{ckpt.source}: '{name}' holds non-finite "
                                  f"values; the file is corrupt")
    problems: list[str] = []
    for name, t in registry.named():
        arr = ckpt.tensors.get(name)
        if arr is None:
            problems.append(f"'{name}' is not in the checkpoint")
        elif arr.shape != t.data.shape:
            problems.append(f"'{name}' shape {arr.shape} does not match "
                            f"model shape {t.data.shape}")
        elif arr.dtype != t.data.dtype:
            problems.append(f"'{name}' dtype {arr.dtype} does not match "
                            f"model dtype {t.data.dtype}")
        else:
            t.data[...] = arr
    problems += [f"'{name}' from the checkpoint is not in the model"
                 for name in ckpt.tensors if name not in registry.entries]
    if problems and not force:
        raise CheckpointError(f"{ckpt.source}: {problems[0]}")
    return [f"skipped: {msg}" for msg in problems]


def model_from_checkpoint(ckpt: Checkpoint, force: bool = False):
    """Rebuild the saved model: parse the embedded config, restore tensors."""
    config = parse_config(ckpt.config_text, source=ckpt.source)
    model = build_model(config)
    warnings = restore_into(model.registry, ckpt, force=force)
    return model, config, warnings
