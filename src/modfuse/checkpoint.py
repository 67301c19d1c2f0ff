"""Binary checkpoints with bit-exact round trips.

Layout (little-endian throughout):

    magic   4 bytes  b"CRMA"
    version u32
    digest  32 bytes SHA-256 of the canonical config text
    order   u16 count, then per modality u16 length + utf-8 name
    strategy  u16 length + utf-8
    config  u32 length + utf-8 canonical config text
    tensors u32 count, then per tensor:
        u16 name length + utf-8 dotted name
        u8 dtype code (0 = float32, 1 = float64)
        u8 rank, then rank u32 dims
        raw element bytes
    end     4 bytes b"END!"

Every registry entry is stored, frozen ones included, so a restore
reproduces the model bit for bit. Saves stage to a uniquely named
temporary file beside the target, commit with an atomic rename and sync
the directory. Loads verify the stored digest against the embedded
config text and fail on truncation with the byte offset;
``force`` downgrades mismatches to warnings and skips tensors whose
name or shape no longer fits, which is how a checkpoint from a smaller
modality set is carried into an extended model.
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
from modfuse.config import RunConfig

MAGIC = b"CRMA"
END = b"END!"
VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class CheckpointError(ValueError):
    """Unreadable, truncated, or inconsistent checkpoint file."""


@dataclass
class Checkpoint:
    version: int
    digest: str
    order: list[str]
    strategy: str
    config_text: str
    tensors: dict[str, np.ndarray] = field(default_factory=dict)


class _Writer:
    def __init__(self):
        self.parts: list[bytes] = []

    def raw(self, b: bytes):
        self.parts.append(b)

    def u8(self, v: int):
        self.parts.append(struct.pack("<B", v))

    def u16(self, v: int):
        self.parts.append(struct.pack("<H", v))

    def u32(self, v: int):
        self.parts.append(struct.pack("<I", v))

    def str16(self, s: str):
        b = s.encode("utf-8")
        if len(b) > 0xFFFF:
            raise CheckpointError(f"name too long ({len(b)} bytes)")
        self.u16(len(b))
        self.raw(b)

    def str32(self, s: str):
        b = s.encode("utf-8")
        self.u32(len(b))
        self.raw(b)

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def raw(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.data):
            raise CheckpointError(
                f"truncated at byte {self.off}: needed {n} bytes for {what}")
        out = self.data[self.off:self.off + n]
        self.off += n
        return out

    def u8(self, what: str) -> int:
        return struct.unpack("<B", self.raw(1, what))[0]

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.raw(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.raw(4, what))[0]

    def str16(self, what: str) -> str:
        return self.raw(self.u16(what), what).decode("utf-8")

    def str32(self, what: str) -> str:
        return self.raw(self.u32(what), what).decode("utf-8")


def checkpoint_bytes(registry: ParamRegistry, config: RunConfig) -> bytes:
    w = _Writer()
    w.raw(MAGIC)
    w.u32(VERSION)
    w.raw(bytes.fromhex(config.digest()))
    order = list(config.model_modalities)
    w.u16(len(order))
    for name in order:
        w.str16(name)
    w.str16(config.strategy)
    w.str32(config.to_text())
    entries = registry.named()
    w.u32(len(entries))
    for name, t in entries:
        code = _DTYPE_CODES.get(t.data.dtype)
        if code is None:
            raise CheckpointError(f"tensor '{name}' has unsupported dtype "
                                  f"{t.data.dtype}")
        w.str16(name)
        w.u8(code)
        w.u8(t.data.ndim)
        for dim in t.data.shape:
            w.u32(dim)
        w.raw(np.ascontiguousarray(t.data).tobytes())
    w.raw(END)
    return w.getvalue()


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
    r = _Reader(data)
    if r.raw(4, "magic") != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    version = r.u32("version")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    digest = r.raw(32, "config digest").hex()
    order = [r.str16("modality name") for _ in range(r.u16("modality count"))]
    strategy = r.str16("fusion strategy")
    config_text = r.str32("config text")
    actual = hashlib.sha256(config_text.encode()).hexdigest()
    if actual != digest and not force:
        raise CheckpointError("config text does not match the stored digest; "
                              "the file is corrupt (or pass force)")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(r.u32("tensor count")):
        name = r.str16("tensor name")
        dtype = _CODE_DTYPES.get(r.u8(f"dtype of '{name}'"))
        if dtype is None:
            raise CheckpointError(f"tensor '{name}' has unknown dtype code")
        rank = r.u8(f"rank of '{name}'")
        dims = tuple(r.u32(f"dim of '{name}'") for _ in range(rank))
        count = int(np.prod(dims, dtype=np.int64)) if dims else 1
        buf = r.raw(count * dtype.itemsize, f"data of '{name}'")
        if name in tensors:
            raise CheckpointError(f"duplicate tensor '{name}'")
        tensors[name] = np.frombuffer(buf, dtype=dtype).reshape(dims).copy()
    if r.raw(4, "end marker") != END:
        raise CheckpointError("bad end marker")
    if r.off != len(data):
        raise CheckpointError(f"{len(data) - r.off} trailing bytes after "
                              f"the end marker")
    return Checkpoint(version=version, digest=digest, order=order,
                      strategy=strategy, config_text=config_text,
                      tensors=tensors)


def load_checkpoint(path: str, force: bool = False) -> Checkpoint:
    with open(path, "rb") as f:
        data = f.read()
    return parse_checkpoint(data, force=force)


def restore_into(registry: ParamRegistry, ckpt: Checkpoint,
                 force: bool = False) -> list[str]:
    """Copy checkpoint values into registry tensors, by exact name.

    Strict mode errors on any missing tensor, extra tensor, or shape or
    dtype mismatch. With ``force`` those become warnings and the entry
    keeps its current value, so compatible tensors survive a structural
    change such as adding a modality.
    """
    warnings: list[str] = []
    names = {name for name, _ in registry.named()}
    for name, t in registry.named():
        arr = ckpt.tensors.get(name)
        if arr is None:
            msg = f"'{name}' is not in the checkpoint"
        elif arr.shape != t.data.shape:
            msg = (f"'{name}' shape {arr.shape} does not match model shape "
                   f"{t.data.shape}")
        elif arr.dtype != t.data.dtype:
            msg = (f"'{name}' dtype {arr.dtype} does not match model dtype "
                   f"{t.data.dtype}")
        else:
            t.data[...] = arr
            continue
        if not force:
            raise CheckpointError(msg)
        warnings.append(f"skipped: {msg}")
    for name in ckpt.tensors:
        if name not in names:
            msg = f"'{name}' from the checkpoint is not in the model"
            if not force:
                raise CheckpointError(msg)
            warnings.append(f"skipped: {msg}")
    return warnings


def model_from_checkpoint(ckpt: Checkpoint, force: bool = False):
    """Rebuild the saved model: parse the embedded config, restore tensors."""
    from modfuse.config import build_model, parse_config
    config = parse_config(ckpt.config_text, source="<checkpoint>")
    model = build_model(config)
    warnings = restore_into(model.registry, ckpt, force=force)
    return model, config, warnings
