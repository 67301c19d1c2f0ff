"""Checkpoint format: round trips, corruption handling, force loads."""

import os
import re
import sys
import threading

import numpy as np
import pytest

from modfuse import tensor as T
from modfuse.adapters import ParamRegistry
from modfuse.checkpoint import (MAGIC, CheckpointError, checkpoint_bytes,
                                load_checkpoint, model_from_checkpoint,
                                parse_checkpoint, restore_into,
                                save_checkpoint)
from modfuse.config import build_model, parse_config
from modfuse.model import FusionModel

TWO = """
modalities = video,audio
modality.video.feat_dim = 16
modality.audio.feat_dim = 24
modality.video.seq_len = 5
modality.audio.seq_len = 5
bench.train_size = 32
bench.test_size = 16
train.epochs = 2
"""

THREE = TWO.replace("modalities = video,audio",
                    "modalities = video,audio,depth") + \
    "modality.depth.feat_dim = 48\nmodality.depth.seq_len = 5\n"


def make(text=TWO):
    cfg = parse_config(text)
    return build_model(cfg), cfg


class TestRoundTrip:
    def test_save_load_restore_bitwise(self, tmp_path):
        model, cfg = make()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model.registry, cfg)
        ckpt = load_checkpoint(path)
        assert ckpt.digest == cfg.digest()
        assert ckpt.source == path

        other, _ = make()
        for _, t in other.registry.named():
            t.data += 1.0
        assert other.registry.checksum() != model.registry.checksum()
        warnings = restore_into(other.registry, ckpt)
        assert warnings == []
        assert other.registry.checksum() == model.registry.checksum()

    def test_save_load_save_byte_identical(self, tmp_path):
        model, cfg = make()
        p1 = str(tmp_path / "a.ckpt")
        save_checkpoint(p1, model.registry, cfg)
        ckpt = load_checkpoint(p1)
        other, _ = make()
        restore_into(other.registry, ckpt)
        p2 = str(tmp_path / "b.ckpt")
        save_checkpoint(p2, other.registry, cfg)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_header_fields(self, tmp_path):
        model, cfg = make()
        raw = checkpoint_bytes(model.registry, cfg)
        assert raw[:4] == MAGIC
        assert raw[-4:] == b"END!"
        ckpt = parse_checkpoint(raw)
        assert ckpt.source == "<checkpoint>"
        assert ckpt.config_text == cfg.to_text()
        assert len(ckpt.tensors) == len(model.registry.named())

    def test_model_from_checkpoint(self, tmp_path):
        model, cfg = make()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model.registry, cfg)
        rebuilt, recfg, warnings = model_from_checkpoint(load_checkpoint(path))
        assert warnings == []
        assert recfg == cfg
        assert rebuilt.registry.checksum() == model.registry.checksum()

    def test_staging_leaves_no_temp_file(self, tmp_path):
        model, cfg = make()
        save_checkpoint(str(tmp_path / "m.ckpt"), model.registry, cfg)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]

    def test_failed_save_removes_staging_file(self, tmp_path, monkeypatch):
        model, cfg = make()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(str(tmp_path / "m.ckpt"), model.registry, cfg)
        assert list(tmp_path.iterdir()) == []

    def test_concurrent_saves_to_one_path(self, tmp_path):
        # more writers than cores, each saving its own model repeatedly;
        # the survivor must be one whole payload, never a mix or an error
        writers = min(8, (os.cpu_count() or 1) + 1)
        path = str(tmp_path / "m.ckpt")
        saved = []
        for i in range(writers):
            cfg = parse_config(TWO + f"model.seed = {i}\n")
            saved.append((build_model(cfg).registry, cfg))
        payloads = {checkpoint_bytes(reg, cfg) for reg, cfg in saved}
        assert len(payloads) == writers
        errors = []

        def writer(registry, cfg):
            try:
                for _ in range(20):
                    save_checkpoint(path, registry, cfg)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=pair)
                   for pair in saved]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        with open(path, "rb") as f:
            data = f.read()
        assert data in payloads
        parse_checkpoint(data)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


class TestCorruption:
    def test_bad_magic(self):
        with pytest.raises(CheckpointError, match="bad magic"):
            parse_checkpoint(b"XXXX" + b"\x00" * 64)

    def test_truncation_reports_offset(self):
        model, cfg = make()
        raw = checkpoint_bytes(model.registry, cfg)
        with pytest.raises(CheckpointError, match=r"truncated at byte \d+"):
            parse_checkpoint(raw[:len(raw) // 2])

    def test_trailing_garbage(self):
        model, cfg = make()
        raw = checkpoint_bytes(model.registry, cfg)
        with pytest.raises(CheckpointError, match="trailing bytes"):
            parse_checkpoint(raw + b"xx")

    def test_digest_mismatch_is_hard_error(self):
        model, cfg = make()
        raw = bytearray(checkpoint_bytes(model.registry, cfg))
        raw[8] ^= 0xFF  # flip a digest byte
        with pytest.raises(CheckpointError, match="does not match"):
            parse_checkpoint(bytes(raw))
        ckpt = parse_checkpoint(bytes(raw), force=True)
        assert ckpt.config_text == cfg.to_text()

    # magic, version, digest and the text's length come first
    CONFIG_AT = 4 + 4 + 32 + 4

    def test_non_utf8_config_text_fails_the_digest(self):
        model, cfg = make()
        raw = bytearray(checkpoint_bytes(model.registry, cfg))
        raw[self.CONFIG_AT] = 0xFF
        with pytest.raises(CheckpointError, match="^config text does not "
                           "match the stored digest"):
            parse_checkpoint(bytes(raw))
        with pytest.raises(CheckpointError, match=r"^config text is not "
                           rf"utf-8: bad byte at {self.CONFIG_AT}$"):
            parse_checkpoint(bytes(raw), force=True)

    @pytest.mark.parametrize("force", [False, True])
    def test_non_utf8_tensor_name_names_the_offset(self, force):
        model, cfg = make()
        raw = bytearray(checkpoint_bytes(model.registry, cfg))
        # then the tensor count and the first name's length
        name_at = self.CONFIG_AT + len(cfg.to_text().encode()) + 4 + 2
        assert raw[name_at:name_at + 5] == b"backb"
        raw[name_at] = 0xFF
        with pytest.raises(CheckpointError, match=r"^tensor name is not "
                           rf"utf-8: bad byte at {name_at}$"):
            parse_checkpoint(bytes(raw), force=force)

    @pytest.mark.parametrize("force", [False, True])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_tensor_fails_restore_by_name(self, force, value):
        # restored silently, it failed later as a non-finite 'reshape'
        model, cfg = make()
        ckpt = parse_checkpoint(checkpoint_bytes(model.registry, cfg))
        ckpt.tensors["audio.queries"][0, 0] = value
        with pytest.raises(CheckpointError,
                           match="'audio.queries' holds non-finite"):
            restore_into(make()[0].registry, ckpt, force=force)

    # version 1 also copied the modality list and strategy into its header
    @pytest.mark.parametrize("version", [99, 1])
    def test_unsupported_version(self, version):
        model, cfg = make()
        raw = bytearray(checkpoint_bytes(model.registry, cfg))
        raw[4] = version
        for force in (False, True):
            with pytest.raises(CheckpointError, match=f"^unsupported "
                               f"checkpoint version {version}$"):
                parse_checkpoint(bytes(raw), force=force)


class TestForceRestore:
    def test_strict_restore_rejects_missing(self, tmp_path):
        model, cfg = make(TWO)
        path = str(tmp_path / "two.ckpt")
        save_checkpoint(path, model.registry, cfg)
        bigger, _ = make(THREE)
        with pytest.raises(CheckpointError, match=f"^{re.escape(path)}: "
                                                  f".*not in the checkpoint"):
            restore_into(bigger.registry, load_checkpoint(path))

    def test_extension_keeps_existing_tensors(self, tmp_path):
        model, cfg = make(TWO)
        path = str(tmp_path / "two.ckpt")
        save_checkpoint(path, model.registry, cfg)
        ckpt = load_checkpoint(path)

        bigger, _ = make(THREE)
        warnings = restore_into(bigger.registry, ckpt, force=True)
        assert warnings
        # every surviving name matches the checkpoint bit for bit
        restored = dict(bigger.registry.named())
        matched = 0
        for name, arr in ckpt.tensors.items():
            t = restored.get(name)
            if t is not None and t.data.shape == arr.shape:
                assert t.data.tobytes() == arr.tobytes(), name
                matched += 1
        assert matched > 50
        # the old adapters and the backbone all survive
        for prefix in ("video.", "audio.", "backbone."):
            assert any(n.startswith(prefix) and n in ckpt.tensors
                       for n in restored)

    def test_force_skips_shape_mismatch(self):
        model, cfg = make(TWO)
        ckpt = parse_checkpoint(checkpoint_bytes(model.registry, cfg))
        ckpt.tensors["video.queries"] = np.zeros((9, 9), dtype=np.float32)
        with pytest.raises(CheckpointError, match="shape"):
            restore_into(make(TWO)[0].registry, ckpt)
        other, _ = make(TWO)
        before = other.registry.entries["video.queries"].tensor.data.copy()
        warnings = restore_into(other.registry, ckpt, force=True)
        assert any("video.queries" in w for w in warnings)
        assert np.array_equal(other.registry.entries["video.queries"].tensor.data,
                              before)

    def test_extra_tensor_rejected_without_force(self):
        model, cfg = make(TWO)
        ckpt = parse_checkpoint(checkpoint_bytes(model.registry, cfg))
        ckpt.tensors["ghost.w"] = np.zeros(3, dtype=np.float32)
        with pytest.raises(CheckpointError, match="not in the model"):
            restore_into(make(TWO)[0].registry, ckpt)
        warnings = restore_into(make(TWO)[0].registry, ckpt, force=True)
        assert any("ghost.w" in w for w in warnings)

    def test_checkpoint_with_unscheduled_prefix(self):
        # checkpoints written before prefixes were created by schedule also
        # hold the prefixes the head input never used (here 'prefix.audio',
        # which SelfGated does not schedule): strict restore names it, and
        # force restores every tensor of the model and warns of the skip
        model, cfg = make(TWO)
        for _, t in model.registry.named():
            t.data += 1.0
        ckpt = parse_checkpoint(checkpoint_bytes(model.registry, cfg))
        ckpt.tensors["prefix.audio"] = np.zeros(32, dtype=np.float32)
        with pytest.raises(CheckpointError,
                           match="'prefix.audio' from the checkpoint"):
            restore_into(make(TWO)[0].registry, ckpt)
        other, _ = make(TWO)
        warnings = restore_into(other.registry, ckpt, force=True)
        assert warnings == ["skipped: 'prefix.audio' from the checkpoint "
                            "is not in the model"]
        assert other.registry.checksum() == model.registry.checksum()


def small_registry(*names, dtype=np.float32):
    """A registry of one [2, 3] tensor per name, values 0..5 plus its index."""
    reg = ParamRegistry()
    for i, name in enumerate(names):
        reg.register(name, T.Tensor(np.arange(6.0).reshape(2, 3) + i,
                                    requires_grad=True, dtype=dtype), "fusion")
    return reg


class TestCodec:
    """Paths of the byte layout that whole-model round trips never reach."""

    def test_every_proper_prefix_is_truncated(self):
        raw = checkpoint_bytes(small_registry("a.x", "a.y"),
                               parse_config(TWO))
        for n in range(len(raw)):
            with pytest.raises(CheckpointError,
                               match=r"^truncated at byte \d+: needed \d+ "
                                     r"bytes for "):
                parse_checkpoint(raw[:n])

    def test_float64_model_round_trips_bitwise(self):
        cfg = parse_config(TWO)

        def build():
            return FusionModel(cfg.dims, cfg.spec.modalities, cfg.major,
                               cfg.strategy, cfg.spec.vocab,
                               cfg.spec.classes, cfg.model_seed,
                               dtype=np.float64)

        model = build()
        raw = checkpoint_bytes(model.registry, cfg)
        ckpt = parse_checkpoint(raw)
        assert {a.dtype for a in ckpt.tensors.values()} == \
            {np.dtype("<f8")}
        other = build()
        for _, t in other.registry.named():
            t.data += 1.0
        assert restore_into(other.registry, ckpt) == []
        assert other.registry.checksum() == model.registry.checksum()
        assert checkpoint_bytes(other.registry, cfg) == raw

    def test_float16_tensor_refused_on_write(self):
        reg = small_registry("a.x")
        x = reg.entries["a.x"].tensor
        x.data = x.data.astype(np.float16)
        with pytest.raises(CheckpointError,
                           match="^tensor 'a.x' has unsupported dtype "
                                 "float16$"):
            checkpoint_bytes(reg, parse_config(TWO))

    def test_unknown_dtype_code_refused(self):
        cfg = parse_config(TWO)
        raw = bytearray(checkpoint_bytes(small_registry("a.x"), cfg))
        # magic, version, digest, config length and text, tensor count,
        # name length and name, then the dtype code
        code_at = 4 + 4 + 32 + 4 + len(cfg.to_text().encode()) + 4 + 2 + 3
        assert raw[code_at] == 0
        raw[code_at] = 2
        with pytest.raises(CheckpointError,
                           match="^tensor 'a.x' has unknown dtype code$"):
            parse_checkpoint(bytes(raw))

    def test_duplicate_tensor_name_refused(self):
        raw = checkpoint_bytes(small_registry("a.x", "a.y"),
                               parse_config(TWO))
        assert raw.count(b"a.y") == 1
        with pytest.raises(CheckpointError,
                           match="^duplicate tensor 'a.x'$"):
            parse_checkpoint(raw.replace(b"a.y", b"a.x"))

    def test_bad_end_marker_refused(self):
        raw = checkpoint_bytes(small_registry("a.x"), parse_config(TWO))
        with pytest.raises(CheckpointError, match="^bad end marker$"):
            parse_checkpoint(raw[:-4] + b"END?")

    def test_overlong_name_refused(self):
        with pytest.raises(CheckpointError,
                           match=r"^name too long \(65536 bytes\)$"):
            checkpoint_bytes(small_registry("x" * 0x10000),
                             parse_config(TWO))
