"""Config parsing, validation diagnostics, canonical text, digests."""

import dataclasses
import re
from pathlib import Path

import pytest

from modfuse.config import (KEYS, ConfigError, RunConfig, build_model,
                            load_config, parse_config, parse_kv_text)
from modfuse.model import RESERVED_NAMES, ModelDims
from modfuse.training import TrainConfig

README = Path(__file__).resolve().parents[1] / "README.md"

BASE = """
# three modalities, video leads
modalities = video,audio,depth
major = video
modality.video.feat_dim = 16
modality.audio.feat_dim = 24
modality.depth.feat_dim = 48
modality.video.seq_len = 8
modality.audio.seq_len = 6
modality.depth.seq_len = 4
bench.train_size = 128
bench.test_size = 64
model.strategy = SelfGated
train.epochs = 2
train.lr = 0.003
"""
# the line number of a key appended to BASE
APPENDED = len(BASE.splitlines()) + 1
# keys that parse_config once accepted; checkpoints of that time name them
REMOVED_KEYS = ["train.shuffle_modalities", "train.warm_start",
                "train.beta1", "train.beta2", "train.eval_batch",
                "model.head_width", "model.head_layers", "bench.alphabet",
                "bench.noise", "run.outdir"]


class TestRawParser:
    def test_comments_and_blanks_skipped(self):
        raw = parse_kv_text("a = 1\n\n# note\nb.c = x  # trailing\n")
        assert raw == {"a": ("1", 1), "b.c": ("x", 4)}

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match=r"cfg:2: expected 'key = value'"):
            parse_kv_text("a = 1\nbroken line\n", source="cfg")

    def test_bad_key(self):
        with pytest.raises(ConfigError, match=r":1: bad key 'A\.B'"):
            parse_kv_text("A.B = 1\n")

    def test_duplicate_key_reports_both_lines(self):
        with pytest.raises(ConfigError, match=r":3: duplicate key 'a'.*line 1"):
            parse_kv_text("a = 1\nb = 2\na = 3\n")


class TestFullParse:
    def test_defaults_fill_in(self):
        cfg = parse_config(BASE)
        assert list(cfg.spec.names) == ["video", "audio", "depth"]
        assert cfg.major == "video"
        assert cfg.dims.d == 32 and cfg.dims.rank == 4
        assert cfg.train.epochs == 2 and cfg.train.lr == pytest.approx(3e-3)
        assert cfg.strategy == "SelfGated"
        assert cfg.name == "run"

    def test_major_defaults_to_first(self):
        text = BASE.replace("major = video\n", "")
        assert parse_config(text).major == "video"

    def test_unknown_key(self):
        with pytest.raises(ConfigError,
                           match=f"^my.cfg:{APPENDED}: unknown key 'model.dd'"):
            parse_config(BASE + "model.dd = 64\n", source="my.cfg")

    def test_unknown_modality_field(self):
        with pytest.raises(ConfigError,
                           match=f"^my.cfg:{APPENDED}: .*not in 'modalities'"):
            parse_config(BASE + "modality.thermal.feat_dim = 9\n",
                         source="my.cfg")

    def test_type_diagnostics(self):
        with pytest.raises(ConfigError,
                           match=f"^my.cfg:{APPENDED}: .*'model.d' expects int"):
            parse_config(BASE + "model.d = big\n", source="my.cfg")
        with pytest.raises(ConfigError, match="'train.tau' expects float"):
            parse_config(BASE + "train.tau = soon\n")
        with pytest.raises(ConfigError,
                           match="'train.early_exit' expects bool"):
            parse_config(BASE + "train.early_exit = yes\n")
        # a key read before the loop over the rest, on its own line
        with pytest.raises(ConfigError,
                           match="^my.cfg:8: .*'modality.video.seq_len' "
                                 "expects int"):
            parse_config(BASE.replace("seq_len = 8", "seq_len = long"),
                         source="my.cfg")

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_keys_rejected(self, key):
        # checkpoints written while these existed name them; reject, retrain
        with pytest.raises(ConfigError,
                           match=f"^old.cfg:{APPENDED}: unknown key "
                                 f"'{key}'"):
            parse_config(BASE + f"{key} = 1\n", source="old.cfg")

    def test_keys_are_pinned(self):
        # a new dataclass field is a new key, and a new line in the config
        # text of every checkpoint; that must be a deliberate change
        assert sorted(KEYS) == [
            "bench.seed", "bench.test_size", "bench.train_size", "model.d",
            "model.heads", "model.layers", "model.modalities", "model.rank",
            "model.seed", "model.strategy", "model.tokens",
            "model.train_classifier", "run.name", "train.batch_size",
            "train.early_exit", "train.epochs", "train.exit_on_rise",
            "train.lr", "train.mode", "train.seed", "train.tau"]

    def test_readme_config_block_matches_parser(self):
        block = README.read_text().split("```ini\n", 1)[1].split("```")[0]
        # every key it sets parses, once the two omitted feat_dims are added
        parse_config(block + "modality.audio.feat_dim = 8\n"
                             "modality.depth.feat_dim = 8\n")
        # and its comments name every field of every block, and no other
        words = set(re.findall(r"[a-z_0-9]+", block))
        assert {key.split(".")[1] for key in KEYS} <= words
        assert {key.split(".")[1] for key in REMOVED_KEYS}.isdisjoint(words)

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="'modalities' is required"):
            parse_config("model.d = 32\n")
        with pytest.raises(ConfigError,
                           match="'modality.video.feat_dim' is required"):
            parse_config("modalities = video\n")

    @pytest.mark.parametrize("value", ["-0.003", "0", "nan", "inf"])
    def test_bad_lr_rejected(self, value):
        # a negative lr raised the loss, 0 moved nothing, and nan failed
        # inside fit as a FloatingPointError from op 'adam_step'
        with pytest.raises(ConfigError, match="lr must be finite and positive"):
            parse_config(BASE.replace("train.lr = 0.003",
                                      f"train.lr = {value}"))

    @pytest.mark.parametrize("rank", [0, -1, 32, 33])
    def test_rank_outside_hidden_size_rejected(self, rank):
        # rank 0 failed inside fit with a bare numpy reshape error
        with pytest.raises(ConfigError,
                           match=rf"model.rank must be at least 1 and below "
                                 rf"model.d \(32\), got {rank}"):
            parse_config(BASE + f"model.rank = {rank}\n")

    def test_smallest_valid_dims_accepted(self):
        cfg = parse_config(BASE + "model.d = 2\nmodel.heads = 1\n"
                           "model.layers = 1\nmodel.tokens = 1\n"
                           "model.rank = 1\n")
        assert cfg.dims.rank == 1
        assert build_model(cfg).head.input.w.shape == (2, 4)

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.9"])
    def test_bad_tau_rejected(self, value):
        # nan made every exit indicator NaN, written to metrics.jsonl as
        # a bare NaN token; inf made every indicator 0
        with pytest.raises(ConfigError,
                           match="train.tau must be finite and positive"):
            parse_config(BASE + f"train.tau = {value}\n")

    def test_zero_seeds_accepted(self):
        cfg = parse_config(BASE + "bench.seed = 0\nmodel.seed = 0\n"
                           "train.seed = 0\n")
        assert cfg.spec.seed == cfg.model_seed == cfg.train.seed == 0


# One setting per documented rule (README, "Config format"), as
# (settings, key, message): a setting of a key BASE sets replaces its
# line, any other is appended. The error must carry the line of ``key``,
# the first key of the rule that the text sets, and its message must
# start with ``message``, which names that key.
NAME_LISTS = [
    ([f"{key} = {value}"], key, message)
    for key in ("modalities", "model.modalities")
    for value, message in [
        ("video,audio,video", f"{key} names 'video' twice"),
        (",", f"{key} must list at least one name"),
        ("", f"{key} must list at least one name"),
        *[(f"video,{name}", f"{key} names '{name}', which is reserved")
          for name in RESERVED_NAMES]]]
VIOLATIONS = [
    # model.* (ModelDims); heads = 0 once raised ZeroDivisionError
    *[([f"model.{f} = 0"], f"model.{f}", f"model.{f} must be at least 1, "
       f"got 0") for f in ("d", "layers", "heads", "tokens")],
    (["model.rank = 0"], "model.rank", "model.rank must be at least 1 and "
     "below model.d (32), got 0"),
    # rank 4 is not below d = 4; the rule reads model.rank first, which
    # the text does not set
    (["model.d = 4"], "model.d", "model.rank must be at least 1 and below "
     "model.d (4), got 4"),
    (["model.heads = 3"], "model.heads",
     "model.d must be divisible by model.heads"),
    # train.* (TrainConfig)
    (["train.lr = -1"], "train.lr",
     "train.lr must be finite and positive, got -1.0"),
    (["train.tau = 0"], "train.tau",
     "train.tau must be finite and positive, got 0.0"),
    (["train.seed = -1"], "train.seed", "train.seed must be at least 0, "
     "got -1"),
    (["train.batch_size = 0"], "train.batch_size",
     "train.batch_size must be at least 1, got 0"),
    (["train.epochs = 0"], "train.epochs",
     "train.epochs must be at least 1, got 0"),
    (["train.early_exit = true", "train.epochs = 1"], "train.early_exit",
     "train.early_exit needs at least 2 epochs of history, got "
     "train.epochs = 1"),
    (["train.mode = parallel"], "train.mode",
     "train.mode must be one of sequential, joint, got 'parallel'"),
    # bench.* (BenchSpec); an empty split recorded a NaN epoch loss
    (["bench.train_size = 0"], "bench.train_size",
     "bench.train_size must be at least 1, got 0"),
    (["bench.test_size = 0"], "bench.test_size",
     "bench.test_size must be at least 1, got 0"),
    (["bench.seed = -1"], "bench.seed", "bench.seed must be at least 0, "
     "got -1"),
    # an empty modality shape failed inside fit with a bare numpy error
    (["modality.audio.feat_dim = 0"], "modality.audio.feat_dim",
     "modality.audio.feat_dim must be at least 1, got 0"),
    (["modality.audio.seq_len = 0"], "modality.audio.seq_len",
     "modality.audio.seq_len must be at least 1, got 0"),
    # RunConfig, across blocks; a negative seed once failed later, with
    # numpy's "expected non-negative integer", naming no key
    (["major = flow"], "major", "major modality 'flow' must be one of "
     "modalities ['video', 'audio', 'depth']"),
    (["model.modalities = audio,depth"], "major", "major modality 'video' "
     "must be one of model.modalities ['audio', 'depth']"),
    (["model.modalities = video,flow"], "model.modalities",
     "model.modalities entry 'flow' is not in modalities"),
    (["model.strategy = Mean"], "model.strategy",
     "model.strategy must be one of SelfGated, Concat, Linear, MoE, "
     "CrossAttention, got 'Mean'"),
    (["model.strategy = Bypass"], "model.strategy",
     "model.strategy must be one of"),
    (["model.seed = -1"], "model.seed", "model.seed must be at least 0, "
     "got -1"),
    *NAME_LISTS,
]


class TestRangeErrors:
    @pytest.mark.parametrize("settings,key,message", VIOLATIONS,
                             ids=["; ".join(v[0]) for v in VIOLATIONS])
    def test_names_the_line_and_key(self, settings, key, message):
        lines = BASE.splitlines()
        for setting in settings:
            at = [i for i, line in enumerate(lines)
                  if line.startswith(setting.split(" = ")[0] + " = ")]
            if at:
                lines[at[0]] = setting
            else:
                lines.append(setting)
        line = 1 + next(i for i, text in enumerate(lines)
                        if text.startswith(f"{key} = "))
        assert key in message
        with pytest.raises(ConfigError,
                           match=f"^my.cfg:{line}: {re.escape(message)}"):
            parse_config("\n".join(lines) + "\n", source="my.cfg")

    @pytest.mark.parametrize("build,message", [
        (lambda cfg: ModelDims(rank=0), "model.rank must be at least 1"),
        (lambda cfg: TrainConfig(epochs=1, early_exit=True),
         "train.early_exit needs at least 2 epochs"),
        (lambda cfg: dataclasses.replace(cfg.spec, train_size=0),
         "bench.train_size must be at least 1"),
        (lambda cfg: dataclasses.replace(
            cfg, model_modalities=("video", "video")),
         "model.modalities names 'video' twice"),
        (lambda cfg: dataclasses.replace(cfg, strategy="Mean"),
         "model.strategy must be one of"),
    ], ids=["dims", "train", "bench", "run-names", "run-strategy"])
    def test_direct_construction_raises_value_error(self, build, message):
        # the rules live on the dataclasses: one built without the parser
        # fails as loudly, only without a source line
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            build(parse_config(BASE))


class TestFrozen:
    @pytest.mark.parametrize("block,field", [
        (None, "strategy"), ("dims", "rank"), ("train", "epochs")])
    def test_fields_cannot_be_assigned(self, block, field):
        # a config checks itself once, when built; a later assignment
        # would bypass that check
        cfg = parse_config(BASE)
        holder = cfg if block is None else getattr(cfg, block)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(holder, field, getattr(holder, field))


class TestCanonicalText:
    def test_round_trip(self):
        cfg = parse_config(BASE)
        again = parse_config(cfg.to_text())
        assert again == cfg
        assert again.to_text() == cfg.to_text()

    def test_digest_stable_and_sensitive(self):
        cfg = parse_config(BASE)
        assert cfg.digest() == parse_config(BASE).digest()
        other = parse_config(BASE + "model.rank = 8\n")
        assert other.digest() != cfg.digest()

    def test_text_is_sorted(self):
        lines = parse_config(BASE).to_text().splitlines()
        assert lines == sorted(lines)

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(BASE)
        assert load_config(str(p)) == parse_config(BASE)

    def test_file_errors_name_the_path(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("just junk\n")
        with pytest.raises(ConfigError, match="run.cfg:1"):
            load_config(str(p))

    def test_non_utf8_file_names_path_and_line(self, tmp_path):
        # it raised the bare decode error, naming neither
        raw = b"modalities = video\nmodality.video.feat_dim = 16\n" \
              b"run.name = caf\xe9\n"
        p = tmp_path / "run.cfg"
        p.write_bytes(raw)
        with pytest.raises(ValueError) as exc:
            load_config(str(p))
        assert str(exc.value) == (f"{p}:3: not UTF-8: invalid continuation "
                                  f"byte at byte {raw.index(0xE9)}")


class TestBuildModel:
    def test_model_matches_config(self):
        cfg = parse_config(BASE)
        model = build_model(cfg)
        assert model.order == ["video", "audio", "depth"]
        assert model.major == "video"
        assert model.strategy == "SelfGated"
        assert model.vocab == cfg.spec.vocab
        assert model.classes == cfg.spec.classes

    def test_single_modality(self):
        cfg = parse_config("modalities = video\n"
                           "modality.video.feat_dim = 16\n")
        model = build_model(cfg)
        assert model.order == ["video"]


class TestModelModalitySubset:
    def test_defaults_to_all_benchmark_modalities(self):
        cfg = parse_config(BASE)
        assert cfg.model_modalities == ("video", "audio", "depth")

    def test_subset_restricts_model_not_benchmark(self):
        cfg = parse_config(BASE + "model.modalities = video\n")
        assert list(cfg.spec.names) == ["video", "audio", "depth"]
        assert cfg.model_modalities == ("video",)
        model = build_model(cfg)
        assert model.order == ["video"]

    def test_subset_order_is_model_order(self):
        cfg = parse_config(BASE.replace("major = video", "major = depth")
                           + "model.modalities = depth,audio\n")
        assert build_model(cfg).order == ["depth", "audio"]

    def test_subset_round_trips(self):
        cfg = parse_config(BASE + "model.modalities = video\n")
        again = parse_config(cfg.to_text())
        assert again == cfg
        assert again.model_modalities == ("video",)
