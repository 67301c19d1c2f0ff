"""Config parsing, validation diagnostics, canonical text, digests."""

import dataclasses
import re
from pathlib import Path

import pytest

from modfuse.config import (_BENCH_FIELDS, _MODEL_FIELDS, _RUN_FIELDS,
                            _TRAIN_FIELDS, ConfigError, RunConfig,
                            build_model, load_config, parse_config,
                            parse_kv_text)
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
bench.alphabet = 5
bench.train_size = 128
bench.test_size = 64
model.strategy = SelfGated
train.epochs = 2
train.lr = 0.003
"""
# the line number of a key appended to BASE
APPENDED = len(BASE.splitlines()) + 1


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
        assert cfg.spec.noise == pytest.approx(0.05)
        assert cfg.dims.d == 32 and cfg.dims.rank == 4
        assert cfg.train.epochs == 2 and cfg.train.lr == pytest.approx(3e-3)
        assert cfg.strategy == "SelfGated"
        assert cfg.name == "run" and cfg.outdir == ""

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

    @pytest.mark.parametrize("name", ["shuffle_modalities", "warm_start"])
    def test_removed_train_keys_rejected(self, name):
        # checkpoints written while these existed name them; reject, retrain
        with pytest.raises(ConfigError,
                           match=f"^old.cfg:{APPENDED}: unknown key "
                                 f"'train.{name}'"):
            parse_config(BASE + f"train.{name} = false\n", source="old.cfg")

    def test_every_train_config_field_is_a_key(self):
        assert list(_TRAIN_FIELDS) == [
            f.name for f in dataclasses.fields(TrainConfig)]

    def test_readme_config_block_matches_parser(self):
        block = README.read_text().split("```ini\n", 1)[1].split("```")[0]
        # every key it sets parses, once the two omitted feat_dims are added
        parse_config(block + "modality.audio.feat_dim = 8\n"
                             "modality.depth.feat_dim = 8\n")
        # and its comments name every field of every block, and no other
        words = set(re.findall(r"[a-z_0-9]+", block))
        for fields in (_BENCH_FIELDS, _MODEL_FIELDS, _TRAIN_FIELDS,
                       _RUN_FIELDS):
            assert set(fields) <= words
        assert {"shuffle_modalities", "warm_start"}.isdisjoint(words)

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="'modalities' is required"):
            parse_config("model.d = 32\n")
        with pytest.raises(ConfigError,
                           match="'modality.video.feat_dim' is required"):
            parse_config("modalities = video\n")

    def test_major_must_be_listed(self):
        with pytest.raises(ConfigError, match="major modality 'flow'"):
            parse_config(BASE.replace("major = video", "major = flow"))

    def test_strategy_validated(self):
        with pytest.raises(ConfigError, match="unknown fusion strategy"):
            parse_config(BASE.replace("model.strategy = SelfGated",
                                      "model.strategy = Mean"))
        with pytest.raises(ConfigError, match="unknown fusion strategy"):
            parse_config(BASE.replace("model.strategy = SelfGated",
                                      "model.strategy = Bypass"))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="unknown training mode"):
            parse_config(BASE + "train.mode = parallel\n")

    def test_negative_eval_batch_rejected(self):
        # would leave predict_dataset's output uninitialized: accuracy 0.0
        with pytest.raises(ConfigError, match="eval batch"):
            parse_config(BASE + "train.eval_batch = -1\n")

    def test_zero_eval_batch_rejected(self):
        with pytest.raises(ConfigError, match="eval batch"):
            parse_config(BASE + "train.eval_batch = 0\n")

    def test_empty_train_split_rejected(self):
        # would record a NaN epoch loss
        with pytest.raises(ConfigError, match="sizes must be positive"):
            parse_config(BASE.replace("bench.train_size = 128",
                                      "bench.train_size = 0"))

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("line", ["modality.audio.feat_dim = 24",
                                      "modality.audio.seq_len = 6"])
    def test_empty_modality_shape_rejected(self, line, value):
        # would fail inside fit with a bare numpy error
        key = line.split(" = ")[0]
        field = key.rsplit(".", 1)[1]
        with pytest.raises(ConfigError,
                           match=f"modality 'audio': {field} must be positive"):
            parse_config(BASE.replace(line, f"{key} = {value}"))

    @pytest.mark.parametrize("value", ["-0.003", "0", "nan", "inf"])
    def test_bad_lr_rejected(self, value):
        # a negative lr raised the loss, 0 moved nothing, and nan failed
        # inside fit as a FloatingPointError from op 'adam_step'
        with pytest.raises(ConfigError, match="lr must be finite and positive"):
            parse_config(BASE.replace("train.lr = 0.003",
                                      f"train.lr = {value}"))

    @pytest.mark.parametrize("value", ["-0.5", "1.0", "1.5", "nan"])
    @pytest.mark.parametrize("field", ["beta1", "beta2"])
    def test_bad_beta_rejected(self, field, value):
        with pytest.raises(ConfigError, match=rf"{field} must be in \[0, 1\)"):
            parse_config(BASE + f"train.{field} = {value}\n")

    def test_beta_zero_accepted(self):
        cfg = parse_config(BASE + "train.beta1 = 0\ntrain.beta2 = 0\n")
        assert cfg.train.beta1 == 0 and cfg.train.beta2 == 0

    @pytest.mark.parametrize("field", ["d", "layers", "heads", "tokens"])
    def test_empty_model_dim_rejected(self, field):
        # heads = 0 raised ZeroDivisionError, the others a plain
        # ValueError from build_model
        with pytest.raises(ConfigError,
                           match=f"model.{field} must be at least 1, got 0"):
            parse_config(BASE + f"model.{field} = 0\n")

    @pytest.mark.parametrize("field", ["head_width", "head_layers"])
    def test_negative_head_dim_rejected(self, field):
        # a negative head width was read as 2 * d, a negative layer count
        # as no layers
        with pytest.raises(ConfigError,
                           match=f"model.{field} must be at least 0, got -8"):
            parse_config(BASE + f"model.{field} = -8\n")

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
                           "model.rank = 1\nmodel.head_layers = 0\n")
        assert cfg.dims.rank == 1 and cfg.dims.resolved_head_width() == 4
        build_model(cfg)

    def test_head_divisibility(self):
        with pytest.raises(ConfigError, match="divisible"):
            parse_config(BASE + "model.d = 30\n")

    def test_early_exit_needs_history(self):
        with pytest.raises(ConfigError, match="2 epochs"):
            parse_config(BASE.replace("train.epochs = 2",
                                      "train.epochs = 1")
                         + "train.early_exit = true\n")

    @pytest.mark.parametrize("field", ["bench.seed", "model.seed",
                                       "train.seed"])
    def test_negative_seed_rejected(self, field):
        # each failed later, in gen_dataset, build_model or fit, with
        # numpy's "expected non-negative integer", naming no field
        with pytest.raises(ConfigError,
                           match=rf"{field} must be non-negative, got -1"):
            parse_config(BASE + f"{field} = -1\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.05"])
    def test_bad_bench_noise_rejected(self, value):
        # nan and inf failed inside fit as a FloatingPointError from op
        # 'leaf'
        with pytest.raises(ConfigError,
                           match="bench.noise must be finite and "
                                 "non-negative"):
            parse_config(BASE + f"bench.noise = {value}\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.9"])
    def test_bad_tau_rejected(self, value):
        # nan made every exit indicator NaN, written to metrics.jsonl as
        # a bare NaN token; inf made every indicator 0
        with pytest.raises(ConfigError,
                           match="train.tau must be finite and positive"):
            parse_config(BASE + f"train.tau = {value}\n")

    def test_zero_seeds_and_noise_accepted(self):
        cfg = parse_config(BASE + "bench.seed = 0\nmodel.seed = 0\n"
                           "train.seed = 0\nbench.noise = 0\n")
        assert cfg.spec.seed == cfg.model_seed == cfg.train.seed == 0
        assert cfg.spec.noise == 0.0

    def test_bench_validation_surfaces(self):
        with pytest.raises(ConfigError, match="alphabet"):
            parse_config(BASE.replace("bench.alphabet = 5",
                                      "bench.alphabet = 1"))


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

    def test_subset_must_come_from_benchmark(self):
        with pytest.raises(ConfigError, match="entry 'flow' is not in"):
            parse_config(BASE + "model.modalities = video,flow\n")

    def test_major_must_be_attached(self):
        with pytest.raises(ConfigError, match="must be one of"):
            parse_config(BASE + "model.modalities = audio,depth\n")

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(BASE + "model.modalities = video,video\n")

    def test_subset_round_trips(self):
        cfg = parse_config(BASE + "model.modalities = video\n")
        again = parse_config(cfg.to_text())
        assert again == cfg
        assert again.model_modalities == ("video",)
