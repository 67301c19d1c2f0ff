"""Metrics files, run orchestration, and the command line."""

import json
import os

import numpy as np
import pytest

from modfuse.bench import gen_dataset
from modfuse.checkpoint import save_checkpoint
from modfuse.cli import main
from modfuse.config import (ConfigError, RunConfig, build_model, load_config,
                            parse_config)
from modfuse.metrics import (SCHEMA_VERSION, read_jsonl, run_records,
                             summarize, write_jsonl)
from modfuse.runner import (resolve_outdir, run_ablate, run_eval,
                            run_gradcheck, run_train)
from modfuse.training import TrainConfig, fit, masked_features

SMALL = """
modalities = video,audio
modality.video.feat_dim = 16
modality.audio.feat_dim = 24
modality.video.seq_len = 5
modality.audio.seq_len = 5
bench.train_size = 64
bench.test_size = 32
bench.seed = 3
train.epochs = 2
train.batch_size = 32
run.name = small
"""


def train_once(text=SMALL):
    cfg = parse_config(text)
    model = build_model(cfg)
    train, test = gen_dataset(cfg.spec)
    report = fit(model, train, test, cfg.train)
    return cfg, model, report


class TestMetrics:
    def test_record_fields(self):
        _, model, report = train_once()
        records = run_records(model, report)
        assert len(records) == 2
        rec = records[0]
        assert rec["schema"] == SCHEMA_VERSION
        assert rec["epoch"] == 1 and rec["mode"] == "sequential"
        assert set(rec["accuracy"]) == {"overall", "unimodal", "equal",
                                        "count"}
        assert set(rec["grad_mag"]) == {"video", "audio"}
        assert rec["indicator"] == {"video": None, "audio": None}
        assert rec["active"] == ["video", "audio"]
        assert rec["census"]["trainable"] > 0
        assert rec["token_budget"] == 8 and rec["flops"] > 0
        assert "time" not in rec and "timestamp" not in rec

    def test_reruns_byte_identical(self, tmp_path):
        p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        _, model1, report1 = train_once()
        write_jsonl(p1, run_records(model1, report1))
        _, model2, report2 = train_once()
        write_jsonl(p2, run_records(model2, report2))
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_round_trip_and_json_types(self, tmp_path):
        _, model, report = train_once()
        records = run_records(model, report)
        path = str(tmp_path / "m.jsonl")
        write_jsonl(path, records)
        loaded = read_jsonl(path)
        assert len(loaded) == len(records)
        assert loaded[0]["loss"] == pytest.approx(records[0]["loss"])
        with open(path) as f:
            for line in f:
                json.loads(line)

    def test_summarize_reports_exits(self):
        cfg = parse_config(SMALL.replace("train.epochs = 2",
                                         "train.epochs = 3")
                           + "train.early_exit = true\n"
                           + "train.tau = 1000000.0\n")
        model = build_model(cfg)
        train, test = gen_dataset(cfg.spec)
        report = fit(model, train, test, cfg.train)
        summary = summarize(run_records(model, report))
        assert summary["exits"] == {"video": 2, "audio": 2}
        assert summary["active"] == []

    def test_summary_is_last_record_plus_exits(self):
        # it restated the record under other names (epochs, trainable,
        # total) and dropped the rest
        _, model, report = train_once()
        records = run_records(model, report)
        summary = summarize(records)
        assert summary == {**records[-1], "exits": summary["exits"]}


class TestRunner:
    def test_outdir_is_out_flag_else_runs_name(self):
        cfg = parse_config(SMALL)
        assert resolve_outdir(cfg, "explicit") == "explicit"
        assert resolve_outdir(cfg) == os.path.join("runs", "small")

    def test_train_writes_artifacts(self, tmp_path):
        cfg = parse_config(SMALL)
        result = run_train(cfg, str(tmp_path))
        assert os.path.exists(result["checkpoint"])
        assert os.path.exists(result["metrics"])
        assert 0.0 <= result["summary"]["accuracy"]["overall"] <= 1.0
        assert result["summary"]["epoch"] == 2

    def test_masked_features(self):
        feats = {"a": np.ones((2, 3, 4), dtype=np.float32),
                 "b": np.ones((2, 3, 5), dtype=np.float32)}
        out = masked_features(feats, {"a"})
        assert np.array_equal(out["a"], feats["a"])
        assert not out["b"].any()
        assert out["b"].shape == feats["b"].shape

    def test_eval_full_and_masked(self, tmp_path):
        cfg = parse_config(SMALL)
        result = run_train(cfg, str(tmp_path))
        full = run_eval(result["checkpoint"])
        assert full["visible"] == ["video", "audio"]
        masked = run_eval(result["checkpoint"], modalities=["video"])
        assert masked["visible"] == ["video"]
        assert 0.0 <= masked["accuracy"]["overall"] <= 1.0
        # every modality zeroed: the empty set was reported as all of them
        assert run_eval(result["checkpoint"], modalities=[])["visible"] == []

    def test_eval_rejects_unknown_modality(self, tmp_path):
        cfg = parse_config(SMALL)
        result = run_train(cfg, str(tmp_path))
        with pytest.raises(ValueError, match="unknown modalities"):
            run_eval(result["checkpoint"], modalities=["thermal"])

    def test_easy_hard_needs_reference(self, tmp_path):
        cfg = parse_config(SMALL)
        result = run_train(cfg, str(tmp_path))
        plain = run_eval(result["checkpoint"])
        assert not {"easy", "hard", "easy_count", "hard_count"} & set(plain)
        split = run_eval(result["checkpoint"],
                         reference=result["checkpoint"])
        assert split["accuracy"] == plain["accuracy"]
        assert split["easy_count"] + split["hard_count"] == split["examples"]
        # the reference is the model itself: it is right on every easy
        # example and wrong on every hard one by construction
        if split["easy_count"]:
            assert split["easy"]["overall"] == pytest.approx(1.0)
        if split["hard_count"]:
            assert split["hard"]["overall"] == pytest.approx(0.0)

    def test_easy_hard_with_single_modality_reference(self, tmp_path):
        full = run_train(parse_config(SMALL), str(tmp_path / "full"))
        ref_cfg = parse_config(SMALL.replace("run.name = small",
                                             "run.name = ref")
                               + "model.modalities = video\n")
        ref = run_train(ref_cfg, str(tmp_path / "ref"))
        split = run_eval(full["checkpoint"], reference=ref["checkpoint"])
        assert split["easy_count"] + split["hard_count"] == split["examples"]
        assert {"easy", "hard"} <= set(split)

    def test_easy_hard_rejects_different_benchmark(self, tmp_path):
        full = run_train(parse_config(SMALL), str(tmp_path / "full"))
        other = parse_config(SMALL.replace("bench.seed = 3",
                                           "bench.seed = 4"))
        ref = run_train(other, str(tmp_path / "ref"))
        with pytest.raises(ValueError, match="different benchmark"):
            run_eval(full["checkpoint"], reference=ref["checkpoint"])

    def test_ablate_mode_axis(self, tmp_path):
        cfg = parse_config(SMALL.replace("train.epochs = 2",
                                         "train.epochs = 1"))
        rows = run_ablate(cfg, "mode", str(tmp_path))
        assert [r["label"] for r in rows] == ["sequential", "joint"]
        for row in rows:
            assert os.path.exists(
                os.path.join(str(tmp_path), row["label"], "metrics.jsonl"))

    def test_ablate_variant_is_a_train_run(self, tmp_path):
        # each variant gets run_train's layout, so its checkpoint can be
        # evaluated; it used to leave only <label>.metrics.jsonl
        cfg = parse_config(SMALL.replace("train.epochs = 2",
                                         "train.epochs = 1"))
        rows = run_ablate(cfg, "mode", str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == ["joint", "sequential"]
        for row in rows:
            run_dir = tmp_path / row["label"]
            assert sorted(os.listdir(run_dir)) == ["metrics.jsonl",
                                                   "model.ckpt"]
            assert summarize(read_jsonl(str(run_dir / "metrics.jsonl"))) \
                == {k: v for k, v in row.items() if k != "label"}
            acc = run_eval(str(run_dir / "model.ckpt"))["accuracy"]
            assert {k: round(v, 6) for k, v in acc.items()} == \
                row["accuracy"]

    def test_ablate_rank_axis_census_varies(self, tmp_path):
        cfg = parse_config(SMALL.replace("train.epochs = 2",
                                         "train.epochs = 1"))
        rows = run_ablate(cfg, "rank", str(tmp_path))
        assert [r["label"] for r in rows] == ["rank2", "rank4", "rank8"]
        trainables = [r["census"]["trainable"] for r in rows]
        assert trainables[0] < trainables[1] < trainables[2]

    def test_ablate_checks_whole_grid_before_training(self, tmp_path):
        # rank 8 is not below model.d = 8, so no variant may train: rank2
        # and rank4 would write their metrics before rank8 failed
        cfg = parse_config(SMALL.replace("train.epochs = 2",
                                         "train.epochs = 1")
                           + "model.d = 8\n")
        with pytest.raises(ValueError, match="model.rank"):
            run_ablate(cfg, "rank", str(tmp_path))
        assert not list(tmp_path.iterdir())

    def test_ablate_unknown_axis(self, tmp_path):
        cfg = parse_config(SMALL)
        with pytest.raises(ValueError, match="unknown ablation axis"):
            list(run_ablate(cfg, "temperature", str(tmp_path)))

    def test_gradcheck_sampled(self):
        report = run_gradcheck(sample=3)
        assert report.passed
        assert report.max_rel_err < 1e-4


class TestCli:
    def write_config(self, tmp_path, text=SMALL):
        p = tmp_path / "run.cfg"
        p.write_text(text)
        return str(p)

    def test_train_and_eval(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["train", cfg_path, "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "epoch 1" in stdout and "final:" in stdout
        ckpt = os.path.join(out, "model.ckpt")
        assert main(["eval", ckpt]) == 0
        assert "overall" in capsys.readouterr().out
        assert main(["eval", ckpt, "--modalities", "video"]) == 0
        assert "visible modalities: video" in capsys.readouterr().out

    def test_eval_easy_hard(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        out = str(tmp_path / "out")
        main(["train", cfg_path, "--out", out])
        ckpt = os.path.join(out, "model.ckpt")
        assert main(["eval", ckpt]) == 0
        stdout = capsys.readouterr().out
        assert "easy (" not in stdout and "hard (" not in stdout
        assert main(["eval", ckpt, "--reference", ckpt]) == 0
        stdout = capsys.readouterr().out
        assert "easy (" in stdout and "hard (" in stdout

    def test_easy_hard_flag_rejected(self, tmp_path, capsys):
        # --reference alone asks for the split; the flag that also had to
        # be given, or else the reference was silently ignored, is gone
        ckpt = str(tmp_path / "model.ckpt")
        with pytest.raises(SystemExit) as exc:
            main(["eval", ckpt, "--easy-hard", "--reference", ckpt])
        assert exc.value.code == 2
        assert "unrecognized arguments: --easy-hard" in \
            capsys.readouterr().err

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("modalities = video\nmodel.d = large\n")
        assert main(["train", str(p)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [",", "", " , "])
    def test_eval_modalities_naming_none_rejected(self, tmp_path, capsys,
                                                  value):
        # "," evaluated with every modality zeroed but printed all of
        # them as visible; "" was read as no flag
        ckpt = str(tmp_path / "model.ckpt")
        assert main(["eval", ckpt, "--modalities", value]) == 2
        assert "--modalities names no modality" in capsys.readouterr().err

    def test_non_finite_checkpoint_exits_2_naming_tensor(self, tmp_path,
                                                         capsys):
        cfg = parse_config(SMALL)
        model = build_model(cfg)
        model.registry.entries["audio.queries"].tensor.data[0, 0] = np.nan
        ckpt = str(tmp_path / "nan.ckpt")
        save_checkpoint(ckpt, model.registry, cfg)
        assert main(["eval", ckpt]) == 2
        assert f"error: {ckpt}: 'audio.queries' holds non-finite" in \
            capsys.readouterr().err

    def test_corrupt_checkpoint_error_names_its_file(self, tmp_path, capsys):
        # with --reference there are two files; the error says which one
        # failed
        cfg = parse_config(SMALL)
        good = str(tmp_path / "good.ckpt")
        save_checkpoint(good, build_model(cfg).registry, cfg)
        bad = str(tmp_path / "bad_name.ckpt")
        with open(good, "rb") as f:
            raw = bytearray(f.read())
        # magic, version, digest, the config text and the tensor count
        # come first, then the first name's u16 length
        name_at = 4 + 4 + 32 + 4 + len(cfg.to_text().encode()) + 4 + 2
        raw[name_at] = 0xFF
        with open(bad, "wb") as f:
            f.write(raw)
        for args in ([bad], [good, "--reference", bad]):
            assert main(["eval", *args]) == 2
            assert (f"error: {bad}: tensor name is not utf-8: bad byte at "
                    f"{name_at}") in capsys.readouterr().err

    def test_version_1_checkpoint_exits_2(self, tmp_path, capsys):
        # version 1 copied model.modalities and model.strategy into its
        # header; such files are retrained, not converted
        cfg = parse_config(SMALL)
        ckpt = str(tmp_path / "v1.ckpt")
        save_checkpoint(ckpt, build_model(cfg).registry, cfg)
        with open(ckpt, "r+b") as f:
            f.seek(4)
            f.write((1).to_bytes(4, "little"))
        for flags in ([], ["--force"]):
            assert main(["eval", ckpt, *flags]) == 2
            assert "unsupported checkpoint version 1" in \
                capsys.readouterr().err

    def test_checkpoint_naming_removed_key_exits_2(self, tmp_path, capsys,
                                                   monkeypatch):
        # every checkpoint written while model.head_layers,
        # train.shuffle_modalities and train.warm_start existed names them
        # in its config text; the first in the file is reported
        cfg = parse_config(SMALL)
        lines = sorted(cfg.to_text().splitlines()
                       + ["model.head_layers = 2",
                          "train.shuffle_modalities = false",
                          "train.warm_start = false"])
        line = lines.index("model.head_layers = 2") + 1
        monkeypatch.setattr(RunConfig, "to_text",
                            lambda self: "\n".join(lines) + "\n")
        bad = str(tmp_path / "old.ckpt")
        save_checkpoint(bad, build_model(cfg).registry, cfg)
        monkeypatch.undo()
        good = str(tmp_path / "new.ckpt")
        save_checkpoint(good, build_model(cfg).registry, cfg)
        for args in ([bad], [bad, "--force"],
                     [good, "--reference", bad]):
            assert main(["eval", *args]) == 2
            assert (f"error: {bad}:{line}: unknown key "
                    f"'model.head_layers'") in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["bench.alphabet = 5",
                                         "bench.noise = 0.05",
                                         "run.outdir = "])
    def test_checkpoint_with_fixed_bench_key_exits_2(self, tmp_path, capsys,
                                                     monkeypatch, setting):
        # checkpoints written while the alphabet, the noise and the output
        # path were settings hold these lines in their config text
        cfg = parse_config(SMALL)
        lines = sorted(cfg.to_text().splitlines() + [setting])
        line = lines.index(setting) + 1
        monkeypatch.setattr(RunConfig, "to_text",
                            lambda self: "\n".join(lines) + "\n")
        bad = str(tmp_path / "old.ckpt")
        save_checkpoint(bad, build_model(cfg).registry, cfg)
        monkeypatch.undo()
        key = setting.split(" = ")[0]
        assert main(["eval", bad]) == 2
        assert f"error: {bad}:{line}: unknown key '{key}'" in \
            capsys.readouterr().err

    def test_removed_ablate_axis_rejected(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["ablate", cfg_path, "--axis", "prioritize"])
        assert exc.value.code == 2
        assert "invalid choice: 'prioritize'" in capsys.readouterr().err

    def test_missing_checkpoint_exits_nonzero(self, tmp_path, capsys):
        assert main(["eval", str(tmp_path / "nope.ckpt")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_ablate_table(self, tmp_path, capsys):
        cfg_path = self.write_config(
            tmp_path, SMALL.replace("train.epochs = 2", "train.epochs = 1"))
        out = str(tmp_path / "ab")
        assert main(["ablate", cfg_path, "--axis", "mode", "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "joint" in stdout and "variant" in stdout

    def test_gradcheck_command(self, capsys):
        assert main(["gradcheck", "--sample", "2"]) == 0
        assert "gradcheck PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("sample", ["0", "-3"])
    def test_gradcheck_sample_below_one_rejected(self, sample, capsys):
        # a sample of no scalar would check nothing and still print PASS
        assert main(["gradcheck", "--sample", sample]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert f"error: sample must be at least 1, got {sample}" in captured.err

    def test_gradcheck_seed_flag_rejected(self, capsys):
        # the check's seed is fixed in run_gradcheck; the flag is gone
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_report_command(self, tmp_path, capsys):
        cfg = parse_config(SMALL)
        result = run_train(cfg, str(tmp_path / "alpha"))
        other = run_train(cfg, str(tmp_path / "beta"))
        assert main(["report", result["metrics"], other["metrics"]]) == 0
        stdout = capsys.readouterr().out
        assert "overall" in stdout
        # both files are named metrics.jsonl; rows fall back to the run
        # directory so they stay distinguishable
        assert "alpha" in stdout and "beta" in stdout

    def test_report_labels_ablation_rows_by_variant(self, tmp_path, capsys):
        cfg_path = self.write_config(
            tmp_path, SMALL.replace("train.epochs = 2", "train.epochs = 1"))
        out = tmp_path / "ab"
        assert main(["ablate", cfg_path, "--axis", "mode", "--out",
                     str(out)]) == 0
        capsys.readouterr()
        files = sorted(str(p) for p in out.glob("*/metrics.jsonl"))
        assert main(["report", *files]) == 0
        labels = [line.split()[0]
                  for line in capsys.readouterr().out.splitlines()[2:]]
        assert labels == ["joint", "sequential"]

    def test_report_absent_template_prints_dash(self, tmp_path, capsys):
        # a one-modality benchmark asks only unimodal questions; its equal
        # and count cells read 0.000, as if measured
        path = tmp_path / "uni.jsonl"
        path.write_text(json.dumps(
            {**self.RECORD, "accuracy": {"overall": 0.75,
                                         "unimodal": 0.75}}) + "\n")
        assert main(["report", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[2].split() == [
            "uni", "0.750", "0.750", "-", "-", "1", "4", "8"]

    # the fields summarize reads, one epoch's worth
    RECORD = {"epoch": 1, "mode": "joint", "loss": 0.5,
              "accuracy": {"overall": 0.5}, "active": [],
              "census": {"trainable": 1, "total": 2}, "token_budget": 4,
              "flops": 8}

    def report_error(self, tmp_path, capsys, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        assert main(["report", str(path)]) == 2
        return str(path), capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        # it printed "Expecting value: line 1 column 1 (char 0)"
        ("oops", "Expecting value at column 1"),
        # it died with an uncaught AttributeError
        ("[1]", "expected a JSON object, got list")])
    def test_report_bad_line_names_file_and_line(self, tmp_path, capsys,
                                                 line, message):
        path, err = self.report_error(tmp_path, capsys,
                                      [json.dumps(self.RECORD), line])
        assert err == f"error: {path}:2: {message}\n"

    def test_report_empty_file_names_it(self, tmp_path, capsys):
        path, err = self.report_error(tmp_path, capsys, [])
        assert err == f"error: {path}: no records to summarize\n"

    def test_report_missing_key_names_it(self, tmp_path, capsys):
        # it died with an uncaught KeyError
        partial = {k: v for k, v in self.RECORD.items() if k != "epoch"}
        path, err = self.report_error(
            tmp_path, capsys, [json.dumps(self.RECORD), json.dumps(partial)])
        assert err == f"error: {path}: record 2 has no 'epoch'\n"

    @pytest.mark.parametrize("field, value, key", [
        # each died with a traceback: KeyError: 'total', KeyError:
        # 'overall' and "'int' object is not subscriptable"
        ("census", {"trainable": 1}, "census.total"),
        ("accuracy", {}, "accuracy.overall"),
        ("accuracy", 5, "accuracy.overall")])
    def test_report_missing_nested_key_names_it(self, tmp_path, capsys,
                                                field, value, key):
        bad = {**self.RECORD, field: value}
        path, err = self.report_error(
            tmp_path, capsys, [json.dumps(self.RECORD), json.dumps(bad)])
        assert err == f"error: {path}: record 2 has no '{key}'\n"

    @pytest.mark.parametrize("field, value, message", [
        # "argument of type 'int' is not iterable", uncaught
        ("active", 5, "'active' must be a list of names, got 5"),
        # printed "early exits 1 at epoch 1" and exited 0
        ("grad_mag", [1], "'grad_mag' must be a dict of numbers, got [1]"),
        # printed the table header, then "Unknown format code 'f'"
        ("accuracy", {"overall": "x"},
         "'accuracy.overall' must be a number, got \"x\""),
        ("accuracy", {"overall": 0.5, "count": None},
         "'accuracy' must be a dict of numbers, got "
         "{\"overall\": 0.5, \"count\": null}"),
        # printed x in the trainable column and exited 0
        ("census", {"trainable": "x", "total": 2},
         "'census.trainable' must be an integer, got \"x\""),
        ("flops", True, "'flops' must be an integer, got true")])
    def test_report_wrong_kind_names_field(self, tmp_path, capsys, field,
                                           value, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({**self.RECORD, field: value}) + "\n")
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: record 1: {message}\n"

    def test_report_non_utf8_names_file_and_line(self, tmp_path, capsys):
        # it printed the bare decode error, naming neither
        first = json.dumps(self.RECORD).encode() + b"\n"
        path = tmp_path / "bad.jsonl"
        path.write_bytes(first + b"\xff\xfe{}\n")
        assert main(["report", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}:2: not UTF-8: invalid start byte at byte "
            f"{len(first)}\n")

    def test_ablate_names_the_rejected_variant(self, tmp_path, capsys):
        # the file's rank 2 is valid; the grid's rank 8 is not, at d = 8,
        # and the error named no variant
        cfg_path = self.write_config(
            tmp_path, SMALL + "model.d = 8\nmodel.heads = 2\nmodel.rank = 2\n")
        out = str(tmp_path / "ab")
        assert main(["ablate", cfg_path, "--axis", "rank", "--out", out]) == 2
        assert capsys.readouterr().err == (
            "error: ablation variant 'rank8': model.rank must be at least 1 "
            "and below model.d (8), got 8\n")
        with pytest.raises(ConfigError) as exc:
            run_ablate(load_config(cfg_path), "rank", out)
        assert exc.value.keys == ("model.rank", "model.d")

    def test_train_without_out_writes_runs_name(self, tmp_path, monkeypatch,
                                                capsys):
        monkeypatch.chdir(tmp_path)
        cfg_path = self.write_config(tmp_path)
        assert main(["train", cfg_path]) == 0
        assert os.path.exists(
            str(tmp_path / "runs" / "small" / "model.ckpt"))
