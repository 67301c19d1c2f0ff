"""The tools: byte_digests.py prints the same bytes on every run of a
checkout, bench_record.py applies the claim rule and the bounds, and
perfbench's tracer finds the layer boundaries it wraps."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from modfuse.fusion import STRATEGIES

ROOT = Path(__file__).resolve().parents[1]


def test_byte_digests_repeat(tmp_path):
    cmd = [sys.executable, str(ROOT / "tools" / "byte_digests.py"),
           "--train-size", "32", "--test-size", "32", "--epochs", "2",
           "--gradcheck-sample", "2"]
    outs = [subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                           timeout=300) for _ in range(2)]
    for proc in outs:
        assert proc.returncode == 0, proc.stderr[-2000:]
    assert outs[0].stdout == outs[1].stdout
    lines = [json.loads(line) for line in outs[0].stdout.splitlines()]
    inits = [line for line in lines if "init" in line]
    assert [line["init"] for line in inits] == [
        f"{s}-{dtype}" for s in STRATEGIES for dtype in ("float32", "float64")]
    for line in inits:
        assert set(line["checksum"]) == {"video", "audio", "depth", "fusion",
                                         "frozen"}
        assert all(len(h) == 64 for h in line["checksum"].values())
    for dtype in ("float32", "float64"):
        # only the fusion tag's draws depend on the strategy
        shared = {json.dumps({tag: h for tag, h in line["checksum"].items()
                              if tag != "fusion"}, sort_keys=True)
                  for line in inits if line["init"].endswith(dtype)}
        assert len(shared) == 1
    lines = lines[len(inits):]
    assert [line["run"] for line in lines[:-1]] == [
        f"{s}-{m}-exit-seed7" for s in STRATEGIES
        for m in ("sequential", "joint")] + [
        "SelfGated-sequential-exit-split269-seed7"]
    for line in lines[:-1]:
        assert len(line["data_sha256"]) == len(line["metrics_sha256"]) == len(
            line["records_sha256"]) == len(line["checkpoint_sha256"]) == len(
            line["tensors_sha256"]) == 64
        assert line["records_sha256"] != line["metrics_sha256"]
        assert line["tensors_sha256"] != line["checkpoint_sha256"]
        census = line["census"]
        assert set(census) == {"trainable", "total", "video", "audio",
                               "depth", "fusion"}
        assert census["trainable"] == sum(
            census[tag] for tag in ("video", "audio", "depth", "fusion"))
        assert 0.0 <= line["accuracy"]["overall"] <= 1.0
        assert 0.0 <= line["major_only_accuracy"]["overall"] <= 1.0
        assert line["major_only_accuracy"].keys() == line["accuracy"].keys()
    assert lines[-1]["gradcheck"].startswith("gradcheck PASS")


def _bench_record():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_summary_applies_claim_rule_and_bounds():
    summarize = _bench_record().summarize
    metrics = [{"name": "eps", "better": "higher", "bound": 0.2},
               {"name": "rss", "better": "lower", "bound": 0.1}]
    runs = []
    for pair in range(10):
        # the change wins 9 of 10 pairs on eps, by 10%; rss grows by 15%
        parent = {"eps": 100.0 + pair, "rss": 50.0}
        change = {"eps": parent["eps"] * (1.1 if pair else 0.99),
                  "rss": 57.5}
        for side, values in (("parent", parent), ("change", change)):
            runs.append({"workload": "w", "pair": pair, "side": side,
                         "failed": int(side == "change" and pair == 3),
                         "attempted": 7, "metrics": values})
    row = summarize(runs, metrics)["w"]
    eps, rss = row["eps"], row["rss"]
    assert eps["pairs"] == rss["pairs"] == 10
    assert eps["parent_quartiles"] == [102.25, 104.5, 106.75]
    assert eps["change_wins"] == 9
    # the median gain, about 10.4, is beyond the parent's IQR of 4.5
    assert eps["gain_claimable"] and eps["within_bound"]
    assert rss["change_wins"] == 0 and not rss["gain_claimable"]
    assert not rss["within_bound"]
    assert rss["change_over_parent"] == 1.15
    assert row["failed_of_attempted"] == {"parent": [0, 70],
                                          "change": [1, 70]}


def test_perfbench_tracer_boundaries(monkeypatch):
    # perfbench/run.py imports tracer.py as the top-level module "tracer";
    # load it the same way, writing no bytecode beside it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    spec.loader.exec_module(tracer)
    recorder = tracer.Recorder()
    recorder.install()
    try:
        # fusion_only_step went when train_step took over every update
        assert recorder.missing == ["modfuse.training.fusion_only_step"]
        assert len(recorder.op_names) == 15
        assert {"matmul", "reshape", "transpose"} <= set(recorder.op_names)
    finally:
        recorder.uninstall()
