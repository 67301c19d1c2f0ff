"""tools/byte_digests.py prints the same bytes on every run of a checkout."""

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
