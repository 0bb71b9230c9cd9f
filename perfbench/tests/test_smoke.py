"""Smoke runs of the benchmark: every named metric, with its unit, for every workload."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def smoke(workload: str, trace: int):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(SEED),
                           "--trace", str(trace), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_with_its_unit(workload, trace):
    lines, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # with --trace 1 `correct` also means both runs gave equal outputs op by op
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in wanted})
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert env["seed"] == SEED and env["backend"] in ("numpy", "numba")
    if trace:
        layer = {name: m["value"] for name, m in result["metrics"].items()}
        assert layer["ops.calls"] == result["attempted"] // 2
        assert (layer["kernels.ray_cast.calls"] > 0) == (workload == "simulate")
        assert (layer["io.calls"] > 0) == (workload != "augment")
        assert (layer["io.save_calls"] > 0) == (workload != "augment")
    else:
        assert any(line.startswith("op_tail_ms ") and "samples beyond" in line for line in lines)


def test_refuses_a_tree_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "augment"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
