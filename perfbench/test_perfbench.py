"""Self-tests of the benchmark, at a tiny size.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(name, trace, tmp_path, seed=3):
    return workloads.run(name, seed, 0.2, trace, tmp_path, workloads.TINY)


def wrappable():
    return {(owner, attr): vars(owner)[attr] for _, owner, attr, _, _ in tracer.targets()}


def test_workload_names_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_prints_every_metric_and_unwraps(name, trace, tmp_path):
    before = wrappable()
    result = tiny_run(name, trace, tmp_path)
    assert result.correct and result.failed == 0 and result.attempted >= 1

    declared = SPEC["per_layer" if trace else "end_to_end"]
    line = json.loads(run.format_result(result)[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in declared}
    table = run.format_result(result)[:-2]
    for metric in declared:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(row.split()[:3:2] == [metric["name"], metric["unit"]] for row in table), metric
    for name in ["failed_ratio"] + ([] if trace else ["latency_s_tail"]):
        assert any(row.split()[0] == name for row in table), name

    after = wrappable()
    assert all(after[key] is original for key, original in before.items())


def test_loss_end_and_tape_ops_repeat_at_one_seed(tmp_path):
    first, second = (tiny_run("train_reduced", False, tmp_path) for _ in range(2))
    assert first.metrics["loss_end"] == second.metrics["loss_end"]
    first, second = (tiny_run("train_reduced", True, tmp_path) for _ in range(2))
    tape_ops = [r.metrics["tensor.tape_ops"][0] for r in (first, second)]
    assert tape_ops[0] == tape_ops[1] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "separate_long", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
