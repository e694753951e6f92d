"""Self-tests for the benchmark: python3 -m pytest perfbench/test_perfbench.py

Each workload runs once at tiny size, untraced and traced, and every
metric ``BENCHMARK.json`` names must come out with its unit.  The tracer
tests check self-time arithmetic and that a vanished entry point makes a
layer ``absent`` instead of crashing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Target, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload: str, trace: int) -> None:
    done = _run(
        ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in expected}
    for entry in expected:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
        assert f"{workload} {entry['name']} = " in done.stdout
        if not trace:
            assert metric["value"] > 0


def test_missing_sources_fail_without_a_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


class _Toy:
    def outer(self) -> int:
        return self.inner() + self.inner()

    def inner(self) -> int:
        return sum(range(2000))


def test_self_time_excludes_child_spans() -> None:
    module = sys.modules[__name__]
    tracer = Tracer("toy")
    tracer.install(
        [
            Target("outer_layer", module.__name__, "_Toy", ("outer",)),
            Target("inner_layer", module.__name__, "_Toy", ("inner",)),
        ]
    )
    try:
        tracer.active = True
        with tracer.span("perfbench.job"):
            _Toy().outer()
        tracer.active = False
    finally:
        tracer.uninstall()
    assert tracer.calls_of("*._Toy.inner") == 2
    outer_total = tracer.total_of("*._Toy.outer")
    inner_total = tracer.total_of("*._Toy.inner")
    assert tracer.self_of("*._Toy.outer") == outer_total - inner_total
    job_total = tracer.total_of("*perfbench.job")
    assert tracer.self_of("*perfbench.job") == job_total - outer_total
    assert _Toy.outer.__qualname__ == "_Toy.outer"  # restored, not the wrapper
    assert not hasattr(_Toy.outer, "__wrapped__")


def test_vanished_entry_points_make_a_layer_absent() -> None:
    tracer = Tracer("toy")
    tracer.install(
        [
            Target("gone", "repro_no_such_module", None, ("f",)),
            Target("renamed", __name__, "_Toy", ("no_such_method",)),
            Target("renamed", __name__, "_NoSuchClass", ("inner",)),
            Target("present", __name__, "_Toy", ("inner",)),
        ]
    )
    tracer.uninstall()
    assert tracer.absent_layers() == ["gone", "renamed"]
    assert len(tracer.missing["renamed"]) == 2
