"""Host-time benchmark of the MMR simulator: one workload per invocation.

    python3 perfbench/run.py --workload paper_router --seed 1 --seconds 10 --trace 0

Run from the repository root.  The workload runs in a fresh child process
(``worker.py``) with ``src/`` on its path.  With ``--trace 0`` the child
times the workload untraced and this script prints every end-to-end
metric listed in ``BENCHMARK.json``; with ``--trace 1`` the child wraps
each layer's entry points and this script prints every per-layer metric.
The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every correctness check passed.

All times are host times.  Simulated statistics are checked for identity
against the recorded digests in ``golden.json`` and for invariants; they
are not compared with the paper's figures.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
#: The whole invocation must end well inside the three-minute budget.
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result at all."""


def load_benchmark() -> Dict[str, Any]:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path.name}: {exc}") from exc


def run_child(args: argparse.Namespace, started: float) -> Dict[str, Any]:
    """Run the workload in a fresh process; return its JSON result."""
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no simulator sources under {ROOT / 'src'}")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Keep git's repository discovery (the simulator records the git
    # revision in its manifests) inside the checkout.
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", "trace" if args.trace else "measure",
        "--size", args.size,
        "--work-dir", str(WORK_DIR),
    ]
    timeout = CHILD_TIMEOUT_S - (time.monotonic() - started)
    with subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    ) as child:
        try:
            stdout, _ = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise BenchError(f"{args.workload} did not finish within {timeout:.0f} s")
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise BenchError(f"{args.workload} worker exited with code {child.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise BenchError(f"{args.workload} worker printed no result: {exc}") from exc


def report(args: argparse.Namespace, benchmark: Dict[str, Any], result: Dict[str, Any]) -> int:
    listed = benchmark["per_layer" if args.trace else "end_to_end"]
    table = {entry["name"]: entry for entry in listed}
    measured: Dict[str, float] = result["metrics"]
    failures: List[str] = list(result["failures"])
    info: Dict[str, Any] = result["info"]
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, entry in table.items():
        value = measured.get(name)
        if value is None:
            failures.append(f"metric {name} was not measured")
            continue
        if not args.trace and not value > 0:
            failures.append(f"metric {name} is {value}, expected > 0")
        metrics[name] = {"value": value, "unit": entry["unit"]}
        print(f"{args.workload} {name} = {value:.6g} {entry['unit']}")
    for key, value in sorted(info.items()):
        print(f"{args.workload} info {key} = {value}")
    for layer in info.get("absent_layers", []):
        print(f"{args.workload} layer {layer}: absent")
    attempted = max(1, int(result["attempted"]))
    failed = min(attempted, len(failures))
    print(f"{args.workload} failed_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for failure in failures:
        print(f"{args.workload} FAILED {failure}", file=sys.stderr)
    correct = not failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    started = time.monotonic()
    try:
        benchmark = load_benchmark()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in benchmark["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("measure", "tiny"), default="measure",
        help="job size; 'tiny' is for the benchmark's self-tests",
    )
    args = parser.parse_args(argv)
    try:
        result = run_child(args, started)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return report(args, benchmark, result)


if __name__ == "__main__":
    sys.exit(main())
