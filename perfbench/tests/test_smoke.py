"""Smoke test of the benchmark: every workload at the tiny size, untraced
and traced, prints every metric it names with its unit.

    python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)

# end-to-end figures each workload prints in its report, with their units;
# the JSON line carries only those declared in BENCHMARK.json
REPORTED = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "fail_ratio": "ratio"}
ACCURACY = {
    "paper": {"eval_err": "relative", "x_err": "abs"},
    "swarm": {"eval_err": "relative", "x_err": "abs"},
    "protocol": {"u0_ratio": "ratio"},
    "suite": {"eval_err": "relative", "x_err": "abs"},
}


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _report_units(stdout):
    """name -> unit of the indented metric lines of a report."""
    units = {}
    for line in stdout.splitlines():
        if line.startswith("  "):
            name, _value, unit = line.split()[:3]
            units[name] = unit
    return units


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stdout
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    printed = _report_units(proc.stdout)
    for name, unit in {**REPORTED, **ACCURACY[workload]}.items():
        assert printed.get(name) == unit, f"{name} not printed with unit {unit}"
    if trace:
        for m in declared:
            assert printed.get(m["name"]) == m["unit"]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits nonzero and
    prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "paper", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
