"""Self-test of the benchmark: ``python3 -m pytest bench -q`` from the repo root.

A tiny-size smoke of every workload, traced and untraced, must emit every
metric BENCHMARK.json names, with its unit; the converged reference must
agree with rydgate's own checked quadrature at the headline point.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(entry["value"]), metric["name"]
        if not trace:
            assert entry["value"] > 0, metric["name"]


@pytest.mark.parametrize("swap", [False, True])
def test_reference_self_converges_at_headline(swap):
    problem = reference.headline()[swap]
    _, change = reference.zeta_ref_converged(problem)
    assert change <= 1e-9


@pytest.mark.parametrize("protocol", ["direct", "swap"])
def test_reference_within_doubling_change_of_checked_zeta(protocol):
    import rydgate
    from rydgate.numerics import zeta

    raw = workloads.default_raw()
    raw["protocol"] = {"name": protocol}
    config = rydgate.validate_config(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", rydgate.AccuracyWarning)
        checked = zeta(config, check=True)
    change = abs(checked - zeta(config, nodes=64, check=False))
    ref = reference.zeta_ref(reference.problem_from_config(config))
    assert abs(checked - ref) <= change


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "--workload", "gate-point", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
