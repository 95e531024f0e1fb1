"""Smoke tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)


def smoke(name: str, trace: bool, seed: int = 1):
    return run.run(name, seed, 0.05, trace)


def test_spec_matches_reported_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_printed_with_unit(name, trace):
    result, record = smoke(name, trace)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    units = run.per_layer_units() if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0
    assert record["seed"] == 1 and record["blas_threads"] >= 1


def test_inverted_verdict_counts_as_failed(monkeypatch):
    same_orbit = workloads.orbits.same_orbit
    monkeypatch.setattr(workloads.orbits, "same_orbit",
                        lambda U, W, tol=1e-6: not same_orbit(U, W, tol))
    result, record = smoke("catalog", trace=True)
    ops = workloads.build("catalog", 1).ops
    compares = sum(op.kind == "compare" for op in ops)
    assert result["correct"] is False
    assert record["outcomes"]["wrong"] > 0
    assert result["metrics"]["failed_ratio"]["value"] >= (compares - workloads.NEAR_COPIES) / len(ops)


def test_failed_count_depends_on_the_seed_only():
    short, _ = smoke("catalog", trace=False, seed=2)
    longer, _ = run.run("catalog", 2, 1.0, False)
    assert short["attempted"] == len(workloads.build("catalog", 2).ops)
    assert (short["attempted"], short["failed"]) == (longer["attempted"], longer["failed"])


@pytest.mark.parametrize("name", ["catalog", "oracle"])
def test_traced_call_counts_repeat(name):
    first, _ = smoke(name, trace=True, seed=3)
    second, _ = smoke(name, trace=True, seed=3)
    calls = [k for k in first["metrics"] if k.endswith(".calls")]
    assert calls
    for key in calls:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


def test_refuses_to_run_without_the_library():
    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=run.OUT))
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "catalog",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare)
