"""Self-test of the benchmark, on short passes of every workload.

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the repository's default test collection,
since it starts interpreters and runs every workload.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--quick", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    out = json.loads(lines[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    return lines, out["metrics"]


@pytest.fixture(scope="module")
def traced():
    return result(run("--trace", "1"))[1]


def value(metrics, workload, name):
    return metrics[f"{workload}.{name}"]["value"]


def test_bypassed_layers_make_no_calls(traced):
    assert value(traced, "family_verify", "linsys.compute_system.calls") == 0
    assert value(traced, "family_verify", "polygon.enumerate_polygons.calls") == 0
    assert value(traced, "seshadri_sweep", "laurent.uni_resultant.calls") == 0


def test_from_imported_functions_are_intercepted(traced):
    # classify, seshadri and cli bind compute_system by from-import
    assert value(traced, "classify_scan", "linsys.compute_system.calls") > 0
    assert value(traced, "seshadri_sweep", "linsys.compute_system.calls") > 0
    # hull is a staticmethod patched on the class
    assert value(traced, "classify_scan", "polygon.LatticePolygon.hull.calls") > 0
    # the lru_cache object is kept, so its hit and miss counts are read
    assert value(traced, "seshadri_sweep", "linsys.cache_hits") > 0


def test_traced_run_reports_every_per_layer_metric(traced):
    for w in WORKLOADS:
        for spec in SPEC["per_layer"]:
            assert traced[f"{w}.{spec['name']}"]["unit"] == spec["unit"]
        for name in (k for k in traced if k.startswith(w) and k.endswith(".self_s")):
            total = traced[name[:-len("self_s")] + "total_s"]["value"]
            assert -1e-9 <= traced[name]["value"] <= total + 1e-9, name


def test_one_command_prints_every_end_to_end_metric_with_unit():
    lines, metrics = result(run())
    for w in WORKLOADS:
        for spec in SPEC["end_to_end"]:
            m = metrics[f"{w}.{spec['name']}"]
            assert m["unit"] == spec["unit"] and m["value"] > 0
            assert any(line.split()[:2] == [w, spec["name"]]
                       and line.split()[-1] == spec["unit"] for line in lines)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
