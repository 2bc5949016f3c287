"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest clio_bench -q
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import json
from pathlib import Path

import pytest

import run

run.import_repro()

import episodes  # noqa: E402  (needs the simulator on sys.path)
import layers  # noqa: E402

SPEC = json.loads((Path(run.REPO_DIR) / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
TINY = 0.02


def bench(workload: str, trace: int) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3",
                         "--seconds", "0", "--trace", str(trace),
                         "--scale", str(TINY)])
    return code, json.loads(out.getvalue().splitlines()[-1])


def test_benchmark_json_names_every_workload():
    assert sorted(WORKLOADS) == sorted(episodes.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_and_passes_checks(workload, trace):
    code, result = bench(workload, trace)
    assert code == 0
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in wanted}
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_changes_nothing_simulated(workload):
    plain = episodes.run_episode(workload, 5, scale=TINY)
    traced = episodes.run_episode(workload, 5, scale=TINY, traced=True,
                                  profiler=cProfile.Profile())
    assert traced.tracer is not None and plain.tracer is None
    assert traced.digest == plain.digest
    assert traced.events == plain.events
    assert traced.counters == plain.counters
    assert run.simulated_metrics([traced]) == run.simulated_metrics([plain])


def test_replicas_differ_and_repeat():
    first = episodes.run_episode("echo", 5, 0, scale=TINY)
    again = episodes.run_episode("echo", 5, 0, scale=TINY)
    other = episodes.run_episode("echo", 5, 1, scale=TINY)
    assert first.digest == again.digest
    assert first.digest != other.digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_map_claims_almost_all_repro_self_time(workload):
    profile = cProfile.Profile()
    episodes.run_episode(workload, 5, scale=TINY, traced=True,
                         profiler=profile)
    assert layers.unmapped_share(profile) < 0.02


def test_every_layer_module_maps_to_its_layer():
    src = Path(run.SRC_DIR) / "repro"
    expected = {"sim": "sim", "net": "net", "transport": "transport",
                "clib": "clib", "alloc": "alloc", "rack": "rack",
                "distributed": "rack", "verify": "verify",
                "telemetry": "telemetry"}
    for package, layer in expected.items():
        for path in (src / package).rglob("*.py"):
            assert layers.file_layer(str(path)) == layer, path
    alloc_files = {"slowpath.py", "pa_allocator.py", "va_allocator.py"}
    for path in (src / "core").rglob("*.py"):
        wanted = "alloc" if path.name in alloc_files else "core"
        assert layers.file_layer(str(path)) == wanted, path
    assert layers.file_layer(__file__) is None
