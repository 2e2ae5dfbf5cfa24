"""Self-tests of the benchmark, on the tiny sizes (seconds, not minutes).

    python3 -m pytest bench/test_bench.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
sys.path.insert(0, str(CHECKOUT / "src"))
sys.path.insert(0, str(BENCH))

import run_bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cottonkit import geometry, jets, suite  # noqa: E402
from cottonkit.report import CheckReport  # noqa: E402

SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_end_to_end_metric_with_its_unit_and_no_failure_at_two_seeds(workload):
    for seed in (1, 2):
        _, summary, metrics = run_bench.untraced(workload, seed, seconds=0.01, size="tiny", probes=1)
        chosen = run_bench.select(metrics, SPEC["end_to_end"])  # raises on a missing name or unit
        assert all(m["value"] for m in chosen.values()), chosen
        assert summary["failed"] == 0 and metrics["fail_ratio"] == (0.0, "1")
        if workload == "pointwise":
            assert {"item_p50_ms", "item_tail_ms"} <= set(metrics)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_new_seed_changes_inputs_but_no_verdict(workload):
    runs = []
    for seed in (1, 2):
        inputs = workloads.build(workload, seed, "tiny")
        calls = [c for queries in inputs.passes for c in workloads.run_pass(queries)]
        runs.append((inputs.couplings, [c.name for c in calls], [v for c in calls for v in c.verdicts]))
    (c1, order1, v1), (c2, order2, v2) = runs
    assert order1 != order2
    if workload == "suite":  # a coupling per group call
        assert c1 != c2
    if workload == "grid":  # a new random metric and points
        assert [v.residual for v in v1] != [v.residual for v in v2]
    assert all(v.ok for v in v1 + v2)
    assert sorted(v.name.split(":")[0] for v in v1) == sorted(v.name.split(":")[0] for v in v2)


def test_nan_complex_or_raising_items_fail_and_poison_headroom():
    def query(name, value, expected=1):
        return workloads.Query(name, value, lambda r, n=name: [workloads.verdict(n, r, 1e-9)], expected)

    queries = [
        query("fine", lambda: 1e-12),
        query("nan", lambda: math.nan),
        query("complex", lambda: 1e-12 + 0j),
        query("raises", lambda: 1 / 0, expected=2),
    ]
    stub = workloads.Inputs([queries], {}, [1.0])
    s = workloads.summarize(stub, [workloads.run_pass(queries)], [1.0])
    assert (s["attempted"], s["failed"]) == (5, 4)
    assert s["fail_ratio"] == 0.8
    assert math.isnan(s["headroom_min_dec"]) and math.isnan(s["headroom_p50_dec"])


def test_suite_report_that_passes_on_nan_is_scored_failed():
    garbage = CheckReport("parser", max_residual=math.nan, tolerance=0.0, passed=True)
    honest = CheckReport("parser", max_residual=0.0, tolerance=0.0, passed=True)
    assert [v.ok for v in workloads._score_reports("parser", [garbage])] == [False]
    assert [v.ok for v in workloads._score_reports("parser", [honest])] == [True]
    assert [v.ok for v in workloads._score_reports("parser", [])] == [False]


def test_wrappers_rebind_every_import_and_are_restored():
    originals = (geometry.cotton_grid, suite.cotton_grid, suite.run_checks, jets.Jet.derivative)
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        assert suite.cotton_grid is geometry.cotton_grid is not originals[0]
        suite.run_checks(1.0, checks=["cotton-control"])
    finally:
        tracing.restore(saved)
    assert (geometry.cotton_grid, suite.cotton_grid, suite.run_checks, jets.Jet.derivative) == originals
    names = [s[0] for s in tracer.spans]
    assert "suite.run_checks" in names and "geometry.cotton" in names
    run_checks = names.index("suite.run_checks")
    assert all(s[4] >= run_checks for s in tracer.spans[run_checks + 1:])
    assert tracer.leaf_calls["jets.mul"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_counts_repeat(workload):
    counted = []
    for _ in range(2):
        _, summary, metrics, _ = run_bench.traced(workload, 5, "tiny")
        run_bench.select(metrics, SPEC["per_layer"])  # raises on a missing name or unit
        assert summary["failed"] == 0
        assert metrics["trace.overhead_s"][0] > 0
        counted.append({k: v for k, (v, unit) in metrics.items() if unit in ("count", "flop", "B")})
        counted[-1]["wrapped"] = summary["trace_wrapped_calls"]
    assert counted[0] == counted[1]
    assert counted[0]["jets.mul.calls"] > 0


def test_directory_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
