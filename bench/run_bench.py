"""cottonkit benchmark: one workload, one seed, one run.

    python3 bench/run_bench.py --workload suite|grid|pointwise --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics: set-up time in
fresh interpreters, then whole cycles of the workload's passes (one per
coupling; the suite has one pass) while ``--seconds`` lasts, at least one.
With ``--trace 1`` it runs every pass once untraced, then once with every
layer wrapped, and reports the per-layer metrics; the span trace goes to
``bench/out/``.  Every output is checked; the last stdout line is the
result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
SRC = CHECKOUT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 9  # fresh interpreters per run; setup_s is their median


def environment(workload: str, seed: int, sizes: dict) -> dict:
    import cottonkit
    import numpy
    import scipy

    return {
        "cottonkit": cottonkit.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        **_lscpu(),
        "git_describe": _git_describe(),
        "workload": workload,
        "seed": seed,
        "sizes": sizes,
    }


def _lscpu() -> dict:
    wanted = {"Model name": "cpu_model", "L2 cache": "l2_cache", "L3 cache": "l3_cache"}
    found = dict.fromkeys(wanted.values())
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30,
                              env={**os.environ, "LC_ALL": "C"}).stdout
    except (OSError, subprocess.SubprocessError):
        return found
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in wanted:
            found[wanted[key.strip()]] = value.strip()
    return found


def _git_describe():
    # the ceiling keeps git from describing an enclosing repository
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(CHECKOUT.parent)}
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"], cwd=CHECKOUT,
                              capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def setup_seconds(workload: str, seed: int, size: str, probes: int) -> list[float]:
    """Set-up time of ``probes`` fresh interpreters, one after another."""
    times = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), size],
            cwd=CHECKOUT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]))
    return times


def untraced(workload: str, seed: int, seconds: float, size: str = "full", probes: int = SETUP_PROBES):
    """End-to-end run: returns (inputs, summary, metrics), the metrics as
    name -> (value, unit)."""
    import workloads

    setup = setup_seconds(workload, seed, size, probes)
    inputs = workloads.build(workload, seed, size)
    passes, walls = [], []
    start = time.perf_counter()
    # whole cycles over the passes (one per coupling) while the time lasts,
    # so every run weighs each coupling alike; at least one cycle
    while not walls or time.perf_counter() - start + sum(walls[-len(inputs.passes):]) <= seconds:
        for queries in inputs.passes:
            t0 = time.perf_counter()
            passes.append(workloads.run_pass(queries))
            walls.append(time.perf_counter() - t0)
    s = workloads.summarize(inputs, passes, walls)
    s["setup_samples_s"] = setup
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (s["wall_s"], "s"),
        "items_per_s": (s["items_per_s"], "items/s"),
        "fail_ratio": (s["fail_ratio"], "1"),
        "headroom_min_dec": (s["headroom_min_dec"], "decades"),
        "headroom_p50_dec": (s["headroom_p50_dec"], "decades"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if workload == "pointwise":
        # one query per item; on the other workloads a call is a whole
        # group or grid, and the calls are too unlike for percentiles
        metrics["item_p50_ms"] = (s["item_p50_ms"], "ms")
        metrics["item_tail_ms"] = (s["item_tail_ms"], "ms")
    return inputs, s, metrics


def traced(workload: str, seed: int, size: str = "full"):
    """Every pass once untraced, then once traced: returns (inputs, summary,
    layer metrics, tracer)."""
    import tracing
    import workloads

    inputs = workloads.build(workload, seed, size)
    plain, plain_walls = [], []
    for queries in inputs.passes:
        t0 = time.perf_counter()
        plain.append(workloads.run_pass(queries))
        plain_walls.append(time.perf_counter() - t0)

    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        inputs = workloads.build(workload, seed, size)  # set-up is traced too
        t0 = time.perf_counter()
        calls = [c for queries in inputs.passes for c in workloads.run_pass(queries, tracer)]
        traced_wall = time.perf_counter() - t0
    finally:
        tracing.restore(saved)

    # timings from the untraced passes; the traced pass's verdicts count too
    s = workloads.summarize(inputs, plain, plain_walls)
    traced_verdicts = [v for c in calls for v in c.verdicts]
    s["attempted"] += len(traced_verdicts)
    s["failed"] += sum(not v.ok for v in traced_verdicts)
    metrics = tracing.layer_metrics(tracer)
    # the traced minus the untraced wall time is mostly machine noise at
    # this length, so the overhead is each kind of wrapped call times its
    # cost measured on a no-op; the difference is kept for reference
    wrapped = tracing.wrapped_calls(tracer)
    cost = tracing.wrapper_cost_s()
    metrics["trace.overhead_s"] = (sum(n * cost[kind] for kind, n in wrapped.items()), "s")
    s["trace_wrapped_calls"] = wrapped
    s["trace_wrapper_cost_us"] = {kind: c * 1e6 for kind, c in cost.items()}
    s["traced_minus_untraced_s"] = traced_wall - sum(plain_walls)
    if workload == "suite":
        # group times come from the untraced pass, measured around each call
        for c in plain[0]:
            metrics[f"suite.{c.name}.wall_s"] = (c.latency_s, "s")
            heads = [v.headroom for v in c.verdicts if v.tolerance > 0]
            if heads:
                metrics[f"suite.{c.name}.headroom_dec"] = (_nanmin(heads), "decades")
    return inputs, s, metrics, tracer


def kernel_block(env: dict) -> dict:
    """How the ``jets.mul`` counts were made, and the size of one
    Cauchy-product gather temporary (pairs x points x 8 B, three variables
    at order 4) at each grid size next to the cache sizes."""
    from cottonkit.jets import JetSpace

    pairs = len(JetSpace.get(3, 4)._mul_i)
    return {
        "jets.mul counts": "computed from the pair table and operand shapes, not read from hardware counters",
        "gather_temp_bytes": {f"n{n}": pairs * n * 8 for n in (1, 343, 4096)},
        "l2_cache": env["l2_cache"],
        "l3_cache": env["l3_cache"],
    }


def _nanmin(values) -> float:
    return math.nan if any(math.isnan(v) for v in values) else min(values)


def select(metrics: dict, declared: list) -> dict:
    """The declared metrics, each with its declared unit."""
    out = {}
    for spec in declared:
        value, unit = metrics.get(spec["name"], (None, None))
        if unit != spec["unit"]:
            raise RuntimeError(f"metric {spec['name']}: got unit {unit!r}, declared {spec['unit']!r}")
        out[spec["name"]] = {"value": value if math.isfinite(value) else None, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cottonkit" / "__init__.py").is_file():
        print(f"error: no cottonkit sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    spec_path = CHECKOUT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    if args.trace:
        inputs, summary, metrics, tracer = traced(args.workload, args.seed)
        declared = spec["per_layer"]
    else:
        inputs, summary, metrics = untraced(args.workload, args.seed, args.seconds)
        declared = spec["end_to_end"]
    env = environment(args.workload, args.seed, inputs.sizes)
    env["couplings"] = inputs.couplings
    if args.trace:
        summary["kernel"] = kernel_block(env)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        Path(f"{stem}.chrome.json").write_text(tracer.chrome_trace())
    all_metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}
    Path(f"{stem}.json").write_text(json.dumps(
        {"env": env, "summary": summary, "metrics": all_metrics}, indent=1, default=str))

    print("# env " + json.dumps(env, default=str))
    print("# " + " ".join(f"{k}={v}" for k, v in summary.items()))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"# {name} = {value:.6g} {unit}")
    chosen = select(metrics, declared)
    correct = summary["failed"] == 0 and all(m["value"] is not None for m in chosen.values())
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": chosen}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
