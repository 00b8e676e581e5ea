"""Layered benchmark for fareyslice.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  With
--trace 0 the run times passes with tracing off and prints the end-to-end
metrics; with --trace 1 it alternates untraced and traced passes and
prints the per-layer metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One thread: the numeric libraries must not start worker pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

import measure
from workloads import WORKLOADS, load_library

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
# The metric names and units are those BENCHMARK.json declares.
SPEC = ROOT / "BENCHMARK.json"

# Set-up is cheap, so it is repeated this many times before the first
# pass (and once more before each pass) and reported as a median.
SETUP_REPEATS = 10
MIN_PASSES = 3

# Per-layer time metrics and the span names whose self time they report.
LAYER_TIMES = {
    "pleating.s": "pleating",
    "recursion.s": "recursion",
    "oracle.s": "oracle",
    "words.s": "words",
    "serialize.s": "serialize",
    "bench.check_s": "bench.check",
}


def setup(workload, seed: int):
    """Fresh library import plus input generation; returns (lib, inputs, seconds)."""
    t0 = time.perf_counter()
    lib = load_library()
    inputs = workload.make_inputs(lib, seed)
    return lib, inputs, time.perf_counter() - t0


def counter_problems(name: str, seed: int, passes) -> list[str]:
    """Deterministic counters must repeat exactly in every pass, and match
    the documented values at seed 0."""
    problems = []
    first = passes[0].counters
    for i, p in enumerate(passes[1:], 1):
        if p.counters != first:
            problems.append(f"pass {i} counters {p.counters} differ from pass 0 {first}")
    if seed == 0:
        for key, want in WORKLOADS[name].seed0_counters.items():
            if first.get(key) != want:
                problems.append(f"seed 0 counter {key} = {first.get(key)}, want {want}")
    return problems


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    probe_start = measure.host_probe_ms()
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        setups.append(setup(workload, seed)[2])
    t_start = time.perf_counter()
    untraced, traced, tracers = [], [], []
    while True:
        # Free the previous pass's library now, not during a timed call.
        lib = inputs = None
        gc.collect()
        lib, inputs, t_setup = setup(workload, seed)
        setups.append(t_setup)
        # A traced run alternates untraced and traced passes, so the two
        # see the same host conditions and their difference is the
        # tracing overhead.
        if trace and len(untraced) > len(traced):
            tracers.append(measure.Tracer())
            last = workload.run_pass(lib, inputs, tracers[-1])
            traced.append(last)
        else:
            last = workload.run_pass(lib, inputs, measure.NoTracer())
            untraced.append(last)
        if trace:
            # Stop only after a traced pass; the next step would be a pair.
            enough, next_s = traced and len(traced) == len(untraced), 2 * last.wall_s
        else:
            enough, next_s = len(untraced) >= MIN_PASSES, last.wall_s
        if enough and time.perf_counter() - t_start + next_s > seconds:
            break
    probe_stats = {}
    if trace and workload.probe is not None:
        tracers.append(measure.Tracer())
        probe_stats = workload.probe(lib, inputs, tracers[-1])
    probe_end = measure.host_probe_ms()

    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failures = [f"pass {i}: {item}: {msg}" for i, p in enumerate(passes) for item, msg in p.failures]
    failed = min(attempted, sum(len({item for item, _ in p.failures}) for p in passes))
    problems = counter_problems(name, seed, passes)

    print(f"workload {name}  seed {seed}  trace {int(trace)}  seconds {seconds:g}")
    print(f"host_probe_ms  start {probe_start:.3f}  end {probe_end:.3f}  (diagnostic only)")
    print(f"passes  untraced {len(untraced)}  traced {len(traced)}  setups {len(setups)}")
    print(f"counters  {passes[0].counters}")
    print("pass wall_s  untraced " + " ".join(f"{p.wall_s:.4f}" for p in untraced)
          + "  traced " + " ".join(f"{p.wall_s:.4f}" for p in traced))
    print(f"items_failed_frac = {measure.failed_fraction(attempted, failed):.6g} ({failed} of {attempted})")
    for msg in (failures + problems)[:20]:
        print(f"FAIL  {msg}", file=sys.stderr)

    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if trace:
        metrics = per_layer(units, traced, tracers, untraced, probe_stats, probe_start, probe_end)
        write_spans(name, seed, tracers)
    else:
        p50, tail, n = measure.item_latencies([p.item_s for p in untraced])
        print(f"item tail = p{measure.tail_percent(n):.1f} of {n} items, each the median of {len(untraced)} passes")
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p.wall_s for p in untraced),
            "item_ms_p50": 1000.0 * p50,
            "item_ms_tail": 1000.0 * tail,
            "peak_rss_mb": measure.peak_rss_mb(),
            "items_ok_frac": 1.0 - measure.failed_fraction(attempted, failed),
        }
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from {SPEC.name}'s {sorted(units)}")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def per_layer(names, traced, tracers, untraced, probe_stats, probe_start, probe_end) -> dict:
    """Per-layer values: each layer's self time, the median over traced
    passes, plus the counts and accuracy figures of the traced passes
    (which the counter check holds equal from pass to pass)."""
    selfs = [tr.self_times() for tr in tracers[: len(traced)]]
    stats = {**traced[0].stats, **probe_stats}
    out = {}
    for key in names:
        if key in LAYER_TIMES:
            out[key] = statistics.median(s.get(LAYER_TIMES[key], 0.0) for s in selfs)
        else:
            out[key] = stats.get(key, 0.0)
    out["bench.tracing_overhead_s"] = statistics.median(p.wall_s for p in traced) - statistics.median(
        p.wall_s for p in untraced
    )
    out["bench.host_probe_ms"] = statistics.median([probe_start, probe_end])
    return out


def write_spans(name: str, seed: int, tracers) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}-seed{seed}.json"
    path.write_text(json.dumps([tr.records() for tr in tracers]))
    print(f"spans written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    src = ROOT / "src"
    if not (src / "fareyslice" / "__init__.py").is_file():
        print(f"library source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
