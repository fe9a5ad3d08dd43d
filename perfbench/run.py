"""okubic benchmark: times the three kinds of job okubic users run.

    python3 perfbench/run.py --workload {verify,albert,derivations,all} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports okubic from ``src/`` next
to it and fails (exit 2, no result) when that source is missing.

One process, one client, closed loop: the next item starts when the
previous one has finished.  Items run in whole rounds (see
``workloads.py``); ``--seconds`` fixes the number of rounds through each
workload's nominal round time, so a run holds the same items on every
commit, however fast okubic is.  Every output is checked exactly.  Item
and set-up times are reported at nominal host speed: each is scaled by
the time of the reference loop in ``reference.py``, run next to it (see
README.md, "Host speed").

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics: it runs the rounds of half of ``--seconds`` untraced,
replays the same items under the span shim, runs the first round once
more under the field counter, and reports the tracing overhead from the
item times of the untraced and traced passes.
Spans are written to ``.bench_out/spans-<workload>-<seed>.json``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where attempted and
failed count exact checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import checkout
import reference

WORKLOAD_NAMES = ("verify", "albert", "derivations")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# The reported tail is the item time with this many items above it.
TAIL_BEYOND = 10


class Checks:
    """Exact checks attempted and failed, by name."""

    def __init__(self):
        self.attempted = 0
        self.failed = {}

    def add(self, results) -> None:
        for name, ok in results:
            self.attempted += 1
            if not ok:
                self.failed[name] = self.failed.get(name, 0) + 1

    @property
    def failed_total(self) -> int:
        return sum(self.failed.values())


class Clock:
    """Times calls, and the reference loop after each call.

    ``time`` returns the call's wall seconds and the mean of the reference
    times just before and just after it; ``scaled`` turns the pair into
    seconds at the reference's nominal speed.
    """

    def __init__(self):
        self._ref_before = reference.run()

    def time(self, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        ref_after = reference.run()
        ref = (self._ref_before + ref_after) / 2
        self._ref_before = ref_after
        return result, wall, ref


def scaled(wall: float, ref: float) -> float:
    return wall * reference.NOMINAL_S / ref


def rounds_for(workload, seconds: float) -> int:
    """The number of whole rounds that fill at least ``seconds`` at the
    workload's recorded nominal round time; at least one.

    The count depends on ``seconds`` alone, not on how fast okubic or the
    host runs, so the rank of ``item_tail_ms`` is the same on every commit.
    """
    return max(1, math.ceil(seconds / workload.nominal_round_s))


def measure(workload, rounds, checks, keep_outputs):
    """Run ``rounds`` whole rounds of items.

    Returns a list of (input, wall seconds, reference seconds, output or
    None) per item.
    """
    clock = Clock()
    records = []
    for r in range(rounds):
        for inp in workload.round_inputs(r):
            raw, wall, ref = clock.time(workload.call, inp)
            results, output = workload.check(inp, raw)
            checks.add(results)
            records.append((inp, wall, ref, output if keep_outputs else None))
    return records


def tail(values):
    """(value, percentile, 1-based rank) of the highest percentile with at
    least TAIL_BEYOND items beyond it; the minimum when there are fewer items."""
    ordered = sorted(values)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered), rank


def probe_setup(workload_name: str):
    """Set-up seconds at nominal speed, one per fresh interpreter."""
    probe = os.path.join(checkout.BENCH_DIR, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-E", "-s", probe, workload_name],
            cwd=checkout.ROOT, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S, check=True,
        )
        wall, ref = map(float, done.stdout.split())
        times.append(scaled(wall, ref))
    return times


def run_untraced(workload, seconds):
    checks = Checks()
    setup = probe_setup(workload.name)
    workload.warm()
    rounds = rounds_for(workload, seconds)
    records = measure(workload, rounds, checks, keep_outputs=False)
    items = [scaled(wall, ref) for _, wall, ref, _ in records]
    walls = [wall for _, wall, _, _ in records]
    refs = [ref for _, _, ref, _ in records]
    tail_value, tail_pct, tail_rank = tail(items)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (len(items) / sum(items), "1/s"),
        "item_p50_ms": (statistics.median(items) * 1e3, "ms"),
        "item_tail_ms": (tail_value * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    notes = [
        f"items {len(items)} in {rounds} rounds of {workload.round_size}",
        f"item_tail_ms is p{tail_pct:.1f}: rank {tail_rank} of {len(items)}",
        "setup_s probes: " + ", ".join(f"{t:.4f}" for t in setup),
        f"failed_ratio {checks.failed_total}/{checks.attempted} = "
        f"{checks.failed_total / checks.attempted:g} (exact checks failed / attempted)",
        f"times are at nominal speed; reference loop took {statistics.median(refs) * 1e3:.2f} ms "
        f"(median) against {reference.NOMINAL_S * 1e3:g} ms nominal; wall clock: "
        f"items_per_s {len(walls) / sum(walls):.4f}, item_p50_ms {statistics.median(walls) * 1e3:.3f}",
    ]
    return metrics, checks, notes


def run_traced(workload, seconds):
    import spans

    checks = Checks()
    tracer = spans.SpanTracer()
    with tracer:
        tracer.run_root(spans.SETUP, "setup", workload.warm)
    # The rounds of half the measuring time untraced; then the same items
    # again, traced.
    rounds = rounds_for(workload, seconds / 2)
    untraced = measure(workload, rounds, checks, keep_outputs=True)

    clock = Clock()
    traced_s = 0.0
    traced_refs = []
    with tracer:
        for k, (inp, _, _, expected) in enumerate(untraced):
            (raw, _), wall, ref = clock.time(tracer.run_root, spans.ITEM, k, workload.call, inp)
            traced_s += scaled(wall, ref)
            traced_refs.append(ref)
            results, output = workload.check(inp, raw)
            checks.add(results + [("traced-output-equals-untraced", output == expected)])

    counter = spans.FieldCounter()
    counted = untraced[: workload.round_size]
    for inp, _, _, expected in counted:
        with counter:
            raw = workload.call(inp)
        results, output = workload.check(inp, raw)
        checks.add(results + [("counted-output-equals-untraced", output == expected)])

    n = len(untraced)
    totals = tracer.totals(set(range(n)))
    item_s = totals[spans.ITEM][1]
    metrics = {}
    for name in spans.LAYER_SPANS:
        calls, total, self_s = totals[name]
        metrics[f"{name}.calls"] = (calls / n, "calls/item")
        metrics[f"{name}.total_s"] = (total / n, "s/item")
        metrics[f"{name}.self_s"] = (self_s / n, "s/item")
    metrics["linalg.rref.rows_in"] = (tracer.rref_rows / n, "rows/item")
    metrics["linalg.rref.pivot_ratio"] = (
        tracer.rref_pivots / tracer.rref_rows if tracer.rref_rows else 0.0, "ratio")
    setup_totals = tracer.totals({"setup"})
    metrics["okubo.structure_constants.setup_s"] = (
        setup_totals["okubo.structure_constants"][1], "s")
    bench_self_s = totals[spans.ITEM][2]
    metrics["bench.item.self_s"] = (bench_self_s / n, "s/item")
    metrics["trace.overhead_ratio"] = (
        traced_s / sum(scaled(wall, ref) for _, wall, ref, _ in untraced) - 1.0, "ratio")
    for key in spans.FIELD_COUNTS:
        metrics[f"field.{key}.calls"] = (counter.counts[key] / len(counted), "calls/item")
    metrics["field.f3_add.ns"] = (counter.op_ns("f3_add"), "ns")
    metrics["field.f3_mul.ns"] = (counter.op_ns("f3_mul"), "ns")
    metrics["field.coeff_bits_max"] = (counter.bits_max, "bits")

    os.makedirs(checkout.OUT_DIR, exist_ok=True)
    span_path = os.path.join(
        checkout.OUT_DIR, f"spans-{workload.name}-{workload.seed}.json")
    tracer.write(span_path)
    notes = [
        f"items {n} in {rounds} rounds of {workload.round_size}; "
        f"field counts over the first {len(counted)} items",
        f"spans {len(tracer.spans)} written to {os.path.relpath(span_path, checkout.ROOT)}",
        f"traced item time {item_s:.6f} s: named layers' self times "
        f"{item_s - bench_self_s:.6f} s, bench.item.self_s {bench_self_s:.6f} s "
        f"({bench_self_s / item_s:.2%})",
        f"reference loop took {statistics.mean(traced_refs) * 1e3:.2f} ms (mean) "
        f"during the traced pass; span times are wall clock",
    ]
    return metrics, checks, notes


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    run = run_traced if trace else run_untraced
    metrics, checks, notes = run(workload, seconds)
    print(f"workload {name} seed {seed} trace {int(trace)}")
    for note in notes:
        print(f"  {note}")
    for key, value in workload.data().items():
        print(f"  data {key}: {json.dumps(value)}")
    for check, count in sorted(checks.failed.items()):
        print(f"  FAILED check {check}: {count}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": checks.failed_total,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run each workload in its own process and print their results together."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=checkout.ROOT, capture_output=True, text=True,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        checkout.use_source_tree()
    except checkout.MissingSourceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
