"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import checkout

checkout.use_source_tree()

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from okubic import albert, derivations, field, linalg  # noqa: E402

PATCHED_CLASSES = (albert.AlbertAlgebra, linalg.Mat3, field.F3, field.C3)


def _bindings():
    out = {}
    for module in spans._okubic_modules():
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = value
    for cls in PATCHED_CLASSES:
        for attr, value in vars(cls).items():
            out[(cls.__qualname__, attr)] = value
    return out


def _assert_restored(before):
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in after.items() if value is not before[key]]
    assert changed == []
    assert not [key for key, value in after.items() if hasattr(value, "perfbench_span")]


def test_span_shim_restores_every_binding():
    before = _bindings()
    with spans.SpanTracer():
        # wrapped where it is defined and wherever it was imported
        for module in (albert, sys.modules["okubic.okubo"], sys.modules["okubic.cli"]):
            assert module.okubo_mul.perfbench_span == "okubo.okubo_mul"
        assert albert.AlbertAlgebra.mul.perfbench_span == "albert.mul"
        assert linalg.Mat3.__matmul__.perfbench_span == "linalg.Mat3.matmul"
    _assert_restored(before)


def test_field_counter_restores_every_binding_and_counts_aliases():
    before = _bindings()
    counter = spans.FieldCounter()
    with counter:
        assert field.F3.__radd__ is field.F3.__add__
        x = 1 + field.F3(2)  # __radd__
        x = x + x  # __add__
        x * 3  # __mul__
        assert (counter.counts["f3_add"], counter.counts["f3_mul"]) == (2, 1)
        2 * field.C3(1, 2)  # __rmul__ of C3
    assert counter.counts["c3_mul"] == 1
    assert counter.counts["f3_new"] > 0
    _assert_restored(before)


def test_shims_restore_after_an_exception():
    before = _bindings()
    try:
        with spans.SpanTracer(), spans.FieldCounter():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    _assert_restored(before)


def _cheap_inputs(workload):
    if workload.name == "verify":
        return [i for i in workload.round_inputs(0) if i.suite in ("composition", "hurwitz")]
    if workload.name == "albert":
        return workload.round_inputs(0)[:2]
    return workload.round_inputs(0)[2:]  # the Petersson item, the cheapest


def test_traced_and_counted_runs_return_the_untraced_outputs():
    for cls in workloads.WORKLOADS.values():
        workload = cls(3)
        workload.warm()
        for inp in _cheap_inputs(workload):
            results, expected = workload.check(inp, workload.call(inp))
            assert all(ok for _, ok in results), results
            tracer = spans.SpanTracer()
            with tracer:
                raw, seconds = tracer.run_root(spans.ITEM, 0, workload.call, inp)
            assert workload.check(inp, raw)[1] == expected
            totals = tracer.totals()
            accounted = sum(self_s for _, _, self_s in totals.values())
            assert abs(accounted - seconds) <= 1e-6 * seconds
            with spans.FieldCounter():
                raw = workload.call(inp)
            assert workload.check(inp, raw)[1] == expected


def _calls(workload, inp, name):
    tracer = spans.SpanTracer()
    with tracer:
        tracer.run_root(spans.ITEM, 0, workload.call, inp)
    return tracer.totals()[name][0]


def test_workloads_touch_the_layers_they_were_chosen_for():
    """The split the workloads were chosen for (see perfbench/README.md)."""
    verify = workloads.Verify(1)
    assert _calls(verify, verify.round_inputs(0)[0], "linalg.rref") == 0
    alb = workloads.Albert(1)
    assert _calls(alb, alb.round_inputs(0)[0], "linalg.rref") == 1
    assert _calls(alb, alb.round_inputs(0)[0], spans.CAYLEY_PHI) == 0
    der = workloads.Derivations(1)
    der.warm()
    inp = der.round_inputs(0)[2]
    for name in ("okubo.okubo_mul", "albert.mul", spans.CAYLEY_PHI):
        assert _calls(der, inp, name) == 0


def _heights(x):
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return max(x._an.bit_length(), x._bn.bit_length(), x._d.bit_length())


def _old_coords(u, perm, signs):
    """Coordinates in the old basis of Σ u_i b'_i, where b'_i = s_i b_{π(i)}."""
    old = [0] * len(u)
    for i, ui in enumerate(u):
        old[perm[i]] = ui * signs[i]
    return old


def test_signed_permutation_keeps_the_pinned_invariants():
    der = workloads.Derivations(0)
    der.warm()
    nonzero = {"okubo": 115, "split-okubo": 115, "petersson": 32}
    for name, base in der._base.items():
        flat = [x for plane in base for row in plane for x in row if x]
        assert len(flat) == nonzero[name]
        assert max(map(_heights, flat)) <= 3
        ident = workloads.permute_tensor(base, list(range(8)), [1] * 8)
        assert ident == [[list(row) for row in plane] for plane in base]
        original = derivations.AlgebraPresentation(base)
        for seed in range(3):
            rng = random.Random(seed)
            perm, signs = workloads.signed_permutation(8, rng)
            assert sorted(perm) == list(range(8))
            permuted = workloads.permute_tensor(base, perm, signs)
            pflat = [x for plane in permuted for row in plane for x in row if x]
            assert Counter(frozenset((x, -x)) for x in pflat) == Counter(
                frozenset((x, -x)) for x in flat
            )
            # the same algebra in the new basis: products agree after the change of basis
            pres = derivations.AlgebraPresentation(permuted)
            for _ in range(3):
                u = [field.F3(rng.randint(-3, 3)) for _ in range(8)]
                v = [field.F3(rng.randint(-3, 3)) for _ in range(8)]
                assert _old_coords(pres.mul_coords(u, v), perm, signs) == original.mul_coords(
                    _old_coords(u, perm, signs), _old_coords(v, perm, signs)
                )
    inp = der.round_inputs(0)[2]
    report = der.call(inp)
    assert all(ok for _, ok in der.check(inp, report)[0])


def test_two_seeds_give_different_inputs_and_one_seed_the_same():
    v1, v1_again, v2 = (workloads.Verify(s) for s in (1, 1, 2))
    assert v1.round_inputs(0) == v1_again.round_inputs(0)
    seeds = {i.seed for v in (v1, v2) for r in range(3) for i in v.round_inputs(r)}
    assert len(seeds) == 2 * workloads.VERIFY_CHECK_SEEDS
    a1, a1_again, a2 = (workloads.Albert(s).round_inputs(0)[0] for s in (1, 1, 2))
    assert (a1.point, a1.a, a1.b) == (a1_again.point, a1_again.a, a1_again.b)
    assert a1.point != a2.point and a1.a != a2.a
    d1, d1_again, d2 = (workloads.Derivations(s) for s in (1, 1, 2))
    for d in (d1, d1_again, d2):
        d.warm()
    c1, c1_again, c2 = (
        d.round_inputs(0)[0].presentation.constants for d in (d1, d1_again, d2)
    )
    assert c1 == c1_again
    assert c1 != c2


def test_results_declare_exactly_the_metrics_of_benchmark_json():
    with open(Path(checkout.ROOT) / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    for key, runner in (("end_to_end", run.run_untraced), ("per_layer", run.run_traced)):
        metrics, checks, _ = runner(workloads.Albert(5), 0)
        assert checks.attempted > 0 and not checks.failed
        assert {m: u for m, (_, u) in metrics.items()} == {
            m["name"]: m["unit"] for m in declared[key]
        }
        if key == "end_to_end":
            assert all(value > 0 for value, _ in metrics.values())


def test_round_count_depends_on_seconds_alone():
    for cls in workloads.WORKLOADS.values():
        workload = cls(1)
        assert run.rounds_for(workload, 0) == 1
        assert run.rounds_for(workload, 20) == math.ceil(20 / cls.nominal_round_s)
    checks = run.Checks()
    records = run.measure(workloads.Albert(2), 2, checks, keep_outputs=False)
    assert len(records) == 2 * workloads.Albert.round_size
    assert checks.attempted > 0 and not checks.failed


def test_tail_is_the_highest_percentile_with_ten_items_beyond():
    assert run.tail([float(x) for x in range(40)]) == (29.0, 75.0, 30)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3, 1)


def test_benchmark_fails_without_the_source_tree(tmp_path: Path):
    shutil.copytree(
        checkout.BENCH_DIR, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(Path(checkout.ROOT) / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "-E", "-s", "perfbench/run.py", "--workload", "verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
