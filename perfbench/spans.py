"""Layer instrumentation for the traced run: a span shim and a field-operation counter.

Both patch okubic from the outside while they are installed and restore
every binding when they are removed; no okubic file is changed.

okubic modules import names directly (``from .okubo import okubo_mul``),
so a function is wrapped in every okubic module namespace that binds it,
under whatever name it is bound there.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter, perf_counter_ns

from okubic import field, linalg, okubo
from okubic.albert import AlbertAlgebra
from okubic.field import C3, F3

# Functions timed as spans, by defining module.
SPAN_FUNCTIONS = (
    ("linalg", ("rref", "determinant", "symmetric_signature")),
    ("hurwitz", ("oct_mul", "para_mul", "petersson_mul", "tau_triality")),
    ("okubo", ("okubo_mul", "okubo_norm", "trivolution", "michel_radicati_mul",
               "traceful_mul", "structure_constants")),
    ("geometry", ("plane_embed", "plane_decode", "veronese_check", "beta")),
    ("albert", ("jordan_defect", "left_mult_operator", "cubic_norm", "is_rank1")),
    ("derivations", ("derivation_space", "check_lie_closure", "killing_signature")),
    ("cli", ("run_suite",)),
)
# Methods timed as spans: (span name, class, attribute).
SPAN_METHODS = (
    ("albert.mul", AlbertAlgebra, "mul"),
    ("linalg.Mat3.matmul", linalg.Mat3, "__matmul__"),
)
# The closures conjugation_automorphism returns are timed under this name.
CAYLEY_PHI = "okubo.cayley_phi"

ITEM = "bench.item"
SETUP = "bench.setup"

LAYER_SPANS = tuple(
    [f"{mod}.{fn}" for mod, fns in SPAN_FUNCTIONS for fn in fns]
    + [name for name, _, _ in SPAN_METHODS]
    + [CAYLEY_PHI]
)

# Span record fields; ``child_s`` is the part of the span its children cover.
NAME, ITEM_ID, PARENT, START, END, CHILD_S = range(6)


def _okubic_modules():
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "okubic" or name.startswith("okubic."))
    ]


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace_everywhere(self, owners, original, replacement) -> None:
        """Rebind every attribute of ``owners`` that holds ``original``."""
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, replacement)
                    self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class SpanTracer:
    """Records a span around each call into a named layer function.

    Spans are recorded only inside a root span opened with ``run_root()``
    (one per benchmark item, or the set-up), so the benchmark's own checks
    between items are not traced.  Spans are kept in memory as lists
    ``[name index, item id, parent index, start, end, child_s]``.
    """

    def __init__(self):
        self.names = [ITEM, SETUP, *LAYER_SPANS]
        self._index = {name: i for i, name in enumerate(self.names)}
        self.spans = []
        self._stack = []
        self._patches = _Patches()
        self.rref_rows = 0
        self.rref_pivots = 0

    # -- installing ---------------------------------------------------
    def __enter__(self):
        modules = _okubic_modules()
        try:
            for mod, fns in SPAN_FUNCTIONS:
                owner = sys.modules[f"okubic.{mod}"]
                for fn in fns:
                    original = getattr(owner, fn)
                    wrapper = self._wrap(f"{mod}.{fn}", original)
                    self._patches.replace_everywhere(modules, original, wrapper)
            for name, cls, attr in SPAN_METHODS:
                original = vars(cls)[attr]
                self._patches.replace_everywhere([cls], original, self._wrap(name, original))
            factory = okubo.conjugation_automorphism

            @functools.wraps(factory)
            def traced_factory(*args, **kwargs):
                return self._wrap(CAYLEY_PHI, factory(*args, **kwargs))

            traced_factory.perfbench_span = "factory"
            self._patches.replace_everywhere(modules, factory, traced_factory)
        except BaseException:
            self._patches.restore()
            raise
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False

    def _wrap(self, name, fn):
        idx = self._index[name]
        spans, stack = self.spans, self._stack
        is_rref = name == "linalg.rref"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            rec = [idx, spans[parent][ITEM_ID], parent, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec[START] = start
                rec[END] = end
                spans[parent][CHILD_S] += end - start
            if is_rref:
                self.rref_rows += args[0].rows
                self.rref_pivots += len(result[1])
            return result

        wrapper.perfbench_span = name
        return wrapper

    # -- recording ----------------------------------------------------
    def run_root(self, name: str, item_id, fn, *args):
        """Call ``fn(*args)`` inside a root span; returns (result, seconds)."""
        rec = [self._index[name], item_id, -1, 0.0, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            rec[START] = start
            rec[END] = end
        return result, end - start

    # -- reading ------------------------------------------------------
    def totals(self, item_ids=None):
        """Per span name: [calls, total seconds, self seconds], over the
        spans of the given items (all items when None)."""
        out = {name: [0, 0.0, 0.0] for name in self.names}
        names = self.names
        for rec in self.spans:
            if item_ids is not None and rec[ITEM_ID] not in item_ids:
                continue
            dur = rec[END] - rec[START]
            acc = out[names[rec[NAME]]]
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - rec[CHILD_S]
        return out

    def write(self, path: str) -> None:
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "fields": ["name", "item", "parent", "start_s", "end_s"],
                    "spans": [
                        [r[NAME], r[ITEM_ID], r[PARENT], r[START] - t0, r[END] - t0]
                        for r in self.spans
                    ],
                },
                fh,
                separators=(",", ":"),
            )


FIELD_COUNTS = ("f3_add", "f3_mul", "f3_inverse", "f3_new", "c3_mul")


class FieldCounter:
    """Counts F3 and C3 operations while installed, and samples operand pairs.

    ``__radd__ = __add__`` style aliases are patched with the same counter.
    F3 objects built are counted where they are made: ``field._init_f3``
    (behind ``F3(...)`` and every arithmetic result) and ``F3.__neg__``.
    ``bits_max`` is the largest numerator or denominator bit length of any
    F3 value built, in its common-denominator form.
    """

    CAPTURE_EVERY = 37
    CAPTURE_MAX = 2048

    def __init__(self):
        self.counts = dict.fromkeys(FIELD_COUNTS, 0)
        self.bits_max = 0
        self.pairs = {"f3_add": [], "f3_mul": []}
        self._patches = _Patches()

    def __enter__(self):
        try:
            self._count_binary(F3, "__add__", "f3_add")
            self._count_binary(F3, "__mul__", "f3_mul")
            self._count_binary(C3, "__mul__", "c3_mul")
            self._count_call(F3, "inverse", "f3_inverse")
            self._count_call(F3, "__neg__", "f3_new")
            self._count_init()
        except BaseException:
            self._patches.restore()
            raise
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False

    def _count_binary(self, cls, attr, key):
        original = vars(cls)[attr]
        counts = self.counts
        pairs = self.pairs.get(key)

        def counted(a, b):
            n = counts[key] = counts[key] + 1
            if pairs is not None and n % self.CAPTURE_EVERY == 0 and len(pairs) < self.CAPTURE_MAX:
                pairs.append((a, b))
            return original(a, b)

        counted.perfbench_span = key
        self._patches.replace_everywhere([cls], original, counted)

    def _count_call(self, cls, attr, key):
        original = vars(cls)[attr]
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return original(*args)

        counted.perfbench_span = key
        self._patches.replace_everywhere([cls], original, counted)

    def _count_init(self):
        original = field._init_f3
        counts = self.counts

        def counted(obj, an, bn, d):
            counts["f3_new"] += 1
            original(obj, an, bn, d)
            bits = max(obj._an.bit_length(), obj._bn.bit_length(), obj._d.bit_length())
            if bits > self.bits_max:
                self.bits_max = bits

        counted.perfbench_span = "f3_new"
        self._patches.replace_everywhere([field], original, counted)

    def op_ns(self, key: str, repeats: int = 15) -> float:
        """Median ns per F3 operation on the captured operands (counter removed)."""
        pairs = self.pairs[key]
        if not pairs:
            return 0.0
        loop = _add_loop if key == "f3_add" else _mul_loop
        net = [loop(pairs) - _empty_loop(pairs) for _ in range(repeats)]
        return statistics.median(net) / len(pairs)


def _add_loop(pairs) -> int:
    t = perf_counter_ns()
    for a, b in pairs:
        a + b
    return perf_counter_ns() - t


def _mul_loop(pairs) -> int:
    t = perf_counter_ns()
    for a, b in pairs:
        a * b
    return perf_counter_ns() - t


def _empty_loop(pairs) -> int:
    t = perf_counter_ns()
    for a, b in pairs:
        pass
    return perf_counter_ns() - t
