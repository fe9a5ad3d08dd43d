"""Locate the checkout the benchmark runs in and import okubic from its source tree.

The benchmark never uses an installed copy of okubic: it measures the
source next to it, and fails when that source is missing.
"""

from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")


class MissingSourceError(RuntimeError):
    pass


def use_source_tree() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` and import okubic from it."""
    init = os.path.join(SRC, "okubic", "__init__.py")
    if not os.path.isfile(init):
        raise MissingSourceError(f"no okubic source tree at {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    import okubic

    if os.path.abspath(okubic.__file__) != init:
        raise MissingSourceError(
            f"okubic imported from {okubic.__file__}, not from {SRC}"
        )
