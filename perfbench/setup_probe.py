"""Time one set-up in a fresh interpreter.

Set-up is importing okubic and finishing the first-use builds of one
workload (``warm()``), the cost a user pays before the first answer.
Prints the set-up's wall seconds and the reference loop's seconds
(the mean of one run before and one after it):

    python3 perfbench/setup_probe.py <workload>
"""

import sys
import time

import reference

ref_before = reference.run()
t0 = time.perf_counter()

import checkout  # noqa: E402

checkout.use_source_tree()
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](0).warm()
wall = time.perf_counter() - t0
print(repr(wall), repr((ref_before + reference.run()) / 2))
