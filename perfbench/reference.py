"""Output reference: a workload's first frames on the ``vectorized`` backend.

Run as ``python3 perfbench/reference.py <workload> <seed>``; prints one
JSON list with the label digest of each prefix frame (``null`` for a
frame that failed), computed at one thread.
"""

import json
import sys

from harness import prepare_process

prepare_process()

import engine_workloads  # noqa: E402

spec = engine_workloads.SPECS[sys.argv[1]]
print(json.dumps(engine_workloads.reference_digests(spec, int(sys.argv[2]))))
