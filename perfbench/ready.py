"""Set-up probe: a fresh interpreter brought to the point of taking frames.

Run as ``python3 perfbench/ready.py <workload>``; prints ``ready`` once
the package is imported, the native kernels are loaded and have passed
the supervisor's known-answer self-test, and the runner is built.
"""

import sys

from harness import prepare_process

prepare_process()

import inputs  # noqa: E402
from repro.kernels.supervisor import supervised_resolve  # noqa: E402
from repro.parallel import ParallelRunner  # noqa: E402

runner = ParallelRunner(inputs.PARAMS[sys.argv[1]](), n_workers=1)
supervised_resolve(runner.params.kernel_backend)
print("ready", flush=True)
