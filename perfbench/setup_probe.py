"""Set-up probe: a fresh interpreter up to the first cell ready to run.

``python3 perfbench/setup_probe.py WORKLOAD SEED`` imports ``repro``,
computes the code fingerprint, constructs the workload's first
application and assembles its machine, then prints one JSON line: the
``CLOCK_MONOTONIC`` reading at that moment (the parent compares it with
its own reading taken before the spawn), the time of each phase, and the
calibration kernel's times in this process.  The kernel runs
``KERNEL_RUNS`` times before ``import repro`` and as often after the cell
is ready, on the CPU the probe runs on; its runs before the cell is
ready are reported so the parent can cut them out of the set-up time.
"""

import time

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KERNEL_RUNS = 3


def timed_kernels(kernel) -> list[float]:
    times = []
    for _ in range(KERNEL_RUNS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.calibrate import kernel

    before = timed_kernels(kernel)
    t0 = time.perf_counter()
    import repro  # noqa: F401

    t1 = time.perf_counter()
    from repro.core.parallel import code_fingerprint
    from repro.runtime.context import Machine

    from perfbench.workloads import WORKLOADS

    t2 = time.perf_counter()
    code_fingerprint()
    t3 = time.perf_counter()
    _, spec = WORKLOADS[workload].cells(seed)[0]
    app = spec.factory()
    t4 = time.perf_counter()
    machine = Machine(spec.config, spec.system)
    app.setup(machine)
    t5 = time.perf_counter()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    after = timed_kernels(kernel)
    print(json.dumps({
        "ready": ready,
        "kernel_before_ready_s": sum(before),
        "kernel_s": before + after,
        "import_s": t1 - t0,
        "fingerprint_s": t3 - t2,
        "construct_s": t4 - t3,
        "assemble_s": t5 - t4,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
