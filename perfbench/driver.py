"""Child-process stand-in for the ``epr`` console script.

Does what the entry point does, ``eprsim.cli.main(argv)``, but first writes
the monotonic-clock moment at which ``import eprsim.cli`` returned to the
file descriptor named by PERFBENCH_STAMP_FD. The parent subtracts its own
launch moment from it to get the child's set-up time (interpreter start plus
imports). Both sides read CLOCK_MONOTONIC, which is shared by all processes.

With the single argument ``--machine`` it prints, instead of running the CLI,
the facts that decide what gets measured: CPU count, Python, numpy and scipy
versions, kernel backend, engine block size and resolved worker count.

Exits 3 when the imported package is not the one under PERFBENCH_SRC, so a
stray installed copy can never be measured in place of the checkout.
"""

import json
import os
import platform
import sys
import time

import eprsim.cli

_IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)


def _machine() -> dict:
    import numpy
    import scipy
    from eprsim import engine, kernels

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": kernels.backend(),
        "block_size": engine.BLOCK_SIZE,
        "workers": engine.resolve_workers(),
    }


def main() -> int:
    expected = os.path.realpath(os.environ["PERFBENCH_SRC"])
    found = os.path.realpath(eprsim.cli.__file__)
    if not found.startswith(expected + os.sep):
        print(f"perfbench: imported {found}, expected a file under {expected}", file=sys.stderr)
        return 3
    if sys.argv[1:] == ["--machine"]:
        print(json.dumps(_machine()))
        return 0
    with os.fdopen(int(os.environ["PERFBENCH_STAMP_FD"]), "w") as stamp:
        stamp.write(repr(_IMPORTED))
    return eprsim.cli.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
