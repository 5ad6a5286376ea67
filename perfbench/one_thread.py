"""Engine-layer timings at one BLAS thread, in a child process of the benchmark.

The benchmark starts this module with ``OPENBLAS_NUM_THREADS=1`` in its
environment, so OpenBLAS is single-threaded from the moment NumPy loads.

    OPENBLAS_NUM_THREADS=1 python3 -m perfbench.one_thread INPUT.npz

INPUT.npz holds the operators of each size and the run plan; the timings are
printed as one JSON line.
"""

from __future__ import annotations

import json
import sys


def main(path: str) -> int:
    from .run import load_package

    problem = load_package()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    import numpy as np

    from .environment import blas_info
    from .workloads import engine_probe

    with np.load(path) as data:
        plan = json.loads(str(data["plan"]))
        kept = {
            n: tuple(data[f"{key}{n}"] for key in ("h", "lop", "pairs", "e2"))
            for n in plan["sizes"]
        }
    out = engine_probe(kept, plan["rk4"], plan["dilation"])
    out["blas"] = blas_info()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
