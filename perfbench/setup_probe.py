"""Set-up time of one workload, measured in a fresh process.

Times the import of ``parsvd`` plus the first call of each entry point the
workload uses, on its smallest input; making that input is not timed.
Prints the seconds as the last line. Run as
``python3 perfbench/setup_probe.py <workload>`` from the repository root.
"""

import os
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(workload: str) -> float:
    t0 = time.perf_counter()
    import parsvd  # noqa: F401  (the import is what is timed)
    from parsvd.errors import ParsvdError

    imported = time.perf_counter() - t0

    import workloads

    # per entry point (the label's first part), its first operation of least K
    firsts: dict = {}
    for op in workloads.build(workload, 0, 0, smallest=True):
        entry = op.label.split("/")[0] if "/" in op.label else "svd"
        if entry not in firsts or op.k < firsts[entry].k:
            firsts[entry] = op
    t1 = time.perf_counter()
    for op in firsts.values():
        try:
            op.call()
        except ParsvdError:
            pass
    return imported + time.perf_counter() - t1


if __name__ == "__main__":
    print(f"{main(sys.argv[1]):.6f}")
