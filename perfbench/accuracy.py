"""Criterion-07 accuracy series: ``python3 perfbench/accuracy.py``.

Not a timed workload.  For each probe row (modes per reservoir x occupation
cutoff) with finite-volume dimension <= 2048 it computes the median
relative deviation of the finite-volume generating function from the
weak-coupling one at lambda = 0.2 on the pinned five kappa points, margin
1.0, and compares it with the recorded value to three decimals.  Prints
one JSON line and exits 1 if any row differs.
"""

import json
import sys
import time

import run                                    # pins BLAS before numpy loads

workloads = run.load_workloads()

# (modes per reservoir, n_max): median deviation recorded on the seed code
RECORDED = {
    (1, 2): 0.690, (1, 4): 0.644, (1, 8): 0.638, (1, 14): 0.638,
    (2, 2): 0.532, (2, 4): 0.467, (3, 1): 0.602, (3, 2): 0.441,
    (4, 1): 0.572, (5, 1): 0.555,
}


def main():
    qubit = workloads.canonical_qubit()
    start = time.perf_counter()
    rows, mismatched = [], []
    for (n_modes, n_max), recorded in RECORDED.items():
        table = workloads.ExactQubit.compare_rows(qubit, n_modes, n_max)
        median = table.median_deviation(0.2)
        rows.append({"modes": n_modes, "n_max": n_max,
                     "dim": 2 * (n_max + 1) ** (2 * n_modes),
                     "median_deviation": median, "recorded": recorded})
        if round(median, 3) != recorded:
            mismatched.append((n_modes, n_max))
    print(json.dumps({"rows": rows, "mismatched": mismatched,
                      "seconds": time.perf_counter() - start}))
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
