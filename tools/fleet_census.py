"""List the spectral-fleet requests that the program refuses, seed by seed.

For each seed in LO..HI (inclusive) this runs requests -1..N-1 of the
`spectral-fleet` benchmark workload (request -1 is the warm-up model) from
`perfbench/workloads.py`, through its own `prepare`, `run` and `check`.
`perfbench/run.py` marks a whole run `correct: false` as soon as one request
raises or fails its check, so every such request is listed here: one line

    seed index shape error

per refused request, where shape is `d<dim>n<reservoirs><form>` (form
ohmic, flat or table), then one line `total <refused> of <requests>`.
The third argument may also be FIRST:N, for requests FIRST..N-1 only:

    python tools/fleet_census.py 1 20 700
    python tools/fleet_census.py 1 6 700:2600
    python tools/fleet_census.py 1 20 700 /path/to/other/checkout

The optional fourth argument is the checkout whose `src/` and `perfbench/`
are used (default: the one holding this script); it is imported, never
written.  BLAS is pinned to one thread as `perfbench/run.py` does it.
"""

import sys
import warnings
from pathlib import Path

FORMS = ("ohmic", "flat", "table")


def shape(model):
    forms = {res.density.form for res in model.reservoirs}
    return (f"d{model.system.dim}n{len(model.reservoirs)}"
            f"{'+'.join(f for f in FORMS if f in forms)}")


def main(argv):
    if len(argv) not in (4, 5):
        print(__doc__, file=sys.stderr)
        return 2
    lo, hi = int(argv[1]), int(argv[2])
    first, _, end = argv[3].rpartition(":")
    first, end = (int(first) if first else -1), int(end)
    root = Path(argv[4] if len(argv) > 4 else Path(__file__).parents[1])
    sys.path[:0] = [str(root.resolve() / "perfbench"),
                    str(root.resolve() / "src")]
    import run              # pins BLAS to one thread before numpy loads
    import workloads

    warnings.simplefilter("ignore")
    refused = requests = 0
    for seed in range(lo, hi + 1):
        fleet = workloads.SpectralFleet(seed, root)
        for i in range(first, end):
            model = fleet.prepare(i)
            try:
                fleet.check(model, fleet.run(model))
            except Exception as exc:
                refused += 1
                print(seed, i, shape(model), repr(exc), flush=True)
            requests += 1
        fleet.close()
    print("total", refused, "of", requests)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
