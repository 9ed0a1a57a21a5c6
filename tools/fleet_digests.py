"""Digest the spectral fleet's principal values and outputs, seed by seed.

For each seed in LO..HI (inclusive) this builds the 19 models of the
`spectral-fleet` benchmark workload (the warm-up model and one cycle of 18)
from `perfbench/workloads.py`.  It prints one line per model,

    seed model count sha256

holding the sha256 of the principal values H_k(omega) of that model, one per
reservoir k and Bohr frequency omega with G_k(omega) > 0, in reservoir then
level-pair order, and one line per model,

    seed model rates count sha256

holding the sha256 of its `build_rate_process` arrays (sources, targets,
reservoirs, rates, omegas and the irreducible flag), count being the number
of transitions.  Then comes one line `seed fleet[:18] digest` with the
digest that `perfbench/run.py` reports for the first 18 fleet requests,
computed by its own `one_request` and `check_digests`.  Diffing the output
of two checkouts shows whether a change moved any of these numbers:

    python tools/fleet_digests.py 1 12 > change.txt
    python tools/fleet_digests.py 1 12 /path/to/other/checkout > parent.txt
    diff parent.txt change.txt

The optional third argument is the checkout whose `src/` and `perfbench/`
are used (default: the one holding this script).  Needs only the package's
own dependencies.
"""

import sys
from pathlib import Path


def model_values(fcslab, model):
    """H_k(omega) at every level pair with positive spectral weight."""
    energies = model.system.energies
    values = []
    for res in model.reservoirs:
        dens = fcslab.effective_density(res)
        for e in range(len(energies)):
            for ep in range(len(energies)):
                omega = float(energies[e] - energies[ep])
                if dens(omega) > 0.0:
                    values.append(fcslab.principal_value(dens, omega))
    return values


def main(argv):
    if len(argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    lo, hi = int(argv[1]), int(argv[2])
    root = Path(argv[3] if len(argv) > 3 else Path(__file__).parents[1])
    sys.path[:0] = [str(root.resolve() / "perfbench"),
                    str(root.resolve() / "src")]
    import run              # pins BLAS to one thread before numpy loads
    import workloads

    import fcslab

    for seed in range(lo, hi + 1):
        fleet = workloads.SpectralFleet(seed, root)
        for i in range(-1, fleet.cycle):
            model = fleet.prepare(i)
            values = model_values(fcslab, model)
            print(seed, i, len(values), run.digest(values))
            rp = fcslab.build_rate_process(model.system, model.reservoirs)
            arrays = [rp.sources, rp.targets, rp.reservoirs, rp.rates,
                      rp.omegas, rp.irreducible]
            print(seed, i, "rates", len(rp.rates), run.digest(arrays))
        records = [run.one_request(fleet, i) for i in range(fleet.cycle)]
        digests, _ = run.check_digests(records)
        name = f"fleet[:{run.FLEET_DIGEST_PREFIX}]"
        print(seed, name, digests[name])
        fleet.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
