"""Stage timings for the roadmap's Baseline table: ``python3 perfbench/baseline.py``.

Times each stage on the same fixed inputs as that table (median of three,
BLAS pinned to one thread, stages run one after another) and prints one
JSON object.  NOTES.md sets the numbers beside the table.
"""

import json
import statistics
import subprocess
import sys
import time

import run                                    # pins BLAS before numpy loads

workloads = run.load_workloads()

import numpy as np                            # noqa: E402

import fcslab                                 # noqa: E402
import tracer as tracer_mod                   # noqa: E402

REPEATS = 3


def timed(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main():
    out = {}
    q = workloads.canonical_qubit()
    rng = np.random.default_rng(11)
    fleet = [workloads.random_model(rng) for _ in range(20)]
    out["L1 ScgfSolver x20 (seed 11)"] = timed(
        lambda: [fcslab.ScgfSolver(m) for m in fleet])
    with tracer_mod.Tracer() as tr:
        for m in fleet:
            fcslab.ScgfSolver(m)
    out["L1 of which compute_upsilon (traced)"] = (
        tr.self_s["lindblad.compute_upsilon"]
        + tr.self_s["lindblad.principal_value"])
    out["L1 of which irreducibility checks (traced)"] = \
        tr.self_s["model.check_fgr_irreducibility"]

    solver = fcslab.ScgfSolver(q)
    kappa = np.array([0.4, 0.0])
    out["L2 qubit leading with vectors"] = timed(
        lambda: [solver.leading(kappa) for _ in range(1000)]) / 1000
    out["L2 qubit f only"] = timed(
        lambda: [solver.f(kappa) for _ in range(1000)]) / 1000
    out["L2 qubit gradient_and_hessian"] = timed(
        lambda: [solver.gradient_and_hessian(kappa)
                 for _ in range(100)]) / 100
    out["L2 qubit transport_moments with FD"] = timed(
        lambda: [fcslab.transport_moments(solver) for _ in range(100)]) / 100
    mom = fcslab.transport_moments(solver, fd_check=False)
    alphas = [[s * mom.mean_currents[1]] for s in np.linspace(0.2, 1.8, 9)]
    out["L2 rate_function 9 points"] = timed(
        lambda: fcslab.rate_function(solver, alphas, active=[1]))

    t = 5.0
    modes = [fcslab.resonant_modes(q.system, res, 3, 0.8 * np.pi / t, n_max=2)
             for res in q.reservoirs]
    out["L3 dim 1458 assemble"] = timed(lambda: fcslab.assemble(q, modes))

    def eigh():
        fv = fcslab.assemble(q, modes)
        start = time.perf_counter()
        fv._eig_data()
        return time.perf_counter() - start
    out["L3 dim 1458 block eigh"] = statistics.median(
        eigh() for _ in range(REPEATS))

    def tpm():
        fv = fcslab.assemble(q, modes)
        start = time.perf_counter()
        fcslab.tpm_distribution(fv, q.rho_system, t)
        return time.perf_counter() - start
    out["L3 dim 1458 tpm_distribution (incl. eigh)"] = statistics.median(
        tpm() for _ in range(REPEATS))

    def transfer():
        fv = fcslab.transfer_instance(q, 0.2, tau=0.2, n_blocks=4, n_modes=3,
                                      n_occ=2, spacing_margin=1.0)
        fv._eig_data()
        start = time.perf_counter()
        cd = fcslab.compressed_step(fv, kappa, 0.2)
        mid = time.perf_counter()
        fcslab.extract_blocks(cd, n_max=4)
        return mid - start, time.perf_counter() - mid
    pairs = [transfer() for _ in range(REPEATS)]
    out["L4 dim 1458 compressed_step (after eigh)"] = statistics.median(
        p[0] for p in pairs)
    out["L4 dim 1458 extract_blocks n=4 recursion"] = statistics.median(
        p[1] for p in pairs)

    rp = fcslab.build_rate_process(q.system, q.reservoirs)
    horizon = 100.0 / solver.leading(np.zeros(2)).gap
    out["L5 sample 10k jobs=1"] = timed(
        lambda: fcslab.sample(rp, horizon, 10_000, seed=1, jobs=1))
    out["L5 sample 10k jobs=2"] = timed(
        lambda: fcslab.sample(rp, horizon, 10_000, seed=1, jobs=2))
    out["L5 Philox stream set-up x10k"] = timed(lambda: [
        np.random.Generator(np.random.Philox(
            np.random.SeedSequence(1, spawn_key=(i,))))
        for i in range(10_000)])

    probe = [sys.executable, "-c", "import fcslab"]
    env = dict(run.os.environ, PYTHONPATH=str(run.ROOT / "src"))
    out["E2E import fcslab (fresh interpreter)"] = timed(
        lambda: subprocess.run(probe, env=env, check=True))
    out["provenance"] = run.provenance(None, run.load_average())
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
