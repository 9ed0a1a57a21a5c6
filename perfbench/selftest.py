"""Self-test of the benchmark at small sizes: ``python3 perfbench/selftest.py``.

Checks that the tracer sees the work it should (call counts known from the
seed code), that a corrupted output is counted as a failed request and
makes the run incorrect, and that the metric names printed match
BENCHMARK.json.  Exits 0 when every check holds.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run                                    # pins BLAS before numpy loads

workloads = run.load_workloads()

import numpy as np                            # noqa: E402

import fcslab                                 # noqa: E402
import fcslab.cli                             # noqa: E402
import fcslab.scgf                            # noqa: E402
import tracer as tracer_mod                   # noqa: E402

README_ARGS = {name: extra for name, extra in workloads.CliMix.SUBS}
README_ARGS["trajectories"] = ["--nsamples", "200", "--seed", "1",
                               "--jobs", "1"]
EXPECTED_BUILDS = {"validate": 0, "generator": 2, "scgf-scan": 1,
                   "gc-check": 1, "moments": 1, "rate-function": 1,
                   "trajectories": 2}


def check(ok, message):
    if not ok:
        raise AssertionError(message)
    print(f"ok  {message}")


def fleet_counts():
    """The seeded fleet of 20 models (seed 11): one generator per solver,
    248 principal values and 1758 Gauss-Legendre rules."""
    rng = np.random.default_rng(11)
    models = [workloads.random_model(rng) for _ in range(20)]
    with tracer_mod.Tracer() as tr:
        for model in models:
            fcslab.ScgfSolver(model)
    check(tr.calls["scgf.ScgfSolver"] == 20, "20 solvers traced")
    check(tr.calls["lindblad.build_deformed_lindblad"] == 20,
          "one generator build per solver")
    check(tr.calls["lindblad.principal_value"] == 248,
          f"248 principal values ({tr.calls['lindblad.principal_value']})")
    check(tr.observed["lindblad.gauss_rules.calls"] == 1758,
          f"1758 Gauss rules ({tr.observed['lindblad.gauss_rules.calls']})")


def qubit_counts():
    with tracer_mod.Tracer() as tr:
        fcslab.lindblad.build_deformed_lindblad(workloads.canonical_qubit(),
                                                np.zeros(2))
    check(tr.calls["lindblad.principal_value"] == 4,
          "4 principal values per qubit generator build")
    check(tr.calls["lindblad.compute_upsilon"] == 1,
          "compute_upsilon is traced inside build_deformed_lindblad")


def cli_builds():
    work = run.ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=work))
    try:
        config = tmp / "qubit.yaml"
        config.write_text(workloads.CANONICAL_YAML)
        for sub, expected in EXPECTED_BUILDS.items():
            with tracer_mod.Tracer() as tr:
                code = fcslab.cli.main(
                    [sub, "--config", str(config), "--out", str(tmp / sub)]
                    + README_ARGS[sub])
            builds = tr.calls["lindblad.build_deformed_lindblad"]
            check(code == 0 and builds == expected,
                  f"cli {sub}: exit {code}, {builds} generator builds")
            check(tr.calls["config.load_config"] == 1,
                  f"cli {sub}: load_config traced once")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def corrupted_output_fails():
    wl = workloads.SpectralFleet(3, run.ROOT)
    good = run.one_request(wl, 0)
    check(good[2] is None, "a clean fleet request passes its checks")
    honest = fcslab.scgf.gc_symmetry_defect

    def corrupted(*args, **kwargs):
        scan = honest(*args, **kwargs)
        scan.f_mirrored = scan.f_mirrored + 1e-6
        scan.defect = float(np.abs(scan.f_forward - scan.f_mirrored).max())
        return scan

    fcslab.scgf.gc_symmetry_defect = corrupted
    try:
        bad = run.one_request(wl, 0)
    finally:
        fcslab.scgf.gc_symmetry_defect = honest
    check(bad[2] is not None and bad[2].startswith("check:"),
          f"a corrupted exchange scan fails the request ({bad[2]})")
    records = [good, bad]
    e2e = run.end_to_end(records, wl, [1.0], 0.5,
                         sum(r[2] is not None for r in records), len(records),
                         1.0)
    check(e2e["success_ratio"][0] == 0.5,
          "the failure lands in success_ratio (failed_ratio 0.5)")

    # a repeat whose output differs from the first of its kind is caught
    _, latency, _, dig = good
    _, disagree = run.check_digests(
        [("tpm", latency, None, dig), ("tpm", latency, None, dig[::-1])])
    check(disagree == 1, "a changed repeat output is counted as failed")


def metric_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wl = workloads.ExactQubit(0, run.ROOT)
    e2e = run.end_to_end([("tpm", 1.0, None, "")], wl, [1.0], 0.5, 0, 1, 1.0)
    check(list(e2e) == [m["name"] for m in spec["end_to_end"]],
          "end-to-end names match BENCHMARK.json")
    check(all(e2e[m["name"]][1] == m["unit"] for m in spec["end_to_end"]),
          "end-to-end units match BENCHMARK.json")
    empty = tracer_mod.merge_totals([])
    layer = run.layer_metrics(empty, 1, wl, 1.0, [("tpm", 1.0, None, "")],
                              [("tpm", 1.0, None, "")], [])
    check(list(layer) == [m["name"] for m in spec["per_layer"]],
          "per-layer names match BENCHMARK.json")
    check(all(layer[m["name"]][1] == m["unit"] for m in spec["per_layer"]),
          "per-layer units match BENCHMARK.json")


def main():
    fleet_counts()
    qubit_counts()
    cli_builds()
    corrupted_output_fails()
    metric_names()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
