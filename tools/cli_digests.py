"""Digest the outputs of the ten README command-line invocations.

Writes the README qubit config to a temporary directory, runs every README
invocation of `python -m fcslab` against it in a fresh process, plus a
`trajectories` run split over two workers with a two-word seed, plus an
`fv-tpm` run on a second qubit config whose reservoirs have a `flat` and a
`table` density (the README config has only `ohmic` ones), plus an `fv-tpm`
and a `transfer` run on a third qubit config with sigma_y couplings, whose
finite-volume Hamiltonian is complex (the README config's is real), plus
an `fv-tpm` rerun of the README `fv-tpm` run's instance.yaml rewritten as
earlier versions wrote it (with `run.variant: secular` and
`run.lamb_shift: true`), labelled `fv-tpm-legacy`, plus a `generator` and
a `scgf-scan` run on the ladder diag(0.1, 0.2, 0.3), whose two gaps differ
by rounding, labelled `generator-ladder` and `scgf-scan-ladder`, and prints
one line `blas-threads subcommand file sha256` per output file.  The
manifest's `wall_time_s` is the only value that differs between reruns, so
it is masked before hashing.  Diffing the output of two checkouts shows whether
a change moved any output byte:

    python tools/cli_digests.py > change.txt
    python tools/cli_digests.py /path/to/other/checkout > parent.txt
    diff parent.txt change.txt

The optional argument is the checkout whose `src/` is run (default: the
one holding this script).  Needs only the package's own dependencies.

The last bits of the finite-volume outputs depend on how many threads BLAS
runs, so every invocation runs twice: with BLAS pinned to one thread, where
on two or more cores the finite-volume parity blocks are diagonalized side
by side, and with two BLAS threads, where they are diagonalized in turn.
The calling shell's BLAS variables are overridden.
"""

import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

CONFIG = """\
system:
  hamiltonian:
    - [0.5, 0.0]
    - [0.0, 0.0]
    - [0.0, 0.0]
    - [-0.5, 0.0]
reservoirs:
  - label: hot
    beta: 1.0
    coupling: [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    density: {form: ohmic, gamma: 0.5, exponent: 1.0, cutoff: 5.0}
  - label: cold
    beta: 2.0
    coupling: [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    density: {form: ohmic, gamma: 0.5, exponent: 1.0, cutoff: 5.0}
run:
  lambda: 0.1
"""

# flat (omega_min > 0) and table densities, written back into instance.yaml
FORMS_CONFIG = """\
system:
  hamiltonian:
    - [0.5, 0.0]
    - [0.0, 0.0]
    - [0.0, 0.0]
    - [-0.5, 0.0]
reservoirs:
  - label: hot
    beta: 1.0
    coupling: [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    density: {form: flat, height: 0.3, omega_min: 0.2, omega_max: 4.0}
  - label: cold
    beta: 2.0
    coupling: [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    density: {form: table, omega: [0.1, 1.0, 2.0, 4.0],
              value: [0.2, 0.5, 0.4, 0.1]}
run:
  lambda: 0.1
"""

FORMS_INVOCATION = ["fv-tpm", "--tmax", "5", "--modes", "2", "--nocc", "1",
                    "--kappa", "0.25,0.5"]

# sigma_y couplings: a complex finite-volume Hamiltonian
SIGMA_Y_CONFIG = CONFIG.replace(
    "coupling: [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]",
    "coupling: [[0.0, 0.0], [0.0, -1.0], [0.0, 1.0], [0.0, 0.0]]")

SIGMA_Y_INVOCATIONS = [
    ["fv-tpm", "--tmax", "5", "--kappa", "0.25,0.5"],
    ["transfer", "--lambda", "0.2", "--tau", "0.2"],
]

# diag(0.1, 0.2, 0.3) with both README baths: in floating point 0.2 - 0.1
# and 0.3 - 0.2 differ, so only a grouping by Bohr cluster gives them one
# jump term
LADDER_CONFIG = """\
system:
  hamiltonian:
    - [0.1, 0.0]
    - [0.0, 0.0]
    - [0.0, 0.0]
    - [0.0, 0.0]
    - [0.2, 0.0]
    - [0.0, 0.0]
    - [0.0, 0.0]
    - [0.0, 0.0]
    - [0.3, 0.0]
reservoirs:
  - label: hot
    beta: 1.0
    coupling: [[0.0, 0.0], [1.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.0, 0.0],
               [1.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.0, 0.0]]
    density: {form: ohmic, gamma: 0.5, exponent: 1.0, cutoff: 5.0}
  - label: cold
    beta: 2.0
    coupling: [[0.0, 0.0], [1.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.0, 0.0],
               [1.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.0, 0.0]]
    density: {form: ohmic, gamma: 0.5, exponent: 1.0, cutoff: 5.0}
run:
  lambda: 0.1
"""

LADDER_INVOCATIONS = [
    ["generator", "--kappa", "0.3,0.1"],
    ["scgf-scan"],
]

INVOCATIONS = [
    ["validate"],
    ["generator", "--kappa", "0.4,0"],
    ["scgf-scan", "--nu", "0:1:0.05"],
    ["gc-check"],
    ["moments"],
    ["rate-function", "--alpha=-0.003,0.003"],
    ["fv-compare", "--lambda", "0.4,0.2", "--kappa", "0.4,0"],
    ["fv-tpm", "--tmax", "5", "--kappa", "0.25,0.5"],
    ["transfer", "--lambda", "0.2", "--tau", "0.2"],
    ["trajectories", "--nsamples", "10000", "--seed", "1"],
    ["trajectories", "--nsamples", "2000", "--jobs", "2",
     "--seed=4294967296"],
]

# the README fv-tpm run, rerun against its own instance.yaml in the form
# earlier versions wrote it
LEGACY_INVOCATION = ["fv-tpm", "--tmax", "5", "--kappa", "0.25,0.5"]
LEGACY_SOURCE = INVOCATIONS.index(LEGACY_INVOCATION)
LEGACY_RUN_KEYS = {"variant": "secular", "lamb_shift": True}

WALL_TIME = re.compile(rb'"wall_time_s":[^,}]*')


def file_digest(path):
    blob = path.read_bytes()
    if path.name == "manifest.json":
        blob = WALL_TIME.sub(b'"wall_time_s":"masked"', blob)
    return hashlib.sha256(blob).hexdigest()


def legacy_instance(instance, path):
    """Write instance.yaml with the run keys earlier versions wrote, in the
    place they wrote them (the library's own YAML dump options)."""
    tree = yaml.safe_load(instance.read_text())
    tree["run"].update(LEGACY_RUN_KEYS)
    with open(path, "w") as fh:
        yaml.safe_dump(tree, fh, sort_keys=False, default_flow_style=None)


def run_and_digest(env, threads, config, args, out, name=None):
    """Run one invocation and print its digest lines, labelled with name
    (default: the subcommand)."""
    subprocess.run([sys.executable, "-m", "fcslab", args[0],
                    "--config", str(config), "--out", str(out), *args[1:]],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    for path in sorted(out.iterdir()):
        print(threads, name or args[0], path.name, file_digest(path))


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).parents[1])
    with tempfile.TemporaryDirectory() as tmp:
        readme = Path(tmp) / "model.yaml"
        readme.write_text(CONFIG)
        forms = Path(tmp) / "forms.yaml"
        forms.write_text(FORMS_CONFIG)
        sigma_y = Path(tmp) / "sigma_y.yaml"
        sigma_y.write_text(SIGMA_Y_CONFIG)
        ladder = Path(tmp) / "ladder.yaml"
        ladder.write_text(LADDER_CONFIG)
        runs = [(readme, args) for args in INVOCATIONS]
        runs.append((forms, FORMS_INVOCATION))
        runs.extend((sigma_y, args) for args in SIGMA_Y_INVOCATIONS)
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(root.resolve() / "src"),
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
            for n, (config, args) in enumerate(runs):
                out = Path(tmp) / f"{threads}-{n}-{args[0]}"
                run_and_digest(env, threads, config, args, out)
            legacy = Path(tmp) / f"{threads}-legacy.yaml"
            legacy_instance(Path(tmp) / f"{threads}-{LEGACY_SOURCE}-fv-tpm"
                            / "instance.yaml", legacy)
            run_and_digest(env, threads, legacy, LEGACY_INVOCATION,
                           Path(tmp) / f"{threads}-legacy-fv-tpm",
                           name="fv-tpm-legacy")
            for args in LADDER_INVOCATIONS:
                run_and_digest(env, threads, ladder, args,
                               Path(tmp) / f"{threads}-ladder-{args[0]}",
                               name=f"{args[0]}-ladder")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
