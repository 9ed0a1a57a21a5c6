"""Workload inputs, requests and output checks.

A workload builds its inputs from the seed, then serves requests one after
another.  Each request is split in three so that only the program's work is
timed: ``prepare(i)`` makes the request's input, ``run(arg)`` is the timed
call into fcslab, and ``check(arg, result)`` validates the output and
returns the values whose %.17g text is digested.  The program is always
called through ``fcslab.<module>.<name>`` so the tracer's wrappers see it.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import fcslab
import fcslab.finite_volume
import fcslab.scgf
import fcslab.trajectories
import fcslab.transfer


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# shared inputs
# ---------------------------------------------------------------------------

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

CANONICAL_YAML = """\
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


def canonical_qubit():
    dens = fcslab.SpectralDensity(
        form="ohmic", params={"gamma": 0.5, "exponent": 1.0, "cutoff": 5.0})
    reservoirs = [
        fcslab.ReservoirSpec(label="hot", beta=1.0, coupling=SIGMA_X,
                             density=dens),
        fcslab.ReservoirSpec(label="cold", beta=2.0, coupling=SIGMA_X,
                             density=dens),
    ]
    return fcslab.make_model(np.diag([0.5, -0.5]), reservoirs, lam=0.1)


# The random-model family of the test suite's fleet fixtures: the same draws
# in the same order, so a seeded fleet here equals the seeded test fleet.

def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def random_density(rng, kind=None):
    kind = rng.integers(0, 3) if kind is None else kind
    if kind == 0:
        return fcslab.SpectralDensity(form="ohmic", params={
            "gamma": float(rng.uniform(0.2, 1.0)),
            "exponent": float(rng.choice([1.0, 2.0])),
            "cutoff": float(rng.uniform(2.0, 8.0))})
    if kind == 1:
        return fcslab.SpectralDensity(form="flat", params={
            "height": float(rng.uniform(0.2, 1.0)),
            "omega_min": float(rng.uniform(0.02, 0.1)),
            "omega_max": float(rng.uniform(4.0, 9.0))})
    w = np.linspace(0.0, float(rng.uniform(5.0, 9.0)), 24)
    v = rng.uniform(0.1, 1.0, size=24)
    v[0] = 0.0
    return fcslab.SpectralDensity(form="table", table_omega=w, table_value=v)


def random_model(rng, d=None, n_res=None, form=None):
    """One model of the family; `form` (0 ohmic, 1 flat, 2 table) fixes the
    density form of every reservoir instead of drawing it."""
    d = d or int(rng.integers(2, 5))
    n_res = n_res or int(rng.integers(1, 4))
    for _ in range(200):
        e = random_hermitian(rng, d)
        evals = np.linalg.eigvalsh(e)
        diffs = evals[:, None] - evals[None, :]
        flat = np.sort(np.unique(np.round(diffs, 12)))
        if len(evals) == d and np.min(np.diff(evals)) > 0.15:
            gaps = np.diff(flat)
            if len(gaps) == 0 or np.min(gaps) > 0.1:
                break
    else:
        raise RuntimeError("could not sample a well-separated Hamiltonian")
    reservoirs = []
    for k in range(n_res):
        coupling = random_hermitian(rng, d)
        coupling = coupling / max(1.0, np.abs(coupling).max())
        reservoirs.append(fcslab.ReservoirSpec(
            label=f"r{k}", beta=float(rng.uniform(0.5, 3.0)),
            coupling=coupling, density=random_density(rng, form)))
    return fcslab.make_model(e, reservoirs, lam=float(rng.uniform(0.05, 0.3)))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    cycle = 1                   # requests per cycle; runs end on a boundary
    # Percentile reported as request_tail_s.  Workloads that cycle through
    # a few request kinds finish only 8-21 requests in a run, too few for
    # ten beyond any percentile above the median; None reports the mean
    # over cycles of each cycle's slowest request instead.
    tail_pct = None
    repeat_warmup = False       # rerun the warm-up input after the loop
    requests_in_children = False

    def __init__(self, seed, root):
        self.seed = int(seed)
        self.root = Path(root)
        self.traced = False     # set while the tracer is installed

    def fv_deviation(self):
        """Criterion-07 accuracy, computed once outside any timed region."""
        return ExactQubit.compare_rows(canonical_qubit()).median_deviation(0.2)

    def close(self):
        pass


class SpectralFleet(Workload):
    """A fresh random model per request; no work is shared between them.

    Request cost is driven by the dimension, the number of reservoirs and
    the density form, so (d, reservoirs, form) cycle through all eighteen
    combinations and every run sees the same mix.  One-reservoir models are
    left out: with a single bath the counted energy stays bounded, f is
    identically zero, and the exchange scan and rate function of counter 0
    have nothing to measure.
    """

    name = "spectral-fleet"
    SHAPES = [(d, n, form) for form in range(3) for n in (2, 3)
              for d in (2, 3, 4)]
    cycle = len(SHAPES)
    tail_pct = 85.0
    repeat_warmup = True        # the fleet's timed inputs never repeat
    NU = np.linspace(0.0, 1.0, 21)

    def kind(self, i):
        return "warmup" if i < 0 else "fleet"

    def prepare(self, i):
        if i < 0:
            return random_model(np.random.default_rng([self.seed, 0]),
                                d=3, n_res=2)
        d, n, form = self.SHAPES[i % self.cycle]
        return random_model(np.random.default_rng([self.seed, 1, i]),
                            d=d, n_res=n, form=form)

    def run(self, model):
        solver = fcslab.scgf.ScgfSolver(model)
        scan = fcslab.scgf.gc_symmetry_defect(solver, nu_grid=self.NU)
        mom = fcslab.scgf.transport_moments(solver)
        table = fcslab.scgf.rate_function(
            solver, np.array([[mom.mean_currents[0]]]), active=[0])
        return scan, mom, table

    def check(self, model, result):
        scan, mom, table = result
        scale = max(float(np.abs(scan.f_forward).max()),
                    float(np.abs(scan.f_mirrored).max()), 1.0)
        require(abs(scan.f_forward[0]) <= 1e-12, f"f(0) = {scan.f_forward[0]}")
        require(scan.defect <= 1e-9 * scale,
                f"exchange defect {scan.defect} at scale {scale}")
        point = table.points[0]
        require(point.converged, "rate function at the mean did not converge")
        require(abs(point.value) <= 1e-10, f"I(mean) = {point.value}")
        require(mom.entropy_production_rate >= -1e-12,
                f"entropy production {mom.entropy_production_rate}")
        return [scan.f_forward, scan.f_mirrored, mom.mean_currents,
                mom.covariance, mom.entropy_production_rate, point.value,
                point.argmin]


class ExactQubit(Workload):
    """The canonical qubit at dim 1458; one fresh instance per request."""

    name = "exact-qubit"
    KINDS = ["tpm", "transfer", "compare", "block-time"]
    cycle = len(KINDS)
    KAPPA = np.array([0.4, 0.0])
    TPM_KAPPAS = [np.array([0.3, 0.1]), np.array([0.25, 0.5])]
    # criterion-07 pinned family: lambda 0.2, 3 modes, n_max 2, margin 1
    C07_KAPPAS = [(0.2, 0.0), (0.4, 0.0), (0.8, 0.0), (0.1, 0.05), (0.0, 0.3)]
    # frozen dim-1458 transfer constants of the test suite
    NORMS_1458 = np.array([1.0462835433328421, 0.15923138154884853])
    MU_1458 = 1.0294864459167949
    F_TRANSFER_1458 = 0.0058120163407683638

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.qubit = canonical_qubit()
        self.offset = self.seed % self.cycle
        self.deviations = []

    def kind(self, i):
        return self.KINDS[(max(i, 0) + self.offset) % self.cycle]

    def prepare(self, i):
        return self.kind(i)

    @classmethod
    def compare_rows(cls, qubit, n_modes=3, n_max=2):
        table = fcslab.finite_volume.weak_coupling_compare(
            qubit, cls.C07_KAPPAS, [0.2], n_modes=n_modes, n_max=n_max,
            spacing_margin=1.0, rho_rule="tilted")
        return table

    def run(self, kind):
        q = self.qubit
        if kind == "tpm":
            t = 5.0
            modes = [fcslab.finite_volume.resonant_modes(
                q.system, res, 3, 0.8 * np.pi / t, n_max=2)
                for res in q.reservoirs]
            fv = fcslab.finite_volume.assemble(q, modes)
            dist = fcslab.finite_volume.tpm_distribution(fv, q.rho_system, t)
            chis = [fcslab.finite_volume.characteristic_function(
                fv, q.rho_system, k, t) for k in self.TPM_KAPPAS]
            return fv.dim, dist, chis
        if kind == "transfer":
            fv = fcslab.transfer.transfer_instance(
                q, 0.2, tau=0.2, n_blocks=2, n_modes=3, n_occ=2,
                spacing_margin=1.0)
            blocks = fcslab.transfer.extract_blocks(
                fcslab.transfer.compressed_step(fv, self.KAPPA, 0.2), n_max=2)
            return fv.dim, blocks, fcslab.transfer.build_and_deform(blocks)
        if kind == "compare":
            return (1458, self.compare_rows(q))
        fv = fcslab.transfer.transfer_instance(
            q, 0.2, tau=0.2, n_blocks=4, n_modes=3, n_occ=2,
            spacing_margin=1.0)
        fine = fcslab.transfer.build_and_deform(fcslab.transfer.extract_blocks(
            fcslab.transfer.compressed_step(fv, self.KAPPA, 0.2, lam=0.2),
            n_max=4))
        coarse = fcslab.transfer.build_and_deform(
            fcslab.transfer.extract_blocks(fcslab.transfer.compressed_step(
                fv, self.KAPPA, 0.4, lam=0.2), n_max=2))
        return fv.dim, fine, coarse

    def check(self, kind, result):
        require(result[0] == 1458, f"instance dimension {result[0]}")
        if kind == "tpm":
            _, dist, chis = result
            require(abs(dist.total() - 1.0) <= 1e-10,
                    f"total probability {dist.total()}")
            for k, chi in zip(self.TPM_KAPPAS, chis):
                require(abs(dist.laplace(k) - chi) <= 1e-8,
                        f"|Laplace - chi| = {abs(dist.laplace(k) - chi)}")
            return [dist.support, dist.probabilities, np.array(chis)]
        if kind == "transfer":
            _, blocks, op = result
            require(np.allclose(blocks.norms, self.NORMS_1458, rtol=1e-9),
                    f"block norms {blocks.norms}")
            require(abs(op.leading.real - self.MU_1458) < 1e-9,
                    f"leading eigenvalue {op.leading}")
            require(abs(op.f_transfer - self.F_TRANSFER_1458) < 1e-11,
                    f"f_transfer {op.f_transfer}")
            return [blocks.norms, blocks.c_hat, op.leading, op.f_transfer]
        if kind == "compare":
            table = result[1]
            devs = table.deviations(0.2)
            require(len(devs) == len(self.C07_KAPPAS) and
                    np.all(np.isfinite(devs)), f"deviations {devs}")
            self.deviations.append(table.median_deviation(0.2))
            return [[(r.chi, r.f_finite, r.f_fgr, r.deviation)
                     for r in table.rows]]
        _, fine, coarse = result
        rel = abs(fine.rate - coarse.rate) / abs(coarse.rate)
        require(rel <= 1e-2, f"block-time defect {rel}")
        return [fine.rate, coarse.rate, fine.leading, coarse.leading]

    def fv_deviation(self):
        if self.deviations:
            return self.deviations[-1]
        return super().fv_deviation()


class TrajectoryEnsemble(Workload):
    """Alternating Gillespie ensembles: (a) the qubit, many jumps per
    sample; (b) a seeded 4-level, 3-reservoir model, many short samples."""

    name = "trajectory-ensemble"
    KINDS = ["qubit", "four-level"]
    cycle = len(KINDS)
    QUBIT_SAMPLES = 10_000
    FOUR_SAMPLES = 40_000
    FOUR_JUMPS = 4.0            # mean jumps per sample of kind (b)
    TILTS = np.array([0.05, 0.1, 0.15])

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.inputs = {}
        for kind, model in (
                ("qubit", canonical_qubit()),
                ("four-level", random_model(
                    np.random.default_rng([self.seed, 2]), d=4, n_res=3))):
            rp = fcslab.trajectories.build_rate_process(model.system,
                                                         model.reservoirs)
            mom = fcslab.scgf.transport_moments(model, fd_check=False)
            if kind == "qubit":
                gap = fcslab.scgf.ScgfSolver(model).leading(
                    np.zeros(model.n_reservoirs)).gap
                horizon, n = 100.0 / gap, self.QUBIT_SAMPLES
            else:
                jump_rate = float(rp.stationary() @ rp.exit_rates)
                horizon, n = self.FOUR_JUMPS / jump_rate, self.FOUR_SAMPLES
            lam2 = model.lam ** 2
            self.inputs[kind] = dict(
                rp=rp, horizon=horizon, n=n,
                kappas=self.TILTS[:, None] * rp.betas[None, :],
                currents=mom.mean_currents / lam2,
                covariance=mom.covariance / lam2)
        self.clt_passed = []

    def kind(self, i):
        return self.KINDS[max(i, 0) % self.cycle]

    def prepare(self, i):
        return self.kind(i)

    def run(self, kind):
        inp = self.inputs[kind]
        ens = fcslab.trajectories.sample(inp["rp"], inp["horizon"], inp["n"],
                                         seed=self.seed, jobs=1)
        emp = fcslab.trajectories.empirical_scgf(ens, inp["kappas"])
        est, se = fcslab.trajectories.mean_current_estimates(ens)
        clt = fcslab.trajectories.clt_test(ens, inp["currents"],
                                           inp["covariance"])
        asym = fcslab.trajectories.entropy_asymmetry(ens)
        return ens, emp, est, se, clt, asym

    def check(self, kind, result):
        ens, emp, est, se, clt, asym = result
        rp = self.inputs[kind]["rp"]
        require(np.all(se > 0), f"current standard errors {se}")
        pulls = (est - rp.mean_currents()) / se
        require(np.abs(pulls).max() <= 5.0, f"current pulls {pulls}")
        self.clt_passed.append(bool(clt.passed))
        return [ens.y, ens.n_jumps, emp.estimates, emp.std_errors, emp.ess,
                est, se, clt.p_values, clt.p_mahalanobis, asym[0], asym[1]]


class CliMix(Workload):
    """One fresh ``python -m fcslab <sub>`` process per request, on the
    canonical qubit config, with each subcommand's README invocation.

    trajectories samples 2000 instead of the README's 10000 trajectories,
    so that every subcommand takes about as long as the others.  The tail
    of a run then rests on the slowest of seven requests in each cycle,
    not on the two trajectories requests a run has room for.
    """

    name = "cli-mix"
    SUBS = [
        ("validate", []),
        ("generator", ["--kappa", "0.4,0"]),
        ("scgf-scan", ["--nu", "0:1:0.05"]),
        ("gc-check", []),
        ("moments", []),
        ("rate-function", ["--alpha=-0.003,0.003"]),
        ("trajectories", ["--nsamples", "2000", "--seed", "{seed}",
                          "--jobs", "1"]),
    ]
    cycle = len(SUBS)
    requests_in_children = True
    WALL = re.compile(rb'"wall_time_s":[^,}]*')

    def __init__(self, seed, root):
        super().__init__(seed, root)
        work = self.root / ".perfbench_work"
        work.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=work))
        self.config = self.dir / "qubit.yaml"
        self.config.write_text(CANONICAL_YAML)
        self.env = dict(os.environ)
        src = str(self.root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p)
        self.offset = self.seed % self.cycle
        self.count = 0
        self.children = []          # (subcommand, traced child's summary)

    def kind(self, i):
        return self.SUBS[(max(i, 0) + self.offset) % self.cycle][0]

    def prepare(self, i):
        name, extra = self.SUBS[(max(i, 0) + self.offset) % self.cycle]
        self.count += 1
        out = self.dir / f"out-{self.count}"
        argv = [name, "--config", str(self.config), "--out", str(out)]
        argv += [a.format(seed=self.seed) for a in extra]
        summary = None
        if self.traced:
            summary = self.dir / f"trace-{self.count}.json"
            cmd = [sys.executable, str(Path(__file__).with_name(
                "cli_child.py")), str(summary)] + argv
        else:
            cmd = [sys.executable, "-m", "fcslab"] + argv
        return dict(sub=name, cmd=cmd, out=out, summary=summary)

    def run(self, arg):
        proc = subprocess.run(arg["cmd"], env=self.env, cwd=self.root,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=120)
        return proc

    def check(self, arg, proc):
        try:
            require(proc.returncode == 0,
                    f"{arg['sub']} exited {proc.returncode}: "
                    f"{proc.stderr.decode(errors='replace')[-300:]}")
            files = sorted(p.name for p in arg["out"].iterdir())
            require("manifest.json" in files, f"no manifest in {files}")
            if arg["summary"] is not None:
                self.children.append(
                    (arg["sub"], json.loads(arg["summary"].read_text())))
            outputs = []
            for name in files:
                data = (arg["out"] / name).read_bytes()
                if name == "manifest.json":
                    data = self.WALL.sub(b'"wall_time_s":_', data)
                outputs.append(name.encode() + b"\0" + data)
            return outputs
        finally:
            shutil.rmtree(arg["out"], ignore_errors=True)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in
             (SpectralFleet, ExactQubit, TrajectoryEnsemble, CliMix)}
