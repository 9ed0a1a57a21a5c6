"""Command line entry point.

One executable with ten subcommands covering validation, generator
assembly, generating-function scans, symmetry checks, moments, rate
functions, the exact finite-volume cross-checks, the transfer-operator
spectrum, and trajectory sampling.  Every run writes a manifest.json whose
hash is stamped into each emitted CSV (first line) and JSON ("manifest"
key), so data files trace back to the exact configuration.  Numeric output
carries 17 significant digits.  Parameter precedence is config file, then
FCSLAB_<FLAG> environment variables, then explicit flags; a flag taken from
the environment is recorded in the manifest like an explicit one.

Exit codes: 0 success, 2 malformed configuration or flags, 3 a numerical
assumption failed; for code 3 a diagnostic JSON goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    canonical_hash,
    dump_config,
    instance_to_dict,
    load_config,
    matrix_to_pairs,
)
from .errors import ConfigError, FcsError
from .lindblad import build_deformed_lindblad
from .model import check_fgr_irreducibility, correlation_decay_rate

ENV_PREFIX = "FCSLAB_"


def _fmt(x):
    return f"{float(x):.17g}"


def _json_value(obj):
    """Canonical JSON with %.17g floats, null for a non-finite one (JSON has
    no inf or nan); deterministic key order."""
    if isinstance(obj, dict):
        items = ",".join(f"{json.dumps(k)}:{_json_value(obj[k])}"
                         for k in sorted(obj))
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_json_value(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj) if np.isfinite(obj) else "null"
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _complex_pair(z):
    return [float(np.real(z)), float(np.imag(z))]


# ---------------------------------------------------------------------------
# parameter resolution: config < environment < flags
# ---------------------------------------------------------------------------

def _fill_from_environment(args):
    """Set each flag the command line left out from FCSLAB_<FLAG>, where
    FLAG is the flag's name in upper case (--lambda is stored as lam)."""
    for dest, value in vars(args).items():
        if value is None:
            flag = "lambda" if dest == "lam" else dest
            env = os.environ.get(ENV_PREFIX + flag.upper())
            if env is not None:
                setattr(args, dest, env)


def _resolve(args, name, default=None, cast=str):
    value = getattr(args, name, None)
    if value is None:
        return default
    try:
        return cast(value)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad value for --{name}: {err}") from err


def _float_list(text):
    return [float(x) for x in str(text).split(",") if x != ""]


def _points(values, n_res, default):
    """kappa/alpha point lists: repeatable flags, ';'-separated in each."""
    if values is None:
        return [np.asarray(p, dtype=float) for p in default]
    chunks = []
    for value in (values if isinstance(values, list) else [values]):
        chunks.extend(p for p in str(value).split(";") if p)
    points = []
    for chunk in chunks:
        vec = np.asarray(_float_list(chunk), dtype=float)
        if len(vec) != n_res:
            raise ConfigError(
                f"point '{chunk}' has {len(vec)} entries; the model has "
                f"{n_res} reservoirs")
        points.append(vec)
    if not points:
        raise ConfigError("no points given")
    return points


def _single(values, flag):
    """The one value of a flag that a subcommand does not loop over; a
    second value is an error, not silently dropped."""
    if len(values) != 1:
        raise ConfigError(f"{flag} takes one value here, got {len(values)}")
    return values[0]


def _nu_grid(text):
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ConfigError("--nu must be start:stop:step")
    start, stop, step = (float(p) for p in parts)
    if step <= 0 or stop < start:
        raise ConfigError("--nu needs step > 0 and stop >= start")
    n = int(round((stop - start) / step))
    grid = start + step * np.arange(n + 1)
    return grid[grid <= stop + 1e-12 * max(1.0, abs(stop))]


def _refuse_sizing(args, flags):
    """A pinned modes section fixes the instance, so a sizing flag (given
    or taken from the environment) would be ignored: refuse it instead."""
    for flag in flags:
        if getattr(args, flag) is not None:
            raise ConfigError(f"--{flag} sizes the instance, but the "
                              "config's modes section pins it")


def _betas(model):
    return np.array([r.beta for r in model.reservoirs])


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

class _Emitter:
    def __init__(self, out_dir, manifest_hash):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.hash = manifest_hash
        self.files = []

    def csv(self, name, header, rows):
        path = self.out / name
        with open(path, "w") as fh:
            fh.write(f"# manifest {self.hash}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        self.files.append(name)
        return path

    def json(self, name, payload):
        payload = dict(payload)
        payload["manifest"] = self.hash
        path = self.out / name
        with open(path, "w") as fh:
            fh.write(_json_value(payload) + "\n")
        self.files.append(name)
        return path

    def config(self, name, tree):
        dump_config(tree, self.out / name)
        self.files.append(name)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(cfg, args, emit):
    model = cfg.model
    irreducible, witness = check_fgr_irreducibility(model.system,
                                                    model.reservoirs)
    payload = {
        "dim": model.system.dim,
        "energies": [float(e) for e in model.system.energies],
        "multiplicities": [int(m) for m in model.system.multiplicities],
        "bohr_set": [float(w) for w in model.system.bohr_frequencies],
        "fgr_irreducible": bool(irreducible),
        "reservoirs": [{"label": r.label, "beta": float(r.beta),
                        "correlation_decay_rate": correlation_decay_rate(r)}
                       for r in model.reservoirs],
        "lambda": float(model.lam),
        "pinned_modes": cfg.modes is not None,
    }
    emit.json("validate.json", payload)
    bohr = " ".join(_fmt(w) for w in model.system.bohr_frequencies)
    return f"bohr set [{bohr}]; fgr irreducible: {irreducible}"


def cmd_generator(cfg, args, emit):
    model = cfg.model
    kappa = _single(_points(args.kappa, model.n_reservoirs,
                            [np.zeros(model.n_reservoirs)]), "--kappa")
    parts = build_deformed_lindblad(model, kappa)
    matrix = parts.heisenberg
    evals = np.linalg.eigvals(matrix)
    lead = evals[np.argmax(evals.real)]
    ones = np.eye(model.system.dim).ravel(order="F")
    # the jump terms do not depend on kappa, so re-tilting to zero gives
    # the kappa = 0 generator without a second build
    dual_at_zero = parts.assemble(np.zeros(model.n_reservoirs)).conj().T
    trace_defect = float(np.abs(ones @ dual_at_zero).max())
    emit.json("generator.json", {
        "kappa": [float(k) for k in kappa],
        "dim": model.system.dim,
        "matrix": matrix_to_pairs(matrix),
        "eigenvalues": [_complex_pair(z) for z in evals],
        "leading": _complex_pair(lead),
        "trace_defect_at_zero": trace_defect,
    })
    return (f"leading eigenvalue {_fmt(lead.real)} "
            f"{'+' if lead.imag >= 0 else '-'} {_fmt(abs(lead.imag))}i")


def cmd_scgf_scan(cfg, args, emit):
    from .scgf import ScgfSolver
    model = cfg.model
    solver = ScgfSolver(model)
    betas = _betas(model)
    if args.kappa is not None:
        points = _points(args.kappa, model.n_reservoirs, None)
    else:
        nus = _nu_grid(args.nu if args.nu is not None else "0:1:0.05")
        points = [nu * betas for nu in nus]
    rows = []
    for kap in points:
        res = solver.leading(kap)
        rows.append([_fmt(x) for x in kap] + [_fmt(res.f), _fmt(res.gap)])
    header = [f"kappa_{r.label}" for r in model.reservoirs] + ["f", "gap"]
    emit.csv("scgf.csv", header, rows)
    return f"scanned {len(points)} deformation points"


def cmd_gc_check(cfg, args, emit):
    from .scgf import gc_symmetry_defect
    model = cfg.model
    nus = _nu_grid(args.nu if args.nu is not None else "0:1:0.05")
    scan = gc_symmetry_defect(model, nu_grid=nus)
    rows = [[_fmt(nu), _fmt(fwd), _fmt(mir), _fmt(abs(fwd - mir))]
            for nu, fwd, mir in zip(scan.nu, scan.f_forward, scan.f_mirrored)]
    emit.csv("gc.csv", ["nu", "f_forward", "f_mirrored", "defect"], rows)
    emit.json("gc.json", {"max_defect": scan.defect,
                          "n_points": len(scan.nu)})
    return f"max symmetry defect {_fmt(scan.defect)}"


def cmd_moments(cfg, args, emit):
    from .scgf import transport_moments
    mom = transport_moments(cfg.model)
    emit.json("moments.json", {
        "mean_currents": [float(x) for x in mom.mean_currents],
        "covariance": [[float(x) for x in row] for row in mom.covariance],
        "entropy_production_rate": mom.entropy_production_rate,
        "fd_gradient_error": mom.fd_gradient_error,
        "fd_hessian_error": mom.fd_hessian_error,
    })
    return f"entropy production rate {_fmt(mom.entropy_production_rate)}"


def cmd_rate_function(cfg, args, emit):
    from .scgf import rate_function
    model = cfg.model
    active = list(range(model.n_reservoirs))
    if args.active is not None:
        try:
            active = [int(x) for x in args.active.split(",") if x != ""]
        except ValueError as err:
            raise ConfigError(f"bad value for --active: {err}") from err
    if args.alpha is None:
        raise ConfigError("rate-function needs at least one --alpha point")
    alphas = _points(args.alpha, len(active), None)
    table = rate_function(model, np.array(alphas), active=active)
    rows = []
    for point in table.points:
        rows.append([_fmt(a) for a in point.alpha]
                    + [_fmt(point.value)]
                    + [_fmt(k) for k in point.argmin]
                    + [str(int(point.boundary)), str(int(point.converged))])
    header = ([f"alpha_{i}" for i in active] + ["rate"]
              + [f"kappa_star_{i}" for i in active]
              + ["boundary", "converged"])
    emit.csv("rate.csv", header, rows)
    return f"evaluated rate function at {len(rows)} points"


def cmd_fv_compare(cfg, args, emit):
    from .finite_volume import weak_coupling_compare
    if cfg.modes is not None:
        raise ConfigError("fv-compare sizes one instance per lambda, so it "
                          "cannot use the config's pinned modes section")
    model = cfg.model
    lams = _resolve(args, "lam", default=[model.lam], cast=_float_list)
    betas = _betas(model)
    kappas = _points(args.kappa, model.n_reservoirs, [0.25 * betas])
    table = weak_coupling_compare(
        model, kappas, lams,
        n_modes=_resolve(args, "modes", 3, int),
        n_max=_resolve(args, "nocc", 2, int),
        t_factor=_resolve(args, "tfactor", 1.0, float),
        spacing_margin=_resolve(args, "margin", 0.8, float))
    rows = []
    for r in table.rows:
        rows.append([_fmt(r.lam), _fmt(r.t)] + [_fmt(k) for k in r.kappa]
                    + [_fmt(r.chi), _fmt(r.f_finite), _fmt(r.f_fgr),
                       _fmt(r.deviation)])
    header = (["lambda", "t"]
              + [f"kappa_{r.label}" for r in model.reservoirs]
              + ["chi", "f_finite", "f_fgr", "deviation"])
    emit.csv("fv_compare.csv", header, rows)
    meds = {_fmt(lam): table.median_deviation(lam) for lam in table.lams()}
    emit.json("fv_compare.json", {"median_deviation": meds})
    return f"compared {len(rows)} (lambda, kappa) pairs"


def cmd_fv_tpm(cfg, args, emit):
    from .finite_volume import (assemble, characteristic_function,
                                resonant_instance, tpm_distribution)
    model = cfg.model
    t = _resolve(args, "tmax", 5.0, float)
    kappa = _single(_points(args.kappa, model.n_reservoirs,
                            [0.25 * _betas(model)]), "--kappa")
    if cfg.modes is not None:
        _refuse_sizing(args, ("modes", "nocc", "margin"))
        fv = assemble(model, cfg.modes)
    else:
        fv = resonant_instance(model, t, _resolve(args, "modes", 3, int),
                               _resolve(args, "nocc", 2, int),
                               _resolve(args, "margin", 0.8, float))
    dist = tpm_distribution(fv, model.rho_system, t)
    chi = characteristic_function(fv, model.rho_system, kappa, t)
    laplace = dist.laplace(kappa)
    rows = [[_fmt(y) for y in dist.support[i]]
            + [_fmt(dist.probabilities[i])]
            for i in range(len(dist.probabilities))]
    header = [f"y_{r.label}" for r in model.reservoirs] + ["probability"]
    emit.csv("tpm.csv", header, rows)
    emit.json("tpm.json", {
        "t": t,
        "kappa": [float(k) for k in kappa],
        "dimension": fv.dim,
        "n_atoms": len(dist.probabilities),
        "total_probability": dist.total(),
        "mean": [float(x) for x in dist.mean()],
        "chi": _complex_pair(chi),
        "laplace_minus_chi": float(abs(laplace - chi)),
    })
    emit.config("instance.yaml", instance_to_dict(model, fv.modes))
    return (f"{len(dist.probabilities)} atoms, total probability "
            f"{_fmt(dist.total())}")


def cmd_transfer(cfg, args, emit):
    from .finite_volume import assemble
    from .scgf import ScgfSolver
    from .transfer import (build_and_deform, compressed_step, extract_blocks,
                           transfer_instance)
    model = cfg.model
    lam = _single(_resolve(args, "lam", default=[model.lam],
                           cast=_float_list), "--lambda")
    tau = _resolve(args, "tau", 0.2, float)
    n_max = _resolve(args, "nmax", 2, int)
    kappa = _single(_points(args.kappa, model.n_reservoirs,
                            [0.25 * _betas(model)]), "--kappa")
    if cfg.modes is not None:
        _refuse_sizing(args, ("nblocks", "modes", "nocc", "margin"))
        fv = assemble(model.with_lam(lam), cfg.modes)
    else:
        n_blocks = _resolve(args, "nblocks", n_max, int)
        fv = transfer_instance(
            model, lam, tau=tau, n_blocks=n_blocks,
            n_modes=_resolve(args, "modes", 3, int),
            n_occ=_resolve(args, "nocc", 2, int),
            spacing_margin=_resolve(args, "margin", 1.0, float))
    blocks = extract_blocks(compressed_step(fv, kappa, tau, lam=lam),
                            n_max=n_max)
    op = build_and_deform(blocks,
                          n_block=_resolve(args, "nblock", 6, int))
    f_fgr = lam * lam * ScgfSolver(model).leading(kappa).eigenvalue.real
    emit.json("transfer.json", {
        "lambda": lam,
        "tau": tau,
        "kappa": [float(k) for k in kappa],
        "dimension": fv.dim,
        "block_norms": [float(x) for x in blocks.norms],
        "c_hat": blocks.c_hat,
        "delta": op.delta,
        "leading": _complex_pair(op.leading),
        "gap": op.gap,
        "rate": op.rate,
        "f_transfer": op.f_transfer,
        "f_fgr": f_fgr,
        "relative_gap": float(abs(op.f_transfer - f_fgr) / abs(f_fgr)),
        "psd_margin": op.psd_margin,
        "compression_residuals": [
            float(op.compression_residual(m))
            for m in range(1, min(n_max, 4) + 1)],
    })
    emit.config("instance.yaml",
                instance_to_dict(model.with_lam(lam), fv.modes))
    return (f"f_transfer {_fmt(op.f_transfer)} vs lambda^2 f "
            f"{_fmt(f_fgr)}")


def cmd_trajectories(cfg, args, emit):
    from .scgf import ScgfSolver, transport_moments
    from .trajectories import (build_rate_process, clt_test, empirical_scgf,
                               entropy_asymmetry, mean_current_estimates,
                               sample)
    model = cfg.model
    rp = build_rate_process(model.system, model.reservoirs)
    seed = _resolve(args, "seed", 0, int)
    jobs = _resolve(args, "jobs", os.cpu_count() or 1, int)
    n_samples = _resolve(args, "nsamples", 10_000, int)
    horizon = _resolve(args, "horizon", None, float)
    solver = ScgfSolver(model)
    if horizon is None:
        gap = solver.leading(np.zeros(model.n_reservoirs)).gap
        horizon = 100.0 / gap
    ens = sample(rp, horizon, n_samples, seed=seed, jobs=jobs)
    rows = [[str(i)] + [_fmt(v) for v in ens.y[i]] + [_fmt(ens.entropy[i])]
            for i in range(ens.n_samples)]
    emit.csv("trajectories.csv",
             ["sample"] + [f"y_{lbl}" for lbl in rp.labels] + ["entropy"],
             rows)

    betas = _betas(model)
    kappas = _points(args.kappa, model.n_reservoirs, [0.2 * betas])
    emp = empirical_scgf(ens, np.array(kappas))
    rows = []
    for i in range(len(kappas)):
        rows.append([_fmt(k) for k in emp.kappas[i]]
                    + [_fmt(emp.estimates[i]), _fmt(emp.std_errors[i]),
                       _fmt(emp.ess[i]), _fmt(emp.predicted[i]),
                       _fmt(emp.pulls()[i])])
    header = ([f"kappa_{r.label}" for r in model.reservoirs]
              + ["estimate", "std_error", "ess", "predicted", "pull"])
    emit.csv("traj_scgf.csv", header, rows)

    est, se = mean_current_estimates(ens)
    mom = transport_moments(solver, fd_check=False)
    lam2 = model.lam ** 2
    report = clt_test(ens, mom.mean_currents / lam2, mom.covariance / lam2)
    mids, ratios = entropy_asymmetry(ens)
    emit.json("traj_report.json", {
        "seed": seed,
        "n_samples": n_samples,
        "horizon": horizon,
        "mixing_ratio": ens.mixing_ratio,
        "mean_jumps": float(ens.n_jumps.mean()),
        "currents": {
            "estimate": [float(x) for x in est],
            "std_error": [float(x) for x in se],
            "predicted": [float(x) for x in rp.mean_currents()],
        },
        "clt": {
            "p_values": [float(p) for p in report.p_values],
            "p_mahalanobis": report.p_mahalanobis,
            "dropped_directions": report.n_dropped,
            "passed": report.passed,
        },
        "entropy_asymmetry": {
            "rate_midpoints": [float(x) for x in mids],
            "measured": [float(x) for x in ratios],
        },
    })
    return (f"{n_samples} samples over horizon {_fmt(horizon)}; "
            f"clt passed: {report.passed}")


_COMMANDS = {
    "validate": cmd_validate,
    "generator": cmd_generator,
    "scgf-scan": cmd_scgf_scan,
    "gc-check": cmd_gc_check,
    "moments": cmd_moments,
    "rate-function": cmd_rate_function,
    "fv-compare": cmd_fv_compare,
    "fv-tpm": cmd_fv_tpm,
    "transfer": cmd_transfer,
    "trajectories": cmd_trajectories,
}


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="model config YAML")
    common.add_argument("--out", default=None, help="output directory")

    parser = argparse.ArgumentParser(
        prog="fcslab",
        description="counting statistics of thermal energy transport")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **extra):
        p = sub.add_parser(name, parents=[common])
        for flag, kwargs in extra.items():
            p.add_argument(f"--{flag}", **kwargs)

    add("validate")
    add("generator", kappa={"action": "append"})
    add("scgf-scan", kappa={"action": "append"}, nu={})
    add("gc-check", nu={})
    add("moments")
    add("rate-function", alpha={"action": "append"}, active={})
    lam = {"lambda": {"dest": "lam"}}         # --lambda is a Python keyword
    add("fv-compare", kappa={"action": "append"}, **lam, modes={}, nocc={},
        tfactor={}, margin={})
    add("fv-tpm", kappa={"action": "append"}, tmax={}, modes={}, nocc={},
        margin={})
    add("transfer", kappa={"action": "append"}, **lam, tau={}, nmax={},
        nblocks={}, nblock={}, modes={}, nocc={}, margin={})
    add("trajectories", kappa={"action": "append"}, nsamples={}, horizon={},
        jobs={"help": "worker count"}, seed={"help": "base RNG seed"})
    return parser


def _error_payload(code, err):
    payload = {
        "error": type(err).__name__,
        "message": str(err),
        "exit_code": code,
    }
    diagnostics = getattr(err, "diagnostics", None)
    if diagnostics:
        payload["diagnostics"] = diagnostics
    return payload


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _fill_from_environment(args)
    start = time.monotonic()
    try:
        cfg = load_config(args.config)
        out_dir = _resolve(args, "out", ".", str)
        parameters = {
            k: (";".join(str(x) for x in v) if isinstance(v, list)
                else str(v))
            for k, v in sorted(vars(args).items())
            if k not in ("command", "out", "config") and v is not None}
        manifest_hash = canonical_hash({
            "config": cfg.config_hash,
            "subcommand": args.command,
            "parameters": parameters,
            "version": __version__,
        })
        emit = _Emitter(out_dir, manifest_hash)
        summary = _COMMANDS[args.command](cfg, args, emit)
        emit.json("manifest.json", {
            "config_hash": cfg.config_hash,
            "version": __version__,
            "subcommand": args.command,
            "parameters": parameters,
            "wall_time_s": time.monotonic() - start,
            "outputs": sorted(set(emit.files)),
        })
        print(f"{args.command}: {summary} [manifest {manifest_hash}]")
        return 0
    except ConfigError as err:
        json.dump(_error_payload(2, err), sys.stderr)
        sys.stderr.write("\n")
        return 2
    except FcsError as err:
        json.dump(_error_payload(3, err), sys.stderr)
        sys.stderr.write("\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
