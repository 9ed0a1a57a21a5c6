"""Strict model configuration files.

YAML with three fixed sections (`system`, `reservoirs`, `run`) and an
optional `modes` section that pins an exact finite-volume discretization.
Matrices are written as row-major flat lists of [re, im] pairs so files
stay valid YAML/JSON without any float-encoding tricks.  Unknown keys are
rejected with their full path; all value checking is delegated to the model
constructors so the file format cannot drift from the library.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np
import yaml

from .errors import ConfigError
from .lindblad import QuadratureParams
from .model import ReservoirSpec, density_from_config, make_model

_SYSTEM_KEYS = {"hamiltonian", "degeneracy_tol"}
_RESERVOIR_KEYS = {"label", "beta", "coupling", "density", "zero_frequency"}
_RUN_KEYS = {"lambda", "rho_system", "domain_box", "variant", "lamb_shift",
             "quadrature"}
_MODES_KEYS = {"label", "frequencies", "couplings", "n_occ"}


def _require_mapping(value, path):
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be a mapping")
    return value


def _reject_unknown(mapping, allowed, path):
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown key {path}.{unknown[0]}")


def _number(value, path):
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{path} must be a number, got {value!r}") from None


def _matrix(value, path):
    """Row-major flat list of [re, im] pairs -> complex square matrix."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path} must be a non-empty list of [re, im] "
                          "pairs")
    d = math.isqrt(len(value))
    if d * d != len(value):
        raise ConfigError(f"{path} has {len(value)} entries; need a square "
                          "count")
    out = np.empty(d * d, dtype=complex)
    for i, pair in enumerate(value):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(x, (int, float)) for x in pair)):
            raise ConfigError(f"{path}[{i}] must be an [re, im] pair")
        out[i] = complex(pair[0], pair[1])
    return out.reshape(d, d)


def matrix_to_pairs(m):
    m = np.asarray(m, dtype=complex)
    return [[float(x.real), float(x.imag)] for x in m.ravel()]


@dataclass
class LoadedConfig:
    """Parsed configuration: validated model, optional pinned modes, and the
    hash that run manifests cite."""

    model: object
    modes: list | None
    config_hash: str


def _build_reservoir(entry, path):
    entry = _require_mapping(entry, path)
    _reject_unknown(entry, _RESERVOIR_KEYS, path)
    for key in ("label", "beta", "coupling", "density"):
        if key not in entry:
            raise ConfigError(f"{path}.{key} is required")
    try:
        density = density_from_config(entry["density"])
    except ConfigError as err:
        raise ConfigError(f"{path}.density: {err}") from err
    return ReservoirSpec(
        label=str(entry["label"]),
        beta=_number(entry["beta"], f"{path}.beta"),
        coupling=_matrix(entry["coupling"], f"{path}.coupling"),
        density=density,
        zero_frequency=_number(entry.get("zero_frequency", 0.0),
                               f"{path}.zero_frequency"))


def _build_modes(section, reservoirs, path):
    from .finite_volume import ReservoirModes
    if not isinstance(section, list) or len(section) != len(reservoirs):
        raise ConfigError(f"{path} must list one entry per reservoir")
    modes = []
    for i, (entry, res) in enumerate(zip(section, reservoirs)):
        sub = f"{path}[{i}]"
        entry = _require_mapping(entry, sub)
        _reject_unknown(entry, _MODES_KEYS, sub)
        for key in ("frequencies", "couplings", "n_occ"):
            if key not in entry:
                raise ConfigError(f"{sub}.{key} is required")
        label = str(entry.get("label", res.label))
        if label != res.label:
            raise ConfigError(f"{sub}.label {label!r} does not match "
                              f"reservoir {res.label!r}")
        try:
            modes.append(ReservoirModes(
                label=res.label, beta=res.beta,
                frequencies=entry["frequencies"],
                couplings=entry["couplings"], n_max=entry["n_occ"]))
        except ConfigError as err:
            raise ConfigError(f"{sub}: {err}") from err
    return modes


def build_from_dict(data, config_hash=""):
    data = _require_mapping(data, "config")
    _reject_unknown(data, {"system", "reservoirs", "run", "modes"}, "config")
    for key in ("system", "reservoirs", "run"):
        if key not in data:
            raise ConfigError(f"config.{key} section is required")

    system = _require_mapping(data["system"], "system")
    _reject_unknown(system, _SYSTEM_KEYS, "system")
    if "hamiltonian" not in system:
        raise ConfigError("system.hamiltonian is required")
    hamiltonian = _matrix(system["hamiltonian"], "system.hamiltonian")

    if not isinstance(data["reservoirs"], list) or not data["reservoirs"]:
        raise ConfigError("reservoirs must be a non-empty list")
    reservoirs = [_build_reservoir(entry, f"reservoirs[{i}]")
                  for i, entry in enumerate(data["reservoirs"])]

    run = _require_mapping(data["run"], "run")
    _reject_unknown(run, _RUN_KEYS, "run")
    if "lambda" not in run:
        raise ConfigError("run.lambda is required")
    kwargs = {"lam": _number(run["lambda"], "run.lambda")}
    if "degeneracy_tol" in system:
        kwargs["degeneracy_tol"] = _number(system["degeneracy_tol"],
                                           "system.degeneracy_tol")
    if "rho_system" in run:
        kwargs["rho_system"] = _matrix(run["rho_system"], "run.rho_system")
    if "domain_box" in run:
        try:
            kwargs["domain_box"] = np.asarray(run["domain_box"], dtype=float)
        except (TypeError, ValueError):
            raise ConfigError("run.domain_box must hold numbers") from None
    if "variant" in run:
        kwargs["variant"] = str(run["variant"])
    if "lamb_shift" in run:
        if not isinstance(run["lamb_shift"], bool):
            raise ConfigError("run.lamb_shift must be true or false")
        kwargs["lamb_shift"] = run["lamb_shift"]
    if "quadrature" in run:
        quadrature = _require_mapping(run["quadrature"], "run.quadrature")
        try:
            QuadratureParams.from_mapping(quadrature)
        except ConfigError as err:
            raise ConfigError(f"run.quadrature: {err}") from err
        kwargs["quadrature"] = quadrature
    model = make_model(hamiltonian, reservoirs, **kwargs)

    modes = None
    if "modes" in data:
        modes = _build_modes(data["modes"], reservoirs, "modes")
    return LoadedConfig(model=model, modes=modes, config_hash=config_hash)


def load_config(path):
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        data = yaml.safe_load(blob)
    except yaml.YAMLError as err:
        raise ConfigError(f"config {path} is not valid YAML: {err}") from err
    return build_from_dict(data, config_hash=hashlib.sha256(blob)
                           .hexdigest()[:16])


def model_to_dict(model):
    """Round-trippable config tree for a validated model."""
    reservoirs = [{
        "label": res.label,
        "beta": float(res.beta),
        "coupling": matrix_to_pairs(res.coupling),
        "density": res.density.config_dict(),
        "zero_frequency": float(res.zero_frequency),
    } for res in model.reservoirs]
    tree = {
        "system": {
            "hamiltonian": matrix_to_pairs(model.system.hamiltonian),
            "degeneracy_tol": float(model.system.degeneracy_tol),
        },
        "reservoirs": reservoirs,
        "run": {
            "lambda": float(model.lam),
            "rho_system": matrix_to_pairs(model.rho_system),
            "domain_box": [[float(a), float(b)] for a, b in model.domain_box],
            "variant": model.variant,
            "lamb_shift": bool(model.lamb_shift),
        },
    }
    if model.quadrature:
        # numpy scalars become the Python scalars YAML can represent
        tree["run"]["quadrature"] = {
            key: value.item() if isinstance(value, np.generic) else value
            for key, value in model.quadrature.items()}
    return tree


def instance_to_dict(model, modes):
    """Model plus pinned discretization, reproducing an fv instance
    exactly (modulo the assembly dimension cap)."""
    tree = model_to_dict(model)
    tree["modes"] = [{
        "label": m.label,
        "frequencies": [float(x) for x in m.frequencies],
        "couplings": [float(x) for x in m.couplings],
        "n_occ": int(m.n_max),
    } for m in modes]
    return tree


def dump_config(tree, path):
    with open(path, "w") as fh:
        yaml.safe_dump(tree, fh, sort_keys=False, default_flow_style=None)


def canonical_hash(tree):
    """Hash of the canonical JSON form of a config tree."""
    blob = json.dumps(tree, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
