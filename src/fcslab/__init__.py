"""Full counting statistics of thermal energy transport through a small
quantum system, with weak-coupling generators, large-deviation functions,
exact finite-volume cross-checks, transfer-operator spectra, and stochastic
trajectory sampling.

Submodules and the public names below load on first use (PEP 562), so
``import fcslab`` costs no SciPy import until something needs it."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "model": (
        "SystemSpec", "SpectralDensity", "ReservoirSpec", "EffectiveDensity",
        "ModelConfig", "build_system", "density_from_config",
        "effective_density", "bose_occupation", "check_fgr_irreducibility",
        "correlation_decay_rate", "default_domain_box", "make_model"),
    "lindblad": (
        "QuadratureParams", "GeneratorParts", "vec", "unvec",
        "principal_value", "compute_upsilon", "build_deformed_lindblad"),
    "scgf": (
        "ScgfSolver", "ScgfResult", "TransportMoments", "transport_moments",
        "gc_symmetry_defect", "rate_function"),
    "finite_volume": (
        "ReservoirModes", "FiniteVolumeModel", "TpmDistribution",
        "resonant_modes", "assemble", "characteristic_function",
        "tpm_distribution", "weak_coupling_compare"),
    "transfer": (
        "CompressedDynamics", "PolymerBlocks", "TransferOperator",
        "compressed_map", "compressed_step", "extract_blocks",
        "build_and_deform", "transfer_instance"),
    "trajectories": (
        "RateProcess", "TrajectoryEnsemble", "EmpiricalScgf", "CltReport",
        "build_rate_process", "sample", "empirical_scgf",
        "mean_current_estimates", "clt_test", "entropy_asymmetry"),
    "config": (
        "LoadedConfig", "load_config", "build_from_dict", "model_to_dict",
        "instance_to_dict", "dump_config"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "errors")

__all__ = [*_HOME, "errors"]


def __getattr__(name):
    # not cached here: fcslab.X is always what its home module holds now
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"),
                       name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
