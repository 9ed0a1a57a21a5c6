"""Full counting statistics of thermal energy transport through a small
quantum system, with weak-coupling generators, large-deviation functions,
exact finite-volume cross-checks, transfer-operator spectra, and stochastic
trajectory sampling."""

__version__ = "0.1.0"

from .model import (
    SystemSpec,
    SpectralDensity,
    ReservoirSpec,
    EffectiveDensity,
    ModelConfig,
    build_system,
    density_from_config,
    effective_density,
    bose_occupation,
    check_fgr_irreducibility,
    default_domain_box,
    make_model,
)
from .lindblad import (
    QuadratureParams,
    GeneratorParts,
    vec,
    unvec,
    principal_value,
    compute_upsilon,
    build_deformed_lindblad,
)
from .scgf import (
    ScgfSolver,
    ScgfResult,
    TransportMoments,
    transport_moments,
    gc_symmetry_defect,
    rate_function,
)
from .finite_volume import (
    ReservoirModes,
    FiniteVolumeModel,
    TpmDistribution,
    resonant_modes,
    assemble,
    characteristic_function,
    tpm_distribution,
    correlation_function,
    weak_coupling_compare,
)
from .transfer import (
    CompressedDynamics,
    PolymerBlocks,
    TransferOperator,
    compressed_map,
    compressed_step,
    extract_blocks,
    build_and_deform,
    transfer_instance,
)
from .trajectories import (
    RateProcess,
    TrajectoryEnsemble,
    EmpiricalScgf,
    CltReport,
    build_rate_process,
    sample,
    empirical_scgf,
    mean_current_estimates,
    clt_test,
    entropy_asymmetry,
)
from .config import (
    LoadedConfig,
    load_config,
    build_from_dict,
    model_to_dict,
    instance_to_dict,
    dump_config,
)
from . import errors

__all__ = [
    "SystemSpec", "SpectralDensity", "ReservoirSpec", "EffectiveDensity",
    "ModelConfig", "build_system", "density_from_config", "effective_density",
    "bose_occupation", "check_fgr_irreducibility", "default_domain_box",
    "make_model",
    "QuadratureParams", "GeneratorParts", "vec", "unvec",
    "principal_value", "compute_upsilon", "build_deformed_lindblad",
    "ScgfSolver", "ScgfResult", "TransportMoments", "transport_moments",
    "gc_symmetry_defect", "rate_function",
    "ReservoirModes", "FiniteVolumeModel", "TpmDistribution",
    "resonant_modes", "assemble",
    "characteristic_function", "tpm_distribution", "correlation_function",
    "weak_coupling_compare",
    "CompressedDynamics", "PolymerBlocks", "TransferOperator",
    "compressed_map", "compressed_step", "extract_blocks", "build_and_deform",
    "transfer_instance",
    "RateProcess", "TrajectoryEnsemble", "EmpiricalScgf", "CltReport",
    "build_rate_process", "sample", "empirical_scgf",
    "mean_current_estimates", "clt_test", "entropy_asymmetry",
    "LoadedConfig", "load_config", "build_from_dict", "model_to_dict",
    "instance_to_dict", "dump_config",
    "errors",
]
