"""Exception and warning types shared across the package.

Two error families matter for the command line tool: ConfigError means the
user gave us something malformed, while AssumptionError subclasses mean a
numerical hypothesis the method relies on failed at run time.  The CLI maps
the former to exit code 2 and every other FcsError to exit code 3; any other
exception is a defect and ends the run with a traceback.
"""


class FcsError(Exception):
    """Base class for everything raised deliberately by this package."""


class ConfigError(FcsError):
    """Malformed configuration input (unknown key, wrong shape, bad value)."""


class AssumptionError(FcsError):
    """A numerical assumption required by the requested computation failed.

    Instances carry an optional `diagnostics` dict with machine-readable
    context (offending values, tolerances) for the CLI error report.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics) if diagnostics else {}


# -- model construction ------------------------------------------------------

class NonHermitianInput(ConfigError):
    """Matrix required to be Hermitian is not, beyond tolerance."""


class NonPositiveTemperature(ConfigError):
    """Reservoir inverse temperature must be finite and > 0."""


class DegenerateBohrCollision(AssumptionError):
    """Two distinct Bohr frequencies closer than the degeneracy tolerance."""


class DensityEvaluationFailure(AssumptionError):
    """Spectral density returned NaN, a negative value, or overflowed."""


# -- quadrature and generator assembly --------------------------------------

class QuadratureNotConverged(AssumptionError):
    """Principal-value integral did not converge under node doubling."""


class KappaOutsideDomain(AssumptionError):
    """Deformation vector left the integrability domain box."""


# -- spectral problems -------------------------------------------------------

class EigenvalueCollision(AssumptionError):
    """Leading eigenvalue not simple within tolerance."""


class NonRealLeader(AssumptionError):
    """Leading eigenvalue carries an imaginary part beyond tolerance."""


class DerivativeMismatch(AssumptionError):
    """Analytic eigenvalue derivative disagrees with finite differences."""


class NonConvexObjective(AssumptionError):
    """Numerical convexity check of the Legendre objective failed."""


# -- finite volume -----------------------------------------------------------

class EmptyRange(ConfigError):
    """Discretization range is empty or leaves (0, infinity)."""


class DimensionCap(ConfigError):
    """Requested finite-volume Hilbert space exceeds the configured cap."""


class OverflowGuard(AssumptionError):
    """Counting weights would overflow double precision."""


class NoExponentialDecay(AssumptionError):
    """Deformed bath correlation function admits no exponential fit."""


class RecurrenceHorizonExceeded(AssumptionError):
    """Requested evolution time exceeds the discretization recurrence horizon."""


class TruncationWarning(UserWarning):
    """Per-mode thermal occupation tail beyond the Fock cap is not negligible."""


# -- transfer operator -------------------------------------------------------

class DeformationTooWeak(AssumptionError):
    """Lattice deformation cannot isolate the leading transfer eigenvalue."""


# -- trajectories ------------------------------------------------------------

class PopulationReductionInvalid(AssumptionError):
    """Jump process on populations undefined (degenerate system spectrum)."""


class EffectiveSampleCollapse(AssumptionError):
    """Reweighted ensemble carries too few effective samples."""


class SimpleEigenvalueWarning(UserWarning):
    """Irreducibility not verified; leading eigenvalue may fail to be simple."""
