"""Model data: system Hamiltonian, reservoirs, and effective spectral densities.

The small system is a finite d-level Hamiltonian E with eigenprojections
1_{E_e}.  Each reservoir k is a thermal bosonic field at inverse temperature
beta_k, coupled through a system operator D_k and a base spectral density
J_k(omega) >= 0 defined for omega > 0.  All weak-coupling objects downstream
are built from the effective density

    G_k(omega) = (1 + zeta_k(omega)) J_k(omega)   for omega > 0,
    G_k(omega) = zeta_k(-omega) J_k(-omega)       for omega < 0,

with zeta(omega) = 1/(e^{beta omega} - 1), so the detailed-balance identity
G_k(-omega) = e^{-beta_k omega} G_k(omega) holds by construction.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateBohrCollision,
    DensityEvaluationFailure,
    NonHermitianInput,
    NonPositiveTemperature,
)

HERMITICITY_TOL = 1e-12
# a level pair is a jump channel when max|1_{E_e'} D 1_{E_e}| exceeds this
# times max(1, max|D|) (and G(e - e') > 0); see jump_channels
CHANNEL_TOL = 1e-15


def _frozen(a):
    """Return a C-contiguous read-only copy of an array."""
    out = np.array(a, copy=True)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemSpec:
    """Diagonalized system Hamiltonian.

    energies[g] are the distinct eigenvalues (ascending), projections[g] the
    matching eigenprojections, bohr_frequencies the difference set
    sp E - sp E (sorted, symmetric, containing 0), and bohr_index[e, e'] the
    index in bohr_frequencies of the cluster holding energies[e] -
    energies[e'].
    """

    hamiltonian: np.ndarray
    energies: np.ndarray
    projections: np.ndarray       # (n_levels, d, d)
    multiplicities: np.ndarray
    bohr_frequencies: np.ndarray
    bohr_index: np.ndarray        # (n_levels, n_levels)
    eigenbasis: np.ndarray        # columns ordered by level group
    degeneracy_tol: float

    @property
    def dim(self):
        return self.hamiltonian.shape[0]

    @property
    def nondegenerate(self):
        return bool(np.all(self.multiplicities == 1))


def check_hermitian(matrix, name="matrix"):
    """Raise unless matrix (dense or scipy.sparse) is square and Hermitian
    to HERMITICITY_TOL relative to its largest entry (at least 1)."""
    # a sparse matrix means scipy.sparse is loaded; never import it here
    sparse = sys.modules.get("scipy.sparse")
    if sparse is not None and sparse.issparse(matrix):
        m = sparse.csr_matrix(matrix, dtype=complex)
    else:
        m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError(f"{name} must be square, got shape {m.shape}")
    scale = max(1.0, float(abs(m).max()))
    defect = float(abs(m - m.conj().T).max())
    if defect > HERMITICITY_TOL * scale:
        raise NonHermitianInput(
            f"{name} is not Hermitian: max |M - M^*| = {defect:.3e} "
            f"exceeds {HERMITICITY_TOL:.1e} * {scale:.3e}")


def require_hermitian(matrix, name="matrix"):
    """check_hermitian, then the Hermitian part 0.5 (M + M^*)."""
    check_hermitian(matrix, name)
    m = np.asarray(matrix, dtype=complex)
    return 0.5 * (m + m.conj().T)


def _cluster(values, tol):
    """Group sorted values into clusters whose consecutive gaps are < tol.

    Returns (representatives, labels) with representatives the cluster means.
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    labels = np.empty(len(values), dtype=int)
    reps = []
    current = []
    for idx in order:
        v = values[idx]
        if current and v - values[current[-1]] >= tol:
            reps.append(float(np.mean(values[current])))
            for j in current:
                labels[j] = len(reps) - 1
            current = []
        current.append(idx)
    if current:
        reps.append(float(np.mean(values[current])))
        for j in current:
            labels[j] = len(reps) - 1
    return np.array(reps), labels


def build_system(hamiltonian, degeneracy_tol=None):
    """Diagonalize E, group degenerate levels, and form the Bohr set.

    degeneracy_tol defaults to 1e-9 * max(1, spectral norm of E).  Eigenvalues
    closer than the tolerance are merged into one level.  If two *distinct*
    Bohr frequencies end up closer than the tolerance without coinciding,
    channel assignment is ambiguous and DegenerateBohrCollision is raised.
    """
    h = require_hermitian(hamiltonian, name="hamiltonian")
    eigvals, eigvecs = np.linalg.eigh(h)
    scale = max(1.0, float(np.abs(eigvals).max()) if len(eigvals) else 1.0)
    if degeneracy_tol is None:
        degeneracy_tol = 1e-9 * scale
    if degeneracy_tol <= 0:
        raise ConfigError("degeneracy_tol must be > 0")

    energies, labels = _cluster(eigvals, degeneracy_tol)
    n_levels = len(energies)
    d = h.shape[0]
    projections = np.zeros((n_levels, d, d), dtype=complex)
    mult = np.zeros(n_levels, dtype=int)
    for j in range(d):
        g = labels[j]
        v = eigvecs[:, j]
        projections[g] += np.outer(v, v.conj())
        mult[g] += 1

    # Bohr set from grouped energies: cluster all pairwise differences and
    # demand each cluster is a single frequency up to floating-point noise.
    # The clusters come out in ascending order, so a label is an index into
    # the Bohr set.
    diffs = (energies[:, None] - energies[None, :]).ravel()
    reps, dlabels = _cluster(diffs, degeneracy_tol)
    coincide_tol = max(1e-12 * scale, 64 * np.finfo(float).eps * scale)
    for g in range(len(reps)):
        members = diffs[dlabels == g]
        spread = float(members.max() - members.min())
        if spread > coincide_tol:
            raise DegenerateBohrCollision(
                "distinct Bohr frequencies closer than degeneracy_tol: "
                f"cluster around {reps[g]:.6g} has spread {spread:.3e}",
                diagnostics={"cluster": reps[g], "spread": spread,
                             "degeneracy_tol": degeneracy_tol})
    return SystemSpec(
        hamiltonian=_frozen(h),
        energies=_frozen(energies),
        projections=_frozen(projections),
        multiplicities=_frozen(mult),
        bohr_frequencies=_frozen(reps),
        bohr_index=_frozen(dlabels.reshape(n_levels, n_levels)),
        eigenbasis=_frozen(eigvecs),
        degeneracy_tol=float(degeneracy_tol),
    )


# ---------------------------------------------------------------------------
# base spectral densities
# ---------------------------------------------------------------------------

# parameter names and defaults of each form, in config_dict order; a table
# density takes its arrays instead
DENSITY_PARAMS = {
    "ohmic": {"gamma": 1.0, "exponent": 1.0, "cutoff": 1.0},
    "gaussian": {"gamma": 1.0, "exponent": 1.0, "cutoff": 1.0},
    "flat": {"height": 1.0, "omega_max": 1.0, "omega_min": 0.0},
    "table": {},
}


@dataclass(frozen=True)
class SpectralDensity:
    """Base density J(omega) on omega > 0, with shape metadata for quadrature.

    Forms:
      ohmic     J = gamma * omega^exponent * exp(-omega/cutoff)     (soft decay)
      gaussian  J = gamma * omega^exponent * exp(-(omega/cutoff)^2) (analytic)
      flat      J = height on (omega_min, omega_max], else 0        (hard edges)
      table     linear interpolation of (omega_i, value_i), 0 outside

    Note on the infrared end: the thermal weight turns J(0+) > 0 into an
    effective density growing like 1/(beta omega) near zero, whose
    principal-value transform diverges.  Flat densities meant to feed a
    level-shift computation should set omega_min > 0.
    """

    form: str
    params: dict = field(default_factory=dict)
    table_omega: np.ndarray | None = None
    table_value: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.form, str) or self.form not in DENSITY_PARAMS:
            raise ConfigError(f"unknown spectral density form '{self.form}'")
        defaults = DENSITY_PARAMS[self.form]
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown density parameter(s) {sorted(unknown)} "
                              f"for form '{self.form}'")
        p = {}
        for key, default in defaults.items():
            value = self.params.get(key, default)
            try:
                p[key] = float(value)
            except (TypeError, ValueError):
                raise ConfigError(f"{self.form} density {key} must be a "
                                  f"number, got {value!r}") from None
        object.__setattr__(self, "params", p)
        if self.form in ("ohmic", "gaussian"):
            if p["gamma"] < 0 or p["cutoff"] <= 0 or p["exponent"] <= 0:
                raise ConfigError(
                    f"{self.form} density needs gamma >= 0, exponent > 0, "
                    "cutoff > 0")
        elif self.form == "flat":
            wm, w0 = p["omega_max"], p["omega_min"]
            if p["height"] < 0 or wm <= 0 or w0 < 0 or w0 >= wm:
                raise ConfigError(
                    "flat density needs height >= 0, 0 <= omega_min < omega_max")
        else:
            if self.table_omega is None or self.table_value is None:
                raise ConfigError("table density needs omega and value arrays")
            w = np.asarray(self.table_omega, dtype=float)
            v = np.asarray(self.table_value, dtype=float)
            if w.ndim != 1 or w.shape != v.shape or len(w) < 2:
                raise ConfigError("table density arrays must be 1-d, equal length >= 2")
            if np.any(np.diff(w) <= 0) or w[0] < 0:
                raise ConfigError("table omega grid must be strictly increasing, >= 0")
            if np.any(v < 0) or not np.all(np.isfinite(v)):
                raise ConfigError("table density values must be finite and >= 0")
            object.__setattr__(self, "table_omega", _frozen(w))
            object.__setattr__(self, "table_value", _frozen(v))

    def __call__(self, omega):
        w = np.asarray(omega, dtype=float)
        scalar = w.ndim == 0
        w = np.atleast_1d(w)
        out = np.zeros_like(w)
        pos = w > 0
        if self.form in ("ohmic", "gaussian"):
            p = self.params
            wp = w[pos]
            arg = wp / p["cutoff"]
            if self.form == "gaussian":
                arg = arg * arg
            with np.errstate(over="ignore", under="ignore"):
                out[pos] = p["gamma"] * wp ** p["exponent"] * np.exp(-arg)
        elif self.form == "flat":
            p = self.params
            out[(w > p["omega_min"]) & (w <= p["omega_max"])] = p["height"]
        else:
            inside = pos & (w >= self.table_omega[0]) & (w <= self.table_omega[-1])
            out[inside] = np.interp(w[inside], self.table_omega, self.table_value)
        if not np.all(np.isfinite(out)):
            raise DensityEvaluationFailure(
                f"{self.form} density produced non-finite values")
        return float(out[0]) if scalar else out

    def support_max(self):
        """Upper end of the (effective) support of J."""
        if self.form == "flat":
            return self.params["omega_max"]
        if self.form == "table":
            return float(self.table_omega[-1])
        p = self.params
        if self.form == "gaussian":
            # exp(-x^2) < ~1e-19 beyond x ~ 6.6
            return p["cutoff"] * (7.0 + p["exponent"])
        # exponential cutoff: J < ~1e-19 * peak beyond ~50 cutoffs
        return p["cutoff"] * (50.0 + 2.0 * p["exponent"])

    def breakpoints(self):
        """Points on omega > 0 where J is not smooth (hard edges, knots)."""
        if self.form == "flat":
            pts = [self.params["omega_max"]]
            if self.params["omega_min"] > 0:
                pts.insert(0, self.params["omega_min"])
            return pts
        if self.form == "table":
            return [float(x) for x in self.table_omega]
        return []

    def config_dict(self):
        if self.form == "table":
            return {"form": "table",
                    "omega": [float(x) for x in self.table_omega],
                    "value": [float(x) for x in self.table_value]}
        return {"form": self.form, **{k: float(v) for k, v in self.params.items()}}


def density_from_config(cfg):
    """Build a SpectralDensity from a config mapping (see config module)."""
    if not isinstance(cfg, dict) or "form" not in cfg:
        raise ConfigError("density must be a mapping with a 'form' key")
    params = {k: v for k, v in cfg.items() if k != "form"}
    arrays = {}
    if cfg["form"] == "table":
        arrays = {"table_omega": params.pop("omega", None),
                  "table_value": params.pop("value", None)}
    return SpectralDensity(form=cfg["form"], params=params, **arrays)


# ---------------------------------------------------------------------------
# reservoirs and effective densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReservoirSpec:
    """One thermal reservoir: label, inverse temperature, coupling, density."""

    label: str
    beta: float
    coupling: np.ndarray
    density: SpectralDensity
    zero_frequency: float = 0.0   # value assigned to G(0); 0 unless overridden

    def __post_init__(self):
        b = float(self.beta)
        if not np.isfinite(b) or b <= 0:
            raise NonPositiveTemperature(
                f"reservoir '{self.label}': beta must be finite and > 0, got {b}")
        c = np.asarray(self.coupling, dtype=complex)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ConfigError(
                f"reservoir '{self.label}': coupling must be square, got {c.shape}")
        # the generator pairs A(-omega) with A(omega)^*, which needs D = D^*
        check_hermitian(c, name=f"reservoir '{self.label}' coupling")
        if not np.isfinite(self.zero_frequency) or self.zero_frequency < 0:
            raise ConfigError(
                "zero_frequency value of G must be finite and >= 0")
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "coupling", _frozen(c))

    @property
    def dim(self):
        return self.coupling.shape[0]


def bose_occupation(beta, omega):
    """zeta(omega) = 1/(e^{beta omega} - 1) for omega > 0, vectorized.

    Uses expm1 for accuracy at small beta*omega; overflow at large argument
    cleanly yields 0.
    """
    x = beta * np.asarray(omega, dtype=float)
    with np.errstate(over="ignore"):
        return 1.0 / np.expm1(x)


@dataclass(frozen=True)
class EffectiveDensity:
    """Thermally weighted density G(omega) on the full line.

    Callable and vectorized.  `fn` implements the two-branch formula; tests
    may substitute a custom fn (e.g. with detailed balance deliberately
    broken) while keeping the same interface.  support() and breakpoints()
    read `base`; a subclass built without one overrides both.
    """

    label: str
    beta: float
    fn: object                    # vectorized callable omega -> G(omega)
    base: SpectralDensity | None = None
    zero_frequency: float = 0.0

    def __call__(self, omega):
        w = np.asarray(omega, dtype=float)
        scalar = w.ndim == 0
        out = np.atleast_1d(np.asarray(self.fn(np.atleast_1d(w)), dtype=float))
        if np.any(out < 0) or not np.all(np.isfinite(out)):
            raise DensityEvaluationFailure(
                f"effective density '{self.label}' produced negative or "
                "non-finite values")
        return float(out[0]) if scalar else out

    def support(self):
        """Interval [lo, hi] outside which G is negligible (or exactly 0)."""
        hi = self.base.support_max()
        return (-hi, hi)

    def breakpoints(self):
        """Non-smooth points of G on the real line (always includes 0)."""
        pts = {0.0}
        for b in self.base.breakpoints():
            pts.add(b)
            pts.add(-b)
        return sorted(pts)


def effective_density(reservoir):
    """Standard construction of G_k from (beta_k, J_k).

    G(omega) = (1 + zeta(omega)) J(omega) on omega > 0 and
    G(omega) = zeta(-omega) J(-omega) on omega < 0; G(0) is the configured
    zero-frequency value (default 0).  Detailed balance
    G(-w) = e^{-beta w} G(w) is then an algebraic identity.
    """
    beta = reservoir.beta
    dens = reservoir.density
    g0 = float(reservoir.zero_frequency)

    def fn(w):
        w = np.asarray(w, dtype=float)
        out = np.empty_like(w)
        pos = w > 0
        neg = w < 0
        out[pos] = (1.0 + bose_occupation(beta, w[pos])) * dens(w[pos])
        out[neg] = bose_occupation(beta, -w[neg]) * dens(-w[neg])
        out[~(pos | neg)] = g0
        return out

    return EffectiveDensity(label=reservoir.label, beta=beta, fn=fn,
                            base=dens, zero_frequency=g0)


def correlation_decay_rate(reservoir):
    """Exponential decay rate of the reservoir correlation function, or None.

    The deformed correlation function C_kappa(t) = integral of
    e^{-kappa omega} G(omega) e^{-i omega t} d omega decays like e^{-alpha t}
    exactly when e^{-kappa omega} G(omega) extends analytically to the strip
    |Im omega| < alpha, and alpha is the strip's half-width (Paley-Wiener).
    e^{-kappa omega} is entire, so the rate does not depend on kappa, and
    zero_frequency changes G at one point only, so it changes no rate.

    gaussian with an odd integer exponent s: omega^s is odd, so the two
    branches of G are one formula on the whole line,
        G(omega) = gamma omega^s e^{-omega^2/cutoff^2} / (1 - e^{-beta omega}).
    Its poles are the Bose poles at omega = 2 pi i n / beta with n != 0 (the
    one at n = 0 cancels against omega^s), with nonzero residues, so the
    rate is 2 pi / beta.

    Every other density has a power-law tail, and None is returned:
      ohmic     e^{-|omega|/cutoff} kinks at 0, so |C(t)| ~ t^{-2};
      gaussian  with any other exponent G ~ |omega|^{s-1} at 0, so
                |C(t)| ~ t^{-s};
      flat      G jumps at the edges, so |C(t)| ~ t^{-1};
      table     G kinks at the knots (jumps at its ends), so |C(t)| ~ t^{-2}
                or slower.
    J(0+) > 0 (flat from omega_min = 0, a table with a positive value at 0)
    makes G ~ 1/(beta |omega|), which is not even integrable.

    gamma = 0, height = 0 or an all-zero table make G and C vanish, so C
    decays at every rate.  Such a reservoir returns 2 pi / beta, the rate of
    the analytic densities above: it is not reported as a violation, and
    the result stays a finite number that JSON can carry.
    """
    dens = reservoir.density
    p = dens.params
    if dens.form == "table":
        vanishing = not np.any(dens.table_value)
    else:
        vanishing = p.get("gamma", p.get("height")) == 0.0
    analytic = dens.form == "gaussian" and p["exponent"] % 2 == 1
    return 2.0 * np.pi / reservoir.beta if vanishing or analytic else None


# ---------------------------------------------------------------------------
# jump channels and the irreducibility of the weak-coupling dynamics
# ---------------------------------------------------------------------------

def jump_channels(system, reservoirs):
    """The jump-channel table: the one list that the generator, Upsilon,
    the irreducibility check and the rate process read.

    Returns one tuple per reservoir of (omega, b, G(omega), e, e', A) in
    level-pair order, for every pair with G(omega) > 0 and
    max|A| > CHANNEL_TOL * max(1, max|D|), where omega = e - e',
    b = system.bohr_index[e, e'] and A = 1_{E_e'} D 1_{E_e} (read-only).
    Each reservoir's G is evaluated on all level pairs in one density call.
    A model holds its table as ModelConfig.channels.
    """
    energies = system.energies
    proj = system.projections
    omegas = energies[:, None] - energies[None, :]
    table = []
    for res in reservoirs:
        coupling = np.asarray(res.coupling, dtype=complex)
        scale = max(1.0, float(np.abs(coupling).max()))
        weights = effective_density(res)(omegas.ravel()).reshape(omegas.shape)
        channels = []
        for e in range(len(energies)):
            for ep in range(len(energies)):
                g = float(weights[e, ep])
                if g <= 0.0:
                    continue
                a = proj[ep] @ coupling @ proj[e]
                if np.abs(a).max() <= CHANNEL_TOL * scale:
                    continue
                a.setflags(write=False)
                channels.append((float(energies[e] - energies[ep]),
                                 int(system.bohr_index[e, ep]), g, e, ep, a))
        table.append(tuple(channels))
    return tuple(table)


def check_fgr_irreducibility(system, channels):
    """Whether the jump blocks A of a jump_channels table act irreducibly.

    Irreducible means the commutant {S : [S, A] = 0 for every A} is the
    multiples of the identity.  Column-major vec convention:
    vec(SA - AS) = (A^T kron I - I kron A) vec(S), so the commutant's
    dimension is d^2 minus the rank of those matrices stacked, found by an
    SVD.  The decision does not depend on the basis the inputs are written
    in, so it is made once.
    """
    d = system.dim
    gens = [a for table in channels for *_, a in table]
    if not gens:
        return d == 1               # everything commutes
    eye = np.eye(d)
    stacked = np.vstack([np.kron(a.T, eye) - np.kron(eye, a) for a in gens])
    svals = np.linalg.svd(stacked, full_matrices=False)[1]
    tol = max(stacked.shape) * np.finfo(float).eps * svals[0]
    return d * d - int(np.sum(svals > tol)) == 1


# ---------------------------------------------------------------------------
# assembled model
# ---------------------------------------------------------------------------

def default_domain_box(reservoirs):
    """Per-reservoir integrability interval for the deformation parameter.

    e^{-kappa omega} G_k(omega) must stay integrable on both tails.  For an
    ohmic density with cutoff w_c the positive tail tolerates kappa down to
    -1/w_c and the negative tail up to beta + 1/w_c; a 0.9 safety factor
    keeps quadratures comfortable.  Hard-edged densities have compact
    support, so any finite box works; we still keep it moderate so counting
    weights stay far from overflow.
    """
    box = []
    for res in reservoirs:
        beta = res.beta
        dens = res.density
        if dens.form == "ohmic":
            margin = 0.9 / dens.params["cutoff"]
        else:
            margin = 2.0 + 1.0 / max(1.0, dens.support_max())
        box.append((-margin, beta + margin))
    return np.array(box, dtype=float)


@dataclass(frozen=True)
class ModelConfig:
    """Validated bundle: system + reservoirs + run parameters."""

    system: SystemSpec
    reservoirs: tuple
    lam: float
    rho_system: np.ndarray
    domain_box: np.ndarray
    quadrature: dict = field(default_factory=dict)

    def __post_init__(self):
        d = self.system.dim
        for res in self.reservoirs:
            if res.dim != d:
                raise ConfigError(
                    f"reservoir '{res.label}' coupling is {res.dim}x{res.dim}, "
                    f"system is {d}x{d}")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError("coupling strength lambda must be >= 0")
        from .lindblad import QuadratureParams
        QuadratureParams.from_mapping(self.quadrature)
        rho = require_hermitian(self.rho_system, name="rho_system")
        evals = np.linalg.eigvalsh(rho)
        if evals.min() < -1e-12 or abs(np.trace(rho).real - 1.0) > 1e-12:
            raise ConfigError(
                "rho_system must be positive semidefinite with unit trace")
        box = np.asarray(self.domain_box, dtype=float)
        if box.shape != (len(self.reservoirs), 2) or not np.all(box[:, 0] < box[:, 1]):
            raise ConfigError("domain_box must be one (lo < hi) pair per reservoir")
        object.__setattr__(self, "reservoirs", tuple(self.reservoirs))
        object.__setattr__(self, "rho_system", _frozen(rho))
        object.__setattr__(self, "domain_box", _frozen(box))

    @property
    def n_reservoirs(self):
        return len(self.reservoirs)

    @functools.cached_property
    def channels(self):
        """The model's jump_channels table, built on first use."""
        return jump_channels(self.system, self.reservoirs)

    def with_lam(self, lam):
        """Copy of the model at a different coupling strength."""
        return dataclasses.replace(self, lam=float(lam))

    def check_kappa(self, kappa):
        k = np.asarray(kappa, dtype=float)
        if k.shape != (self.n_reservoirs,):
            raise ConfigError(
                f"kappa must have one entry per reservoir, got shape {k.shape}")
        if not np.all(np.isfinite(k)):
            raise ConfigError(f"kappa must be finite, got {k.tolist()}")
        lo, hi = self.domain_box[:, 0], self.domain_box[:, 1]
        if np.any(k < lo) or np.any(k > hi):
            from .errors import KappaOutsideDomain
            raise KappaOutsideDomain(
                f"kappa {k.tolist()} leaves the domain box "
                f"{self.domain_box.tolist()}",
                diagnostics={"kappa": k.tolist(),
                             "domain_box": self.domain_box.tolist()})
        return k


def make_model(hamiltonian, reservoirs, lam, rho_system=None, domain_box=None,
               degeneracy_tol=None, quadrature=None):
    """Convenience constructor validating everything in one go."""
    system = build_system(hamiltonian, degeneracy_tol=degeneracy_tol)
    reservoirs = tuple(reservoirs)
    if rho_system is None:
        rho_system = np.eye(system.dim) / system.dim
    if domain_box is None:
        domain_box = default_domain_box(reservoirs)
    return ModelConfig(system=system, reservoirs=reservoirs, lam=float(lam),
                       rho_system=rho_system, domain_box=domain_box,
                       quadrature=dict(quadrature or {}))
