"""Weak-coupling generator with counting deformation.

Everything acts on the d^2-dimensional operator space through column-major
vectorization: vec(A S B) = (B^T kron A) vec(S).  The deformed generator in
the Heisenberg (unital) convention is

    L_kappa(S) = -i (Upsilon S - S Upsilon^*)
                 + sum_k sum_omega 2 pi e^{-kappa_k omega} G_k(omega)
                   A_k(omega)^* S A_k(omega)

with level-shift operator

    Upsilon = sum_k sum_{(e,e')} 1_{E_e} D_k^* 1_{E_e'} D_k 1_{E_e}
              (-i pi G_k(omega) - H_k(omega)),     omega = e - e',

and H_k(omega) the principal-value transform of G_k at omega.  The secular
variant groups transitions by frequency, A_k(omega) = sum_{e-e'=omega}
1_{E_e'} D_k 1_{E_e}; the diagonal variant keeps one term per level pair.
Both coincide when all Bohr frequencies are simple.

At kappa = 0 the Heisenberg form annihilates the identity; its Hilbert-
Schmidt adjoint (the state-picture generator, `GeneratorParts.dual`) is the
trace-preserving one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, QuadratureNotConverged
from .model import effective_density

# ---------------------------------------------------------------------------
# vectorization
# ---------------------------------------------------------------------------


def vec(s):
    """Column-major vectorization of a matrix."""
    return np.asarray(s, dtype=complex).ravel(order="F")


def unvec(v, d=None):
    v = np.asarray(v, dtype=complex)
    if d is None:
        d = int(round(np.sqrt(v.size)))
    return v.reshape(d, d, order="F")


# ---------------------------------------------------------------------------
# principal-value transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureParams:
    """Controls for the principal-value integral.

    window: half-width of the symmetric interval around the singularity on
    which the integrand is regularized by subtracting G(omega).
    panels: composite Gauss-Legendre panels per smooth segment.
    nodes: starting nodes per panel; doubled until two successive levels
    agree to rel_tol, up to max_refine doublings.
    """

    window: float = 1.0
    panels: int = 8
    nodes: int = 12
    rel_tol: float = 1e-10
    max_refine: int = 7

    def __post_init__(self):
        if self.window <= 0 or self.panels < 1 or self.nodes < 2:
            raise ConfigError("quadrature parameters out of range")


def _panel_edges(a, b, breakpoints, max_panels):
    """Split [a, b] at interior breakpoints, then into roughly equal panels."""
    if b <= a:
        return []
    inner = sorted(p for p in breakpoints if a < p < b)
    edges = [a] + inner + [b]
    out = []
    per = max(2, max_panels // (len(edges) - 1))
    for lo, hi in zip(edges[:-1], edges[1:]):
        out.append(np.linspace(lo, hi, per + 1))
    return out


def _graded_edges(start, end, breakpoints, base):
    """Geometrically graded panels for a tail segment [start, end].

    Panel widths double moving away from `base` (the nearest window edge, so
    the nearest approach to the singularity), and segments are split at
    density breakpoints first.
    """
    if end <= start:
        return []
    inner = sorted(p for p in breakpoints if start < p < end)
    segments = [start] + inner + [end]
    all_panels = []
    for lo, hi in zip(segments[:-1], segments[1:]):
        width = hi - lo
        w = width / 2 ** 10
        if base <= lo:                       # grow rightwards from lo
            edges = [lo]
            x = lo
            while x + w < hi:
                edges.append(x + w)
                x += w
                w *= 2
            edges.append(hi)
        else:                                # base >= hi: grow leftwards
            edges = [hi]
            x = hi
            while x - w > lo:
                edges.append(x - w)
                x -= w
                w *= 2
            edges.append(lo)
            edges = edges[::-1]
        all_panels.append(np.array(edges))
    return all_panels


@functools.lru_cache(maxsize=32)
def _gauss_rule(nodes):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per node
    count (each leggauss call is an eigenvalue problem).  The arrays are
    shared by every caller, so they are read-only."""
    x0, w0 = np.polynomial.legendre.leggauss(nodes)
    x0.flags.writeable = False
    w0.flags.writeable = False
    return x0, w0


def _gauss_sum(fn, edge_arrays, nodes):
    x0, w0 = _gauss_rule(nodes)
    total = 0.0
    for edges in edge_arrays:
        lo = edges[:-1]
        hi = edges[1:]
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        pts = mid[:, None] + half[:, None] * x0[None, :]
        vals = fn(pts.ravel()).reshape(pts.shape)
        total += float(np.sum(half[:, None] * w0[None, :] * vals))
    return total


def principal_value(density, omega, quad=None):
    """H(omega) = PV integral of G(xi)/(xi - omega) over the real line.

    Splits the line into a symmetric window [omega - L, omega + L], where the
    integrand is replaced by (G(xi) - G(omega))/(xi - omega) (the subtracted
    log term vanishes by symmetry of the window), plus regular tails down to
    the effective support of G.  Composite Gauss-Legendre with node doubling;
    raises QuadratureNotConverged when doubling stalls.
    """
    if quad is None:
        quad = QuadratureParams()
    omega = float(omega)
    g_at = float(density(omega))
    lo, hi = density.support()
    lo = min(lo, omega - 2 * quad.window)
    hi = max(hi, omega + 2 * quad.window)
    breaks = density.breakpoints()

    half = quad.window
    win_lo, win_hi = omega - half, omega + half

    def window_fn(x):
        dx = x - omega
        g = density(x)
        out = np.empty_like(g)
        small = np.abs(dx) < 1e-13 * max(1.0, abs(omega))
        out[~small] = (g[~small] - g_at) / dx[~small]
        if np.any(small):
            # symmetric difference quotient just off the node
            h = 1e-7 * max(1.0, abs(omega))
            out[small] = (density(x[small] + h) - density(x[small] - h)) / (2 * h)
        return out

    def tail_fn(x):
        return density(x) / (x - omega)

    window_panels = _panel_edges(win_lo, win_hi, breaks + [omega], quad.panels)
    tail_left = _graded_edges(lo, win_lo, breaks, win_lo)
    tail_right = _graded_edges(win_hi, hi, breaks, win_hi)

    previous = None
    nodes = quad.nodes
    for _ in range(quad.max_refine + 1):
        val = (_gauss_sum(window_fn, window_panels, nodes)
               + _gauss_sum(tail_fn, tail_left, nodes)
               + _gauss_sum(tail_fn, tail_right, nodes))
        if previous is not None:
            if abs(val - previous) <= quad.rel_tol * max(1.0, abs(val)):
                return val
        previous = val
        nodes *= 2
    raise QuadratureNotConverged(
        f"principal value at omega={omega:.6g} did not converge "
        f"(last change {abs(val - previous):.3e})",
        diagnostics={"omega": omega, "last_value": val,
                     "last_change": abs(val - previous)})


# ---------------------------------------------------------------------------
# generator assembly
# ---------------------------------------------------------------------------

@dataclass
class GeneratorParts:
    """Assembled deformed generator plus the pieces it was built from.

    heisenberg: the d^2 x d^2 matrix of the unital-convention generator
    L_kappa in the column-major vec convention.
    dual: its conjugate transpose, the Hilbert-Schmidt adjoint
    (trace-preserving at kappa = 0).
    jump_terms: per (reservoir, omega) superoperator matrices S -> A^* S A
    with the 2 pi G factor included but without the counting weight, so
    re-tilting at another kappa is a cheap weighted sum.
    """

    dim: int
    lam: float
    kappa: np.ndarray
    variant: str
    upsilon: np.ndarray
    drift_matrix: np.ndarray
    jump_terms: list                   # entries (k, omega, matrix)
    channels: list = field(default_factory=list)   # (k, omega, rate, jump op)

    @property
    def heisenberg(self):
        return self.assemble(self.kappa)

    @property
    def dual(self):
        return self.assemble(self.kappa).conj().T

    def assemble(self, kappa):
        """Heisenberg-convention matrix of L_kappa for an arbitrary kappa."""
        kappa = np.asarray(kappa, dtype=float)
        total = self.drift_matrix.copy()
        for k, omega, mat in self.jump_terms:
            total += np.exp(-kappa[k] * omega) * mat
        return total

    def derivative(self, kappa, which, order=1):
        """d^order L_kappa / d kappa_which^order as a matrix."""
        kappa = np.asarray(kappa, dtype=float)
        d2 = self.dim * self.dim
        total = np.zeros((d2, d2), dtype=complex)
        for k, omega, mat in self.jump_terms:
            if k != which:
                continue
            total += (-omega) ** order * np.exp(-kappa[k] * omega) * mat
        return total


def _frequency_channels(system, coupling, dens):
    """Active (omega, level pair) channels for one reservoir.

    Yields (omega, e_index, ep_index, jump block 1_{E_e'} D 1_{E_e}).
    Channels with vanishing spectral weight or vanishing matrix element are
    dropped.
    """
    energies = system.energies
    proj = system.projections
    scale = max(1.0, float(np.abs(coupling).max()))
    for e in range(len(energies)):
        for ep in range(len(energies)):
            omega = float(energies[e] - energies[ep])
            g = float(dens(omega))
            if g <= 0.0:
                continue
            a = proj[ep] @ coupling @ proj[e]
            if np.abs(a).max() <= 1e-15 * scale:
                continue
            yield omega, e, ep, a


def compute_upsilon(system, reservoirs, quad=None, lamb_shift=True):
    """Level-shift operator Upsilon.

    Upsilon = sum over channels of M_{k,e,e'} (-i pi G_k(omega) - H_k(omega))
    with M = 1_{E_e} D^* 1_{E_e'} D 1_{E_e}.  With lamb_shift=False the
    H values are forced to 0 (dissipative part only).
    """
    d = system.dim
    upsilon = np.zeros((d, d), dtype=complex)
    for res in reservoirs:
        dens = effective_density(res)
        coupling = np.asarray(res.coupling, dtype=complex)
        h_cache = {}
        for omega, e, ep, a in _frequency_channels(system, coupling, dens):
            if omega not in h_cache:
                h_cache[omega] = (principal_value(dens, omega, quad)
                                  if lamb_shift else 0.0)
            m = a.conj().T @ a          # 1_{E_e} D^* 1_{E_e'} D 1_{E_e}
            upsilon += m * (-1j * np.pi * float(dens(omega)) - h_cache[omega])
    return upsilon


def build_deformed_lindblad(model, kappa, variant=None, quad=None):
    """Assemble the deformed weak-coupling generator for a validated model.

    Returns GeneratorParts.  kappa is checked against the model's domain box.
    """
    kappa = model.check_kappa(kappa)
    variant = variant or model.variant
    if variant not in ("secular", "diagonal"):
        raise ConfigError("variant must be 'secular' or 'diagonal'")
    quad = quad or (QuadratureParams(**model.quadrature) if model.quadrature
                    else None)
    system = model.system
    d = system.dim

    upsilon = compute_upsilon(system, model.reservoirs, quad=quad,
                              lamb_shift=model.lamb_shift)
    eye = np.eye(d)
    drift = -1j * (np.kron(eye, upsilon) - np.kron(upsilon.conj(), eye))

    jump_terms = []
    channels = []
    for k, res in enumerate(model.reservoirs):
        dens = effective_density(res)
        coupling = np.asarray(res.coupling, dtype=complex)
        per_freq = {}
        for omega, e, ep, a in _frequency_channels(system, coupling, dens):
            rate = 2.0 * np.pi * float(dens(omega))
            channels.append((k, omega, rate, a))
            if variant == "secular":
                if omega not in per_freq:
                    per_freq[omega] = np.zeros((d, d), dtype=complex)
                per_freq[omega] += a
            else:
                jump_terms.append((k, omega,
                                   rate * np.kron(a.T, a.conj().T)))
        if variant == "secular":
            for omega, a_total in per_freq.items():
                rate = 2.0 * np.pi * float(dens(omega))
                jump_terms.append((k, omega,
                                   rate * np.kron(a_total.T, a_total.conj().T)))

    return GeneratorParts(dim=d, lam=model.lam, kappa=kappa, variant=variant,
                          upsilon=upsilon, drift_matrix=drift,
                          jump_terms=jump_terms, channels=channels)

