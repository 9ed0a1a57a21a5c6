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

and H_k(omega) the principal-value transform of G_k at omega.  Transitions
are grouped by Bohr cluster (the secular form), A_k(omega) =
sum_{e-e'=omega} 1_{E_e'} D_k 1_{E_e}, over the channels of the model's
`model.jump_channels` table (`ModelConfig.channels`).

At kappa = 0 the Heisenberg form annihilates the identity; its Hilbert-
Schmidt adjoint (the state-picture generator, `GeneratorParts.dual`) is the
trace-preserving one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from numbers import Integral, Real

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
    which the integrand is regularized by subtracting G(omega); finite, > 0.
    panels: composite Gauss-Legendre panels per smooth segment; integer >= 1.
    nodes: starting nodes per panel, integer >= 2; doubled until two
    successive levels agree to rel_tol (finite, > 0), up to max_refine
    doublings (integer >= 1).
    """

    window: float = 1.0
    panels: int = 8
    nodes: int = 12
    rel_tol: float = 1e-10
    max_refine: int = 7

    def __post_init__(self):
        for name, least in (("panels", 1), ("nodes", 2), ("max_refine", 1)):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, Integral)
                    or value < least):
                raise ConfigError(f"quadrature {name} must be an integer "
                                  f">= {least}, got {value!r}")
        for name in ("window", "rel_tol"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, Real)
                    or not math.isfinite(value) or value <= 0):
                raise ConfigError(f"quadrature {name} must be a finite "
                                  f"number > 0, got {value!r}")

    @classmethod
    def from_mapping(cls, mapping):
        """Parameters from a config mapping; unknown keys are rejected."""
        unknown = sorted(set(mapping) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown quadrature parameter {unknown[0]!r}")
        return cls(**mapping)


def _panel_edges(a, b, breakpoints, max_panels):
    """Split [a, b] at interior breakpoints, then into roughly equal panels.

    A gap of delta < (b - a) / 2**11 between two interior split points (a
    density breakpoint next to omega) puts a pole of the subtracted integrand
    within delta of the segments on either side of it, which node doubling
    cannot resolve.  Those segments are graded toward the gap: extra edges
    at 2 delta, 4 delta, ... from its far end, up to (b - a) / 2**11.
    """
    if b <= a:
        return []
    inner = sorted(p for p in breakpoints if a < p < b)
    edges = [a] + inner + [b]
    near = (b - a) / 2 ** 11
    gaps = np.diff(edges)
    steps = 2.0 ** np.arange(1, 64)
    out = []
    per = max(2, max_panels // (len(edges) - 1))
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        panel = np.linspace(lo, hi, per + 1)
        # the gap on the left (far end edges[i - 1]), then on the right
        for j, far, sign in ((i - 1, i - 1, 1.0), (i + 1, i + 2, -1.0)):
            if 0 < j < len(gaps) - 1 and 0 < gaps[j] < near:
                dist = gaps[j] * steps
                grade = edges[far] + sign * dist[dist < near]
                panel = np.union1d(panel, grade[(grade > lo) & (grade < hi)])
        out.append(panel)
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


# Nodes per density call in principal_value: a deep refinement level of a
# many-panel integral is split into calls of at most this many points (a few
# edge arrays each), so its temporaries stay small instead of growing with
# the panel count times 2**max_refine.
_MAX_POINTS = 1 << 15


def _batches(blocks, rows_cap):
    """Runs of consecutive (role, first row, end row) blocks holding at most
    rows_cap rows together; a longer block is a run on its own."""
    batch = []
    for block in blocks:
        if batch and block[2] - batch[0][1] > rows_cap:
            yield batch
            batch = []
        batch.append(block)
    if batch:
        yield batch


def _weighted_values(density, omega, g_at, mid, half, n_window, x0, w0):
    """Weighted integrand half * w * f on the Gauss nodes of panel rows
    (mid, half), one row per panel; the first n_window rows lie in the
    window and take the subtracted integrand, the rest the plain tail one."""
    pts = mid[:, None] + half[:, None] * x0[None, :]
    x = pts.ravel()
    g = density(x)
    vals = np.empty_like(g)
    cut = n_window * len(x0)
    # window rows: (G(x) - G(omega)) / (x - omega)
    dx = x[:cut] - omega
    small = np.abs(dx) < 1e-13 * max(1.0, abs(omega))
    np.divide(g[:cut] - g_at, dx, out=vals[:cut], where=~small)
    if small.any():
        # symmetric difference quotient just off the node
        h = 1e-7 * max(1.0, abs(omega))
        xs = x[:cut][small]
        vals[:cut][small] = (density(xs + h) - density(xs - h)) / (2 * h)
    # tail rows: G(x) / (x - omega)
    vals[cut:] = g[cut:] / (x[cut:] - omega)
    return half[:, None] * w0[None, :] * vals.reshape(pts.shape)


def principal_value(density, omega, quad=None):
    """H(omega) = PV integral of G(xi)/(xi - omega) over the real line.

    Splits the line into a symmetric window [omega - L, omega + L], where the
    integrand is replaced by (G(xi) - G(omega))/(xi - omega) (the subtracted
    log term vanishes by symmetry of the window), plus regular tails down to
    the effective support of G.  Composite Gauss-Legendre with node doubling;
    raises QuadratureNotConverged when doubling stalls.

    Each refinement level evaluates the density on the nodes of every panel
    of the window and both tails stacked row by row, in as few calls as
    _MAX_POINTS allows (one, until deep levels of many-panel integrals);
    each edge array's rows are then summed on their own and added in order,
    window first.
    """
    if quad is None:
        quad = QuadratureParams()
    omega = float(omega)
    g_at = float(density(omega))
    lo, hi = density.support()
    lo = min(lo, omega - 2 * quad.window)
    hi = max(hi, omega + 2 * quad.window)
    breaks = density.breakpoints()

    win_lo, win_hi = omega - quad.window, omega + quad.window
    roles = (_panel_edges(win_lo, win_hi, breaks + [omega], quad.panels),
             _graded_edges(lo, win_lo, breaks, win_lo),
             _graded_edges(win_hi, hi, breaks, win_hi))
    # (role, first row, end row) of each edge array, window rows first
    blocks = []
    row = 0
    for role, edge_arrays in enumerate(roles):
        for edges in edge_arrays:
            blocks.append((role, row, row + len(edges) - 1))
            row += len(edges) - 1
    n_window = sum(len(edges) - 1 for edges in roles[0])
    edge_lo = np.concatenate([e[:-1] for arrays in roles for e in arrays])
    edge_hi = np.concatenate([e[1:] for arrays in roles for e in arrays])
    half = 0.5 * (edge_hi - edge_lo)
    mid = 0.5 * (edge_hi + edge_lo)

    previous = change = None
    nodes = quad.nodes
    for _ in range(quad.max_refine + 1):
        x0, w0 = _gauss_rule(nodes)
        totals = [0.0, 0.0, 0.0]
        for batch in _batches(blocks, max(1, _MAX_POINTS // nodes)):
            first, end = batch[0][1], batch[-1][2]
            terms = _weighted_values(density, omega, g_at, mid[first:end],
                                     half[first:end],
                                     max(0, min(n_window, end) - first),
                                     x0, w0)
            for role, start, stop in batch:
                totals[role] += float(np.sum(terms[start - first:
                                                   stop - first]))
        val = totals[0] + totals[1] + totals[2]
        if previous is not None:
            change = abs(val - previous)
            if change <= quad.rel_tol * max(1.0, abs(val)):
                return val
        previous = val
        nodes *= 2
    raise QuadratureNotConverged(
        f"principal value at omega={omega:.6g} did not converge "
        f"(last change {change:.3e})",
        diagnostics={"omega": omega, "last_value": val,
                     "last_change": change})


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
    jump_terms: per (reservoir, Bohr cluster) superoperator matrices
    S -> A^* S A with the 2 pi G factor included but without the counting
    weight, so re-tilting at another kappa is a cheap weighted sum.
    """

    dim: int
    lam: float
    kappa: np.ndarray
    upsilon: np.ndarray
    drift_matrix: np.ndarray
    jump_terms: list                   # entries (k, omega, matrix)

    @property
    def heisenberg(self):
        return self.assemble(self.kappa)

    @property
    def dual(self):
        return self.assemble(self.kappa).conj().T

    def assemble(self, kappa):
        """Heisenberg-convention matrix of L_kappa for an arbitrary real
        kappa; a kappa with a nonzero imaginary part raises ConfigError."""
        kappa = _real_kappa(kappa)
        total = self.drift_matrix.copy()
        for k, omega, mat in self.jump_terms:
            total += np.exp(-kappa[k] * omega) * mat
        return total

    def derivative(self, kappa, which, order=1):
        """d^order L_kappa / d kappa_which^order as a matrix, at a real
        kappa."""
        kappa = _real_kappa(kappa)
        d2 = self.dim * self.dim
        total = np.zeros((d2, d2), dtype=complex)
        for k, omega, mat in self.jump_terms:
            if k != which:
                continue
            total += (-omega) ** order * np.exp(-kappa[k] * omega) * mat
        return total


def _real_kappa(kappa):
    """kappa as a float array; a nonzero imaginary part is refused rather
    than dropped."""
    kappa = np.asarray(kappa)
    if np.any(np.imag(kappa)):
        raise ConfigError(f"kappa must be real, got {kappa}")
    return np.asarray(np.real(kappa), dtype=float)


def compute_upsilon(model):
    """Level-shift operator Upsilon of a validated model.

    Upsilon = sum over channels of M_{k,e,e'} (-i pi G_k(omega) - H_k(omega))
    with M = 1_{E_e} D^* 1_{E_e'} D 1_{E_e}, one H per Bohr cluster, taken
    at its first channel's omega with the model's quadrature.
    """
    quad = QuadratureParams.from_mapping(model.quadrature)
    d = model.system.dim
    upsilon = np.zeros((d, d), dtype=complex)
    for res, channels in zip(model.reservoirs, model.channels):
        dens = effective_density(res)
        h_cache = {}
        for omega, b, g, _, _, a in channels:
            if b not in h_cache:
                h_cache[b] = principal_value(dens, omega, quad)
            m = a.conj().T @ a          # 1_{E_e} D^* 1_{E_e'} D 1_{E_e}
            upsilon += m * (-1j * np.pi * g - h_cache[b])
    return upsilon


def build_deformed_lindblad(model, kappa):
    """Assemble the deformed weak-coupling generator for a validated model.

    Returns GeneratorParts.  kappa is checked against the model's domain box.
    Each Bohr cluster takes its omega and its rate from its first channel,
    and its jump operator sums the channels in order.
    """
    kappa = model.check_kappa(kappa)
    d = model.system.dim

    upsilon = compute_upsilon(model)
    eye = np.eye(d)
    drift = -1j * (np.kron(eye, upsilon) - np.kron(upsilon.conj(), eye))

    jump_terms = []
    for k, channels in enumerate(model.channels):
        groups = {}                 # Bohr index -> [omega, summed op, rate]
        for omega, b, g, _, _, a in channels:
            if b not in groups:
                groups[b] = [omega, np.zeros((d, d), dtype=complex),
                             2.0 * np.pi * g]
            groups[b][1] += a
        for omega, a_total, rate in groups.values():
            jump_terms.append((k, omega,
                               rate * np.kron(a_total.T, a_total.conj().T)))

    return GeneratorParts(dim=d, lam=model.lam, kappa=kappa, upsilon=upsilon,
                          drift_matrix=drift, jump_terms=jump_terms)
