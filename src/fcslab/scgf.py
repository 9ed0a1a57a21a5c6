"""Scaled cumulant generating function and derived transport quantities.

f(kappa) = lambda^2 * max Re sp(L_kappa): the long-time growth rate of the
counting characteristic function, in physical time units.  The leading
eigenvalue is required simple with real leading part; its left/right
eigenvector pair feeds analytic first and second derivatives (mean currents
and fluctuation covariance), the exchange symmetry scan
f(kappa) = f(beta - kappa), and the Legendre transform

    I(alpha) = -inf_kappa ( (kappa | alpha) + f(kappa) )

computed by damped Newton iteration over the domain box.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    ConfigError,
    DerivativeMismatch,
    EigenvalueCollision,
    NonConvexObjective,
    NonRealLeader,
    SimpleEigenvalueWarning,
)
from .lindblad import build_deformed_lindblad
from .model import check_fgr_irreducibility

FD_MISMATCH_TOL = 1e-6     # transport_moments: analytic vs finite differences
NEWTON_TOL = 1e-11         # rate_function: Newton stopping tolerance
NEWTON_MAX_ITER = 80       # rate_function: Newton iteration cap

# ---------------------------------------------------------------------------
# leading eigenvalue
# ---------------------------------------------------------------------------


@dataclass
class ScgfResult:
    """Leading spectral data of the deformed generator at one kappa.

    f is in physical units (lambda^2 included); eigenvalue and gap are in
    generator (rate) units.  right_eigvec is the Heisenberg-picture leading
    eigenvector (identity at kappa = 0), left_eigvec the state-picture one
    (stationary state at kappa = 0), normalized to <left, right> = 1 with
    both Hermitized and the right one scaled positive.
    """

    kappa: np.ndarray
    f: float
    eigenvalue: complex
    gap: float
    right_eigvec: np.ndarray
    left_eigvec: np.ndarray
    lam: float


class ScgfSolver:
    """Caches the kappa-independent generator pieces for fast re-tilting."""

    def __init__(self, model):
        self.model = model
        self.parts = build_deformed_lindblad(model,
                                             np.zeros(model.n_reservoirs))
        self.dim = model.system.dim
        ok, _ = check_fgr_irreducibility(model.system, model.reservoirs)
        if not ok:
            warnings.warn(
                "jump channels are reducible; the leading eigenvalue "
                "need not be simple", SimpleEigenvalueWarning)

    # -- spectral core ----------------------------------------------------

    def leading(self, kappa, need_vectors=True):
        kappa = self.model.check_kappa(kappa)
        mat = self.parts.assemble(kappa)
        scale = max(1.0, float(np.abs(mat).max()))
        if need_vectors:
            evals, vl, vr = scipy.linalg.eig(mat, left=True, right=True)
        else:
            evals = np.linalg.eigvals(mat)
            vl = vr = None
        lead = int(np.argmax(evals.real))
        mu = evals[lead]
        if abs(mu.imag) > 1e-10 * scale:
            raise NonRealLeader(
                f"leading eigenvalue {mu} has imaginary part beyond tolerance",
                diagnostics={"eigenvalue": [mu.real, mu.imag],
                             "kappa": kappa.tolist()})
        close = np.abs(evals - mu) < 1e-9 * scale
        if int(np.sum(close)) > 1:
            raise EigenvalueCollision(
                f"leading eigenvalue not simple at kappa={kappa.tolist()}",
                diagnostics={"eigenvalues": [[z.real, z.imag]
                                             for z in evals[close]]})
        rest = evals.real[~close]
        gap = float(mu.real - rest.max()) if len(rest) else np.inf

        right = left = None
        if need_vectors:
            right = self._hermitize(vr[:, lead])
            left = self._hermitize(vl[:, lead])
            norm = np.trace(left.conj().T @ right)
            left = left / norm.conjugate()      # <left, right> = 1
        lam = self.model.lam
        return ScgfResult(kappa=kappa, f=lam * lam * mu.real, eigenvalue=mu,
                          gap=gap, right_eigvec=right, left_eigvec=left,
                          lam=lam)

    def _hermitize(self, v):
        d = self.dim
        m = v.reshape(d, d, order="F")
        tr = np.trace(m)
        if abs(tr) > 1e-12 * np.abs(m).max():
            m = m * (tr.conjugate() / abs(tr))
        h = 0.5 * (m + m.conj().T)
        if np.abs(h).max() < 1e-12 * np.abs(m).max():
            h = (m - m.conj().T) / 2j
        # orient positive: flip sign if the spectrum leans negative
        evals = np.linalg.eigvalsh(h)
        if abs(evals.min()) > abs(evals.max()):
            h = -h
        return h / np.linalg.norm(h)

    def f(self, kappa):
        return self.leading(kappa, need_vectors=False).f

    # -- analytic derivatives ---------------------------------------------

    def gradient_and_hessian(self, kappa):
        """First and second derivatives of f at kappa (physical units).

        grad_a = <l, L_a r>; the Hessian adds the reduced-resolvent response
        of the eigenvector: mu_ab = <l, L_ab r> delta-part + <l, L_a r_b> +
        <l, L_b r_a> with r_b = (mu - L)^+ (1 - r l*) L_b r.
        """
        res = self.leading(kappa)
        mat = self.parts.assemble(res.kappa)
        n = mat.shape[0]
        mu = res.eigenvalue
        r = res.right_eigvec.ravel(order="F")
        l = res.left_eigvec.ravel(order="F")

        n_res = self.model.n_reservoirs
        dmats = [self.parts.derivative(res.kappa, a) for a in range(n_res)]
        first = [da @ r for da in dmats]
        grad = np.array([np.vdot(l, fa) for fa in first])

        shifted = mu * np.eye(n) - mat
        responses = []
        for a in range(n_res):
            rhs = first[a] - r * np.vdot(l, first[a])     # project out leader
            y, *_ = np.linalg.lstsq(shifted, rhs, rcond=None)
            y = y - r * np.vdot(l, y)
            responses.append(y)
        hess = np.zeros((n_res, n_res), dtype=complex)
        for a in range(n_res):
            hess[a, a] = np.vdot(
                l, self.parts.derivative(res.kappa, a, order=2) @ r)
            for b in range(n_res):
                hess[a, b] += (np.vdot(l, dmats[a] @ responses[b])
                               + np.vdot(l, dmats[b] @ responses[a]))
        hess = 0.5 * (hess + hess.T)

        lam2 = self.model.lam ** 2
        grad_r = grad.real * lam2
        hess_r = hess.real * lam2
        if np.abs(grad.imag).max() > 1e-8 * max(1.0, np.abs(grad.real).max()):
            raise NonRealLeader("eigenvalue gradient has an imaginary part")
        return res, grad_r, hess_r


# ---------------------------------------------------------------------------
# transport moments
# ---------------------------------------------------------------------------

@dataclass
class TransportMoments:
    """Mean currents, covariance, and entropy production at kappa = 0.

    mean_currents[k] = -df/dkappa_k: average energy per unit time deposited
    in reservoir k.  covariance = d2f/dkappa2, symmetric PSD.
    entropy_production_rate = sum_k beta_k mean_currents[k] >= 0.
    All in physical units.
    """

    mean_currents: np.ndarray
    covariance: np.ndarray
    entropy_production_rate: float
    fd_gradient_error: float
    fd_hessian_error: float


def transport_moments(model_or_solver, fd_check=True):
    """Moments at kappa = 0 from the analytic gradient and Hessian; with
    fd_check, Richardson differences of step 1e-4 * (shortest box side) must
    agree to FD_MISMATCH_TOL = 1e-6 relative, else DerivativeMismatch."""
    solver = _as_solver(model_or_solver)
    kappa0 = np.zeros(solver.model.n_reservoirs)
    _, grad, hess = solver.gradient_and_hessian(kappa0)

    err_g = err_h = 0.0
    if fd_check:
        box = solver.model.domain_box
        h = 1e-4 * float(np.min(box[:, 1] - box[:, 0]))
        fd_g = _richardson_gradient(solver.f, kappa0, h)
        fd_h = _richardson_hessian(solver.f, kappa0, 10 * h)
        # the finite differences carry eigensolver noise of order eps_f,
        # amplified by 1/h (gradient) and 1/h^2 (second differences); keep
        # the comparison scale above that floor so identically flat
        # directions do not trip the guard
        lam2 = solver.model.lam ** 2
        eps_f = 1e-13 * lam2 * max(
            1.0, float(np.abs(solver.parts.assemble(kappa0)).max()))
        gs = max(float(np.linalg.norm(grad)), float(np.linalg.norm(fd_g)),
                 100 * eps_f / h / FD_MISMATCH_TOL)
        hs = max(float(np.linalg.norm(hess)), float(np.linalg.norm(fd_h)),
                 1000 * eps_f / (10 * h) ** 2 / FD_MISMATCH_TOL)
        err_g = float(np.linalg.norm(grad - fd_g)) / gs
        err_h = float(np.linalg.norm(hess - fd_h)) / hs
        if err_g > FD_MISMATCH_TOL or err_h > FD_MISMATCH_TOL:
            raise DerivativeMismatch(
                "analytic and finite-difference derivatives disagree: "
                f"gradient {err_g:.2e}, hessian {err_h:.2e}",
                diagnostics={"gradient_rel_error": err_g,
                             "hessian_rel_error": err_h})

    mean = -grad
    cov = 0.5 * (hess + hess.T)
    betas = np.array([r.beta for r in solver.model.reservoirs])
    return TransportMoments(
        mean_currents=mean, covariance=cov,
        entropy_production_rate=float(betas @ mean),
        fd_gradient_error=err_g, fd_hessian_error=err_h)


def _richardson_gradient(fn, x, h):
    grad = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = 1.0
        d1 = (fn(x + h * e) - fn(x - h * e)) / (2 * h)
        d2 = (fn(x + 0.5 * h * e) - fn(x - 0.5 * h * e)) / h
        grad[i] = (4 * d2 - d1) / 3
    return grad


def _richardson_hessian(fn, x, h):
    n = len(x)
    hess = np.zeros((n, n))
    f0 = fn(x)

    def e(i, s):
        out = np.zeros_like(x)
        out[i] = s
        return out

    for i in range(n):
        d1 = (fn(x + e(i, h)) - 2 * f0 + fn(x - e(i, h))) / h ** 2
        d2 = (fn(x + e(i, h / 2)) - 2 * f0 + fn(x - e(i, h / 2))) / (h / 2) ** 2
        hess[i, i] = (4 * d2 - d1) / 3
        for j in range(i + 1, n):
            def cross(hh):
                return (fn(x + e(i, hh) + e(j, hh)) - fn(x + e(i, hh) - e(j, hh))
                        - fn(x - e(i, hh) + e(j, hh))
                        + fn(x - e(i, hh) - e(j, hh))) / (4 * hh * hh)
            c1, c2 = cross(h), cross(h / 2)
            hess[i, j] = hess[j, i] = (4 * c2 - c1) / 3
    return hess


# ---------------------------------------------------------------------------
# exchange symmetry scan
# ---------------------------------------------------------------------------

@dataclass
class GcScanResult:
    nu: np.ndarray
    f_forward: np.ndarray      # f at nu * beta
    f_mirrored: np.ndarray     # f at (1 - nu) * beta
    defect: float

    def table(self):
        return np.column_stack([self.nu, self.f_forward, self.f_mirrored,
                                np.abs(self.f_forward - self.f_mirrored)])


def gc_symmetry_defect(model_or_solver, nu_grid=None):
    """Scan f(nu * beta) against f((1 - nu) * beta) along the line of
    thermal deformations; the exchange symmetry makes the two agree."""
    solver = _as_solver(model_or_solver)
    if nu_grid is None:
        nu_grid = np.linspace(0.0, 1.0, 21)
    nu_grid = np.asarray(nu_grid, dtype=float)
    betas = np.array([r.beta for r in solver.model.reservoirs])
    fwd = np.array([solver.f(nu * betas) for nu in nu_grid])
    mir = np.array([solver.f((1.0 - nu) * betas) for nu in nu_grid])
    return GcScanResult(nu=nu_grid, f_forward=fwd, f_mirrored=mir,
                        defect=float(np.abs(fwd - mir).max()))


# ---------------------------------------------------------------------------
# rate function
# ---------------------------------------------------------------------------

@dataclass
class RateFunctionPoint:
    alpha: np.ndarray
    value: float
    argmin: np.ndarray
    boundary: bool
    converged: bool
    iterations: int


@dataclass
class RateFunctionTable:
    points: list = field(default_factory=list)

    def values(self):
        return np.array([p.value for p in self.points])


def rate_function(model_or_solver, alphas, active=None):
    """Legendre transform I(alpha) = -min over the domain box of
    (kappa | alpha) + f(kappa), by damped Newton with box projection.

    Midpoint convexity of f is probed first.  Newton stops when the
    projected gradient falls to NEWTON_TOL = 1e-11 (relative to the
    objective) or after NEWTON_MAX_ITER = 80 iterations.

    `active` selects a subset of reservoir coordinates; the rest stay
    clamped at 0 (marginal statistics of the active counters).  alphas is
    then an array of vectors over the active coordinates.  Minimizers are
    pushed toward the smallest norm along flat directions of the Hessian.

    Raises ConfigError when an active index is not an integer, out of
    range or repeated, or when an alpha vector has the wrong length or a
    non-finite entry.
    """
    solver = _as_solver(model_or_solver)
    n_res = solver.model.n_reservoirs
    active = list(range(n_res)) if active is None else list(active)
    for i in active:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise ConfigError(f"active index {i!r} is not an integer")
        if not 0 <= i < n_res:
            raise ConfigError(f"active index {i} is out of range for "
                              f"{n_res} reservoirs")
    if len(set(active)) != len(active):
        raise ConfigError(f"active indices {active} repeat a reservoir")
    box = solver.model.domain_box[active]
    alphas = np.atleast_2d(np.asarray(alphas, dtype=float))
    if alphas.shape[1] != len(active):
        raise ConfigError("alpha vectors must match the active coordinates")
    if not np.all(np.isfinite(alphas)):
        raise ConfigError("alpha vectors must be finite")

    _convexity_probe(solver, active, box)

    table = RateFunctionTable()
    for alpha in alphas:
        point = _newton_minimize(solver, alpha, active, box)
        table.points.append(point)
    return table


def _full_kappa(kappa_active, active, n_res):
    full = np.zeros(n_res)
    full[active] = kappa_active
    return full


def _convexity_probe(solver, active, box):
    """Midpoint convexity of f along 4 random segments inside the box,
    drawn from default_rng(97)."""
    rng = np.random.default_rng(97)
    n_res = solver.model.n_reservoirs
    span = box[:, 1] - box[:, 0]
    for _ in range(4):
        a = box[:, 0] + span * rng.uniform(0.05, 0.95, size=len(active))
        b = box[:, 0] + span * rng.uniform(0.05, 0.95, size=len(active))
        fa = solver.f(_full_kappa(a, active, n_res))
        fb = solver.f(_full_kappa(b, active, n_res))
        fm = solver.f(_full_kappa(0.5 * (a + b), active, n_res))
        scale = max(1.0, abs(fa), abs(fb))
        if fm > 0.5 * (fa + fb) + 1e-9 * scale:
            raise NonConvexObjective(
                "midpoint convexity of f failed on a probe segment",
                diagnostics={"a": a.tolist(), "b": b.tolist(),
                             "violation": float(fm - 0.5 * (fa + fb))})


def _newton_minimize(solver, alpha, active, box):
    n_res = solver.model.n_reservoirs
    lo, hi = box[:, 0], box[:, 1]
    kappa = np.zeros(len(active))
    edge = 1e-8 * np.maximum(1.0, hi - lo)

    def objective(ka):
        return float(ka @ alpha + solver.f(_full_kappa(ka, active, n_res)))

    value = objective(kappa)
    iterations = 0
    converged = False
    for iterations in range(1, NEWTON_MAX_ITER + 1):
        _, grad_f, hess_f = solver.gradient_and_hessian(
            _full_kappa(kappa, active, n_res))
        grad = alpha + grad_f[active]
        hess = hess_f[np.ix_(active, active)]

        # projected gradient: zero out components pushing through a face
        pgrad = grad.copy()
        at_lo = kappa <= lo + edge
        at_hi = kappa >= hi - edge
        pgrad[at_lo & (grad > 0)] = 0.0
        pgrad[at_hi & (grad < 0)] = 0.0
        if np.linalg.norm(pgrad) <= NEWTON_TOL * max(1.0, abs(value)):
            converged = True
            break

        evals, evecs = np.linalg.eigh(hess)
        floor = 1e-8 * max(evals.max(), 1e-12)
        if evals.min() < -1e-7 * max(1.0, evals.max()):
            raise NonConvexObjective(
                "Hessian of the objective has a negative eigenvalue",
                diagnostics={"eigenvalues": evals.tolist()})
        inv = np.where(evals > floor, 1.0 / np.maximum(evals, floor), 0.0)
        step = -(evecs * inv) @ (evecs.T @ grad)
        # the curvature is blind to flat directions (conservation makes the
        # uniform shift exactly soft); descend any gradient component there
        # with a box-length stride so the minimizer can reach a face
        soft = evals <= floor
        if np.any(soft):
            g_soft = evecs[:, soft] @ (evecs[:, soft].T @ grad)
            gn = np.linalg.norm(g_soft)
            if gn > 1e-10 * max(1.0, np.linalg.norm(grad)):
                step = step - g_soft * (np.linalg.norm(hi - lo) / gn)
        if np.linalg.norm(step) < 1e-16 or not np.all(np.isfinite(step)):
            step = -grad

        # damping with box projection
        t = 1.0
        improved = False
        for _ in range(40):
            trial = np.clip(kappa + t * step, lo, hi)
            tv = objective(trial)
            if tv < value - 1e-14 * max(1.0, abs(value)):
                kappa, value = trial, tv
                improved = True
                break
            t *= 0.5
        if not improved:
            converged = (np.linalg.norm(pgrad)
                         <= 1e3 * NEWTON_TOL * max(1.0, abs(value)))
            break

    # push flat components toward the smallest norm
    _, grad_f, hess_f = solver.gradient_and_hessian(
        _full_kappa(kappa, active, n_res))
    hess = hess_f[np.ix_(active, active)]
    evals, evecs = np.linalg.eigh(hess)
    flat = evals < 1e-8 * max(evals.max(), 1e-12)
    if np.any(flat) and np.linalg.norm(kappa) > 0:
        null = evecs[:, flat]
        candidate = np.clip(kappa - null @ (null.T @ kappa), lo, hi)
        if abs(objective(candidate) - value) <= 1e-10 * max(1.0, abs(value)):
            kappa = candidate
            value = objective(kappa)

    boundary = bool(np.any((kappa <= lo + edge) | (kappa >= hi - edge)))
    return RateFunctionPoint(alpha=np.asarray(alpha, dtype=float).copy(),
                             value=-value, argmin=kappa.copy(),
                             boundary=boundary, converged=converged,
                             iterations=iterations)


def _as_solver(model_or_solver):
    if isinstance(model_or_solver, ScgfSolver):
        return model_or_solver
    return ScgfSolver(model_or_solver)
