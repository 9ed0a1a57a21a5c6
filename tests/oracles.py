"""Independent oracles used by the test suite.

Everything here is computed through routes that do not touch the package
internals under test: closed forms, scipy special functions and adaptive
quadrature, dense grid searches, and hand-coded 2x2 matrices for the
reference qubit.  Frozen decimal expectations live next to the formulas
that produced them.
"""

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph
from scipy.integrate import quad as scipy_quad
from scipy.linalg import expm
from scipy.special import expi

from fcslab.errors import ConfigError, QuadratureNotConverged
from fcslab.finite_volume import GROUP_TOL, _block_map, _block_propagator
from fcslab.lindblad import (
    QuadratureParams,
    _gauss_rule,
    _graded_edges,
    _panel_edges,
)
from fcslab.model import jump_channels

# ---------------------------------------------------------------------------
# reference qubit: E = diag(1/2, -1/2), D1 = D2 = sigma_x,
# beta = (1, 2), ohmic J = 0.5 w exp(-w/5), lambda = 0.1
# ---------------------------------------------------------------------------

BETAS = (1.0, 2.0)
LAMBDA = 0.1
J_AT_1 = 0.5 * np.exp(-0.2)        # = 0.40936537653899093

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
E_QUBIT = np.diag([0.5, -0.5]).astype(complex)


def zeta(beta, w=1.0):
    return 1.0 / np.expm1(beta * w)


def qubit_rates():
    """(down rates, up rates) per reservoir: gamma = 2 pi G(+-1)."""
    down = np.array([2 * np.pi * (1 + zeta(b)) * J_AT_1 for b in BETAS])
    up = np.array([2 * np.pi * zeta(b) * J_AT_1 for b in BETAS])
    return down, up


def qubit_tilted_matrix(kappa):
    """Hand-coded tilted population generator, state order (ground, excited).

    A jump through reservoir k transfers omega = E_from - E_to to that
    reservoir, weighted e^{-kappa_k omega}: down jumps (omega = +1) carry
    e^{-kappa_k}, up jumps (omega = -1) carry e^{+kappa_k}.
    """
    kappa = np.asarray(kappa, dtype=float)
    down, up = qubit_rates()
    a = up.sum()
    b = down.sum()
    return np.array([
        [-a, np.sum(down * np.exp(-kappa))],
        [np.sum(up * np.exp(kappa)), -b],
    ])


def qubit_scgf(kappa):
    """Closed-form leading eigenvalue of the tilted population matrix.

    mu(kappa) = -(a+b)/2 + sqrt((a-b)^2/4 + c(kappa)) with
    c = (sum_k gamma_dn_k e^{-kappa_k}) (sum_k gamma_up_k e^{+kappa_k}).
    Units: weak-coupling rates (no lambda^2).
    """
    kappa = np.asarray(kappa, dtype=float)
    down, up = qubit_rates()
    a = up.sum()
    b = down.sum()
    c = np.sum(down * np.exp(-kappa)) * np.sum(up * np.exp(kappa))
    return -(a + b) / 2 + np.sqrt((a - b) ** 2 / 4 + c)


def qubit_scgf_physical(kappa, lam=LAMBDA):
    return lam * lam * qubit_scgf(kappa)


# ---------------------------------------------------------------------------
# superoperators in the column-major vec convention, vec(A S B) =
# (B^T kron A) vec(S)
# ---------------------------------------------------------------------------

def commutator_superop(e):
    """Matrix of S -> i [E, S], the generator of the free evolution."""
    e = np.asarray(e, dtype=complex)
    eye = np.eye(e.shape[0])
    return 1j * (np.kron(eye, e) - np.kron(e.T, eye))


def semigroup(mat, t, s):
    """e^{t L} applied to the d x d matrix s, L given as its d^2 x d^2
    matrix, by a dense matrix exponential."""
    s = np.asarray(s, dtype=complex)
    d = s.shape[0]
    return (expm(t * mat) @ s.ravel(order="F")).reshape(d, d, order="F")


def level_pair_jump_terms(model):
    """Jump terms with one entry per level pair instead of one per Bohr
    frequency: (k, omega, 2 pi G_k(omega) kron(a^T, a^*)) with
    a = 1_{E_e'} D_k 1_{E_e} for every channel of reservoir k in the
    model's fcslab.model.jump_channels table.  This is the "diagonal" generator that
    fcslab.lindblad once built as a variant.  On the Bohr-frequency-0 block
    the cross terms between level pairs of one frequency vanish, so there
    it equals the secular generator."""
    jump_terms = []
    for k, channels in enumerate(model.channels):
        for omega, _, g, _, _, a in channels:
            rate = 2.0 * np.pi * g
            jump_terms.append((k, omega,
                               rate * np.kron(a.T, a.conj().T)))
    return jump_terms


def transition_graph_irreducible(system, reservoirs):
    """Strong connectivity of the graph on the eigenlevels with an edge
    e -> e' for every channel of fcslab.model.jump_channels with e != e',
    the rule the trajectories' rate process once used.  For a nondegenerate
    spectrum the jump blocks are multiples of |e'><e|; with a Hermitian
    coupling and detailed balance every edge comes with its reverse, and
    the commutant of the blocks is the scalars exactly when this graph is
    strongly connected (Lebowitz & Spohn, J. Stat. Phys. 95, 333 (1999));
    without edges, exactly when the system has one level."""
    d = system.dim
    edges = [(e, ep) for channels in jump_channels(system, reservoirs)
             for _, _, _, e, ep, _ in channels if e != ep]
    if not edges:
        return d == 1
    rows, cols = zip(*edges)
    graph = scipy.sparse.csr_matrix((np.ones(len(edges)), (rows, cols)),
                                    shape=(d, d))
    n_comp, _ = scipy.sparse.csgraph.connected_components(
        graph, directed=True, connection="strong")
    return n_comp == 1


def bohr_zero_block(matrix, system):
    """Block of a superoperator matrix (column-major vec) on the Bohr-
    frequency-0 sector span{|i><j| : E_i = E_j}, written in the energy
    eigenbasis of system."""
    v = system.eigenbasis
    d = v.shape[0]
    level_energy = np.real(np.diag(v.conj().T @ system.hamiltonian @ v))
    level = np.abs(level_energy[:, None]
                   - system.energies[None, :]).argmin(axis=1)
    u = np.kron(v.conj(), v)       # vec(V S V^*) = u vec(S)
    rotated = u.conj().T @ matrix @ u
    idx = [i + d * j for j in range(d) for i in range(d)
           if level[i] == level[j]]
    return rotated[np.ix_(idx, idx)]


# ---------------------------------------------------------------------------
# principal values
# ---------------------------------------------------------------------------

# PV int_0^inf xi e^-xi / (xi - 1) dxi = 1 - e^-1 Ei(1), via
# xi/(xi-1) = 1 + 1/(xi-1) and the defining integral of Ei.
PV_OHMIC_AT_1 = 1.0 - np.exp(-1.0) * expi(1.0)   # = 0.30282511676493393


def pv_cauchy(fn, omega, lo, hi, **kw):
    """Adaptive-quadrature principal value of fn(x)/(x - omega) on [lo, hi].

    Splits at the singularity using scipy's Cauchy-weight rule on a symmetric
    window plus plain adaptive tails.
    """
    half = min(omega - lo, hi - omega)
    if half <= 0:
        val, _ = scipy_quad(lambda x: fn(x) / (x - omega), lo, hi, **kw)
        return val
    core, _ = scipy_quad(fn, omega - half, omega + half, weight="cauchy",
                         wvar=omega, **kw)
    left = right = 0.0
    if omega - half > lo:
        left, _ = scipy_quad(lambda x: fn(x) / (x - omega), lo, omega - half,
                             limit=200, **kw)
    if omega + half < hi:
        right, _ = scipy_quad(lambda x: fn(x) / (x - omega), omega + half, hi,
                              limit=200, **kw)
    return core + left + right


def pv_split(fn, omega, lo, hi, points):
    """pv_cauchy kept off the breakpoints of fn: (value, error estimate).

    The Cauchy-weight window ends at the point nearest to omega, so it holds
    no breakpoint.  Each tail is integrated in u = log|x - omega|, split at
    the points, where fn(x)/(x - omega) dx = +-fn(omega +- e^u) du has no
    near-singularity even when a breakpoint lies just beyond the window.
    The error estimate is the sum of the adaptive rules' own.
    """
    half = min([omega - lo, hi - omega]
               + [abs(p - omega) for p in points if lo < p < hi and p != omega])
    total, error = scipy_quad(fn, omega - half, omega + half, weight="cauchy",
                              wvar=omega)
    for sign, end in ((1.0, hi - omega), (-1.0, omega - lo)):
        if end > half:
            cuts = [np.log(abs(p - omega)) for p in points
                    if half < sign * (p - omega) < end]
            val, err = scipy_quad(lambda u: sign * fn(omega + sign * np.exp(u)),
                                  np.log(half), np.log(end),
                                  points=cuts or None, limit=200)
            total += val
            error += err
    return total, error


# ---------------------------------------------------------------------------
# reservoir correlation functions
# ---------------------------------------------------------------------------
# The numerical correlation function that fcslab.finite_volume once fitted an
# exponential envelope to, kept verbatim as the reference for the closed-form
# decay rate fcslab.model.correlation_decay_rate.

def _fourier_integral(dens, kappa, t):
    """integral of G(xi) e^{-kappa xi} e^{-i t xi} over the support, on
    16-node Gauss-Legendre panels, at least 64 and 3 per oscillation."""
    lo, hi = dens.support()
    breaks = sorted({lo, hi, *[b for b in dens.breakpoints() if lo < b < hi]})
    nodes, weights = np.polynomial.legendre.leggauss(16)
    total = 0.0 + 0.0j
    for a, b in zip(breaks[:-1], breaks[1:]):
        n_osc = abs(t) * (b - a) / (2 * np.pi)
        # the floor resolves the density itself, the t-term its oscillations
        panels = max(64, int(np.ceil(3.0 * n_osc)) + 1)
        edges = np.linspace(a, b, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        xs = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        ws = (half[:, None] * weights[None, :]).ravel()
        vals = dens(xs) * np.exp(-kappa * xs - 1j * t * xs)
        total += np.sum(vals * ws)
    return total


# ---------------------------------------------------------------------------
# derivative checks
# ---------------------------------------------------------------------------

def richardson_gradient(fn, x, h=1e-4):
    """Central differences with one Richardson extrapolation step."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = 1.0
        d1 = (fn(x + h * e) - fn(x - h * e)) / (2 * h)
        d2 = (fn(x + 0.5 * h * e) - fn(x - 0.5 * h * e)) / h
        grad[i] = (4 * d2 - d1) / 3
    return grad


def richardson_hessian(fn, x, h=1e-3):
    x = np.asarray(x, dtype=float)
    n = len(x)
    hess = np.zeros((n, n))
    f0 = fn(x)

    def step(i, s):
        e = np.zeros_like(x)
        e[i] = s
        return e

    for i in range(n):
        d1 = (fn(x + step(i, h)) - 2 * f0 + fn(x - step(i, h))) / h ** 2
        d2 = (fn(x + step(i, h / 2)) - 2 * f0 + fn(x - step(i, h / 2))) / (h / 2) ** 2
        hess[i, i] = (4 * d2 - d1) / 3
    for i in range(n):
        for j in range(i + 1, n):
            def cross(hh):
                return (fn(x + step(i, hh) + step(j, hh))
                        - fn(x + step(i, hh) - step(j, hh))
                        - fn(x - step(i, hh) + step(j, hh))
                        + fn(x - step(i, hh) - step(j, hh))) / (4 * hh * hh)
            c1 = cross(h)
            c2 = cross(h / 2)
            hess[i, j] = hess[j, i] = (4 * c2 - c1) / 3
    return hess


# ---------------------------------------------------------------------------
# dense-grid Legendre transform (1-d)
# ---------------------------------------------------------------------------

def grid_rate_function(scgf_1d, alpha, lo, hi, n=8001):
    """I(alpha) = -min_k (k*alpha + f(k)) by dense grid + golden refinement.

    Returns (value, argmin).
    """
    ks = np.linspace(lo, hi, n)
    vals = ks * alpha + np.array([scgf_1d(k) for k in ks])
    j = int(np.argmin(vals))
    a = ks[max(0, j - 1)]
    b = ks[min(n - 1, j + 1)]
    # golden-section refinement inside the bracketing cell
    phi = (np.sqrt(5) - 1) / 2
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc = c * alpha + scgf_1d(c)
    fd = d * alpha + scgf_1d(d)
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = c * alpha + scgf_1d(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = d * alpha + scgf_1d(d)
    candidates = [(fc, c), (fd, d), (float(vals[j]), float(ks[j]))]
    best, arg = min(candidates)
    return -best, arg


# ---------------------------------------------------------------------------
# second-order (O(lambda^2)) term of the finite-volume generating function
# ---------------------------------------------------------------------------

def fejer_kernel(delta, t):
    """K_t(Delta) = |int_0^t e^{i Delta s} ds|^2 = sin^2(Delta t/2)/(Delta/2)^2,
    with its limit t^2 at Delta = 0."""
    delta = np.asarray(delta, dtype=float)
    half = 0.5 * delta
    safe = np.where(half == 0.0, 1.0, half)
    return np.where(half == 0.0, t * t, (np.sin(half * t) / safe) ** 2)


def truncated_occupations(beta, xi, n_max):
    """(<a^dag a>, <a a^dag>) of one mode in its Gibbs state truncated to
    occupations 0..n_max; the raising operator is cut at n_max as well, so
    <a a^dag> = sum_{n < n_max} (n + 1) w_n = e^{beta xi} <a^dag a>."""
    n = np.arange(int(n_max) + 1)
    logw = -beta * np.outer(np.atleast_1d(xi), n)
    w = np.exp(logw - logw.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    n_avg = w @ n
    raised = w[:, :-1] @ (n[:-1] + 1)
    return n_avg, raised


def qubit_second_order_rate(modes, rho, kappa, t, coherence_tol=1e-10):
    """f_2 with (1/t) log chi(kappa, t) = lambda^2 f_2 + O(lambda^4) for the
    reference qubit (E = diag(1/2, -1/2), D = sigma_x) coupled to discrete
    modes, at fixed modes and t:

        f_2 = (1/t) sum_k sum_j g_j^2 sum_{Delta = xi_j -+ 1} K_t(Delta)
              [p_from <a a^dag>_j (e^{-kappa_k xi_j} - 1)
               + p_to <a^dag a>_j (e^{kappa_k xi_j} - 1)]

    from first-order amplitudes of one-photon emission (weight e^{-kappa xi})
    and absorption (weight e^{+kappa xi}).  The resonant terms
    (Delta = xi - 1) emit from the excited state and absorb from the ground
    state; the counter-rotating terms (Delta = xi + 1) do the reverse.
    Occupations are those of the truncated Gibbs state.

    modes: one object per reservoir with beta, frequencies, couplings and
    n_max (g_j already includes the quadrature weight).  rho: 2x2 state in
    the order (excited, ground); its coherences in the energy basis must
    vanish, since they would add interference terms this form leaves out.
    """
    rho = np.asarray(rho, dtype=complex)
    if abs(rho[0, 1]) > coherence_tol or abs(rho[1, 0]) > coherence_tol:
        raise ValueError("state has coherences in the energy basis")
    p_exc, p_gnd = rho[0, 0].real, rho[1, 1].real
    total = 0.0
    for m, k in zip(modes, np.atleast_1d(np.asarray(kappa, dtype=float))):
        xi = np.asarray(m.frequencies, dtype=float)
        g2 = np.asarray(m.couplings, dtype=float) ** 2
        n_avg, raised = truncated_occupations(m.beta, xi, m.n_max)
        emit = np.expm1(-k * xi)
        absorb = np.expm1(k * xi)
        resonant = fejer_kernel(xi - 1.0, t) * (p_exc * raised * emit
                                                + p_gnd * n_avg * absorb)
        counter = fejer_kernel(xi + 1.0, t) * (p_gnd * raised * emit
                                               + p_exc * n_avg * absorb)
        total += float(np.sum(g2 * (resonant + counter)))
    return total / t


# ---------------------------------------------------------------------------
# polymer blocks by the literal insertion chain
# ---------------------------------------------------------------------------

def insertion_blocks(fv, kappa, t_phys, n_max):
    """W_1..W_n_max of the compressed dynamics by their definition.

    Each system basis state S is embedded as S (x) diag(w) with the
    truncated Gibbs weights w, evolved block by block in full space as
    A -> B A B^* with the deformed one-sided propagator
    B = e^{-(kappa/2 | E_R)} U_t e^{(kappa/2 | E_R)}, and compressed by the
    partial trace over the modes; after each block the return-to-product
    part (compressed state (x) diag(w)) is subtracted before the next.
    Only the finite-volume propagator, reservoir energies and Gibbs weights
    enter, so the result is independent of the package's recursion.
    """
    d, m = fv.sys_dim, fv.mode_dim
    kappa = np.asarray(kappa, dtype=float)

    def phase(nu):
        return np.tile(np.exp(-(nu @ fv.reservoir_energy)), d)

    b = (phase(kappa / 2)[:, None] * dense_propagator(fv, t_phys)
         * phase(-kappa / 2)[None, :])
    bh = b.conj().T
    gibbs = np.diag(fv.gibbs_weights)

    def embed(s):
        return np.kron(s, gibbs)

    def compress(a):
        return np.trace(a.reshape(d, m, d, m), axis1=1, axis2=3)

    ws = [np.empty((d * d, d * d), dtype=complex) for _ in range(n_max)]
    for col in range(d * d):
        s = np.zeros((d, d), dtype=complex)
        s[col % d, col // d] = 1.0              # column-major basis vector
        a = embed(s)
        for n in range(1, n_max + 1):
            a = b @ a @ bh
            s = compress(a)
            ws[n - 1][:, col] = s.ravel(order="F")
            if n < n_max:
                a = a - embed(s)
    return ws


def _compositions(m):
    """Ordered tuples of positive integers summing to m."""
    if m == 0:
        yield ()
        return
    for first in range(1, m + 1):
        for rest in _compositions(m - first):
            yield (first,) + rest


def composition_residual(blocks, m):
    """Relative defect of the sum over compositions of m of W products
    against the directly computed m-step compressed map."""
    if not 1 <= m <= blocks.n_max:
        raise ConfigError(f"need blocks up to n = {m}, have {blocks.n_max}")
    total = np.zeros((blocks.d2, blocks.d2), dtype=complex)
    for comp in _compositions(m):
        prod = blocks.blocks[comp[0] - 1]
        for n in comp[1:]:
            prod = blocks.blocks[n - 1] @ prod
        total += prod
    ref = blocks.cd.multi_step(m)
    return float(np.linalg.norm(total - ref, 2)
                 / max(np.linalg.norm(ref, 2), 1e-300))


def secular_residual(blocks, mu):
    """Smallest singular value of 1 - sum_n mu^{-n} W_n; vanishes exactly at
    eigenvalues of the transfer operator reached from site 1."""
    a = np.eye(blocks.d2, dtype=complex)
    for n in range(1, blocks.n_max + 1):
        a = a - mu ** (-n) * blocks.blocks[n - 1]
    return float(np.linalg.svd(a, compute_uv=False)[-1])


def m_step_rates(op, ms=None):
    """(1/(m tau)) log |trace of the compressed m-step map| of a transfer
    operator, the finite-m approximants whose error decays like
    e^{-m tau gap}."""
    if ms is None:
        ms = range(1, op.n_block + 1)
    out = []
    for m in ms:
        tr = np.trace(op.blocks.cd.multi_step(m))
        out.append((int(m), float(np.log(abs(tr)) / (m * op.blocks.tau))))
    return out


# ---------------------------------------------------------------------------
# detailed balance of an effective density
# ---------------------------------------------------------------------------

def kms_residual(density, omegas):
    """max over omegas of |G(-w) - e^{-beta w} G(w)| / max(G(w), tiny)."""
    w = np.abs(np.asarray(omegas, dtype=float))
    w = w[w > 0]
    if len(w) == 0:
        return 0.0
    gp = density(w)
    gm = density(-w)
    ref = np.maximum(gp, 1e-300)
    return float(np.max(np.abs(gm - np.exp(-density.beta * w) * gp) / ref))


# ---------------------------------------------------------------------------
# Gillespie sampling, one SeedSequence per sample
# ---------------------------------------------------------------------------

def gillespie_reference(rp, horizon, seed, lo, hi):
    """Samples lo..hi-1 of the jump process rp by the literal loop.

    Each sample builds its own stream Philox(SeedSequence(seed,
    spawn_key=(i,))), picks its start state from the stationary
    distribution, then alternates exponential holding times of rate
    exit_rates[state] with a linear scan of the state's cumulative jump
    probabilities, until the horizon.  Returns (y, n_jumps).
    """
    tables = []
    for s in range(rp.n_states):
        sel = np.flatnonzero(rp.sources == s)
        if len(sel) == 0:
            tables.append(None)
            continue
        cum = np.cumsum(rp.rates[sel])
        cum = cum / cum[-1]
        cum[-1] = 1.0
        tables.append((cum.tolist(), rp.targets[sel].tolist(),
                       rp.reservoirs[sel].tolist(), rp.omegas[sel].tolist()))
    exit_rates = rp.exit_rates.tolist()
    pi_cum = np.cumsum(rp.stationary())
    y = np.zeros((hi - lo, rp.n_reservoirs))
    n_jumps = np.zeros(hi - lo, dtype=np.int64)
    for i in range(lo, hi):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=(i,))))
        state = int(np.searchsorted(pi_cum, rng.random(), side="right"))
        state = min(state, rp.n_states - 1)
        t = 0.0
        row = y[i - lo]
        jumps = 0
        while True:
            r = exit_rates[state]
            if r <= 0.0:
                break
            t += rng.exponential(1.0 / r)
            if t > horizon:
                break
            cum, targets, res, omegas = tables[state]
            u = rng.random()
            m = 0
            while cum[m] <= u:
                m += 1
            row[res[m]] += omegas[m]
            state = targets[m]
            jumps += 1
        n_jumps[i - lo] = jumps
    return y, n_jumps


# ---------------------------------------------------------------------------
# principal value, one density call per panel array
# ---------------------------------------------------------------------------
# The library's principal value before its density calls were stacked per
# refinement level, kept as it was: the library must equal it bit for bit.

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


def principal_value_reference(density, omega, quad=None):
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

    previous = change = None
    nodes = quad.nodes
    for _ in range(quad.max_refine + 1):
        val = (_gauss_sum(window_fn, window_panels, nodes)
               + _gauss_sum(tail_fn, tail_left, nodes)
               + _gauss_sum(tail_fn, tail_right, nodes))
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
# finite volume through one dense propagator
# ---------------------------------------------------------------------------
# The library keeps U = exp(-i t H) as its diagonal blocks, one per sparsity
# component of H, from the eigendecomposition to the outputs.
# dense_propagator assembles the full matrix from those blocks.  The other
# three are the library's propagator, _q_matrix and compressed_map from
# before the blocks stayed separate, kept as they were apart from the Q
# matrix's cache: they scatter the blocks into one dense U and take every
# later product on it.  Set dense_route_propagator on FiniteVolumeModel,
# dense_q_matrix on fcslab.finite_volume and dense_compressed_map on
# fcslab.transfer to run the finite-volume and transfer routes through
# this reference.

def dense_propagator(fv, t):
    """U = exp(-i t H) as one dense matrix, zero off the library's blocks."""
    u = np.zeros((fv.dim, fv.dim), dtype=complex)
    for idx, block in fv.propagator(t):
        u[np.ix_(idx, idx)] = block
    return u


def dense_route_propagator(self, t):
    """U = exp(-i t H), cached for the handful of times in active use.
    Each block is V e^{-i E t} V*; for real V that is built from two
    real products, Re U = (V cos Et) V^T and Im U = -(V sin Et) V^T,
    in place of one complex product.  The block products run in turn,
    which keeps the peak memory down."""
    key = float(t)
    if key not in self._prop:
        if len(self._prop) >= 4:
            self._prop.clear()
        data = self._eig_data()
        if len(data) == 1:
            _, eps, vecs = data[0]
            u = _block_propagator(eps, vecs, t)
        else:
            u = np.zeros((self.dim, self.dim), dtype=complex)
            for idx, eps, vecs in data:
                u[np.ix_(idx, idx)] = _block_propagator(eps, vecs, t)
        self._prop[key] = u
    return self._prop[key]


def dense_q_matrix(fv, rho, t):
    """Q[m', m] = sum_i <(i,m')| U (rho (x) |m><m|) U* |(i,m')> for U at t.

    Everything downstream (chi for any kappa, the full TPM distribution)
    reduces to contractions of Q with the Gibbs weights and energy phases.
    """
    d, M = fv.sys_dim, fv.mode_dim
    U = fv.propagator(t)
    Ur = U.reshape(fv.dim, d, M)
    t1 = np.einsum("ij,bim->bjm", rho, Ur)
    K = np.einsum("bjm,bjm->bm", t1, Ur.conj()).real
    Q = K.reshape(d, M, M).sum(axis=0)
    return Q


def dense_counting_phase(fv, nu):
    """Full-space diagonal of e^{-(nu | reservoir energies)}."""
    return np.tile(np.exp(-(nu @ fv.reservoir_energy)), fv.sys_dim)


def dense_sandwich(fv, kappa, t):
    """B = Gamma(w_{kappa/2}) U_t Gamma(w_{-kappa/2}); the deformed one-sided
    propagator, so the deformed dynamics is A -> B A B*."""
    b = dense_counting_phase(fv, kappa / 2)[:, None] * fv.propagator(t)
    b *= dense_counting_phase(fv, -kappa / 2)[None, :]
    return b


def dense_compressed_map(fv, kappa, t):
    """Matrix of S -> Tr_R Z_t(S (x) rho_ref) on the d^2 system space, with
    rho_ref the truncated Gibbs state diag(w) of the reservoir modes, as
    d^4 mode-space inner products of two copies of the dense one-sided
    propagator B."""
    kappa = np.atleast_1d(np.asarray(kappa, dtype=float))
    if kappa.shape != (fv.n_reservoirs,):
        raise ConfigError("kappa must have one entry per reservoir")
    d = fv.sys_dim
    if t == 0.0:
        return np.eye(d * d, dtype=complex)
    b = dense_sandwich(fv, kappa, t)
    m = fv.mode_dim
    bv = b.reshape(d, m, d, m)
    w = fv.gibbs_weights
    # out[a + c d, b + e d] = sum_{m',m} B[(a,m'),(b,m)] w_m conj(B[(c,m'),(e,m)])
    # (a, b index the ket side of the sandwich, c, e the bra side); done as
    # d^4 mode-space inner products so no full-space temporaries are formed.
    out = np.empty((d * d, d * d), dtype=complex)
    for a in range(d):
        for bb in range(d):
            x = bv[a, :, bb, :] * w[None, :]
            for c in range(d):
                for e in range(d):
                    out[a + c * d, bb + e * d] = np.vdot(bv[c, :, e, :], x)
    return out


def extended_compressed_map(fv, kappa, t):
    """The compressed map of dense_compressed_map from the same propagator
    blocks, summed in long double with the weight p(m')/p(m) w_m formed as
    one exponential: only the propagator's own rounding remains."""
    d, m = fv.sys_dim, fv.mode_dim
    u = dense_propagator(fv, t).reshape(d, m, d, m)
    re, im = u.real.astype(np.longdouble), u.imag.astype(np.longdouble)
    s = np.asarray(kappa, dtype=np.longdouble) @ fv.reservoir_energy
    weight = np.exp(s[None, :] - s[:, None]) * fv.gibbs_weights[None, :]
    out = np.empty((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for e in range(d):
                    xr, xi = re[a, :, b, :], im[a, :, b, :]
                    yr, yi = re[c, :, e, :], im[c, :, e, :]
                    out[a + c * d, b + e * d] = complex(
                        float(np.sum(weight * (xr * yr + xi * yi))),
                        float(np.sum(weight * (xi * yr - xr * yi))))
    return out


# ---------------------------------------------------------------------------
# finite volume in complex arithmetic
# ---------------------------------------------------------------------------
# FiniteVolumeModel._eig_data and .propagator from before a real H went to
# the real symmetric solver, kept as they were apart from densifying the
# sparse H once: every H goes to the complex Hermitian solver and U is one
# dense matrix.  Set them on
# FiniteVolumeModel, together with the dense route's dense_q_matrix and
# dense_compressed_map, to run the finite-volume and transfer routes through
# this reference.  A complex H must give the library's eigenpairs and
# propagator blocks exactly.

def complex_eig_data(self):
    """Per-block (indices, eigvals, eigvecs) over the exact sparsity
    components of H.  Conserved checkerboard parities (e.g. sigma_x
    coupling to linear mode displacements) split the matrix in two,
    quartering the diagonalization cost with no approximation; the
    blocks are diagonalized side by side when BLAS runs one thread."""
    if self._eig is None:
        ham = self.hamiltonian.toarray()
        pattern = scipy.sparse.csr_matrix(ham != 0.0)
        n_comp, labels = scipy.sparse.csgraph.connected_components(
            pattern, directed=False)
        if n_comp <= 1:
            eps, vecs = np.linalg.eigh(ham)
            self._eig = [(np.arange(self.dim), eps, vecs)]
        else:
            def block(idx):
                eps, vecs = np.linalg.eigh(
                    ham[np.ix_(idx, idx)])
                return idx, eps, vecs
            self._eig = _block_map(
                block, [np.flatnonzero(labels == c)
                        for c in range(n_comp)])
    return self._eig


def dense_eig_data(fv):
    """FiniteVolumeModel._eig_data from when H was stored dense, kept as it
    was apart from densifying H at its top and caching nothing: the
    real/complex decision and the sparsity pattern come from the dense H,
    and a single component goes to eigh whole.  The library's eigenpairs,
    from the sparse H one densified block at a time, must equal these bit
    for bit."""
    ham = fv.hamiltonian.toarray()
    if not np.any(ham.imag):
        ham = ham.real
    pattern = scipy.sparse.csr_matrix(ham != 0.0)
    n_comp, labels = scipy.sparse.csgraph.connected_components(
        pattern, directed=False)
    if n_comp <= 1:
        eps, vecs = np.linalg.eigh(ham)
        return [(np.arange(fv.dim), eps, vecs)]

    def block(idx):
        eps, vecs = np.linalg.eigh(ham[np.ix_(idx, idx)])
        return idx, eps, vecs
    return _block_map(block, [np.flatnonzero(labels == c)
                              for c in range(n_comp)])


def complex_propagator(self, t):
    """U = exp(-i t H), cached for the handful of times in active use.
    The block products run in turn, which keeps the peak memory down."""
    key = float(t)
    if key not in self._prop:
        if len(self._prop) >= 4:
            self._prop.clear()
        data = self._eig_data()
        if len(data) == 1:
            _, eps, vecs = data[0]
            u = (vecs * np.exp(-1j * eps * t)) @ vecs.conj().T
        else:
            u = np.zeros((self.dim, self.dim), dtype=complex)
            for idx, eps, vecs in data:
                u[np.ix_(idx, idx)] = \
                    (vecs * np.exp(-1j * eps * t)) @ vecs.conj().T
        self._prop[key] = u
    return self._prop[key]


def lattice_groups_reference(points, scale):
    """The library's _lattice_groups before it sorted with lexsort: groups
    from np.unique over the integer key rows.  Must match bit for bit."""
    keys = np.round(points / (GROUP_TOL * max(1.0, scale))).astype(np.int64)
    uniq, labels = np.unique(keys, axis=0, return_inverse=True)
    means = np.zeros((len(uniq), points.shape[1]))
    counts = np.bincount(labels, minlength=len(uniq)).astype(float)
    for k in range(points.shape[1]):
        means[:, k] = np.bincount(labels, weights=points[:, k],
                                  minlength=len(uniq)) / counts
    return labels, means
