"""Exact counting statistics at finite volume.

Reservoirs are replaced by finitely many bosonic modes on occupation-truncated
Fock spaces.  The total Hamiltonian is assembled as a sparse matrix and kept
sparse up to the diagonalization of its exact sparsity components; the
commuting reservoir energy observables and the truncated Gibbs state are
arrays over the mode configurations.  The two-point measurement distribution
P(y) of transferred energies and its Laplace/Fourier transform chi(kappa, t)
come from a single eigendecomposition per instance.  Weak-coupling
diagnostics compare (1/t) log chi at t = c/lambda^2 against the generator's
leading eigenvalue.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from .errors import (
    ConfigError,
    DimensionCap,
    EmptyRange,
    OverflowGuard,
    RecurrenceHorizonExceeded,
    TruncationWarning,
)
from .model import check_hermitian

GROUP_TOL = 1e-9
DIMENSION_CAP = 8192
GIBBS_TAIL_WARN = 1e-6


# ---------------------------------------------------------------------------
# reservoir discretization
# ---------------------------------------------------------------------------

@dataclass
class ReservoirModes:
    """Discretized reservoir: mode frequencies, couplings, occupation cutoff.

    couplings g_j satisfy g_j^2 = J(xi_j) * w_j with quadrature weights w_j,
    so sums over modes approximate integrals against the bare density.
    """

    label: str
    beta: float
    frequencies: np.ndarray
    couplings: np.ndarray
    n_max: int

    def __post_init__(self):
        try:
            self.frequencies = np.asarray(self.frequencies, dtype=float)
            self.couplings = np.asarray(self.couplings, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError("mode frequencies and couplings must be "
                              "numbers") from None
        if self.frequencies.ndim != 1 or \
                self.frequencies.shape != self.couplings.shape:
            raise ConfigError("mode frequencies and couplings must be "
                              "1-d arrays of equal length")
        if len(self.frequencies) == 0:
            raise EmptyRange(f"reservoir '{self.label}' has no modes")
        if not np.all(self.frequencies > 0):
            raise ConfigError("mode frequencies must be positive")
        if not (np.all(np.isfinite(self.frequencies))
                and np.all(np.isfinite(self.couplings))):
            raise ConfigError("mode frequencies and couplings must be finite")
        if (isinstance(self.n_max, bool) or not isinstance(self.n_max, Integral)
                or self.n_max < 1):
            raise ConfigError(f"occupation cutoff n_max must be an integer "
                              f">= 1, got {self.n_max!r}")
        self.n_max = int(self.n_max)

    @property
    def n_modes(self):
        return len(self.frequencies)

    def min_spacing(self):
        if self.n_modes < 2:
            return np.inf
        return float(np.diff(np.sort(self.frequencies)).min())


def resonant_modes(system, reservoir, n_modes, spacing, n_max=2):
    """Modes on uniform grids of the given spacing centered on every positive
    Bohr frequency of the system (one grid per frequency, concatenated)."""
    freqs = [w for w in system.bohr_frequencies if w > 0]
    if not freqs:
        raise EmptyRange("system has no positive transition frequency")
    xi, g = [], []
    for w in freqs:
        offsets = (np.arange(n_modes) - (n_modes - 1) / 2) * spacing
        nodes = w + offsets
        if nodes[0] <= 0:
            raise EmptyRange(
                f"spacing {spacing} pushes modes below zero at frequency {w}")
        xi.append(nodes)
        g.append(np.sqrt(reservoir.density(nodes) * spacing))
    return ReservoirModes(label=reservoir.label, beta=reservoir.beta,
                          frequencies=np.concatenate(xi),
                          couplings=np.concatenate(g), n_max=n_max)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

@dataclass
class FiniteVolumeModel:
    """Assembled finite-volume instance.

    Basis layout is system-major: full index b = i * mode_dim + m where m
    runs over occupation configurations of all modes (reservoir 0 modes
    first, each mode big-endian).  hamiltonian is the full H as a
    scipy.sparse CSR matrix; no dense full-space copy is stored.
    reservoir_energy[k, m] is the energy in reservoir k of configuration m;
    gibbs_weights is the truncated, renormalized thermal distribution over
    configurations.  gibbs_tail is the largest single-mode thermal weight
    beyond its occupation cutoff, max_j e^{-beta xi_j (n_max + 1)}, the
    quantity TruncationWarning reports.
    """

    system: object
    reservoirs: list
    modes: list
    lam: float
    hamiltonian: object                 # scipy.sparse CSR, (dim, dim)
    reservoir_energy: np.ndarray        # (n_reservoirs, mode_dim)
    gibbs_weights: np.ndarray           # (mode_dim,)
    gibbs_tail: float
    _eig: list = field(default=None, repr=False)
    _prop: dict = field(default_factory=dict, repr=False)
    _qbasis: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self):
        return self.hamiltonian.shape[0]

    @property
    def sys_dim(self):
        return self.system.dim

    @property
    def mode_dim(self):
        return self.dim // self.sys_dim

    @property
    def n_reservoirs(self):
        return len(self.reservoirs)

    def recurrence_horizon(self):
        """Half the shortest recurrence period 2 pi / (mode spacing)."""
        spacing = min(m.min_spacing() for m in self.modes)
        return np.pi / spacing if np.isfinite(spacing) else np.inf

    def _eig_data(self):
        """Per-block (indices, eigvals, eigvecs) over the exact sparsity
        components of H.  Conserved checkerboard parities (e.g. sigma_x
        coupling to linear mode displacements) split the matrix in two,
        quartering the diagonalization cost with no approximation; each
        block is densified on its own, and the blocks are diagonalized side
        by side when BLAS runs one thread.  When H has no imaginary part
        (real system Hamiltonian and real couplings), its real part goes to
        the real symmetric solver, whose eigenvectors are real; a complex H
        goes to the complex Hermitian solver."""
        if self._eig is None:
            ham = self.hamiltonian
            if not np.any(ham.data.imag):
                ham = ham.real
            n_comp, labels = scipy.sparse.csgraph.connected_components(
                ham != 0, directed=False)

            def block(idx):
                eps, vecs = np.linalg.eigh(ham[idx][:, idx].toarray())
                return idx, eps, vecs
            self._eig = _block_map(
                block, [np.flatnonzero(labels == c) for c in range(n_comp)])
        return self._eig

    def propagator(self, t):
        """U = exp(-i t H) as its diagonal blocks [(indices, U_block)], one
        per sparsity component of H in _eig_data's order; cached for the
        handful of times in active use.  U is zero off these blocks, so no
        dense U is formed.  Each block is V e^{-i E t} V*; for real V that
        is built from two real products, Re U = (V cos Et) V^T and
        Im U = -(V sin Et) V^T, in place of one complex product.  The blocks
        are built side by side when BLAS runs one thread."""
        key = float(t)
        if key not in self._prop:
            if len(self._prop) >= 4:
                self._prop.clear()
            self._prop[key] = _block_map(
                lambda blk: (blk[0], _block_propagator(blk[1], blk[2], t)),
                self._eig_data())
        return self._prop[key]


def _block_propagator(eps, vecs, t):
    """V e^{-i E t} V* for one block's eigenpairs."""
    if np.iscomplexobj(vecs):
        return (vecs * np.exp(-1j * eps * t)) @ vecs.conj().T
    u = np.empty((len(eps), len(eps)), dtype=complex)
    u.real = (vecs * np.cos(eps * t)) @ vecs.T
    u.imag = (vecs * -np.sin(eps * t)) @ vecs.T
    return u


def _block_layout(blocks, sys_dim):
    """label[i, m] and pos[i, m]: the block of propagator(t)'s list that
    holds the basis state (i, m), and its position within that block."""
    dim = sum(len(idx) for idx, _ in blocks)
    label = np.empty(dim, dtype=np.intp)
    pos = np.empty(dim, dtype=np.intp)
    for n, (idx, _) in enumerate(blocks):
        label[idx] = n
        pos[idx] = np.arange(len(idx))
    return label.reshape(sys_dim, -1), pos.reshape(sys_dim, -1)


def _aligned_modes(label, x, y):
    """{(beta, gamma): modes m with (x, m) in block beta and (y, m) in
    block gamma}, each array of modes in ascending order."""
    n = int(label.max()) + 1
    key = label[x] * n + label[y]
    order = np.argsort(key, kind="stable")
    cuts = np.flatnonzero(np.diff(key[order])) + 1
    return {divmod(int(key[g[0]]), n): g for g in np.split(order, cuts)}


def _sub_block(u, rows, cols):
    """u[np.ix_(rows, cols)] for ascending positions; a run of consecutive
    positions is taken as a slice, so a whole block row range is a view."""
    def run(p):
        return slice(p[0], p[-1] + 1) if p[-1] - p[0] + 1 == len(p) else p
    return u[run(rows)][:, run(cols)]


def _block_map(fn, items):
    """[fn(x) for x in items], on separate cores when BLAS runs one thread.

    Each item is an independent one-thread BLAS/LAPACK call, so running
    them side by side returns the same bits as running them in turn.
    OpenBLAS takes its thread count from OPENBLAS_NUM_THREADS, then
    GOTO_NUM_THREADS, then OMP_NUM_THREADS, and otherwise runs one per
    core; with more than one BLAS thread the loop stays serial.  The calling
    thread takes the first item itself: every extra thread allocates from
    its own malloc arena, which keeps what it frees, so one thread fewer
    keeps the peak memory near the serial loop's.  The pool lives for one
    call only: a pool held across the fork of a process pool can deadlock
    in the child.
    """
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    blas_threads = cores
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            blas_threads = int(value)
            break
    workers = min(len(items), cores) if blas_threads == 1 else 1
    if workers < 2:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        rest = pool.map(fn, items[1:])
        first = fn(items[0])
        return [first, *rest]


def _mode_occupations(dims):
    """occupations[j, m] = occupation of mode j in configuration m."""
    total = int(np.prod(dims))
    occ = np.zeros((len(dims), total), dtype=np.int64)
    stride = total
    for j, dj in enumerate(dims):
        stride //= dj
        occ[j] = (np.arange(total) // stride) % dj
    return occ


def assemble(model, modes):
    """Build the full Hamiltonian (sparse CSR), reservoir energy observables,
    and the truncated Gibbs weights for a model plus one ReservoirModes per
    reservoir (matched by order).  The free system part is the diagonal of
    the system Hamiltonian, so an off-diagonal entry raises ConfigError."""
    if len(modes) != len(model.reservoirs):
        raise ConfigError("need exactly one mode set per reservoir")
    for res, mm in zip(model.reservoirs, modes):
        if res.label != mm.label:
            raise ConfigError(
                f"mode set '{mm.label}' does not match reservoir '{res.label}'")
    sys_ham = model.system.hamiltonian
    off_diag = np.argwhere(sys_ham - np.diag(np.diag(sys_ham)) != 0)
    if len(off_diag):
        i, j = off_diag[0]
        raise ConfigError(
            "finite volume needs the system Hamiltonian diagonal in the "
            f"input basis; entry ({i}, {j}) is {sys_ham[i, j]:.6g}")
    d = model.system.dim
    dims = [m.n_max + 1 for m in modes for _ in m.frequencies]
    mode_dim = int(np.prod(dims))
    total = d * mode_dim
    if total > DIMENSION_CAP:
        raise DimensionCap(
            f"finite-volume dimension {total} exceeds the cap {DIMENSION_CAP}")

    flat = [(k, xi, g)
            for k, m in enumerate(modes)
            for xi, g in zip(m.frequencies, m.couplings)]
    occ = _mode_occupations(dims)

    # reservoir energies per configuration and the Gibbs distribution
    n_res = len(modes)
    energy = np.zeros((n_res, mode_dim))
    for j, (k, xi, _) in enumerate(flat):
        energy[k] += xi * occ[j]
    betas = np.array([m.beta for m in modes])
    logw = -betas @ energy
    logw -= logw.max()
    weights = np.exp(logw)
    weights /= weights.sum()

    worst = 0.0
    for j, (k, xi, _) in enumerate(flat):
        worst = max(worst, np.exp(-betas[k] * xi * dims[j]))
    if worst > GIBBS_TAIL_WARN:
        warnings.warn(
            f"thermal occupation tail beyond the cutoff reaches {worst:.2e}; "
            "truncated Gibbs weights are biased", TruncationWarning)

    # interaction: lam * sum_j g_j (D_k (x) a_j^dag + D_k^dag (x) a_j)
    ham = scipy.sparse.csr_matrix((total, total), dtype=complex)
    if model.lam != 0.0:
        for j, (k, xi, g) in enumerate(flat):
            if g == 0.0:
                continue
            nj = dims[j]
            raise_op = scipy.sparse.diags(np.sqrt(np.arange(1, nj)), -1)
            left = scipy.sparse.identity(int(np.prod(dims[:j])), format="csr")
            right = scipy.sparse.identity(int(np.prod(dims[j + 1:])),
                                          format="csr")
            adag = scipy.sparse.kron(scipy.sparse.kron(left, raise_op), right)
            coupling = scipy.sparse.csr_matrix(model.reservoirs[k].coupling)
            term = scipy.sparse.kron(coupling, adag)
            ham = ham + model.lam * g * (term + term.conj().T)

    # free part: system energies plus mode energies, all diagonal
    sys_diag = np.real(np.diag(sys_ham))
    full_diag = (sys_diag[:, None] + energy.sum(axis=0)[None, :]).ravel()
    ham = (ham + scipy.sparse.diags(full_diag)).tocsr()
    check_hermitian(ham, "finite-volume Hamiltonian")

    return FiniteVolumeModel(system=model.system,
                             reservoirs=list(model.reservoirs),
                             modes=list(modes), lam=model.lam,
                             hamiltonian=ham, reservoir_energy=energy,
                             gibbs_weights=weights, gibbs_tail=float(worst))


def resonant_instance(model, t, n_modes, n_max, spacing_margin):
    """Instance at model.lam on resonant_modes grids of n_modes modes per
    transition frequency and reservoir, spaced spacing_margin * pi / t, so
    that t is spacing_margin times each grid's recurrence horizon."""
    spacing = spacing_margin * np.pi / t
    modes = [resonant_modes(model.system, res, n_modes, spacing, n_max)
             for res in model.reservoirs]
    return assemble(model, modes)


# ---------------------------------------------------------------------------
# two-point measurement statistics
# ---------------------------------------------------------------------------

@dataclass
class TpmDistribution:
    """Atoms of the transferred-energy distribution at time t."""

    support: np.ndarray          # (n_atoms, n_reservoirs)
    probabilities: np.ndarray    # (n_atoms,)
    t: float

    def total(self):
        return float(self.probabilities.sum())

    def laplace(self, kappa):
        """sum_y P(y) e^{-(kappa|y)}; kappa may be complex (Fourier)."""
        kappa = np.atleast_1d(np.asarray(kappa))
        return complex(np.sum(self.probabilities
                              * np.exp(-self.support @ kappa)))

    def mean(self):
        return self.probabilities @ self.support


def _check_rho(rho, d):
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d, d):
        raise ConfigError(f"system state must be {d}x{d}")
    check_hermitian(rho, "system state")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ConfigError("system state must have unit trace")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise ConfigError("system state must be positive semidefinite")
    return rho


def _q_basis(fv, t):
    """[(j, k, G_jk)] for j <= k, with
    G_jk[m', m] = sum_i U[(i,m'),(j,m)] conj U[(i,m'),(k,m)] for U at t,
    so that the Q matrix of any system state is Re sum_jk rho_jk G_jk.

    A term is nonzero only where (i, m'), (j, m) and (k, m) lie in one
    block of U, so each block adds its aligned sub-blocks and pairs (j, k)
    that no block joins are left out: under sigma_x coupling only the G_jj
    remain.  G_jj is real, and G_kj = conj G_jk is not stored.  Cached per
    t with the same bound as the propagator.
    """
    key = float(t)
    if key in fv._qbasis:
        return fv._qbasis[key]
    blocks = fv.propagator(t)
    d, M = fv.sys_dim, fv.mode_dim
    label, pos = _block_layout(blocks, d)
    rows = [_aligned_modes(label, i, i) for i in range(d)]
    basis = []
    for j in range(d):
        for k in range(j, d):
            cols = _aligned_modes(label, j, k)
            shared = [bg for bg in cols if bg[0] == bg[1]]
            if not shared:
                continue
            g = np.zeros((M, M), dtype=float if j == k else complex)
            for bg in shared:
                u, cc = blocks[bg[0]][1], cols[bg]
                for i in range(d):
                    r = rows[i].get(bg)
                    if r is None:
                        continue
                    x = _sub_block(u, pos[i, r], pos[j, cc])
                    if j == k:
                        g[np.ix_(r, cc)] += x.real ** 2 + x.imag ** 2
                    else:
                        y = _sub_block(u, pos[i, r], pos[k, cc])
                        g[np.ix_(r, cc)] += x * y.conj()
            basis.append((j, k, g))
    if len(fv._qbasis) >= 4:
        fv._qbasis.clear()
    fv._qbasis[key] = basis
    return basis


def _q_matrix(fv, rho, t):
    """Q[m', m] = sum_i <(i,m')| U (rho (x) |m><m|) U* |(i,m')> for U at t,
    formed from the Q basis of that time as Re sum_jk rho_jk G_jk.

    Everything downstream (chi for any kappa, the full TPM distribution)
    reduces to contractions of Q with the Gibbs weights and energy phases.
    """
    q = np.zeros((fv.mode_dim, fv.mode_dim))
    for j, k, g in _q_basis(fv, t):
        if j == k:
            q += rho[j, j].real * g
        else:
            # rho_jk G_jk + rho_kj conj G_jk, real part
            c = rho[j, k] + np.conj(rho[k, j])
            q += c.real * g.real - c.imag * g.imag
    return q


def characteristic_function(fv, rho_system, kappa, t):
    """chi(kappa, t) = E[e^{-(kappa|y)}] over the two-point measurement of
    the reservoir energies; real kappa gives the Laplace regime, imaginary
    kappa the Fourier regime."""
    kappa = np.atleast_1d(np.asarray(kappa))
    if kappa.shape != (fv.n_reservoirs,):
        raise ConfigError("kappa must have one entry per reservoir")
    if t == 0.0 or fv.lam == 0.0:
        return 1.0 + 0.0j
    rho = _check_rho(rho_system, fv.sys_dim)
    spread = np.abs(kappa.real) @ np.abs(fv.reservoir_energy).max(axis=1)
    if spread > 690.0:
        raise OverflowGuard(
            f"counting weight exponent {spread:.1f} exceeds the safe range",
            diagnostics={"exponent": float(spread)})
    Q = _q_matrix(fv, rho, t)
    phase_out = np.exp(-kappa @ fv.reservoir_energy)
    phase_in = np.exp(kappa @ fv.reservoir_energy) * fv.gibbs_weights
    return complex(phase_out @ Q @ phase_in)


def _lattice_groups(points, scale):
    """Group the rows of points that round to the same multiple of
    GROUP_TOL * max(1, scale); returns (labels, group means), the groups in
    lexicographic order of their integer keys."""
    keys = np.round(points / (GROUP_TOL * max(1.0, scale))).astype(np.int64)
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    labels = np.empty(len(keys), dtype=np.intp)
    labels[order] = np.cumsum(starts) - 1
    n_grp = int(starts.sum())
    means = np.zeros((n_grp, points.shape[1]))
    counts = np.bincount(labels, minlength=n_grp).astype(float)
    for k in range(points.shape[1]):
        means[:, k] = np.bincount(labels, weights=points[:, k],
                                  minlength=n_grp) / counts
    return labels, means


def tpm_distribution(fv, rho_system, t):
    """Distribution of y = (measured final - initial) reservoir energies.

    At lam = 0 or t = 0 the reservoir energies are conserved and the
    distribution is exactly the point mass at 0.
    """
    if t < 0:
        raise ConfigError("time must be nonnegative")
    n_res = fv.n_reservoirs
    if fv.lam == 0.0 or t == 0.0:
        return TpmDistribution(support=np.zeros((1, n_res)),
                               probabilities=np.array([1.0]), t=float(t))
    rho = _check_rho(rho_system, fv.sys_dim)
    Q = _q_matrix(fv, rho, t)
    energy = fv.reservoir_energy
    labels, values = _lattice_groups(energy.T, float(np.abs(energy).max()))
    # aggregate Q over (final group, initial group), Gibbs-weighting columns
    wq = Q * fv.gibbs_weights[None, :]
    return _reduce_groups(wq, labels, values, t)


def _reduce_groups(wq, labels, values, t):
    n_grp = len(values)
    # two scatter-adds: group the initial index, then the final one
    col = np.zeros((n_grp, wq.shape[0]))      # col[g_init, m_final]
    np.add.at(col, labels, wq.T)
    agg = np.zeros((n_grp, n_grp))            # agg[g_final, g_init]
    np.add.at(agg, labels, col.T)

    diffs = values[:, None, :] - values[None, :, :]
    lab, ys = _lattice_groups(diffs.reshape(-1, values.shape[1]),
                              float(np.abs(values).max()))
    probs = np.bincount(lab, weights=agg.reshape(-1), minlength=len(ys))
    keep = probs > 0
    order = np.lexsort(ys[keep].T[::-1])
    return TpmDistribution(support=ys[keep][order],
                           probabilities=probs[keep][order], t=float(t))


# ---------------------------------------------------------------------------
# weak-coupling comparison
# ---------------------------------------------------------------------------

@dataclass
class WeakCouplingRow:
    lam: float
    t: float
    kappa: np.ndarray
    chi: float
    f_finite: float              # (1/t) log chi
    f_fgr: float                 # lam^2 * leading eigenvalue
    deviation: float             # relative gap
    gibbs_tail: float = 0.0      # FiniteVolumeModel.gibbs_tail of the instance
    horizon_fraction: float = 0.0   # t / recurrence horizon


@dataclass
class WeakCouplingTable:
    rows: list = field(default_factory=list)

    def deviations(self, lam):
        return np.array([r.deviation for r in self.rows if r.lam == lam])

    def median_deviation(self, lam):
        return float(np.median(self.deviations(lam)))

    def lams(self):
        seen = []
        for r in self.rows:
            if r.lam not in seen:
                seen.append(r.lam)
        return seen


def weak_coupling_compare(model, kappas, lams, n_modes=3, n_max=2,
                          t_factor=1.0, spacing_margin=0.8,
                          rho_rule="tilted"):
    """Deviation table |(1/t) log chi - lam^2 f| / (lam^2 |f|) at t = c/lam^2.

    Per lambda an instance with n_modes modes per reservoir is built on
    uniform grids centered at the system transition frequencies, spaced
    spacing_margin * pi / t so the evaluation time stays below half of the
    recurrence period.  The reference system state is the trace-normalized
    tilted stationary state at each kappa ('tilted'), which removes the
    lambda-independent overlap offset from (1/t) log chi, or the maximally
    mixed state ('mixed').

    The instances are assembled with TruncationWarning silenced; each row
    records the instance's Gibbs tail and t / recurrence horizon instead.
    The deviation therefore includes the instance's own occupation-
    truncation and bath discretization bias, not only the higher orders in
    lambda.  For n_modes=3, n_max=2, spacing_margin=1.0 on the reference
    qubit that bias is 0.354 already at O(lambda^2) (lambda = 0.2, median
    over five kappa): the hot-bath Gibbs tail beyond n_max = 2 is about
    e^-3.
    """
    from .scgf import ScgfSolver

    solver = ScgfSolver(model)
    kappas = [np.atleast_1d(np.asarray(k, dtype=float)) for k in kappas]
    table = WeakCouplingTable()
    for lam in lams:
        if lam == 0.0:
            for kappa in kappas:
                table.rows.append(WeakCouplingRow(
                    lam=0.0, t=np.inf, kappa=kappa, chi=1.0, f_finite=0.0,
                    f_fgr=0.0, deviation=0.0))
            continue
        t = t_factor / lam ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            fv = resonant_instance(model.with_lam(lam), t, n_modes, n_max,
                                   spacing_margin)
        horizon = fv.recurrence_horizon()
        # spacing = margin * pi / t puts t right at the horizon for
        # margin = 1; tolerate that boundary to rounding
        if t > horizon * (1.0 + 1e-9):
            raise RecurrenceHorizonExceeded(
                f"evaluation time {t:.3g} exceeds the recurrence horizon "
                f"{horizon:.3g}",
                diagnostics={"t": float(t), "horizon": float(horizon)})
        for kappa in kappas:
            lead = solver.leading(kappa)
            f_rate = lead.eigenvalue.real
            if rho_rule == "tilted":
                rho = lead.left_eigvec / np.trace(lead.left_eigvec)
            elif rho_rule == "mixed":
                rho = np.eye(fv.sys_dim) / fv.sys_dim
            else:
                raise ConfigError(f"unknown rho_rule '{rho_rule}'")
            chi = characteristic_function(fv, rho, kappa, t)
            f_fin = float(np.log(chi.real) / t)
            f_fgr = lam * lam * f_rate
            denom = abs(f_fgr) if abs(f_fgr) > 0 else 1.0
            table.rows.append(WeakCouplingRow(
                lam=float(lam), t=float(t), kappa=kappa,
                chi=float(chi.real), f_finite=f_fin, f_fgr=f_fgr,
                deviation=abs(f_fin - f_fgr) / denom,
                gibbs_tail=fv.gibbs_tail,
                horizon_fraction=float(t / horizon)))
    return table

