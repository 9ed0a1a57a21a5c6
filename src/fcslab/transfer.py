"""Transfer-operator route to the cumulant generating function.

The deformed finite-volume dynamics is compressed onto the system by
embedding system states as products with the reservoir Gibbs state and
partial-tracing back after each block of evolution.  Inserting return-to-
product projections between blocks telescopes the compressed multi-step map
into polymer blocks W_n whose norms decay geometrically; the blocks feed a
transfer operator on a half-line lattice whose shift part is tamed by an
exponential similarity, leaving an isolated leading eigenvalue e^{tau f}.
The construction only uses the finite-volume propagator, so it probes f at
finite lambda independently of the perturbative generator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    ConfigError,
    DeformationTooWeak,
    RecurrenceHorizonExceeded,
    TruncationWarning,
)
from .finite_volume import (
    _aligned_modes,
    _block_layout,
    _sub_block,
    assemble,
    resonant_modes,
)
from .lindblad import unvec

N_BLOCK_DEFAULT = 6
N_MAX_DEFAULT = 5


# ---------------------------------------------------------------------------
# compressed dynamics
# ---------------------------------------------------------------------------

def compressed_map(fv, kappa, t):
    """Matrix of S -> Tr_R Z_t(S (x) rho_ref) on the d^2 system space, with
    rho_ref the truncated Gibbs state diag(w) of the reservoir modes.

    The deformed one-sided propagator is B = Gamma(kappa/2) U_t
    Gamma(-kappa/2) with Gamma(nu) = e^{-(nu | reservoir energies)}, and the
    map contracts two copies of it over the mode indices:
    out[a + c d, b + e d] = sum_{m',m} p(m') U[(a,m'),(b,m)] w_m / p(m)
    conj U[(c,m'),(e,m)] with p = e^{-(kappa | E)} (a, b index the ket side,
    c, e the bra side).  U is block diagonal over the sparsity components
    of H, so a term is nonzero only where (a,m') and (b,m) lie in one block
    beta and (c,m') and (e,m) in one block gamma.  Those m' and m form a
    product set, and each entry is a weighted sum over the aligned
    sub-blocks of U_beta and U_gamma; no full-space matrix is formed.
    """
    kappa = np.atleast_1d(np.asarray(kappa, dtype=float))
    if kappa.shape != (fv.n_reservoirs,):
        raise ConfigError("kappa must have one entry per reservoir")
    d = fv.sys_dim
    if t == 0.0:
        return np.eye(d * d, dtype=complex)
    blocks = fv.propagator(t)
    label, pos = _block_layout(blocks, d)
    # only p(m') / p(m) enters: centring the exponent keeps each factor
    # within e^{+-(kappa | E) range / 2}
    s = kappa @ fv.reservoir_energy
    p = np.exp(0.5 * (s.max() + s.min()) - s)
    row_w, col_w = p, fv.gibbs_weights / p
    groups = {(a, c): _aligned_modes(label, a, c)
              for a in range(d) for c in range(d)}
    out = np.empty((d * d, d * d), dtype=complex)
    for (a, c), rows in groups.items():
        for (b, e), cols in groups.items():
            if (c, a, e, b) < (a, c, b, e):
                continue        # filled as the conjugate of (c, a; e, b)
            total = 0.0j
            for bg in sorted(rows.keys() & cols.keys()):
                r, cc = rows[bg], cols[bg]
                x = _sub_block(blocks[bg[0]][1], pos[a, r], pos[b, cc])
                y = _sub_block(blocks[bg[1]][1], pos[c, r], pos[e, cc])
                total += row_w[r] @ (x * y.conj()) @ col_w[cc]
            out[a + c * d, b + e * d] = total
            out[c + a * d, e + b * d] = np.conj(total)
    return out


@dataclass
class CompressedDynamics:
    """One block of deformed dynamics seen from the system.

    tau is the block time on the rate (lambda^2 t) scale; the underlying
    full-space evolution runs for t_phys = tau / lambda^2.
    """

    fv: object
    kappa: np.ndarray
    lam: float
    tau: float
    t_phys: float
    matrix: np.ndarray

    def multi_step(self, m):
        """I-down Z_{m t_phys} I-up, computed directly (not via products)."""
        return compressed_map(self.fv, self.kappa, m * self.t_phys)


def compressed_step(fv, kappa, tau, lam=None):
    if lam is None:
        lam = fv.lam
    if lam != fv.lam:
        raise ConfigError(
            f"lambda {lam} does not match the assembled instance ({fv.lam})")
    if lam == 0.0:
        raise ConfigError("compressed dynamics needs lambda != 0; "
                          "use compressed_map with an explicit time instead")
    if tau <= 0:
        raise ConfigError("block time tau must be positive")
    kappa = np.atleast_1d(np.asarray(kappa, dtype=float))
    t_phys = tau / lam ** 2
    return CompressedDynamics(fv=fv, kappa=kappa, lam=float(lam),
                              tau=float(tau), t_phys=float(t_phys),
                              matrix=compressed_map(fv, kappa, t_phys))


# ---------------------------------------------------------------------------
# polymer blocks
# ---------------------------------------------------------------------------

@dataclass
class PolymerBlocks:
    """Blocks W_n of the telescoped compressed dynamics, n = 1..n_max.

    W_1 is the single-block compressed map; higher blocks carry the memory
    that survives the return-to-product insertions, with ||W_n|| <= c^{n-1}.
    c_hat is the least-squares fit of that bound on n >= 2 (through the
    origin in log coordinates, matching the prefactor-free bound); None for
    a single block.
    """

    cd: CompressedDynamics
    blocks: list
    norms: np.ndarray = field(init=False)
    c_hat: float | None = field(init=False)

    def __post_init__(self):
        self.norms = np.array([np.linalg.norm(w, 2) for w in self.blocks])
        self.c_hat = None
        if self.n_max >= 2:
            xs = np.arange(1, self.n_max)           # n - 1 for n = 2..n_max
            ys = np.log(np.maximum(self.norms[1:], 1e-300))
            self.c_hat = float(np.exp(np.dot(xs, ys) / np.dot(xs, xs)))

    @property
    def n_max(self):
        return len(self.blocks)

    @property
    def tau(self):
        return self.cd.tau

    @property
    def lam(self):
        return self.cd.lam

    @property
    def d2(self):
        return self.blocks[0].shape[0]


def extract_blocks(cd, n_max=N_MAX_DEFAULT):
    """Telescope the compressed dynamics into W_1..W_n_max.

    Conditions the composition identity on its last factor,
    W_m = C_m - sum_{j<m} W_j C_{m-j} with C_m the directly computed
    m-step compressed maps, which needs no full-space chains.  The literal
    insertion chain (propagate embedded basis states block by block,
    subtracting the return-to-product part after each compression) agrees
    to roundoff and serves the tests as an independent check.
    """
    n_max = int(n_max)
    if n_max < 1:
        raise ConfigError("need n_max >= 1")
    horizon = cd.fv.recurrence_horizon()
    if n_max * cd.t_phys > horizon * (1 + 1e-12):
        raise RecurrenceHorizonExceeded(
            f"extracting {n_max} blocks of physical length {cd.t_phys:.3g} "
            f"needs {n_max * cd.t_phys:.3g} of coherent evolution, beyond "
            f"the recurrence horizon {horizon:.3g}",
            diagnostics={"n_max": n_max, "t_phys": cd.t_phys,
                         "horizon": float(horizon)})
    cs = [cd.matrix] + [cd.multi_step(m) for m in range(2, n_max + 1)]
    ws = []
    for m in range(1, n_max + 1):
        w = cs[m - 1].copy()
        for j in range(1, m):
            w -= ws[j - 1] @ cs[m - j - 1]
        ws.append(w)
    return PolymerBlocks(cd=cd, blocks=ws)


# ---------------------------------------------------------------------------
# transfer operator and spectral deformation
# ---------------------------------------------------------------------------

def _lattice_matrix(blocks, n_block, delta):
    """T on sites 0..n_block: column-1 blocks e^{(n-1) delta} W_n plus the
    down-shift scaled by e^{-delta}; the cut edge is absorbing."""
    d2 = blocks.d2
    size = (n_block + 1) * d2
    t = np.zeros((size, size), dtype=complex)
    for n in range(1, min(blocks.n_max, n_block) + 1):
        t[n * d2:(n + 1) * d2, d2:2 * d2] += \
            np.exp((n - 1) * delta) * blocks.blocks[n - 1]
    eye = np.exp(-delta) * np.eye(d2)
    for j in range(1, n_block + 1):
        t[(j - 1) * d2:j * d2, j * d2:(j + 1) * d2] += eye
    return t


@dataclass
class TransferOperator:
    """Deformed transfer operator with its isolated leading eigenvalue.

    f_transfer is the physical cumulant-generating rate log(mu) / t_phys;
    rate is the same number on the Fermi-Golden-Rule time scale (divide by
    tau instead), directly comparable to the generator's leading eigenvalue.
    """

    blocks: PolymerBlocks
    n_block: int
    delta: float
    matrix: np.ndarray
    eigenvalues: np.ndarray
    leading: complex
    gap: float                   # per unit tau, from the modulus ratio
    f_transfer: float
    rate: float
    p1_component: np.ndarray
    psd_margin: float

    def compression_residual(self, m):
        """Relative defect of the site-1 block of T^m (undeformed) against
        the directly computed m-step compressed map."""
        if m < 1:
            raise ConfigError("need m >= 1")
        d2 = self.blocks.d2
        t = _lattice_matrix(self.blocks, self.n_block, 0.0)
        power = np.linalg.matrix_power(t, m)
        got = power[d2:2 * d2, d2:2 * d2]
        ref = self.blocks.cd.multi_step(m)
        return float(np.linalg.norm(got - ref, 2)
                     / max(np.linalg.norm(ref, 2), 1e-300))


def build_and_deform(blocks, n_block=N_BLOCK_DEFAULT, delta=None):
    """Assemble the truncated lattice operator, apply the e^{delta R}
    similarity, and extract the isolated leading eigenvalue.

    delta defaults to -0.5 ln c_hat, placing the shifted continuous spectrum
    at radius sqrt(c_hat) while keeping the amplified blocks summable.
    """
    n_block = int(n_block)
    if n_block < 1:
        raise ConfigError("need n_block >= 1")
    c = blocks.c_hat
    if delta is None:
        if c is None or not np.isfinite(c):
            raise ConfigError("no fitted decay constant; pass delta explicitly")
        if c >= 1.0:
            raise DeformationTooWeak(
                f"fitted block decay c_hat = {c:.3g} >= 1; no deformation "
                "window exists", diagnostics={"c_hat": c})
        delta = -0.5 * np.log(c)
    delta = float(delta)
    if c is not None and np.isfinite(c) and c * np.exp(delta) >= 1.0:
        raise DeformationTooWeak(
            f"c_hat e^delta = {c * np.exp(delta):.3g} >= 1 violates the "
            "deformation condition", diagnostics={"c_hat": c, "delta": delta})

    mat = _lattice_matrix(blocks, n_block, delta)
    evals, evecs = scipy.linalg.eig(mat)
    order = np.argsort(-np.abs(evals))
    evals = evals[order]
    evecs = evecs[:, order]
    mu = evals[0]
    second = abs(evals[1]) if len(evals) > 1 else 0.0
    if abs(mu) <= 0 or 1.0 - second / abs(mu) < 1e-9:
        raise DeformationTooWeak(
            "leading eigenvalue is not isolated "
            f"(|mu1| = {abs(mu):.6g}, |mu2| = {second:.6g})",
            diagnostics={"mu1": abs(mu), "mu2": second, "delta": delta})
    if abs(mu.imag) > 1e-6 * abs(mu) or mu.real <= 0:
        raise DeformationTooWeak(
            f"leading eigenvalue {mu:.6g} is not real positive",
            diagnostics={"mu": [mu.real, mu.imag]})

    d2 = blocks.d2
    g1 = unvec(evecs[d2:2 * d2, 0])
    scale = np.linalg.norm(g1)
    tr = np.trace(g1)
    if abs(tr) < 1e-10 * max(scale, 1e-300):
        raise DeformationTooWeak(
            "leading eigenvector has no site-1 component",
            diagnostics={"site1_trace": abs(tr)})
    g1 = g1 / tr
    herm = np.linalg.norm(g1 - g1.conj().T) / max(np.linalg.norm(g1), 1e-300)
    if herm > 1e-6:
        raise DeformationTooWeak(
            f"site-1 eigenvector component is not Hermitian ({herm:.3g})",
            diagnostics={"hermiticity": herm})
    g1 = 0.5 * (g1 + g1.conj().T)
    spec = np.linalg.eigvalsh(g1)
    psd_margin = float(spec.min() / max(spec.max(), 1e-300))
    if psd_margin < -1e-8:
        raise DeformationTooWeak(
            "site-1 eigenvector component is not positive semidefinite "
            f"(margin {psd_margin:.3g})", diagnostics={"psd_margin": psd_margin})

    rate = float(np.log(mu.real) / blocks.tau)
    lam = blocks.lam
    return TransferOperator(
        blocks=blocks, n_block=n_block, delta=delta, matrix=mat,
        eigenvalues=evals, leading=complex(mu),
        gap=float(-np.log(second / abs(mu)) / blocks.tau),
        f_transfer=lam * lam * rate, rate=rate,
        p1_component=g1, psd_margin=psd_margin)


# ---------------------------------------------------------------------------
# instance sizing
# ---------------------------------------------------------------------------

def transfer_instance(model, lam, tau=1.0, n_blocks=2, n_modes=3, n_occ=2,
                      spacing_margin=0.8):
    """Finite-volume instance sized for n_blocks polymer blocks at (lam, tau).

    Mode grids sit on the system transition frequencies with spacing
    spacing_margin * pi / (n_blocks * t_phys), so the full sweep of the
    block extraction stays inside the recurrence horizon.
    """
    if lam == 0.0:
        raise ConfigError("transfer instances need lambda != 0")
    if tau <= 0 or n_blocks < 1:
        raise ConfigError("need tau > 0 and n_blocks >= 1")
    t_phys = tau / lam ** 2
    spacing = spacing_margin * np.pi / (n_blocks * t_phys)
    modes = [resonant_modes(model.system, res, n_modes, spacing, n_occ)
             for res in model.reservoirs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return assemble(model.with_lam(lam), modes)
