"""Monte Carlo sampling of energy-exchange counting statistics.

For a nondegenerate system Hamiltonian the weak-coupling generator closes on
populations, where it is a classical continuous-time jump process on the
eigenlevels: a jump i -> j through reservoir k occurs at golden-rule rate
2 pi G_k(w) |<j|D_k|i>|^2 and deposits w = e_i - e_j into that reservoir.
The process takes its transitions, with their G_k(w), from the model's
channel table `model.jump_channels`, and its irreducibility from
`model.check_fgr_irreducibility`, the decisions the generator is built on.
Gillespie sampling of this process gives empirical transported-energy vectors
whose generating function, mean currents, covariance, and entropy-production
asymmetry can be checked against the spectral predictions.  All rates (and
the trajectory horizon) live on the golden-rule time scale: divide physical
results by lambda^2 before comparing, or equivalently compare against the
spectral quantities before their lambda^2 rescaling.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    EffectiveSampleCollapse,
    EigenvalueCollision,
    PopulationReductionInvalid,
)
from .model import check_fgr_irreducibility, jump_channels

BOOT_KEY = 0xB007          # spawn keys reserving independent substreams
JITTER_KEY = 0xC17
N_BOOT = 200               # bootstrap resamples
MIN_ESS = 50.0             # least effective sample size in empirical_scgf
CLT_SIGNIFICANCE = 0.01    # family-wise level of clt_test, Bonferroni-split


# ---------------------------------------------------------------------------
# rate process on eigenlevels
# ---------------------------------------------------------------------------

@dataclass
class RateProcess:
    """Classical jump process equivalent to the population sector.

    Transitions are stored flat (sources[m] -> targets[m] through reservoir
    reservoirs[m] at rates[m], transporting omegas[m]); they are the
    channels of `model.jump_channels` without the self-loops, each rate
    taking its G(omega) from its channel.  Self-loops carry omega = 0, so
    their counting weight is 1 for every kappa and they cancel between the
    gain and loss terms of the tilted generator; dropping them is exact.
    irreducible is the decision of `model.check_fgr_irreducibility`.
    """

    energies: np.ndarray
    betas: np.ndarray
    labels: tuple
    sources: np.ndarray
    targets: np.ndarray
    reservoirs: np.ndarray
    rates: np.ndarray
    omegas: np.ndarray
    exit_rates: np.ndarray
    irreducible: bool

    @property
    def n_states(self):
        return len(self.energies)

    @property
    def n_reservoirs(self):
        return len(self.betas)

    def generator(self):
        """M with dp/dt = M p on population column vectors."""
        return self.tilted_matrix(np.zeros(self.n_reservoirs))

    def tilted_matrix(self, kappa):
        """Population generator with jump gains weighted by e^{-kappa_k w}."""
        kappa = np.asarray(kappa, dtype=float)
        if kappa.shape != (self.n_reservoirs,):
            raise ConfigError("kappa must have one entry per reservoir")
        d = self.n_states
        m = np.zeros((d, d))
        np.add.at(m, (self.targets, self.sources),
                  self.rates * np.exp(-kappa[self.reservoirs] * self.omegas))
        m[np.diag_indices(d)] -= self.exit_rates
        return m

    def tilted_rate(self, kappa):
        """Leading (Perron) eigenvalue of the tilted population generator."""
        evals = np.linalg.eigvals(self.tilted_matrix(kappa))
        return float(np.max(evals.real))

    def stationary(self):
        """Unique stationary distribution (requires irreducibility)."""
        if not self.irreducible:
            raise EigenvalueCollision(
                "jump channels act reducibly; stationary distribution "
                "is not unique")
        d = self.n_states
        a = self.generator()
        a[-1, :] = 1.0
        b = np.zeros(d)
        b[-1] = 1.0
        pi = np.linalg.solve(a, b)
        pi = np.clip(pi, 0.0, None)
        return pi / pi.sum()

    def spectral_gap(self):
        """Distance from the zero eigenvalue to the rest of the spectrum."""
        evals = np.linalg.eigvals(self.generator())
        re = np.sort(evals.real)[::-1]
        return float(-re[1]) if len(re) > 1 else math.inf

    def mean_currents(self):
        """Exact stationary energy currents into each reservoir,
        sum over transitions of pi(source) rate omega."""
        pi = self.stationary()
        j = np.zeros(self.n_reservoirs)
        np.add.at(j, self.reservoirs,
                  pi[self.sources] * self.rates * self.omegas)
        return j


def build_rate_process(system, reservoirs):
    """Golden-rule jump process for a nondegenerate system spectrum.

    Raises PopulationReductionInvalid when any eigenvalue is repeated: the
    generator then couples populations to coherences and no classical
    reduction exists (the finite-volume route stays available).
    """
    if not system.nondegenerate:
        raise PopulationReductionInvalid(
            "system spectrum is degenerate; populations do not close",
            diagnostics={"multiplicities": system.multiplicities.tolist()})
    d = system.dim
    energies = np.asarray(system.energies, dtype=float)
    v = system.eigenbasis
    sources, targets, res_idx, rates, omegas = [], [], [], [], []
    for k, res in enumerate(reservoirs):
        d_eig = v.conj().T @ np.asarray(res.coupling, dtype=complex) @ v
        for w, _, g, i, j, _ in jump_channels(system, res):
            if i == j:
                continue
            sources.append(i)
            targets.append(j)
            res_idx.append(k)
            rates.append(2.0 * np.pi * g * abs(d_eig[j, i]) ** 2)
            omegas.append(w)
    sources = np.array(sources, dtype=np.intp)
    targets = np.array(targets, dtype=np.intp)
    rates = np.array(rates, dtype=float)
    exit_rates = np.zeros(d)
    np.add.at(exit_rates, sources, rates)
    return RateProcess(
        energies=energies,
        betas=np.array([r.beta for r in reservoirs], dtype=float),
        labels=tuple(r.label for r in reservoirs),
        sources=sources, targets=targets,
        reservoirs=np.array(res_idx, dtype=np.intp),
        rates=rates, omegas=np.array(omegas, dtype=float),
        exit_rates=exit_rates,
        irreducible=check_fgr_irreducibility(system, reservoirs)[0])


# ---------------------------------------------------------------------------
# Gillespie sampling
# ---------------------------------------------------------------------------

def _sampling_tables(rp):
    """Per-state flat tables: (cumulative probabilities, target, reservoir,
    omega), as plain lists for a tight inner loop."""
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
    return tables


# numpy's SeedSequence constants (hash pool of four 32-bit words)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _spawn_keys(seed, lo, hi):
    """Philox keys of the streams SeedSequence(seed, spawn_key=(i,)) for
    i = lo..hi-1, as an (hi - lo, 2) uint64 array.

    Runs numpy's SeedSequence algorithm (hashmix/mix into a pool of four
    words, then generate_state(2, np.uint64)) once, carrying the spawn index
    as an array: every step is the same arithmetic mod 2^32, so row i - lo
    equals generate_state's key bit for bit.  Needs a nonnegative integer
    seed and hi <= 2^32 (one spawn-key word).
    """
    words = [seed & _MASK32]
    seed >>= 32
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    # with a spawn key present, run entropy is zero-padded to the pool size
    words += [0] * (4 - len(words))
    words.append(np.arange(lo, hi, dtype=np.uint64))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    hash_const = _INIT_B
    state = []
    for w in pool:
        w = w ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        w = w * hash_const & _MASK32
        state.append(w ^ w >> 16)
    keys = np.empty((hi - lo, 2), dtype=np.uint64)
    keys[:, 0] = state[0] | state[1] << 32
    keys[:, 1] = state[2] | state[3] << 32
    return keys


def _sample_range(rp, horizon, seed, lo, hi, pi, tables):
    """Samples lo..hi-1, each from its own counter-based stream, so the
    result is independent of how the index range is split across workers."""
    n_res = rp.n_reservoirs
    alive = (rp.exit_rates > 0.0).tolist()
    scales = [1.0 / r if r > 0.0 else 0.0 for r in rp.exit_rates.tolist()]
    pi_cum = np.cumsum(pi).tolist()
    last = rp.n_states - 1
    y = np.zeros((hi - lo, n_res))
    n_jumps = np.zeros(hi - lo, dtype=np.int64)
    keys = _spawn_keys(seed, lo, hi)
    bg = np.random.Philox(key=keys[0])
    fresh = bg.state                    # counter 0 and an empty buffer
    rng = np.random.Generator(bg)
    rand, sexp = rng.random, rng.standard_exponential
    for i in range(hi - lo):
        # rekeying a fresh state gives the stream Philox(SeedSequence(seed,
        # spawn_key=(lo + i,))) would, without building a SeedSequence
        fresh["state"]["key"] = keys[i]
        bg.state = fresh
        state = min(bisect_right(pi_cum, rand()), last)
        t = 0.0
        acc = [0.0] * n_res
        jumps = 0
        # exponential(scale) is scale * standard_exponential() in numpy
        while alive[state]:
            t += scales[state] * sexp()
            if t > horizon:
                break
            cum, targets, res, omegas = tables[state]
            m = bisect_right(cum, rand())
            acc[res[m]] += omegas[m]
            state = targets[m]
            jumps += 1
        y[i] = acc
        n_jumps[i] = jumps
    return y, n_jumps


@dataclass
class TrajectoryEnsemble:
    """Sampled transported-energy vectors over a fixed horizon.

    y[i] collects the energy deposited into each reservoir along sample i;
    entropy[i] = (beta | y[i]) is the entropy produced.  mixing_ratio
    reports horizon * spectral gap, the number of relaxation times the
    horizon spans (stationarity of the estimates needs it >> 1).
    """

    process: RateProcess
    horizon: float
    seed: int
    y: np.ndarray
    n_jumps: np.ndarray
    mixing_ratio: float
    entropy: np.ndarray = field(init=False)
    _boot_idx: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.entropy = self.y @ self.process.betas

    @property
    def n_samples(self):
        return self.y.shape[0]


def sample(rp, horizon, n_samples, seed, jobs=1):
    """Gillespie-sample the jump process; bit-reproducible for fixed seed.

    Every sample draws from the Philox stream of SeedSequence(seed,
    spawn_key=(sample index,)), starting from the stationary distribution,
    so results do not depend on jobs.  seed must be a nonnegative integer.
    """
    if horizon <= 0:
        raise ConfigError("horizon must be positive")
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ConfigError("need at least one sample")
    if n_samples >= 2 ** 32:
        raise ConfigError("at most 2^32 - 1 samples (one 32-bit spawn key)")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) \
            or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    seed = int(seed)
    jobs = max(1, int(jobs))
    pi = rp.stationary()
    tables = _sampling_tables(rp)
    if jobs == 1 or n_samples < 2 * jobs:
        y, n_jumps = _sample_range(rp, horizon, seed, 0, n_samples, pi,
                                   tables)
    else:
        from concurrent.futures import ProcessPoolExecutor
        bounds = np.linspace(0, n_samples, jobs + 1).astype(int)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(
                _sample_range,
                *zip(*[(rp, horizon, seed, int(lo), int(hi), pi, tables)
                       for lo, hi in zip(bounds[:-1], bounds[1:])])))
        y = np.concatenate([p[0] for p in parts])
        n_jumps = np.concatenate([p[1] for p in parts])
    return TrajectoryEnsemble(process=rp, horizon=float(horizon),
                              seed=seed, y=y, n_jumps=n_jumps,
                              mixing_ratio=float(horizon * rp.spectral_gap()))


# ---------------------------------------------------------------------------
# empirical generating function
# ---------------------------------------------------------------------------

@dataclass
class EmpiricalScgf:
    """Empirical (1/T) log <e^{-(kappa|y)}> with bootstrap errors.

    predicted holds the Perron eigenvalue of the tilted population generator
    at each kappa; estimates minus predicted over std_errors is the pull.
    """

    kappas: np.ndarray
    estimates: np.ndarray
    std_errors: np.ndarray
    ess: np.ndarray
    predicted: np.ndarray

    def pulls(self):
        diff = self.estimates - self.predicted
        se = np.where(self.std_errors > 0.0, self.std_errors, 1.0)
        exact = (self.std_errors == 0.0) & (np.abs(diff) < 1e-12)
        return np.where(exact, 0.0, diff / se)


def _bootstrap_indices(ens):
    """N_BOOT resamples of the sample indices, drawn once per ensemble from
    the substream (seed, BOOT_KEY); empirical_scgf and
    mean_current_estimates share them."""
    if ens._boot_idx is None:
        n = ens.n_samples
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(ens.seed, spawn_key=(BOOT_KEY,))))
        ens._boot_idx = rng.integers(0, n, size=(N_BOOT, n))
    return ens._boot_idx


def empirical_scgf(ens, kappas):
    """Estimate the generating function on a kappa grid from the ensemble.

    The exponential average is reweighted Monte Carlo, so each point guards
    its effective sample size (sum w)^2 / sum w^2; deep tilts where a few
    trajectories dominate (ESS below MIN_ESS = 50) raise
    EffectiveSampleCollapse instead of quietly returning noise.  Bootstrap
    resampling indices are drawn once from the substream (seed, BOOT_KEY)
    and shared by all grid points.
    """
    kappas = np.atleast_2d(np.asarray(kappas, dtype=float))
    if kappas.shape[1] != ens.process.n_reservoirs:
        raise ConfigError("kappa grid must have one column per reservoir")
    n = ens.n_samples
    idx = _bootstrap_indices(ens)
    t = ens.horizon
    estimates, errors, esses, preds = [], [], [], []
    for kap in kappas:
        logw = -(ens.y @ kap)
        shift = logw.max()
        w = np.exp(logw - shift)
        sw = w.sum()
        ess = sw * sw / np.dot(w, w)
        if ess < MIN_ESS:
            raise EffectiveSampleCollapse(
                f"effective sample size {ess:.1f} below {MIN_ESS} at "
                f"kappa = {kap.tolist()}",
                diagnostics={"kappa": kap.tolist(), "ess": float(ess),
                             "min_ess": MIN_ESS})
        estimates.append((shift + np.log(sw / n)) / t)
        # one resample at a time: w[idx] would hold N_BOOT copies of w
        boot = (shift + np.log(np.array([w[row].mean() for row in idx]))) / t
        errors.append(boot.std(ddof=1))
        esses.append(ess)
        preds.append(ens.process.tilted_rate(kap))
    return EmpiricalScgf(kappas=kappas, estimates=np.array(estimates),
                         std_errors=np.array(errors), ess=np.array(esses),
                         predicted=np.array(preds))


def mean_current_estimates(ens):
    """Empirical mean currents y/T with bootstrap standard errors, using the
    same resampling indices as empirical_scgf."""
    idx = _bootstrap_indices(ens)
    est = ens.y.mean(axis=0) / ens.horizon
    # one resample at a time: ens.y[idx] would hold N_BOOT copies of y
    boot = np.stack([ens.y[row].mean(axis=0) for row in idx]) / ens.horizon
    return est, boot.std(axis=0, ddof=1)


# ---------------------------------------------------------------------------
# central limit verification
# ---------------------------------------------------------------------------

@dataclass
class CltReport:
    """Distribution test of the scaled counting vector against its Gaussian.

    Testing happens along the eigendirections of the predicted covariance.
    Conserved combinations (zero covariance eigenvalue, e.g. the total
    energy exchanged, which is bounded by the system bandwidth) never become
    diffusive; those directions are excluded and reported in n_dropped.
    Transported energy lives on a lattice of Bohr-frequency sums, so samples
    are smoothed with an independent Gaussian jitter; the null along each
    kept direction is then exactly Gaussian with the jitter's variance
    added, and Kolmogorov-Smirnov applies.  p_values are per kept direction,
    p_mahalanobis tests the squared radius over kept directions against
    chi^2.  passed applies a Bonferroni correction across the tests.
    """

    p_values: np.ndarray
    p_mahalanobis: float
    n_dropped: int
    passed: bool


def clt_test(ens, currents, covariance):
    """Test b_T = (y - T currents)/sqrt(T) against N(0, covariance).

    currents and covariance must be on the golden-rule scale (physical
    moments divided by lambda^2).  The jitter width per component is 0.6
    times the coarsest lattice step of that component's increments, scaled
    by 1/sqrt(T).  Covariance directions with eigenvalue at most 1e-8 times
    the largest are dropped.  passed needs every per-direction test and the
    radius test to pass at CLT_SIGNIFICANCE = 0.01 split over all of them
    (Bonferroni).
    """
    # imported here: scipy.stats costs about a second of start-up, and only
    # this test uses it
    import scipy.stats

    rp = ens.process
    currents = np.asarray(currents, dtype=float)
    covariance = np.asarray(covariance, dtype=float)
    k = rp.n_reservoirs
    if currents.shape != (k,) or covariance.shape != (k, k):
        raise ConfigError("moments do not match the number of reservoirs")
    t = ens.horizon
    b = (ens.y - t * currents) / math.sqrt(t)
    spacing = np.zeros(k)
    for r in range(k):
        w = np.abs(ens.process.omegas[ens.process.reservoirs == r])
        w = w[w > 1e-12]
        spacing[r] = w.min() if len(w) else 0.0
    jitter = 0.6 * spacing / math.sqrt(t)
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(ens.seed, spawn_key=(JITTER_KEY,))))
    z = b + jitter * rng.standard_normal(size=b.shape)

    sigma, u = np.linalg.eigh(covariance)
    keep = sigma > 1e-8 * max(sigma.max(), 1e-300)
    if not np.any(keep):
        raise ConfigError("predicted covariance has no nonzero directions")
    u = u[:, keep]
    # exact null covariance of the projections: the diagonal jitter gains
    # off-diagonal terms under the rotation, so keep the full matrix
    cov_proj = np.diag(sigma[keep]) + (u.T * jitter ** 2) @ u
    widths = np.sqrt(np.diag(cov_proj))
    proj = z @ u
    p_vals = np.zeros(u.shape[1])
    for r in range(u.shape[1]):
        p_vals[r] = scipy.stats.kstest(proj[:, r], "norm",
                                       args=(0.0, widths[r])).pvalue
    r2 = np.einsum("ij,jk,ik->i", proj, np.linalg.inv(cov_proj), proj)
    p_mah = float(scipy.stats.kstest(r2, "chi2", args=(u.shape[1],)).pvalue)
    level = CLT_SIGNIFICANCE / (u.shape[1] + 1)
    passed = bool(np.all(p_vals > level) and p_mah > level)
    return CltReport(p_values=p_vals, p_mahalanobis=p_mah,
                     n_dropped=int(k - u.shape[1]), passed=passed)


# ---------------------------------------------------------------------------
# entropy-production asymmetry
# ---------------------------------------------------------------------------

def entropy_asymmetry(ens):
    """Histogram check of P(S/T = -s) / P(S/T = s) = e^{-Ts}.

    Bins the entropy production rate symmetrically about zero into 8 bins
    up to the 0.995 quantile of |S/T| and returns (rate midpoints, measured
    -(1/T) log ratio) for bins where both signs hold at least 10 samples;
    the fluctuation relation predicts the second column equals the first.
    Statistics in the far negative tail are poor by nature, so this is a
    trend check, not a tolerance one.
    """
    s = ens.entropy / ens.horizon
    hi = np.quantile(np.abs(s), 0.995)
    if hi <= 0:
        raise ConfigError("entropy samples are all zero")
    edges = np.linspace(0.0, hi, 9)
    mids, ratios = [], []
    for lo, up in zip(edges[:-1], edges[1:]):
        n_pos = int(np.count_nonzero((s > lo) & (s <= up)))
        n_neg = int(np.count_nonzero((s < -lo) & (s >= -up)))
        if n_pos >= 10 and n_neg >= 10:
            mids.append(0.5 * (lo + up))
            ratios.append(-math.log(n_neg / n_pos) / ens.horizon)
    return np.array(mids), np.array(ratios)
