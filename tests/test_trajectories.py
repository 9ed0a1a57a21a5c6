"""Jump-process sampling: golden-rule rates, tilted population generator
against the full weak-coupling generator, seeded Monte Carlo statistics,
and the central-limit / fluctuation-relation checks."""

import dataclasses

import numpy as np
import pytest

import oracles
from conftest import (
    canonical_reservoirs,
    counting_density,
    model_fleet,
    weak_link_ladder,
)

import fcslab.model
import fcslab.trajectories

from fcslab import (
    ReservoirSpec,
    SpectralDensity,
    TrajectoryEnsemble,
    build_deformed_lindblad,
    build_rate_process,
    build_system,
    check_fgr_irreducibility,
    clt_test,
    effective_density,
    empirical_scgf,
    entropy_asymmetry,
    make_model,
    mean_current_estimates,
    sample,
    transport_moments,
)
from fcslab.errors import (
    ConfigError,
    EffectiveSampleCollapse,
    EigenvalueCollision,
    PopulationReductionInvalid,
)
from fcslab.model import jump_channels

SEED = 20260825


@pytest.fixture(scope="module")
def qubit():
    return make_model(np.diag([0.5, -0.5]), canonical_reservoirs(), lam=0.1)


@pytest.fixture(scope="module")
def qubit_process(qubit):
    return build_rate_process(qubit.system, qubit.reservoirs)


@pytest.fixture(scope="module")
def qubit_ensemble(qubit_process):
    return sample(qubit_process, 22.4, 4000, seed=SEED)


# ---------------------------------------------------------------------------
# rate process construction
# ---------------------------------------------------------------------------

def test_qubit_transitions_match_golden_rule_rates(qubit_process):
    rp = qubit_process
    down, up = oracles.qubit_rates()
    assert len(rp.rates) == 4
    got = {}
    for m in range(4):
        got[(rp.sources[m], rp.targets[m], rp.reservoirs[m])] = \
            (rp.rates[m], rp.omegas[m])
    for k in range(2):
        # state order is ascending energy: 0 = ground, 1 = excited
        rate, omega = got[(1, 0, k)]
        assert abs(rate - down[k]) < 1e-12 and omega == 1.0
        rate, omega = got[(0, 1, k)]
        assert abs(rate - up[k]) < 1e-12 and omega == -1.0
    assert rp.irreducible


def test_detailed_balance_ratio(qubit_process):
    """KMS forces rate(down)/rate(up) = e^{beta omega} for symmetric D."""
    rp = qubit_process
    for k, beta in enumerate(rp.betas):
        sel = rp.reservoirs == k
        dn = rp.rates[sel & (rp.omegas > 0)][0]
        up = rp.rates[sel & (rp.omegas < 0)][0]
        assert abs(dn / up - np.exp(beta)) < 1e-10 * np.exp(beta)


def test_zero_coupling_gives_no_transitions():
    system = build_system(np.diag([0.5, -0.5]))
    dens = SpectralDensity(form="ohmic",
                           params={"gamma": 0.5, "exponent": 1.0,
                                   "cutoff": 5.0})
    silent = ReservoirSpec(label="off", beta=1.0,
                           coupling=np.zeros((2, 2)), density=dens)
    rp = build_rate_process(system, [silent])
    assert len(rp.rates) == 0 and not rp.irreducible
    with pytest.raises(EigenvalueCollision):
        rp.stationary()


def test_rate_process_reads_the_generator_channels():
    """Rotate a 3-level model whose top level is decoupled: rounding leaves
    matrix elements of order 1e-16 between that level and the others.  The
    transitions are exactly the generator's channels between distinct
    levels, so the process is reducible, as the irreducibility check
    says."""
    rng = np.random.default_rng(3)
    q = np.linalg.qr(rng.normal(size=(3, 3))
                     + 1j * rng.normal(size=(3, 3)))[0]
    block = np.zeros((3, 3))
    block[0, 1] = block[1, 0] = 1.0
    reservoirs = [dataclasses.replace(r, coupling=q @ block @ q.conj().T)
                  for r in canonical_reservoirs()]
    system = build_system(q @ np.diag([0.0, 1.0, 5.0]) @ q.conj().T)
    rp = build_rate_process(system, reservoirs)
    channels = {(k, e, ep) for k, res in enumerate(reservoirs)
                for _, _, _, e, ep, _ in jump_channels(system, res)
                if e != ep}
    assert len(channels) == 4
    assert set(zip(rp.reservoirs.tolist(), rp.sources.tolist(),
                   rp.targets.tolist())) == channels
    assert len(rp.rates) == len(channels)
    assert not rp.irreducible
    assert not check_fgr_irreducibility(system, reservoirs)[0]


def test_rates_take_g_from_the_channel(qubit):
    """Each rate is 2 pi G(omega) |<j|D|i>|^2 with G(omega) bit for bit the
    density's own value at that omega, on the README qubit and a fleet."""
    for model in [qubit] + model_fleet(12, seed=29):
        system = model.system
        rp = build_rate_process(system, model.reservoirs)
        v = system.eigenbasis
        for m in range(len(rp.rates)):
            res = model.reservoirs[rp.reservoirs[m]]
            d_eig = v.conj().T @ np.asarray(res.coupling, dtype=complex) @ v
            g = float(effective_density(res)(rp.omegas[m]))
            i, j = rp.sources[m], rp.targets[m]
            assert rp.rates[m] == 2.0 * np.pi * g * abs(d_eig[j, i]) ** 2


def test_rate_process_evaluates_density_per_reservoir(qubit, monkeypatch):
    """The rates read G from the channel table, which evaluates the density
    once per reservoir on all level pairs; the irreducibility check reads
    the table once more.  No rate makes a scalar call."""
    sizes = []
    real_density = fcslab.model.effective_density

    def density(res):
        return counting_density(real_density(res), sizes)

    monkeypatch.setattr(fcslab.model, "effective_density", density)
    build_rate_process(qubit.system, qubit.reservoirs)
    assert sizes == [qubit.system.dim ** 2] * (2 * qubit.n_reservoirs)


def test_weak_link_in_the_rank_window_is_reducible():
    """At eps = 1e-14 the link to the top level is a channel, but the
    commutant's rank tolerance calls it absent.  The rate process takes
    that decision, so stationary() refuses instead of answering with the
    top level's population silently zero."""
    system, reservoirs = weak_link_ladder(1e-14)
    rp = build_rate_process(system, reservoirs)
    assert {(1, 2), (2, 1)} <= set(zip(rp.sources.tolist(),
                                       rp.targets.tolist()))
    assert not check_fgr_irreducibility(system, reservoirs)[0]
    assert not rp.irreducible
    with pytest.raises(EigenvalueCollision):
        rp.stationary()


def test_degenerate_spectrum_rejected():
    system = build_system(np.eye(3))
    with pytest.raises(PopulationReductionInvalid):
        build_rate_process(system, canonical_reservoirs())


def test_tilted_matrix_is_population_block(qubit):
    """The classical tilted generator must be the diagonal block of the
    deformed Lindblad generator in its state picture, and that block must
    not leak into coherences for a nondegenerate spectrum."""
    for model in [qubit] + model_fleet(3, seed=424, d=3):
        rp = build_rate_process(model.system, model.reservoirs)
        kappa = 0.1 * np.ones(model.n_reservoirs)
        dual = build_deformed_lindblad(model, kappa).dual
        # rotate rho -> V* rho V so populations sit on the diagonal in
        # ascending eigenlevel order, matching the rate-process states
        v = model.system.eigenbasis
        rot = np.kron(v.T, v.conj().T)
        dual = rot @ dual @ np.kron(v.conj(), v)
        d = model.system.dim
        diag_idx = np.arange(d) * (d + 1)
        block = dual[np.ix_(diag_idx, diag_idx)]
        assert np.abs(block - rp.tilted_matrix(kappa)).max() < 1e-12
        off_idx = np.setdiff1d(np.arange(d * d), diag_idx)
        assert np.abs(dual[np.ix_(off_idx, diag_idx)]).max() < 1e-12


def test_tilted_rate_matches_closed_form(qubit_process):
    for kap in ([0.0, 0.0], [0.4, 0.0], [0.3, 0.7], [-0.1, 0.2]):
        want = oracles.qubit_scgf(np.asarray(kap))
        assert abs(qubit_process.tilted_rate(np.asarray(kap)) - want) \
            < 1e-10 * max(1.0, abs(want))


def test_stationary_and_mean_currents(qubit, qubit_process):
    rp = qubit_process
    pi = rp.stationary()
    assert np.all(pi >= 0) and abs(pi.sum() - 1.0) < 1e-14
    assert np.abs(rp.generator() @ pi).max() < 1e-12
    mom = transport_moments(qubit, fd_check=False)
    assert np.abs(rp.mean_currents() - mom.mean_currents / qubit.lam ** 2
                  ).max() < 1e-8


def test_kappa_shape_checked(qubit_process):
    with pytest.raises(ConfigError):
        qubit_process.tilted_matrix(np.array([0.1]))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_seed_determinism(qubit_process):
    a = sample(qubit_process, 8.0, 64, seed=3)
    b = sample(qubit_process, 8.0, 64, seed=3)
    c = sample(qubit_process, 8.0, 64, seed=4)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.n_jumps, b.n_jumps)
    assert not np.array_equal(a.y, c.y)


def test_worker_split_invariance(qubit_process):
    serial = sample(qubit_process, 8.0, 120, seed=3)
    split = sample(qubit_process, 8.0, 120, seed=3, jobs=2)
    assert np.array_equal(serial.y, split.y)


def test_sample_argument_guards(qubit_process):
    with pytest.raises(ConfigError):
        sample(qubit_process, -1.0, 10, seed=0)
    with pytest.raises(ConfigError):
        sample(qubit_process, 1.0, 0, seed=0)
    with pytest.raises(ConfigError):
        sample(qubit_process, 1.0, 2 ** 32, seed=0)
    for seed in (-1, True, 1.5, None, "3"):
        with pytest.raises(ConfigError):
            sample(qubit_process, 1.0, 10, seed=seed)


REFERENCE_SEEDS = [0, 3, 2 ** 32, 2 ** 64 + 5]


@pytest.fixture(scope="module")
def four_level_process():
    model = model_fleet(1, seed=7, d=4, n_res=3)[0]
    return build_rate_process(model.system, model.reservoirs)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("seed", REFERENCE_SEEDS)
def test_sample_equals_reference_loop(qubit_process, four_level_process,
                                      seed, jobs):
    """Bulk stream keys and the trimmed loop draw exactly the numbers of
    one SeedSequence per sample; jobs=2 starts a worker at lo > 0."""
    for rp, horizon, n in ((qubit_process, 8.0, 60),
                           (four_level_process, 3.4, 200)):
        ens = sample(rp, horizon, n, seed=seed, jobs=jobs)
        y, n_jumps = oracles.gillespie_reference(rp, horizon, seed, 0, n)
        assert np.array_equal(ens.y, y)
        assert np.array_equal(ens.n_jumps, n_jumps)
        assert n_jumps.sum() > 2 * n


@pytest.mark.parametrize("seed", REFERENCE_SEEDS)
def test_spawn_keys_match_seed_sequence(seed):
    for lo, hi, step in ((0, 3000, 7), (2 ** 32 - 40, 2 ** 32, 1)):
        keys = fcslab.trajectories._spawn_keys(seed, lo, hi)
        assert keys.shape == (hi - lo, 2) and keys.dtype == np.uint64
        for i in range(lo, hi, step):
            want = np.random.SeedSequence(
                seed, spawn_key=(i,)).generate_state(2, np.uint64)
            assert np.array_equal(keys[i - lo], want)


def test_bootstrap_drawn_once_and_row_gather_exact(four_level_process,
                                                   monkeypatch):
    ens = sample(four_level_process, 3.4, 3000, seed=5)
    draws = []
    real = np.random.SeedSequence

    def counting(*args, **kwargs):
        draws.append(kwargs.get("spawn_key"))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    empirical_scgf(ens, 0.05 * four_level_process.betas[None, :])
    est, se = mean_current_estimates(ens)
    est2, se2 = mean_current_estimates(ens)
    assert draws == [(fcslab.trajectories.BOOT_KEY,)]
    assert np.array_equal(se, se2)
    # the full gather of all resamples at once, as one array
    idx = np.random.Generator(np.random.Philox(real(
        5, spawn_key=(fcslab.trajectories.BOOT_KEY,)))).integers(
            0, ens.n_samples, size=(fcslab.trajectories.N_BOOT,
                                    ens.n_samples))
    boot = ens.y[idx].mean(axis=1) / ens.horizon
    assert np.array_equal(se, boot.std(axis=0, ddof=1))
    assert np.array_equal(est, ens.y.mean(axis=0) / ens.horizon)


def test_empirical_scgf_row_gather_exact(four_level_process):
    ens = sample(four_level_process, 3.4, 10_000, seed=5)
    kappas = np.array([0.05, 0.1, 0.15])[:, None] * \
        four_level_process.betas[None, :]
    emp = empirical_scgf(ens, kappas)
    idx = fcslab.trajectories._bootstrap_indices(ens)
    for kap, se in zip(kappas, emp.std_errors):
        logw = -(ens.y @ kap)
        shift = logw.max()
        w = np.exp(logw - shift)
        # the full gather of all resamples at once, as one array
        boot = (shift + np.log(w[idx].mean(axis=1))) / ens.horizon
        assert se == boot.std(ddof=1)


def test_equilibrium_entropy_production_vanishes():
    dens = SpectralDensity(form="ohmic",
                           params={"gamma": 0.5, "exponent": 1.0,
                                   "cutoff": 5.0})
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    eq = make_model(
        np.diag([0.5, -0.5]),
        [ReservoirSpec(label="a", beta=1.5, coupling=sx, density=dens),
         ReservoirSpec(label="b", beta=1.5, coupling=sx, density=dens)],
        lam=0.1)
    rp = build_rate_process(eq.system, eq.reservoirs)
    assert np.abs(rp.mean_currents()).max() < 1e-12
    ens = sample(rp, 10.0, 2000, seed=11)
    se = ens.entropy.std(ddof=1) / np.sqrt(ens.n_samples)
    assert abs(ens.entropy.mean()) < 3 * se


def test_mean_currents_within_errors(qubit_process, qubit_ensemble):
    est, se = mean_current_estimates(qubit_ensemble)
    pulls = (est - qubit_process.mean_currents()) / se
    assert np.abs(pulls).max() < 3.0


# ---------------------------------------------------------------------------
# empirical generating function
# ---------------------------------------------------------------------------

def test_empirical_scgf_zero_is_exact(qubit_ensemble):
    emp = empirical_scgf(qubit_ensemble, np.zeros((1, 2)))
    assert emp.estimates[0] == 0.0
    assert abs(emp.pulls()[0]) < 1e-8


def test_empirical_scgf_matches_perron(qubit_ensemble):
    emp = empirical_scgf(qubit_ensemble, np.array([[0.2, 0.4], [0.1, 0.0]]))
    assert np.abs(emp.pulls()).max() < 3.0
    assert np.all(emp.ess > 1000)


def test_empirical_scgf_midpoint_convexity(qubit_ensemble):
    kline = np.array([[0.1, 0.2], [0.2, 0.4], [0.3, 0.6]])
    emp = empirical_scgf(qubit_ensemble, kline)
    surplus = 0.5 * (emp.estimates[0] + emp.estimates[2]) - emp.estimates[1]
    assert surplus > -3 * emp.std_errors.sum()


def test_effective_sample_collapse(qubit_ensemble):
    with pytest.raises(EffectiveSampleCollapse):
        empirical_scgf(qubit_ensemble, np.array([[5.0, 0.0]]))


# ---------------------------------------------------------------------------
# central limit and entropy asymmetry
# ---------------------------------------------------------------------------

def _fgr_moments(model):
    mom = transport_moments(model, fd_check=False)
    lam2 = model.lam ** 2
    return mom.mean_currents / lam2, mom.covariance / lam2


def test_clt_on_sampled_qubit(qubit, qubit_process, qubit_ensemble):
    currents, cov = _fgr_moments(qubit)
    report = clt_test(qubit_ensemble, currents, cov)
    # the conserved total-exchange direction must be excluded, not tested
    assert report.n_dropped == 1
    assert report.passed


def test_clt_synthetic_gaussian_calibration(qubit, qubit_process):
    currents, cov = _fgr_moments(qubit)
    t = 22.4
    rng = np.random.default_rng(5)
    y = t * currents + np.sqrt(t) * rng.multivariate_normal(
        np.zeros(2), cov + 1e-12 * np.eye(2), size=6000)
    ens = TrajectoryEnsemble(process=qubit_process, horizon=t, seed=99,
                             y=y, n_jumps=np.zeros(6000, dtype=np.int64),
                             mixing_ratio=np.inf)
    assert clt_test(ens, currents, cov).passed


def test_clt_short_horizon_negative_control(qubit, qubit_process):
    """One relaxation time is far from the Gaussian regime."""
    currents, cov = _fgr_moments(qubit)
    ens = sample(qubit_process, 1.0 / qubit_process.spectral_gap(), 10_000,
                 seed=SEED)
    assert not clt_test(ens, currents, cov).passed


def test_entropy_asymmetry_trend(qubit_process):
    ens = sample(qubit_process, 11.2, 10_000, seed=SEED)
    mids, measured = entropy_asymmetry(ens)
    assert len(mids) >= 3
    # fluctuation relation: measured log-ratio slope tracks the rate itself
    assert np.all(measured > 0)
    assert np.allclose(measured, mids, rtol=0.45, atol=0.03)
