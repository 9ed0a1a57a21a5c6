"""Model layer: diagonalization, effective densities, irreducibility."""

import dataclasses

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse
from hypothesis import given
from hypothesis import strategies as st

import oracles
from fcslab import (
    EffectiveDensity,
    ReservoirSpec,
    SpectralDensity,
    bose_occupation,
    build_deformed_lindblad,
    build_system,
    check_fgr_irreducibility,
    correlation_decay_rate,
    default_domain_box,
    effective_density,
    make_model,
)
from fcslab.config import build_from_dict, model_to_dict
from fcslab.errors import (
    ConfigError,
    DegenerateBohrCollision,
    NonHermitianInput,
    NonPositiveTemperature,
)
from fcslab.model import HERMITICITY_TOL, check_hermitian, jump_channels

from conftest import (
    SIGMA_X,
    canonical_reservoirs,
    model_fleet,
    random_hermitian,
    random_model,
    weak_link_ladder,
)


# ---------------------------------------------------------------------------
# build_system
# ---------------------------------------------------------------------------

def test_build_system_degenerate_levels():
    sys3 = build_system(np.diag([1.0, 1.0, 0.0]))
    assert np.allclose(sys3.energies, [0.0, 1.0])
    assert list(sys3.multiplicities) == [1, 2]
    assert np.allclose(sys3.bohr_frequencies, [-1.0, 0.0, 1.0])
    assert not sys3.nondegenerate


def test_build_system_qubit(qubit_system):
    assert np.allclose(qubit_system.energies, [-0.5, 0.5])
    assert np.allclose(qubit_system.bohr_frequencies, [-1.0, 0.0, 1.0])
    assert qubit_system.nondegenerate


def test_build_system_merges_close_levels():
    s = build_system(np.diag([0.0, 1e-12, 1.0]))
    assert len(s.energies) == 2
    assert list(s.multiplicities) == [2, 1]


def test_build_system_bohr_collision():
    # gaps 1 and 1 + 5e-10 are distinct but unseparable at default tolerance
    with pytest.raises(DegenerateBohrCollision):
        build_system(np.diag([0.0, 1.0, 2.0 + 5e-10]))


def test_build_system_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        build_system(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_reservoir_refuses_non_hermitian_coupling():
    """The generator pairs A(-omega) with A(omega)^* and finite volume
    couples D a^dagger + D^* a, which agree only for D = D^*: a coupling
    beyond HERMITICITY_TOL is refused, naming the reservoir, and one within
    it is kept as given."""
    dens = canonical_reservoirs()[0].density
    for bad in (np.array([[0.0, 2.0], [0.0, 0.0]]),
                SIGMA_X + [[0.0, 2 * HERMITICITY_TOL], [0.0, 0.0]]):
        with pytest.raises(NonHermitianInput, match="reservoir 'hot'"):
            ReservoirSpec(label="hot", beta=1.0, coupling=bad, density=dens)
    near = SIGMA_X + [[0.0, 0.5 * HERMITICITY_TOL], [0.0, 0.0]]
    res = ReservoirSpec(label="hot", beta=1.0, coupling=near, density=dens)
    assert np.array_equal(res.coupling, near)


def _verdict(matrix):
    try:
        check_hermitian(matrix, "M")
    except (ConfigError, NonHermitianInput) as err:
        return type(err), str(err)
    return None


@pytest.mark.parametrize("dense, expected", [
    (np.array([[1.0, 2.0 - 1.0e-3j], [2.0 + 1.0e-3j, -4.0]]), None),
    (np.array([[0.0, 1.0e-14j], [1.0e-14j, 0.0]]), None),
    (np.array([[3.0j, 2.0], [-2.0, 0.0]]), NonHermitianInput),
    (np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0]]), ConfigError),
])
@pytest.mark.parametrize("sparse", [scipy.sparse.csr_matrix,
                                    scipy.sparse.coo_array])
def test_check_hermitian_sparse_matches_dense(dense, expected, sparse):
    """A scipy.sparse input gets its dense form's verdict and message:
    Hermitian, Hermitian within the tolerance, anti-Hermitian, non-square."""
    want = _verdict(dense)
    assert (None if want is None else want[0]) is expected
    assert _verdict(sparse(dense)) == want


def test_projection_reconstruction_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        h = random_hermitian(rng, d)
        s = build_system(h)
        total = np.zeros((d, d), dtype=complex)
        rebuilt = np.zeros((d, d), dtype=complex)
        for g in range(len(s.energies)):
            p = s.projections[g]
            assert np.allclose(p @ p, p, atol=1e-11)
            assert np.allclose(p, p.conj().T, atol=1e-12)
            total += p
            rebuilt += s.energies[g] * p
        assert np.allclose(total, np.eye(d), atol=1e-11)
        assert np.allclose(rebuilt, h, atol=1e-10 * max(1, np.abs(h).max()))
        # Bohr set symmetric and contains 0
        f = s.bohr_frequencies
        assert np.allclose(np.sort(-f), f, atol=1e-10)
        assert np.min(np.abs(f)) < 1e-12


# ---------------------------------------------------------------------------
# effective density
# ---------------------------------------------------------------------------

def test_effective_density_direct_substitution():
    # beta = 1, ohmic J = 0.5 w e^{-w/5}: J(1) = 0.5 e^{-0.2}, and
    # G(1) = (1 + 1/(e-1)) J(1), G(-1) = J(1)/(e-1); frozen decimals below
    # were evaluated independently at 30 digits.
    res = canonical_reservoirs()[0]
    g = effective_density(res)
    assert g(1.0) == pytest.approx(0.647606490283474690, rel=1e-14)
    assert g(-1.0) == pytest.approx(0.238241113744483761, rel=1e-14)
    assert g(0.0) == 0.0


def test_effective_density_zero_frequency_override():
    res = canonical_reservoirs()[0]
    res2 = ReservoirSpec(label=res.label, beta=res.beta, coupling=res.coupling,
                         density=res.density, zero_frequency=0.25)
    assert effective_density(res2)(0.0) == 0.25


def test_detailed_balance_exact_by_construction():
    rng = np.random.default_rng(5)
    from conftest import random_density
    for _ in range(25):
        beta = float(rng.uniform(0.2, 4.0))
        res = ReservoirSpec(label="x", beta=beta, coupling=np.eye(2),
                            density=random_density(rng))
        g = effective_density(res)
        w = np.concatenate([rng.uniform(0.01, 6.0, size=40), [1e-6, 1e-3, 8.0]])
        assert oracles.kms_residual(g, w) <= 1e-14


def test_detailed_balance_detects_corruption():
    res = canonical_reservoirs()[0]
    honest = effective_density(res)

    def broken(w):
        w = np.asarray(w, dtype=float)
        out = np.asarray(honest.fn(w), dtype=float).copy()
        out[w < 0] *= 1.5
        return out

    bad = EffectiveDensity(label="broken", beta=res.beta, fn=broken,
                           base=res.density)
    assert oracles.kms_residual(bad, np.linspace(0.1, 4.0, 40)) > 0.2


def test_bose_occupation_values():
    assert bose_occupation(1.0, 1.0) == pytest.approx(1.0 / (np.e - 1.0), rel=1e-15)
    assert bose_occupation(1.0, 1000.0) == 0.0
    assert bose_occupation(2.0, 1e-8) == pytest.approx(0.5e8, rel=1e-6)


def test_table_density_interpolation_and_edges():
    w = np.array([0.0, 1.0, 2.0, 3.0])
    v = np.array([0.0, 0.4, 0.1, 0.0])
    dens = SpectralDensity(form="table", table_omega=w, table_value=v)
    assert dens(1.0) == 0.4
    assert dens(1.5) == pytest.approx(0.25)
    assert dens(3.5) == 0.0
    assert dens(-1.0) == 0.0
    g = effective_density(ReservoirSpec(label="t", beta=1.0,
                                        coupling=np.eye(2), density=dens))
    assert g(1.5) == pytest.approx((1 + bose_occupation(1.0, 1.5)) * 0.25)


def test_flat_density_band():
    dens = SpectralDensity(form="flat",
                           params={"height": 0.7, "omega_min": 0.5,
                                   "omega_max": 2.0})
    assert dens(0.4) == 0.0
    assert dens(1.0) == 0.7
    assert dens(2.0) == 0.7
    assert dens(2.1) == 0.0
    assert dens.breakpoints() == [0.5, 2.0]


def test_density_validation():
    with pytest.raises(ConfigError):
        SpectralDensity(form="nope")
    with pytest.raises(ConfigError):
        SpectralDensity(form="flat", params={"height": -1.0})
    with pytest.raises(ConfigError, match="gama"):
        SpectralDensity(form="ohmic", params={"gama": 0.3})
    with pytest.raises(ConfigError, match="omega_mx"):
        SpectralDensity(form="flat", params={"omega_mx": 2.0})
    with pytest.raises(ConfigError):
        SpectralDensity(form="table", table_omega=np.array([0.0, 0.0, 1.0]),
                        table_value=np.array([0.0, 1.0, 0.0]))
    with pytest.raises(NonPositiveTemperature):
        ReservoirSpec(label="x", beta=0.0, coupling=np.eye(2),
                      density=SpectralDensity(form="flat"))


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------

def _irreducible(system, reservoirs):
    return check_fgr_irreducibility(system, jump_channels(system, reservoirs))


def test_irreducibility_qubit_sigma_x(qubit_system):
    assert _irreducible(qubit_system, canonical_reservoirs()) is True


def test_irreducibility_identity_coupling(qubit_system):
    res = ReservoirSpec(label="id", beta=1.0, coupling=np.eye(2),
                        density=canonical_reservoirs()[0].density)
    assert _irreducible(qubit_system, [res]) is False


def test_irreducibility_diagonal_coupling(qubit_system):
    res = ReservoirSpec(label="z", beta=1.0,
                        coupling=np.diag([1.0, -1.0]),
                        density=canonical_reservoirs()[0].density)
    assert _irreducible(qubit_system, [res]) is False


def test_irreducibility_block_coupling():
    # coupling only touches the first two levels: the third is decoupled
    e = np.diag([0.0, 1.0, 5.0])
    d = np.zeros((3, 3), dtype=complex)
    d[0, 1] = d[1, 0] = 1.0
    res = ReservoirSpec(label="b", beta=1.0, coupling=d,
                        density=canonical_reservoirs()[0].density)
    assert _irreducible(build_system(e), [res]) is False


def test_irreducibility_unitary_invariance(qubit_system):
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    e_rot = q @ np.diag([0.5, -0.5]).astype(complex) @ q.conj().T
    res = canonical_reservoirs()[0]
    res_rot = ReservoirSpec(label=res.label, beta=res.beta,
                            coupling=q @ res.coupling @ q.conj().T,
                            density=res.density)
    assert _irreducible(build_system(e_rot), [res_rot])


def test_irreducibility_reads_the_generator_channels(qubit_system):
    """A coupling of 5e-15 sigma_x is above CHANNEL_TOL * max(1, max|D|):
    the generator builds jump terms for omega = +-1 from it, and the
    irreducibility check decides on the same two channels."""
    res = ReservoirSpec(label="weak", beta=1.0, coupling=5e-15 * SIGMA_X,
                        density=canonical_reservoirs()[0].density)
    model = make_model(qubit_system.hamiltonian, [res], lam=0.1)
    (channels,) = model.channels
    assert sorted(c[0] for c in channels) == [-1.0, 1.0]
    parts = build_deformed_lindblad(model, np.zeros(1))
    assert sorted(omega for _, omega, _ in parts.jump_terms) == [-1.0, 1.0]
    assert check_fgr_irreducibility(model.system, model.channels)


def _reducible_cases():
    """(Hamiltonian, reservoirs) of the three reducible fixtures above:
    identity, diagonal and first-two-levels-only coupling."""
    dens = canonical_reservoirs()[0].density
    block = np.zeros((3, 3), dtype=complex)
    block[0, 1] = block[1, 0] = 1.0
    cases = [(np.diag([0.5, -0.5]), np.eye(2)),
             (np.diag([0.5, -0.5]), np.diag([1.0, -1.0])),
             (np.diag([0.0, 1.0, 5.0]), block)]
    return [(e, [ReservoirSpec(label="r", beta=1.0, coupling=c,
                               density=dens)])
            for e, c in cases]


@given(seed=st.integers(0, 2 ** 32 - 1))
def test_irreducibility_decision_is_basis_independent(seed):
    """Rotating H and every coupling by a random unitary leaves the
    decision unchanged, on a random model and the reducible fixtures, in
    two random bases each."""
    rng = np.random.default_rng(seed)
    model = random_model(rng)
    for e, reservoirs in ([(model.system.hamiltonian, model.reservoirs)]
                          + _reducible_cases()):
        ok = _irreducible(build_system(e), reservoirs)
        d = e.shape[0]
        for _ in range(2):
            q = np.linalg.qr(rng.normal(size=(d, d))
                             + 1j * rng.normal(size=(d, d)))[0]
            rotated = [ReservoirSpec(label=r.label, beta=r.beta,
                                     coupling=q @ r.coupling @ q.conj().T,
                                     density=r.density,
                                     zero_frequency=r.zero_frequency)
                       for r in reservoirs]
            assert _irreducible(build_system(q @ e @ q.conj().T),
                                rotated) == ok


def test_irreducibility_agrees_with_the_transition_graph():
    """On a nondegenerate fleet, the reducible fixtures and the weak-link
    ladder outside the window 1.3e-15 < eps < 1.6e-14 (where the
    commutant's rank tolerance already calls a link of that size absent),
    the commutant decision equals strong connectivity of the channels'
    transition graph."""
    cases = [(m.system, m.reservoirs) for m in model_fleet(40, seed=29)]
    cases += [(build_system(e), reservoirs)
              for e, reservoirs in _reducible_cases()]
    cases += [weak_link_ladder(eps) for eps in (1e-6, 1e-13, 1e-16)]
    decisions = []
    for system, reservoirs in cases:
        ok = _irreducible(system, reservoirs)
        assert ok == oracles.transition_graph_irreducible(system, reservoirs)
        decisions.append(ok)
    assert decisions[:40] == [True] * 40
    assert decisions[40:] == [False, False, False, True, True, False]


# ---------------------------------------------------------------------------
# domain box and model validation
# ---------------------------------------------------------------------------

def test_default_domain_box_canonical():
    box = default_domain_box(canonical_reservoirs())
    assert np.allclose(box[0], [-0.18, 1.18])
    assert np.allclose(box[1], [-0.18, 2.18])


def test_model_validation_errors():
    res = canonical_reservoirs()
    with pytest.raises(ConfigError):
        make_model(np.diag([0.5, -0.5]), res, lam=0.1,
                   rho_system=np.diag([0.7, 0.7]))
    with pytest.raises(ConfigError):
        make_model(np.diag([0.5, -0.5]), res, lam=-1.0)
    # the config's old generator key takes only the form the library builds
    tree = model_to_dict(make_model(np.diag([0.5, -0.5]), res, lam=0.1))
    tree["run"]["variant"] = "exotic"
    with pytest.raises(ConfigError, match=r"run\.variant"):
        build_from_dict(tree)
    bad = ReservoirSpec(label="big", beta=1.0, coupling=np.eye(3),
                        density=res[0].density)
    with pytest.raises(ConfigError):
        make_model(np.diag([0.5, -0.5]), [bad], lam=0.1)


def test_make_model_validates_quadrature():
    """A bad quadrature mapping is refused when the model is built, not at
    its first generator build."""
    res = canonical_reservoirs()
    for quadrature in ({"bogus": 1}, {"nodes": 1}, {"window": -1.0}):
        with pytest.raises(ConfigError, match="quadrature"):
            make_model(np.diag([0.5, -0.5]), res, lam=0.1,
                       quadrature=quadrature)
    model = make_model(np.diag([0.5, -0.5]), res, lam=0.1,
                       quadrature={"nodes": 16})
    with pytest.raises(ConfigError, match="unknown quadrature parameter"):
        dataclasses.replace(model, quadrature={"bogus": 1})


def test_kappa_domain_check(qubit_model):
    from fcslab.errors import KappaOutsideDomain
    qubit_model.check_kappa([0.5, 0.5])
    with pytest.raises(KappaOutsideDomain):
        qubit_model.check_kappa([5.0, 0.0])
    with pytest.raises(ConfigError):
        qubit_model.check_kappa([0.1])
    for bad in ([np.nan, 0.0], [0.0, np.inf], [-np.inf, 0.0]):
        with pytest.raises(ConfigError, match="finite"):
            qubit_model.check_kappa(bad)


# ---------------------------------------------------------------------------
# decay of the reservoir correlation function
# ---------------------------------------------------------------------------

def _reservoir(form, beta=1.0, **params):
    if form == "table":
        return ReservoirSpec(label="r", beta=beta, coupling=SIGMA_X,
                             density=SpectralDensity(
                                 "table", table_omega=[0.1, 1.0, 2.0, 4.0],
                                 table_value=params.get("value",
                                                        [0.2, 0.5, 0.4, 0.1])))
    return ReservoirSpec(label="r", beta=beta, coupling=SIGMA_X,
                         density=SpectralDensity(form, params))


@pytest.mark.parametrize("form, params, exponential", [
    ("gaussian", {"exponent": 1.0, "cutoff": 2.0}, True),
    ("gaussian", {"exponent": 3.0, "cutoff": 2.0}, True),
    ("gaussian", {"exponent": 2.0, "cutoff": 2.0}, False),
    ("gaussian", {"exponent": 1.5, "cutoff": 2.0}, False),
    ("ohmic", {"exponent": 1.0, "cutoff": 5.0}, False),
    ("ohmic", {"exponent": 2.0, "cutoff": 5.0}, False),
    ("flat", {"omega_min": 0.3, "omega_max": 2.0}, False),
    ("table", {}, False),
    # C vanishes identically: every rate bounds it
    ("gaussian", {"gamma": 0.0, "exponent": 2.0}, True),
    ("ohmic", {"gamma": 0.0}, True),
    ("flat", {"height": 0.0}, True),
    ("table", {"value": [0.0, 0.0, 0.0, 0.0]}, True),
])
def test_correlation_decay_rate_closed_form(form, params, exponential):
    for beta in (0.5, 2.0):
        rate = correlation_decay_rate(_reservoir(form, beta, **params))
        assert rate == (2.0 * np.pi / beta if exponential else None)
    # zero_frequency changes G at one point only
    res = dataclasses.replace(_reservoir(form, **params), zero_frequency=0.7)
    assert correlation_decay_rate(res) == (2.0 * np.pi if exponential
                                           else None)


def test_fourier_oracle_at_time_zero_is_the_integral():
    dens = effective_density(canonical_reservoirs()[0])
    lo, hi = dens.support()
    exact, _ = scipy.integrate.quad(lambda x: dens(x), lo, hi, points=[0.0],
                                    limit=400)
    assert abs(oracles._fourier_integral(dens, 0.0, 0.0)) == \
        pytest.approx(exact, rel=1e-8)


@pytest.mark.parametrize("beta, cutoff, s", [(2.0, 2.0, 1), (1.0, 5.0, 1),
                                             (2.0, 2.0, 3)])
@pytest.mark.parametrize("kappa_share", [0.0, 0.5])
def test_gaussian_correlation_decays_at_the_closed_form_rate(beta, cutoff, s,
                                                             kappa_share):
    """The log-slope of |C_kappa| on [2 beta, 4 beta] against 2 pi / beta.

    Bound: for t > 0 shift the contour of C(t) = int G(w) e^{-kappa w - i w t}
    dw down to Im w = -y, y = 3 pi / beta, between the first Bose pole at
    -2 pi i / beta and the next at -4 pi i / beta.  The pole gives
    A e^{-2 pi t / beta} with A = 2 pi gamma (2 pi / beta)^s
    e^{(2 pi / (beta cutoff))^2} / beta (|e^{-kappa w}| = 1 there).  On the
    shifted line |1 - e^{-beta w}| = 1 + e^{-beta x} >= 1, so the rest is at
    most M e^{-y t} with M = gamma e^{y^2/cutoff^2}
    int (x^2 + y^2)^{s/2} e^{-x^2/cutoff^2 - kappa x} dx.  With
    eps(t) = (M/A) e^{-pi t / beta}, |log|C(t)| - log A + 2 pi t / beta| is
    at most -log(1 - eps(t)), which bounds the slope's error.
    """
    gamma, kappa = 0.5, kappa_share * beta
    res = _reservoir("gaussian", beta, gamma=gamma, exponent=float(s),
                     cutoff=cutoff)
    rate = correlation_decay_rate(res)
    assert rate == 2.0 * np.pi / beta
    dens = effective_density(res)
    t1, t2 = 2.0 * beta, 4.0 * beta
    c1, c2 = (abs(oracles._fourier_integral(dens, kappa, t)) for t in (t1, t2))
    slope = np.log(c1 / c2) / (t2 - t1)

    y = 3.0 * np.pi / beta
    big_a = (2.0 * np.pi * gamma * rate ** s
             * np.exp((rate / cutoff) ** 2) / beta)
    big_m = gamma * np.exp((y / cutoff) ** 2) * scipy.integrate.quad(
        lambda x: (x * x + y * y) ** (s / 2) * np.exp(-(x / cutoff) ** 2
                                                      - kappa * x),
        -np.inf, np.inf)[0]
    eps = [big_m / big_a * np.exp(-np.pi * t / beta) for t in (t1, t2)]
    assert max(eps) < 1.0
    bound = -(np.log1p(-eps[0]) + np.log1p(-eps[1])) / (t2 - t1)
    assert abs(slope - rate) <= bound, (slope, rate, bound)


def test_power_law_correlation_tails():
    """The densities without a rate decay like a power of t: ohmic like
    t^-2 (a kink at 0), flat like t^-1 (jumps at its edges)."""
    for s in (1.0, 2.0):
        res = _reservoir("ohmic", gamma=0.5, exponent=s, cutoff=5.0)
        assert correlation_decay_rate(res) is None
        dens = effective_density(res)
        c1, c2 = (abs(oracles._fourier_integral(dens, 0.0, t))
                  for t in (10.0, 20.0))
        assert np.log(c2 / c1) / np.log(2.0) == pytest.approx(-2.0, abs=0.01)

    res = _reservoir("flat", height=0.5, omega_min=1.0, omega_max=2.0)
    assert correlation_decay_rate(res) is None
    dens = effective_density(res)
    # |C| oscillates with period 2 pi (edges at +-1 and +-2), so compare its
    # maxima over one period, sampled at the same phases
    phases = np.linspace(0.0, 2.0 * np.pi, 33)

    def envelope(start):
        return max(abs(oracles._fourier_integral(dens, 0.0, start + p))
                   for p in phases)

    t1, t2 = 8.0 * np.pi, 32.0 * np.pi
    slope = np.log(envelope(t2) / envelope(t1)) / np.log(t2 / t1)
    assert slope == pytest.approx(-1.0, abs=0.05)
