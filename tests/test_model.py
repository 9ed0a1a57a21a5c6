"""Model layer: diagonalization, effective densities, irreducibility."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given
from hypothesis import strategies as st

import oracles
from fcslab import (
    EffectiveDensity,
    ReservoirSpec,
    SpectralDensity,
    bose_occupation,
    build_system,
    check_fgr_irreducibility,
    default_domain_box,
    effective_density,
    make_model,
)
from fcslab.errors import (
    ConfigError,
    DegenerateBohrCollision,
    NonHermitianInput,
    NonPositiveTemperature,
)
from fcslab.model import check_hermitian

from conftest import (
    SIGMA_X,
    canonical_reservoirs,
    random_hermitian,
    random_model,
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

def test_irreducibility_qubit_sigma_x(qubit_system):
    ok, witness = check_fgr_irreducibility(qubit_system, canonical_reservoirs())
    assert ok and witness is None


def test_irreducibility_identity_coupling(qubit_system):
    res = ReservoirSpec(label="id", beta=1.0, coupling=np.eye(2),
                        density=canonical_reservoirs()[0].density)
    ok, witness = check_fgr_irreducibility(qubit_system, [res])
    assert not ok
    assert witness is not None
    assert abs(np.trace(witness)) < 1e-8
    # non-scalar: distance from multiples of the identity
    avg = np.trace(witness) / 2
    assert np.abs(witness - avg * np.eye(2)).max() > 1e-3


def test_irreducibility_diagonal_coupling(qubit_system):
    res = ReservoirSpec(label="z", beta=1.0,
                        coupling=np.diag([1.0, -1.0]),
                        density=canonical_reservoirs()[0].density)
    ok, witness = check_fgr_irreducibility(qubit_system, [res])
    assert not ok and witness is not None


def test_irreducibility_block_coupling():
    # coupling only touches the first two levels: the third is decoupled
    e = np.diag([0.0, 1.0, 5.0])
    d = np.zeros((3, 3), dtype=complex)
    d[0, 1] = d[1, 0] = 1.0
    res = ReservoirSpec(label="b", beta=1.0, coupling=d,
                        density=canonical_reservoirs()[0].density)
    ok, witness = check_fgr_irreducibility(build_system(e), [res])
    assert not ok and witness is not None
    # witness commutes with every active jump block
    s = build_system(e)
    for a in range(2):
        for b in range(2):
            blk = s.projections[a] @ d @ s.projections[b]
            assert np.abs(witness @ blk - blk @ witness).max() < 1e-8


def test_irreducibility_unitary_invariance(qubit_system):
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    e_rot = q @ np.diag([0.5, -0.5]).astype(complex) @ q.conj().T
    res = canonical_reservoirs()[0]
    res_rot = ReservoirSpec(label=res.label, beta=res.beta,
                            coupling=q @ res.coupling @ q.conj().T,
                            density=res.density)
    ok, _ = check_fgr_irreducibility(build_system(e_rot), [res_rot])
    assert ok


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
        ok, witness = check_fgr_irreducibility(build_system(e), reservoirs)
        assert (witness is None) == ok
        d = e.shape[0]
        for _ in range(2):
            q = np.linalg.qr(rng.normal(size=(d, d))
                             + 1j * rng.normal(size=(d, d)))[0]
            rotated = [ReservoirSpec(label=r.label, beta=r.beta,
                                     coupling=q @ r.coupling @ q.conj().T,
                                     density=r.density,
                                     zero_frequency=r.zero_frequency)
                       for r in reservoirs]
            ok_rot, witness_rot = check_fgr_irreducibility(
                build_system(q @ e @ q.conj().T), rotated)
            assert ok_rot == ok
            assert (witness_rot is None) == ok


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
    with pytest.raises(ConfigError):
        make_model(np.diag([0.5, -0.5]), res, lam=0.1, variant="exotic")
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
