"""Spectral generating function, transport moments, symmetry scan, and the
Legendre transform, checked against the closed-form two-level solution."""

import numpy as np
import pytest

import oracles
from fcslab import (
    ScgfSolver,
    gc_symmetry_defect,
    make_model,
    rate_function,
    transport_moments,
    vec,
)
from fcslab.errors import (
    DerivativeMismatch,
    EigenvalueCollision,
    SimpleEigenvalueWarning,
)
from conftest import canonical_reservoirs, model_fleet

KAPPA_PROBES = [
    (0.0, 0.0),
    (0.3, 0.3),
    (0.0, 0.9),
    (-0.1, 1.6),
    (0.7, -0.1),
    (1.1, 2.1),
]


@pytest.fixture(scope="module")
def qubit_solver(qubit_model):
    return ScgfSolver(qubit_model)


def test_qubit_scgf_matches_closed_form(qubit_solver):
    for kappa in KAPPA_PROBES:
        got = qubit_solver.f(np.array(kappa))
        want = oracles.qubit_scgf_physical(kappa)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-14), kappa


def test_scgf_vanishes_on_uniform_shifts(qubit_solver):
    for c in (0.0, 0.3, 1.0):
        assert abs(qubit_solver.f(np.array([c, c]))) < 1e-13


def test_uniform_shift_invariance_random_models():
    rng = np.random.default_rng(411)
    for model in model_fleet(5, seed=2024):
        solver = ScgfSolver(model)
        box = model.domain_box
        lo, hi = box[:, 0], box[:, 1]
        kappa = lo + (hi - lo) * rng.uniform(0.1, 0.6, size=len(lo))
        c = 0.2 * float((hi - kappa).min())
        f1 = solver.f(kappa)
        f2 = solver.f(kappa + c)
        assert abs(f1 - f2) < 1e-10 * max(1.0, abs(f1))


def test_leading_vectors_at_zero(qubit_solver, qubit_model):
    res = qubit_solver.leading(np.zeros(2))
    assert abs(res.f) < 1e-14
    assert res.gap > 0
    d = qubit_model.system.dim
    # Heisenberg leading eigenvector is the identity
    assert np.allclose(res.right_eigvec, np.eye(d) / np.sqrt(d), atol=1e-10)
    # state-picture partner is the stationary state after trace normalization
    rho = res.left_eigvec / np.trace(res.left_eigvec)
    assert abs(np.trace(rho) - 1) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > 0
    resid = qubit_solver.parts.dual @ vec(rho)
    assert np.abs(resid).max() < 1e-12

    # excited population: computational index 0 carries energy +1/2
    gdn, gup = oracles.qubit_rates()
    p_exc = gup.sum() / (gup.sum() + gdn.sum())
    assert rho[0, 0].real == pytest.approx(p_exc, rel=1e-11)


def test_leading_vectors_positive_at_nonzero_kappa(qubit_solver):
    res = qubit_solver.leading(np.array([0.4, 1.3]))
    for m in (res.right_eigvec, res.left_eigvec):
        evals = np.linalg.eigvalsh(m)
        assert evals.min() > -1e-10
        assert evals.max() > 0
    overlap = np.trace(res.left_eigvec.conj().T @ res.right_eigvec)
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_qubit_gap_closed_form(qubit_solver):
    gdn, gup = oracles.qubit_rates()
    res = qubit_solver.leading(np.zeros(2))
    assert res.gap == pytest.approx((gdn.sum() + gup.sum()) / 2, rel=1e-10)


def test_collision_raised_for_commuting_coupling():
    # diagonal coupling never moves populations: every eigenvalue has zero
    # real part and the leader is not simple
    hot, cold = canonical_reservoirs()
    coupling = np.diag([1.0, -1.0])
    hot = hot.__class__(label=hot.label, beta=hot.beta, coupling=coupling,
                        density=hot.density)
    cold = cold.__class__(label=cold.label, beta=cold.beta, coupling=coupling,
                          density=cold.density)
    model = make_model(np.diag([0.5, -0.5]), [hot, cold], lam=0.1)
    with pytest.warns(SimpleEigenvalueWarning):
        solver = ScgfSolver(model)
    with pytest.raises(EigenvalueCollision):
        solver.leading(np.zeros(2))


def test_gc_symmetry_qubit(qubit_solver):
    scan = gc_symmetry_defect(qubit_solver)
    assert scan.defect < 1e-13
    assert scan.table().shape == (21, 4)
    # endpoints both vanish: kappa = 0 and kappa = beta
    assert abs(scan.f_forward[0]) < 1e-14
    assert abs(scan.f_forward[-1]) < 1e-12


def test_gc_symmetry_random_real_models():
    for model in model_fleet(4, seed=515, real=True):
        solver = ScgfSolver(model)
        scan = gc_symmetry_defect(solver, nu_grid=np.linspace(0, 1, 9))
        assert scan.defect < 1e-10, model.system.energies


def test_gc_scan_detects_wrong_betas(qubit_solver):
    # the symmetry line is pinned to the true inverse temperatures; a scan
    # against 10 percent warmer reservoirs must show a visible defect
    betas = np.array([r.beta for r in qubit_solver.model.reservoirs])
    wrong = 0.9 * betas
    nus = np.linspace(0, 1, 9)
    defect = max(abs(qubit_solver.f(nu * wrong)
                     - qubit_solver.f((1 - nu) * wrong)) for nu in nus)
    assert defect > 1e-4


def test_moments_match_closed_form(qubit_model):
    moments = transport_moments(qubit_model)
    gdn, gup = oracles.qubit_rates()
    a, b = gup.sum(), gdn.sum()
    p_exc, p_gnd = a / (a + b), b / (a + b)
    lam2 = qubit_model.lam ** 2
    want = lam2 * (p_exc * gdn - p_gnd * gup)
    assert np.allclose(moments.mean_currents, want, rtol=1e-9)
    # hot reservoir loses energy, cold one gains
    assert moments.mean_currents[0] < 0 < moments.mean_currents[1]
    assert moments.entropy_production_rate > 0
    betas = np.array([r.beta for r in qubit_model.reservoirs])
    assert moments.entropy_production_rate == pytest.approx(
        float(betas @ moments.mean_currents), rel=1e-12)


def test_covariance_matches_fd_of_closed_form(qubit_model):
    moments = transport_moments(qubit_model)
    hess = oracles.richardson_hessian(
        lambda k: oracles.qubit_scgf_physical(k), np.zeros(2), h=1e-3)
    assert np.allclose(moments.covariance, hess, rtol=1e-6, atol=1e-10)
    evals = np.linalg.eigvalsh(moments.covariance)
    assert evals.min() > -1e-12
    # conservation: the uniform direction is exactly soft
    assert np.abs(moments.covariance @ np.ones(2)).max() < 1e-10
    assert abs(moments.mean_currents.sum()) < 1e-12


def test_moments_random_fleet():
    for model in model_fleet(4, seed=860):
        moments = transport_moments(model)
        assert moments.fd_gradient_error < 1e-6
        assert moments.fd_hessian_error < 1e-6
        assert abs(moments.mean_currents.sum()) < 1e-8
        assert moments.entropy_production_rate > -1e-12
        assert np.linalg.eigvalsh(moments.covariance).min() > -1e-10


def test_derivative_mismatch_guard(qubit_model):
    class Skewed(ScgfSolver):
        def gradient_and_hessian(self, kappa):
            res, grad, hess = super().gradient_and_hessian(kappa)
            return res, grad * 1.01, hess

    solver = Skewed(qubit_model)
    with pytest.raises(DerivativeMismatch):
        transport_moments(solver)


def test_rate_function_marginal_matches_grid(qubit_model):
    # the slope range of the cold marginal over the kappa box covers
    # alpha/j_cold in about (-4.1, 1.39); stay inside it
    solver = ScgfSolver(qubit_model)
    lo, hi = qubit_model.domain_box[1]
    moments = transport_moments(qubit_model, fd_check=False)
    j_cold = moments.mean_currents[1]
    scales = [1.0, 0.5, 1.3, -0.5, -2.0, -3.5]
    table = rate_function(solver, [[s * j_cold] for s in scales], active=[1])

    def marginal(k2):
        return oracles.qubit_scgf_physical((0.0, k2))

    for point in table.points:
        assert point.converged
        want_val, want_arg = oracles.grid_rate_function(
            marginal, point.alpha[0], lo, hi)
        assert point.value == pytest.approx(want_val, rel=1e-6, abs=1e-9)
        assert abs(point.argmin[0] - want_arg) < 1e-4
        assert point.value > -1e-12
        assert not point.boundary


def test_rate_function_marginal_boundary_case(qubit_model):
    # twice the mean lies outside the reachable slope range, so the
    # minimizer is pinned to the box face; the value still matches the
    # constrained grid search
    solver = ScgfSolver(qubit_model)
    lo, hi = qubit_model.domain_box[1]
    moments = transport_moments(qubit_model, fd_check=False)
    alpha = 2.0 * moments.mean_currents[1]
    point = rate_function(solver, [[alpha]], active=[1]).points[0]
    assert point.boundary
    assert point.argmin[0] == pytest.approx(lo, abs=1e-7)
    want_val, _ = oracles.grid_rate_function(
        lambda k2: oracles.qubit_scgf_physical((0.0, k2)), alpha, lo, hi)
    assert point.value == pytest.approx(want_val, rel=1e-6, abs=1e-9)


def test_rate_function_zero_at_mean(qubit_model):
    solver = ScgfSolver(qubit_model)
    moments = transport_moments(qubit_model, fd_check=False)
    table = rate_function(solver, [moments.mean_currents])
    point = table.points[0]
    assert point.converged
    assert abs(point.value) < 1e-11
    assert np.linalg.norm(point.argmin) < 1e-4


def test_rate_function_nonconserving_target_hits_boundary(qubit_model):
    # a net-energy-creating alpha pair has its minimizer pushed along the
    # soft uniform direction until the box stops it
    solver = ScgfSolver(qubit_model)
    moments = transport_moments(qubit_model, fd_check=False)
    alpha = moments.mean_currents + 0.002
    table = rate_function(solver, [alpha])
    assert table.points[0].boundary


def test_rate_function_monotone_away_from_mean(qubit_model):
    solver = ScgfSolver(qubit_model)
    moments = transport_moments(qubit_model, fd_check=False)
    j = moments.mean_currents[1]
    scales = [1.0, 1.5, 2.0, 3.0]
    vals = rate_function(solver, [[s * j] for s in scales],
                         active=[1]).values()
    assert vals[0] < 1e-11
    assert np.all(np.diff(vals) > 0)
