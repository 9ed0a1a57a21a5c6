"""Generator layer: principal values, level shift, deformed generator."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

import fcslab.lindblad
import fcslab.model

from fcslab import (
    EffectiveDensity,
    QuadratureParams,
    ReservoirSpec,
    SpectralDensity,
    build_deformed_lindblad,
    build_system,
    compute_upsilon,
    effective_density,
    make_model,
    principal_value,
    unvec,
    vec,
)
from fcslab.errors import ConfigError, QuadratureNotConverged
from fcslab.lindblad import _gauss_rule
from fcslab.scgf import ScgfSolver

from conftest import (
    SIGMA_X,
    canonical_reservoirs,
    counting_density,
    model_fleet,
    random_hermitian,
    random_model,
)
import oracles


# ---------------------------------------------------------------------------
# principal value
# ---------------------------------------------------------------------------

def _plain_density(fn, lo, hi, breaks=()):
    """Wrap a bare vectorized function as an EffectiveDensity for quadrature."""
    box = (lo, hi)

    class _D(EffectiveDensity):
        def support(self):
            return box

        def breakpoints(self):
            return sorted({0.0, *breaks})

    return _D(label="test", beta=1.0, fn=fn)


def test_pv_flat_symmetric_window_is_zero():
    # G = 1 on [0, 2]: PV of 1/(xi - 1) over a symmetric interval vanishes
    g = _plain_density(lambda w: np.where((w >= 0) & (w <= 2), 1.0, 0.0),
                       -1.0, 3.0, breaks=(2.0,))
    val = principal_value(g, 1.0)
    assert abs(val) <= 1e-10


def test_pv_exponential_closed_form():
    # PV int_0^inf xi e^-xi/(xi-1) dxi = 1 - e^-1 Ei(1) = 0.302825116764934
    g = _plain_density(lambda w: np.where(w > 0, w * np.exp(-np.minimum(w, 700)),
                                          0.0), -2.0, 60.0)
    val = principal_value(g, 1.0)
    assert val == pytest.approx(oracles.PV_OHMIC_AT_1, abs=1e-10)
    assert val == pytest.approx(0.30282511676493393, abs=1e-10)


def test_pv_against_adaptive_quadrature():
    res = canonical_reservoirs()[0]
    g = effective_density(res)

    def fn(x):
        return g(np.asarray(x, dtype=float))

    for omega in (1.0, -1.0, 0.3):
        ours = principal_value(g, omega)
        ref = oracles.pv_cauchy(lambda x: float(g(x)), omega, -60.0, 300.0)
        assert ours == pytest.approx(ref, abs=2e-8), f"omega={omega}"


def test_pv_window_choice_is_irrelevant():
    g = effective_density(canonical_reservoirs()[1])
    vals = [principal_value(g, 1.0, QuadratureParams(window=w))
            for w in (0.25, 0.5, 1.0, 2.0)]
    assert np.ptp(vals) <= 1e-9


def test_pv_diverges_for_thermal_flat_density_from_zero():
    # J flat down to omega = 0 makes G ~ 1/(beta xi) near 0: no finite PV
    res = ReservoirSpec(label="ir", beta=1.0, coupling=np.eye(2),
                        density=SpectralDensity(form="flat",
                                                params={"height": 0.5,
                                                        "omega_max": 2.0}))
    g = effective_density(res)
    with pytest.raises(QuadratureNotConverged):
        principal_value(g, 1.0, QuadratureParams(max_refine=5))


def test_gauss_rule_cache_is_exact_and_read_only():
    for n in (12 * 2 ** k for k in range(8)):          # 12 ... 1536
        x, w = _gauss_rule(n)
        x_ref, w_ref = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0
    g = effective_density(canonical_reservoirs()[0])
    _gauss_rule.cache_clear()
    cold = principal_value(g, 1.0)
    assert _gauss_rule.cache_info().currsize > 0
    assert principal_value(g, 1.0) == cold


def _bohr_densities(model):
    """(G_k, omega) for every reservoir and Bohr frequency with G_k > 0."""
    out = []
    for res in model.reservoirs:
        g = effective_density(res)
        for omega in model.system.bohr_frequencies:
            if g(float(omega)) > 0.0:
                out.append((g, float(omega)))
    return out


def _pv_cases():
    fleet = model_fleet(4, seed=2)
    assert {res.density.form for m in fleet for res in m.reservoirs} == \
        {"ohmic", "flat", "table"}
    cases = [case for m in fleet for case in _bohr_densities(m)]
    cases += [(effective_density(res), omega)
              for res in canonical_reservoirs() for omega in (1.0, -1.0)]
    custom = _plain_density(_exponential, -2.0, 60.0)
    cases += [(custom, omega) for omega in (1.0, 0.3, -0.5)]
    return cases


def _exponential(w):
    return np.where(w > 0, w * np.exp(-np.minimum(w, 700)), 0.0)


# a breakpoint 1e-12 above omega = 0.3 puts window nodes within 1e-13 of
# omega, on the symmetric-difference branch
NEAR_NODE = (_plain_density(_exponential, -2.0, 60.0, breaks=(0.3 + 1e-12,)),
             0.3)


@pytest.mark.parametrize("quad", [
    None,
    QuadratureParams(window=0.5, panels=5, nodes=7, rel_tol=1e-12,
                     max_refine=8),
])
def test_pv_equals_reference_bitwise(quad):
    for g, omega in _pv_cases() + [NEAR_NODE]:
        assert principal_value(g, omega, quad) == \
            oracles.principal_value_reference(g, omega, quad), omega


def test_pv_stalls_like_reference():
    short = QuadratureParams(max_refine=1)
    stalled = 0
    for g, omega in _pv_cases():
        try:
            ref = oracles.principal_value_reference(g, omega, short)
        except QuadratureNotConverged as err:
            stalled += 1
            with pytest.raises(QuadratureNotConverged) as ours:
                principal_value(g, omega, short)
            assert ours.value.diagnostics == err.diagnostics
            assert principal_value(g, omega) == \
                oracles.principal_value_reference(g, omega)
        else:
            assert principal_value(g, omega, short) == ref
    assert stalled > 0


# breakpoints of a table knot (2.0, a kink) and a flat edge (4.0, a jump)
KNOT = ReservoirSpec(label="t", beta=1.3, coupling=np.eye(2),
                     density=SpectralDensity("table",
                                             table_omega=[0.1, 1.0, 2.0, 4.0],
                                             table_value=[0.2, 0.5, 0.4, 0.1]))
EDGE = ReservoirSpec(label="f", beta=1.3, coupling=np.eye(2),
                     density=SpectralDensity("flat", {"height": 0.3,
                                                      "omega_min": 0.2,
                                                      "omega_max": 4.0}))


@pytest.mark.parametrize("kind, delta", [
    *[("knot", d) for d in (1e-9, 1e-7, 1e-6, 1e-5)],
    *[("edge", d) for d in (1e-6, 1e-5, 3e-5)],
])
@pytest.mark.parametrize("side", [1.0, -1.0])
def test_pv_next_to_a_breakpoint(kind, delta, side):
    """A breakpoint within delta of omega used to stall node doubling; the
    value must agree with the adaptive oracle within that oracle's error
    estimate plus the library's own stopping tolerance."""
    res, breakpoint = {"knot": (KNOT, 2.0), "edge": (EDGE, 4.0)}[kind]
    g = effective_density(res)
    omega = breakpoint + side * delta
    ours = principal_value(g, omega)
    lo, hi = g.support()
    ref, err = oracles.pv_split(g, omega, lo - 2.0, hi + 2.0, g.breakpoints())
    tol = err + QuadratureParams().rel_tol * max(1.0, abs(ours))
    assert abs(ours - ref) <= tol, (ours, ref, err)


@pytest.mark.parametrize("seed, index", [(6, 625), (17, 656)])
def test_pv_census_models_answer(seed, index):
    """Two spectral-fleet models whose Bohr frequencies lie 5e-7 from a table
    knot and 1.2e-5 from a flat edge.  Their shapes and draws are those of
    the benchmark's SpectralFleet.SHAPES cycle."""
    shapes = [(d, n, form) for form in range(3) for n in (2, 3)
              for d in (2, 3, 4)]
    d, n, form = shapes[index % len(shapes)]
    model = random_model(np.random.default_rng([seed, 1, index]), d=d,
                         n_res=n, form=form)
    near = 0
    for g, omega in _bohr_densities(model):
        ours = principal_value(g, omega)
        gap = min(abs(b - omega) for b in g.breakpoints())
        if gap < QuadratureParams().window / 2 ** 10:
            near += 1
            lo, hi = g.support()
            ref, err = oracles.pv_split(g, omega, lo - 2.0, hi + 2.0,
                                        g.breakpoints())
            assert abs(ours - ref) <= \
                err + QuadratureParams().rel_tol * max(1.0, abs(ours))
    assert near > 0
    assert abs(ScgfSolver(model).leading(np.zeros(n)).f) <= 1e-12


def test_pv_stall_reports_the_last_change():
    g = effective_density(EDGE)
    with pytest.raises(QuadratureNotConverged) as err:
        principal_value(g, 4.0 + 1e-5, QuadratureParams(max_refine=1))
    change = err.value.diagnostics["last_change"]
    assert change > 0
    assert f"last change {change:.3e}" in str(err.value)


def test_pv_one_density_call_per_level(monkeypatch):
    monkeypatch.setattr(fcslab.lindblad, "_MAX_POINTS", 1 << 40)
    for g, omega in _pv_cases()[::5]:
        sizes = []
        principal_value(counting_density(g, sizes), omega)
        levels = sizes[1:]
        assert sizes[0] == 1                     # G(omega)
        assert all(b == 2 * a for a, b in zip(levels, levels[1:]))
        # the level count is the one the refinement needs
        principal_value(g, omega, QuadratureParams(max_refine=len(levels) - 1))
        if len(levels) > 2:
            with pytest.raises(QuadratureNotConverged):
                principal_value(g, omega,
                                QuadratureParams(max_refine=len(levels) - 2))


def test_pv_density_calls_stay_bounded(monkeypatch):
    """Deep levels are split into calls of at most _MAX_POINTS nodes, so a
    level's temporaries do not grow with panels times 2**max_refine."""
    split = 0
    # 96 starting nodes: the table densities' ~500 panel rows need a split
    # from the first level on
    for quad in (None, QuadratureParams(nodes=96, max_refine=3)):
        for g, omega in _pv_cases() + [NEAR_NODE]:
            sizes = []
            value = principal_value(counting_density(g, sizes), omega, quad)
            assert max(sizes) <= fcslab.lindblad._MAX_POINTS
            with monkeypatch.context() as uncapped:
                uncapped.setattr(fcslab.lindblad, "_MAX_POINTS", 1 << 40)
                whole = []
                assert principal_value(counting_density(g, whole), omega,
                                       quad) == value
            assert sum(sizes) == sum(whole)      # the same nodes, regrouped
            split += len(sizes) > len(whole)
    assert split > 0


def test_pv_split_levels_equal_reference(monkeypatch):
    # a few rows per call: every edge array sum still sees its own rows
    monkeypatch.setattr(fcslab.lindblad, "_MAX_POINTS", 100)
    for g, omega in _pv_cases()[::3] + [NEAR_NODE]:
        assert principal_value(g, omega) == \
            oracles.principal_value_reference(g, omega), omega


def _fresh_qubit_model():
    """The README qubit as a new model object, whose channel table is not
    built yet (the session qubit_model may already hold one)."""
    return make_model(np.diag([0.5, -0.5]), canonical_reservoirs(), lam=0.1)


def test_generator_build_evaluates_density_per_reservoir(monkeypatch):
    model = _fresh_qubit_model()
    sizes = []
    pv_calls = []
    real_density = fcslab.model.effective_density
    real_pv = fcslab.lindblad.principal_value

    def density(res):
        return counting_density(real_density(res), sizes)

    def pv(*args, **kwargs):
        pv_calls.append(args[1])
        return real_pv(*args, **kwargs)

    monkeypatch.setattr(fcslab.model, "effective_density", density)
    monkeypatch.setattr(fcslab.lindblad, "effective_density", density)
    monkeypatch.setattr(fcslab.lindblad, "principal_value", pv)
    ScgfSolver(model)
    assert len(pv_calls) == 4
    # one scalar call per principal value, for G(omega); everything else is
    # the channel table's one call on all level pairs of a reservoir, or a
    # refinement level
    assert sizes.count(1) == len(pv_calls)
    assert sizes.count(4) == model.n_reservoirs


def test_second_solver_builds_no_channel_table(monkeypatch):
    """A model builds its channel table once (ModelConfig.channels): the
    generator, Upsilon and the irreducibility check of a solver read it, a
    second solver on the same model reads it again, and with_lam gives a
    new model with a table of its own."""
    model = _fresh_qubit_model()
    calls = []
    real_table = fcslab.model.jump_channels

    def table(*args):
        calls.append(args)
        return real_table(*args)

    monkeypatch.setattr(fcslab.model, "jump_channels", table)
    ScgfSolver(model)
    assert len(calls) == 1
    ScgfSolver(model)
    assert len(calls) == 1
    ScgfSolver(model.with_lam(0.2))
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# vectorization
# ---------------------------------------------------------------------------

def test_vec_convention_and_sandwich():
    """The jump terms are built as kron(A^T, A^*) on the strength of
    vec(A S B) = (B^T kron A) vec(S)."""
    rng = np.random.default_rng(0)
    a, b, s = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
               for _ in range(3))
    assert np.allclose(unvec(vec(s), 3), s)
    assert np.allclose(np.kron(b.T, a) @ vec(s), vec(a @ s @ b))
    e = random_hermitian(rng, 3)
    assert np.allclose(unvec(oracles.commutator_superop(e) @ vec(s)),
                       1j * (e @ s - s @ e))


# ---------------------------------------------------------------------------
# level-shift operator
# ---------------------------------------------------------------------------

def test_upsilon_zero_coupling():
    res = ReservoirSpec(label="off", beta=1.0,
                        coupling=np.zeros((2, 2)),
                        density=canonical_reservoirs()[0].density)
    upsilon = compute_upsilon(make_model(np.diag([0.5, -0.5]), [res],
                                         lam=0.1))
    assert np.abs(upsilon).max() == 0.0


def test_upsilon_qubit_hand_value(qubit_model):
    """Upsilon for sigma_x coupling is diagonal in the energy basis with
    excited-state entry sum_k (-i pi G_k(1) - H_k(1)) and ground entry the
    omega = -1 analogue."""
    upsilon = compute_upsilon(qubit_model)
    expect = np.zeros((2, 2), dtype=complex)
    for res in canonical_reservoirs():
        g = effective_density(res)
        for sign, level in ((1.0, 0), (-1.0, 1)):
            # computational index 0 is the excited state (E = +1/2)
            h = oracles.pv_cauchy(lambda x: float(g(x)), sign, -60.0, 300.0)
            expect[level, level] += -1j * np.pi * g(sign) - h
    assert np.abs(upsilon - expect).max() < 1e-8


def test_upsilon_dissipative_part_psd():
    for model in model_fleet(6, seed=21):
        upsilon = compute_upsilon(model)
        diss = (upsilon.conj().T - upsilon) / 2j     # = pi sum M G >= 0
        evals = np.linalg.eigvalsh(diss)
        assert evals.min() >= -1e-10 * max(1.0, evals.max())


# ---------------------------------------------------------------------------
# deformed generator
# ---------------------------------------------------------------------------

def test_unital_and_dual_trace_preserving():
    rng = np.random.default_rng(31)
    for model in model_fleet(8, seed=13):
        parts = build_deformed_lindblad(model, np.zeros(model.n_reservoirs))
        d = model.system.dim
        scale = max(1.0, np.abs(parts.heisenberg).max())
        assert np.abs(parts.heisenberg @ vec(np.eye(d))).max() <= 1e-12 * scale
        dual = parts.dual
        for _ in range(10):
            s = random_hermitian(rng, d)
            assert abs(np.trace(unvec(dual @ vec(s)))) <= \
                1e-10 * scale * np.abs(s).max()


def test_generator_commutes_with_free_evolution():
    for model in model_fleet(5, seed=17):
        kappa = 0.1 * np.ones(model.n_reservoirs)
        parts = build_deformed_lindblad(model, kappa)
        m = oracles.commutator_superop(model.system.hamiltonian)
        l = parts.heisenberg
        comm = l @ m - m @ l
        assert np.abs(comm).max() <= 1e-10 * max(1.0, np.abs(l).max())


def _bohr_zero_cases():
    """Five spectra, three of them degenerate or with repeated gaps, each as
    given and rotated by a random unitary, with the README densities and
    random complex couplings; then a random fleet."""
    rng = np.random.default_rng(3)
    dens = canonical_reservoirs()[0].density
    for spectrum in ([0, 1, 2], [0, 1, 1, 2], [0, 1, 1, 2, 3], [1, 1, 0],
                     [1, 0.6, 0]):
        d = len(spectrum)
        reservoirs = [ReservoirSpec(label=label, beta=beta,
                                    coupling=random_hermitian(rng, d),
                                    density=dens)
                      for label, beta in (("hot", 1.0), ("cold", 2.0))]
        q, _ = np.linalg.qr(rng.normal(size=(d, d))
                            + 1j * rng.normal(size=(d, d)))
        for e in (np.diag(spectrum), q @ np.diag(spectrum) @ q.conj().T):
            yield make_model(e, reservoirs, lam=0.1)
    yield from model_fleet(6, seed=44)


def test_level_pair_generator_agrees_on_bohr_zero_block():
    """f is the leading eigenvalue on the Bohr-frequency-0 block, so the
    generator with one jump term per level pair gives the same f.  It
    differs from the secular one by the cross terms A_1^* S A_2 between two
    level pairs of one frequency, and for S in the block those carry a
    product of two orthogonal eigenprojections.  So the blocks agree up to
    rounding: the cross terms' own, of order eps max|L|, and that of the
    rotation into the energy eigenbasis, whose inner products have length
    d^2.  kappa runs over 0, a point on the thermal line and one off it."""
    eps = np.finfo(float).eps
    for model in _bohr_zero_cases():
        n = model.n_reservoirs
        betas = np.array([r.beta for r in model.reservoirs])
        lo, hi = model.domain_box.T
        for kappa in (np.zeros(n), 0.4 * betas,
                      lo + 0.3 * (hi - lo) * np.arange(1, n + 1) / n):
            parts = build_deformed_lindblad(model, kappa)
            ours = parts.assemble(kappa)
            ref = parts.drift_matrix.copy()
            for k, omega, mat in oracles.level_pair_jump_terms(model):
                ref += np.exp(-kappa[k] * omega) * mat
            d = model.system.dim
            bound = d * d * eps * max(1.0, np.abs(ours).max())
            gap = (oracles.bohr_zero_block(ours, model.system)
                   - oracles.bohr_zero_block(ref, model.system))
            assert np.abs(gap).max() <= bound, (model.system.energies, kappa)


def _covariance_cases():
    """Four spectra (equally spaced ladders, one degenerate, one whose gaps
    round apart) with random complex couplings to the two README baths;
    each as given and rotated by three random unitaries q."""
    rng = np.random.default_rng(3)
    dens = canonical_reservoirs()[0].density
    for spectrum in ([0.1, 0.2, 0.3], [0, 1, 2], [0, 0.3, 0.6, 0.9],
                     [0, 1, 1, 2]):
        d = len(spectrum)
        reservoirs = [ReservoirSpec(label=label, beta=beta,
                                    coupling=random_hermitian(rng, d),
                                    density=dens)
                      for label, beta in (("hot", 1.0), ("cold", 2.0))]
        base = make_model(np.diag(spectrum), reservoirs, lam=0.1)
        rotations = [np.linalg.qr(rng.normal(size=(d, d))
                                  + 1j * rng.normal(size=(d, d)))[0]
                     for _ in range(3)]
        yield spectrum, base, rotations


def test_generator_is_covariant_under_a_change_of_basis():
    """Rewriting H and every D_k in another orthonormal basis, S -> q S q^*,
    rewrites the generator as L -> W L W^* with W = conj(q) kron q, so the
    jump terms, the coherence eigenvalues and the gap must not depend on
    the basis the model is given in.  One jump term per reservoir and
    active Bohr frequency, in every basis.

    The bound is rounding only.  W L W^* sums d^2 products of entries of
    modulus at most max|L| per product, twice; the rotated model's
    eigenprojections carry eigh's backward error of order d eps ||H||,
    amplified by ||H|| / (smallest level gap), twice in each jump term.
    The gap moves by at most cond(V) ||dL||_2 per eigenvalue (Bauer-Fike,
    V the eigenvectors of L) with ||dL||_2 <= d^2 max|dL|."""
    eps = np.finfo(float).eps
    for spectrum, base, rotations in _covariance_cases():
        d = len(spectrum)
        levels = np.unique(spectrum)
        spread = float(np.abs(levels).max() / np.diff(levels).min())
        omegas = np.unique(np.round(np.subtract.outer(levels, levels), 12))
        groups = sum(int(np.sum(effective_density(r)(omegas) > 0.0))
                     for r in base.reservoirs)
        solver = ScgfSolver(base)
        assert len(solver.parts.jump_terms) == groups, spectrum
        betas = np.array([r.beta for r in base.reservoirs])
        lo, hi = base.domain_box.T
        kappas = (np.zeros(2), 0.4 * betas, lo + 0.3 * (hi - lo) * [1, 2] / 2)
        mats = [solver.parts.assemble(kappa) for kappa in kappas]
        gaps = [solver.leading(kappa).gap for kappa in kappas]
        conds = [np.linalg.cond(scipy.linalg.eig(mat)[1]) for mat in mats]
        for q in rotations:
            rotated = make_model(
                q @ np.diag(spectrum) @ q.conj().T,
                [dataclasses.replace(r, coupling=q @ r.coupling @ q.conj().T)
                 for r in base.reservoirs], lam=0.1)
            turned = ScgfSolver(rotated)
            assert len(turned.parts.jump_terms) == groups, spectrum
            w = np.kron(q.conj(), q)
            for kappa, mat, gap, cond in zip(kappas, mats, gaps, conds):
                bound = ((2 + 4 * spread) * d * d * eps
                         * max(1.0, np.abs(mat).max()))
                defect = turned.parts.assemble(kappa) - w @ mat @ w.conj().T
                assert np.abs(defect).max() <= bound, (spectrum, kappa)
                assert abs(turned.leading(kappa).gap - gap) <= \
                    2 * cond * d * d * bound, (spectrum, kappa)


def test_complex_kappa_is_refused_not_dropped(qubit_model):
    """assemble and derivative refuse a kappa with an imaginary part; a
    complex kappa with zero imaginary part gives the real kappa's bytes."""
    parts = build_deformed_lindblad(qubit_model, np.zeros(2))
    kappa = np.array([0.4, -0.15])
    for bad in (kappa + [0.1j, 0.0], [0.4 + 1e-300j, -0.15]):
        with pytest.raises(ConfigError, match="real"):
            parts.assemble(bad)
        with pytest.raises(ConfigError, match="real"):
            parts.derivative(bad, 0)
    assert np.array_equal(parts.assemble(kappa.astype(complex)),
                          parts.assemble(kappa))
    assert np.array_equal(parts.derivative(kappa.astype(complex), 1, 2),
                          parts.derivative(kappa, 1, 2))
    assert np.array_equal(parts.assemble([0, 1]), parts.assemble([0.0, 1.0]))


def test_qubit_population_block_matches_tilted_oracle(qubit_model):
    """State-picture generator restricted to populations (energy basis,
    order ground/excited) must equal the hand-coded tilted matrix."""
    for kappa in (np.zeros(2), np.array([0.4, -0.15]), np.array([0.9, 1.7])):
        parts = build_deformed_lindblad(qubit_model, kappa)
        dual = parts.dual
        # computational basis: index 0 = excited (+1/2), 1 = ground (-1/2);
        # vec (column-major) diagonal entries sit at 0 (S_00) and 3 (S_11)
        g, e = 3, 0
        block = np.array([[dual[g, g], dual[g, e]],
                          [dual[e, g], dual[e, e]]])
        oracle = oracles.qubit_tilted_matrix(kappa)
        assert np.abs(block - oracle).max() < 1e-12 * max(1, np.abs(oracle).max())
        # populations do not couple to coherences here
        assert abs(dual[g, 1]) + abs(dual[g, 2]) < 1e-14
        assert abs(dual[e, 1]) + abs(dual[e, 2]) < 1e-14


def test_channel_rates_match_oracle(qubit_model):
    down, up = oracles.qubit_rates()
    got_down = {}
    got_up = {}
    for k, channels in enumerate(qubit_model.channels):
        for omega, _, g, _, _, _ in channels:
            rate = 2.0 * np.pi * g
            if omega > 0:
                got_down[k] = rate
            else:
                got_up[k] = rate
    assert got_down[0] == pytest.approx(down[0], rel=1e-14)
    assert got_down[1] == pytest.approx(down[1], rel=1e-14)
    assert got_up[0] == pytest.approx(up[0], rel=1e-14)
    assert got_up[1] == pytest.approx(up[1], rel=1e-14)


def test_analytic_kappa_derivatives():
    model = model_fleet(1, seed=41, n_res=2)[0]
    parts = build_deformed_lindblad(model, np.zeros(2))
    kappa = np.array([0.11, 0.05])
    h = 1e-5
    for which in range(2):
        d_analytic = parts.derivative(kappa, which)
        e = np.zeros(2)
        e[which] = h
        d_fd = (parts.assemble(kappa + e) - parts.assemble(kappa - e)) / (2 * h)
        assert np.abs(d_analytic - d_fd).max() <= 1e-8 * max(
            1.0, np.abs(d_analytic).max())
        d2_analytic = parts.derivative(kappa, which, order=2)
        d2_fd = (parts.assemble(kappa + e) - 2 * parts.assemble(kappa)
                 + parts.assemble(kappa - e)) / h ** 2
        assert np.abs(d2_analytic - d2_fd).max() <= 1e-5 * max(
            1.0, np.abs(d2_analytic).max())


# ---------------------------------------------------------------------------
# semigroup
# ---------------------------------------------------------------------------

def test_semigroup_identity_at_zero_time(qubit_model):
    parts = build_deformed_lindblad(qubit_model, np.zeros(2))
    s = np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, 0.7]])
    assert np.allclose(oracles.semigroup(parts.heisenberg, 0.0, s), s)


def test_semigroup_unital_and_positive():
    rng = np.random.default_rng(53)
    for model in model_fleet(4, seed=29):
        parts = build_deformed_lindblad(model, np.zeros(model.n_reservoirs))
        d = model.system.dim
        for t in (0.05, 0.4):
            out = oracles.semigroup(parts.heisenberg, t, np.eye(d))
            assert np.abs(out - np.eye(d)).max() < 1e-11
            # dual evolves states: trace and positivity preserved
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            evolved = oracles.semigroup(parts.dual, t, rho)
            assert np.trace(evolved).real == pytest.approx(1.0, abs=1e-11)
            assert np.linalg.eigvalsh((evolved + evolved.conj().T) / 2).min() > -1e-11


def test_choi_positivity_of_dual_semigroup():
    model = model_fleet(1, seed=61, d=3)[0]
    parts = build_deformed_lindblad(model, np.zeros(model.n_reservoirs))
    d = model.system.dim
    choi = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            eij = np.zeros((d, d), dtype=complex)
            eij[i, j] = 1.0
            out = oracles.semigroup(parts.dual, 0.3, eij)
            choi[i * d:(i + 1) * d, j * d:(j + 1) * d] = out
    evals = np.linalg.eigvalsh((choi + choi.conj().T) / 2)
    assert evals.min() >= -1e-10


def test_block_structure_in_eigenoperator_basis(qubit_model):
    """Matrix elements between eigenoperators |a><b| with different Bohr
    frequencies vanish."""
    parts = build_deformed_lindblad(qubit_model, np.array([0.2, 0.1]))
    lmat = parts.heisenberg
    energies = np.diag(qubit_model.system.hamiltonian).real
    d = 2
    freqs = np.array([energies[a] - energies[b]
                      for b in range(d) for a in range(d)])  # vec col-major
    for p in range(d * d):
        for q in range(d * d):
            if abs(freqs[p] - freqs[q]) > 1e-9:
                assert abs(lmat[p, q]) < 1e-12
