"""Finite volume in real arithmetic when H is real, against the complex path.

A real finite-volume Hamiltonian goes to the real symmetric solver and its
propagator is built from two real products; `oracles.complex_eig_data` and
`oracles.complex_propagator` keep the complex Hermitian route that every H
took before.  The dim-1458 checks bound the change of each output by the
complex route's own rounding error, measured as the spread between LAPACK
reading the lower and the upper triangle of the same Hermitian blocks.
"""

import functools
import warnings

import mpmath
import numpy as np
import pytest

import fcslab.finite_volume
import oracles
from fcslab import (
    ReservoirModes,
    ReservoirSpec,
    SpectralDensity,
    assemble,
    build_and_deform,
    characteristic_function,
    compressed_step,
    extract_blocks,
    make_model,
    resonant_modes,
    tpm_distribution,
    transfer_instance,
    weak_coupling_compare,
)
from fcslab.errors import TruncationWarning
from fcslab.finite_volume import FiniteVolumeModel, _lattice_groups

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
KAPPA = np.array([0.4, 0.0])
TPM_KAPPAS = [np.array([0.3, 0.1]), np.array([0.25, 0.5])]
C07_KAPPAS = [(0.2, 0.0), (0.4, 0.0), (0.8, 0.0), (0.1, 0.05), (0.0, 0.3)]
# each output may move by this many times the complex route's own spread
SPREAD_FACTOR = 8.0


def _quiet_assemble(model, modes):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return assemble(model, modes)


def _tpm_instance(model, t=5.0):
    modes = [resonant_modes(model.system, res, 3, 0.8 * np.pi / t, n_max=2)
             for res in model.reservoirs]
    return _quiet_assemble(model, modes)


def _exact_qubit_outputs(q):
    """The four dim-1458 requests: tpm, transfer, compare and block-time,
    each as a list of output arrays."""
    t = 5.0
    fv = _tpm_instance(q, t)
    dist = tpm_distribution(fv, q.rho_system, t)
    chis = [characteristic_function(fv, q.rho_system, k, t)
            for k in TPM_KAPPAS]
    out = {"tpm": [dist.support, dist.probabilities, chis]}

    fv = transfer_instance(q, 0.2, tau=0.2, n_blocks=2, n_modes=3, n_occ=2,
                           spacing_margin=1.0)
    blocks = extract_blocks(compressed_step(fv, KAPPA, 0.2), n_max=2)
    op = build_and_deform(blocks)
    out["transfer"] = [blocks.norms, blocks.c_hat, op.leading, op.f_transfer]

    table = weak_coupling_compare(q, C07_KAPPAS, [0.2], n_modes=3, n_max=2,
                                  spacing_margin=1.0, rho_rule="tilted")
    out["compare"] = [[(r.chi, r.f_finite, r.f_fgr, r.deviation)
                       for r in table.rows]]

    fv = transfer_instance(q, 0.2, tau=0.2, n_blocks=4, n_modes=3, n_occ=2,
                           spacing_margin=1.0)
    fine = build_and_deform(extract_blocks(
        compressed_step(fv, KAPPA, 0.2, lam=0.2), n_max=4))
    coarse = build_and_deform(extract_blocks(
        compressed_step(fv, KAPPA, 0.4, lam=0.2), n_max=2))
    out["block-time"] = [fine.rate, coarse.rate, fine.leading,
                         coarse.leading]
    return {kind: [np.asarray(x, dtype=complex) for x in arrays]
            for kind, arrays in out.items()}


def _complex_route(monkeypatch):
    monkeypatch.setattr(FiniteVolumeModel, "_eig_data",
                        oracles.complex_eig_data)
    monkeypatch.setattr(FiniteVolumeModel, "propagator",
                        oracles.complex_propagator)


def _relative(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


def test_real_path_within_complex_route_rounding(qubit_model, monkeypatch):
    """On the dim-1458 qubit every output of the real path differs from the
    complex route by at most SPREAD_FACTOR times that route's own rounding
    error: the largest relative spread of the request's outputs between the
    lower- and upper-triangle runs of the complex Hermitian solver."""
    real = _exact_qubit_outputs(qubit_model)
    _complex_route(monkeypatch)
    lower = _exact_qubit_outputs(qubit_model)
    monkeypatch.setattr(np.linalg, "eigh",
                        functools.partial(np.linalg.eigh, UPLO="U"))
    upper = _exact_qubit_outputs(qubit_model)
    for kind, ref in lower.items():
        assert [a.shape for a in real[kind]] == [a.shape for a in ref]
        own = max(_relative(u, r) for u, r in zip(upper[kind], ref))
        assert 0.0 < own < 1e-12, kind
        for a, r in zip(real[kind], ref):
            assert _relative(a, r) <= SPREAD_FACTOR * own, kind
    # the atoms of the distribution do not depend on the propagator
    assert np.array_equal(real["tpm"][0], lower["tpm"][0])


def _dim54_instance(qubit_model):
    """Two hot modes and one cold mode at cutoff 2: dim 2 * 27 = 54, two
    parity blocks of 27."""
    hot = ReservoirModes(label="hot", beta=1.0,
                         frequencies=np.array([0.8, 1.2]),
                         couplings=np.array([0.35, 0.3]), n_max=2)
    cold = ReservoirModes(label="cold", beta=2.0,
                          frequencies=np.array([1.05]),
                          couplings=np.array([0.4]), n_max=2)
    return _quiet_assemble(qubit_model.with_lam(0.3), [hot, cold])


def test_real_eigendecomposition_against_mpmath(qubit_model):
    """Each real parity block's eigenvalues, and the propagator built from
    the real eigenvectors, agree with a 30-digit mpmath eighe within the
    backward error n eps ||H|| of a stable symmetric solver, which the
    propagator carries as t n eps ||H||."""
    fv = _dim54_instance(qubit_model)
    assert fv.dim == 54 and not np.any(fv.hamiltonian.imag)
    data = fv._eig_data()
    assert len(data) == 2
    t = 5.0
    u = fv.propagator(t)
    eps = np.finfo(float).eps
    with mpmath.workdps(30):
        for idx, evals, vecs in data:
            assert vecs.dtype == np.float64 and evals.dtype == np.float64
            block = fv.hamiltonian.real[np.ix_(idx, idx)]
            n = len(idx)
            scale = n * eps * np.linalg.norm(block, 2)
            mp_evals, mp_vecs = mpmath.eighe(mpmath.matrix(block.tolist()))
            ref = np.array([float(x) for x in mp_evals])
            order = np.argsort(ref)
            assert np.abs(evals - ref[order]).max() <= scale
            phases = mpmath.matrix(n, n)
            for k in range(n):
                phases[k, k] = mpmath.exp(-1j * mp_evals[k] * t)
            mp_u = mp_vecs * phases * mp_vecs.H
            ref_u = np.array([[complex(mp_u[i, j]) for j in range(n)]
                              for i in range(n)])
            assert np.abs(u[np.ix_(idx, idx)] - ref_u).max() <= \
                n * eps + t * scale


def _sigma_y_model():
    dens = SpectralDensity(form="ohmic", params={"gamma": 0.5,
                                                 "exponent": 1.0,
                                                 "cutoff": 5.0})
    reservoirs = [ReservoirSpec(label=label, beta=beta, coupling=SIGMA_Y,
                                density=dens)
                  for label, beta in (("hot", 1.0), ("cold", 2.0))]
    return make_model(np.diag([0.5, -0.5]), reservoirs, lam=0.3)


def test_complex_hamiltonian_keeps_complex_route_bit_for_bit(monkeypatch):
    """sigma_y coupling makes H complex: the complex Hermitian solver runs,
    and the eigenpairs, propagators and TPM outputs equal the complex
    route's bits."""
    model = _sigma_y_model()
    rho = np.array([[0.3, 0.1 + 0.05j], [0.1 - 0.05j, 0.7]])
    modes = [resonant_modes(model.system, r, 3, 0.4, n_max=1)
             for r in model.reservoirs]

    def run():
        fv = _quiet_assemble(model, modes)
        dist = tpm_distribution(fv, rho, 4.0)
        chi = characteristic_function(fv, rho, np.array([0.4, -0.2]), 4.0)
        return fv, dist, chi, [fv.propagator(t) for t in (1.5, 4.0)]

    fv, dist, chi, props = run()
    assert fv.dim == 128 and np.any(fv.hamiltonian.imag)
    assert len(fv._eig_data()) == 2
    assert all(np.iscomplexobj(vecs) for _, _, vecs in fv._eig_data())
    _complex_route(monkeypatch)
    ref_fv, ref_dist, ref_chi, ref_props = run()
    for (i0, e0, v0), (i1, e1, v1) in zip(fv._eig_data(),
                                          ref_fv._eig_data()):
        assert np.array_equal(i0, i1)
        assert np.array_equal(e0, e1)
        assert np.array_equal(v0, v1)
    for u0, u1 in zip(props, ref_props):
        assert np.array_equal(u0, u1)
    assert np.array_equal(dist.support, ref_dist.support)
    assert np.array_equal(dist.probabilities, ref_dist.probabilities)
    assert chi == ref_chi


def _assert_same_groups(points, scale):
    labels, means = _lattice_groups(points, scale)
    ref_labels, ref_means = oracles.lattice_groups_reference(points, scale)
    assert np.array_equal(labels, ref_labels)
    assert np.array_equal(means, ref_means)


def test_lattice_groups_match_unique_on_tpm_differences(qubit_model):
    """The dim-1458 tpm request's 279,841 energy-difference rows group
    exactly as np.unique(axis=0) groups them."""
    fv = _tpm_instance(qubit_model)
    energy = fv.reservoir_energy
    _, values = _lattice_groups(energy.T, float(np.abs(energy).max()))
    diffs = (values[:, None, :] - values[None, :, :]).reshape(
        -1, values.shape[1])
    assert diffs.shape == (279841, 2)
    _assert_same_groups(energy.T, float(np.abs(energy).max()))
    _assert_same_groups(diffs, float(np.abs(values).max()))


@pytest.mark.parametrize("seed", range(4))
def test_lattice_groups_match_unique_on_random_lattices(seed):
    """Integer lattices with repeated and negative keys, each point jittered
    well inside its rounding cell, and one to four columns."""
    rng = np.random.default_rng(seed)
    n_cols = 1 + seed
    keys = rng.integers(-6, 7, size=(400, n_cols))
    scale = float(rng.uniform(0.5, 30.0))
    step = fcslab.finite_volume.GROUP_TOL * max(1.0, scale)
    points = (keys + rng.uniform(-0.3, 0.3, size=keys.shape)) * step
    _assert_same_groups(points, scale)
    _assert_same_groups(points[:1], scale)
