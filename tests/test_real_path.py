"""Finite volume on separate eigen-blocks, in real arithmetic when H is
real, against a dense and a complex route.

The library keeps U = exp(-i t H) as its diagonal blocks, one per sparsity
component of H, from the eigendecomposition to the outputs.  A real H goes
to the real symmetric solver and each propagator block is built from two
real products.  Two references run the same requests:
- the dense route (`oracles.dense_route_propagator`, `dense_q_matrix` and
  `dense_compressed_map`) scatters the blocks into one dense U and takes
  every later product on it;
- the complex route adds `oracles.complex_eig_data` and
  `oracles.complex_propagator`: every H goes to the complex Hermitian
  solver.
Each check bounds the change of each output by the reference's own rounding
error, measured as the spread between LAPACK reading the lower and the
upper triangle of the same Hermitian blocks.
"""

import functools
import warnings

import mpmath
import numpy as np
import pytest

import fcslab.finite_volume
import fcslab.transfer
import oracles
from fcslab import (
    ReservoirModes,
    ReservoirSpec,
    SpectralDensity,
    assemble,
    build_and_deform,
    characteristic_function,
    compressed_map,
    compressed_step,
    extract_blocks,
    make_model,
    resonant_modes,
    tpm_distribution,
    transfer_instance,
    weak_coupling_compare,
)
from fcslab.errors import TruncationWarning
from fcslab.finite_volume import FiniteVolumeModel, _lattice_groups, _q_basis

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
KAPPA = np.array([0.4, 0.0])
TPM_KAPPAS = [np.array([0.3, 0.1]), np.array([0.25, 0.5])]
C07_KAPPAS = [(0.2, 0.0), (0.4, 0.0), (0.8, 0.0), (0.1, 0.05), (0.0, 0.3)]
# each output may move by this many times the reference route's own spread
SPREAD_FACTOR = 8.0
RHO = np.array([[0.3, 0.1 + 0.05j], [0.1 - 0.05j, 0.7]])


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


def _dense_route(monkeypatch):
    monkeypatch.setattr(FiniteVolumeModel, "propagator",
                        oracles.dense_route_propagator)
    monkeypatch.setattr(fcslab.finite_volume, "_q_matrix",
                        oracles.dense_q_matrix)
    monkeypatch.setattr(fcslab.transfer, "compressed_map",
                        oracles.dense_compressed_map)


def _complex_route(monkeypatch):
    _dense_route(monkeypatch)
    monkeypatch.setattr(FiniteVolumeModel, "_eig_data",
                        oracles.complex_eig_data)
    monkeypatch.setattr(FiniteVolumeModel, "propagator",
                        oracles.complex_propagator)


def _route_outputs(monkeypatch, route, run):
    """run() through the route twice: LAPACK reading the lower triangle,
    then the upper one."""
    route(monkeypatch)
    lower = run()
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh",
                      functools.partial(np.linalg.eigh, UPLO="U"))
        upper = run()
    return lower, upper


def _relative(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


def _assert_within_rounding(got, lower, upper):
    """Per request, each output of got lies within SPREAD_FACTOR times the
    route's own spread: the largest relative difference of the request's
    outputs between its lower- and upper-triangle runs."""
    for kind, ref in lower.items():
        ref = [np.asarray(x, dtype=complex) for x in ref]
        mine = [np.asarray(x, dtype=complex) for x in got[kind]]
        assert [a.shape for a in mine] == [a.shape for a in ref]
        own = max(_relative(np.asarray(u, dtype=complex), r)
                  for u, r in zip(upper[kind], ref))
        assert 0.0 < own < 1e-12, kind
        for a, r in zip(mine, ref):
            assert _relative(a, r) <= SPREAD_FACTOR * own, kind


@pytest.fixture(scope="module")
def block_outputs(qubit_model):
    return _exact_qubit_outputs(qubit_model)


def test_real_path_within_complex_route_rounding(block_outputs, qubit_model,
                                                 monkeypatch):
    """On the dim-1458 qubit every output of the real block path differs
    from the complex route by at most SPREAD_FACTOR times that route's own
    rounding error."""
    lower, upper = _route_outputs(
        monkeypatch, _complex_route,
        lambda: _exact_qubit_outputs(qubit_model))
    _assert_within_rounding(block_outputs, lower, upper)
    # the atoms of the distribution do not depend on the propagator
    assert np.array_equal(block_outputs["tpm"][0], lower["tpm"][0])


def test_block_path_within_dense_route_rounding(block_outputs, qubit_model,
                                                monkeypatch):
    """On the dim-1458 qubit the tpm, transfer, compare and block-time
    outputs of the separate blocks differ from the dense route's by at most
    SPREAD_FACTOR times that route's own rounding error.  Both routes start
    from the same eigenpairs; only the order of the sums differs."""
    lower, upper = _route_outputs(
        monkeypatch, _dense_route, lambda: _exact_qubit_outputs(qubit_model))
    _assert_within_rounding(block_outputs, lower, upper)
    assert np.array_equal(block_outputs["tpm"][0], lower["tpm"][0])


def test_compressed_map_against_extended_precision(qubit_model):
    """From the same propagator blocks, the block-aligned compressed maps of
    the dim-1458 transfer instance lie within 8 eps of each map's largest
    entry of a long-double evaluation.  The dense route's single long inner
    products miss it by a few hundred eps."""
    fv = transfer_instance(qubit_model, 0.2, tau=0.2, n_blocks=2, n_modes=3,
                           n_occ=2, spacing_margin=1.0)
    for t in (5.0, 10.0):
        got = compressed_map(fv, KAPPA, t)
        want = oracles.extended_compressed_map(fv, KAPPA, t)
        assert np.abs(got - want).max() <= \
            8 * np.finfo(float).eps * np.abs(want).max()


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
    """Each real parity block's eigenvalues, and the propagator block built
    from the real eigenvectors, agree with a 30-digit mpmath eighe within
    the backward error n eps ||H|| of a stable symmetric solver, which the
    propagator carries as t n eps ||H||."""
    fv = _dim54_instance(qubit_model)
    assert fv.dim == 54 and not np.any(fv.hamiltonian.imag)
    data = fv._eig_data()
    assert len(data) == 2
    t = 5.0
    props = fv.propagator(t)
    eps = np.finfo(float).eps
    with mpmath.workdps(30):
        for (idx, evals, vecs), (u_idx, u) in zip(data, props):
            assert np.array_equal(idx, u_idx)
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
            assert np.abs(u - ref_u).max() <= n * eps + t * scale


def _two_reservoir_model(hamiltonian, coupling, lam):
    dens = SpectralDensity(form="ohmic", params={"gamma": 0.5,
                                                 "exponent": 1.0,
                                                 "cutoff": 5.0})
    reservoirs = [ReservoirSpec(label=label, beta=beta, coupling=coupling,
                                density=dens)
                  for label, beta in (("hot", 1.0), ("cold", 2.0))]
    return make_model(hamiltonian, reservoirs, lam=lam)


def _sigma_y_model():
    return _two_reservoir_model(np.diag([0.5, -0.5]), SIGMA_Y, 0.3)


def test_complex_hamiltonian_keeps_complex_route_bit_for_bit(monkeypatch):
    """sigma_y coupling makes H complex: the complex Hermitian solver runs,
    and the eigenpairs, the propagator blocks and the TPM atoms equal the
    complex route's bits.  The probabilities and chi, which the Q basis
    sums in another order, lie within that route's own rounding."""
    model = _sigma_y_model()
    modes = [resonant_modes(model.system, r, 3, 0.4, n_max=1)
             for r in model.reservoirs]

    def run():
        fv = _quiet_assemble(model, modes)
        dist = tpm_distribution(fv, RHO, 4.0)
        chi = characteristic_function(fv, RHO, np.array([0.4, -0.2]), 4.0)
        return fv, dist, chi, [fv.propagator(t) for t in (1.5, 4.0)]

    fv, dist, chi, props = run()
    assert fv.dim == 128 and np.any(fv.hamiltonian.imag)
    assert len(fv._eig_data()) == 2
    assert all(np.iscomplexobj(vecs) for _, _, vecs in fv._eig_data())
    lower, upper = _route_outputs(monkeypatch, _complex_route, run)
    ref_fv, ref_dist, ref_chi, ref_props = lower
    for (i0, e0, v0), (i1, e1, v1) in zip(fv._eig_data(),
                                          ref_fv._eig_data()):
        assert np.array_equal(i0, i1)
        assert np.array_equal(e0, e1)
        assert np.array_equal(v0, v1)
    for blocks, dense in zip(props, ref_props):
        for idx, u in blocks:
            assert np.array_equal(u, dense[np.ix_(idx, idx)])
    assert np.array_equal(dist.support, ref_dist.support)
    _assert_within_rounding(
        {"tpm": [dist.probabilities, chi]},
        {"tpm": [ref_dist.probabilities, ref_chi]},
        {"tpm": [upper[1].probabilities, upper[2]]})


def _split_three_level_model():
    dens = SpectralDensity(form="ohmic", params={"gamma": 0.5,
                                                 "exponent": 1.0,
                                                 "cutoff": 5.0})
    flip = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    reservoirs = [
        ReservoirSpec(label="hot", beta=1.0, density=dens,
                      coupling=flip + np.diag([0.0, 0.0, 1.0])),
        ReservoirSpec(label="cold", beta=2.0, density=dens, coupling=flip)]
    return make_model(np.diag([1.0, 0.2, -0.9]), reservoirs, lam=0.3)


# instances whose blocks align in other ways than sigma_x's two parity
# blocks: (model, modes per frequency, spacing, n_max, components, and the
# off-diagonal (j, k) of the Q basis that no block structure removes)
ALIGNMENT_INSTANCES = {
    # sigma_y: a complex H, two parity blocks
    "sigma_y": (_sigma_y_model, 3, 0.4, 1, 2, []),
    # sigma_x + sigma_z: the diagonal part breaks the parity, one component
    "sigma_xz": (lambda: _two_reservoir_model(
        np.diag([0.5, -0.5]), np.array([[1.0, 1.0], [1.0, -1.0]]), 0.3),
        2, 0.35, 1, 1, [(0, 1)]),
    # three levels with nearest-level hopping: two parity blocks, and levels
    # 0 and 2 share each block
    "three_level": (lambda: _two_reservoir_model(
        np.diag([1.0, 0.2, -0.9]),
        np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]), 0.3),
        1, 0.35, 1, 2, [(0, 2)]),
    # three levels, levels 0 and 1 flipped by both reservoirs and level 2
    # moved only along the hot modes: two parity blocks plus one block per
    # cold configuration, so the shared modes of two blocks are no longer
    # runs of consecutive positions
    "three_level_split": (_split_three_level_model, 1, 0.35, 1, 10, []),
}


@pytest.mark.parametrize("name", sorted(ALIGNMENT_INSTANCES))
def test_block_alignment_within_dense_route_rounding(name, monkeypatch):
    """The Q basis and the block-aligned compressed map give the dense
    route's TPM distribution, chi and compressed maps to within that route's
    own rounding, on instances with a complex H, with one component, with
    a three-level system whose blocks hold two levels at one mode, and with
    one whose shared modes are not consecutive within a block."""
    make, n_modes, spacing, n_max, n_comp, cross = ALIGNMENT_INSTANCES[name]
    model = make()
    d = model.system.dim
    modes = [resonant_modes(model.system, r, n_modes, spacing, n_max=n_max)
             for r in model.reservoirs]
    # coherences in every entry, so each (j, k) of the Q basis contributes
    upper = np.triu(np.full((d, d), 0.05 + 0.02j), 1)
    rho = upper + upper.conj().T + np.diag(np.linspace(1.0, 2.0, d)
                                           / (1.5 * d))

    def run():
        fv = _quiet_assemble(model, modes)
        dist = tpm_distribution(fv, rho, 4.0)
        chis = [characteristic_function(fv, rho, k, 4.0)
                for k in (np.array([0.4, -0.2]), np.array([0.3j, 0.1]))]
        maps = [fcslab.transfer.compressed_map(fv, k, t) for k, t in
                ((np.array([0.4, 0.0]), 4.0), (np.array([-0.3, 1.1]), 2.0))]
        return fv, {"tpm": [dist.probabilities, *chis], "map": maps,
                    "atoms": dist.support}

    fv, got = run()
    assert len(fv._eig_data()) == n_comp
    pairs = [(j, k) for j, k, _ in _q_basis(fv, 4.0) if j != k]
    assert pairs == cross
    (_, lower), (_, upper) = _route_outputs(monkeypatch, _dense_route, run)
    assert np.array_equal(got.pop("atoms"), lower.pop("atoms"))
    upper.pop("atoms")
    _assert_within_rounding(got, lower, upper)


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
