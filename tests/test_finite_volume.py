"""Finite-volume assembly, two-point measurement statistics, and the
weak-coupling comparison harness."""

import dataclasses
import itertools
import types
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import fcslab.finite_volume
from fcslab import (
    ReservoirSpec,
    ScgfSolver,
    SpectralDensity,
    ReservoirModes,
    assemble,
    characteristic_function,
    make_model,
    resonant_modes,
    tpm_distribution,
    weak_coupling_compare,
)
from fcslab.errors import (
    ConfigError,
    DimensionCap,
    EmptyRange,
    NonHermitianInput,
    OverflowGuard,
    RecurrenceHorizonExceeded,
    TruncationWarning,
)
from fcslab.model import check_hermitian
from oracles import qubit_scgf_physical, qubit_second_order_rate

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
EQ = np.diag([0.5, -0.5]).astype(complex)


def ohmic_reservoir(label="hot", beta=1.0):
    return ReservoirSpec(label=label, beta=beta, coupling=SX,
                         density=SpectralDensity(
                             "ohmic", {"gamma": 0.5, "exponent": 1.0,
                                       "cutoff": 5.0}))


@pytest.fixture(scope="module")
def fv32(qubit_model):
    """32-dimensional two-reservoir instance: 2 modes per reservoir, n_max 1."""
    model = qubit_model.with_lam(0.3)
    modes = [resonant_modes(model.system, r, 2, 0.35, n_max=1)
             for r in model.reservoirs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        fv = assemble(model, modes)
    return fv


@pytest.fixture(scope="module")
def rho_probe():
    return np.array([[0.3, 0.1 + 0.05j], [0.1 - 0.05j, 0.7]])


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def test_reservoir_modes_reject_bad_input():
    with pytest.raises(ConfigError):
        ReservoirModes(label="x", beta=1.0, frequencies=np.array([1.0, -0.2]),
                       couplings=np.array([0.1, 0.1]), n_max=1)
    with pytest.raises(EmptyRange):
        ReservoirModes(label="x", beta=1.0, frequencies=np.array([]),
                       couplings=np.array([]), n_max=1)
    for n_max in (2.7, True):
        with pytest.raises(ConfigError, match="integer"):
            ReservoirModes(label="x", beta=1.0, frequencies=np.array([1.0]),
                           couplings=np.array([0.1]), n_max=n_max)


def test_resonant_modes_grid_layout(qubit_system):
    res = ohmic_reservoir()
    mm = resonant_modes(qubit_system, res, 3, 0.1, n_max=2)
    # qubit has a single positive transition at 1: grid (0.9, 1.0, 1.1)
    assert np.allclose(mm.frequencies, [0.9, 1.0, 1.1])
    assert np.allclose(mm.couplings ** 2, res.density(mm.frequencies) * 0.1)
    assert mm.min_spacing() == pytest.approx(0.1)
    with pytest.raises(EmptyRange):
        resonant_modes(qubit_system, res, 9, 0.3, n_max=2)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_assemble_single_mode_matches_hand_matrix():
    # one resonant mode, occupation cutoff 1: the 4x4 picture is solvable by
    # hand; basis order (exc,0), (exc,1), (gnd,0), (gnd,1)
    lam, g = 0.25, 0.3
    model = make_model(EQ, [ohmic_reservoir()], lam=lam)
    mm = ReservoirModes(label="hot", beta=1.0, frequencies=np.array([1.0]),
                        couplings=np.array([g]), n_max=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        fv = assemble(model, [mm])
    c = lam * g
    hand = np.array([
        [0.5, 0.0, 0.0, c],
        [0.0, 1.5, c, 0.0],
        [0.0, c, -0.5, 0.0],
        [c, 0.0, 0.0, 0.5],
    ])
    assert fv.dim == 4
    assert np.allclose(fv.hamiltonian.toarray(), hand, atol=1e-14)
    # blocks {(exc,1),(gnd,0)} and {(exc,0),(gnd,1)}: the second has
    # eigenvalues 1/2 +- lam g
    eig = np.sort(np.linalg.eigvalsh(fv.hamiltonian.toarray()))
    # block {(exc,1),(gnd,0)}: [[3/2, c], [c, -1/2]] -> 1/2 +- sqrt(1 + c^2)
    # block {(exc,0),(gnd,1)}: [[1/2, c], [c, 1/2]]  -> 1/2 +- c
    expected = np.sort([0.5 + np.sqrt(1 + c * c), 0.5 - np.sqrt(1 + c * c),
                        0.5 + c, 0.5 - c])
    assert np.allclose(eig, expected, atol=1e-13)


def test_assemble_free_spectrum_at_zero_coupling():
    model = make_model(EQ, [ohmic_reservoir(), ohmic_reservoir("cold", 2.0)],
                       lam=0.0)
    modes = [resonant_modes(model.system, r, 2, 0.4, n_max=2)
             for r in model.reservoirs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        fv = assemble(model, modes)
    xi = np.concatenate([m.frequencies for m in modes])
    sums = []
    for e in (0.5, -0.5):
        for occ in itertools.product(range(3), repeat=len(xi)):
            sums.append(e + np.dot(occ, xi))
    assert fv.dim == 2 * 3 ** 4
    assert np.allclose(np.sort(np.linalg.eigvalsh(fv.hamiltonian.toarray())),
                       np.sort(sums), atol=1e-12)


def test_assemble_hermitian_and_reservoir_energies(fv32):
    h = fv32.hamiltonian.toarray()
    assert np.abs(h - h.conj().T).max() <= 1e-13
    # reservoir energy observables commute with everything diagonal and
    # enumerate occupation configurations mode by mode
    k_energy = fv32.reservoir_energy
    assert k_energy.shape == (2, 16)
    xi_hot = fv32.modes[0].frequencies
    # big-endian layout: first mode of reservoir 0 has the largest stride
    m = 0b1010  # occupations (1, 0) for hot modes, (1, 0) for cold modes
    assert k_energy[0, m] == pytest.approx(xi_hot[0])


def test_assemble_checks_hermiticity_on_the_sparse_hamiltonian(qubit_model):
    """assemble checks H while it is sparse, diagonal included.  An
    anti-Hermitian interaction (imaginary lambda) raises the same
    NonHermitianInput, with the same message, as the check on the dense H,
    and a sparse matrix gets the dense matrix's verdict."""
    modes = [resonant_modes(qubit_model.system, r, 2, 0.35, n_max=1)
             for r in qubit_model.reservoirs]
    skew = types.SimpleNamespace(system=qubit_model.system,
                                 reservoirs=qubit_model.reservoirs, lam=0.3j)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        fv = assemble(qubit_model.with_lam(0.3), modes)
        with pytest.raises(NonHermitianInput) as got:
            assemble(skew, modes)
    ham = fv.hamiltonian.toarray()
    free = np.diag(np.diag(ham))
    dense = free + 1j * (ham - free)
    with pytest.raises(NonHermitianInput) as want:
        check_hermitian(dense, "finite-volume Hamiltonian")
    assert str(got.value) == str(want.value)
    with pytest.raises(NonHermitianInput) as sparse:
        check_hermitian(scipy.sparse.csr_matrix(dense),
                        "finite-volume Hamiltonian")
    assert str(sparse.value) == str(want.value)
    check_hermitian(fv.hamiltonian)


@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_assemble_refuses_non_diagonal_system_hamiltonian(lam):
    """The free part is the diagonal of the system Hamiltonian, so a
    Hamiltonian with an off-diagonal entry is refused rather than losing it
    (here E = 0.5 sigma_x would give system energies {0, 0})."""
    sz = np.diag([1.0, -1.0]).astype(complex)
    reservoirs = [dataclasses.replace(ohmic_reservoir(), coupling=sz)]
    model = make_model([[0.0, 0.5], [0.5, 0.0]], reservoirs, lam=lam)
    modes = [resonant_modes(model.system, reservoirs[0], 2, 0.35, n_max=1)]
    with pytest.raises(ConfigError, match=r"diagonal.*entry \(0, 1\)"):
        assemble(model, modes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        diagonal = make_model(np.diag([0.5, -0.5]), reservoirs, lam=lam)
        assert assemble(diagonal, modes).dim == 2 * 4


def test_assemble_rejects_mismatched_labels(qubit_model):
    modes = [resonant_modes(qubit_model.system, r, 2, 0.35, n_max=1)
             for r in qubit_model.reservoirs]
    with pytest.raises(ConfigError):
        assemble(qubit_model, [modes[1], modes[0]])
    with pytest.raises(ConfigError):
        assemble(qubit_model, modes[:1])


def test_gibbs_weights_product_form(fv32):
    w = fv32.gibbs_weights
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(w > 0)
    xi = np.concatenate([m.frequencies for m in fv32.modes])
    betas = np.array([1.0, 1.0, 2.0, 2.0])
    raw = np.zeros(16)
    for m, occ in enumerate(itertools.product(range(2), repeat=4)):
        raw[m] = np.exp(-np.sum(betas * xi * occ))
    assert np.allclose(w, raw / raw.sum(), atol=1e-14)


def test_truncation_warning_tracks_thermal_tail(qubit_system):
    # beta 1 at frequency ~1 with two levels leaves ~e^{-2} in the tail
    hot = ohmic_reservoir("hot", 1.0)
    model = make_model(EQ, [hot], lam=0.2)
    modes = [resonant_modes(qubit_system, hot, 2, 0.35, n_max=1)]
    with pytest.warns(TruncationWarning):
        assemble(model, modes)
    # beta 6 with three levels: tail e^{-6 * 0.825 * 3} ~ 4e-7 is below the
    # reporting threshold
    cold = ohmic_reservoir("hot", 6.0)
    model2 = make_model(EQ, [cold], lam=0.2)
    modes2 = [resonant_modes(qubit_system, cold, 2, 0.35, n_max=2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        assemble(model2, modes2)


def test_dimension_cap(qubit_model, monkeypatch):
    modes = [resonant_modes(qubit_model.system, r, 4, 0.2, n_max=3)
             for r in qubit_model.reservoirs]
    # 2 * 4^8 = 131072 over the default cap
    with pytest.raises(DimensionCap):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            assemble(qubit_model, modes)
    small = [resonant_modes(qubit_model.system, r, 2, 0.35, n_max=1)
             for r in qubit_model.reservoirs]
    monkeypatch.setattr(fcslab.finite_volume, "DIMENSION_CAP", 20)
    with pytest.raises(DimensionCap):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            assemble(qubit_model, small)


# ---------------------------------------------------------------------------
# two-point measurement statistics
# ---------------------------------------------------------------------------

def test_point_mass_at_zero_without_dynamics(fv32, qubit_model, rho_probe):
    # t = 0: nothing moved
    dist = tpm_distribution(fv32, rho_probe, 0.0)
    assert dist.probabilities.tolist() == [1.0]
    assert not dist.support.any()
    # lam = 0: reservoir energies are conserved for every t
    model0 = qubit_model.with_lam(0.0)
    modes = [resonant_modes(model0.system, r, 2, 0.35, n_max=1)
             for r in model0.reservoirs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        fv0 = assemble(model0, modes)
    dist0 = tpm_distribution(fv0, rho_probe, 7.3)
    assert dist0.probabilities.tolist() == [1.0]
    assert not dist0.support.any()
    assert characteristic_function(fv0, rho_probe, np.array([2.0, -1.0]), 7.3) \
        == 1.0 + 0.0j


def test_chi_is_one_at_zero_counting_field(fv32, rho_probe):
    chi = characteristic_function(fv32, rho_probe, np.zeros(2), 4.0)
    assert abs(chi - 1.0) <= 1e-12


def test_chi_matches_dense_reference(fv32, rho_probe):
    # independent route: chi = Tr[(rho (x) gibbs) Gamma(-kappa) U* Gamma(kappa) U]
    # with U from expm rather than the eigendecomposition
    t = 4.0
    U = scipy.linalg.expm(-1j * t * fv32.hamiltonian.toarray())
    full_E = np.stack([np.tile(fv32.reservoir_energy[k], fv32.sys_dim)
                       for k in range(2)])
    rho_full = np.kron(rho_probe, np.diag(fv32.gibbs_weights))
    for kap in (np.array([0.4, -0.2]), np.array([1.0, 0.3]),
                np.array([0.7j, -1.3j]), np.array([0.3 + 0.5j, 0.1 - 0.2j])):
        phase = kap @ full_E
        dense = np.trace(rho_full @ np.diag(np.exp(phase))
                         @ U.conj().T @ np.diag(np.exp(-phase)) @ U)
        chi = characteristic_function(fv32, rho_probe, kap, t)
        assert abs(chi - dense) <= 1e-10


def test_tpm_distribution_consistent_with_chi(fv32, rho_probe):
    t = 4.0
    dist = tpm_distribution(fv32, rho_probe, t)
    assert np.all(dist.probabilities > 0)
    assert dist.total() == pytest.approx(1.0, abs=1e-10)
    for kap in (np.array([0.3, -0.2]), np.array([0.0, 1.0]),
                np.array([0.5j, 0.2 - 0.4j])):
        chi = characteristic_function(fv32, rho_probe, kap, t)
        assert abs(dist.laplace(kap) - chi) <= 1e-10
    # Fourier transform of a probability measure has modulus at most 1
    for theta in ([0.7, -1.3], [2.0, 0.0], [0.3, 0.3]):
        chi = characteristic_function(fv32, rho_probe,
                                      1j * np.asarray(theta), t)
        assert abs(chi) <= 1.0 + 1e-12


def test_tpm_support_is_energy_lattice(fv32, rho_probe):
    # every atom is a difference of two reservoir-energy configurations
    dist = tpm_distribution(fv32, rho_probe, 4.0)
    diffs = (fv32.reservoir_energy[:, :, None]
             - fv32.reservoir_energy[:, None, :]).reshape(2, -1).T
    for y in dist.support:
        assert np.min(np.abs(diffs - y).max(axis=1)) <= 1e-8


def test_chi_permutation_equivariance(qubit_model, rho_probe):
    # relabeling the reservoirs and permuting kappa the same way is a no-op
    model = qubit_model.with_lam(0.3)
    swapped = make_model(EQ, list(model.reservoirs[::-1]), lam=0.3)
    kap = np.array([0.4, -0.1])
    chis = []
    for m, k in ((model, kap), (swapped, kap[::-1])):
        modes = [resonant_modes(m.system, r, 2, 0.35, n_max=1)
                 for r in m.reservoirs]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            fv = assemble(m, modes)
        chis.append(characteristic_function(fv, rho_probe, k, 4.0))
    assert abs(chis[0] - chis[1]) <= 1e-10


def test_chi_guards(fv32, rho_probe):
    with pytest.raises(OverflowGuard):
        characteristic_function(fv32, rho_probe, np.array([400.0, 0.0]), 4.0)
    with pytest.raises(ConfigError):
        characteristic_function(fv32, rho_probe, np.array([0.1, 0.2, 0.3]), 4.0)
    bad_trace = np.diag([0.6, 0.6])
    with pytest.raises(ConfigError):
        characteristic_function(fv32, bad_trace, np.array([0.1, 0.0]), 4.0)
    not_herm = np.array([[0.5, 0.3], [0.0, 0.5]])
    with pytest.raises(ConfigError):
        characteristic_function(fv32, not_herm, np.array([0.1, 0.0]), 4.0)
    not_psd = np.diag([1.4, -0.4])
    with pytest.raises(ConfigError):
        tpm_distribution(fv32, not_psd, 4.0)


def test_q_cache_does_not_trust_hash(qubit_model, monkeypatch):
    """Two states whose hashes collide still get their own Q matrix."""
    def instance():
        model = qubit_model.with_lam(0.3)
        modes = [resonant_modes(model.system, r, 2, 0.35, n_max=1)
                 for r in model.reservoirs]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            return assemble(model, modes)

    kap, t = np.array([0.4, -0.2]), 4.0
    up, down = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    want = characteristic_function(instance(), down, kap, t)
    monkeypatch.setattr(fcslab.finite_volume, "hash", lambda _: 0,
                        raising=False)
    fv = instance()
    characteristic_function(fv, up, kap, t)
    assert characteristic_function(fv, down, kap, t) == want


def _pin_blas(monkeypatch, cores, **env):
    """Pretend to run on `cores` cores with the given BLAS variables."""
    monkeypatch.setattr(fcslab.finite_volume.os, "sched_getaffinity",
                        lambda pid: set(range(cores)))
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)


def test_threaded_blocks_match_serial_bit_for_bit(fv32, monkeypatch):
    """The parity blocks give the same bits on separate cores as in turn,
    for the eigendecompositions and for every propagator block.  fv32's
    16x16 blocks stay below OpenBLAS's own threading thresholds, so this
    holds whatever thread count BLAS itself runs."""
    built = []

    class CountingPool(fcslab.finite_volume.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs)
            super().__init__(*args, **kwargs)

    def fresh():
        return dataclasses.replace(fv32, _eig=None, _prop={}, _qbasis={})

    _pin_blas(monkeypatch, 2, OPENBLAS_NUM_THREADS="2")
    serial = fresh()
    serial_props = [serial.propagator(t) for t in (1.5, 4.0)]
    assert len(serial._eig_data()) >= 2

    monkeypatch.setattr(fcslab.finite_volume, "ThreadPoolExecutor",
                        CountingPool)
    _pin_blas(monkeypatch, 2, OPENBLAS_NUM_THREADS="1")
    threaded = fresh()
    threaded_props = [threaded.propagator(t) for t in (1.5, 4.0)]
    # one pool for the eigendecompositions and one for each time's
    # propagator blocks; the calling thread takes the first block of each
    assert built == [{"max_workers": 1}] * 3
    for (i0, e0, v0), (i1, e1, v1) in zip(serial._eig_data(),
                                          threaded._eig_data()):
        assert np.array_equal(i0, i1)
        assert np.array_equal(e0, e1)
        assert np.array_equal(v0, v1)
    for blocks0, blocks1 in zip(serial_props, threaded_props):
        assert len(blocks0) == len(blocks1) >= 2
        for (i0, u0), (i1, u1) in zip(blocks0, blocks1):
            assert np.array_equal(i0, i1)
            assert np.array_equal(u0, u1)


@pytest.mark.parametrize("cores, env, workers", [
    (2, {}, 0),                                   # BLAS takes every core
    (2, {"OPENBLAS_NUM_THREADS": "2"}, 0),
    (2, {"OPENBLAS_NUM_THREADS": "4"}, 0),
    (1, {"OPENBLAS_NUM_THREADS": "1"}, 0),
    (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 0),
    (2, {"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 0),
    (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
    (2, {"GOTO_NUM_THREADS": "1"}, 2),
    (2, {"OMP_NUM_THREADS": "1"}, 2),
    (8, {"OPENBLAS_NUM_THREADS": "2"}, 0),        # idle cores, threaded BLAS
    (16, {"OPENBLAS_NUM_THREADS": "1"}, 3),       # capped by the items
])
def test_block_map_threads_only_with_one_blas_thread(monkeypatch, cores, env,
                                                     workers):
    """No pool is built unless BLAS runs one thread and there are at least
    two cores; OpenBLAS's variables are read in OpenBLAS's own order.  The
    calling thread is one of the `workers`."""
    built = []

    class RecordingPool(fcslab.finite_volume.ThreadPoolExecutor):
        def __init__(self, max_workers):
            built.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(fcslab.finite_volume, "ThreadPoolExecutor",
                        RecordingPool)
    _pin_blas(monkeypatch, cores, **env)
    out = fcslab.finite_volume._block_map(lambda x: 2 * x, [1, 2, 3])
    assert out == [2, 4, 6]
    assert built == ([workers - 1] if workers else [])


def test_chi_for_random_states(fv32):
    rng = np.random.default_rng(4041)
    t = 3.0
    kap = np.array([0.5, 0.1])
    for _ in range(4):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        dist = tpm_distribution(fv32, rho, t)
        assert dist.total() == pytest.approx(1.0, abs=1e-10)
        chi = characteristic_function(fv32, rho, kap, t)
        assert abs(dist.laplace(kap) - chi) <= 1e-10
        assert chi.real > 0


def test_second_order_oracle_matches_chi(qubit_model):
    # at lam = 0.003 the exact chi - 1 is its O(lam^2) term to ~lam^2 t;
    # the closed form of that term must agree at short and long times
    lam = 0.003
    solver = ScgfSolver(qubit_model)
    kappas = [np.array(k) for k in
              ((0.2, 0.0), (0.4, 0.0), (0.8, 0.0), (0.1, 0.05), (0.0, 0.3))]
    for t in (5.0, 25.0):
        modes = [resonant_modes(qubit_model.system, r, 3, 0.8 * np.pi / t,
                                n_max=2) for r in qubit_model.reservoirs]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            fv = assemble(qubit_model.with_lam(lam), modes)
        for kap in kappas:
            left = solver.leading(kap).left_eigvec
            rho = left / np.trace(left)
            exact = (characteristic_function(fv, rho, kap, t).real - 1.0) \
                / (lam * lam * t)
            f2 = qubit_second_order_rate(modes, rho, kap, t)
            assert abs(exact - f2) <= 1e-2 * abs(f2), (t, kap, exact, f2)
    with pytest.raises(ValueError):
        qubit_second_order_rate(modes, np.full((2, 2), 0.5), kappas[0], 5.0)


# ---------------------------------------------------------------------------
# weak-coupling comparison
# ---------------------------------------------------------------------------

def test_weak_coupling_table_structure(qubit_model):
    kappas = [np.array([0.3, 0.0]), np.array([0.0, 0.6])]
    tab = weak_coupling_compare(qubit_model, kappas, lams=[0.0, 0.35],
                                n_modes=2, n_max=1)
    assert tab.lams() == [0.0, 0.35]
    assert np.all(tab.deviations(0.0) == 0.0)
    devs = tab.deviations(0.35)
    assert devs.shape == (2,)
    assert np.all(np.isfinite(devs)) and np.all(devs >= 0)
    assert tab.median_deviation(0.35) == pytest.approx(np.median(devs))
    row = tab.rows[2]
    assert row.t == pytest.approx(1.0 / 0.35 ** 2)
    # the comparison column is the closed-form physical cumulant rate
    assert row.f_fgr == pytest.approx(
        qubit_scgf_physical(np.array([0.3, 0.0]), 0.35), rel=1e-9)
    assert row.chi > 0
    assert all(r.gibbs_tail == 0.0 and r.horizon_fraction == 0.0
               for r in tab.rows[:2])
    assert 0.0 < row.gibbs_tail < 1.0
    assert row.horizon_fraction == pytest.approx(0.8, rel=1e-9)


def test_weak_coupling_rows_record_truncation_margins(qubit_model):
    # the pinned criterion-07 family at lambda = 0.2: t sits on the
    # recurrence horizon and the hot-bath tail beyond n_max = 2 is ~e^-3
    tab = weak_coupling_compare(qubit_model, [np.array([0.25, 0.5])],
                                lams=[0.2], n_modes=3, n_max=2,
                                spacing_margin=1.0)
    row = tab.rows[0]
    assert row.gibbs_tail == pytest.approx(0.0726, abs=1e-3)
    assert abs(row.horizon_fraction - 1.0) <= 1e-9


def test_weak_coupling_recurrence_guard(qubit_model):
    with pytest.raises(RecurrenceHorizonExceeded):
        weak_coupling_compare(qubit_model, [np.array([0.3, 0.0])],
                              lams=[0.35], n_modes=2, n_max=1,
                              spacing_margin=1.2)


def test_weak_coupling_mixed_state_rule(qubit_model):
    tab = weak_coupling_compare(qubit_model, [np.array([0.3, 0.0])],
                                lams=[0.35], n_modes=2, n_max=1,
                                rho_rule="mixed")
    assert len(tab.rows) == 1 and np.isfinite(tab.rows[0].deviation)
    with pytest.raises(ConfigError):
        weak_coupling_compare(qubit_model, [np.array([0.3, 0.0])],
                              lams=[0.35], n_modes=2, n_max=1,
                              rho_rule="bogus")
