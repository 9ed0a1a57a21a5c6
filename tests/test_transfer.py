"""Transfer-operator construction: polymer blocks, lattice deformation,
leading eigenvalue, and agreement with the perturbative generating function.

The small dim-32 instance (one mode per reservoir) exercises the algebraic
identities cheaply; the dim-1458 instance is the calibrated weak-coupling
configuration whose spectral outputs are frozen as regression values.
"""

import numpy as np
import pytest

import oracles
from conftest import canonical_reservoirs

from fcslab import (
    CompressedDynamics,
    PolymerBlocks,
    build_and_deform,
    characteristic_function,
    compressed_map,
    compressed_step,
    extract_blocks,
    make_model,
    transfer_instance,
    unvec,
    vec,
)
from fcslab.errors import (
    ConfigError,
    DeformationTooWeak,
    RecurrenceHorizonExceeded,
)
from fcslab.finite_volume import assemble, resonant_modes
from fcslab.scgf import ScgfSolver
from fcslab.transfer import _counting_phase, _sandwich

KAPPA = np.array([0.4, 0.0])

# regression values for the dim-32 instance (lam 0.3, tau 0.5, 4 blocks)
NORMS_32 = np.array([1.0201098081755355, 0.39884105627883665,
                     0.10541924141856572, 0.24013501816884905])
C_HAT_32 = 0.50019954731056981
MU_32 = 1.0308323573781693

# regression values for the calibrated dim-1458 instance (lam 0.2, tau 0.2)
NORMS_1458 = np.array([1.0462835433328421, 0.15923138154884853])
MU_1458 = 1.0294864459167949
F_TRANSFER_1458 = 0.0058120163407683638


@pytest.fixture(scope="module")
def qubit():
    return make_model(np.diag([0.5, -0.5]), canonical_reservoirs(), lam=0.1)


@pytest.fixture(scope="module")
def fv32(qubit):
    return transfer_instance(qubit, lam=0.3, tau=0.5, n_blocks=4,
                             n_modes=1, n_occ=3)


@pytest.fixture(scope="module")
def blocks32(fv32):
    """Blocks from the literal insertion chain, not the package recursion."""
    cd = compressed_step(fv32, KAPPA, 0.5)
    blocks = oracles.insertion_blocks(fv32, KAPPA, cd.t_phys, n_max=4)
    return PolymerBlocks(cd, blocks)


@pytest.fixture(scope="module")
def op32(blocks32):
    return build_and_deform(blocks32)


@pytest.fixture(scope="module")
def fv1458(qubit):
    return transfer_instance(qubit, lam=0.2, tau=0.2, n_blocks=2,
                             n_modes=3, n_occ=2, spacing_margin=1.0)


@pytest.fixture(scope="module")
def blocks1458(fv1458):
    return extract_blocks(compressed_step(fv1458, KAPPA, 0.2), n_max=2)


# ---------------------------------------------------------------------------
# compressed dynamics
# ---------------------------------------------------------------------------

def test_zero_time_is_identity(fv32):
    c = compressed_map(fv32, KAPPA, 0.0)
    assert np.array_equal(c, np.eye(4))


def test_sandwich_in_place_is_bit_identical(fv32):
    """Scaling the columns in place forms the same products in the same
    order as the out-of-place B = Gamma U Gamma."""
    for kappa, t in ((KAPPA, 0.5 / 0.09), (np.array([-0.3, 1.1]), 2.0)):
        want = (_counting_phase(fv32, kappa / 2)[:, None] * fv32.propagator(t)
                * _counting_phase(fv32, -kappa / 2)[None, :])
        assert np.array_equal(_sandwich(fv32, kappa, t), want)


def test_kappa_shape_checked(fv32):
    with pytest.raises(ConfigError):
        compressed_map(fv32, np.array([0.4]), 1.0)


def test_undeformed_map_preserves_trace(fv32):
    cd = compressed_step(fv32, np.zeros(2), 0.5)
    left = vec(np.eye(2)).conj()
    assert np.linalg.norm(left @ cd.matrix - left) < 1e-12


def test_single_block_matches_characteristic_function(fv32):
    """Trace of the compressed one-step map acting on rho equals the
    deformed characteristic function computed in full space."""
    cd = compressed_step(fv32, KAPPA, 0.5)
    rho = np.diag([0.7, 0.3]).astype(complex)
    chi_direct = characteristic_function(fv32, rho, KAPPA, cd.t_phys)
    chi_compressed = np.trace(unvec(cd.matrix @ vec(rho)))
    assert abs(chi_compressed - chi_direct) < 1e-12 * abs(chi_direct)


@pytest.mark.filterwarnings("ignore::fcslab.errors.TruncationWarning")
def test_zero_coupling_is_memoryless_unitary_conjugation(qubit):
    """At lambda = 0 the compressed map is exactly conjugation by the free
    system propagator, for any kappa, and composes without memory."""
    spacing = 0.8 * np.pi / 20.0
    modes = [resonant_modes(qubit.system, res, 1, spacing, 2)
             for res in qubit.reservoirs]
    fv0 = assemble(qubit.with_lam(0.0), modes)
    t = 2.7
    c1 = compressed_map(fv0, KAPPA, t)
    u = np.diag(np.exp(-1j * np.array([0.5, -0.5]) * t))
    assert np.linalg.norm(c1 - np.kron(u.conj(), u)) < 1e-13
    c2 = compressed_map(fv0, KAPPA, 2 * t)
    assert np.linalg.norm(c2 - c1 @ c1) < 1e-13


def test_lambda_and_block_time_guards(fv32, qubit):
    with pytest.raises(ConfigError):
        compressed_step(fv32, KAPPA, 0.5, lam=0.2)
    with pytest.raises(ConfigError):
        compressed_step(fv32, KAPPA, -1.0)
    with pytest.raises(ConfigError):
        transfer_instance(qubit, lam=0.0)


# ---------------------------------------------------------------------------
# polymer blocks
# ---------------------------------------------------------------------------

def test_extraction_routes_agree(fv32, blocks32):
    """The telescoping recursion reproduces the literal insertion chain."""
    cd = compressed_step(fv32, KAPPA, 0.5)
    rec = extract_blocks(cd, n_max=4)
    for w_rec, w_ins in zip(rec.blocks, blocks32.blocks):
        assert np.linalg.norm(w_rec - w_ins, 2) < 1e-12 * np.linalg.norm(
            w_ins, 2)


def test_composition_identity(blocks32):
    """Sum over ordered compositions of W products rebuilds the directly
    computed m-step compressed map.  Insertion-route blocks keep this an
    independent identity rather than a restatement of the recursion."""
    for m in (1, 2, 3, 4):
        assert oracles.composition_residual(blocks32, m) < 1e-8


def test_block_norms_and_fit_frozen(blocks32, blocks1458):
    assert np.allclose(blocks32.norms, NORMS_32, rtol=1e-9)
    assert abs(blocks32.c_hat - C_HAT_32) < 1e-9
    assert np.allclose(blocks1458.norms, NORMS_1458, rtol=1e-9)
    # single-block leakage is small in the calibrated weak-coupling setup
    assert blocks1458.norms[1] < 0.2 * blocks1458.norms[0]


def test_horizon_guard(qubit):
    fv = transfer_instance(qubit, lam=0.3, tau=0.5, n_blocks=2,
                           n_modes=2, n_occ=1)
    cd = compressed_step(fv, KAPPA, 0.5)
    with pytest.raises(RecurrenceHorizonExceeded):
        extract_blocks(cd, n_max=5)


# ---------------------------------------------------------------------------
# transfer operator
# ---------------------------------------------------------------------------

def test_leading_eigenvalue_frozen(op32):
    assert abs(op32.leading.imag) < 1e-10
    assert abs(op32.leading.real - MU_32) < 1e-9
    assert op32.psd_margin > 0.0


def test_compression_identity(op32):
    """Site-1 corner of T^m (undeformed) is the m-step compressed map."""
    for m in (1, 2, 3, 4):
        assert op32.compression_residual(m) < 1e-8


def test_secular_equation(blocks32, op32):
    scale = np.linalg.norm(blocks32.norms)
    assert oracles.secular_residual(blocks32, op32.leading) < 1e-10 * scale
    assert oracles.secular_residual(blocks32, 1.2 * op32.leading) > 1e-3


def test_delta_independence(blocks1458):
    """The isolated eigenvalue does not move under the similarity."""
    base = build_and_deform(blocks1458)
    for shift in (-0.15, 0.15):
        alt = build_and_deform(blocks1458, delta=base.delta + shift)
        assert abs(alt.leading - base.leading) < 1e-10 * abs(base.leading)


def test_lattice_truncation_converged(blocks1458):
    base = build_and_deform(blocks1458)
    wide = build_and_deform(blocks1458, n_block=8)
    assert abs(wide.leading - base.leading) < 1e-8 * abs(base.leading)


def test_kappa_zero_spectral_exactness(fv32):
    """mu = 1 solves the secular equation exactly at kappa = 0 (trace
    preservation collapses all memory blocks on the left), and the extracted
    generating rate vanishes."""
    cd = compressed_step(fv32, np.zeros(2), 0.5)
    blocks = extract_blocks(cd, n_max=4)
    assert oracles.secular_residual(blocks, 1.0) < 1e-12
    op = build_and_deform(blocks)
    assert abs(op.f_transfer) < 1e-10


def test_m_step_rates_formula(blocks32, op32):
    rates = dict(oracles.m_step_rates(op32, ms=[1, 3]))
    for m in (1, 3):
        tr = np.trace(blocks32.cd.multi_step(m))
        assert abs(rates[m] - np.log(abs(tr)) / (m * 0.5)) < 1e-12


@pytest.mark.filterwarnings("ignore::fcslab.errors.TruncationWarning")
def test_zero_coupling_has_no_spectral_gap(qubit):
    """Without damping every compressed eigenvalue sits on the unit circle,
    so the leading one is not isolated and the deformation refuses."""
    spacing = 0.8 * np.pi / 20.0
    modes = [resonant_modes(qubit.system, res, 1, spacing, 2)
             for res in qubit.reservoirs]
    fv0 = assemble(qubit.with_lam(0.0), modes)
    mat = compressed_map(fv0, np.zeros(2), 5.0)
    evals = np.abs(np.linalg.eigvals(mat))
    assert np.allclose(evals, 1.0, atol=1e-12)
    cd = CompressedDynamics(fv=fv0, kappa=np.zeros(2), lam=1.0, tau=5.0,
                            t_phys=5.0, matrix=mat)
    blocks = extract_blocks(cd, n_max=2)
    assert blocks.norms[1] < 1e-12
    with pytest.raises(DeformationTooWeak):
        build_and_deform(blocks, delta=0.0)


# ---------------------------------------------------------------------------
# weak-coupling agreement (calibrated configuration)
# ---------------------------------------------------------------------------

def test_transfer_rate_tracks_generator(qubit, blocks1458):
    """Finite-lambda transfer rate against the perturbative generating
    function on the calibrated instance; the residual gap is the physical
    lambda^2 correction, frozen at calibration time."""
    op = build_and_deform(blocks1458)
    assert abs(op.leading.real - MU_1458) < 1e-9
    assert abs(op.f_transfer - F_TRANSFER_1458) < 1e-11
    f_fgr = 0.2 ** 2 * ScgfSolver(qubit).leading(KAPPA).eigenvalue.real
    assert abs(op.f_transfer - f_fgr) / abs(f_fgr) < 0.3


def test_block_time_halving_consistent(qubit):
    """Halving the block time while extracting to the same physical memory
    horizon leaves the extracted rate nearly unchanged."""
    fv = transfer_instance(qubit, lam=0.2, tau=0.2, n_blocks=4,
                           n_modes=3, n_occ=2, spacing_margin=1.0)
    r_fine = build_and_deform(
        extract_blocks(compressed_step(fv, KAPPA, 0.2), n_max=4)).rate
    r_coarse = build_and_deform(
        extract_blocks(compressed_step(fv, KAPPA, 0.4), n_max=2)).rate
    assert abs(r_fine - r_coarse) < 1e-2 * abs(r_coarse)
