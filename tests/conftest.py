"""Shared fixtures: the reference qubit and seeded random model fleets."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# every property test draws the same examples on every run: no random
# seeding, no example database carried between runs
settings.register_profile("fcslab", derandomize=True, database=None,
                          max_examples=60, deadline=None)
settings.load_profile("fcslab")

from fcslab import (
    ReservoirSpec,
    SpectralDensity,
    build_system,
    make_model,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def canonical_reservoirs():
    dens = SpectralDensity(form="ohmic",
                           params={"gamma": 0.5, "exponent": 1.0, "cutoff": 5.0})
    return [
        ReservoirSpec(label="hot", beta=1.0, coupling=SIGMA_X, density=dens),
        ReservoirSpec(label="cold", beta=2.0, coupling=SIGMA_X, density=dens),
    ]


@pytest.fixture(scope="session")
def qubit_model():
    return make_model(np.diag([0.5, -0.5]), canonical_reservoirs(), lam=0.1)


@pytest.fixture(scope="session")
def qubit_system():
    return build_system(np.diag([0.5, -0.5]))


# ---------------------------------------------------------------------------
# random fleets
# ---------------------------------------------------------------------------

def random_hermitian(rng, d, real=False):
    a = rng.normal(size=(d, d))
    if not real:
        a = a + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def random_density(rng, kind=None):
    kind = rng.integers(0, 3) if kind is None else kind
    if kind == 0:
        return SpectralDensity(form="ohmic", params={
            "gamma": float(rng.uniform(0.2, 1.0)),
            "exponent": float(rng.choice([1.0, 2.0])),
            "cutoff": float(rng.uniform(2.0, 8.0))})
    if kind == 1:
        return SpectralDensity(form="flat", params={
            "height": float(rng.uniform(0.2, 1.0)),
            "omega_min": float(rng.uniform(0.02, 0.1)),
            "omega_max": float(rng.uniform(4.0, 9.0))})
    w = np.linspace(0.0, float(rng.uniform(5.0, 9.0)), 24)
    v = rng.uniform(0.1, 1.0, size=24)
    v[0] = 0.0
    return SpectralDensity(form="table", table_omega=w, table_value=v)


def random_model(rng, d=None, n_res=None, real=False, form=None):
    """One random well-separated model; resamples until level spacings and
    Bohr gaps are comfortable.  `form` (0 ohmic, 1 flat, 2 table) fixes the
    density form of every reservoir instead of drawing it."""
    d = d or int(rng.integers(2, 5))
    n_res = n_res or int(rng.integers(1, 4))
    for _ in range(200):
        e = random_hermitian(rng, d, real=real)
        evals = np.linalg.eigvalsh(e)
        diffs = evals[:, None] - evals[None, :]
        flat = np.sort(np.unique(np.round(diffs, 12)))
        if len(evals) == d and np.min(np.diff(evals)) > 0.15:
            gaps = np.diff(flat)
            if len(gaps) == 0 or np.min(gaps) > 0.1:
                break
    else:
        raise RuntimeError("could not sample a well-separated Hamiltonian")
    reservoirs = []
    for k in range(n_res):
        coupling = random_hermitian(rng, d, real=real)
        coupling = coupling / max(1.0, np.abs(coupling).max())
        reservoirs.append(ReservoirSpec(
            label=f"r{k}", beta=float(rng.uniform(0.5, 3.0)),
            coupling=coupling, density=random_density(rng, form)))
    return make_model(e, reservoirs, lam=float(rng.uniform(0.05, 0.3)))


def model_fleet(n, seed, **kw):
    rng = np.random.default_rng(seed)
    return [random_model(rng, **kw) for _ in range(n)]
