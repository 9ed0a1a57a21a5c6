"""YAML configuration loading, validation, and serialization round trips."""

import numpy as np
import pytest
import yaml

from fcslab import (
    QuadratureParams,
    assemble,
    build_deformed_lindblad,
    build_from_dict,
    density_from_config,
    dump_config,
    effective_density,
    instance_to_dict,
    load_config,
    make_model,
    model_to_dict,
    principal_value,
    resonant_modes,
)
from fcslab.config import canonical_hash, matrix_to_pairs
from fcslab.errors import ConfigError

from conftest import canonical_reservoirs


def make_tree(model):
    return model_to_dict(model)


def test_roundtrip_preserves_generator(qubit_model):
    tree = model_to_dict(qubit_model)
    cfg = build_from_dict(tree)
    model = cfg.model
    assert model.system.dim == 2
    assert model.lam == qubit_model.lam
    np.testing.assert_allclose(model.system.hamiltonian,
                               qubit_model.system.hamiltonian)
    kappa = np.array([0.37, -0.11])
    a = build_deformed_lindblad(qubit_model, kappa).heisenberg
    b = build_deformed_lindblad(model, kappa).heisenberg
    np.testing.assert_allclose(a, b, atol=1e-14)


def test_roundtrip_random_models():
    rng = np.random.default_rng(91)
    from conftest import random_model
    for _ in range(4):
        original = random_model(rng, d=3)
        rebuilt = build_from_dict(model_to_dict(original)).model
        kappa = rng.normal(scale=0.1, size=original.n_reservoirs)
        a = build_deformed_lindblad(original, kappa).heisenberg
        b = build_deformed_lindblad(rebuilt, kappa).heisenberg
        np.testing.assert_allclose(a, b, atol=1e-13 * np.abs(a).max())


def test_roundtrip_keeps_quadrature(tmp_path):
    quadrature = {"nodes": 16, "window": 0.5}
    original = make_model(np.diag([0.5, -0.5]), canonical_reservoirs(),
                          lam=0.1, quadrature=quadrature)
    dump_config(model_to_dict(original), tmp_path / "q.yaml")
    for rebuilt in (build_from_dict(model_to_dict(original)).model,
                    load_config(tmp_path / "q.yaml").model):
        assert rebuilt.quadrature == quadrature
        quad = QuadratureParams.from_mapping(rebuilt.quadrature)
        for res in original.reservoirs:
            dens = effective_density(res)
            for omega in original.system.bohr_frequencies:
                assert principal_value(dens, omega, quad) == principal_value(
                    dens, omega, QuadratureParams(**quadrature))
        assert np.array_equal(
            build_deformed_lindblad(rebuilt, np.zeros(2)).upsilon,
            build_deformed_lindblad(original, np.zeros(2)).upsilon)


def test_dump_writes_numpy_quadrature_as_plain_scalars(tmp_path):
    """Quadrature values given as numpy scalars are dumped as the Python
    scalars YAML can represent and reload to the same principal values."""
    original = make_model(np.diag([0.5, -0.5]), canonical_reservoirs(),
                          lam=0.1, quadrature={"nodes": np.int64(16),
                                               "window": np.float64(0.5)})
    dump_config(model_to_dict(original), tmp_path / "q.yaml")
    rebuilt = load_config(tmp_path / "q.yaml").model
    assert rebuilt.quadrature == {"nodes": 16, "window": 0.5}
    assert all(type(v) in (int, float) for v in rebuilt.quadrature.values())
    quad = QuadratureParams.from_mapping(rebuilt.quadrature)
    quad0 = QuadratureParams.from_mapping(original.quadrature)
    for res in original.reservoirs:
        dens = effective_density(res)
        for omega in original.system.bohr_frequencies:
            assert principal_value(dens, omega, quad) == \
                principal_value(dens, omega, quad0)


def test_unknown_keys_are_named(qubit_model):
    for mutate, needle in [
            (lambda t: t["system"].__setitem__("frob", 1), "system.frob"),
            (lambda t: t["reservoirs"][1].__setitem__("densty", {}),
             "reservoirs[1].densty"),
            (lambda t: t["run"].__setitem__("lamda", 0.2), "run.lamda"),
            (lambda t: t.__setitem__("extra", {}), "extra"),
    ]:
        tree = model_to_dict(qubit_model)
        mutate(tree)
        with pytest.raises(ConfigError, match=needle.replace("[", r"\[")):
            build_from_dict(tree)


def test_old_run_keys_load_their_one_value(qubit_model, tmp_path):
    """Instance files of earlier versions carry run.variant: secular and
    run.lamb_shift: true, the form the library builds; they load to the
    same model and generator."""
    tree = model_to_dict(qubit_model)
    legacy = model_to_dict(qubit_model)
    legacy["run"].update(variant="secular", lamb_shift=True)
    path = tmp_path / "legacy.yaml"
    dump_config(legacy, path)
    assert "variant: secular\n  lamb_shift: true\n" in path.read_text()
    model = load_config(path).model
    assert model_to_dict(model) == tree
    kappa = np.array([0.37, -0.11])
    assert np.array_equal(build_deformed_lindblad(model, kappa).heisenberg,
                          build_deformed_lindblad(qubit_model,
                                                  kappa).heisenberg)


@pytest.mark.parametrize("key, value", [
    ("variant", "diagonal"), ("variant", "Secular"), ("variant", True),
    ("lamb_shift", False), ("lamb_shift", 1), ("lamb_shift", "true"),
    ("lamb_shift", None),
])
def test_old_run_keys_refuse_other_values(qubit_model, tmp_path, key, value):
    tree = model_to_dict(qubit_model)
    tree["run"][key] = value
    path = tmp_path / "bad.yaml"
    dump_config(tree, path)
    with pytest.raises(ConfigError, match=rf"run\.{key}"):
        load_config(path)


def test_malformed_matrices_rejected(qubit_model):
    tree = model_to_dict(qubit_model)
    tree["system"]["hamiltonian"] = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ConfigError, match="square"):
        build_from_dict(tree)
    tree = model_to_dict(qubit_model)
    tree["system"]["hamiltonian"][0] = [0.5]
    with pytest.raises(ConfigError, match="re, im"):
        build_from_dict(tree)


def test_missing_sections_rejected(qubit_model):
    tree = model_to_dict(qubit_model)
    del tree["reservoirs"]
    with pytest.raises(ConfigError, match="reservoirs"):
        build_from_dict(tree)
    tree = model_to_dict(qubit_model)
    del tree["reservoirs"][0]["beta"]
    with pytest.raises(ConfigError, match="beta"):
        build_from_dict(tree)


def test_bad_density_form_names_reservoir(qubit_model):
    tree = model_to_dict(qubit_model)
    tree["reservoirs"][0]["density"]["form"] = "warbly"
    with pytest.raises(ConfigError, match=r"reservoirs\[0\].density"):
        build_from_dict(tree)


def test_density_forms_roundtrip():
    omega = np.linspace(0.1, 3.0, 7)
    configs = [
        {"form": "ohmic", "gamma": 0.4, "exponent": 2.0, "cutoff": 3.0},
        {"form": "gaussian", "gamma": 0.7, "exponent": 1.0, "cutoff": 2.0},
        {"form": "flat", "height": 0.3, "omega_min": 0.05, "omega_max": 4.0},
        {"form": "table", "omega": [0.1, 1.0, 2.0, 4.0],
         "value": [0.2, 0.5, 0.4, 0.1]},
    ]
    for cfg in configs:
        density = density_from_config(cfg)
        again = density_from_config(density.config_dict())
        np.testing.assert_allclose(density(omega), again(omega), rtol=1e-14)


def test_file_loading_and_hash(tmp_path, qubit_model):
    path = tmp_path / "model.yaml"
    dump_config(model_to_dict(qubit_model), path)
    cfg = load_config(path)
    assert cfg.model.system.dim == 2
    assert len(cfg.config_hash) == 16
    assert cfg.config_hash == load_config(path).config_hash
    path2 = tmp_path / "copy.yaml"
    path2.write_bytes(path.read_bytes())
    assert load_config(path2).config_hash == cfg.config_hash
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.yaml")
    bad = tmp_path / "broken.yaml"
    bad.write_text("system: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(bad)


@pytest.mark.filterwarnings("ignore::fcslab.errors.TruncationWarning")
def test_pinned_modes_reproduce_instance(tmp_path, qubit_model):
    spacing = 0.8 * np.pi / 5.0
    modes = [resonant_modes(qubit_model.system, res, 2, spacing, n_max=1)
             for res in qubit_model.reservoirs]
    fv = assemble(qubit_model, modes)
    tree = instance_to_dict(qubit_model, modes)
    path = tmp_path / "instance.yaml"
    dump_config(tree, path)
    cfg = load_config(path)
    assert cfg.modes is not None
    fv2 = assemble(cfg.model, cfg.modes)
    assert fv2.dim == fv.dim
    np.testing.assert_allclose(fv2.hamiltonian.toarray(),
                               fv.hamiltonian.toarray(), atol=1e-14)
    for a, b in zip(modes, cfg.modes):
        np.testing.assert_allclose(a.frequencies, b.frequencies, rtol=1e-15)
        np.testing.assert_allclose(a.couplings, b.couplings, rtol=1e-15)
        assert a.n_max == b.n_max


def test_modes_section_validation(tmp_path, qubit_model):
    spacing = 0.5
    modes = [resonant_modes(qubit_model.system, res, 2, spacing, n_max=1)
             for res in qubit_model.reservoirs]
    tree = instance_to_dict(qubit_model, modes)
    tree["modes"][0]["label"] = "tepid"
    with pytest.raises(ConfigError, match="label"):
        build_from_dict(tree)
    tree = instance_to_dict(qubit_model, modes)
    tree["modes"][1]["couplings"] = tree["modes"][1]["couplings"][:-1]
    with pytest.raises(ConfigError, match="length"):
        build_from_dict(tree)
    for n_occ in (2.7, True):
        tree = instance_to_dict(qubit_model, modes)
        tree["modes"][0]["n_occ"] = n_occ
        with pytest.raises(ConfigError, match=r"modes\[0\]: .*integer"):
            build_from_dict(tree)
    for bad, needle in (("abc", "numbers"), (None, "positive")):
        tree = instance_to_dict(qubit_model, modes)
        tree["modes"][1]["frequencies"][0] = bad
        with pytest.raises(ConfigError, match=r"modes\[1\]: .*" + needle):
            build_from_dict(tree)
    for bad in (None, float("nan"), float("inf")):
        tree = instance_to_dict(qubit_model, modes)
        tree["modes"][0]["couplings"][0] = bad
        with pytest.raises(ConfigError, match=r"modes\[0\]: .*finite"):
            build_from_dict(tree)
    tree = instance_to_dict(qubit_model, modes)
    tree["modes"][1]["frequencies"][1] = float("inf")
    with pytest.raises(ConfigError, match=r"modes\[1\]: .*finite"):
        build_from_dict(tree)
    tree = instance_to_dict(qubit_model, modes)
    del tree["modes"][0]
    with pytest.raises(ConfigError, match="one entry per reservoir"):
        build_from_dict(tree)


def test_non_finite_zero_frequency_rejected(qubit_model):
    for bad in (float("nan"), float("inf"), -0.5):
        tree = model_to_dict(qubit_model)
        tree["reservoirs"][0]["zero_frequency"] = bad
        with pytest.raises(ConfigError, match="zero_frequency"):
            build_from_dict(tree)
    tree = model_to_dict(qubit_model)
    tree["reservoirs"][0]["zero_frequency"] = 0.25
    model = build_from_dict(tree).model
    assert model.reservoirs[0].zero_frequency == 0.25


def test_canonical_hash_is_content_addressed(qubit_model):
    tree = model_to_dict(qubit_model)
    h1 = canonical_hash(tree)
    h2 = canonical_hash(model_to_dict(qubit_model))
    assert h1 == h2
    tree["run"]["lambda"] = 0.2
    assert canonical_hash(tree) != h1


def test_matrix_pairs_roundtrip():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    pairs = matrix_to_pairs(m)
    assert len(pairs) == 9 and all(len(p) == 2 for p in pairs)
    from fcslab.config import _matrix
    back = _matrix(pairs, "x")
    np.testing.assert_allclose(back, m, rtol=1e-16)
