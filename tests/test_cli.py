"""End-to-end command line checks, run in process through cli.main."""

import dataclasses
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fcslab
import fcslab.cli
from fcslab import (
    SpectralDensity,
    dump_config,
    instance_to_dict,
    load_config,
    make_model,
    model_to_dict,
    resonant_modes,
)
from fcslab.cli import main
from fcslab.scgf import ScgfSolver

import oracles
from conftest import canonical_reservoirs


@pytest.fixture(scope="module")
def config_path(tmp_path_factory, qubit_model):
    path = tmp_path_factory.mktemp("cli") / "qubit.yaml"
    dump_config(model_to_dict(qubit_model), path)
    return str(path)


def run(argv, capsys=None):
    rc = main(argv)
    if capsys is None:
        return rc, None
    return rc, capsys.readouterr()


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0].split()[-1], header, rows


def test_validate(config_path, tmp_path, capsys):
    rc, captured = run(["validate", "--config", config_path,
                        "--out", str(tmp_path)], capsys)
    assert rc == 0
    assert "irreducible: True" in captured.out
    payload = json.loads((tmp_path / "validate.json").read_text())
    assert payload["dim"] == 2
    np.testing.assert_allclose(payload["bohr_set"], [-1.0, 0.0, 1.0],
                               atol=1e-12)
    assert payload["fgr_irreducible"] is True
    assert [r["label"] for r in payload["reservoirs"]] == ["hot", "cold"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert payload["manifest"] == manifest["manifest"]
    assert sorted(manifest["outputs"]) == ["validate.json"]


def test_validate_reports_correlation_decay_rate(config_path, tmp_path):
    """The README's ohmic reservoirs have power-law correlation tails (null);
    a gaussian density with exponent 1 decays at 2 pi / beta."""
    rc, _ = run(["validate", "--config", config_path,
                 "--out", str(tmp_path / "ohmic")])
    assert rc == 0
    payload = json.loads((tmp_path / "ohmic" / "validate.json").read_text())
    assert [r["correlation_decay_rate"] for r in payload["reservoirs"]] == \
        [None, None]

    gaussian = SpectralDensity("gaussian", {"gamma": 0.5, "exponent": 1.0,
                                            "cutoff": 2.0})
    model = make_model(np.diag([0.5, -0.5]),
                       [dataclasses.replace(r, density=gaussian)
                        for r in canonical_reservoirs()], lam=0.1)
    path = tmp_path / "gaussian.yaml"
    dump_config(model_to_dict(model), path)
    rc, _ = run(["validate", "--config", str(path),
                 "--out", str(tmp_path / "gaussian")])
    assert rc == 0
    payload = json.loads((tmp_path / "gaussian" / "validate.json")
                         .read_text())
    assert [r["correlation_decay_rate"] for r in payload["reservoirs"]] == \
        [2.0 * np.pi / r.beta for r in model.reservoirs]


def test_unknown_key_exits_2_with_json(tmp_path, capsys, qubit_model):
    tree = model_to_dict(qubit_model)
    tree["run"]["warp"] = 3
    bad = tmp_path / "bad.yaml"
    dump_config(tree, bad)
    rc, captured = run(["validate", "--config", str(bad),
                        "--out", str(tmp_path)], capsys)
    assert rc == 2
    payload = json.loads(captured.err)
    assert payload["error"] == "ConfigError"
    assert "run.warp" in payload["message"]


def test_non_hermitian_coupling_exits_2(tmp_path, capsys, qubit_model):
    """A coupling D != D^* would give all-zero currents from moments while
    fv-tpm couples D a^dagger + D^* a: the config is refused."""
    tree = model_to_dict(qubit_model)
    for entry in tree["reservoirs"]:
        entry["coupling"] = [[0.0, 0.0], [2.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    bad = tmp_path / "bad.yaml"
    dump_config(tree, bad)
    for sub in ("validate", "moments", "fv-tpm"):
        rc, captured = run([sub, "--config", str(bad),
                            "--out", str(tmp_path / sub)], capsys)
        assert rc == 2
        payload = json.loads(captured.err)
        assert payload["error"] == "NonHermitianInput"
        assert "reservoir 'hot' coupling" in payload["message"]


def test_unknown_subcommand_exits_2(config_path, capsys):
    rc, _ = run(["frobnicate", "--config", config_path], capsys)
    assert rc == 2


def test_generator_leading_matches_hand_matrix(config_path, tmp_path):
    rc, _ = run(["generator", "--config", config_path,
                 "--out", str(tmp_path), "--kappa", "0.4,0"])
    assert rc == 0
    payload = json.loads((tmp_path / "generator.json").read_text())
    assert payload["trace_defect_at_zero"] < 1e-12
    expected = oracles.qubit_scgf(np.array([0.4, 0.0]))
    np.testing.assert_allclose(payload["leading"][0], expected, rtol=1e-10)
    assert abs(payload["leading"][1]) < 1e-12
    assert len(payload["matrix"]) == 16


def test_import_leaves_scipy_stats_unloaded():
    src = str(Path(fcslab.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import fcslab, fcslab.cli; "
            "print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


SRC = str(Path(fcslab.__file__).resolve().parent.parent)


def _fresh_last_line(code, *argv):
    """Last stdout line of code run in a fresh interpreter on this src/."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); " + code
    out = subprocess.run([sys.executable, "-c", code, SRC, *argv],
                         check=True, capture_output=True, text=True).stdout
    return out.splitlines()[-1]


def _loaded_after(code, *argv):
    return _fresh_last_line(
        code + "; print(' '.join(sorted(sys.modules)))", *argv).split()


def _scipy(modules):
    return [m for m in modules if m.split(".")[0] == "scipy"]


def test_import_and_light_subcommands_load_no_scipy(config_path, tmp_path):
    """validate and generator run numpy alone, so neither they nor the
    package import pay SciPy's start-up."""
    assert _scipy(_loaded_after("import fcslab, fcslab.cli")) == []
    for sub in ("validate", "generator"):
        loaded = _loaded_after(
            "from fcslab.cli import main; assert main([sys.argv[2], "
            "'--config', sys.argv[3], '--out', sys.argv[4]]) == 0",
            sub, config_path, str(tmp_path / sub))
        assert _scipy(loaded) == []
        assert (tmp_path / sub / "manifest.json").exists()


def test_import_scgf_loads_no_other_route():
    loaded = _loaded_after("import fcslab.scgf")
    assert "scipy.linalg" in loaded
    assert [m for m in loaded
            if m.startswith("scipy.sparse")
            or m in ("fcslab.finite_volume", "fcslab.transfer",
                     "fcslab.trajectories")] == []


def test_public_api_resolves():
    assert [n for n in fcslab.__all__ if not hasattr(fcslab, n)] == []


def test_public_api_under_lazy_loading(monkeypatch):
    namespace = {}
    exec("from fcslab import *", namespace)
    assert [n for n in fcslab.__all__
            if namespace.get(n) is not getattr(fcslab, n)] == []
    assert set(fcslab.__all__) <= set(dir(fcslab))
    # a name is read from its home module on each access, never a stale copy
    monkeypatch.setattr(fcslab.scgf, "rate_function", "patched")
    assert fcslab.rate_function == "patched"
    with pytest.raises(AttributeError):
        fcslab.no_such_name


def test_every_submodule_resolves_lazily():
    names = sorted(m.name for m in pkgutil.iter_modules(fcslab.__path__)
                   if m.name != "__main__")
    assert "finite_volume" in names
    bad = _fresh_last_line(
        "import fcslab; print([n for n in sys.argv[2:] "
        "if n not in dir(fcslab) "
        "or getattr(fcslab, n) is not sys.modules['fcslab.' + n]])", *names)
    assert bad == "[]"
    proc = subprocess.run([sys.executable, "-m", "fcslab", "--version"],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == fcslab.__version__


def test_generator_builds_once(config_path, tmp_path, monkeypatch):
    builds = []
    build = fcslab.cli.build_deformed_lindblad

    def counting(*args, **kwargs):
        builds.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(fcslab.cli, "build_deformed_lindblad", counting)
    rc, _ = run(["generator", "--config", config_path,
                 "--out", str(tmp_path), "--kappa", "0.4,0"])
    assert rc == 0
    assert len(builds) == 1
    # the kappa = 0 dual comes from re-tilting that one build; it matches a
    # separately built kappa = 0 generator to the bit
    model = load_config(config_path).model
    zero = build(model, np.zeros(model.n_reservoirs))
    ones = np.eye(model.system.dim).ravel(order="F")
    payload = json.loads((tmp_path / "generator.json").read_text())
    assert payload["trace_defect_at_zero"] == float(
        np.abs(ones @ zero.dual).max())


def test_trajectories_builds_one_solver(config_path, tmp_path, monkeypatch):
    inits = []
    init = ScgfSolver.__init__

    def counting(self, *args, **kwargs):
        inits.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ScgfSolver, "__init__", counting)
    rc, _ = run(["trajectories", "--config", config_path,
                 "--out", str(tmp_path), "--nsamples", "200", "--jobs", "1"])
    assert rc == 0
    assert len(inits) == 1


def test_scgf_scan_symmetric_endpoints(config_path, tmp_path):
    rc, _ = run(["scgf-scan", "--config", config_path,
                 "--out", str(tmp_path), "--nu", "0:1:0.1"])
    assert rc == 0
    _, header, rows = read_csv(tmp_path / "scgf.csv")
    assert header == ["kappa_hot", "kappa_cold", "f", "gap"]
    assert len(rows) == 11
    f = np.array([float(r[2]) for r in rows])
    assert abs(f[0]) < 1e-14 and abs(f[-1]) < 1e-14
    assert np.all(f[1:-1] < 0)


def test_gc_check_defect_small(config_path, tmp_path):
    rc, _ = run(["gc-check", "--config", config_path,
                 "--out", str(tmp_path), "--nu", "0:1:0.25"])
    assert rc == 0
    payload = json.loads((tmp_path / "gc.json").read_text())
    assert payload["max_defect"] < 1e-12
    _, header, rows = read_csv(tmp_path / "gc.csv")
    assert header == ["nu", "f_forward", "f_mirrored", "defect"]
    assert len(rows) == 5


def test_moments_output(config_path, tmp_path, qubit_model):
    rc, _ = run(["moments", "--config", config_path, "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "moments.json").read_text())
    lam2 = qubit_model.lam ** 2
    np.testing.assert_allclose(
        np.array(payload["mean_currents"]) / lam2,
        [-0.31473532, 0.31473532], atol=1e-7)
    assert payload["entropy_production_rate"] > 0
    cov = np.array(payload["covariance"])
    np.testing.assert_allclose(cov, cov.T, atol=1e-15)


def test_rate_function_zero_at_mean(config_path, tmp_path):
    rc, _ = run(["rate-function", "--config", config_path,
                 "--out", str(tmp_path),
                 "--alpha=-0.0031473531628,0.0031473531628"])
    assert rc == 0
    _, header, rows = read_csv(tmp_path / "rate.csv")
    assert header[:3] == ["alpha_0", "alpha_1", "rate"]
    assert abs(float(rows[0][2])) < 1e-8
    assert rows[0][-1] == "1"           # converged
    assert rows[0][-2] == "0"           # interior minimum


def test_rate_function_without_alpha_exits_2(config_path, tmp_path, capsys):
    rc, captured = run(["rate-function", "--config", config_path,
                        "--out", str(tmp_path)], capsys)
    assert rc == 2
    assert json.loads(captured.err)["error"] == "ConfigError"


@pytest.mark.parametrize("flags", [
    ["--alpha=0.001", "--active", "5"],           # index out of range
    ["--alpha=0.001", "--active=-1"],             # negative index
    ["--alpha=0.001,0.001", "--active", "0,0"],   # repeated reservoir
    ["--alpha=0.001", "--active", "0.5"],         # not an integer
    ["--alpha", "nan,0"],
    ["--alpha", "inf", "--active", "0"],
])
def test_rate_function_bad_input_exits_2(config_path, tmp_path, capsys,
                                         flags):
    rc, captured = run(["rate-function", "--config", config_path,
                        "--out", str(tmp_path)] + flags, capsys)
    assert rc == 2
    assert json.loads(captured.err)["error"] == "ConfigError"


@pytest.mark.parametrize("quadrature", [
    {"foo": 1},                 # unknown key
    {"max_refine": -1},
    {"max_refine": 0},          # one level can never be compared
    {"max_refine": 1.5},
    {"nodes": 2.5},
    {"panels": 3.7},
    {"panels": True},
    {"rel_tol": -1.0},
    {"rel_tol": float("nan")},
    {"window": float("inf")},
])
def test_bad_quadrature_exits_2(qubit_model, tmp_path, capsys, quadrature):
    tree = model_to_dict(qubit_model)
    tree["run"]["quadrature"] = quadrature
    bad = tmp_path / "bad.yaml"
    dump_config(tree, bad)
    rc, captured = run(["moments", "--config", str(bad),
                        "--out", str(tmp_path)], capsys)
    assert rc == 2
    payload = json.loads(captured.err)
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith("run.quadrature: ")


@pytest.mark.parametrize("mutate, key", [
    (lambda t: t["reservoirs"][0].__setitem__("beta", "abc"),
     "reservoirs[0].beta"),
    (lambda t: t["run"].__setitem__("lambda", "abc"), "run.lambda"),
    (lambda t: t["reservoirs"][0]["density"].__setitem__("gamma", None),
     "gamma"),
    (lambda t: t["reservoirs"][1].__setitem__("zero_frequency", "abc"),
     "reservoirs[1].zero_frequency"),
    (lambda t: t["run"].__setitem__("domain_box", [["a", 1], [0, 1]]),
     "run.domain_box"),
    (lambda t: t["run"].__setitem__("domain_box", [[None, 1], [0, 1]]),
     "domain_box"),
    (lambda t: t["system"].__setitem__("degeneracy_tol", "abc"),
     "system.degeneracy_tol"),
    (lambda t: t["run"].__setitem__("lamb_shift", "no"), "run.lamb_shift"),
])
def test_malformed_number_exits_2(qubit_model, tmp_path, capsys, mutate, key):
    tree = model_to_dict(qubit_model)
    mutate(tree)
    bad = tmp_path / "bad.yaml"
    dump_config(tree, bad)
    rc, captured = run(["validate", "--config", str(bad),
                        "--out", str(tmp_path)], capsys)
    assert rc == 2
    payload = json.loads(captured.err)
    assert payload["error"] == "ConfigError"
    assert key in payload["message"]


@pytest.mark.parametrize("argv", [
    ["fv-tpm"],
    ["transfer", "--lambda", "0.2"],
    ["fv-compare", "--lambda", "0.2"],
])
def test_finite_volume_refuses_non_diagonal_hamiltonian(tmp_path, capsys,
                                                        argv):
    sz = np.diag([1.0, -1.0]).astype(complex)
    reservoirs = [dataclasses.replace(r, coupling=sz)
                  for r in canonical_reservoirs()]
    model = make_model([[0.0, 0.5], [0.5, 0.0]], reservoirs, lam=0.1)
    path = tmp_path / "hopping.yaml"
    dump_config(model_to_dict(model), path)
    rc, captured = run(argv + ["--config", str(path),
                               "--out", str(tmp_path / "out")], capsys)
    assert rc == 2
    payload = json.loads(captured.err)
    assert payload["error"] == "ConfigError"
    assert "entry (0, 1)" in payload["message"]


@pytest.mark.filterwarnings("ignore::fcslab.errors.TruncationWarning")
def test_fv_compare_rejects_pinned_modes(qubit_model, tmp_path, capsys):
    modes = [resonant_modes(qubit_model.system, res, 2, 0.5, n_max=1)
             for res in qubit_model.reservoirs]
    pinned = tmp_path / "instance.yaml"
    dump_config(instance_to_dict(qubit_model, modes), pinned)
    rc, captured = run(["fv-compare", "--config", str(pinned),
                        "--out", str(tmp_path / "out")], capsys)
    assert rc == 2
    payload = json.loads(captured.err)
    assert payload["error"] == "ConfigError"
    assert "fv-compare sizes one instance per lambda" in payload["message"]
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.filterwarnings("ignore::fcslab.errors.TruncationWarning")
@pytest.mark.parametrize("sub, flag", [
    *[("fv-tpm", flag) for flag in ("modes", "nocc", "margin")],
    *[("transfer", flag) for flag in ("nblocks", "modes", "nocc", "margin")],
])
@pytest.mark.parametrize("from_env", [False, True])
def test_pinned_modes_refuse_sizing_flags(qubit_model, tmp_path, capsys,
                                          monkeypatch, sub, flag, from_env):
    """A pinned modes section fixes the instance: a sizing flag, given or
    taken from FCSLAB_<FLAG>, exits 2 instead of being ignored."""
    modes = [resonant_modes(qubit_model.system, res, 2, 0.5, n_max=1)
             for res in qubit_model.reservoirs]
    pinned = tmp_path / "instance.yaml"
    dump_config(instance_to_dict(qubit_model, modes), pinned)
    argv = [sub, "--config", str(pinned), "--out", str(tmp_path / "out")]
    if from_env:
        monkeypatch.setenv(f"FCSLAB_{flag.upper()}", "3")
    else:
        argv += [f"--{flag}", "3"]
    rc, captured = run(argv, capsys)
    assert rc == 2
    payload = json.loads(captured.err)
    assert payload["error"] == "ConfigError"
    assert f"--{flag}" in payload["message"]
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["generator", "--kappa", "0.4,0;0.1,0"],
    ["generator", "--kappa", "0.4,0", "--kappa", "0.1,0"],
    ["fv-tpm", "--kappa", "0.25,0.5;0.1,0.1"],
    ["transfer", "--kappa", "0.4,0;0.1,0"],
    ["transfer", "--lambda", "0.2,0.4"],
])
def test_extra_single_values_exit_2(config_path, tmp_path, capsys, argv):
    rc, captured = run(argv[:1] + ["--config", config_path,
                                   "--out", str(tmp_path)] + argv[1:], capsys)
    assert rc == 2
    payload = json.loads(captured.err)
    assert payload["error"] == "ConfigError"
    assert "takes one value" in payload["message"]
    assert not (tmp_path / "manifest.json").exists()


def test_negative_seed_exits_2(config_path, tmp_path, capsys):
    rc, captured = run(["trajectories", "--config", config_path,
                        "--out", str(tmp_path), "--nsamples", "10",
                        "--seed=-1"], capsys)
    assert rc == 2
    payload = json.loads(captured.err)
    assert payload["error"] == "ConfigError"
    assert "seed" in payload["message"]


def test_kappa_outside_domain_exits_3(config_path, tmp_path, capsys):
    rc, captured = run(["generator", "--config", config_path,
                        "--out", str(tmp_path), "--kappa", "50,0"], capsys)
    assert rc == 3
    payload = json.loads(captured.err)
    assert payload["error"] == "KappaOutsideDomain"
    assert "domain_box" in payload["diagnostics"]


@pytest.mark.filterwarnings("ignore::fcslab.errors.TruncationWarning")
def test_fv_tpm_and_pinned_rerun(config_path, tmp_path):
    out1 = tmp_path / "a"
    rc, _ = run(["fv-tpm", "--config", config_path, "--out", str(out1),
                 "--tmax", "5", "--modes", "2", "--nocc", "1",
                 "--kappa", "0.25,0.5"])
    assert rc == 0
    payload = json.loads((out1 / "tpm.json").read_text())
    assert abs(payload["total_probability"] - 1.0) < 1e-10
    assert payload["laplace_minus_chi"] < 1e-12
    out2 = tmp_path / "b"
    rc, _ = run(["fv-tpm", "--config", str(out1 / "instance.yaml"),
                 "--out", str(out2), "--tmax", "5", "--kappa", "0.25,0.5"])
    assert rc == 0
    rows1 = (out1 / "tpm.csv").read_text().splitlines()[1:]
    rows2 = (out2 / "tpm.csv").read_text().splitlines()[1:]
    assert rows1 == rows2


@pytest.mark.filterwarnings("ignore::fcslab.errors.TruncationWarning")
def test_transfer_matches_frozen_constants(config_path, tmp_path):
    rc, _ = run(["transfer", "--config", config_path, "--out", str(tmp_path),
                 "--lambda", "0.3", "--tau", "0.5", "--nblocks", "4",
                 "--nmax", "4", "--modes", "1", "--nocc", "3",
                 "--kappa", "0.4,0", "--margin", "0.8"])
    assert rc == 0
    payload = json.loads((tmp_path / "transfer.json").read_text())
    assert payload["dimension"] == 32
    np.testing.assert_allclose(payload["c_hat"], 0.50019954731056981,
                               rtol=1e-9)
    np.testing.assert_allclose(payload["leading"][0], 1.0308323573781693,
                               rtol=1e-9)
    assert max(payload["compression_residuals"]) < 1e-8
    assert payload["psd_margin"] > 0
    # instance.yaml pins the lambda the instance was built at, not the
    # config's 0.1, so a rerun against it without --lambda gives the same
    # numbers
    instance = load_config(tmp_path / "instance.yaml")
    assert instance.model.lam == 0.3
    rerun = tmp_path / "rerun"
    rc, _ = run(["transfer", "--config", str(tmp_path / "instance.yaml"),
                 "--out", str(rerun), "--tau", "0.5", "--nmax", "4",
                 "--kappa", "0.4,0"])
    assert rc == 0
    again = json.loads((rerun / "transfer.json").read_text())
    assert again.pop("manifest") != payload.pop("manifest")
    assert again == payload


def test_json_writes_null_for_non_finite_floats():
    """JSON has no inf or nan, so a non-finite float is written as null, at
    top level and nested; a finite float keeps its %.17g bytes."""
    for bad in (np.inf, -np.inf, np.nan, float("-inf"), np.float32("nan")):
        assert fcslab.cli._json_value(bad) == "null"
        text = fcslab.cli._json_value({"c": bad, "a": [1.5, bad, {"b": bad}]})
        assert text == '{"a":[1.5,null,{"b":null}],"c":null}'
        assert json.loads(text) == {"a": [1.5, None, {"b": None}], "c": None}
    assert fcslab.cli._json_value([0.1, np.float64(-2.5e-300)]) == \
        "[0.10000000000000001,-2.5e-300]"


@pytest.mark.filterwarnings("ignore::fcslab.errors.TruncationWarning")
def test_transfer_where_f_vanishes_writes_valid_json(config_path, tmp_path):
    """f vanishes on kappa = c (1, 1), so the relative gap of transfer's
    f to lambda^2 f is not finite there: it is written as null."""
    rc, _ = run(["transfer", "--config", config_path, "--out", str(tmp_path),
                 "--kappa=0.5,0.5"])
    assert rc == 0
    with open(tmp_path / "transfer.json") as fh:
        payload = json.load(fh)
    assert payload["f_fgr"] == 0.0
    assert payload["relative_gap"] is None
    assert np.isfinite(payload["f_transfer"])


def test_fv_compare_table(config_path, tmp_path):
    rc, _ = run(["fv-compare", "--config", config_path,
                 "--out", str(tmp_path), "--lambda", "0.3",
                 "--kappa", "0.4,0", "--modes", "2", "--nocc", "1"])
    assert rc == 0
    _, header, rows = read_csv(tmp_path / "fv_compare.csv")
    assert header == ["lambda", "t", "kappa_hot", "kappa_cold", "chi",
                      "f_finite", "f_fgr", "deviation"]
    assert len(rows) == 1
    assert np.isfinite(float(rows[0][-1]))
    payload = json.loads((tmp_path / "fv_compare.json").read_text())
    assert "0.29999999999999999" in payload["median_deviation"]


def test_trajectories_deterministic_and_seeded(config_path, tmp_path):
    args = ["trajectories", "--config", config_path, "--nsamples", "400",
            "--seed", "3", "--kappa", "0.2,0", "--jobs", "2"]
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        rc, _ = run(args + ["--out", str(out)])
        assert rc == 0
    for name in ("trajectories.csv", "traj_scgf.csv", "traj_report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    m1 = json.loads((outs[0] / "manifest.json").read_text())
    m2 = json.loads((outs[1] / "manifest.json").read_text())
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
    assert m1 == m2
    report = json.loads((outs[0] / "traj_report.json").read_text())
    assert report["seed"] == 3
    assert report["clt"]["dropped_directions"] == 1
    _, header, rows = read_csv(outs[0] / "traj_scgf.csv")
    assert float(rows[0][header.index("ess")]) > 50


def test_ess_collapse_exits_3(config_path, tmp_path, capsys):
    rc, captured = run(["trajectories", "--config", config_path,
                        "--out", str(tmp_path), "--nsamples", "300",
                        "--kappa", "5,0"], capsys)
    assert rc == 3
    payload = json.loads(captured.err)
    assert payload["error"] == "EffectiveSampleCollapse"
    assert payload["diagnostics"]["ess"] < 50


def test_env_overrides_default_flag_overrides_env(config_path, tmp_path,
                                                  monkeypatch):
    monkeypatch.setenv("FCSLAB_SEED", "7")
    monkeypatch.setenv("FCSLAB_HORIZON", "5")
    out1 = tmp_path / "env"
    rc, _ = run(["trajectories", "--config", config_path, "--out", str(out1),
                 "--nsamples", "60", "--kappa", "0,0"])
    assert rc == 0
    report = json.loads((out1 / "traj_report.json").read_text())
    assert report["seed"] == 7 and report["horizon"] == 5.0
    out2 = tmp_path / "flag"
    rc, _ = run(["trajectories", "--config", config_path, "--out", str(out2),
                 "--nsamples", "60", "--kappa", "0,0", "--seed", "11"])
    assert rc == 0
    report = json.loads((out2 / "traj_report.json").read_text())
    assert report["seed"] == 11 and report["horizon"] == 5.0


def test_env_flags_are_recorded_in_the_manifest(config_path, tmp_path,
                                                monkeypatch):
    """FCSLAB_<FLAG> stands for the flag: two seeds give two manifests, and
    FCSLAB_LAMBDA and FCSLAB_KAPPA give the bytes of --lambda and --kappa."""
    hashes = []
    for seed in ("5", "6"):
        monkeypatch.setenv("FCSLAB_SEED", seed)
        out = tmp_path / f"seed{seed}"
        rc, _ = run(["trajectories", "--config", config_path,
                     "--out", str(out), "--nsamples", "60", "--horizon", "5",
                     "--kappa", "0,0", "--jobs", "1"])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["seed"] == seed
        hashes.append(manifest["manifest"])
    assert hashes[0] != hashes[1]
    monkeypatch.delenv("FCSLAB_SEED")

    args = ["transfer", "--config", config_path, "--tau", "0.5",
            "--nblocks", "4", "--nmax", "4", "--modes", "1", "--nocc", "3"]
    flags = tmp_path / "flags"
    rc, _ = run([*args, "--out", str(flags), "--lambda", "0.3",
                 "--kappa", "0.4,0"])
    assert rc == 0
    monkeypatch.setenv("FCSLAB_LAMBDA", "0.3")
    monkeypatch.setenv("FCSLAB_KAPPA", "0.4,0")
    env = tmp_path / "env"
    rc, _ = run([*args, "--out", str(env)])
    assert rc == 0
    for name in ("transfer.json", "instance.yaml"):
        assert (env / name).read_bytes() == (flags / name).read_bytes()
    manifests = [json.loads((out / "manifest.json").read_text())
                 for out in (env, flags)]
    for m in manifests:
        m.pop("wall_time_s")
    assert manifests[0] == manifests[1]


def test_jobs_and_seed_belong_to_trajectories(config_path, tmp_path,
                                              monkeypatch):
    """Only trajectories samples: moments refuses --seed and --jobs, and
    FCSLAB_SEED and FCSLAB_JOBS leave its manifest alone."""
    for flag in ("--seed", "--jobs"):
        rc, _ = run(["moments", "--config", config_path,
                     "--out", str(tmp_path / "flag"), flag, "3"])
        assert rc == 2
    assert not (tmp_path / "flag").exists()
    manifests = []
    for env in ({}, {"FCSLAB_SEED": "3", "FCSLAB_JOBS": "2"}):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        out = tmp_path / f"env{len(env)}"
        rc, _ = run(["moments", "--config", config_path, "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest.pop("wall_time_s")
        manifests.append(manifest)
    assert manifests[0] == manifests[1]
    assert manifests[0]["parameters"] == {}


def test_bad_flag_value_exits_2(config_path, tmp_path, capsys):
    rc, captured = run(["trajectories", "--config", config_path,
                        "--out", str(tmp_path), "--nsamples", "many"], capsys)
    assert rc == 2
    assert "nsamples" in json.loads(captured.err)["message"]


@pytest.mark.parametrize("argv", [
    ["generator", "--kappa", "nan,0"],
    ["scgf-scan", "--kappa", "nan,0"],
    ["transfer", "--kappa", "nan,0"],
    ["fv-compare", "--kappa", "nan,0"],
    ["fv-tpm", "--kappa", "nan,0"],
    ["trajectories", "--kappa", "nan,0", "--nsamples", "10", "--jobs", "1"],
    ["gc-check", "--nu", "0:nan:0.1"],
    ["scgf-scan", "--nu", "0:1:nan"],
    ["transfer", "--tau", "inf"],
    ["fv-compare", "--lambda", "0.1,nan"],
])
def test_non_finite_flag_exits_2(config_path, tmp_path, capsys, argv):
    rc, captured = run(argv[:1] + ["--config", config_path,
                                   "--out", str(tmp_path)] + argv[1:], capsys)
    assert rc == 2
    payload = json.loads(captured.err)
    assert payload["error"] == "ConfigError"
    assert "not a finite number" in payload["message"]
    assert not (tmp_path / "manifest.json").exists()


def test_non_finite_flag_from_environment_exits_2(config_path, tmp_path,
                                                  capsys, monkeypatch):
    monkeypatch.setenv("FCSLAB_TMAX", "inf")
    rc, captured = run(["fv-tpm", "--config", config_path,
                        "--out", str(tmp_path)], capsys)
    assert rc == 2
    assert json.loads(captured.err)["message"] == \
        "bad value for --tmax: 'inf' is not a finite number"


@pytest.mark.parametrize("horizon", ["nan", "inf"])
def test_non_finite_horizon_exits_2(config_path, tmp_path, horizon):
    """A horizon of nan or inf would never end the Gillespie loop.  The run
    is a fresh process with a timeout, so that a regression fails instead
    of hanging the suite."""
    proc = subprocess.run(
        [sys.executable, "-m", "fcslab", "trajectories", "--config",
         config_path, "--out", str(tmp_path), "--horizon", horizon,
         "--nsamples", "10", "--jobs", "1"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "ConfigError"


def test_kappa_wrong_arity_exits_2(config_path, tmp_path, capsys):
    rc, captured = run(["scgf-scan", "--config", config_path,
                        "--out", str(tmp_path), "--kappa", "0.1,0.2,0.3"],
                       capsys)
    assert rc == 2
    assert "2 reservoirs" in json.loads(captured.err)["message"]
