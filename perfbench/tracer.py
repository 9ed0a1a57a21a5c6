"""Spans around fcslab's layer functions, installed from outside the package.

Each traced function is replaced by a wrapper in every ``fcslab`` namespace
that holds it (``build_deformed_lindblad`` lives in ``lindblad``, ``scgf``,
``cli`` and the package itself), so calls between layers open their own
spans.  Methods are wrapped on their class.  Spans are kept in memory as
(id, name, start, end, parent id, request id) and written out at the end;
a span's self time is its duration minus the time covered by its children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from collections import Counter, defaultdict

# (module, attribute) pairs; a dotted attribute names a method on a class
TRACED = [
    ("model", "check_fgr_irreducibility"),
    ("config", "load_config"),
    ("lindblad", "build_deformed_lindblad"),
    ("lindblad", "compute_upsilon"),
    ("lindblad", "principal_value"),
    ("scgf", "ScgfSolver.__init__"),
    ("scgf", "ScgfSolver.leading"),
    ("scgf", "ScgfSolver.gradient_and_hessian"),
    ("scgf", "transport_moments"),
    ("scgf", "gc_symmetry_defect"),
    ("scgf", "rate_function"),
    ("finite_volume", "assemble"),
    ("finite_volume", "FiniteVolumeModel.propagator"),
    ("finite_volume", "characteristic_function"),
    ("finite_volume", "tpm_distribution"),
    ("finite_volume", "weak_coupling_compare"),
    ("transfer", "transfer_instance"),
    ("transfer", "compressed_step"),
    ("transfer", "compressed_map"),
    ("transfer", "extract_blocks"),
    ("transfer", "build_and_deform"),
    ("trajectories", "build_rate_process"),
    ("trajectories", "sample"),
    ("trajectories", "empirical_scgf"),
    ("trajectories", "mean_current_estimates"),
    ("trajectories", "clt_test"),
    ("trajectories", "entropy_asymmetry"),
    ("cli", "main"),
]

LAYERS = ["model", "config", "lindblad", "scgf", "finite_volume", "transfer",
          "trajectories", "cli"]


def span_name(module, attr):
    """'scgf.ScgfSolver.__init__' -> 'scgf.ScgfSolver', else module.attr
    with the class dropped ('scgf.leading')."""
    if attr.endswith(".__init__"):
        return f"{module}.{attr[:-len('.__init__')]}"
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Collects spans, self times, call counts and observed work counts."""

    def __init__(self):
        self.request = None
        self.spans = []
        self.stack = []                 # [span id, name, start, child time]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.observed = Counter()       # work counts read from return values
        self.errors = Counter()
        self._next_id = 0
        self._seen_errors = set()
        self._times = {}                # live instance id -> times asked
        self._undo = []

    # -- spans --------------------------------------------------------------

    def _open(self, name):
        sid = self._next_id
        self._next_id += 1
        self.stack.append([sid, name, time.perf_counter(), 0.0])
        return sid

    def _close(self):
        sid, name, start, child = self.stack.pop()
        end = time.perf_counter()
        dur = end - start
        parent = self.stack[-1][0] if self.stack else None
        if self.stack:
            self.stack[-1][3] += dur
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self.spans.append((sid, name, start, end, parent, self.request))

    def _failed(self, name, exc):
        if id(exc) not in self._seen_errors:
            self._seen_errors.add(id(exc))
            self.errors[name.split(".", 1)[0]] += 1

    def wrap(self, name, fn):
        tracer = self
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._failed(name, exc)
                raise
            finally:
                tracer._close()
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every traced name in every loaded fcslab namespace, and count
        numpy Gauss-Legendre rules computed inside principal_value."""
        for mod_name in LAYERS:
            importlib.import_module(f"fcslab.{mod_name}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "fcslab"
                                         or n.startswith("fcslab."))]
        for mod_name, attr in TRACED:
            name = span_name(mod_name, attr)
            home = sys.modules[f"fcslab.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, orig, self.wrap(name, orig))
                continue
            orig = getattr(home, attr)
            wrapper = self.wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, orig, wrapper)

        import numpy.polynomial.legendre as legendre
        orig = legendre.leggauss
        tracer = self

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            if any(entry[1] == "lindblad.principal_value"
                   for entry in tracer.stack):
                tracer.observed["lindblad.gauss_rules.calls"] += 1
            return orig(*args, **kwargs)

        self._set(legendre, "leggauss", orig, counted)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, orig, counted)
        return self

    def _set(self, owner, key, orig, wrapper):
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def totals(self):
        """Raw sums, mergeable across processes with merge_totals."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "observed": dict(self.observed), "errors": dict(self.errors)}

    def span_rows(self):
        return [{"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, "request": request}
                for sid, name, start, end, parent, request in self.spans]


def merge_totals(parts):
    """Sum the totals of several tracers; '.max' observations take the max."""
    out = {"calls": Counter(), "self_s": defaultdict(float),
           "observed": Counter(), "errors": Counter()}
    for part in parts:
        out["calls"].update(part["calls"])
        out["errors"].update(part["errors"])
        for name, value in part["self_s"].items():
            out["self_s"][name] += value
        for name, value in part["observed"].items():
            if name.endswith(".max"):
                out["observed"][name] = max(out["observed"][name], value)
            else:
                out["observed"][name] += value
    return out


# -- work counts read from return values ----------------------------------

def _observe_rate_function(tracer, args, kwargs, table):
    for point in table.points:
        tracer.observed["scgf.rate_function.newton_iterations"] += \
            point.iterations
        tracer.observed["scgf.rate_function.points"] += 1
        tracer.observed["scgf.rate_function.converged"] += int(point.converged)


def _observe_propagator(tracer, args, kwargs, result):
    fv, t = args[0], float(args[1] if len(args) > 1 else kwargs["t"])
    times = tracer._times.get(id(fv))
    if times is None:
        times = tracer._times[id(fv)] = set()
        weakref.finalize(fv, tracer._times.pop, id(fv), None)
    if t in times:
        tracer.observed["finite_volume.propagator.repeats"] += 1
    times.add(t)


def _observe_assemble(tracer, args, kwargs, fv):
    tracer.observed["finite_volume.dim.max"] = max(
        tracer.observed["finite_volume.dim.max"], int(fv.dim))


def _observe_sample(tracer, args, kwargs, ens):
    tracer.observed["trajectories.sample.jumps"] += int(ens.n_jumps.sum())


def _observe_empirical(tracer, args, kwargs, emp):
    n = (args[0] if args else kwargs["ens"]).n_samples
    for ess in emp.ess:
        tracer.observed["trajectories.empirical_scgf.ess_ratio_sum"] += \
            float(ess) / n
        tracer.observed["trajectories.empirical_scgf.points"] += 1


def _observe_cli(tracer, args, kwargs, code):
    if code != 0:
        tracer.errors["cli"] += 1


_OBSERVERS = {
    "scgf.rate_function": _observe_rate_function,
    "finite_volume.propagator": _observe_propagator,
    "finite_volume.assemble": _observe_assemble,
    "trajectories.sample": _observe_sample,
    "trajectories.empirical_scgf": _observe_empirical,
    "cli.main": _observe_cli,
}
