"""The benchmark harness's hold on the package: every function that
perfbench/tracer.py wraps still exists, and uninstalling the tracer puts
every original back."""

import importlib
import sys
import types
from pathlib import Path

import numpy.polynomial.legendre as legendre

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    """perfbench/tracer.py as a module, compiled from its text, so that no
    bytecode cache is written next to it."""
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def _traced_slots(tracer):
    """(owner, key, original) for every TRACED name: a method on its class,
    a function in each loaded fcslab namespace that holds it."""
    for layer in tracer.LAYERS:
        importlib.import_module(f"fcslab.{layer}")
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and n.split(".")[0] == "fcslab"]
    slots = []
    for mod_name, attr in tracer.TRACED:
        home = sys.modules[f"fcslab.{mod_name}"]
        owner, _, key = attr.rpartition(".")
        owner = getattr(home, owner) if owner else home
        assert key in vars(owner), f"traced {mod_name}.{attr} is gone"
        original = vars(owner)[key]
        if owner is not home:
            slots.append((owner, key, original))
            continue
        slots += [(mod, name, original) for mod in modules
                  for name, value in vars(mod).items() if value is original]
    return slots


def test_tracer_wraps_every_traced_name_and_restores_it():
    tracer = _load_tracer()
    slots = _traced_slots(tracer)
    leggauss = legendre.leggauss
    spans = tracer.Tracer()
    try:
        spans.install()
        for owner, key, original in slots:
            assert vars(owner)[key].__wrapped__ is original, key
    finally:
        spans.uninstall()
    for owner, key, original in slots:
        assert vars(owner)[key] is original, key
    assert legendre.leggauss is leggauss
