"""The benchmark's tracer still finds, and restores, every function it wraps.

perfbench/tracer.py patches pi_kiln functions by name.  Loading it here makes
a rename or deletion of a traced function fail the test suite instead of a
traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pi_kiln.cli  # noqa: F401  (loads every traced module)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracer) -> dict:
    """(owner, name) -> object for every module global and traced class attribute."""
    found = {}
    for modname, module in list(sys.modules.items()):
        if modname == "pi_kiln" or modname.startswith("pi_kiln."):
            for key, value in vars(module).items():
                found[modname, key] = value
    for _, module, cls, attrs, _, _ in tracer.TARGETS:
        if cls is not None:
            klass = getattr(sys.modules[f"pi_kiln.{module}"], cls)
            for attr in attrs:
                found[klass, attr] = klass.__dict__[attr]
    return found


def test_tracer_wraps_and_restores_every_target():
    tracer = _load_tracer()
    before = _bindings(tracer)
    with tracer.Tracer() as t:
        patched = {key for key, value in _bindings(tracer).items() if value is not before[key]}
    after = _bindings(tracer)
    assert t._patches == []
    # one wrapped binding at least per target, plus the stream factory
    assert len(patched) >= len(tracer.TARGETS) + 1
    assert all(after[key] is before[key] for key in before)
    assert after.keys() == before.keys()
