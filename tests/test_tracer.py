"""The benchmark tracer (perfbench/tracer.py) wraps sicbell functions by
name when it starts.  Every name it lists must still exist, and removing
its wrappers must put every original back."""

import importlib.util
import sys
from pathlib import Path

import sicbell.cli  # noqa: F401  (loads every module the tracer wraps)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module, attr):
    """The object holding a target and the attribute name on it."""
    owner = sys.modules[f"sicbell.{module}"]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def test_tracer_wraps_and_restores_every_target():
    tracer_module = load_tracer()
    targets = [(module, attr) for module, attr, *_ in tracer_module.TARGETS]
    originals = {t: getattr(*resolve(*t)) for t in targets}
    namespaces = {name: dict(vars(mod)) for name, mod in list(sys.modules.items())
                  if name == "sicbell" or name.startswith("sicbell.")}
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for target, original in originals.items():
            assert getattr(*resolve(*target)) is not original, target
    finally:
        tracer.remove()
    for target, original in originals.items():
        assert getattr(*resolve(*target)) is original, target
    for name, before in namespaces.items():
        after = vars(sys.modules[name])
        assert all(after[key] is value for key, value in before.items()), name
