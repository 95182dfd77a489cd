"""Every function defined in ``src/sicbell`` is reached from the command
line.  A fixed matrix of commands runs in-process under
``sys.setprofile``, and each named function of the package must be
called by it, apart from the allowlist below.

The functions are listed from the compiled source: each code object
under a module's, less class bodies and ``<lambda>`` or comprehension
code, keyed by (file, first line, name) as ``frame.f_code`` gives them.
So a method under ``cached_property`` counts when its body runs, and
``build_parser`` under ``functools.cache`` does once its cache is
cleared.

The allowlist holds the functions only the benchmark tracer reaches:
``perfbench/tracer.py``'s ``TARGETS`` looks them up by name, and the
functions only those call.  An entry that the matrix reaches, or that is
neither, fails the test, so the list only shrinks.
"""

import contextlib
import importlib.util
import inspect
import io
import json
import shutil
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import sicbell
from sicbell import cli, exact, noise, quantum
from sicbell.catalog import SicSet, get_set
from sicbell.exact import ExactScalar

from test_bounds import direct_sum, set_doc
from test_catalog import DATA

SRC = Path(sicbell.__file__).parent
TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# each function no command calls, and why it stays
ALLOWLIST = {
    "exact.inner_product": "a tracer target; the Gram product decides orthogonality",
    "exact.ExactScalar.__add__": "called only by exact.inner_product",
    "exact.ExactScalar.__mul__": "called only by exact.inner_product",
    "exact.ExactScalar.conjugate": "called only by exact.inner_product",
    "quantum.joint_probability": "a tracer target; bell_value gives every table in closed form",
    "quantum.projector": "called only by quantum.joint_probability",
    "quantum.bell_operator": "a tracer target; bounds builds each block's operator",
    "noise.PredictionInputs.probability": "a tracer target; bell_value gives every table",
}

_FIT_TARGETS = {"yo13": "11.6", "ks18": "4.4", "ks21": "3.4"}


def defined_functions() -> dict:
    """``{(file, first line, name): "module.Qualified.name"}`` of every
    function defined in the package."""
    found = {}

    def walk(code, module, prefix):
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                qualname = prefix + const.co_name
                if const.co_flags & inspect.CO_OPTIMIZED:  # not a class body
                    key = (const.co_filename, const.co_firstlineno, const.co_name)
                    found[key] = f"{module}.{qualname}"
                walk(const, module, qualname + ".")

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
             path.stem, "")
    return found


def load_targets() -> set:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {f"{module}.{attr}" for module, attr, *_ in tracer.TARGETS}


def command_matrix(tmp: Path) -> list:
    """``(argv, exit code)`` of each run: every command in both formats on
    the catalog sets and a custom copy of yo13, two split graphs, a solve
    that does not converge, and the error paths."""
    custom = tmp / "custom.json"
    shutil.copy(DATA / "yo13.json", custom)
    yo13 = get_set("yo13")
    joined = tmp / "yo13_ks18.json"   # every cross pair orthogonal: a join
    joined.write_text(json.dumps(set_doc(direct_sum(yo13, get_set("ks18")))))
    apart = tmp / "yo13_ray.json"     # (1, 2, 4) is orthogonal to no yo13 ray
    ray = tuple(ExactScalar(a, 0) for a in (1, 2, 4))
    apart.write_text(json.dumps(set_doc(SicSet("yo13_ray", 3, yo13.vectors + (ray,),
                                               yo13.weights + (1,)))))
    noisy = tmp / "noisy.json"
    noisy.write_text(json.dumps({"visibility": 0.97, "crosstalk": 0.01,
                                 "spectrum_width": 4}))
    bad = tmp / "bad.json"
    bad.write_text(json.dumps({"set": "yo13", "visibility": "high"}))
    runs = []
    for name, target in [*_FIT_TARGETS.items(), (str(custom), "11.6")]:
        out = str(tmp / "out" / Path(name).stem)
        runs += [(["catalog", name], 0), (["fit", "--set", name, "--target-beta",
                                           target, "--sigma-target", "0.05"], 0)]
        for fmt in ("json", "csv"):
            runs += [(["bounds", name, "--format", fmt, "--out", out], 0),
                     (["predict", "--set", name, "--format", fmt, "--out", out], 0),
                     (["predict", "--set", name, "--config", str(noisy),
                       "--format", fmt, "--out", out], 0),
                     (["simulate", "--set", name, "--seed", "3", "--format", fmt,
                       "--out", out], 0)]
    out = str(tmp / "out" / "split")
    return runs + [
        (["bounds", str(joined), "--out", out], 0),
        (["bounds", str(apart), "--out", out], 0),
        (["bounds", "ks18", "--tol", "3e-13", "--out", out], 2),
        (["catalog", "nope"], 1),
        (["bounds", "yo13", "--frobnicate"], 1),
        (["bounds", "yo13", "--tol", "-1", "--out", out], 1),
        (["simulate", "--config", str(bad), "--out", out], 1),
    ]


def profiled(run) -> tuple:
    """``run()``'s result, and each call made meanwhile as a pair
    (caller code, callee code)."""
    calls = set()

    def profile(frame, event, arg):
        if event == "call":
            calls.add((frame.f_back and frame.f_back.f_code, frame.f_code))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return result, calls


def name_of(code, functions):
    """The package function whose code ``code`` is, or None."""
    return code and functions.get((code.co_filename, code.co_firstlineno, code.co_name))


@pytest.fixture(scope="module")
def functions():
    return defined_functions()


@pytest.fixture(scope="module")
def reached(tmp_path_factory, functions):
    tmp = tmp_path_factory.mktemp("reach")
    matrix = command_matrix(tmp)
    cli.build_parser.cache_clear()

    def run():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return [cli.main(argv) for argv, _ in matrix]

    exits, calls = profiled(run)
    assert exits == [code for _, code in matrix]
    return {name_of(callee, functions) for _, callee in calls} - {None}


def test_every_function_is_reached(functions, reached):
    missing = sorted(set(functions.values()) - reached - set(ALLOWLIST))
    assert not missing, f"no command reaches {', '.join(missing)}"


def test_no_allowlisted_function_is_reached(reached):
    stale = sorted(reached & set(ALLOWLIST))
    assert not stale, f"a command reaches {', '.join(stale)}: drop it from ALLOWLIST"


def test_the_allowlist_is_what_the_tracer_pins(functions):
    assert set(ALLOWLIST) <= set(functions.values())
    targets = load_targets()
    yo13 = get_set("yo13")
    inputs = noise.apply_noise(yo13, noise.IDEAL)
    phi = np.eye(3).ravel() / np.sqrt(3)   # the maximally entangled state
    samples = {
        "exact.inner_product": lambda: exact.inner_product(*yo13.vectors[:2]),
        "quantum.joint_probability":
            lambda: quantum.joint_probability(np.outer(phi, phi), *yo13.unit_vectors[:2]),
        "quantum.bell_operator": lambda: quantum.bell_operator(yo13),
        "noise.PredictionInputs.probability": lambda: inputs.probability(0, 1),
    }
    callers = {}
    for sample in (samples[name] for name in set(samples) & targets):
        _, calls = profiled(sample)
        for caller, callee in calls:
            name = name_of(callee, functions)
            if name in ALLOWLIST:
                callers.setdefault(name, set()).add(name_of(caller, functions))
    neither = sorted(name for name in set(ALLOWLIST) - targets
                     if not callers.get(name) or not callers[name] <= targets)
    assert not neither, ("neither a tracer target nor called only by one: "
                         + ", ".join(neither))
    assert set(samples) == set(ALLOWLIST) & targets, "one sample call per target entry"
