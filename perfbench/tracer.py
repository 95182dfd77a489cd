"""Spans and counters around sicbell's public functions, from outside the package.

The package modules import each other's functions by name
(``from .catalog import orthogonality_graph``), so a wrapper only takes
effect if every module-level binding of the original is replaced.
:class:`Tracer` finds those bindings once, swaps the wrappers in with
:meth:`Tracer.install` and puts the originals back with
:meth:`Tracer.remove`.  Nothing inside ``src/`` is edited.

A span records its name, start, end, parent span and the op it belongs
to.  Spans stay in memory and are written out once, when the run ends.
A span's self time is its duration minus the durations of its direct
children; :meth:`Tracer.end_op` scales an op's self times to the
reference machine speed, like the end-to-end latencies.  Functions
called thousands of times per op are counted only.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter


def _iterations(name, result, kwargs):
    return {f"{name}.iterations": result.iterations}


def _bootstrap_variates(name, result, kwargs):
    """Replicates x settings of the bootstrap draw array (computed, not sampled)."""
    record = kwargs.get("record")
    replicates = kwargs.get("bootstrap_replicates", 0)
    if record is None or replicates <= 0:
        return {}
    return {"montecarlo.bootstrap_variates": replicates * len(record.settings)}


# (module, attribute, span or count only, extra counts read from the call)
TARGETS = (
    ("exact", "inner_product", False, None),
    ("catalog", "orthogonality_graph", True, None),
    ("catalog", "verify_set", True, None),
    ("catalog", "get_set", True, None),
    ("catalog", "load_set", True, None),
    ("bounds", "max_weight_independent_set", True, None),
    ("bounds", "solve_theta", True, _iterations),
    ("bounds", "state_ceiling", True, _iterations),
    ("quantum", "bell_operator", True, None),
    ("quantum", "bell_value", True, None),
    ("quantum", "joint_probability", False, None),
    ("noise", "apply_noise", True, None),
    ("noise", "PredictionInputs.probability", False, None),
    ("montecarlo", "simulate_counts", True, None),
    ("montecarlo", "estimate_probabilities", True, None),
    ("montecarlo", "estimate_beta", True, _bootstrap_variates),
)


class Tracer:
    """In-memory spans, per-layer self time and call counts for one run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()     # at reference speed
        self._op_self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[list] = []      # [span id, child seconds]
        self._next_id = 0
        self._sites = self._find_sites()

    def _find_sites(self):
        """Every (owner, attribute, original, wrapper) to swap on install."""
        modules = [m for name, m in sys.modules.items()
                   if name == "sicbell" or name.startswith("sicbell.")]
        sites = []
        for module, attr, spanned, extra in TARGETS:
            owner = sys.modules[f"sicbell.{module}"]
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            name = f"{module}.{attr}"
            wrapper = (self._spanned(name, original, extra) if spanned
                       else self._counted(name, original))
            if len(path) > 1:
                sites.append((owner, path[-1], original, wrapper))
                continue
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is original:
                        sites.append((mod, key, original, wrapper))
        return sites

    def install(self):
        for owner, key, _, wrapper in self._sites:
            setattr(owner, key, wrapper)

    def remove(self):
        for owner, key, original, _ in self._sites:
            setattr(owner, key, original)

    def _counted(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _spanned(self, name, fn, extra):
        def spanned(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
                if extra is not None:
                    self.counts.update(extra(name, result, kwargs))
                return result
        return spanned

    def span(self, name):
        return _Span(self, name)

    def _open(self, name):
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, 0.0])
        self.calls[name] += 1
        return self._next_id, parent, time.perf_counter()

    def _close(self, name, span_id, parent, start):
        end = time.perf_counter()
        _, child_s = self._stack.pop()
        duration = end - start
        self._op_self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][1] += duration
        self.spans.append({"id": span_id, "parent": parent, "op": self.op,
                           "name": name, "start": start, "end": end})

    def end_op(self, scale):
        """Fold the finished op's self times in, scaled by ``scale``."""
        for name, seconds in self._op_self_s.items():
            self.self_s[name] += seconds * scale
        self._op_self_s.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "state")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.state = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.name, *self.state)
        return False
