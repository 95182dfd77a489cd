#!/usr/bin/env python3
"""Closed-loop benchmark for the sicbell ``bounds`` and ``simulate`` paths.

Run from the repository root:

    python3 perfbench/run.py --workload bounds-catalog --seed 1 --seconds 30 --trace 0

Workloads are ``bounds-catalog``, ``simulate-sweep`` and ``scaled-sets``
(see ``workloads.py``).  One client thread in one process runs ops back
to back: the next op starts when the previous one has finished.  An op
is one in-process ``sicbell.cli.main([...])`` call or one call into the
public graph API.  Every op's output is checked; a nonzero exit, an
exception or a failed check makes the op fail.

Times are reported at a fixed reference machine speed.  On a shared
2-core x86-64 VM the CPU switches between a fast and a 1.5x slower mode
every few seconds, which moved whole-run medians by up to 40%.  So a
fixed calibration kernel (pure-Python dict and integer work, small
``eigh`` calls and a Poisson draw, independent of sicbell) is timed
between consecutive ops, and each op's wall time is multiplied by
``CAL_REFERENCE_S`` over the mean of the kernel times just before and
just after it.  ``ops_per_s`` is completed ops per second of op time
at that speed.  Set-up probes scale their phases the same way.  The raw
wall-clock figures are printed too.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` wraps the package's public functions (``tracer.py``) and
reports per-layer metrics per op, averaged over whole cycles of the
workload; traced and untraced cycles alternate so the run also reports
the tracing overhead.  Spans go to ``.perfbench_out/spans-*.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it give the provenance, the generated inputs and a table of every
metric with its unit.  Without ``src/sicbell`` in the working directory
the benchmark prints an error and exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path.cwd()
OUT_ROOT = ROOT / ".perfbench_out"

# Calibration kernel time at the reference speed: the fast mode of a
# shared 2-core x86-64 VM with Python 3.11 and numpy 2.4.
CAL_REFERENCE_S = 4.0e-3
SETUP_REPEATS = 5           # fresh interpreters timed for setup_s
TAIL_PERCENTILE = 75        # every workload has >= 10 samples above it in 30 s
MIN_TAIL_SAMPLES = 10

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    (f"op_p{TAIL_PERCENTILE}_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Per-layer metrics, per op, and the end-to-end metric each should move.
PER_LAYER = (
    ("exact.inner_product.calls", "count", "op_p50_ms on bounds-catalog, simulate-sweep"),
    ("catalog.orthogonality_graph.calls", "count", "op_p50_ms on bounds-catalog, simulate-sweep"),
    ("catalog.orthogonality_graph.self_ms", "ms", "op_p50_ms on bounds-catalog, simulate-sweep"),
    ("catalog.verify_set.calls", "count", "op_p50_ms on all workloads"),
    ("catalog.verify_set.self_ms", "ms", "op_p50_ms on all workloads"),
    ("catalog.get_set.self_ms", "ms", "op_p50_ms on bounds-catalog, scaled-sets"),
    ("catalog.load_set.self_ms", "ms", "op_p50_ms on bounds-catalog, scaled-sets"),
    ("bounds.max_weight_independent_set.self_ms", "ms", "ops_per_s on scaled-sets"),
    ("bounds.solve_theta.self_ms", "ms", "op_p50_ms on bounds-catalog, scaled-sets"),
    ("bounds.solve_theta.iterations", "count", "op_p50_ms on bounds-catalog, scaled-sets"),
    ("bounds.state_ceiling.self_ms", "ms", "op_p50_ms on bounds-catalog, scaled-sets"),
    ("bounds.state_ceiling.iterations", "count", "op_p50_ms on bounds-catalog, scaled-sets"),
    ("quantum.bell_operator.self_ms", "ms", "op_p50_ms on bounds-catalog, scaled-sets"),
    ("quantum.bell_value.self_ms", "ms", "op_p50_ms on bounds-catalog, scaled-sets, simulate-sweep"),
    ("quantum.joint_probability.calls", "count", "op_p50_ms on bounds-catalog, scaled-sets, simulate-sweep"),
    ("noise.apply_noise.self_ms", "ms", "op_p50_ms on simulate-sweep"),
    ("noise.PredictionInputs.probability.calls", "count", "op_p50_ms on simulate-sweep"),
    ("montecarlo.simulate_counts.self_ms", "ms", "op_p50_ms on simulate-sweep"),
    ("montecarlo.estimate_probabilities.self_ms", "ms", "op_p50_ms on simulate-sweep"),
    ("montecarlo.estimate_beta.self_ms", "ms", "op_p50_ms, peak_rss_mb on simulate-sweep"),
    ("montecarlo.bootstrap_variates", "computed_count", "op_p50_ms, peak_rss_mb on simulate-sweep"),
    ("cli.self_ms", "ms", "op_p50_ms on all CLI workloads"),
    ("cli.artifact_bytes", "bytes", "op_p50_ms on all CLI workloads"),
    ("trace.overhead_pct", "%", "none: traced over untraced op time"),
)


class BenchError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed op)."""


class Outcome(NamedTuple):
    seconds: float          # wall time of the op
    scale: float            # reference speed over the machine's speed around it
    error: Optional[str]
    artifact_bytes: int

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


class Calibrator:
    """Times a fixed kernel to track how fast the machine runs right now.

    ``elapsed_ref`` sums, at the reference speed, the time between the
    first kernel run and the latest one, leaving out the kernel runs.
    """

    def __init__(self):
        import numpy

        a = numpy.random.default_rng(0).standard_normal((24, 24))
        self._matrix = a + a.T
        self._eigh = numpy.linalg.eigh
        self._means = numpy.full(20_000, 50.0)
        self._rng = numpy.random.default_rng(1)
        self.measure()              # first calls into numpy's linalg and random
        self.first = self._last = self.measure()
        self.elapsed_ref = 0.0
        self._mark = time.perf_counter()

    def measure(self) -> float:
        start = time.perf_counter()
        table, acc = {}, 0
        for i in range(4000):
            key = (i, i * 3 % 7)
            table[key] = table.get(key, 0) + i
            acc += i * i % 13
        for _ in range(20):
            self._eigh(self._matrix)
        self._rng.poisson(self._means)
        return time.perf_counter() - start

    def scale(self) -> float:
        """Reference over current speed for the interval since the last call."""
        now = time.perf_counter()
        before, self._last = self._last, self.measure()
        factor = CAL_REFERENCE_S / ((before + self._last) / 2.0)
        self.elapsed_ref += (now - self._mark) * factor
        self._mark = time.perf_counter()
        return factor


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one set-up in a fresh interpreter started at this time
    parser.add_argument("--probe-started", type=float, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Runner:
    """Runs ops into one output directory and checks what they wrote."""

    def __init__(self, out_dir: Path, calibrator: Calibrator):
        import sicbell.cli
        import workloads

        self._cli_main = sicbell.cli.main
        self._graph_op = workloads.run_graph_op
        self.out = out_dir
        self.out.mkdir(parents=True, exist_ok=True)
        self.calibrator = calibrator
        self.first_digest: dict = {}

    def run(self, op, tracer=None) -> Outcome:
        latency, error, nbytes = self._run(op, tracer)
        scale = self.calibrator.scale()
        if tracer is not None:
            tracer.end_op(scale)
        return Outcome(latency, scale, error, nbytes)

    def _run(self, op, tracer):
        for path in self.out.iterdir():
            path.unlink()
        sink = io.StringIO()
        argv = None if op.argv is None else op.argv + ["--out", str(self.out)]
        start = time.perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                if argv is None:
                    doc, code = self._graph_op(op.graph), 0
                elif tracer is None:
                    code = self._cli_main(argv)
                else:
                    with tracer.span("cli"):
                        code = self._cli_main(argv)
        except Exception as exc:      # a crashing op is a failed op, not a crash
            return time.perf_counter() - start, f"{type(exc).__name__}: {exc}", 0
        latency = time.perf_counter() - start

        blobs = {p.name: p.read_bytes() for p in sorted(self.out.iterdir())}
        nbytes = sum(len(b) for b in blobs.values())
        if code != 0:
            return latency, f"exit {code}: {sink.getvalue().strip()[-300:]}", nbytes
        try:
            if argv is not None:
                doc = json.loads(blobs[op.report])
                digest = hashlib.sha256()
                for name, blob in blobs.items():
                    digest.update(name.encode() + b"\0" + blob + b"\0")
                first = self.first_digest.setdefault(op.key, digest.hexdigest())
                if first != digest.hexdigest():
                    return latency, f"{op.key}: artifacts differ on repeat", nbytes
            return latency, op.check(doc), nbytes
        except (KeyError, TypeError, ValueError) as exc:
            return latency, f"{op.key}: unreadable output: {exc!r}", nbytes


def package_src() -> Path:
    src = ROOT / "src"
    if not (src / "sicbell" / "__init__.py").is_file():
        raise BenchError(f"no sicbell package under {src}; run from the "
                         "repository root")
    return src


def setup(args, work: Path, calibrator: Calibrator):
    """Import the package, generate the inputs and warm up.

    Returns the workload, a runner and the warm-up outcomes.
    """
    sys.path.insert(0, str(package_src()))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    wl = workloads.build(args.workload, args.seed, work / "inputs")
    runner = Runner(work / "out", calibrator)
    warm = [runner.run(op) for op in wl.ops[:workloads.WARMUP_OPS]]
    return wl, runner, warm


def probe_setup(args) -> tuple[float, float]:
    """Seconds from a fresh interpreter's start to the end of its set-up,
    raw and at the reference speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--probe-started", repr(time.time())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("set-up probe took longer than 150 s") from exc
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    raw, ref = proc.stdout.split()[-2:]
    return float(raw), float(ref)


def run_probe(args, work):
    """Set up once in this fresh interpreter and print its set-up time."""
    calibrator = Calibrator()
    # interpreter start and the numpy import, at the speed of the first kernel run
    head = time.time() - args.probe_started - calibrator.first
    setup(args, work, calibrator)
    calibrator.scale()
    ref = head * CAL_REFERENCE_S / calibrator.first + calibrator.elapsed_ref
    print(repr(time.time() - args.probe_started), repr(ref))


def timed_loop(ops, runner, seconds):
    """Untraced closed loop for ``seconds`` of wall time."""
    outcomes = []
    deadline = time.perf_counter() + seconds
    k = 0
    while not outcomes or time.perf_counter() < deadline:
        outcomes.append(runner.run(ops[k % len(ops)]))
        k += 1
    return outcomes


def traced_loop(ops, runner, seconds):
    """Alternate traced and untraced whole cycles until time is up.

    Returns (tracer, traced outcomes, untraced outcomes, cycles).  Whole
    cycles make the per-op counts independent of where time ran out.
    """
    from tracer import Tracer

    tracer = Tracer()
    traced, plain = [], []
    deadline = time.perf_counter() + seconds
    cycles = 0
    while cycles == 0 or time.perf_counter() < deadline:
        for traced_turn in ((True, False) if cycles % 2 == 0 else (False, True)):
            if not traced_turn:
                plain.extend(runner.run(op) for op in ops)
                continue
            tracer.install()
            try:
                for k, op in enumerate(ops):
                    tracer.op = cycles * len(ops) + k
                    traced.append(runner.run(op, tracer))
            finally:
                tracer.remove()
        cycles += 1
    return tracer, traced, plain, cycles


def latency_metrics(outcomes, attr):
    """ops_per_s, op_p50_ms and the tail percentile from one time column."""
    seconds = [getattr(o, attr) for o in outcomes]
    ms = [s * 1e3 for s in seconds]
    completed = sum(1 for o in outcomes if o.error is None)
    return {
        "ops_per_s": completed / sum(seconds),
        "op_p50_ms": statistics.median(ms),
        f"op_p{TAIL_PERCENTILE}_ms": statistics.quantiles(
            ms, n=100, method="inclusive")[TAIL_PERCENTILE - 1],
    }


def end_to_end_metrics(outcomes, setup_ref_s):
    values = latency_metrics(outcomes, "ref_seconds")
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["setup_s"] = statistics.median(setup_ref_s)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer_metrics(tracer, traced, plain, cycles, cycle_len):
    ops = cycles * cycle_len
    tracer.counts["cli.artifact_bytes"] = sum(o.artifact_bytes for o in traced)
    traced_s = sum(o.ref_seconds for o in traced)
    plain_s = sum(o.ref_seconds for o in plain)

    def value(name):
        if name == "trace.overhead_pct":
            return 100.0 * (traced_s / plain_s - 1.0)
        if name.endswith(".self_ms"):
            return tracer.self_s[name[:-len(".self_ms")]] * 1e3 / ops
        if name.endswith(".calls"):
            return tracer.calls[name[:-len(".calls")]] / ops
        return tracer.counts[name] / ops

    return {name: {"value": value(name), "unit": unit}
            for name, unit, _ in PER_LAYER}


def git_sha():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "clients": 1,
        "loop": "closed",
        "cal_reference_s": CAL_REFERENCE_S,
    }


def check_declared(metrics, key):
    """The metric names must be the ones BENCHMARK.json declares."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    declared = [m["name"] for m in json.loads(path.read_text())[key]]
    if sorted(declared) != sorted(metrics):
        raise BenchError(f"metrics {sorted(metrics)} do not match "
                         f"BENCHMARK.json {key} {sorted(declared)}")


def _row(name, value, unit, note=""):
    return f"  {name:<42} {value:>14.6g} {unit}{note}"


def main(argv=None) -> int:
    args = parse_args(argv)
    work = OUT_ROOT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        package_src()
        if args.probe_started is not None:
            run_probe(args, work)
            return 0
        probes = ([] if args.trace
                  else [probe_setup(args) for _ in range(SETUP_REPEATS)])
        wl, runner, warm = setup(args, work, Calibrator())
        if args.trace:
            tracer, traced, plain, cycles = traced_loop(wl.ops, runner, args.seconds)
            outcomes = warm + traced + plain
            metrics = per_layer_metrics(tracer, traced, plain, cycles, len(wl.ops))
            check_declared(metrics, "per_layer")
            tracer.write(OUT_ROOT / f"spans-{args.workload}-s{args.seed}.jsonl")
        else:
            timed = timed_loop(wl.ops, runner, args.seconds)
            outcomes = warm + timed
            metrics = end_to_end_metrics(timed, [ref for _, ref in probes])
            check_declared(metrics, "end_to_end")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = [o.error for o in outcomes if o.error is not None]
    for err in sorted(set(errors))[:10]:
        print(f"failed op: {err}", file=sys.stderr)
    print("provenance: " + json.dumps(provenance(args), sort_keys=True))
    print("inputs: " + json.dumps(wl.inputs))
    if args.trace:
        print(f"samples: {cycles} traced and {cycles} untraced cycles of "
              f"{len(wl.ops)} ops; times at reference speed")
        targets = {name: target for name, _, target in PER_LAYER}
        for name, metric in metrics.items():
            print(_row(name, metric["value"], metric["unit"],
                       f"  -> {targets[name]}"))
    else:
        above = len(timed) * (100 - TAIL_PERCENTILE) // 100
        print(f"samples: {len(timed)} timed ops ({above} above "
              f"p{TAIL_PERCENTILE}), {len(warm)} warm-up ops, setup_s from "
              f"{len(probes)} fresh interpreters")
        if above < MIN_TAIL_SAMPLES:
            print(f"note: fewer than {MIN_TAIL_SAMPLES} samples above "
                  f"p{TAIL_PERCENTILE}", file=sys.stderr)
        print(_row("failed_frac", len(errors) / len(outcomes), "fraction"))
        for name, metric in metrics.items():
            print(_row(name, metric["value"], metric["unit"]))
        raw = latency_metrics(timed, "seconds")
        raw["setup_s"] = statistics.median(s for s, _ in probes)
        print("raw wall clock of the ops: " + ", ".join(
            f"{k}={v:.6g}" for k, v in raw.items())
            + f"; median speed scale {statistics.median(o.scale for o in timed):.4g}")
    print(json.dumps({"correct": not errors, "attempted": len(outcomes),
                      "failed": len(errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
