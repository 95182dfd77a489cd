"""The three workloads: generated inputs, the op cycle and the output oracle.

* ``bounds-catalog`` cycles ``sicbell bounds`` over yo13, ks18 and ks21.
  Time goes to per-call work at catalog size: the exact graph build
  (three times per op), both ADMM loops and the kron loops.
* ``simulate-sweep`` cycles ``sicbell simulate`` over the three sets and
  four simulation seeds, with one noisy configuration and the default
  10k bootstrap replicates.  Time goes to the noise model, the
  per-setting probability and Poisson loop, and the bootstrap.
* ``scaled-sets`` runs the bounds layers at 31-39 vertices, where
  algorithmic scaling dominates: ``bounds`` on the direct sums
  yo13+ks18 (n=31, d=7) and ks18+ks21 (n=39, d=10), and
  ``max_weight_independent_set`` plus ``solve_theta`` on the disjoint
  union ks18|ks21 (n=39).  Unions of 52-63 vertices are left out: each
  takes 10-21 s in the branch and bound on a 2-core x86-64 VM.

The workload seed picks the cycle order, the simulation seeds and the
vertex relabelling of the scaled inputs; the program under test only
sees the generated inputs.  Every check below is exact or has a stated
tolerance; an op whose check fails counts as failed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import sicbell.bounds
import sicbell.catalog
import sicbell.cli
import sicbell.noise

WORKLOADS = ("bounds-catalog", "simulate-sweep", "scaled-sets")

CATALOG = ("yo13", "ks18", "ks21")
# alpha and theta of each catalog set
PINNED = {"yo13": (11, 35 / 3), "ks18": (4, 4.5), "ks21": (3, 3.5)}
PINNED_THETA_TOL = 1e-4
BOUNDS_TOL = 1e-6                 # the bounds command's default --tol

SIM_CONFIG = {"visibility": 0.97, "crosstalk": 0.01, "spectrum_width": 4,
              "bootstrap_replicates": 10_000}
SIM_SEEDS = 4
SIGMA_LIMIT = 6.0

DIRECT_SUMS = (("yo13", "ks18"), ("ks18", "ks21"))
UNION = ("ks18", "ks21")

# Ops run once each before timing: one per distinct set.
WARMUP_OPS = 3

Check = Callable[[dict], Optional[str]]


@dataclass
class Op:
    """One closed-loop operation.

    A CLI op runs ``sicbell.cli.main(argv + ["--out", dir])`` and its
    check reads ``report`` from the files it wrote.  A graph op calls the
    public bounds API on ``graph``.  Ops with the same ``key`` have the
    same input, so their artifacts must match byte for byte.
    """

    key: str
    check: Check
    argv: Optional[list] = None
    report: Optional[str] = None
    graph: object = None


@dataclass
class Workload:
    ops: list       # one cycle
    inputs: list    # n, d, edges and settings of each input


def build(name: str, seed: int, inputs_dir: Path) -> Workload:
    """Generate the inputs for one workload and seed, and its op cycle."""
    inputs_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    if name == "bounds-catalog":
        return _bounds_catalog(rng)
    if name == "simulate-sweep":
        return _simulate_sweep(rng, inputs_dir)
    if name == "scaled-sets":
        return _scaled_sets(rng, inputs_dir)
    raise ValueError(f"unknown workload {name!r}")


def _record(label, n, d, edges):
    return {"input": label, "n": n, "d": d, "edges": edges,
            "settings": n + 2 * edges}


def _catalog_record(set_name):
    sic = sicbell.catalog.get_set(set_name)
    edges = len(sicbell.catalog.orthogonality_graph(sic).edges)
    return _record(set_name, sic.n, sic.dimension, edges)


def _near(value, target, tol):
    return abs(value - target) <= tol


def _bounds_catalog(rng) -> Workload:
    order = rng.sample(CATALOG, len(CATALOG))

    def check_for(set_name):
        alpha, theta = PINNED[set_name]

        def check(doc):
            if doc["alpha"] != alpha:
                return f"alpha {doc['alpha']} != {alpha}"
            if not _near(doc["theta"], theta, PINNED_THETA_TOL):
                return f"theta {doc['theta']} not within {PINNED_THETA_TOL} of {theta}"
            return _gaps(doc)
        return check

    ops = [Op(f"bounds:{s}", check_for(s), argv=["bounds", s],
              report=f"{s}_bounds.json") for s in order]
    return Workload(ops, [_catalog_record(s) for s in order])


def _gaps(doc):
    for key in ("theta_gap", "theta_graph_gap"):
        if not 0.0 <= doc[key] <= BOUNDS_TOL:
            return f"{key} {doc[key]} outside [0, {BOUNDS_TOL}]"
    return None


def _simulate_sweep(rng, inputs_dir) -> Workload:
    config = inputs_dir / "simulate.json"
    config.write_text(json.dumps(SIM_CONFIG, sort_keys=True) + "\n")
    order = rng.sample(CATALOG, len(CATALOG))
    seeds = [rng.randrange(2**63) for _ in range(SIM_SEEDS)]

    def check_for(set_name):
        sic = sicbell.catalog.get_set(set_name)
        cfg = sicbell.cli.load_run_config(str(config), set_name, None)
        expected, _ = sicbell.noise.expected_bell_value(
            sic, cfg.noise_config(sic.dimension))

        def check(doc):
            if not abs(doc["beta_hat"] - expected) <= SIGMA_LIMIT * doc["sigma"]:
                return (f"beta_hat {doc['beta_hat']} more than {SIGMA_LIMIT} "
                        f"sigma ({doc['sigma']}) from {expected}")
            return None
        return check

    checks = {s: check_for(s) for s in order}
    ops = [Op(f"simulate:{s}:{k}", checks[s],
              argv=["simulate", "--config", str(config), "--set", s,
                    "--seed", str(k)],
              report=f"{s}_report.json")
           for k in seeds for s in order]
    inputs = [_catalog_record(s) for s in order]
    for rec in inputs:
        rec["seeds"] = seeds
    return Workload(ops, inputs)


def _part(set_name):
    """A catalog set, its exact graph and its independence number."""
    sic = sicbell.catalog.get_set(set_name)
    graph = sicbell.catalog.orthogonality_graph(sic)
    alpha, _ = sicbell.bounds.max_weight_independent_set(graph)
    return sic, graph, alpha


def _relabel(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _direct_sum_doc(a, b, perm):
    """The set a (+) b in dimension d_a + d_b: each vector zero-padded into
    its own block, vertex i placed at position perm[i]."""
    da, db = a.dimension, b.dimension
    rows = ([[[s.a, s.b] for s in v] + [[0, 0]] * db for v in a.vectors]
            + [[[0, 0]] * da + [[s.a, s.b] for s in v] for v in b.vectors])
    weights = list(a.weights) + list(b.weights)
    vectors = [None] * len(rows)
    placed = [0] * len(rows)
    for i, p in enumerate(perm):
        vectors[p] = rows[i]
        placed[p] = weights[i]
    return {"name": f"{a.name}_{b.name}", "dimension": da + db,
            "vectors": vectors, "weights": placed}


def _scaled_sets(rng, inputs_dir) -> Workload:
    parts = {s: _part(s) for s in CATALOG}
    ops, inputs = [], []

    for left, right in DIRECT_SUMS:
        (a, ga, alpha_a), (b, gb, alpha_b) = parts[left], parts[right]
        n = a.n + b.n
        doc = _direct_sum_doc(a, b, _relabel(rng, n))
        # every vector of one block is orthogonal to every vector of the other
        edges = len(ga.edges) + len(gb.edges) + a.n * b.n
        doc["expected_edges"] = edges
        path = inputs_dir / f"{doc['name']}.json"
        path.write_text(json.dumps(doc) + "\n")
        inputs.append(_record(doc["name"], n, doc["dimension"], edges))
        ops.append(Op(f"bounds:{doc['name']}", _direct_sum_check(max(alpha_a, alpha_b)),
                      argv=["bounds", str(path)],
                      report=f"{doc['name']}_bounds.json"))

    (_, g1, alpha_1), (_, g2, alpha_2) = (parts[s] for s in UNION)
    theta_1, theta_2 = (sicbell.bounds.solve_theta(g, tol=BOUNDS_TOL) for g in (g1, g2))
    perm = _relabel(rng, g1.n + g2.n)
    weights = [0] * len(perm)
    for i, w in enumerate(g1.weights + g2.weights):
        weights[perm[i]] = w
    shifted = list(g1.edges) + [(i + g1.n, j + g1.n) for i, j in g2.edges]
    edges = tuple(sorted((min(perm[i], perm[j]), max(perm[i], perm[j]))
                         for i, j in shifted))
    union = sicbell.catalog.WeightedGraph(len(perm), tuple(weights), edges)
    label = f"{UNION[0]}|{UNION[1]}"
    (inputs_dir / "union.json").write_text(json.dumps(
        {"name": label, "n": union.n, "weights": weights,
         "edges": [list(e) for e in edges]}) + "\n")
    inputs.append(_record(label, union.n, None, len(edges)))
    ops.append(Op(f"graph:{label}",
                  _union_check(alpha_1 + alpha_2, theta_1, theta_2),
                  graph=union))
    return Workload(ops, inputs)


def _direct_sum_check(alpha_join):
    """The graph of a direct sum is the join of the parts' graphs, so its
    independence number is the larger of the parts'."""
    def check(doc):
        if doc["alpha"] != alpha_join:
            return f"alpha {doc['alpha']} != {alpha_join}"
        if doc["alpha"] > doc["theta_graph"] + doc["theta_graph_gap"]:
            return f"alpha {doc['alpha']} above theta_graph {doc['theta_graph']}"
        if doc["beta_ideal"] > doc["theta"] + doc["theta_gap"]:
            return f"beta_ideal {doc['beta_ideal']} above theta {doc['theta']}"
        return _gaps(doc)
    return check


def _union_check(alpha_sum, theta_1, theta_2):
    """Independence number and theta are additive over a disjoint union."""
    theta_sum = theta_1.value + theta_2.value

    def check(doc):
        if doc["alpha"] != alpha_sum:
            return f"alpha {doc['alpha']} != {alpha_sum}"
        slack = doc["theta_gap"] + theta_1.gap + theta_2.gap
        if not _near(doc["theta"], theta_sum, slack):
            return f"theta {doc['theta']} not within {slack} of {theta_sum}"
        if doc["alpha"] > doc["theta"] + doc["theta_gap"]:
            return f"alpha {doc['alpha']} above theta {doc['theta']}"
        return None
    return check


def run_graph_op(graph) -> dict:
    """The graph-API op: exact MWIS, then the certified theta number."""
    alpha, witness = sicbell.bounds.max_weight_independent_set(graph)
    theta = sicbell.bounds.solve_theta(graph)
    return {"alpha": alpha, "witness": list(witness), "theta": theta.value,
            "theta_gap": theta.gap}
