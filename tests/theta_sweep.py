"""Certification sweep for the theta_graph solver.

Runs ``solve_theta`` on 63 graphs and prints, per graph, whether it
certified, its iterations and its final bracket width, then the totals.
The graphs are 60 seeded random graphs and yo13's orthogonality graph
at uniform weights 1, 3 and 5:

* ``random.Random(12345)``; for k in 0..59, ``n = randint(2, 40)`` and
  ``p = random() * 0.8``; an edge for every pair of
  ``combinations(range(n), 2)``, in order, where ``random() < p``; unit
  weights for even k, else ``randint(1, 9)`` per vertex.

Each runs at the default tol with ``max_iter=20_000``; a graph that
does not certify, or whose bracket stalls first, counts the iterations
it ran.  The script has no ``test_`` prefix, so pytest does not collect
it; run it as

    PYTHONPATH=src python tests/theta_sweep.py --min-certified 60

It exits 1 when fewer than ``--min-certified`` graphs certify.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from itertools import combinations

from sicbell.bounds import ThetaNonConvergence, solve_theta
from sicbell.catalog import WeightedGraph, get_set

MAX_ITER = 20_000


def sweep_graphs():
    """``(label, graph)`` for the 63 graphs of the sweep, in order."""
    rng = random.Random(12345)
    for k in range(60):
        n = rng.randint(2, 40)
        p = rng.random() * 0.8
        edges = tuple(e for e in combinations(range(n), 2) if rng.random() < p)
        weights = ((1,) * n if k % 2 == 0
                   else tuple(rng.randint(1, 9) for _ in range(n)))
        yield f"k={k} p={p:.2f}", WeightedGraph(n, weights, edges)
    edges = get_set("yo13").graph.edges
    for w in (1, 3, 5):
        yield f"yo13 w={w}", WeightedGraph(13, (w,) * 13, edges)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--min-certified", type=int, default=0,
                        help="exit 1 when fewer graphs certify")
    args = parser.parse_args(argv)

    certified = total = graphs = 0
    start = time.perf_counter()
    for label, g in sweep_graphs():
        t0 = time.perf_counter()
        try:
            res = solve_theta(g, max_iter=MAX_ITER)
            ok, iterations, width = True, res.iterations, res.gap
        except ThetaNonConvergence as exc:
            ok, iterations = False, exc.iterations
            width = exc.dual_bound - exc.primal_bound
        graphs += 1
        certified += ok
        total += iterations
        print(f"{label:<14} n={g.n:<3} edges={len(g.edges):<4} "
              f"{'certified' if ok else 'UNCERTIFIED':<11} "
              f"iterations={iterations:<6} width={width:.2e} "
              f"{time.perf_counter() - t0:.2f}s", flush=True)
    print(f"certified {certified}/{graphs}, {total} iterations, "
          f"{time.perf_counter() - start:.1f}s")
    if certified < args.min_certified:
        print(f"error: {certified} certified, fewer than {args.min_certified}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
