"""Bell inequalities from state-independent contextuality sets.

The package turns a set of rays whose orthogonality structure forbids a
classical 0/1 assignment into a bipartite inequality: diagonal joint
probabilities enter with positive weights, orthogonal pairs with
negative ones.  It computes the classical bound exactly, the quantum
ceiling as the top eigenvalue of the Bell operator, and the Lovasz bound
with an in-house ADMM SDP solver; it predicts quantum values from one
Born-rule contraction and simulates noisy photon-counting runs.

The top level re-exports the few names a typical script needs; every
other name is imported from its submodule (``sicbell.catalog``,
``sicbell.bounds``, ``sicbell.quantum``, ``sicbell.noise``,
``sicbell.montecarlo``, ``sicbell.cli``).
"""

from .bounds import bounds_report
from .catalog import get_set
from .montecarlo import exposure_for_sigma, fit_visibility, run_experiment
from .noise import NoiseConfig

__version__ = "0.1.0"

__all__ = [
    "NoiseConfig",
    "bounds_report",
    "exposure_for_sigma",
    "fit_visibility",
    "get_set",
    "run_experiment",
]
