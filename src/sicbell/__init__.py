"""Bell inequalities from state-independent contextuality sets.

The package turns a set of rays whose orthogonality structure forbids a
classical 0/1 assignment into a bipartite inequality: diagonal joint
probabilities enter with positive weights, orthogonal pairs with
negative ones.  It computes the classical bound exactly, and the Lovasz
bound theta_graph in closed form when every coordinate block of the set
has one (ks18, ks21 and their direct sums), with an in-house ADMM SDP
solver otherwise.  The quantum ceiling, the top eigenvalue of the Bell
operator, is bracketed by the blocks' maximally entangled states and
theta_graph; a block's operator is built only when that bracket is
wider than tol.  It predicts quantum values from the Born rule's closed
form on the noisy two-photon model and simulates noisy photon-counting
runs.

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
