"""Poisson photon-counting simulation and violation statistics.

A run visits every measurement setting of a set (each diagonal and both
orientations of each edge), accumulates coincidence counts for a fixed
exposure, and estimates the inequality value with propagated counting
errors.  Counts are Poisson distributed around N * P, where N, the
exposure, is the calibrated number of pairs per setting and P the table
that ``predict`` writes.  A run is parameterised by N alone, and it
draws its counts from one PRNG stream keyed by its seed, so the whole
pipeline is a pure function of the set, the noise configuration, the
exposure and the seed.  Its verdict is the violation in standard
deviations and the exact-model Poisson p-value, a closed form, no draw.

``SicSet.settings`` is the one record of the setting order: ``counts[k]``
of a record and ``values[k]`` of a table belong to ``sic.settings[k]``,
and neither carries the order itself.  The only layout check is the size
check at the top of :func:`estimate_beta`, on a table's values and
sigmas and a record's counts.  Results are plain
dataclasses; the CLI alone turns them into artifact files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import max_weight_independent_set
from .catalog import SicSet
from .noise import NoiseConfig, expected_bell_value
from .quantum import ProbabilityTable

_MAX_SEED = 2**64
_MAX_MEAN = 2.0**63 - 10 * math.sqrt(2.0**63)  # numpy's largest Poisson mean
_COUNTS_STREAM = 0x636F756E
# (j, (j - 1)/j!): y e^y - e^y + 1 = sum_j (j - 1) y^j / j!, to j = 20
_EXCESS_SERIES = [(j, (j - 1) / math.factorial(j)) for j in range(2, 21)]


@dataclass(frozen=True)
class CountRecord:
    """Raw coincidence counts for one run, with the exposure and seed.

    ``counts[k]`` belongs to ``sic.settings[k]`` of the run's set.
    """

    counts: tuple[int, ...]
    exposure: float
    seed: int

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")
        if not 0 < self.exposure < math.inf:
            raise ValueError(f"exposure must be positive and finite, not {self.exposure}")


@dataclass(frozen=True)
class ViolationReport:
    """Estimated inequality value and its statistical significance:
    ``sigmas_of_violation`` = (beta_hat - alpha) / sigma, and, for a run
    with counts, ``poisson_p_value`` = P(beta* <= alpha)."""

    set_name: str
    beta_hat: float
    sigma: float
    alpha: float
    sigmas_of_violation: float
    poisson_p_value: Optional[float] = None


def simulate_counts(table: ProbabilityTable, exposure: float,
                    seed: int) -> CountRecord:
    """Draw Poisson counts around N * P for every setting of a table.

    N = ``exposure`` is the calibrated number of pairs per setting.  One
    vectorised draw, in table order, from the run's single PRNG stream
    derived from (seed, _COUNTS_STREAM): identical seeds and tables give
    identical records.
    """
    if not 0 < exposure < math.inf:
        raise ValueError(f"exposure must be positive and finite, not {exposure}")
    if not 0 <= seed < _MAX_SEED:
        raise ValueError("seed must fit in 64 bits")
    means = exposure * table.values
    if means.max() > _MAX_MEAN:
        raise OverflowError(
            f"expected count {means.max()} exceeds the counter range")
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, _COUNTS_STREAM]))
    counts = tuple(rng.poisson(means).tolist())
    return CountRecord(counts=counts, exposure=exposure, seed=seed)


def estimate_probabilities(rec: CountRecord) -> ProbabilityTable:
    """Normalized probabilities with Poisson standard errors, in record order.

    P = C/N and sigma = sqrt(C)/N; empty settings get sigma = 1/N so no
    term ever claims zero variance.  An exposure so small that these
    overflow raises ArithmeticError.
    """
    counts = np.array(rec.counts, dtype=float)
    with np.errstate(over="ignore"):
        values = counts / rec.exposure
        sigmas = np.where(counts > 0, np.sqrt(counts), 1.0) / rec.exposure
    if not np.isfinite([values, sigmas]).all():
        raise ArithmeticError(f"exposure {rec.exposure} is too small: P or sigma overflows")
    return ProbabilityTable(values, sigmas)


def _poisson_lower_tail(coeffs, counts, bound: float) -> float:
    """P(sum_k l_k N_k <= bound), N_k ~ Poisson(T_k) independent, where l_k
    is a distinct coefficient and T_k the sum of its counts.  This is
    Lugannani-Rice's saddle point with Daniels' lattice correction: with
    K(t) = sum_k T_k (e^{l_k t} - 1), delta the gcd of the levels and x
    the largest multiple of delta <= bound, K'(t) = x + delta/2 and
    u = 2 sinh(t delta/2)/delta sqrt(K''(t)).  A bound outside the
    support gives exactly 0 or 1."""
    levels, group = np.unique(coeffs, return_inverse=True)
    groups = [(l, n) for l, n in zip(levels.tolist(),
                                     np.bincount(group, weights=counts).tolist()) if l and n]
    if bound >= 0 and all(l < 0 for l, _ in groups):
        return 1.0
    if bound < 0 and all(l > 0 for l, _ in groups):
        return 0.0
    # a float is n/d exactly, d a power of 2 dividing 2**1074: an exact gcd
    ratios = [l.as_integer_ratio() for l, _ in groups]
    delta = math.gcd(*[n * 2**1074 // d for n, d in ratios]) / 2**1074
    s = delta * math.floor(bound / delta) + delta / 2
    # K' increases, concave then convex (K'''' > 0): Newton's steps close on
    # the root from one side after one overshoot at most; a step at most
    # doubles |t| + 1, so a flat K' cannot throw t past exp's range.  They
    # stop once w is within 1e-10, or K' - s within a few ulps of its
    # terms, where rounding alone moves it (group totals past about 1e11)
    t = 0.0
    for _ in range(100):
        terms = [n * l * math.exp(l * t) for l, n in groups]
        slope = sum(terms) - s
        curve = sum(n * l * l * math.exp(l * t) for l, n in groups)
        if abs(slope) <= max(1e-10 * math.sqrt(curve),
                             4 * math.ulp(1.0) * (sum(map(abs, terms)) + abs(s))):
            break
        t = min(max(t - slope / curve, t - 1 - abs(t)), t + 1 + abs(t))
    # w^2/2 = t K'(t) - K(t) = sum_k T_k g(l_k t), g(y) = y e^y - e^y + 1 >= 0;
    # for |y| < 1, where that form cancels, g is taken from its series
    g = [sum(c * (l * t)**j for j, c in _EXCESS_SERIES) if abs(l * t) < 1
         else l * t * math.exp(l * t) - math.expm1(l * t) for l, _ in groups]
    w = math.copysign(math.sqrt(2 * sum(n * x for (_, n), x in zip(groups, g))), t)
    if not w:  # x + delta/2 at the mean: the formula's limit
        return 0.5 + sum(n * l**3 for l, n in groups) / curve**1.5 / math.sqrt(72 * math.pi)
    u = 2 * math.sinh(t * delta / 2) / delta * math.sqrt(curve)
    return (0.5 * math.erfc(-w / math.sqrt(2))
            + math.exp(-w * w / 2) / math.sqrt(2 * math.pi) * (1 / w - 1 / u))


def estimate_beta(table: ProbabilityTable, sic: SicSet,
                  record: Optional[CountRecord] = None) -> ViolationReport:
    """Evaluate the inequality on an estimated table with error bars.

    The error bar sigma propagates the per-setting sigmas through the
    signed weights, alpha is the exact independence bound of the set's
    graph, and the violation is (beta_hat - alpha) / sigma standard
    deviations.  With ``record`` given, the p-value P(beta* <= alpha) of
    counts redrawn from Poisson(C) is reported too.  beta* is linear in
    the counts with a handful of distinct coefficients l_k, and a sum of
    independent Poissons is Poisson, so that is the tail of
    sum_k l_k N_k, N_k ~ Poisson(group k's total count), which
    :func:`_poisson_lower_tail` evaluates with no draw.
    A table (values or sigmas) or record whose length is not
    ``len(sic.settings)``, or a table without sigmas, raises ValueError;
    a sigma that overflows, or underflows to 0, raises ArithmeticError.
    """
    size = len(sic.settings)
    for entries in ([table.values]
                    + ([] if table.sigmas is None else [table.sigmas])
                    + ([] if record is None else [record.counts])):
        if len(entries) != size:
            raise ValueError(f"{len(entries)} entries given for the {size} "
                             f"settings of set {sic.name}")
    if table.sigmas is None:
        raise ValueError(f"the table for set {sic.name} has no error bars")
    coeffs = sic.coefficients
    beta_hat = float(coeffs @ table.values)
    alpha = float(max_weight_independent_set(sic.graph)[0])
    with np.errstate(over="ignore"):
        sigma = float(math.sqrt(coeffs**2 @ table.sigmas**2))
    if not math.isfinite(sigma):
        raise ArithmeticError("exposure too small: the error bar of beta_hat overflows")
    if not sigma:
        raise ArithmeticError("exposure too large: the error bar of beta_hat underflows to 0")
    tail = None if record is None else _poisson_lower_tail(
        coeffs, record.counts, alpha * record.exposure)
    return ViolationReport(
        set_name=sic.name,
        beta_hat=beta_hat,
        sigma=sigma,
        alpha=alpha,
        sigmas_of_violation=(beta_hat - alpha) / sigma,
        poisson_p_value=tail,
    )


def fit_visibility(target_beta: float, sic: SicSet) -> float:
    """Invert the white-noise model: the visibility whose expected value
    equals ``target_beta`` at zero crosstalk and flat spectrum.

    The functional is affine in the state, so
    v = (target - beta_mixed) / (beta_ideal - beta_mixed),
    with beta_ideal = sum(w) / d.
    """
    d = sic.dimension
    beta_ideal = sum(sic.weights) / d
    # every rank-1 effect has probability 1/d^2 on the maximally mixed state
    beta_mixed = float(sic.coefficients.sum()) / d**2
    if not beta_ideal > beta_mixed:  # d = 1: the mixed state is the ideal one
        raise ValueError(f"white noise cannot move beta for set {sic.name}")
    if not beta_mixed - 1e-12 <= target_beta <= beta_ideal + 1e-12:
        raise ValueError(
            f"target {target_beta} outside the reachable range "
            f"[{beta_mixed}, {beta_ideal}]")
    v = (target_beta - beta_mixed) / (beta_ideal - beta_mixed)
    return min(max(v, 0.0), 1.0)


def exposure_for_sigma(sic: SicSet, cfg: NoiseConfig,
                       sigma_target: float) -> float:
    """Pairs per setting needed to reach a requested error bar.

    Var(beta_hat) = sum coeff^2 P / N for Poisson counting, so the
    exposure scales as the inverse square of the target sigma.  A target
    so small that the exposure is not a finite number is refused.
    """
    if not 0 < sigma_target < math.inf:
        raise ValueError(f"sigma_target must be positive and finite, "
                         f"not {sigma_target}")
    _, table = expected_bell_value(sic, cfg)
    weight = float(sic.coefficients**2 @ table.values)
    square = sigma_target**2
    pairs = weight / square if square > 0 else math.inf
    if not math.isfinite(pairs):
        raise ValueError(f"sigma_target {sigma_target} is too small: "
                         "the exposure it needs is not finite")
    return pairs


def run_experiment(sic: SicSet, cfg: NoiseConfig, exposure: float, seed: int
                   ) -> tuple[CountRecord, ProbabilityTable, ViolationReport]:
    """The full pipeline: noise model, counts at ``exposure`` pairs per
    setting, estimates, significance."""
    _, expected = expected_bell_value(sic, cfg)
    record = simulate_counts(expected, exposure, seed)
    table = estimate_probabilities(record)
    report = estimate_beta(table, sic, record)
    return record, table, report
