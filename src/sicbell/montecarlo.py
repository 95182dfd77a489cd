"""Poisson photon-counting simulation and violation statistics.

A run visits every measurement setting of a set (each diagonal and both
orientations of each edge), accumulates coincidence counts for a fixed
exposure, and estimates the inequality value with propagated counting
errors.  Counts are Poisson distributed around N * P, where N, the
exposure, is the calibrated number of pairs per setting and P the table
that ``predict`` writes.  A run is parameterised by N alone, and it
draws its counts from one PRNG stream keyed by its seed, so the whole
pipeline is a pure function of the set, the noise configuration, the
exposure and the seed.

``SicSet.settings`` is the one record of the setting order: ``counts[k]``
of a record and ``values[k]`` of a table belong to ``sic.settings[k]``,
and neither carries the order itself.  The only layout check is the size
check at the top of :func:`estimate_beta`.  Results are plain
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
_BOOTSTRAP_STREAM = 0x626F6F74
_COUNTS_STREAM = 0x636F756E


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
    """Estimated inequality value and its statistical significance."""

    set_name: str
    beta_hat: float
    sigma: float
    alpha: float
    sigmas_of_violation: float
    p_value: float
    bootstrap_p_value: Optional[float] = None


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


def estimate_beta(table: ProbabilityTable, sic: SicSet,
                  record: Optional[CountRecord] = None, *,
                  bootstrap_replicates: int = 0) -> ViolationReport:
    """Evaluate the inequality on an estimated table.

    The error bar propagates the per-setting sigmas through the signed
    weights, and alpha is the exact independence bound of the set's
    graph.  With ``record`` and ``bootstrap_replicates`` given, a
    parametric bootstrap p-value (counts resampled from Poisson(C)) is
    reported next to the Gaussian one.  beta* is linear in the counts
    with a handful of distinct coefficients, and a sum of independent
    Poissons is Poisson, so each replicate draws one Poisson per
    coefficient, with mean the group's total count, not one per setting.
    A table or record whose length is not ``len(sic.settings)`` raises
    ValueError.
    """
    size = len(sic.settings)
    for entries in [table.values] + ([] if record is None else [record.counts]):
        if len(entries) != size:
            raise ValueError(f"{len(entries)} entries given for the {size} "
                             f"settings of set {sic.name}")
    coeffs = sic.coefficients
    beta_hat = float(coeffs @ table.values)
    alpha = float(max_weight_independent_set(sic.graph)[0])
    if table.sigmas is None:
        sigma = 0.0
    else:
        with np.errstate(over="ignore"):
            sigma = float(math.sqrt(coeffs**2 @ table.sigmas**2))
        if not math.isfinite(sigma):
            raise ArithmeticError("exposure too small: the error bar of beta_hat overflows")

    if sigma > 0.0:
        z = (beta_hat - alpha) / sigma
        p_value = 0.5 * math.erfc(z / math.sqrt(2.0))
    else:
        z = math.inf if beta_hat > alpha else (-math.inf if beta_hat < alpha else 0.0)
        p_value = 0.0 if beta_hat > alpha else 1.0

    boot = None
    if bootstrap_replicates > 0:
        if record is None:
            raise ValueError("bootstrap needs the count record")
        levels, group = np.unique(coeffs, return_inverse=True)
        totals = np.bincount(group, weights=record.counts)
        # numpy's Poisson takes means up to _MAX_MEAN, which bounds one
        # setting but not a group total: draw that in parts
        parts = 1 + int(totals.max() // 2.0**62)
        rng = np.random.default_rng(
            np.random.SeedSequence([record.seed, _BOOTSTRAP_STREAM]))
        draws = rng.poisson(lam=totals / parts,
                            size=(bootstrap_replicates, parts, levels.size))
        betas = draws.sum(axis=1, dtype=float) @ levels / record.exposure
        boot = float(np.mean(betas <= alpha))

    return ViolationReport(
        set_name=sic.name,
        beta_hat=beta_hat,
        sigma=sigma,
        alpha=alpha,
        sigmas_of_violation=z,
        p_value=p_value,
        bootstrap_p_value=boot,
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
    if weight <= 0:
        raise ValueError("all settings have zero probability")
    square = sigma_target**2
    pairs = weight / square if square > 0 else math.inf
    if not math.isfinite(pairs):
        raise ValueError(f"sigma_target {sigma_target} is too small: "
                         "the exposure it needs is not finite")
    return pairs


def run_experiment(sic: SicSet, cfg: NoiseConfig, exposure: float, seed: int,
                   *, bootstrap_replicates: int = 0
                   ) -> tuple[CountRecord, ProbabilityTable, ViolationReport]:
    """The full pipeline: noise model, counts at ``exposure`` pairs per
    setting, estimates, significance."""
    _, expected = expected_bell_value(sic, cfg)
    record = simulate_counts(expected, exposure, seed)
    table = estimate_probabilities(record)
    report = estimate_beta(table, sic, record,
                           bootstrap_replicates=bootstrap_replicates)
    return record, table, report
