"""Poisson photon-counting simulation and violation statistics.

A run visits every measurement setting of a set (each diagonal and both
orientations of each edge), accumulates coincidence counts for a fixed
exposure, and estimates the inequality value with propagated counting
errors.  Counts are Poisson distributed around N * P, where N is the
calibrated number of pairs per setting exposure, so the whole pipeline
is a pure function of the plan, the noise configuration, and the seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .bounds import max_weight_independent_set
from .catalog import SicSet, bell_settings
from .noise import (IDEAL, NoiseConfig, PredictionInputs, apply_noise,
                    expected_bell_value)
from .quantum import ProbabilityTable

_MAX_SEED = 2**64
_MAX_MEAN = float(2**63)
_BOOTSTRAP_STREAM = 0x626F6F74


@dataclass(frozen=True)
class RunPlan:
    """What to measure and for how long.

    ``settings`` lists the (i, j) ray pairs to visit; ``pair_rate`` is the
    expected coincidence rate for a unit-probability setting, so one
    setting's exposure corresponds to N = pair_rate * integration_time
    source pairs.  ``seed`` makes the run reproducible.
    """

    set_name: str
    settings: tuple[tuple[int, int], ...]
    pair_rate: float
    integration_time: float
    seed: int

    def __post_init__(self):
        object.__setattr__(
            self, "settings",
            tuple((int(i), int(j)) for i, j in self.settings))
        if not self.settings:
            raise ValueError("plan needs at least one setting")
        if len(set(self.settings)) != len(self.settings):
            raise ValueError("duplicate settings in plan")
        if not self.pair_rate > 0:
            raise ValueError("pair_rate must be positive")
        if not self.integration_time > 0:
            raise ValueError("integration_time must be positive")
        if not math.isfinite(self.exposure):
            raise ValueError("pair_rate * integration_time is not finite")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed must fit in 64 bits")

    @property
    def exposure(self) -> float:
        """Calibrated pairs per setting, N = rate * time."""
        return self.pair_rate * self.integration_time


def plan_for(sic: SicSet, pair_rate: float, integration_time: float,
             seed: int) -> RunPlan:
    """A plan covering every setting of a set in canonical order."""
    return RunPlan(
        set_name=sic.name,
        settings=sic.settings,
        pair_rate=pair_rate,
        integration_time=integration_time,
        seed=seed,
    )


@dataclass(frozen=True)
class CountRecord:
    """Raw coincidence counts for one run, with the exposure and seed."""

    set_name: str
    settings: tuple[tuple[int, int], ...]
    counts: tuple[int, ...]
    exposure: float
    seed: int

    def __post_init__(self):
        if len(self.counts) != len(self.settings):
            raise ValueError("one count per setting required")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")
        if not self.exposure > 0:
            raise ValueError("exposure must be positive")

    def to_json_dict(self) -> dict:
        return {
            "set": self.set_name,
            "exposure": self.exposure,
            "seed": self.seed,
            "counts": [
                {"alice": i, "bob": j, "count": c}
                for (i, j), c in zip(self.settings, self.counts)
            ],
        }


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

    def to_json_dict(self) -> dict:
        doc = asdict(self)
        doc["set"] = doc.pop("set_name")
        if self.bootstrap_p_value is None:
            del doc["bootstrap_p_value"]
        return doc


def _setting_rng(seed: int, index: int) -> np.random.Generator:
    """A dedicated stream per setting, so ordering cannot matter."""
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def simulate_counts(plan: RunPlan, inputs: PredictionInputs) -> CountRecord:
    """Draw Poisson counts for every setting of a plan.

    Each setting uses its own PRNG stream derived from (seed, setting
    index), so identical seeds give identical records regardless of
    evaluation order.
    """
    if plan.set_name != inputs.set_name:
        raise ValueError(
            f"plan is for {plan.set_name!r} but inputs are for "
            f"{inputs.set_name!r}")
    n_effects = len(inputs.alice_effects)
    for i, j in plan.settings:
        if not (0 <= i < n_effects and 0 <= j < n_effects):
            raise ValueError(f"setting ({i}, {j}) out of range")
    means = plan.exposure * inputs.probabilities(plan.settings)
    if means.max() > _MAX_MEAN:
        raise OverflowError(
            f"expected count {means.max()} exceeds the counter range")
    counts = tuple(int(_setting_rng(plan.seed, index).poisson(mean))
                   for index, mean in enumerate(means))
    return CountRecord(
        set_name=plan.set_name,
        settings=plan.settings,
        counts=counts,
        exposure=plan.exposure,
        seed=plan.seed,
    )


def _canonical_layout(settings: Sequence[tuple[int, int]]
                      ) -> tuple[int, tuple[tuple[int, int], ...], list[int]]:
    """Recover (n, edges, permutation) from a full set of settings.

    The permutation maps canonical setting order to positions in the
    input sequence.  Raises if the settings do not form the canonical
    coverage (all diagonals plus both orientations of every edge).
    """
    n = sum(1 for i, j in settings if i == j)
    edges = sorted({(min(i, j), max(i, j)) for i, j in settings if i != j})
    canonical = bell_settings(n, edges)
    position = {s: k for k, s in enumerate(settings)}
    if len(position) != len(settings) or set(position) != set(canonical):
        raise ValueError(
            "settings must cover every diagonal and both orientations "
            "of every edge, exactly once")
    return n, tuple(edges), [position[s] for s in canonical]


def canonical_counts(rec: CountRecord
                     ) -> tuple[int, tuple[tuple[int, int], ...], list[int]]:
    """A record's counts rearranged into canonical setting order, with
    the (n, edges) that order is built from."""
    n, edges, order = _canonical_layout(rec.settings)
    return n, edges, [rec.counts[k] for k in order]


def estimate_probabilities(rec: CountRecord) -> ProbabilityTable:
    """Normalized probabilities with Poisson standard errors.

    P = C/N and sigma = sqrt(C)/N; empty settings get sigma = 1/N so no
    term ever claims zero variance.  An exposure so small that these
    overflow raises ArithmeticError.
    """
    n, edges, counts = canonical_counts(rec)
    counts = np.array(counts, dtype=float)
    with np.errstate(over="ignore"):
        values = counts / rec.exposure
        sigmas = np.where(counts > 0, np.sqrt(counts), 1.0) / rec.exposure
    if not np.isfinite([values, sigmas]).all():
        raise ArithmeticError(f"exposure {rec.exposure} is too small: P or sigma overflows")
    return ProbabilityTable(n, edges, values, sigmas)


def estimate_beta(table: ProbabilityTable, sic: SicSet, *,
                  alpha: Optional[float] = None,
                  record: Optional[CountRecord] = None,
                  bootstrap_replicates: int = 0) -> ViolationReport:
    """Evaluate the inequality on an estimated table.

    The error bar propagates the per-setting sigmas through the signed
    weights.  ``alpha`` defaults to the exact independence bound of the
    set's graph.  With ``record`` and ``bootstrap_replicates`` given, a
    parametric bootstrap p-value (counts resampled from Poisson(C)) is
    reported next to the Gaussian one.  beta* is linear in the counts
    with a handful of distinct coefficients, and a sum of independent
    Poissons is Poisson, so each replicate draws one Poisson per
    coefficient, with mean the group's total count, not one per setting.
    """
    graph = sic.graph
    edges = tuple(sorted(graph.edges))
    if table.n != sic.n or tuple(table.edges) != edges:
        raise ValueError("table does not cover the settings of this set")
    coeffs = sic.coefficients
    beta_hat = float(coeffs @ table.values)
    if alpha is None:
        alpha = float(max_weight_independent_set(graph)[0])
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
        totals = np.bincount(group, weights=canonical_counts(record)[2])
        # numpy's Poisson takes means below about 2**63, which bounds one
        # setting (_MAX_MEAN) but not a group total: draw that in parts
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
        alpha=float(alpha),
        sigmas_of_violation=z,
        p_value=p_value,
        bootstrap_p_value=boot,
    )


def fit_visibility(target_beta: float, sic: SicSet) -> float:
    """Invert the white-noise model: the visibility whose expected value
    equals ``target_beta`` at zero crosstalk and flat spectrum.

    The functional is affine in the state, so
    v = (target - beta_mixed) / (beta_ideal - beta_mixed).
    """
    d = sic.dimension
    beta_ideal, _ = expected_bell_value(sic, IDEAL)
    # every rank-1 effect has probability 1/d^2 on the maximally mixed state
    beta_mixed = float(sic.coefficients.sum()) / d**2
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
    exposure scales as the inverse square of the target sigma.
    """
    if not sigma_target > 0:
        raise ValueError("sigma_target must be positive")
    _, table = expected_bell_value(sic, cfg)
    weight = float(sic.coefficients**2 @ table.values)
    if weight <= 0:
        raise ValueError("all settings have zero probability")
    return weight / sigma_target**2


def run_experiment(sic: SicSet, cfg: NoiseConfig, pair_rate: float,
                   integration_time: float, seed: int, *,
                   bootstrap_replicates: int = 0
                   ) -> tuple[CountRecord, ProbabilityTable, ViolationReport]:
    """The full pipeline: noise model, counts, estimates, significance."""
    inputs = apply_noise(sic, cfg)
    plan = plan_for(sic, pair_rate, integration_time, seed)
    record = simulate_counts(plan, inputs)
    table = estimate_probabilities(record)
    report = estimate_beta(table, sic, record=record,
                           bootstrap_replicates=bootstrap_replicates)
    return record, table, report
