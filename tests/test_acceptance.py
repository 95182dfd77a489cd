"""Acceptance suite: end-to-end checks of the pinned reference numbers.

Each test prints exactly one live PASS/FAIL line with the measured
values, then asserts.  The suite covers the classical bounds, the
quantum ceilings, the ideal predictions, the colorability certificates,
the statistics round trip of the reported experimental values, the
structural identities, and the soundness of the estimator.
"""

import json
import math
import time

import numpy as np

from sicbell.bounds import bounds_report, max_weight_independent_set
from sicbell.catalog import (
    WeightedGraph,
    catalog_names,
    get_set,
    orthogonality_graph,
)
from sicbell.cli import main
from sicbell.montecarlo import (
    estimate_beta,
    estimate_probabilities,
    exposure_for_sigma,
    fit_visibility,
    simulate_counts,
)
from sicbell.noise import (
    NoiseConfig,
    default_modes,
    expected_bell_value,
    spiral_spectrum,
)
from sicbell.quantum import bell_operator, projector

from exact_oracle import ks_colorable, model_state, procrustean_filter

_BOUNDS_CACHE = {}


def max_entangled(d):
    """|phi><phi| for |phi> = sum_j |j>|j> / sqrt(d), a (d^2, d^2) array."""
    phi = np.eye(d, dtype=complex).ravel() / math.sqrt(d)
    return np.outer(phi, phi.conj())


def cached_bounds(name):
    if name not in _BOUNDS_CACHE:
        _BOUNDS_CACHE[name] = bounds_report(get_set(name))
    return _BOUNDS_CACHE[name]


def report(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance {number} ({name}): "
              f"{'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"acceptance {number} ({name}): {detail}"


def test_acceptance_1_bounds(capsys):
    targets = {
        "yo13": (11, 11.0 + 2.0 / 3.0),
        "ks18": (4, 4.5),
        "ks21": (3, 3.5),
    }
    start = time.perf_counter()
    reports = {name: bounds_report(get_set(name)) for name in targets}
    elapsed = time.perf_counter() - start
    _BOUNDS_CACHE.update(reports)
    ok = elapsed < 10.0
    parts = []
    for name, (alpha, theta) in targets.items():
        rep = reports[name]
        ok &= rep.alpha == alpha
        ok &= abs(rep.theta - theta) <= 1e-4
        parts.append(f"{name} alpha={rep.alpha} theta={rep.theta:.5f}")
    report(capsys, 1, "bounds", ok,
           "; ".join(parts) + f"; {elapsed:.2f} s")


def test_acceptance_2_ideal_values(capsys):
    targets = {"yo13": 35.0 / 3.0, "ks18": 4.5, "ks21": 3.5}
    start = time.perf_counter()
    values = {}
    for name in targets:
        sic = get_set(name)
        beta, _ = expected_bell_value(sic, NoiseConfig())
        values[name] = beta
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0
    parts = []
    for name, expected in targets.items():
        sic = get_set(name)
        closed = sum(sic.weights) / sic.dimension
        ok &= abs(values[name] - expected) <= 1e-10
        ok &= abs(values[name] - closed) <= 1e-10
        parts.append(f"{name} beta={values[name]:.10f}")
    report(capsys, 2, "ideal values", ok,
           "; ".join(parts) + f"; {elapsed:.3f} s")


def test_acceptance_3_uncolorability(capsys):
    start = time.perf_counter()
    results = {}
    for name in ("ks18", "ks21"):
        sic = get_set(name)
        colorable, _ = ks_colorable(orthogonality_graph(sic), sic.contexts)
        results[name] = colorable
    basis = WeightedGraph(
        4, (1, 1, 1, 1),
        tuple((i, j) for i in range(4) for j in range(i + 1, 4)))
    control, witness = ks_colorable(basis, ((0, 1, 2, 3),))
    elapsed = time.perf_counter() - start
    ok = (not results["ks18"] and not results["ks21"] and control
          and witness is not None and len(witness) == 1 and elapsed < 10.0)
    report(capsys, 3, "uncolorability", ok,
           f"ks18 colorable={results['ks18']}, ks21 colorable={results['ks21']}, "
           f"single-basis control colorable={control}; {elapsed:.3f} s")


def test_acceptance_4_statistics_round_trip(capsys):
    cases = {
        "yo13": (11.573, 0.012, 48),
        "ks18": (4.399, 0.027, 15),
        "ks21": (3.259, 0.038, 7),
    }
    ok = True
    parts = []
    for name, (target, sigma_target, z_target) in cases.items():
        sic = get_set(name)
        v = fit_visibility(target, sic)
        cfg = NoiseConfig(visibility=v)
        pairs = exposure_for_sigma(sic, cfg, sigma_target)
        _, table = expected_bell_value(sic, cfg)
        zs = []
        sigmas = []
        for seed in range(10):
            rep = estimate_beta(estimate_probabilities(
                simulate_counts(table, pairs, seed)), sic)
            zs.append(rep.sigmas_of_violation)
            sigmas.append(rep.sigma)
        mean_sigma = float(np.mean(sigmas))
        mean_z = float(np.mean(zs))
        ok &= abs(mean_sigma - sigma_target) / sigma_target < 0.25
        ok &= abs(mean_z - z_target) <= 2.0
        parts.append(f"{name} v={v:.4f} sigma={mean_sigma:.4f} "
                     f"(target {sigma_target}) z={mean_z:.2f} "
                     f"(target {z_target})")
    report(capsys, 4, "statistics round trip", ok, "; ".join(parts))


def exhaustive_alpha(graph: WeightedGraph) -> float:
    """Plain enumeration of every vertex subset, vectorized over masks."""
    n = graph.n
    masks = np.arange(1 << n, dtype=np.uint32)
    independent = np.ones(masks.size, dtype=bool)
    neighbor_mask = [0] * n
    for i, j in graph.edges:
        neighbor_mask[i] |= 1 << j
        neighbor_mask[j] |= 1 << i
    weight = np.zeros(masks.size)
    for i in range(n):
        member = ((masks >> np.uint32(i)) & np.uint32(1)).astype(bool)
        clash = (masks & np.uint32(neighbor_mask[i])) != 0
        independent &= ~(member & clash)
        weight += member * float(graph.weights[i])
    return float(weight[independent].max())


def test_acceptance_5_oracle_equivalence(capsys):
    ok = True
    parts = []
    for name in catalog_names():
        sic = get_set(name)
        graph = orthogonality_graph(sic)
        alpha, _ = max_weight_independent_set(graph)
        brute = exhaustive_alpha(graph)
        rep = cached_bounds(name)
        beta = np.trace(max_entangled(sic.dimension) @ bell_operator(sic)).real
        ok &= alpha == brute
        ok &= rep.theta >= alpha
        ok &= rep.theta >= beta - 1e-5
        parts.append(f"{name} alpha={alpha} brute={brute:g} "
                     f"theta={rep.theta:.5f} beta={beta:.5f}")
    report(capsys, 5, "oracle equivalence", ok, "; ".join(parts))


def test_acceptance_6_structural_invariants(capsys):
    yo13 = get_set("yo13")
    total = sum(projector(v) for v in yo13.unit_vectors)
    resolution_err = float(np.abs(total - (13.0 / 3.0) * np.eye(3)).max())
    ok = resolution_err <= 1e-12

    context_err = 0.0
    for name in ("ks18", "ks21"):
        sic = get_set(name)
        vecs = sic.unit_vectors
        d = sic.dimension
        for ctx in sic.contexts:
            ctx_sum = sum(projector(vecs[i]) for i in ctx)
            context_err = max(context_err,
                              float(np.abs(ctx_sum - np.eye(d)).max()))
    ok &= context_err <= 1e-12

    out, success = procrustean_filter(
        (math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2)))
    state = model_state(out)
    ent_err = float(np.abs(state - max_entangled(3)).max())
    ok &= ent_err <= 1e-12
    ok &= abs(success - 3 * 0.2) <= 1e-12
    wide = spiral_spectrum(1.3, default_modes(6))
    out6, success6 = procrustean_filter(wide)
    ok &= abs(success6 - 6 * min(np.square(wide))) <= 1e-12
    ok &= np.abs(model_state(out6)
                 - max_entangled(6)).max() <= 1e-12

    report(capsys, 6, "structural invariants", ok,
           f"resolution err={resolution_err:.1e}, context err={context_err:.1e}, "
           f"filter success={success:.3f} (expected 0.600)")


def test_acceptance_7_statistical_soundness(capsys, tmp_path):
    ok = True
    parts = []

    for name in catalog_names():
        sic = get_set(name)
        _, table = expected_bell_value(sic, NoiseConfig())
        truth = sum(sic.weights) / sic.dimension
        betas = []
        sigmas = []
        for seed in range(100):
            rep = estimate_beta(estimate_probabilities(
                simulate_counts(table, 1e4, seed)), sic)
            betas.append(rep.beta_hat)
            sigmas.append(rep.sigma)
        bias = abs(float(np.mean(betas)) - truth)
        limit = 3.0 * float(np.mean(sigmas)) / math.sqrt(100.0)
        ok &= bias < limit
        parts.append(f"{name} bias={bias:.4f} (limit {limit:.4f})")

    ratios = []
    for name in catalog_names():
        sic = get_set(name)
        _, table = expected_bell_value(sic, NoiseConfig())
        for seed in range(5):
            small = estimate_beta(estimate_probabilities(simulate_counts(
                table, 2.5e4, seed)), sic)
            large = estimate_beta(estimate_probabilities(simulate_counts(
                table, 1e5, seed)), sic)
            ratios.append(small.sigma / large.sigma)
    mean_ratio = float(np.mean(ratios))
    ok &= abs(mean_ratio - 2.0) <= 0.2
    parts.append(f"sigma ratio at 4x exposure {mean_ratio:.3f}")

    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "set": "ks18", "seed": 31, "exposure": 5e4}))
    first = tmp_path / "first"
    second = tmp_path / "second"
    code1 = main(["simulate", "--config", str(config), "--out", str(first)])
    code2 = main(["simulate", "--config", str(config), "--out", str(second)])
    identical = all(
        (first / stem).read_bytes() == (second / stem).read_bytes()
        for stem in ("ks18_report.json", "ks18_figure.csv", "ks18_counts.json"))
    ok &= code1 == 0 and code2 == 0 and identical
    parts.append(f"byte-identical reruns={identical}")

    report(capsys, 7, "statistical soundness", ok, "; ".join(parts))
