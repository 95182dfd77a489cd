"""Command-line front end.

Subcommands:

* ``catalog``: print and validate a set (built-in name or JSON file).
* ``bounds``: classical bound, quantum ceiling, graph relaxation.
* ``predict``: exact click probabilities under a noise configuration.
* ``simulate``: seeded Poisson run with estimates and significance.
* ``fit``: invert the noise model for a target value, and size the
  exposure for a target error bar.

Results print as short summaries; machine-readable artifacts are written
into ``--out`` (default: the ``SICBELL_OUTDIR`` environment variable,
falling back to the current directory).  Exit codes: 0 on success, 1 on
any validation problem, 2 when the bound solver fails to converge.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .bounds import BoundsReport, ThetaNonConvergence, bounds_report
from .catalog import (
    SicSet,
    catalog_names,
    get_set,
    load_set,
    verify_set,
)
from .montecarlo import (
    estimate_beta,
    estimate_probabilities,
    exposure_for_sigma,
    fit_visibility,
    plan_for,
    simulate_counts,
)
from .noise import (
    NoiseConfig,
    SchmidtSpectrum,
    apply_noise,
    default_modes,
    expected_bell_value,
    spiral_spectrum,
)
from .quantum import bell_settings, bell_value, max_entangled_state

OUTDIR_ENV = "SICBELL_OUTDIR"

_CONFIG_KEYS = {
    "set", "visibility", "crosstalk", "spectrum_width", "spectrum",
    "pair_rate", "integration_time", "seed", "bootstrap_replicates",
}


class CliError(ValueError):
    """A problem with arguments or configuration (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulated run depends on.

    Defaults describe the ideal experiment: perfect visibility, no
    crosstalk, flat spectrum, and a million pairs per setting.
    """

    set_name: str
    visibility: float = 1.0
    crosstalk: float = 0.0
    spectrum_width: Optional[float] = None
    spectrum: Optional[SchmidtSpectrum] = None
    pair_rate: float = 200_000.0
    integration_time: float = 5.0
    seed: int = 0
    bootstrap_replicates: int = 10_000

    def noise_config(self, dimension: int) -> NoiseConfig:
        spectrum = self.spectrum
        if spectrum is None and self.spectrum_width is not None:
            spectrum = spiral_spectrum(self.spectrum_width,
                                       default_modes(dimension))
        return NoiseConfig(visibility=self.visibility,
                           crosstalk=self.crosstalk, spectrum=spectrum)


def load_run_config(path: Optional[str], set_name: Optional[str],
                    seed: Optional[int]) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus flag overrides."""
    doc = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
        except OSError as exc:
            raise CliError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CliError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise CliError("config must be a JSON object")
        unknown = set(doc) - _CONFIG_KEYS
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
    name = set_name or doc.get("set")
    if not name:
        raise CliError("no set selected: pass --set or put \"set\" in the config")
    spectrum = None
    if doc.get("spectrum") is not None:
        rows = doc["spectrum"]
        try:
            spectrum = SchmidtSpectrum(
                tuple(int(m) for m, _ in rows),
                tuple(float(a) for _, a in rows))
        except (TypeError, ValueError) as exc:
            raise CliError(f"bad spectrum in config: {exc}") from exc
    try:
        cfg = RunConfig(
            set_name=name,
            visibility=float(doc.get("visibility", 1.0)),
            crosstalk=float(doc.get("crosstalk", 0.0)),
            spectrum_width=(None if doc.get("spectrum_width") is None
                            else float(doc["spectrum_width"])),
            spectrum=spectrum,
            pair_rate=float(doc.get("pair_rate", 200_000.0)),
            integration_time=float(doc.get("integration_time", 5.0)),
            seed=int(seed if seed is not None else doc.get("seed", 0)),
            bootstrap_replicates=int(doc.get("bootstrap_replicates", 10_000)),
        )
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad config value: {exc}") from exc
    if cfg.bootstrap_replicates < 0:
        raise CliError(f"bootstrap_replicates {cfg.bootstrap_replicates} "
                       "is negative")
    return cfg


def _read_set(name: str) -> SicSet:
    """A catalog name, or a path to a set description in JSON."""
    if name in catalog_names():
        return get_set(name)
    path = Path(name)
    if path.suffix == ".json":
        if not path.exists():
            raise CliError(f"no such set file: {name}")
        try:
            return load_set(path)
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot load set from {name}: {exc}") from exc
    raise CliError(
        f"unknown set {name!r}: choose from {', '.join(catalog_names())} "
        "or give a .json path")


def resolve_set(name: str) -> SicSet:
    """Like :func:`_read_set`, but a set read from JSON must pass
    :func:`verify_set`; the built-in sets are pinned by the tests."""
    sic = _read_set(name)
    if name not in catalog_names():
        failed = [check.name for check in verify_set(sic).failures()]
        if failed:
            raise CliError(f"set {name} fails validation: {', '.join(failed)}")
    return sic


def _outdir(arg: Optional[str]) -> Path:
    root = arg or os.environ.get(OUTDIR_ENV) or "."
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _weight_summary(weights: Sequence[int]) -> str:
    seen: dict[int, int] = {}
    for w in weights:
        seen[w] = seen.get(w, 0) + 1
    return "/".join(f"{w}x{c}" for w, c in
                    sorted(seen.items(), key=lambda kv: -kv[0]))


def cmd_catalog(args) -> int:
    sic = _read_set(args.name)
    graph = sic.graph
    contexts = len(sic.contexts) if sic.contexts else 0
    print(f"{sic.name}: {sic.n} vectors, d={sic.dimension}, "
          f"{len(graph.edges)} edges, weights {_weight_summary(sic.weights)}, "
          f"{contexts} contexts")
    report = verify_set(sic)
    for check in report.checks:
        mark = "ok" if check.passed else "FAIL"
        line = f"  [{mark}] {check.name}"
        if not check.passed and check.detail:
            line += f": {check.detail}"
        print(line)
    if not report.ok:
        print(f"{sic.name}: INVALID", file=sys.stderr)
        return 1
    return 0


def _bounds_doc(report: BoundsReport) -> dict:
    return {
        "set": report.set_name,
        "alpha": report.alpha,
        "alpha_witness": list(report.alpha_witness),
        "theta": report.theta,
        "theta_gap": report.theta_gap,
        "theta_graph": report.theta_graph,
        "theta_graph_gap": report.theta_graph_gap,
        "beta_ideal": report.beta_ideal,
        "margin_quantum": report.margin_quantum,
        "margin_ideal": report.margin_ideal,
    }


def cmd_bounds(args) -> int:
    sic = resolve_set(args.name)
    report = bounds_report(sic, tol=args.tol)
    print(f"{report.set_name}: alpha={report.alpha} "
          f"theta={report.theta:.6f} beta_ideal={report.beta_ideal:.6f} "
          f"theta_graph={report.theta_graph:.6f}")
    print(f"  witness={list(report.alpha_witness)} "
          f"margin_quantum={report.margin_quantum:.6f} "
          f"margin_ideal={report.margin_ideal:.6f}")
    outdir = _outdir(args.out)
    doc = _bounds_doc(report)
    if args.format == "json":
        target = outdir / f"{sic.name}_bounds.json"
        _write_json(target, doc)
    else:
        target = outdir / f"{sic.name}_bounds.csv"
        with open(target, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            keys = [k for k in doc if k != "alpha_witness"]
            writer.writerow(keys)
            writer.writerow([doc[k] for k in keys])
    print(f"  wrote {target}")
    return 0


def _figure_rows(sic: SicSet, table, ideal_values, counts=None,
                 exposure=None):
    """Rows for the bar-chart export: diagonals first, then ordered edges."""
    settings = bell_settings(table.n, table.edges)
    rows = []
    for k, (i, j) in enumerate(settings):
        row = {
            "index": k + 1,
            "alice": sic.labels[i],
            "bob": sic.labels[j],
            "p_hat": table.values[k],
            "sigma": 0.0 if table.sigmas is None else table.sigmas[k],
            "p_ideal": ideal_values[k],
        }
        if counts is not None:
            row["count"] = counts[k]
            row["exposure"] = exposure
        rows.append(row)
    return rows


def cmd_predict(args) -> int:
    cfg = load_run_config(args.config, args.set, None)
    sic = resolve_set(cfg.set_name)
    noise = cfg.noise_config(sic.dimension)
    beta, table = expected_bell_value(sic, noise)
    _, ideal_table = bell_value(sic, max_entangled_state(sic.dimension))
    print(f"{sic.name}: expected beta = {beta:.6f} "
          f"(visibility={noise.visibility}, crosstalk={noise.crosstalk})")
    rows = _figure_rows(sic, table, ideal_table.values)
    outdir = _outdir(args.out)
    if args.format == "json":
        target = outdir / f"{sic.name}_prediction.json"
        _write_json(target, {"set": sic.name, "beta_expected": beta,
                             "settings": rows})
    else:
        target = outdir / f"{sic.name}_prediction.csv"
        with open(target, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(
                handle, fieldnames=["index", "alice", "bob", "p_hat",
                                    "sigma", "p_ideal"])
            writer.writeheader()
            writer.writerows(rows)
    print(f"  wrote {target}")
    return 0


def cmd_simulate(args) -> int:
    cfg = load_run_config(args.config, args.set, args.seed)
    sic = resolve_set(cfg.set_name)
    noise = cfg.noise_config(sic.dimension)
    inputs = apply_noise(sic, noise)
    plan = plan_for(sic, cfg.pair_rate, cfg.integration_time, cfg.seed)
    record = simulate_counts(plan, inputs)
    table = estimate_probabilities(record)
    report = estimate_beta(table, sic, record=record,
                           bootstrap_replicates=cfg.bootstrap_replicates)
    print(f"{sic.name}: beta_hat = {report.beta_hat:.4f} +- {report.sigma:.4f} "
          f"(alpha = {report.alpha:g}, {report.sigmas_of_violation:.2f} sigma, "
          f"p = {report.p_value:.3g})")
    if report.bootstrap_p_value is not None:
        print(f"  bootstrap p = {report.bootstrap_p_value:.3g} "
              f"({cfg.bootstrap_replicates} replicates)")

    _, ideal_table = bell_value(sic, max_entangled_state(sic.dimension))
    order = {s: k for k, s in enumerate(record.settings)}
    canonical = bell_settings(table.n, table.edges)
    counts = [record.counts[order[s]] for s in canonical]
    rows = _figure_rows(sic, table, ideal_table.values, counts,
                        record.exposure)

    outdir = _outdir(args.out)
    figure = outdir / f"{sic.name}_figure.csv"
    with open(figure, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(
            handle, fieldnames=["index", "alice", "bob", "count", "exposure",
                                "p_hat", "sigma", "p_ideal"])
        writer.writeheader()
        writer.writerows(rows)
    report_doc = report.to_json_dict()
    report_doc["seed"] = record.seed
    report_doc["exposure"] = record.exposure
    if args.format == "json":
        target = outdir / f"{sic.name}_report.json"
        _write_json(target, report_doc)
    else:
        target = outdir / f"{sic.name}_report.csv"
        with open(target, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            keys = sorted(report_doc)
            writer.writerow(keys)
            writer.writerow([report_doc[k] for k in keys])
    counts_path = outdir / f"{sic.name}_counts.json"
    _write_json(counts_path, record.to_json_dict())
    print(f"  wrote {target}, {figure}, {counts_path}")
    return 0


def cmd_fit(args) -> int:
    sic = resolve_set(args.set)
    v = fit_visibility(args.target_beta, sic)
    print(f"{sic.name}: visibility = {v:.6f} for beta = {args.target_beta}")
    if args.sigma_target is not None:
        cfg = NoiseConfig(visibility=v)
        pairs = exposure_for_sigma(sic, cfg, args.sigma_target)
        print(f"  pairs per setting for sigma {args.sigma_target}: "
              f"{math.ceil(pairs)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sicbell",
                     description="Bell inequalities from contextuality sets: "
                                 "bounds, predictions, simulated runs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="print and validate a set")
    p_cat.add_argument("name", help="catalog name or set JSON path")
    p_cat.set_defaults(func=cmd_catalog)

    p_bounds = sub.add_parser("bounds", help="compute alpha, theta, beta_ideal")
    p_bounds.add_argument("name", help="catalog name or set JSON path")
    p_bounds.add_argument("--tol", type=float, default=1e-6,
                          help="certified gap for the theta_graph solver")
    p_bounds.add_argument("--out", default=None, help="output directory")
    p_bounds.add_argument("--format", choices=("json", "csv"), default="json")
    p_bounds.set_defaults(func=cmd_bounds)

    p_pred = sub.add_parser("predict",
                            help="exact probabilities under a noise config")
    p_pred.add_argument("--set", default=None, help="catalog name or JSON path")
    p_pred.add_argument("--config", default=None, help="run config JSON")
    p_pred.add_argument("--out", default=None, help="output directory")
    p_pred.add_argument("--format", choices=("json", "csv"), default="csv")
    p_pred.set_defaults(func=cmd_predict)

    p_sim = sub.add_parser("simulate", help="seeded Poisson counting run")
    p_sim.add_argument("--set", default=None, help="catalog name or JSON path")
    p_sim.add_argument("--config", default=None, help="run config JSON")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_sim.add_argument("--out", default=None, help="output directory")
    p_sim.add_argument("--format", choices=("json", "csv"), default="json")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit",
                           help="visibility for a target value, exposure "
                                "for a target error bar")
    p_fit.add_argument("--set", required=True, help="catalog name or JSON path")
    p_fit.add_argument("--target-beta", type=float, required=True)
    p_fit.add_argument("--sigma-target", type=float, default=None)
    p_fit.set_defaults(func=cmd_fit)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ThetaNonConvergence as exc:
        print(f"error: solver did not converge "
              f"(bracket [{exc.primal_bound}, {exc.dual_bound}] after "
              f"{exc.iterations} iterations)", file=sys.stderr)
        return 2
    except (CliError, ValueError, KeyError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
