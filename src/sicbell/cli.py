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
falling back to the current directory).  This module alone lays out
their bytes: every JSON artifact as ``json.dumps(indent=2,
sort_keys=True)`` would, and a non-finite number is refused by name.
Exit codes: 0 on success, 1 on any validation problem, 2 when the bound
solver fails to converge.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from itertools import filterfalse
from pathlib import Path
from typing import Optional, Sequence

from .bounds import ThetaNonConvergence, bounds_report
from .catalog import SicSet, catalog_names, get_set, load_set, verify_set
from .montecarlo import exposure_for_sigma, fit_visibility, run_experiment
from .noise import (NoiseConfig, default_modes, expected_bell_value,
                    schmidt_amplitudes, spiral_spectrum)

OUTDIR_ENV = "SICBELL_OUTDIR"
MAX_BOOTSTRAP_REPLICATES = 10**6


def _number(value, kind=float):
    """A JSON number as ``kind``, float or int.  A bool or a string is
    not a number, and an int takes only whole values, such as 1e6."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    if kind is int and value % 1:  # nan % 1 and inf % 1 are nan
        raise ValueError(f"{value!r} is not an integer")
    return kind(value)


# the numeric config keys and their converters, in RunConfig field order;
# a key left out of the config keeps the RunConfig default, and a null
# spectrum_width means no width
_CONFIG_FIELDS = {
    "visibility": _number, "crosstalk": _number,
    "spectrum_width": lambda value: None if value is None else _number(value),
    "exposure": _number, "seed": lambda value: _number(value, int),
    "bootstrap_replicates": lambda value: _number(value, int),
}
_CONFIG_KEYS = {"set", "spectrum", *_CONFIG_FIELDS}


class CliError(ValueError):
    """A problem with arguments or configuration (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulated run depends on.

    Defaults describe the ideal experiment: perfect visibility, no
    crosstalk, flat spectrum, and an ``exposure`` of a million pairs per
    setting, the N that the counts are drawn around.  ``spectrum`` lists
    the amplitudes c_k in basis order, ``spectrum_width`` weights the mode
    ladder instead.  A config that gives both spectra, or a replicate
    count below 0 or above ``MAX_BOOTSTRAP_REPLICATES``, is refused
    however it is built.
    """

    set_name: str
    visibility: float = 1.0
    crosstalk: float = 0.0
    spectrum_width: Optional[float] = None
    spectrum: Optional[tuple[float, ...]] = None
    exposure: float = 1_000_000.0
    seed: int = 0
    bootstrap_replicates: int = 10_000

    def __post_init__(self):
        if self.spectrum is not None and self.spectrum_width is not None:
            raise CliError("config gives both spectrum and spectrum_width: "
                           "give one, or null for the other")
        if self.bootstrap_replicates < 0:
            raise CliError(f"bootstrap_replicates {self.bootstrap_replicates} "
                           "is negative")
        if self.bootstrap_replicates > MAX_BOOTSTRAP_REPLICATES:
            raise CliError(f"bootstrap_replicates {self.bootstrap_replicates} "
                           f"exceeds the cap of {MAX_BOOTSTRAP_REPLICATES}")

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
        except (json.JSONDecodeError, RecursionError) as exc:
            raise CliError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise CliError("config must be a JSON object")
        unknown = set(doc) - _CONFIG_KEYS
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
    name = set_name or doc.get("set")
    if not name:
        raise CliError("no set selected: pass --set or put \"set\" in the config")
    if not isinstance(name, str):
        raise CliError(f"config \"set\" must be a string, not {type(name).__name__}")
    spectrum = doc.get("spectrum")
    if spectrum is not None:
        try:
            spectrum = schmidt_amplitudes([_number(a) for a in spectrum])
        except (TypeError, ValueError, OverflowError) as exc:
            raise CliError(f"bad spectrum in config: {exc}; give a list of "
                           "amplitudes, one per basis index") from exc
    if seed is not None:
        doc = {**doc, "seed": seed}
    fields = {}
    for key, convert in _CONFIG_FIELDS.items():
        if key in doc:
            try:
                fields[key] = convert(doc[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise CliError(f"bad config value for {key}: {exc}") from exc
    return RunConfig(set_name=name, spectrum=spectrum, **fields)


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
        except (ValueError, KeyError, RecursionError) as exc:
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
    path = Path(arg or os.environ.get(OUTDIR_ENV) or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _doc(result) -> dict:
    """A result dataclass as artifact fields: ``set_name`` becomes ``set``,
    a None field is left out, and a non-finite float is refused by name."""
    doc = {}
    for name, value in vars(result).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"report field {name} is {value}, "
                             "which no artifact can hold")
        if value is not None:
            doc["set" if name == "set_name" else name] = value
    return doc


def _json_text(doc: dict, **tables: dict[str, Sequence]) -> str:
    """The text of ``json.dumps(doc | tables, indent=2, sort_keys=True)``
    plus a newline.  Each keyword is a top-level table given as columns of
    Python numbers; its rows come from one ``%r`` template, which spells an
    int or a float as json does, and a non-finite value is refused by name."""
    text = json.dumps({**doc, **dict.fromkeys(tables)}, indent=2,
                      sort_keys=True, allow_nan=False)
    for key, columns in tables.items():
        names = sorted(columns)
        for name in names:
            for bad in filterfalse(math.isfinite, columns[name]):
                raise ValueError(f"column {name} holds {bad}, "
                                 "which no artifact can hold")
        template = "    {\n%s\n    }" % ",\n".join(
            [f"      {json.dumps(name)}: %r" for name in names])
        body = ",\n".join([template % row for row
                           in zip(*[columns[name] for name in names])])
        # json.dumps escapes every '"' inside a string, so in a flat head
        # '"<key>": null' occurs only as the key itself, whatever the values
        key = json.dumps(key)
        text = text.replace(f"{key}: null",
                            f"{key}: [\n{body}\n  ]" if body else f"{key}: []", 1)
    return text + "\n"


def _write_json(path: Path, doc: dict, **tables: dict[str, Sequence]) -> None:
    # serialised first, so a non-finite value leaves no partial file
    path.write_text(_json_text(doc, **tables), encoding="utf-8")


def _write_csv(path: Path, columns: dict[str, Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(zip(*columns.values()))


def _weight_summary(weights: Sequence[int]) -> str:
    return "/".join(f"{w}x{c}" for w, c in
                    sorted(Counter(weights).items(), reverse=True))


def cmd_catalog(args) -> int:
    sic = _read_set(args.name)
    report = verify_set(sic)
    try:
        edges = f"{len(sic.graph.edges)} edges, "
    except ValueError:  # the report below names the failed check
        edges = ""
    contexts = len(sic.contexts) if sic.contexts else 0
    print(f"{sic.name}: {sic.n} vectors, d={sic.dimension}, "
          f"{edges}weights {_weight_summary(sic.weights)}, "
          f"{contexts} contexts")
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


def _outward(lower: float, upper: float) -> str:
    """The bracket [lower, upper] at six decimals, rounded outward; a
    float converts to Decimal exactly, so the rounding is exact too."""
    micro, wide = Decimal("1e-6"), Context(prec=330)  # room for any float
    return (f"[{Decimal(lower).quantize(micro, ROUND_FLOOR, wide)}, "
            f"{Decimal(upper).quantize(micro, ROUND_CEILING, wide)}]")


def cmd_bounds(args) -> int:
    sic = resolve_set(args.name)
    report = bounds_report(sic, tol=args.tol)
    graph_bracket = _outward(report.theta_graph,
                             report.theta_graph + report.theta_graph_gap)
    print(f"{report.set_name}: alpha={report.alpha} "
          f"theta={report.theta:.6f} beta_ideal={report.beta_ideal:.6f} "
          f"theta_graph={graph_bracket}")
    print(f"  witness={list(report.alpha_witness)} "
          f"margin_quantum={report.margin_quantum:.6f} "
          f"margin_ideal={report.margin_ideal:.6f}")
    outdir = _outdir(args.out)
    doc = _doc(report)
    if args.format == "json":
        target = outdir / f"{sic.name}_bounds.json"
        _write_json(target, doc)
    else:
        target = outdir / f"{sic.name}_bounds.csv"
        del doc["alpha_witness"]
        _write_csv(target, {key: [value] for key, value in doc.items()})
    print(f"  wrote {target}")
    return 0


def _figure_table(sic: SicSet, table, record=None) -> dict[str, list]:
    """The columns of the bar-chart export, one row per setting:
    diagonals first, then ordered edges; rays are numbered from 1."""
    n = len(sic.settings)
    columns = {"index": range(1, n + 1),
               "alice": [i + 1 for i, _ in sic.settings],
               "bob": [j + 1 for _, j in sic.settings]}
    if record is not None:
        columns.update(count=record.counts, exposure=[record.exposure] * n)
    columns.update(
        p_hat=table.values.tolist(),
        sigma=[0.0] * n if table.sigmas is None else table.sigmas.tolist(),
        p_ideal=sic.ideal_probabilities.tolist())
    return columns


def cmd_predict(args) -> int:
    cfg = load_run_config(args.config, args.set, None)
    sic = resolve_set(cfg.set_name)
    noise = cfg.noise_config(sic.dimension)
    beta, table = expected_bell_value(sic, noise)
    print(f"{sic.name}: expected beta = {beta:.6f} "
          f"(visibility={noise.visibility}, crosstalk={noise.crosstalk})")
    columns = _figure_table(sic, table)
    outdir = _outdir(args.out)
    if args.format == "json":
        target = outdir / f"{sic.name}_prediction.json"
        _write_json(target, {"set": sic.name, "beta_expected": beta},
                    settings=columns)
    else:
        target = outdir / f"{sic.name}_prediction.csv"
        _write_csv(target, columns)
    print(f"  wrote {target}")
    return 0


def cmd_simulate(args) -> int:
    cfg = load_run_config(args.config, args.set, args.seed)
    sic = resolve_set(cfg.set_name)
    record, table, report = run_experiment(
        sic, cfg.noise_config(sic.dimension), cfg.exposure, cfg.seed,
        bootstrap_replicates=cfg.bootstrap_replicates)
    print(f"{sic.name}: beta_hat = {report.beta_hat:.4f} +- {report.sigma:.4f} "
          f"(alpha = {report.alpha:g}, {report.sigmas_of_violation:.2f} sigma, "
          f"p = {report.p_value:.3g})")
    if report.bootstrap_p_value is not None:
        print(f"  bootstrap p = {report.bootstrap_p_value:.3g} "
              f"({cfg.bootstrap_replicates} replicates)")
    report_doc = {**_doc(report), "seed": record.seed, "exposure": record.exposure}
    outdir = _outdir(args.out)
    figure = outdir / f"{sic.name}_figure.csv"
    _write_csv(figure, _figure_table(sic, table, record))
    if args.format == "json":
        target = outdir / f"{sic.name}_report.json"
        _write_json(target, report_doc)
    else:
        target = outdir / f"{sic.name}_report.csv"
        _write_csv(target, {key: [report_doc[key]] for key in sorted(report_doc)})
    counts_path = outdir / f"{sic.name}_counts.json"
    alice, bob = zip(*sic.settings)
    _write_json(counts_path, {"set": sic.name, "exposure": record.exposure,
                              "seed": record.seed},
                counts={"alice": alice, "bob": bob, "count": record.counts})
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args``
    returns a fresh namespace on every call, so no state carries over."""
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
    except (CliError, ValueError, KeyError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
