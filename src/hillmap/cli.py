"""Command-line front end: runs the band, orbit, density-evolution, ensemble,
Lyapunov, integral-sweep, explicit-formula, and mixing experiments and writes
figure-ready CSV/JSON files with the resolved configuration echoed into every
output.
"""
from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, ensemble, hill, lyapunov, maps, transfer
from .errors import ConfigurationError, NonConvergenceError
from .numerics import QUAD_TOL

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2

OUT_DIR_ENV = "HILLMAP_OUT_DIR"

# the values an enumerated option may take, from a flag or a config file
_CHOICES = {"method": ("quadrature", "orbit"), "dist": ensemble.DIST_KINDS,
            "format": ("csv", "json")}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract here is exit 1
    def error(self, message):
        raise _UsageError(message)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.16e}"  # 17 significant digits, round-trip safe
    return str(x)


def _resolve_out(path: str) -> Path:
    p = Path(path)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not p.is_absolute():
        return Path(base) / p
    return p


def _write_csv(path, header, rows, config, timestamp):
    out = _resolve_out(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    if timestamp:
        lines.append(f"# generated {datetime.datetime.now().isoformat()}")
    lines.append(f"# hillmap {__version__}")
    for key in sorted(config):
        lines.append(f"# config: {key} = {config[key]}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    out.write_text("\n".join(lines) + "\n")


def _write_json(path, payload, config, timestamp):
    out = _resolve_out(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = {"config": config}
    if timestamp:
        doc["generated"] = datetime.datetime.now().isoformat()
    doc.update(payload)
    out.write_text(json.dumps(doc, indent=2) + "\n")


def _parse_bool(key: str, raw: str) -> bool:
    word = raw.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"config key {key!r} needs a boolean, not {raw!r}")


def _config_flags(path: str, options: dict) -> list[str]:
    """A ``key = value`` config file as flags of the subcommand whose
    ``options`` it sets; unknown keys are refused."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line is not 'key = value': {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = val.strip()
    unknown = set(values) - set(options)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    flags = []
    for key, raw in values.items():
        flag = key.replace("_", "-")
        if isinstance(options[key], bool):
            flags.append(("--" if _parse_bool(key, raw) else "--no-") + flag)
        else:
            flags.append(f"--{flag}={raw}")
    return flags


def _potential_from(cfg) -> hill.Potential:
    name = cfg["potential"]
    if name == "free":
        return hill.Potential.free()
    if name == "constant":
        return hill.Potential.constant(cfg["value"] if cfg["value"] is not None else 1.0)
    if name == "cosine":
        amp = cfg["value"] if cfg["value"] is not None else 1.0
        return hill.Potential.cosine(amplitude=amp)
    if name == "piecewise":
        if not cfg["breakpoints"] or not cfg["values"]:
            raise ConfigurationError(
                "piecewise potential needs --breakpoints and --values"
            )
        bps = [float(v) for v in cfg["breakpoints"].split(",")]
        vals = [float(v) for v in cfg["values"].split(",")]
        return hill.Potential.piecewise_linear(bps, vals)
    raise ConfigurationError(f"unknown potential {name!r}")


# ----------------------------------------------------------------- subcommands

def _cmd_coeffs(cfg, timestamp):
    coeffs = maps.gen_logistic_coeffs(cfg["m"]).coefficients
    print(" ".join(str(c) for c in coeffs))
    if cfg["out"]:
        rows = [(len(coeffs) - 1 - i, c) for i, c in enumerate(coeffs)]
        _write_csv(cfg["out"], ["degree", "coefficient"], rows, cfg, timestamp)
    return EXIT_OK


def _cmd_bands(cfg, timestamp):
    V = _potential_from(cfg)
    l, lambda_max = cfg["l"], cfg["lambda_max"]
    fmt = cfg["format"] or ("json" if cfg["out"].endswith(".json") else "csv")
    if fmt == "json":
        blist = hill.spectrum_bands(V, l, lambda_max)
        _write_json(cfg["out"], dataclasses.asdict(blist), cfg, timestamp)
    else:
        if not l > 0:
            raise ValueError("cell length must be positive")
        if cfg["k_points"] < 2:
            raise ConfigurationError("--k-points must be at least 2, the ends of the k grid")
        if not math.isfinite(lambda_max):
            raise ValueError(f"lambda_max must be finite, not {lambda_max}")
        # Rows need whole bands.  Band n lies in [((n-1) pi/l)^2 + min V,
        # (n pi/l)^2 + max V] (the edges grow with V), so each band that starts
        # at or below lambda_max (above min V, as for the JSON) ends below top.
        if lambda_max <= V.min_value():
            raise ValueError("lambda_max must exceed the spectral floor")
        top = (math.sqrt(lambda_max - V.min_value()) + math.pi / l) ** 2 + V.max_value()
        blist = hill.spectrum_bands(V, l, top)
        ks = np.linspace(0.0, math.pi / l, cfg["k_points"])
        rows = []
        for idx, (a, _) in enumerate(blist.bands, start=1):
            if a > lambda_max:
                break
            lams = hill.band_function(V, l, blist, idx, ks)
            rows.extend((idx, float(k), float(lam)) for k, lam in zip(ks, lams))
        _write_csv(cfg["out"], ["band_index", "k", "lambda"], rows, cfg, timestamp)
    for warning in blist.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OK


def _cmd_orbit(cfg, timestamp):
    family = cfg["map"].replace("-", "_")
    if family == "logistic":
        md = maps.MapDescriptor.logistic(cfg["r"])
    else:
        md = maps.MapDescriptor(family, m=cfg["m"])
    orbit = maps.iterate(md, cfg["x0"], cfg["n"])
    rows = list(enumerate(orbit.values.tolist()))
    _write_csv(cfg["out"], ["step", "value"], rows, cfg, timestamp)
    return EXIT_OK


def _cmd_density_evolve(cfg, timestamp):
    records, final = transfer.evolve_genlogistic(cfg["m"], cfg["steps"], cfg["resolution"])
    fmt = cfg["format"] or ("csv" if cfg["out"].endswith(".csv") else "json")
    if fmt == "csv":
        rows = [r.values() for r in records]
        _write_csv(cfg["out"], list(records[0]), rows, cfg, timestamp)
    else:
        _write_json(cfg["out"], {"report": records}, cfg, timestamp)
    if cfg["save_density"]:
        _write_csv(
            cfg["save_density"],
            ["edge_left", "edge_right", "value"],
            final.to_csv_rows(),
            cfg,
            timestamp,
        )
    return EXIT_OK


def _cmd_ensemble(cfg, timestamp):
    if cfg["threads"] < 0:
        raise ConfigurationError("--threads must be nonnegative (0 = the CPU count)")
    dist = ensemble.InitialDistribution.shifted_gamma(clamp_to_domain=cfg["clamp"])
    if cfg["dist"] == "uniform":
        dist = ensemble.InitialDistribution.uniform()
    # 0 asks for the CPU count; the experiment uses at most the CPUs this
    # process may run on, and its report does not depend on the count
    threads = cfg["threads"] or (os.cpu_count() or 1)
    report = ensemble.convergence_experiment(
        cfg["m"], dist, cfg["samples"], cfg["iters"], cfg["seed"], threads=threads
    )
    fmt = cfg["format"] or ("csv" if cfg["out"].endswith(".csv") else "json")
    if fmt == "csv":
        rows = list(enumerate(report.distances))
        _write_csv(cfg["out"], ["iteration", "wasserstein1"], rows, cfg, timestamp)
    else:
        payload = dataclasses.asdict(report)
        payload["config"]["threads"] = threads
        _write_json(cfg["out"], {"report": payload}, cfg, timestamp)
    if report.fitted_slope is not None:
        print(f"fitted_slope = {report.fitted_slope:.6f} over iterations {report.fit_range}")
    return EXIT_OK


def _cmd_lyapunov(cfg, timestamp):
    if cfg["method"] == "quadrature":
        res = lyapunov.average_lyapunov_quadrature(cfg["m"])
    else:
        res = lyapunov.average_lyapunov_orbit(cfg["m"], cfg["x0"], cfg["n"])
    print(f"lyapunov({cfg['m']}) = {res.value:.10f} [{res.method}]")
    if cfg["out"]:
        _write_json(cfg["out"], {"result": dataclasses.asdict(res)}, cfg, timestamp)
    return EXIT_OK


def _cmd_integral_sweep(cfg, timestamp):
    if not (math.isfinite(cfg["a_min"]) and math.isfinite(cfg["a_max"])):
        raise ConfigurationError(
            f"--a-min and --a-max must be finite, not {cfg['a_min']} and {cfg['a_max']}")
    if cfg["count"] < 1:
        raise ConfigurationError(f"--count must be at least 1, not {cfg['count']}")
    grid = np.linspace(cfg["a_min"], cfg["a_max"], cfg["count"])
    rows = [(float(a), float(i)) for a, i in zip(grid, lyapunov.I_integral(grid, cfg["abs_tol"]))]
    _write_csv(cfg["out"], ["a", "I"], rows, cfg, timestamp)
    return EXIT_OK


def _cmd_mathieu(cfg, timestamp):
    lam0 = maps.mathieu_lambda0()
    print(f"lambda0 = {lam0:.8f}")
    md = maps.MapDescriptor.logistic(4.0)
    direct = maps.iterate(md, cfg["x0"], cfg["n"]).values
    rows = []
    print(f"{'n':>3} {'cosine-cell':>22} {'direct':>22} {'diff':>10}")
    for n in range(cfg["n"] + 1):
        via = maps.mathieu_formula(cfg["x0"], n)
        rows.append((n, via, float(direct[n]), abs(via - direct[n])))
        print(f"{n:>3} {via:>22.15f} {direct[n]:>22.15f} {abs(via - direct[n]):>10.2e}")
    if cfg["out"]:
        _write_csv(
            cfg["out"], ["n", "formula", "direct", "abs_diff"], rows, cfg, timestamp
        )
    return EXIT_OK


def _cmd_mixing_check(cfg, timestamp):
    A = (Fraction(cfg["a_left"]), Fraction(cfg["a_right"]))
    B = (Fraction(cfg["b_left"]), Fraction(cfg["b_right"]))
    if cfg["n_max"] < 1:
        raise ConfigurationError(f"--n-max must be at least 1, not {cfg['n_max']}")
    rows = []
    for n in range(1, cfg["n_max"] + 1):
        corr = transfer.mixing_correlation(cfg["m"], n, A, B)
        rows.append((n, float(corr), int(corr == 0)))
    _write_csv(cfg["out"], ["n", "correlation", "exact_zero"], rows, cfg, timestamp)
    return EXIT_OK


# ------------------------------------------------------------------- wiring

@functools.cache  # one per process: parsing leaves no state on it
def _build_parser() -> _Parser:
    parser = _Parser(prog="hillmap", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, options):
        p = sub.add_parser(name)
        p.set_defaults(_func=func, _options=dict(options))
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--no-timestamp", action="store_true")
        for key, default in options.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(default, bool):
                p.add_argument(flag, default=default, action=argparse.BooleanOptionalAction)
            else:
                cast = type(default) if default is not None else str
                p.add_argument(flag, type=cast, default=default, choices=_CHOICES.get(key))
        return p

    add("coeffs", _cmd_coeffs, {"m": 2, "out": None})
    add("bands", _cmd_bands, {
        "potential": "free", "value": None, "breakpoints": None, "values": None,
        "l": 1.0, "lambda_max": 40.0, "k_points": 33, "out": "bands.csv",
        "format": None,
    })
    add("orbit", _cmd_orbit, {
        "map": "logistic", "r": 4.0, "m": 2, "x0": 0.3, "n": 100,
        "out": "orbit.csv",
    })
    add("density-evolve", _cmd_density_evolve, {
        "m": 2, "steps": 5, "resolution": 2**14, "out": "evolution.json",
        "format": None, "save_density": None,
    })
    add("ensemble", _cmd_ensemble, {
        "m": 2, "samples": 10**6, "iters": 8, "seed": 0, "threads": 0,
        "dist": "shifted_gamma", "clamp": False, "out": "ensemble.json",
        "format": None,
    })
    add("lyapunov", _cmd_lyapunov, {
        "m": 2, "method": "quadrature", "x0": 0.123456, "n": 10**6, "out": None,
    })
    add("integral-sweep", _cmd_integral_sweep, {
        "a_min": -3.0, "a_max": 3.0, "count": 61, "abs_tol": QUAD_TOL,
        "out": "integral.csv",
    })
    add("mathieu", _cmd_mathieu, {"x0": 0.2, "n": 4, "out": None})
    add("mixing-check", _cmd_mixing_check, {
        "m": 2, "a_left": "0", "a_right": "1/4", "b_left": "1/4",
        "b_right": "1/2", "n_max": 6, "out": "mixing.csv",
    })
    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:  # the file's flags go first, so flags > file > defaults
            at = argv.index(args.subcommand) + 1
            args = parser.parse_args(
                [*argv[:at], *_config_flags(args.config, args._options), *argv[at:]])
        cfg = {key: getattr(args, key) for key in args._options}
        cfg["subcommand"] = args.subcommand
        return args._func(cfg, timestamp=not args.no_timestamp)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    # ConfigurationError and DomainError are ValueErrors; a MemoryError is a
    # size no array can take
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
