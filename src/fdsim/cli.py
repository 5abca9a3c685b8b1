"""Command-line front end for residual SI and SINR experiments.

Subcommands:
  si       run the empirical and/or theoretical residual SI experiment,
           writing sample or histogram data plus a summary record
  moments  print the closed-form moments and Gamma parameters
  sinr     run multi-cell SINR sampling and write per-term samples

All numeric output is emitted with round-trip double precision.  A run
formats all of its output before it creates any file, writes every file
under a temporary name and then renames them all, so a failed run leaves
none of its output set.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from .channel import RicianSpec, rician_from_factor
from .closedform import (
    SystemGeometry,
    gamma_mimo,
    moment1,
    moment2,
    si_variance,
)
from .exceptions import InvalidParameterError
from .mc import Direction, ExperimentConfig, run_si_empirical, run_si_theoretical, run_sinr
from .stats import histogram

SUMMARY_COLUMNS = [
    "M", "N", "K", "mu", "nu", "trials", "seed",
    "emp_m1", "emp_m2", "emp_var",
    "cf_m1", "cf_m2", "cf_var",
    "kappa", "theta", "ks",
]

MOMENT_COLUMNS = ["M", "N", "K", "mu", "nu", "m1", "m2", "var", "kappa", "theta"]

SINR_COLUMNS = ["trial", "k", "useful", "mui", "ici", "cmi", "si", "noise", "sinr"]

_DEFAULTS = dict(
    M=16, N=8, K=1, L=1, trials=100000, noise=1.0, mode="empirical",
    direction="downlink", format="csv", threads=1,
)


def _table(header, columns, fmt: str) -> str:
    """CSV or JSONL text of equal-length columns of Python scalars (``str`` is
    the round-trip ``repr`` for floats)."""
    rows = zip(*columns)
    if fmt == "jsonl":
        return "".join(
            json.dumps(dict(zip(header, row)), allow_nan=False) + "\n" for row in rows
        )
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


def _atomic_write(files: dict) -> None:
    """Write ``{path: text}`` to temporary files, then rename them all; on any
    failure remove the temporary files and the targets already renamed."""
    staged, renamed = [], []
    try:
        for path, text in files.items():
            d = os.path.dirname(os.path.abspath(path))
            fd, tmp = tempfile.mkstemp(dir=d, prefix=".fdsim-", suffix=".tmp")
            staged.append(tmp)
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
        for tmp, path in zip(staged, files):
            os.replace(tmp, path)
            renamed.append(path)
    except BaseException:
        for p in staged + renamed:
            if os.path.exists(p):
                os.unlink(p)
        raise


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--M", type=int, help="transmit antennas at the FD node")
    p.add_argument("--N", type=int, help="receive antennas at the FD node")
    p.add_argument("--K", type=int, help="number of FD radios / streams")
    p.add_argument("--mu", type=float, help="SI channel complex-Gaussian mean")
    p.add_argument("--nu", type=float, help="SI channel std (sqrt of total variance)")
    p.add_argument("--varpi", type=float, help="Rician factor (alternative to --mu/--nu)")
    p.add_argument("--omega", type=float, help="fading attenuation (with --varpi)")
    p.add_argument("--format", choices=["csv", "jsonl"], help="output format (default csv)")
    p.add_argument("--config", help="JSON file with flag defaults; flags override")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trials", type=int, help="Monte Carlo trial count")
    p.add_argument("--seed", type=int, help="RNG seed (fallback: FDSIM_SEED, then 0)")
    p.add_argument("--out", help="output file path")
    p.add_argument("--threads", type=int, help="worker thread cap, >= 1 (default 1)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fdsim", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    p_si = sub.add_parser("si", help="residual SI distribution experiment")
    _add_model_flags(p_si)
    _add_run_flags(p_si)
    p_si.add_argument("--bins", type=int, help="histogram bin count; omit to emit raw samples")
    p_si.add_argument("--mode", choices=["empirical", "theoretical", "both"])

    p_mom = sub.add_parser("moments", help="closed-form moments and Gamma parameters")
    _add_model_flags(p_mom)

    p_sinr = sub.add_parser("sinr", help="multi-cell SINR term sampling")
    _add_model_flags(p_sinr)
    _add_run_flags(p_sinr)
    p_sinr.add_argument("--L", type=int, help="number of cells (default 1)")
    p_sinr.add_argument("--noise", type=float, help="noise power (default 1.0)")
    p_sinr.add_argument("--direction", choices=["downlink", "uplink"])

    return p


def _merge_config(ns: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """Resolve flag > config file > default (FDSIM_SEED for the seed) per setting.

    Config-file and FDSIM_SEED values go through the flag's own ``type``
    and ``choices``; the setting names are the flags of every subcommand.
    The result holds only the settings of the running subcommand: config
    values for the other flags are type-checked, then dropped.
    """
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {
        a.dest: a for p in sub.choices.values() for a in p._actions
        if a.option_strings and a.dest not in ("help", "config")
    }
    own = {a.dest for a in sub.choices[ns.command]._actions} & actions.keys()

    def typed(key, val, source):
        action = actions[key]
        try:
            if isinstance(val, (bool, list, dict)):
                raise TypeError
            val = (action.type or str)(str(val))
            if action.choices is not None and val not in action.choices:
                raise ValueError
        except (TypeError, ValueError):
            parser.error(f"{source}: invalid --{key} value: {val!r}")
        return val

    file_vals = {}
    if ns.config:
        source = f"--config {ns.config}"
        try:
            with open(ns.config) as fh:
                file_vals = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read {source}: {exc}")
        if not isinstance(file_vals, dict):
            parser.error(f"{source}: expected a JSON object")
        unknown = set(file_vals) - set(actions)
        if unknown:
            parser.error(f"unknown keys in --config: {sorted(unknown)}")
        file_vals = {k: typed(k, v, source) for k, v in file_vals.items() if v is not None}

    flags = {k: getattr(ns, k) for k in own if getattr(ns, k) is not None}
    vals = {**_DEFAULTS, **file_vals, **flags}
    merged = {k: vals.get(k) for k in own}

    mu_given = merged["mu"] is not None or merged["nu"] is not None
    factor_given = merged["varpi"] is not None or merged["omega"] is not None
    if mu_given and factor_given:
        parser.error("(--mu, --nu) and (--varpi, --omega) are mutually exclusive")

    if "seed" in merged and merged["seed"] is None:
        merged["seed"] = typed("seed", os.environ.get("FDSIM_SEED", "0"), "FDSIM_SEED")
    for key in ("bins", "threads"):
        if merged.get(key) is not None and merged[key] < 1:
            parser.error(f"--{key} must be >= 1, got {merged[key]}")
    return merged


def _resolve_spec(merged: dict) -> RicianSpec:
    if merged["varpi"] is not None or merged["omega"] is not None:
        varpi = merged["varpi"] if merged["varpi"] is not None else 0.0
        omega = merged["omega"] if merged["omega"] is not None else 1.0
        return rician_from_factor(varpi, omega)
    mu = merged["mu"] if merged["mu"] is not None else 0.0
    nu = merged["nu"] if merged["nu"] is not None else 1.0
    return RicianSpec(mu, nu)


def _data_path(out: str, suffix: str) -> str:
    stem, ext = os.path.splitext(out)
    return f"{stem}_{suffix}{ext or '.csv'}"


def _closed_form(geom: SystemGeometry, spec: RicianSpec) -> list:
    """Closed-form m1, m2, variance and matched Gamma (kappa, theta)."""
    gp = gamma_mimo(geom, spec)
    return [
        moment1(geom.K, spec), moment2(geom, spec), si_variance(geom, spec),
        gp.kappa, gp.theta,
    ]


def _cmd_si(merged: dict, cfg: ExperimentConfig, head: list, cf: list) -> dict:
    out, bins, fmt = merged["out"], merged["bins"], merged["format"]
    runs = {}
    if merged["mode"] in ("empirical", "both"):
        runs["empirical"] = run_si_empirical(cfg, threads=merged["threads"])
    if merged["mode"] in ("theoretical", "both"):
        runs["theoretical"] = run_si_theoretical(cfg, threads=merged["threads"])
    files = {}
    for label, report in runs.items():
        if bins is None:
            table = _table(["si_gain"], [report.samples.tolist()], fmt)
        else:
            h = histogram(report.samples, bins)
            table = _table(
                ["bin_left", "count"], [h.bin_edges[:-1].tolist(), h.counts.tolist()], fmt
            )
        files[_data_path(out, label)] = table
    rows = [
        head + [cfg.trials, cfg.seed, r.emp_m1, r.emp_m2, r.emp_var]
        + cf + [r.gof.ks_statistic]
        for r in runs.values()
    ]
    files[_data_path(out, "summary")] = _table(SUMMARY_COLUMNS, zip(*rows), fmt)
    return files


def _cmd_sinr(merged: dict, cfg: ExperimentConfig) -> dict:
    cfg = replace(cfg, noise_power=merged["noise"], direction=Direction(merged["direction"]))
    terms = run_sinr(cfg, threads=merged["threads"])
    T, K = cfg.trials, cfg.geom.K
    columns = [np.repeat(np.arange(T), K).tolist(), np.tile(np.arange(K), T).tolist()]
    columns += [terms[key].ravel().tolist() for key in SINR_COLUMNS[2:]]
    return {merged["out"]: _table(SINR_COLUMNS, columns, merged["format"])}


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    merged = _merge_config(ns, parser)
    out = merged.get("out")
    out_ok = (
        out and not out.endswith(os.sep) and not os.path.isdir(out)
        and os.path.isdir(os.path.dirname(os.path.abspath(out)))
    )
    if ns.command != "moments" and not out_ok:
        print(f"fdsim {ns.command}: --out must name a file in an existing directory",
              file=sys.stderr)
        return 2
    try:
        spec = _resolve_spec(merged)
        geom = SystemGeometry(L=merged.get("L", 1), K=merged["K"], M=merged["M"], N=merged["N"])
        head = [geom.M, geom.N, geom.K, spec.mu, spec.nu]
        if ns.command == "moments":
            row = head + _closed_form(geom, spec)
            sys.stdout.write(_table(MOMENT_COLUMNS, [[v] for v in row], merged["format"]))
            return 0
        cfg = ExperimentConfig(
            geom=geom, si_spec=spec, trials=merged["trials"], seed=merged["seed"],
        )
        if ns.command == "si":
            files = _cmd_si(merged, cfg, head, _closed_form(geom, spec))
        else:
            files = _cmd_sinr(merged, cfg)
        _atomic_write(files)
        return 0
    except InvalidParameterError as exc:
        print(f"fdsim: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"fdsim: numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
