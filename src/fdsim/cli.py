"""Command-line front end for residual SI and SINR experiments.

Subcommands:
  si       run the empirical and/or theoretical residual SI experiment,
           writing sample or histogram data plus a summary record
  moments  print the closed-form moments and Gamma parameters
  sinr     run multi-cell SINR sampling and write per-term samples

All numeric output is emitted with round-trip double precision.  Files
are written to a temporary name and atomically renamed, so a failed run
leaves no partial output.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from .channel import RicianSpec, rician_from_factor
from .closedform import (
    SystemGeometry,
    gamma_mimo,
    moment1,
    moment2,
    si_variance,
)
from .exceptions import InvalidParameterError, SingularChannelError
from .mc import Direction, ExperimentConfig, run_si_empirical, run_si_theoretical, run_sinr
from .stats import histogram

SUMMARY_COLUMNS = [
    "M", "N", "K", "mu", "nu", "trials", "seed",
    "emp_m1", "emp_m2", "emp_var",
    "cf_m1", "cf_m2", "cf_var",
    "kappa", "theta", "ks",
]

SINR_COLUMNS = ["trial", "k", "useful", "mui", "ici", "cmi", "si", "noise", "sinr"]

_CONFIG_KEYS = (
    "M", "N", "K", "L", "mu", "nu", "varpi", "omega", "trials", "seed",
    "noise", "mode", "direction", "bins", "out", "format", "threads",
)


def _fmt(v) -> str:
    """Round-trip decimal for floats, plain str otherwise."""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".fdsim-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _rows_to_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _rows_to_jsonl(columns, rows) -> str:
    return "".join(
        json.dumps(dict(zip(columns, row)), allow_nan=False) + "\n" for row in rows
    )


def _write_rows(path, columns, rows, fmt) -> None:
    if fmt == "jsonl":
        _atomic_write(path, _rows_to_jsonl(columns, rows))
    else:
        _atomic_write(path, _rows_to_csv(columns, rows))


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--M", type=int, help="transmit antennas at the FD node")
    p.add_argument("--N", type=int, help="receive antennas at the FD node")
    p.add_argument("--K", type=int, help="number of FD radios / streams")
    p.add_argument("--L", type=int, help="number of cells")
    p.add_argument("--mu", type=float, help="SI channel complex-Gaussian mean")
    p.add_argument("--nu", type=float, help="SI channel std (sqrt of total variance)")
    p.add_argument("--varpi", type=float, help="Rician factor (alternative to --mu/--nu)")
    p.add_argument("--omega", type=float, help="fading attenuation (with --varpi)")
    p.add_argument("--trials", type=int, help="Monte Carlo trial count")
    p.add_argument("--seed", type=int, help="RNG seed (fallback: FDSIM_SEED, then 0)")
    p.add_argument("--noise", type=float, help="noise power (default 1.0)")
    p.add_argument("--bins", type=int, help="histogram bin count; omit to emit raw samples")
    p.add_argument("--out", help="output file path")
    p.add_argument("--format", choices=["csv", "jsonl"], help="output format (default csv)")
    p.add_argument("--threads", type=int, help="worker thread cap (default 1)")
    p.add_argument("--config", help="JSON file with flag defaults; flags override")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fdsim", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    p_si = sub.add_parser("si", help="residual SI distribution experiment")
    _add_common_flags(p_si)
    p_si.add_argument("--mode", choices=["empirical", "theoretical", "both"])

    p_mom = sub.add_parser("moments", help="closed-form moments and Gamma parameters")
    _add_common_flags(p_mom)

    p_sinr = sub.add_parser("sinr", help="multi-cell SINR term sampling")
    _add_common_flags(p_sinr)
    p_sinr.add_argument("--direction", choices=["downlink", "uplink"])

    return p


def _merge_config(ns: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """Resolve flag > config file > default for every setting."""
    file_vals = {}
    if getattr(ns, "config", None):
        try:
            with open(ns.config) as fh:
                file_vals = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read --config {ns.config}: {exc}")
        unknown = set(file_vals) - set(_CONFIG_KEYS)
        if unknown:
            parser.error(f"unknown keys in --config: {sorted(unknown)}")

    merged = {}
    for key in _CONFIG_KEYS:
        flag_val = getattr(ns, key, None)
        merged[key] = flag_val if flag_val is not None else file_vals.get(key)

    mu_given = merged["mu"] is not None or merged["nu"] is not None
    factor_given = merged["varpi"] is not None or merged["omega"] is not None
    if mu_given and factor_given:
        parser.error("(--mu, --nu) and (--varpi, --omega) are mutually exclusive")

    merged.setdefault("seed", None)
    if merged["seed"] is None:
        merged["seed"] = int(os.environ.get("FDSIM_SEED", "0"))

    defaults = dict(
        M=16, N=8, K=1, L=1, trials=100000, noise=1.0, mode="empirical",
        direction="downlink", bins=None, format="csv", threads=1,
    )
    for key, val in defaults.items():
        if merged[key] is None:
            merged[key] = val
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


def _write_report_data(report, path: str, bins, fmt: str) -> None:
    if bins is not None:
        h = histogram(report.samples, bins)
        rows = list(zip((float(e) for e in h.bin_edges[:-1]), (int(c) for c in h.counts)))
        _write_rows(path, ["bin_left", "count"], rows, fmt)
    else:
        _write_rows(path, ["si_gain"], [(float(x),) for x in report.samples], fmt)


def _summary_row(merged, spec, geom, report) -> list:
    gp = gamma_mimo(geom, spec)
    return [
        geom.M, geom.N, geom.K, spec.mu, spec.nu,
        merged["trials"], merged["seed"],
        report.emp_m1, report.emp_m2, report.emp_var,
        moment1(geom.K, spec), moment2(geom, spec), si_variance(geom, spec),
        gp.kappa, gp.theta, report.gof.ks_statistic,
    ]


def _cmd_si(merged: dict) -> int:
    spec = _resolve_spec(merged)
    geom = SystemGeometry(L=merged["L"], K=merged["K"], M=merged["M"], N=merged["N"])
    if not merged["out"]:
        print("fdsim si: --out is required", file=sys.stderr)
        return 2
    fmt = merged["format"]
    cfg = ExperimentConfig(
        geom=geom, si_spec=spec, trials=merged["trials"], seed=merged["seed"],
        noise_power=merged["noise"],
    )
    runs = []
    if merged["mode"] in ("empirical", "both"):
        runs.append(("empirical", run_si_empirical(cfg, threads=merged["threads"])))
    if merged["mode"] in ("theoretical", "both"):
        runs.append(("theoretical", run_si_theoretical(cfg, threads=merged["threads"])))

    summary_rows = []
    for label, report in runs:
        _write_report_data(report, _data_path(merged["out"], label), merged["bins"], fmt)
        summary_rows.append(_summary_row(merged, spec, geom, report))
    _write_rows(_data_path(merged["out"], "summary"), SUMMARY_COLUMNS, summary_rows, fmt)
    return 0


def _cmd_moments(merged: dict) -> int:
    spec = _resolve_spec(merged)
    geom = SystemGeometry(L=merged["L"], K=merged["K"], M=merged["M"], N=merged["N"])
    gp = gamma_mimo(geom, spec)
    columns = ["M", "N", "K", "mu", "nu", "m1", "m2", "var", "kappa", "theta"]
    row = [
        geom.M, geom.N, geom.K, spec.mu, spec.nu,
        moment1(geom.K, spec), moment2(geom, spec), si_variance(geom, spec),
        gp.kappa, gp.theta,
    ]
    if merged["format"] == "jsonl":
        sys.stdout.write(_rows_to_jsonl(columns, [row]))
    else:
        sys.stdout.write(_rows_to_csv(columns, [row]))
    return 0


def _cmd_sinr(merged: dict) -> int:
    spec = _resolve_spec(merged)
    geom = SystemGeometry(L=merged["L"], K=merged["K"], M=merged["M"], N=merged["N"])
    if not merged["out"]:
        print("fdsim sinr: --out is required", file=sys.stderr)
        return 2
    cfg = ExperimentConfig(
        geom=geom, si_spec=spec, trials=merged["trials"], seed=merged["seed"],
        noise_power=merged["noise"],
        direction=Direction(merged["direction"]),
    )
    terms = run_sinr(cfg, threads=merged["threads"])
    rows = []
    for t in range(merged["trials"]):
        for k in range(geom.K):
            rows.append(
                [t, k]
                + [float(terms[key][t, k]) for key in SINR_COLUMNS[2:]]
            )
    _write_rows(merged["out"], SINR_COLUMNS, rows, merged["format"])
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    merged = _merge_config(ns, parser)
    try:
        if ns.command == "si":
            return _cmd_si(merged)
        if ns.command == "moments":
            return _cmd_moments(merged)
        return _cmd_sinr(merged)
    except InvalidParameterError as exc:
        print(f"fdsim: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except (SingularChannelError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"fdsim: numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
