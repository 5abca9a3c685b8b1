"""Command-line front end for residual SI and SINR experiments.

Subcommands:
  si       run the empirical and/or theoretical residual SI experiment,
           writing sample or histogram data plus a summary record
  moments  print the closed-form moments and Gamma parameters
  sinr     run multi-cell SINR sampling and write per-term samples

Numbers are written as round-trip ``repr`` text, integers and float64s by one
orjson call per run of same-dtype columns per block of rows, with CSV row ends
set in its bytes.  A run streams its output, one block of rows at a time, into
staged temporary files that are renamed together once every file is complete,
so a failed or interrupted run leaves none of its output set.
"""
from __future__ import annotations

import argparse
import json
import os
import secrets
import sys
from dataclasses import replace
from itertools import groupby

import numpy as np
import orjson

from .channel import RicianSpec, rician_from_factor
from .closedform import (
    SystemGeometry,
    gamma_mimo,
    moment1,
    moment2,
    si_variance,
)
from .exceptions import InvalidParameterError
from .mc import (
    BLOCK_SIZE,
    Direction,
    ExperimentConfig,
    run_si_empirical,
    run_si_theoretical,
    run_sinr,
)
from .stats import histogram

SUMMARY_COLUMNS = [
    "M", "N", "K", "mu", "nu", "trials", "seed",
    "emp_m1", "emp_m2", "emp_var",
    "cf_m1", "cf_m2", "cf_var",
    "kappa", "theta", "ks",
]

MOMENT_COLUMNS = ["M", "N", "K", "mu", "nu", "m1", "m2", "var", "kappa", "theta"]

SINR_COLUMNS = ["trial", "k", "useful", "mui", "ici", "cmi", "si", "noise", "sinr"]

_COMMANDS = {
    "si": "residual SI distribution experiment",
    "moments": "closed-form moments and Gamma parameters",
    "sinr": "multi-cell SINR term sampling",
}

# setting -> (the subcommands that take it, its add_argument keywords, its default)
_MODEL, _RUN = ("si", "moments", "sinr"), ("si", "sinr")
_SETTINGS = {
    "M": (_MODEL, dict(type=int, help="transmit antennas at the FD node"), 16),
    "N": (_MODEL, dict(type=int, help="receive antennas at the FD node"), 8),
    "K": (_MODEL, dict(type=int, help="number of FD radios / streams"), 1),
    "mu": (_MODEL, dict(type=float, help="SI channel complex-Gaussian mean"), None),
    "nu": (_MODEL, dict(type=float, help="SI channel std (sqrt of total variance)"), None),
    "varpi": (_MODEL, dict(type=float, help="Rician factor (alternative to --mu/--nu)"), None),
    "omega": (_MODEL, dict(type=float, help="fading attenuation (with --varpi)"), None),
    "format": (_MODEL, dict(choices=["csv", "jsonl"], help="output format (default csv)"), "csv"),
    "trials": (_RUN, dict(type=int, help="Monte Carlo trial count"), 100000),
    "seed": (_RUN, dict(type=int, help="RNG seed (fallback: FDSIM_SEED, then 0)"), None),
    "out": (_RUN, dict(help="output file path"), None),
    "threads": (_RUN, dict(type=int, help="worker thread cap, >= 1 (default 1)"), 1),
    "bins": (("si",), dict(type=int, help="histogram bin count; omit to emit raw samples"), None),
    "mode": (("si",), dict(choices=["empirical", "theoretical", "both"]), "empirical"),
    "L": (("sinr",), dict(type=int, help="number of cells (default 1)"), 1),
    "noise": (("sinr",), dict(type=float, help="noise power (default 1.0)"), 1.0),
    "direction": (("sinr",), dict(choices=["downlink", "uplink"]), "downlink"),
}


def _run_text(run: list) -> bytes:
    """The comma-separated ``repr`` text of a run's values in row-major order.
    orjson writes it for native integers and float64s, but for a nonzero float64
    outside ``1e-4 <= |x| < 1e16`` (``0.00003``, ``1e16``, ``null``): ``repr``'s goes in."""
    values = run[0] if len(run) == 1 else np.stack(run, axis=1).ravel()
    dtype = values.dtype
    if not (dtype.isnative and (dtype.kind in "iu" or dtype == np.float64)):
        return ",".join(map(repr, values.tolist())).encode()
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
    if dtype.kind == "f":
        a = np.abs(values)
        outside = np.flatnonzero(~((a >= 1e-4) & (a < 1e16)) & (values != 0))
        if outside.size:  # value i spans bounds[i] + 1 to bounds[i + 1]
            commas = np.flatnonzero(np.frombuffer(text, np.uint8) == ord(","))
            bounds = np.concatenate(([-1], commas, [len(text)]))
            pieces, end = [], 0
            for i in outside:
                pieces += [text[end:bounds[i] + 1], repr(float(values[i])).encode()]
                end = bounds[i + 1]
            text = b"".join(pieces + [text[end:]])
    return text


def _csv_rows(text: bytes, width: int) -> bytearray:
    """``text`` of ``width`` values a row with every ``width``-th comma made a row end."""
    rows = bytearray(text + b",")
    codes = np.frombuffer(rows, np.uint8)
    codes[np.flatnonzero(codes == ord(","))[width - 1::width]] = ord("\n")
    return rows


def _table(header, columns, fmt: str):
    """Yield the CSV or JSONL text of equal-length ndarray columns of numbers,
    one block of ``BLOCK_SIZE`` rows at a time.  Each run of same-dtype columns
    in a block takes its text from one ``_run_text`` call; the runs are joined
    row by row (CSV), or a run's column j is its every width-th value (JSONL)."""
    if fmt == "jsonl":
        template = "{" + ", ".join(f"{json.dumps(h)}: %s" for h in header) + "}\n"
    else:
        yield ",".join(header) + "\n"
    for i in range(0, len(columns[0]), BLOCK_SIZE):
        block = [np.ascontiguousarray(c[i:i + BLOCK_SIZE]) for c in columns]
        if fmt == "jsonl" and any(c.dtype.kind == "f" and not np.isfinite(c).all() for c in block):
            raise ValueError("Out of range float values are not JSON compliant")
        runs = [list(run) for _, run in groupby(block, key=lambda c: c.dtype)]
        if fmt == "jsonl":
            values = []
            for run in runs:
                text = _run_text(run).decode().split(",")
                values += [text[j::len(run)] for j in range(len(run))]
            yield "".join(map(template.__mod__, zip(*values)))
        else:
            text = [_csv_rows(_run_text(run), len(run)).decode() for run in runs]
            if len(text) > 1:
                text = ["\n".join(map(",".join, zip(*map(str.splitlines, text)))) + "\n"]
            yield text[0]


def _atomic_write(files: dict) -> None:
    """Stream ``{path: iterable of str}`` into new randomly named files beside
    their targets, then rename them all; on any failure remove the staged
    files and the targets already renamed.  The files get the umask's mode."""
    staged, renamed = [], []
    try:
        for path, chunks in files.items():
            tmp = os.path.join(os.path.dirname(path), f".fdsim-{secrets.token_hex(8)}.tmp")
            with open(tmp, "x") as fh:  # refuses an existing file or symlink
                staged.append(tmp)
                fh.writelines(chunks)
        for tmp, path in zip(staged, files):
            os.replace(tmp, path)
            renamed.append(path)
    except BaseException:
        for p in staged + renamed:
            if os.path.exists(p):
                os.unlink(p)
        raise


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fdsim", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    for command, help_text in _COMMANDS.items():
        p_cmd = sub.add_parser(command, help=help_text)
        for name, (commands, kwargs, _) in _SETTINGS.items():
            if command in commands:
                p_cmd.add_argument(f"--{name}", **kwargs)
        p_cmd.add_argument("--config", help="JSON file with flag defaults; flags override")
    return p


def _merge_config(ns: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """Resolve flag > config file > default (FDSIM_SEED for the seed) per setting.

    Config-file and FDSIM_SEED values go through the setting's ``type``
    and ``choices``; the setting names are the keys of ``_SETTINGS``.  The
    result holds only the settings of the running subcommand: config
    values for the other settings are type-checked, then dropped.
    """
    def typed(key, val, source):
        kwargs = _SETTINGS[key][1]
        try:
            if isinstance(val, (bool, list, dict)):
                raise TypeError
            val = kwargs.get("type", str)(str(val))
            if "choices" in kwargs and val not in kwargs["choices"]:
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
        unknown = set(file_vals) - set(_SETTINGS)
        if unknown:
            parser.error(f"unknown keys in --config: {sorted(unknown)}")
        file_vals = {k: typed(k, v, source) for k, v in file_vals.items() if v is not None}

    merged = {}
    for k, (commands, _, default) in _SETTINGS.items():
        if ns.command in commands:
            flag = getattr(ns, k)
            merged[k] = flag if flag is not None else file_vals.get(k, default)

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


def _data_path(out: str, suffix: str, fmt: str) -> str:
    stem, ext = os.path.splitext(out)
    return f"{stem}_{suffix}{ext or '.' + fmt}"


def _si_labels(merged: dict) -> list:
    """The experiments an ``si`` run makes, in output order."""
    return ["empirical", "theoretical"] if merged["mode"] == "both" else [merged["mode"]]


def _out_error(command: str, merged: dict) -> str | None:
    """Why ``--out`` cannot name the output set of an ``si`` or ``sinr`` run."""
    out = merged["out"]
    directory = os.path.dirname(os.path.abspath(out)) if out else ""
    if not out or out.endswith(os.sep) or os.path.isdir(out) or not os.path.isdir(directory):
        return "--out must name a file in an existing directory"
    if not os.access(directory, os.W_OK | os.X_OK):
        return "--out must name a file in a directory this process can write to"
    if command == "sinr":
        targets = [out]
    else:
        labels = _si_labels(merged) + ["summary"]
        targets = [_data_path(out, label, merged["format"]) for label in labels]
    clash = next((t for t in targets if os.path.isdir(t)), None)
    if clash:
        return f"--out would write {clash}, which is a directory"
    name_max = os.pathconf(directory, "PC_NAME_MAX")
    longest = max(len(os.fsencode(os.path.basename(t))) for t in targets)
    if 0 < name_max < longest:
        return f"--out gives a {longest}-byte file name, over the directory's {name_max}-byte limit"
    return None


def _closed_form(geom: SystemGeometry, spec: RicianSpec) -> list:
    """Closed-form m1, m2, variance and matched Gamma (kappa, theta)."""
    gp = gamma_mimo(geom, spec)
    return [
        moment1(geom.K, spec), moment2(geom, spec), si_variance(geom, spec),
        gp.kappa, gp.theta,
    ]


def _cmd_si(merged: dict, cfg: ExperimentConfig, head: list, cf: list) -> dict:
    out, bins, fmt = merged["out"], merged["bins"], merged["format"]
    if bins is not None:  # try the histogram's allocations before any block runs
        try:
            np.empty(bins + 1), np.empty(bins, np.intp)
        except ValueError as exc:  # a count numpy cannot size; a MemoryError exits 1
            raise InvalidParameterError(f"--bins {bins} is too large: {exc}") from None
    run = {"empirical": run_si_empirical, "theoretical": run_si_theoretical}
    runs = {label: run[label](cfg, threads=merged["threads"]) for label in _si_labels(merged)}
    files = {}
    for label, report in runs.items():
        if bins is None:
            table = _table(["si_gain"], [report.samples], fmt)
        else:
            h = histogram(report.samples, bins)
            table = _table(["bin_left", "count"], [h.bin_edges[:-1], h.counts], fmt)
        files[_data_path(out, label, fmt)] = table
    rows = [
        head + [cfg.trials, cfg.seed, r.emp_m1, r.emp_m2, r.emp_var]
        + cf + [r.ks]
        for r in runs.values()
    ]
    columns = [np.array(c) for c in zip(*rows)]
    files[_data_path(out, "summary", fmt)] = _table(SUMMARY_COLUMNS, columns, fmt)
    return files


def _cmd_sinr(merged: dict, cfg: ExperimentConfig) -> dict:
    cfg = replace(cfg, noise_power=merged["noise"], direction=Direction(merged["direction"]))
    terms = run_sinr(cfg, threads=merged["threads"])
    T, K = cfg.trials, cfg.geom.K
    columns = [np.repeat(np.arange(T), K), np.tile(np.arange(K), T)]
    columns += [terms[key].ravel() for key in SINR_COLUMNS[2:]]
    return {merged["out"]: _table(SINR_COLUMNS, columns, merged["format"])}


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    merged = _merge_config(ns, parser)
    error = _out_error(ns.command, merged) if ns.command != "moments" else None
    if error:
        print(f"fdsim {ns.command}: {error}", file=sys.stderr)
        return 2
    try:
        spec = _resolve_spec(merged)
        geom = SystemGeometry(L=merged.get("L", 1), K=merged["K"], M=merged["M"], N=merged["N"])
        head = [geom.M, geom.N, geom.K, spec.mu, spec.nu]
        if ns.command == "moments":
            row = head + _closed_form(geom, spec)
            sys.stdout.writelines(
                _table(MOMENT_COLUMNS, [np.array([v]) for v in row], merged["format"])
            )
            return 0
        cfg = ExperimentConfig(
            geom=geom, si_spec=spec, trials=merged["trials"], seed=merged["seed"],
        )
        if ns.command == "si":
            files = _cmd_si(merged, cfg, head, _closed_form(geom, spec))
        else:
            files = _cmd_sinr(merged, cfg)
        try:
            _atomic_write(files)
        except OSError as exc:  # staging or renaming, e.g. a full disk
            print(f"fdsim: cannot write output: {exc}", file=sys.stderr)
            return 1
        return 0
    except InvalidParameterError as exc:
        print(f"fdsim: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, ValueError) as exc:
        print(f"fdsim: numerical failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a --bins too large to allocate
        print(f"fdsim: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("fdsim: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
