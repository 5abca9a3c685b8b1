"""Command-line front end for residual SI and SINR experiments.

Subcommands:
  si       run the empirical and/or theoretical residual SI experiment,
           writing sample or histogram data plus a summary record
  moments  print the closed-form moments and Gamma parameters
  sinr     run multi-cell SINR sampling and write per-term samples

The first argument names the subcommand; each later one is ``--name value``
or ``--name=value`` for one of the subcommand's settings in ``_SETTINGS`` or
``--config``, and a unique prefix of a name will do.  The last of a repeated
flag wins.  ``-h`` or ``--help`` prints the usage text and exits 0.  Flag,
config-file and ``FDSIM_SEED`` values go through one type-and-choices check,
and every malformed argument, like every other user error, is reported on one
line, ``fdsim: invalid parameters: <why>``, with exit status 2, before any
Monte Carlo work.

Numbers are written as round-trip ``repr`` text, integers and float64s by
orjson.  One writer, ``_table``, writes every table, ``si`` samples and
histograms, the summary, ``moments`` and ``fdsim sinr``, in row blocks that
it cuts itself, of at most ``_BLOCK_ROWS`` rows whatever the engine's block
size: one orjson call a block for each CSV run of same-dtype columns or each
JSONL column.  ``fdsim sinr``'s ``(trials, K)`` terms give each trial's
index text once, not once per row: one call a block for the trial numbers,
and each ``k`` held in a constant separator.  The writer works in bytes end
to end: a block's text goes from orjson through one split and one join (for
one column, a comma-to-newline replace) to the file, with no str in between.
A run streams its output, one writer block at a time, into staged temporary
files, opened in binary mode, that are renamed together once every file is
complete.  A failed or interrupted run leaves the directory as it found it:
none of its output set, and every file it would have replaced as it was.
"""
from __future__ import annotations

import json
import math
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
    moment_match,
    si_variance,
)
from .exceptions import InvalidParameterError
from .mc import (
    TERMS,
    Direction,
    ExperimentConfig,
    _empty,
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

SINR_COLUMNS = ["trial", "k", *TERMS]

# Rows a writer block holds at most, set apart from the engine's BLOCK_SIZE: a
# block's text and parts then fit in the memory the last block freed, where a
# 4096-trial block of K-row sinr trials faulted in new pages.
_BLOCK_ROWS = 1024

_COMMANDS = {
    "si": "residual SI distribution experiment",
    "moments": "closed-form moments and Gamma parameters",
    "sinr": "multi-cell SINR term sampling",
}

# setting -> (the subcommands that take it, its type or tuple of choices, its help, its default)
_MODEL, _RUN = ("si", "moments", "sinr"), ("si", "sinr")
_SETTINGS = {
    "M": (_MODEL, int, "transmit antennas at the FD node", 16),
    "N": (_MODEL, int, "receive antennas at the FD node", 8),
    "K": (_MODEL, int, "number of FD radios / streams", 1),
    "mu": (_MODEL, float, "SI channel complex-Gaussian mean", None),
    "nu": (_MODEL, float, "SI channel std (sqrt of total variance)", None),
    "varpi": (_MODEL, float, "Rician factor (alternative to --mu/--nu)", None),
    "omega": (_MODEL, float, "fading attenuation (with --varpi)", None),
    "format": (_MODEL, ("csv", "jsonl"), "output format", "csv"),
    "trials": (_RUN, int, "Monte Carlo trial count", 100000),
    "seed": (_RUN, int, "RNG seed (fallback: FDSIM_SEED, then 0)", None),
    "out": (_RUN, str, "output file path", None),
    "threads": (_RUN, int, "worker thread cap, >= 1", 1),
    "bins": (("si",), int, "histogram bin count; omit to emit raw samples", None),
    "mode": (("si",), ("empirical", "theoretical", "both"), "experiments to run", "empirical"),
    "L": (("sinr",), int, "number of cells", 1),
    "noise": (("sinr",), float, "noise power", 1.0),
    "direction": (("sinr",), ("downlink", "uplink"), "link direction", "downlink"),
}


def _run_text(values: np.ndarray) -> bytes:
    """The ``repr`` text of a 1-D or 2-D array of numbers as orjson writes it:
    ``[a,b,c]`` or ``[[a,b],[c,d]]``.  orjson writes it for native integers and
    float64s, but a nonzero float64 outside ``1e-4 <= |x| < 1e16``
    (``0.00003``, ``1e16``, ``nan``) goes to orjson as NaN, which it writes
    ``null``, and ``repr``'s text goes in place of each ``null``."""
    values = np.ascontiguousarray(values)
    dtype = values.dtype
    if not (dtype.isnative and (dtype.kind in "iu" or dtype == np.float64)):
        return repr(values.tolist()).replace(" ", "").encode()
    reprs = []
    if dtype.kind == "f":
        a = np.abs(values)
        outside = ~((a >= 1e-4) & (a < 1e16)) & (values != 0)
        reprs = [repr(x).encode() for x in values[outside].tolist()]
        values = np.where(outside, np.nan, values) if reprs else values
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    if reprs:  # a split that finds no null still scans the whole text
        parts = [None] * (2 * len(reprs) + 1)
        parts[::2], parts[1::2] = text.split(b"null"), reprs
        text = b"".join(parts)
    return text


def _texts(block: list, fmt: str) -> list:
    """The text of each CSV run of a block's same-dtype columns, split into rows,
    or of each JSONL column, split into values."""
    if fmt == "csv":
        runs = (np.stack(list(run), axis=1) for _, run in groupby(block, key=lambda c: c.dtype))
        return [_run_text(run)[2:-2].split(b"],[") for run in runs]  # less "[[" and "]]"
    if any(c.dtype.kind == "f" and not np.isfinite(c).all() for c in block):
        raise ValueError("Out of range float values are not JSON compliant")
    return [_run_text(column)[1:-1].split(b",") for column in block]


def _table(header, columns: list, fmt: str):
    """Yield the CSV or JSONL bytes of a table of equal-length ndarray columns
    of numbers: the CSV header, then one ``bytes`` per block of rows.

    The writer cuts its own blocks, whatever the engine's: 1-D columns give a
    row per entry, in blocks of ``_BLOCK_ROWS`` rows.
    ``(trials, K)`` columns, as ``run_sinr`` gives them, give K rows a trial,
    led by the ``header[:2]`` index ``trial,k``, in blocks of ``_BLOCK_ROWS
    // K`` trials (at least one): the trial numbers' text comes from one
    ``_run_text`` a block, split once, and each k is held in a constant
    separator.  A block's values take their text from ``_texts``, one
    ``_run_text`` call for each CSV run or JSONL column.  One parts template,
    sized to the table's rows with every separator in place, takes each
    block's pieces and makes its bytes by one join; a one-column CSV table
    instead replaces the commas of its block's text with row ends."""
    index = columns[0].ndim == 2
    K, n = columns[0].shape[1] if index else 1, len(columns[0])
    step = max(_BLOCK_ROWS // K, 1)
    if fmt == "jsonl":
        seps = [f"{', ' if j else '{'}{json.dumps(h)}: ".encode() for j, h in enumerate(header)]
        end = b"}\n"
    else:
        yield ",".join(header).encode() + b"\n"
        if len(columns) == 1 and not index:  # a block's commas become its row ends
            for t0 in range(0, n, step):
                yield _run_text(columns[0][t0:t0 + step])[1:-1].replace(b",", b"\n") + b"\n"
            return
        runs = sum(1 for _ in groupby(c.dtype for c in columns))
        seps, end = [b""] + [b","] * (2 * index + runs - 1), b"\n"
    if index:  # the trial's text, then a separator holding k
        rows = [[seps[0], seps[1] + b"%d" % k + seps[2], *seps[3:]] for k in range(K)]
    else:
        rows = [seps]
    rows = [[x for sep in row for x in (sep, None)] + [end] for row in rows]  # None: a piece
    width, template = len(rows[0]), [x for row in rows for x in row] * min(step, n)
    for t0 in range(0, n, step):
        t1 = min(t0 + step, n)
        size = (t1 - t0) * K * width
        parts = template if size == len(template) else template[:size]
        if index:
            trials = _run_text(np.arange(t0, t1))[1:-1].split(b",")
            for k in range(K):
                parts[1 + k * width::K * width] = trials
        for j, piece in enumerate(_texts([c[t0:t1].ravel() for c in columns], fmt)):
            parts[1 + 2 * (j + index)::width] = piece
        yield b"".join(parts)


def _atomic_write(files: dict) -> None:
    """Stream ``{path: iterable of bytes}`` into new randomly named files beside
    their targets, then rename them all into place, each existing target first
    renamed aside.  On any failure or interrupt the staged files and the targets
    already renamed are removed and the old targets renamed back, so the
    directory is left as it was found; after the last rename the old targets
    are removed.  The files get the umask's mode."""
    staged = []  # (staged file, target, the target's name while it is set aside)
    try:
        for path, chunks in files.items():
            stem = os.path.join(os.path.dirname(path), f".fdsim-{secrets.token_hex(8)}")
            with open(stem + ".tmp", "xb") as fh:  # refuses an existing file or symlink
                staged.append((stem + ".tmp", path, stem + ".old"))
                fh.writelines(chunks)
        for tmp, path, old in staged:
            if os.path.lexists(path):
                os.replace(path, old)
            os.replace(tmp, path)
    except BaseException:
        for tmp, path, old in staged:
            if os.path.lexists(tmp):
                os.unlink(tmp)
            elif os.path.lexists(path):  # the staged file renamed into place
                os.unlink(path)
            if os.path.lexists(old):
                os.replace(old, path)
        raise
    for _, _, old in staged:
        if os.path.lexists(old):
            os.unlink(old)


def _typed(key: str, val, source: str):
    """A flag, config-file or ``FDSIM_SEED`` value through the type, or the
    tuple of choices, of setting ``key``; ``source`` names where it came from."""
    kind = _SETTINGS[key][1]
    try:
        if isinstance(val, (bool, list, dict)):
            raise TypeError
        val = str(val) if isinstance(kind, tuple) else kind(str(val))
        if isinstance(kind, tuple) and val not in kind:
            raise ValueError
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{source}: invalid --{key} value: {val!r}") from None
    return val


def _usage(command=None) -> str:
    """The ``--help`` text of fdsim, or of one subcommand, its flags and their defaults."""
    if command is None:
        rows = [("-h, --help", "show this help and exit"), *_COMMANDS.items()]
        head = f"usage: fdsim {{{','.join(_COMMANDS)}}} [flags]\n\n{__doc__.splitlines()[0]}"
        tail = "`fdsim <subcommand> --help` lists the flags of a subcommand."
    else:
        rows = [("-h, --help", "show this help and exit")]
        for name, (commands, kind, text, default) in _SETTINGS.items():
            if command in commands:
                if isinstance(kind, tuple):
                    metavar = "{" + ",".join(kind) + "}"
                else:
                    metavar = {int: "INT", float: "FLOAT"}.get(kind, "PATH")
                if default is not None:
                    text += f" (default {default})"
                rows.append((f"--{name} {metavar}", text))
        rows.append(("--config PATH", "JSON file with flag defaults; flags override"))
        head = f"usage: fdsim {command} [flags]\n\n{_COMMANDS[command]}"
        tail = ("`--K 3` and `--K=3` are the same, a unique prefix of a flag will do,\n"
                "and the last of a repeated flag wins.")
    lines = [f"  {a:<22}{b}" if len(a) < 22 else f"  {a}\n{'':24}{b}" for a, b in rows]
    return "\n".join([head, "", *lines, "", tail, ""])


def _parse(argv: list):
    """``{"command": <subcommand>, <flag name>: <value>, ...}`` from ``argv``,
    or None once ``-h`` or ``--help`` has printed its usage text.

    ``argv[0]`` names the subcommand; each later argument is ``--name value``
    or ``--name=value``, where ``name`` is one of the subcommand's settings in
    ``_SETTINGS`` or ``config``, or a unique prefix of one (an exact name wins
    over a prefix).  A value that begins with ``--`` takes the ``=`` form.
    Each value goes through ``_typed``; the last of a repeated flag wins.
    Every malformed argument raises ``InvalidParameterError``."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        sys.stdout.write(_usage())
        return None
    if command not in _COMMANDS:
        got = f", got {command!r}" if argv else ""
        raise InvalidParameterError(f"expected a subcommand, one of {', '.join(_COMMANDS)}{got}")
    names = [k for k, (commands, *_) in _SETTINGS.items() if command in commands]
    names += ["config", "help"]
    args, rest = {"command": command}, iter(argv[1:])
    for arg in rest:
        flag, eq, value = arg[2:].partition("=")
        if arg[:2] != "--" or not flag:  # a stray value, a one-dash flag or a bare "--"
            matches = []
        else:
            matches = [n for n in names if n == flag] or [n for n in names if n.startswith(flag)]
        if arg == "-h" or matches == ["help"]:
            sys.stdout.write(_usage(command))
            return None
        if not matches:
            raise InvalidParameterError(f"unrecognized arguments: {arg}")
        if len(matches) > 1:
            raise InvalidParameterError(
                f"ambiguous option: --{flag} could match {', '.join('--' + n for n in matches)}")
        name = matches[0]
        if not eq:
            value = next(rest, "--")
            if value.startswith("--"):
                raise InvalidParameterError(f"--{name} expects one value")
        args[name] = value if name == "config" else _typed(name, value, "command line")
    return args


def _merge_config(args: dict) -> dict:
    """Resolve flag > config file > default (FDSIM_SEED for the seed) per setting.

    ``args`` holds the subcommand and its flag values, as ``_parse`` gives
    them.  Config-file and FDSIM_SEED values go through ``_typed`` as the
    flags did; the setting names are the keys of ``_SETTINGS``.  The
    result holds only the settings of the running subcommand: config
    values for the other settings are type-checked, then dropped.
    """
    file_vals = {}
    config = args.get("config")
    if config:
        source = f"--config {config}"
        try:
            with open(config) as fh:
                file_vals = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidParameterError(f"cannot read {source}: {exc}") from None
        if not isinstance(file_vals, dict):
            raise InvalidParameterError(f"{source}: expected a JSON object")
        unknown = set(file_vals) - set(_SETTINGS)
        if unknown:
            raise InvalidParameterError(f"unknown keys in --config: {sorted(unknown)}")
        file_vals = {k: _typed(k, v, source) for k, v in file_vals.items() if v is not None}

    merged = {}
    for k, (commands, _, _, default) in _SETTINGS.items():
        if args["command"] in commands:
            merged[k] = args.get(k, file_vals.get(k, default))

    mu_given = merged["mu"] is not None or merged["nu"] is not None
    factor_given = merged["varpi"] is not None or merged["omega"] is not None
    if mu_given and factor_given:
        raise InvalidParameterError("(--mu, --nu) and (--varpi, --omega) are mutually exclusive")

    if "seed" in merged and merged["seed"] is None:
        merged["seed"] = _typed("seed", os.environ.get("FDSIM_SEED", "0"), "FDSIM_SEED")
    for key in ("bins", "threads"):
        if merged.get(key) is not None and merged[key] < 1:
            raise InvalidParameterError(f"--{key} must be >= 1, got {merged[key]}")
    return merged


def _resolve_spec(merged: dict) -> RicianSpec:
    if merged["varpi"] is not None or merged["omega"] is not None:
        varpi = merged["varpi"] if merged["varpi"] is not None else 0.0
        omega = merged["omega"] if merged["omega"] is not None else 1.0
        return rician_from_factor(varpi, omega)
    mu = merged["mu"] if merged["mu"] is not None else 0.0
    nu = merged["nu"] if merged["nu"] is not None else 1.0
    return RicianSpec(mu, nu)


def _outputs(command: str, merged: dict) -> dict:
    """``{label: path}`` of the files a run writes, in output order: ``--out``, or for
    ``si`` ``<stem>_<label><ext or .format>`` per experiment, then the summary."""
    out = merged["out"]
    if command == "sinr":
        return {"sinr": out}
    labels = ["empirical", "theoretical"] if merged["mode"] == "both" else [merged["mode"]]
    stem, ext = os.path.splitext(out)
    return {label: f"{stem}_{label}{ext or '.' + merged['format']}"
            for label in [*labels, "summary"]}


def _check_out(command: str, merged: dict) -> None:
    """Raise if ``--out`` cannot name the output set of an ``si`` or ``sinr`` run."""
    out = merged["out"]
    directory = os.path.dirname(os.path.abspath(out)) if out else ""
    if (not out or "\0" in out or out.endswith(os.sep) or os.path.isdir(out)
            or not os.path.isdir(directory)):  # no file name holds a NUL byte
        raise InvalidParameterError("--out must name a file in an existing directory")
    if not os.access(directory, os.W_OK | os.X_OK):
        raise InvalidParameterError(
            "--out must name a file in a directory this process can write to")
    targets = _outputs(command, merged).values()
    clash = next((t for t in targets if os.path.isdir(t)), None)
    if clash:
        raise InvalidParameterError(f"--out would write {clash}, which is a directory")
    try:  # os.pathconf is Unix-only and can fail: then no limit is known
        name_max = os.pathconf(directory, "PC_NAME_MAX")
    except (AttributeError, OSError, ValueError):
        name_max = 0
    longest = max(len(os.fsencode(os.path.basename(t))) for t in targets)
    if 0 < name_max < longest:
        raise InvalidParameterError(
            f"--out gives a {longest}-byte file name, over the directory's {name_max}-byte limit")


def _closed_form(geom: SystemGeometry, spec: RicianSpec) -> list:
    """Closed-form m1, m2, variance and matched Gamma (kappa, theta)."""
    gp = gamma_mimo(geom, spec)
    return [
        moment1(geom.K, spec), moment2(geom, spec), si_variance(geom, spec),
        gp.kappa, gp.theta,
    ]


def _cmd_si(merged: dict, cfg: ExperimentConfig, head: list, cf: list) -> dict:
    bins, fmt, paths = merged["bins"], merged["format"], _outputs("si", merged)
    if bins is not None:  # try the histogram's allocations before any block runs
        _empty(f"--bins {bins}", bins + 1), _empty(f"--bins {bins}", bins, dtype=np.intp)
    run = {"empirical": run_si_empirical, "theoretical": run_si_theoretical}
    runs = {label: run[label](cfg, threads=merged["threads"]) for label in list(paths)[:-1]}
    files = {}
    for label, report in runs.items():
        if bins is None:
            table = _table(["si_gain"], [report.samples], fmt)
        else:
            bin_edges, counts = histogram(report.samples, bins)
            table = _table(["bin_left", "count"], [bin_edges[:-1], counts], fmt)
        files[paths[label]] = table
    rows = [
        head + [cfg.trials, cfg.seed, r.emp_m1, r.emp_m2, r.emp_var]
        + cf + [r.ks]
        for r in runs.values()
    ]
    columns = [np.array(c) for c in zip(*rows)]
    files[paths["summary"]] = _table(SUMMARY_COLUMNS, columns, fmt)
    return files


def _cmd_sinr(merged: dict, cfg: ExperimentConfig) -> dict:
    m1, var = moment1(cfg.geom.K, cfg.si_spec), si_variance(cfg.geom, cfg.si_spec)
    if math.isinf(m1) or math.isinf(var):  # sinr makes no Gamma match: only an overflow fails
        moment_match(m1, var)  # which raises as it does for `si`
    cfg = replace(cfg, noise_power=merged["noise"], direction=Direction(merged["direction"]))
    terms = run_sinr(cfg, threads=merged["threads"])
    return {merged["out"]: _table(SINR_COLUMNS, [terms[key] for key in TERMS], merged["format"])}


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            return 0
        command = args["command"]
        merged = _merge_config(args)
        if command != "moments":
            _check_out(command, merged)
        spec = _resolve_spec(merged)
        geom = SystemGeometry(L=merged.get("L", 1), K=merged["K"], M=merged["M"], N=merged["N"])
        head = [geom.M, geom.N, geom.K, spec.mu, spec.nu]
        if command == "moments":
            row = head + _closed_form(geom, spec)
            table = _table(MOMENT_COLUMNS, [np.array([v]) for v in row], merged["format"])
            sys.stdout.write(b"".join(table).decode())
            return 0
        cfg = ExperimentConfig(
            geom=geom, si_spec=spec, trials=merged["trials"], seed=merged["seed"],
        )
        if command == "si":
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
