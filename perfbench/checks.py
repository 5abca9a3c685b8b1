"""Output checks for one fdsim CLI run of a benchmark workload.

The expected values are computed here from the workload's parameters, not
taken from fdsim, so a defect in the closed forms shows as a failed check:
the mean SI gain under unit-norm ZF beamforming is ``K (mu^2 + nu^2)``.
"""
from __future__ import annotations

import hashlib
import io
import math
import os

import numpy as np

from workloads import MU, NU, Workload

SUMMARY_COLUMNS = [
    "M", "N", "K", "mu", "nu", "trials", "seed",
    "emp_m1", "emp_m2", "emp_var", "cf_m1", "cf_m2", "cf_var", "kappa", "theta", "ks",
]
SINR_COLUMNS = ["trial", "k", "useful", "mui", "ici", "cmi", "si", "noise", "sinr"]

# Standard errors an estimate may sit from its expected value.
SE_LIMIT = 5.0
# KS bounds of tests/test_acceptance.py (criterion 4), set at 1e6 trials:
# 0.01 for one stream, 0.03 for several.  A run of n trials also gets the
# 1% critical value of the KS statistic, 1.63/sqrt(n), for sampling noise.
KS_BOUND_SINGLE = 0.01
KS_BOUND_MULTI = 0.03
KS_CRIT_1PCT = 1.63
REL_TOL = 1e-12


class CheckError(Exception):
    """An output file is missing, malformed or statistically wrong."""


def ks_bound(K: int, n: int) -> float:
    base = KS_BOUND_SINGLE if K == 1 else KS_BOUND_MULTI
    return base + KS_CRIT_1PCT / math.sqrt(n)


def digest(paths: list[str]) -> str:
    """SHA-256 over the names and bytes of the output files."""
    h = hashlib.sha256()
    for p in paths:
        h.update(os.path.basename(p).encode() + b"\0")
        with open(p, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _read_table(path: str, columns: list[str], rows: int) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.endswith(b"\n"):
        raise CheckError(f"{os.path.basename(path)}: does not end with a newline")
    header, _, body = raw.partition(b"\n")
    if header.decode("ascii", "replace") != ",".join(columns):
        raise CheckError(f"{os.path.basename(path)}: unexpected header {header[:80]!r}")
    try:
        data = np.loadtxt(io.StringIO(body.decode("ascii")), delimiter=",", ndmin=2)
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckError(f"{os.path.basename(path)}: unparsable: {exc}") from None
    if data.shape != (rows, len(columns)):
        raise CheckError(
            f"{os.path.basename(path)}: shape {data.shape}, expected {(rows, len(columns))}"
        )
    if not np.all(np.isfinite(data)):
        raise CheckError(f"{os.path.basename(path)}: non-finite values")
    return data


def _within(name: str, value: float, expected: float, se: float) -> None:
    if not abs(value - expected) <= SE_LIMIT * se:
        raise CheckError(
            f"{name} = {value!r} is {abs(value - expected) / se:.1f} SE from {expected!r}"
        )


def _close(name: str, value: float, expected: float) -> None:
    if not abs(value - expected) <= REL_TOL * abs(expected):
        raise CheckError(f"{name} = {value!r}, expected {expected!r}")


def _check_si(w: Workload, paths: list[str], trials: int, seed: int) -> None:
    labels = w.labels()
    summary = _read_table(paths[-1], SUMMARY_COLUMNS, len(labels))
    m1 = w.K * (MU**2 + NU**2)
    for label, path, row in zip(labels, paths, summary):
        s = dict(zip(SUMMARY_COLUMNS, row))
        echo = [s["M"], s["N"], s["K"], s["mu"], s["nu"], s["trials"], s["seed"]]
        if echo != [float(v) for v in (w.M, w.N, w.K, MU, NU, trials, seed)]:
            raise CheckError(f"summary {label}: echoed settings {echo}")
        _close(f"{label} cf_m1", s["cf_m1"], m1)
        _close(f"{label} kappa*theta", s["kappa"] * s["theta"], s["cf_m1"])
        _close(f"{label} kappa*theta^2", s["kappa"] * s["theta"] ** 2, s["cf_var"])
        _close(f"{label} emp_var", s["emp_var"], s["emp_m2"] - s["emp_m1"] ** 2)
        if label == "empirical":
            _within("empirical emp_m1", s["emp_m1"], s["cf_m1"], math.sqrt(s["emp_var"] / trials))
            bound = ks_bound(w.K, trials)
            if not 0 <= s["ks"] <= bound:
                raise CheckError(f"empirical ks = {s['ks']!r} exceeds {bound:.5f}")
        else:
            k, th = s["kappa"], s["theta"]
            _within("theoretical emp_m1", s["emp_m1"], k * th, math.sqrt(k * th**2 / trials))
            var_se = math.sqrt((2 * k**2 + 6 * k) * th**4 / trials)
            _within("theoretical emp_var", s["emp_var"], k * th**2, var_se)

        if w.bins is None:
            x = _read_table(path, ["si_gain"], trials)[:, 0]
            if np.any(x < 0):
                raise CheckError(f"{label} samples: negative gain")
            if not abs(x.mean() - s["emp_m1"]) <= 1e-9 * s["emp_m1"]:
                raise CheckError(f"{label} samples: mean {x.mean()!r} != summary emp_m1")
        else:
            h = _read_table(path, ["bin_left", "count"], w.bins)
            if h[0, 0] != 0.0 or not np.all(np.diff(h[:, 0]) > 0):
                raise CheckError(f"{label} histogram: bin edges not increasing from 0")
            counts = h[:, 1]
            if np.any(counts < 0) or np.any(counts != np.round(counts)) or counts.sum() != trials:
                raise CheckError(f"{label} histogram: counts do not sum to {trials}")


def _check_sinr(w: Workload, path: str, trials: int) -> None:
    d = _read_table(path, SINR_COLUMNS, trials * w.K)
    col = {c: d[:, i] for i, c in enumerate(SINR_COLUMNS)}
    if not (np.array_equal(col["trial"], np.repeat(np.arange(trials), w.K))
            and np.array_equal(col["k"], np.tile(np.arange(w.K), trials))):
        raise CheckError("sinr: trial/k columns out of order")
    terms = d[:, 2:]
    if np.any(terms < 0):
        raise CheckError("sinr: negative term")
    if np.any(col["mui"] > 1e-9 * col["useful"]):
        raise CheckError(f"sinr: ZF leaves multi-user interference {col['mui'].max()!r}")
    # Rows of one trial share H_si and V, so the SE is taken over trials.
    si_per_trial = col["si"].reshape(trials, w.K).mean(axis=1)
    se = si_per_trial.std(ddof=1) / math.sqrt(trials) if trials > 1 else math.inf
    _within("sinr si mean", si_per_trial.mean(), w.K * (MU**2 + NU**2), se)
    denom = col["mui"] + col["ici"] + col["cmi"] + col["si"] + col["noise"]
    if not np.allclose(col["sinr"], col["useful"] / denom, rtol=REL_TOL, atol=0.0):
        raise CheckError("sinr: sinr column does not match useful / (sum of the others)")


def check_outputs(w: Workload, out: str, trials: int, seed: int) -> str:
    """Check every output file of one run; returns the output digest.

    Raises CheckError when a file is missing, malformed or statistically
    implausible.
    """
    paths = w.output_paths(out)
    missing = [os.path.basename(p) for p in paths if not os.path.isfile(p)]
    if missing:
        raise CheckError(f"missing output files {missing}")
    if w.command == "sinr":
        _check_sinr(w, paths[0], trials)
    else:
        _check_si(w, paths, trials, seed)
    return digest(paths)
