import errno
import hashlib
import json
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fdsim.cli as cli
from fdsim import ExperimentConfig, RicianSpec, SystemGeometry
from fdsim.cli import _BLOCK_ROWS, SINR_COLUMNS, _table, main
from fdsim.mc import TERMS, Direction, run_sinr

GOLDEN_SUMMARY = (
    "M,N,K,mu,nu,trials,seed,emp_m1,emp_m2,emp_var,cf_m1,cf_m2,cf_var,kappa,theta,ks\n"
    "4,4,2,0.5,1.0,200,123,2.557618535211814,10.979703460030061,4.438290888371035,"
    "2.5,10.27,4.02,1.554726368159204,1.6079999999999999,0.03636877370709637\n"
    "4,4,2,0.5,1.0,200,123,2.5334947989090746,10.347269436072333,3.9286735399730004,"
    "2.5,10.27,4.02,1.554726368159204,1.6079999999999999,0.04556885453948867\n"
)

GOLDEN_EMPIRICAL = (
    "bin_left,count\n"
    "0.0,142\n"
    "3.1810983425697317,47\n"
    "6.362196685139463,10\n"
    "9.543295027709195,0\n"
    "12.724393370278927,1\n"
)


def _one_shot_table(header, columns, fmt):
    """The whole-output formatter that ``_table`` must reproduce byte for byte."""
    rows = zip(*columns)
    if fmt == "jsonl":
        return "".join(
            json.dumps(dict(zip(header, row)), allow_nan=False) + "\n" for row in rows
        )
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


EDGE_FLOATS = [0.0, -0.0, 1e16, 1e-5, 5e-324, 1.7976931348623157e308, -2.5]
EDGE_INTS = [0, 7, 2**53 + 1, 2**63 - 1, 2**63, 2**64 - 1]


@pytest.mark.parametrize("width", [1, 3, 6])
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_table_matches_one_shot_formatter(fmt, width):
    n = 2 * _BLOCK_ROWS + 123  # more than two blocks of rows
    gen = np.random.default_rng(9)
    header = ["edge", "i", "x", "f32", "y", "z"][:width]
    columns = [  # at width 6 an object and a float32 column lie between float64 runs
        np.resize(np.array(EDGE_FLOATS), n),
        np.array([EDGE_INTS[r % len(EDGE_INTS)] for r in range(n)], dtype=object),
        gen.standard_normal(n) * 10.0 ** gen.integers(-300, 300, size=n),
        (gen.standard_normal(n) * 10.0 ** gen.integers(-30, 30, size=n)).astype(np.float32),
        gen.standard_normal(n),
        np.resize(np.array(EDGE_FLOATS[::-1]), n),
    ][:width]
    expected = _one_shot_table(header, [c.tolist() for c in columns], fmt)
    pieces = list(_table(header, columns, fmt))
    assert _lines(b"".join(pieces).decode()) == _lines(expected)
    assert max(p.count(b"\n") for p in pieces) <= _BLOCK_ROWS


def _lines(text: str) -> list:
    """Lines to compare, so that a mismatch reports its first line, not a text diff."""
    return text.splitlines(keepends=True)


def _bit_patterns(n):
    """Doubles from random 64-bit patterns, every eighth one subnormal or a zero."""
    bits = np.random.default_rng(16).integers(0, 2**64, size=n, dtype=np.uint64)
    bits[::8] &= np.uint64(0x800F_FFFF_FFFF_FFFF)  # exponent field 0
    return bits.view(np.float64)


def _notation_switches():
    """1e-4, 1e16, the powers of 2 between them and three nextafter steps each way."""
    edges = np.array([1e-4, 1e16] + [2.0**e for e in range(-13, 54)])
    values, down, up = [edges], edges, edges
    for _ in range(3):
        down, up = np.nextafter(down, 0), np.nextafter(up, np.inf)
        values += [down, up]
    values = np.concatenate(values)
    return np.concatenate([values, -values])


def _mixed_runs():
    """Tables of several same-dtype column runs, each more than two blocks long."""
    n = 2 * _BLOCK_ROWS + 5
    gen = np.random.default_rng(19)
    terms = 10.0 ** gen.uniform(-4, 15, size=(3, n)) * gen.choice([-1.0, 1.0], size=(3, n))
    # values outside [1e-4, 1e16) on the run's first and last value and on
    # the first and last row of every block
    edges = [0, _BLOCK_ROWS - 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS - 1, 2 * _BLOCK_ROWS, n - 1]
    terms[0, edges], terms[1, edges[::2]], terms[2, edges] = 3e-05, 5e-324, -1e16
    # one float64 run whose block edges alternate between rows of values
    # outside [1e-4, 1e16) and rows of non-finite ones (JSONL drops the latter)
    spliced = 10.0 ** gen.uniform(-4, 15, size=(3, n)) * gen.choice([-1.0, 1.0], size=(3, n))
    spliced[:, [0, 2 * _BLOCK_ROWS - 1, 2 * _BLOCK_ROWS]] = [[3e-05], [1e16], [-5e-324]]
    spliced[:, [_BLOCK_ROWS - 1, _BLOCK_ROWS, n - 1]] = [[np.nan], [np.inf], [-np.inf]]
    return {
        "histogram shape": [np.linspace(0.0, 40.0, n, endpoint=False),
                            gen.integers(0, 10**6, size=n)],
        "summary shape": [gen.integers(-(2**63), 2**63 - 1, size=n), gen.standard_normal(n),
                          gen.integers(2**63, 2**64 - 1, size=n, dtype=np.uint64),
                          gen.standard_normal(n) * 1e-3],
        "outside values on run edges": [np.arange(n), *terms],
        "non-finite and outside values on block edges": [*spliced],
    }


WRITER_CASES = {
    "bit patterns": [_bit_patterns(2 * _BLOCK_ROWS + 5)],
    "notation switches": [_notation_switches()],
    "signed zeros": [np.array([0.0, -0.0, 1.0, -0.0])],
    "integers": [
        np.array([0, 7, 2**53 + 1, 2**63, 2**64 - 1], dtype=np.uint64),
        np.array([-1, 0, 2**70, -(2**64), 3], dtype=object),
    ],
    "float32": [np.array([0.1, 1e-5, 3.4e38, -1e20, 1.5], dtype=np.float32)],
    "big-endian": [np.array([1.5, 2.0**60, 1e-5], dtype=">f8"),
                   np.array([1, -(2**40), 7], dtype=">i8")],
    **_mixed_runs(),
}


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("case", WRITER_CASES)
def test_table_text_is_repr(fmt, case):
    columns = WRITER_CASES[case]
    if fmt == "jsonl":  # JSON has no text for a non-finite value
        columns = [c[np.isfinite(c)] if c.dtype.kind == "f" else c for c in columns]
    header = [f"c{j}" for j in range(len(columns))]
    expected = _one_shot_table(header, [c.tolist() for c in columns], fmt)
    assert _lines(b"".join(_table(header, columns, fmt)).decode()) == _lines(expected)


def test_non_finite_csv_text_is_repr():
    column = np.array([np.inf, -np.inf, np.nan, 2.5, -np.nan])
    text = b"".join(_table(["x"], [column], "csv")).decode()
    assert text == "x\ninf\n-inf\nnan\n2.5\nnan\n"


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_jsonl_value_raises(value):
    column = np.ones(_BLOCK_ROWS + 1)
    column[-1] = value
    with pytest.raises(ValueError, match="not JSON compliant"):
        list(_table(["x"], [column], "jsonl"))


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_in_range_floats_make_no_float_repr_call(monkeypatch, fmt):
    # a sinr-shaped table: two int index columns and seven float terms, mui all
    # zeros and the others across [1e-4, 1e16); then three values outside it
    gen = np.random.default_rng(3)
    n, K = _BLOCK_ROWS + 7, 2
    columns = [np.repeat(np.arange(n // K + 1), K)[:n], np.tile(np.arange(K), n)[:n]]
    columns += [10.0 ** gen.uniform(-4, 16, size=n) for _ in range(6)]
    columns.insert(3, np.zeros(n))  # mui
    outside = np.array([3.276159679062199e-05, 1e16, -1e-300])
    reprs, dumps = [], []
    dumps_fn = cli.orjson.dumps

    def one_shot():
        return _lines(_one_shot_table(SINR_COLUMNS, [c.tolist() for c in columns], fmt))

    def counting_repr(x):
        reprs.append(type(x))
        return repr(x)

    def counting_dumps(*args, **kwargs):
        dumps.append(args[0].dtype)
        return dumps_fn(*args, **kwargs)

    monkeypatch.setattr(cli, "repr", counting_repr, raising=False)
    monkeypatch.setattr(cli.orjson, "dumps", counting_dumps)
    text = b"".join(_table(SINR_COLUMNS, columns, fmt)).decode()
    # one call per block per CSV run (the int index columns, then the float
    # terms) or per JSONL column
    runs = [np.int64, np.float64] if fmt == "csv" else [np.int64] * 2 + [np.float64] * 7
    assert reprs == [] and dumps == runs * 2
    assert _lines(text) == one_shot()

    reprs.clear()
    dumps.clear()
    columns[-1][[5, _BLOCK_ROWS, n - 1]] = outside
    text = b"".join(_table(SINR_COLUMNS, columns, fmt)).decode()
    assert reprs == [float] * len(outside) and len(dumps) == len(runs) * 2
    assert _lines(text) == one_shot()


def _assembly_shapes(n):
    """Columns of the three block shapes ``_table`` assembles in its own way."""
    gen = np.random.default_rng(21)

    def floats():  # some values outside [1e-4, 1e16), whose text is repr's
        return gen.standard_normal(n) * 10.0 ** gen.integers(-6, 18, size=n)

    return {
        "one column": [floats()],
        "one float64 run": [floats() for _ in range(4)],
        "several runs": [gen.integers(0, 9, size=n), floats(), floats(),
                         gen.integers(2**63, 2**64 - 1, size=n, dtype=np.uint64), floats(),
                         gen.integers(-5, 5, size=n)],
    }


ASSEMBLY_ROWS = [1, 4 * _BLOCK_ROWS + 9]  # one row, five blocks
ASSEMBLY_SHAPES = {n: _assembly_shapes(n) for n in ASSEMBLY_ROWS}


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("shape", ASSEMBLY_SHAPES[1])
@pytest.mark.parametrize("n", ASSEMBLY_ROWS)
def test_table_yields_the_bytes_of_each_block(n, shape, fmt):
    columns = ASSEMBLY_SHAPES[n][shape]
    header = [f"c{j}" for j in range(len(columns))]
    pieces = list(_table(header, columns, fmt))
    blocks = -(-n // _BLOCK_ROWS)
    assert [type(p) for p in pieces] == [bytes] * ((fmt == "csv") + blocks)  # csv header first
    expected = _one_shot_table(header, [c.tolist() for c in columns], fmt)
    assert _lines(b"".join(pieces).decode()) == _lines(expected)


def _si_args(out, **over):
    base = dict(M="4", N="4", K="2", mu="0.5", nu="1", trials="200", seed="123",
                mode="both", bins="5")
    base.update(over)
    args = ["si"]
    for k, v in base.items():
        if v is not None:
            args += [f"--{k}", v]
    return args + ["--out", out]


def test_si_golden_run(tmp_path):
    out = str(tmp_path / "run.csv")
    assert main(_si_args(out)) == 0
    assert (tmp_path / "run_summary.csv").read_text() == GOLDEN_SUMMARY
    assert (tmp_path / "run_empirical.csv").read_text() == GOLDEN_EMPIRICAL
    assert (tmp_path / "run_theoretical.csv").exists()


def test_no_command_loads_scipy(tmp_path):
    # scipy is unimportable here, so any import of it fails the run; the
    # engine's workers need no executor
    code = f"""
import sys
sys.modules["scipy"] = None
import numpy as np
import fdsim
from fdsim.cli import main
out = {str(tmp_path)!r}
assert main(["si", "--mode", "both", "--trials", "5000", "--out", out + "/si.csv"]) == 0
assert main(["si", "--threads", "2", "--trials", "5000", "--out", out + "/si2.csv"]) == 0
assert main(["sinr", "--L", "2", "--K", "2", "--trials", "200", "--out", out + "/sinr.csv"]) == 0
assert main(["moments"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "logging", "queue")))
for kappa in (0.7, 1.0, 2.4, 1e10):
    fdsim.gamma_pdf(np.linspace(0, 2 * kappa, 9), fdsim.GammaParams(kappa, 1.3))
p = fdsim.si_pdf_siso([0.0, 1.0, np.inf, np.nan], 0.5, 1.0)
assert p[2] == 0.0 and np.isnan(p[3]) and fdsim.si_pdf_siso(1.0, 1e150, 1.0) > 1e74
print(sorted(m for m, mod in sys.modules.items() if m.startswith("scipy") and mod is not None))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("FDSIM_SEED", None)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[]", "[]"]


def test_no_command_loads_argparse_gettext_or_locale(tmp_path):
    # fdsim parses its own flags, so no run pays for argparse's imports
    code = f"""
import sys
from fdsim.cli import main
out = {str(tmp_path)!r}
assert main(["si", "--mode", "both", "--trials", "500", "--out", out + "/si.csv"]) == 0
assert main(["si", "--threads", "2", "--trials", "5000", "--out", out + "/si2.csv"]) == 0
assert main(["sinr", "--L", "2", "--K", "2", "--trials", "200", "--out", out + "/sinr.csv"]) == 0
assert main(["moments"]) == 0
assert main(["--help"]) == 0
print(sorted(m for m in ("argparse", "gettext", "locale") if m in sys.modules))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("FDSIM_SEED", None)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_si_seeded_reruns_byte_identical(tmp_path):
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    assert main(_si_args(out_a)) == 0
    assert main(_si_args(out_b)) == 0
    for suffix in ("empirical", "theoretical", "summary"):
        a = (tmp_path / f"a_{suffix}.csv").read_bytes()
        b = (tmp_path / f"b_{suffix}.csv").read_bytes()
        assert a == b


def test_si_threads_do_not_change_output(tmp_path):
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    assert main(_si_args(out_a, trials="40000", mode="empirical", threads="1")) == 0
    assert main(_si_args(out_b, trials="40000", mode="empirical", threads="8")) == 0
    assert (tmp_path / "a_empirical.csv").read_bytes() == (tmp_path / "b_empirical.csv").read_bytes()
    assert (tmp_path / "a_summary.csv").read_bytes() == (tmp_path / "b_summary.csv").read_bytes()


def test_sinr_threads_do_not_change_output(tmp_path):
    outs = {}
    for threads in ("1", "2", "8"):
        out = tmp_path / f"t{threads}.csv"
        assert main(["sinr", "--L", "2", "--K", "2", "--M", "8", "--N", "4", "--trials", "10000",
                     "--threads", threads, "--out", str(out)]) == 0
        outs[threads] = out.read_bytes()
    assert outs["1"] == outs["2"] == outs["8"]


def test_si_samples_output_without_bins(tmp_path):
    out = str(tmp_path / "s.csv")
    assert main(_si_args(out, bins=None, mode="empirical")) == 0
    lines = (tmp_path / "s_empirical.csv").read_text().splitlines()
    assert lines[0] == "si_gain"
    assert len(lines) == 201
    for v in lines[1:]:
        assert float(v) >= 0


def test_si_jsonl_format(tmp_path):
    out = str(tmp_path / "j.jsonl")
    assert main(_si_args(out, mode="empirical", format="jsonl")) == 0
    rows = [json.loads(l) for l in (tmp_path / "j_summary.jsonl").read_text().splitlines()]
    assert rows[0]["cf_m1"] == 2.5
    hist = [json.loads(l) for l in (tmp_path / "j_empirical.jsonl").read_text().splitlines()]
    assert sum(r["count"] for r in hist) == 200


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_si_out_without_extension_takes_the_format_extension(tmp_path, fmt):
    assert main(_si_args(str(tmp_path / "run"), mode="empirical", format=fmt)) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [f"run_empirical.{fmt}", f"run_summary.{fmt}"]


def test_moments_record(capsys):
    assert main(["moments", "--M", "16", "--N", "8", "--K", "1",
                 "--mu", "0.5", "--nu", "1"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert float(vals["m1"]) == 1.25
    assert float(vals["kappa"]) == pytest.approx(3825 / 4031, rel=1e-12)
    assert float(vals["theta"]) == pytest.approx(4031 / 3060, rel=1e-12)


def test_moments_scalar_rayleigh(capsys):
    assert main(["moments", "--M", "1", "--N", "1", "--K", "1",
                 "--mu", "0", "--nu", "1", "--format", "jsonl"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert (rec["m1"], rec["m2"], rec["var"]) == (1.0, 2.0, 1.0)
    assert (rec["kappa"], rec["theta"]) == (1.0, 1.0)


def test_moments_rayleigh_multi_stream(capsys):
    assert main(["moments", "--M", "16", "--N", "8", "--K", "3",
                 "--mu", "0", "--nu", "1", "--format", "jsonl"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["kappa"] == pytest.approx(45 / 17, rel=1e-12)
    assert rec["theta"] == pytest.approx(17 / 15, rel=1e-12)


def test_moments_factor_parametrisation(capsys):
    assert main(["moments", "--M", "16", "--N", "8", "--K", "1",
                 "--varpi", "0.25", "--omega", "1.25", "--format", "jsonl"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["mu"] == pytest.approx(0.5, rel=1e-12)
    assert rec["nu"] == pytest.approx(1.0, rel=1e-12)


def test_sinr_output(tmp_path):
    out = str(tmp_path / "sinr.csv")
    assert main(["sinr", "--M", "8", "--N", "8", "--K", "2", "--L", "1",
                 "--trials", "50", "--seed", "1", "--out", out]) == 0
    lines = (tmp_path / "sinr.csv").read_text().splitlines()
    assert lines[0] == "trial,k,useful,mui,ici,cmi,si,noise,sinr"
    assert len(lines) == 1 + 50 * 2
    ici_col = lines[0].split(",").index("ici")
    assert all(float(l.split(",")[ici_col]) == 0.0 for l in lines[1:])


# sha256 of `fdsim sinr --L 2 --K 2 --M 8 --N 4 --trials 100` (seed 0, stream layout 11)
GOLDEN_SINR_SHA256 = {
    "downlink": "1d0296fb5a258920042f2465a19fe35d6a400aad57142da08346ac9697e6a6e8",
    "uplink": "6290ccb6441aa3ee1c40b5d927c3b557f2ef73c7e5e7c01c2f4b94b8a7d44027",
}


@pytest.mark.parametrize("direction", ["downlink", "uplink"])
def test_sinr_golden_run(tmp_path, monkeypatch, direction):
    monkeypatch.delenv("FDSIM_SEED", raising=False)
    out = tmp_path / "sinr.csv"
    assert main(["sinr", "--L", "2", "--K", "2", "--M", "8", "--N", "4",
                 "--trials", "100", "--direction", direction, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SINR_SHA256[direction]


def test_invalid_geometry_exits_2(tmp_path):
    assert main(["moments", "--M", "2", "--N", "2", "--K", "3"]) == 2


@pytest.mark.parametrize("spec", [["--mu", "0", "--nu", "1e-200"],
                                  ["--varpi", "0", "--omega", "1e-300"]])
def test_vanishing_si_power_exits_2(capsys, spec):
    # the matched Gamma of a zero mean or variance is rejected, not divided by zero
    assert main(["moments", *spec]) == 2
    assert capsys.readouterr().err.startswith("fdsim: invalid parameters")


@pytest.mark.parametrize("spec", [["--varpi", "1", "--omega", "1e300"],
                                  ["--mu", "1e150", "--nu", "1"],
                                  ["--mu", "0", "--nu", "1e100"],
                                  ["--mu", "0", "--nu", "1e154"]])
def test_si_variance_overflow_exits_2(tmp_path, monkeypatch, capsys, spec):
    # the variance overflows to inf; the matched Gamma names it, not a NaN kappa,
    # and sinr, which makes no Gamma match, checks it as si does, before any block
    def forbidden(*args, **kwargs):
        raise AssertionError("Monte Carlo work started before the closed form was checked")

    monkeypatch.setattr("fdsim.mc._blocks", forbidden)
    out = ["--out", str(tmp_path / "run.csv")]
    for argv in (["moments"], ["si", "--mode", "both", *out],
                 ["sinr", "--direction", "downlink", *out],
                 ["sinr", "--direction", "uplink", "--format", "jsonl", *out]):
        assert main([*argv, *spec]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "fdsim: invalid parameters: var must be > 0 and finite, got inf"
        ]
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("direction", ["downlink", "uplink"])
@pytest.mark.parametrize("spec", [["--mu", "1", "--nu", "1e-7"], ["--nu", "1e-200"]])
def test_sinr_takes_no_gamma_match_floor(tmp_path, direction, spec):
    # the nu floor and the positive moments are the Gamma match's; sinr makes none
    out = str(tmp_path / "sinr.csv")
    assert main(["sinr", "--trials", "10", "--direction", direction, "--out", out, *spec]) == 0
    assert len((tmp_path / "sinr.csv").read_text().splitlines()) == 11


def test_unknown_flag_exits_2(capsys):
    assert main(["si", "--badflag"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "fdsim: invalid parameters: unrecognized arguments: --badflag"
    ]


def test_mutually_exclusive_spec_flags_exit_2(tmp_path):
    assert main(["moments", "--mu", "0.5", "--varpi", "1.0"]) == 2


def test_missing_out_exits_2():
    assert main(["si", "--trials", "10"]) == 2


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": 16, "N": 8, "K": 3, "mu": 0.5, "nu": 1.0}))
    assert main(["moments", "--config", str(cfg), "--K", "1",
                 "--format", "jsonl"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["K"] == 1  # flag overrides file
    assert rec["m1"] == 1.25


def test_seed_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FDSIM_SEED", "123")
    out = str(tmp_path / "env.csv")
    assert main(_si_args(out, seed=None)) == 0
    summary = (tmp_path / "env_summary.csv").read_text()
    assert summary == GOLDEN_SUMMARY


def test_no_partial_file_on_failure(tmp_path, monkeypatch):
    # if the final rename fails, neither the target nor a temp file remains
    def boom(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(os, "replace", boom)
    out = str(tmp_path / "x.csv")
    assert main(_si_args(out, trials="10")) == 1
    assert list(tmp_path.iterdir()) == []


def test_outputs_get_the_umask_mode(tmp_path):
    old = os.umask(0o022)
    try:
        assert main(_si_args(str(tmp_path / "run.csv"), trials="10")) == 0
        assert main(["sinr", "--trials", "10", "--out", str(tmp_path / "sinr.csv")]) == 0
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    names = ["run_empirical.csv", "run_theoretical.csv", "run_summary.csv", "sinr.csv"]
    assert modes == dict.fromkeys(names, 0o644)


@pytest.mark.parametrize("planted", ["file", "symlink"])
def test_staging_never_opens_an_existing_path(tmp_path, monkeypatch, planted):
    # the second file's staged name is taken: the run fails on it without
    # truncating it, following it or deleting it, and removes its own staged file
    names = iter(["first", "second", "third"])
    monkeypatch.setattr(cli.secrets, "token_hex", lambda n: next(names))
    victim = tmp_path / "victim.txt"
    victim.write_text("keep")
    taken = tmp_path / ".fdsim-second.tmp"
    if planted == "file":
        taken.write_text("keep")
    else:
        taken.symlink_to(victim)
    assert main(_si_args(str(tmp_path / "run.csv"), trials="10")) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == [".fdsim-second.tmp", "victim.txt"]
    assert taken.is_symlink() == (planted == "symlink")
    assert taken.read_text() == victim.read_text() == "keep"


# sha256 of the raw-sample `fdsim si` files (`_si_args` without --bins), per format
# (stream layout 10; layout 11 kept these bytes)
GOLDEN_SI_RAW_SHA256 = {
    ("csv", "empirical"): "487d773d1ec0fe1537379bdb4270763ef2b83efaa7f85c2b2135d1f7bf0ed080",
    ("csv", "theoretical"): "ffb739b11fd22dd60608c74d618279a260b72cccb4978815929f3ee52185d5ba",
    ("csv", "summary"): "320dabac0d69bf99537f0f4b7009a055cbeecee538645b906e06e14cc117a6ac",
    ("jsonl", "empirical"): "a39d59656aa5bf56cd5687eb9dd433344870000068b9bf87b39e2d03429040da",
    ("jsonl", "theoretical"): "e6ab34285f5cc58a8b8dd8a4653e6ed46b845754eefc8e8a52ea356231d07382",
    ("jsonl", "summary"): "d0a92d0a0f68cd8c76cbde461528ae4f8f8dda5528ef03e6a1213077f01f23a0",
}


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_si_raw_samples_golden(tmp_path, fmt):
    out = str(tmp_path / f"raw.{fmt}")
    assert main(_si_args(out, bins=None, format=fmt)) == 0
    for suffix in ("empirical", "theoretical", "summary"):
        data = (tmp_path / f"raw_{suffix}.{fmt}").read_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN_SI_RAW_SHA256[fmt, suffix]


# sha256 of the same files at --mu 1e-3 --nu 1e-3, where every sample is under 1e-4,
# so its text is repr's, spliced in where orjson writes null
GOLDEN_SI_TINY_SHA256 = {
    ("csv", "empirical"): "03041e50a12e16bfac6165ad570229cbf125ea7e2a1525e47bcc9e4a6d2dc6b1",
    ("csv", "theoretical"): "0cce192480e3e56f17b5c7bdeaa7d984e0da6403079a18f0cc25b2e87a7b0de8",
    ("csv", "summary"): "9747b1d9cf7cf64f8a39ea4f985ccb76e2372b1dcd57813a84bc567fca4684ab",
    ("jsonl", "empirical"): "a3e43f8fe24bf169022cd11373e056cf9d1965282ee9c2f7707b5b4fac266f54",
    ("jsonl", "theoretical"): "6360d9b898aa16d31dba75afc7b6fc39f99fe51888a1a9a8199232ab2f2c1a3d",
    ("jsonl", "summary"): "dc871026646b4bc6912053353efc92a3af328b8e05e8cf5fcaf0a20df7a3b202",
}


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_si_tiny_raw_samples_golden(tmp_path, fmt):
    out = str(tmp_path / f"tiny.{fmt}")
    assert main(_si_args(out, bins=None, format=fmt, mu="1e-3", nu="1e-3")) == 0
    for suffix in ("empirical", "theoretical", "summary"):
        data = (tmp_path / f"tiny_{suffix}.{fmt}").read_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN_SI_TINY_SHA256[fmt, suffix]


# sha256 of `fdsim si --M 64 --N 32 --K 8 --mode empirical --trials 5000` (seed 0,
# stream layout 10; layout 11 kept these bytes): two blocks, the second partial
GOLDEN_SI_K8_SHA256 = {
    "empirical": "5ea6e3950676e4b5ed0fbaf46180511231f30032fafa1e3bb8ce90500658f88c",
    "summary": "0e97995547b964e3ce00f1762f13184a8da2ec8c3eedb5c04e61f3d822903519",
}


def test_si_k8_raw_samples_golden(tmp_path):
    out = str(tmp_path / "k8.csv")
    args = ["si", "--M", "64", "--N", "32", "--K", "8", "--mode", "empirical",
            "--trials", "5000", "--out", out]
    assert main(args) == 0
    for suffix, digest in GOLDEN_SI_K8_SHA256.items():
        assert hashlib.sha256((tmp_path / f"k8_{suffix}.csv").read_bytes()).hexdigest() == digest


# sha256 of `fdsim sinr --L 2 --K 2 --M 8 --N 4 --trials 100 --format jsonl` (seed 0,
# stream layout 11)
GOLDEN_SINR_JSONL_SHA256 = {
    "downlink": "08cc6d38244d9151be8b81fd10c9667e9807f7b277ed608cd887150a3dcd38c4",
    "uplink": "bd223ccbf9065c7450d8570f28230ec2d8a4d7ca6b7b34c9817d06595721828f",
}


@pytest.mark.parametrize("direction", ["downlink", "uplink"])
def test_sinr_jsonl_golden_run(tmp_path, monkeypatch, direction):
    monkeypatch.delenv("FDSIM_SEED", raising=False)
    out = tmp_path / "sinr.jsonl"
    assert main(["sinr", "--L", "2", "--K", "2", "--M", "8", "--N", "4",
                 "--trials", "100", "--direction", direction, "--format", "jsonl",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SINR_JSONL_SHA256[direction]


def _per_row_index_table(terms, fmt):
    """The SINR table with a per-row index, as ``fdsim sinr`` once wrote it:
    each row r takes ``trial`` and ``k`` from ``r // K`` and ``r % K``, whole
    1-D columns that go through ``_table`` with the terms, raveled."""
    T, K = terms["sinr"].shape
    r = np.arange(T * K)
    columns = [r // K, r % K, *(terms[key].ravel() for key in TERMS)]
    return b"".join(_table(SINR_COLUMNS, columns, fmt))


@pytest.mark.parametrize("noise", ["1", "0"])
@pytest.mark.parametrize("trials", [1, 7, 4097])
@pytest.mark.parametrize("K", [1, 2, 3, 5])  # no whole number of K = 3 or 5 trials fills 4096 rows
@pytest.mark.parametrize("direction", ["downlink", "uplink"])
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_sinr_index_is_written_as_the_per_row_index(tmp_path, monkeypatch, fmt, direction, K,
                                                    trials, noise):
    runs = []

    def recording(*args, **kwargs):
        runs.append(run_sinr(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "run_sinr", recording)
    out = tmp_path / f"sinr.{fmt}"
    assert main(["sinr", "--L", "2", "--K", str(K), "--direction", direction, "--noise", noise,
                 "--trials", str(trials), "--format", fmt, "--out", str(out)]) == 0
    expected = _per_row_index_table(runs[0], fmt)
    assert _lines(out.read_bytes().decode()) == _lines(expected.decode())


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_sinr_table_cuts_blocks_at_trials(monkeypatch, fmt):
    # 7 trials of K = 5 rows: _BLOCK_ROWS // K trials a block, or one where
    # K > _BLOCK_ROWS; some values lie outside [1e-4, 1e16), whose text is repr's
    gen = np.random.default_rng(8)
    terms = {key: gen.standard_normal((7, 5)) * 10.0 ** gen.integers(-6, 18, size=(7, 5))
             for key in TERMS}
    expected = _per_row_index_table(terms, fmt)
    for block, rows in [(11, [10, 10, 10, 5]), (4, [5] * 7)]:
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block)
        pieces = list(_table(SINR_COLUMNS, [terms[key] for key in TERMS], fmt))
        assert [p.count(b"\n") for p in pieces[fmt == "csv":]] == rows  # less the csv header
        assert _lines(b"".join(pieces).decode()) == _lines(expected.decode())


def test_sinr_table_streams_in_the_writers_own_blocks():
    # the 65,536 rows of sinr-uplink's table; cut at the engine's 4096 trials
    # a block, the writer's traced peak was 3.65 MB
    cfg = ExperimentConfig(geom=SystemGeometry(L=2, K=2, M=16, N=8),
                           si_spec=RicianSpec(0.5, 1.0), trials=32768, seed=11,
                           direction=Direction.UPLINK)
    terms = run_sinr(cfg)
    tracemalloc.start()
    try:
        for _ in _table(SINR_COLUMNS, [terms[key] for key in TERMS], "csv"):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6, peak


# sha256 of `fdsim moments --M 16 --N 8 --K 3 --mu 0.5 --nu 1` on stdout, per format
GOLDEN_MOMENTS_SHA256 = {
    "csv": "b44ca38f70ee35e79e9eb6ecc766f439d8941fbe0d401c9e88770d8affa8638b",
    "jsonl": "f4853b1359e6f430647e2141f4cfa81c70317f8f33b4d158d66609b790e00fc5",
}


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_moments_golden_stdout(capsys, fmt):
    assert main(["moments", "--M", "16", "--N", "8", "--K", "3",
                 "--mu", "0.5", "--nu", "1", "--format", fmt]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == GOLDEN_MOMENTS_SHA256[fmt]


def test_run_level_atomicity(tmp_path, monkeypatch):
    # the second rename of a three-file run fails: the first target is removed again
    real_replace, calls = os.replace, []

    def second_fails(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError("simulated rename failure")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", second_fails)
    assert main(_si_args(str(tmp_path / "x.csv"), trials="10")) == 1
    assert len(calls) == 2
    assert list(tmp_path.iterdir()) == []


def test_non_finite_jsonl_value_exits_1_with_no_output(tmp_path, monkeypatch, capsys):
    # the NaN sits past the first block of rows, which is already staged when it is met
    def nan_terms(cfg, threads):
        terms = {key: np.ones((cfg.trials, cfg.geom.K)) for key in SINR_COLUMNS[2:]}
        terms["sinr"][-1, -1] = np.nan
        return terms

    monkeypatch.setattr("fdsim.cli.run_sinr", nan_terms)
    out = str(tmp_path / "sinr.jsonl")
    argv = ["sinr", "--K", "2", "--trials", str(_BLOCK_ROWS), "--format", "jsonl", "--out", out]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("fdsim: numerical failure")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("direction", ["downlink", "uplink"])
def test_sinr_noise_overflow_exits_1_with_no_output(tmp_path, capsys, direction, fmt):
    # no closed form bounds the noise term; a block whose terms overflow fails the run
    out = str(tmp_path / f"sinr.{fmt}")
    argv = ["sinr", "--noise", "1e308", "--trials", "5000", "--direction", direction,
            "--format", fmt, "--out", out]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "fdsim: numerical failure: overflow encountered in multiply"
    ]
    assert list(tmp_path.iterdir()) == []


def test_out_of_memory_exits_1_with_no_output(tmp_path, monkeypatch, capsys):
    # e.g. `fdsim si --bins 500000000` under a memory limit: the histogram is
    # allocated after the Monte Carlo work, before anything is staged
    def no_memory(samples, bins):
        raise MemoryError("Unable to allocate 3.73 GiB")

    monkeypatch.setattr(cli, "histogram", no_memory)
    assert main(_si_args(str(tmp_path / "run.csv"), trials="10")) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["fdsim: out of memory: Unable to allocate 3.73 GiB"]
    assert list(tmp_path.iterdir()) == []


def test_out_of_memory_without_a_message_still_says_why(tmp_path, monkeypatch, capsys):
    def no_memory(samples, bins):
        raise MemoryError()

    monkeypatch.setattr(cli, "histogram", no_memory)
    assert main(_si_args(str(tmp_path / "run.csv"), trials="10")) == 1
    assert capsys.readouterr().err.splitlines() == ["fdsim: out of memory: allocation failed"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bins, code, message", [
    (2**44, 1, "fdsim: out of memory: "),  # 128 TiB of edges: no allocator has them
    (2**60, 2, "fdsim: invalid parameters: --bins 1152921504606846976 is too large"),
])
def test_bins_that_cannot_be_allocated_fail_before_monte_carlo(
        tmp_path, capsys, no_monte_carlo, bins, code, message):
    assert main(_si_args(str(tmp_path / "run.csv"), bins=str(bins))) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(message)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", ["empirical", "theoretical"])
@pytest.mark.parametrize("trials, code, message", [
    (10**15, 1, "fdsim: out of memory: Unable to allocate 7.11 PiB"),
    (2**61, 2, "fdsim: invalid parameters: trials 2305843009213693952 is too large"),
])
def test_trials_that_cannot_be_allocated_fail_before_monte_carlo(
        tmp_path, monkeypatch, capsys, mode, trials, code, message):
    def forbidden(*args, **kwargs):
        raise AssertionError("Monte Carlo work started before the samples were allocated")

    for name in ("_blocks", "_si_gains_block"):
        monkeypatch.setattr(f"fdsim.mc.{name}", forbidden)
    assert main(_si_args(str(tmp_path / "run.csv"), trials=str(trials), mode=mode)) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(message)
    assert list(tmp_path.iterdir()) == []



@pytest.mark.parametrize("direction", ["downlink", "uplink"])
@pytest.mark.parametrize("trials, code, message", [
    (10**15, 1, "fdsim: out of memory: Unable to allocate 7.11 PiB"),
    (2**61, 2, "fdsim: invalid parameters: trials 2305843009213693952 is too large"),
])
def test_sinr_trials_that_cannot_be_allocated_fail_before_monte_carlo(
        tmp_path, monkeypatch, capsys, direction, trials, code, message):
    def forbidden(*args, **kwargs):
        raise AssertionError("Monte Carlo work started before the terms were allocated")

    for name in ("_blocks", "_sinr_block_downlink", "_sinr_block_uplink"):
        monkeypatch.setattr(f"fdsim.mc.{name}", forbidden)
    out = str(tmp_path / "sinr.csv")
    argv = ["sinr", "--K", "1", "--trials", str(trials), "--direction", direction, "--out", out]
    assert main(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(message)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, code, message", [
    # the "Counts per trial" of the mc docstring, halved: 2L complex normals a
    # downlink trial and 2L + 2 an uplink one at K = 1, K(K - 1)/2 + 2K + 1 an si one
    (["sinr", "--direction", "downlink", "--L", str(10**15)], 1,
     "fdsim: out of memory: Unable to allocate 284. PiB for an array with shape "
     "(2000000000000000, 10)"),
    (["sinr", "--direction", "uplink", "--L", str(10**15)], 1,
     "fdsim: out of memory: Unable to allocate 284. PiB for an array with shape "
     "(2000000000000002, 10)"),
    (["si", "--mode", "empirical", *[f"--{x}={2**25}" for x in "KMN"]], 1,
     "fdsim: out of memory: Unable to allocate 80.0 PiB for an array with shape "
     "(562950003752961, 10)"),
    (["sinr", "--direction", "downlink", "--L", str(2**70)], 2,
     "fdsim: invalid parameters: a draw of 2361183241434822606848 complex normals"),
    (["sinr", "--direction", "uplink", "--L", str(2**70)], 2,
     "fdsim: invalid parameters: a draw of 2361183241434822606850 complex normals"),
    (["si", "--mode", "empirical", *[f"--{x}={2**70}" for x in "KMN"]], 2,
     "fdsim: invalid parameters: a draw of 696898287454081973174762083451337414017025"),
], ids=[f"{what}-{size}" for size in ("unallocatable", "unsizable")
        for what in ("downlink", "uplink", "si")])
def test_geometry_whose_draw_cannot_be_allocated_fails_before_monte_carlo(
        tmp_path, monkeypatch, capsys, argv, code, message):
    # a block's whole draw, which grows with L (sinr) or K (si), is tried
    # before the first block; a downlink block would loop over the L - 1
    # other cells first
    def forbidden(*args, **kwargs):
        raise AssertionError("Monte Carlo work started before the block's whole draw was tried")

    for name in ("_blocks", "_si_gains_block", "_sinr_block_downlink", "_sinr_block_uplink"):
        monkeypatch.setattr(f"fdsim.mc.{name}", forbidden)
    assert main([*argv, "--trials", "10", "--out", str(tmp_path / "run.csv")]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(message) and err[0].endswith(
        "Maximum allowed dimension exceeded" if code == 2 else "complex128")
    assert list(tmp_path.iterdir()) == []


def _interrupt(*args, **kwargs):
    raise KeyboardInterrupt


@pytest.mark.parametrize("where", ["monte carlo", "second rename"])
def test_interrupt_exits_130_with_no_output(tmp_path, monkeypatch, capsys, where):
    if where == "monte carlo":
        monkeypatch.setattr("fdsim.cli.run_sinr", _interrupt)
        argv = ["sinr", "--trials", "10", "--out", str(tmp_path / "sinr.csv")]
    else:
        real_replace, calls = os.replace, []

        def second_interrupted(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise KeyboardInterrupt
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", second_interrupted)
        argv = _si_args(str(tmp_path / "x.csv"), trials="10")
    assert main(argv) == 130
    assert capsys.readouterr().err.splitlines() == ["fdsim: interrupted"]
    assert list(tmp_path.iterdir()) == []


def _rerun_over(tmp_path, previous):
    """Write an ``si`` output set with ``--mode previous``; return its bytes by
    file name and the argv of a rerun at the same ``--out`` with another seed."""
    out = str(tmp_path / "run.csv")
    assert main(_si_args(out, trials="100", bins=None, mode=previous)) == 0
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    return files, _si_args(out, trials="100", bins=None, mode="both", seed="5")


@pytest.mark.parametrize("stop, code, message", [
    (lambda: OSError(28, "No space left on device"), 1,
     "fdsim: cannot write output: [Errno 28] No space left on device"),
    (KeyboardInterrupt, 130, "fdsim: interrupted"),
], ids=["disk-full", "interrupt"])
@pytest.mark.parametrize("previous, renames", [("both", 6), ("empirical", 5)])
def test_a_failed_run_leaves_the_previous_output_set_as_it_was(
        tmp_path, monkeypatch, capsys, stop, code, message, previous, renames):
    # each existing target is renamed aside before the new file takes its
    # name (6 renames over a `both` set, 5 over an `empirical` one), and
    # renamed back when any later rename fails
    before, rerun = _rerun_over(tmp_path, previous)
    real_replace, calls, fails_at = os.replace, [], [0]

    def fails(src, dst):
        calls.append(dst)
        if len(calls) == fails_at[0]:
            raise stop()
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", fails)
    for fails_at[0] in range(1, renames + 1):
        calls.clear()
        capsys.readouterr()
        assert main(rerun) == code, fails_at
        assert capsys.readouterr().err.splitlines() == [message]
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before, fails_at


@pytest.mark.parametrize("previous", ["both", "empirical"])
def test_a_rerun_replaces_the_previous_output_set(tmp_path, previous):
    before, rerun = _rerun_over(tmp_path, previous)
    assert main(rerun) == 0
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(after) == ["run_empirical.csv", "run_summary.csv", "run_theoretical.csv"]
    assert all(before.get(name) != data for name, data in after.items())


@pytest.fixture
def no_monte_carlo(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("Monte Carlo work started before validation")

    for name in ("run_si_empirical", "run_si_theoretical", "run_sinr"):
        monkeypatch.setattr(f"fdsim.cli.{name}", forbidden)


@pytest.mark.parametrize("extra", [
    ["--bins", "0"],
    ["--threads", "0"],
    ["--threads", "-3"],
    ["--out", "missing_dir/run.csv"],
    ["--out", "."],
    ["--seed", "-1"],
    ["--seed", "18446744073709551616"],
    ["--mu", "1e160"],
    ["--nu", "1e160"],
    ["sinr", "--mu", "1e160"],
    ["sinr", "--nu", "1e160"],
])
def test_user_errors_fail_before_monte_carlo(tmp_path, monkeypatch, capsys, no_monte_carlo,
                                             extra):
    monkeypatch.chdir(tmp_path)
    if extra[0] == "sinr":
        argv = ["sinr", "--trials", "10", "--out", "run.csv", *extra[1:]]
    else:
        argv = _si_args("run.csv") + extra
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("fdsim")
    assert list(tmp_path.iterdir()) == []


def _config(value):
    return lambda path, monkeypatch: (path / "cfg.json").write_text(json.dumps(value))


def _no_setup(path, monkeypatch):
    pass


_SI, _SINR = ["si", "--trials", "10"], ["sinr", "--trials", "10"]
_CONFIG = ["--config", "cfg.json"]


@pytest.mark.parametrize("argv, setup, message", [
    pytest.param([*_SI, "--out", "run.csv", *_CONFIG], _config({"threads": "four"}),
                 "--config cfg.json: invalid --threads value: 'four'", id="config-value"),
    pytest.param([*_SI, "--out", "run.csv", *_CONFIG], _config(["M", "N"]),
                 "--config cfg.json: expected a JSON object", id="config-not-an-object"),
    pytest.param([*_SI, "--out", "run.csv", *_CONFIG], _config({"bogus": 1}),
                 "unknown keys in --config: ['bogus']", id="config-unknown-key"),
    pytest.param([*_SI, "--out", "run.csv", *_CONFIG], _no_setup,
                 "cannot read --config cfg.json: [Errno 2]", id="config-unreadable"),
    pytest.param([*_SI, "--out", "run.csv"],
                 lambda path, monkeypatch: monkeypatch.setenv("FDSIM_SEED", "abc"),
                 "FDSIM_SEED: invalid --seed value: 'abc'", id="env-seed"),
    pytest.param([*_SINR, "--out", "run.csv", "--threads", "0"], _no_setup,
                 "--threads must be >= 1, got 0", id="threads-0"),
    pytest.param([*_SI, "--out", "run.csv", "--bins", "0"], _no_setup,
                 "--bins must be >= 1, got 0", id="bins-0"),
    pytest.param([*_SINR, "--out", "run.csv", "--noise", "inf"], _no_setup,
                 "noise_power must be >= 0 and finite, got inf", id="noise-inf"),
    pytest.param([*_SINR, "--out", "run.csv", "--noise", "nan"], _no_setup,
                 "noise_power must be >= 0 and finite, got nan", id="noise-nan"),
    pytest.param([*_SI, "--out", "run.csv", "--mu", "0.5", "--varpi", "1"], _no_setup,
                 "(--mu, --nu) and (--varpi, --omega) are mutually exclusive",
                 id="mu-and-varpi"),
    pytest.param([*_SINR, "--out", "missing/run.csv"], _no_setup,
                 "--out must name a file in an existing directory", id="out-no-directory"),
    pytest.param([*_SINR, "--out", "."], _no_setup,
                 "--out must name a file in an existing directory", id="out-a-directory"),
    pytest.param([*_SI, *_CONFIG], _config({"out": "run\u0000x.csv"}),
                 "--out must name a file in an existing directory", id="out-nul-byte"),
    pytest.param([*_SINR, "--out", "run.csv"],
                 lambda path, monkeypatch: monkeypatch.setattr(os, "access", lambda p, m: False),
                 "--out must name a file in a directory this process can write to",
                 id="out-unwritable"),
    pytest.param([*_SI, "--out", "run.csv"],
                 lambda path, monkeypatch: (path / "run_summary.csv").mkdir(),
                 "--out would write run_summary.csv, which is a directory", id="out-clash"),
    pytest.param([*_SINR, "--out", "a" * 5000 + ".csv"], _no_setup,
                 "--out gives a 5004-byte file name, over the directory's", id="out-name-max"),
    pytest.param([*_SI, "--out", "run.csv", "--bins", str(2**60)], _no_setup,
                 "--bins 1152921504606846976 is too large", id="bins-unsizable"),
    pytest.param([*_SI, "--out", "run.csv", "--K", "9", "--N", "8"], _no_setup,
                 "need K <= min(N, M), got K=9, N=8, M=16", id="model"),
])
def test_every_user_error_is_one_line_and_exit_2(tmp_path, monkeypatch, capsys,
                                                 no_monte_carlo, argv, setup, message):
    # each check fdsim makes of its own input raises InvalidParameterError,
    # which main reports on one line, before any Monte Carlo work and any write
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FDSIM_SEED", raising=False)
    setup(tmp_path, monkeypatch)
    made = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"fdsim: invalid parameters: {message}")
    assert sorted(tmp_path.rglob("*")) == made


@pytest.mark.parametrize("argv", [
    ["si", "--trials", "200000"],
    ["sinr", "--L", "2", "--K", "2", "--trials", "50000"],
])
def test_out_holding_a_nul_byte_fails_before_monte_carlo(tmp_path, monkeypatch, capsys, argv):
    # only a config file can carry the byte; os.replace would refuse the name
    # after every block had run
    def forbidden(*args, **kwargs):
        raise AssertionError("Monte Carlo work started before --out was checked")

    for name in ("_blocks", "_si_gains_block", "_sinr_block_downlink", "_sinr_block_uplink"):
        monkeypatch.setattr(f"fdsim.mc.{name}", forbidden)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"out": "run\u0000x.csv"}))
    assert main([*argv, "--config", "cfg.json"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "fdsim: invalid parameters: --out must name a file in an existing directory"
    ]
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("command, out", [
    ("si", "sub"), ("si", "sub/"), ("sinr", "."), ("sinr", "sub"), ("sinr", "sub/"),
])
def test_out_naming_a_directory_exits_2(tmp_path, monkeypatch, capsys, no_monte_carlo,
                                        command, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert main([command, "--trials", "10", "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["fdsim: invalid parameters: --out must name a file in an existing directory"]
    assert [p.name for p in tmp_path.rglob("*")] == ["sub"]


@pytest.mark.parametrize("mode, target", [
    ("empirical", "run_summary.csv"),
    ("both", "run_theoretical.csv"),
    ("theoretical", "run_theoretical.csv"),
])
def test_si_output_named_by_a_directory_exits_2(tmp_path, monkeypatch, capsys, no_monte_carlo,
                                                mode, target):
    # --out is a free name, but a file fdsim si derives from it is a directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / target).mkdir()
    assert main(["si", "--mode", mode, "--trials", "10", "--out", "run.csv"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"fdsim: invalid parameters: --out would write {target}, which is a directory"
    ]
    assert [p.name for p in tmp_path.rglob("*")] == [target]


@pytest.mark.parametrize("argv, extra", [
    # the --out name itself is one byte too long
    pytest.param(["sinr"], 1, id="sinr"),
    # it fits, but "_empirical" or "_theoretical" takes it over
    pytest.param(["si", "--mode", "empirical"], 0, id="si-empirical"),
    pytest.param(["si", "--mode", "theoretical", "--format", "jsonl"], 0, id="si-theoretical"),
])
def test_out_name_over_name_max_exits_2(tmp_path, monkeypatch, capsys, no_monte_carlo,
                                        argv, extra):
    monkeypatch.chdir(tmp_path)
    name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
    out = "a" * (name_max + extra - 4) + ".csv"
    assert main([*argv, "--trials", "10", "--out", out]) == 2
    longest = name_max + extra + (len("_" + argv[2]) if argv[0] == "si" else 0)
    assert capsys.readouterr().err.splitlines() == [
        f"fdsim: invalid parameters: --out gives a {longest}-byte file name, over the "
        f"directory's {name_max}-byte limit"
    ]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["si", "sinr"])
def test_out_in_a_directory_the_process_cannot_write_exits_2(tmp_path, monkeypatch, capsys,
                                                            no_monte_carlo, command):
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    assert main([command, "--trials", "10", "--out", str(tmp_path / "run.csv")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "fdsim: invalid parameters: --out must name a file in a directory this process can "
        "write to"
    ]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(os.geteuid() == 0, reason="root bypasses the directory's mode bits")
def test_out_in_a_read_only_directory_exits_2(tmp_path, capsys, no_monte_carlo):
    locked = tmp_path / "locked"
    locked.mkdir(mode=0o500)
    try:
        assert main(["sinr", "--trials", "10", "--out", str(locked / "run.csv")]) == 2
    finally:
        locked.chmod(0o700)
    assert "can write to" in capsys.readouterr().err
    assert list(locked.iterdir()) == []


def test_out_name_at_name_max_is_written(tmp_path):
    out = tmp_path / ("a" * (os.pathconf(tmp_path, "PC_NAME_MAX") - 4) + ".csv")
    assert main(["sinr", "--trials", "10", "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("pathconf", ["raises", "missing"])
@pytest.mark.parametrize("command", ["si", "sinr"])
def test_out_name_limit_unknown_without_pathconf(tmp_path, monkeypatch, command, pathconf):
    # os.pathconf is Unix-only and can raise; the run then checks no name length
    if pathconf == "missing":
        monkeypatch.delattr(os, "pathconf")
    else:
        def failing(path, name):
            raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))
        monkeypatch.setattr(os, "pathconf", failing)
    assert main([command, "--trials", "10", "--out", str(tmp_path / "run.csv")]) == 0
    expected = ["run.csv"] if command == "sinr" else ["run_empirical.csv", "run_summary.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == expected


class _FullDisk:
    """A staged file whose disk fills up after its first chunk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def writelines(self, chunks):
        self.fh.write(next(iter(chunks)))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("where", ["staging", "rename"])
def test_write_error_exits_1_with_no_output(tmp_path, monkeypatch, capsys, where):
    # the disk fills up on the run's second file
    calls = []
    if where == "staging":
        def second_full(path, mode):
            calls.append(path)
            fh = open(path, mode)
            return _FullDisk(fh) if len(calls) == 2 else fh

        monkeypatch.setattr(cli, "open", second_full, raising=False)
    else:
        real_replace = os.replace

        def second_full(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), dst)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", second_full)
    assert main(_si_args(str(tmp_path / "x.csv"), trials="10")) == 1
    assert len(calls) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("fdsim: cannot write output: [Errno 28]")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["moments", "--trials", "5", "--out", "x.csv"],
    ["moments", "--seed", "1"],
    ["moments", "--noise", "2"],
    ["moments", "--bins", "5"],
    ["moments", "--threads", "3"],
    ["moments", "--L", "2"],
    ["si", "--noise", "2", "--out", "x.csv"],
    ["si", "--L", "2", "--out", "x.csv"],
    ["sinr", "--bins", "5", "--out", "x.csv"],
])
def test_flag_the_subcommand_does_not_read_exits_2(tmp_path, monkeypatch, capsys,
                                                   no_monte_carlo, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("config, env_seed", [
    (None, "abc"),
    ({"threads": "four"}, None),
    ({"threads": 0}, None),
    ({"mu": "half"}, None),
    ({"M": 16.5}, None),
    ({"K": [2]}, None),
    ({"trials": True}, None),
    ({"direction": "sideways"}, None),
    ({"mode": "foo"}, None),
    ({"format": "xml"}, None),
    ({"noise": "loud"}, None),
    (["M", "N"], None),
    ({"bogus": 1}, None),
])
def test_bad_config_or_env_value_exits_2(tmp_path, monkeypatch, capsys, no_monte_carlo,
                                         config, env_seed):
    monkeypatch.chdir(tmp_path)
    args = _si_args("run.csv", seed=None)
    if env_seed is None:
        monkeypatch.delenv("FDSIM_SEED", raising=False)
    else:
        monkeypatch.setenv("FDSIM_SEED", env_seed)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        args += ["--config", "cfg.json"]
    assert main(args) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("fdsim")
    assert sorted(p.name for p in tmp_path.iterdir()) == (["cfg.json"] if config else [])


@pytest.mark.parametrize("text", [None, '{"M": 16,'])
def test_unreadable_config_exits_2(tmp_path, monkeypatch, capsys, no_monte_carlo, text):
    # None: the file is missing; otherwise it holds malformed JSON
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "cfg.json").write_text(text)
    assert main(_si_args("run.csv") + ["--config", "cfg.json"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("fdsim")] == err[-1:]
    assert "cannot read --config cfg.json" in err[-1]
    assert sorted(p.name for p in tmp_path.iterdir()) == (["cfg.json"] if text else [])


def test_config_strings_converted_by_flag_type(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": "16", "N": "8", "K": "3", "mu": "0.5", "nu": "1",
                               "threads": "4", "format": "csv"}))
    assert main(["moments", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == GOLDEN_MOMENTS_SHA256["csv"]


def test_config_values_the_subcommand_does_not_read_are_dropped(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": 16, "N": 8, "K": 3, "mu": 0.5, "nu": 1,
                               "bins": 0, "L": 0}))
    assert main(["moments", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == GOLDEN_MOMENTS_SHA256["csv"]


def test_si_ignores_the_cell_count_in_a_config(tmp_path, monkeypatch):
    monkeypatch.delenv("FDSIM_SEED", raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 0, "noise": -1.0, "direction": "uplink"}))
    out = str(tmp_path / "run.csv")
    assert main(_si_args(out) + ["--config", str(cfg)]) == 0
    assert (tmp_path / "run_summary.csv").read_text() == GOLDEN_SUMMARY


# `fdsim moments` with no flags: every model setting at its default
GOLDEN_MOMENTS_DEFAULTS = "M,N,K,mu,nu,m1,m2,var,kappa,theta\n16,8,1,0.0,1.0,1.0,2.0,1.0,1.0,1.0\n"


def test_moments_defaults_golden_stdout(capsys):
    assert main(["moments"]) == 0
    assert capsys.readouterr().out == GOLDEN_MOMENTS_DEFAULTS


@pytest.mark.parametrize("spec", [["--mu", "-0.0"], ["--varpi", "-0.0"]])
def test_negative_zero_mean_is_written_as_zero(capsys, spec):
    assert main(["moments", *spec]) == 0
    assert capsys.readouterr().out == GOLDEN_MOMENTS_DEFAULTS


class _Resolved(Exception):
    pass


@pytest.mark.parametrize("env_seed, seed", [(None, 0), ("7", 7)])
@pytest.mark.parametrize("command", ["si", "sinr"])
def test_defaults_and_ownership_of_the_resolved_settings(tmp_path, monkeypatch, command,
                                                         env_seed, seed):
    # with only --out given, each setting of the subcommand takes its default
    if env_seed is None:
        monkeypatch.delenv("FDSIM_SEED", raising=False)
    else:
        monkeypatch.setenv("FDSIM_SEED", env_seed)
    resolved, runs = [], []
    real_merge = cli._merge_config

    def merge(ns):
        resolved.append(real_merge(ns))
        return resolved[-1]

    def runner(name):
        def run(cfg, threads):
            runs.append((name, cfg, threads))
            raise _Resolved
        return run

    monkeypatch.setattr(cli, "_merge_config", merge)
    for name in ("run_si_empirical", "run_si_theoretical", "run_sinr"):
        monkeypatch.setattr(cli, name, runner(name))
    out = str(tmp_path / "run.csv")
    with pytest.raises(_Resolved):
        main([command, "--out", out])
    expected = dict(M=16, N=8, K=1, mu=None, nu=None, varpi=None, omega=None,
                    format="csv", trials=100000, seed=seed, out=out, threads=1)
    if command == "si":
        expected.update(bins=None, mode="empirical")
    else:
        expected.update(L=1, noise=1.0, direction="downlink")
    assert resolved == [expected]
    ((name, cfg, threads),) = runs
    assert name == ("run_si_empirical" if command == "si" else "run_sinr")
    assert (cfg.geom.L, cfg.geom.K, cfg.geom.M, cfg.geom.N) == (1, 1, 16, 8)
    assert (cfg.si_spec.mu, cfg.si_spec.nu) == (0.0, 1.0)
    assert (cfg.trials, cfg.seed, threads) == (100000, seed, 1)
    assert (cfg.noise_power, cfg.direction) == (1.0, Direction.DOWNLINK)
    assert list(tmp_path.iterdir()) == []


MODEL_FLAGS = {"help", "M", "N", "K", "mu", "nu", "varpi", "omega", "format", "config"}
RUN_FLAGS = {"trials", "seed", "out", "threads"}


@pytest.mark.parametrize("command, flags", [
    ("si", MODEL_FLAGS | RUN_FLAGS | {"bins", "mode"}),
    ("moments", MODEL_FLAGS),
    ("sinr", MODEL_FLAGS | RUN_FLAGS | {"L", "noise", "direction"}),
])
def test_help_lists_exactly_the_subcommands_flags(capsys, command, flags):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert set(re.findall(r"--(\w+)", out)) == flags
    # each flag's help, on its line or the next, ends in its default where it has one
    helps = dict(re.findall(r"^  --(\w+) \S+\s+(.*)", out, re.M))
    for name, (commands, _, text, default) in cli._SETTINGS.items():
        if command in commands:
            assert helps[name] == text + ("" if default is None else f" (default {default})")


def test_top_level_help_lists_the_subcommands(capsys):
    for flag in ("-h", "--help"):
        assert main([flag]) == 0
        out = capsys.readouterr().out
        assert all(f"  {command} " in out for command in ("si", "moments", "sinr"))


def _resolve(argv):
    return cli._merge_config(cli._parse(argv))


@pytest.mark.parametrize("same", [
    pytest.param(["si", "--trials=50", "--mode=both", "--mu=-0.5", "--out=a=b.csv"],
                 id="equals-form"),
    pytest.param(["si", "--trials", "9", "--mode", "theoretical", "--trials", "50", "--mode",
                  "both", "--mu", "-0.5", "--out", "x.csv", "--out", "a=b.csv"],
                 id="last-copy-wins"),
    pytest.param(["si", "--tri", "50", "--mod", "both", "--mu", "-0.5", "--ou", "a=b.csv"],
                 id="unique-prefix"),
])
def test_flag_forms_resolve_alike(monkeypatch, same):
    monkeypatch.delenv("FDSIM_SEED", raising=False)
    expected = _resolve(["si", "--trials", "50", "--mode", "both", "--mu", "-0.5",
                         "--out", "a=b.csv"])
    assert (expected["trials"], expected["mode"], expected["mu"]) == (50, "both", -0.5)
    assert expected["out"] == "a=b.csv"
    assert _resolve(same) == expected


def test_an_exact_name_wins_over_a_prefix(monkeypatch):
    # no setting's name is a prefix of another's yet, so plant one that is
    monkeypatch.setitem(cli._SETTINGS, "mux", (("si",), float, "x", None))
    assert cli._parse(["si", "--mu", "1", "--mux", "2"]) == {"command": "si", "mu": 1.0,
                                                             "mux": 2.0}
    with pytest.raises(cli.InvalidParameterError, match="--m could match --mu, --mode, --mux"):
        cli._parse(["si", "--m", "1"])


_OUT = ["--out", "run.csv"]


@pytest.mark.parametrize("argv, message", [
    pytest.param(["si", *_OUT, "--badflag", "1"], "unrecognized arguments: --badflag",
                 id="unknown-flag"),
    pytest.param(["si", *_OUT, "--noise", "2"], "unrecognized arguments: --noise",
                 id="flag-of-sinr"),
    pytest.param(["sinr", *_OUT, "--bins=5"], "unrecognized arguments: --bins=5",
                 id="flag-of-si"),
    pytest.param(["si", *_OUT, "-M", "3"], "unrecognized arguments: -M", id="one-dash"),
    pytest.param(["si", *_OUT, "--trials"], "--trials expects one value", id="missing-last"),
    pytest.param(["si", "--trials", *_OUT], "--trials expects one value",
                 id="missing-before-a-flag"),
    pytest.param(["si", *_OUT, "stray"], "unrecognized arguments: stray", id="positional"),
    pytest.param(["si", *_OUT, "--", "--K", "2"], "unrecognized arguments: --", id="double-dash"),
    pytest.param([], "expected a subcommand, one of si, moments, sinr", id="no-subcommand"),
    pytest.param(["--trials", "5", *_OUT],
                 "expected a subcommand, one of si, moments, sinr, got '--trials'",
                 id="flag-first"),
    pytest.param(["simulate", *_OUT],
                 "expected a subcommand, one of si, moments, sinr, got 'simulate'",
                 id="unknown-subcommand"),
    pytest.param(["si", *_OUT, "--trials", "1e3"],
                 "command line: invalid --trials value: '1e3'", id="bad-type"),
    pytest.param(["sinr", *_OUT, "--direction=sideways"],
                 "command line: invalid --direction value: 'sideways'", id="bad-choice"),
    pytest.param(["si", *_OUT, "--m", "both"],
                 "ambiguous option: --m could match --mu, --mode", id="ambiguous-prefix"),
])
def test_every_malformed_argument_is_one_line_and_exit_2(tmp_path, monkeypatch, capsys,
                                                         no_monte_carlo, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"fdsim: invalid parameters: {message}"]
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def _bad_value(key):
    kind = cli._SETTINGS[key][1]
    if isinstance(kind, tuple):
        return "sideways"
    return {int: "four", float: "loud"}.get(kind, "missing/run.csv")


@pytest.mark.parametrize("key", list(cli._SETTINGS))
def test_a_flag_and_the_config_file_share_one_check(tmp_path, monkeypatch, capsys,
                                                    no_monte_carlo, key):
    monkeypatch.chdir(tmp_path)
    command = "sinr" if "si" not in cli._SETTINGS[key][0] else "si"
    argv = [command, "--trials", "10", *(_OUT if key != "out" else [])]
    bad = _bad_value(key)
    (tmp_path / "cfg.json").write_text(json.dumps({key: bad}))
    assert main([*argv, f"--{key}", bad]) == 2
    from_flag = capsys.readouterr().err.splitlines()
    assert main([*argv, "--config", "cfg.json"]) == 2
    from_config = capsys.readouterr().err.splitlines()
    assert len(from_flag) == len(from_config) == 1
    assert (from_flag[0].replace("command line: ", "")
            == from_config[0].replace("--config cfg.json: ", ""))
    if key != "out":  # any text is a path: the --out check rejects this one
        assert from_flag[0] == (f"fdsim: invalid parameters: command line: "
                                f"invalid --{key} value: {bad!r}")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
