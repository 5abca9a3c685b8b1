import errno
import hashlib
import json
import os
import re
import stat

import numpy as np
import pytest

import fdsim.cli as cli
from fdsim.cli import SINR_COLUMNS, _table, main
from fdsim.mc import BLOCK_SIZE, Direction

GOLDEN_SUMMARY = (
    "M,N,K,mu,nu,trials,seed,emp_m1,emp_m2,emp_var,cf_m1,cf_m2,cf_var,kappa,theta,ks\n"
    "4,4,2,0.5,1.0,200,123,2.557618535211814,10.979703460030061,4.438290888371035,"
    "2.5,10.27,4.02,1.554726368159204,1.6079999999999999,0.03636877370709644\n"
    "4,4,2,0.5,1.0,200,123,2.5334947989090746,10.347269436072333,3.9286735399730004,"
    "2.5,10.27,4.02,1.554726368159204,1.6079999999999999,0.045568854539488834\n"
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
    n = 2 * BLOCK_SIZE + 123  # more than two blocks of rows
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
    assert _lines("".join(pieces)) == _lines(expected)
    assert max(p.count("\n") for p in pieces) <= BLOCK_SIZE


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
    n = 2 * BLOCK_SIZE + 5
    gen = np.random.default_rng(19)
    terms = 10.0 ** gen.uniform(-4, 15, size=(3, n)) * gen.choice([-1.0, 1.0], size=(3, n))
    # values outside [1e-4, 1e16) on the run's first and last value and on
    # the first and last row of every block
    edges = [0, BLOCK_SIZE - 1, BLOCK_SIZE, 2 * BLOCK_SIZE - 1, 2 * BLOCK_SIZE, n - 1]
    terms[0, edges], terms[1, edges[::2]], terms[2, edges] = 3e-05, 5e-324, -1e16
    return {
        "histogram shape": [np.linspace(0.0, 40.0, n, endpoint=False),
                            gen.integers(0, 10**6, size=n)],
        "summary shape": [gen.integers(-(2**63), 2**63 - 1, size=n), gen.standard_normal(n),
                          gen.integers(2**63, 2**64 - 1, size=n, dtype=np.uint64),
                          gen.standard_normal(n) * 1e-3],
        "outside values on run edges": [np.arange(n), *terms],
    }


WRITER_CASES = {
    "bit patterns": [_bit_patterns(2 * BLOCK_SIZE + 5)],
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
    assert _lines("".join(_table(header, columns, fmt))) == _lines(expected)


def test_non_finite_csv_text_is_repr():
    column = np.array([np.inf, -np.inf, np.nan, 2.5, -np.nan])
    assert "".join(_table(["x"], [column], "csv")) == "x\ninf\n-inf\nnan\n2.5\nnan\n"


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_jsonl_value_raises(value):
    column = np.ones(BLOCK_SIZE + 1)
    column[-1] = value
    with pytest.raises(ValueError, match="not JSON compliant"):
        list(_table(["x"], [column], "jsonl"))


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_in_range_floats_make_no_float_repr_call(monkeypatch, fmt):
    # a sinr-shaped table: two int index columns and seven float terms, mui all
    # zeros and the others across [1e-4, 1e16); then three values outside it
    gen = np.random.default_rng(3)
    n, K = BLOCK_SIZE + 7, 2
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
    text = "".join(_table(SINR_COLUMNS, columns, fmt))
    # one call per run (the int index columns, then the float terms) per block
    assert reprs == [] and dumps == [np.int64, np.float64] * 2
    assert _lines(text) == one_shot()

    reprs.clear()
    dumps.clear()
    columns[-1][[5, BLOCK_SIZE, n - 1]] = outside
    text = "".join(_table(SINR_COLUMNS, columns, fmt))
    assert reprs == [float] * len(outside) and len(dumps) == 4
    assert _lines(text) == one_shot()


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


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["si", "--badflag"])
    assert exc.value.code == 2


def test_mutually_exclusive_spec_flags_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["moments", "--mu", "0.5", "--varpi", "1.0"])
    assert exc.value.code == 2


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
    ("csv", "summary"): "ae9d08c5988c5fabcc00583cd782cf32c7ee616c35ef903202766a802a080ac3",
    ("jsonl", "empirical"): "a39d59656aa5bf56cd5687eb9dd433344870000068b9bf87b39e2d03429040da",
    ("jsonl", "theoretical"): "e6ab34285f5cc58a8b8dd8a4653e6ed46b845754eefc8e8a52ea356231d07382",
    ("jsonl", "summary"): "378386c9a21b2778f9baac569e0f533a0340f2a727e93367a5040f6fe96b2549",
}


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_si_raw_samples_golden(tmp_path, fmt):
    out = str(tmp_path / f"raw.{fmt}")
    assert main(_si_args(out, bins=None, format=fmt)) == 0
    for suffix in ("empirical", "theoretical", "summary"):
        data = (tmp_path / f"raw_{suffix}.{fmt}").read_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN_SI_RAW_SHA256[fmt, suffix]


# sha256 of `fdsim si --M 64 --N 32 --K 8 --mode empirical --trials 5000` (seed 0,
# stream layout 10; layout 11 kept these bytes): two blocks, the second partial
GOLDEN_SI_K8_SHA256 = {
    "empirical": "5ea6e3950676e4b5ed0fbaf46180511231f30032fafa1e3bb8ce90500658f88c",
    "summary": "0e678f6eb770a92cc8795fabd27b3fe01bd0eacd414dd9fab0f66d9623a92f42",
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
    argv = ["sinr", "--K", "2", "--trials", str(BLOCK_SIZE), "--format", "jsonl", "--out", out]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("fdsim: numerical failure")
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

    for name in ("_blocks", "_si_gains_block", "_gamma_block"):
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


@pytest.fixture
def no_monte_carlo(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("Monte Carlo work started before validation")

    for name in ("run_si_empirical", "run_si_theoretical", "run_sinr"):
        monkeypatch.setattr(f"fdsim.cli.{name}", forbidden)


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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
    assert _exit_code(argv) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("fdsim")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, out", [
    ("si", "sub"), ("si", "sub/"), ("sinr", "."), ("sinr", "sub"), ("sinr", "sub/"),
])
def test_out_naming_a_directory_exits_2(tmp_path, monkeypatch, capsys, no_monte_carlo,
                                        command, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert _exit_code([command, "--trials", "10", "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"fdsim {command}: --out must name a file in an existing directory"]
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
    assert _exit_code(["si", "--mode", mode, "--trials", "10", "--out", "run.csv"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"fdsim si: --out would write {target}, which is a directory"
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
    assert _exit_code([*argv, "--trials", "10", "--out", out]) == 2
    longest = name_max + extra + (len("_" + argv[2]) if argv[0] == "si" else 0)
    assert capsys.readouterr().err.splitlines() == [
        f"fdsim {argv[0]}: --out gives a {longest}-byte file name, over the "
        f"directory's {name_max}-byte limit"
    ]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["si", "sinr"])
def test_out_in_a_directory_the_process_cannot_write_exits_2(tmp_path, monkeypatch, capsys,
                                                            no_monte_carlo, command):
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    assert _exit_code([command, "--trials", "10", "--out", str(tmp_path / "run.csv")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"fdsim {command}: --out must name a file in a directory this process can write to"
    ]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(os.geteuid() == 0, reason="root bypasses the directory's mode bits")
def test_out_in_a_read_only_directory_exits_2(tmp_path, capsys, no_monte_carlo):
    locked = tmp_path / "locked"
    locked.mkdir(mode=0o500)
    try:
        assert _exit_code(["sinr", "--trials", "10", "--out", str(locked / "run.csv")]) == 2
    finally:
        locked.chmod(0o700)
    assert "can write to" in capsys.readouterr().err
    assert list(locked.iterdir()) == []


def test_out_name_at_name_max_is_written(tmp_path):
    out = tmp_path / ("a" * (os.pathconf(tmp_path, "PC_NAME_MAX") - 4) + ".csv")
    assert main(["sinr", "--trials", "10", "--out", str(out)]) == 0
    assert out.exists()


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
    assert _exit_code(argv) == 2
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
    assert _exit_code(args) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("fdsim")
    assert sorted(p.name for p in tmp_path.iterdir()) == (["cfg.json"] if config else [])


@pytest.mark.parametrize("text", [None, '{"M": 16,'])
def test_unreadable_config_exits_2(tmp_path, monkeypatch, capsys, no_monte_carlo, text):
    # None: the file is missing; otherwise it holds malformed JSON
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "cfg.json").write_text(text)
    assert _exit_code(_si_args("run.csv") + ["--config", "cfg.json"]) == 2
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

    def merge(ns, parser):
        resolved.append(real_merge(ns, parser))
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
    assert _exit_code([command, "--help"]) == 0
    assert set(re.findall(r"--(\w+)", capsys.readouterr().out)) == flags
