import hashlib
import json
import os

import pytest

from fdsim.cli import main

GOLDEN_SUMMARY = (
    "M,N,K,mu,nu,trials,seed,emp_m1,emp_m2,emp_var,cf_m1,cf_m2,cf_var,kappa,theta,ks\n"
    "4,4,2,0.5,1.0,200,123,2.4339646353377016,9.425359101647796,3.501175255573205,"
    "2.5,10.27,4.02,1.554726368159204,1.6079999999999999,0.06584971328772171\n"
    "4,4,2,0.5,1.0,200,123,2.2835662387063165,8.478914500093,3.264239733533686,"
    "2.5,10.27,4.02,1.554726368159204,1.6079999999999999,0.08633245687126134\n"
)

GOLDEN_EMPIRICAL = (
    "bin_left,count\n"
    "0.0,100\n"
    "1.8737013844132921,63\n"
    "3.7474027688265843,20\n"
    "5.621104153239877,12\n"
    "7.494805537653169,5\n"
)


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


# sha256 of `fdsim sinr --L 2 --K 2 --M 8 --N 4 --trials 100` (seed 0)
GOLDEN_SINR_SHA256 = {
    "downlink": "a9bf54457b69450eee7f6bbc608cfb3f52c40b20394a4098b044cb74662b293e",
    "uplink": "161130fb5623bcdbe5075dc37819230d77352dc1eda74c65f3b881ccdc12f30a",
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
    with pytest.raises(OSError):
        main(_si_args(out, trials="10"))
    assert list(tmp_path.iterdir()) == []


# sha256 of the raw-sample `fdsim si` files (`_si_args` without --bins), per format
GOLDEN_SI_RAW_SHA256 = {
    ("csv", "empirical"): "00cfd8379bd196e42e91b520cf5bb0ac02f0f001e249a94b97e8000830f9ffa5",
    ("csv", "theoretical"): "6f13ea6b0b17b081ea5d3e10efabe5495aecb721e045423735d43cbeb02f05e3",
    ("csv", "summary"): "247bec8ad9f775d34930c06959b531699fdaca3ff32cb1eed845fc7668782173",
    ("jsonl", "empirical"): "3015aed12df2b86f7131931e73ac1868f7c5eb29151b991278f6f6bc21871b36",
    ("jsonl", "theoretical"): "832fff9f6888e7d3364f0f2d735a9be8d359e59bc7d20086a60845ec511b9383",
    ("jsonl", "summary"): "cd31f88eea31e904d2c578051a5442562a6a1be11203314b05fb42878ea60e1a",
}


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_si_raw_samples_golden(tmp_path, fmt):
    out = str(tmp_path / f"raw.{fmt}")
    assert main(_si_args(out, bins=None, format=fmt)) == 0
    for suffix in ("empirical", "theoretical", "summary"):
        data = (tmp_path / f"raw_{suffix}.{fmt}").read_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN_SI_RAW_SHA256[fmt, suffix]


# sha256 of `fdsim sinr --L 2 --K 2 --M 8 --N 4 --trials 100 --format jsonl` (seed 0)
GOLDEN_SINR_JSONL_SHA256 = {
    "downlink": "891a5c64ba45f4f86b087ce3797404c248d12c21cf08be23685b2ca5196e2697",
    "uplink": "a9aaad4a92d67a14bc4eb9e70db107e28f323ef7d2f7f2520b5881e274370f26",
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
    with pytest.raises(OSError):
        main(_si_args(str(tmp_path / "x.csv"), trials="10"))
    assert len(calls) == 2
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
])
def test_user_errors_fail_before_monte_carlo(tmp_path, monkeypatch, capsys, no_monte_carlo,
                                             extra):
    monkeypatch.chdir(tmp_path)
    assert _exit_code(_si_args("run.csv") + extra) == 2
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
