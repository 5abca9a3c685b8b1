import hashlib
import json
import os

import pytest

from fdsim.cli import main

GOLDEN_SUMMARY = (
    "M,N,K,mu,nu,trials,seed,emp_m1,emp_m2,emp_var,cf_m1,cf_m2,cf_var,kappa,theta,ks\n"
    "4,4,2,0.5,1.0,200,123,2.3156330766644597,8.683292077608536,3.321135531866025,"
    "2.5,10.27,4.02,1.5547263681592038,1.608,0.08138813164446368\n"
    "4,4,2,0.5,1.0,200,123,2.2835662387063165,8.478914500092998,3.2642397335336844,"
    "2.5,10.27,4.02,1.5547263681592038,1.608,0.08633245687126145\n"
)

GOLDEN_EMPIRICAL = (
    "bin_left,count\n"
    "0.0,109\n"
    "2.1066826815033877,73\n"
    "4.213365363006775,8\n"
    "6.3200480445101626,6\n"
    "8.42673072601355,4\n"
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
    "downlink": "272bdf9b6e4159c6c9adab97c63ab4649ff7f6de549e79c1f89192870a0e18b8",
    "uplink": "8412cd867640f390ccc36f91791816398c063b8c4072f9aa58275276eacf0500",
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
