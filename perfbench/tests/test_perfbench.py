"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench/tests``."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 2000


def _bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert _units("end_to_end") == run.END_TO_END_UNITS
    assert _units("per_layer") == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run(workload):
    out = _bench("--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", "0", "--trials", str(TINY))
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] >= run.MIN_RUNS
    assert {k: v["unit"] for k, v in out["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_counts_repeat_exactly():
    args = ["--workload", "si-k3", "--seed", "5", "--seconds", "0", "--trace", "1",
            "--trials", "20000"]
    a, b = _bench(*args), _bench(*args)
    assert a["correct"] and b["correct"]
    assert {k: v["unit"] for k, v in a["metrics"].items()} == _units("per_layer")
    w = WORKLOADS["si-k3"]
    m = {k: v["value"] for k, v in a["metrics"].items()}
    # H_si (N x M), H_down (K x M) and H_up (N x K): two real normals per entry.
    assert m["channel.normals"] == 2 * 20000 * (w.N * w.M + w.K * w.M + w.N * w.K)
    assert m["mc.blocks"] == 4  # two blocks for each of the two modes
    assert m["cli.bytes_written"] > 0
    for key in ("channel.normals", "mc.blocks", "cli.bytes_written"):
        assert a["metrics"][key]["value"] == b["metrics"][key]["value"], key
    assert m["trace.accounted_frac"] == pytest.approx(1.0, abs=1e-9)

    rows = [json.loads(ln) for ln in (ROOT / ".perfbench/spans-si-k3-seed5.jsonl").open()]
    by_key = {(r["run"], r["id"]): r for r in rows}
    workers = [r for r in rows if r["thread"] != "MainThread"]
    assert workers, "a 2-block run with 2 threads uses the pool"
    for r in workers:
        assert by_key[(r["run"], r["parent"])]["name"].startswith("mc.run_si_")


def _corrupt_truncate(paths):
    data = Path(paths[0]).read_bytes()
    Path(paths[0]).write_bytes(data[: len(data) // 2])


def _corrupt_summary(paths):
    p = Path(paths[-1])
    header, row1, *rest = p.read_text().splitlines(keepends=True)
    fields = row1.split(",")
    fields[7] = repr(float(fields[7]) * 1.5)  # emp_m1
    p.write_text("".join([header, ",".join(fields), *rest]))


def _corrupt_delete(paths):
    Path(paths[1]).unlink()


@pytest.mark.parametrize("corrupt", [_corrupt_truncate, _corrupt_summary, _corrupt_delete])
def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch, corrupt):
    bench = run.Bench("si-k3", seed=3, trials=TINY, state=tmp_path)
    assert not bench.run_once(0, traced=False, timeout=120)["error"]

    real = run.run_worker

    def worker_then_corrupt(*args, **kwargs):
        result = real(*args, **kwargs)
        corrupt(bench.w.output_paths(bench.out_path()))
        return result

    monkeypatch.setattr(run, "run_worker", worker_then_corrupt)
    assert bench.run_once(1, traced=False, timeout=120)["error"]


def test_changed_output_bytes_count_as_failed(tmp_path):
    bench = run.Bench("sinr-uplink", seed=3, trials=TINY, state=tmp_path)
    assert not bench.run_once(0, traced=False, timeout=120)["error"]
    bench.trials = TINY + 1  # valid output, different bytes
    assert "digest" in bench.run_once(1, traced=False, timeout=120)["error"]


def _span(sid, parent, start, end, layer, thread="MainThread"):
    return {"id": sid, "parent": parent, "start": start, "end": end, "layer": layer,
            "name": f"{layer}.x", "thread": thread, "run": "r", "counts": {}}


def test_self_time_subtracts_union_of_children():
    tree = [
        _span(1, None, 0.0, 10.0, "mc"),
        _span(2, 1, 1.0, 4.0, "channel", "pool_0"),
        _span(3, 1, 2.0, 6.0, "beamforming", "pool_1"),
    ]
    assert spans.self_times(tree)[1] == pytest.approx(5.0)  # 10 - |[1, 6]|, not 10 - 7
    wall = spans.layer_wall(tree)
    assert wall["mc"] == pytest.approx(5.0)
    assert wall["channel"] == pytest.approx(1.0 + 1.0)  # alone on [1, 2], shares [2, 4]
    assert wall["beamforming"] == pytest.approx(1.0 + 2.0)  # shares [2, 4], alone on [4, 6]
    assert sum(wall.values()) == pytest.approx(10.0)
