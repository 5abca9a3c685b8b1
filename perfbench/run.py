"""Outside-in benchmark of the fdsim CLI.

    python3 perfbench/run.py --workload si-k3 --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) again and again, each time as
``fdsim.cli.main(argv)`` in a fresh interpreter, until ``--seconds`` have
passed (and at least a few times).  Every run's output files are checked
(checks.py) and their digest must match the first run's: the seed is
fixed, so the bytes must be too.  A run that fails any check counts in
``failed``.

``--trace 0`` reports the end-to-end metrics over the runs: set-up time,
run time, trials per second, CPU time and peak RSS.  ``--trace 1``
alternates untraced runs with traced ones (spans.py) and reports the
per-layer metrics of the traced runs, plus the tracing overhead against
the untraced runs.  The spans are written to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with every sample, the tail percentiles and the environment, goes to
``.perfbench/result-<workload>-seed<seed>-trace<t>.json``.  BLAS and
OpenMP are pinned to one thread so that ``--threads 2`` uses two cores.
``trials_per_s`` is the workload's ``--trials`` (per mode) over ``run_s``.

Every metric of every workload, end-to-end and per layer:

    for w in si-k3 si-massive sinr-uplink; do for t in 0 1; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 35 --trace $t
    done; done

The benchmark's own tests: ``python3 -m pytest perfbench/tests``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from checks import CheckError, check_outputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HARD_LIMIT_S = 170.0  # a whole invocation must end well within 180 s
MIN_RUNS = 3  # untraced runs, whatever --seconds says
MIN_TRACED_RUNS = 2
BLAS_THREADS = "1"

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "trials_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "channel.busy_s": "s", "channel.calls": "count", "channel.normals": "count",
    "channel.normals_per_s": "1/s", "channel.bytes_out": "B", "channel.self_s": "s",
    "beamforming.precoder_busy_s": "s", "beamforming.decoder_busy_s": "s",
    "beamforming.calls": "count", "beamforming.matrices": "count",
    "beamforming.bad_frac": "ratio", "beamforming.self_s": "s",
    "mc.self_s": "s", "mc.theoretical_s": "s", "mc.pool_busy_frac": "ratio",
    "mc.blocks": "count", "mc.regenerated_trials": "count",
    "stats.ks_busy_s": "s", "stats.gamma_cdf_busy_s": "s", "stats.histogram_busy_s": "s",
    "stats.self_s": "s", "closedform.busy_s": "s", "closedform.self_s": "s",
    "cli.self_s": "s", "cli.bytes_written": "B", "cli.write_mb_per_s": "MB/s",
    "trace.main_s": "s", "trace.accounted_frac": "ratio", "trace.overhead_frac": "ratio",
}


def tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples above it (nearest rank)."""
    n = len(values)
    if n <= 10:
        return None
    return {"p": round(100.0 * (n - 10) / n, 1), "value": sorted(values)[n - 11]}


def summarise(values: list[float]) -> dict:
    return {"median": statistics.median(values), "tail": tail(values), "n": len(values)}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, trials: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: BLAS_THREADS for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": git_commit(),
        "seed": seed,
        "trials": {name: w.trials for name, w in WORKLOADS.items()} | {"this_run": trials},
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    return env


def run_worker(args: list[str], env: dict, timeout: float) -> tuple[dict | None, str]:
    """Start the worker, wait for it, return (its JSON result or None, error)."""
    cmd = [sys.executable, str(HERE / "worker.py"), repr(time.monotonic()), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, f"worker printed no result: {proc.stdout[-200:]!r}"


class Bench:
    def __init__(self, workload: str, seed: int, trials: int, state: Path):
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.trials = trials
        self.workdir = state / f"work-{workload}"
        self.env = child_env()
        self.reference_digest: str | None = None
        self.runs: list[dict] = []

    def out_path(self) -> str:
        return str(self.workdir / f"{self.w.name}.csv")

    def run_once(self, index: int, traced: bool, timeout: float) -> dict:
        """One fdsim run plus its checks; the record says whether it failed."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        run_id = f"{self.w.name}-seed{self.seed}-run{index}"
        argv = self.w.argv(self.trials, self.seed, self.out_path())
        result, error = run_worker(
            ["1" if traced else "0", run_id, "--", *argv], self.env, timeout
        )
        rec = {"run": run_id, "traced": traced, "result": result, "error": error}
        if result is not None and result["rc"] != 0:
            rec["error"] = f"fdsim exit code {result['rc']}"
        if not rec["error"]:
            try:
                dig = check_outputs(self.w, self.out_path(), self.trials, self.seed)
            except CheckError as exc:
                rec["error"] = f"output check: {exc}"
            else:
                rec["bytes_written"] = sum(
                    os.path.getsize(p) for p in self.w.output_paths(self.out_path())
                )
                if self.reference_digest is None:
                    self.reference_digest = dig
                elif dig != self.reference_digest:
                    rec["error"] = "output digest differs from the first run at this seed"
        self.runs.append(rec)
        return rec


def end_to_end(runs: list[dict], trials: int) -> dict[str, list[float]]:
    samples = {k: [] for k in END_TO_END_UNITS}
    for r in runs:
        res = r["result"]
        for k in ("setup_s", "run_s", "cpu_s", "peak_rss_mb"):
            samples[k].append(res[k])
        samples["trials_per_s"].append(trials / res["run_s"])
    return samples


def per_layer(traced: list[dict], untraced_run_s: float, threads: int) -> dict[str, list[float]]:
    samples = {k: [] for k in PER_LAYER_UNITS}
    for r in traced:
        m = spans.layer_metrics(r["result"]["spans"], threads)
        m["cli.bytes_written"] = r["bytes_written"]
        m["cli.write_mb_per_s"] = (
            r["bytes_written"] / 1e6 / m["cli.self_s"] if m["cli.self_s"] else 0.0
        )
        m["trace.overhead_frac"] = r["result"]["run_s"] / untraced_run_s - 1.0
        for k in samples:
            samples[k].append(m[k])
    return samples


def write_spans(path: Path, traced: list[dict]) -> None:
    with open(path, "w") as fh:
        for r in traced:
            for row in spans.export_rows(r["result"]["spans"]):
                fh.write(json.dumps(row) + "\n")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--trials", type=int, help="override the workload's trial count")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fdsim" / "cli.py").is_file():
        print(f"perfbench: no fdsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    trials = args.trials or w.trials
    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    bench = Bench(w.name, args.seed, trials, state)
    started = time.monotonic()

    # Warm-up: byte-compile fdsim and load the libraries into the page cache,
    # which users pay once per install, not once per run.
    # A failed warm-up shows again, and is counted, in the measured runs.
    run_worker(["0", "warmup", "--", "--help"], bench.env, HARD_LIMIT_S)

    need_traced = MIN_TRACED_RUNS if args.trace else 0
    index = 0
    slowest = 0.0
    while True:
        elapsed = time.monotonic() - started
        n_plain = sum(not r["traced"] for r in bench.runs)
        n_traced = len(bench.runs) - n_plain
        enough = n_plain >= MIN_RUNS and n_traced >= need_traced
        if (enough and elapsed >= args.seconds) or elapsed + slowest > HARD_LIMIT_S:
            break
        traced = bool(args.trace) and index % 2 == 1
        t = time.monotonic()
        rec = bench.run_once(index, traced, HARD_LIMIT_S - elapsed)
        slowest = max(slowest, time.monotonic() - t)
        if rec["error"]:
            print(f"perfbench: {rec['run']} failed: {rec['error']}")
        index += 1

    runs = bench.runs
    failed = sum(bool(r["error"]) for r in runs)
    measured = [r for r in runs if r["result"] is not None and r["result"]["rc"] == 0]
    plain = [r for r in measured if not r["traced"]]
    traced = [r for r in measured if r["traced"] and "bytes_written" in r]

    record = {
        "workload": w.name, "seed": args.seed, "trials": trials, "trace": args.trace,
        "threads": w.threads, "argv": w.argv(trials, args.seed, "<out>"),
        "environment": environment(args.seed, trials),
        "attempted": len(runs), "failed": failed,
        "failed_frac": failed / len(runs) if runs else 1.0,
        "errors": [f"{r['run']}: {r['error']}" for r in runs if r["error"]],
    }
    metrics: dict[str, dict] = {}
    if plain:
        e2e = end_to_end(plain, trials)
        record["end_to_end"] = {
            k: {"unit": END_TO_END_UNITS[k], **summarise(v), "samples": v} for k, v in e2e.items()
        }
        if not args.trace:
            metrics = {
                k: {"value": statistics.median(v), "unit": END_TO_END_UNITS[k]}
                for k, v in e2e.items()
            }
    if args.trace and traced and plain:
        untraced_run_s = statistics.median(r["result"]["run_s"] for r in plain)
        layers = per_layer(traced, untraced_run_s, w.threads)
        record["per_layer"] = {
            k: {"unit": PER_LAYER_UNITS[k], **summarise(v), "samples": v}
            for k, v in layers.items()
        }
        record["unwrapped"] = traced[0]["result"]["unwrapped"]
        record["uncounted"] = traced[0]["result"]["uncounted"]
        spans_path = state / f"spans-{w.name}-seed{args.seed}.jsonl"
        write_spans(spans_path, traced)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics = {
            k: {"value": statistics.median(v), "unit": PER_LAYER_UNITS[k]}
            for k, v in layers.items()
        }
    result_path = state / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    print_report(record)
    if not metrics:
        print("perfbench: no run produced measurements", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics,
    }))
    return 0


def print_report(record: dict) -> None:
    print(
        f"perfbench {record['workload']} seed={record['seed']} trials={record['trials']} "
        f"threads={record['threads']} runs={record['attempted']} failed={record['failed']} "
        f"failed_frac={record['failed_frac']:.4g} ratio"
    )
    for section in ("end_to_end", "per_layer"):
        for name, s in record.get(section, {}).items():
            t = s["tail"]
            tail_txt = f"p{t['p']:g} {t['value']:.6g}" if t else "tail n/a (n<=10)"
            print(f"  {name:30s} median {s['median']:.6g} {s['unit']:6s} {tail_txt}  n={s['n']}")
    env = record["environment"]
    print("  environment " + json.dumps(env))
    for err in record["errors"]:
        print(f"  error {err}")


if __name__ == "__main__":
    sys.exit(main())
