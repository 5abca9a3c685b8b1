"""Spans around fdsim's layer boundaries, recorded from outside the package.

The tracer replaces the public functions at the module attributes where
one layer calls the next (``fdsim.cli.run_si_empirical``,
``fdsim.mc.generate_batch``, ...) with wrappers that record a span per
call: name, layer, start, end, parent, thread and run id, plus counts
taken from the call's result.  Nothing inside fdsim changes.  A boundary
whose attribute no longer exists is skipped and listed, so the benchmark
keeps running while the package is refactored.

Spans opened in a pool worker thread have no open span of their own
thread; they take the innermost open span of the main thread as their
parent, which is the enclosing ``mc`` span that waits on the pool.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "mc", "channel", "beamforming", "stats", "closedform")


def _count_channel(result):
    return {"normals": 2 * result.size, "bytes_out": result.nbytes}


def _count_zf(result):
    bad = result[1]
    return {"matrices": bad.size, "bad": int(bad.sum())}


def _count_blocks(result):
    return {"blocks": len(result)}


def _count_report(result):
    return {"regenerated": int(result.regenerated_trials)}


def _count_sinr(result):
    return {"regenerated": int(result["regenerated"])}


# (module, attribute, layer, counter).  The span name is "<layer>.<attribute>".
BOUNDARIES = [
    ("fdsim.cli", "main", "cli", None),
    ("fdsim.cli", "run_si_empirical", "mc", _count_report),
    ("fdsim.cli", "run_si_theoretical", "mc", _count_report),
    ("fdsim.cli", "run_sinr", "mc", _count_sinr),
    ("fdsim.cli", "histogram", "stats", None),
    ("fdsim.cli", "gamma_mimo", "closedform", None),
    ("fdsim.cli", "moment1", "closedform", None),
    ("fdsim.cli", "moment2", "closedform", None),
    ("fdsim.cli", "si_variance", "closedform", None),
    ("fdsim.mc", "_blocks", "mc", _count_blocks),
    ("fdsim.mc", "generate_batch", "channel", _count_channel),
    ("fdsim.mc", "zf_precoder_batch", "beamforming", _count_zf),
    ("fdsim.mc", "zf_decoder_batch", "beamforming", _count_zf),
    ("fdsim.mc", "gamma_mimo", "closedform", None),
    ("fdsim.mc", "ks_distance", "stats", None),
    ("fdsim.mc", "gamma_cdf", "stats", None),
]


class Tracer:
    """Records spans in memory; ``install`` wraps the boundaries in place."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.unwrapped: list[str] = []
        self.uncounted: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        for module_name, attr, layer, counter in BOUNDARIES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.unwrapped.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, f"{layer}.{attr}", layer, counter))

    def _wrap(self, fn, name: str, layer: str, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {
                    "id": span_id, "name": name, "layer": layer,
                    "start": start, "end": end, "parent": parent,
                    "thread": threading.current_thread().name, "run": self.run_id,
                    "counts": {},
                }
                self.spans.append(span)
            if counter is not None:
                try:
                    span["counts"] = counter(result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    self.uncounted.add(name)  # the boundary changed its result type
            return result

        return wrapper


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _union_length(children[s["id"]]) for s in spans
    }


def layer_wall(spans: list[dict]) -> dict[str, float]:
    """Split wall time among layers so that the shares sum to the root spans.

    At every instant the open spans without an open child share the
    instant equally.  With one thread this is each layer's self time; with
    a pool, two concurrent leaves each get half of the overlap.
    """
    events = sorted({s["start"] for s in spans} | {s["end"] for s in spans})
    wall = dict.fromkeys(LAYERS, 0.0)
    for t0, t1 in zip(events, events[1:]):
        open_ids = {s["id"]: s for s in spans if s["start"] <= t0 and s["end"] >= t1}
        parents = {s["parent"] for s in open_ids.values()}
        leaves = [s for sid, s in open_ids.items() if sid not in parents]
        for s in leaves:
            wall[s["layer"]] += (t1 - t0) / len(leaves)
    return wall


def layer_metrics(spans: list[dict], threads: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (cli.main span and its subtree).

    ``cli.bytes_written``, ``cli.write_mb_per_s`` and
    ``trace.overhead_frac`` need the output files or the untraced runs, so
    the caller adds them.
    """
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def busy(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def count(layer, key):
        return sum(s["counts"].get(key, 0) for s in spans if s["layer"] == layer)

    mains = by_name["cli.main"]
    main_s = sum(s["end"] - s["start"] for s in mains)
    runs = [s for s in spans if s["layer"] == "mc" and s["name"].startswith("mc.run_")]
    run_ids = {s["id"] for s in runs}
    mc_wall = sum(s["end"] - s["start"] for s in runs)
    mc_child_busy = sum(s["end"] - s["start"] for s in spans if s["parent"] in run_ids)
    wall = layer_wall(spans)

    channel_busy = busy("channel.generate_batch")
    bf_matrices = count("beamforming", "matrices")
    m = {
        "channel.busy_s": channel_busy,
        "channel.calls": len(by_name["channel.generate_batch"]),
        "channel.normals": count("channel", "normals"),
        "channel.normals_per_s": count("channel", "normals") / channel_busy if channel_busy else 0.0,
        "channel.bytes_out": count("channel", "bytes_out"),
        "beamforming.precoder_busy_s": busy("beamforming.zf_precoder_batch"),
        "beamforming.decoder_busy_s": busy("beamforming.zf_decoder_batch"),
        "beamforming.calls": sum(1 for s in spans if s["layer"] == "beamforming"),
        "beamforming.matrices": bf_matrices,
        "beamforming.bad_frac": count("beamforming", "bad") / bf_matrices if bf_matrices else 0.0,
        "mc.self_s": wall["mc"],
        "mc.theoretical_s": sum(own[s["id"]] for s in by_name["mc.run_si_theoretical"]),
        "mc.pool_busy_frac": mc_child_busy / (threads * mc_wall) if mc_wall else 0.0,
        "mc.blocks": count("mc", "blocks"),
        "mc.regenerated_trials": count("mc", "regenerated"),
        "stats.ks_busy_s": busy("stats.ks_distance"),
        "stats.gamma_cdf_busy_s": busy("stats.gamma_cdf"),
        "stats.histogram_busy_s": busy("stats.histogram"),
        "closedform.busy_s": sum(s["end"] - s["start"] for s in spans if s["layer"] == "closedform"),
        "cli.self_s": wall["cli"],
        "trace.main_s": main_s,
        "trace.accounted_frac": sum(wall.values()) / main_s if main_s else 0.0,
    }
    for layer in ("channel", "beamforming", "stats", "closedform"):
        m[f"{layer}.self_s"] = wall[layer]
    return m


def export_rows(spans: list[dict]) -> list[dict]:
    """Spans as plain records, times in seconds from the run's first span."""
    if not spans:
        return []
    t0 = min(s["start"] for s in spans)
    own = self_times(spans)
    return [
        {
            "run": s["run"], "id": s["id"], "parent": s["parent"], "name": s["name"],
            "layer": s["layer"], "thread": s["thread"],
            "start": s["start"] - t0, "end": s["end"] - t0, "self_s": own[s["id"]],
            **({"counts": s["counts"]} if s["counts"] else {}),
        }
        for s in sorted(spans, key=lambda s: s["start"])
    ]
