"""One fdsim CLI run in a fresh interpreter, timed from the inside.

    python3 perfbench/worker.py LAUNCH TRACE RUN_ID -- FDSIM_ARGS...

LAUNCH is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide on Linux), so ``setup_s`` covers
interpreter start-up and the imports of numpy, scipy and fdsim.  With
TRACE = 1 the layer boundaries are wrapped before the run.  Prints one
JSON object as its last line.
"""
from __future__ import annotations

import json
import resource
import sys
import time


def _cpu_s(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    launch, trace, run_id = float(sys.argv[1]), sys.argv[2] == "1", sys.argv[3]
    argv = sys.argv[5:]

    import fdsim.cli

    ready = time.monotonic()
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer(run_id)
        tracer.install()

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        rc = fdsim.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    run_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    out = {
        "rc": rc,
        "setup_s": ready - launch,
        "run_s": run_s,
        "cpu_s": _cpu_s(ru1) - _cpu_s(ru0),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }
    if tracer is not None:
        out["spans"] = tracer.spans
        out["unwrapped"] = tracer.unwrapped
        out["uncounted"] = sorted(tracer.uncounted)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
