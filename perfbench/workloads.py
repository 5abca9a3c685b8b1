"""The benchmark's fixed fdsim CLI workloads.

Each workload is one ``fdsim`` invocation.  The benchmark passes its seed
through ``--seed``; everything else is fixed here.  All workloads use the
SI channel ``--mu 0.5 --nu 1`` and CSV output.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

MU = 0.5
NU = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # fdsim subcommand
    M: int
    N: int
    K: int
    threads: int
    trials: int  # default Monte Carlo size of one run
    mode: str | None = None  # `fdsim si --mode`
    bins: int | None = None  # `fdsim si --bins`; None writes raw samples
    L: int | None = None  # `fdsim sinr --L`
    direction: str | None = None  # `fdsim sinr --direction`

    def argv(self, trials: int, seed: int, out: str) -> list[str]:
        args = [self.command, "--M", str(self.M), "--N", str(self.N), "--K", str(self.K)]
        if self.L is not None:
            args += ["--L", str(self.L)]
        if self.mode is not None:
            args += ["--mode", self.mode]
        if self.bins is not None:
            args += ["--bins", str(self.bins)]
        if self.direction is not None:
            args += ["--direction", self.direction]
        args += [
            "--mu", str(MU), "--nu", str(NU), "--format", "csv",
            "--threads", str(self.threads),
            "--trials", str(trials), "--seed", str(seed), "--out", out,
        ]
        return args

    def labels(self) -> list[str]:
        """`fdsim si` data-file labels, in summary-row order."""
        if self.mode == "both":
            return ["empirical", "theoretical"]
        return [self.mode]

    def output_paths(self, out: str) -> list[str]:
        """Every file the run must leave behind, for an ``--out`` of ``out``."""
        if self.command == "sinr":
            return [out]
        stem, ext = os.path.splitext(out)
        return [f"{stem}_{label}{ext}" for label in self.labels() + ["summary"]]


# Why each workload is here:
# - si-k3: the paper's reference configuration and the only workload that
#   reaches every layer (channel, beamforming, stats, closedform, the
#   theoretical Gamma draws and the raw-sample CLI writer).
# - si-massive: the massive-MIMO regime.  The N x M SI channel draw
#   dominates time and peak memory; with --bins the writer is bypassed, so
#   CLI writer work should leave it unchanged.
# - sinr-uplink: precoder and decoder over two cells, 9-column rows that
#   make the writer the largest cost, and a single thread, so it is the
#   plain 1-thread baseline and worker-pool changes should not move it.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("si-k3", "si", M=16, N=8, K=3, threads=2, trials=65_536, mode="both"),
        Workload(
            "si-massive", "si", M=64, N=32, K=8, threads=2, trials=20_000,
            mode="empirical", bins=100,
        ),
        Workload(
            "sinr-uplink", "sinr", M=16, N=8, K=2, threads=1, trials=32_768,
            L=2, direction="uplink",
        ),
    )
}
