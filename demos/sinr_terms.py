#!/usr/bin/env python3
"""Decompose downlink and uplink SINR into its power-gain terms.

Samples every term from its exact law under ZF beamformers from Rayleigh
channels, drawn from the channels' triangular factors instead of the
channel matrices, and compares the Monte Carlo term means against their
known values: ZF useful gain ~ Gamma(M-K+1, 1) (downlink) / Gamma(N-K+1, 1)
(uplink), and the residual SI mean K (mu^2 + nu^2).  A gain through another
cell's ZF precoder (downlink ``ici``, uplink ``cmi``) has mean K per
interfering cell, as Gamma(K, 1) has, but not its law: its variance is
K (M + 1) / (M - K + 2), 2.125 here against Gamma(2, 1)'s 2 (measured 2.12).

Run (default 50k trials per direction):
    python3 demos/sinr_terms.py [trials]
"""
import sys

import numpy as np

from fdsim import (
    Direction,
    ExperimentConfig,
    RicianSpec,
    SystemGeometry,
    moment1,
)
from fdsim.mc import run_sinr

spec = RicianSpec(0.5, 1.0)
L, K, M, N = 2, 2, 16, 8
trials = int(sys.argv[1]) if len(sys.argv) > 1 else 50_000
geom = SystemGeometry(L=L, K=K, M=M, N=N)

for direction in (Direction.DOWNLINK, Direction.UPLINK):
    cfg = ExperimentConfig(geom=geom, si_spec=spec, trials=trials, seed=7,
                           noise_power=1.0, direction=direction)
    t = run_sinr(cfg, threads=4)
    useful_ref = M - K + 1 if direction is Direction.DOWNLINK else N - K + 1
    si_ref = spec.omega if direction is Direction.DOWNLINK else moment1(K, spec)
    print(f"--- {direction.value}, L={L}, K={K}, M={M}, N={N}, "
          f"{trials} trials ---")
    print(f"{'term':>8} {'MC mean':>10} {'expected':>10}")
    refs = {
        "useful": useful_ref,
        "mui": 0.0,  # nulled exactly by ZF
        "ici": K * (L - 1),
        "cmi": (L * K - 1) if direction is Direction.DOWNLINK else K * (L - 1),
        "si": si_ref,
        "noise": cfg.noise_power,
    }
    for term, ref in refs.items():
        print(f"{term:>8} {t[term].mean():>10.4f} {ref:>10.4f}")
    sinr_db = 10 * np.log10(t["sinr"])
    print(f"    SINR median {np.median(sinr_db):.2f} dB, "
          f"10th pct {np.percentile(sinr_db, 10):.2f} dB\n")
