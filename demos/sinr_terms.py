#!/usr/bin/env python3
"""Decompose downlink and uplink SINR into its power-gain terms.

Samples every term from its exact law under ZF beamformers from Rayleigh
channels, drawn from the channels' triangular factors instead of the
channel matrices, and compares the Monte Carlo term means against their
known values.  Each term's law, per stream (one radio's term; the K streams
of a trial share their beamformers, so they are not independent), for L
cells of K radios with M transmit and N receive antennas, K <= M and, in
the uplink, K <= N:

- ``useful``: Gamma(M - K + 1, 1) downlink, Gamma(N - K + 1, 1) uplink;
- downlink ``cmi``: Gamma(LK - 1, 1); uplink ``ici``: Gamma(K(L - 1), 1);
- ``noise``: exponential with mean ``noise_power``;
- downlink ``ici`` and uplink ``cmi``, the gains through the other cells'
  ZF precoders: mean K(L - 1) and variance (L - 1) K (M + 1) / (M - K + 2),
  given the precoders a weighted sum of exponentials, not Gamma(K(L - 1), 1):
  its variance is 2.125 here against the Gamma's 2;
- ``si``: downlink |mu + nu z|^2 with z ~ CN(0, 1), mean mu^2 + nu^2; uplink
  the residual SI gain at (K, M, N), mean K (mu^2 + nu^2) and variance
  ``si_variance``;
- ``mui``: exactly 0, nulled by ZF.

At L = 1 the laws of shape 0 are the constant 0.  ``tests/test_mc.py`` pins
each stated mean and variance within 4 SE at (L, K, M, N) = (2, 2, 16, 8).

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
