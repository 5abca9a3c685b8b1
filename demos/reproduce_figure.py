#!/usr/bin/env python3
"""Reproduce the residual SI distribution comparison at desk scale.

Samples the empirical gain, whose law is that of the full chain (Rician
SI channel, ZF beamformers from Rayleigh access channels) but which is
drawn from the channels' invariant statistics, and the theoretical
shortcut (sampling the moment-matched Gamma) side by side at M=16, N=8,
mu=1/2, nu=1 for K=1 and K=3, then reports the moment agreement and KS
distance.  With matplotlib installed it also writes an overlay plot of
the two distributions.

Run (a few seconds at the default 200k trials):
    python3 demos/reproduce_figure.py [trials]
"""
import sys

import numpy as np

from fdsim import (
    ExperimentConfig,
    RicianSpec,
    SystemGeometry,
    gamma_mimo,
    gamma_pdf,
    histogram,
    run_si_empirical,
    run_si_theoretical,
)

trials = int(sys.argv[1]) if len(sys.argv) > 1 else 200_000
spec = RicianSpec(0.5, 1.0)
panels = []

for K in (1, 3):
    geom = SystemGeometry(L=1, K=K, M=16, N=8)
    cfg = ExperimentConfig(geom=geom, si_spec=spec, trials=trials, seed=2024)
    emp = run_si_empirical(cfg, threads=4)
    thr = run_si_theoretical(cfg)
    g = gamma_mimo(geom, spec)
    print(f"K={K}: matched Gamma(kappa={g.kappa:.5f}, theta={g.theta:.5f})")
    print(f"  empirical   mean {emp.emp_m1:.4f}  var {emp.emp_var:.4f}  "
          f"KS {emp.ks:.5f}")
    print(f"  theoretical mean {thr.emp_m1:.4f}  var {thr.emp_var:.4f}  "
          f"KS {thr.ks:.5f}")
    fit = "near exact" if emp.ks < 0.01 else "tight"
    print(f"  fit quality: {fit} (KS distance {emp.ks:.4f})\n")
    panels.append((K, emp, thr, g))

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the overlay plot")
    sys.exit(0)

fig, axes = plt.subplots(1, 2, figsize=(11, 4))
for ax, (K, emp, thr, g) in zip(axes, panels):
    bin_edges, counts = histogram(emp.samples, 80)
    widths = np.diff(bin_edges)
    centers = bin_edges[:-1] + widths / 2
    ax.bar(centers, counts / (emp.samples.size * widths), width=widths,
           alpha=0.45, label="empirical (Monte Carlo)")
    x = np.linspace(1e-6, float(bin_edges[-1]), 400)
    ax.plot(x, gamma_pdf(x, g), "r-", lw=2, label="matched Gamma")
    ax.set_title(f"K = {K}")
    ax.set_xlabel("residual SI power gain")
    ax.set_ylabel("density")
    ax.legend()
fig.suptitle("Residual SI distribution, M=16, N=8, mu=1/2, nu=1")
fig.tight_layout()
fig.savefig("residual_si_fit.png", dpi=130)
print("wrote residual_si_fit.png")
