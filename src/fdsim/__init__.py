"""Residual self-interference statistics for full-duplex multi-user MIMO.

Rician channel generation, closed-form Gamma moment matching for the
residual SI power gain under zero-forcing beamforming, and Monte Carlo
validation of the closed forms.
"""

from .channel import RicianSpec, RngHandle, rician_from_factor
from .closedform import (
    GammaParams,
    SpecialCase,
    SystemGeometry,
    gamma_mimo,
    gamma_siso,
    gamma_special,
    moment1,
    moment2,
    moment_match,
    si_variance,
)
from .exceptions import InvalidParameterError
from .mc import (
    Direction,
    ExperimentConfig,
    McReport,
    run_si_empirical,
    run_si_theoretical,
    run_sinr,
)
from .stats import (
    gamma_cdf,
    gamma_pdf,
    histogram,
    ks_distance,
    si_pdf_siso,
)

__version__ = "0.1.0"
