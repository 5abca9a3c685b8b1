"""Residual self-interference statistics for full-duplex multi-user MIMO.

Rician channel generation, zero-forcing beamforming, closed-form Gamma
moment matching for the residual SI power gain, and Monte Carlo
validation of the closed forms.
"""

from .beamforming import residual_si_gain, zf_decoder, zf_precoder
from .channel import (
    RicianSpec,
    RngHandle,
    generate_matrix,
    rician_from_factor,
    sample_complex_gaussian,
)
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
from .exceptions import InvalidParameterError, SingularChannelError
from .mc import (
    Direction,
    ExperimentConfig,
    McReport,
    SinrSample,
    run_si_empirical,
    run_si_theoretical,
    run_sinr,
    sinr_sample_downlink,
    sinr_sample_uplink,
)
from .stats import (
    GofReport,
    Histogram,
    gamma_cdf,
    gamma_pdf,
    gamma_sample,
    histogram,
    ks_distance,
    si_pdf_siso,
)

__version__ = "0.1.0"
