"""Seedable generation of complex Gaussian channel matrices.

Residual self-interference links are Rician: entries are complex Gaussian
with a real mean ``mu`` and total variance ``nu**2`` split evenly between
the real and imaginary parts, so that E{|z|^2} = mu^2 + nu^2 and
E{|z|^4} = mu^2 (mu^2 + 4 nu^2) + 2 nu^4.  All other links are Rayleigh,
i.e. the ``mu = 0, nu = 1`` special case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

from .exceptions import InvalidParameterError

__all__ = [
    "RicianSpec",
    "RngHandle",
    "rician_from_factor",
    "generate_batch",
]


@dataclass(frozen=True)
class RicianSpec:
    """Entry statistics of a Rician link: complex-Gaussian mean and std.

    ``mu`` is the (real, non-negative) mean amplitude, ``nu`` the square
    root of the total variance.  Equivalent (factor, attenuation)
    parametrisation: varpi = mu^2/nu^2, omega = mu^2 + nu^2.
    """

    mu: float
    nu: float

    def __post_init__(self):
        if not (self.mu >= 0 and math.isfinite(self.mu)):
            raise InvalidParameterError(f"mu must be >= 0 and finite, got {self.mu}")
        if not (self.nu > 0 and math.isfinite(self.nu)):
            raise InvalidParameterError(f"nu must be > 0 and finite, got {self.nu}")
        if not math.isfinite(self.mu * self.mu + self.nu * self.nu):
            raise InvalidParameterError(
                f"mu^2 + nu^2 must be finite, got mu = {self.mu}, nu = {self.nu}"
            )
        object.__setattr__(self, "mu", self.mu + 0.0)  # -0.0 -> 0.0

    @property
    def varpi(self) -> float:
        """Rician factor mu^2/nu^2."""
        return self.mu**2 / self.nu**2

    @property
    def omega(self) -> float:
        """Total entry power mu^2 + nu^2."""
        return self.mu**2 + self.nu**2


RAYLEIGH = RicianSpec(0.0, 1.0)


def rician_from_factor(varpi: float, omega: float) -> RicianSpec:
    """Convert (Rician factor, fading attenuation) to (mu, nu).

    mu = sqrt(varpi * omega / (varpi + 1)), nu = sqrt(omega / (varpi + 1)).
    """
    if not (varpi >= 0 and math.isfinite(varpi)):
        raise InvalidParameterError(f"varpi must be >= 0, got {varpi}")
    if not (omega > 0 and math.isfinite(omega)):
        raise InvalidParameterError(f"omega must be > 0, got {omega}")
    return RicianSpec(
        mu=math.sqrt(varpi * omega / (varpi + 1.0)),
        nu=math.sqrt(omega / (varpi + 1.0)),
    )


@dataclass(frozen=True)
class RngHandle:
    """RNG handle: (seed, stream_id) fully determines the stream.

    Each (seed, stream_id) pair owns an independent SFC64 substream, seeded
    by ``SeedSequence(seed, spawn_key=(stream_id,))``, so Monte Carlo
    trials can be assigned disjoint streams and reproduced bitwise
    regardless of how work is split across threads.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (0 <= self.seed < 2**64):
            raise InvalidParameterError("seed must fit in 64 bits")
        if not (0 <= self.stream_id < 2**64):
            raise InvalidParameterError("stream_id must fit in 64 bits")

    def generator(self) -> Generator:
        """Fresh Generator positioned at the start of this substream."""
        return Generator(SFC64(SeedSequence(self.seed, spawn_key=(self.stream_id,))))


def generate_batch(
    batch: int, rows: int, cols: int, spec: RicianSpec, gen: Generator
) -> np.ndarray:
    """Stack of ``batch`` i.i.d. matrices, shape (batch, rows, cols).

    This is the only place normals are drawn: one ``standard_normal`` fills
    the output's float view, so each entry's real part is followed by its
    imaginary part; the RNG stream layout relies on this order.
    """
    out = np.empty((batch, rows, cols), dtype=complex)
    flat = gen.standard_normal(out=out.view(float))
    flat *= spec.nu / math.sqrt(2.0)
    if spec.mu:  # the engine's draws are all centred
        out.real += spec.mu
    return out
