"""Two-user additive-Gaussian channel models with correlated receiver noises.

Covers the channel parameters (block power and noise statistics), the keyed
random streams, exact sampling of the correlated noise pair including the
degenerate |rho_z| = 1 cases, and cross-output reconstruction when the noises
are perfectly (anti-)correlated.  The outputs themselves, y_v = x + z_v (with
x the sum of both inputs on the unit-gain interference channel), are formed
in the simulation's coding loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UnsupportedConfigurationError

_UINT64_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class NoiseSpec:
    """Standard deviations and correlation coefficient of the two receiver noises."""

    sigma1: float
    sigma2: float
    rho_z: float

    def __post_init__(self) -> None:
        if not (self.sigma1 > 0.0 and np.isfinite(self.sigma1)):
            raise ParameterError(f"sigma1 must be a positive finite real, got {self.sigma1}")
        if not (self.sigma2 > 0.0 and np.isfinite(self.sigma2)):
            raise ParameterError(f"sigma2 must be a positive finite real, got {self.sigma2}")
        if not (-1.0 <= self.rho_z <= 1.0):
            raise ParameterError(f"rho_z must lie in [-1, 1], got {self.rho_z}")
        # These bounds make the covariance PSD: its trace is positive and its
        # determinant sigma1^2 sigma2^2 (1 - rho_z^2) is nonnegative.

    def covariance(self) -> np.ndarray:
        """2x2 covariance matrix of one (z1, z2) noise sample."""
        off = self.rho_z * self.sigma1 * self.sigma2
        return np.array([[self.sigma1**2, off], [off, self.sigma2**2]], dtype=float)

    @property
    def is_degenerate(self) -> bool:
        """True when the noises are perfectly correlated or anti-correlated."""
        return abs(self.rho_z) == 1.0


@dataclass(frozen=True)
class ChannelParams:
    """Average block power constraint plus the noise statistics."""

    power: float
    noise: NoiseSpec

    def __post_init__(self) -> None:
        if not (self.power > 0.0 and np.isfinite(self.power)):
            raise ParameterError(f"power must be a positive finite real, got {self.power}")


@dataclass(frozen=True)
class RngSpec:
    """Key of one reproducible random stream.

    Streams are counter-based (Philox) and keyed by the pair
    (master_seed, stream_id): distinct pairs give statistically independent
    streams, identical pairs give bitwise-identical streams, and work keyed
    by stream_id can therefore run in any order or in parallel.  A campaign
    runs its chunk c (at most 65,536 blocks) on ``RngSpec(master_seed, c)``;
    a single trial runs on the stream it is given.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not (0 <= int(self.master_seed) <= _UINT64_MASK):
            raise ParameterError("master_seed must be an unsigned 64-bit integer")
        if not (0 <= int(self.stream_id) <= _UINT64_MASK):
            raise ParameterError("stream_id must be an unsigned 64-bit integer")


def make_generator(spec: RngSpec) -> np.random.Generator:
    """Instantiate the stream addressed by ``spec``."""
    key = np.array([spec.master_seed, spec.stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_noise_pair(spec: NoiseSpec, rng: np.random.Generator, size: int | None = None):
    """Draw jointly Gaussian (z1, z2) with the covariance of ``spec``.

    For |rho_z| = 1 only one Gaussian is drawn and the second output is the
    exact scaling z2 = rho_z * (sigma2/sigma1) * z1, so perfect
    (anti-)correlation holds sample by sample rather than merely in
    distribution.  Returns scalars for ``size=None``, else arrays of shape
    ``(size,)``.  A degenerate spec consumes one standard normal per sample,
    a non-degenerate one consumes two.
    """
    if spec.is_degenerate:
        z1 = spec.sigma1 * rng.standard_normal(size if size is not None else ())
        z2 = (spec.rho_z * (spec.sigma2 / spec.sigma1)) * z1
    else:
        draws = rng.standard_normal((2,) if size is None else (2, size))
        u, v = draws[0], draws[1]
        z1 = spec.sigma1 * u
        z2 = spec.sigma2 * (spec.rho_z * u + np.sqrt((1.0 - spec.rho_z) * (1.0 + spec.rho_z)) * v)
    if size is None:
        return float(z1), float(z2)
    return z1, z2


def reconstruct_other_output(
    x: float, y_observed: float, observed_receiver: int, spec: NoiseSpec
) -> float:
    """Recover the unobserved receiver's output from the input and the
    observed output.

    Only possible for |rho_z| = 1, where the two noises are exact scalings of
    one another; anything less correlated leaves the hidden output genuinely
    random given (x, y_observed).
    """
    if not spec.is_degenerate:
        raise UnsupportedConfigurationError(
            f"cross-output reconstruction needs |rho_z| = 1, got rho_z = {spec.rho_z}"
        )
    if observed_receiver == 1:
        ratio = spec.sigma2 / spec.sigma1
    elif observed_receiver == 2:
        ratio = spec.sigma1 / spec.sigma2
    else:
        raise ParameterError(f"observed_receiver must be 1 or 2, got {observed_receiver}")
    return x + spec.rho_z * ratio * (y_observed - x)
