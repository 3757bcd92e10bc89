"""Two-user additive-Gaussian channel models with correlated receiver noises.

Covers the channel parameters (block power and noise statistics), the keyed
random streams and exact sampling of the correlated noise pair, including the
degenerate |rho_z| = 1 cases where one noise is an exact scaling of the
other.  One call draws one pair per block, or, with ``steps``, the pairs of
that many successive channel uses, bit for bit what as many calls would draw
from the same stream.  The outputs themselves, y_v = x + z_v (with x the sum
of both inputs on the unit-gain interference channel), are formed in the
simulation's coding loop.

A stream's Philox key is its seed sequence: opening a stream draws no OS
entropy, and ``numpy.random`` loads with the first stream, not on import.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_UINT64_MASK = (1 << 64) - 1
_MODES = ("broadcast", "interference", "limited")  # the channel modes a simulation runs
# Philox's counter 0 as its four words: given as an int, Philox converts it
# on every new stream.  Every stream shares this array, so it is read-only.
_COUNTER_ZERO = np.zeros(4, np.uint64)
_COUNTER_ZERO.setflags(write=False)


def _real(value, name: str) -> float:
    """The argument ``name`` as a Python float, so that equal values compute
    with equal bits: a float32 compares like its float64 value but builds
    float32 arrays.  Bools, arrays (0-d ones too) and other non-reals raise."""
    if type(value) is float:  # the object float() would return
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParameterError(f"{name} must be a real number within float range") from None


def _integer(value, name: str, low: int, high: int | None = None) -> int:
    """The argument ``name`` as a Python int in [low, high], or in [low, inf)
    for ``high=None``.  Bools and other non-integers raise."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if low <= value and (high is None or value <= high):
            return int(value)
    span = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise ParameterError(f"{name} must be an integer {span}, got {value!r}")


def _store_floats(record, *names: str) -> None:
    """Replace each named field of a frozen ``record`` by its ``_real`` value."""
    for name in names:
        object.__setattr__(record, name, _real(getattr(record, name), name))


@dataclass(frozen=True)
class NoiseSpec:
    """Standard deviations and correlation coefficient of the two receiver
    noises, stored as Python floats."""

    sigma1: float
    sigma2: float
    rho_z: float

    def __post_init__(self) -> None:
        _store_floats(self, "sigma1", "sigma2", "rho_z")
        for name, sigma in (("sigma1", self.sigma1), ("sigma2", self.sigma2)):
            if not (sigma > 0.0 and math.isfinite(sigma)):
                raise ParameterError(f"{name} must be a positive finite real, got {sigma}")
            # A Python float square overflows to inf (or underflows to 0)
            # without the RuntimeWarning a numpy scalar raises.
            square = sigma * sigma
            if not math.isfinite(square):
                raise ParameterError(f"{name} = {sigma} is too large: its square overflows")
            if square == 0.0:
                raise ParameterError(f"{name} = {sigma} is too small: its square underflows")
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
    """Average block power constraint, stored as a Python float, plus the
    noise statistics."""

    power: float
    noise: NoiseSpec

    def __post_init__(self) -> None:
        _store_floats(self, "power")
        if not (self.power > 0.0 and math.isfinite(self.power)):
            raise ParameterError(f"power must be a positive finite real, got {self.power}")


@dataclass(frozen=True)
class RngSpec:
    """Key of one reproducible random stream, stored as two Python ints.

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
        for name in ("master_seed", "stream_id"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 0, _UINT64_MASK))


class _PhiloxKey:
    """A stream's key, given to Philox as its seed sequence.

    ``Philox(key=...)`` first draws OS entropy for a ``SeedSequence`` that it
    then discards.  Given a seed sequence, Philox asks it for its key alone
    and starts at counter 0, so this one gives the state ``key=`` gives.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or dtype is not np.uint64:
            raise ValueError(f"a Philox key is 2 words of uint64, not {n_words} of {dtype}")
        return self.words


@functools.cache
def _philox():
    """``numpy.random.Philox``, once it accepts a ``_PhiloxKey`` as its seed.

    Threads that race here register twice, which is harmless.
    """
    from numpy.random.bit_generator import ISeedSequence  # loads numpy.random

    ISeedSequence.register(_PhiloxKey)
    return np.random.Philox


def make_generator(spec: RngSpec) -> np.random.Generator:
    """A new generator for the stream addressed by ``spec``.

    Philox keyed by (master_seed, stream_id) at counter 0, with the key as its
    seed sequence and the counter given as words: no OS entropy is drawn, and
    ``numpy.random`` loads on the first call.
    """
    key = np.array([spec.master_seed, spec.stream_id], dtype=np.uint64)
    return np.random.Generator(_philox()(_PhiloxKey(key), counter=_COUNTER_ZERO))


def sample_noise_pair(
    spec: NoiseSpec,
    rng: np.random.Generator,
    size: int | None = None,
    *,
    steps: int | None = None,
):
    """Draw jointly Gaussian (z1, z2) with the covariance of ``spec``.

    For |rho_z| = 1 only one Gaussian is drawn, z1 = sigma1 * u, and z2 is
    its rebuild rho_z * (sigma2 / sigma1) * z1, so perfect (anti-)correlation
    holds sample by sample rather than merely in distribution.  Returns
    scalars for ``size=None``, else arrays of shape ``(size,)``.  A degenerate
    spec consumes one standard normal per sample, a non-degenerate one
    consumes two: u, then v, for each pair of ``size``.

    ``steps=k`` draws k successive pairs in one call and returns arrays with
    a leading axis of length k, shape ``(k,)`` or ``(k, size)``.  numpy fills
    an array one normal after another, so these are bit for bit the draws of
    k separate calls, and leave the stream where those calls would.
    """
    lead = () if steps is None else (steps,)
    tail = () if size is None else (size,)
    if spec.is_degenerate:
        z1 = spec.sigma1 * rng.standard_normal((*lead, *tail))
        z2 = spec.rho_z * (spec.sigma2 / spec.sigma1) * z1
    else:
        draws = rng.standard_normal((*lead, 2, *tail)).swapaxes(0, len(lead))
        u, v = draws[0], draws[1]  # a step's u and v: successive rows of its draw
        z1 = spec.sigma1 * u
        z2 = spec.sigma2 * (spec.rho_z * u + np.sqrt((1.0 - spec.rho_z) * (1.0 + spec.rho_z)) * v)
    if not (lead or tail):
        return float(z1), float(z2)
    return z1, z2

