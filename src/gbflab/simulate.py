"""Monte Carlo implementation of the iterative feedback coding scheme.

The encoder maps each message onto a point of a uniform grid in (-1/2, 1/2],
spends one channel use per user to plant a scaled copy of its message point,
and from then on transmits a power-normalized linear combination of the two
receivers' current estimation errors.  Each receiver refines its estimate
with a one-step scalar LMMSE update from its newest output.  The deterministic
moment schedule that generates the combining and estimation coefficients is
shared, read-only, by every trial.  A process builds it once per
configuration (channel, n and message-point variances) and keeps the 16 it
used last, so trials and campaigns called without a schedule reuse it.  The
key is safe because each of its fields is canonical once validated:
``ChannelParams`` stores Python floats, n is an int and the variances are
Python floats, so equal keys build equal bits.

The scheme is written once, in the coding loop ``_coding_loop``, which runs
it in three modes: single-encoder broadcast, the two-transmitter interference
variant in which each transmitter emits its own receiver's error term and the
channel adds them, and a limited-feedback mode where the encoder observes a
single receiver's outputs and rebuilds the other's noise from the observed
noise (possible only for perfectly correlated or anti-correlated noises).
The message mapping, the encoder and the channel outputs live only there.
A single trial (``run_broadcast_trial``, ``run_interference_trial``,
``run_limited_feedback_trial``) runs the loop on one block of Python floats
and takes the noise of all n channel uses from its stream in one call; a
campaign (``run_broadcast_campaign``) runs it on arrays of B independent
blocks in step blocks of k = min(n, max(1, 8,192 // B)) channel uses, so
k = 1 beyond 4,096 blocks: one call draws a step block's noise, and one
reduction per quantity turns its stacked per-use values into per-use sums.
Both draw the same noise from the same stream, and form the same sums, as
one call and one reduction per channel use would.
A campaign splits its blocks into chunks of at most 65,536: chunk c runs on
the stream ``RngSpec(master_seed, c)``, the chunks run concurrently, one per
available CPU (a single chunk runs in the calling thread), their sums are
added in chunk-index order, and every moment is formed once from the totals.
Memory therefore grows with the number of CPUs, not with the trial count, and
the bytes of the result do not depend on which thread ran which chunk, in
what order, or on how many threads there were.

Numerical note: the error process is independent of the transmitted messages,
so trials propagate the errors directly and decode through the integer
message offset nearest to eps * L.  This reproduces exact-arithmetic
nearest-point decoding even when the grid is finer than float64 resolution
(n * rate beyond ~53 bits), which a float message-point estimate could not
represent.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

# solve_fixed_point is unused here but kept: perfbench/tracing.py patches simulate.solve_fixed_point
from .analysis import ErrorState, gamma, solve_fixed_point, step_error_state
from .channel import (
    _MODES,
    ChannelParams,
    RngSpec,
    _store_floats,
    make_generator,
    sample_noise_pair,
)
from .errors import (
    DegenerateMessageError,
    NumericalIntegrityError,
    ParameterError,
    UnsupportedConfigurationError,
)

_VECTOR_LEVEL_LIMIT = 1 << 62  # beyond this, message indices live in floats
_CHUNK_TRIALS = 1 << 16  # most campaign blocks held in memory at once
# Most values of one quantity in a campaign's step block: 64 KB arrays, so a
# step block's arrays stay in a core's cache.  Larger blocks fall out of it:
# at 65,536 values, campaigns of 2,000 to 30,000 blocks ran up to 40% slower
# than one use at a time (2-core Xeon VM, 2 MB of L2 cache per core).
_STEP_BLOCK_VALUES = 1 << 13
_CONFIDENCE = 0.95  # level of a campaign's Wilson interval for the block error rate
_WILSON_Z = 1.9599639845400536  # NormalDist().inv_cdf(0.5 + 0.5 * _CONFIDENCE)
_SCHEDULE_CACHE_SIZE = 16  # configurations whose schedules a process keeps


# ---------------------------------------------------------------------------
# messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MessageConfig:
    """Block length and per-user rates in bits per channel use, the rates
    stored as Python floats."""

    n: int
    rate1: float
    rate2: float

    def __post_init__(self) -> None:
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 3):
            raise ParameterError(f"block length must be an integer >= 3, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        try:  # n * rate below converts n to a float
            float(self.n)
        except OverflowError:
            raise ParameterError("block length beyond float range; not supported") from None
        _store_floats(self, "rate1", "rate2")
        for name, rate in (("rate1", self.rate1), ("rate2", self.rate2)):
            if not (rate >= 0.0 and math.isfinite(rate)):
                raise ParameterError(f"{name} must be a nonnegative finite real, got {rate}")
            if self.n * rate > 512.0:
                raise ParameterError(f"{name} gives an alphabet beyond 2**512; not supported")

    @cached_property
    def levels1(self) -> int:
        return level_count(self.n, self.rate1)

    @cached_property
    def levels2(self) -> int:
        return level_count(self.n, self.rate2)


def level_count(n: int, rate: float) -> int:
    """Number of message points carried by a block: ceil(2**(n*rate))."""
    return max(1, math.ceil(2.0 ** (n * rate)))


def message_point_variance(levels: int) -> float:
    """Exact variance of the uniform grid of ``levels`` points: (L^2-1)/(12 L^2)."""
    if levels < 1:
        raise ParameterError(f"level count must be >= 1, got {levels}")
    return (levels * levels - 1) / (12 * levels * levels)


def _decode_from_error(eps_final: float, m: int, levels: int) -> int:
    # Nearest point of the grid theta_j = 1/2 - (j-1)/L to the estimate
    # theta_m + eps, decided in exact arithmetic as the integer offset
    # m - j nearest eps * L: ties go to the smaller index, estimates beyond
    # the grid clamp to the nearest endpoint, and NaN decodes to L.
    val = eps_final * float(levels)
    if not math.isfinite(val):
        return 1 if val > 0 else levels
    d = math.floor(val + 0.5)
    return min(max(m - d, 1), levels)


def _draw_messages(gen: np.random.Generator, levels: int, size: int | None = None):
    """Exact uniform draw from {1..levels}: a Python int for ``size=None``,
    else an array of ``size`` indices.

    Beyond 2**62 points a draw is a group of full-range 64-bit words, most
    significant first, masked to the bit length of levels - 1 and kept only
    if it lies below ``levels``.  Each round draws, as one array, one group
    per index still missing and keeps the groups in stream order, so an
    array draw equals as many successive scalar draws.
    """
    if levels <= _VECTOR_LEVEL_LIMIT:
        m = gen.integers(1, levels, size=size, endpoint=True, dtype=np.int64)
        return int(m) if size is None else m
    nbits = (levels - 1).bit_length()
    nwords = (nbits + 63) // 64
    mask = (1 << nbits) - 1
    wanted = 1 if size is None else size
    m = []
    while len(m) < wanted:
        count = (wanted - len(m)) * nwords
        words = gen.integers(0, 2**64 - 1, count, endpoint=True, dtype=np.uint64)
        raw = words.astype(">u8").tobytes()
        for i in range(0, len(raw), 8 * nwords):
            g = int.from_bytes(raw[i : i + 8 * nwords], "big") & mask
            if g < levels:
                m.append(g + 1)
    # Index identity beyond 2**62 points is statistically irrelevant; keep
    # the draws exact but store them as floats for vector arithmetic.
    return m[0] if size is None else np.array([float(v) for v in m])


# ---------------------------------------------------------------------------
# coefficient schedule
# ---------------------------------------------------------------------------


class CoefficientSchedule(NamedTuple):
    """Deterministic per-step data shared by all trials; its arrays are
    read-only.

    Index convention: ``alpha1[k-2]`` etc. are the moments after output k for
    k = 2..n; ``psi[k-3]``, ``c1[k-3]``, ``c2[k-3]`` drive feedback step k for
    k = 3..n, and are derived from the moments at k-1 (same array index).
    ``gain1[k-3]`` = psi / sqrt(alpha1) and ``gain2[k-3]`` = psi gamma sign(rho)
    / sqrt(alpha2) are the encoder's weights of the two errors at step k, so
    the coding loop does no arithmetic on the moments.  ``params`` is the
    channel the schedule was built for.
    """

    params: ChannelParams
    n: int
    var_theta1: float
    var_theta2: float
    alpha1: np.ndarray
    alpha2: np.ndarray
    rho: np.ndarray
    psi: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    gain1: np.ndarray
    gain2: np.ndarray


def lmmse_coefficient_schedule(
    params: ChannelParams,
    n: int,
    var_theta1: float,
    var_theta2: float,
) -> CoefficientSchedule:
    """Closed-form scalar LMMSE coefficient for every receiver and step.

    For step k, receiver v applies c_v = Cov(eps_v, Y_v) / Var(Y_v) with all
    moments taken from the analytic schedule; the moments induced by that
    projection reproduce the closed-form variance and correlation recursions
    exactly, which is the defining cross-check of the scheme implementation.
    The schedule starts, after the two dedicated channel uses, from the
    uncorrelated errors (rho = 0) that the coding loop produces there.
    """
    if n < 3:
        raise ParameterError(f"block length must be >= 3, got {n}")
    if not (var_theta1 > 0.0 and var_theta2 > 0.0):
        raise DegenerateMessageError("message-point variances must be positive")
    p = params.power
    s1, s2 = params.noise.sigma1, params.noise.sigma2
    g = gamma(params.noise)
    pi1, pi2 = p + s1 * s1, p + s2 * s2
    state = ErrorState(
        alpha1=var_theta1 * s1 * s1 / p,
        alpha2=var_theta2 * s2 * s2 / p,
        rho=0.0,
    )
    alpha1 = [state.alpha1]
    alpha2 = [state.alpha2]
    rho = [state.rho]
    psi, c1, c2, gain1, gain2 = [], [], [], [], []
    for k in range(3, n + 1):
        if not (state.alpha1 > 0.0 and state.alpha2 > 0.0):
            raise NumericalIntegrityError(
                f"error variance underflowed at step {k - 1}; "
                "the block length is too large for this power"
            )
        ar = abs(state.rho)
        sgn = 1.0 if state.rho >= 0.0 else -1.0
        scale = math.sqrt(p / (1.0 + g * g + 2.0 * g * ar))
        psi.append(scale)
        c1.append(scale * math.sqrt(state.alpha1) * (1.0 + g * ar) / pi1)
        c2.append(scale * math.sqrt(state.alpha2) * sgn * (g + ar) / pi2)
        gain1.append(scale / math.sqrt(state.alpha1))
        gain2.append(scale * g * sgn / math.sqrt(state.alpha2))
        state = step_error_state(state, params)
        alpha1.append(state.alpha1)
        alpha2.append(state.alpha2)
        rho.append(state.rho)
    return CoefficientSchedule(
        params=params,
        n=n,
        var_theta1=var_theta1,
        var_theta2=var_theta2,
        alpha1=_read_only(alpha1),
        alpha2=_read_only(alpha2),
        rho=_read_only(rho),
        psi=_read_only(psi),
        c1=_read_only(c1),
        c2=_read_only(c2),
        gain1=_read_only(gain1),
        gain2=_read_only(gain2),
    )


def _read_only(values: list[float]) -> np.ndarray:
    """A schedule array: every trial run on the schedule shares it, so a write
    to it raises instead of changing the trials that follow."""
    array = np.array(values)
    array.setflags(write=False)
    return array


def _checked_schedule(
    config: MessageConfig,
    params: ChannelParams,
    mode: str,
    fed_back_receiver: int,
    schedule: CoefficientSchedule | None = None,
) -> CoefficientSchedule:
    """Reject inputs the coding loop cannot run, then return ``schedule`` or,
    when it is None, the process's shared schedule of ``config``."""
    if mode not in _MODES:
        raise ParameterError(f"mode must be one of {_MODES}, got {mode!r}")
    if mode == "limited":
        if not params.noise.is_degenerate:
            raise UnsupportedConfigurationError(
                "limited feedback needs |rho_z| = 1 to reconstruct the unobserved output"
            )
        if fed_back_receiver not in (1, 2):
            raise ParameterError(f"fed_back_receiver must be 1 or 2, got {fed_back_receiver}")
    levels1, levels2 = config.levels1, config.levels2
    if levels1 < 2 or levels2 < 2:
        raise DegenerateMessageError(
            "both users need at least two message points (n * rate must give "
            "an alphabet of size >= 2)"
        )
    var1, var2 = message_point_variance(levels1), message_point_variance(levels2)
    if schedule is not None:
        if schedule.params != params:
            raise ParameterError(f"schedule is built for {schedule.params}, not {params}")
        if schedule.n < config.n:
            raise ParameterError(f"schedule covers n = {schedule.n}, not n = {config.n}")
        if (schedule.var_theta1, schedule.var_theta2) != (var1, var2):
            raise ParameterError(
                f"schedule is built for message-point variances "
                f"({schedule.var_theta1}, {schedule.var_theta2}), not ({var1}, {var2})"
            )
        return schedule
    return _shared_schedule(params, config.n, var1, var2)


@lru_cache(maxsize=_SCHEDULE_CACHE_SIZE)
def _shared_schedule(params: ChannelParams, n: int, var1: float, var2: float):
    """``lmmse_coefficient_schedule(params, n, var1, var2)``, built on the
    first request for its key and shared by every later one.

    Reached only from ``_checked_schedule``, after validation, where every
    key field is canonical: ``ChannelParams`` stores Python floats, n is an
    int and the variances are the Python floats of ``message_point_variance``.
    Equal keys therefore build equal bits; rho_z = -0.0 and 0.0 do too, as
    rho_z enters the schedule only through s1 s2 + P rho_z.
    ``lmmse_coefficient_schedule`` itself is not cached: its callers may pass
    numpy variances that hash like their float values but compute other
    bits.  A build that
    raises caches nothing, so it raises again on the next call."""
    return lmmse_coefficient_schedule(params, n, var1, var2)


# ---------------------------------------------------------------------------
# the coding loop
# ---------------------------------------------------------------------------


def _step_block(n: int, size: int) -> int:
    """Channel uses per step block of a campaign chunk of ``size`` blocks:
    as many as keep each quantity within _STEP_BLOCK_VALUES values, at least 1."""
    return min(n, max(1, _STEP_BLOCK_VALUES // size))


def _coding_loop(
    config: MessageConfig,
    params: ChannelParams,
    schedule: CoefficientSchedule,
    gen: np.random.Generator,
    m1,
    m2,
    size: int | None,
):
    """Yield ``(x, t1, t2, eps1, eps2)`` for each channel use t = 1..n of the
    blocks carrying messages (m1, m2): the input, its two summands (what each
    interference-mode transmitter emits) and the receivers' errors after
    output t (None after t = 1).  With ``size=None`` the messages are ints and
    every value is a Python float, and the noise of all n uses comes from one
    sampler call.  Otherwise the messages are arrays of ``size`` independent
    blocks, each value is a fresh array of them, and one call draws the noise
    of a step block of ``_step_block(n, size)`` uses.

    The encoder works on the receivers' own errors in every mode.  With
    limited feedback it sees one receiver's output, hence that receiver's
    noise, and |rho_z| = 1 makes the other noise an exact scaling of it: the
    encoder knows both errors, so the mode runs the broadcast scheme."""
    noise, p = params.noise, params.power
    var1, var2 = schedule.var_theta1, schedule.var_theta2
    n = config.n
    if size is None:
        noises = zip(*(z.tolist() for z in sample_noise_pair(noise, gen, steps=n)))
    else:
        # Each step block's rows are popped off its list, so once its last
        # row is out nothing here holds its draw: the draw is freed with that
        # row, before the next step block is drawn.
        k = _step_block(n, size)
        blocks = (
            list(zip(*sample_noise_pair(noise, gen, size, steps=min(k, n - t))))[::-1]
            for t in range(0, n, k)
        )
        noises = (rows.pop() for rows in blocks for _ in range(len(rows)))

    # t = 1 and t = 2 plant the message points (transmitter v sends point v
    # in interference mode).  Receiver 1 keeps only the noise of t = 1 and
    # receiver 2 only that of t = 2, so the initial errors are uncorrelated.
    # No array stays bound once no later step needs it, and the caller owns
    # each step's arrays after the yield: a campaign chunk's working set is
    # the two errors, the step block's noise and the values the caller keeps.
    eps1 = math.sqrt(var1 / p) * next(noises)[0]
    x = math.sqrt(p / var1) * (0.5 - (m1 - 1) / config.levels1)
    del m1
    yield x, x, 0.0, None, None
    del x
    eps2 = math.sqrt(var2 / p) * next(noises)[1]
    x = math.sqrt(p / var2) * (0.5 - (m2 - 1) / config.levels2)
    del m2
    yield x, 0.0, x, eps1, eps2
    del x

    per_step = schedule.gain1, schedule.gain2, schedule.c1, schedule.c2
    for gain1, gain2, c1, c2 in zip(*(a[: config.n - 2].tolist() for a in per_step)):
        z1, z2 = next(noises)
        t1 = gain1 * eps1
        t2 = gain2 * eps2
        x = t1 + t2
        # The unit-gain interference channel adds t1 and t2 into this same x.
        # Receiver v sees y_v = x + z_v and subtracts c_v * y_v, its LMMSE
        # estimate of its error; both are formed in place of the noise.
        z1 += x
        z1 *= c1
        eps1 = eps1 - z1
        del z1
        z2 += x
        z2 *= c2
        eps2 = eps2 - z2
        del z2
        yield x, t1, t2, eps1, eps2
        del x, t1, t2


# ---------------------------------------------------------------------------
# single trials
# ---------------------------------------------------------------------------


class TrialRecord(NamedTuple):
    """Everything observable about one simulated block."""

    message1: int
    message2: int
    decoded1: int
    decoded2: int
    success: bool
    inputs: np.ndarray  # channel input per use (sum of both transmitters)
    eps1: np.ndarray  # receiver-1 estimation error after outputs k = 2..n
    eps2: np.ndarray
    tx1: np.ndarray | None = None  # per-transmitter inputs, interference mode
    tx2: np.ndarray | None = None


def _run_trial(
    config: MessageConfig,
    params: ChannelParams,
    rng: RngSpec,
    mode: str,
    fed_back_receiver: int,
    schedule: CoefficientSchedule | None = None,
) -> TrialRecord:
    """One block on its own stream: the coding loop on Python floats, then
    the exact-integer decode, which stays exact beyond 2**62 message points."""
    schedule = _checked_schedule(config, params, mode, fed_back_receiver, schedule)
    gen = make_generator(rng)
    m1 = _draw_messages(gen, config.levels1)
    m2 = _draw_messages(gen, config.levels2)
    steps = _coding_loop(config, params, schedule, gen, m1, m2, None)
    inputs, tx1, tx2, eps1, eps2 = zip(*steps)
    decoded1 = _decode_from_error(eps1[-1], m1, config.levels1)
    decoded2 = _decode_from_error(eps2[-1], m2, config.levels2)
    return TrialRecord(
        message1=m1,
        message2=m2,
        decoded1=decoded1,
        decoded2=decoded2,
        success=(decoded1 == m1 and decoded2 == m2),
        inputs=np.array(inputs),
        eps1=np.array(eps1[1:]),
        eps2=np.array(eps2[1:]),
        tx1=np.array(tx1) if mode == "interference" else None,
        tx2=np.array(tx2) if mode == "interference" else None,
    )


def run_broadcast_trial(
    config: MessageConfig,
    params: ChannelParams,
    rng: RngSpec,
    schedule: CoefficientSchedule | None = None,
) -> TrialRecord:
    """One block through the single-encoder broadcast channel."""
    return _run_trial(config, params, rng, "broadcast", 0, schedule)


def run_interference_trial(
    config: MessageConfig,
    params: ChannelParams,
    rng: RngSpec,
    schedule: CoefficientSchedule | None = None,
) -> TrialRecord:
    """One block with the two transmitters mimicking the broadcast encoder.

    Transmitter v emits the summand of the broadcast input built from its own
    receiver's error; the unit-gain channel adds the two inputs, so under a
    shared random stream the output trajectories coincide with the broadcast
    trial's.
    """
    return _run_trial(config, params, rng, "interference", 0, schedule)


def run_limited_feedback_trial(
    config: MessageConfig,
    params: ChannelParams,
    rng: RngSpec,
    fed_back_receiver: int = 1,
    schedule: CoefficientSchedule | None = None,
) -> TrialRecord:
    """One broadcast block where the encoder sees only one receiver's outputs
    and reconstructs the other's (requires |rho_z| = 1).  The reconstruction
    is exact, so the block equals the broadcast block on the same stream."""
    return _run_trial(config, params, rng, "limited", fed_back_receiver, schedule)


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McSummary:
    """Aggregate of N independent trials: per-step empirical error moments
    next to their analytic schedule values, power accounting, and the block
    error rate with a binomial confidence interval."""

    mode: str
    trials: int
    n: int
    master_seed: int
    steps: np.ndarray  # k = 2..n
    mean1: np.ndarray
    mean2: np.ndarray
    var1: np.ndarray
    var2: np.ndarray
    corr: np.ndarray
    alpha1: np.ndarray
    alpha2: np.ndarray
    rho: np.ndarray
    power_per_step: np.ndarray  # t = 1..n
    mean_power: float
    errors: int
    error_rate: float
    confidence: float
    ci_low: float
    ci_high: float
    tx1_mean_power: float | None = None
    tx2_mean_power: float | None = None

    def moment_z_scores(self) -> dict[str, np.ndarray]:
        """Per-step deviation of each empirical moment from its analytic
        value, in units of that moment's standard error."""
        n_tr = self.trials
        se_m1 = np.sqrt(self.alpha1 / n_tr)
        se_m2 = np.sqrt(self.alpha2 / n_tr)
        se_v1 = self.alpha1 * math.sqrt(2.0 / (n_tr - 1))
        se_v2 = self.alpha2 * math.sqrt(2.0 / (n_tr - 1))
        se_c = np.maximum(1.0 - self.rho**2, 1e-12) / math.sqrt(n_tr)
        return {
            "mean1": self.mean1 / se_m1,
            "mean2": self.mean2 / se_m2,
            "var1": (self.var1 - self.alpha1) / se_v1,
            "var2": (self.var2 - self.alpha2) / se_v2,
            "corr": (self.corr - self.rho) / se_c,
        }


def _wilson_interval(errors: int, trials: int):
    z = _WILSON_Z
    phat = errors / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _decoded_correctly(eps: np.ndarray, first: np.ndarray, last: np.ndarray, levels: int):
    """Per block, whether ``_decode_from_error`` returns the sent index m,
    given the flags ``first`` (m == 1) and ``last`` (m == levels).

    Decided on the offset k = floor(eps * levels + 1/2) rather than on
    m - k, which float arithmetic rounds back to m beyond 2**53 points: the
    decode clips m - k into [1, levels], so it is right when k == 0, when
    k > 0 and m == 1, and when k < 0 (or NaN, which decodes to ``levels``)
    and m == levels.
    """
    k = np.floor(eps * float(levels) + 0.5)
    return (k == 0) | ((k > 0) & first) | (~(k >= 0) & last)


def _chunk_sizes(trials: int) -> list[int]:
    """Split ``trials`` into ceil(trials / _CHUNK_TRIALS) chunks whose sizes
    differ by at most one, larger chunks first: with two or more chunks each
    holds at least _CHUNK_TRIALS / 2 blocks."""
    chunks = -(-trials // _CHUNK_TRIALS)
    base, extra = divmod(trials, chunks)
    return [base + (c < extra) for c in range(chunks)]


def _stacked(rows) -> np.ndarray:
    """Equal-length rows as one C-contiguous (len(rows), size) array: a
    view of a lone row, else a copy."""
    return rows[0][None] if len(rows) == 1 else np.array(rows)


def _add_block_sums(sums: np.ndarray, start: int, mode: str, steps):
    """Reduce the yields of one step block, channel uses t = start + 1, ...,
    into columns of ``sums`` (laid out as in ``_chunk_sums``); return the
    block's last errors.

    Each sum of a block is one product and one ``np.add.reduce`` along the
    rows of the block's stacked values.  That is numpy's pairwise sum of
    each C-contiguous row, the bits of a reduction of that row alone.  The
    errors exist from t = 2 on, so their rows start there; t1 and t2 are
    both arrays from t = 3 on, and ``_chunk_sums`` fills in t = 1, 2."""
    total = np.add.reduce
    x, t1, t2, eps1, eps2 = zip(*steps)
    stop = start + len(x)
    x = _stacked(x)
    sums[0, start:stop] = total(x * x, axis=1)
    del x
    first = max(start, 2)
    if mode == "interference" and first < stop:
        for q, rows in ((1, t1), (2, t2)):
            rows = _stacked(rows[first - start :])
            sums[q, first:stop] = total(rows * rows, axis=1)
            del rows
    del t1, t2
    first = max(start, 1)
    if first < stop:
        e1, e2 = _stacked(eps1[first - start :]), _stacked(eps2[first - start :])
        sums[3, first:stop], sums[4, first:stop] = total(e1, axis=1), total(e2, axis=1)
        sums[5, first:stop] = total(e1 * e1, axis=1)
        sums[6, first:stop] = total(e2 * e2, axis=1)
        sums[7, first:stop] = total(e1 * e2, axis=1)
    return eps1[-1], eps2[-1]


def _chunk_sums(
    config: MessageConfig,
    params: ChannelParams,
    schedule: CoefficientSchedule,
    mode: str,
    rng: RngSpec,
    size: int,
) -> tuple[np.ndarray, int]:
    """Run ``size`` blocks on the stream ``rng``; return the number of blocks
    decoded wrongly and, per channel use t = 1..n, eight sums over the
    blocks: x^2, t1^2 and t2^2 (interference mode only, else 0), then eps1,
    eps2, eps1^2, eps2^2 and eps1*eps2 (0 at t = 1, before the errors exist).
    Each is numpy's pairwise sum, ``np.add.reduce`` (what ``np.sum`` runs,
    without its wrapper), over the blocks' values of one use; a BLAS dot
    product would make the bytes depend on the BLAS build and its thread
    count.

    The uses run in step blocks of k = ``_step_block(n, size)``, each
    reduced as a whole once it has run (``_add_block_sums``): a chunk of 100
    blocks at n = 20 draws its noise in one call and forms each quantity's
    20 sums in one reduction, and a chunk of more than 4,096 blocks, k = 1,
    reduces each use as it arrives."""
    gen = make_generator(rng)
    m1 = _draw_messages(gen, config.levels1, size)
    m2 = _draw_messages(gen, config.levels2, size)
    steps = _coding_loop(config, params, schedule, gen, m1, m2, size)
    # Decoding needs only whether each message is an end of its grid.
    edges1 = m1 == 1, m1 == config.levels1
    edges2 = m2 == 1, m2 == config.levels2
    del m1, m2
    n = config.n
    k = _step_block(n, size)
    sums = np.zeros((8, n))
    for start in range(0, n, k):
        eps1, eps2 = _add_block_sums(sums, start, mode, itertools.islice(steps, k))
    if mode == "interference":
        # Transmitter v alone sends at t = v, its message point: t_v = x.
        sums[1, 0], sums[2, 1] = sums[0, 0], sums[0, 1]

    ok1 = _decoded_correctly(eps1, *edges1, config.levels1)
    ok2 = _decoded_correctly(eps2, *edges2, config.levels2)
    return sums, int(size - np.count_nonzero(ok1 & ok2))


def _available_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_chunks(run, sizes: list[int]) -> list:
    """``[run(c, size) for c, size in enumerate(sizes)]``, computed by this
    thread alongside min(len(sizes), CPUs) - 1 helper threads.

    Every thread takes the next chunk from one shared iterator and stores
    its result at the chunk's index, so the list does not depend on which
    thread ran which chunk.  numpy releases the GIL in the Philox fills and
    in the ufuncs, so chunks do run side by side.  A single chunk runs here
    and starts no thread.  Once a chunk raises, no thread starts another
    one, and the first exception is raised here after every helper stopped.
    """
    results = [None] * len(sizes)
    todo = enumerate(sizes)  # next() on a builtin iterator holds the GIL throughout
    failures = []

    def work():
        try:
            for c, size in todo:
                if failures:
                    return
                results[c] = run(c, size)
        except BaseException as exc:  # raised again in the calling thread
            failures.append(exc)

    workers = min(len(sizes), _available_cpus())
    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if failures:
        raise failures[0]
    return results


def run_broadcast_campaign(
    config: MessageConfig,
    params: ChannelParams,
    trials: int,
    master_seed: int,
    mode: str = "broadcast",
    fed_back_receiver: int = 1,
) -> McSummary:
    """Aggregate ``trials`` independent blocks, vectorized across trials.

    The blocks run in ceil(trials / 65,536) chunks of balanced size; chunk c
    draws its messages and noises from ``RngSpec(master_seed, c)`` and
    returns per-step sums of the errors, their squares and their product.
    The sums are added in chunk-index order and the moments formed once from
    the totals: mean = S / N, SS = S_2 - N mean^2, variance SS / (N - 1) and
    correlation co-moment / (sqrt(SS_1) sqrt(SS_2)), the same for one chunk
    or many.  The chunks run concurrently on the calling thread and
    min(chunks, available CPUs) - 1 helper threads; a campaign of at most
    65,536 trials is a single chunk on ``RngSpec(master_seed, 0)`` and runs
    in the calling thread alone.  Memory is therefore bounded by one chunk
    per thread, not by ``trials``, and identical invocations produce
    bitwise-identical summaries, whatever the number of CPUs.  An exception
    raised in any chunk is raised here.  The block error rate comes with a
    95% Wilson interval.
    """
    if not (isinstance(trials, (int, np.integer)) and trials >= 100):
        raise ParameterError(f"trials must be an integer >= 100, got {trials!r}")
    schedule = _checked_schedule(config, params, mode, fed_back_receiver)
    n = config.n
    chunks = _map_chunks(
        lambda c, size: _chunk_sums(config, params, schedule, mode, RngSpec(master_seed, c), size),
        _chunk_sizes(trials),
    )
    # Summed in chunk-index order, whatever order the chunks ran in.
    power, tx1, tx2, s1, s2, sq1, sq2, s12 = sum(sums for sums, _ in chunks)
    errors = sum(e for _, e in chunks)
    ci_low, ci_high = _wilson_interval(errors, trials)
    # The errors have mean zero, so removing trials * mean^2 from the sums
    # of squares cancels nothing.
    mean1, mean2 = s1[1:] / trials, s2[1:] / trials
    ss1 = sq1[1:] - trials * mean1**2
    ss2 = sq2[1:] - trials * mean2**2
    co = s12[1:] - trials * mean1 * mean2
    power = power / trials

    return McSummary(
        mode=mode,
        trials=trials,
        n=n,
        master_seed=master_seed,
        steps=np.arange(2, n + 1),
        mean1=mean1,
        mean2=mean2,
        var1=ss1 / (trials - 1),
        var2=ss2 / (trials - 1),
        # Square roots before the product, so tiny variances do not underflow.
        corr=co / (np.sqrt(ss1) * np.sqrt(ss2)),
        alpha1=schedule.alpha1.copy(),
        alpha2=schedule.alpha2.copy(),
        rho=schedule.rho.copy(),
        power_per_step=power,
        mean_power=float(np.mean(power)),
        errors=errors,
        error_rate=errors / trials,
        confidence=_CONFIDENCE,
        ci_low=ci_low,
        ci_high=ci_high,
        tx1_mean_power=float(np.sum(tx1)) / (trials * n) if mode == "interference" else None,
        tx2_mean_power=float(np.sum(tx2)) / (trials * n) if mode == "interference" else None,
    )
