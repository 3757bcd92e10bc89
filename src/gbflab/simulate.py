"""Monte Carlo implementation of the iterative feedback coding scheme.

The encoder maps each message onto a point of a uniform grid in (-1/2, 1/2],
spends one channel use per user to plant a scaled copy of its message point,
and from then on transmits a power-normalized linear combination of the two
receivers' current estimation errors.  Each receiver refines its estimate
with a one-step scalar LMMSE update from its newest output.  The deterministic
moment schedule that generates the combining and estimation coefficients is
shared, read-only, by every trial.

The scheme is written once, in the coding loop ``_coding_loop``, which runs
it in three modes: single-encoder broadcast, the two-transmitter interference
variant in which each transmitter emits its own receiver's error term and the
channel adds them, and a limited-feedback mode where the encoder observes a
single receiver's outputs and rebuilds the other's noise from the observed
noise (possible only for perfectly correlated or anti-correlated noises).
The message mapping, the encoder and the channel outputs live only there.
A single trial (``run_broadcast_trial``, ``run_interference_trial``,
``run_limited_feedback_trial``) runs the loop on one block of Python floats;
a campaign (``run_broadcast_campaign``) runs it on arrays of independent
blocks and folds each step into its moment estimates as the step arrives.
A campaign holds at most 65,536 blocks at once: chunk c of its blocks runs on
the stream ``RngSpec(master_seed, c)``, and the per-chunk moments are pooled
in one pass in chunk-index order, so memory does not grow with the trial
count and the result does not depend on the order chunks run in.

Numerical note: the error process is independent of the transmitted messages,
so trials propagate the errors directly and decode through the integer
message offset nearest to eps * L.  This reproduces exact-arithmetic
nearest-point decoding even when the grid is finer than float64 resolution
(n * rate beyond ~53 bits), which a float message-point estimate could not
represent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .analysis import ErrorState, gamma, solve_fixed_point, step_error_state
from .channel import (
    ChannelParams,
    RngSpec,
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
_CONFIDENCE = 0.95  # level of a campaign's Wilson interval for the block error rate
_MODES = ("broadcast", "interference", "limited")


# ---------------------------------------------------------------------------
# messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MessageConfig:
    """Block length and per-user rates in bits per channel use."""

    n: int
    rate1: float
    rate2: float

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and self.n >= 3):
            raise ParameterError(f"block length must be an integer >= 3, got {self.n}")
        for name, rate in (("rate1", self.rate1), ("rate2", self.rate2)):
            if not (rate >= 0.0 and np.isfinite(rate)):
                raise ParameterError(f"{name} must be a nonnegative finite real, got {rate}")
            if self.n * rate > 512.0:
                raise ParameterError(f"{name} gives an alphabet beyond 2**512; not supported")

    @property
    def levels1(self) -> int:
        return level_count(self.n, self.rate1)

    @property
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
    """Exact uniform draw from {1..levels}, including beyond-int64 alphabets:
    a Python int for ``size=None``, else an array of ``size`` indices."""
    if levels <= _VECTOR_LEVEL_LIMIT:
        m = gen.integers(1, levels, size=size, endpoint=True, dtype=np.int64)
        return int(m) if size is None else m
    if size is not None:
        # Index identity beyond 2**62 points is statistically irrelevant; keep
        # the draws exact but store them as floats for vector arithmetic.
        return np.array([float(_draw_messages(gen, levels)) for _ in range(size)])
    nbits = (levels - 1).bit_length()
    nwords = (nbits + 63) // 64
    mask = (1 << nbits) - 1
    while True:
        value = 0
        for _ in range(nwords):
            value = (value << 64) | int(gen.integers(0, 2**64 - 1, endpoint=True, dtype=np.uint64))
        value &= mask
        if value < levels:
            return value + 1


# ---------------------------------------------------------------------------
# receivers
# ---------------------------------------------------------------------------


def receiver_update(eps_prev: float, y: float, coeff: float) -> float:
    """Subtract the scalar LMMSE estimate of the current error built from the
    newest channel output."""
    return eps_prev - coeff * y


# ---------------------------------------------------------------------------
# coefficient schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientSchedule:
    """Deterministic per-step data shared read-only by all trials.

    Index convention: ``alpha1[k-2]`` etc. are the moments after output k for
    k = 2..n; ``psi[k-3]``, ``c1[k-3]``, ``c2[k-3]`` drive feedback step k for
    k = 3..n, and are derived from the moments at k-1 (same array index).
    """

    n: int
    var_theta1: float
    var_theta2: float
    alpha1: np.ndarray
    alpha2: np.ndarray
    rho: np.ndarray
    psi: np.ndarray
    c1: np.ndarray
    c2: np.ndarray


def lmmse_coefficient_schedule(
    params: ChannelParams,
    n: int,
    var_theta1: float,
    var_theta2: float,
    init_rho: float = 0.0,
) -> CoefficientSchedule:
    """Closed-form scalar LMMSE coefficient for every receiver and step.

    For step k, receiver v applies c_v = Cov(eps_v, Y_v) / Var(Y_v) with all
    moments taken from the analytic schedule; the moments induced by that
    projection reproduce the closed-form variance and correlation recursions
    exactly, which is the defining cross-check of the scheme implementation.
    The natural initial state after the two dedicated channel uses has
    uncorrelated errors; ``init_rho`` can pin it elsewhere (e.g. at the fixed
    point) for studying the pinned regime.
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
        rho=init_rho,
        step_index=2,
    )
    alpha1 = [state.alpha1]
    alpha2 = [state.alpha2]
    rho = [state.rho]
    psi, c1, c2 = [], [], []
    for _ in range(3, n + 1):
        if not (state.alpha1 > 0.0 and state.alpha2 > 0.0):
            raise NumericalIntegrityError(
                f"error variance underflowed at step {state.step_index}; "
                "the block length is too large for this power"
            )
        ar = abs(state.rho)
        sgn = 1.0 if state.rho >= 0.0 else -1.0
        scale = math.sqrt(p / (1.0 + g * g + 2.0 * g * ar))
        psi.append(scale)
        c1.append(scale * math.sqrt(state.alpha1) * (1.0 + g * ar) / pi1)
        c2.append(scale * math.sqrt(state.alpha2) * sgn * (g + ar) / pi2)
        state = step_error_state(state, params)
        alpha1.append(state.alpha1)
        alpha2.append(state.alpha2)
        rho.append(state.rho)
    return CoefficientSchedule(
        n=n,
        var_theta1=var_theta1,
        var_theta2=var_theta2,
        alpha1=np.array(alpha1),
        alpha2=np.array(alpha2),
        rho=np.array(rho),
        psi=np.array(psi),
        c1=np.array(c1),
        c2=np.array(c2),
    )


def _checked_schedule(
    config: MessageConfig,
    params: ChannelParams,
    mode: str,
    fed_back_receiver: int,
    schedule: CoefficientSchedule | None = None,
    fixpoint_init: bool = False,
) -> CoefficientSchedule:
    """Reject inputs the coding loop cannot run, then return ``schedule`` or,
    when it is None, the schedule of ``config``."""
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
    if schedule is not None:
        if schedule.n < config.n:
            raise ParameterError(f"schedule covers n = {schedule.n}, not n = {config.n}")
        return schedule
    init_rho = solve_fixed_point(params).rho_star if fixpoint_init else 0.0
    var1, var2 = message_point_variance(levels1), message_point_variance(levels2)
    return lmmse_coefficient_schedule(params, config.n, var1, var2, init_rho=init_rho)


# ---------------------------------------------------------------------------
# the coding loop
# ---------------------------------------------------------------------------


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
    every value is a Python float; otherwise they are arrays of ``size``
    independent blocks.

    The encoder works on the receivers' own errors in every mode.  With
    limited feedback it sees one receiver's output, hence that receiver's
    noise, and |rho_z| = 1 makes the other noise an exact scaling of it: the
    encoder knows both errors, so the mode runs the broadcast scheme."""
    noise, p = params.noise, params.power
    var1, var2 = schedule.var_theta1, schedule.var_theta2
    theta1 = 0.5 - (m1 - 1) / config.levels1
    theta2 = 0.5 - (m2 - 1) / config.levels2
    x1 = math.sqrt(p / var1) * theta1
    x2 = math.sqrt(p / var2) * theta2

    # t = 1 and t = 2 plant the message points (transmitter v sends point v
    # in interference mode).  Receiver 1 keeps only t = 1 and receiver 2 only
    # t = 2, so the initial errors are uncorrelated.
    z1_t1, z2_t1 = sample_noise_pair(noise, gen, size)
    yield x1, x1, 0.0, None, None
    z1_t2, z2_t2 = sample_noise_pair(noise, gen, size)
    eps1 = math.sqrt(var1 / p) * z1_t1
    eps2 = math.sqrt(var2 / p) * z2_t2

    yield x2, 0.0, x2, eps1, eps2

    g = gamma(noise)
    per_step = (
        schedule.psi, schedule.alpha1, schedule.alpha2, schedule.rho, schedule.c1, schedule.c2
    )
    for psi, a1, a2, rho, c1, c2 in zip(*(a[: config.n - 2].tolist() for a in per_step)):
        sgn = 1.0 if rho >= 0.0 else -1.0
        t1 = psi / math.sqrt(a1) * eps1
        t2 = (psi * g * sgn / math.sqrt(a2)) * eps2
        x = t1 + t2
        z1, z2 = sample_noise_pair(noise, gen, size)
        # The unit-gain interference channel adds t1 and t2 into this same x.
        y1, y2 = x + z1, x + z2
        eps1 = receiver_update(eps1, y1, c1)
        eps2 = receiver_update(eps2, y2, c2)
        yield x, t1, t2, eps1, eps2


# ---------------------------------------------------------------------------
# single trials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialRecord:
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
    z = NormalDist().inv_cdf(0.5 + 0.5 * _CONFIDENCE)
    phat = errors / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _decoded_correctly(eps: np.ndarray, m: np.ndarray, levels: int) -> np.ndarray:
    """Per block, whether ``_decode_from_error`` returns the sent index m.

    Decided on the offset k = floor(eps * levels + 1/2) rather than on
    m - k, which float arithmetic rounds back to m beyond 2**53 points: the
    decode clips m - k into [1, levels], so it is right when k == 0, when
    k > 0 and m == 1, and when k < 0 (or NaN, which decodes to ``levels``)
    and m == levels.
    """
    k = np.floor(eps * float(levels) + 0.5)
    return (k == 0) | ((k > 0) & (m == 1)) | (~(k >= 0) & (m == levels))


def _chunk_sizes(trials: int) -> list[int]:
    """Split ``trials`` into ceil(trials / _CHUNK_TRIALS) chunks whose sizes
    differ by at most one, larger chunks first: with two or more chunks each
    holds at least _CHUNK_TRIALS / 2 blocks."""
    chunks = -(-trials // _CHUNK_TRIALS)
    base, extra = divmod(trials, chunks)
    return [base + (c < extra) for c in range(chunks)]


@dataclass(frozen=True)
class _Moments:
    """What a campaign keeps of ``count`` blocks: per-step error means,
    unbiased variances and correlation after outputs k = 2..n, mean x^2 per
    use t = 1..n, the interference transmitters' summed squared inputs and the
    number of blocks decoded wrongly."""

    count: int
    mean1: np.ndarray
    mean2: np.ndarray
    var1: np.ndarray
    var2: np.ndarray
    corr: np.ndarray
    power: np.ndarray
    tx1_sum: float
    tx2_sum: float
    errors: int


def _chunk_moments(
    config: MessageConfig,
    params: ChannelParams,
    schedule: CoefficientSchedule,
    mode: str,
    rng: RngSpec,
    size: int,
) -> _Moments:
    """Run ``size`` blocks on the stream ``rng``, folding each step into its
    moments as it arrives, and count the blocks decoded wrongly."""
    n = config.n
    gen = make_generator(rng)
    m1 = _draw_messages(gen, config.levels1, size)
    m2 = _draw_messages(gen, config.levels2, size)

    mean1, mean2, var1, var2, corr = (np.zeros(n - 1) for _ in range(5))
    power = np.zeros(n)
    tx1_sum = tx2_sum = 0.0
    steps = _coding_loop(config, params, schedule, gen, m1, m2, size)
    for t, (x, t1, t2, eps1, eps2) in enumerate(steps):
        power[t] = float(np.mean(x**2))
        if mode == "interference":
            tx1_sum += float(np.sum(t1**2))
            tx2_sum += float(np.sum(t2**2))
        if t:
            mean1[t - 1] = eps1.mean()
            mean2[t - 1] = eps2.mean()
            var1[t - 1] = eps1.var(ddof=1)
            var2[t - 1] = eps2.var(ddof=1)
            corr[t - 1] = float(np.corrcoef(eps1, eps2)[0, 1])

    ok1 = _decoded_correctly(eps1, m1, config.levels1)
    ok2 = _decoded_correctly(eps2, m2, config.levels2)
    errors = int(size - np.count_nonzero(ok1 & ok2))
    return _Moments(size, mean1, mean2, var1, var2, corr, power, tx1_sum, tx2_sum, errors)


def _pool(chunks: list[_Moments]) -> _Moments:
    """Moments of the union of the chunks' blocks, pooled in one pass over
    the chunk list in index order, so the result does not depend on the
    order the chunks ran in: count-weighted means and power, and sums of
    squared deviations and the co-moment as within-chunk plus between-chunk
    terms (Chan, Golub and LeVeque 1979).  A single chunk comes back
    unchanged."""
    if len(chunks) == 1:
        return chunks[0]
    k = np.array([[c.count] for c in chunks], dtype=float)
    count = sum(c.count for c in chunks)
    mean1, mean2, var1, var2, corr, power = (
        np.array([getattr(c, f) for c in chunks])
        for f in ("mean1", "mean2", "var1", "var2", "corr", "power")
    )
    pooled1, pooled2 = (k * mean1).sum(axis=0) / count, (k * mean2).sum(axis=0) / count
    d1, d2 = mean1 - pooled1, mean2 - pooled2
    ss1 = ((k - 1) * var1 + k * d1 * d1).sum(axis=0)
    ss2 = ((k - 1) * var2 + k * d2 * d2).sum(axis=0)
    # The within-chunk co-moment is corr * sd1 * sd2 * (count - 1); square
    # roots are taken before multiplying so that tiny variances do not
    # underflow.
    co = ((k - 1) * corr * np.sqrt(var1) * np.sqrt(var2) + k * d1 * d2).sum(axis=0)
    return _Moments(
        count=count,
        mean1=pooled1,
        mean2=pooled2,
        var1=ss1 / (count - 1),
        var2=ss2 / (count - 1),
        corr=co / (np.sqrt(ss1) * np.sqrt(ss2)),
        power=(k * power).sum(axis=0) / count,
        tx1_sum=sum(c.tx1_sum for c in chunks),
        tx2_sum=sum(c.tx2_sum for c in chunks),
        errors=sum(c.errors for c in chunks),
    )


def run_broadcast_campaign(
    config: MessageConfig,
    params: ChannelParams,
    trials: int,
    master_seed: int,
    mode: str = "broadcast",
    fed_back_receiver: int = 1,
    fixpoint_init: bool = False,
) -> McSummary:
    """Aggregate ``trials`` independent blocks, vectorized across trials.

    The blocks run in ceil(trials / 65,536) chunks of balanced size; chunk c
    draws its messages and noises from ``RngSpec(master_seed, c)``, and the
    per-chunk moments are pooled in one pass in chunk-index order.  Memory
    is therefore bounded by the chunk size, not by ``trials``, and identical
    invocations produce bitwise-identical summaries.  A campaign of at most
    65,536 trials is a single chunk on ``RngSpec(master_seed, 0)``.  The
    block error rate comes with a 95% Wilson interval.
    """
    if not (isinstance(trials, (int, np.integer)) and trials >= 100):
        raise ParameterError(f"trials must be an integer >= 100, got {trials!r}")
    schedule = _checked_schedule(
        config, params, mode, fed_back_receiver, fixpoint_init=fixpoint_init
    )
    n = config.n
    pooled = _pool([
        _chunk_moments(config, params, schedule, mode, RngSpec(master_seed, c), size)
        for c, size in enumerate(_chunk_sizes(trials))
    ])
    ci_low, ci_high = _wilson_interval(pooled.errors, trials)

    return McSummary(
        mode=mode,
        trials=trials,
        n=n,
        master_seed=master_seed,
        steps=np.arange(2, n + 1),
        mean1=pooled.mean1,
        mean2=pooled.mean2,
        var1=pooled.var1,
        var2=pooled.var2,
        corr=pooled.corr,
        alpha1=schedule.alpha1.copy(),
        alpha2=schedule.alpha2.copy(),
        rho=schedule.rho.copy(),
        power_per_step=pooled.power,
        mean_power=float(np.mean(pooled.power)),
        errors=pooled.errors,
        error_rate=pooled.errors / trials,
        confidence=_CONFIDENCE,
        ci_low=ci_low,
        ci_high=ci_high,
        tx1_mean_power=(pooled.tx1_sum / (trials * n)) if mode == "interference" else None,
        tx2_mean_power=(pooled.tx2_sum / (trials * n)) if mode == "interference" else None,
    )
