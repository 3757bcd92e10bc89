"""Deterministic mathematics of the linear feedback coding scheme.

Everything here is a pure function of its arguments: the error-moment
recursions driven by the scheme's LMMSE receivers, the cubic whose root in
[0, 1] is the sign-alternating fixed point of the error correlation, the
numerically stable gap form of that cubic for the near-degenerate high-power
regime, achievable rates and their pre-log ratio, high-power limit
verification, and the K-receiver pre-log classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .channel import ChannelParams, NoiseSpec, _real
from .errors import NoFixedPointError, NumericalIntegrityError, ParameterError

# The returned root must satisfy the rho-form cubic to within this multiple
# of 1 + |a| + |b| + |c|; bisection to adjacent floats leaves ~2e-16.
CUBIC_RESIDUAL_ACCEPT = 1e-10
_RHO_INTEGRITY_TOL = 1e-12
_LN2 = math.log(2.0)
_FLOAT_MIN = 2.0**-1022  # the smallest normal float


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorState:
    """Second moments of the two receivers' estimation errors after one
    channel output: variances (alpha1, alpha2) and correlation rho, stored
    clamped to [-1, 1]; a NaN rho or |rho| > 1 + 1e-12 raises."""

    alpha1: float
    alpha2: float
    rho: float

    def __post_init__(self) -> None:
        if not (self.alpha1 >= 0.0 and self.alpha2 >= 0.0):
            raise ParameterError("error variances must be nonnegative")
        if not abs(self.rho) <= 1.0 + _RHO_INTEGRITY_TOL:
            raise NumericalIntegrityError(
                f"|rho| = {abs(self.rho)} exceeds 1 beyond tolerance"
            )
        if abs(self.rho) > 1.0:
            object.__setattr__(self, "rho", math.copysign(1.0, self.rho))


class FixedPoint(NamedTuple):
    """A solved correlation rho*, its gap g = 1 - rho* and the rho-form
    cubic's residual, the solver's one certificate.  ``recursion_residual``,
    | |rho_recursion(rho*)| - rho* |, is an absolute diagnostic at the float
    rho* with no bound: once g < 2^-53 rounds rho* to 1, it measures the
    recursion at 1 (1.0, 0.5, 0.1 at P = 1e33, unit sigmas, rho_z = 0, 0.5, -0.9)."""

    rho_star: float
    gap: float
    residual: float
    recursion_residual: float


class RatePoint(NamedTuple):
    """Achievable rate pair at a given power, plus the finite-power quotient
    of the sum rate by the single-channel log capacity growth."""

    r1: float
    r2: float
    sum: float
    prelog_ratio: float


class PrelogValue(Enum):
    ONE = "One"
    TWO = "Two"
    UNDEFINED = "Undefined"


@dataclass(frozen=True)
class PrelogClass:
    value: PrelogValue
    reason: str

    def __post_init__(self) -> None:
        if self.value is PrelogValue.UNDEFINED and not self.reason:
            raise ParameterError("an Undefined classification must carry a reason")


class AsymptoticsRow(NamedTuple):
    """High-power limit diagnostics at one grid power.

    A named tuple, like every record here that validates nothing: it is
    immutable, and it builds in a fraction of a frozen dataclass's time,
    which stores each field through ``object.__setattr__``.  It compares
    and unpacks as a tuple of its fields.
    """

    power: float
    lambda2: float
    lambda2_err: float          # |lambda2 - 2|
    lambda1_scaled: float       # P^(1 - eps/2) * lambda1
    root_defect: float          # P * (1 - P / sqrt((P+s1^2)(P+s2^2)))
    root_defect_err: float      # |root_defect - (s1^2 + s2^2)/2|
    lambda0_scaled: float       # P^(2 - delta - eps) * lambda0 (anti-correlated only)
    gap: float
    gap_scaled: float           # P^(1 - delta) * gap


class AsymptoticsReport(NamedTuple):
    rows: tuple[AsymptoticsRow, ...]
    # name -> strictly-decreasing verdict over the last three decades
    # (None when the quantity does not apply to this noise correlation)
    monotone: dict[str, bool | None]


class SweepRow(NamedTuple):
    """One power grid point of a rate sweep, a named tuple for the reason
    ``AsymptoticsRow`` gives."""

    power: float
    rho_star: float
    gap: float
    r1: float
    r2: float
    sum: float
    prelog_ratio: float
    scaled_gap: float


# ---------------------------------------------------------------------------
# scalar building blocks
# ---------------------------------------------------------------------------


def gamma(noise: NoiseSpec) -> float:
    """Weight applied to receiver 2's normalized error inside the encoder's
    linear combination."""
    return noise.sigma1 / noise.sigma2


# At the ends of the accepted range (P near 1e154, or tiny P or sigmas)
# intermediate values overflow to inf, and beyond them P spp may be 0.  The
# coefficients, the bisection and the certification let them do so
# silently, as Python floats do; the recursion warns.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _coeffs(noise: NoiseSpec, p):
    """Rho-form (a, b, c) and gap-form (lambda0, lambda1, lambda2)
    coefficients at each power of the array ``p``, and the root defect
    1 - P / spp with spp = sqrt((P+s1^2)(P+s2^2)).  The gap form is
    transcribed term by term (not derived from (a, b, c)) so the two forms
    cross-check each other."""
    s1, s2, rz = noise.sigma1, noise.sigma2, noise.rho_z
    s11, s22, s12 = s1 * s1, s2 * s2, s1 * s2
    # Factored square roots never overflow for P up to ~1e308 and carry full
    # relative precision, which the plain product under one root loses
    # first.  np.sqrt is correctly rounded, as math.sqrt is.
    spp = np.sqrt(p + s11) * np.sqrt(p + s22)
    pspp = p * spp
    a = -2.0 * s12 / p - (p + s11 + s22 + rz * s12) / spp - 2.0 * s11 * s22 / pspp
    b = (
        -1.0
        - (s11 + s22) / p
        - rz * (s11 + s22) / spp
        - s12 * (s11 + s22) / pspp
    )
    c = (p + s11 + s22 - rz * s12) / spp
    # The defect without cancellation: the direct 1 - P / spp subtracts two
    # quantities that agree to ~s^2/P relative and so loses all significance
    # at large P.  Where spp > 1, both terms are scaled by an exact 1/4 that
    # keeps spp (spp + P) finite up to P = 1.3e154, the end of the accepted
    # range, and makes neither subnormal, so no finite quotient moves a bit.
    quarter = np.where(spp > 1.0, 0.25, 1.0)
    defect = (quarter * (p * (s11 + s22) + s11 * s22)) / ((quarter * spp) * (spp + p))
    lambda2 = (
        3.0 - 2.0 * s12 / p - (p + s11 + s22 + rz * s12) / spp - 2.0 * s11 * s22 / pspp
    )
    lambda1 = (
        -2.0 * defect
        + ((2.0 + rz) * s11 + (2.0 + rz) * s22 + 2.0 * rz * s12) / spp
        + (s11 + s22 + 4.0 * s12) / p
        + s12 * (s11 + 4.0 * s12 + s22) / pspp
    )
    # 1 + rz * P / spp == (1 + rz) - rz * defect; at rz = -1 this is exactly
    # the stable defect instead of a fully cancelled subtraction.
    sq = s11 + 2.0 * s12 + s22
    lambda0 = -(sq / p) * ((1.0 + rz) - rz * defect) - s12 * sq / pspp
    return (a, b, c), (lambda0, lambda1, lambda2), defect


def rho_recursion(rho, params: ChannelParams):
    """One application of the error-correlation recursion.

    Accepts scalars or numpy arrays; sign(0) is taken as +1, for -0.0 too.  A
    float skips the 0-d array but runs the same body, so it gives the array's
    bits.  The map is odd in rho away from 0, and a fixed point rho* in [0, 1]
    satisfies rho_recursion(rho*) = -rho*.

    The bracketed term is evaluated through the identity
    |rho| B - (s1 + s2|rho|)(s2 + s1|rho|) = -s1 s2 (1 - rho^2), which leaves
    only small, same-scale summands near |rho| = 1; the literal difference of
    the two O(s^2)-sized products would lose ~6 digits of the result there.
    """
    if not isinstance(rho, float):
        rho = np.asarray(rho, dtype=float)
    p, noise = params.power, params.noise
    s1, s2, rz = noise.sigma1, noise.sigma2, noise.rho_z
    ar = abs(rho)
    sg = (rho >= 0.0) * 2.0 - 1.0
    s11, s22, s12 = s1 * s1, s2 * s2, s1 * s2
    pi1, pi2 = p + s11, p + s22
    spp = np.sqrt(pi1) * np.sqrt(pi2)
    b_noise = s11 + s22 + 2.0 * s12 * ar
    # (1 - ar)(1 + ar): exact to one rounding even for ar near 1, where the
    # naive 1 - ar*ar cancels.
    omr2 = (1.0 - ar) * (1.0 + ar)
    q = p * omr2 + b_noise
    # P S / (pi1 pi2) = 1 - tau with tau = s1 s2 (s1 s2 + P rho_z) / (pi1 pi2)
    tau = s12 * (s12 + p * rz) / (pi1 * pi2)
    w0 = (s1 + s2 * ar) * (s2 + s1 * ar)
    core = sg * (w0 * tau - s12 * omr2)
    out = spp / (q * s12) * core
    if out.ndim == 0:
        return float(out)
    return out


def step_error_state(state: ErrorState, params: ChannelParams) -> ErrorState:
    """Advance the analytic error moments by one feedback iteration.

    The variance ratios are the exact one-step LMMSE projections induced by
    the encoder's normalized input; both are proportional to
    P(1-rho^2) + (s1^2 + s2^2 + 2 s1 s2 |rho|), which keeps the correlation
    update consistent with the fixed-point cubic for unequal noise levels.
    """
    p = params.power
    s1, s2 = params.noise.sigma1, params.noise.sigma2
    g = gamma(params.noise)
    ar = abs(state.rho)
    d = 1.0 + g * g + 2.0 * g * ar
    omr2 = (1.0 - ar) * (1.0 + ar)
    ratio1 = (g * g * p * omr2 + s1 * s1 * d) / (d * (p + s1 * s1))
    ratio2 = (p * omr2 + s2 * s2 * d) / (d * (p + s2 * s2))
    return ErrorState(
        alpha1=state.alpha1 * ratio1,
        alpha2=state.alpha2 * ratio2,
        rho=rho_recursion(state.rho, params),
    )


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------


def _monic_at(m, c2, c1, c0):
    """The monic cubic h(m) = ((m + c2) m + c1) m + c0, in the one order of
    operations that every evaluation of the solver's cubics shares."""
    h = m + c2
    h *= m
    h += c1
    h *= m
    h += c0
    return h


@np.errstate(over="ignore")
def _bisect_brackets(lo, hi, c2, c1, c0):
    """Bisect every bracket of the monic cubic h(x) = ((x + c2) x + c1) x + c0
    at once, each with its own coefficients, until it collapses to adjacent
    floats.

    No step limit: a bracket of width w around a root x takes about
    log2(w / ulp(x)) halvings, from [0, 1/2] up to about 1,075 for the
    smallest floats, which is why ``_solve_powers`` starts each one from a
    verified bracket near its root.
    Each bracket is held as its end u = lo, where h must not be negative,
    and its end v = hi: every start bracket of an accepted power has
    h(lo) > 0, as h(0) = c0 > 0 (``_solve_powers``) and a path's left end
    past 0 is a midpoint where h was found positive.  A step moves u to mid
    where h(mid) is not negative, v where it is negative, and both where
    h(mid) = 0 exactly, which ends the bracket at mid.  With finite
    coefficients and mid in [0, 1/2] no evaluation is NaN, so "not negative"
    is h(mid) >= 0.  A collapsed bracket (its midpoint equals an end) is a
    fixed point of the step, and a step that leaves a midpoint in place has
    collapsed its bracket, so the loop runs until no midpoint moves."""
    u, v = lo.copy(), hi.copy()
    mid = 0.5 * (lo + hi)
    while True:
        hm = _monic_at(mid, c2, c1, c0)
        np.copyto(u, mid, where=hm >= 0.0)
        np.copyto(v, mid, where=hm <= 0.0)
        prev, mid = mid, 0.5 * (u + v)
        if not np.count_nonzero(mid != prev):
            return mid


# Newton steps from the quadratic part's root to each estimate of the root.
_NEWTON_STEPS = 4
# The path is checked down to this many bits short of a 53-bit midpoint; the
# last few levels lie within rounding of the root, where they seldom verify.
_PATH_SPARE_BITS = 2
# Path midpoints evaluated at once, which bounds the working set.
_PATH_BLOCK = 1 << 15
# Estimates are kept in [2^-1022, 1/2): a normal x keeps every midpoint of
# its path exact, and below 1/2 the bracket [floor(x 2^d) 2^-d, + 2^-d] of
# each depth d stays inside [0, 1/2].
_ESTIMATE_MIN = 2.0**-1022
_ESTIMATE_MAX = 0.5 - 2.0**-54


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _root_estimates(c2, c1, c0):
    """Estimates of the root in [0, 1/2] of each monic cubic
    h(x) = ((x + c2) x + c1) x + c0 with h(0) > 0 >= h(1/2): Newton steps
    from the stable root of the quadratic part c2 x^2 + c1 x + c0 (the one
    near -c0 / c1 when c1 < 0), clamped after each step, where fmin and fmax
    also replace a NaN by a bound.  An estimate decides only how many
    bisection steps are skipped, never a bit."""
    # sqrt(c1^2 - 4 c2 c0) through |c1|, so that c1^2 cannot overflow
    root = np.abs(c1) * np.sqrt(np.fmax(1.0 - 4.0 * (c2 / c1) * (c0 / c1), 0.0))
    x = np.where(c1 < 0.0, 2.0 * c0 / (root - c1), (c1 + root) / (-2.0 * c2))
    for _ in range(_NEWTON_STEPS):
        x = np.fmax(np.fmin(x, _ESTIMATE_MAX), _ESTIMATE_MIN)
        x = x - _monic_at(x, c2, c1, c0) / ((3.0 * x + 2.0 * c2) * x + c1)
    return np.fmax(np.fmin(x, _ESTIMATE_MAX), _ESTIMATE_MIN)


@np.errstate(over="ignore")
def _verified_depths(x, c2, c1, c0):
    """How many levels of the bisection of [0, 1/2] towards each estimate x
    the signs of the monic cubic h confirm.

    Level j = 1, 2, ... of that path evaluates the midpoint
    m_j = (floor(x 2^j) + 1/2) 2^-j of its bracket, the value the
    bisection's 0.5 (u + v) forms exactly while m_j fits in 53 bits, and goes
    right where m_j <= x: it expects h(m_j) > 0 there and h(m_j) < 0
    elsewhere.  A level confirms when its sign is the expected one; a zero or
    wrong sign ends the prefix.  With x = f 2^e (1/2 <= f < 1), the levels
    j = 1 .. 52 - _PATH_SPARE_BITS - e are checked, whose midpoints have at
    most 53 - _PATH_SPARE_BITS bits.  x 2^j is formed as (x 2^512) 2^(j - 512),
    exact and finite through j = 1,073, where 2^j itself overflows from
    j = 1,024.  The levels are evaluated in blocks of about _PATH_BLOCK
    midpoints, a level per row and a power per column, and only for the
    powers whose prefix is still unbroken."""
    levels = 52 - _PATH_SPARE_BITS - np.frexp(x)[1]
    x512 = x * 2.0**512
    depth = np.zeros(x.shape, dtype=np.int64)
    cols = np.arange(x.size)
    top = 0
    while cols.size:
        width = min(max(1, _PATH_BLOCK // cols.size), int(levels[cols].max()) - top)
        # Rows past a column's last level may overflow; its depth is capped.
        scales = np.ldexp(1.0, np.arange(top + 1 - 512, top + width + 1 - 512))[:, None]
        mids = x512[cols] * scales
        np.floor(mids, out=mids)
        mids += 0.5
        mids /= scales
        mids *= 2.0**-512
        h = _monic_at(mids, c2[cols], c1[cols], c0[cols])
        bad = ~np.where(mids <= x[cols], h > 0.0, h < 0.0)
        first = np.where(bad.any(axis=0), bad.argmax(axis=0), width)
        depth[cols] = np.minimum(top + first, levels[cols])
        top += width
        cols = cols[(depth[cols] == top) & (levels[cols] > top)]
    return depth


def _start_brackets(c2, c1, c0):
    """The deepest bracket on each monic cubic's own bisection path from
    [0, 1/2] whose every sign has been checked (see ``_solve_powers``)."""
    x = _root_estimates(c2, c1, c0)
    depth = _verified_depths(x, c2, c1, c0)
    lo = np.ldexp(np.floor(np.ldexp(x, depth + 1)), -depth - 1)
    return lo, lo + np.ldexp(1.0, -depth - 1)


def _solve_powers(noise: NoiseSpec, powers: list[float]):
    """Arrays of rho*, the gap and the cubic residual at each of ``powers``,
    solved together, then the gap-form coefficients and the root defect.

    The rho-form cubic f(r) = r^3 + a r^2 + b r + c has exactly one root in
    [0, 1] at every accepted (P, sigma1, sigma2, rho_z), so [0, 1] brackets it:
      f(0) = c > 0;
      f(1) = -(s1 + s2)^2 (spp + rho_z P + s1 s2) / (P spp) < 0, as
        spp = sqrt((P + s1^2)(P + s2^2)) >= P + s1 s2;
      f' is a convex quadratic with f'(0) = b < 0, so f falls until its
        minimum and then rises, staying below f(1) < 0: one sign change.
    The gap form is f(1 - g), negative at g = 0 and positive at g = 1.
    One mask over the grid decides which powers are solved, and the first it
    rejects in grid order is named in a ParameterError.  It rejects P spp
    (formed as P sqrt(P + s1^2) sqrt(P + s2^2), monotone in P) at 0 or inf;
    (s1 + s2)^2 s1 s2, the recursion's q s12 at rho = 1, not a normal float;
    a coefficient or the root defect not finite; and lambda0 = f(1),
    negative, not a normal float: at 0 it would make g = 0 a root, and
    subnormal it carries too few bits for the small gap it sets (at
    rho_z = -1 from P ~ 4.7e153 (s1 + s2)^2).  So c > 0 > lambda0 wherever
    the solver runs.

    Each root is bisected in its smaller variable, the other taken as its
    complement, so both keep full relative precision: near rho = 1 the rho
    form is a ~1e-16 difference of order-one terms and the gap form a sum of
    small same-scale ones, and near rho = 0 it is the other way round.

    Every evaluation of a cubic is of one monic cubic h (``_monic_at``):
    h = f in rho, and in g the gap form with its coefficients negated, which
    is exact, so h = -f bit for bit.  h in g at g = 1/2 picks the variable:
    where it is not negative, g >= 1/2 and the rho form bisects rho in
    [0, 1/2]; elsewhere the gap form bisects g in [0, 1/2].  The bisection
    of [0, 1/2] does not start there.  A Newton estimate of the root names
    the dyadic path the bisection would take towards it; h is evaluated at
    that path's midpoints, every level in one loop over blocks of levels
    (``_verified_depths``), and the bisection starts after the longest prefix
    of levels whose signs all agree with the path.  Every sign the bisection
    would test on that prefix has been evaluated with the same operations,
    so it ends on the same bits as from [0, 1/2]; a poor estimate only
    shortens the prefix.

    The rho-form cubic certifies each root: its residual must not exceed
    CUBIC_RESIDUAL_ACCEPT * (1 + |a| + |b| + |c|).  No other check is made:
    the cubic has one root in [0, 1] and the bisection ends on adjacent
    floats around it, so there is no other candidate to screen out.
    """
    s1, s2 = noise.sigma1, noise.sigma2
    p = np.array(powers, dtype=float)
    (a, b, c), (lambda0, lambda1, lambda2), defect = _coeffs(noise, p)
    with np.errstate(over="ignore"):
        pspp = p * np.sqrt(p + s1 * s1) * np.sqrt(p + s2 * s2)
    valid = np.isfinite([pspp, a, b, c, lambda0, lambda1, lambda2, defect]).all(axis=0)
    valid &= (pspp > 0.0) & (np.abs(lambda0) >= _FLOAT_MIN)
    valid &= _FLOAT_MIN <= (s1 * s1 + s2 * s2 + 2.0 * s1 * s2) * (s1 * s2) < math.inf
    if not valid.all():
        raise ParameterError(
            f"power P = {float(p[np.argmin(valid)])} with sigma1 = {s1}, sigma2 = {s2} is "
            "beyond the solver's float range: P*sqrt((P+sigma1^2)(P+sigma2^2)) must be "
            "positive and finite, (sigma1+sigma2)^2*sigma1*sigma2 a finite normal float, "
            "the fixed-point cubic's coefficients finite and lambda0 a normal float"
        )
    negated = -lambda2, -lambda1, -lambda0
    in_rho = _monic_at(0.5, *negated) >= 0.0
    c2, c1, c0 = (np.where(in_rho, r, g) for r, g in zip((a, b, c), negated))
    lo, hi = _start_brackets(c2, c1, c0)
    x = _bisect_brackets(lo, hi, c2, c1, c0)
    gap = np.where(in_rho, 1.0 - x, x)
    rho = np.where(in_rho, x, 1.0 - x)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.abs(_monic_at(rho, a, b, c))
        bound = CUBIC_RESIDUAL_ACCEPT * (1.0 + np.abs(a) + np.abs(b) + np.abs(c))
    failed = np.flatnonzero(residual > bound)
    if failed.size:
        i = failed[0]
        raise NoFixedPointError(
            f"cubic residual {float(residual[i])} exceeds tolerance {float(bound[i])} "
            f"at rho = {float(rho[i])}"
        )
    return (rho, gap, residual), (lambda0, lambda1, lambda2), defect


def solve_fixed_point(params: ChannelParams) -> FixedPoint:
    """Find the operating correlation magnitude rho* in [0, 1] and its gap
    g = 1 - rho*: ``_solve_powers`` at one power, which also solves the
    grids of ``sweep_rates`` and ``verify_asymptotics``, with the same result
    at each power."""
    (rho, gap, residual), _, _ = _solve_powers(params.noise, [params.power])
    r = rho.item()
    return FixedPoint(r, gap.item(), residual.item(), abs(abs(rho_recursion(r, params)) - r))


def solve_gap(params: ChannelParams) -> float:
    """The gap g = 1 - rho* of ``solve_fixed_point``, solved in its own
    variable wherever g < 1/2 so that it keeps full relative precision."""
    return solve_fixed_point(params).gap


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def _rates(powers: list[float], s1: float, s2: float, gaps: list[float]) -> list[tuple]:
    """(R1, R2, R1 + R2, pre-log ratio) at each power P and its gap
    g = 1 - rho, noise levels s1, s2: the one transcription of the rate
    formula, whose denominators P g / 2 + sigma^2 never form 1 - rho.  One
    loop over Python floats: numpy's log1p does not always give math's bits."""
    s11, s22 = s1 * s1, s2 * s2
    out = []
    for p, gap in zip(powers, gaps):
        half_gap_power = 0.5 * p * gap
        # log1p keeps full relative precision at low SNR, where the ratios
        # (P + s^2) / (P g/2 + s^2) and 1 + P lie within rounding of 1.
        r1 = 0.5 * math.log1p((p - half_gap_power) / (half_gap_power + s11)) / _LN2
        r2 = 0.5 * math.log1p((p - half_gap_power) / (half_gap_power + s22)) / _LN2
        total = r1 + r2
        out.append((r1, r2, total, total / (0.5 * math.log1p(p) / _LN2)))
    return out


def achievable_rates(params: ChannelParams, rho: float, gap: float) -> RatePoint:
    """Rate pair achievable at operating correlation rho and its gap
    g = 1 - rho (``FixedPoint.gap``)."""
    if not (0.0 <= rho <= 1.0):
        raise ParameterError(f"rho must lie in [0, 1], got {rho}")
    if not (0.0 <= gap <= 1.0):
        raise ParameterError(f"gap must lie in [0, 1], got {gap}")
    noise = params.noise
    return RatePoint(*_rates([params.power], noise.sigma1, noise.sigma2, [gap])[0])


def single_user_bound(params: ChannelParams, receiver: int) -> float:
    """Point-to-point capacity of the queried receiver's own channel, using
    that receiver's noise level."""
    if receiver == 1:
        s = params.noise.sigma1
    elif receiver == 2:
        s = params.noise.sigma2
    else:
        raise ParameterError(f"receiver must be 1 or 2, got {receiver}")
    # log1p, as in achievable_rates: log2(1 + P/s^2) is 0.0 once P/s^2 is
    # below rounding of 1.
    return 0.5 * math.log1p(params.power / (s * s)) / _LN2


def power_grid(p_start: float, p_stop: float, points_per_decade: int) -> list[float]:
    """Logarithmic power grid, ascending, endpoints included."""
    p_start, p_stop = _real(p_start, "p_start"), _real(p_stop, "p_stop")
    if not (0 < p_start < p_stop < math.inf):
        raise ParameterError("need 0 < p_start < p_stop < inf")
    if isinstance(points_per_decade, bool) or not (
        isinstance(points_per_decade, (int, np.integer)) and points_per_decade >= 1
    ):
        raise ParameterError(
            f"points_per_decade must be an integer of at least 1, got {points_per_decade!r}"
        )
    points_per_decade = int(points_per_decade)
    lg0 = math.log10(p_start)
    n = max(1, round((math.log10(p_stop) - lg0) * points_per_decade))
    inner = [10.0 ** (lg0 + i / points_per_decade) for i in range(1, n)]
    return [p_start] + inner + [p_stop]


def sweep_rates(
    noise: NoiseSpec,
    p_start: float,
    p_stop: float,
    points_per_decade: int = 4,
    delta: float = 0.2,
) -> list[SweepRow]:
    """Fixed point, gap, rates and pre-log ratio over a power grid.

    ``scaled_gap`` is P^(1-delta) * gap, the quantity whose decay to zero
    certifies that the gap shrinks faster than P^(delta-1).
    """
    p_start, p_stop = _real(p_start, "p_start"), _real(p_stop, "p_stop")
    if p_stop < 100.0 * p_start:
        raise ParameterError("sweep range must span at least two decades")
    if not (0.0 < delta <= 1.0):
        raise ParameterError(f"delta must lie in (0, 1], got {delta}")
    grid = power_grid(p_start, p_stop, points_per_decade)
    gap_exponent = 1.0 - delta
    (rho, gap, _), _, _ = _solve_powers(noise, grid)
    gaps = gap.tolist()
    rates = _rates(grid, noise.sigma1, noise.sigma2, gaps)
    new = tuple.__new__  # a row without the generated __new__'s Python call
    return [
        new(SweepRow, (p, r, g, r1, r2, total, ratio, p**gap_exponent * g))
        for p, r, g, (r1, r2, total, ratio) in zip(grid, rho.tolist(), gaps, rates)
    ]


# ---------------------------------------------------------------------------
# high-power limit verification
# ---------------------------------------------------------------------------


def _strictly_decreasing(values: list[float]) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def verify_asymptotics(
    noise: NoiseSpec,
    p_grid: list[float],
    delta: float = 0.2,
    eps: float = 0.1,
) -> AsymptoticsReport:
    """Tabulate the high-power behavior of the gap-form coefficients and the
    gap itself, with strict-monotonicity verdicts over the last three decades
    for each quantity that must vanish.  The grid is checked as the float64
    powers it is solved at, so entries that round to one float are equal."""
    p_grid = list(p_grid)
    reals = all(  # bools are rejected, as channel fields reject them
        issubclass(t, (int, float, np.integer, np.floating)) and not issubclass(t, bool)
        for t in set(map(type, p_grid))
    )
    try:
        p_grid = list(map(float, p_grid)) if reals else p_grid
    except OverflowError:  # an int beyond float range
        reals = False
    if not (reals and all(map(math.isfinite, p_grid)) and all(map((0.0).__lt__, p_grid))):
        raise ParameterError("p_grid powers must be positive finite reals")
    # finite floats, so a < b is exactly not (b <= a)
    if len(p_grid) < 2 or not all(map(float.__lt__, p_grid, p_grid[1:])):
        raise ParameterError("p_grid must be strictly increasing")
    if p_grid[-1] < 1e4 * p_grid[0]:
        raise ParameterError("p_grid must span at least four decades")
    if not (0.0 < delta < 1.0):
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")
    if not (0.0 < eps < delta):
        raise ParameterError(f"eps must lie in (0, delta), got {eps}")
    s1, s2 = noise.sigma1, noise.sigma2
    anti = noise.rho_z == -1.0
    half_noise_sum = 0.5 * (s1 * s1 + s2 * s2)
    # exponents of P in lambda0_scaled, lambda1_scaled and gap_scaled
    e0, e1, eg = 2.0 - delta - eps, 1.0 - 0.5 * eps, 1.0 - delta
    (_, gap, _), gap_coeffs, defect = _solve_powers(noise, p_grid)
    lambda0, lambda1, lambda2, defect, gap = (v.tolist() for v in (*gap_coeffs, defect, gap))
    new = tuple.__new__  # as in sweep_rates; pd is P * defect
    rows = [
        new(AsymptoticsRow, (
            p, l2, abs(l2 - 2.0), p**e1 * l1, (pd := p * d), abs(pd - half_noise_sum),
            p**e0 * l0 if anti else math.nan, g, p**eg * g,
        ))
        for p, l0, l1, l2, d, g in zip(p_grid, lambda0, lambda1, lambda2, defect, gap)
    ]
    tail = [r for r in rows if r.power >= p_grid[-1] / 1e3]
    monotone: dict[str, bool | None] = {
        "lambda2_err": _strictly_decreasing([r.lambda2_err for r in tail]),
        "lambda1_scaled_mag": _strictly_decreasing([abs(r.lambda1_scaled) for r in tail]),
        "root_defect_err": _strictly_decreasing([r.root_defect_err for r in tail]),
        "lambda0_scaled_mag": (
            _strictly_decreasing([abs(r.lambda0_scaled) for r in tail]) if anti else None
        ),
        "gap_scaled": _strictly_decreasing([r.gap_scaled for r in tail]) if anti else None,
    }
    return AsymptoticsReport(rows=tuple(rows), monotone=monotone)


# ---------------------------------------------------------------------------
# K-receiver pre-log classification
# ---------------------------------------------------------------------------


def prelog_classify(corr: np.ndarray) -> PrelogClass:
    """Classify the high-power pre-log of a K-receiver broadcast channel from
    the matrix of pairwise noise correlations.

    One when every pair of noises is imperfectly correlated; Two when no pair
    is perfectly positively correlated and at least one pair is perfectly
    anti-correlated; Undefined when some pair is perfectly positively
    correlated (a duplicated receiver, which the classification rules do not
    cover).  Perfect correlation means the entry is exactly +/-1.  The
    reason names the first such pair in row-major order.
    """
    m = np.asarray(corr, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParameterError(f"correlation matrix must be square, got shape {m.shape}")
    k = m.shape[0]
    if k < 2:
        raise ParameterError("need at least two receivers")
    if not np.all(np.isfinite(m)):
        raise ParameterError("correlation matrix contains non-finite entries")
    if np.max(np.abs(m - m.T)) > 1e-12:
        raise ParameterError("correlation matrix must be symmetric")
    if np.max(np.abs(np.diag(m) - 1.0)) > 1e-12:
        raise ParameterError("correlation matrix must have unit diagonal")
    if np.max(np.abs(m)) > 1.0 + 1e-12:
        raise ParameterError("correlation entries must lie in [-1, 1]")
    eig_min = float(np.min(np.linalg.eigvalsh(m)))
    if eig_min < -1e-9:
        raise ParameterError(f"correlation matrix is not PSD (min eigenvalue {eig_min})")
    iu = np.triu_indices(k, 1)
    for entry, value, text in (
        (1.0, PrelogValue.UNDEFINED, "have perfectly positively correlated noises (a "
         "duplicated receiver); no classification rule covers this case"),
        (-1.0, PrelogValue.TWO, "have perfectly anti-correlated noises and no pair is "
         "perfectly positively correlated"),
    ):
        hits = np.flatnonzero(m[iu] == entry)
        if hits.size:
            i, j = iu[0][hits[0]] + 1, iu[1][hits[0]] + 1
            return PrelogClass(value=value, reason=f"receivers {i} and {j} {text}")
    return PrelogClass(
        value=PrelogValue.ONE,
        reason="every pair of receiver noises is imperfectly correlated",
    )
