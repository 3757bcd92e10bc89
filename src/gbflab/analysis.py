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
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .channel import ChannelParams, NoiseSpec
from .errors import NoFixedPointError, NumericalIntegrityError, ParameterError

# Roots are accepted as genuine fixed points only if one application of the
# correlation recursion returns to them (in magnitude) within this residual.
RECURSION_RESIDUAL_ACCEPT = 1e-6
# Sign-change scan resolution over [0, 1] before bisection.
_SCAN_SUBINTERVALS = 1024
_RHO_INTEGRITY_TOL = 1e-12


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorState:
    """Second moments of the two receivers' estimation errors after one
    channel output: variances (alpha1, alpha2) and correlation rho."""

    alpha1: float
    alpha2: float
    rho: float
    step_index: int = 2

    def __post_init__(self) -> None:
        if not (self.alpha1 >= 0.0 and self.alpha2 >= 0.0):
            raise ParameterError("error variances must be nonnegative")
        if abs(self.rho) > 1.0 + _RHO_INTEGRITY_TOL:
            raise NumericalIntegrityError(
                f"|rho| = {abs(self.rho)} exceeds 1 beyond tolerance"
            )
        if self.step_index < 2:
            raise ParameterError("step_index starts at 2")


@dataclass(frozen=True)
class CubicCoeffs:
    """Coefficients of rho^3 + a rho^2 + b rho + c, whose root in [0, 1] is
    the fixed-point correlation magnitude."""

    a: float
    b: float
    c: float

    def evaluate(self, rho):
        return ((rho + self.a) * rho + self.b) * rho + self.c


@dataclass(frozen=True)
class GapCubicCoeffs:
    """Coefficients of the same cubic rewritten in the gap g = 1 - rho:
    0 = -g^3 + lambda2 g^2 + lambda1 g + lambda0."""

    lambda0: float
    lambda1: float
    lambda2: float

    def evaluate(self, g):
        return ((-g + self.lambda2) * g + self.lambda1) * g + self.lambda0


@dataclass(frozen=True)
class FixedPoint:
    """A solved fixed-point correlation with its certification residuals."""

    rho_star: float
    gap: float
    residual: float
    recursion_residual: float


@dataclass(frozen=True)
class RatePoint:
    """Achievable rate pair at a given power, plus the finite-power quotient
    of the sum rate by the single-channel log capacity growth."""

    power: float
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


@dataclass(frozen=True)
class AsymptoticsRow:
    """High-power limit diagnostics at one grid power."""

    power: float
    lambda2: float
    lambda2_err: float          # |lambda2 - 2|
    lambda1_scaled: float       # P^(1 - eps/2) * lambda1
    root_defect: float          # P * (1 - P / sqrt((P+s1^2)(P+s2^2)))
    root_defect_err: float      # |root_defect - (s1^2 + s2^2)/2|
    lambda0_scaled: float       # P^(2 - delta - eps) * lambda0 (anti-correlated only)
    gap: float
    gap_scaled: float           # P^(1 - delta) * gap


@dataclass(frozen=True)
class AsymptoticsReport:
    noise: NoiseSpec
    delta: float
    eps: float
    rows: tuple[AsymptoticsRow, ...]
    # name -> strictly-decreasing verdict over the last three decades
    # (None when the quantity does not apply to this noise correlation)
    monotone: dict[str, bool | None] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepRow:
    """One power grid point of a rate sweep."""

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


def _sqrt_pi_product(power: float, s1: float, s2: float) -> float:
    # Factored square roots never overflow for power up to ~1e308 and carry
    # full relative precision, which the plain product under one root loses
    # first.
    return math.sqrt(power + s1 * s1) * math.sqrt(power + s2 * s2)


def _root_defect(power: float, s1: float, s2: float) -> float:
    """1 - P / sqrt((P+s1^2)(P+s2^2)), computed without cancellation.

    Equal to (P(s1^2+s2^2) + s1^2 s2^2) / (spp (spp + P)); the direct form
    subtracts two quantities that agree to ~s^2/P relative and therefore
    loses all significance at large P.
    """
    spp = _sqrt_pi_product(power, s1, s2)
    return (power * (s1 * s1 + s2 * s2) + (s1 * s1) * (s2 * s2)) / (spp * (spp + power))


def cubic_coeffs(params: ChannelParams) -> CubicCoeffs:
    """Coefficients (a, b, c) of the fixed-point cubic in rho."""
    p = params.power
    s1, s2, rz = params.noise.sigma1, params.noise.sigma2, params.noise.rho_z
    spp = _sqrt_pi_product(p, s1, s2)
    s11, s22, s12 = s1 * s1, s2 * s2, s1 * s2
    a = -2.0 * s12 / p - (p + s11 + s22 + rz * s12) / spp - 2.0 * s11 * s22 / (p * spp)
    b = (
        -1.0
        - (s11 + s22) / p
        - rz * (s11 + s22) / spp
        - s12 * (s11 + s22) / (p * spp)
    )
    c = (p + s11 + s22 - rz * s12) / spp
    return CubicCoeffs(a=a, b=b, c=c)


def gap_cubic_coeffs(params: ChannelParams) -> GapCubicCoeffs:
    """Coefficients of the gap form, transcribed term by term (not derived
    from (a, b, c)) so the two forms cross-check each other."""
    p = params.power
    s1, s2, rz = params.noise.sigma1, params.noise.sigma2, params.noise.rho_z
    spp = _sqrt_pi_product(p, s1, s2)
    s11, s22, s12 = s1 * s1, s2 * s2, s1 * s2
    defect = _root_defect(p, s1, s2)
    lambda2 = (
        3.0 - 2.0 * s12 / p - (p + s11 + s22 + rz * s12) / spp - 2.0 * s11 * s22 / (p * spp)
    )
    lambda1 = (
        -2.0 * defect
        + ((2.0 + rz) * s11 + (2.0 + rz) * s22 + 2.0 * rz * s12) / spp
        + (s11 + s22 + 4.0 * s12) / p
        + s12 * (s11 + 4.0 * s12 + s22) / (p * spp)
    )
    # 1 + rz * P / spp == (1 + rz) - rz * defect; at rz = -1 this is exactly
    # the stable defect instead of a fully cancelled subtraction.
    sq = s11 + 2.0 * s12 + s22
    lambda0 = -(sq / p) * ((1.0 + rz) - rz * defect) - s12 * sq / (p * spp)
    return GapCubicCoeffs(lambda0=lambda0, lambda1=lambda1, lambda2=lambda2)


def rho_recursion(rho, params: ChannelParams):
    """One application of the error-correlation recursion.

    Accepts scalars or numpy arrays; sign(0) is taken as +1.  The map is odd
    in rho away from 0, and a fixed point rho* in [0, 1] satisfies
    rho_recursion(rho*) = -rho*.

    The bracketed term is evaluated through the identity
    |rho| B - (s1 + s2|rho|)(s2 + s1|rho|) = -s1 s2 (1 - rho^2), which leaves
    only small, same-scale summands near |rho| = 1; the literal difference of
    the two O(s^2)-sized products would lose ~6 digits of the result there.
    """
    p = params.power
    s1, s2, rz = params.noise.sigma1, params.noise.sigma2, params.noise.rho_z
    rho = np.asarray(rho, dtype=float)
    ar = np.abs(rho)
    sg = np.where(rho >= 0.0, 1.0, -1.0)
    s11, s22, s12 = s1 * s1, s2 * s2, s1 * s2
    pi1, pi2 = p + s11, p + s22
    spp = math.sqrt(pi1) * math.sqrt(pi2)
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
    rho_next = rho_recursion(state.rho, params)
    if abs(rho_next) > 1.0 + _RHO_INTEGRITY_TOL:
        raise NumericalIntegrityError(
            f"correlation update produced |rho| = {abs(rho_next)} > 1"
        )
    rho_next = min(1.0, max(-1.0, rho_next))
    return ErrorState(
        alpha1=state.alpha1 * ratio1,
        alpha2=state.alpha2 * ratio2,
        rho=rho_next,
        step_index=state.step_index + 1,
    )


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------


def _bisect_to_float_limit(f, lo: float, hi: float) -> float:
    """Bracketed bisection until the interval collapses to adjacent floats,
    with no step limit: a root g in [0, 2^-10] takes log2(2^-10 / g) + 53
    halvings, up to about 1,075 for the smallest floats."""
    flo = f(lo)
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def _scan_unit_interval_brackets(f) -> list[tuple[float, float]]:
    """Brackets (lo, hi) of the roots of f in [0, 1] from a sign-change scan
    over 1024 subintervals; an exact zero at a grid point x is (x, x)."""
    xs = np.linspace(0.0, 1.0, _SCAN_SUBINTERVALS + 1)
    ys = f(xs)
    zero = ys == 0.0
    neg = ys < 0.0
    change = (neg[:-1] != neg[1:]) & ~zero[:-1] & ~zero[1:]
    los = np.concatenate([xs[zero], xs[:-1][change]])
    his = np.concatenate([xs[zero], xs[1:][change]])
    return list(zip(los.tolist(), his.tolist()))


def _validate_tol(tol: float) -> None:
    if not (0.0 < tol <= 1e-6):
        raise ParameterError(f"tol must lie in (0, 1e-6], got {tol}")
    if tol < 1e-14:
        raise ParameterError("tol below 1e-14 is not certifiable in double precision")


def _recursion_residual(rho: float, params: ChannelParams) -> float:
    return abs(abs(rho_recursion(rho, params)) - rho)


def solve_fixed_point(params: ChannelParams, tol: float = 1e-10) -> FixedPoint:
    """Find the operating correlation magnitude rho* in [0, 1] and its gap
    g = 1 - rho*.

    One sign-change scan of the gap-form cubic brackets the roots.  Each
    bracket is bisected in the smaller variable and the other is taken as
    its complement, so both keep full relative precision: the gap form for
    g < 1/2 (near rho = 1 the rho form is a ~1e-16 difference of order-one
    terms, the gap form a sum of small same-scale ones), the rho form on the
    exact bracket [1 - g_hi, 1 - g_lo] otherwise.  A genuine fixed point
    alternates in sign with constant magnitude, so candidates whose
    recursion residual exceeds RECURSION_RESIDUAL_ACCEPT are dropped; the
    genuine root with the smallest gap (it maximizes both rates) is returned
    once the rho-form cubic certifies it within ``tol``.
    """
    _validate_tol(tol)
    coeffs = cubic_coeffs(params)
    gap_coeffs = gap_cubic_coeffs(params)
    candidates = []
    for g_lo, g_hi in _scan_unit_interval_brackets(gap_coeffs.evaluate):
        if g_lo >= 0.5:
            rho = _bisect_to_float_limit(coeffs.evaluate, 1.0 - g_hi, 1.0 - g_lo)
            g = 1.0 - rho
        else:
            g = _bisect_to_float_limit(gap_coeffs.evaluate, g_lo, g_hi)
            rho = 1.0 - g
        candidates.append((g, rho, _recursion_residual(rho, params)))
    genuine = [c for c in candidates if c[2] <= RECURSION_RESIDUAL_ACCEPT]
    if not genuine:
        raise NoFixedPointError(
            "no root of the fixed-point cubic in [0, 1] is consistent with the "
            f"correlation recursion (candidates (gap, rho, residual): {candidates!r})"
        )
    gap, rho_star, rec_res = min(genuine)
    residual = abs(coeffs.evaluate(rho_star))
    scale = 1.0 + abs(coeffs.a) + abs(coeffs.b) + abs(coeffs.c)
    if residual > tol * scale:
        raise NoFixedPointError(
            f"cubic residual {residual} exceeds tolerance {tol * scale} at rho = {rho_star}"
        )
    return FixedPoint(
        rho_star=rho_star, gap=gap, residual=residual, recursion_residual=rec_res
    )


def solve_gap(params: ChannelParams, tol: float = 1e-10) -> float:
    """The gap g = 1 - rho* of ``solve_fixed_point``, solved in its own
    variable wherever g < 1/2 so that it keeps full relative precision."""
    return solve_fixed_point(params, tol).gap


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def achievable_rates(params: ChannelParams, rho: float, gap: float) -> RatePoint:
    """Rate pair achievable at operating correlation rho and its gap
    g = 1 - rho (``FixedPoint.gap``), whose denominators P * gap / 2 + sigma^2
    never form 1 - rho."""
    if not (0.0 <= rho <= 1.0):
        raise ParameterError(f"rho must lie in [0, 1], got {rho}")
    if not (0.0 <= gap <= 1.0):
        raise ParameterError(f"gap must lie in [0, 1], got {gap}")
    p = params.power
    s1, s2 = params.noise.sigma1, params.noise.sigma2
    half_gap_power = 0.5 * p * gap
    # log1p keeps full relative precision at low SNR, where the ratios
    # (P + s^2) / (P g/2 + s^2) and 1 + P lie within rounding of 1.
    r1 = 0.5 * math.log1p((p - half_gap_power) / (half_gap_power + s1 * s1)) / math.log(2.0)
    r2 = 0.5 * math.log1p((p - half_gap_power) / (half_gap_power + s2 * s2)) / math.log(2.0)
    total = r1 + r2
    return RatePoint(
        power=p,
        r1=r1,
        r2=r2,
        sum=total,
        prelog_ratio=total / (0.5 * math.log1p(p) / math.log(2.0)),
    )


def single_user_bound(params: ChannelParams, receiver: int) -> float:
    """Point-to-point capacity of the queried receiver's own channel, using
    that receiver's noise level."""
    if receiver == 1:
        s = params.noise.sigma1
    elif receiver == 2:
        s = params.noise.sigma2
    else:
        raise ParameterError(f"receiver must be 1 or 2, got {receiver}")
    return 0.5 * math.log2(1.0 + params.power / (s * s))


def power_grid(p_start: float, p_stop: float, points_per_decade: int) -> list[float]:
    """Logarithmic power grid, ascending, endpoints included."""
    if not (0 < p_start < p_stop < math.inf):
        raise ParameterError("need 0 < p_start < p_stop < inf")
    if points_per_decade < 1:
        raise ParameterError("points_per_decade must be at least 1")
    lg0 = math.log10(p_start)
    n = max(1, round((math.log10(p_stop) - lg0) * points_per_decade))
    return [p_start] + [10.0 ** (lg0 + i / points_per_decade) for i in range(1, n)] + [p_stop]


def sweep_rates(
    noise: NoiseSpec,
    p_start: float,
    p_stop: float,
    points_per_decade: int = 4,
    delta: float = 0.2,
    tol: float = 1e-10,
) -> list[SweepRow]:
    """Fixed point, gap, rates and pre-log ratio over a power grid.

    ``scaled_gap`` is P^(1-delta) * gap, the quantity whose decay to zero
    certifies that the gap shrinks faster than P^(delta-1).
    """
    if p_stop < 100.0 * p_start:
        raise ParameterError("sweep range must span at least two decades")
    if not (0.0 < delta <= 1.0):
        raise ParameterError(f"delta must lie in (0, 1], got {delta}")
    rows = []
    for p in power_grid(p_start, p_stop, points_per_decade):
        params = ChannelParams(power=p, noise=noise)
        fp = solve_fixed_point(params, tol)
        rp = achievable_rates(params, fp.rho_star, gap=fp.gap)
        rows.append(
            SweepRow(
                power=p,
                rho_star=fp.rho_star,
                gap=fp.gap,
                r1=rp.r1,
                r2=rp.r2,
                sum=rp.sum,
                prelog_ratio=rp.prelog_ratio,
                scaled_gap=p ** (1.0 - delta) * fp.gap,
            )
        )
    return rows


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
    for each quantity that must vanish."""
    if len(p_grid) < 2 or any(b <= a for a, b in zip(p_grid, p_grid[1:])):
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
    rows = []
    for p in p_grid:
        params = ChannelParams(power=p, noise=noise)
        lam = gap_cubic_coeffs(params)
        defect_term = p * _root_defect(p, s1, s2)
        g = solve_gap(params)
        rows.append(
            AsymptoticsRow(
                power=p,
                lambda2=lam.lambda2,
                lambda2_err=abs(lam.lambda2 - 2.0),
                lambda1_scaled=p ** (1.0 - 0.5 * eps) * lam.lambda1,
                root_defect=defect_term,
                root_defect_err=abs(defect_term - half_noise_sum),
                lambda0_scaled=(p ** (2.0 - delta - eps) * lam.lambda0) if anti else math.nan,
                gap=g,
                gap_scaled=p ** (1.0 - delta) * g,
            )
        )
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
    return AsymptoticsReport(
        noise=noise, delta=delta, eps=eps, rows=tuple(rows), monotone=monotone
    )


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
    cover).  Perfect correlation means the entry is exactly +/-1.
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
    off = m[iu]
    pos_pairs = [(int(i), int(j)) for i, j, v in zip(iu[0], iu[1], off) if v == 1.0]
    if pos_pairs:
        i, j = pos_pairs[0]
        return PrelogClass(
            value=PrelogValue.UNDEFINED,
            reason=(
                f"receivers {i + 1} and {j + 1} have perfectly positively correlated "
                "noises (a duplicated receiver); no classification rule covers this case"
            ),
        )
    neg_pairs = [(int(i), int(j)) for i, j, v in zip(iu[0], iu[1], off) if v == -1.0]
    if neg_pairs:
        i, j = neg_pairs[0]
        return PrelogClass(
            value=PrelogValue.TWO,
            reason=(
                f"receivers {i + 1} and {j + 1} have perfectly anti-correlated noises "
                "and no pair is perfectly positively correlated"
            ),
        )
    return PrelogClass(
        value=PrelogValue.ONE,
        reason="every pair of receiver noises is imperfectly correlated",
    )
