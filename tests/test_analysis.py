import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbflab import (
    ChannelParams,
    DegenerateMessageError,
    ErrorState,
    MessageConfig,
    NoiseSpec,
    NumericalIntegrityError,
    ParameterError,
    PrelogValue,
    RngSpec,
    achievable_rates,
    gamma,
    lmmse_coefficient_schedule,
    message_point_variance,
    prelog_classify,
    rho_recursion,
    run_broadcast_trial,
    single_user_bound,
    solve_fixed_point,
    solve_gap,
    step_error_state,
    sweep_rates,
    verify_asymptotics,
)
from gbflab import analysis
from gbflab.analysis import power_grid

HEADLINE = NoiseSpec(1.0, 1.0, -1.0)


def params_of(p, s1=1.0, s2=1.0, rz=-1.0):
    return ChannelParams(p, NoiseSpec(s1, s2, rz))


def cubic_forms(params):
    """The rho-form (a, b, c) and gap-form (lambda0, lambda1, lambda2)
    coefficients at one power, as Python floats, from the solver's one
    coefficient pass."""
    rho_form, gap_form, _ = analysis._coeffs(params.noise, np.array([params.power]))
    return tuple(v.item() for v in rho_form), tuple(v.item() for v in gap_form)


def gap_form_at(gap_form, g):
    """-g^3 + lambda2 g^2 + lambda1 g + lambda0, the gap form at g."""
    lambda0, lambda1, lambda2 = gap_form
    return ((-g + lambda2) * g + lambda1) * g + lambda0


def recursion_root_oracle(params, lo=0.0, hi=1.0, points=1_000_001):
    """Independent fixed-point oracle: dense scan of | |step(rho)| - rho |
    followed by bisection on the recursion itself (never the cubic)."""
    rr = np.linspace(lo, hi, points)
    vals = np.abs(rho_recursion(rr, params)) - rr
    roots = []
    for i in np.flatnonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:])):
        a, b = rr[i], rr[i + 1]
        fa = float(vals[i])
        for _ in range(100):
            mid = 0.5 * (a + b)
            fm = abs(rho_recursion(mid, params)) - mid
            if (fa < 0) == (fm < 0):
                a, fa = mid, fm
            else:
                b = mid
        roots.append(0.5 * (a + b))
    return roots


# ---------------------------------------------------------------------------
# gamma, cubic coefficients
# ---------------------------------------------------------------------------


def test_gamma_examples():
    assert gamma(NoiseSpec(2, 1, 0)) == 2.0
    assert gamma(NoiseSpec(1, 1, 0)) == 1.0
    assert gamma(NoiseSpec(1, 4, 0)) == 0.25


def test_cubic_coeffs_at_p10():
    (a, b, c), _ = cubic_forms(params_of(10.0))
    assert a == pytest.approx(-67.0 / 55.0, rel=1e-14)
    assert b == pytest.approx(-57.0 / 55.0, rel=1e-14)
    assert c == pytest.approx(13.0 / 11.0, rel=1e-14)


def test_cubic_coeffs_high_power_limit():
    (a, b, c), _ = cubic_forms(params_of(1e12))
    assert abs(a + 1.0) < 1e-6
    assert abs(b + 1.0) < 1e-6
    assert abs(c - 1.0) < 1e-6


def test_cubic_constant_term_positive_for_anticorrelated():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = 10 ** rng.uniform(-2, 8)
        s1, s2 = rng.uniform(0.2, 5, size=2)
        assert cubic_forms(params_of(p, s1, s2, -1.0))[0][2] > 0.0


# ---------------------------------------------------------------------------
# error-state recursion
# ---------------------------------------------------------------------------


def test_step_at_zero_correlation_symmetric():
    p, s = 10.0, 1.0
    state = ErrorState(alpha1=0.4, alpha2=0.9, rho=0.0)
    params = params_of(p, s, s, -1.0)
    nxt = step_error_state(state, params)
    expected_ratio = (p + 2 * s * s) / (2 * (p + s * s))
    assert nxt.alpha1 / state.alpha1 == pytest.approx(expected_ratio, rel=1e-14)
    assert nxt.alpha2 / state.alpha2 == pytest.approx(expected_ratio, rel=1e-14)
    rz = -1.0
    expected_rho = -p * (p + 2 * s * s - rz * s * s) / ((p + 2 * s * s) * (p + s * s))
    assert nxt.rho == pytest.approx(expected_rho, rel=1e-13)


def test_step_at_full_correlation_symmetric():
    p, s = 7.0, 1.3
    params = params_of(p, s, s, 0.2)
    for rho in (1.0, -1.0):
        state = ErrorState(alpha1=0.5, alpha2=0.25, rho=rho)
        nxt = step_error_state(state, params)
        assert nxt.alpha1 / state.alpha1 == pytest.approx(s * s / (p + s * s), rel=1e-13)
        assert nxt.alpha2 / state.alpha2 == pytest.approx(s * s / (p + s * s), rel=1e-13)


def test_step_at_full_correlation_asymmetric_uses_own_noise():
    # At |rho| = 1 the exact one-output LMMSE shrinks each variance by its own
    # receiver's factor sigma_k^2 / (P + sigma_k^2).
    p, s1, s2 = 10.0, 1.0, 2.0
    params = params_of(p, s1, s2, -0.5)
    state = ErrorState(alpha1=1.0, alpha2=1.0, rho=1.0)
    nxt = step_error_state(state, params)
    assert nxt.alpha1 == pytest.approx(s1 * s1 / (p + s1 * s1), rel=1e-13)
    assert nxt.alpha2 == pytest.approx(s2 * s2 / (p + s2 * s2), rel=1e-13)


def test_nan_correlation_is_rejected():
    # At this corner rho_recursion overflows to NaN, which a clamp into
    # [-1, 1] turned into rho = -1.0; the true correlation is about +1.
    params = ChannelParams(3.56e78, NoiseSpec(5.19e-71, 1.47e-69, 0.0))
    message = r"^\|rho\| = nan exceeds 1 beyond tolerance$"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalIntegrityError, match=message):
            step_error_state(ErrorState(1.0, 1.0, -1.0), params)
    with pytest.raises(NumericalIntegrityError, match=message):
        ErrorState(1.0, 1.0, math.nan)


def test_error_state_stores_rho_clamped_to_unit_interval():
    for rho, stored in ((1.0 + 1e-13, 1.0), (-1.0 - 1e-13, -1.0), (0.3, 0.3), (-0.0, -0.0)):
        got = ErrorState(1.0, 1.0, rho).rho
        assert got == stored and math.copysign(1.0, got) == math.copysign(1.0, stored)


def test_rho_recursion_matches_literal_transcription():
    # The stable rearrangement must agree with the literal formula wherever
    # the latter retains precision.
    rng = np.random.default_rng(17)
    params_draws = []
    for _ in range(300):
        p = 10 ** rng.uniform(-1, 6)
        s1, s2 = rng.uniform(0.3, 3, size=2)
        rz = rng.uniform(-1, 1)
        rho = rng.uniform(-1, 1)
        params = params_of(p, s1, s2, rz)
        ar, sg = abs(rho), (1.0 if rho >= 0 else -1.0)
        b = s1 * s1 + s2 * s2 + 2 * s1 * s2 * ar
        q = p * (1 - rho * rho) + b
        pi1, pi2 = p + s1 * s1, p + s2 * s2
        spp = math.sqrt(pi1) * math.sqrt(pi2)
        s_total = p + s1 * s1 + s2 * s2 - rz * s1 * s2
        core = rho * b - (s1 + s2 * ar) * (s2 + s1 * ar) * sg * p * s_total / (pi1 * pi2)
        literal = spp / (q * s1 * s2) * core
        stable = rho_recursion(rho, params)
        assert stable == pytest.approx(literal, rel=1e-9, abs=1e-9)
        params_draws.append(params)


def test_rho_recursion_is_odd():
    params = params_of(42.0, 1.2, 0.8, 0.1)
    for rho in (0.1, 0.5, 0.99, 1.0):
        assert rho_recursion(-rho, params) == pytest.approx(-rho_recursion(rho, params), rel=1e-14)


def test_rho_recursion_on_a_float_equals_the_array_path_bit_for_bit():
    # A float (step_error_state's rho) runs through the same body as an
    # array, without a 0-d array; every bit must agree, the sign of a zero
    # too.  The array path stays for recursion_root_oracle's scan.
    special = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300]
    rng = np.random.default_rng(2024)
    for i in range(2000):
        p = 10 ** float(rng.uniform(-3, 14))
        s1, s2 = (10 ** rng.uniform(-1, 1, size=2)).tolist()
        rz = (-1.0, 1.0, float(rng.uniform(-1, 1)))[i % 3]
        params = params_of(p, s1, s2, rz)
        rhos = special + rng.uniform(-1, 1, size=6).tolist()
        on_array = rho_recursion(np.array(rhos), params)
        for rho, want in zip(rhos, on_array):
            got = rho_recursion(rho, params)
            assert type(got) is float
            assert np.float64(got).tobytes() == want.tobytes(), (p, s1, s2, rz, rho)


def test_step_error_state_returns_python_floats():
    params = params_of(42.0, 1.2, 0.8, -0.4)
    state = ErrorState(alpha1=0.5, alpha2=0.25, rho=0.0)
    for _ in range(5):
        state = step_error_state(state, params)
        assert [type(v) for v in (state.alpha1, state.alpha2, state.rho)] == [float] * 3


def test_error_state_stores_float32_moments_as_their_float_values():
    # float32 variances, or a float32 rho alone, made step_error_state return
    # float32 variances; each moment is stored as its Python float, so both
    # states step as the float64 state of the same values, bit for bit.
    params = params_of(42.0, 1.2, 0.8, -0.4)
    rho = np.float32(0.3)
    for state in (ErrorState(np.float32(0.5), np.float32(0.25), rho), ErrorState(0.5, 0.25, rho)):
        ref = ErrorState(0.5, 0.25, float(rho))
        for _ in range(3):
            got = (state.alpha1, state.alpha2, state.rho)
            assert [type(v) for v in got] == [float] * 3
            assert [v.hex() for v in got] == [v.hex() for v in (ref.alpha1, ref.alpha2, ref.rho)]
            state, ref = step_error_state(state, params), step_error_state(ref, params)


@settings(max_examples=100, deadline=None)
@given(
    logp=st.floats(-1, 7),
    s1=st.floats(0.3, 3.0),
    s2=st.floats(0.3, 3.0),
    rz=st.floats(-1.0, 0.99),
)
def test_existence_bracketing(logp, s1, s2, rz):
    # The continuity argument for a fixed point rests on |step(0)| > 0 and
    # |step(1)| < 1; both hold numerically away from the degenerate corner
    # rho_z = 1 with equal sigmas.
    params = params_of(10.0**logp, s1, s2, rz)
    assert abs(rho_recursion(0.0, params)) > 0.0
    assert abs(rho_recursion(1.0, params)) < 1.0


@settings(max_examples=100, deadline=None)
@given(
    logp=st.floats(-1, 8),
    s=st.floats(0.3, 3.0),
    rho=st.floats(0.0, 1.0),
)
def test_symmetric_contraction(logp, s, rho):
    p = 10.0**logp
    params = params_of(p, s, s, -1.0)
    state = ErrorState(alpha1=1.0, alpha2=1.0, rho=rho)
    nxt = step_error_state(state, params)
    expected = (p * (1 - rho) + 2 * s * s) / (2 * (p + s * s))
    assert nxt.alpha1 == pytest.approx(expected, rel=1e-12)
    assert nxt.alpha1 < 1.0


# ---------------------------------------------------------------------------
# fixed point and gap
# ---------------------------------------------------------------------------


def test_cubic_has_one_root_in_unit_interval():
    # The certificate behind the solver's one bracket [0, 1], in 700 digits
    # over the accepted domain: f(0) = c > 0; f(1) = 1 + a + b + c equals
    # -(s1 + s2)^2 (spp + rho_z P + s1 s2) / (P spp), negative because
    # spp >= P + s1 s2; f'(0) = b < 0, so the convex f' has one positive
    # root, f falls until it and then rises, and crosses zero once in [0, 1].
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(16)
    with mp.workdps(700):
        for i in range(500):
            p = mp.mpf(10.0 ** rng.uniform(-300, 153))
            s1, s2 = (mp.mpf(s) for s in 10.0 ** rng.uniform(-3, 3, size=2))
            rz = mp.mpf((1.0, -1.0, rng.uniform(-1, 1), -1.0 + 1e-15, 1.0 - 1e-15)[i % 5])
            s11, s22, s12 = s1 * s1, s2 * s2, s1 * s2
            spp = mp.sqrt((p + s11) * (p + s22))
            a = -2 * s12 / p - (p + s11 + s22 + rz * s12) / spp - 2 * s11 * s22 / (p * spp)
            b = -1 - (s11 + s22) / p - rz * (s11 + s22) / spp - s12 * (s11 + s22) / (p * spp)
            c = (p + s11 + s22 - rz * s12) / spp
            f1 = -((s1 + s2) ** 2) * (spp + rz * p + s12) / (p * spp)
            draw = (p, s1, s2, rz)
            assert c > 0 and b < 0, draw
            assert spp >= p + s12, draw
            assert f1 < 0, draw
            assert abs(1 + a + b + c - f1) <= mp.mpf(10) ** -300 * abs(f1), draw


def test_fixed_point_headline_against_recursion_scan_oracle():
    params = params_of(10.0)
    fp = solve_fixed_point(params)
    oracle_roots = recursion_root_oracle(params)
    assert len(oracle_roots) == 1
    assert fp.rho_star == pytest.approx(oracle_roots[0], abs=1e-9)
    assert round(fp.rho_star, 3) == 0.889
    assert fp.gap == pytest.approx(0.111, abs=5e-4)


def test_fixed_point_consistency_and_sign_flip():
    params = params_of(10.0)
    fp = solve_fixed_point(params)
    nxt = rho_recursion(fp.rho_star, params)
    assert abs(abs(nxt) - fp.rho_star) < 1e-9
    assert nxt < 0


def test_fixed_point_near_degenerate_high_power():
    fp = solve_fixed_point(params_of(1e10))
    assert abs(fp.rho_star - 1.0) < 1e-6
    assert fp.gap > 0.0
    # sigma1 = sigma2 = 1, anti-correlated: the gap times P approaches the
    # positive root of 2 g^2 + 4 g - 8 scaled by 1/P, i.e. sqrt(5) - 1.
    assert fp.gap * 1e10 == pytest.approx(math.sqrt(5.0) - 1.0, rel=1e-5)
    # Far enough up, the leading-order limits hold to rounding and bisecting
    # the bracket [0, 2^-10] down to the gap takes more than 200 halvings:
    # the gap times P is sqrt(5) - 1 when anti-correlated, and the gap times
    # sqrt(P) is 2 when positively correlated.
    for p in (1e60, 1e100, 1e150):
        assert solve_gap(params_of(p)) * p == pytest.approx(math.sqrt(5.0) - 1.0, rel=1e-14)
    for p in (1e120, 1e150):
        assert solve_gap(params_of(p, rz=1.0)) * math.sqrt(p) == pytest.approx(2.0, rel=1e-14)


def test_gap_just_below_float_range_anticorrelated():
    # spp (spp + P) in the root defect's denominator overflows from about
    # P = 9.5e153; it is formed at a quarter of its size, so the defect keeps
    # its value up to the end of the accepted range.
    for p in (1e153, 1e154, 1.3e154):
        assert solve_gap(params_of(p)) * p == pytest.approx(math.sqrt(5.0) - 1.0, rel=1e-14)


def _float_range_message(p, s1, s2):
    return (
        f"power P = {p} with sigma1 = {s1}, sigma2 = {s2} is beyond the solver's float "
        "range: P*sqrt((P+sigma1^2)(P+sigma2^2)) must be positive and finite, "
        "(sigma1+sigma2)^2*sigma1*sigma2 a finite normal float, the fixed-point cubic's "
        "coefficients finite and lambda0 a normal float"
    )


def test_solver_rejects_power_beyond_float_range():
    with pytest.raises(ParameterError, match=r"P = 1e\+300 with sigma1 = 1.0, sigma2 = 1.0"):
        solve_fixed_point(params_of(1e300))
    # The first rejected power of the grid is named: P spp overflows from
    # about 1.3e154.
    with pytest.raises(ParameterError, match=r"P = 1.7782794100389228e\+154 .*float range"):
        sweep_rates(HEADLINE, 1e140, 1e155)
    with pytest.raises(ParameterError, match=r"sigma1 = 1e\+100, sigma2 = 1e\+100"):
        solve_fixed_point(params_of(1.0, 1e100, 1e100))
    with pytest.raises(ParameterError, match=r"P = 1e-320 .*float range"):
        solve_fixed_point(params_of(1e-320, 1e-3, 1e-3))
    # Neither sigma^2 underflows, but (s1 + s2)^2 s1 s2, the recursion's
    # q s12 at rho = 1, does.
    with pytest.raises(ParameterError, match=r"P = 1e\+100 with sigma1 = 1e-100, sigma2 = 1e-100"):
        solve_fixed_point(params_of(1e100, 1e-100, 1e-100))
    # P sqrt((P+1)(P+1)) = 1e308 is still in range at P = 1e154.
    solve_fixed_point(params_of(1e154))
    # One mask decides, with one message, whichever condition fails: P spp
    # overflows, P spp underflows to 0, the sigma product underflows, lambda1
    # overflows, lambda0 is subnormal.  At the sixth power P sqrt(P + s1^2)
    # sqrt(P + s2^2) is positive but the coefficients' P (sqrt sqrt) is 0,
    # and the divisions by it must not warn.
    for p, s1, s2 in (
        (1e300, 1.0, 1.0), (1e-320, 1e-3, 1e-3), (1e100, 1e-100, 1e-100),
        (1e-309, 1.0, 1.0), (8e152, 0.2, 0.2),
        (2.3018725392278707e-282, 1.8762564203713423e-32, 5.719804669057521e-11),
    ):
        with pytest.raises(ParameterError) as exc:
            solve_fixed_point(params_of(p, s1, s2))
        assert str(exc.value) == _float_range_message(p, s1, s2)
    # Both ends of this grid are rejected; the first in grid order is named.
    with pytest.raises(ParameterError) as exc:
        verify_asymptotics(NoiseSpec(1e-3, 1e-3, -1.0), [1e-320, 1.0, 1e300])
    assert str(exc.value) == _float_range_message(1e-320, 1e-3, 1e-3)


def test_fixed_point_contrast_uncorrelated_moderate_power():
    fp = solve_fixed_point(params_of(1e6, rz=0.0))
    assert 1.0 - fp.rho_star > 1e-3


def test_gap_headline_value():
    g = solve_gap(params_of(10.0))
    fp = solve_fixed_point(params_of(10.0))
    assert g == pytest.approx(1.0 - fp.rho_star, rel=1e-12)
    assert g == pytest.approx(0.111, abs=5e-4)


def test_gap_root_agreement_below_switch():
    rng = np.random.default_rng(5)
    for _ in range(40):
        p = 10 ** rng.uniform(-1, 2)
        s1, s2 = rng.uniform(0.5, 2, size=2)
        rz = rng.uniform(-1, 1)
        params = params_of(p, s1, s2, rz)
        fp = solve_fixed_point(params)
        if fp.rho_star <= 0.999:
            assert 1.0 - solve_gap(params) == pytest.approx(fp.rho_star, rel=1e-6)


def test_gap_scaled_strictly_decreasing_high_decades():
    vals = [10.0**e * solve_gap(params_of(10.0**e)) / 10.0 ** (0.2 * e) for e in (7, 8, 9, 10)]
    # above: P^0.8 g written as P g / P^0.2
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_gap_uncorrelated_follows_sqrt_decay():
    # For rho_z = 0 the gap behaves like sqrt(2/P): far above the
    # anti-correlated gap but far below any stalled constant.
    g10 = solve_gap(params_of(1e10, rz=0.0))
    assert g10 == pytest.approx(math.sqrt(2.0 / 1e10), rel=1e-3)
    g_anti = solve_gap(params_of(1e10, rz=-1.0))
    assert g10 / g_anti > 1e4


def test_fixed_point_invariants_random_draws():
    rng = np.random.default_rng(12)
    for _ in range(30):
        p = 10 ** rng.uniform(0, 10)
        s1, s2 = rng.uniform(0.5, 2, size=2)
        rz = rng.uniform(-1, 1)
        params = params_of(p, s1, s2, rz)
        fp = solve_fixed_point(params)
        assert 0.0 <= fp.rho_star <= 1.0
        assert fp.rho_star + fp.gap == 1.0
        # Four orders of magnitude inside CUBIC_RESIDUAL_ACCEPT = 1e-10.
        assert fp.residual <= 1e-14 * cubic_scale(params)


def cubic_scale(params):
    a, b, c = cubic_forms(params)[0]
    return 1.0 + abs(a) + abs(b) + abs(c)


def oracle_digits(p, s1, s2):
    """60 digits, plus one per decade that P lies below max(1, s1^2, s2^2):
    at low SNR the rate ratios lie within P / sigma^2 of 1; plus two per
    decade that P lies above min(1, s1^2, s2^2).  At high SNR the gap is
    about sigma^2 / P or larger, so rho* = 1 - g needs one more digit per
    decade for g to keep 60; and the root is then nearly double, the cubic
    is about g^2 in size near it, and the secant method stops once the
    cubic is below its working precision, so that takes one more."""
    low = 2.0 * math.log10(max(1.0, s1, s2)) - math.log10(p)
    high = math.log10(p) - 2.0 * math.log10(min(1.0, s1, s2))
    return 60 + max(0, math.ceil(low)) + 2 * max(0, math.ceil(high))


def mpmath_fixed_point(p, s1, s2, rz):
    """High-precision oracle: the root in [0, 1] of the rho-form cubic,
    transcribed in mpmath and found by a bracketing secant method (the
    cubic has exactly one root there, test_cubic_has_one_root_in_unit_interval),
    checked to change the cubic's sign within 1e-40 of both rho* and 1 - rho*
    and to be a fixed point that the correlation recursion maps to its
    negative; returns (rho*, 1 - rho*) as mpf."""
    import mpmath as mp

    with mp.workdps(oracle_digits(p, s1, s2)):
        p, s1, s2, rz = mp.mpf(p), mp.mpf(s1), mp.mpf(s2), mp.mpf(rz)
        s11, s22, s12 = s1 * s1, s2 * s2, s1 * s2
        spp = mp.sqrt((p + s11) * (p + s22))
        a = -2 * s12 / p - (p + s11 + s22 + rz * s12) / spp - 2 * s11 * s22 / (p * spp)
        b = -1 - (s11 + s22) / p - rz * (s11 + s22) / spp - s12 * (s11 + s22) / (p * spp)
        c = (p + s11 + s22 - rz * s12) / spp
        tau = s12 * (s12 + p * rz) / ((p + s11) * (p + s22))

        def recursion(r):
            q = p * (1 - r * r) + s11 + s22 + 2 * s12 * r
            return spp / (q * s12) * ((s1 + s2 * r) * (s2 + s1 * r) * tau - s12 * (1 - r * r))

        def cubic(r):
            return ((r + a) * r + b) * r + c

        # Up to about 360 steps at P = 1e153, where the root lies within 1e-77
        # of the bracket's end.
        rho = mp.findroot(cubic, (mp.mpf(0), mp.mpf(1)), solver="anderson", verify=False, maxsteps=1000)
        assert 0 < rho < 1
        assert abs(cubic(rho)) <= mp.mpf(10) ** -40 * (1 + abs(a) + abs(b) + abs(c))
        # f(0) = c > 0 > f(1) with one root between: f > 0 left of it, < 0 right.
        h = mp.mpf(10) ** -40 * min(rho, 1 - rho)
        assert cubic(rho - h) > 0 > cubic(rho + h)
        assert abs(recursion(rho) + rho) <= mp.mpf(10) ** -30 * rho
        return rho, 1 - rho


def mpmath_rates(p, s1, s2, rho, gap):
    """R1, R2, their sum and the pre-log ratio at the solver's float root, to
    ``oracle_digits``: -1/2 log2 of each user's per-step error-variance ratio
    in ``step_error_state``.  The root's smaller variable is taken as exact,
    as the solver bisects it, and the other as its complement: rho where
    g >= 1/2, else g."""
    import mpmath as mp

    with mp.workdps(oracle_digits(p, s1, s2)):
        p, s1, s2 = mp.mpf(p), mp.mpf(s1), mp.mpf(s2)
        rho = mp.mpf(rho) if gap >= 0.5 else 1 - mp.mpf(gap)
        gm = s1 / s2
        d = 1 + gm * gm + 2 * gm * rho
        omr2 = (1 - rho) * (1 + rho)
        ratio1 = (gm * gm * p * omr2 + s1 * s1 * d) / (d * (p + s1 * s1))
        ratio2 = (p * omr2 + s2 * s2 * d) / (d * (p + s2 * s2))
        r1, r2 = -mp.log(ratio1, 2) / 2, -mp.log(ratio2, 2) / 2
        return r1, r2, r1 + r2, (r1 + r2) / (mp.log(1 + p, 2) / 2)


def test_fixed_point_matches_mpmath_oracle_over_domain():
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(2024)
    # rho_z = +1 at very high power: the rho-form cubic has a spurious float
    # root at exactly 1 next to the genuine one at 1 - 4.76e-9.
    draws = [(6.370232223434e13, 0.008714080980284098, 0.029299298795470774, 1.0)]
    for i in range(150):
        p = 10 ** rng.uniform(-3, 14)
        s1, s2 = 10 ** rng.uniform(-3, 3, size=2)
        rz = (1.0, -1.0, rng.uniform(-1, 1), -1.0 + rng.uniform(0, 1e-15))[i % 4]
        draws.append((p, s1, s2, rz))
    # Low power, P / min sigma^2 in [1e-290, 1e-12]: rho* is about P / sigma^2,
    # within rounding of g = 1.
    for i in range(40):
        s1, s2 = 10 ** rng.uniform(-3, 3, size=2)
        p = min(s1, s2) ** 2 * 10 ** rng.uniform(-290, -12)
        rz = (1.0, -1.0, rng.uniform(-1, 1), -1.0 + rng.uniform(0, 1e-15))[i % 4]
        draws.append((p, s1, s2, rz))
    # High power, P in [1e14, 1e153]: g < 2^-53 rounds rho* to 1 from about
    # P = 1e16 (rho_z = -1) or 1e32 (|rho_z| < 1), and the gap carries the root.
    for i in range(40):
        p = 10 ** rng.uniform(14, 153)
        s1, s2 = 10 ** rng.uniform(-3, 3, size=2)
        rz = (1.0, -1.0, rng.uniform(-1, 1), -1.0 + rng.uniform(0, 1e-15))[i % 4]
        draws.append((p, s1, s2, rz))
    for p, s1, s2, rz in draws:
        params = params_of(p, s1, s2, rz)
        fp = solve_fixed_point(params)
        rho, gap = mpmath_fixed_point(p, s1, s2, rz)
        assert float(abs(fp.rho_star - rho) / rho) <= 1e-14, (p, s1, s2, rz)
        assert float(abs(fp.gap - gap) / gap) <= 1e-14, (p, s1, s2, rz)
        assert fp.rho_star + fp.gap == 1.0
        assert fp.residual <= 1e-14 * cubic_scale(params), (p, s1, s2, rz)
        # The rates at the solver's own root, against the per-step decay in
        # mpmath; at low SNR the variance ratios lie within P / sigma^2 of 1.
        rp = achievable_rates(params, fp.rho_star, gap=fp.gap)
        oracle = mpmath_rates(p, s1, s2, fp.rho_star, fp.gap)
        for name, value in zip(("r1", "r2", "sum", "prelog_ratio"), oracle):
            assert float(abs(getattr(rp, name) - value) / value) <= 1e-14, (name, p, s1, s2, rz)


def test_small_lambda0_corner_is_solved_to_full_precision_or_rejected():
    # The gap form's constant term lambda0 sets the gap where it is small.
    # It is about -(s1 + s2)^4 / (2 P^2) at rho_z = -1, subnormal beyond
    # P ~ 4.7e153 (s1 + s2)^2, and about -(1 + rho_z)(s1 + s2)^2 / P
    # otherwise, subnormal at tiny sigmas; there the gap lost precision
    # without an error (1.9e-7 at sigma = 1e-3, P = 1e153, rho_z = -1).
    # Every input is now solved to about 1e-15 or rejected.
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(1024)
    draws = []
    for _ in range(40):  # rho_z = -1 across the subnormal threshold
        s1 = 10 ** rng.uniform(-3, 0.5)
        s2 = s1 * 10 ** rng.uniform(-1, 1)
        draws.append((10 ** (2 * math.log10(s1 + s2) + rng.uniform(152, 154.5)), s1, s2, -1.0))
    for i in range(40):  # tiny sigmas, P / sigma^2 in [1e100, 1e320]
        s1 = 10 ** rng.uniform(-81, -20)
        s2 = s1 * 10 ** rng.uniform(-2, 2)
        p = 10 ** (2 * math.log10(min(s1, s2)) + rng.uniform(100, 320))
        draws.append((p, s1, s2, (-1.0, 0.0, 0.5, -1.0 + 1e-9)[i % 4]))
    outcomes = []
    for p, s1, s2, rz in draws:
        noise = NoiseSpec(s1, s2, rz)
        try:
            (rho, gap, _), _, _ = analysis._solve_powers(noise, [p])
        except ParameterError as exc:
            assert "beyond the solver's float range" in str(exc)
            outcomes.append(False)
            continue
        outcomes.append(True)
        want_rho, want_gap = mpmath_fixed_point(p, s1, s2, rz)
        assert float(abs(gap[0] - want_gap) / want_gap) <= 1e-15, (p, s1, s2, rz)
        assert float(abs(rho[0] - want_rho) / want_rho) <= 1e-15, (p, s1, s2, rz)
        rp = achievable_rates(ChannelParams(p, noise), float(rho[0]), gap=float(gap[0]))
        for name, value in zip(("r1", "r2", "sum", "prelog_ratio"), mpmath_rates(p, s1, s2, rho[0], gap[0])):
            assert float(abs(getattr(rp, name) - value) / value) <= 1e-14, (name, p, s1, s2, rz)
    # Both halves hold inputs of both kinds.
    assert 0 < sum(outcomes[:40]) < 40 and 0 < sum(outcomes[40:]) < 40


def test_barely_subnormal_lambda0_is_rejected():
    # The price of a scale-aware bound: lambda0 = -2.0e-308 here, and the
    # gap was within 2.6e-16 of exact, yet the power is rejected with the
    # rest of its corner.  Unit sigmas stay accepted to the end of range.
    params = params_of(8e152, 0.2, 0.2)
    assert 0.0 < -cubic_forms(params)[1][0] < 2.0**-1022
    with pytest.raises(ParameterError, match="lambda0 a normal float$"):
        solve_gap(params)
    assert -cubic_forms(params_of(1.3e154))[1][0] >= 2.0**-1022


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def test_rates_at_full_correlation_reach_single_user_bounds():
    # At low SNR the bound keeps full relative precision: log2(1 + P/s^2)
    # is 0.0 at P = 1e-17, below the achievable r1.
    for p in (37.0, 1e-9, 1e-17):
        params = params_of(p, 1.0, 2.0, -1.0)
        rp = achievable_rates(params, 1.0, gap=0.0)
        assert rp.r1 == pytest.approx(single_user_bound(params, 1), rel=1e-12, abs=0.0), p
        assert rp.r2 == pytest.approx(single_user_bound(params, 2), rel=1e-12, abs=0.0), p


def test_rates_at_zero_correlation_symmetric():
    p, s = 10.0, 1.0
    rp = achievable_rates(params_of(p, s, s), 0.0, gap=1.0)
    expected = 0.5 * math.log2((p + s * s) / (p / 2 + s * s))
    assert rp.r1 == pytest.approx(expected, rel=1e-14)
    assert rp.r2 == pytest.approx(expected, rel=1e-14)
    assert rp.sum == rp.r1 + rp.r2


def test_rates_headline_value():
    params = params_of(10.0)
    fp = solve_fixed_point(params)
    rp = achievable_rates(params, fp.rho_star, gap=fp.gap)
    denom = 10.0 * fp.gap / 2.0 + 1.0
    assert rp.r1 == pytest.approx(0.5 * math.log2(11.0 / denom), rel=1e-12)
    assert rp.r1 == pytest.approx(1.41, abs=5e-3)
    assert rp.prelog_ratio == pytest.approx(rp.sum / (0.5 * math.log2(11.0)), rel=1e-12)


@pytest.mark.parametrize("sigmas", [(1.0, 1.0), (1.0, 2.0)], ids=["equal", "unequal"])
def test_rates_are_the_per_step_decay_of_the_error_variances(sigmas):
    # At the fixed point each channel use multiplies alpha_v by 2^(-2 R_v).
    draws = [(100.0, *sigmas, -1.0)]
    if sigmas[0] != sigmas[1]:
        # Seeded draws of sigma in [1e-2, 1e2], every kind of rho_z and P in
        # [1e-2, 1e2].  Beyond P ~ 1e2 step_error_state, which forms 1 - |rho|
        # from the rounded rho*, drifts from the decay (by up to 7e-6 at
        # P = 1e10): the schedule's float floor (ROADMAP item 4), not the rates'.
        rng = np.random.default_rng(43)
        for i in range(400):
            s1, s2 = 10 ** rng.uniform(-2, 2, size=2)
            rz = (1.0, -1.0, rng.uniform(-1, 1), -1.0 + rng.uniform(0, 1e-15))[i % 4]
            draws.append((10 ** rng.uniform(-2, 2), s1, s2, rz))
    for p, s1, s2, rz in draws:
        params = params_of(p, s1, s2, rz)
        fp = solve_fixed_point(params)
        rp = achievable_rates(params, fp.rho_star, gap=fp.gap)
        step = step_error_state(ErrorState(alpha1=1.0, alpha2=1.0, rho=fp.rho_star), params)
        assert rp.r1 == pytest.approx(-0.5 * math.log2(step.alpha1), abs=1e-12), (p, s1, s2, rz)
        assert rp.r2 == pytest.approx(-0.5 * math.log2(step.alpha2), abs=1e-12), (p, s1, s2, rz)


@pytest.mark.parametrize("mirror", [False, True], ids=["as_drawn", "users_swapped"])
def test_rates_keep_full_precision_at_extreme_noise_ratios(mirror):
    # gamma = s1 / s2 up to 1e157, whose square overflows, and rates of 531
    # and 656 bits, whose log1p argument overflows: each rate is finite and
    # within 1e-14 of the mpmath decay, whichever user has the larger noise.
    pytest.importorskip("mpmath")
    cases = [
        (1e-50, 1e15, 1e-142, 0.5),
        (1e145, 1e75, 1e-66, -1.0),
        (1e115, 1e-140, 1e92, 0.0),
        (1e120, 1e-140, 1e-20, 1.0),
    ]
    for p, s1, s2, rz in cases:
        if mirror:
            s1, s2 = s2, s1
        params = params_of(p, s1, s2, rz)
        fp = solve_fixed_point(params)
        rp = achievable_rates(params, fp.rho_star, gap=fp.gap)
        oracle = mpmath_rates(p, s1, s2, fp.rho_star, fp.gap)
        for name, value in zip(("r1", "r2", "sum", "prelog_ratio"), oracle):
            assert float(abs(getattr(rp, name) - value) / value) <= 1e-14, (name, p, s1, s2, rz)


def test_rates_monotone_in_rho():
    params = params_of(50.0, 1.0, 2.0, 0.3)
    rhos = np.linspace(0, 1, 101)
    values = [achievable_rates(params, r, gap=1.0 - r).sum for r in rhos]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_rates_never_exceed_single_user_bounds():
    rng = np.random.default_rng(8)
    for _ in range(50):
        params = params_of(10 ** rng.uniform(-1, 6), *rng.uniform(0.5, 2, size=2), rng.uniform(-1, 1))
        rho = float(rng.uniform(0, 1))
        rp = achievable_rates(params, rho, gap=1.0 - rho)
        assert rp.r1 <= single_user_bound(params, 1) + 1e-12
        assert rp.r2 <= single_user_bound(params, 2) + 1e-12


def test_rates_validation():
    with pytest.raises(ParameterError, match="rho must"):
        achievable_rates(params_of(10.0), 1.5, gap=1.0 - 1.5)
    with pytest.raises(ParameterError):
        achievable_rates(params_of(10.0), 0.5, gap=-0.1)


def test_single_user_bound_examples():
    assert single_user_bound(params_of(4.0, 2.0, 1.0, 0.0), 1) == pytest.approx(0.5)
    assert single_user_bound(params_of(3.0, 1.0, 1.0, 0.0), 1) == pytest.approx(1.0)
    assert single_user_bound(params_of(15.0, 1.0, 2.0, 0.0), 2) == pytest.approx(
        0.5 * math.log2(4.75)
    )


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_prelog_increases_anticorrelated():
    rows = sweep_rates(HEADLINE, 1e2, 1e6, points_per_decade=4)
    ratios = [r.prelog_ratio for r in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    powers = [r.power for r in rows]
    assert powers == sorted(powers)


def test_sweep_delta_one_scaled_gap_is_gap():
    rows = sweep_rates(HEADLINE, 1e2, 1e4, points_per_decade=4, delta=1.0)
    for r in rows:
        assert r.scaled_gap == pytest.approx(r.gap, rel=1e-15)


def test_sweep_range_validation():
    with pytest.raises(ParameterError):
        sweep_rates(HEADLINE, 100.0, 900.0)


def test_power_grid_keeps_both_endpoints():
    grid = power_grid(1e2, 1e10, 4)
    assert len(grid) == 33 and grid[0] == 1e2 and grid[-1] == 1e10
    assert all(b > a for a, b in zip(grid, grid[1:]))
    # A span shorter than half a grid step still starts at p_start.
    assert power_grid(1.0, 2.0, 1) == [1.0, 2.0]
    grid = power_grid(5.0, 5.5, 3)
    assert grid == [5.0, 5.5]


def test_numpy_integer_density_builds_the_int_density_grid():
    grid = power_grid(1e2, 1e6, np.int64(2))
    assert [type(p) for p in grid] == [float] * len(grid)
    assert [p.hex() for p in grid] == [p.hex() for p in power_grid(1e2, 1e6, 2)]
    rows = sweep_rates(HEADLINE, 1e2, 1e6, np.int32(2))
    assert rows == sweep_rates(HEADLINE, 1e2, 1e6, 2)
    assert {type(row.power) for row in rows} == {float}


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def test_verify_asymptotics_headline_checks():
    grid = [10.0**e for e in range(2, 11)]
    report = verify_asymptotics(HEADLINE, grid, delta=0.2, eps=0.1)
    by_power = {round(math.log10(r.power)): r for r in report.rows}
    assert by_power[8].lambda2_err < 1e-3
    assert by_power[6].root_defect_err < 0.01 * 1.0
    assert report.monotone["gap_scaled_vanishing"] is True
    assert report.monotone["lambda0_scaled_vanishing"] is True
    assert report.monotone["lambda2_err_decreasing"] is True
    assert report.monotone["lambda1_scaled_vanishing"] is True


def test_root_defect_limit_three_sigma_configs():
    for s1, s2 in [(1.0, 1.0), (1.0, 2.0), (0.5, 2.0)]:
        limit = 0.5 * (s1 * s1 + s2 * s2)
        report = verify_asymptotics(
            NoiseSpec(s1, s2, -1.0), [1e2, 1e4, 1e6], delta=0.2, eps=0.1
        )
        final = report.rows[-1]
        assert abs(final.root_defect - limit) < 0.01 * limit


def test_asymptotics_uncorrelated_marks_gap_checks_not_applicable():
    report = verify_asymptotics(NoiseSpec(1, 1, 0.0), [1e2, 1e4, 1e6, 1e8], 0.2, 0.1)
    assert report.monotone["gap_scaled_vanishing"] is None
    assert report.monotone["lambda0_scaled_vanishing"] is None
    assert math.isnan(report.rows[0].lambda0_scaled)


def test_asymptotics_grid_validation():
    with pytest.raises(ParameterError):
        verify_asymptotics(HEADLINE, [1e2, 1e3], 0.2, 0.1)  # one decade
    with pytest.raises(ParameterError):
        verify_asymptotics(HEADLINE, [1e2, 1e2, 1e7], 0.2, 0.1)  # not increasing
    with pytest.raises(ParameterError):
        verify_asymptotics(HEADLINE, [1e2, 1e7], 0.2, 0.5)  # eps >= delta
    # Every entry takes the one real rule of the channel fields: 10**400 and
    # 2**1024 - 1 raised a bare OverflowError at their float conversion, and
    # True was solved as P = 1.0.
    beyond = "p_grid power must be a real number within float range"
    for grid, message in (
        (["1e2", "1e7"], "p_grid power must be a real number, got '1e2'"),
        ([1e2, "1e7"], "p_grid power must be a real number, got '1e7'"),
        ([1e2, None, 1e7], "p_grid power must be a real number, got None"),
        ([1e2, np.array([1e7])], "p_grid power must be a real number, got array([10000000.])"),
        ([1, 10**400], beyond),
        ([1e2, 2**1024 - 1], beyond),
        ([True, 1e5], "p_grid power must be a real number, got True"),
    ):
        with pytest.raises(ParameterError) as exc:
            verify_asymptotics(HEADLINE, grid)
        assert str(exc.value) == message
    # The grid is made a list first, so a one-shot iterator is checked and
    # solved as the list of its entries.
    assert verify_asymptotics(HEADLINE, (p for p in (1e2, 1e7))) == verify_asymptotics(
        HEADLINE, [1e2, 1e7]
    )



def test_asymptotics_grid_is_validated_as_the_floats_it_is_solved_at():
    # 2**60 and 2**60 + 1 differ as integers but are one float64 power.
    grid = [1, 10**4, 2**60, 2**60 + 1]
    assert float(grid[2]) == float(grid[3])
    with pytest.raises(ParameterError, match="^p_grid must be strictly increasing$"):
        verify_asymptotics(HEADLINE, grid)
    report = verify_asymptotics(HEADLINE, grid[:3])
    assert [row.power for row in report.rows] == [1.0, 1e4, float(2**60)]


def test_solve_fixed_point_is_one_row_of_the_grid_solve():
    # The one-point solve evaluates no recursion beside the grid solve, and
    # its fields are that solve's row, bit for bit.
    for p in (1e-3, 100.0, 1e33):
        params = params_of(p, 1.0, 2.0, 0.3)
        with mock.patch.object(analysis, "rho_recursion", wraps=analysis.rho_recursion) as rec:
            fp = solve_fixed_point(params)
        assert rec.call_count == 0
        solved, _, _ = analysis._solve_powers(params.noise, [p])
        assert [v.hex() for v in fp] == [v.item().hex() for v in solved]


def test_each_grid_call_forms_the_coefficients_once():
    # The last grid solved is remembered: verify_asymptotics right after a
    # sweep_rates of the same noise and grid reads every coefficient it needs
    # from the sweep's one solve.  Another grid or noise, or a one-point
    # solve in between, is solved again.  Every field is a Python float.
    grid = power_grid(1e-3, 1e14, 8)
    other = NoiseSpec(1.0, 2.0, 0.3)
    with mock.patch.object(analysis, "_coeffs", wraps=analysis._coeffs) as coeffs:
        rows = sweep_rates(HEADLINE, 1e-3, 1e14, 8)
        assert coeffs.call_count == 1
        assert coeffs.call_args.args[1].tolist() == grid
        report = verify_asymptotics(HEADLINE, grid)
        assert coeffs.call_count == 1
        verify_asymptotics(HEADLINE, grid[:-1])
        assert coeffs.call_count == 2
        verify_asymptotics(other, grid[:-1])
        assert coeffs.call_count == 3
        sweep_rates(other, 1e-3, 1e14, 8)
        assert coeffs.call_count == 4
        fp = solve_fixed_point(ChannelParams(100.0, other))
        assert coeffs.call_count == 5
        verify_asymptotics(other, grid)
        assert coeffs.call_count == 6
    assert {type(v) for row in rows + list(report.rows) for v in row} == {float}
    assert [type(v) for v in fp] == [float] * 3


def test_a_grid_that_raises_is_not_remembered():
    # P = 1e155 is beyond the solver's float range: the solve raises, keeps
    # nothing, and the same call solves and raises again.
    grid = [1e2, 1e155]
    with mock.patch.object(analysis, "_coeffs", wraps=analysis._coeffs) as coeffs:
        errors = []
        for _ in range(2):
            with pytest.raises(ParameterError, match="^power P = 1e[+]155 ") as exc:
                verify_asymptotics(HEADLINE, grid)
            errors.append(str(exc.value))
            assert analysis._solved_grid.cache_info().currsize == 0
    assert coeffs.call_count == 2
    assert errors[0] == errors[1]


def test_remembered_grid_arrays_are_read_only():
    grid = power_grid(1e-3, 1e14, 8)
    sweep_rates(HEADLINE, 1e-3, 1e14, 8)
    solved, gap_coeffs, defect = analysis._solved_grid(HEADLINE, tuple(grid))
    assert analysis._solved_grid.cache_info().hits == 1
    arrays = (*solved, *gap_coeffs, defect)
    assert len(arrays) == 7
    for array in arrays:
        assert array.shape == (len(grid),)
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


@pytest.mark.parametrize("cfg", [(1.0, 1.0, -1.0), (1.0, 2.0, 0.3), (0.3, 4.0, 0.95)])
def test_reports_read_through_the_memo_equal_a_fresh_solve(cfg):
    # Both reports, and a one-point solve, in float.hex: read from the
    # remembered grid and from a solve with the memo emptied first.
    noise = NoiseSpec(*cfg)
    grid = power_grid(1e-3, 1e14, 8)

    def hexed(rows):
        return [tuple(v.hex() for v in row) for row in rows]

    def solve_all(fresh):
        out = []
        for call in (
            lambda: sweep_rates(noise, 1e-3, 1e14, 8),
            lambda: verify_asymptotics(noise, grid).rows,
            lambda: [solve_fixed_point(ChannelParams(grid[40], noise))],
            lambda: [solve_fixed_point(ChannelParams(grid[40], noise))],
        ):
            if fresh:
                analysis._solved_grid.cache_clear()
            out.append(hexed(call()))
        return out

    remembered = solve_all(fresh=False)
    assert analysis._solved_grid.cache_info().hits == 2
    assert remembered == solve_all(fresh=True)
    assert analysis._solved_grid.cache_info().hits == 0


# Each output record's fields in order, as they were when the records were
# dataclasses: rows are built positionally and print as CSV in this order.
RECORD_FIELDS = {
    "FixedPoint": ("rho_star", "gap", "residual"),
    "RatePoint": ("r1", "r2", "sum", "prelog_ratio"),
    "SweepRow": ("power", "rho_star", "gap", "r1", "r2", "sum", "prelog_ratio", "scaled_gap"),
    "AsymptoticsRow": (
        "power", "lambda2", "lambda2_err", "lambda1_scaled", "root_defect", "root_defect_err",
        "lambda0_scaled", "gap", "gap_scaled",
    ),
    "AsymptoticsReport": ("rows", "monotone"),
    "CoefficientSchedule": (
        "params", "n", "var_theta1", "var_theta2", "alpha1", "alpha2", "rho", "steps",
    ),
    "TrialRecord": (
        "message1", "message2", "decoded1", "decoded2", "success", "inputs", "eps1", "eps2",
        "tx1", "tx2",
    ),
}
RECORDS = {
    "FixedPoint": lambda: solve_fixed_point(params_of(100.0)),
    "RatePoint": lambda: achievable_rates(params_of(100.0), 0.5, gap=0.5),
    "SweepRow": lambda: sweep_rates(HEADLINE, 1e2, 1e6, 1)[0],
    "AsymptoticsRow": lambda: verify_asymptotics(HEADLINE, power_grid(1e2, 1e6, 1)).rows[0],
    "AsymptoticsReport": lambda: verify_asymptotics(HEADLINE, power_grid(1e2, 1e6, 1)),
    "CoefficientSchedule": lambda: lmmse_coefficient_schedule(params_of(100.0), 10, 0.08, 0.08),
    "TrialRecord": lambda: run_broadcast_trial(
        MessageConfig(n=10, rate1=0.5, rate2=0.5), params_of(100.0), RngSpec(3, 0)
    ),
}


@pytest.mark.parametrize("name", list(RECORD_FIELDS))
def test_output_records_are_named_tuples_of_their_fields(name):
    # Records that validate nothing are named tuples: built positionally,
    # read by name, and copied with one field changed by _replace.
    record = RECORDS[name]()
    kind = type(record)
    assert kind.__name__ == name and isinstance(record, tuple)
    assert kind._fields == RECORD_FIELDS[name]
    assert list(record._asdict()) == list(kind._fields)
    assert tuple(record) == tuple(getattr(record, field) for field in kind._fields)
    assert kind(*record) == record
    defaults = {"tx1": None, "tx2": None} if name == "TrialRecord" else {}
    assert kind._field_defaults == defaults
    first = kind._fields[0]
    moved = record._replace(**{first: 7.0})
    assert getattr(moved, first) == 7.0 and moved[1:] == record[1:]
    assert moved._replace(**{first: record[0]}) == record


def test_float32_grids_give_the_rows_of_their_float_values():
    # Rows are formed from the grid entries' values as Python floats: with
    # float32 entries, P^1.7 at P = 1e24 would overflow float32.
    noise = NoiseSpec(1.0, 2.0, -1.0)
    grid = [np.float32(10.0**e) for e in range(2, 27, 2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = sweep_rates(noise, grid[0], grid[-1], 2)
        report = verify_asymptotics(noise, grid)
    assert rows == sweep_rates(noise, float(grid[0]), float(grid[-1]), 2)
    assert report == verify_asymptotics(noise, [float(p) for p in grid])
    assert {type(v) for row in rows + list(report.rows) for v in row} == {float}


def test_gap_cubic_matches_rho_cubic_transform():
    rng = np.random.default_rng(23)
    for _ in range(50):
        params = params_of(
            10 ** rng.uniform(-1, 8), *rng.uniform(0.3, 3, size=2), rng.uniform(-1, 1)
        )
        (a, b, c), lam = cubic_forms(params)
        for g in np.linspace(0.0, 1.0, 21):
            via_abc = (1 + a + b + c) + g * (-3 - 2 * a - b) + g * g * (3 + a) - g**3
            via_lambda = gap_form_at(lam, g)
            scale = max(1.0, abs(via_abc), abs(via_lambda))
            assert abs(via_abc - via_lambda) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------


def test_classifier_two_receiver_examples():
    assert prelog_classify(np.array([[1.0, -1.0], [-1.0, 1.0]])).value is PrelogValue.TWO
    assert prelog_classify(np.array([[1.0, 0.0], [0.0, 1.0]])).value is PrelogValue.ONE
    assert prelog_classify(np.array([[1.0, 0.5], [0.5, 1.0]])).value is PrelogValue.ONE


def test_classifier_three_receiver_example():
    m = np.array([[1.0, -1.0, 0.3], [-1.0, 1.0, -0.3], [0.3, -0.3, 1.0]])
    assert np.min(np.linalg.eigvalsh(m)) > -1e-9
    result = prelog_classify(m)
    assert result.value is PrelogValue.TWO


def test_classifier_undefined_on_duplicated_receiver():
    m = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    result = prelog_classify(m)
    assert result.value is PrelogValue.UNDEFINED
    assert result.reason


@pytest.mark.parametrize(
    "rows, value, pair",
    [
        # Each receiver's noise as a combination of two independent unit noises.
        ([(1, 0), (-1, 0), (0, 1), (0, -1)], PrelogValue.TWO, (1, 2)),
        ([(1, 0), (0, 1), (-1, 0), (0, -1)], PrelogValue.TWO, (1, 3)),
        ([(1, 0), (0, 1), (0, 1), (-1, 0)], PrelogValue.UNDEFINED, (2, 3)),
        ([(1, 0), (-1, 0), (0, 1), (0, 1)], PrelogValue.UNDEFINED, (3, 4)),
        ([(1, 0), (0, 1), (1, 0), (0, 1)], PrelogValue.UNDEFINED, (1, 3)),
        ([(1, 0), (0, 1), (0, 1), (1, 0)], PrelogValue.UNDEFINED, (1, 4)),
        ([(1, 0), (1, 0), (-1, 0), (-1, 0)], PrelogValue.UNDEFINED, (1, 2)),
    ],
)
def test_classifier_names_the_first_decisive_pair_in_row_major_order(rows, value, pair):
    # The first pair in row-major upper-triangle order among the +1 pairs,
    # else among the -1 pairs: a +1 pair wins over an earlier -1 pair.
    w = np.array(rows, dtype=float)
    result = prelog_classify(w @ w.T)
    assert result.value is value
    assert result.reason.startswith(f"receivers {pair[0]} and {pair[1]} have perfectly ")


def test_classifier_validation():
    with pytest.raises(ParameterError):
        prelog_classify(np.array([[1.0, 0.2, 0.1], [0.2, 1.0, 0.0]]))  # not square
    with pytest.raises(ParameterError):
        prelog_classify(np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(ParameterError):
        prelog_classify(np.array([[2.0, 0.0], [0.0, 1.0]]))  # bad diagonal
    with pytest.raises(ParameterError):
        prelog_classify(np.array([[1.0]]))  # K < 2
    # valid entries but indefinite matrix
    bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    with pytest.raises(ParameterError):
        prelog_classify(bad)


@pytest.mark.parametrize("asymmetry, accepted", [(1e-13, True), (1e-6, False)])
def test_classifier_symmetry_tolerance(asymmetry, accepted):
    # Rounding-level asymmetry passes; a visible one is rejected.  Only the
    # verdict is checked, not the class.
    m = np.array([[1.0, 0.5], [0.5 + asymmetry, 1.0]])
    if accepted:
        prelog_classify(m)
    else:
        with pytest.raises(ParameterError, match="must be symmetric"):
            prelog_classify(m)


@pytest.mark.parametrize("delta, accepted", [(5e-11, True), (5e-8, False)])
def test_classifier_psd_tolerance(delta, accepted):
    # Off-diagonal entries -1/2 - delta give the smallest eigenvalue -2 delta:
    # -1e-10 lies within the tolerance, -1e-7 beyond it.
    c = -0.5 - delta
    m = np.array([[1.0, c, c], [c, 1.0, c], [c, c, 1.0]])
    assert float(np.min(np.linalg.eigvalsh(m))) == pytest.approx(-2.0 * delta, rel=1e-4)
    if accepted:
        prelog_classify(m)
    else:
        with pytest.raises(ParameterError, match="not PSD"):
            prelog_classify(m)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_classifier_total_on_random_psd_inputs(k, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((k, k + 2))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    m = w @ w.T
    np.fill_diagonal(m, 1.0)
    m = np.clip((m + m.T) / 2.0, -1.0, 1.0)
    if np.min(np.linalg.eigvalsh(m)) < -1e-9:
        return
    result = prelog_classify(m)
    assert result.value in (PrelogValue.ONE, PrelogValue.TWO, PrelogValue.UNDEFINED)
    assert result.reason


# ---------------------------------------------------------------------------
# input validation across the library
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ErrorState(-1.0, 1.0, 0.0), ParameterError,
         "error variances must be nonnegative"),
        (lambda: ErrorState(1.0, 1.0, -1.0 - 1e-11), NumericalIntegrityError,
         "|rho| = 1.00000000001 exceeds 1 beyond tolerance"),
        (lambda: ErrorState(True, 1, 0), ParameterError,
         "alpha1 must be a real number, got True"),
        (lambda: ErrorState("a", 1, 0), ParameterError,
         "alpha1 must be a real number, got 'a'"),
        (lambda: single_user_bound(params_of(10.0), 3), ParameterError,
         "receiver must be an integer in [1, 2], got 3"),
        (lambda: single_user_bound(params_of(10.0), True), ParameterError,
         "receiver must be an integer in [1, 2], got True"),
        (lambda: sweep_rates(HEADLINE, 1e2, 1e6, delta=0.0), ParameterError,
         "delta must lie in (0, 1], got 0.0"),
        (lambda: sweep_rates(HEADLINE, 1.0, 1e4, 4, "0.2"), ParameterError,
         "delta must be a real number, got '0.2'"),
        (lambda: sweep_rates(HEADLINE, 1.0, 1e4, 4, True), ParameterError,
         "delta must be a real number, got True"),
        (lambda: sweep_rates(HEADLINE, True, 1e4), ParameterError,
         "p_start must be a real number, got True"),
        (lambda: sweep_rates(HEADLINE, "1", 1e4), ParameterError,
         "p_start must be a real number, got '1'"),
        (lambda: sweep_rates(HEADLINE, 10**400, 1e4), ParameterError,
         "p_start must be a real number within float range"),
        (lambda: power_grid(1, 10**400, 1), ParameterError,
         "p_stop must be a real number within float range"),
        (lambda: power_grid(1.0, 1e4, math.nan), ParameterError,
         "points_per_decade must be an integer >= 1, got nan"),
        (lambda: power_grid(1.0, 1e4, True), ParameterError,
         "points_per_decade must be an integer >= 1, got True"),
        (lambda: power_grid(1.0, 1e4, 2.5), ParameterError,
         "points_per_decade must be an integer >= 1, got 2.5"),
        (lambda: power_grid(1.0, 1e4, np.int64(0)), ParameterError,
         "points_per_decade must be an integer >= 1, got np.int64(0)"),
        (lambda: verify_asymptotics(HEADLINE, [1e2, 1e7], delta=1.0), ParameterError,
         "delta must lie in (0, 1), got 1.0"),
        (lambda: verify_asymptotics(HEADLINE, power_grid(1e2, 1e7, 1), 0.2, "0.1"),
         ParameterError, "eps must be a real number, got '0.1'"),
        (lambda: verify_asymptotics(HEADLINE, [0.0, 1e2, 1e7]), ParameterError,
         "p_grid powers must be positive finite reals"),
        (lambda: MessageConfig(n=10, rate1=51.3, rate2=1.0), ParameterError,
         "rate1 gives an alphabet beyond 2**512; not supported"),
        (lambda: message_point_variance(0), ParameterError,
         "level count must be an integer >= 1, got 0"),
        (lambda: message_point_variance(True), ParameterError,
         "level count must be an integer >= 1, got True"),
        (lambda: message_point_variance(2.5), ParameterError,
         "level count must be an integer >= 1, got 2.5"),
        (lambda: message_point_variance(np.float32(3)), ParameterError,
         "level count must be an integer >= 1, got np.float32(3.0)"),
        (lambda: lmmse_coefficient_schedule(params_of(10.0), 2, 0.08, 0.08), ParameterError,
         "block length must be an integer >= 3, got 2"),
        (lambda: lmmse_coefficient_schedule(params_of(10.0), 20.0, 0.08, 0.08), ParameterError,
         "block length must be an integer >= 3, got 20.0"),
        (lambda: lmmse_coefficient_schedule(params_of(10.0), "20", 0.08, 0.08), ParameterError,
         "block length must be an integer >= 3, got '20'"),
        (lambda: lmmse_coefficient_schedule(params_of(10.0), 5, 0.08, 0.0),
         DegenerateMessageError, "message-point variances must be positive: both users need "
         "at least two message points (n * rate must give an alphabet of size >= 2)"),
        (lambda: lmmse_coefficient_schedule(params_of(10.0), 5, "0.08", 0.08), ParameterError,
         "var_theta1 must be a real number, got '0.08'"),
        (lambda: lmmse_coefficient_schedule(params_of(10.0), 5, 0.08, True), ParameterError,
         "var_theta2 must be a real number, got True"),
        (lambda: prelog_classify(np.array([[1.0, math.nan], [math.nan, 1.0]])), ParameterError,
         "correlation matrix contains non-finite entries"),
        (lambda: prelog_classify(np.array([[1.0, 1.5], [1.5, 1.0]])), ParameterError,
         "correlation entries must lie in [-1, 1]"),
        (lambda: prelog_classify("x"), ParameterError,
         "correlation matrix must be a real array, got 'x'"),
        (lambda: prelog_classify([[1, 0], [0]]), ParameterError,
         "correlation matrix must be a real array, got [[1, 0], [0]]"),
        # numpy would drop the imaginary parts (with a ComplexWarning), read
        # True as 1 and parse the strings: each was classified.
        (lambda: prelog_classify([[1 + 0j, -1], [-1, 1]]), ParameterError,
         "correlation matrix must be a real array, got [[(1+0j), -1], [-1, 1]]"),
        (lambda: prelog_classify([[True, True], [True, True]]), ParameterError,
         "correlation matrix must be a real array, got [[True, True], [True, True]]"),
        (lambda: prelog_classify([[True, -1.0], [-1.0, 1.0]]), ParameterError,
         "correlation matrix must be a real array, got [[True, -1.0], [-1.0, 1.0]]"),
        (lambda: prelog_classify([["1", "-1"], ["-1", "1"]]), ParameterError,
         "correlation matrix must be a real array, got [['1', '-1'], ['-1', '1']]"),
        (lambda: prelog_classify([[1.0, None], [None, 1.0]]), ParameterError,
         "correlation matrix must be a real array, got [[1.0, None], [None, 1.0]]"),
        (lambda: achievable_rates(params_of(10.0), "0.5", 0.5), ParameterError,
         "rho must be a real number, got '0.5'"),
    ],
    ids=[
        "error-state-variance", "error-state-rho", "error-state-bool", "error-state-str",
        "single-user-receiver",
        "single-user-bool-receiver", "sweep-delta", "sweep-str-delta", "sweep-bool-delta",
        "sweep-bool-start", "sweep-str-start", "sweep-start-beyond-float",
        "grid-stop-beyond-float", "grid-nan-density", "grid-bool-density",
        "grid-fractional-density", "grid-zero-numpy-density", "verify-delta", "verify-str-eps",
        "verify-zero-power", "message-alphabet", "variance-levels",
        "variance-bool-levels", "variance-fractional-levels", "variance-numpy-float-levels",
        "schedule-length",
        "schedule-float-length", "schedule-str-length", "schedule-variance",
        "schedule-str-variance", "schedule-bool-variance", "classify-nan", "classify-entry",
        "classify-str", "classify-ragged", "classify-complex", "classify-bool",
        "classify-bool-entry", "classify-str-entries", "classify-object-entries",
        "rates-str-rho",
    ],
)
def test_library_rejects_invalid_input(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
