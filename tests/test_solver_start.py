"""The solver's start brackets: each power's bisection starts from the deepest
bracket on its own dyadic path from [0, 1/2] whose signs have been checked,
and must end on exactly the bits the bisection from [0, 1/2] ends on."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbflab import ChannelParams, NoiseSpec, analysis, solve_fixed_point
from gbflab.analysis import (
    _bisect_brackets,
    _monic_at,
    _solve_powers,
    _start_brackets,
    _verified_depths,
)
from gbflab.errors import GbflabError, ParameterError


def _from_half(c2, c1, c0):
    """The start every power had before the verified prefix: [0, 1/2]."""
    return np.zeros_like(c0), np.full_like(c0, 0.5)


def _outcome(noise, powers):
    """Each power's (rho*, gap, cubic residual) in float.hex, or
    the type and message of the package error the solve raises.  Any other
    exception, such as a mistake in this test, fails the test."""
    try:
        solved, _, _ = _solve_powers(noise, powers)
    except GbflabError as exc:  # the reference must raise the same type and message
        return type(exc), str(exc)
    return [tuple(map(float.hex, fields)) for fields in zip(*(v.tolist() for v in solved))]


def _reference(noise, powers):
    with mock.patch.object(analysis, "_start_brackets", _from_half):
        return _outcome(noise, powers)


def _positive_at_lo(c2, c1, c0):
    """``_start_brackets``, checking what ``_bisect_brackets`` relies on to
    orient each bracket: the monic cubic is positive at its left end."""
    lo, hi = _start_brackets(c2, c1, c0)
    with np.errstate(over="ignore"):
        assert (_monic_at(lo, c2, c1, c0) > 0.0).all()
    return lo, hi


_log_power = st.floats(-300.0, 153.0)
_rho_z = st.one_of(
    st.sampled_from([1.0, -1.0, -1.0 + 1e-15]),
    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_log_power, min_size=1, max_size=40),
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    _rho_z,
)
def test_verified_start_gives_the_bits_of_the_start_from_half(log_powers, log_s1, log_s2, rz):
    noise = NoiseSpec(10.0**log_s1, 10.0**log_s2, rz)
    powers = [10.0**v for v in log_powers]
    with mock.patch.object(analysis, "_start_brackets", _positive_at_lo):
        outcome = _outcome(noise, powers)
    assert outcome == _reference(noise, powers)


def _cubic(c2, c1, c0):
    return tuple(np.array([v]) for v in (c2, c1, c0))


def test_estimate_on_a_path_midpoint_counts_as_left_of_it():
    # h = (x - r)(x + 1)(x - 2), every coefficient exact, with r = 5/16 + 2^-40
    # just right of the level-3 midpoint 5/16.  An estimate of exactly 5/16
    # goes right there (mid <= x), as the root does, and then left until the
    # level-39 midpoint r, where h is exactly 0 and the prefix ends.
    r = 5 / 16 + 2.0**-40
    c2, c1, c0 = _cubic(-(1.0 + r), r - 2.0, 2.0 * r)
    assert _verified_depths(np.array([5 / 16]), c2, c1, c0).tolist() == [38]
    half = _bisect_brackets(np.zeros(1), np.full(1, 0.5), c2, c1, c0)
    lo, hi = _start_brackets(c2, c1, c0)
    assert half.tolist() == _bisect_brackets(lo, hi, c2, c1, c0).tolist() == [r]


def test_every_level_of_a_path_can_verify():
    # h = x^3 - 2^60 x + c0 with c0 = 1 + 2^-52: at every midpoint m <= 1/4,
    # m^2 + c1 rounds to c1 and h(m) = c0 - 2^60 m is exact, so h changes sign
    # only at x = c0 2^-60, which has 53 bits and is no midpoint.  All 58
    # leading-zero levels and all 51 levels below the leading bit verify.
    c0 = 1.0 + 2.0**-52
    x = c0 * 2.0**-60
    c2, c1, c0 = _cubic(0.0, -(2.0**60), c0)
    assert _verified_depths(np.array([x]), c2, c1, c0).tolist() == [58 + 51]
    lo, hi = _start_brackets(c2, c1, c0)
    assert hi - lo == 4 * math.ulp(x)
    half = _bisect_brackets(np.zeros(1), np.full(1, 0.5), c2, c1, c0)
    assert half.tolist() == _bisect_brackets(lo, hi, c2, c1, c0).tolist() == [x]


def test_a_path_below_2_to_the_minus_1000_verifies_past_level_1023():
    # h = x^3 - x + r with r = (1 + 2^-52) 2^-1005: for m < 2^-27, m^2 - 1
    # rounds to -1 and h(m) = r - m is exact, so h changes sign only at r,
    # which has 53 bits and is no midpoint.  Every level j = 1 .. 1,054
    # verifies; from j = 1,024 on, 2^j is beyond float range, so x 2^j must
    # be formed without it.
    r = (1.0 + 2.0**-52) * 2.0**-1005
    c2, c1, c0 = _cubic(0.0, -1.0, r)
    assert _verified_depths(np.array([r]), c2, c1, c0).tolist() == [1004 + 50]
    lo, hi = _start_brackets(c2, c1, c0)
    assert hi - lo == 4 * math.ulp(r)
    half = _bisect_brackets(np.zeros(1), np.full(1, 0.5), c2, c1, c0)
    assert half.tolist() == _bisect_brackets(lo, hi, c2, c1, c0).tolist() == [r]


def test_gap_at_the_float_range_edge_keeps_its_bits():
    # test_gap_just_below_float_range_anticorrelated: the start changes how
    # the gap (sqrt(5) - 1) / P is found, not which bits it is.
    noise = NoiseSpec(1.0, 1.0, -1.0)
    assert _outcome(noise, [1e154]) == _reference(noise, [1e154]) == [
        ("0x1.0000000000000p+0", "0x1.a844905ff5288p-512", "0x0.0p+0")
    ]


def test_low_power_solve_starts_next_to_its_root():
    # From [0, 1/2] the root rho* = 7.5e-291 took 1,014 lockstep halvings;
    # a start bracket w wide takes about log2(w / ulp(rho*)) + 1.
    params = ChannelParams(1e-290, NoiseSpec(1.0, 1.0, -1.0))
    with mock.patch.object(analysis, "_bisect_brackets", wraps=_bisect_brackets) as bisect:
        fp = solve_fixed_point(params)
    lo, hi = bisect.call_args.args[:2]
    assert lo[0] <= fp.rho_star <= hi[0]
    assert hi[0] - lo[0] <= 2.0**18 * math.ulp(fp.rho_star)


def test_verification_working_set_stays_bounded():
    # 10,000 powers whose paths run up to ~1,050 levels deep: the bisection
    # from [0, 1/2] peaked at 3.6 MB, the list of results included;
    # checking every level at once would need about 250 MB.
    powers = np.logspace(-300, 14, 10_000).tolist()
    noise = NoiseSpec(1.0, 1.0, -1.0)
    tracemalloc.start()
    try:
        _solve_powers(noise, powers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.2e6


@pytest.mark.parametrize(
    "power, s1, s2",
    [(1e-309, 1.0, 1.0), (1e-300, 1e5, 1e5)],
)
def test_power_whose_coefficients_overflow_is_rejected(power, s1, s2):
    # P sqrt((P + s1^2)(P + s2^2)) is positive here, but 2 s1^2 s2^2 / (P spp)
    # and (s1^2 + s2^2 + 4 s1 s2) / P overflow.
    with pytest.raises(ParameterError) as exc:
        solve_fixed_point(ChannelParams(power, NoiseSpec(s1, s2, -1.0)))
    assert str(exc.value) == (
        f"power P = {power} with sigma1 = {s1}, sigma2 = {s2} is beyond the solver's float "
        "range: P*sqrt((P+sigma1^2)(P+sigma2^2)) must be positive and finite, "
        "(sigma1+sigma2)^2*sigma1*sigma2 a finite normal float, the fixed-point cubic's "
        "coefficients finite and lambda0 a normal float"
    )
