"""The grid solver against the one-point scalar solver it replaced.

``reference_solve`` is that scalar solver, kept here as a test oracle: one
1,025-point scan per power on Python-float coefficients, then one scalar
bisection per bracket, each root in its smaller variable, and the smallest
gap among them.  The cubic has one root in [0, 1], so there is nothing to
screen out.  Where the reference returns a ``FixedPoint``, the grid solver
and ``solve_fixed_point`` must give the same fields bit for bit; where it
raises its cubic-residual error, the grid solver must raise it with the
same message.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbflab import (
    ChannelParams,
    FixedPoint,
    NoFixedPointError,
    NoiseSpec,
    ParameterError,
    solve_fixed_point,
    sweep_rates,
    verify_asymptotics,
)
from gbflab.analysis import _solve_powers, _solved_grid, power_grid
from test_analysis import cubic_forms

_FLOAT_MIN = 2.0**-1022  # the smallest normal float

# ---------------------------------------------------------------------------
# reference: the scalar solver, one power at a time
# ---------------------------------------------------------------------------


def _ref_coeffs(p, noise):
    s1, s2, rz = noise.sigma1, noise.sigma2, noise.rho_z
    spp = math.sqrt(p + s1 * s1) * math.sqrt(p + s2 * s2)
    s11, s22, s12 = s1 * s1, s2 * s2, s1 * s2
    a = -2.0 * s12 / p - (p + s11 + s22 + rz * s12) / spp - 2.0 * s11 * s22 / (p * spp)
    b = -1.0 - (s11 + s22) / p - rz * (s11 + s22) / spp - s12 * (s11 + s22) / (p * spp)
    c = (p + s11 + s22 - rz * s12) / spp
    defect = (p * (s1 * s1 + s2 * s2) + (s1 * s1) * (s2 * s2)) / (spp * (spp + p))
    lambda2 = 3.0 - 2.0 * s12 / p - (p + s11 + s22 + rz * s12) / spp - 2.0 * s11 * s22 / (p * spp)
    lambda1 = (
        -2.0 * defect
        + ((2.0 + rz) * s11 + (2.0 + rz) * s22 + 2.0 * rz * s12) / spp
        + (s11 + s22 + 4.0 * s12) / p
        + s12 * (s11 + 4.0 * s12 + s22) / (p * spp)
    )
    sq = s11 + 2.0 * s12 + s22
    lambda0 = -(sq / p) * ((1.0 + rz) - rz * defect) - s12 * sq / (p * spp)
    return (a, b, c), (lambda0, lambda1, lambda2)


def _ref_bisect(f, lo, hi):
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


def _ref_brackets(f):
    xs = np.linspace(0.0, 1.0, 1025)
    ys = f(xs)
    zero = ys == 0.0
    neg = ys < 0.0
    change = (neg[:-1] != neg[1:]) & ~zero[:-1] & ~zero[1:]
    los = np.concatenate([xs[zero], xs[:-1][change]])
    his = np.concatenate([xs[zero], xs[1:][change]])
    return list(zip(los.tolist(), his.tolist()))


def reference_solve(p, noise, tol=1e-10):
    (a, b, c), (l0, l1, l2) = _ref_coeffs(p, noise)

    def rho_form(rho):
        return ((rho + a) * rho + b) * rho + c

    def gap_form(g):
        return ((-g + l2) * g + l1) * g + l0

    candidates = []
    for g_lo, g_hi in _ref_brackets(gap_form):
        if g_lo >= 0.5:
            rho = _ref_bisect(rho_form, 1.0 - g_hi, 1.0 - g_lo)
            g = 1.0 - rho
        else:
            g = _ref_bisect(gap_form, g_lo, g_hi)
            rho = 1.0 - g
        candidates.append((g, rho))
    gap, rho_star = min(candidates)
    residual = abs(rho_form(rho_star))
    scale = 1.0 + abs(a) + abs(b) + abs(c)
    if residual > tol * scale:
        raise NoFixedPointError(
            f"cubic residual {residual} exceeds tolerance {tol * scale} at rho = {rho_star}"
        )
    return FixedPoint(rho_star=rho_star, gap=gap, residual=residual)


def _outcome(call):
    try:
        return call()
    except NoFixedPointError as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# bit identity
# ---------------------------------------------------------------------------

_LOG_SIGMA = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
_RHO_Z = st.one_of(
    st.sampled_from([-1.0, 1.0, -1.0 + 1e-15]),
    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
)
_POWERS = st.lists(st.floats(-3.0, 150.0).map(lambda e: 10.0**e), min_size=1, max_size=40)


@settings(max_examples=80, deadline=None)
@given(s1=_LOG_SIGMA, s2=_LOG_SIGMA, rz=_RHO_Z, powers=_POWERS)
@example(s1=1e-3, s2=1e-3, rz=-1.0, powers=[1e2, 1e150])
def test_grid_solver_equals_scalar_reference_bit_for_bit(s1, s2, rz, powers):
    noise = NoiseSpec(s1, s2, rz)
    if any(abs(cubic_forms(ChannelParams(p, noise))[1][0]) < _FLOAT_MIN for p in powers):
        # At rho_z = -1 beyond P ~ 4.7e153 (s1 + s2)^2 lambda0 is subnormal
        # and the gap it sets imprecise; the grid rejects the power, the
        # reference solved it with that imprecision.
        with pytest.raises(ParameterError, match="lambda0 a normal float$"):
            _solve_powers(noise, powers)
        return
    expected = [_outcome(lambda: reference_solve(p, noise)) for p in powers]
    cubic_errors = [e for e in expected if not isinstance(e, FixedPoint)]
    if cubic_errors:
        # The grid solve raises for its first failing power.
        assert _outcome(lambda: _solve_powers(noise, powers)) == cubic_errors[0]
        return
    solved, _, _ = _solve_powers(noise, powers)
    got = list(zip(*(v.tolist() for v in solved)))
    assert len(got) == len(expected)
    for p, fields, ref in zip(powers, got, expected):
        assert tuple(map(float.hex, fields)) == tuple(map(float.hex, ref))
        # The one-point solve is this power's row of the grid solve.
        one_point = solve_fixed_point(ChannelParams(p, noise))
        assert tuple(map(float.hex, one_point)) == tuple(map(float.hex, fields))


@pytest.mark.parametrize("cfg", [(1.0, 1.0, -1.0), (1.0, 1.0, 0.0), (1.0, 2.0, 0.3), (1.0, 1.0, 0.9)])
def test_sweep_and_verify_gaps_are_equal_on_a_dense_grid(cfg):
    noise = NoiseSpec(*cfg)
    rows = sweep_rates(noise, 1e-3, 1e14, 8)
    # Emptied, so that verify_asymptotics solves the grid again: the two
    # solves agree, not one solve read twice.
    _solved_grid.cache_clear()
    report = verify_asymptotics(noise, power_grid(1e-3, 1e14, 8))
    assert [r.gap for r in rows] == [r.gap for r in report.rows]
    assert [r.gap for r in rows] == [reference_solve(r.power, noise).gap for r in rows]
