import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from gbflab import (
    ChannelParams,
    DegenerateMessageError,
    ErrorState,
    MessageConfig,
    NoiseSpec,
    NumericalIntegrityError,
    ParameterError,
    RngSpec,
    UnsupportedConfigurationError,
    achievable_rates,
    level_count,
    lmmse_coefficient_schedule,
    make_generator,
    message_point_variance,
    run_broadcast_campaign,
    run_broadcast_trial,
    run_interference_trial,
    run_limited_feedback_trial,
    sample_noise_pair,
    solve_fixed_point,
    step_error_state,
)
from gbflab import simulate
from gbflab.simulate import (
    _chunk_sizes,
    _coding_loop,
    _decode_from_error,
    _decoded_correctly,
    _draw_messages,
    _run_trial,
)

HEADLINE = ChannelParams(100.0, NoiseSpec(1.0, 1.0, -1.0))


def headline_config(n=20, fraction=0.7, params=HEADLINE):
    fp = solve_fixed_point(params)
    rp = achievable_rates(params, fp.rho_star, gap=fp.gap)
    return MessageConfig(n=n, rate1=fraction * rp.r1, rate2=fraction * rp.r2)


# ---------------------------------------------------------------------------
# message mapping and the dedicated channel uses
# ---------------------------------------------------------------------------
#
# The mapping theta = 1/2 - (m-1)/L and the encoder exist only inside the
# coding loop, so these tests drive the loop itself.


def dedicated_inputs(power, n, rate):
    """Send every message index of the alphabet of ``MessageConfig(n, rate,
    rate)`` through the two dedicated uses of the coding loop; return the
    alphabet size and the yields of t = 1 and t = 2, one array entry per
    index."""
    params = ChannelParams(power, NoiseSpec(1.0, 1.0, 0.0))
    config = MessageConfig(n=n, rate1=rate, rate2=rate)
    levels = config.levels1
    var = message_point_variance(levels)
    schedule = lmmse_coefficient_schedule(params, n, var, var)
    m = np.arange(1, levels + 1)
    gen = make_generator(RngSpec(0, 0))
    steps = _coding_loop(config, params, schedule, gen, m, m, levels)
    return levels, next(steps), next(steps)


def test_map_message_examples():
    levels, (x1, *_), (x2, *_) = dedicated_inputs(1.0, 6, 2.0 / 6.0)
    assert levels == 4
    scale = math.sqrt(1.0 / message_point_variance(4))
    # theta = 1/2, 1/4, 0, -1/4 for m = 1..4, the same grid for both users
    assert x1.tolist() == [scale * 0.5, scale * 0.25, 0.0, scale * -0.25]
    assert np.array_equal(x1, x2)


def test_map_message_injective():
    levels, (x1, *_), (x2, *_) = dedicated_inputs(5.0, 6, 1.0)
    assert levels == 64
    assert len(set(x1.tolist())) == 64 and len(set(x2.tolist())) == 64


def test_message_point_variance_examples():
    assert message_point_variance(1) == 0.0
    assert message_point_variance(2) == pytest.approx(1.0 / 16.0, rel=1e-15)
    assert message_point_variance(1 << 30) == pytest.approx(1.0 / 12.0, rel=1e-9)


def test_level_count():
    assert level_count(5, 0.4) == 4
    assert level_count(5, 0.0) == 1
    assert level_count(10, 0.35) == math.ceil(2.0**3.5)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def test_encode_init_examples():
    levels, first, second = dedicated_inputs(1.0, 3, 1.0 / 3.0)
    assert levels == 2
    # sqrt(P / var) * theta with var = 1/16: 2 for theta = 1/2, 0 for theta = 0
    x1, t1, t2, eps1, eps2 = first
    assert x1 == pytest.approx([2.0, 0.0], rel=1e-15, abs=0.0)
    # t = 1 is transmitter 1's use, t = 2 transmitter 2's; no errors before t = 2.
    assert np.array_equal(t1, x1) and t2 == 0.0 and eps1 is None and eps2 is None
    x2, t1, t2, eps1, eps2 = second
    assert np.array_equal(x2, x1) and t1 == 0.0 and np.array_equal(t2, x2)
    assert eps1.shape == eps2.shape == (2,)


def test_encode_init_mean_square_close_to_power():
    # The dedicated use transmits sqrt(P/var) * theta with theta's mean
    # offset 1/(2L): its exact mean square is P (L^2+2)/(L^2-1), within
    # O(1/L^2) of the block power.
    levels, (x1, *_), (x2, *_) = dedicated_inputs(5.0, 6, 1.0)
    exact = 5.0 * (levels**2 + 2) / (levels**2 - 1)
    for x in (x1, x2):
        second_moment = float(np.mean(x**2))
        assert second_moment == pytest.approx(exact, rel=1e-12)
        assert abs(second_moment / 5.0 - 1.0) < 1e-3


def test_encode_step_examples():
    # gamma = 1 and rho = 0 after the dedicated uses, so the first feedback
    # input is sqrt(P/2) * (eps1/sqrt(alpha1) + eps2/sqrt(alpha2)).
    params = ChannelParams(8.0, NoiseSpec(1.0, 1.0, -1.0))
    config = MessageConfig(n=5, rate1=0.4, rate2=0.4)
    var = message_point_variance(config.levels1)
    schedule = lmmse_coefficient_schedule(params, config.n, var, var)
    m = np.arange(1, 101) % config.levels1 + 1
    gen = make_generator(RngSpec(3, 0))
    steps = list(_coding_loop(config, params, schedule, gen, m, m, 100))
    _, _, _, eps1, eps2 = steps[1]
    x = steps[2][0]
    alpha = var / 8.0
    expected = math.sqrt(8.0 / 2.0) * (eps1 / math.sqrt(alpha) + eps2 / math.sqrt(alpha))
    assert np.allclose(x, expected, rtol=1e-12, atol=0.0)


def test_encode_step_power_normalization_monte_carlo():
    # From t = 3 on, the empirical mean of X^2 is within 5 standard errors
    # of P at every step.
    params = ChannelParams(10.0, NoiseSpec(1.0, 2.0, 0.4))
    config = MessageConfig(n=12, rate1=0.5, rate2=0.4)
    trials = 20_000
    summary = run_broadcast_campaign(config, params, trials, 88)
    se = 10.0 * math.sqrt(2.0 / trials)
    assert np.all(np.abs(summary.power_per_step[2:] - 10.0) <= 5 * se)


def test_receiver_update_orthogonality_monte_carlo():
    # The coding loop's receiver update eps_v <- eps_v - c_v * y_v is the
    # scalar LMMSE step.  A twin of the loop's stream rebuilds the outputs
    # y_v = x + z_v: the loop's errors are that update bit for bit, and each
    # residual error is uncorrelated with the output it used.
    params = ChannelParams(25.0, NoiseSpec(1.0, 2.0, 0.3))
    config = MessageConfig(n=5, rate1=1.0, rate2=1.0)
    var = message_point_variance(config.levels1)
    schedule = lmmse_coefficient_schedule(params, config.n, var, var)
    size = 100_000
    m = np.ones(size, dtype=np.int64)
    gen = make_generator(RngSpec(4242, 0))
    steps = list(_coding_loop(config, params, schedule, gen, m, m, size))
    twin = make_generator(RngSpec(4242, 0))
    sample_noise_pair(params.noise, twin, size)
    sample_noise_pair(params.noise, twin, size)
    for t in range(2, config.n):
        x, _, _, eps1, eps2 = steps[t]
        z1, z2 = sample_noise_pair(params.noise, twin, size)
        y1, y2 = x + z1, x + z2
        assert np.array_equal(eps1, steps[t - 1][3] - schedule.c1[t - 2] * y1)
        assert np.array_equal(eps2, steps[t - 1][4] - schedule.c2[t - 2] * y2)
        for eps, y in ((eps1, y1), (eps2, y2)):
            assert abs(float(np.corrcoef(eps, y)[0, 1])) <= 5.0 / math.sqrt(size)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def test_decode_examples():
    # The receiver's estimate is theta_m + eps; it decodes to the nearest
    # point of the grid theta_j = 1/2 - (j-1)/L.
    for m in (1, 2, 17, 100):
        assert _decode_from_error(0.0, m, 100) == m
    assert _decode_from_error(0.3, 2, 2) == 1  # estimate 0.3: 1/2 is nearer than 0
    assert _decode_from_error(0.25, 2, 2) == 1  # exact midpoint: smaller index wins
    assert _decode_from_error(-0.25, 1, 2) == 1
    assert _decode_from_error(5.0 - 0.125, 4, 8) == 1  # estimate 5: clamps to j = 1
    assert _decode_from_error(-5.0 - 0.125, 4, 8) == 8  # estimate -5: clamps to j = L
    assert _decode_from_error(math.inf, 4, 8) == 1
    assert _decode_from_error(-math.inf, 4, 8) == 8
    assert _decode_from_error(math.nan, 4, 8) == 8


def test_decode_roundtrip_random():
    # An error within half a grid step decodes to the sent index, also
    # beyond 2**53 points where float64 cannot hold the index.
    rng = np.random.default_rng(1)
    for i in range(200):
        levels = int(rng.integers(2, 1 << 30)) << (40 if i % 2 else 0)
        m = levels - int(rng.integers(0, min(levels, 1 << 62)))
        eps = rng.uniform(-0.499, 0.499) / levels
        assert _decode_from_error(eps, m, levels) == m


def test_wide_alphabet_array_draw_equals_successive_scalar_draws():
    # At 2**64 + 1 points a draw is a 65-bit group of two words, and about
    # half the groups are rejected.  The scalar draws are the groups a
    # word-at-a-time rejection loop keeps; the array draw must hand the same
    # groups out in the same order and leave the stream at the same place.
    levels, size = 2**64 + 1, 2000
    reference_gen, scalar_gen, array_gen = (make_generator(RngSpec(21, 0)) for _ in range(3))
    reference, groups = [], 0
    while len(reference) < size:
        value = 0
        for _ in range(2):
            word = reference_gen.integers(0, 2**64 - 1, endpoint=True, dtype=np.uint64)
            value = (value << 64) | int(word)
        value &= (1 << 65) - 1
        groups += 1
        if value < levels:
            reference.append(value + 1)
    assert 0.4 < 1.0 - size / groups < 0.6
    scalar = [_draw_messages(scalar_gen, levels) for _ in range(size)]
    assert scalar == reference
    drawn = _draw_messages(array_gen, levels, size)
    assert drawn.dtype == np.float64
    assert drawn.tolist() == [float(m) for m in scalar]
    after = reference_gen.standard_normal()
    assert scalar_gen.standard_normal() == array_gen.standard_normal() == after


def test_campaign_success_mask_matches_exact_decode_beyond_2_53_points():
    # At 2**61 points an offset of a few levels is below ulp(m)/2 of the
    # index, so m - offset in float64 rounds back to m; the campaign's
    # success decision has to follow the exact integer decode instead.
    levels = 2**61
    offsets = (-3.0, -1.0, -0.5, 0.0, 0.49, 0.5, 1.0, 3.0, 2.0**62, -(2.0**62),
               math.inf, -math.inf, math.nan)
    cases = [(m, k) for m in (1, 2, 2**60, levels - 1, levels) for k in offsets]
    m = np.array([c[0] for c in cases], dtype=np.int64)
    eps = np.array([c[1] for c in cases]) / levels
    expected = [_decode_from_error(e, int(mi), levels) == mi for e, mi in zip(eps, m)]
    assert _decoded_correctly(eps, m == 1, m == levels, levels).tolist() == expected
    m = np.array([2**60])
    assert not _decoded_correctly(np.array([3.0 / levels]), m == 1, m == levels, levels)[0]


# ---------------------------------------------------------------------------
# coefficient schedule
# ---------------------------------------------------------------------------


def test_schedule_projection_reproduces_moment_recursion():
    # Defining cross-check: the moments induced by the closed-form LMMSE
    # projection equal the recursion values, across random parameter draws.
    rng = np.random.default_rng(99)
    for _ in range(100):
        p = 10 ** rng.uniform(0, 4)
        s1, s2 = rng.uniform(0.5, 2, size=2)
        rz = rng.uniform(-1, 1)
        params = ChannelParams(p, NoiseSpec(s1, s2, rz))
        g = s1 / s2
        n = 50
        sched = lmmse_coefficient_schedule(params, n, 1.0 / 12.0, 1.0 / 12.0)
        var_y1, var_y2 = p + s1 * s1, p + s2 * s2
        for k in range(3, n + 1):
            i = k - 3
            a1 = float(sched.alpha1[i])
            a2 = float(sched.alpha2[i])
            rho = float(sched.rho[i])
            psi = float(sched.psi[i])
            ar, sg = abs(rho), (1.0 if rho >= 0 else -1.0)
            cov1 = psi * math.sqrt(a1) * (1 + g * ar)
            cov2 = psi * math.sqrt(a2) * sg * (g + ar)
            c1 = cov1 / var_y1
            c2 = cov2 / var_y2
            assert c1 == pytest.approx(float(sched.c1[i]), rel=1e-12)
            assert c2 == pytest.approx(float(sched.c2[i]), rel=1e-12)
            a1_next = a1 - cov1 * cov1 / var_y1
            a2_next = a2 - cov2 * cov2 / var_y2
            assert a1_next == pytest.approx(float(sched.alpha1[i + 1]), rel=1e-12)
            assert a2_next == pytest.approx(float(sched.alpha2[i + 1]), rel=1e-12)
            # correlation via the projected cross-moment
            cov12 = (
                rho * math.sqrt(a1 * a2)
                - c2 * cov1
                - c1 * cov2
                + c1 * c2 * (p + rz * s1 * s2)
            )
            rho_next = cov12 / math.sqrt(a1_next * a2_next)
            assert rho_next == pytest.approx(float(sched.rho[i + 1]), rel=1e-7, abs=1e-7)


def test_schedule_symmetric_coefficients_match():
    sched = lmmse_coefficient_schedule(HEADLINE, 10, 1.0 / 12.0, 1.0 / 12.0)
    # rho_z=-1, equal sigmas, symmetric start: coefficient magnitudes agree
    assert np.allclose(np.abs(sched.c1), np.abs(sched.c2), rtol=1e-12)


def test_schedule_matches_step_error_state_trajectory():
    params = ChannelParams(42.0, NoiseSpec(1.0, 2.0, 0.25))
    sched = lmmse_coefficient_schedule(params, 8, 1.0 / 12.0, 1.0 / 16.0)
    state = ErrorState(
        alpha1=(1.0 / 12.0) * 1.0 / 42.0,
        alpha2=(1.0 / 16.0) * 4.0 / 42.0,
        rho=0.0,
        step_index=2,
    )
    for k in range(2, 9):
        i = k - 2
        assert state.alpha1 == pytest.approx(float(sched.alpha1[i]), rel=1e-14)
        assert state.alpha2 == pytest.approx(float(sched.alpha2[i]), rel=1e-14)
        assert state.rho == pytest.approx(float(sched.rho[i]), rel=1e-14, abs=1e-14)
        if k < 8:
            state = step_error_state(state, params)


def test_schedule_underflow_guard():
    params = ChannelParams(1e8, NoiseSpec(1.0, 1.0, -1.0))
    with pytest.raises(NumericalIntegrityError, match="underflow"):
        lmmse_coefficient_schedule(params, 60, 1.0 / 12.0, 1.0 / 12.0)


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------


def test_trial_deterministic_and_streams_differ():
    config = headline_config(n=12)
    a = run_broadcast_trial(config, HEADLINE, RngSpec(321, 0))
    b = run_broadcast_trial(config, HEADLINE, RngSpec(321, 0))
    c = run_broadcast_trial(config, HEADLINE, RngSpec(321, 1))
    assert a.message1 == b.message1 and a.message2 == b.message2
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.eps1, b.eps1) and np.array_equal(a.eps2, b.eps2)
    assert not np.array_equal(a.inputs, c.inputs)


def test_trial_record_shapes_and_powers():
    config = headline_config(n=9)
    rec = run_broadcast_trial(config, HEADLINE, RngSpec(5, 5))
    assert rec.inputs.shape == (9,)
    assert rec.eps1.shape == (8,) and rec.eps2.shape == (8,)
    assert rec.success == (rec.decoded1 == rec.message1 and rec.decoded2 == rec.message2)
    # Over independent trials each feedback use (t >= 3) has mean power P,
    # within 5 standard errors.
    trials = 400
    inputs = np.array(
        [run_broadcast_trial(config, HEADLINE, RngSpec(5, sid)).inputs for sid in range(trials)]
    )
    se = 100.0 * math.sqrt(2.0 / trials)
    assert np.all(np.abs(np.mean(inputs[:, 2:] ** 2, axis=0) - 100.0) <= 5 * se)


def test_trial_runs_config_length_on_a_longer_schedule_and_rejects_a_shorter_one():
    config = headline_config(n=12)
    var1 = message_point_variance(config.levels1)
    var2 = message_point_variance(config.levels2)
    exact = run_broadcast_trial(config, HEADLINE, RngSpec(3, 3))
    longer = lmmse_coefficient_schedule(HEADLINE, 16, var1, var2)
    rec = run_broadcast_trial(config, HEADLINE, RngSpec(3, 3), schedule=longer)
    assert np.array_equal(rec.inputs, exact.inputs) and np.array_equal(rec.eps2, exact.eps2)
    shorter = lmmse_coefficient_schedule(HEADLINE, 8, var1, var2)
    with pytest.raises(ParameterError, match="schedule"):
        run_broadcast_trial(config, HEADLINE, RngSpec(3, 3), schedule=shorter)
    # A 2-level alphabet has variance 1/16; a schedule built for 1/12 would
    # plant the message points at 0.75 P.
    two_level = MessageConfig(n=12, rate1=1.0 / 12.0, rate2=1.0 / 12.0)
    assert message_point_variance(two_level.levels1) == 1.0 / 16.0
    other = lmmse_coefficient_schedule(HEADLINE, 12, 1.0 / 12.0, 1.0 / 12.0)
    with pytest.raises(ParameterError, match="variances"):
        run_broadcast_trial(two_level, HEADLINE, RngSpec(3, 3), schedule=other)


def test_interference_trial_equals_broadcast_bitwise():
    config = headline_config(n=16)
    for sid in range(20):
        a = run_broadcast_trial(config, HEADLINE, RngSpec(77, sid))
        b = run_interference_trial(config, HEADLINE, RngSpec(77, sid))
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(b.inputs, b.tx1 + b.tx2)
        assert np.array_equal(a.eps1, b.eps1) and np.array_equal(a.eps2, b.eps2)
        assert (a.decoded1, a.decoded2) == (b.decoded1, b.decoded2)


def test_interference_per_transmitter_power_below_block_power():
    config = headline_config(n=20)
    summary = run_broadcast_campaign(config, HEADLINE, 2000, 15, mode="interference")
    assert summary.tx1_mean_power is not None
    assert summary.tx1_mean_power <= 100.0
    assert summary.tx2_mean_power <= 100.0


def test_limited_feedback_matches_full_feedback():
    config = headline_config(n=20)
    for sid in range(10):
        full = run_broadcast_trial(config, HEADLINE, RngSpec(7, sid))
        lim = run_limited_feedback_trial(config, HEADLINE, RngSpec(7, sid), fed_back_receiver=1)
        assert np.allclose(full.inputs, lim.inputs, rtol=0, atol=1e-12)
        assert np.allclose(full.eps1, lim.eps1, rtol=0, atol=1e-12)
        assert np.allclose(full.eps2, lim.eps2, rtol=0, atol=1e-12)
        assert (full.decoded1, full.decoded2) == (lim.decoded1, lim.decoded2)


def test_limited_feedback_either_receiver_gives_same_decodes():
    config = headline_config(n=14)
    for sid in range(10):
        r1 = run_limited_feedback_trial(config, HEADLINE, RngSpec(13, sid), fed_back_receiver=1)
        r2 = run_limited_feedback_trial(config, HEADLINE, RngSpec(13, sid), fed_back_receiver=2)
        assert (r1.decoded1, r1.decoded2) == (r2.decoded1, r2.decoded2)


def test_limited_feedback_needs_degenerate_noise():
    config = headline_config(n=10)
    params = ChannelParams(100.0, NoiseSpec(1.0, 1.0, 0.99))
    with pytest.raises(UnsupportedConfigurationError):
        run_limited_feedback_trial(config, params, RngSpec(0, 0))
    with pytest.raises(UnsupportedConfigurationError):
        run_broadcast_campaign(config, params, 100, 0, mode="limited")


def test_trial_with_tiny_power_decodes_at_chance_level():
    # With effectively no signal and two-point alphabets, each receiver's
    # decision is a coin flip, so joint success sits near 1/4.
    config = MessageConfig(n=5, rate1=0.2, rate2=0.2)
    assert config.levels1 == 2
    params = ChannelParams(1e-12, NoiseSpec(1.0, 1.0, 0.0))
    summary = run_broadcast_campaign(config, params, 4000, 99)
    success_rate = 1.0 - summary.error_rate
    assert abs(success_rate - 0.25) < 0.05


def test_trial_noiseless_proxy_always_succeeds():
    config = MessageConfig(n=5, rate1=0.4, rate2=0.4)
    assert config.levels1 == 4
    params = ChannelParams(1.0, NoiseSpec(1e-6, 1e-6, -1.0))
    summary = run_broadcast_campaign(config, params, 1000, 99)
    assert summary.error_rate < 1e-3


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


def test_campaign_deterministic_bitwise():
    config = headline_config(n=12)
    a = run_broadcast_campaign(config, HEADLINE, 500, 2718)
    b = run_broadcast_campaign(config, HEADLINE, 500, 2718)
    assert np.array_equal(a.mean1, b.mean1)
    assert np.array_equal(a.var2, b.var2)
    assert np.array_equal(a.corr, b.corr)
    assert a.error_rate == b.error_rate and a.mean_power == b.mean_power


def _fsum_moments(e1, e2):
    """Two-pass moments of one step's errors, every sum exactly rounded:
    means, unbiased variances and correlation."""
    count = len(e1)
    mean1, mean2 = math.fsum(e1) / count, math.fsum(e2) / count
    d1, d2 = e1 - mean1, e2 - mean2
    ss1, ss2, co = (math.fsum(v) for v in (d1 * d1, d2 * d2, d1 * d2))
    return mean1, mean2, ss1 / (count - 1), ss2 / (count - 1), co / math.sqrt(ss1 * ss2)


def test_multi_chunk_campaign_pools_its_chunk_streams():
    # Oracle for the pooled sums: chunk c of a campaign runs on
    # RngSpec(seed, c), so the concatenated chunk arrays rebuilt here are the
    # campaign's blocks, and an fsum two-pass over them gives the moments the
    # campaign must reproduce, through the same path for one chunk or three.
    cases = [
        (HEADLINE, 6, 0.75, 150_000, 4, 3),
        # At the rate bound, so that some blocks decode wrongly.
        (ChannelParams(1e4, NoiseSpec(1.0, 1.0, 1.0)), 20, 1.0, 10_000, 5, 1),
    ]
    for params, n, fraction, trials, seed, chunk_count in cases:
        config = headline_config(n=n, fraction=fraction, params=params)
        summary = run_broadcast_campaign(config, params, trials, seed, mode="interference")
        again = run_broadcast_campaign(config, params, trials, seed, mode="interference")
        for field in ("mean1", "mean2", "var1", "var2", "corr", "power_per_step"):
            assert getattr(summary, field).tobytes() == getattr(again, field).tobytes(), field
        assert (summary.errors, summary.tx1_mean_power) == (again.errors, again.tx1_mean_power)

        var1 = message_point_variance(config.levels1)
        var2 = message_point_variance(config.levels2)
        schedule = lmmse_coefficient_schedule(params, n, var1, var2)
        chunks, errors = [], 0
        for c, size in enumerate(_chunk_sizes(trials)):
            gen = make_generator(RngSpec(seed, c))
            m1 = _draw_messages(gen, config.levels1, size)
            m2 = _draw_messages(gen, config.levels2, size)
            steps = list(_coding_loop(config, params, schedule, gen, m1, m2, size))
            eps1, eps2 = steps[-1][3], steps[-1][4]
            ok1 = _decoded_correctly(eps1, m1 == 1, m1 == config.levels1, config.levels1)
            ok2 = _decoded_correctly(eps2, m2 == 1, m2 == config.levels2, config.levels2)
            errors += size - int(np.count_nonzero(ok1 & ok2))
            chunks.append(
                [[np.broadcast_to(v, (size,)) for v in step if v is not None] for step in steps]
            )
        assert len(chunks) == chunk_count
        assert summary.errors == errors > 0

        x, t1, t2 = (
            [np.concatenate([ch[t][j] for ch in chunks]).tolist() for t in range(n)]
            for j in range(3)
        )
        eps1, eps2 = (
            [np.concatenate([ch[t][j] for ch in chunks]) for t in range(1, n)] for j in (3, 4)
        )
        mean1, mean2, ref1, ref2, corr = np.array(
            [_fsum_moments(a, b) for a, b in zip(eps1, eps2)]
        ).T
        rel = 2e-15
        np.testing.assert_allclose(summary.var1, ref1, rtol=rel, atol=0)
        np.testing.assert_allclose(summary.var2, ref2, rtol=rel, atol=0)
        np.testing.assert_allclose(summary.corr, corr, rtol=0, atol=rel)
        # The means are near 0, so their error is measured against the spread.
        assert np.all(np.abs(summary.mean1 - mean1) <= rel * np.sqrt(ref1))
        assert np.all(np.abs(summary.mean2 - mean2) <= rel * np.sqrt(ref2))
        power = [math.fsum(v * v for v in xt) / trials for xt in x]
        np.testing.assert_allclose(summary.power_per_step, power, rtol=rel, atol=0)
        cells = trials * n
        tx1 = math.fsum(v * v for t in t1 for v in t) / cells
        tx2 = math.fsum(v * v for t in t2 for v in t) / cells
        assert summary.tx1_mean_power == pytest.approx(tx1, rel=rel)
        assert summary.tx2_mean_power == pytest.approx(tx2, rel=rel)


def test_campaign_chunks_are_balanced():
    assert _chunk_sizes(100) == [100]
    assert _chunk_sizes(65_536) == [65_536]
    assert sorted(_chunk_sizes(65_537)) == [32_768, 32_769]
    sizes = _chunk_sizes(1_000_000)
    assert len(sizes) == 16 and sum(sizes) == 1_000_000 and max(sizes) - min(sizes) <= 1
    summary = run_broadcast_campaign(headline_config(n=5), HEADLINE, 65_537, 9)
    for field in ("mean1", "mean2", "var1", "var2", "corr", "power_per_step"):
        assert np.all(np.isfinite(getattr(summary, field))), field


def test_campaign_memory_is_bounded_by_the_chunk():
    # Holding every block at once would peak near 60 MB here; a campaign
    # holds one chunk of at most 65,536 blocks.  Limited mode keeps the most
    # arrays per step.
    config = headline_config(n=10)
    tracemalloc.start()
    try:
        run_broadcast_campaign(config, HEADLINE, 300_000, 3, mode="limited")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_campaign_chunk_working_set_stays_small():
    # One chunk of 65,536 blocks keeps only the two errors, the message edge
    # flags and the arrays of the step in flight, 0.52 MB each: about 4.5 MB
    # at the peak.  A thread per CPU holds one such chunk.
    params = ChannelParams(100.0, NoiseSpec(1.0, 2.0, 0.3))
    config = headline_config(n=20, params=params)
    tracemalloc.start()
    try:
        run_broadcast_campaign(config, params, 65_536, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7e6


def _chunks_side_by_side(monkeypatch, cpus, chunks, fail_at=None):
    """Run campaigns as on ``cpus`` CPUs.  The first min(chunks, cpus)
    chunks meet at a barrier before they compute, so each of them must run
    on its own thread; chunk ``fail_at`` then raises."""
    workers = min(chunks, cpus)
    barrier = threading.Barrier(workers, timeout=30)
    original = simulate._chunk_sums

    def chunk_sums(config, params, schedule, mode, rng, size):
        if rng.stream_id < workers:
            barrier.wait()
        if rng.stream_id == fail_at:
            raise UnsupportedConfigurationError(f"chunk {fail_at} failed")
        return original(config, params, schedule, mode, rng, size)

    monkeypatch.setattr(simulate, "_available_cpus", lambda: cpus)
    monkeypatch.setattr(simulate, "_chunk_sums", chunk_sums)


def _summary_bytes(summary):
    return {
        f.name: (v.tobytes() if isinstance(v, np.ndarray) else repr(v))
        for f in dataclasses.fields(summary)
        for v in [getattr(summary, f.name)]
    }


@pytest.mark.parametrize("mode", ["broadcast", "interference", "limited"])
def test_campaign_bytes_do_not_depend_on_the_worker_count(monkeypatch, mode):
    # Three chunks on one, two and three threads (four CPUs offered).
    config = headline_config(n=6)
    trials = 150_000
    assert len(_chunk_sizes(trials)) == 3
    summaries = []
    for cpus in (1, 2, 4):
        with monkeypatch.context() as m:
            _chunks_side_by_side(m, cpus, chunks=3)
            summary = run_broadcast_campaign(config, HEADLINE, trials, 8, mode)
            summaries.append(_summary_bytes(summary))
    assert summaries[0] == summaries[1] == summaries[2]


@pytest.mark.parametrize("fail_at", [0, 1, 2])
def test_campaign_raises_the_error_of_a_chunk_on_any_thread(monkeypatch, fail_at):
    # The three chunks run on three threads, so two of these cases fail in
    # a helper thread.  The error reaches the caller with its own type, and
    # every helper has stopped by then.
    _chunks_side_by_side(monkeypatch, 4, chunks=3, fail_at=fail_at)
    before = threading.active_count()
    with pytest.raises(UnsupportedConfigurationError, match=f"chunk {fail_at} failed"):
        run_broadcast_campaign(headline_config(n=6), HEADLINE, 150_000, 8)
    assert threading.active_count() == before


def test_chunk_map_runs_every_chunk_once_under_thread_stress(monkeypatch):
    # Eight threads on a shortened switch interval take 2,000 chunks from
    # the shared iterator: a chunk taken twice or lost would change the
    # calls or leave a result missing.
    monkeypatch.setattr(simulate, "_available_cpus", lambda: 8)
    calls = []

    def run(c, size):
        calls.append(c)
        return c * size

    sizes = list(range(1, 2001))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = simulate._map_chunks(run, sizes)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == list(range(2000))
    assert results == [c * size for c, size in enumerate(sizes)]


def test_single_chunk_campaign_starts_no_thread(monkeypatch):
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(simulate, "_available_cpus", lambda: 4)
    monkeypatch.setattr(simulate.threading, "Thread", CountedThread)
    run_broadcast_campaign(headline_config(n=6), HEADLINE, 65_536, 8)
    assert started == []
    run_broadcast_campaign(headline_config(n=6), HEADLINE, 65_537, 8)
    assert len(started) == 1


def test_campaign_moments_match_recursion_asymmetric():
    # Moment oracle on an asymmetric configuration: empirical error moments
    # track the analytic schedule within 5 standard errors.
    params = ChannelParams(50.0, NoiseSpec(1.0, 2.0, 0.3))
    config = MessageConfig(n=12, rate1=0.5, rate2=0.4)
    summary = run_broadcast_campaign(config, params, 20_000, 5150)
    for name, z in summary.moment_z_scores().items():
        assert float(np.max(np.abs(z))) <= 5.0, name
    assert abs(summary.mean_power / 50.0 - 1.0) < 0.01


def test_campaign_moments_match_recursion_degenerate():
    params = ChannelParams(100.0, NoiseSpec(1.0, 1.0, -1.0))
    config = headline_config(n=16)
    summary = run_broadcast_campaign(config, params, 20_000, 61)
    for name, z in summary.moment_z_scores().items():
        assert float(np.max(np.abs(z))) <= 5.0, name


def test_campaign_error_rate_non_increasing_in_block_length():
    # Statistical monotonicity at fixed rates: longer blocks cannot be worse
    # beyond confidence-interval slack.
    params = HEADLINE
    rates = []
    for n in (8, 12, 16, 24):
        config = MessageConfig(n=n, rate1=2.7, rate2=2.7)
        s = run_broadcast_campaign(config, params, 10_000, 31337)
        rates.append((s.error_rate, s.ci_low, s.ci_high))
    for (r_small, lo_s, hi_s), (r_large, lo_l, hi_l) in zip(rates, rates[1:]):
        assert r_large <= r_small + (hi_s - lo_s)


def test_campaign_error_rate_agrees_with_exact_trial_decodes_beyond_2_53_points():
    # At P = 1e3 and 93% of the rates the alphabets hold beyond 2**53 points
    # and about 60% of blocks miss by a few levels; the campaign must count
    # those misses as the exact per-trial decode does.
    params = ChannelParams(1e3, NoiseSpec(1.0, 1.0, -1.0))
    config = headline_config(params=params, fraction=0.93)
    assert config.levels1 > 2**53
    campaign = run_broadcast_campaign(config, params, 2000, 7, mode="limited")
    assert 0 < campaign.errors < 2000
    errors = sum(
        not run_limited_feedback_trial(config, params, RngSpec(7, sid)).success
        for sid in range(500)
    )
    pooled = (campaign.errors + errors) / 2500
    se = math.sqrt(pooled * (1.0 - pooled) * (1 / 2000 + 1 / 500))
    assert abs(campaign.error_rate - errors / 500) <= 5.0 * se


def test_campaign_validation():
    config = headline_config(n=10)
    with pytest.raises(ParameterError):
        run_broadcast_campaign(config, HEADLINE, 50, 0)
    with pytest.raises(ParameterError):
        run_broadcast_campaign(config, HEADLINE, 100, 0, mode="bogus")


@pytest.mark.parametrize("trials", [1000.0, "1000", None, 99])
def test_campaign_rejects_trials_that_are_not_an_integer_of_at_least_100(trials):
    with pytest.raises(ParameterError, match="trials"):
        run_broadcast_campaign(headline_config(n=10), HEADLINE, trials, 0)


def test_campaign_fixpoint_init_pins_schedule_correlation():
    config = headline_config(n=10)
    summary = run_broadcast_campaign(config, HEADLINE, 200, 1, fixpoint_init=True)
    fp = solve_fixed_point(HEADLINE)
    assert summary.rho[0] == pytest.approx(fp.rho_star, abs=1e-12)
    assert abs(summary.rho[1]) == pytest.approx(fp.rho_star, abs=1e-9)


def test_message_config_validation():
    with pytest.raises(ParameterError):
        MessageConfig(n=2, rate1=0.5, rate2=0.5)
    with pytest.raises(ParameterError):
        MessageConfig(n=10, rate1=-0.1, rate2=0.5)
    with pytest.raises(DegenerateMessageError):
        run_broadcast_trial(MessageConfig(n=5, rate1=0.0, rate2=0.4), HEADLINE, RngSpec(0, 0))


def _trial_entry(config, params, mode, fed_back_receiver=1, schedule=None):
    return _run_trial(config, params, RngSpec(0, 0), mode, fed_back_receiver, schedule)


def _campaign_entry(config, params, mode, fed_back_receiver=1, schedule=None):
    # A campaign always builds its own schedule.
    return run_broadcast_campaign(
        config, params, 100, 0, mode=mode, fed_back_receiver=fed_back_receiver
    )


@pytest.mark.parametrize("entry", [_trial_entry, _campaign_entry], ids=["trial", "campaign"])
@pytest.mark.parametrize(
    "inputs, error",
    [
        ({"mode": "limited", "fed_back_receiver": 3}, ParameterError),
        (
            {"mode": "limited", "params": ChannelParams(100.0, NoiseSpec(1.0, 1.0, 0.5))},
            UnsupportedConfigurationError,
        ),
        (
            {
                "config": MessageConfig(n=5, rate1=0.0, rate2=0.2),
                "schedule": lmmse_coefficient_schedule(HEADLINE, 5, 1.0 / 16.0, 1.0 / 16.0),
            },
            DegenerateMessageError,
        ),
        ({"mode": "bogus"}, ParameterError),
    ],
    ids=["fed_back_receiver_3", "non_degenerate_limited", "single_point_alphabet", "bogus_mode"],
)
def test_trials_and_campaigns_reject_the_same_inputs(entry, inputs, error):
    args = {"config": headline_config(n=10), "params": HEADLINE, "mode": "broadcast", **inputs}
    with pytest.raises(error):
        entry(**args)


# ---------------------------------------------------------------------------
# limited feedback at full precision
# ---------------------------------------------------------------------------
#
# The encoder's copy of the hidden receiver's error must be exact.  With
# |rho_z| = 1 the hidden noise is an exact scaling of the observed one, so the
# encoder holds the receivers' own errors; a rebuild of the hidden output from
# y - x instead rounds by about ulp(x) on every step while the true error
# decays geometrically (max |z| about 3e3 at the CLI defaults, wrong decodes
# at P >= 1e3).


def _max_abs_z(summary):
    return max(float(np.max(np.abs(z))) for z in summary.moment_z_scores().values())


def test_limited_campaign_moments_at_cli_defaults():
    # `gbflab simulate --mode limited` at its defaults.
    summary = run_broadcast_campaign(
        headline_config(), HEADLINE, 10_000, 20240901, mode="limited", fed_back_receiver=1
    )
    assert _max_abs_z(summary) <= 6.0


@pytest.mark.parametrize("power", [1e3, 1e4])
def test_limited_decodes_equal_broadcast_at_high_power(power):
    params = ChannelParams(power, NoiseSpec(1.0, 1.0, -1.0))
    config = headline_config(params=params)
    var1 = message_point_variance(config.levels1)
    var2 = message_point_variance(config.levels2)
    schedule = lmmse_coefficient_schedule(params, config.n, var1, var2)
    differing = 0
    for sid in range(2000):
        full = run_broadcast_trial(config, params, RngSpec(7, sid), schedule=schedule)
        lim = run_limited_feedback_trial(config, params, RngSpec(7, sid), schedule=schedule)
        differing += (full.decoded1, full.decoded2) != (lim.decoded1, lim.decoded2)
    assert differing == 0


def test_limited_feedback_from_receiver_2_asymmetric_noise():
    # Receiver 2 fed back with unequal noise levels: the fix has to hold for
    # the other reconstruction direction and for a noise ratio other than 1.
    params = ChannelParams(1e4, NoiseSpec(1.3, 0.7, -1.0))
    config = headline_config(params=params)
    summary = run_broadcast_campaign(
        config, params, 10_000, 20240901, mode="limited", fed_back_receiver=2
    )
    assert _max_abs_z(summary) <= 6.0


@pytest.mark.parametrize("sigmas", [(1.0, 1.0), (1.3, 0.7)], ids=["equal", "unequal"])
@pytest.mark.parametrize("fed_back_receiver", [1, 2])
def test_limited_campaign_equals_broadcast_bitwise(fed_back_receiver, sigmas):
    # Whichever receiver is fed back, the encoder knows both errors exactly,
    # so limited feedback runs the broadcast scheme on the same noise pair.
    params = ChannelParams(HEADLINE.power, NoiseSpec(*sigmas, -1.0))
    config = headline_config(n=12, params=params)
    full = run_broadcast_campaign(config, params, 2000, 5)
    lim = run_broadcast_campaign(
        config, params, 2000, 5, mode="limited", fed_back_receiver=fed_back_receiver
    )
    for field in ("mean1", "mean2", "var1", "var2", "corr", "power_per_step"):
        assert getattr(lim, field).tobytes() == getattr(full, field).tobytes(), field
    assert lim.errors == full.errors
