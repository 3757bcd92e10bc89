import math

import numpy as np
import pytest

from gbflab import (
    ChannelParams,
    CoderState,
    DegenerateMessageError,
    ErrorState,
    MessageConfig,
    NoiseSpec,
    NumericalIntegrityError,
    ParameterError,
    RngSpec,
    UnsupportedConfigurationError,
    achievable_rates,
    decode,
    encode_init,
    encode_step,
    encode_terms,
    level_count,
    lmmse_coefficient_schedule,
    make_generator,
    map_message,
    message_point_variance,
    receiver_update,
    run_broadcast_campaign,
    run_broadcast_trial,
    run_interference_trial,
    run_limited_feedback_trial,
    solve_fixed_point,
    step_error_state,
)
from gbflab.simulate import _decode_from_error, _decoded_correctly, _run_trial

HEADLINE = ChannelParams(100.0, NoiseSpec(1.0, 1.0, -1.0))


def headline_config(n=20, fraction=0.7, params=HEADLINE):
    fp = solve_fixed_point(params)
    rp = achievable_rates(params, fp.rho_star, gap=fp.gap)
    return MessageConfig(n=n, rate1=fraction * rp.r1, rate2=fraction * rp.r2)


# ---------------------------------------------------------------------------
# message mapping
# ---------------------------------------------------------------------------


def test_map_message_examples():
    assert map_message(1, 7).theta == 0.5
    assert map_message(4, 4).theta == pytest.approx(-0.5 + 1.0 / 4.0)
    assert map_message(3, 4).theta == 0.0


def test_map_message_injective():
    thetas = {map_message(m, 64).theta for m in range(1, 65)}
    assert len(thetas) == 64


def test_map_message_validation():
    with pytest.raises(ParameterError):
        map_message(0, 4)
    with pytest.raises(ParameterError):
        map_message(5, 4)


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
    params = ChannelParams(1.0, NoiseSpec(1, 1, 0))
    x1, x2 = encode_init(map_message(1, 2), map_message(3, 4), params)
    assert x1 == pytest.approx(2.0, rel=1e-15)  # sqrt(1/(1/16)) * 1/2
    assert x2 == 0.0


def test_encode_init_mean_square_close_to_power():
    # The dedicated use transmits sqrt(P/var) * theta with theta's mean
    # offset 1/(2L): its exact mean square is P (L^2+2)/(L^2-1), within
    # O(1/L^2) of the block power.
    params = ChannelParams(5.0, NoiseSpec(1, 1, 0))
    levels = 64
    second_moment = np.mean(
        [encode_init(map_message(m, levels), map_message(1, 2), params)[0] ** 2 for m in range(1, levels + 1)]
    )
    exact = 5.0 * (levels**2 + 2) / (levels**2 - 1)
    assert second_moment == pytest.approx(exact, rel=1e-12)
    assert abs(second_moment / 5.0 - 1.0) < 1e-3


def test_encode_init_rejects_single_point_alphabet():
    params = ChannelParams(1.0, NoiseSpec(1, 1, 0))
    with pytest.raises(DegenerateMessageError):
        encode_init(map_message(1, 1), map_message(1, 2), params)


def test_encode_step_examples():
    params = ChannelParams(8.0, NoiseSpec(1, 1, -1))
    mom = ErrorState(alpha1=1.0, alpha2=1.0, rho=0.0, step_index=2)
    assert encode_step(CoderState(0.0, 0.0, 3, mom), params) == 0.0
    # gamma = 1, rho = 0, eps/sqrt(alpha) = 1 for both: X = sqrt(2 P)
    x = encode_step(CoderState(1.0, 1.0, 3, mom), params)
    assert x == pytest.approx(math.sqrt(2.0 * 8.0), rel=1e-15)
    with pytest.raises(NumericalIntegrityError):
        encode_step(CoderState(1.0, 1.0, 3, ErrorState(0.0, 1.0, 0.0, 2)), params)


def test_encode_step_power_normalization_monte_carlo():
    # empirical mean of X^2 within 5 standard errors of P
    params = ChannelParams(10.0, NoiseSpec(1.0, 2.0, 0.4))
    n_samples = 100_000
    rng = make_generator(RngSpec(88, 0))
    rho = -0.6
    a1, a2 = 0.8, 1.7
    u = rng.standard_normal(n_samples)
    w = rng.standard_normal(n_samples)
    e1 = math.sqrt(a1) * u
    e2 = math.sqrt(a2) * (rho * u - math.sqrt(1 - rho * rho) * w)
    mom = ErrorState(alpha1=a1, alpha2=a2, rho=rho, step_index=5)
    g = 0.5
    psi = math.sqrt(10.0 / (1 + g * g + 2 * g * abs(rho)))
    x = psi * (e1 / math.sqrt(a1) + g * (-1.0) * e2 / math.sqrt(a2))
    emp = float(np.mean(x * x))
    se = 10.0 * math.sqrt(2.0 / n_samples)
    assert abs(emp - 10.0) <= 5 * se
    # and the scalar path agrees with the vectorized expression
    scalar = encode_step(CoderState(float(e1[0]), float(e2[0]), 5, mom), params)
    assert scalar == pytest.approx(float(x[0]), rel=1e-12)


def test_receiver_update_identities():
    assert receiver_update(0.7, 123.4, 0.0) == 0.7
    assert receiver_update(0.7, 0.0, 0.9) == 0.7
    assert receiver_update(1.0, 2.0, 0.25) == 0.5


def test_receiver_update_orthogonality_monte_carlo():
    # After the LMMSE update the residual error is uncorrelated with the
    # output it used.
    params = ChannelParams(25.0, NoiseSpec(1.0, 1.0, -1.0))
    n_samples = 100_000
    rng = make_generator(RngSpec(4242, 0))
    var_theta = message_point_variance(16)
    a1 = var_theta * 1.0 / 25.0
    z_init = rng.standard_normal(n_samples)
    e1 = math.sqrt(a1) * z_init
    e2 = math.sqrt(a1) * rng.standard_normal(n_samples)
    psi = math.sqrt(25.0 / 2.0)  # gamma=1, rho=0
    x = psi * (e1 / math.sqrt(a1) + e2 / math.sqrt(a1))
    z1 = rng.standard_normal(n_samples)
    y1 = x + z1
    c1 = psi * math.sqrt(a1) * 1.0 / (25.0 + 1.0)
    e1_new = e1 - c1 * y1
    corr = float(np.corrcoef(e1_new, y1)[0, 1])
    assert abs(corr) <= 5.0 / math.sqrt(n_samples)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def test_decode_examples():
    for m in (1, 2, 17, 100):
        assert decode(map_message(m, 100).theta, 100) == m
    assert decode(0.3, 2) == 1  # 0.5 is nearer than 0.0
    assert decode(5.0, 8) == 1  # clamps to the largest theta
    assert decode(-5.0, 8) == 8  # clamps to the smallest theta
    assert decode(0.25, 2) == 1  # exact midpoint: smaller index wins
    with pytest.raises(ParameterError):
        decode(0.0, 0)


def test_decode_roundtrip_random():
    rng = np.random.default_rng(1)
    for _ in range(200):
        levels = int(rng.integers(2, 1 << 30))
        m = int(rng.integers(1, levels + 1))
        assert decode(map_message(m, levels).theta, levels) == m


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
    assert _decoded_correctly(eps, m, levels).tolist() == expected
    assert not _decoded_correctly(np.array([3.0 / levels]), np.array([2**60]), levels)[0]


# ---------------------------------------------------------------------------
# coefficient schedule
# ---------------------------------------------------------------------------


def test_schedule_output_variance_is_constant():
    sched = lmmse_coefficient_schedule(HEADLINE, 12, 1.0 / 12.0, 1.0 / 16.0)
    assert sched.var_y1 == 101.0
    assert sched.var_y2 == 101.0


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
        for k in range(3, n + 1):
            i = k - 3
            a1 = float(sched.alpha1[i])
            a2 = float(sched.alpha2[i])
            rho = float(sched.rho[i])
            psi = float(sched.psi[i])
            ar, sg = abs(rho), (1.0 if rho >= 0 else -1.0)
            cov1 = psi * math.sqrt(a1) * (1 + g * ar)
            cov2 = psi * math.sqrt(a2) * sg * (g + ar)
            c1 = cov1 / sched.var_y1
            c2 = cov2 / sched.var_y2
            assert c1 == pytest.approx(float(sched.c1[i]), rel=1e-12)
            assert c2 == pytest.approx(float(sched.c2[i]), rel=1e-12)
            a1_next = a1 - cov1 * cov1 / sched.var_y1
            a2_next = a2 - cov2 * cov2 / sched.var_y2
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
    assert np.array_equal(rec.powers, rec.inputs**2)
    assert rec.success == (rec.decoded1 == rec.message1 and rec.decoded2 == rec.message2)


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
    # At P = 1e3 the alphabets hold ~3.5e19 points and limited-mode decodes
    # miss by a few levels (ROADMAP item 1); the campaign must count those
    # misses as the exact per-trial decode does.
    params = ChannelParams(1e3, NoiseSpec(1.0, 1.0, -1.0))
    config = headline_config(params=params)
    assert config.levels1 > 2**53
    campaign = run_broadcast_campaign(config, params, 2000, 7, mode="limited")
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
# limited-feedback precision floor
# ---------------------------------------------------------------------------

LIMITED_FLOOR = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: limited feedback rebuilds the hidden output as x + r*(y - x), "
    "whose rounding stalls the encoder's copy of the hidden error",
)


def _max_abs_z(summary):
    return max(float(np.max(np.abs(z))) for z in summary.moment_z_scores().values())


@LIMITED_FLOOR
def test_limited_campaign_moments_at_cli_defaults():
    # `gbflab simulate --mode limited` at its defaults; today max |z| is about 3e3.
    summary = run_broadcast_campaign(
        headline_config(), HEADLINE, 10_000, 20240901, mode="limited", fed_back_receiver=1
    )
    assert _max_abs_z(summary) <= 6.0


@LIMITED_FLOOR
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


@LIMITED_FLOOR
def test_limited_feedback_from_receiver_2_asymmetric_noise():
    # Receiver 2 fed back with unequal noise levels: the fix has to hold for
    # the other reconstruction direction and for a noise ratio other than 1.
    params = ChannelParams(1e4, NoiseSpec(1.3, 0.7, -1.0))
    config = headline_config(params=params)
    summary = run_broadcast_campaign(
        config, params, 10_000, 20240901, mode="limited", fed_back_receiver=2
    )
    assert _max_abs_z(summary) <= 6.0
