import dataclasses
import math
import sys
import threading
import time
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
from test_pinned_bytes import field_names

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
            assert c1 == pytest.approx(float(sched.c1[i]), rel=1e-12, abs=0.0)
            assert c2 == pytest.approx(float(sched.c2[i]), rel=1e-12, abs=0.0)
            a1_next = a1 - cov1 * cov1 / var_y1
            a2_next = a2 - cov2 * cov2 / var_y2
            # The reference subtracts terms of size a and cancels about
            # log10(P / sigma^2) digits, so its error scales with a, not with
            # the difference.
            assert a1_next == pytest.approx(float(sched.alpha1[i + 1]), rel=1e-12, abs=1e-12 * a1)
            assert a2_next == pytest.approx(float(sched.alpha2[i + 1]), rel=1e-12, abs=1e-12 * a2)
            # correlation via the projected cross-moment
            cov12 = (
                rho * math.sqrt(a1 * a2)
                - c2 * cov1
                - c1 * cov2
                + c1 * c2 * (p + rz * s1 * s2)
            )
            rho_next = cov12 / math.sqrt(a1_next * a2_next)
            assert rho_next == pytest.approx(float(sched.rho[i + 1]), rel=1e-7, abs=1e-7)


def test_schedule_gains_are_the_encoder_weights_of_the_errors():
    params = ChannelParams(42.0, NoiseSpec(1.0, 2.0, -0.6))
    sched = lmmse_coefficient_schedule(params, 12, 1.0 / 12.0, 1.0 / 16.0)
    per_step = sched.psi, sched.alpha1, sched.alpha2, sched.rho, sched.gain1, sched.gain2
    signs = set()
    for psi, a1, a2, rho, gain1, gain2 in zip(*(a.tolist() for a in per_step)):
        sgn = 1.0 if rho >= 0.0 else -1.0
        signs.add(sgn)
        assert gain1 == psi / math.sqrt(a1)
        assert gain2 == psi * 0.5 * sgn / math.sqrt(a2)
    assert len(sched.gain1) == len(sched.gain2) == 10 and signs == {1.0, -1.0}


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


SCHEDULE_ARRAYS = ("alpha1", "alpha2", "rho", "psi", "c1", "c2", "gain1", "gain2")


def test_schedule_arrays_are_read_only_and_summaries_copy_them():
    # Every trial run on a schedule shares its arrays: a write such as
    # schedule.c1[0] = 0.0 would change all the trials that follow.
    var = message_point_variance(64)
    schedule = lmmse_coefficient_schedule(HEADLINE, 20, var, var)
    for name in SCHEDULE_ARRAYS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(schedule, name)[0] = 0.0
    summary = run_broadcast_campaign(headline_config(), HEADLINE, 100, 3)
    for name in ("alpha1", "alpha2", "rho"):
        getattr(summary, name)[0] = 0.0


def test_schedule_of_numpy_scalar_params_is_the_float_schedule():
    # A float32 power used to build float32 arrays: alpha1[-1] was
    # 3.2612974e-26, not 3.2612970306289386e-26.
    var = message_point_variance(64)
    noise = NoiseSpec(1.0, 2.0, 0.3)
    reference = lmmse_coefficient_schedule(ChannelParams(100.0, noise), 20, var, var)
    schedule = lmmse_coefficient_schedule(ChannelParams(np.float32(100.0), noise), 20, var, var)
    for name in SCHEDULE_ARRAYS:
        got, want = getattr(schedule, name), getattr(reference, name)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()


def _schedule_bytes(schedule):
    return [getattr(schedule, name).tobytes() for name in SCHEDULE_ARRAYS]


def _shared(config, params):
    return simulate._checked_schedule(config, params, "broadcast", 0)


def _fresh(config, params):
    var1 = message_point_variance(config.levels1)
    var2 = message_point_variance(config.levels2)
    return lmmse_coefficient_schedule(params, config.n, var1, var2)


def test_shared_schedule_is_the_fresh_schedule_byte_for_byte():
    rng = np.random.default_rng(24)
    cases = []
    for _ in range(40):
        s1, s2 = 10 ** rng.uniform(-1, 1, size=2)
        rz = rng.choice([-1.0, 1.0, 0.0, rng.uniform(-1, 1)])
        params = ChannelParams(10 ** rng.uniform(-2, 4), NoiseSpec(s1, s2, rz))
        config = MessageConfig(int(rng.integers(3, 25)), *rng.uniform(0.2, 2.0, size=2))
        cases.append((config, params, params))
    config = headline_config()
    # rho_z = -0.0 and 0.0 make equal keys, and so do a float32 power and its
    # float value: the schedule built for the first serves the second.
    for first, second in (
        (NoiseSpec(1.0, 2.0, -0.0), NoiseSpec(1.0, 2.0, 0.0)),
        (NoiseSpec(1.0, 2.0, 0.0), NoiseSpec(1.0, 2.0, -0.0)),
    ):
        cases.append((config, ChannelParams(100.0, first), ChannelParams(100.0, second)))
    cases.append((config, ChannelParams(np.float32(0.1), HEADLINE.noise),
                  ChannelParams(float(np.float32(0.1)), HEADLINE.noise)))
    for config, first, second in cases:
        simulate._shared_schedule.cache_clear()
        built = _shared(config, first)
        shared = _shared(config, second)
        assert shared is built
        assert _schedule_bytes(shared) == _schedule_bytes(_fresh(config, second))
    info = simulate._shared_schedule.cache_info()
    assert (info.hits, info.misses) == (1, 1)


@pytest.mark.parametrize("mode", ["broadcast", "interference", "limited"])
def test_trials_and_campaigns_give_the_same_bytes_on_a_shared_schedule(mode):
    config = headline_config(n=12)
    schedule = _fresh(config, HEADLINE)
    given = _run_trial(config, HEADLINE, RngSpec(5, 1), mode, 1, schedule)
    missed = _run_trial(config, HEADLINE, RngSpec(5, 1), mode, 1)
    hit = _run_trial(config, HEADLINE, RngSpec(5, 1), mode, 1)
    _assert_same_bytes(missed, given)
    _assert_same_bytes(hit, given)
    simulate._shared_schedule.cache_clear()
    missed = run_broadcast_campaign(config, HEADLINE, 300, 9, mode=mode)
    hit = run_broadcast_campaign(config, HEADLINE, 300, 9, mode=mode)
    _assert_same_bytes(hit, missed)
    assert simulate._shared_schedule.cache_info().hits == 1


def _assert_same_bytes(record, reference):
    """Every field of two trial records or campaign summaries is equal, the
    arrays byte for byte."""
    for name in field_names(reference):
        got, want = getattr(record, name), getattr(reference, name)
        if isinstance(want, np.ndarray):
            assert got.tobytes() == want.tobytes(), name
        else:
            assert got == want, name


def test_schedule_is_built_once_per_configuration(monkeypatch):
    # A miss calls lmmse_coefficient_schedule through the module's global
    # name, where a tracer wraps it, so its calls count the misses.
    calls = []
    build = simulate.lmmse_coefficient_schedule
    monkeypatch.setattr(
        simulate, "lmmse_coefficient_schedule", lambda *args: calls.append(args) or build(*args)
    )
    config = headline_config(n=10)
    for seed in range(3):
        run_broadcast_campaign(config, HEADLINE, 100, seed)
        run_broadcast_trial(config, HEADLINE, RngSpec(seed))
        run_limited_feedback_trial(config, HEADLINE, RngSpec(seed), fed_back_receiver=2)
    assert len(calls) == 1
    run_interference_trial(headline_config(n=11), HEADLINE, RngSpec(0))
    assert len(calls) == 2


def test_schedule_that_underflows_raises_on_every_call():
    params = ChannelParams(1e8, NoiseSpec(1.0, 1.0, -1.0))
    config = MessageConfig(n=60, rate1=0.5, rate2=0.5)
    for _ in range(3):
        with pytest.raises(NumericalIntegrityError, match="underflow"):
            run_broadcast_trial(config, params, RngSpec(0))
        with pytest.raises(NumericalIntegrityError, match="underflow"):
            run_broadcast_campaign(config, params, 100, 0)
    info = simulate._shared_schedule.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 6, 0)


def test_threads_asking_for_one_schedule_get_equal_schedules():
    config = headline_config()
    params = ChannelParams(1e3, NoiseSpec(1.0, 2.0, 0.3))
    threads = 8
    start = threading.Barrier(threads)
    schedules = [None] * threads

    def ask(i):
        start.wait(timeout=10)
        schedules[i] = _shared(config, params)

    workers = [threading.Thread(target=ask, args=(i,)) for i in range(threads)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(worker.is_alive() for worker in workers)
    want = _schedule_bytes(_fresh(config, params))
    for schedule in schedules:
        assert _schedule_bytes(schedule) == want
    assert simulate._shared_schedule.cache_info().currsize == 1


def test_shared_schedules_stay_within_the_cache_bound():
    bound = simulate._SCHEDULE_CACHE_SIZE
    configs = [MessageConfig(n, 0.5, 0.5) for n in range(3, 3 + 3 * bound)]
    for config in configs:
        _shared(config, HEADLINE)
        assert simulate._shared_schedule.cache_info().currsize <= bound
    info = simulate._shared_schedule.cache_info()
    assert (info.maxsize, info.currsize, info.misses) == (bound, bound, 3 * bound)
    # The configurations used last are still shared; the first is built again.
    _shared(configs[-1], HEADLINE)
    _shared(configs[0], HEADLINE)
    info = simulate._shared_schedule.cache_info()
    assert (info.hits, info.misses) == (1, 3 * bound + 1)


# ---------------------------------------------------------------------------
# the coding loop against its schedule: the impulse-response oracle
# ---------------------------------------------------------------------------
#
# The errors are linear in the block's standard normals.  Fed the unit
# vectors e_1 .. e_N as N blocks, the loop returns the N coefficients of each
# error on the normals, so sum_j eps1_j^2 is the exact variance alpha1 and
# sum_j eps1_j eps2_j is the exact covariance rho sqrt(alpha1 alpha2), up to
# rounding, with no sampling error.


class _Impulses:
    """A generator that gives ``values`` as its standard normals, in order,
    in the shapes asked for, and the message 1 for every block."""

    def __init__(self, values):
        self.values = iter(values.ravel().tolist())

    def standard_normal(self, shape):
        count = math.prod((shape,) if isinstance(shape, int) else shape)
        return np.array([next(self.values) for _ in range(count)]).reshape(shape)

    def integers(self, low, high, size, endpoint, dtype):
        return np.full(size, low, dtype=dtype)


# Relative error the oracle accepts, one bound at every power.  The schedule's
# own error grows like P 2^-53 (3.1e-8 at P = 1e8 and 3.5e-6 at 1e10, rho_z =
# -1), so the bound holds up to P = 1e8; a schedule carrying the gap 1 - |rho|
# (ROADMAP item 4) would hold to about 1e-13 at every power.
IMPULSE_TOLERANCE = 1e-7


def _impulse_errors(params, n, mode):
    """Worst relative errors of the impulse responses' variances and
    covariance against the schedule, over the steps k = 2..n, for a campaign
    chunk in ``mode`` and for the trial path of the loop."""
    config = MessageConfig(n=n, rate1=0.5, rate2=0.5)
    schedule = _fresh(config, params)
    normals = n if params.noise.is_degenerate else 2 * n
    identity = np.eye(normals)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(simulate, "make_generator", lambda rng: _Impulses(identity))
        sums, _ = simulate._chunk_sums(config, params, schedule, mode, RngSpec(0), normals)
    trial = np.zeros((3, n - 1))
    for j in range(normals):
        steps = _coding_loop(config, params, schedule, _Impulses(identity[j]), 1, 1, None)
        _, _, _, eps1, eps2 = (np.array(v[1:]) for v in zip(*steps))
        trial += eps1 * eps1, eps2 * eps2, eps1 * eps2
    alpha1, alpha2, rho = schedule.alpha1, schedule.alpha2, schedule.rho
    scale = np.sqrt(alpha1) * np.sqrt(alpha2)  # alpha1 * alpha2 underflows at high P
    worst = []
    for sq1, sq2, co in (sums[5:, 1:], trial):
        worst.append(max(
            float(np.max(np.abs(sq1 / alpha1 - 1.0))),
            float(np.max(np.abs(sq2 / alpha2 - 1.0))),
            float(np.max(np.abs(co - rho * scale) / scale)),
        ))
    return worst


# Every mode, at a noise of each kind: anti-correlated, perfectly correlated
# with unequal sigmas, and two non-degenerate ones (limited feedback needs
# |rho_z| = 1).
IMPULSE_CASES = [
    (noise, mode)
    for noise in (NoiseSpec(1.0, 1.0, -1.0), NoiseSpec(1.3, 0.7, 1.0), NoiseSpec(1.0, 2.0, 0.3),
                  NoiseSpec(1.0, 1.0, 0.0))
    for mode in ("broadcast", "interference", "limited")
    if mode != "limited" or noise.is_degenerate
]


@pytest.mark.parametrize(
    "noise, mode",
    IMPULSE_CASES,
    ids=lambda v: f"{v.sigma1:g},{v.sigma2:g},{v.rho_z:g}" if isinstance(v, NoiseSpec) else v,
)
@pytest.mark.parametrize("power", [1e-2, 1.0, 1e2, 1e4, 1e6, 1e8])
def test_impulse_responses_reproduce_the_schedule(power, noise, mode):
    worst = _impulse_errors(ChannelParams(power, noise), 20, mode)
    assert max(worst) <= IMPULSE_TOLERANCE, worst


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="the schedule loses relative precision about like P 2^-53 (CHANGES.md FOUND line "
    "on simulate.lmmse_coefficient_schedule; ROADMAP item 4's (rho, g) recursion mends it)",
)
@pytest.mark.parametrize("power", [1e10, 1e12, 1e14])
def test_impulse_responses_reproduce_the_schedule_at_high_power(power):
    for noise, mode in IMPULSE_CASES:
        worst = _impulse_errors(ChannelParams(power, noise), 20, mode)
        assert max(worst) <= IMPULSE_TOLERANCE, (noise, mode, worst)


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


@pytest.mark.parametrize("noise", [NoiseSpec(1.0, 1.0, -1.0), NoiseSpec(1.0, 2.0, 0.3)], ids=str)
def test_trial_draws_its_noise_in_one_call_and_a_campaign_once_per_step_block(monkeypatch, noise):
    # The coding loop reaches the sampler through the name simulate imported,
    # so a wrapper set there sees every call: one n-step draw per trial, and
    # one draw per step block for a campaign chunk: all n uses of a chunk of
    # 100 blocks, 3 uses (2 in the last step block) of a chunk of 2,730
    # blocks, and one use of a full chunk of 65,536 blocks.
    calls = []
    original = simulate.sample_noise_pair

    def counted(*args, **kwargs):
        size = args[2] if len(args) > 2 else kwargs.get("size")
        calls.append((size, kwargs.get("steps")))
        return original(*args, **kwargs)

    monkeypatch.setattr(simulate, "sample_noise_pair", counted)
    params = ChannelParams(100.0, noise)
    config = headline_config(n=20, params=params)
    modes = ["broadcast", "interference"] + (["limited"] if noise.is_degenerate else [])
    for mode in modes:
        calls.clear()
        _run_trial(config, params, RngSpec(3, 0), mode, 1)
        assert calls == [(None, 20)], mode
        calls.clear()
        run_broadcast_campaign(config, params, 100, 3, mode=mode)
        assert calls == [(100, 20)], mode
        calls.clear()
        run_broadcast_campaign(config, params, 2_730, 3, mode=mode)
        assert calls == [(2_730, 3)] * 6 + [(2_730, 2)], mode
        calls.clear()
        run_broadcast_campaign(config, params, 65_536, 3, mode=mode)
        assert calls == [(65_536, 1)] * 20, mode


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
    # A schedule holds the coefficients of one channel only.
    elsewhere = ChannelParams(1e4, NoiseSpec(1.0, 2.0, 0.3))
    with pytest.raises(ParameterError, match="schedule is built for ChannelParams"):
        run_broadcast_trial(config, elsewhere, RngSpec(3, 3), schedule=longer)


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


def _per_step_chunk_sums(config, params, schedule, mode, rng, size):
    """The sums and decode errors of one chunk as they were formed before
    step blocks: the coding loop draws each use's noise in its own call
    (step blocks of one use), and each use is reduced as it arrives, one 1-D
    ``np.add.reduce`` per quantity."""
    total = np.add.reduce
    gen = make_generator(rng)
    m1 = _draw_messages(gen, config.levels1, size)
    m2 = _draw_messages(gen, config.levels2, size)
    sums = np.zeros((8, config.n))
    steps = _coding_loop(config, params, schedule, gen, m1, m2, size)
    for t, (x, t1, t2, eps1, eps2) in enumerate(steps):
        sums[0, t] = total(x * x)
        if mode == "interference":
            sums[1, t], sums[2, t] = total(t1 * t1, None), total(t2 * t2, None)
        if t:
            sums[3, t], sums[4, t] = total(eps1), total(eps2)
            sums[5, t] = total(eps1 * eps1)
            sums[6, t] = total(eps2 * eps2)
            sums[7, t] = total(eps1 * eps2)
    ok1 = _decoded_correctly(eps1, m1 == 1, m1 == config.levels1, config.levels1)
    ok2 = _decoded_correctly(eps2, m2 == 1, m2 == config.levels2, config.levels2)
    return sums, int(size - np.count_nonzero(ok1 & ok2))


# (chunk size, n, uses per step block): one block, blocks that do and do not
# divide n on both sides of the 8,192-value step-block limit, and single-use
# blocks up to a full chunk.
STEP_BLOCK_CASES = [
    (100, 20, 20),
    (100, 7, 7),
    (431, 20, 19),
    (2_730, 20, 3),
    (3_277, 7, 2),
    (4_096, 6, 2),
    (4_097, 5, 1),
    (21_845, 4, 1),
    (32_768, 4, 1),
    (32_769, 3, 1),
    (65_536, 3, 1),
]


@pytest.mark.parametrize("size, n, k", STEP_BLOCK_CASES, ids=str)
def test_step_block_sums_equal_the_per_step_reduction_bytes(monkeypatch, size, n, k):
    assert simulate._step_block(n, size) == k
    for noise in (NoiseSpec(1.0, 1.0, -1.0), NoiseSpec(1.0, 2.0, 0.3)):
        params = ChannelParams(100.0, noise)
        config = headline_config(n=n, fraction=0.95, params=params)
        modes = ["broadcast", "interference"] + (["limited"] if noise.is_degenerate else [])
        for mode in modes:
            schedule = simulate._checked_schedule(config, params, mode, 1)
            rng = RngSpec(17, 3)
            sums, errors = simulate._chunk_sums(config, params, schedule, mode, rng, size)
            with monkeypatch.context() as m:
                m.setattr(simulate, "_step_block", lambda n, size: 1)
                ref_sums, ref_errors = _per_step_chunk_sums(
                    config, params, schedule, mode, rng, size
                )
            assert sums.tobytes() == ref_sums.tobytes(), (noise, mode)
            assert errors == ref_errors, (noise, mode)
            assert np.count_nonzero(sums[1:3]) == (2 * n - 2 if mode == "interference" else 0)


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


@pytest.mark.parametrize("mode", ["broadcast", "interference"])
@pytest.mark.parametrize("noise", [NoiseSpec(1.0, 2.0, 0.3), NoiseSpec(1.0, 1.0, -1.0)], ids=str)
def test_campaign_chunk_working_set_stays_small(noise, mode):
    # One chunk of 65,536 blocks keeps only the two errors, the message edge
    # flags and the arrays of the step in flight, 0.52 MB each: about 4.5 MB
    # at the peak, 8.5 such arrays.  A use's noise draw held while the next
    # one is drawn adds two more, so the bound is 9.5.  A thread per CPU
    # holds one such chunk.  The first campaign of a process also loads
    # numpy's random module (0.7 MB), so one runs before the trace.
    params = ChannelParams(100.0, noise)
    config = headline_config(n=20, params=params)
    run_broadcast_campaign(config, params, 100, 1, mode=mode)
    tracemalloc.start()
    try:
        run_broadcast_campaign(config, params, 65_536, 1, mode=mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.5 * 65_536 * 8


def test_campaign_step_block_working_set_stays_small():
    # A chunk of 2,730 blocks runs in step blocks of 3 uses: it keeps one
    # step block's noise draws and stacked values, at most 8,192 values
    # (64 KB) per quantity, about 0.6 MB at the peak.  The first campaign
    # of a process also loads numpy's random module (0.7 MB), so one runs
    # before the trace.
    params = ChannelParams(100.0, NoiseSpec(1.0, 2.0, 0.3))
    config = headline_config(n=20, params=params)
    assert simulate._step_block(config.n, 2_730) == 3
    run_broadcast_campaign(config, params, 100, 1, mode="interference")
    tracemalloc.start()
    try:
        run_broadcast_campaign(config, params, 2_730, 1, mode="interference")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6


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


def test_chunk_map_stops_every_thread_once_a_chunk_fails(monkeypatch):
    # Chunk 0 fails at once while every other chunk takes 10 ms, so the
    # thread still running sees the failure after its current chunk and
    # takes no further one: of 100 chunks, at most one per thread and the
    # failed one run.
    monkeypatch.setattr(simulate, "_available_cpus", lambda: 2)
    ran = []

    def run(c, size):
        ran.append(c)
        if c == 0:
            raise UnsupportedConfigurationError("chunk 0 failed")
        time.sleep(0.01)

    with pytest.raises(UnsupportedConfigurationError, match="chunk 0 failed"):
        simulate._map_chunks(run, [1] * 100)
    assert 0 in ran and len(ran) <= 3


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


def test_wilson_z_is_the_normal_quantile_of_the_confidence():
    from statistics import NormalDist

    assert simulate._WILSON_Z == NormalDist().inv_cdf(0.5 + 0.5 * simulate._CONFIDENCE)


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


def test_message_config_validation():
    with pytest.raises(ParameterError):
        MessageConfig(n=2, rate1=0.5, rate2=0.5)
    with pytest.raises(ParameterError, match="got 2$"):
        MessageConfig(n=np.int64(2), rate1=0.5, rate2=0.5)
    with pytest.raises(ParameterError, match="got 20.0$"):
        MessageConfig(n=20.0, rate1=0.5, rate2=0.5)
    assert type(MessageConfig(n=np.int64(20), rate1=0.5, rate2=0.5).n) is int
    with pytest.raises(ParameterError):
        MessageConfig(n=10, rate1=-0.1, rate2=0.5)
    with pytest.raises(DegenerateMessageError):
        run_broadcast_trial(MessageConfig(n=5, rate1=0.0, rate2=0.4), HEADLINE, RngSpec(0, 0))


def test_message_config_rejects_a_block_length_beyond_float_range():
    # n * rate converts n to a float: n = 10**400 used to end in a bare
    # OverflowError.  Every n that converts keeps its verdict.
    for n in (10**400, 2**1024 - 2**970):
        with pytest.raises(ParameterError, match="^block length beyond float range"):
            MessageConfig(n=n, rate1=0.5, rate2=0.5)
        with pytest.raises(ParameterError, match="^block length beyond float range"):
            MessageConfig(n=n, rate1=0.0, rate2=0.0)
    n = 2**1024 - 2**970 - 1  # the largest int that converts to a float
    assert MessageConfig(n=n, rate1=0.0, rate2=0.0).n == n
    with pytest.raises(ParameterError, match="^rate1 gives an alphabet beyond 2"):
        MessageConfig(n=n, rate1=0.5, rate2=0.5)


def test_numpy_rates_are_stored_as_the_floats_they_equal():
    # A float32 rate used to count its levels in float32: this config
    # compared equal to its float twin but had 175,638 levels, not 175,637.
    rate = np.float32(0.5807412)
    config = MessageConfig(n=30, rate1=rate, rate2=np.float64(0.5))
    twin = MessageConfig(n=30, rate1=float(rate), rate2=0.5)
    assert type(config.rate1) is float and type(config.rate2) is float
    assert config == twin and hash(config) == hash(twin)
    assert config.levels1 == twin.levels1 == 175_637
    # 20 * 7 = 140 bits: 2**140 overflowed float32 with an OverflowError.
    assert MessageConfig(n=20, rate1=np.float32(7.0), rate2=1.0).levels1 == 2**140


@pytest.mark.parametrize("rate", [True, np.True_, "0.5", None, 1j, np.array([0.5])], ids=repr)
def test_message_config_rejects_rates_that_are_not_real_numbers(rate):
    for name in ("rate1", "rate2"):
        with pytest.raises(ParameterError, match=f"^{name} must be a real number"):
            MessageConfig(**{"n": 10, "rate1": 0.5, "rate2": 0.5, name: rate})


def _trial_entry(config, params, mode, fed_back_receiver=1, schedule=None):
    return _run_trial(config, params, RngSpec(0, 0), mode, fed_back_receiver, schedule)


def _campaign_entry(config, params, mode, fed_back_receiver=1, schedule=None):
    # A campaign takes no schedule: it looks up the one of its configuration.
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
