"""Campaign summaries, trial records, coefficient schedules and sweep/verify
rows pinned byte for byte.

Each case hashes every field of the result (array dtype, shape and bytes;
``repr`` of any other value) into one sha256 and compares it with a fixed
digest, so a speed-up that moves any bit of any field shows here.

The simulator cases take their inputs as literals, their rates included, so
their digests pin the simulator and nothing that computes those inputs: a
change to the rate formula moves only the digests and references whose
subject is the rates.  The CLI's stdout is pinned in ``test_cli.py`` as
committed text under ``tests/golden/``, each file checked against its
digest.  A change that moves a digest on purpose re-pins it in a commit of
its own, and CHANGES.md names each moved digest and why it moved.

Every digest was made and is checked on numpy 2.4.6, CPython 3.11.7 and
x86-64 glibc 2.36.  Layers below gbflab could move them: numpy's Philox
words and its normal sampler, and the platform's libm (``math.log1p`` in
the rates, ``math.log10`` and ``**`` in the grids and scaled columns), which
need not round correctly.  A digest of each layer over fixed arguments
tells which of them moved."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from gbflab import (
    ChannelParams,
    MessageConfig,
    NoFixedPointError,
    NoiseSpec,
    ParameterError,
    RngSpec,
    achievable_rates,
    lmmse_coefficient_schedule,
    make_generator,
    message_point_variance,
    run_broadcast_campaign,
    run_broadcast_trial,
    run_interference_trial,
    run_limited_feedback_trial,
    sweep_rates,
    verify_asymptotics,
)
from gbflab import simulate
from gbflab.analysis import _bisect_brackets, _solve_powers, power_grid

# Asymmetric, anti-correlated noise: gamma != 1, both signs of rho, and
# limited mode can run.
PARAMS = ChannelParams(100.0, NoiseSpec(1.3, 0.7, -1.0))

# The simulator cases' rates (rate1, rate2) are data, not derived: 0.7, 0.9
# and 0.95 of the rates achievable_rates gave for PARAMS when their digests
# were made.  A change to the rate formula moves none of these digests.
RATES_70 = (1.9131647175831907, 2.279534112534192)
RATES_90 = (2.4597832083212454, 2.9308295732582472)
RATES_95 = (2.5964378310057588, 3.0936534384392607)


def field_names(record):
    """A record's field names in order: a named tuple's ``_fields``, or the
    fields of a dataclass such as ``McSummary``."""
    if isinstance(record, tuple):
        return record._fields
    return tuple(f.name for f in dataclasses.fields(record))


def _digest(obj, fields=None):
    h = hashlib.sha256()
    for name in fields or field_names(obj):
        value = getattr(obj, name)
        h.update(name.encode())
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


# (mode, trials, n, rate1, rate2, master seed): 100 trials are one chunk;
# 65,537 are two, run on two threads.
CAMPAIGNS = {
    ("broadcast", 100, 20, *RATES_90, 11):
        "2f4e6434e88d41c19a6e0def7b1d62a9d86fe138398f44d48c63f82529fa0a5a",
    ("interference", 100, 20, *RATES_90, 11):
        "82d442ed5dfd2ecd2d1632f133a965eba3ec57da33742daa684981b479086516",
    ("limited", 100, 20, *RATES_90, 11):
        "8c9e0404b1e5c1af0758eb49bea9f5cdc301fec22172d727d83347ba3ae53a24",
    ("broadcast", 65_537, 6, *RATES_90, 12):
        "414aead1a734c39088973065bca114fc7aa07dd90519a6552db411a22bd214f1",
    ("interference", 65_537, 6, *RATES_90, 12):
        "90ce90c1e270b6408112ae605d39f4c3b37c240b9c2f3b896ad6d1af0a8b8116",
    ("limited", 65_537, 6, *RATES_90, 12):
        "5a779be0ca6d1bcf095982266674684944500ebb07490bb338789e912be770ae",
}


@pytest.mark.parametrize("case", list(CAMPAIGNS), ids=str)
def test_campaign_summary_bytes_are_pinned(monkeypatch, case):
    mode, trials, n, rate1, rate2, seed = case
    monkeypatch.setattr(simulate, "_available_cpus", lambda: 2)
    summary = run_broadcast_campaign(
        MessageConfig(n, rate1, rate2), PARAMS, trials, seed, mode=mode
    )
    assert len(simulate._chunk_sizes(trials)) == (1 if trials == 100 else 2)
    assert _digest(summary) == CAMPAIGNS[case]


def test_numpy_block_length_gives_the_campaign_of_its_int():
    # MessageConfig stores an np.int64 block length as a Python int.
    summary = run_broadcast_campaign(MessageConfig(np.int64(20), *RATES_90), PARAMS, 100, 11)
    assert _digest(summary) == CAMPAIGNS[("broadcast", 100, 20, *RATES_90, 11)]


def test_numpy_integer_arguments_are_stored_as_python_ints():
    # A record's digest hashes the repr of each scalar field, so a numpy
    # integer kept as given (np.int64(200), not 200) changes it.
    config, var = MessageConfig(20, *RATES_90), message_point_variance(2**40)
    calls = [
        lambda i: run_broadcast_campaign(config, PARAMS, i(200), 11),
        lambda i: lmmse_coefficient_schedule(PARAMS, i(20), var, var),
        lambda i: run_broadcast_trial(config, PARAMS, RngSpec(i(7), i(3))),
    ]
    for call in calls:
        assert _digest(call(np.int64)) == _digest(call(int))
    assert _digest(calls[2](np.uint64)) == _digest(calls[2](int))
    summary = run_broadcast_campaign(config, PARAMS, np.int64(200), 11)
    schedule = lmmse_coefficient_schedule(PARAMS, np.int64(20), var, var)
    spec = RngSpec(np.uint64(7), np.int64(3))
    fields = summary.trials, schedule.n, spec.master_seed, spec.stream_id
    assert [type(v) for v in fields] == [int] * 4 and fields == (200, 20, 7, 3)


TRIAL_ENTRIES = {
    "broadcast": run_broadcast_trial,
    "interference": run_interference_trial,
    "limited": run_limited_feedback_trial,
}

# (mode, n, rate1, rate2): n = 40 gives alphabets beyond 2**62 points.
TRIALS = {
    ("broadcast", 20, *RATES_70):
        "60a0c5c665c0df215898e1f3da026848743ab117b6b939f4065ff355e8e5488f",
    ("interference", 20, *RATES_70):
        "48ddfc68c53f019e2d65b13b0a28f2fd9691340c87c562ea178873c9703b1564",
    ("limited", 20, *RATES_70):
        "60a0c5c665c0df215898e1f3da026848743ab117b6b939f4065ff355e8e5488f",
    ("broadcast", 40, *RATES_95):
        "b91112739313fcb79db0b64248dfd4c74b1351782e9e787fa2c3720dac223b13",
    ("interference", 40, *RATES_95):
        "32a914eb36cc02842e8931dd6b3e75834d2137b27b86f5295741d8f0c44c392d",
    ("limited", 40, *RATES_95):
        "b91112739313fcb79db0b64248dfd4c74b1351782e9e787fa2c3720dac223b13",
}


def _trials_digest(mode, config, params):
    h = hashlib.sha256()
    for stream in range(8):
        record = TRIAL_ENTRIES[mode](config, params, RngSpec(21, stream))
        h.update(_digest(record).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", list(TRIALS), ids=str)
def test_trial_record_bytes_are_pinned(case):
    mode, n, rate1, rate2 = case
    assert _trials_digest(mode, MessageConfig(n, rate1, rate2), PARAMS) == TRIALS[case]


# (mode, sigma1, sigma2, rho_z, n, rate1, rate2) at P = 100: noises with
# |rho_z| < 1 draw two normals per channel use, so these pin the pair layout
# of the draw as well as its order.  The rates are 0.7 and 0.95 of those
# achievable_rates gave for each noise when the digests were made.
NON_DEGENERATE_TRIALS = {
    ("broadcast", 1.0, 2.0, 0.3, 20, 1.1005083574293753, 0.9975401942870535):
        "5738ae80a4c7ae92ac5a31846ad62146a5d5bdbebd076b35374e25f9cc336cb6",
    ("interference", 1.0, 2.0, 0.3, 20, 1.1005083574293753, 0.9975401942870535):
        "b009ec2e4c0ea6d2200a65d087dc70841db7dbfa1fe71733cf5d7a910d997347",
    ("broadcast", 1.3, 0.7, 0.0, 40, 1.735556007526154, 1.8376061391413712):
        "f981f7910d226e191d7588ea009273a9b3b46c7f66e470abe4d79325f26abe2c",
    ("interference", 1.3, 0.7, 0.0, 40, 1.735556007526154, 1.8376061391413712):
        "ba282d8dc6342c5bc82a4feb8e77461ad3936b11765ab6a61b77eb98e9383e25",
}


@pytest.mark.parametrize("case", list(NON_DEGENERATE_TRIALS), ids=str)
def test_non_degenerate_trial_record_bytes_are_pinned(case):
    mode, s1, s2, rz, n, rate1, rate2 = case
    params = ChannelParams(100.0, NoiseSpec(s1, s2, rz))
    config = MessageConfig(n, rate1, rate2)
    assert _trials_digest(mode, config, params) == NON_DEGENERATE_TRIALS[case]


# (power, sigma1, sigma2, rho_z, n, levels1, levels2)
SCHEDULES = {
    (100.0, 1.0, 1.0, -1.0, 20, 2**40, 2**40):
        "f482573ef6d567b7ff5b0dac83c878cf0cbbf9e3e52d86fa879cae77aa86b1c9",
    (100.0, 1.3, 0.7, -1.0, 30, 2**50, 2**30):
        "dc0895bbf01a64fd557821e8c5141fcaddd6e75442718975c82eecf0a738395e",
    (42.0, 1.0, 2.0, 0.3, 30, 1000, 17):
        "2e1d8542881dd840efb9caab0d7e32860a2f6c01320d52580c7be0338bd4f70b",
    (1e4, 0.5, 3.0, 1.0, 12, 2**60, 2**70):
        "5d784f031328dbdfe892ab89a91692a781eed9713c632ba8228c8ff6aa5204f9",
    (0.01, 2.0, 0.1, 0.0, 25, 2, 3):
        "42fc1fdd095db933242ba2111bae674b63ff3a053905d8aa3d0ff5822e678c06",
}
# Every field but params, with steps in float.hex.
SCHEDULE_FIELDS = ("n", "var_theta1", "var_theta2", "alpha1", "alpha2", "rho", "steps")


@pytest.mark.parametrize("case", list(SCHEDULES), ids=str)
def test_schedule_bytes_are_pinned(case):
    p, s1, s2, rz, n, levels1, levels2 = case
    schedule = lmmse_coefficient_schedule(
        ChannelParams(p, NoiseSpec(s1, s2, rz)),
        n,
        message_point_variance(levels1),
        message_point_variance(levels2),
    )
    hexed = schedule._replace(steps=[tuple(map(float.hex, step)) for step in schedule.steps])
    assert _digest(hexed, SCHEDULE_FIELDS) == SCHEDULES[case]


# The streams the pinned trials (RngSpec(21, 0..7)) and campaigns (chunk c of
# master seed s is RngSpec(s, c)) run on, and the first 1,000 values of each
# stream's two layers: Philox's raw 64-bit words, and numpy's standard
# normals drawn from them.
PINNED_STREAMS = [RngSpec(21, stream) for stream in range(8)]
PINNED_STREAMS += [RngSpec(11, 0), RngSpec(12, 0), RngSpec(12, 1)]
RNG_LAYERS = {
    "random_raw": (
        lambda gen: gen.bit_generator.random_raw(1000),
        "0b89178ae2ca53e79e1e2ee47006e3705a6802368f9a2b03162ab325f11be660",
    ),
    "standard_normal": (
        lambda gen: gen.standard_normal(1000),
        "97d6ce4c5324ce577ba006af514174ca49c1b0336256038c27889e7d6bacca01",
    ),
}


def _layer_digest(layer):
    draw, _ = RNG_LAYERS[layer]
    h = hashlib.sha256()
    for spec in PINNED_STREAMS:
        values = draw(make_generator(spec))
        h.update(f"{values.dtype.str}{values.shape}".encode())
        h.update(values.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("layer", list(RNG_LAYERS))
def test_random_stream_layer_bytes_are_pinned(layer):
    assert _layer_digest(layer) == RNG_LAYERS[layer][1]


class _BoxMullerGenerator(np.random.Generator):
    """A generator whose standard normals are the Box-Muller transform of
    its uniforms: a valid normal sampler other than numpy's."""

    def standard_normal(self, size=None):
        u, v = 1.0 - self.random(size), self.random(size)  # u in (0, 1]
        return np.sqrt(-2.0 * np.log(u)) * np.cos(2.0 * np.pi * v)


def test_another_normal_sampler_moves_the_normal_layer_and_not_the_raw_words(monkeypatch):
    monkeypatch.setattr(np.random, "Generator", _BoxMullerGenerator)
    assert type(make_generator(RngSpec(0))) is _BoxMullerGenerator
    assert _layer_digest("random_raw") == RNG_LAYERS["random_raw"][1]
    assert _layer_digest("standard_normal") != RNG_LAYERS["standard_normal"][1]
    # The trials downstream of the normals move with them.
    case = ("broadcast", 20, *RATES_70)
    assert _trials_digest(case[0], MessageConfig(*case[1:]), PARAMS) != TRIALS[case]


# The libm functions the rows call, over exact dyadic arguments that no
# gbflab code computes: (1 + j/16) 2^k, from 8.7e-19 to 2.5e30, spans the
# ratios that _rates passes to log1p and the powers that the grids take
# log10 of, and ** raises them to the rows' exponents and 10 to the grid's.
_DYADIC = [math.ldexp(1.0 + j / 16.0, k) for k in range(-60, 101) for j in range(16)]
LIBM_CALLS = (
    ("log1p", lambda: [math.log1p(x) for x in _DYADIC]),
    ("log10", lambda: [math.log10(x) for x in _DYADIC]),
    ("pow", lambda: [x**e for e in (0.75, 0.8, 0.875, 0.95, 1.7) for x in _DYADIC]),
    ("pow10", lambda: [10.0 ** (i / 64.0) for i in range(-64 * 3, 64 * 154)]),
)
LIBM_DIGEST = "502374a40ca3a908bb125277d9e7aadbb24cdfc4503df9c17cf05225cded8445"


def _libm_digest():
    h = hashlib.sha256()
    for name, values in LIBM_CALLS:
        h.update(name.encode())
        h.update("\n".join(map(float.hex, values())).encode())
    return h.hexdigest()


def test_libm_layer_bytes_are_pinned():
    assert _libm_digest() == LIBM_DIGEST


# (sigma1, sigma2, rho_z): every SweepRow and AsymptoticsRow over P in
# [1e-3, 1e14] at 8 points per decade, the grid of the dense sweep benchmark.
SWEEPS = {
    (1.0, 1.0, -1.0):
        "533f5d9f154429c72234baa5dbfd091bdd59c810bd48bdbf2be7778c7257b6e0",
    (1.0, 1.0, 0.0):
        "7ca261016222a6d2915a3a2f91f10cc4726ac08139ee2ce2e312cc57c4612619",
    (1.0, 2.0, 0.3):
        "319c201304edbec09e3beb5941cf9c9a31125b345f3353e9b4fb92ee624de76c",
    (1.0, 1.0, 0.9):
        "f34c90b4353bb1713769b47e854cbb1e4a2f74141f6df4da2c4c89242bd08fd8",
}


def _sweep_digest(cfg):
    noise = NoiseSpec(*cfg)
    h = hashlib.sha256()
    for row in sweep_rates(noise, 1e-3, 1e14, 8):
        h.update(_digest(row).encode())
    for row in verify_asymptotics(noise, power_grid(1e-3, 1e14, 8)).rows:
        h.update(_digest(row).encode())
    return h.hexdigest()


@pytest.mark.parametrize("cfg", list(SWEEPS), ids=str)
def test_sweep_and_verify_row_bytes_are_pinned(cfg):
    assert _sweep_digest(cfg) == SWEEPS[cfg]


def test_a_log1p_one_ulp_off_moves_the_libm_layer_and_not_the_random_streams(monkeypatch):
    # A libm whose log1p rounds up by one ulp above 1, as a library that is
    # not correctly rounded may: the libm digest and the rates move, the
    # Philox words and the normals drawn from them do not.
    log1p = math.log1p
    monkeypatch.setattr(
        math, "log1p", lambda x: math.nextafter(log1p(x), math.inf) if x > 1.0 else log1p(x)
    )
    assert _libm_digest() != LIBM_DIGEST
    assert _sweep_digest((1.0, 1.0, -1.0)) != SWEEPS[(1.0, 1.0, -1.0)]
    for layer, (_, digest) in RNG_LAYERS.items():
        assert _layer_digest(layer) == digest


def test_bisection_collapses_onto_an_exact_dyadic_zero():
    # g^3 - (11/8) g^2 - (13/8) g + 3/4, the monic form of the gap cubic
    # -g^3 + (11/8) g^2 + (13/8) g - 3/4, is exactly 0 at g = 3/8, the third
    # midpoint from [0, 1]: the step that evaluates it closes the bracket
    # there, as a bracket already closed at it stays.
    lo, hi = np.array([0.0, 0.25, 0.375]), np.array([1.0, 0.5, 0.375])
    coeffs = (np.full(3, value) for value in (-11 / 8, -13 / 8, 3 / 4))
    assert _bisect_brackets(lo, hi, *coeffs).tolist() == [0.375] * 3


# ---------------------------------------------------------------------------
# sweep and verify rows against their per-row formulas
# ---------------------------------------------------------------------------

_LN2 = math.log(2.0)


def reference_rates(p, s1, s2, gap):
    """The rate formula applied one power at a time, as each row once was."""
    half_gap_power = 0.5 * p * gap
    r1 = 0.5 * math.log1p((p - half_gap_power) / (half_gap_power + s1 * s1)) / _LN2
    r2 = 0.5 * math.log1p((p - half_gap_power) / (half_gap_power + s2 * s2)) / _LN2
    total = r1 + r2
    return r1, r2, total, total / (0.5 * math.log1p(p) / _LN2)


def reference_sweep(noise, p_start, p_stop, points_per_decade, delta):
    if p_stop < 100.0 * p_start:
        raise ParameterError("sweep range must span at least two decades")
    if not (0.0 < delta <= 1.0):
        raise ParameterError(f"delta must lie in (0, 1], got {delta}")
    grid = power_grid(p_start, p_stop, points_per_decade)
    (rho, gap, _), _, _ = _solve_powers(noise, grid)
    return [
        (p, r, g, *reference_rates(p, noise.sigma1, noise.sigma2, g), p ** (1.0 - delta) * g)
        for p, r, g in zip(grid, rho.tolist(), gap.tolist())
    ]


def reference_verify(noise, p_grid, delta, eps):
    """Rows and verdicts of ``verify_asymptotics``, every grid entry checked on
    its own and every row formed on its own."""
    try:
        reals = all(
            isinstance(p, (int, float, np.integer, np.floating)) and not isinstance(p, bool)
            and 0.0 < float(p) < math.inf for p in p_grid
        )
    except OverflowError:
        reals = False
    if not reals:
        raise ParameterError("p_grid powers must be positive finite reals")
    p_grid = [float(p) for p in p_grid]
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
    (_, gap, _), (lambda0, lambda1, lambda2), defect = _solve_powers(noise, p_grid)
    rows = []
    for i, p in enumerate(p_grid):
        l0, l1, l2 = float(lambda0[i]), float(lambda1[i]), float(lambda2[i])
        d, g = p * float(defect[i]), float(gap[i])
        rows.append((
            p, l2, abs(l2 - 2.0), p ** (1.0 - 0.5 * eps) * l1, d,
            abs(d - 0.5 * (s1 * s1 + s2 * s2)),
            p ** (2.0 - delta - eps) * l0 if anti else math.nan, g, p ** (1.0 - delta) * g,
        ))
    tail = [r for r in rows if r[0] >= p_grid[-1] / 1e3]

    def decreasing(column, mag=False):
        values = [abs(r[column]) if mag else r[column] for r in tail]
        return all(b < a for a, b in zip(values, values[1:]))

    return rows, {
        "lambda2_to_two": rows[-1][2] < 1e-3,
        "root_defect_to_half_noise_sum": rows[-1][5] < 0.01 * (0.5 * (s1 * s1 + s2 * s2)),
        "lambda2_err_decreasing": decreasing(2),
        "lambda1_scaled_vanishing": decreasing(3, mag=True),
        "root_defect_err_decreasing": decreasing(5),
        "lambda0_scaled_vanishing": decreasing(6, mag=True) if anti else None,
        "gap_scaled_vanishing": decreasing(8) if anti else None,
    }


def _outcome(call):
    """Rows in float.hex and the verdicts, or the error's type and message."""
    try:
        result = call()
    except (ParameterError, NoFixedPointError) as exc:
        return type(exc).__name__, str(exc)
    rows, monotone = result if isinstance(result, tuple) else (result, None)
    return [tuple(v.hex() for v in row) for row in rows], monotone


def test_sweep_and_verify_rows_equal_their_per_row_formulas():
    # Beyond the four pinned configurations: seeded random noises, grids,
    # delta and eps (some of them invalid), and verify grids of int,
    # np.float64 and np.float32 entries, each checked entry by entry.
    rng = np.random.default_rng(11)
    kinds = (float, int, np.float64, np.float32)
    solved = 0
    for case in range(120):
        s1, s2 = 10.0 ** rng.uniform(-3.0, 3.0, size=2)
        rho_z = (-1.0, 1.0, rng.uniform(-1.0, 1.0))[case % 3]
        noise = NoiseSpec(s1, s2, rho_z)
        p_start = 10.0 ** rng.uniform(-3.0, 5.0)
        p_stop = p_start * 10.0 ** rng.uniform(1.5, 12.0)
        points = int(rng.integers(1, 9))
        delta, eps = rng.uniform(-0.1, 1.1), rng.uniform(-0.05, 0.6)
        sweep = _outcome(lambda: sweep_rates(noise, p_start, p_stop, points, delta))
        assert sweep == _outcome(
            lambda: reference_sweep(noise, p_start, p_stop, points, delta)
        ), case
        if isinstance(sweep[0], list):
            solved += 1
            for row in sweep_rates(noise, p_start, p_stop, points, delta):
                rates = achievable_rates(ChannelParams(row.power, noise), row.rho_star, row.gap)
                assert [v.hex() for v in rates] == [
                    v.hex() for v in (row.r1, row.r2, row.sum, row.prelog_ratio)
                ]
        kind = kinds[case % 4]
        grid = [kind(round(p)) if kind is int else kind(p)
                for p in power_grid(p_start, p_stop, points)]
        report = _outcome(lambda: verify_asymptotics(noise, grid, delta, eps))
        assert report == _outcome(lambda: reference_verify(noise, grid, delta, eps)), case
    assert solved >= 40
