"""Campaign summaries, trial records, coefficient schedules and sweep/verify
rows pinned byte for byte.

Each case hashes every field of the result (array dtype, shape and bytes;
``repr`` of any other value) into one sha256 and compares it with a fixed
digest, so a speed-up that moves any bit of any field shows here."""

import dataclasses
import hashlib

import numpy as np
import pytest

from gbflab import (
    ChannelParams,
    MessageConfig,
    NoiseSpec,
    RngSpec,
    achievable_rates,
    lmmse_coefficient_schedule,
    message_point_variance,
    run_broadcast_campaign,
    run_broadcast_trial,
    run_interference_trial,
    run_limited_feedback_trial,
    solve_fixed_point,
    sweep_rates,
    verify_asymptotics,
)
from gbflab import simulate
from gbflab.analysis import _bisect_brackets, power_grid

# Asymmetric, anti-correlated noise: gamma != 1, both signs of rho, and
# limited mode can run.
PARAMS = ChannelParams(100.0, NoiseSpec(1.3, 0.7, -1.0))


def _config(n, fraction, params=PARAMS):
    fp = solve_fixed_point(params)
    rp = achievable_rates(params, fp.rho_star, gap=fp.gap)
    return MessageConfig(n=n, rate1=fraction * rp.r1, rate2=fraction * rp.r2)


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


# (mode, trials, n, rate fraction, master seed): 100 trials are one chunk;
# 65,537 are two, run on two threads.
CAMPAIGNS = {
    ("broadcast", 100, 20, 0.9, 11):
        "09cd1efe0b178fd060f756d9ebb7356afdc08f5af93c8eacdab861eef137b18c",
    ("interference", 100, 20, 0.9, 11):
        "18a52006ea41aa250ffb669dbd37f9c475ba6cb776b94b9638499e31bf8c12d7",
    ("limited", 100, 20, 0.9, 11):
        "b43584c92c67ec3855e788651de8fab8268a185b27f44d85e435a2a5f5e66f79",
    ("broadcast", 65_537, 6, 0.9, 12):
        "3dfd56357cc06b0977df376353fb33af03932d79df011000d9b83548ea1e4fb6",
    ("interference", 65_537, 6, 0.9, 12):
        "9c70b4f7560e9095efdd91990d377e217239674209836dee3d583b197de6eebd",
    ("limited", 65_537, 6, 0.9, 12):
        "f32589620d813b85e41103c3c244ef4d325845ce794c4c13495cb2c4c9aef9cd",
}


@pytest.mark.parametrize("case", list(CAMPAIGNS), ids=str)
def test_campaign_summary_bytes_are_pinned(monkeypatch, case):
    mode, trials, n, fraction, seed = case
    monkeypatch.setattr(simulate, "_available_cpus", lambda: 2)
    summary = run_broadcast_campaign(_config(n, fraction), PARAMS, trials, seed, mode=mode)
    assert len(simulate._chunk_sizes(trials)) == (1 if trials == 100 else 2)
    assert _digest(summary) == CAMPAIGNS[case]


def test_numpy_block_length_gives_the_campaign_of_its_int():
    # MessageConfig stores an np.int64 block length as a Python int.
    summary = run_broadcast_campaign(_config(np.int64(20), 0.9), PARAMS, 100, 11)
    assert _digest(summary) == CAMPAIGNS[("broadcast", 100, 20, 0.9, 11)]


TRIAL_ENTRIES = {
    "broadcast": run_broadcast_trial,
    "interference": run_interference_trial,
    "limited": run_limited_feedback_trial,
}

# (mode, n, rate fraction): n = 40 gives alphabets beyond 2**62 points.
TRIALS = {
    ("broadcast", 20, 0.7): "60a0c5c665c0df215898e1f3da026848743ab117b6b939f4065ff355e8e5488f",
    ("interference", 20, 0.7): "48ddfc68c53f019e2d65b13b0a28f2fd9691340c87c562ea178873c9703b1564",
    ("limited", 20, 0.7): "60a0c5c665c0df215898e1f3da026848743ab117b6b939f4065ff355e8e5488f",
    ("broadcast", 40, 0.95): "b91112739313fcb79db0b64248dfd4c74b1351782e9e787fa2c3720dac223b13",
    ("interference", 40, 0.95): "32a914eb36cc02842e8931dd6b3e75834d2137b27b86f5295741d8f0c44c392d",
    ("limited", 40, 0.95): "b91112739313fcb79db0b64248dfd4c74b1351782e9e787fa2c3720dac223b13",
}


def _trials_digest(mode, config, params):
    h = hashlib.sha256()
    for stream in range(8):
        record = TRIAL_ENTRIES[mode](config, params, RngSpec(21, stream))
        h.update(_digest(record).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", list(TRIALS), ids=str)
def test_trial_record_bytes_are_pinned(case):
    mode, n, fraction = case
    assert _trials_digest(mode, _config(n, fraction), PARAMS) == TRIALS[case]


# (mode, sigma1, sigma2, rho_z, n, rate fraction) at P = 100: noises with
# |rho_z| < 1 draw two normals per channel use, so these pin the pair layout
# of the draw as well as its order.
NON_DEGENERATE_TRIALS = {
    ("broadcast", 1.0, 2.0, 0.3, 20, 0.7):
        "5738ae80a4c7ae92ac5a31846ad62146a5d5bdbebd076b35374e25f9cc336cb6",
    ("interference", 1.0, 2.0, 0.3, 20, 0.7):
        "b009ec2e4c0ea6d2200a65d087dc70841db7dbfa1fe71733cf5d7a910d997347",
    ("broadcast", 1.3, 0.7, 0.0, 40, 0.95):
        "f981f7910d226e191d7588ea009273a9b3b46c7f66e470abe4d79325f26abe2c",
    ("interference", 1.3, 0.7, 0.0, 40, 0.95):
        "ba282d8dc6342c5bc82a4feb8e77461ad3936b11765ab6a61b77eb98e9383e25",
}


@pytest.mark.parametrize("case", list(NON_DEGENERATE_TRIALS), ids=str)
def test_non_degenerate_trial_record_bytes_are_pinned(case):
    mode, s1, s2, rz, n, fraction = case
    params = ChannelParams(100.0, NoiseSpec(s1, s2, rz))
    assert _trials_digest(mode, _config(n, fraction, params), params) == NON_DEGENERATE_TRIALS[case]


# (power, sigma1, sigma2, rho_z, n, levels1, levels2)
SCHEDULES = {
    (100.0, 1.0, 1.0, -1.0, 20, 2**40, 2**40):
        "639216d15f5b7b50db942f320ab7824ef1a9f15e0945776ba0a2fbc0acacc645",
    (100.0, 1.3, 0.7, -1.0, 30, 2**50, 2**30):
        "236c56fbbaa008bc1f6ad56a37730cb8364a63e4085c0aa332f8463ed6b8d0ad",
    (42.0, 1.0, 2.0, 0.3, 30, 1000, 17):
        "59fd487867834fcbb4d6f7b0544a392bed245424a3bdd5be8f1371100a4d00ea",
    (1e4, 0.5, 3.0, 1.0, 12, 2**60, 2**70):
        "7e513d119ec31245a79574454fb53edc639be7c70544cec4db110d0f0a7b0d4d",
    (0.01, 2.0, 0.1, 0.0, 25, 2, 3):
        "792b121f15557b3067218924beea665f41a737fd35bbb588fafe6cc84d9300c2",
}
# The fields a schedule held before it carried the encoder gains.
SCHEDULE_FIELDS = ("n", "var_theta1", "var_theta2", "alpha1", "alpha2", "rho", "psi", "c1", "c2")


@pytest.mark.parametrize("case", list(SCHEDULES), ids=str)
def test_schedule_bytes_are_pinned(case):
    p, s1, s2, rz, n, levels1, levels2 = case
    schedule = lmmse_coefficient_schedule(
        ChannelParams(p, NoiseSpec(s1, s2, rz)),
        n,
        message_point_variance(levels1),
        message_point_variance(levels2),
    )
    assert _digest(schedule, SCHEDULE_FIELDS) == SCHEDULES[case]


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


@pytest.mark.parametrize("cfg", list(SWEEPS), ids=str)
def test_sweep_and_verify_row_bytes_are_pinned(cfg):
    noise = NoiseSpec(*cfg)
    h = hashlib.sha256()
    for row in sweep_rates(noise, 1e-3, 1e14, 8):
        h.update(_digest(row).encode())
    for row in verify_asymptotics(noise, power_grid(1e-3, 1e14, 8)).rows:
        h.update(_digest(row).encode())
    assert h.hexdigest() == SWEEPS[cfg]


def test_bisection_collapses_onto_an_exact_dyadic_zero():
    # -g^3 + (11/8) g^2 + (13/8) g - 3/4 is exactly 0 at g = 3/8, the third
    # midpoint from [0, 1]: the step that evaluates it closes the bracket
    # there, as a bracket already closed at it stays.
    lo, hi = np.array([0.0, 0.25, 0.375]), np.array([1.0, 0.5, 0.375])
    coeffs = (np.full(3, value) for value in (-1.0, 11 / 8, 13 / 8, -3 / 4))
    assert _bisect_brackets(lo, hi, *coeffs).tolist() == [0.375] * 3
