import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbflab import (
    ChannelParams,
    NoiseSpec,
    ParameterError,
    RngSpec,
    make_generator,
    sample_noise_pair,
)


def test_noise_spec_validation():
    with pytest.raises(ParameterError, match="sigma1"):
        NoiseSpec(-3.0, 1.0, 0.0)
    with pytest.raises(ParameterError, match="sigma2"):
        NoiseSpec(1.0, 0.0, 0.0)
    with pytest.raises(ParameterError, match="rho_z"):
        NoiseSpec(1.0, 1.0, 1.5)
    with pytest.raises(ParameterError, match="power"):
        ChannelParams(0.0, NoiseSpec(1.0, 1.0, 0.0))


@pytest.mark.parametrize("big", [1e160, np.float64(1e160)], ids=["float", "float64"])
@pytest.mark.parametrize("name", ["sigma1", "sigma2"])
def test_noise_spec_rejects_sigma_whose_square_overflows(name, big):
    # A numpy scalar must not overflow into a RuntimeWarning before the check.
    sigmas = {"sigma1": 1.0, "sigma2": 1.0, name: big}
    with pytest.raises(ParameterError, match=rf"{name} = 1e\+160 .*square overflows"):
        NoiseSpec(sigmas["sigma1"], sigmas["sigma2"], -1.0)
    NoiseSpec(1e150, np.float64(1e150), -1.0)


@pytest.mark.parametrize("tiny", [1e-200, np.float64(1e-200)], ids=["float", "float64"])
@pytest.mark.parametrize("name", ["sigma1", "sigma2"])
def test_noise_spec_rejects_sigma_whose_square_underflows(name, tiny):
    sigmas = {"sigma1": 1.0, "sigma2": 1.0, name: tiny}
    with pytest.raises(ParameterError, match=rf"{name} = 1e-200 .*square underflows"):
        NoiseSpec(sigmas["sigma1"], sigmas["sigma2"], -1.0)
    # A subnormal square is still nonzero.
    NoiseSpec(1e-160, np.float64(1e-160), -1.0)


def test_params_hold_python_floats_whatever_reals_they_are_given():
    # Equal params must compute with equal bits: a float32 power compared and
    # hashed like 100.0 but built a float32 schedule.
    params = ChannelParams(np.float32(100.0), NoiseSpec(np.float32(1.0), np.int64(2), 0.3))
    assert params == ChannelParams(100.0, NoiseSpec(1.0, 2.0, 0.3))
    assert hash(params) == hash(ChannelParams(100.0, NoiseSpec(1.0, 2.0, 0.3)))
    noise = params.noise
    assert [type(v) for v in (params.power, noise.sigma1, noise.sigma2, noise.rho_z)] == [float] * 4


@pytest.mark.parametrize(
    "value",
    [True, np.True_, np.array(100.0), np.array([100.0]), "100", None, 1j, 10**400],
    ids=["bool", "numpy bool", "0-d array", "1-d array", "str", "None", "complex", "huge int"],
)
@pytest.mark.parametrize("field", ["power", "sigma1", "sigma2", "rho_z"])
def test_params_reject_what_is_not_one_real_number(field, value):
    values = {"power": 100.0, "sigma1": 1.0, "sigma2": 1.0, "rho_z": -1.0, field: value}
    with pytest.raises(ParameterError, match=field):
        ChannelParams(values["power"], NoiseSpec(values["sigma1"], values["sigma2"], values["rho_z"]))


def test_covariance_matrix():
    spec = NoiseSpec(1.0, 2.0, 0.25)
    cov = spec.covariance()
    assert cov[0, 0] == 1.0 and cov[1, 1] == 4.0
    assert cov[0, 1] == cov[1, 0] == 0.25 * 2.0


def test_degenerate_sampling_is_exact_per_sample():
    gen = make_generator(RngSpec(1234, 0))
    z1, z2 = sample_noise_pair(NoiseSpec(1.0, 1.0, -1.0), gen, size=10_000)
    assert np.array_equal(z2, -z1)
    gen = make_generator(RngSpec(1234, 1))
    z1, z2 = sample_noise_pair(NoiseSpec(1.0, 2.0, -1.0), gen, size=10_000)
    assert np.array_equal(z2, -2.0 * z1)
    gen = make_generator(RngSpec(1234, 2))
    z1, z2 = sample_noise_pair(NoiseSpec(1.5, 0.7, 1.0), gen, size=1000)
    assert np.array_equal(z2, (0.7 / 1.5) * z1)


def test_sample_moments_uncorrelated():
    gen = make_generator(RngSpec(2024, 0))
    z1, z2 = sample_noise_pair(NoiseSpec(1.0, 2.0, 0.0), gen, size=1_000_000)
    assert abs(float(np.corrcoef(z1, z2)[0, 1])) < 0.01
    assert abs(float(np.var(z2)) - 4.0) < 0.08  # 2% of 4
    assert abs(float(np.var(z1)) - 1.0) < 0.02


def test_sample_moments_half_correlated():
    gen = make_generator(RngSpec(2024, 1))
    z1, z2 = sample_noise_pair(NoiseSpec(1.0, 1.0, 0.5), gen, size=1_000_000)
    assert abs(float(np.corrcoef(z1, z2)[0, 1]) - 0.5) < 0.01


def test_sample_covariance_within_five_standard_errors():
    n = 1_000_000
    spec = NoiseSpec(1.0, 2.0, -0.6)
    gen = make_generator(RngSpec(7, 0))
    z1, z2 = sample_noise_pair(spec, gen, size=n)
    cov = np.cov(z1, z2)
    target = spec.covariance()
    # SE of a sample variance is var*sqrt(2/n); of a sample covariance
    # sqrt((v1*v2 + cov^2)/n).
    se = np.array(
        [
            [target[0, 0] * math.sqrt(2.0 / n), 0.0],
            [0.0, target[1, 1] * math.sqrt(2.0 / n)],
        ]
    )
    se[0, 1] = se[1, 0] = math.sqrt(
        (target[0, 0] * target[1, 1] + target[0, 1] ** 2) / n
    )
    assert np.all(np.abs(cov - target) <= 5.0 * se)


def test_sampling_reproducible_and_streams_independent():
    a1 = sample_noise_pair(NoiseSpec(1, 1, 0.3), make_generator(RngSpec(5, 9)), size=64)
    a2 = sample_noise_pair(NoiseSpec(1, 1, 0.3), make_generator(RngSpec(5, 9)), size=64)
    b = sample_noise_pair(NoiseSpec(1, 1, 0.3), make_generator(RngSpec(5, 10)), size=64)
    assert np.array_equal(a1[0], a2[0]) and np.array_equal(a1[1], a2[1])
    assert not np.array_equal(a1[0], b[0])


@pytest.mark.parametrize(
    "spec", [NoiseSpec(1.0, 2.0, 0.3), NoiseSpec(1.3, 0.7, 0.0), NoiseSpec(1.3, 0.7, -1.0),
             NoiseSpec(0.5, 3.0, 1.0)], ids=str)
@pytest.mark.parametrize("size", [None, 1, 7])
@pytest.mark.parametrize("steps", [1, 5])
def test_steps_draw_equals_successive_draws_on_a_twin_stream(spec, size, steps):
    # k steps in one call are the k successive calls, bit for bit, and leave
    # the stream where they would: the next draw matches too.
    gen = make_generator(RngSpec(31, 4))
    twin = make_generator(RngSpec(31, 4))
    z1, z2 = sample_noise_pair(spec, gen, size, steps=steps)
    assert z1.shape == z2.shape == ((steps,) if size is None else (steps, size))
    pairs = [sample_noise_pair(spec, twin, size) for _ in range(steps)]
    assert np.array_equal(z1, np.array([p[0] for p in pairs]))
    assert np.array_equal(z2, np.array([p[1] for p in pairs]))
    after, twin_after = sample_noise_pair(spec, gen, size), sample_noise_pair(spec, twin, size)
    assert np.array_equal(after, twin_after)


def test_scalar_sampling_matches_contract():
    z1, z2 = sample_noise_pair(NoiseSpec(1.0, 1.0, -1.0), make_generator(RngSpec(0, 0)))
    assert isinstance(z1, float) and z2 == -z1


def test_broadcast_anticorrelation_identity():
    gen = make_generator(RngSpec(11, 0))
    spec = NoiseSpec(1.0, 1.0, -1.0)
    for _ in range(200):
        x = float(gen.normal(scale=10.0))
        z1, z2 = sample_noise_pair(spec, gen)
        y1, y2 = x + z1, x + z2
        assert abs((y1 + y2) - 2.0 * x) <= 2.0 * np.spacing(abs(x) + abs(z1))


def rebuild(z_observed, s_observed, s_hidden, rho_z):
    """The hidden receiver's noise as an exact scaling of the observed one,
    rho_z * (s_hidden / s_observed) * z_observed: the degenerate sampler's
    formula for z2, and the reason feeding back either receiver lets the
    encoder know both errors."""
    return rho_z * (s_hidden / s_observed) * z_observed


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), sign=st.sampled_from([-1.0, 1.0]))
def test_reconstruction_roundtrip_unit_sigmas(seed, sign):
    # Equal sigmas: the hidden noise is rebuilt bit for bit from either side.
    spec = NoiseSpec(1.0, 1.0, sign)
    z1, z2 = sample_noise_pair(spec, make_generator(RngSpec(seed, 0)), 64)
    assert np.array_equal(rebuild(z1, 1.0, 1.0, sign), z2)
    assert np.array_equal(rebuild(z2, 1.0, 1.0, sign), z1)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    s1=st.floats(1e-3, 1e3),
    s2=st.floats(1e-3, 1e3),
    sign=st.sampled_from([-1.0, 1.0]),
    size=st.sampled_from([None, 64]),
)
def test_reconstruction_roundtrip_general(seed, s1, s2, sign, size):
    # The sampler's receiver-2 noise is the rebuild of its receiver-1 noise,
    # bit for bit; the rebuild back to receiver 1 is off by a few roundings.
    spec = NoiseSpec(s1, s2, sign)
    z1, z2 = sample_noise_pair(spec, make_generator(RngSpec(seed, 0)), size)
    if size is None:
        assert isinstance(z1, float) and isinstance(z2, float)
    assert np.array_equal(z2, rebuild(z1, s1, s2, sign))
    np.testing.assert_allclose(rebuild(z2, s2, s1, sign), z1, rtol=4 * np.finfo(float).eps, atol=0)


def test_rng_spec_validation():
    with pytest.raises(ParameterError):
        RngSpec(-1, 0)
    with pytest.raises(ParameterError):
        RngSpec(2**64, 0)
    same = make_generator(RngSpec(np.uint64(1), np.int64(0))).standard_normal()
    assert same == make_generator(RngSpec(1, 0)).standard_normal()


@pytest.mark.parametrize("field", ["master_seed", "stream_id"])
@pytest.mark.parametrize("value", [1.5, 2.0, "3", None, True])
def test_rng_spec_rejects_non_integers(field, value):
    # A float seed would otherwise be truncated: 1.5 keyed the stream of 1,
    # and True the stream of 1.
    with pytest.raises(ParameterError, match=field):
        RngSpec(**{"master_seed": 1, "stream_id": 0, field: value})


def _same_state(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


def test_keyed_stream_is_philox_of_its_key():
    random_keys = np.random.default_rng(2011).integers(0, 2**64, (50, 2), dtype=np.uint64)
    keys = [(0, 0), (2**64 - 1, 2**64 - 1), (np.uint64(2**63 + 1), np.int64(7)),
            *map(tuple, random_keys.tolist())]
    for master_seed, stream_id in keys:
        gen = make_generator(RngSpec(master_seed, stream_id))
        # A uint64 array: numpy reads a list such as [2**63 + 1, 7] as float64.
        ref = np.random.Philox(key=np.array([master_seed, stream_id], dtype=np.uint64))
        # Key, counter and the empty buffer: buffer_pos, has_uint32 and uinteger.
        assert {"buffer_pos", "has_uint32", "uinteger"} <= ref.state.keys()
        assert _same_state(gen.bit_generator.state, ref.state)
        assert np.array_equal(gen.bit_generator.random_raw(9), ref.random_raw(9))
        ref_gen = np.random.Generator(ref)
        assert np.array_equal(gen.standard_normal(7), ref_gen.standard_normal(7))
        assert np.array_equal(gen.integers(1, 2**62, 5), ref_gen.integers(1, 2**62, 5))


def test_streams_share_one_read_only_zero_counter():
    from gbflab.channel import _COUNTER_ZERO

    with pytest.raises(ValueError, match="read-only"):
        _COUNTER_ZERO[0] = 1
    gen = make_generator(RngSpec(5, 6))
    gen.standard_normal(100)
    assert gen.bit_generator.state["state"]["counter"][0] > 0
    assert _COUNTER_ZERO.dtype == np.uint64 and _COUNTER_ZERO.tolist() == [0, 0, 0, 0]


def test_make_generator_draws_no_entropy(monkeypatch):
    import numpy.random.bit_generator as bit_generator

    calls = []
    randbits = bit_generator.randbits
    monkeypatch.setattr(bit_generator, "randbits", lambda k: calls.append(k) or randbits(k))
    for stream_id in range(100):
        make_generator(RngSpec(20240901, stream_id))
    assert calls == []


def test_generators_of_one_spec_are_independent():
    spec = RngSpec(3, 4)
    first, second = make_generator(spec), make_generator(spec)
    assert first is not second and first.bit_generator is not second.bit_generator
    fresh = make_generator(spec).bit_generator.state
    first.standard_normal(10)
    assert not _same_state(first.bit_generator.state, fresh)
    assert _same_state(second.bit_generator.state, fresh)
