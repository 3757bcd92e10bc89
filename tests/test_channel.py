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
    UnsupportedConfigurationError,
    make_generator,
    reconstruct_other_noise,
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


def test_reconstruct_examples():
    assert reconstruct_other_noise(1.5, 1, NoiseSpec(1, 1, -1.0)) == -1.5
    assert reconstruct_other_noise(1.0, 1, NoiseSpec(1, 2, -1.0)) == -2.0
    assert reconstruct_other_noise(-2.0, 2, NoiseSpec(1, 2, -1.0)) == 1.0
    with pytest.raises(UnsupportedConfigurationError):
        reconstruct_other_noise(1.0, 1, NoiseSpec(1, 1, 0.5))
    with pytest.raises(ParameterError):
        reconstruct_other_noise(1.0, 3, NoiseSpec(1, 1, 1.0))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), sign=st.sampled_from([-1.0, 1.0]))
def test_reconstruction_roundtrip_unit_sigmas(seed, sign):
    # Equal sigmas: the hidden noise is rebuilt bit for bit from either side.
    spec = NoiseSpec(1.0, 1.0, sign)
    z1, z2 = sample_noise_pair(spec, make_generator(RngSpec(seed, 0)), 64)
    assert np.array_equal(reconstruct_other_noise(z1, 1, spec), z2)
    assert np.array_equal(reconstruct_other_noise(z2, 2, spec), z1)


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
    rec2 = reconstruct_other_noise(z1, 1, spec)
    assert np.array_equal(rec2, z2)
    if size is None:
        assert isinstance(rec2, float)
    np.testing.assert_allclose(
        reconstruct_other_noise(z2, 2, spec), z1, rtol=4 * np.finfo(float).eps, atol=0
    )


def test_rng_spec_validation():
    with pytest.raises(ParameterError):
        RngSpec(-1, 0)
    with pytest.raises(ParameterError):
        RngSpec(2**64, 0)
    same = make_generator(RngSpec(np.uint64(1), np.int64(0))).standard_normal()
    assert same == make_generator(RngSpec(1, 0)).standard_normal()


@pytest.mark.parametrize("field", ["master_seed", "stream_id"])
@pytest.mark.parametrize("value", [1.5, 2.0, "3", None])
def test_rng_spec_rejects_non_integers(field, value):
    # A float seed would otherwise be truncated: 1.5 keyed the stream of 1.
    with pytest.raises(ParameterError, match=field):
        RngSpec(**{"master_seed": 1, "stream_id": 0, field: value})
