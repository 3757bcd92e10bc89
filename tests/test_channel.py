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
    reconstruct_other_output,
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
    assert reconstruct_other_output(0.0, 1.5, 1, NoiseSpec(1, 1, -1.0)) == -1.5
    assert reconstruct_other_output(2.0, 3.0, 1, NoiseSpec(1, 2, -1.0)) == 0.0
    with pytest.raises(UnsupportedConfigurationError):
        reconstruct_other_output(0.0, 1.0, 1, NoiseSpec(1, 1, 0.5))
    with pytest.raises(ParameterError):
        reconstruct_other_output(0.0, 1.0, 3, NoiseSpec(1, 1, 1.0))


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(-1e6, 1e6, allow_nan=False),
    z=st.floats(-1e3, 1e3, allow_nan=False),
)
def test_reconstruction_roundtrip_unit_sigmas(x, z):
    # Equal sigmas: the hidden output is recovered to within 2 ulps of the
    # largest quantity involved.
    spec = NoiseSpec(1.0, 1.0, -1.0)
    z2 = -z
    y1, y2 = x + z, x + z2
    rec = reconstruct_other_output(x, y1, 1, spec)
    tol = 2.0 * np.spacing(max(abs(x), abs(y1), abs(y2), 1e-300))
    assert abs(rec - y2) <= tol


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(-1e6, 1e6, allow_nan=False),
    u=st.floats(-1e3, 1e3, allow_nan=False),
    s1=st.floats(0.25, 4.0),
    s2=st.floats(0.25, 4.0),
    sign=st.sampled_from([-1.0, 1.0]),
    observed=st.sampled_from([1, 2]),
)
def test_reconstruction_roundtrip_general(x, u, s1, s2, sign, observed):
    spec = NoiseSpec(s1, s2, sign)
    z1 = s1 * u
    z2 = sign * (s2 / s1) * z1
    y1, y2 = x + z1, x + z2
    rec = reconstruct_other_output(x, y1 if observed == 1 else y2, observed, spec)
    hidden = y2 if observed == 1 else y1
    ratio = max(s1 / s2, s2 / s1)
    tol = 2.0 * (1.0 + ratio) * np.spacing(max(abs(x), abs(y1), abs(y2), 1e-300))
    assert abs(rec - hidden) <= tol


def test_rng_spec_validation():
    with pytest.raises(ParameterError):
        RngSpec(-1, 0)
    with pytest.raises(ParameterError):
        RngSpec(2**64, 0)
