import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradlink.dp import DpConfig, clip_gradient, privatize, rdp_epsilon
from gradlink.errors import UsageError

FLAT_DIM = 22


def _random_grads(rng, norm=None):
    flat = rng.normal(size=FLAT_DIM)
    if norm is not None:
        flat = flat / np.linalg.norm(flat) * norm
    return flat


def test_clip_halves_oversized_gradient():
    rng = np.random.default_rng(0)
    g = _random_grads(rng, norm=10.0)
    clipped = clip_gradient(g, 5.0)
    assert np.linalg.norm(clipped) == pytest.approx(5.0, rel=1e-12)
    np.testing.assert_allclose(clipped, g / 2.0)


def test_clip_passes_small_gradient_through_unchanged():
    rng = np.random.default_rng(1)
    g = _random_grads(rng, norm=3.0)
    assert clip_gradient(g, 5.0) is g


def test_clip_zero_gradient():
    g = np.zeros(FLAT_DIM)
    assert np.linalg.norm(clip_gradient(g, 1.0)) == 0.0


@settings(max_examples=200)
@given(st.floats(0.01, 100.0), st.integers(0, 10_000))
def test_clip_norm_bound_property(norm_over_clip, seed):
    clip = 2.5
    g = _random_grads(np.random.default_rng(seed), norm=norm_over_clip * clip)
    assert np.linalg.norm(clip_gradient(g, clip)) <= clip + 1e-12


def test_privatize_sigma_zero_is_plain_clipped_average():
    rng = np.random.default_rng(2)
    grads = [_random_grads(rng, norm=0.5) for _ in range(4)]
    cfg = DpConfig(clip=5.0, sigma=0.0)
    out = privatize(grads, cfg, np.random.default_rng(0))
    expected = np.mean(grads, axis=0)
    np.testing.assert_array_equal(out, expected)


def test_privatize_single_oversized_sample_is_halved():
    g = _random_grads(np.random.default_rng(3), norm=4.0)
    out = privatize([g], DpConfig(clip=2.0, sigma=0.0), np.random.default_rng(0))
    np.testing.assert_allclose(out, g / 2.0)


def test_privatize_noise_is_fresh_per_call():
    g = np.zeros(FLAT_DIM)
    cfg = DpConfig(clip=1.0, sigma=1.0)
    rng = np.random.default_rng(4)
    a = privatize([g], cfg, rng)
    b = privatize([g], cfg, rng)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("l", [1, 4])
def test_privatize_noise_std_matches_sigma_clip_over_l(l):
    # 1e5 coordinate draws via a large zero gradient
    big = np.zeros(100_000)
    cfg = DpConfig(clip=2.0, sigma=1.5)
    out = privatize([big] * l, cfg, np.random.default_rng(5))
    sample_std = out.std()
    expected = cfg.sigma * cfg.clip / l
    assert sample_std == pytest.approx(expected, rel=0.05)


def test_rdp_epsilon_monotone_in_sigma_and_steps():
    eps = [rdp_epsilon(s, 0.1, 200, 1e-4) for s in (0.5, 1.0, 1.5)]
    assert eps[0] > eps[1] > eps[2]  # same ordering as increasing noise
    assert rdp_epsilon(1.0, 0.1, 400, 1e-4) > rdp_epsilon(1.0, 0.1, 200, 1e-4)


def test_rdp_epsilon_edges():
    assert rdp_epsilon(1.0, 0.1, 0, 1e-4) == 0.0
    assert math.isinf(rdp_epsilon(0.0, 0.1, 10, 1e-4))
    assert rdp_epsilon(2.0, 1.0, 5, 1e-4) >= 0.0
    with pytest.raises(UsageError):
        rdp_epsilon(1.0, 0.0, 10, 1e-4)


def test_dp_config_validation():
    with pytest.raises(UsageError):
        DpConfig(clip=0.0, sigma=1.0)
    with pytest.raises(UsageError):
        DpConfig(clip=1.0, sigma=-0.1)
    with pytest.raises(UsageError):
        DpConfig(clip=1.0, sigma=1.0, delta=1.5)
