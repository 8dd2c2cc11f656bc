import functools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from gradlink.corpus import PAD_ID
from gradlink.dp import DpConfig, clip_gradient, draw_noise, privatize, rdp_epsilon, start_noise
from gradlink.errors import ConfigError, UsageError, is_finite_number
from gradlink.model import PARAM_DTYPE, ModelConfig, init_model, loss_and_grads

FLAT_DIM = 22
EPS = np.finfo(PARAM_DTYPE).eps


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


def _model_and_batch(n_blocks, size=8, seed=0):
    """A small model and a batch whose windows repeat tokens: ids come from
    {PAD, 1, 2, 3}, and the first window is all PAD."""
    cfg = ModelConfig(vocab_size=13, embed_dim=6, context=4, n_blocks=n_blocks, ffn_mult=2)
    rng = np.random.default_rng(seed)
    windows = rng.integers(0, 4, size=(size, cfg.context))
    windows[0] = PAD_ID
    targets = rng.integers(0, cfg.vocab_size, size=size)
    return init_model(cfg, seed), windows, targets


def _per_sample_grads(model, windows, targets):
    return [
        loss_and_grads(model, windows[i : i + 1], targets[i : i + 1])[1]
        for i in range(windows.shape[0])
    ]


def _loop_clipped_average(per_sample, clip):
    """Reference for batched clipping: clip each batch-1 gradient, sum left
    to right, divide by B."""
    clipped = [clip_gradient(g, clip) for g in per_sample]
    return functools.reduce(np.add, clipped) / len(clipped)


def _sum_rounding(per_sample, clip):
    """Absolute tolerance of a batched clipped average against the loop: a
    float32 sum of B clipped gradients rounds at most B times at their
    largest entry."""
    return len(per_sample) * EPS * max(np.abs(clip_gradient(g, clip)).max() for g in per_sample)


@pytest.mark.parametrize("n_blocks", [1, 3])
@pytest.mark.parametrize("regime", ["all", "none", "mix"])
def test_batched_clipping_matches_batch1_loop(n_blocks, regime):
    for seed in range(5):
        model, windows, targets = _model_and_batch(n_blocks, seed=seed)
        assert any(len(set(row)) < len(row) for row in windows.tolist())
        per_sample = _per_sample_grads(model, windows, targets)
        norms = np.array([np.linalg.norm(g) for g in per_sample])
        clip = {"all": norms.min() / 2, "none": norms.max() * 2, "mix": np.median(norms)}[regime]
        low, high = {"all": (8, 8), "none": (0, 0), "mix": (1, 7)}[regime]
        assert low <= (norms > clip).sum() <= high
        _, batched = loss_and_grads(model, windows, targets, clip=clip)
        assert batched.dtype == PARAM_DTYPE
        np.testing.assert_allclose(
            batched,
            _loop_clipped_average(per_sample, clip),
            rtol=0,
            atol=_sum_rounding(per_sample, clip),
        )


def test_loss_and_grads_rejects_non_positive_clip():
    model, windows, targets = _model_and_batch(1)
    for clip in (0.0, -1.0, float("nan")):
        with pytest.raises(UsageError):
            loss_and_grads(model, windows, targets, clip=clip)


def _oracle_privatize(clipped_mean, n_samples, cfg, rng):
    """The per-client rule: one `draw_noise` over the whole vector, into a
    fresh buffer of its dtype; none at sigma 0."""
    if cfg.sigma == 0.0:
        return clipped_mean
    std = cfg.sigma * cfg.clip / n_samples
    return clipped_mean + draw_noise(np.empty_like(clipped_mean), std, rng)


def _privatize_rows(clipped_means, n_samples, cfg, rngs, pool=None):
    """`privatize` on a copy of the (n, P) rows, row i's noise from rngs[i],
    drawn on `pool` or else on a pool of one worker, as in a run."""
    if pool is None:
        with ThreadPoolExecutor(1) as own:
            return _privatize_rows(clipped_means, n_samples, cfg, rngs, own)
    grads = np.array(clipped_means, dtype=PARAM_DTYPE, ndmin=2)
    noise = np.empty_like(grads)
    return privatize(grads, noise, start_noise(noise, n_samples, cfg, rngs, pool))


def test_privatize_sigma_zero_is_plain_clipped_average():
    model, windows, targets = _model_and_batch(2, size=4)
    per_sample = _per_sample_grads(model, windows, targets)
    clip = 2.0 * max(float(np.linalg.norm(g)) for g in per_sample)  # clips nothing
    _, clipped_mean = loss_and_grads(model, windows, targets, clip=clip)
    cfg = DpConfig(clip=clip, sigma=0.0)
    (out,) = _privatize_rows(clipped_mean, 4, cfg, [np.random.default_rng(0)])
    np.testing.assert_array_equal(out, clipped_mean)
    np.testing.assert_allclose(
        out, np.mean(per_sample, axis=0), rtol=0, atol=_sum_rounding(per_sample, clip)
    )


def test_privatize_single_oversized_sample_is_halved():
    model, windows, targets = _model_and_batch(2, size=1, seed=3)
    (g,) = _per_sample_grads(model, windows, targets)
    cfg = DpConfig(clip=float(np.linalg.norm(g)) / 2.0, sigma=0.0)
    _, clipped_mean = loss_and_grads(model, windows, targets, clip=cfg.clip)
    (out,) = _privatize_rows(clipped_mean, 1, cfg, [np.random.default_rng(0)])
    # the clip factor comes from the ghost norm, the bound from `norm`
    np.testing.assert_allclose(out, g / 2.0, rtol=8 * EPS)


def test_privatize_noise_is_fresh_per_call():
    g = np.zeros(FLAT_DIM)
    cfg = DpConfig(clip=1.0, sigma=1.0)
    rng = np.random.default_rng(4)
    a = _privatize_rows(g, 1, cfg, [rng])
    b = _privatize_rows(g, 1, cfg, [rng])
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("l", [1, 4])
def test_privatize_noise_std_matches_sigma_clip_over_l(l):
    # 1e5 coordinate draws via a large zero gradient
    big = np.zeros(100_000)
    cfg = DpConfig(clip=2.0, sigma=1.5)
    out = _privatize_rows(big, l, cfg, [np.random.default_rng(5)])
    sample_std = out.std()
    expected = cfg.sigma * cfg.clip / l
    assert sample_std == pytest.approx(expected, rel=0.05)


def _box_muller(n, std, rng, dtype):
    """n Gaussians of std `std` at `dtype`, written out: h = ceil(n / 2)
    exponentials E, then h uniforms U, radius std * sqrt(2 E), the cosines
    first and then the first n - h sines."""
    h = (n + 1) // 2
    radius = np.sqrt(rng.standard_exponential(h, dtype=dtype) * 2.0) * std
    angle = rng.random(h, dtype=dtype) * (2.0 * np.pi)
    return np.concatenate([radius * np.cos(angle), (radius * np.sin(angle))[: n - h]])


@pytest.mark.parametrize("dtype", [PARAM_DTYPE, np.float64], ids=["float32", "float64"])
def test_draw_noise_is_bitwise_box_muller(dtype):
    """Bitwise the Box-Muller pairs of a generator with the same seed, for
    odd and even lengths, one value, and a row of a 2-D buffer, whose other
    rows it leaves alone; at std 0.3, and at a std that float32 rounds to 0
    and float64 holds only as a subnormal."""
    for n in (10_001, 10_000, 2, 1):
        for std in (0.3, 1e-50 if dtype == PARAM_DTYPE else 1e-320):
            out = draw_noise(np.empty(n, dtype=dtype), std, np.random.default_rng(6))
            expected = _box_muller(n, std, np.random.default_rng(6), dtype)
            assert out.dtype == expected.dtype == dtype
            assert out.tobytes() == expected.tobytes()
    buffer = np.full((3, 7), 5.0, dtype=dtype)
    draw_noise(buffer[1], 0.3, np.random.default_rng(8))
    assert buffer[1].tobytes() == _box_muller(7, 0.3, np.random.default_rng(8), dtype).tobytes()
    assert (buffer[[0, 2]] == 5.0).all()


def test_draw_noise_is_standard_normal_in_distribution():
    """About 10^6 float32 draws at std 1: the Kolmogorov-Smirnov distance to
    the normal CDF is below the 1% critical value 1.63 / sqrt(n), and the two
    values of each Box-Muller pair, and their squares, are uncorrelated
    within 5 / sqrt(h)."""
    n = 1_000_001
    h = (n + 1) // 2
    z = draw_noise(np.empty(n, dtype=PARAM_DTYPE), 1.0, np.random.default_rng(9))
    z64 = np.sort(z.astype(np.float64))
    cdf = special.ndtr(z64)
    ks = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
    assert ks < 1.63 / math.sqrt(n)
    cos, sin = z[: n - h].astype(np.float64), z[h:].astype(np.float64)
    for a, b in ((cos, sin), (cos**2, sin**2)):
        assert abs(np.corrcoef(a, b)[0, 1]) < 5 / math.sqrt(h)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("sigma", [0.0, 0.7])
def test_privatize_equals_per_client_rule_on_any_pool(workers, sigma):
    """Three steps of four clients, each client continuing its own stream,
    bitwise equal to the per-client rule. A short switch interval makes the
    threads interleave often."""
    cfg = DpConfig(clip=1.5, sigma=sigma)
    grads = np.random.default_rng(7).normal(size=(4, FLAT_DIM)).astype(PARAM_DTYPE)
    rngs = [np.random.default_rng(10 + i) for i in range(4)]
    oracle_rngs = [np.random.default_rng(10 + i) for i in range(4)]
    pool = ThreadPoolExecutor(workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n_samples in (3, 1, 8):
            out = _privatize_rows(grads, n_samples, cfg, rngs, pool)
            expected = [
                _oracle_privatize(g, n_samples, cfg, rng) for g, rng in zip(grads, oracle_rngs)
            ]
            assert out.tobytes() == np.stack(expected).tobytes()
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()


def test_privatize_runs_a_draw_no_worker_has_begun():
    """With the pool's one worker held, every draw is still queued, so
    privatize runs each one itself."""
    cfg = DpConfig(clip=1.0, sigma=0.4)
    release = threading.Event()
    rngs = [np.random.default_rng(i) for i in range(3)]
    with ThreadPoolExecutor(1) as pool:
        held = pool.submit(release.wait, 60)
        try:
            out = _privatize_rows(np.zeros((3, FLAT_DIM)), 2, cfg, rngs, pool)
            assert not held.done()
        finally:
            release.set()
    zeros = np.zeros(FLAT_DIM, dtype=PARAM_DTYPE)
    expected = [_oracle_privatize(zeros, 2, cfg, np.random.default_rng(i)) for i in range(3)]
    assert out.tobytes() == np.stack(expected).tobytes()


def test_rdp_epsilon_monotone_in_sigma_and_steps():
    eps = [rdp_epsilon(s, 200, 1e-4) for s in (0.5, 1.0, 1.5)]
    assert eps[0] > eps[1] > eps[2]  # same ordering as increasing noise
    assert rdp_epsilon(1.0, 400, 1e-4) > rdp_epsilon(1.0, 200, 1e-4)


def test_rdp_epsilon_edges():
    assert rdp_epsilon(1.0, 0, 1e-4) == 0.0
    assert math.isinf(rdp_epsilon(0.0, 10, 1e-4))
    assert rdp_epsilon(2.0, 5, 1e-4) >= 0.0
    for bad in ((1.0, -1, 1e-4), (1.0, 10, 0.0), (1.0, 10, 1.0), (-1.0, 10, 1e-4)):
        with pytest.raises(UsageError):
            rdp_epsilon(*bad)


def test_rdp_epsilon_is_inf_when_sigma_squared_underflows():
    """A positive sigma whose 2 sigma^2 is 0.0 bounds nothing, like sigma 0."""
    assert 2.0 * 1e-170 * 1e-170 == 0.0
    assert math.isinf(rdp_epsilon(1e-170, 10, 1e-4))


def _gaussian_epsilon(sigma, steps, delta, alpha):
    """The epsilon of `steps` unsubsampled Gaussian steps at Renyi order
    alpha under replace-one adjacency (sensitivity twice the clip bound):
    steps * 2 alpha / sigma^2 + log(1/delta) / (alpha - 1)."""
    return steps * (2.0 * alpha / (sigma * sigma)) + math.log(1.0 / delta) / (alpha - 1)


@pytest.mark.parametrize("sigma", [0.05, 0.1, 0.7, 1.0, 1.5, 8.0, 100.0])
def test_rdp_epsilon_equals_the_closed_form_optimum(sigma):
    """Over real alpha > 1 the bound is convex, with its minimum
    2 s / sigma^2 + 2 sqrt(2 s log(1/delta)) / sigma at
    alpha* = 1 + sigma sqrt(log(1/delta) / (2 s)). So the integer-order
    result is at least that minimum, and it is the better of the two
    integers around alpha*, each clamped to the orders [2, 128] the
    accountant searches. The grid reaches alpha* below 2 and above 128."""
    for steps in (1, 6, 90, 10_000):
        for delta in (1e-9, 1e-4, 0.5):
            log_inv_delta = math.log(1.0 / delta)
            optimum = 2 * steps / sigma**2 + 2 * math.sqrt(2 * steps * log_inv_delta) / sigma
            alpha_star = 1 + sigma * math.sqrt(log_inv_delta / (2 * steps))
            around = {min(max(a, 2), 128) for a in (math.floor(alpha_star), math.ceil(alpha_star))}
            eps = rdp_epsilon(sigma, steps, delta)
            assert eps >= optimum
            assert eps == min(_gaussian_epsilon(sigma, steps, delta, a) for a in around)


def test_dp_config_validation():
    with pytest.raises(ConfigError):
        DpConfig(clip=0.0, sigma=1.0)
    with pytest.raises(ConfigError):
        DpConfig(clip=1.0, sigma=-0.1)
    with pytest.raises(ConfigError):
        DpConfig(clip=1.0, sigma=1.0, delta=1.5)
    for bad in (float("nan"), float("inf"), True, "1"):
        for field in ("clip", "sigma", "delta"):
            with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
                DpConfig(**dict({"clip": 1.0, "sigma": 1.0}, **{field: bad}))


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_numpy_floats_of_every_width_are_checked_without_a_cast(dtype):
    """A numpy float is checked at its own width. Comparing it with the
    largest Python float casts that bound down to float16 or float32, which
    overflows and warns, and this suite fails on the warning: a float32
    clip bound, such as a norm of float32 gradients, must make a DpConfig."""
    cfg = DpConfig(clip=dtype(0.5), sigma=dtype(0.1))
    assert cfg.clip == dtype(0.5)
    assert is_finite_number(np.finfo(dtype).max) and is_finite_number(dtype(-0.0))
    for bad in (np.inf, -np.inf, np.nan):
        assert not is_finite_number(dtype(bad))
        with pytest.raises(ConfigError, match="clip must be a finite number"):
            DpConfig(clip=dtype(bad), sigma=1.0)


def test_ints_beyond_the_float_range_are_not_finite():
    """JSON gives an int of any length; one that no float holds is not a
    finite number, and the check says so instead of raising OverflowError."""
    assert is_finite_number(10**308)
    for big in (10**400, -(10**400)):
        assert not is_finite_number(big)
    with pytest.raises(ConfigError, match="sigma must be a finite number"):
        DpConfig(clip=1.0, sigma=10**400)
