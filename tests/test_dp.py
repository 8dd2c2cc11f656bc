import functools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradlink.corpus import PAD_ID
from gradlink.dp import DpConfig, clip_gradient, draw_noise, privatize, rdp_epsilon, start_noise
from gradlink.errors import ConfigError, UsageError
from gradlink.model import ModelConfig, init_model, loss_and_grads

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
        np.testing.assert_allclose(
            batched, _loop_clipped_average(per_sample, clip), rtol=0, atol=1e-12
        )


def test_loss_and_grads_rejects_non_positive_clip():
    model, windows, targets = _model_and_batch(1)
    for clip in (0.0, -1.0, float("nan")):
        with pytest.raises(UsageError):
            loss_and_grads(model, windows, targets, clip=clip)


def _oracle_privatize(clipped_mean, n_samples, cfg, rng):
    """The per-client rule: one `rng.normal` call over the whole vector,
    none at sigma 0."""
    if cfg.sigma == 0.0:
        return clipped_mean
    std = cfg.sigma * cfg.clip / n_samples
    return clipped_mean + rng.normal(0.0, std, size=clipped_mean.shape)


def _privatize_rows(clipped_means, n_samples, cfg, rngs, pool=None):
    """`privatize` on a copy of the (n, P) rows, row i's noise from rngs[i]."""
    grads = np.array(clipped_means, dtype=float, ndmin=2)
    noise = np.empty_like(grads)
    return privatize(grads, noise, start_noise(noise, n_samples, cfg, rngs, pool))


def test_privatize_sigma_zero_is_plain_clipped_average():
    model, windows, targets = _model_and_batch(2, size=4)
    per_sample = _per_sample_grads(model, windows, targets)
    clip = 2.0 * max(np.linalg.norm(g) for g in per_sample)  # clips nothing
    _, clipped_mean = loss_and_grads(model, windows, targets, clip=clip)
    cfg = DpConfig(clip=clip, sigma=0.0)
    (out,) = _privatize_rows(clipped_mean, 4, cfg, [np.random.default_rng(0)])
    np.testing.assert_array_equal(out, clipped_mean)
    np.testing.assert_allclose(out, np.mean(per_sample, axis=0), rtol=0, atol=1e-12)


def test_privatize_single_oversized_sample_is_halved():
    model, windows, targets = _model_and_batch(2, size=1, seed=3)
    (g,) = _per_sample_grads(model, windows, targets)
    cfg = DpConfig(clip=np.linalg.norm(g) / 2.0, sigma=0.0)
    _, clipped_mean = loss_and_grads(model, windows, targets, clip=cfg.clip)
    (out,) = _privatize_rows(clipped_mean, 1, cfg, [np.random.default_rng(0)])
    np.testing.assert_allclose(out, g / 2.0, rtol=1e-12)


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


def test_draw_noise_is_bitwise_generator_normal():
    """Including a std so small that std * z underflows to -0.0, which
    `normal`'s 0.0 + std * z turns into +0.0."""
    for std in (0.3, 1e-320):
        out = draw_noise(np.empty(10_000), std, np.random.default_rng(6))
        expected = np.random.default_rng(6).normal(0.0, std, size=10_000)
        assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("workers", [None, 1, 2, 3])
@pytest.mark.parametrize("sigma", [0.0, 0.7])
def test_privatize_equals_per_client_rule_on_any_pool(workers, sigma):
    """Three steps of four clients, each client continuing its own stream,
    bitwise equal to the per-client rule. A short switch interval makes the
    threads interleave often."""
    cfg = DpConfig(clip=1.5, sigma=sigma)
    grads = np.random.default_rng(7).normal(size=(4, FLAT_DIM))
    rngs = [np.random.default_rng(10 + i) for i in range(4)]
    oracle_rngs = [np.random.default_rng(10 + i) for i in range(4)]
    pool = None if workers is None else ThreadPoolExecutor(workers)
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
        if pool is not None:
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
    expected = [np.random.default_rng(i).normal(0.0, 0.2, size=FLAT_DIM) for i in range(3)]
    assert out.tobytes() == np.stack(expected).tobytes()


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
    for bad in (float("nan"), float("inf"), True, "1"):
        for field in ("clip", "sigma", "delta"):
            with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
                DpConfig(**dict({"clip": 1.0, "sigma": 1.0}, **{field: bad}))
