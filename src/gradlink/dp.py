"""Client-side DP-SGD defense: Gaussian noising of clipped gradients before
an update leaves the client, plus an advisory privacy accountant. The
per-sample clipping itself happens in the model's batched backward pass.

Noise convention: the mechanism averages L clipped per-sample gradients and
adds Gaussian noise with per-coordinate std sigma * clip / L (noise drawn
inside the average, the standard DP-SGD scaling).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError, require_finite

MAX_RDP_ORDER = 128


@dataclass(frozen=True)
class DpConfig:
    clip: float
    sigma: float
    delta: float = 1e-4

    def __post_init__(self):
        require_finite(self, ("clip", "sigma", "delta"))
        if self.clip <= 0:
            raise UsageError("clip bound must be > 0")
        if self.sigma < 0:
            raise UsageError("noise multiplier must be >= 0")
        if not 0.0 < self.delta < 1.0:
            raise UsageError("delta must be in (0, 1)")


def clip_gradient(g: np.ndarray, clip: float) -> np.ndarray:
    """Rescale the flat gradient g to norm <= clip: g / max(1, ||g|| / clip).
    A gradient already within the bound is returned as the same object.
    Training clips in `loss_and_grads(..., clip=...)`; this is the
    one-gradient form of the same rule."""
    if clip <= 0:
        raise UsageError("clip bound must be > 0")
    factor = max(1.0, float(np.sqrt(g @ g)) / clip)
    if factor == 1.0:
        return g
    return g * (1.0 / factor)


def privatize(
    clipped_mean: np.ndarray, n_samples: int, cfg: DpConfig, rng: np.random.Generator
) -> np.ndarray:
    """The clipped average of `n_samples` per-sample gradients, as
    `loss_and_grads(..., clip=cfg.clip)` returns it, plus fresh Gaussian
    noise with per-coordinate std sigma * clip / n_samples, drawn in one
    call over the whole vector."""
    if n_samples < 1:
        raise UsageError("privatize needs at least one per-sample gradient")
    if cfg.sigma == 0.0:
        return clipped_mean
    return clipped_mean + rng.normal(
        0.0, cfg.sigma * cfg.clip / n_samples, size=clipped_mean.shape
    )


def _log_binom(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _logsumexp(terms) -> float:
    m = max(terms)
    if m == -math.inf:
        return -math.inf
    return m + math.log(sum(math.exp(t - m) for t in terms))


def rdp_epsilon(sigma: float, sample_rate: float, steps: int, delta: float) -> float:
    """Advisory upper bound on epsilon for `steps` compositions of the
    subsampled Gaussian mechanism, via integer-order Renyi-DP and conversion
    at `delta`. Decreasing in sigma, increasing in steps."""
    if not 0.0 < sample_rate <= 1.0:
        raise UsageError("sample_rate must be in (0, 1]")
    if steps < 0:
        raise UsageError("steps must be >= 0")
    if not 0.0 < delta < 1.0:
        raise UsageError("delta must be in (0, 1)")
    if sigma < 0:
        raise UsageError("sigma must be >= 0")
    if steps == 0:
        return 0.0
    if sigma == 0.0:
        return math.inf

    q = sample_rate
    best = math.inf
    for alpha in range(2, MAX_RDP_ORDER + 1):
        if q == 1.0:
            rdp = alpha / (2.0 * sigma * sigma)
        else:
            terms = [
                _log_binom(alpha, j)
                + j * math.log(q)
                + (alpha - j) * math.log1p(-q)
                + j * (j - 1) / (2.0 * sigma * sigma)
                for j in range(alpha + 1)
            ]
            rdp = _logsumexp(terms) / (alpha - 1)
        eps = steps * rdp + math.log(1.0 / delta) / (alpha - 1)
        best = min(best, eps)
    return best
