"""Client-side DP-SGD defense: Gaussian noising of clipped gradients before
an update leaves the client, plus an advisory privacy accountant. The
per-sample clipping itself happens in the model's batched backward pass.

Noise convention: the mechanism averages L clipped per-sample gradients and
adds Gaussian noise with per-coordinate std sigma * clip / L (noise drawn
inside the average, the standard DP-SGD scaling).

Where the noise is drawn: it never depends on the gradient, so
`fedsim.client_round` starts each local step's draws with `start_noise`
before the backward pass, one task per client on a worker thread, each from
that client's own generator into that client's row of a noise buffer. After
the backward pass `privatize`, on the main thread, runs itself every draw
the worker has not begun, waits for the others, and adds the noise to the
clipped averages. A generator draws the same numbers on any thread, and each
client's draws keep their step order, so the noise, and so every trace, is
the same for any number of workers, or none.
"""

import functools
import math
from concurrent.futures import Executor, Future
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

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


def draw_noise(out: np.ndarray, std: float, rng: np.random.Generator) -> np.ndarray:
    """Fill `out` with Gaussian noise of per-coordinate std `std`, bitwise
    what `rng.normal(0.0, std, size=out.shape)` returns: normal computes
    0.0 + std * z, and `+= 0.0` likewise turns a -0.0 into +0.0. Unlike
    `Generator.normal`, `standard_normal(out=...)` releases the GIL, so the
    draw runs in parallel with the main thread."""
    rng.standard_normal(out=out)
    out *= std
    out += 0.0
    return out


# One client's pending draw: the draw itself, and its future on a pool or None.
PendingDraw = Tuple[Callable[[], np.ndarray], Optional[Future]]


def start_noise(
    noise: np.ndarray,
    n_samples: int,
    cfg: DpConfig,
    rngs: Sequence[np.random.Generator],
    pool: Optional[Executor] = None,
) -> List[PendingDraw]:
    """Start drawing row i of the (n, P) `noise` buffer from `rngs[i]`, with
    the per-coordinate std sigma * clip / n_samples, as one task per row on
    `pool`. Returns the pending draws for `privatize`; without a pool none
    has started."""
    if n_samples < 1:
        raise UsageError("DP noise needs at least one per-sample gradient")
    std = cfg.sigma * cfg.clip / n_samples
    draws = [functools.partial(draw_noise, row, std, rng) for row, rng in zip(noise, rngs)]
    return [(draw, None if pool is None else pool.submit(draw)) for draw in draws]


def privatize(
    clipped_means: np.ndarray, noise: np.ndarray, draws: Sequence[PendingDraw]
) -> np.ndarray:
    """Add DP noise in place to the (n, P) clipped averages that
    `loss_and_grads(..., clip=cfg.clip)` returns, once `start_noise`'s
    draws have filled the (n, P) `noise`. It waits for the draws a worker
    has begun and runs here every draw no worker has begun, all of them
    when there is no pool. It goes from the last draw back: a pool takes
    draws from the front, so the draws at the back are the ones that have
    not begun, and the main thread and the pool stay busy until they
    meet."""
    for draw, future in reversed(draws):
        if future is None or future.cancel():
            draw()
        else:
            future.result()
    clipped_means += noise
    return clipped_means


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
