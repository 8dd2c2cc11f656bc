"""Client-side DP-SGD defense: Gaussian noise steps on the local replicas
before an update leaves the client, plus an advisory privacy accountant. The
per-sample clipping itself happens in the model's batched backward pass.

Noise convention: the mechanism averages L clipped per-sample gradients and
adds Gaussian noise with per-coordinate std sigma * clip / L (noise drawn
inside the average, the standard DP-SGD scaling). The local step theta - lr
* (mean + noise) is taken as the gradient step theta - lr * mean and then a
noise step of std lr * sigma * clip / L, equal up to float32 rounding. The
noise covers the flat vector in `model.param_layout` order.

Accounting: a client's batches are fixed once per run, so a training window
sits in one known batch and is used once per local epoch. Over R rounds of E
local epochs it faces R * E Gaussian steps with noise multiplier sigma and
no subsampling amplification, and `rdp_epsilon` bounds exactly that, under
replacement of one training window (replace-one adjacency). A step divides
by its own batch count L, so replacing a window in the fixed partition moves
the average by up to 2 * clip / L, twice the clip / L the noise is scaled
to: the per-step Renyi-DP is 2 alpha / sigma^2. Adding or removing a window
would change L itself, so the add/remove bound alpha / (2 sigma^2) would
understate epsilon for this mechanism.

Where the noise is drawn: it never depends on the gradient, so
`fedsim.client_round` starts each local step's draws with `start_noise`
before the backward pass, one task per client on the run's thread pool, each
from that client's own generator into that client's row of a noise buffer.
A draw is Box-Muller (`draw_noise`): the row's exponentials, then its
uniforms, from the client's generator, made into normals by ufuncs that,
like the draws, release the GIL. After the gradient step `privatize`, on the
main thread, runs itself every draw the pool has not begun, waits for the
others, and subtracts the noise from the replicas. A generator draws the
same numbers on any thread, and each client's draws keep their step order,
so the noise, and so every trace, is the same for any number of workers.
"""

import functools
import math
from concurrent.futures import Executor, Future
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .errors import UsageError, check_fields, finite

MAX_RDP_ORDER = 128


@dataclass(frozen=True)
class DpConfig:
    clip: float
    sigma: float
    delta: float = 1e-4

    def __post_init__(self):
        check_fields(self, {
            "clip": finite("> 0", lambda v: v > 0),
            "sigma": finite(">= 0", lambda v: v >= 0),
            "delta": finite("in (0, 1)", lambda v: 0 < v < 1),
        })


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
    """Fill the 1-D `out` with Gaussian noise of per-coordinate std `std`,
    drawn at the dtype of `out` by Box-Muller. With h = ceil(n / 2), `rng`
    draws h exponentials E, then h uniforms U. 2 E is chi-square with 2
    degrees of freedom, so R = std * sqrt(2 E) is std times the norm of two
    independent standard normals, and out[:h] = R cos(2 pi U), out[h:] =
    R[:n - h] sin(2 pi U[:n - h]) are Gaussian. std multiplies after the
    root, where a small std^2 would underflow. The radius comes from numpy's
    exponential ziggurat, whose tail is exact; sqrt(-2 ln U) from a float32
    U would stop at 5.77 std. A zero may come out as -0.0. Every step
    releases the GIL, so the draw runs in parallel with the main thread."""
    n = out.shape[0]
    h = (n + 1) // 2
    radius = out[:h]
    rng.standard_exponential(out=radius, dtype=out.dtype)
    angle = rng.random(h, dtype=out.dtype)
    angle *= 2.0 * np.pi
    radius *= 2.0
    np.sqrt(radius, out=radius)
    radius *= std
    np.sin(angle[: n - h], out=out[h:])
    out[h:] *= radius[: n - h]
    np.cos(angle, out=angle)
    radius *= angle
    return out


# One client's pending draw: the draw itself, and its future on the pool.
PendingDraw = Tuple[Callable[[], np.ndarray], Future]


def start_noise(
    noise: np.ndarray,
    n_samples: int,
    lr: float,
    cfg: DpConfig,
    rngs: Sequence[np.random.Generator],
    pool: Executor,
) -> List[PendingDraw]:
    """Start drawing row i of the (n, P) `noise` buffer from `rngs[i]` for
    the noise step of a local step with learning rate `lr` on averages of
    `n_samples` clipped gradients: per-coordinate std lr * sigma * clip /
    n_samples, as one task per row on `pool`. Returns the pending draws for
    `privatize`."""
    if n_samples < 1:
        raise UsageError("DP noise needs at least one per-sample gradient")
    std = lr * (cfg.sigma * cfg.clip / n_samples)
    draws = [functools.partial(draw_noise, row, std, rng) for row, rng in zip(noise, rngs)]
    return [(draw, pool.submit(draw)) for draw in draws]


def privatize(params: np.ndarray, noise: np.ndarray, draws: Sequence[PendingDraw]) -> np.ndarray:
    """The noise step, in place: subtract `noise` from the (n, P) replicas
    `params` that have taken their gradient step on the averages of
    `loss_and_grads(..., clip=cfg.clip)`, once `start_noise`'s draws have
    filled the (n, P) `noise`. It waits for the draws a worker has begun and
    runs here every draw no worker has begun. It goes from the last draw
    back: the pool takes draws from the front, so the draws at the back are
    the ones that have not begun, and the main thread and the pool stay busy
    until they meet."""
    for draw, future in reversed(draws):
        if future.cancel():
            draw()
        else:
            future.result()
    params -= noise
    return params


def rdp_epsilon(sigma: float, steps: int, delta: float) -> float:
    """Advisory upper bound on epsilon for `steps` compositions of the
    Gaussian mechanism with noise multiplier sigma and no subsampling, under
    replacement of one training window, whose sensitivity is twice the clip
    bound: the minimum over integer Renyi orders alpha in [2, MAX_RDP_ORDER]
    of steps * 2 alpha / sigma^2 + log(1/delta) / (alpha - 1) (Mironov,
    arXiv:1702.07476). Decreasing in sigma, increasing in steps."""
    if steps < 0:
        raise UsageError("steps must be >= 0")
    if not 0.0 < delta < 1.0:
        raise UsageError("delta must be in (0, 1)")
    if sigma < 0:
        raise UsageError("sigma must be >= 0")
    if steps == 0:
        return 0.0
    var = sigma * sigma
    if var == 0.0:  # sigma 0, or so small that its square underflows: no bound
        return math.inf
    return min(
        steps * (2.0 * alpha / var) + math.log(1.0 / delta) / (alpha - 1)
        for alpha in range(2, MAX_RDP_ORDER + 1)
    )
