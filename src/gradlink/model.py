"""Desk-scale next-token language model with the FC/Proj linear-layer layout
the fingerprint attack consumes, plus exact analytic gradients.

Parameters, gradients and client updates are each one flat float64 vector;
`param_layout` names its pieces and `views` exposes them as arrays. A round's
K client replicas are one (K, P) stack of such vectors, and the forward and
backward passes take that leading client axis: a (K, P) stack with (K, B,
context) windows runs K independent batches as one batched `matmul`, and a
flat vector with (B, context) windows is the same code with no client axis.

Architecture: token embeddings for a fixed left context are concatenated and
fed through a stack of feedforward blocks (FC -> ReLU -> Proj, residual from
block 2 on), then projected to vocabulary logits. Loss is mean softmax
cross-entropy in natural log. SGD without momentum; attention is deliberately
absent, the attack only needs linear layers.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import UsageError


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    embed_dim: int = 32
    context: int = 4
    n_blocks: int = 4
    ffn_mult: int = 4

    def __post_init__(self):
        for name in ("vocab_size", "embed_dim", "context", "n_blocks", "ffn_mult"):
            if getattr(self, name) < 1:
                raise UsageError(f"ModelConfig.{name} must be >= 1")

    @property
    def hidden_dim(self) -> int:
        return self.ffn_mult * self.embed_dim

    def block_input_dim(self, index: int) -> int:
        """Input width of block `index` (1-based); block 1 sees the
        concatenated context embeddings."""
        return self.context * self.embed_dim if index == 1 else self.embed_dim


def param_layout(config: ModelConfig) -> Tuple[Tuple[str, Tuple[int, ...]], ...]:
    """Name and shape of every parameter, in the order they sit in the flat
    vector: the blocks first (each FC weight, FC bias, Proj weight, Proj
    bias), then `embedding`, `output.weight`, `output.bias`. Weight layout
    is (out, in): y = W x + b. DP noise is drawn over the vector in this
    order, so reordering it changes every DP trace."""
    d, h, v = config.embed_dim, config.hidden_dim, config.vocab_size
    layout = []
    for i in range(1, config.n_blocks + 1):
        layout += [
            (f"block{i}.fc.weight", (h, config.block_input_dim(i))),
            (f"block{i}.fc.bias", (h,)),
            (f"block{i}.proj.weight", (d, h)),
            (f"block{i}.proj.bias", (d,)),
        ]
    layout += [("embedding", (v, d)), ("output.weight", (v, d)), ("output.bias", (v,))]
    return tuple(layout)


def layer_names(selector: str, n_blocks: int) -> Tuple[str, ...]:
    """The linear layers whose gradients feed the attack, named as in
    `param_layout` without ".weight". `selector` is "fc", "proj" or "both",
    optionally with a list of 1-based blocks as in "fc@1,3" (default: all
    blocks). FC layers come first, blocks ascending, then Proj layers, so
    that FC + Proj concatenated equals Both. UsageError for a bad part, an
    empty or non-integer block list, a block named twice or a block outside
    1..n_blocks."""
    part, at, rest = selector.strip().lower().partition("@")
    if part not in ("fc", "proj", "both"):
        raise UsageError(f"selector part must be fc, proj or both, got {part!r}")
    blocks = range(1, n_blocks + 1)
    if at:
        try:
            blocks = sorted(int(tok) for tok in rest.split(","))
        except ValueError as exc:
            raise UsageError(f"bad selector block list: {rest!r}") from exc
        if len(set(blocks)) != len(blocks):
            raise UsageError(f"selector names a block twice: {rest!r}")
        if not 1 <= blocks[0] <= blocks[-1] <= n_blocks:
            raise UsageError(f"selector blocks {rest!r} are not all in 1..{n_blocks}")
    parts = ("fc", "proj") if part == "both" else (part,)
    return tuple(f"block{b}.{p}" for p in parts for b in blocks)


@lru_cache(maxsize=None)
def _segments(config: ModelConfig) -> Tuple[int, tuple]:
    """Total length and (name, start, stop, shape) of each layout entry."""
    segments, start = [], 0
    for name, shape in param_layout(config):
        stop = start + int(np.prod(shape))
        segments.append((name, start, stop, shape))
        start = stop
    return start, tuple(segments)


def param_count(config: ModelConfig) -> int:
    return _segments(config)[0]


def views(config: ModelConfig, flat: np.ndarray) -> Dict[str, np.ndarray]:
    """Named reshaped views into a flat parameter (or gradient) vector, or
    into each row of a (K, P) stack of them, with the client axis leading;
    writing to a view writes to `flat`."""
    size, segments = _segments(config)
    if flat.ndim not in (1, 2) or flat.shape[-1] != size:
        raise UsageError(f"flat vector has shape {flat.shape}, expected ({size},) or (K, {size})")
    lead = flat.shape[:-1]
    return {
        name: flat[..., start:stop].reshape(lead + shape) for name, start, stop, shape in segments
    }


@dataclass
class GlobalModel:
    """All parameters as one flat float64 vector, or a (K, P) stack of
    client replicas; `views` names its pieces and is built once per vector."""

    config: ModelConfig
    params: np.ndarray
    views: Dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.views = views(self.config, self.params)


def init_model(config: ModelConfig, seed: int) -> GlobalModel:
    """Deterministic init: weights uniform(-s, s) with s = 1/sqrt(fan_in),
    biases exactly zero. Weights are drawn embedding first, then each
    block's FC and Proj weight, then the output weight; this order fixes
    the initial values of each seed."""
    rng = np.random.default_rng(seed)
    model = GlobalModel(config, np.zeros(param_count(config)))
    blocks = [
        f"block{i}.{part}.weight" for i in range(1, config.n_blocks + 1) for part in ("fc", "proj")
    ]
    for name in ["embedding", *blocks, "output.weight"]:
        w = model.views[name]
        s = 1.0 / np.sqrt(w.shape[1])  # fan_in is the width of a row
        w[...] = rng.uniform(-s, s, size=w.shape)
    return model


@dataclass
class ForwardTrace:
    """Intermediate activations of one forward pass (used by backprop and by
    tests of the outer-product gradient structure). Each array carries the
    client axis of the parameters, if any, in front of the batch axis."""

    block_inputs: Sequence[np.ndarray]  # input x to each block
    block_pre: Sequence[np.ndarray]  # FC pre-activation
    block_hidden: Sequence[np.ndarray]  # ReLU output
    final: np.ndarray  # input to the output projection
    logits: np.ndarray  # (B, vocab)


def check_tokens(config: ModelConfig, *arrays) -> None:
    """UsageError unless every id in `arrays` lies in [0, vocab_size).
    Training checks each shard's windows once per run; `loss_and_grads`
    does not scan its batch again."""
    for arr in arrays:
        arr = np.asarray(arr)
        if arr.size and (arr.min() < 0 or arr.max() >= config.vocab_size):
            raise UsageError("token id out of vocabulary range")


def _check_batch(model: GlobalModel, windows, targets):
    windows = np.asarray(windows)
    targets = np.asarray(targets)
    lead = model.params.shape[:-1]
    if windows.shape[:-2] != lead or windows.shape[-1:] != (model.config.context,) or (
        windows.ndim != len(lead) + 2
    ):
        raise UsageError(
            f"windows have shape {windows.shape}; parameters of shape {model.params.shape} "
            f"need {lead + ('B', model.config.context)}"
        )
    if windows.shape[-2] == 0:
        raise UsageError("empty batch")
    if targets.shape != windows.shape[:-1]:
        raise UsageError(f"targets have shape {targets.shape}, windows {windows.shape}")
    return windows, targets


def _table_index(windows: np.ndarray):
    """Index into a (..., vocab, dim) table that picks each window's rows
    from its own client's table: (windows,) without a client axis."""
    lead = np.indices(windows.shape[:-2], sparse=True)
    return tuple(i[..., None, None] for i in lead) + (windows,)


def _t(w: np.ndarray) -> np.ndarray:
    return w.swapaxes(-1, -2)


def forward_trace(model: GlobalModel, windows: np.ndarray) -> ForwardTrace:
    # Overflow to inf/nan is tolerated here; divergence is detected from the
    # loss value by the simulation loop.
    with np.errstate(over="ignore", invalid="ignore"):
        return _forward_trace(model, np.asarray(windows))


def _forward_trace(model: GlobalModel, windows: np.ndarray) -> ForwardTrace:
    p = model.views
    x = p["embedding"][_table_index(windows)].reshape(*windows.shape[:-1], -1)
    inputs, pres, hiddens = [], [], []
    for i in range(1, model.config.n_blocks + 1):
        inputs.append(x)
        pre = x @ _t(p[f"block{i}.fc.weight"]) + p[f"block{i}.fc.bias"][..., None, :]
        hid = np.maximum(pre, 0.0)
        out = hid @ _t(p[f"block{i}.proj.weight"]) + p[f"block{i}.proj.bias"][..., None, :]
        if i > 1:
            out = x + out
        pres.append(pre)
        hiddens.append(hid)
        x = out
    logits = x @ _t(p["output.weight"])
    logits += p["output.bias"][..., None, :]
    return ForwardTrace(inputs, pres, hiddens, x, logits)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, in place: it returns `logits`. On the
    (K, B, vocab) logits of a large client stack, each fresh array costs
    more in page faults than its arithmetic."""
    logits -= logits.max(axis=-1, keepdims=True)
    logits -= np.log(np.exp(logits).sum(axis=-1, keepdims=True))
    return logits


def loss_and_grads(
    model: GlobalModel,
    windows,
    targets,
    clip: Optional[float] = None,
    out: Optional[np.ndarray] = None,
) -> Tuple[Union[float, np.ndarray], np.ndarray]:
    """Mean softmax cross-entropy (natural log) over the batch, with exact
    analytic gradients averaged over the batch, as one flat vector in the
    layout of the model's parameters.

    With `clip`, the gradient is instead the DP-SGD clipped average
    (1/B) * sum_i g_i / max(1, ||g_i|| / clip) of the per-sample gradients
    g_i, from the same batched backward pass (see `_clip_scales`).

    For a (K, P) stack of parameters, `windows` is (K, B, context) and
    `targets` (K, B): row k of the result is bitwise the call on replica k
    alone, and the loss is a (K,) array. The gradient is written into `out`
    if given (shaped like the parameters). Token ids are not checked here;
    see `check_tokens`."""
    if clip is not None and not clip > 0:
        raise UsageError("clip bound must be > 0")
    windows, targets = _check_batch(model, windows, targets)
    if out is None:
        out = np.empty_like(model.params)
    elif out.shape != model.params.shape:
        raise UsageError(f"gradient buffer has shape {out.shape}, parameters {model.params.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        return _loss_and_grads(model, windows, targets, clip, out)


def _loss_and_grads(model, windows, targets, clip, out):
    cfg = model.config
    trace = _forward_trace(model, windows)
    b = windows.shape[-2]
    logp = _log_softmax(trace.logits)
    picks = (*np.indices(targets.shape, sparse=True), targets)
    loss = -logp[picks].mean(axis=-1)

    dlogits = np.exp(logp, out=logp)  # logp is not needed again
    dlogits[picks] -= 1.0
    if clip is None:
        dlogits /= b

    # (layer, output gradient, input) of each linear layer; row i of both
    # belongs to sample i, so the layer's gradient is dout.T @ a.
    p = model.views
    layers = [("output", dlogits, trace.final)]
    dx = dlogits @ p["output.weight"]
    for i in range(cfg.n_blocks, 0, -1):
        layers.append((f"block{i}.proj", dx, trace.block_hidden[i - 1]))
        dhid = dx @ p[f"block{i}.proj.weight"]
        dpre = dhid * (trace.block_pre[i - 1] > 0)
        layers.append((f"block{i}.fc", dpre, trace.block_inputs[i - 1]))
        dx_in = dpre @ p[f"block{i}.fc.weight"]
        if i > 1:
            dx_in = dx_in + dx  # residual passthrough
        dx = dx_in
    demb = dx.reshape(*windows.shape, cfg.embed_dim)

    if clip is not None:
        scale = _clip_scales(layers, windows, demb, clip)
        for _, dout, _ in layers:
            dout *= scale[..., None]
        demb *= scale[..., None, None]

    g = views(cfg, out)
    for name, dout, a in layers:
        np.matmul(_t(dout), a, out=g[name + ".weight"])
        dout.sum(axis=-2, out=g[name + ".bias"])
    g["embedding"][...] = 0.0
    np.add.at(g["embedding"], _table_index(windows), demb)
    return (float(loss) if loss.ndim == 0 else loss), out


def _clip_scales(layers, windows, demb, clip) -> np.ndarray:
    """Per-sample factor 1 / max(1, ||g_i|| / clip) / B from the unscaled
    per-sample rows of the backward pass (ghost norms), without forming
    any g_i. A linear layer's share of g_i is the outer product
    dout_i a_i^T plus the bias dout_i, so its squared norm is
    ||dout_i||^2 (1 + ||a_i||^2). The embedding's share puts the row e_c of
    context position c on token w_c, and a token can repeat in a window
    (PAD often does), so its squared norm is sum_{c,c'} [w_c = w_c'] e_c.e_c'."""
    sq = sum(
        np.einsum("...ij,...ij->...i", dout, dout)
        * (1.0 + np.einsum("...ij,...ij->...i", a, a))
        for _, dout, a in layers
    )
    same_token = windows[..., :, None] == windows[..., None, :]
    sq = sq + ((demb @ _t(demb)) * same_token).sum(axis=(-2, -1))
    return 1.0 / np.maximum(1.0, np.sqrt(sq) / clip) / windows.shape[-2]


def sgd_step(params: np.ndarray, grads: np.ndarray, lr: float) -> None:
    """One plain SGD step in place: p <- p - lr * g, computed as g *= lr;
    p -= g, which rounds exactly as p - lr * g does and overwrites `grads`.
    No momentum, no weight decay. Works row by row on a (K, P) stack."""
    if lr < 0:
        raise UsageError("lr must be >= 0")
    if grads.shape != params.shape:
        raise UsageError(f"gradient has shape {grads.shape}, parameters {params.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # as in loss_and_grads
        grads *= lr
        params -= grads


EVAL_CHUNK = 512


def eval_loss(model: GlobalModel, windows, targets) -> float:
    """Mean cross-entropy over a full dataset of windows, deterministic;
    evaluated `EVAL_CHUNK` windows at a time."""
    windows = np.asarray(windows)
    targets = np.asarray(targets)
    if windows.shape[0] == 0:
        raise UsageError("empty evaluation dataset")
    total = 0.0
    for start in range(0, windows.shape[0], EVAL_CHUNK):
        w = windows[start : start + EVAL_CHUNK]
        t = targets[start : start + EVAL_CHUNK]
        # a diverged model gives inf logits here; callers check the result
        with np.errstate(over="ignore", invalid="ignore"):
            logp = _log_softmax(_forward_trace(model, w).logits)
        total += float(-logp[np.arange(w.shape[0]), t].sum())
    return total / windows.shape[0]
