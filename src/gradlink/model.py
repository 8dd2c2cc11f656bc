"""Desk-scale next-token language model with the FC/Proj linear-layer layout
the fingerprint attack consumes, plus exact analytic gradients.

Parameters, gradients and client updates are each one flat float64 vector;
`param_layout` names its pieces and `views` exposes them as arrays.

Architecture: token embeddings for a fixed left context are concatenated and
fed through a stack of feedforward blocks (FC -> ReLU -> Proj, residual from
block 2 on), then projected to vocabulary logits. Loss is mean softmax
cross-entropy in natural log. SGD without momentum; attention is deliberately
absent, the attack only needs linear layers.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

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
    """Named reshaped views into a flat parameter (or gradient) vector;
    writing to a view writes to `flat`."""
    size, segments = _segments(config)
    if flat.shape != (size,):
        raise UsageError(f"flat vector has shape {flat.shape}, expected ({size},)")
    return {name: flat[start:stop].reshape(shape) for name, start, stop, shape in segments}


@dataclass
class GlobalModel:
    """All parameters as one flat float64 vector; `views` names its pieces
    and is built once per vector."""

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
    tests of the outer-product gradient structure)."""

    windows: np.ndarray
    flat_input: np.ndarray  # (B, context*embed_dim)
    block_inputs: Sequence[np.ndarray]  # input x to each block
    block_pre: Sequence[np.ndarray]  # FC pre-activation
    block_hidden: Sequence[np.ndarray]  # ReLU output
    final: np.ndarray  # input to the output projection
    logits: np.ndarray  # (B, vocab)


def _validate_batch(config: ModelConfig, windows, targets):
    windows = np.asarray(windows)
    targets = np.asarray(targets)
    if windows.ndim != 2 or windows.shape[1] != config.context:
        raise UsageError(f"windows must have shape (B, {config.context})")
    if windows.shape[0] == 0:
        raise UsageError("empty batch")
    if targets.shape != (windows.shape[0],):
        raise UsageError("targets must have shape (B,)")
    for arr in (windows, targets):
        if arr.min() < 0 or arr.max() >= config.vocab_size:
            raise UsageError("token id out of vocabulary range")
    return windows, targets


def forward_trace(model: GlobalModel, windows: np.ndarray) -> ForwardTrace:
    # Overflow to inf/nan is tolerated here; divergence is detected from the
    # loss value by the simulation loop.
    with np.errstate(over="ignore", invalid="ignore"):
        return _forward_trace(model, windows)


def _forward_trace(model: GlobalModel, windows: np.ndarray) -> ForwardTrace:
    windows = np.asarray(windows)
    p = model.views
    b = windows.shape[0]
    x = p["embedding"][windows].reshape(b, -1)
    flat_input = x
    inputs, pres, hiddens = [], [], []
    for i in range(1, model.config.n_blocks + 1):
        inputs.append(x)
        pre = x @ p[f"block{i}.fc.weight"].T + p[f"block{i}.fc.bias"]
        hid = np.maximum(pre, 0.0)
        out = hid @ p[f"block{i}.proj.weight"].T + p[f"block{i}.proj.bias"]
        if i > 1:
            out = x + out
        pres.append(pre)
        hiddens.append(hid)
        x = out
    logits = x @ p["output.weight"].T + p["output.bias"]
    return ForwardTrace(windows, flat_input, inputs, pres, hiddens, x, logits)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def loss_and_grads(
    model: GlobalModel, windows, targets, clip: Optional[float] = None
) -> Tuple[float, np.ndarray]:
    """Mean softmax cross-entropy (natural log) over the batch, with exact
    analytic gradients averaged over the batch, as one flat vector in the
    layout of the model's parameters.

    With `clip`, the gradient is instead the DP-SGD clipped average
    (1/B) * sum_i g_i / max(1, ||g_i|| / clip) of the per-sample gradients
    g_i, from the same batched backward pass (see `_clip_scales`)."""
    if clip is not None and not clip > 0:
        raise UsageError("clip bound must be > 0")
    with np.errstate(over="ignore", invalid="ignore"):
        return _loss_and_grads(model, windows, targets, clip)


def _loss_and_grads(model, windows, targets, clip):
    cfg = model.config
    windows, targets = _validate_batch(cfg, windows, targets)
    trace = forward_trace(model, windows)
    b = windows.shape[0]
    logp = _log_softmax(trace.logits)
    loss = float(-logp[np.arange(b), targets].mean())

    dlogits = np.exp(logp)
    dlogits[np.arange(b), targets] -= 1.0
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
    demb = dx.reshape(b, cfg.context, cfg.embed_dim)

    if clip is not None:
        scale = _clip_scales(layers, windows, demb, clip)
        layers = [(name, dout * scale[:, None], a) for name, dout, a in layers]
        demb = demb * scale[:, None, None]

    flat = np.zeros_like(model.params)
    g = views(cfg, flat)
    for name, dout, a in layers:
        g[name + ".weight"][...] = dout.T @ a
        g[name + ".bias"][...] = dout.sum(axis=0)
    np.add.at(g["embedding"], windows, demb)
    return loss, flat


def _clip_scales(layers, windows, demb, clip) -> np.ndarray:
    """Per-sample factor 1 / max(1, ||g_i|| / clip) / B from the unscaled
    per-sample rows of the backward pass (ghost norms), without forming
    any g_i. A linear layer's share of g_i is the outer product
    dout_i a_i^T plus the bias dout_i, so its squared norm is
    ||dout_i||^2 (1 + ||a_i||^2). The embedding's share puts the row e_c of
    context position c on token w_c, and a token can repeat in a window
    (PAD often does), so its squared norm is sum_{c,c'} [w_c = w_c'] e_c.e_c'."""
    sq = sum(
        np.einsum("ij,ij->i", dout, dout) * (1.0 + np.einsum("ij,ij->i", a, a))
        for _, dout, a in layers
    )
    same_token = windows[:, :, None] == windows[:, None, :]
    sq = sq + ((demb @ demb.transpose(0, 2, 1)) * same_token).sum(axis=(1, 2))
    return 1.0 / np.maximum(1.0, np.sqrt(sq) / clip) / windows.shape[0]


def sgd_step(model: GlobalModel, grads: np.ndarray, lr: float) -> GlobalModel:
    """One plain SGD step: p <- p - lr * g. No momentum, no weight decay."""
    if lr < 0:
        raise UsageError("lr must be >= 0")
    if grads.shape != model.params.shape:
        raise UsageError(
            f"gradient has shape {grads.shape}, parameters {model.params.shape}"
        )
    return GlobalModel(model.config, model.params - lr * grads)


def eval_loss(model: GlobalModel, windows, targets, chunk: int = 512) -> float:
    """Mean cross-entropy over a full dataset of windows, deterministic."""
    windows = np.asarray(windows)
    targets = np.asarray(targets)
    if windows.shape[0] == 0:
        raise UsageError("empty evaluation dataset")
    total = 0.0
    for start in range(0, windows.shape[0], chunk):
        w = windows[start : start + chunk]
        t = targets[start : start + chunk]
        logp = _log_softmax(forward_trace(model, w).logits)
        total += float(-logp[np.arange(w.shape[0]), t].sum())
    return total / windows.shape[0]


PARTS = ("fc", "proj", "both")


@dataclass(frozen=True)
class LayerSelector:
    """Which linear-layer gradients feed the attack: FC, Proj, or both, over
    an optional subset of blocks (1-based; None means all)."""

    part: str = "both"
    blocks: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.part not in PARTS:
            raise UsageError(f"selector part must be one of {PARTS}")
        if self.blocks is not None:
            if len(self.blocks) == 0:
                raise UsageError("selector block list must not be empty")
            if any(b < 1 for b in self.blocks):
                raise UsageError("selector block indices are 1-based")
            if len(set(self.blocks)) != len(self.blocks):
                raise UsageError(f"selector names a block twice: {self.blocks}")

    def resolve_blocks(self, n_blocks: int) -> Tuple[int, ...]:
        blocks = self.blocks if self.blocks is not None else tuple(range(1, n_blocks + 1))
        for b in blocks:
            if b > n_blocks:
                raise UsageError(f"selector names block {b} but model has {n_blocks}")
        return tuple(sorted(blocks))

    def layer_names(self, n_blocks: int) -> Tuple[str, ...]:
        """Selected layer names: all FC layers (blocks ascending), then all
        Proj layers, so that FC + Proj concatenated equals Both."""
        blocks = self.resolve_blocks(n_blocks)
        names = []
        if self.part in ("fc", "both"):
            names += [f"block{b}.fc" for b in blocks]
        if self.part in ("proj", "both"):
            names += [f"block{b}.proj" for b in blocks]
        return tuple(names)


def parse_selector(text: str) -> LayerSelector:
    """Parse "fc" | "proj" | "both", optionally with "@1,3" block suffix."""
    part, at, rest = text.strip().lower().partition("@")
    blocks = None
    if at:
        try:
            blocks = tuple(int(tok) for tok in rest.split(","))
        except ValueError as exc:
            raise UsageError(f"bad selector block list: {rest!r}") from exc
    return LayerSelector(part=part, blocks=blocks)
