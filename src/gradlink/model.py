"""Desk-scale next-token language model with the FC/Proj linear-layer layout
the fingerprint attack consumes, plus exact analytic gradients.

Parameters, gradients and client updates are each one flat float32 vector;
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

Everything here is plain arithmetic under the caller's numpy error state: a
diverging model overflows to inf or nan and numpy warns, unless the caller
tolerates it as `fedsim.run_simulation` does.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import UsageError, check_fields, integer

# The one dtype of a run's parameters, gradients, DP noise and updates: the
# trace stores updates at this precision, and the attack reads nothing finer.
# Every function below follows the dtype of the parameters it is given.
PARAM_DTYPE = np.dtype(np.float32)


@dataclass(frozen=True, kw_only=True)
class ModelArch:
    """Model shape without the vocabulary size, which comes from the data:
    a config's `model` section."""

    embed_dim: int = 32
    context: int = 4
    n_blocks: int = 4
    ffn_mult: int = 4

    def __post_init__(self):  # every field, `vocab_size` of a ModelConfig too
        check_fields(self, dict.fromkeys(vars(self), integer(1)))


@dataclass(frozen=True, kw_only=True)
class ModelConfig(ModelArch):
    vocab_size: int


def linear_layers(config: ModelConfig) -> Tuple[Tuple[str, int, int], ...]:
    """(name, rows, cols) of each block's FC and Proj weight, block by
    block: the layers whose gradients the trace records. Block 1's FC reads
    the concatenated context embeddings, each later FC the residual stream."""
    d, h = config.embed_dim, config.ffn_mult * config.embed_dim
    widths = [config.context * d] + [d] * (config.n_blocks - 1)
    return tuple(layer for i, w in enumerate(widths, 1)
                 for layer in ((f"block{i}.fc", h, w), (f"block{i}.proj", d, h)))


def param_layout(config: ModelConfig) -> Tuple[Tuple[str, Tuple[int, ...]], ...]:
    """Name and shape of every parameter, in the order they sit in the flat
    vector: each of `linear_layers` as its weight and then its bias, then
    `embedding`, `output.weight`, `output.bias`. Weight layout is (out,
    in): y = W x + b. DP noise is drawn over the vector in this order, so
    reordering it changes every DP trace."""
    d, v = config.embed_dim, config.vocab_size
    layout = [entry for name, rows, cols in linear_layers(config)
              for entry in ((f"{name}.weight", (rows, cols)), (f"{name}.bias", (rows,)))]
    return tuple(layout + [("embedding", (v, d)), ("output.weight", (v, d)), ("output.bias", (v,))])


def layer_names(selector: str, n_blocks: int) -> Tuple[str, ...]:
    """The linear layers whose gradients feed the attack, named as in
    `linear_layers`. `selector` is "fc", "proj" or "both", optionally with a
    list of 1-based blocks as in "fc@1,3" (default: all blocks). FC layers
    come first, blocks ascending, then Proj layers, so that FC + Proj
    concatenated equals Both. UsageError for a bad part, an empty or
    non-integer block list, a block named twice or a block outside
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
        stop = start + math.prod(shape)  # Python ints: no int64 wrap on a huge model
        segments.append((name, start, stop, shape))
        start = stop
    return start, tuple(segments)


def param_count(config: ModelConfig) -> int:
    return _segments(config)[0]


def param_columns(config: ModelConfig, name: str) -> slice:
    """The columns of the `param_layout` entry `name` in a flat vector. In
    that order the blocks lie before `embedding` and the output after it."""
    (start, stop), = [(a, b) for entry, a, b, _ in _segments(config)[1] if entry == name]
    return slice(start, stop)


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
    """All parameters as one flat float32 vector, or a (K, P) stack of
    client replicas; `views` names its pieces and is built once per vector."""

    config: ModelConfig
    params: np.ndarray
    views: Dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.views = views(self.config, self.params)


def init_model(config: ModelConfig, seed: int) -> GlobalModel:
    """Deterministic init: weights uniform(-s, s) with s = 1/sqrt(fan_in),
    drawn in float64 and rounded to PARAM_DTYPE, biases exactly zero.
    Weights are drawn embedding first, then each of `linear_layers`, then
    the output weight; this order fixes the initial values of each seed."""
    rng = np.random.default_rng(seed)
    model = GlobalModel(config, np.zeros(param_count(config), dtype=PARAM_DTYPE))
    linear = [f"{name}.weight" for name, _, _ in linear_layers(config)]
    for name in ["embedding", *linear, "output.weight"]:
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


def embedding_rows(windows: np.ndarray):
    """Index into a (..., vocab, dim) table that picks each window's rows
    from its own client's table: (windows,) without a client axis."""
    lead = np.indices(windows.shape[:-2], sparse=True)
    return tuple(i[..., None, None] for i in lead) + (windows,)


@dataclass(frozen=True)
class BatchPlan:
    """A checked batch and the indexing its `loss_and_grads` call needs,
    built by `plan_batch` from its `windows` and `targets` alone, which it
    keeps, so that a lockstep run builds and checks it once per step and
    reuses it every epoch of every round.

    The embedding gradient is the sum, per (client, token) row, of the
    per-occurrence rows of the backward pass: `order` sorts the occurrences
    by row, stably, `starts` is where each row's run begins in that order,
    and `rows` indexes those rows in a (..., vocab, dim) table, each once.
    It is zero outside `rows`. A `dense` plan zeroes the rest of the
    embedding gradient and steps every row; any other leaves the rest of
    `grads` as it was and steps `rows` alone.

    `grads` is the gradient buffer the plan owns, which its step writes,
    and `grad_views` its named views, built once with it."""

    windows: np.ndarray
    targets: np.ndarray
    gather: tuple  # embedding_rows(windows)
    picks: tuple  # index of each sample's target logit in (..., B, vocab)
    order: np.ndarray
    starts: np.ndarray
    rows: tuple
    dense: bool
    grads: np.ndarray
    grad_views: Dict[str, np.ndarray] = field(repr=False)

    @property
    def stepped(self):
        """The embedding rows a step with this plan updates."""
        return ... if self.dense else self.rows

    def scatter(self, demb: np.ndarray, table: np.ndarray) -> None:
        """Write the embedding gradient into the (..., vocab, dim) `table`
        from the (..., B, context, dim) per-occurrence rows `demb`: one
        `np.add.reduceat` segment per row of `rows`, over that row's
        occurrences in batch order, so no client's rows depend on another
        client of the stack. Zero in every other row if the plan is dense."""
        if self.dense:
            table[...] = 0.0
        occurrences = demb.reshape(-1, demb.shape[-1])[self.order]
        table[self.rows] = np.add.reduceat(occurrences, self.starts, axis=0)


def checked_batch(config: ModelConfig, windows, targets) -> Tuple[np.ndarray, np.ndarray]:
    """(..., B, context) `windows` and their (..., B) targets as arrays, or
    UsageError unless the shapes fit, no axis is empty, and every id has an
    integer dtype, not bool, and lies in [0, vocab_size). Every batch that
    reaches the model, to train or to evaluate, passes here."""
    windows, targets = np.asarray(windows), np.asarray(targets)
    if windows.ndim < 2 or windows.shape[-1] != config.context or windows.size == 0:
        raise UsageError(
            f"windows have shape {windows.shape}, expected (..., B, {config.context}) "
            "with no empty axis"
        )
    if targets.shape != windows.shape[:-1]:
        raise UsageError(f"targets have shape {targets.shape}, windows {windows.shape}")
    for ids in (windows, targets):
        if ids.dtype.kind not in "iu":
            raise UsageError(f"token ids must have an integer dtype, got {ids.dtype}")
        if ids.min() < 0 or ids.max() >= config.vocab_size:
            raise UsageError(f"token id out of vocabulary range [0, {config.vocab_size})")
    return windows, targets


def plan_batch(config: ModelConfig, windows, targets, grads: np.ndarray, dense: bool) -> BatchPlan:
    """The `BatchPlan` of (..., B, context) `windows` and their (..., B)
    targets, bound to the (..., P) gradient buffer `grads` its step writes.
    This is where a training batch is checked: `checked_batch`, and
    UsageError unless `grads` is (..., P) with the windows' leading axes."""
    windows, targets = checked_batch(config, windows, targets)
    lead = windows.shape[:-2]
    if grads.shape != lead + (param_count(config),):
        raise UsageError(
            f"gradient buffer has shape {grads.shape}; windows of shape {windows.shape} "
            f"need {lead + (param_count(config),)}"
        )
    clients = math.prod(lead)
    keys = (np.arange(clients)[:, None] * config.vocab_size + windows.reshape(clients, -1)).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    rows = np.unravel_index(keys[starts], lead + (config.vocab_size,))
    return BatchPlan(
        windows=windows,
        targets=targets,
        gather=embedding_rows(windows),
        picks=(*np.indices(targets.shape, sparse=True), targets),
        order=order,
        starts=starts,
        rows=rows,
        dense=dense,
        grads=grads,
        grad_views=views(config, grads),
    )


def _t(w: np.ndarray) -> np.ndarray:
    return w.swapaxes(-1, -2)


def forward_trace(model: GlobalModel, windows: np.ndarray, gather=None) -> ForwardTrace:
    """The forward pass; `gather` is `embedding_rows(windows)` if given."""
    windows = np.asarray(windows)
    p = model.views
    x = p["embedding"][embedding_rows(windows) if gather is None else gather]
    x = x.reshape(*windows.shape[:-1], -1)
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


def _softmax(logits: np.ndarray, picks) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Softmax over the last axis, in place, as (e, s, losses): e =
    exp(logits - row max) overwrites `logits`, s is its row sums (keepdims)
    and losses, per sample, the cross-entropy log(s) - (logit - max) of
    the target that `picks` indexes. So softmax = e / s, and no
    log-probability array is built: on the (K, B, vocab) logits of a large
    client stack each fresh array costs more in page faults than its
    arithmetic."""
    logits -= logits.max(axis=-1, keepdims=True)
    picked = logits[picks]
    e = np.exp(logits, out=logits)
    s = e.sum(axis=-1, keepdims=True)
    return e, s, np.log(s[..., 0]) - picked


def loss_and_grads(
    model: GlobalModel,
    windows,
    targets,
    clip: Optional[float] = None,
    plan: Optional[BatchPlan] = None,
) -> Tuple[Union[float, np.ndarray], np.ndarray]:
    """Mean softmax cross-entropy (natural log) over the batch, with exact
    analytic gradients averaged over the batch, as one flat vector in the
    layout of the model's parameters.

    With `clip`, the gradient is instead the DP-SGD clipped average
    (1/B) * sum_i g_i / max(1, ||g_i|| / clip) of the per-sample gradients
    g_i, from the same batched backward pass (see `_clip_scales`).

    For a (K, P) stack of parameters, `windows` is (K, B, context) and
    `targets` (K, B): row k of the result is bitwise the call on replica k
    alone, and the loss is a (K,) array.

    `plan` is `plan_batch` of these windows and targets, the checked batch
    this call reads, UsageError if it was built from other arrays; without
    one, a dense plan is built, and so the batch checked, on a new buffer.
    The gradient is written into the plan's buffer and returned: the
    embedding gradient in the plan's rows only, and a plan that is not
    dense leaves the rest of the embedding as the buffer held it."""
    if clip is not None and not clip > 0:
        raise UsageError("clip bound must be > 0")
    cfg = model.config
    if plan is None:
        plan = plan_batch(cfg, windows, targets, np.empty_like(model.params), dense=True)
    elif plan.grads.shape != model.params.shape:
        raise UsageError(
            f"gradient buffer has shape {plan.grads.shape}, parameters {model.params.shape}"
        )
    # training passes the plan's own arrays, so the identity test decides
    elif not all(mine is given or np.array_equal(mine, given)
                 for mine, given in ((plan.windows, windows), (plan.targets, targets))):
        raise UsageError("the plan was built from other windows or targets than it is given")
    windows = plan.windows
    trace = forward_trace(model, windows, plan.gather)
    b = windows.shape[-2]
    dlogits, s, losses = _softmax(trace.logits, plan.picks)
    loss = losses.mean(axis=-1)
    if clip is None:
        dlogits /= s * b
        dlogits[plan.picks] -= 1.0 / b
    else:
        dlogits /= s
        dlogits[plan.picks] -= 1.0

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

    g = plan.grad_views
    for name, dout, a in layers:
        np.matmul(_t(dout), a, out=g[name + ".weight"])
        dout.sum(axis=-2, out=g[name + ".bias"])
    plan.scatter(demb, g["embedding"])
    return (float(loss) if loss.ndim == 0 else loss), plan.grads


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


def sgd_step(params: np.ndarray, grads: np.ndarray, lr: float, rows=...) -> None:
    """One plain SGD step in place: p <- p - lr * g, computed as g *= lr;
    p -= g, which rounds exactly as p - lr * g does and may overwrite
    `grads`. No momentum, no weight decay. Works row by row on a (K, P)
    stack.

    Only the entries that `rows` indexes in both arrays step; the default is
    all of them. An entry indexed twice steps once. An entry left out keeps
    its bits, as p - lr * 0.0 does for every p, signed zeros, inf and nan
    included."""
    if lr < 0:
        raise UsageError("lr must be >= 0")
    if grads.shape != params.shape:
        raise UsageError(f"gradient has shape {grads.shape}, parameters {params.shape}")
    g = grads[rows]
    g *= lr
    params[rows] -= g


EVAL_CHUNK = 512


def eval_loss(model: GlobalModel, windows, targets) -> float:
    """Mean cross-entropy over a full dataset of windows, deterministic;
    evaluated `EVAL_CHUNK` windows at a time. The batch is checked as
    `checked_batch` checks it, and its leading axes are flattened."""
    windows, targets = checked_batch(model.config, windows, targets)
    windows, targets = windows.reshape(-1, model.config.context), targets.ravel()
    total = 0.0
    for start in range(0, windows.shape[0], EVAL_CHUNK):
        w = windows[start : start + EVAL_CHUNK]
        t = targets[start : start + EVAL_CHUNK]
        _, _, losses = _softmax(forward_trace(model, w).logits, (np.arange(w.shape[0]), t))
        total += float(losses.sum())
    return total / windows.shape[0]
