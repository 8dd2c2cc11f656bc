"""Federated round orchestration: local client SGD, shuffling, server
aggregation, and recording of the anonymized gradient trace (a
`traceio.TraceStore`) plus the truth, a (T, K) array of which client sent
the update in each slot of each round.

The truth leaves this module only as `run_simulation`'s return value, for
`report`; the attack reads the trace alone.

`run_simulation` owns the overflow policy: a run with a large learning rate,
clip bound or noise may overflow to inf or nan anywhere in training, on the
main thread or the noise worker, and its validation loss then ends it as a
`DivergedError`.
"""

import concurrent.futures
import contextlib
import functools
import itertools
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .corpus import MAX_SENTENCE_TOKENS, ClientShard, batch_iter, windows_from_sentences
from .dp import DpConfig, privatize, start_noise
from .errors import ConfigError, DivergedError, UsageError, check_fields, finite, integer
from .model import (
    PARAM_DTYPE,
    BatchPlan,
    GlobalModel,
    ModelConfig,
    eval_loss,
    init_model,
    linear_layers,
    loss_and_grads,
    param_columns,
    param_count,
    plan_batch,
    sgd_step,
)
from .rng import labeled_rng
from .traceio import TraceStore

# Threads that draw the DP noise while the main thread runs the backward
# pass. One keeps the main thread and the worker on the two cores of a
# 2-vCPU host; more threads share those cores and measured slower.
NOISE_WORKERS = 1

# numpy error state of every thread that trains (see the module docstring)
OVERFLOW_TOLERATED = {"over": "ignore", "invalid": "ignore"}


@dataclass(frozen=True)
class FedConfig:
    clients: int
    rounds: int
    client_lr: float = 0.1
    server_lr: float = 0.1
    local_epochs: int = 1
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        check_fields(self, {
            "clients": integer(2), "rounds": integer(2),
            "client_lr": finite("> 0", lambda v: v > 0),
            "server_lr": finite(">= 0", lambda v: v >= 0),
            "local_epochs": integer(0), "batch_size": integer(1), "seed": integer(0),
        })


@dataclass
class LocalTraining:
    """A run's local-training state, built once: every client's batches,
    each step's as one checked `model.BatchPlan`, plus the (K, P) replica
    stack, the DP config and, in a run with noise, each shard's DP noise
    stream and one (K, P) noise buffer, all of which every round reuses.

    Row r of the stack trains shard `order[r]`. Shards are sorted by
    training-window count, largest first, ties by position, so at each local
    step the clients with the same batch size are one contiguous slice of
    rows: all full batches first, then the last partial batches, largest
    first. `steps` lists one local epoch's slices in step order, each as
    (replicas, shard positions, plan): the replicas are a view into the
    stack, and the plan is the slice's `model.BatchPlan`, which keeps its
    (n, b, context) windows and (n, b) targets and owns its rows of the
    run's gradient buffer."""

    order: np.ndarray
    params: np.ndarray
    steps: List[Tuple[GlobalModel, np.ndarray, BatchPlan]]
    dp: Optional[DpConfig]
    dp_rngs: List[np.random.Generator]
    noise: Optional[np.ndarray]


def local_training(
    shards: Sequence[ClientShard],
    cfg: FedConfig,
    model_cfg: ModelConfig,
    dp_cfg: Optional[DpConfig] = None,
) -> LocalTraining:
    """Build each shard's batches, and each step's plan, once. The plan is
    the step's checked batch, so a token id outside the vocabulary is a
    UsageError here, before any round runs. A client's batch order depends
    only on (seed, client) and is drawn afresh from that stream every
    epoch, so every epoch of every round visits the same batches."""
    batches = []
    for shard in shards:
        rng = labeled_rng(cfg.seed, f"batch.client{shard.client_id}")
        batches.append(list(batch_iter(shard, cfg.batch_size, model_cfg.context, rng)))
        if not batches[-1]:
            raise ConfigError(
                f"client {shard.client_id} has no training window: none of its train "
                f"sentences, cut to their first {MAX_SENTENCE_TOKENS} tokens, has more than "
                f"context={model_cfg.context} tokens"
            )
    counts = [sum(len(t) for _, t in b) for b in batches]
    order = np.array(sorted(range(len(shards)), key=lambda i: -counts[i]), dtype=np.int64)
    params = np.empty((len(shards), param_count(model_cfg)), dtype=PARAM_DTYPE)
    grads = np.empty_like(params)
    noisy = dp_cfg is not None and dp_cfg.sigma > 0
    steps = []
    for j in range(max(map(len, batches), default=0)):
        active = [i for i in order if len(batches[i]) > j]
        lo = 0
        for _, group in itertools.groupby(active, key=lambda i: len(batches[i][j][1])):
            members = np.array(list(group), dtype=np.int64)
            hi = lo + len(members)
            windows = np.stack([batches[i][j][0] for i in members])
            targets = np.stack([batches[i][j][1] for i in members])
            plan = plan_batch(model_cfg, windows, targets, grads[lo:hi])
            steps.append((GlobalModel(model_cfg, params[lo:hi]), members, plan))
            lo = hi
    dp_rngs = [labeled_rng(cfg.seed, f"dp.client{s.client_id}") for s in shards] if noisy else []
    return LocalTraining(
        order, params, steps, dp_cfg, dp_rngs, np.empty_like(params) if noisy else None
    )


def client_round(
    snapshot: GlobalModel, clients: LocalTraining, cfg: FedConfig, pool: Optional[Executor] = None
) -> np.ndarray:
    """Run local mini-batch SGD for all K clients in lockstep, each on a
    replica of the round's snapshot, and return the (K, P) stack of
    transmitted updates theta_t - theta_local_final. Row r is the update of
    shard `clients.order[r]`; the stack is `clients.params`, overwritten
    by the next round. Clipping and noise follow `clients.dp`, and shard
    i's noise comes from `clients.dp_rngs[i]`.

    A gradient step updates the blocks and the output whole, and the
    embedding only in the rows of its plan, each once: the unique rows its
    windows look up, outside which the gradient is zero, and leaving a row
    alone gives the bits p - lr * 0.0 gives. With sigma > 0, each step
    starts its clients' noise draws into `clients.noise` on `pool`, which
    such a round needs, before the backward pass, and `privatize` takes the
    noise step on every entry after the gradient step.

    With a frozen global model a client emits an identical payload every
    round."""
    params, dp_cfg, noise = clients.params, clients.dp, clients.noise
    clip = None if dp_cfg is None else dp_cfg.clip
    emb = param_columns(snapshot.config, "embedding")
    params[...] = snapshot.params
    for _ in range(cfg.local_epochs):
        for replicas, shard_ids, plan in clients.steps:
            if noise is not None:
                step_noise = noise[: len(shard_ids)]
                rngs = [clients.dp_rngs[i] for i in shard_ids]
                draws = start_noise(
                    step_noise, plan.windows.shape[1], cfg.client_lr, dp_cfg, rngs, pool
                )
            _, grads = loss_and_grads(replicas, plan.windows, plan.targets, clip=clip, plan=plan)
            p = replicas.params
            sgd_step(p[:, : emb.start], grads[:, : emb.start], cfg.client_lr)
            sgd_step(p[:, emb.stop :], grads[:, emb.stop :], cfg.client_lr)
            sgd_step(
                replicas.views["embedding"], plan.grad_views["embedding"], cfg.client_lr, plan.rows
            )
            if noise is not None:
                privatize(p, step_noise, draws)
    np.subtract(snapshot.params, params, out=params)
    return params


def shuffle_round(k: int, rng: np.random.Generator) -> np.ndarray:
    """Fisher-Yates shuffle of a round's k payloads: the permutation slot ->
    shard position, as an int64 array."""
    order = list(range(k))
    for i, j in zip(range(k - 1, 0, -1), rng.integers(0, np.arange(k, 1, -1)).tolist()):
        order[i], order[j] = order[j], order[i]
    return np.array(order, dtype=np.int64)


def record_updates(
    out: np.ndarray, stack: np.ndarray, rows: np.ndarray, config: ModelConfig
) -> None:
    """Write the trace rows of the updates `stack[rows]` into `out`: the
    FC/Proj weights of each, in `linear_layers` order, biases left out.
    Each weight is one contiguous column range of a flat vector, so this
    is one copy per weight."""
    at = 0
    for name, n_out, n_in in linear_layers(config):
        out[:, at : at + n_out * n_in] = stack[rows, param_columns(config, name + ".weight")]
        at += n_out * n_in


def aggregate(model: GlobalModel, payloads: np.ndarray, server_lr: float) -> GlobalModel:
    """FedAvg step: Theta <- Theta - lambda * Avg(payloads), over a (K, P)
    stack of payloads.

    The rows are summed one after another in one canonical order, sorted by
    their bytes, and the sum is divided by K. Rows that tie in that order
    are byte-identical, so every arrival order of the same rows sums the
    same bytes in the same order: the result is bit-identical under any
    permutation of the rows, NaN payload bits and signed zeros included.
    The work is O(K·P), one pass over the stack."""
    if payloads.ndim != 2 or payloads.shape[1:] != model.params.shape:
        raise UsageError(
            f"payloads have shape {payloads.shape}, expected (K, {model.params.shape[0]})"
        )
    if len(payloads) == 0:
        raise UsageError("aggregate needs at least one payload")
    rows = np.ascontiguousarray(payloads)
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
    first, *rest = np.argsort(keys, kind="stable").tolist()
    total = rows[first].copy()
    for i in rest:
        total += rows[i]
    total /= len(rows)
    return GlobalModel(model.config, model.params - server_lr * total)


def run_simulation(
    fed_cfg: FedConfig,
    model_cfg: ModelConfig,
    shards: Sequence[ClientShard],
    dp_cfg: Optional[DpConfig] = None,
) -> Tuple[TraceStore, np.ndarray, GlobalModel]:
    """Run T federated rounds and record the anonymized trace. Returns the
    trace, the (T, K) int64 truth, where `truth[t, slot]` is the shard
    position of the client in that slot, and the final global model.

    Per round: snapshot -> K client rounds (DP-privatized if configured) ->
    shuffle -> record payloads -> aggregate. The trace's loss curve holds
    eval_loss on the union of validation shards, before training and after
    every round; DivergedError once one is non-finite. ConfigError, before
    anything is allocated, for a run whose (K, P) float32 replica stack or
    (K·T, dim) float32 trace exceeds the largest array numpy can allocate."""
    if len(shards) != fed_cfg.clients:
        raise ConfigError(
            f"config says {fed_cfg.clients} clients but got {len(shards)} shards"
        )
    size = param_count(model_cfg)
    manifest = list(linear_layers(model_cfg))
    dim = sum(rows * cols for _, rows, cols in manifest)
    records = fed_cfg.rounds * fed_cfg.clients
    for what, nbytes in (
        (f"a model of {size:,} parameters is too large: the {PARAM_DTYPE} stack of "
         f"{fed_cfg.clients} client replicas", fed_cfg.clients * size * PARAM_DTYPE.itemsize),
        (f"a run of {fed_cfg.rounds:,} rounds is too long: the trace of {records:,} updates "
         f"of {dim:,} values each", records * dim * PARAM_DTYPE.itemsize),
    ):
        if nbytes > np.iinfo(np.intp).max:
            raise ConfigError(
                f"{what} would need {nbytes:,} bytes, more than the largest array numpy "
                "can allocate"
            )
    model = init_model(model_cfg, fed_cfg.seed)
    shuffle_rng = labeled_rng(fed_cfg.seed, "shuffle")

    valid_sentences = [sent for s in shards for sent in s.valid]
    vw, vt = windows_from_sentences(valid_sentences, model_cfg.context)
    if vw.shape[0] == 0:
        raise ConfigError(
            "no validation windows across all shards: no validation sentence, cut to its "
            f"first {MAX_SENTENCE_TOKENS} tokens, has more than context={model_cfg.context} tokens"
        )
    clients = local_training(shards, fed_cfg, model_cfg, dp_cfg)
    row_of_shard = np.argsort(clients.order)

    trace = TraceStore(
        clients=fed_cfg.clients,
        rounds=fed_cfg.rounds,
        seed=fed_cfg.seed,
        layer_manifest=manifest,
        dp=dp_cfg,
        updates=np.empty((records, dim), dtype=PARAM_DTYPE),
    )
    if dp_cfg is not None:  # each window is used once per local epoch (see `dp`)
        trace.dp_steps = fed_cfg.rounds * fed_cfg.local_epochs
    truth = np.empty((fed_cfg.rounds, fed_cfg.clients), dtype=np.int64)

    def checked_loss(m):
        loss = eval_loss(m, vw, vt)
        if not np.isfinite(loss):
            raise DivergedError(
                f"validation loss became non-finite after round {len(trace.loss_curve)}"
            )
        return loss

    # The pool class is looked up only here: importing it would cost every
    # run without noise start-up time and memory. Error state is per thread,
    # so the worker sets it once for its whole life.
    with np.errstate(**OVERFLOW_TOLERATED), (
        concurrent.futures.ThreadPoolExecutor(
            NOISE_WORKERS, initializer=functools.partial(np.seterr, **OVERFLOW_TOLERATED)
        )
        if clients.noise is not None
        else contextlib.nullcontext()
    ) as pool:
        trace.loss_curve.append(checked_loss(model))
        for t in range(fed_cfg.rounds):
            stack = client_round(model, clients, fed_cfg, pool)
            truth[t] = shuffle_round(fed_cfg.clients, shuffle_rng)
            record_updates(
                trace.updates[t * fed_cfg.clients : (t + 1) * fed_cfg.clients],
                stack, row_of_shard[truth[t]], model_cfg,
            )
            model = aggregate(model, stack, fed_cfg.server_lr)
            trace.loss_curve.append(checked_loss(model))

    return trace, truth, model
