"""Federated round orchestration: local client SGD, shuffling, server
aggregation, and recording of the anonymized gradient trace (a
`traceio.TraceStore`) plus the truth, a (T, K) array of which client sent
the update in each slot of each round.

The truth leaves this module only as `run_simulation`'s return value, for
`report`; the attack reads the trace alone.
"""

import concurrent.futures
import contextlib
import itertools
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .corpus import ClientShard, batch_iter, windows_from_sentences
from .dp import DpConfig, privatize, start_noise
from .errors import ConfigError, DivergedError, UsageError, require_finite, require_integers
from .model import (
    GlobalModel,
    ModelConfig,
    check_tokens,
    eval_loss,
    init_model,
    loss_and_grads,
    param_count,
    param_layout,
    sgd_step,
    views,
)
from .rng import labeled_rng
from .traceio import TraceStore

# Threads that draw the DP noise while the main thread runs the backward
# pass. One keeps the main thread and the worker on the two cores of a
# 2-vCPU host; more threads share those cores and measured slower.
NOISE_WORKERS = 1


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
        require_integers(
            self, {"clients": 2, "rounds": 2, "local_epochs": 0, "batch_size": 1, "seed": 0}
        )
        require_finite(self, ("client_lr", "server_lr"))
        if self.client_lr <= 0 or self.server_lr < 0:
            raise ConfigError("learning rates must be positive")


def linear_layer_manifest(config: ModelConfig) -> List[Tuple[str, int, int]]:
    """(name, rows, cols) of each FC and Proj weight, block by block."""
    return [
        (name[: -len(".weight")], *shape)
        for name, shape in param_layout(config)
        if name.startswith("block") and name.endswith(".weight")
    ]


@dataclass
class LocalTraining:
    """A run's local-training state, built once: every client's batches,
    checked against the vocabulary, plus the (K, P) replica stack and one
    gradient buffer that every round reuses.

    Row r of the stack trains shard `order[r]`. Shards are sorted by
    training-window count, largest first, ties by position, so at each local
    step the clients with the same batch size are one contiguous slice of
    rows: all full batches first, then the last partial batches, largest
    first. `steps` lists one local epoch's slices in step order, each as
    (replicas, gradient rows, windows (n, b, context), targets (n, b),
    shard positions), where the first two are views into the stack and the
    buffer."""

    order: np.ndarray
    window_counts: List[int]  # per shard, in shard order
    params: np.ndarray
    grads: np.ndarray
    steps: List[Tuple[GlobalModel, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]


def local_training(
    shards: Sequence[ClientShard], cfg: FedConfig, model_cfg: ModelConfig
) -> LocalTraining:
    """Build each shard's batches once. A client's batch order depends only
    on (seed, client) and is drawn afresh from that stream every epoch, so
    every epoch of every round visits the same batches."""
    batches = []
    for shard in shards:
        rng = labeled_rng(cfg.seed, f"batch.client{shard.client_id}")
        shard_batches = (
            list(batch_iter(shard, cfg.batch_size, model_cfg.context, rng)) if shard.train else []
        )
        if not shard_batches:
            raise ConfigError(
                f"client {shard.client_id} has no training window: none of its train "
                f"sentences has more than context={model_cfg.context} tokens"
            )
        batches.append(shard_batches)
    counts = [sum(len(t) for _, t in b) for b in batches]
    order = np.array(sorted(range(len(shards)), key=lambda i: -counts[i]), dtype=np.int64)
    params = np.empty((len(shards), param_count(model_cfg)))
    grads = np.empty_like(params)
    steps = []
    for j in range(max(map(len, batches), default=0)):
        active = [i for i in order if len(batches[i]) > j]
        lo = 0
        for _, group in itertools.groupby(active, key=lambda i: len(batches[i][j][1])):
            members = np.array(list(group), dtype=np.int64)
            hi = lo + len(members)
            windows = np.stack([batches[i][j][0] for i in members])
            targets = np.stack([batches[i][j][1] for i in members])
            check_tokens(model_cfg, windows, targets)
            steps.append(
                (GlobalModel(model_cfg, params[lo:hi]), grads[lo:hi], windows, targets, members)
            )
            lo = hi
    return LocalTraining(order, counts, params, grads, steps)


def client_round(
    snapshot: GlobalModel,
    clients: LocalTraining,
    cfg: FedConfig,
    dp_cfg: Optional[DpConfig] = None,
    dp_rngs: Optional[Sequence[np.random.Generator]] = None,
    pool: Optional[Executor] = None,
) -> np.ndarray:
    """Run local mini-batch SGD for all K clients in lockstep, each on a
    replica of the round's snapshot, and return the (K, P) stack of
    transmitted updates theta_t - theta_local_final. Row r is the update of
    shard `clients.order[r]`; the stack is `clients.params`, overwritten
    by the next round. `dp_rngs[i]` is shard i's DP noise stream.

    With sigma > 0, each step starts its clients' noise draws on `pool`
    before the backward pass and adds them after it; without a pool the
    step runs every draw itself.

    With a frozen global model a client emits an identical payload every
    round."""
    params, clip = clients.params, None if dp_cfg is None else dp_cfg.clip
    noise = np.empty_like(params) if dp_cfg is not None and dp_cfg.sigma > 0 else None
    params[...] = snapshot.params
    for _ in range(cfg.local_epochs):
        for replicas, grads, windows, targets, shard_ids in clients.steps:
            if noise is not None:
                step_noise = noise[: len(shard_ids)]
                rngs = [dp_rngs[i] for i in shard_ids]
                draws = start_noise(step_noise, windows.shape[1], dp_cfg, rngs, pool)
            loss_and_grads(replicas, windows, targets, clip=clip, out=grads)
            if noise is not None:
                privatize(grads, step_noise, draws)
            sgd_step(replicas.params, grads, cfg.client_lr)
    np.subtract(snapshot.params, params, out=params)
    return params


def shuffle_round(k: int, rng: np.random.Generator) -> np.ndarray:
    """Fisher-Yates shuffle of a round's k payloads: the permutation slot ->
    shard position, as an int64 array."""
    order = list(range(k))
    for i in range(k - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        order[i], order[j] = order[j], order[i]
    return np.array(order, dtype=np.int64)


def aggregate(model: GlobalModel, payloads: np.ndarray, server_lr: float) -> GlobalModel:
    """FedAvg step: Theta <- Theta - lambda * Avg(payloads), over a (K, P)
    stack of payloads.

    Summands are value-sorted per coordinate before reduction, so the result
    is bit-identical under any permutation of the payload rows."""
    if payloads.ndim != 2 or payloads.shape[1:] != model.params.shape:
        raise UsageError(
            f"payloads have shape {payloads.shape}, expected (K, {model.params.shape[0]})"
        )
    if len(payloads) == 0:
        raise UsageError("aggregate needs at least one payload")
    avg = np.sort(payloads, axis=0, kind="stable").sum(axis=0) / len(payloads)
    return GlobalModel(model.config, model.params - server_lr * avg)


def _count_local_steps(window_counts: Sequence[int], cfg: FedConfig) -> Tuple[int, float]:
    """Advisory DP accounting: per-client local steps over the run and the
    per-step sample rate, using the smallest client shard."""
    n = min(window_counts)
    batches = max(1, -(-n // cfg.batch_size))
    steps = cfg.rounds * cfg.local_epochs * batches
    rate = min(1.0, cfg.batch_size / max(1, n))
    return steps, rate


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
    every round."""
    if len(shards) != fed_cfg.clients:
        raise ConfigError(
            f"config says {fed_cfg.clients} clients but got {len(shards)} shards"
        )
    model = init_model(model_cfg, fed_cfg.seed)
    shuffle_rng = labeled_rng(fed_cfg.seed, "shuffle")
    dp_rngs = [labeled_rng(fed_cfg.seed, f"dp.client{s.client_id}") for s in shards]

    valid_sentences = [sent for s in shards for sent in s.valid]
    vw, vt = windows_from_sentences(valid_sentences, model_cfg.context)
    if vw.shape[0] == 0:
        raise ConfigError("no validation windows across all shards")
    clients = local_training(shards, fed_cfg, model_cfg)
    row_of_shard = np.argsort(clients.order)

    manifest = linear_layer_manifest(model_cfg)
    # positions of the FC/Proj weights in a flat vector, in trace-row order
    positions = views(model_cfg, np.arange(param_count(model_cfg)))
    columns = np.concatenate([positions[name + ".weight"].ravel() for name, _, _ in manifest])
    dim = len(columns)
    trace = TraceStore(
        clients=fed_cfg.clients,
        rounds=fed_cfg.rounds,
        seed=fed_cfg.seed,
        layer_manifest=manifest,
        dp=dp_cfg,
        updates=np.empty((fed_cfg.rounds * fed_cfg.clients, dim), dtype=np.float32),
    )
    if dp_cfg is not None:
        trace.dp_steps, trace.dp_sample_rate = _count_local_steps(clients.window_counts, fed_cfg)
    truth = np.empty((fed_cfg.rounds, fed_cfg.clients), dtype=np.int64)

    def checked_loss(m):
        loss = eval_loss(m, vw, vt)
        if not np.isfinite(loss):
            raise DivergedError(
                f"validation loss became non-finite after round {len(trace.loss_curve)}"
            )
        return loss

    trace.loss_curve.append(checked_loss(model))
    noisy = dp_cfg is not None and dp_cfg.sigma > 0
    # The pool class is looked up only here: importing it would cost every
    # run without noise start-up time and memory.
    with (
        concurrent.futures.ThreadPoolExecutor(NOISE_WORKERS) if noisy else contextlib.nullcontext()
    ) as pool:
        for t in range(fed_cfg.rounds):
            stack = client_round(model, clients, fed_cfg, dp_cfg, dp_rngs, pool)
            truth[t] = shuffle_round(fed_cfg.clients, shuffle_rng)
            trace.updates[t * fed_cfg.clients : (t + 1) * fed_cfg.clients] = stack[
                np.ix_(row_of_shard[truth[t]], columns)
            ]
            model = aggregate(model, stack, fed_cfg.server_lr)
            trace.loss_curve.append(checked_loss(model))

    return trace, truth, model
