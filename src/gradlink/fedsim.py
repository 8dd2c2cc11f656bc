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
import dataclasses
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
    check_tokens,
    embedding_columns,
    eval_loss,
    init_model,
    linear_layers,
    loss_and_grads,
    param_count,
    plan_batch,
    sgd_step,
    views,
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
    checked against the vocabulary, plus the (K, P) replica stack and one
    gradient buffer that every round reuses.

    Row r of the stack trains shard `order[r]`. Shards are sorted by
    training-window count, largest first, ties by position, so at each local
    step the clients with the same batch size are one contiguous slice of
    rows: all full batches first, then the last partial batches, largest
    first. `steps` lists one local epoch's slices in step order, each as
    (replicas, windows (n, b, context), targets (n, b), shard positions,
    plan): the replicas are a view into the stack, and the plan is the
    slice's `model.BatchPlan`, not dense, bound to its rows of the
    gradient buffer."""

    order: np.ndarray
    params: np.ndarray
    grads: np.ndarray
    steps: List[Tuple[GlobalModel, np.ndarray, np.ndarray, np.ndarray, BatchPlan]]


def local_training(
    shards: Sequence[ClientShard], cfg: FedConfig, model_cfg: ModelConfig
) -> LocalTraining:
    """Build each shard's batches, and each step's plan, once. A client's
    batch order depends only on (seed, client) and is drawn afresh from
    that stream every epoch, so every epoch of every round visits the same
    batches."""
    batches = []
    for shard in shards:
        rng = labeled_rng(cfg.seed, f"batch.client{shard.client_id}")
        shard_batches = (
            list(batch_iter(shard, cfg.batch_size, model_cfg.context, rng)) if shard.train else []
        )
        if not shard_batches:
            raise ConfigError(
                f"client {shard.client_id} has no training window: none of its train "
                f"sentences, cut to their first {MAX_SENTENCE_TOKENS} tokens, has more than "
                f"context={model_cfg.context} tokens"
            )
        batches.append(shard_batches)
    counts = [sum(len(t) for _, t in b) for b in batches]
    order = np.array(sorted(range(len(shards)), key=lambda i: -counts[i]), dtype=np.int64)
    params = np.empty((len(shards), param_count(model_cfg)), dtype=PARAM_DTYPE)
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
            plan = plan_batch(model_cfg, windows, targets, grads[lo:hi], dense=False)
            steps.append((GlobalModel(model_cfg, params[lo:hi]), windows, targets, members, plan))
            lo = hi
    return LocalTraining(order, params, grads, steps)


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

    With sigma > 0, each step starts its clients' noise draws on `pool`,
    which such a round needs, before the backward pass and adds them after
    it.

    A step updates the blocks and the output whole, and the embedding only
    in the rows of its plan, each once: the unique rows its windows look
    up, outside which the gradient is zero, and leaving a row alone gives
    the bits p - lr * 0.0 gives. The noise reaches every row, so a noisy
    step's plan is dense: it zeroes and steps every row.

    With a frozen global model a client emits an identical payload every
    round."""
    params, clip = clients.params, None if dp_cfg is None else dp_cfg.clip
    noise = np.empty_like(params) if dp_cfg is not None and dp_cfg.sigma > 0 else None
    emb = embedding_columns(snapshot.config)
    params[...] = snapshot.params
    steps = clients.steps
    if noise is not None:
        steps = [(*step, dataclasses.replace(plan, dense=True)) for *step, plan in steps]
    for _ in range(cfg.local_epochs):
        for replicas, windows, targets, shard_ids, plan in steps:
            grads = plan.grads
            if noise is not None:
                step_noise = noise[: len(shard_ids)]
                rngs = [dp_rngs[i] for i in shard_ids]
                draws = start_noise(step_noise, windows.shape[1], dp_cfg, rngs, pool)
            loss_and_grads(replicas, windows, targets, clip=clip, out=grads, plan=plan)
            if noise is not None:
                privatize(grads, step_noise, draws)
            p = replicas.params
            sgd_step(p[:, : emb.start], grads[:, : emb.start], cfg.client_lr)
            sgd_step(p[:, emb.stop :], grads[:, emb.stop :], cfg.client_lr)
            sgd_step(
                replicas.views["embedding"], plan.grad_views["embedding"], cfg.client_lr,
                plan.stepped,
            )
    np.subtract(snapshot.params, params, out=params)
    return params


def shuffle_round(k: int, rng: np.random.Generator) -> np.ndarray:
    """Fisher-Yates shuffle of a round's k payloads: the permutation slot ->
    shard position, as an int64 array."""
    order = list(range(k))
    for i, j in zip(range(k - 1, 0, -1), rng.integers(0, np.arange(k, 1, -1)).tolist()):
        order[i], order[j] = order[j], order[i]
    return np.array(order, dtype=np.int64)


def aggregate(model: GlobalModel, payloads: np.ndarray, server_lr: float) -> GlobalModel:
    """FedAvg step: Theta <- Theta - lambda * Avg(payloads), over a (K, P)
    stack of payloads.

    Summands are value-sorted per coordinate before reduction, so the result
    is bit-identical under any permutation of payload rows that hold no NaN.
    Values that compare equal differ in bits only as +0.0 and -0.0, and the
    sum, taken in row order, gives the same bits for any order of a block
    of zeros: so the sort need not be stable. A NaN's payload bits follow
    the row order."""
    if payloads.ndim != 2 or payloads.shape[1:] != model.params.shape:
        raise UsageError(
            f"payloads have shape {payloads.shape}, expected (K, {model.params.shape[0]})"
        )
    if len(payloads) == 0:
        raise UsageError("aggregate needs at least one payload")
    avg = np.sort(payloads, axis=0).sum(axis=0) / len(payloads)
    return GlobalModel(model.config, model.params - server_lr * avg)


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
         f"of {dim:,} values each", records * dim * 4),
    ):
        if nbytes > np.iinfo(np.intp).max:
            raise ConfigError(
                f"{what} would need {nbytes:,} bytes, more than the largest array numpy "
                "can allocate"
            )
    model = init_model(model_cfg, fed_cfg.seed)
    shuffle_rng = labeled_rng(fed_cfg.seed, "shuffle")
    dp_rngs = [labeled_rng(fed_cfg.seed, f"dp.client{s.client_id}") for s in shards]

    valid_sentences = [sent for s in shards for sent in s.valid]
    vw, vt = windows_from_sentences(valid_sentences, model_cfg.context)
    if vw.shape[0] == 0:
        raise ConfigError(
            "no validation windows across all shards: no validation sentence, cut to its "
            f"first {MAX_SENTENCE_TOKENS} tokens, has more than context={model_cfg.context} tokens"
        )
    clients = local_training(shards, fed_cfg, model_cfg)
    row_of_shard = np.argsort(clients.order)

    # positions of the FC/Proj weights in a flat vector, in trace-row order
    positions = views(model_cfg, np.arange(size))
    columns = np.concatenate([positions[name + ".weight"].ravel() for name, _, _ in manifest])
    trace = TraceStore(
        clients=fed_cfg.clients,
        rounds=fed_cfg.rounds,
        seed=fed_cfg.seed,
        layer_manifest=manifest,
        dp=dp_cfg,
        updates=np.empty((records, dim), dtype=np.float32),
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

    noisy = dp_cfg is not None and dp_cfg.sigma > 0
    # The pool class is looked up only here: importing it would cost every
    # run without noise start-up time and memory. Error state is per thread,
    # so the worker sets it once for its whole life.
    with np.errstate(**OVERFLOW_TOLERATED), (
        concurrent.futures.ThreadPoolExecutor(
            NOISE_WORKERS, initializer=functools.partial(np.seterr, **OVERFLOW_TOLERATED)
        )
        if noisy
        else contextlib.nullcontext()
    ) as pool:
        trace.loss_curve.append(checked_loss(model))
        for t in range(fed_cfg.rounds):
            stack = client_round(model, clients, fed_cfg, dp_cfg, dp_rngs, pool)
            truth[t] = shuffle_round(fed_cfg.clients, shuffle_rng)
            trace.updates[t * fed_cfg.clients : (t + 1) * fed_cfg.clients] = stack[
                np.ix_(row_of_shard[truth[t]], columns)
            ]
            model = aggregate(model, stack, fed_cfg.server_lr)
            trace.loss_curve.append(checked_loss(model))

    return trace, truth, model
