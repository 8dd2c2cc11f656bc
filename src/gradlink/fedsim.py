"""Federated round orchestration: local client SGD, update packaging,
shuffling, server aggregation, and recording of the anonymized gradient trace
plus its ground-truth sidecar.

The attack path consumes TraceStore only; the TruthSidecar exists solely for
evaluation and is never reachable from the attack module.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .corpus import ClientShard, batch_iter, windows_from_sentences
from .dp import DpConfig, privatize
from .errors import ConfigError, DivergedError, UsageError, require_finite, require_integers
from .model import (
    GlobalModel,
    ModelConfig,
    eval_loss,
    init_model,
    loss_and_grads,
    param_layout,
    sgd_step,
    views,
)
from .rng import labeled_rng


@dataclass(frozen=True)
class FedConfig:
    clients: int
    rounds: int
    client_lr: float = 0.1
    server_lr: float = 0.1
    local_epochs: int = 1
    batch_size: int = 8
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        require_integers(
            self, {"clients": 2, "rounds": 2, "local_epochs": 0, "batch_size": 1, "seed": 0}
        )
        require_finite(self, ("client_lr", "server_lr"))
        if not isinstance(self.shuffle, bool):
            raise ConfigError(f"shuffle must be true or false, got {self.shuffle!r}")
        if self.client_lr <= 0 or self.server_lr < 0:
            raise ConfigError("learning rates must be positive")


@dataclass
class TraceStore:
    """The server's view of a run. Row `t * clients + slot` of `updates` is
    the payload in slot `slot` of round `t`: its FC/Proj weight updates at
    32-bit precision, each layer row-major, layers in manifest order."""

    clients: int
    rounds: int
    seed: int
    layer_manifest: List[Tuple[str, int, int]]  # (name, rows, cols)
    dp: Optional[DpConfig]
    updates: np.ndarray  # (clients * rounds, sum of rows * cols) float32
    loss_curve: List[float] = field(default_factory=list)
    # advisory accounting inputs for the epsilon report
    dp_sample_rate: Optional[float] = None
    dp_steps: Optional[int] = None


@dataclass
class TruthSidecar:
    """Per-round slot -> true client id maps; evaluation-only."""

    rounds: List[List[int]]


def linear_layer_manifest(config: ModelConfig) -> List[Tuple[str, int, int]]:
    """(name, rows, cols) of each FC and Proj weight, block by block."""
    return [
        (name[: -len(".weight")], *shape)
        for name, shape in param_layout(config)
        if name.startswith("block") and name.endswith(".weight")
    ]


def client_round(
    snapshot: GlobalModel,
    shard: ClientShard,
    cfg: FedConfig,
    dp_cfg: Optional[DpConfig] = None,
    dp_rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Run local mini-batch SGD on a replica of the round's snapshot and
    return the transmitted update theta_t - theta_local_final, a flat
    vector in the model's parameter layout.

    The batch order stream depends only on (seed, client), so with a frozen
    global model the client emits an identical payload every round."""
    if not shard.train:
        raise ConfigError(f"client {shard.client_id} has an empty shard")
    model = snapshot
    for _ in range(cfg.local_epochs):
        batch_rng = labeled_rng(cfg.seed, f"batch.client{shard.client_id}")
        for windows, targets in batch_iter(
            shard, cfg.batch_size, snapshot.config.context, batch_rng
        ):
            if dp_cfg is not None:
                _, grads = loss_and_grads(model, windows, targets, clip=dp_cfg.clip)
                grads = privatize(grads, windows.shape[0], dp_cfg, dp_rng)
            else:
                _, grads = loss_and_grads(model, windows, targets)
            model = sgd_step(model, grads, cfg.client_lr)
    return snapshot.params - model.params


def shuffle_round(
    payloads: Sequence[np.ndarray], rng: np.random.Generator
) -> Tuple[List[np.ndarray], List[int]]:
    """Fisher-Yates shuffle of a round's payloads. Returns the payloads in
    slot order and the permutation slot -> original index (for the
    TruthSidecar only)."""
    k = len(payloads)
    order = list(range(k))
    for i in range(k - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        order[i], order[j] = order[j], order[i]
    return [payloads[src] for src in order], order


def aggregate(
    model: GlobalModel, payloads: Sequence[np.ndarray], server_lr: float
) -> GlobalModel:
    """FedAvg step: Theta <- Theta - lambda * Avg(payloads).

    Summands are value-sorted per coordinate before reduction, so the result
    is bit-identical under any permutation of the payloads."""
    if not payloads:
        raise UsageError("aggregate needs at least one payload")
    for payload in payloads:
        if payload.shape != model.params.shape:
            raise UsageError(
                f"payload has shape {payload.shape}, parameters {model.params.shape}"
            )
    stack = np.stack(payloads)
    avg = np.sort(stack, axis=0, kind="stable").sum(axis=0) / len(payloads)
    return GlobalModel(model.config, model.params - server_lr * avg)


def _count_local_steps(shards, cfg: FedConfig, context: int) -> Tuple[int, float]:
    """Advisory DP accounting: per-client local steps over the run and the
    per-step sample rate, using the smallest client shard."""
    window_counts = [
        windows_from_sentences(s.train, context)[0].shape[0] for s in shards
    ]
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
) -> Tuple[TraceStore, TruthSidecar, GlobalModel]:
    """Run T federated rounds and record the anonymized trace. Returns the
    trace, its truth sidecar and the final global model.

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
    dp_rngs = {
        s.client_id: labeled_rng(fed_cfg.seed, f"dp.client{s.client_id}") for s in shards
    }

    valid_sentences = [sent for s in shards for sent in s.valid]
    vw, vt = windows_from_sentences(valid_sentences, model_cfg.context)
    if vw.shape[0] == 0:
        raise ConfigError("no validation windows across all shards")

    manifest = linear_layer_manifest(model_cfg)
    dim = sum(rows * cols for _, rows, cols in manifest)
    trace = TraceStore(
        clients=fed_cfg.clients,
        rounds=fed_cfg.rounds,
        seed=fed_cfg.seed,
        layer_manifest=manifest,
        dp=dp_cfg,
        updates=np.empty((fed_cfg.rounds * fed_cfg.clients, dim), dtype=np.float32),
    )
    if dp_cfg is not None:
        trace.dp_steps, trace.dp_sample_rate = _count_local_steps(
            shards, fed_cfg, model_cfg.context
        )
    sidecar = TruthSidecar(rounds=[])

    def checked_loss(m):
        loss = eval_loss(m, vw, vt)
        if not np.isfinite(loss):
            raise DivergedError(
                f"validation loss became non-finite after round {len(trace.loss_curve)}"
            )
        return loss

    trace.loss_curve.append(checked_loss(model))
    for t in range(fed_cfg.rounds):
        payloads = [
            client_round(model, shard, fed_cfg, dp_cfg, dp_rngs[shard.client_id])
            for shard in shards
        ]
        if fed_cfg.shuffle:
            shuffled, perm = shuffle_round(payloads, shuffle_rng)
        else:
            shuffled, perm = payloads, list(range(fed_cfg.clients))
        sidecar.rounds.append(perm)
        for slot, payload in enumerate(shuffled):
            named = views(model_cfg, payload)
            trace.updates[t * fed_cfg.clients + slot] = np.concatenate(
                [named[name + ".weight"].ravel() for name, _, _ in manifest]
            )
        model = aggregate(model, shuffled, fed_cfg.server_lr)
        trace.loss_curve.append(checked_loss(model))

    return trace, sidecar, model
