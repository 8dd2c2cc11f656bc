import concurrent.futures
import dataclasses
import threading
from collections import Counter

import numpy as np
import pytest

from gradlink import fedsim
from gradlink.corpus import SyntheticSpec, batch_iter, generate_synthetic, windows_from_sentences
from gradlink.dp import DpConfig
from gradlink.errors import ConfigError, DivergedError, UsageError
from gradlink.fedsim import (
    FedConfig,
    aggregate,
    client_round,
    linear_layer_manifest,
    local_training,
    run_simulation,
    shuffle_round,
)
from gradlink.model import (
    GlobalModel,
    ModelConfig,
    init_model,
    loss_and_grads,
    param_count,
    views,
)
from gradlink.rng import labeled_rng


def _setup(k=3, t=4, seed=0, overlap=0.0, **fed_kwargs):
    spec = SyntheticSpec(
        n_clients=k, train_sentences=12, valid_sentences=3, overlap=overlap
    )
    shards, vocab = generate_synthetic(spec, seed)
    fed_kwargs.setdefault("server_lr", 0.1)
    fed = FedConfig(clients=k, rounds=t, seed=seed, **fed_kwargs)
    mcfg = ModelConfig(vocab_size=vocab.size, embed_dim=8, context=3, n_blocks=2, ffn_mult=2)
    return fed, mcfg, shards


def _round(model, shards, fed, mcfg, dp_cfg=None, dp_rngs=None):
    """One lockstep round on `shards`, rows back in shard order."""
    clients = local_training(shards, fed, mcfg)
    stack = client_round(model, clients, fed, dp_cfg, dp_rngs)
    return stack[np.argsort(clients.order)]


def test_client_round_zero_epochs_gives_zero_payload():
    fed, mcfg, shards = _setup(local_epochs=0)
    model = init_model(mcfg, 0)
    payloads = _round(model, shards, fed, mcfg)
    assert payloads.shape == (3, param_count(mcfg))
    assert np.linalg.norm(payloads) == 0.0


def test_client_round_single_step_equals_lr_times_grads():
    fed, mcfg, shards = _setup(batch_size=10_000)  # one batch per epoch
    model = init_model(mcfg, 0)
    (payload,) = _round(model, shards[:1], fed, mcfg)
    rng = labeled_rng(fed.seed, f"batch.client{shards[0].client_id}")
    (windows, targets), = list(batch_iter(shards[0], 10_000, mcfg.context, rng))
    _, grads = loss_and_grads(model, windows, targets)
    np.testing.assert_allclose(payload, fed.client_lr * grads, atol=1e-12)


def test_identical_shards_give_identical_payloads():
    fed, mcfg, shards = _setup()
    model = init_model(mcfg, 0)
    twin = dataclasses.replace(shards[0], client_id=shards[0].client_id)
    p1, _, p2 = _round(model, [shards[0], shards[1], twin], fed, mcfg)
    np.testing.assert_array_equal(p1, p2)


def test_client_round_empty_shard_is_config_error():
    fed, mcfg, shards = _setup()
    empty = dataclasses.replace(shards[0], train=[])
    with pytest.raises(ConfigError):
        client_round(init_model(mcfg, 0), local_training([shards[1], empty], fed, mcfg), fed)


def test_local_training_rejects_out_of_vocabulary_tokens():
    fed, mcfg, shards = _setup()
    for bad in (mcfg.vocab_size, -1):
        broken = dataclasses.replace(shards[1], train=[np.array([2, 3, 4, bad, 5])])
        with pytest.raises(UsageError, match="vocabulary"):
            local_training([shards[0], broken], fed, mcfg)


# ------------------------------------------------- per-client oracle


def _oracle_client_round(snapshot, shard, cfg, dp_cfg=None, dp_rng=None):
    """Local SGD for one client at a time, a new model every step: the
    per-client loop that lockstep training replaced."""
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
                if dp_cfg.sigma > 0:
                    std = dp_cfg.sigma * dp_cfg.clip / windows.shape[0]
                    grads = grads + dp_rng.normal(0.0, std, size=grads.shape)
            else:
                _, grads = loss_and_grads(model, windows, targets)
            model = GlobalModel(model.config, model.params - cfg.client_lr * grads)
    return snapshot.params - model.params


def _uneven_shards(k=5, seed=0):
    """Shards of uneven window counts, not listed in count order: shard 3
    holds shard 1's sentences (a tie in count, not in batch order, which
    follows the client id), and shard 2 is far below the others."""
    spec = SyntheticSpec(n_clients=k, train_sentences=12, valid_sentences=3, overlap=0.2)
    shards, vocab = generate_synthetic(spec, seed)
    sizes = [5, 12, 2, 9, 10][:k]
    shards = [dataclasses.replace(s, train=s.train[:n]) for s, n in zip(shards, sizes)]
    shards[3] = dataclasses.replace(shards[1], client_id=shards[3].client_id)
    mcfg = ModelConfig(vocab_size=vocab.size, embed_dim=6, context=3, n_blocks=2, ffn_mult=2)
    return shards, mcfg


LOCKSTEP_CASES = {
    "partial-batches": dict(batch_size=5),
    "two-epochs": dict(batch_size=5, local_epochs=2),
    "zero-epochs": dict(local_epochs=0),
    "batch-1": dict(batch_size=1),
    "one-batch": dict(batch_size=10_000),
    "dp-sigma-0": dict(batch_size=3, dp=DpConfig(clip=0.5, sigma=0.0)),
    "dp-noisy": dict(batch_size=3, dp=DpConfig(clip=0.5, sigma=0.3)),
    "dp-two-epochs": dict(batch_size=4, local_epochs=2, dp=DpConfig(clip=2.0, sigma=1.0)),
}


@pytest.mark.parametrize("case", LOCKSTEP_CASES)
def test_lockstep_round_equals_per_client_oracle(case):
    """Two rounds of the (K, P) stack against the per-client loop, bitwise.
    The second round starts from another snapshot and continues each DP
    noise stream."""
    kwargs = dict(LOCKSTEP_CASES[case])
    dp_cfg = kwargs.pop("dp", None)
    shards, mcfg = _uneven_shards()
    fed = FedConfig(clients=len(shards), rounds=2, seed=4, client_lr=0.3, **kwargs)
    counts = [windows_from_sentences(s.train, mcfg.context)[0].shape[0] for s in shards]
    assert len(set(counts)) == len(counts) - 1 and counts != sorted(counts, reverse=True)
    clients = local_training(shards, fed, mcfg)
    assert list(clients.order) == sorted(range(len(shards)), key=lambda i: -counts[i])

    def dp_rngs():
        return [labeled_rng(fed.seed, f"dp.client{s.client_id}") for s in shards]

    rngs, oracle_rngs = dp_rngs(), dp_rngs()
    for snapshot in (init_model(mcfg, 0), init_model(mcfg, 1)):
        stack = client_round(snapshot, clients, fed, dp_cfg, rngs)
        expected = [
            _oracle_client_round(snapshot, s, fed, dp_cfg, rng)
            for s, rng in zip(shards, oracle_rngs)
        ]
        np.testing.assert_array_equal(stack, np.stack(expected)[clients.order])


def _oracle_simulation(fed, mcfg, shards, dp_cfg=None):
    """run_simulation's trace rows, truth and final model from the
    per-client loop, a list of payloads in slot order and np.stack in
    aggregation."""
    model = init_model(mcfg, fed.seed)
    shuffle_rng = labeled_rng(fed.seed, "shuffle")
    dp_rngs = {s.client_id: labeled_rng(fed.seed, f"dp.client{s.client_id}") for s in shards}
    manifest = linear_layer_manifest(mcfg)
    rows, perms = [], []
    for _ in range(fed.rounds):
        payloads = [
            _oracle_client_round(model, s, fed, dp_cfg, dp_rngs[s.client_id]) for s in shards
        ]
        perm = shuffle_round(len(payloads), shuffle_rng)
        shuffled = [payloads[src] for src in perm]
        perms.append(perm)
        for payload in shuffled:
            named = views(mcfg, payload)
            rows.append(np.concatenate([named[n + ".weight"].ravel() for n, _, _ in manifest]))
        avg = np.sort(np.stack(shuffled), axis=0, kind="stable").sum(axis=0) / len(shuffled)
        model = GlobalModel(mcfg, model.params - fed.server_lr * avg)
    return np.array(rows, dtype=np.float32), perms, model


@pytest.mark.parametrize("dp_cfg", [None, DpConfig(clip=0.5, sigma=0.3)])
def test_simulation_equals_per_client_oracle(dp_cfg):
    shards, mcfg = _uneven_shards()
    fed = FedConfig(clients=len(shards), rounds=3, seed=2, batch_size=4, server_lr=0.5)
    trace, truth, model = run_simulation(fed, mcfg, shards, dp_cfg)
    rows, perms, oracle_model = _oracle_simulation(fed, mcfg, shards, dp_cfg)
    np.testing.assert_array_equal(trace.updates, rows)
    assert truth.dtype == np.int64 and truth.shape == (3, len(shards))
    np.testing.assert_array_equal(truth, perms)
    np.testing.assert_array_equal(model.params, oracle_model.params)
    if dp_cfg is not None:
        n = min(windows_from_sentences(s.train, mcfg.context)[0].shape[0] for s in shards)
        assert (trace.dp_steps, trace.dp_sample_rate) == (3 * -(-n // 4), min(1.0, 4 / n))


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("dp_cfg", [None, DpConfig(clip=0.5, sigma=0.3)])
def test_noise_worker_count_never_changes_the_bytes(monkeypatch, workers, dp_cfg):
    monkeypatch.setattr(fedsim, "NOISE_WORKERS", workers)
    shards, mcfg = _uneven_shards()
    fed = FedConfig(clients=len(shards), rounds=3, seed=2, batch_size=4, server_lr=0.5)
    trace, truth, model = run_simulation(fed, mcfg, shards, dp_cfg)
    rows, perms, oracle_model = _oracle_simulation(fed, mcfg, shards, dp_cfg)
    np.testing.assert_array_equal(trace.updates, rows)
    np.testing.assert_array_equal(truth, perms)
    np.testing.assert_array_equal(model.params, oracle_model.params)


def test_sigma_zero_run_draws_no_noise(monkeypatch):
    made = {}

    def recording_rng(seed, label):
        made[label] = labeled_rng(seed, label)
        return made[label]

    monkeypatch.setattr(fedsim, "labeled_rng", recording_rng)
    shards, mcfg = _uneven_shards()
    fed = FedConfig(clients=len(shards), rounds=2, seed=2, batch_size=4)
    run_simulation(fed, mcfg, shards, DpConfig(clip=0.5, sigma=0.0))
    dp_labels = [label for label in made if label.startswith("dp.")]
    assert len(dp_labels) == len(shards)
    for label in dp_labels:
        assert made[label].bit_generator.state == labeled_rng(fed.seed, label).bit_generator.state


def _pool_recorder(monkeypatch):
    """Record every noise pool a run starts."""
    pools = []

    def recording_pool(*args, **kwargs):
        pools.append(real(*args, **kwargs))
        return pools[-1]

    real = concurrent.futures.ThreadPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording_pool)
    return pools


def test_dp_run_leaves_no_thread_behind(monkeypatch):
    pools = _pool_recorder(monkeypatch)
    fed, mcfg, shards = _setup(k=3, t=2)
    before = threading.active_count()
    run_simulation(fed, mcfg, shards, DpConfig(clip=1.0, sigma=0.5))
    assert len(pools) == 1 and pools[0]._threads
    assert threading.active_count() == before


def test_diverging_dp_run_leaves_no_thread_behind(monkeypatch):
    pools = _pool_recorder(monkeypatch)
    fed, mcfg, shards = _setup(k=3, t=4, client_lr=1e100, batch_size=8)
    before = threading.active_count()
    with pytest.raises(DivergedError):
        run_simulation(fed, mcfg, shards, DpConfig(clip=1.0, sigma=0.5))
    assert len(pools) == 1
    assert threading.active_count() == before


def _no_pool(*args, **kwargs):
    raise AssertionError("a run without DP noise started a thread pool")


@pytest.mark.parametrize("dp_cfg", [None, DpConfig(clip=1.0, sigma=0.0)])
def test_run_without_noise_starts_no_thread(monkeypatch, dp_cfg):
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _no_pool)
    fed, mcfg, shards = _setup(k=3, t=2)
    before = threading.active_count()
    run_simulation(fed, mcfg, shards, dp_cfg)
    assert threading.active_count() == before


def test_shuffle_single_packet_is_identity():
    perm = shuffle_round(1, np.random.default_rng(0))
    assert perm.dtype == np.int64 and perm.tolist() == [0]


def test_shuffle_permutations_are_uniform():
    """Each draw is a permutation of arange(k), and all k! of them are
    equally likely."""
    rng = np.random.default_rng(2)
    draws = 10_000
    perms = np.stack([shuffle_round(3, rng) for _ in range(draws)])
    assert perms.dtype == np.int64
    np.testing.assert_array_equal(np.sort(perms, axis=1), np.tile(np.arange(3), (draws, 1)))
    counts = Counter(map(tuple, perms.tolist()))
    assert len(counts) == 6
    for freq in counts.values():
        assert abs(freq / draws - 1 / 6) < 0.02


def test_aggregate_single_packet():
    fed, mcfg, shards = _setup()
    model = init_model(mcfg, 0)
    payload = _round(model, shards[:1], fed, mcfg)
    out = aggregate(model, payload, server_lr=1.0)
    np.testing.assert_allclose(out.params, model.params - payload[0], atol=0)


def test_aggregate_zero_payloads_leave_model_unchanged():
    fed, mcfg, shards = _setup(local_epochs=0)
    model = init_model(mcfg, 0)
    out = aggregate(model, _round(model, shards, fed, mcfg), server_lr=0.5)
    np.testing.assert_array_equal(model.params, out.params)


def test_aggregate_invariant_under_packet_permutation():
    fed, mcfg, shards = _setup()
    model = init_model(mcfg, 0)
    payloads = _round(model, shards, fed, mcfg)
    perm = shuffle_round(len(payloads), np.random.default_rng(3))
    a = aggregate(model, payloads, server_lr=0.1)
    b = aggregate(model, payloads[perm], server_lr=0.1)
    np.testing.assert_array_equal(a.params, b.params)


def test_aggregate_payload_of_wrong_length_is_usage_error():
    fed, mcfg, shards = _setup()
    model = init_model(mcfg, 0)
    payloads = _round(model, shards, fed, mcfg)
    for bad in (payloads[:, :-1], np.pad(payloads, ((0, 0), (0, 1))), payloads[0], payloads[:0]):
        with pytest.raises(UsageError):
            aggregate(model, bad, server_lr=0.1)


def test_simulation_counts_and_slot_structure():
    fed, mcfg, shards = _setup(k=3, t=4)
    trace, truth, _ = run_simulation(fed, mcfg, shards)
    dim = sum(rows * cols for _, rows, cols in trace.layer_manifest)
    assert trace.updates.shape == (12, dim)
    assert trace.updates.dtype == np.float32
    assert truth.shape == (4, 3) and truth.dtype == np.int64
    assert len(trace.loss_curve) == 5
    np.testing.assert_array_equal(np.sort(truth, axis=1), np.tile(np.arange(3), (4, 1)))


def test_simulation_frozen_server_repeats_payloads():
    fed, mcfg, shards = _setup(k=3, t=3, server_lr=0.0)
    trace, _, _ = run_simulation(fed, mcfg, shards)
    assert trace.loss_curve[0] == trace.loss_curve[-1]
    # same client's payloads repeat across rounds (match by multiset of row prefixes)
    by_round = [
        sorted(tuple(row[:5]) for row in trace.updates[t * 3 : (t + 1) * 3])
        for t in range(3)
    ]
    assert by_round[0] == by_round[1] == by_round[2]


def test_simulation_deterministic():
    fed, mcfg, shards = _setup(k=3, t=3)
    t1, s1, _ = run_simulation(fed, mcfg, shards)
    t2, s2, _ = run_simulation(fed, mcfg, shards)
    np.testing.assert_array_equal(s1, s2)
    assert t1.updates.tobytes() == t2.updates.tobytes()


def test_shard_count_mismatch_is_config_error():
    fed, mcfg, shards = _setup(k=3)
    with pytest.raises(ConfigError):
        run_simulation(fed, mcfg, shards[:2])


def test_divergence_raises():
    fed, mcfg, shards = _setup(k=2, t=8, client_lr=500.0, batch_size=4)
    with pytest.raises(DivergedError):
        run_simulation(fed, mcfg, shards)


def test_bad_fed_config_rejected():
    with pytest.raises(ConfigError):
        FedConfig(clients=1, rounds=5)
    with pytest.raises(ConfigError):
        FedConfig(clients=3, rounds=1)
    with pytest.raises(ConfigError):
        FedConfig(clients=3, rounds=5, client_lr=0.0)
