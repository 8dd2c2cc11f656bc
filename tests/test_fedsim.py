import dataclasses
from collections import Counter

import numpy as np
import pytest

from gradlink.corpus import SyntheticSpec, generate_synthetic
from gradlink.errors import ConfigError, DivergedError, UsageError
from gradlink.fedsim import (
    FedConfig,
    aggregate,
    client_round,
    run_simulation,
    shuffle_round,
)
from gradlink.model import ModelConfig, init_model, loss_and_grads
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


def test_client_round_zero_epochs_gives_zero_payload():
    fed, mcfg, shards = _setup(local_epochs=0)
    model = init_model(mcfg, 0)
    payload = client_round(model, shards[0], fed)
    assert np.linalg.norm(payload) == 0.0


def test_client_round_single_step_equals_lr_times_grads():
    fed, mcfg, shards = _setup(batch_size=10_000)  # one batch per epoch
    model = init_model(mcfg, 0)
    payload = client_round(model, shards[0], fed)
    from gradlink.corpus import batch_iter

    rng = labeled_rng(fed.seed, f"batch.client{shards[0].client_id}")
    (windows, targets), = list(batch_iter(shards[0], 10_000, mcfg.context, rng))
    _, grads = loss_and_grads(model, windows, targets)
    np.testing.assert_allclose(payload, fed.client_lr * grads, atol=1e-12)


def test_identical_shards_give_identical_payloads():
    fed, mcfg, shards = _setup()
    model = init_model(mcfg, 0)
    twin = dataclasses.replace(shards[0], client_id=shards[0].client_id)
    p1 = client_round(model, shards[0], fed)
    p2 = client_round(model, twin, fed)
    np.testing.assert_array_equal(p1, p2)


def test_client_round_empty_shard_is_config_error():
    fed, mcfg, shards = _setup()
    empty = dataclasses.replace(shards[0], train=[])
    with pytest.raises(ConfigError):
        client_round(init_model(mcfg, 0), empty, fed)


def _dummy_payloads(k, seed=0):
    fed, mcfg, shards = _setup(k=max(k, 2))
    model = init_model(mcfg, 0)
    return [client_round(model, s, fed) for s in shards[:k]]


def test_shuffle_single_packet_is_identity():
    payloads = _dummy_payloads(2)[:1]
    shuffled, perm = shuffle_round(payloads, np.random.default_rng(0))
    assert perm == [0]
    assert len(shuffled) == 1 and shuffled[0] is payloads[0]


def test_shuffle_preserves_payload_multiset():
    payloads = _dummy_payloads(3)
    shuffled, perm = shuffle_round(payloads, np.random.default_rng(1))
    assert sorted(perm) == [0, 1, 2]
    before = sorted(tuple(p[:4]) for p in payloads)
    after = sorted(tuple(p[:4]) for p in shuffled)
    assert before == after
    for slot, src in enumerate(perm):
        assert shuffled[slot] is payloads[src]


def test_shuffle_permutations_are_uniform():
    rng = np.random.default_rng(2)
    payloads = [np.full(1, i) for i in range(3)]
    counts = Counter()
    draws = 10_000
    for _ in range(draws):
        _, perm = shuffle_round(payloads, rng)
        counts[tuple(perm)] += 1
    assert len(counts) == 6
    for freq in counts.values():
        assert abs(freq / draws - 1 / 6) < 0.02


def test_aggregate_single_packet():
    fed, mcfg, shards = _setup()
    model = init_model(mcfg, 0)
    payload = client_round(model, shards[0], fed)
    out = aggregate(model, [payload], server_lr=1.0)
    np.testing.assert_allclose(out.params, model.params - payload, atol=0)


def test_aggregate_zero_payloads_leave_model_unchanged():
    fed, mcfg, shards = _setup(local_epochs=0)
    model = init_model(mcfg, 0)
    payloads = [client_round(model, s, fed) for s in shards]
    out = aggregate(model, payloads, server_lr=0.5)
    np.testing.assert_array_equal(model.params, out.params)


def test_aggregate_invariant_under_packet_permutation():
    fed, mcfg, shards = _setup()
    model = init_model(mcfg, 0)
    payloads = [client_round(model, s, fed) for s in shards]
    shuffled, _ = shuffle_round(payloads, np.random.default_rng(3))
    a = aggregate(model, payloads, server_lr=0.1)
    b = aggregate(model, shuffled, server_lr=0.1)
    np.testing.assert_array_equal(a.params, b.params)


def test_aggregate_payload_of_wrong_length_is_usage_error():
    fed, mcfg, shards = _setup()
    model = init_model(mcfg, 0)
    payload = client_round(model, shards[0], fed)
    for bad in (payload[:-1], np.append(payload, 0.0)):
        with pytest.raises(UsageError):
            aggregate(model, [payload, bad], server_lr=0.1)


def test_simulation_counts_and_slot_structure():
    fed, mcfg, shards = _setup(k=3, t=4)
    trace, sidecar, _ = run_simulation(fed, mcfg, shards)
    dim = sum(rows * cols for _, rows, cols in trace.layer_manifest)
    assert trace.updates.shape == (12, dim)
    assert trace.updates.dtype == np.float32
    assert len(sidecar.rounds) == 4
    assert len(trace.loss_curve) == 5
    for t in range(4):
        assert sorted(sidecar.rounds[t]) == [0, 1, 2]


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
    assert s1.rounds == s2.rounds
    assert t1.updates.tobytes() == t2.updates.tobytes()


def test_shuffle_invariance_of_final_model():
    fed, mcfg, shards = _setup(k=5, t=5)
    off = dataclasses.replace(fed, shuffle=False)
    _, _, m_on = run_simulation(fed, mcfg, shards)
    _, _, m_off = run_simulation(off, mcfg, shards)
    assert np.max(np.abs(m_on.params - m_off.params)) <= 1e-12


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
