import concurrent.futures
import dataclasses
import itertools
import threading
from collections import Counter

import numpy as np
import pytest

from gradlink import fedsim
from gradlink.corpus import SyntheticSpec, batch_iter, generate_synthetic, windows_from_sentences
from gradlink.dp import DpConfig, draw_noise, privatize
from gradlink.errors import ConfigError, DivergedError, UsageError
from gradlink.fedsim import (
    FedConfig,
    aggregate,
    client_round,
    local_training,
    run_simulation,
    shuffle_round,
)
from gradlink.model import (
    PARAM_DTYPE,
    GlobalModel,
    ModelConfig,
    init_model,
    linear_layers,
    loss_and_grads,
    param_count,
    plan_batch,
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


def _round(model, shards, fed, mcfg):
    """One lockstep round on `shards`, rows back in shard order."""
    clients = local_training(shards, fed, mcfg)
    stack = client_round(model, clients, fed)
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
    # theta - (theta - lr g) rounds once at the magnitude of theta
    atol = np.finfo(PARAM_DTYPE).eps * np.abs(model.params).max()
    np.testing.assert_allclose(payload, fed.client_lr * grads, rtol=0, atol=atol)


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
    per-client loop that lockstep training replaced. Its DP noise is one
    `draw_noise` per step into a fresh buffer of the gradient's dtype."""
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
                    grads = grads + draw_noise(np.empty_like(grads), std, dp_rng)
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


def _repeated_tokens(shards):
    """Every token mapped onto three shared ids, so that a token repeats
    within a window and across clients; sentence lengths are kept."""
    return [dataclasses.replace(s, train=[2 + sent % 3 for sent in s.train]) for s in shards]


def _odd_untouched_rows(snapshot, shards):
    """The snapshot with -0.0, inf, nan and a mix of the three in embedding
    rows that no training sentence uses: a step must leave them bitwise as
    they are."""
    used = {int(t) for s in shards for sent in s.train for t in sent}
    free = [t for t in range(snapshot.config.vocab_size) if t not in used]
    model = GlobalModel(snapshot.config, snapshot.params.copy())
    emb = model.views["embedding"]
    emb[free[0]], emb[free[1]], emb[free[2]] = -0.0, np.inf, np.nan
    emb[free[3]] = np.resize([-0.0, np.inf, np.nan, 0.0], emb.shape[1])
    return model


LOCKSTEP_CASES = {
    "partial-batches": dict(batch_size=5),
    "two-epochs": dict(batch_size=5, local_epochs=2),
    "zero-epochs": dict(local_epochs=0),
    "batch-1": dict(batch_size=1),
    "one-batch": dict(batch_size=10_000),
    "dp-sigma-0": dict(batch_size=3, dp=DpConfig(clip=0.5, sigma=0.0)),
    "dp-noisy": dict(batch_size=3, dp=DpConfig(clip=0.5, sigma=0.3)),
    "dp-two-epochs": dict(batch_size=4, local_epochs=2, dp=DpConfig(clip=2.0, sigma=1.0)),
    "repeated-tokens": dict(batch_size=5, shards=_repeated_tokens),
    "untouched-rows-signed-zero-inf-nan": dict(batch_size=5, snapshot=_odd_untouched_rows),
    "dp-sigma-0-untouched-rows": dict(
        batch_size=3, dp=DpConfig(clip=0.5, sigma=0.0), snapshot=_odd_untouched_rows
    ),
    "dp-noisy-untouched-rows": dict(
        batch_size=3, dp=DpConfig(clip=0.5, sigma=0.3), snapshot=_odd_untouched_rows
    ),
}


@pytest.mark.parametrize("case", LOCKSTEP_CASES)
def test_lockstep_round_equals_per_client_oracle(case, monkeypatch):
    """Two rounds of the (K, P) stack against the per-client loop, bitwise.
    The second round starts from another snapshot and continues each DP
    noise stream. A step without noise updates only its plan's embedding
    rows, a noisy step's plan is dense."""
    kwargs = dict(LOCKSTEP_CASES[case])
    dp_cfg = kwargs.pop("dp", None)
    shards, mcfg = _uneven_shards()
    shards = kwargs.pop("shards", list)(shards)
    prepare = kwargs.pop("snapshot", lambda snapshot, _: snapshot)
    dense = []

    def recording_loss_and_grads(*args, plan, **kw):
        dense.append(plan.dense)
        return loss_and_grads(*args, plan=plan, **kw)

    monkeypatch.setattr(fedsim, "loss_and_grads", recording_loss_and_grads)
    fed = FedConfig(clients=len(shards), rounds=2, seed=4, client_lr=0.3, **kwargs)
    counts = [windows_from_sentences(s.train, mcfg.context)[0].shape[0] for s in shards]
    assert len(set(counts)) == len(counts) - 1 and counts != sorted(counts, reverse=True)
    clients = local_training(shards, fed, mcfg, dp_cfg)
    assert list(clients.order) == sorted(range(len(shards)), key=lambda i: -counts[i])
    oracle_rngs = [labeled_rng(fed.seed, f"dp.client{s.client_id}") for s in shards]
    for seed in (0, 1):
        snapshot = prepare(init_model(mcfg, seed), shards)
        # inf - inf in the payload of an inf row is nan, as in a run
        with concurrent.futures.ThreadPoolExecutor(1) as pool, np.errstate(invalid="ignore"):
            stack = client_round(snapshot, clients, fed, pool)
            expected = np.stack([
                _oracle_client_round(snapshot, s, fed, dp_cfg, rng)
                for s, rng in zip(shards, oracle_rngs)
            ])[clients.order]
        np.testing.assert_array_equal(stack.view(np.uint32), expected.view(np.uint32))
    noisy = dp_cfg is not None and dp_cfg.sigma > 0
    assert set(dense) == (set() if fed.local_epochs == 0 else {noisy})


def _byte_order_average(rows):
    """The average of `rows`, summed one row after another in the order of
    their bytes: FedAvg's canonical order, which no arrival order moves."""
    first, *rest = sorted(rows, key=lambda row: row.tobytes())
    total = first.copy()
    for row in rest:
        total += row
    return total / len(rows)


def _oracle_simulation(fed, mcfg, shards, dp_cfg=None):
    """run_simulation's trace rows, truth and final model from the
    per-client loop, a list of payloads in slot order and the byte-order
    average."""
    model = init_model(mcfg, fed.seed)
    shuffle_rng = labeled_rng(fed.seed, "shuffle")
    dp_rngs = {s.client_id: labeled_rng(fed.seed, f"dp.client{s.client_id}") for s in shards}
    manifest = linear_layers(mcfg)
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
        model = GlobalModel(mcfg, model.params - fed.server_lr * _byte_order_average(shuffled))
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
    # each window is used once per local epoch of every round: R * E steps
    assert trace.dp_steps == (None if dp_cfg is None else fed.rounds * fed.local_epochs)


@pytest.mark.parametrize(
    "dp_cfg", [None, DpConfig(clip=0.5, sigma=0.3), DpConfig(clip=0.5, sigma=0.0)]
)
def test_each_step_plan_is_built_once_per_run(monkeypatch, dp_cfg):
    """A run of 3 rounds of 2 local epochs builds one plan per lockstep
    step, and every step of every epoch and round is computed with that
    very plan, with and without noise. A plan is dense iff the run adds
    noise."""
    shards, mcfg = _uneven_shards()
    fed = FedConfig(clients=len(shards), rounds=3, seed=2, batch_size=4, local_epochs=2)
    n_steps = len(local_training(shards, fed, mcfg).steps)
    built, used = [], []

    def recording_plan_batch(*args, **kwargs):
        built.append(plan_batch(*args, **kwargs))
        return built[-1]

    def recording_loss_and_grads(*args, plan, **kwargs):
        used.append(plan)
        return loss_and_grads(*args, plan=plan, **kwargs)

    monkeypatch.setattr(fedsim, "plan_batch", recording_plan_batch)
    monkeypatch.setattr(fedsim, "loss_and_grads", recording_loss_and_grads)
    run_simulation(fed, mcfg, shards, dp_cfg)
    assert len(built) == n_steps
    assert len(used) == fed.rounds * fed.local_epochs * n_steps
    expected = built * (fed.rounds * fed.local_epochs)
    for plan, own in zip(used, expected):
        assert plan is own
        assert plan.dense == (dp_cfg is not None and dp_cfg.sigma > 0)


def test_noisy_run_draws_every_step_into_one_noise_buffer(monkeypatch):
    """Every `privatize` call of a 3-round noisy run gets a view of the one
    noise buffer that `local_training` built for the run."""
    built, noises = [], []

    def recording_local_training(*args, **kwargs):
        built.append(local_training(*args, **kwargs))
        return built[-1]

    def recording_privatize(grads, noise, draws):
        noises.append(noise)
        return privatize(grads, noise, draws)

    monkeypatch.setattr(fedsim, "local_training", recording_local_training)
    monkeypatch.setattr(fedsim, "privatize", recording_privatize)
    shards, mcfg = _uneven_shards()
    fed = FedConfig(clients=len(shards), rounds=3, seed=2, batch_size=4)
    run_simulation(fed, mcfg, shards, DpConfig(clip=0.5, sigma=0.3))
    (clients,) = built
    assert clients.noise.shape == clients.params.shape
    assert len(noises) == fed.rounds * fed.local_epochs * len(clients.steps)
    assert all(noise.base is clients.noise for noise in noises)


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


@pytest.mark.parametrize("dp_cfg", [None, DpConfig(clip=0.5, sigma=0.3)])
def test_training_stays_float32_from_end_to_end(monkeypatch, dp_cfg):
    """The replica stack, the gradient buffer, the noise buffer, every
    aggregated model and the final model are all PARAM_DTYPE. A float64
    upcast would change no other test's verdict, only double the memory
    traffic of training."""
    seen = {}

    def recording(name, fn, *arrays):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            for label, get in arrays:
                seen.setdefault(label, set()).add(get(args, result).dtype)
            return result

        monkeypatch.setattr(fedsim, name, wrapper)

    noise = [("noise", lambda _, clients: clients.noise)] if dp_cfg else []
    recording("local_training", local_training,
              ("params", lambda _, clients: clients.params),
              ("grads", lambda _, clients: clients.steps[0][-1].grads.base), *noise)
    recording("aggregate", aggregate, ("aggregate", lambda _, model: model.params))
    shards, mcfg = _uneven_shards()
    fed = FedConfig(clients=len(shards), rounds=2, seed=2, batch_size=4)
    trace, _, final = run_simulation(fed, mcfg, shards, dp_cfg)
    seen["final"] = {final.params.dtype}
    labels = ["params", "grads", "aggregate", "final"] + (["noise"] if dp_cfg else [])
    assert seen == dict.fromkeys(labels, {PARAM_DTYPE})
    assert trace.updates.dtype == PARAM_DTYPE


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


def test_shuffle_equals_fisher_yates_with_one_draw_per_swap():
    """The swap indices come from one vector draw; each equals its own
    `rng.integers(0, i + 1)` call, and the generator ends in the same state."""
    for seed in range(20):
        for k in range(1, 12):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            order = list(range(k))
            for i in range(k - 1, 0, -1):
                j = int(oracle_rng.integers(0, i + 1))
                order[i], order[j] = order[j], order[i]
            assert shuffle_round(k, rng).tolist() == order
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


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
    """A real round's three payloads give the same bits in each of their
    3! arrival orders. Summed in arrival order they would not: some order
    of these rows rounds differently, which one swap of two rows cannot
    show, since a + b is b + a."""
    fed, mcfg, shards = _setup()
    model = init_model(mcfg, 0)
    payloads = _round(model, shards, fed, mcfg)
    orders = [list(perm) for perm in itertools.permutations(range(len(payloads)))]
    in_arrival_order = {
        (payloads[i] + payloads[j] + payloads[k]).tobytes() for i, j, k in orders
    }
    assert len(orders) == 6 and len(in_arrival_order) > 1
    expected = aggregate(model, payloads, server_lr=0.1).params.view(np.uint32)
    for order in orders:
        got = aggregate(model, payloads[order], server_lr=0.1).params
        np.testing.assert_array_equal(got.view(np.uint32), expected)


def test_aggregate_equals_the_byte_order_sum_under_every_row_permutation():
    """For each of the 5! row orders, `aggregate` gives the bits of the rows
    summed in the order of their bytes. The first columns hold quiet NaNs
    of different payload bits and signs: five different NaNs, NaNs among
    values, one NaN among values, NaNs beside an infinity. Summed in row
    order, their NaN bits follow the row order; `aggregate`'s do not. The
    next columns mix signed zeros with other values, hold only -0.0, only
    zeros of both signs, ties and infinities. Of the rest, half are small
    multiples of 0.5 with random signs, so most of them tie, and half span
    six orders of magnitude, so their sum rounds differently in another
    order."""
    fed, mcfg, _ = _setup()
    model = init_model(mcfg, 0)
    nans = np.array([
        [0x7FC00000, 0xFFC00000, 0x7FC00001, 0xFFC12345, 0x7FFFFFFF],
        [0x7FC00000, 0x3F800000, 0xFFC00001, 0x00000000, 0x7FC0BEEF],
        [0x3F800000, 0xBF800000, 0xFFD00000, 0x40000000, 0x80000000],
        [0x7F800000, 0xFFC00002, 0x3F800000, 0x7FC00003, 0xC0000000],
    ], dtype=np.uint32).T.view(PARAM_DTYPE)
    inf = np.inf
    special = np.array([
        [-0.0, 0.0, 1.5, -0.0, -2.0],
        [-0.0] * 5,
        [0.0, -0.0, -0.0, 0.0, -0.0],
        [1.0, 1.0, -3.0, 1.0, 2.5],
        [inf, -0.0, 0.0, inf, 1.0],
        [-inf, -0.0, -inf, 0.0, -1.0],
    ]).T
    rng = np.random.default_rng(8)
    free = param_count(mcfg) - nans.shape[1] - special.shape[1]
    rest = rng.integers(-2, 3, size=(5, free // 2)) * 0.5
    rest *= rng.choice([-1.0, 1.0], size=rest.shape)  # 0.0 * -1.0 is -0.0
    width = free - free // 2
    spread = rng.standard_normal((5, width)) * 10.0 ** rng.uniform(-3, 3, size=(5, width))
    payloads = np.concatenate(
        [nans, np.concatenate([special, rest, spread], axis=1).astype(PARAM_DTYPE)], axis=1
    )
    assert (np.signbit(rest) & (rest == 0)).any() and (~np.signbit(rest) & (rest == 0)).any()
    nan_cols = slice(0, nans.shape[1])
    in_row_order = {
        payloads[list(perm), nan_cols].sum(axis=0).tobytes()
        for perm in itertools.permutations(range(5))
    }
    assert len(in_row_order) > 1
    expected = (model.params - 0.5 * _byte_order_average(payloads)).view(np.uint32)
    assert np.isnan(expected[nan_cols].view(PARAM_DTYPE)).all()
    for perm in itertools.permutations(range(5)):
        got = aggregate(model, payloads[list(perm)], server_lr=0.5).params
        np.testing.assert_array_equal(got.view(np.uint32), expected)


@pytest.mark.parametrize("n_blocks", [1, 2, 3, 4])
@pytest.mark.parametrize("ffn_mult, context", [(1, 1), (2, 3), (4, 4)])
def test_record_updates_equals_the_gather_of_every_weight_column(n_blocks, ffn_mult, context):
    """One copy per FC/Proj weight writes the bits of gathering the weight
    columns of the chosen rows, in trace-row order, and nothing outside the
    block of the trace it is given."""
    cfg = ModelConfig(vocab_size=7, embed_dim=3, context=context, n_blocks=n_blocks,
                      ffn_mult=ffn_mult)
    positions = views(cfg, np.arange(param_count(cfg)))
    columns = np.concatenate([positions[n + ".weight"].ravel() for n, _, _ in linear_layers(cfg)])
    rng = np.random.default_rng(10 * n_blocks + context)
    stack = rng.standard_normal((5, param_count(cfg))).astype(PARAM_DTYPE)
    rows = rng.permutation(5)
    trace = np.full((15, len(columns)), np.nan, dtype=PARAM_DTYPE)
    fedsim.record_updates(trace[5:10], stack, rows, cfg)
    np.testing.assert_array_equal(
        trace[5:10].view(np.uint32), stack[np.ix_(rows, columns)].view(np.uint32)
    )
    assert np.isnan(trace[:5]).all() and np.isnan(trace[10:]).all()


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
