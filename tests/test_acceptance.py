"""End-to-end acceptance gate for the package.

Each test covers one acceptance criterion and prints a single [PASS]/[FAIL]
line (run with `pytest tests/test_acceptance.py -s` to see them live).
"""

import itertools
import json
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from gradlink.attack import build_features, greedy_match, solve_lsap, spectral
from gradlink.cli import main
from gradlink.corpus import SyntheticSpec, generate_synthetic
from gradlink.dp import DpConfig, clip_gradient, privatize, rdp_epsilon, start_noise
from gradlink.fedsim import FedConfig, aggregate, client_round, local_training, run_simulation
from gradlink.metrics import contingency, mutual_information, purity, rand_index
from gradlink.model import (
    GlobalModel,
    ModelConfig,
    forward_trace,
    init_model,
    loss_and_grads,
    views,
)
from gradlink.report import random_baseline


@contextmanager
def _criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def _synthetic_run(k, t, seed=0, dp_cfg=None, train_sentences=24, **fed_kwargs):
    spec = SyntheticSpec(
        n_clients=k, train_sentences=train_sentences, valid_sentences=4, overlap=0.0
    )
    shards, vocab = generate_synthetic(spec, seed)
    fed = FedConfig(clients=k, rounds=t, seed=seed, **fed_kwargs)
    mcfg = ModelConfig(
        vocab_size=vocab.size, embed_dim=16, context=3, n_blocks=2, ffn_mult=2
    )
    return run_simulation(fed, mcfg, shards, dp_cfg)


def _greedy_scores(trace, truth):
    labels = greedy_match(build_features(trace, "both"))
    table = contingency(labels, truth.ravel())
    return purity(table), mutual_information(table)


def test_mutual_information_anchors():
    with _criterion("MI anchors 1.099/1.609/2.303/2.996 for K=3/5/10/20"):
        for k, expected in {3: 1.099, 5: 1.609, 10: 2.303, 20: 2.996}.items():
            labels = np.repeat(np.arange(k), 6)
            assert mutual_information(contingency(labels, labels)) == pytest.approx(
                expected, abs=1e-3
            )


def test_perfect_attack_identities():
    with _criterion("perfect assignment gives purity = RI = 1.000"):
        rng = np.random.default_rng(0)
        for _ in range(20):
            true = rng.integers(0, 5, size=30)
            relabel = rng.permutation(5)
            pred = relabel[true]
            table = contingency(pred, true)
            assert purity(table) == 1.0
            assert rand_index(table) == 1.0


def test_assignment_solver_exactness():
    with _criterion("LSAP equals brute-force enumeration, 100 matrices per n in 2..7"):
        rng = np.random.default_rng(1)
        for n in range(2, 8):
            perms = np.array(list(itertools.permutations(range(n))))  # (n!, n)
            idx = np.arange(n)
            for _ in range(100):
                d = rng.random((n, n))
                _, cost = solve_lsap(d)
                brute = float(d[idx, perms].sum(axis=1).min())
                assert cost == brute


def test_gradient_finite_difference_agreement():
    with _criterion("analytic gradients match finite differences to 1e-4"):
        cfg = ModelConfig(vocab_size=10, embed_dim=8, context=3, n_blocks=2, ffn_mult=2)
        # float64, so that a step of 1e-5 stands clear of rounding; the
        # model code follows the dtype of its parameters
        m = GlobalModel(cfg, init_model(cfg, 3).params.astype(np.float64))
        rng = np.random.default_rng(3)
        windows = rng.integers(0, cfg.vocab_size, size=(4, cfg.context))
        targets = rng.integers(0, cfg.vocab_size, size=4)
        _, grads = loss_and_grads(m, windows, targets)
        h = 1e-5

        def relu_pattern():
            return [pre > 0 for pre in forward_trace(m, windows).block_pre]

        flat = m.params
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            lp, _ = loss_and_grads(m, windows, targets)
            pat_p = relu_pattern()
            flat[idx] = orig - h
            lm, _ = loss_and_grads(m, windows, targets)
            pat_m = relu_pattern()
            flat[idx] = orig
            if any(not np.array_equal(a, b) for a, b in zip(pat_p, pat_m)):
                continue  # ReLU kink inside the stencil
            fd = (lp - lm) / (2 * h)
            rel = abs(grads[idx] - fd) / (abs(fd) + 1e-8)
            assert rel < 1e-4, f"coordinate {idx}"


def test_batch1_gradients_are_outer_products():
    with _criterion("batch-1 weight gradients factor as bias-grad x input"):
        cfg = ModelConfig(vocab_size=12, embed_dim=8, context=3, n_blocks=3, ffn_mult=2)
        for seed in range(5):
            m = init_model(cfg, seed)
            rng = np.random.default_rng(seed)
            windows = rng.integers(0, cfg.vocab_size, size=(1, cfg.context))
            targets = rng.integers(0, cfg.vocab_size, size=1)
            _, flat = loss_and_grads(m, windows, targets)
            g = views(cfg, flat)
            trace = forward_trace(m, windows)
            for i in range(cfg.n_blocks):
                b = f"block{i + 1}"
                np.testing.assert_allclose(
                    g[b + ".fc.weight"],
                    np.outer(g[b + ".fc.bias"], trace.block_inputs[i][0]),
                    atol=1e-10,
                )
                np.testing.assert_allclose(
                    g[b + ".proj.weight"],
                    np.outer(g[b + ".proj.bias"], trace.block_hidden[i][0]),
                    atol=1e-10,
                )


def test_shuffling_does_not_change_training():
    with _criterion("each round aggregated in slot order equals it in shard order, bitwise"):
        spec = SyntheticSpec(n_clients=5, train_sentences=16, valid_sentences=3)
        shards, vocab = generate_synthetic(spec, 0)
        mcfg = ModelConfig(vocab_size=vocab.size, embed_dim=8, context=3, n_blocks=2, ffn_mult=2)
        fed = FedConfig(clients=5, rounds=5, seed=0)
        _, truth, final = run_simulation(fed, mcfg, shards)
        assert (truth != np.arange(5)).any()
        clients = local_training(shards, fed, mcfg)
        row_of_shard = np.argsort(clients.order)
        model = init_model(mcfg, fed.seed)
        for t in range(fed.rounds):
            stack = client_round(model, clients, fed)
            in_slots = aggregate(model, stack[row_of_shard[truth[t]]], fed.server_lr)
            model = aggregate(model, stack[row_of_shard], fed.server_lr)
            np.testing.assert_array_equal(in_slots.params, model.params)
        np.testing.assert_array_equal(model.params, final.params)


def test_attack_succeeds_at_desk_scale():
    with _criterion(
        "greedy purity >= 0.9, MI >= 0.9 ln K for K in {3,5,10}; "
        "spectral beats random baseline + 0.1"
    ):
        for k in (3, 5, 10):
            trace, truth, _ = _synthetic_run(k, 10)
            true = truth.ravel()
            pur, mi = _greedy_scores(trace, truth)
            assert pur >= 0.9, f"K={k} greedy purity {pur}"
            assert mi >= 0.9 * np.log(k), f"K={k} greedy MI {mi}"
            spec_labels = spectral(build_features(trace, "both"), k, seed=0)
            baseline = random_baseline(true, k, trials=200, seed=0)["purity"]
            spec_pur = purity(contingency(spec_labels, true))
            assert spec_pur > baseline + 0.1, f"K={k} spectral {spec_pur} vs {baseline}"


def test_slower_global_drift_helps_the_attack():
    with _criterion(
        "frozen server gives purity 1.0; lower server lr gives MI >= higher"
    ):
        trace, truth, _ = _synthetic_run(5, 6, server_lr=0.0)
        pur, _ = _greedy_scores(trace, truth)
        assert pur == 1.0

        trace_lo, side_lo, _ = _synthetic_run(5, 6, server_lr=0.01)
        trace_hi, side_hi, _ = _synthetic_run(5, 6, server_lr=1.0)
        _, mi_lo = _greedy_scores(trace_lo, side_lo)
        _, mi_hi = _greedy_scores(trace_hi, side_hi)
        assert mi_lo >= mi_hi


def test_noise_defeats_the_attack_and_clipping_alone_does_not():
    with _criterion(
        "sigma=1.5 drops purity >= 0.3 to near random; sigma=0 stays near No-DP"
    ):
        k, t = 5, 6
        trace_plain, side_plain, _ = _synthetic_run(k, t)
        trace_clip, side_clip, _ = _synthetic_run(k, t, dp_cfg=DpConfig(clip=1.0, sigma=0.0))
        trace_noise, side_noise, _ = _synthetic_run(k, t, dp_cfg=DpConfig(clip=1.0, sigma=1.5))

        pur_plain, _ = _greedy_scores(trace_plain, side_plain)
        pur_clip, _ = _greedy_scores(trace_clip, side_clip)
        pur_noise, _ = _greedy_scores(trace_noise, side_noise)
        baseline = random_baseline(
            side_noise.ravel(), k, trials=200, seed=0
        )["purity"]

        assert pur_noise <= pur_clip - 0.3, f"{pur_noise} vs {pur_clip}"
        assert abs(pur_noise - baseline) <= 0.15, f"{pur_noise} vs baseline {baseline}"
        assert abs(pur_clip - pur_plain) <= 0.05, f"{pur_clip} vs {pur_plain}"


def test_dp_mechanism_properties():
    with _criterion(
        "clipped norms <= C; noise step std = lr*sigma*C/L within 5%; epsilon decreasing in sigma"
    ):
        rng = np.random.default_rng(4)
        clip = 0.7
        scales = np.exp(rng.uniform(-3, 3, size=100_000))
        raw = rng.normal(size=(100_000, 8)) * scales[:, None]
        for row in raw:
            assert np.linalg.norm(clip_gradient(row, clip)) <= clip + 1e-12

        cfg = DpConfig(clip=2.0, sigma=1.3)
        for l, lr in ((1, 1.0), (4, 0.25)):
            noised, noise = np.zeros((1, 100_000)), np.empty((1, 100_000))
            with ThreadPoolExecutor(1) as pool:
                draws = start_noise(noise, l, lr, cfg, [np.random.default_rng(5)], pool)
                privatize(noised, noise, draws)
            std = float(np.std(noised))
            target = lr * cfg.sigma * cfg.clip / l
            assert abs(std - target) / target < 0.05

        eps = [rdp_epsilon(s, 500, 1e-4) for s in (0.5, 1.0, 1.5)]
        assert eps[0] > eps[1] > eps[2]


def test_metrics_match_exhaustive_oracles():
    with _criterion("purity/RI/MI equal brute-force enumeration on 500 random pairs"):
        rng = np.random.default_rng(6)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            pred = rng.integers(0, 4, size=n).tolist()
            true = rng.integers(0, 4, size=n).tolist()
            table = contingency(pred, true)

            pur_oracle = Fraction(0)
            for c in set(pred):
                members = [t for p, t in zip(pred, true) if p == c]
                pur_oracle += max(members.count(v) for v in set(members))
            assert purity(table) == float(pur_oracle / n)

            agree = sum(
                1
                for i, j in itertools.combinations(range(n), 2)
                if (pred[i] == pred[j]) == (true[i] == true[j])
            )
            assert rand_index(table) == float(
                Fraction(agree, n * (n - 1) // 2)
            )

            mi = 0.0
            for c in set(pred):
                for d in set(true):
                    nkj = sum(1 for p, t in zip(pred, true) if p == c and t == d)
                    if nkj:
                        mi += (nkj / n) * np.log(
                            n * nkj / (pred.count(c) * true.count(d))
                        )
            assert mutual_information(table) == pytest.approx(mi, abs=1e-12)


def test_simulation_outputs_are_byte_reproducible(tmp_path):
    with _criterion("simulate twice with one config gives byte-identical files"):
        doc = {
            "seed": 0,
            "fed": {"clients": 3, "rounds": 4},
            "model": {"embed_dim": 8, "context": 3, "n_blocks": 2, "ffn_mult": 2},
            "data": {"synthetic": {"train_sentences": 12, "valid_sentences": 3}},
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        paths = []
        for run in ("a", "b"):
            trace = tmp_path / f"trace_{run}.jsonl"
            sidecar = tmp_path / f"sidecar_{run}.json"
            assert main([
                "simulate", "--config", str(cfg),
                "--out", str(trace), "--sidecar", str(sidecar),
            ]) == 0
            paths.append((trace, sidecar))
        (t1, s1), (t2, s2) = paths
        assert t1.read_bytes() == t2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()
