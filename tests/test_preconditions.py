"""Each precondition check that no pipeline run reaches raises its error
when its condition fails."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gradlink import attack, cli, corpus, dp, model, report
from gradlink.errors import InputError, UsageError
from gradlink.traceio import TraceStore


def _trace(width):
    """A K=2, T=2 trace of one 1x2 block1.fc layer whose rows hold `width`
    values."""
    return TraceStore(clients=2, rounds=2, seed=0, layer_manifest=[("block1.fc", 1, 2)],
                      dp=None, updates=np.ones((4, width), dtype=np.float32))


def _start_noise_without_samples():
    with ThreadPoolExecutor(1) as pool:
        dp.start_noise(np.empty((1, 3)), 0, 0.1, dp.DpConfig(clip=1.0, sigma=1.0),
                       [np.random.default_rng(0)], pool)


PRECONDITIONS = {
    "sgd-step-negative-lr": (
        lambda: model.sgd_step(np.zeros(3), np.zeros(3), -0.1),
        UsageError, "lr must be >= 0"),
    "start-noise-no-sample": (
        _start_noise_without_samples, UsageError, "at least one per-sample gradient"),
    "clip-gradient-zero-clip": (
        lambda: dp.clip_gradient(np.ones(3), 0.0), UsageError, "clip bound must be > 0"),
    "batch-iter-zero-batch": (
        lambda: list(corpus.batch_iter(corpus.ClientShard(0, [np.arange(6)], []), 0, 3,
                                       np.random.default_rng(0))),
        UsageError, "batch_size must be >= 1"),
    "vocab-duplicate-token": (
        lambda: corpus.Vocab(["<pad>", "a", "a"]), UsageError, "duplicate tokens"),
    "gram-points-not-2d": (
        lambda: attack.kmeans_points(np.zeros(4), 2, seed=0), UsageError, "2-d array"),
    "features-updates-misfit": (
        lambda: attack.build_features(_trace(3), "fc"), UsageError, "do not fit K, T"),
    "report-labels-misfit": (
        lambda: report.build_report({"clients": 2, "rounds": 2},
                                    {"clients": 2, "rounds": 2, "labels": [0, 1, 0]},
                                    np.zeros((2, 2), dtype=np.int64)),
        InputError, "assignment length does not match"),
    "run-attack-unknown-method": (
        lambda: cli.run_attack(_trace(2), "nearest", "fc"), UsageError,
        "unknown attack method 'nearest'"),
}


@pytest.mark.parametrize("case", PRECONDITIONS)
def test_precondition_raises(case):
    call, error, message = PRECONDITIONS[case]
    with pytest.raises(error, match=message):
        call()
