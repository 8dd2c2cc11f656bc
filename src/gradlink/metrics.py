"""Clustering evaluation: purity, Rand index, and mutual information
(natural log) of a predicted partition against the ground truth.

`contingency` checks the labels and counts the pred x true table, and each
metric is a closed form over it that reads N from it: a float for the table of
an (n,) labeling, one value per row for the tables of a (trials, n) stack.
Stacked scoring works in place where it can: on the baseline's (1000, K, K)
stack, a fresh temporary costs more in page faults than the pass that fills it.
"""

import numpy as np

from .errors import UsageError


def contingency(pred, true):
    """Count tables of shape pred.shape[:-1] + (clusters, classes), all built
    by one bincount over (row, pred, true)."""
    pred, true = np.asarray(pred), np.asarray(true)
    if true.ndim != 1 or pred.ndim not in (1, 2) or pred.shape[-1] != true.shape[0]:
        raise UsageError("pred must be 1-d or 2-d with rows as long as the 1-d true")
    if pred.size == 0:
        raise UsageError("empty partition")
    if pred.dtype.kind not in "iu" or true.dtype.kind not in "iu":
        raise UsageError(f"labels must have an integer dtype, got {pred.dtype} and {true.dtype}")
    pred, true = pred.astype(np.int64, copy=False), true.astype(np.int64, copy=False)
    if pred.min() < 0 or true.min() < 0:
        raise UsageError("labels must be non-negative integers")
    rows = pred.reshape(-1, true.size)
    k, j = int(rows.max()) + 1, int(true.max()) + 1
    cells = np.arange(rows.shape[0])[:, None] * k + rows
    cells *= j
    cells += true
    table = np.bincount(cells.ravel(), minlength=rows.shape[0] * k * j)
    return table.reshape(pred.shape[:-1] + (k, j))


def _value(x):
    return float(x) if np.ndim(x) == 0 else x


def purity(table):
    """Fraction of points in the dominant true class of their predicted
    cluster: (1/N) * sum over clusters of max true-class overlap."""
    return _value(table.max(axis=-1).sum(axis=-1) / table.sum(axis=(-2, -1)))


def rand_index(table):
    """Fraction of point pairs on which the two partitions agree (together
    in both, or apart in both)."""
    n = table.sum(axis=(-2, -1))
    if np.min(n) < 2:
        raise UsageError("rand index needs at least 2 points")

    def pairs(counts, axis):
        # each c * (c - 1) is even, so halving the sum once is exact
        products = counts - 1
        products *= counts
        return products.sum(axis=axis) // 2

    total = n * (n - 1) // 2
    same_same = pairs(table, (-2, -1))
    pred_pairs = pairs(table.sum(axis=-1), -1)
    true_pairs = pairs(table.sum(axis=-2), -1)
    return _value((total + 2 * same_same - pred_pairs - true_pairs) / total)


def mutual_information(table):
    """Raw mutual information in nats: sum over non-empty intersections of
    (n_kj/N) * ln(N * n_kj / (n_k * n_j)). Empty intersections contribute
    zero."""
    n = table.sum(axis=(-2, -1), keepdims=True, dtype=np.float64)
    empty = table == 0
    # every cell unmasked, in two float buffers: an empty cell's ratio is
    # 1 / 1, so its log and its term are +0.0, as if it were skipped
    logs = n * table
    logs += empty
    scale = np.multiply(table.sum(axis=-1, keepdims=True), table.sum(axis=-2, keepdims=True),
                        out=np.empty(table.shape))
    scale *= ~empty
    scale += empty
    logs /= scale
    np.log(logs, out=logs)
    logs *= np.divide(table, n, out=scale)
    return _value(np.maximum(logs.sum(axis=(-2, -1)), 0.0))
