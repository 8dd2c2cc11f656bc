"""Clustering evaluation: purity, Rand index, and mutual information
(natural log) of a predicted partition against the ground truth.

`contingency` checks the labels and counts the pred x true table, and each
metric is a closed form over it that reads N from it: a float for the table of
an (n,) labeling, one value per row for the tables of a (trials, n) stack.
Each row's value reads only that row's cells, so `report.score` passes a
stack's table in blocks of whole rows, each at most `SCORE_BLOCK_CELLS`
cells: 512 KB per float temporary, which stays in a 2 MB L2 cache, where the
baseline's whole (1000, 20, 20) table needs 3.2 MB per temporary. The block is
sized in cells because a row holds clusters x classes of them. Stacked
scoring also works in place where it can.
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
    # Counts and their sums are integers below 2**53, exact in float64 in
    # any order: one cast up front, and margins as products with ones, give
    # the bits of casting in each pass and of summing along each axis.
    counts = table.astype(np.float64)
    n = counts.sum(axis=(-2, -1), keepdims=True)
    rows = counts @ np.ones(counts.shape[-1])
    cols = np.ones(counts.shape[-2]) @ counts
    empty = table == 0
    # every cell unmasked, in two float buffers: an empty cell's ratio is
    # 1 / 1, so its log and its term are +0.0, as if it were skipped
    logs = n * counts
    logs += empty
    scale = rows[..., :, None] * cols[..., None, :]
    scale *= ~empty
    scale += empty
    logs /= scale
    np.log(logs, out=logs)
    logs *= np.divide(counts, n, out=scale)
    return _value(np.maximum(logs.sum(axis=(-2, -1)), 0.0))
