"""Fingerprinting attack suite: feature construction from the anonymized
trace, k-means and spectral clustering, and step-wise greedy matching via an
exact linear-sum-assignment solver.

Inputs are TraceStore only; nothing here can reach the truth sidecar, and
tests/test_structure.py checks that no module this one imports knows it.
"""

import logging
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import NumericalError, UsageError
from .model import layer_names
from .traceio import TraceStore

log = logging.getLogger(__name__)

# k-means++ restarts per clustering, and the cap on Lloyd iterations per restart
KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 300


@dataclass
class FeatureMatrix:
    """Unit-normalized gradient features, one row per trace record, ordered
    by (round asc, slot asc)."""

    values: np.ndarray  # (K*T, dim) float64
    clients: int
    rounds: int


def build_features(trace: TraceStore, selector: str) -> FeatureMatrix:
    """Concatenate the FC/Proj layers that `selector` picks (see
    `layer_names`) of each trace row (row-major per layer, selector order)
    and scale to unit length. A zero-gradient row is replaced by the unit
    basis vector e1, with a warning."""
    columns, start = {}, 0
    for name, rows, cols in trace.layer_manifest:
        columns[name] = slice(start, start + rows * cols)
        start += rows * cols
    if trace.updates.shape != (trace.clients * trace.rounds, start):
        raise UsageError(f"trace updates of shape {trace.updates.shape} do not fit K, T and manifest")
    n_blocks = sum(1 for name in columns if name.endswith(".fc"))
    selected = layer_names(selector, n_blocks)
    if not selected:
        raise UsageError("trace manifest holds no block FC layer")
    for name in selected:
        if name not in columns:
            raise UsageError(f"selector layer {name!r} not in trace manifest")

    values = np.concatenate(
        [trace.updates[:, columns[name]] for name in selected], axis=1, dtype=np.float64
    )
    for i, vec in enumerate(values):
        norm = np.sqrt(np.dot(vec, vec))
        if norm == 0.0:
            t, slot = divmod(i, trace.clients)
            log.warning("zero gradient record at round=%d slot=%d; substituting e1", t, slot)
            vec[:] = 0.0
            vec[0] = 1.0
        else:
            vec /= norm
    return FeatureMatrix(values=values, clients=trace.clients, rounds=trace.rounds)


def _gram(x: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The Gram matrix g = x xᵀ of points to split into k clusters, and the
    points' pairwise squared distances g_ii + g_jj - 2 g_ij, clipped at 0."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise UsageError("points must be a 2-d array")
    if not 1 <= k <= x.shape[0]:
        raise UsageError(f"k={k} out of range for {x.shape[0]} points")
    g = x @ x.T
    diag = np.diag(g)
    return g, np.clip(diag[:, None] + diag[None, :] - 2.0 * g, 0.0, None)


def _sq_dists(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Squared distances from every point to each centre `w @ x` (one weight
    row per centre), from the Gram matrix g = x xᵀ alone:
    d2[i, c] = G_ii + w_cᵀ G w_c - 2 (G w_c)_i. A (k, n) `w` gives (n, k)
    distances, and an (r, k, n) stack of them (r, n, k)."""
    gw = g @ np.swapaxes(w, -1, -2)
    centre_sq = np.sum(w * np.swapaxes(gw, -1, -2), axis=-1)
    return np.diag(g)[:, None] + centre_sq[..., None, :] - 2.0 * gw


def _pp_index(d2: np.ndarray, rng: np.random.Generator):
    """The next k-means++ centre: index i with probability d2[i] / d2.sum(),
    drawn from one uniform exactly as `rng.choice(n, p=d2 / total)` draws
    it, without the checks choice makes of `p` on every call; a uniform
    `rng.integers(n)` if every d2 is 0."""
    total = d2.sum()
    if total == 0.0:
        return rng.integers(d2.size)
    cdf = (d2 / total).cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(), side="right")


def _kmeans_pp_init(pair_d2: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: a one-hot weight row per chosen point."""
    n = pair_d2.shape[0]
    chosen = [rng.integers(n)]
    d2 = pair_d2[:, chosen[0]]
    for _ in range(1, k):
        chosen.append(_pp_index(d2, rng))
        d2 = np.minimum(d2, pair_d2[:, chosen[-1]])
    return np.eye(n)[chosen]


def _lloyd(g: np.ndarray, w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Lloyd's loop on the Gram matrix for an (r, k, n) stack of restarts in
    lockstep. Each centre is a weight row `w[j, c]`: one-hot after seeding or
    repair, 1/|S| on its members after an update. A restart that converges
    stops with the weights its last pass ran on while the others go on; a
    repair in that pass refills a cluster with the one point it held, so it
    would write back the same one-hot row. Returns each restart's labels
    (r, n) and final inertia (r,)."""
    r, k, n = w.shape
    rows = np.arange(n)
    labels = np.full((r, n), -1)  # no label is -1, so no restart stops on its first pass
    prev_inertia = np.full(r, np.inf)
    active = np.arange(r)
    for _ in range(KMEANS_MAX_ITER):
        wa = w[active]
        d2 = _sq_dists(g, wa)
        new_labels = np.argmin(d2, axis=2)
        cells = new_labels + k * np.arange(len(active))[:, None]
        empty = np.bincount(cells.ravel(), minlength=len(active) * k).reshape(-1, k) == 0
        # repair empty clusters with the point farthest from its own centroid,
        # among clusters of two or more, so no repair empties another cluster
        for j, c in zip(*np.nonzero(empty)):
            own = new_labels[j]
            shared = np.bincount(own, minlength=k)[own] > 1
            far = int(np.argmax(np.where(shared, d2[j, rows, own], -np.inf)))
            own[far] = c
            wa[j, c] = rows == far
            d2[j, :, c] = _sq_dists(g, wa[j, c : c + 1])[:, 0]
        inertia = np.take_along_axis(d2, new_labels[:, :, None], axis=2)[:, :, 0].sum(axis=1)
        rising = np.flatnonzero(inertia > prev_inertia[active] + 1e-9)
        if rising.size:
            before, after = prev_inertia[active[rising[0]]], inertia[rising[0]]
            raise NumericalError(f"k-means inertia increased from {before} to {after}")
        done = np.all(new_labels == labels[active], axis=1)
        active, new_labels, inertia = active[~done], new_labels[~done], inertia[~done]
        if not active.size:
            break
        labels[active] = new_labels
        members = new_labels[:, None, :] == np.arange(k)[None, :, None]
        w[active] = members / members.sum(axis=2, keepdims=True)
        prev_inertia[active] = inertia
    final = np.take_along_axis(_sq_dists(g, w), labels[:, :, None], axis=2)[:, :, 0]
    return labels, final.sum(axis=1)


def kmeans_points(x: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding on raw points; best of
    `KMEANS_RESTARTS` by inertia (the first of equals), deterministic under
    seed. The restarts are seeded one after another from one generator and
    then run in lockstep. Every distance comes from the (n, n) Gram matrix,
    built once (kernel k-means)."""
    g, pair_d2 = _gram(x, k)
    rng = np.random.default_rng(seed)
    w = np.stack([_kmeans_pp_init(pair_d2, k, rng) for _ in range(KMEANS_RESTARTS)])
    labels, inertia = _lloyd(g, w)
    return labels[int(np.argmin(inertia))]


def kmeans(features: FeatureMatrix, k: int, seed: int) -> np.ndarray:
    """Cluster all K*T feature rows with Euclidean k-means."""
    return kmeans_points(features.values, k, seed)


def symmetric_eigen(a: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The `k` algebraically smallest eigenpairs of a symmetric matrix:
    eigenvalues ascending and eigenvectors as the columns of an (n, k) array."""
    vals, vecs = np.linalg.eigh(a)
    return vals[:k], vecs[:, :k]


def _median(values: np.ndarray) -> float:
    """`float(np.median(values))` of a non-empty 1-d float array, bit for
    bit: the middle value, or the mean of the two middle values, and NaN if
    any value is NaN. np.median imports numpy.ma on its first call."""
    n = values.size
    part = np.partition(values, ((n - 1) // 2, n // 2, n - 1))
    if np.isnan(part[-1]):  # partition sorts NaN last
        return float("nan")
    if n % 2:
        return float(part[n // 2])
    return float((part[n // 2 - 1] + part[n // 2]) / 2)


def spectral_points(x: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Spectral clustering: Gaussian affinity with median-distance bandwidth,
    symmetric normalized Laplacian, k smallest eigenvectors, row-normalized
    embedding, then k-means."""
    _, d2 = _gram(x, k)
    n = len(d2)
    dist = np.sqrt(d2)
    iu = np.triu_indices(n, k=1)
    gamma = _median(dist[iu]) if iu[0].size else 0.0
    if gamma == 0.0:
        # all points (nearly) identical: a single cluster
        return np.zeros(n, dtype=np.int64)
    affinity = np.exp(-d2 / (2.0 * gamma * gamma))
    np.fill_diagonal(affinity, 0.0)
    degree = affinity.sum(axis=1)
    degree[degree == 0.0] = 1.0
    inv_sqrt = 1.0 / np.sqrt(degree)
    lap = np.eye(n) - inv_sqrt[:, None] * affinity * inv_sqrt[None, :]
    lap = (lap + lap.T) / 2.0
    _, vecs = symmetric_eigen(lap, k)
    norms = np.sqrt(np.sum(vecs**2, axis=1))
    norms[norms == 0.0] = 1.0
    embed = vecs / norms[:, None]
    return kmeans_points(embed, k, seed)


def spectral(features: FeatureMatrix, k: int, seed: int) -> np.ndarray:
    return spectral_points(features.values, k, seed)


def solve_lsap(cost: np.ndarray) -> Tuple[np.ndarray, float]:
    """Exact minimum-cost bijection rows -> columns (shortest augmenting
    paths with potentials, O(n^3)). Ties resolve to the lowest column index.

    Returns (assignment with assignment[row] = col, total cost)."""
    d = np.asarray(cost, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise UsageError(f"cost matrix must be square, got {d.shape}")
    if not np.all(np.isfinite(d)):
        raise UsageError("cost matrix must be finite")
    n = d.shape[0]
    inf = np.inf
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match = [0] * (n + 1)  # match[col] = row (1-based, 0 = free)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = inf
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = d[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    assignment = np.empty(n, dtype=np.int64)
    for j in range(1, n + 1):
        assignment[match[j] - 1] = j - 1
    total = float(d[np.arange(n), assignment].sum())
    return assignment, total


def greedy_match(features: FeatureMatrix) -> np.ndarray:
    """Chain optimal round-to-round alignments into client groups.

    For each consecutive round pair, D[i, j] = 1 - cos(feat_t[i],
    feat_{t+1}[j]) is solved as an LSAP; chains are composed forward from
    round 0 and labeled by their round-0 slot. Returns one label per row of
    the feature matrix (round asc, slot asc)."""
    k, t = features.clients, features.rounds
    if features.values.shape[0] != k * t:
        raise UsageError("greedy match needs exactly K rows per round")
    by_round = features.values.reshape(t, k, -1)
    labels = np.empty((t, k), dtype=np.int64)
    labels[0] = np.arange(k)
    for r in range(t - 1):
        # rows are unit-normalized, so cosine distance is 1 - dot
        dist = 1.0 - by_round[r] @ by_round[r + 1].T
        alignment, _ = solve_lsap(dist)
        labels[r + 1, alignment] = labels[r]
    return labels.reshape(-1)
