"""Fingerprinting attack suite: feature construction from the anonymized
trace, k-means and spectral clustering, and step-wise greedy matching via an
exact linear-sum-assignment solver.

Inputs are TraceStore only; nothing here can reach the truth sidecar.
"""

import logging
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import NumericalError, UsageError
from .fedsim import TraceStore
from .model import layer_names

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
    points' pairwise squared distances."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise UsageError("points must be a 2-d array")
    if not 1 <= k <= x.shape[0]:
        raise UsageError(f"k={k} out of range for {x.shape[0]} points")
    g = x @ x.T
    return g, np.clip(_sq_dists(g, np.eye(len(g))), 0.0, None)


def _sq_dists(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Squared distances from every point to each centre `w @ x` (one weight
    row per centre), from the Gram matrix g = x xᵀ alone:
    d2[i, c] = G_ii + w_cᵀ G w_c - 2 (G w_c)_i."""
    gw = g @ w.T
    return np.diag(g)[:, None] + np.sum(w * gw.T, axis=1)[None, :] - 2.0 * gw


def _kmeans_pp_init(pair_d2: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: a one-hot weight row per chosen point."""
    n = pair_d2.shape[0]
    chosen = [rng.integers(n)]
    d2 = pair_d2[:, chosen[0]]
    for _ in range(1, k):
        total = d2.sum()
        if total == 0.0:
            chosen.append(rng.integers(n))
            continue
        chosen.append(rng.choice(n, p=d2 / total))
        d2 = np.minimum(d2, pair_d2[:, chosen[-1]])
    return np.eye(n)[chosen]


def _lloyd(g: np.ndarray, w: np.ndarray):
    """Lloyd's loop on the Gram matrix. Each centre is a weight row `w[c]`:
    one-hot after seeding or repair, 1/|S| on its members after an update."""
    k = w.shape[0]
    rows = np.arange(g.shape[0])
    labels = None
    prev_inertia = np.inf
    for _ in range(KMEANS_MAX_ITER):
        d2 = _sq_dists(g, w)
        new_labels = np.argmin(d2, axis=1)
        # repair empty clusters with the point farthest from its own centroid,
        # among clusters of two or more, so no repair empties another cluster
        for c in range(k):
            if not np.any(new_labels == c):
                shared = np.bincount(new_labels, minlength=k)[new_labels] > 1
                far = int(np.argmax(np.where(shared, d2[rows, new_labels], -np.inf)))
                new_labels[far] = c
                w[c] = rows == far
                d2[:, c] = _sq_dists(g, w[c : c + 1])[:, 0]
        inertia = float(d2[rows, new_labels].sum())
        if inertia > prev_inertia + 1e-9:
            raise NumericalError(f"k-means inertia increased from {prev_inertia} to {inertia}")
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        members = labels[None, :] == np.arange(k)[:, None]
        w = members / members.sum(axis=1, keepdims=True)
        prev_inertia = inertia
    return labels, float(_sq_dists(g, w)[rows, labels].sum())


def kmeans_points(x: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding on raw points; best of
    `KMEANS_RESTARTS` by inertia, deterministic under seed. Every distance
    comes from the (n, n) Gram matrix, built once (kernel k-means)."""
    g, pair_d2 = _gram(x, k)
    rng = np.random.default_rng(seed)
    best_labels, best_inertia = None, np.inf
    for _ in range(KMEANS_RESTARTS):
        labels, inertia = _lloyd(g, _kmeans_pp_init(pair_d2, k, rng))
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels


def kmeans(features: FeatureMatrix, k: int, seed: int) -> np.ndarray:
    """Cluster all K*T feature rows with Euclidean k-means."""
    return kmeans_points(features.values, k, seed)


def symmetric_eigen(a: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The `k` algebraically smallest eigenpairs of a symmetric matrix:
    eigenvalues ascending and eigenvectors as the columns of an (n, k) array."""
    vals, vecs = np.linalg.eigh(a)
    return vals[:k], vecs[:, :k]


def spectral_points(x: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Spectral clustering: Gaussian affinity with median-distance bandwidth,
    symmetric normalized Laplacian, k smallest eigenvectors, row-normalized
    embedding, then k-means."""
    _, d2 = _gram(x, k)
    n = len(d2)
    dist = np.sqrt(d2)
    iu = np.triu_indices(n, k=1)
    gamma = float(np.median(dist[iu])) if iu[0].size else 0.0
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
