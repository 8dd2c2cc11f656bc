import dataclasses
import itertools
import logging
import sys
import warnings

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from gradlink import attack
from gradlink.attack import (
    KMEANS_MAX_ITER,
    FeatureMatrix,
    _gram,
    _kmeans_pp_init,
    _lloyd,
    _median,
    _pp_index,
    build_features,
    greedy_match,
    kmeans,
    kmeans_points,
    solve_lsap,
    spectral,
    spectral_points,
    symmetric_eigen,
)
from gradlink.corpus import SyntheticSpec, generate_synthetic
from gradlink.errors import NumericalError, UsageError
from gradlink.fedsim import FedConfig, run_simulation
from gradlink.metrics import contingency, purity, rand_index
from gradlink.model import ModelConfig, layer_names


def _small_trace(k=3, t=4, seed=0, **fed_kwargs):
    spec = SyntheticSpec(n_clients=k, train_sentences=12, valid_sentences=3, overlap=0.0)
    shards, vocab = generate_synthetic(spec, seed)
    fed_kwargs.setdefault("server_lr", 0.1)
    fed = FedConfig(clients=k, rounds=t, seed=seed, **fed_kwargs)
    mcfg = ModelConfig(vocab_size=vocab.size, embed_dim=8, context=3, n_blocks=2, ffn_mult=2)
    return run_simulation(fed, mcfg, shards)


# ---------------------------------------------------------------- features


def test_feature_rows_unit_norm_and_ordered():
    trace, _, _ = _small_trace()
    f = build_features(trace, "both")
    norms = np.linalg.norm(f.values, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-10)
    # row t * K + slot is trace row t * K + slot, its layers in selector order
    raw = np.concatenate(
        [trace.updates[:, _manifest_columns(trace, name)] for name in layer_names("both", 2)],
        axis=1, dtype=np.float64,
    )
    np.testing.assert_allclose(f.values * np.linalg.norm(raw, axis=1, keepdims=True), raw,
                               rtol=1e-10, atol=1e-12)


def _manifest_columns(trace, name):
    """Columns of `name` in the update matrix, found through the manifest."""
    offset = 0
    for layer, rows, cols in trace.layer_manifest:
        if layer == name:
            return slice(offset, offset + rows * cols)
        offset += rows * cols
    raise KeyError(name)


def test_feature_fc_is_prefix_of_both_pre_normalization():
    trace, _, _ = _small_trace()
    both = build_features(trace, "both")
    fc = build_features(trace, "fc")
    assert both.values.shape[1] > fc.values.shape[1]
    row = trace.updates[0].astype(np.float64)
    raw = {name: row[_manifest_columns(trace, name)] for name, _, _ in trace.layer_manifest}
    raw_fc = np.concatenate([raw[f"block{i}.fc"] for i in (1, 2)])
    raw_both_prefix = both.values[0][: raw_fc.size] * np.linalg.norm(
        np.concatenate([raw_fc, raw["block1.proj"], raw["block2.proj"]])
    )
    np.testing.assert_allclose(raw_both_prefix, raw_fc, rtol=1e-10, atol=1e-12)


def test_feature_selector_mismatch_is_usage_error():
    trace, _, _ = _small_trace()
    with pytest.raises(UsageError):
        build_features(trace, "both@7")
    unnamed = [(f"layer{i}", rows, cols) for i, (_, rows, cols) in enumerate(trace.layer_manifest)]
    with pytest.raises(UsageError):
        build_features(dataclasses.replace(trace, layer_manifest=unnamed), "both")


def test_zero_gradient_record_substitutes_e1(caplog):
    trace, _, _ = _small_trace()
    trace.updates[4] = 0.0  # round 1, slot 1
    with caplog.at_level(logging.WARNING, logger="gradlink.attack"):
        f = build_features(trace, "both")
    row = f.values[1 * 3 + 1]  # row t * K + slot
    assert row[0] == 1.0 and np.all(row[1:] == 0.0)
    assert any("zero gradient" in m for m in caplog.messages)


# ---------------------------------------------------------------- k-means


def test_kmeans_separated_blobs():
    pts = np.array([[0.0], [0.1], [10.0], [10.1]])
    labels = kmeans_points(pts, 2, seed=0)
    assert labels[0] == labels[1]
    assert labels[2] == labels[3]
    assert labels[0] != labels[2]


def test_kmeans_k_equals_n_gives_singletons():
    pts = np.arange(5, dtype=float).reshape(-1, 1) * 3.0
    labels = kmeans_points(pts, 5, seed=0)
    assert len(set(labels.tolist())) == 5


@pytest.mark.parametrize("distinct, copies, k", [(3, 2, 5), (3, 2, 6), (2, 4, 7), (4, 3, 9)])
def test_kmeans_repair_never_empties_another_cluster(distinct, copies, k):
    """With k two or more above the distinct rows, every distance is 0 after
    the first repair; a repair that took the only member of a cluster left
    it empty, and Lloyd then ran on NaN weights (a divide warning per pass)."""
    pts = np.repeat(np.eye(distinct), copies, axis=0)
    for seed in range(3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels = kmeans_points(pts, k, seed)
        assert np.all(np.bincount(labels, minlength=k) > 0)


def _brute_force_min_inertia(pts, k, chunk=1 << 15):
    """Minimum inertia over every assignment of points to k groups, via the
    sum-of-squares decomposition total - sum_k |sum_k|^2 / count_k. Labelings
    are enumerated in itertools.product order, `chunk` at a time; those with
    an empty group are rejected, and the first minimum wins ties."""
    n = pts.shape[0]
    total = float(np.sum(pts**2))
    place = k ** np.arange(n - 1, -1, -1)
    best = np.inf
    best_labels = None
    for start in range(0, k**n, chunk):
        index = np.arange(start, min(start + chunk, k**n))
        labels = index[:, None] // place % k  # (m, n), the last point varies fastest
        onehot = (labels[:, None, :] == np.arange(k)[None, :, None]).astype(np.float64)
        counts = onehot.sum(axis=2)  # (m, k)
        sums = onehot @ pts  # (m, k, dim)
        with np.errstate(divide="ignore", invalid="ignore"):
            inertia = total - ((sums**2).sum(axis=2) / counts).sum(axis=1)
        inertia[(counts == 0).any(axis=1)] = np.inf
        i = int(np.argmin(inertia))
        if inertia[i] < best:
            best = float(inertia[i])
            best_labels = labels[i]
    return best, best_labels


def test_kmeans_matches_brute_force_on_sphere_bundles():
    rng = np.random.default_rng(0)
    centers = np.eye(3)
    pts = []
    for c in centers:
        for _ in range(4):
            v = c + 0.05 * rng.normal(size=3)
            pts.append(v / np.linalg.norm(v))
    pts = np.array(pts)
    labels = kmeans_points(pts, 3, seed=1)
    _, best_labels = _brute_force_min_inertia(pts, 3)
    assert rand_index(contingency(labels, best_labels)) == 1.0


def _oracle_kmeans_pp_init(x, k, rng):
    """k-means++ seeding on the points themselves: the point-space code that
    Gram k-means replaced, kept verbatim as its oracle."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total == 0.0:
            centers[i] = x[rng.integers(n)]
            continue
        probs = d2 / total
        centers[i] = x[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, np.sum((x - centers[i]) ** 2, axis=1))
    return centers


def _oracle_lloyd(x, centers, max_iter):
    k = centers.shape[0]
    labels = None
    prev_inertia = np.inf
    for _ in range(max_iter):
        d2 = (
            np.sum(x**2, axis=1)[:, None]
            + np.sum(centers**2, axis=1)[None, :]
            - 2.0 * (x @ centers.T)
        )
        new_labels = np.argmin(d2, axis=1)
        # repair empty clusters with the point farthest from its own centroid
        for c in range(k):
            if not np.any(new_labels == c):
                resid = np.sqrt(np.sum((x - centers[new_labels]) ** 2, axis=1))
                far = int(np.argmax(resid))
                new_labels[far] = c
                centers[c] = x[far]
        inertia = float(np.sum((x - centers[new_labels]) ** 2))
        if inertia > prev_inertia + 1e-9:
            raise NumericalError(
                f"k-means inertia increased from {prev_inertia} to {inertia}"
            )
        if labels is not None and np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
        for c in range(k):
            centers[c] = x[labels == c].mean(axis=0)
        prev_inertia = inertia
    final_inertia = float(np.sum((x - centers[labels]) ** 2))
    return labels, final_inertia


def _oracle_kmeans_points(x, k, seed, n_restarts=10, max_iter=300):
    x = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(seed)
    best_labels, best_inertia = None, np.inf
    for _ in range(n_restarts):
        centers = _oracle_kmeans_pp_init(x, k, rng)
        labels, inertia = _oracle_lloyd(x, centers.copy(), max_iter)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels


@pytest.mark.parametrize("seed", range(8))
def test_gram_kmeans_matches_point_space_oracle_on_sphere_bundles(seed):
    rng = np.random.default_rng(seed)
    n, dim = int(rng.integers(10, 61)), int(rng.integers(2, 501))
    bundles = rng.normal(size=(int(rng.integers(2, 8)), dim))
    spread = (0.05, 0.3, 1.0, 3.0)[seed % 4]
    pts = bundles[rng.integers(len(bundles), size=n)] + spread * rng.normal(size=(n, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    for k in (1, 2, len(bundles), int(rng.integers(1, n + 1)), n):
        np.testing.assert_array_equal(
            kmeans_points(pts, k, seed), _oracle_kmeans_points(pts, k, seed)
        )


@pytest.mark.parametrize("seed", range(6))
def test_gram_kmeans_matches_oracle_with_duplicate_rows(seed):
    """Every row twice. With k above the number of distinct rows, k-means++
    must seed two centres on equal points; their argmin tie leaves a cluster
    empty, so the repair runs. Small-integer coordinates keep every sum and
    product exact in both codes, so each exact tie breaks to the lowest index
    in both instead of by rounding."""
    rng = np.random.default_rng(100 + seed)
    distinct = 3 + seed
    base = np.unique(rng.integers(-3, 4, size=(distinct, 6)), axis=0).astype(np.float64)
    pts = np.repeat(base, 2, axis=0)[rng.permutation(2 * len(base))]
    for k in (1, len(base) - 1, len(base), len(base) + 1):
        np.testing.assert_array_equal(
            kmeans_points(pts, k, seed), _oracle_kmeans_points(pts, k, seed)
        )


def test_gram_lloyd_matches_oracle_from_centres_inside_the_hull():
    """Lloyd's loop alone, from centres that are random mixtures of the
    points. Many of them start with no member, so the empty-cluster repair
    runs, often several times in one pass, on points at positive distance
    from their centres; k-means++ seeding almost never leads there."""
    for seed in range(24):
        rng = np.random.default_rng(200 + seed)
        n, k = int(rng.integers(30, 61)), int(rng.integers(4, 13))
        pts = rng.normal(size=(n, int(rng.integers(2, 30))))
        weights = rng.dirichlet(np.ones(n), size=k)
        g, _ = _gram(pts, k)
        labels, _ = _lloyd(g, weights[None].copy())
        oracle_labels, _ = _oracle_lloyd(pts, weights @ pts, 300)
        np.testing.assert_array_equal(labels[0], oracle_labels)


# The sequential Gram k-means that the lockstep restarts replaced, kept
# verbatim as their oracle: one Lloyd loop per restart, seeded through
# Generator.choice. The point-space oracles above check it all end to end.


def _sequential_sq_dists(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    gw = g @ w.T
    return np.diag(g)[:, None] + np.sum(w * gw.T, axis=1)[None, :] - 2.0 * gw


def _sequential_kmeans_pp_init(pair_d2: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
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


def _sequential_lloyd(g: np.ndarray, w: np.ndarray):
    """Lloyd's loop on the Gram matrix. Each centre is a weight row `w[c]`:
    one-hot after seeding or repair, 1/|S| on its members after an update."""
    k = w.shape[0]
    rows = np.arange(g.shape[0])
    labels = None
    prev_inertia = np.inf
    for _ in range(KMEANS_MAX_ITER):
        d2 = _sequential_sq_dists(g, w)
        new_labels = np.argmin(d2, axis=1)
        # repair empty clusters with the point farthest from its own centroid,
        # among clusters of two or more, so no repair empties another cluster
        for c in range(k):
            if not np.any(new_labels == c):
                shared = np.bincount(new_labels, minlength=k)[new_labels] > 1
                far = int(np.argmax(np.where(shared, d2[rows, new_labels], -np.inf)))
                new_labels[far] = c
                w[c] = rows == far
                d2[:, c] = _sequential_sq_dists(g, w[c : c + 1])[:, 0]
        inertia = float(d2[rows, new_labels].sum())
        if inertia > prev_inertia + 1e-9:
            raise NumericalError(f"k-means inertia increased from {prev_inertia} to {inertia}")
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        members = labels[None, :] == np.arange(k)[:, None]
        w = members / members.sum(axis=1, keepdims=True)
        prev_inertia = inertia
    return labels, float(_sequential_sq_dists(g, w)[rows, labels].sum())


def _traced_sequential_lloyd(monkeypatch):
    """`_sequential_lloyd` that also returns, per call, its number of passes
    and whether it repaired an empty cluster in the pass it converged on:
    each pass asks for k distance columns at once, each repair for one, and
    the final inertia for k more."""
    widths = []

    def sq_dists(g, w, inner=_sequential_sq_dists):
        widths.append(w.shape[0])
        return inner(g, w)

    monkeypatch.setattr(sys.modules[__name__], "_sequential_sq_dists", sq_dists)

    def run(g, w):
        widths.clear()
        labels, inertia = _sequential_lloyd(g, w)
        k = w.shape[0]
        assert k > 1 and widths[-1] == k
        return labels, inertia, widths.count(k) - 1, widths[-2] == 1

    return run


def _lockstep_matches_sequential(g, w, run):
    """Assert that each restart of the (r, k, n) stack `w` ends in lockstep
    with the labels and, bit for bit, the inertia of its own sequential
    loop. Returns each restart's (passes, repaired in its last pass)."""
    labels, inertia = _lloyd(g, w.copy())
    assert labels.shape == w.shape[::2] and inertia.shape == w.shape[:1]
    traced = []
    for j in range(len(w)):
        oracle_labels, oracle_inertia, passes, last_repaired = run(g, w[j].copy())
        np.testing.assert_array_equal(labels[j], oracle_labels)
        assert _bits(inertia[j]) == _bits(oracle_inertia)
        traced.append((passes, last_repaired))
    return traced


def test_lockstep_lloyd_matches_sequential_oracle_on_duplicate_points(monkeypatch):
    """Every point twice and k above the distinct points, so an argmin tie
    empties a cluster in most passes, the pass of convergence included.
    Small-integer coordinates keep every tie exact in both codes. Restarts
    from one-hot seeds converge on different passes within one stack, and
    one that converges on a repair must keep its repaired weights."""
    run = _traced_sequential_lloyd(monkeypatch)
    spread, last_repairs = 0, 0
    for seed in range(12):
        rng = np.random.default_rng(300 + seed)
        base = rng.integers(-2, 3, size=(int(rng.integers(3, 7)), 2)).astype(np.float64)
        pts = np.repeat(base, 2, axis=0)
        n = len(pts)
        k = int(rng.integers(2, n))
        g, _ = _gram(pts, k)
        w = np.eye(n)[np.stack([rng.choice(n, size=k, replace=False) for _ in range(6)])]
        traced = _lockstep_matches_sequential(g, w, run)
        spread += len({passes for passes, _ in traced}) > 1
        last_repairs += sum(last_repaired for _, last_repaired in traced)
    assert spread >= 6 and last_repairs >= 6


def test_lockstep_lloyd_matches_sequential_oracle_from_centres_inside_the_hull(monkeypatch):
    """Stacks of random mixtures of Gaussian points: restarts repair at
    positive distances and run for different numbers of passes."""
    run = _traced_sequential_lloyd(monkeypatch)
    for seed in range(8):
        rng = np.random.default_rng(400 + seed)
        n, k = int(rng.integers(30, 61)), int(rng.integers(4, 13))
        pts = rng.normal(size=(n, int(rng.integers(2, 30))))
        g, _ = _gram(pts, k)
        w = rng.dirichlet(np.ones(n), size=(5, k))
        traced = _lockstep_matches_sequential(g, w, run)
        assert len({passes for passes, _ in traced}) > 1


def test_pp_index_is_generator_choice():
    """The seeding draw returns the index that Generator.choice returns for
    the same weights, zero entries among them, and leaves the generator in
    the same state; all-zero weights draw rng.integers(n) instead."""
    rng = np.random.default_rng(6)
    for _ in range(500):
        n = int(rng.integers(1, 130))
        d2 = rng.random(n) * (rng.random(n) < 0.6) * 10.0 ** int(rng.integers(-6, 7))
        d2[int(rng.integers(n))] = rng.random() + 0.5
        seed = int(rng.integers(2**32))
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _pp_index(d2, ours) == theirs.choice(n, p=d2 / d2.sum())
        assert ours.bit_generator.state == theirs.bit_generator.state
    for n in (1, 7, 120):
        ours, theirs = np.random.default_rng(n), np.random.default_rng(n)
        assert _pp_index(np.zeros(n), ours) == theirs.integers(n)
        assert ours.bit_generator.state == theirs.bit_generator.state
    # k above the distinct points reaches the all-zero draw inside the seeding
    pts = np.repeat(np.eye(3), 2, axis=0)
    _, pair_d2 = _gram(pts, 5)
    for seed in range(10):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        np.testing.assert_array_equal(
            _kmeans_pp_init(pair_d2, 5, ours), _sequential_kmeans_pp_init(pair_d2, 5, theirs)
        )
        assert ours.bit_generator.state == theirs.bit_generator.state


# ---------------------------------------------------------------- eigensolver


def test_eigen_identity():
    vals, vecs = symmetric_eigen(np.eye(3), 3)
    np.testing.assert_allclose(vals, [1, 1, 1], atol=1e-12)


def test_eigen_diagonal():
    vals, vecs = symmetric_eigen(np.diag([1.0, 2.0, 3.0]), 2)
    np.testing.assert_allclose(vals, [1.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(vecs), np.eye(3)[:, :2], atol=1e-12)


def _charpoly_roots(a):
    """Characteristic polynomial coefficients via the Faddeev-LeVerrier
    recurrence, then companion-matrix roots. Independent of the solver."""
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    return np.sort(np.roots(coeffs).real)


def test_eigen_matches_characteristic_polynomial_oracle():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 6))
    a = (a + a.T) / 2.0
    vals, _ = symmetric_eigen(a, 6)
    np.testing.assert_allclose(vals, _charpoly_roots(a), atol=1e-6)


def test_eigen_residual_and_orthonormality_bounds():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 33))
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2.0
        k = int(rng.integers(1, n + 1))
        vals, vecs = symmetric_eigen(a, k)
        fro = np.linalg.norm(a)
        resid = np.linalg.norm(a @ vecs - vecs * vals, axis=0)
        assert np.all(resid <= 1e-8 * fro)
        gram = vecs.T @ vecs
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-8
        assert np.all(np.diff(vals) >= -1e-12)


# ---------------------------------------------------------------- spectral


def test_spectral_two_blobs_match_connected_components():
    rng = np.random.default_rng(1)
    blob_a = rng.normal(size=(6, 2)) * 0.05
    blob_b = rng.normal(size=(6, 2)) * 0.05 + 50.0
    pts = np.vstack([blob_a, blob_b])
    labels = spectral_points(pts, 2, seed=0)
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    _, comp = connected_components(d < 1.0, directed=False)
    assert rand_index(contingency(labels, comp)) == 1.0


def test_spectral_k1_is_single_cluster():
    rng = np.random.default_rng(2)
    labels = spectral_points(rng.normal(size=(5, 3)), 1, seed=0)
    assert set(labels.tolist()) == {0}


def test_spectral_rejects_k_out_of_range():
    pts = np.random.default_rng(2).normal(size=(5, 3))
    for k in (0, 6):
        with pytest.raises(UsageError):
            spectral_points(pts, k, seed=0)


def test_spectral_duplicate_rows_share_a_cluster():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [9.0, 9.0], [9.0, 9.0]])
    labels = spectral_points(pts, 2, seed=0)
    assert labels[0] == labels[1]
    assert labels[2] == labels[3]


def _bits(x):
    return np.float64(x).view(np.uint64)


@pytest.mark.parametrize("n", [15, 20, 120])
def test_bandwidth_is_np_median_bit_for_bit(n):
    """The bandwidth is the median of the n (n - 1) / 2 pairwise distances:
    105, 190 and 7,140 of them, odd and even counts."""
    rng = np.random.default_rng(n)
    for _ in range(20):
        x = rng.normal(size=(n, 6))
        dist = np.sqrt(_gram(x, 1)[1])[np.triu_indices(n, k=1)]
        assert dist.size == n * (n - 1) // 2
        assert _bits(_median(dist)) == _bits(float(np.median(dist)))


def test_median_is_np_median_bit_for_bit():
    rng = np.random.default_rng(4)
    for size in list(range(1, 12)) + [1000, 1001]:
        for values in (rng.normal(size=size), rng.integers(0, 3, size=size) * 0.1,
                       rng.normal(size=size) * 1e300):
            assert _bits(_median(values)) == _bits(float(np.median(values)))
    with_nan = rng.normal(size=9)
    with_nan[4] = np.nan
    assert np.isnan(_median(with_nan))


def test_spectral_labels_equal_those_with_np_median(monkeypatch):
    rng = np.random.default_rng(5)
    x = np.vstack([rng.normal(size=(10, 4)) + c for c in (0.0, 3.0, 6.0)])
    labels = spectral_points(x, 3, seed=1)
    monkeypatch.setattr(attack, "_median", lambda values: float(np.median(values)))
    assert np.array_equal(spectral_points(x, 3, seed=1), labels)


def test_spectral_of_identical_points_is_one_cluster():
    """Every pairwise distance is 0, so the bandwidth is 0 and no affinity
    can be built: one cluster, whatever k asks for."""
    labels = spectral_points(np.ones((6, 3)), 3, seed=0)
    assert labels.dtype == np.int64 and labels.tolist() == [0] * 6


# ---------------------------------------------------------------- LSAP


def _brute_force_lsap(d):
    n = d.shape[0]
    best_cost, best_perm = np.inf, None
    for perm in itertools.permutations(range(n)):
        cost = float(d[np.arange(n), perm].sum())
        if cost < best_cost:
            best_cost, best_perm = cost, perm
    return best_cost, best_perm


def test_lsap_two_by_two():
    perm, cost = solve_lsap(np.array([[0.1, 0.9], [0.9, 0.1]]))
    np.testing.assert_array_equal(perm, [0, 1])
    assert cost == pytest.approx(0.2)


def test_lsap_identity_cost_matrix():
    d = 1.0 - np.eye(4)
    perm, cost = solve_lsap(d)
    np.testing.assert_array_equal(perm, np.arange(4))
    assert cost == 0.0


def test_lsap_rejects_bad_input():
    with pytest.raises(UsageError):
        solve_lsap(np.zeros((2, 3)))
    with pytest.raises(UsageError):
        solve_lsap(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_lsap_matches_brute_force_small():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4, 5):
        for _ in range(25):
            d = rng.random((n, n))
            perm, cost = solve_lsap(d)
            assert sorted(perm.tolist()) == list(range(n))
            bf_cost, _ = _brute_force_lsap(d)
            assert cost == pytest.approx(bf_cost, abs=0)


def test_lsap_beats_random_permutations():
    rng = np.random.default_rng(4)
    d = rng.random((9, 9))
    _, cost = solve_lsap(d)
    for _ in range(1000):
        perm = rng.permutation(9)
        assert cost <= float(d[np.arange(9), perm].sum()) + 1e-12


# ---------------------------------------------------------------- greedy


def _features_from_rows(rows, k, t):
    rows = np.asarray(rows, dtype=np.float64)
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    return FeatureMatrix(values=rows, clients=k, rounds=t)


def test_greedy_constructed_crossing():
    a = [1.0, 0.0]
    b = [0.0, 1.0]
    # round 0: slots (a, b); round 1: slots (b, a) -> chains cross
    f = _features_from_rows([a, b, b, a], k=2, t=2)
    labels = greedy_match(f)
    assert labels[0] == labels[3]
    assert labels[1] == labels[2]
    assert labels[0] != labels[1]


def test_greedy_identity_on_repeated_features():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(3, 6))
    f = _features_from_rows(np.vstack([base] * 4), k=3, t=4)
    labels = greedy_match(f).reshape(4, 3)
    for t in range(4):
        np.testing.assert_array_equal(labels[t], labels[0])


def test_greedy_groups_have_one_member_per_round():
    trace, _, _ = _small_trace(k=4, t=5)
    f = build_features(trace, "both")
    labels = greedy_match(f).reshape(5, 4)
    for t in range(5):
        assert sorted(labels[t].tolist()) == [0, 1, 2, 3]


def test_greedy_equivariant_under_round_permutation():
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(12, 8))
    f = _features_from_rows(rows, k=3, t=4)
    labels = greedy_match(f).reshape(4, 3)
    perm = np.array([2, 0, 1])
    permuted = rows.reshape(4, 3, 8).copy()
    permuted[2] = permuted[2][perm]
    f2 = _features_from_rows(permuted.reshape(12, 8), k=3, t=4)
    labels2 = greedy_match(f2).reshape(4, 3)
    np.testing.assert_array_equal(labels2[2], labels[2][perm])
    np.testing.assert_array_equal(labels2[0], labels[0])
    np.testing.assert_array_equal(labels2[1], labels[1])
    np.testing.assert_array_equal(labels2[3], labels[3])


def test_greedy_rejects_incomplete_rounds():
    rng = np.random.default_rng(7)
    f = _features_from_rows(rng.normal(size=(10, 4)), k=3, t=4)
    f = dataclasses.replace(f, values=f.values[:10])
    with pytest.raises(UsageError):
        greedy_match(f)


# ---------------------------------------------------------------- attack-level properties


def test_attacks_are_scale_invariant_in_one_record():
    trace, _, _ = _small_trace(k=3, t=4)
    updates = trace.updates.copy()
    updates[4] *= 37.5
    scaled = dataclasses.replace(trace, updates=updates)
    for method in ("greedy", "kmeans", "spectral"):
        f1 = build_features(trace, "both")
        f2 = build_features(scaled, "both")
        if method == "greedy":
            a1, a2 = greedy_match(f1), greedy_match(f2)
        elif method == "kmeans":
            a1, a2 = kmeans(f1, 3, seed=0), kmeans(f2, 3, seed=0)
        else:
            a1, a2 = spectral(f1, 3, seed=0), spectral(f2, 3, seed=0)
        np.testing.assert_array_equal(a1, a2)


def test_greedy_perfect_on_frozen_model():
    trace, truth, _ = _small_trace(k=4, t=5, server_lr=0.0)
    f = build_features(trace, "both")
    labels = greedy_match(f)
    assert purity(contingency(labels, truth.ravel())) == 1.0
