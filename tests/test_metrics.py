import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradlink import report
from gradlink.errors import UsageError
from gradlink.metrics import contingency, mutual_information, purity, rand_index
from gradlink.report import RANDOM_BASELINE_TRIALS, build_report, random_baseline, score


# ---------------------------------------------------------------- hand examples


def test_perfect_match_scores():
    table = contingency([0, 0, 1, 1, 2, 2], [0, 0, 1, 1, 2, 2])
    assert purity(table) == 1.0
    assert rand_index(table) == 1.0
    assert mutual_information(table) == pytest.approx(np.log(3), abs=1e-12)


def test_purity_hand_example():
    # cluster 0 holds classes {0,0,1}, cluster 1 holds {1}; (2+1)/4
    assert purity(contingency([0, 0, 0, 1], [0, 0, 1, 1])) == pytest.approx(0.75)


def test_purity_half():
    assert purity(contingency([0, 0, 1, 1], [0, 1, 0, 1])) == pytest.approx(0.5)


def test_rand_index_hand_example():
    # pairs: (0,1) together/together agree; (2,3) apart/apart agree;
    # (0,2),(0,3),(1,2),(1,3): pred apart, true (0,3),(1,2) mixed
    assert rand_index(contingency([0, 0, 1, 2], [0, 0, 1, 1])) == pytest.approx(5 / 6)


def test_rand_index_half():
    assert rand_index(contingency([0, 1, 0, 1], [0, 0, 1, 1])) == pytest.approx(1 / 3)


def test_single_cluster_prediction():
    table = contingency([0] * 6, [0, 1, 2, 0, 1, 2])
    assert purity(table) == pytest.approx(1 / 3)
    assert mutual_information(table) == pytest.approx(0.0, abs=1e-12)


def test_log_k_ceiling_anchors():
    """A perfect K-way balanced partition reaches the natural-log ceiling:
    1.099, 1.609, 2.303, 2.996 nats for K = 3, 5, 10, 20."""
    anchors = {3: 1.099, 5: 1.609, 10: 2.303, 20: 2.996}
    for k, expected in anchors.items():
        labels = np.repeat(np.arange(k), 4)
        assert mutual_information(contingency(labels, labels)) == pytest.approx(expected, abs=1e-3)


def test_degenerate_inputs_rejected():
    with pytest.raises(UsageError):
        contingency([], [])
    with pytest.raises(UsageError):
        contingency([0, 1], [0])
    with pytest.raises(UsageError):
        contingency([-1, 0], [0, 0])
    with pytest.raises(UsageError):
        rand_index(contingency([0], [0]))
    with pytest.raises(UsageError):
        rand_index(contingency(np.zeros((3, 1), dtype=np.int64), [0]))


# ---------------------------------------------------------------- brute-force oracles


def _purity_oracle(pred, true):
    total = Fraction(0)
    for c in set(pred):
        members = [t for p, t in zip(pred, true) if p == c]
        total += max(members.count(v) for v in set(members))
    return total / len(pred)


def _rand_oracle(pred, true):
    agree = 0
    pairs = list(itertools.combinations(range(len(pred)), 2))
    for i, j in pairs:
        if (pred[i] == pred[j]) == (true[i] == true[j]):
            agree += 1
    return Fraction(agree, len(pairs))


def _mi_oracle(pred, true):
    n = len(pred)
    mi = 0.0
    for c in set(pred):
        for d in set(true):
            nkj = sum(1 for p, t in zip(pred, true) if p == c and t == d)
            if nkj == 0:
                continue
            nk = pred.count(c)
            nj = true.count(d)
            mi += (nkj / n) * np.log(n * nkj / (nk * nj))
    return mi


def test_metrics_match_brute_force_on_random_partitions():
    rng = np.random.default_rng(0)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        pred = rng.integers(0, 4, size=n).tolist()
        true = rng.integers(0, 4, size=n).tolist()
        table = contingency(pred, true)
        assert purity(table) == float(_purity_oracle(pred, true))
        assert rand_index(table) == float(_rand_oracle(pred, true))
        assert mutual_information(table) == pytest.approx(
            _mi_oracle(pred, true), abs=1e-12
        )


# ---------------------------------------------------------------- properties


labels_pairs = st.integers(2, 10).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
    )
)


@settings(max_examples=100, deadline=None)
@given(labels_pairs, st.permutations(list(range(5))))
def test_scores_invariant_under_relabeling(pair, perm):
    pred, true = pair
    table, relabeled = contingency(pred, true), contingency([perm[p] for p in pred], true)
    assert purity(relabeled) == purity(table)
    assert rand_index(relabeled) == rand_index(table)
    assert mutual_information(relabeled) == pytest.approx(mutual_information(table), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(labels_pairs)
def test_ranges_and_mi_symmetry(pair):
    pred, true = pair
    table = contingency(pred, true)
    assert 0.0 <= purity(table) <= 1.0
    assert 0.0 <= rand_index(table) <= 1.0
    mi = mutual_information(table)
    assert mi >= 0.0
    assert mi == pytest.approx(mutual_information(contingency(true, pred)), abs=1e-12)
    k = len(set(pred) | set(true))
    assert mi <= np.log(max(k, 2)) + 1e-12


def test_mi_hits_ceiling_only_for_bijective_relabelings():
    """Over every predicted labeling of 6 points against a balanced 3-class
    truth, MI equals ln(3) exactly when the partition matches up to renaming."""
    true = [0, 0, 1, 1, 2, 2]
    ceiling = np.log(3)
    for pred in itertools.product(range(3), repeat=6):
        mi = mutual_information(contingency(list(pred), true))
        groups_match = {
            frozenset(i for i in range(6) if pred[i] == c) for c in set(pred)
        } == {frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})}
        if groups_match:
            assert mi == pytest.approx(ceiling, abs=1e-12)
        else:
            assert mi < ceiling - 1e-9


def test_purity_never_decreases_under_refinement():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(4, 12))
        true = rng.integers(0, 3, size=n)
        coarse = rng.integers(0, 3, size=n)
        # split each coarse cluster in two: a strictly finer partition
        fine = coarse * 2 + rng.integers(0, 2, size=n)
        assert purity(contingency(fine, true)) >= purity(contingency(coarse, true))


# ---------------------------------------------------------------- batched scoring


def test_score_rows_of_a_stack_equal_one_dimensional_calls():
    rng = np.random.default_rng(2)
    for k, n in ((2, 2), (3, 7), (5, 15), (20, 120)):
        true = rng.integers(0, k, size=n)
        preds = rng.integers(0, k + 2, size=(40, n))
        preds[0] = 0  # one cluster only
        batched = score(preds, true)
        for i, pred in enumerate(preds):
            single = score(pred, true)
            assert batched["purity"][i] == single["purity"]
            assert batched["rand_index"][i] == single["rand_index"]
            assert batched["mutual_information"][i] == pytest.approx(
                single["mutual_information"], abs=1e-12
            )


def test_a_score_builds_one_table_and_a_report_two(monkeypatch):
    """The three metrics of a labeling share one contingency table, so a
    report counts labels twice: the attack's labeling and the baseline's
    stack of random labelings."""
    shapes = []

    def counted(pred, true):
        shapes.append(np.shape(pred))
        return contingency(pred, true)

    monkeypatch.setattr(report, "contingency", counted)
    truth = np.tile(np.arange(5), (4, 1))
    header = {"clients": 5, "rounds": 4, "seed": 0, "loss_curve": [], "dp": None}
    assignment = {"clients": 5, "rounds": 4, "method": "greedy", "selector": "both",
                  "labels": truth.ravel().tolist()}
    build_report(header, assignment, truth)
    assert shapes == [(20,), (RANDOM_BASELINE_TRIALS, 20)]
    shapes.clear()
    score(truth, truth[0])
    assert shapes == [(4, 5)]


def _random_baseline_loop(true, clients, trials, seed):
    """Mean of per-trial 1-d scores, summed trial by trial."""
    rng = np.random.default_rng(seed)
    sums = {"purity": 0.0, "rand_index": 0.0, "mutual_information": 0.0}
    for _ in range(trials):
        pred = rng.integers(0, clients, size=len(true))
        for key, val in score(pred, true).items():
            sums[key] += val
    return {key: val / trials for key, val in sums.items()}


@pytest.mark.parametrize("clients, rounds", [(3, 5), (5, 3), (5, 4), (20, 6)])
def test_random_baseline_equals_the_per_trial_loop(clients, rounds):
    true = np.tile(np.arange(clients), rounds)
    for seed in (0, 7):
        got = random_baseline(true, clients, 300, seed)
        want = _random_baseline_loop(true, clients, 300, seed)
        assert got["trials"] == 300
        for key, val in want.items():
            assert got[key] == pytest.approx(val, abs=1e-12)


# ---------------------------------------------------------------- bitwise oracles
# The masked and per-term forms that the unmasked passes replace, kept as
# oracles: every value must match them bit for bit, not within a tolerance.


def _mi_masked(pred, true):
    table = contingency(pred, true)
    n = float(len(true))
    present = table > 0
    logs = n * table
    np.divide(logs, table.sum(axis=-1, keepdims=True) * table.sum(axis=-2, keepdims=True),
              out=logs, where=present)
    np.log(logs, out=logs, where=present)
    logs *= table / n
    return np.maximum(logs.sum(axis=(-2, -1)), 0.0)


def _rand_per_term(pred, true):
    table = contingency(pred, true)
    n = len(true)

    def pairs(counts, axis):
        return (counts * (counts - 1) // 2).sum(axis=axis)

    total = n * (n - 1) // 2
    return (total + 2 * pairs(table, (-2, -1)) - pairs(table.sum(axis=-1), -1)
            - pairs(table.sum(axis=-2), -1)) / total


def _purity_per_trial(pred, true):
    """Each trial's purity from its own labels: the largest class count of
    each predicted cluster, summed in Python and divided by n."""
    out = []
    for row in np.atleast_2d(pred).tolist():
        largest = {}
        for (cluster, _), count in Counter(zip(row, list(true))).items():
            largest[cluster] = max(largest.get(cluster, 0), count)
        out.append(sum(largest.values()) / len(row))
    return np.array(out)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _oracle_cases():
    rng = np.random.default_rng(3)
    yield [0, 1], [1, 0]  # K=2, n=2
    yield [0, 0], [0, 1]
    yield [0] * 6, [0, 1, 2, 0, 1, 2]  # a single predicted cluster
    yield [0, 3, 3, 0, 5, 5], [0, 0, 4, 4, 2, 2]  # empty rows and columns
    for k in (2, 3, 5, 20, 50):
        for n in (2, 7, 4 * k):
            true = rng.integers(0, k, size=n)
            yield rng.integers(0, k, size=n), true
            preds = rng.integers(0, k + 3, size=(30, n))  # some rows skip labels
            preds[0] = 0
            preds[1] = k + 2  # one cluster, far above every other label
            yield preds, true


def test_mi_and_rand_index_equal_the_masked_forms_bit_for_bit():
    for pred, true in _oracle_cases():
        table = contingency(pred, true)
        assert np.array_equal(_bits(mutual_information(table)), _bits(_mi_masked(pred, true)))
        assert np.array_equal(_bits(rand_index(table)), _bits(_rand_per_term(pred, true)))


@pytest.mark.parametrize("clients, rounds", [(5, 3), (5, 4), (10, 4), (20, 6)])
def test_random_baseline_equals_the_masked_forms_bit_for_bit(clients, rounds):
    true = np.random.default_rng(rounds).permuted(
        np.tile(np.arange(clients), (rounds, 1)), axis=1).ravel()
    got = random_baseline(true, clients, 1000, seed=11)
    preds = np.random.default_rng(11).integers(0, clients, size=(1000, true.size))
    for key, oracle in (("purity", _purity_per_trial), ("rand_index", _rand_per_term),
                        ("mutual_information", _mi_masked)):
        assert _bits(got[key]) == _bits(float(oracle(preds, true).mean())), key


@pytest.mark.parametrize("cells", [
    report.SCORE_BLOCK_CELLS,  # at K=20: six blocks of 163 trials and one of 22
    3 * 20 * 20,  # blocks of 3 trials, so 1000 trials end in a block of 1
    20 * 20,  # one trial per block
    7,  # fewer cells than one trial holds: still one trial per block
], ids=["default", "ragged", "one-trial", "under-one-trial"])
def test_blocked_scoring_equals_scoring_the_whole_stack_bit_for_bit(monkeypatch, cells):
    true = np.random.default_rng(6).permuted(np.tile(np.arange(20), (6, 1)), axis=1).ravel()
    preds = np.random.default_rng(12).integers(0, 20, size=(1000, true.size))
    table = contingency(preds, true)
    whole = {"purity": purity(table), "rand_index": rand_index(table),
             "mutual_information": mutual_information(table)}
    monkeypatch.setattr(report, "SCORE_BLOCK_CELLS", cells)
    got = score(preds, true)
    for key, want in whole.items():
        assert got[key].shape == (1000,)
        assert np.array_equal(_bits(got[key]), _bits(want)), key


@pytest.mark.parametrize("pred, true", [
    ([0.7, 1.2, 1.9], [0, 1, 1]),
    ([0, 1, 1], [0.0, 1.0, 1.0]),
    ([True, False, True], [0, 1, 1]),
    (np.array([0, 1, 1]), np.array([False, True, True])),
], ids=["float-pred", "float-true", "bool-pred", "bool-true"])
def test_non_integer_labels_are_rejected(pred, true):
    with pytest.raises(UsageError, match="integer dtype"):
        contingency(pred, true)


def test_unsigned_labels_score_as_signed():
    pred, true = [0, 1, 1, 2], [0, 0, 1, 1]
    unsigned = np.array(pred, dtype=np.uint8), np.array(true, dtype=np.uint32)
    assert score(*unsigned) == score(pred, true)
