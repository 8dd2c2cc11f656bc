import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradlink.corpus import (
    MAX_SENTENCE_TOKENS,
    UNK_ID,
    ClientShard,
    SyntheticSpec,
    Vocab,
    batch_iter,
    generate_synthetic,
    load_text_shards,
    windows_from_sentences,
)
from gradlink.errors import InputError, UsageError


def _token_set(shard):
    return set(int(t) for sent in shard.train + shard.valid for t in sent)


def test_overlap_zero_gives_disjoint_clients():
    spec = SyntheticSpec(n_clients=3, train_sentences=10, valid_sentences=2, overlap=0.0)
    shards, _ = generate_synthetic(spec, 0)
    sets = [_token_set(s) for s in shards]
    for i in range(3):
        for j in range(i + 1, 3):
            assert not (sets[i] & sets[j])


def test_overlap_one_draws_only_shared_tokens():
    spec = SyntheticSpec(
        n_clients=3, train_sentences=10, valid_sentences=2, overlap=1.0, shared_vocab_size=5
    )
    shards, vocab = generate_synthetic(spec, 0)
    shared = {vocab.token_to_id[f"shared{j}"] for j in range(5)}
    for s in shards:
        assert _token_set(s) <= shared


def test_generation_deterministic_under_seed():
    spec = SyntheticSpec(n_clients=2, train_sentences=5, valid_sentences=2)
    a, _ = generate_synthetic(spec, 123)
    b, _ = generate_synthetic(spec, 123)
    c, _ = generate_synthetic(spec, 124)
    for sa, sb in zip(a, b):
        for x, y in zip(sa.train + sa.valid, sb.train + sb.valid):
            np.testing.assert_array_equal(x, y)
    assert any(
        not np.array_equal(x, y)
        for sa, sc in zip(a, c)
        for x, y in zip(sa.train, sc.train)
    )


def test_train_valid_counts_and_disjoint_storage():
    spec = SyntheticSpec(n_clients=2, train_sentences=7, valid_sentences=3)
    shards, _ = generate_synthetic(spec, 0)
    for s in shards:
        assert len(s.train) == 7
        assert len(s.valid) == 3


@given(st.lists(st.sampled_from(["tok_a", "tok_b", "tok_c"]), min_size=1, max_size=15))
def test_vocab_round_trip(tokens):
    vocab = Vocab(["<pad>", "<unk>", "tok_a", "tok_b", "tok_c"])
    assert [vocab.id_to_token[i] for i in vocab.encode(tokens)] == tokens


def test_load_text_case_folding(tmp_path):
    paths = []
    for i, text in enumerate(["The the THE", "other words here"]):
        p = tmp_path / f"client{i}.txt"
        p.write_text(text, encoding="utf-8")
        paths.append(p)
    shards, vocab = load_text_shards(paths, train_sentences=1, valid_sentences=0)
    assert "the" in vocab.token_to_id
    assert "The" not in vocab.token_to_id
    np.testing.assert_array_equal(
        shards[0].train[0], [vocab.token_to_id["the"]] * 3
    )


def test_load_text_frequency_cutoff(tmp_path):
    p0 = tmp_path / "a.txt"
    p0.write_text("common common rare", encoding="utf-8")
    p1 = tmp_path / "b.txt"
    p1.write_text("common again", encoding="utf-8")
    shards, vocab = load_text_shards([p0, p1], train_sentences=1, valid_sentences=0, freq_cutoff=2)
    assert "rare" not in vocab.token_to_id
    assert shards[0].train[0][2] == UNK_ID


def test_load_text_twenty_clients(tmp_path):
    paths = []
    for i in range(20):
        p = tmp_path / f"c{i}.txt"
        p.write_text(f"client {i} words\nmore {i} text", encoding="utf-8")
        paths.append(p)
    shards, _ = load_text_shards(paths, train_sentences=1, valid_sentences=1)
    assert [s.client_id for s in shards] == list(range(20))


def test_load_text_missing_and_empty_files(tmp_path):
    with pytest.raises(InputError, match="missing"):
        load_text_shards([tmp_path / "nope.txt"])
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(InputError, match="empty"):
        load_text_shards([empty])


def test_window_count_five_token_sentence():
    windows, targets = windows_from_sentences([np.arange(5)], context=4)
    assert windows.shape == (1, 4)
    assert targets.shape == (1,)


def test_sentences_truncated_at_cap():
    long = np.arange(45)
    windows, _ = windows_from_sentences([long], context=4)
    assert windows.shape[0] == MAX_SENTENCE_TOKENS - 4
    assert windows.max() < MAX_SENTENCE_TOKENS


def test_batch_iter_counting_oracle():
    rng = np.random.default_rng(0)
    sentences = [np.arange(int(n)) for n in rng.integers(2, 50, size=12)]
    shard = ClientShard(client_id=0, train=sentences, valid=[])
    context = 4
    expected = sum(max(0, min(len(s), MAX_SENTENCE_TOKENS) - context) for s in sentences)
    total = sum(
        w.shape[0]
        for w, _ in batch_iter(shard, 8, context, np.random.default_rng(1))
    )
    assert total == expected


def test_batch_iter_deterministic_and_includes_partial_batch():
    shard = ClientShard(client_id=0, train=[np.arange(10)], valid=[])
    batches1 = list(batch_iter(shard, 4, 3, np.random.default_rng(5)))
    batches2 = list(batch_iter(shard, 4, 3, np.random.default_rng(5)))
    assert len(batches1) == 2  # 7 windows -> 4 + 3
    assert batches1[-1][0].shape[0] == 3
    for (w1, t1), (w2, t2) in zip(batches1, batches2):
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(t1, t2)


def test_batch_iter_empty_shard_is_usage_error():
    shard = ClientShard(client_id=0, train=[], valid=[])
    with pytest.raises(UsageError):
        next(batch_iter(shard, 4, 3, np.random.default_rng(0)))


def test_bad_spec_rejected():
    with pytest.raises(UsageError):
        SyntheticSpec(n_clients=1)
    with pytest.raises(UsageError):
        SyntheticSpec(n_clients=3, overlap=1.5)
