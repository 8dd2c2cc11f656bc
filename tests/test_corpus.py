import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from gradlink import corpus
from gradlink.corpus import (
    MAX_SENTENCE_TOKENS,
    MAX_SYNTHETIC_SIZE,
    PAD_ID,
    UNK_ID,
    ClientShard,
    SyntheticSpec,
    Vocab,
    batch_iter,
    generate_synthetic,
    load_text_shards,
    windows_from_sentences,
)
from gradlink.errors import ConfigError, InputError
from gradlink.rng import labeled_rng


def _token_set(shard):
    return set(int(t) for sent in shard.train + shard.valid for t in sent)


def _choice_synthetic(spec, seed):
    """The generator as it drew tokens with `rng.choice`, one call per
    sentence and vocabulary: its shards and each client's generator at the
    end."""
    shared_ids = np.arange(2, 2 + spec.shared_vocab_size)
    topic_ids = [
        np.arange(start, start + spec.topic_vocab_size)
        for start in range(2 + spec.shared_vocab_size, 2 + spec.shared_vocab_size
                           + spec.n_clients * spec.topic_vocab_size, spec.topic_vocab_size)
    ]
    lo, hi = spec.sentence_len
    shards, rngs = [], []
    for c in range(spec.n_clients):
        rng = labeled_rng(seed, f"corpus.client{c}")
        sentences = []
        for _ in range(spec.train_sentences + spec.valid_sentences):
            length = int(rng.integers(lo, hi + 1))
            from_shared = rng.random(length) < spec.overlap
            sentences.append(np.where(
                from_shared & (spec.shared_vocab_size > 0),
                rng.choice(shared_ids, size=length) if spec.shared_vocab_size else 0,
                rng.choice(topic_ids[c], size=length),
            ).astype(np.int64))
        shards.append(sentences)
        rngs.append(rng)
    return shards, rngs


SYNTHETIC_CASES = {
    "defaults": {},
    "no-shared-vocabulary": dict(shared_vocab_size=0, overlap=0.5),
    "one-topic-token": dict(topic_vocab_size=1, overlap=0.3),
    "overlap-0": dict(overlap=0.0),
    "overlap-1": dict(overlap=1.0),
}


@pytest.mark.parametrize("case", SYNTHETIC_CASES)
def test_generation_equals_the_choice_generator(case, monkeypatch):
    """Each token draw is an index draw into the vocabulary, which draws the
    same numbers as `rng.choice` and leaves each client's generator in the
    same state, so every shard is bitwise the old one."""
    made = []

    def recording_rng(seed, label):
        made.append(labeled_rng(seed, label))
        return made[-1]

    monkeypatch.setattr(corpus, "labeled_rng", recording_rng)
    spec = SyntheticSpec(n_clients=3, train_sentences=6, valid_sentences=2,
                         **SYNTHETIC_CASES[case])
    for seed in (0, 1, 7, 123):
        made.clear()
        shards, _ = generate_synthetic(spec, seed)
        expected, expected_rngs = _choice_synthetic(spec, seed)
        for shard, sentences in zip(shards, expected):
            got = shard.train + shard.valid
            assert len(got) == len(sentences)
            for a, b in zip(got, sentences):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert [r.bit_generator.state for r in made] == [
            r.bit_generator.state for r in expected_rngs
        ]


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


def test_load_text_reserved_tokens_encode_to_their_ids(tmp_path):
    """Penn Treebank and WikiText write unknown words as `<unk>`."""
    paths = []
    for i, text in enumerate(["the <unk> sat\nthe cat <pad>", "a <UNK> ran\n<unk> ran"]):
        paths.append(tmp_path / f"client{i}.txt")
        paths[-1].write_text(text, encoding="utf-8")
    shards, vocab = load_text_shards(paths, train_sentences=2, valid_sentences=0)
    assert len(set(vocab.id_to_token)) == vocab.size
    assert vocab.id_to_token[:2] == ["<pad>", "<unk>"]
    assert [s.tolist() for s in shards[1].train] == [
        [vocab.token_to_id["a"], UNK_ID, vocab.token_to_id["ran"]],
        [UNK_ID, vocab.token_to_id["ran"]],
    ]
    assert shards[0].train[0][1] == UNK_ID and shards[0].train[1][2] == PAD_ID


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
    for sentences in ([], [np.arange(4), np.arange(1), np.arange(0)]):  # no window at all
        windows, targets = windows_from_sentences(sentences, context=4)
        assert (windows.shape, windows.dtype) == ((0, 4), np.int64)
        assert (targets.shape, targets.dtype) == ((0,), np.int64)


def test_windows_equal_the_per_position_loop():
    rng = np.random.default_rng(3)
    sentences = [rng.integers(0, 99, size=int(n)) for n in rng.integers(0, 50, size=30)]
    windows, targets = windows_from_sentences(sentences, context=3)
    pairs = [(s[i : i + 3].tolist(), int(s[i + 3]))
             for s in sentences for i in range(min(len(s), MAX_SENTENCE_TOKENS) - 3)]
    assert windows.dtype == targets.dtype == np.int64
    assert windows.tolist() == [w for w, _ in pairs]
    assert targets.tolist() == [t for _, t in pairs]


def _per_sentence_windows(sentences, context):
    """The windows as one sliding view per sentence, concatenated: the form
    that one view over the sentences laid end to end replaced."""
    rows = np.concatenate([np.empty((0, context + 1), dtype=np.int64)] + [
        sliding_window_view(s[:MAX_SENTENCE_TOKENS], context + 1)
        for s in sentences if min(len(s), MAX_SENTENCE_TOKENS) > context
    ])
    return rows[:, :context], rows[:, context]


WINDOW_CASES = {
    "empty-list": lambda c: [],
    "no-sentence-longer-than-context": lambda c: [np.arange(c + 1)[:n] for n in (c, 0, 1)],
    "exactly-context-plus-one": lambda c: [np.arange(c + 1), np.arange(50, 51 + c)],
    "longer-than-the-cap": lambda c: [np.arange(MAX_SENTENCE_TOKENS + 9),
                                      np.arange(60, 61 + MAX_SENTENCE_TOKENS)],
    "mixed": lambda c: [np.random.default_rng(n).integers(0, 99, size=n)
                        for n in (0, c, c + 1, 7, 45, 2, 40)],
}


@pytest.mark.parametrize("context", [1, 3, 4])
@pytest.mark.parametrize("case", WINDOW_CASES)
def test_windows_equal_the_per_sentence_views(case, context):
    got = windows_from_sentences(WINDOW_CASES[case](context), context)
    expected = _per_sentence_windows(WINDOW_CASES[case](context), context)
    for a, b in zip(got, expected):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


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


def test_batch_iter_empty_shard_yields_no_batch():
    """A shard without a training window yields no batch; training refuses
    such a shard (see `fedsim.local_training`)."""
    shard = ClientShard(client_id=0, train=[], valid=[])
    assert list(batch_iter(shard, 4, 3, np.random.default_rng(0))) == []


def test_bad_spec_rejected():
    with pytest.raises(ConfigError):
        SyntheticSpec(n_clients=1)
    with pytest.raises(ConfigError):
        SyntheticSpec(n_clients=3, overlap=1.5)


@pytest.mark.parametrize("key, at_max, beyond", [
    ("sentence_len", [2, MAX_SYNTHETIC_SIZE], [2, MAX_SYNTHETIC_SIZE + 1]),
    ("topic_vocab_size", MAX_SYNTHETIC_SIZE, MAX_SYNTHETIC_SIZE + 1),
    ("shared_vocab_size", MAX_SYNTHETIC_SIZE, MAX_SYNTHETIC_SIZE + 1),
])
def test_synthetic_sizes_are_bounded_and_the_rule_says_so(key, at_max, beyond):
    SyntheticSpec(n_clients=2, **{key: at_max})  # checked only, never generated
    with pytest.raises(ConfigError, match=rf"^{key} must be .* {MAX_SYNTHETIC_SIZE}\]?, got "):
        SyntheticSpec(n_clients=2, **{key: beyond})
