"""Per-client non-IID text shards: a synthetic topic-partitioned generator
(one private topic vocabulary per client, with a tunable shared fraction) and
a loader for user-supplied text files, one file per client.
"""

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError, UsageError, check_fields, finite, integer, is_integer, read_input
from .rng import labeled_rng

PAD_ID = 0
UNK_ID = 1
RESERVED = ("<pad>", "<unk>")

# Sentences are truncated to this many tokens before windowing.
MAX_SENTENCE_TOKENS = 40

# The largest synthetic sentence length and vocabulary size: each is built
# in memory as int64 arrays, so a config rule refuses a larger one.
MAX_SYNTHETIC_SIZE = 10**6


@dataclass
class Vocab:
    id_to_token: List[str]
    token_to_id: Dict[str, int] = field(init=False)

    def __post_init__(self):
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise UsageError("duplicate tokens in vocabulary")

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        return np.array([self.token_to_id.get(t, UNK_ID) for t in tokens], dtype=np.int64)


@dataclass
class ClientShard:
    client_id: int
    train: List[np.ndarray]  # token-id sequences
    valid: List[np.ndarray]


@dataclass(frozen=True)
class SyntheticSpec:
    n_clients: int
    train_sentences: int = 64
    valid_sentences: int = 8
    sentence_len: Sequence[int] = (6, 12)  # [lo, hi], a list when read from JSON
    topic_vocab_size: int = 15
    shared_vocab_size: int = 20
    overlap: float = 0.1  # fraction of tokens drawn from the shared vocabulary

    def __post_init__(self):
        check_fields(self, {
            "n_clients": integer(2), "train_sentences": integer(0), "valid_sentences": integer(0),
            "sentence_len": (
                f"a list of two integers [lo, hi] with 2 <= lo <= hi <= {MAX_SYNTHETIC_SIZE}",
                lambda v: isinstance(v, (list, tuple)) and len(v) == 2
                and all(map(is_integer, v)) and 2 <= v[0] <= v[1] <= MAX_SYNTHETIC_SIZE),
            "topic_vocab_size": integer(1, MAX_SYNTHETIC_SIZE),
            "shared_vocab_size": integer(0, MAX_SYNTHETIC_SIZE),
            "overlap": finite("in [0, 1]", lambda v: 0 <= v <= 1),
        })


def generate_synthetic(spec: SyntheticSpec, seed: int) -> Tuple[List[ClientShard], Vocab]:
    """Each client draws tokens from a mixture: `overlap` from the shared
    vocabulary, the rest from its private topic vocabulary. Deterministic
    under seed."""
    tokens = list(RESERVED)
    shared_ids = np.arange(len(tokens), len(tokens) + spec.shared_vocab_size)
    tokens += [f"shared{j}" for j in range(spec.shared_vocab_size)]
    topic_ids = []
    for c in range(spec.n_clients):
        ids = np.arange(len(tokens), len(tokens) + spec.topic_vocab_size)
        tokens += [f"topic{c}_{j}" for j in range(spec.topic_vocab_size)]
        topic_ids.append(ids)
    vocab = Vocab(tokens)

    lo, hi = spec.sentence_len
    shards = []
    for c in range(spec.n_clients):
        rng = labeled_rng(seed, f"corpus.client{c}")
        sentences = []
        for _ in range(spec.train_sentences + spec.valid_sentences):
            length = int(rng.integers(lo, hi + 1))
            from_shared = rng.random(length) < spec.overlap
            # ids[rng.integers(0, len(ids), size)] draws what rng.choice(ids,
            # size) draws, and leaves the generator in the same state
            sent = np.where(
                from_shared & (spec.shared_vocab_size > 0),
                shared_ids[rng.integers(0, len(shared_ids), size=length)]
                if spec.shared_vocab_size else 0,
                topic_ids[c][rng.integers(0, len(topic_ids[c]), size=length)],
            ).astype(np.int64)
            sentences.append(sent)
        shards.append(
            ClientShard(
                client_id=c,
                train=sentences[: spec.train_sentences],
                valid=sentences[spec.train_sentences :],
            )
        )
    return shards, vocab


def _token_lines(fh) -> List[List[str]]:
    """The non-empty lines of the binary UTF-8 file `fh`, each split on
    whitespace and lowercased."""
    lines = [line.lower().split() for line in fh.read().decode("utf-8").splitlines()]
    return [toks for toks in lines if toks]


def load_text_shards(
    paths: Sequence,
    train_sentences: int = 64,
    valid_sentences: int = 8,
    freq_cutoff: int = 1,
) -> Tuple[List[ClientShard], Vocab]:
    """Load one UTF-8 text file per client (one sentence per line).

    Tokenization is whitespace + lowercase. The vocabulary is built from the
    train split with a frequency cutoff; rarer tokens map to UNK. A file's
    own `<unk>` and `<pad>` are the reserved tokens, UNK_ID and PAD_ID.
    Train is the leading sentences, valid the trailing ones."""
    per_client: List[Tuple[List[List[str]], List[List[str]]]] = []
    for path in paths:
        lines = read_input(path, "client corpus", _token_lines)
        if not lines:
            raise InputError(f"empty client corpus file: {path}")
        train = lines[:train_sentences]
        valid = lines[len(train) : len(train) + valid_sentences]
        per_client.append((train, valid))

    counts: Counter = Counter()
    for train, _ in per_client:
        for sent in train:
            counts.update(sent)
    kept = sorted(
        (tok for tok, n in counts.items() if n >= freq_cutoff and tok not in RESERVED),
        key=lambda tok: (-counts[tok], tok),
    )
    vocab = Vocab(list(RESERVED) + kept)

    shards = [
        ClientShard(
            client_id=cid,
            train=[vocab.encode(s) for s in train],
            valid=[vocab.encode(s) for s in valid],
        )
        for cid, (train, valid) in enumerate(per_client)
    ]
    return shards, vocab


def windows_from_sentences(sentences: Sequence[np.ndarray], context: int):
    """Sliding next-token windows over truncated sentences: (n, context)
    int64 windows and their (n,) int64 targets, sentence by sentence. One
    sliding view runs over the truncated sentences laid end to end, and the
    windows that start far enough from a sentence's end are gathered from
    it, so no window crosses two sentences."""
    kept = [s[:MAX_SENTENCE_TOKENS] for s in sentences]
    kept = [s for s in kept if len(s) > context]
    if not kept:
        rows = np.empty((0, context + 1), dtype=np.int64)
        return rows[:, :context], rows[:, context]
    lengths = np.array([len(s) for s in kept])
    counts = lengths - context  # windows per sentence
    offsets = np.cumsum(lengths) - lengths  # where each sentence starts in `tokens`
    before = np.cumsum(counts) - counts  # windows of the sentences before it
    starts = np.repeat(offsets - before, counts) + np.arange(counts.sum())
    tokens = np.concatenate([np.empty(0, dtype=np.int64), *kept])
    rows = sliding_window_view(tokens, context + 1)[starts]
    return rows[:, :context], rows[:, context]


def batch_iter(shard: ClientShard, batch_size: int, context: int, rng: np.random.Generator):
    """Yield (windows, targets) training mini-batches in a deterministic
    shuffled order; the final partial batch is included. A shard with no
    training window yields none."""
    if batch_size < 1:
        raise UsageError("batch_size must be >= 1")
    windows, targets = windows_from_sentences(shard.train, context)
    order = rng.permutation(windows.shape[0])
    for start in range(0, windows.shape[0], batch_size):
        idx = order[start : start + batch_size]
        yield windows[idx], targets[idx]
