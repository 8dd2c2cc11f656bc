"""Per-client non-IID text shards: a synthetic topic-partitioned generator
(one private topic vocabulary per client, with a tunable shared fraction) and
a loader for user-supplied text files, one file per client.
"""

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import (
    ConfigError,
    InputError,
    UsageError,
    is_integer,
    require_finite,
    require_integers,
)
from .rng import labeled_rng

PAD_ID = 0
UNK_ID = 1
RESERVED = ("<pad>", "<unk>")

# Sentences are truncated to this many tokens before windowing.
MAX_SENTENCE_TOKENS = 40


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
    sentence_len: Tuple[int, int] = (6, 12)
    topic_vocab_size: int = 15
    shared_vocab_size: int = 20
    overlap: float = 0.1  # fraction of tokens drawn from the shared vocabulary

    def __post_init__(self):
        # types first; the ranges below keep their own messages
        counts = ("n_clients", "train_sentences", "valid_sentences", "topic_vocab_size",
                  "shared_vocab_size")
        require_integers(self, dict.fromkeys(counts, 0))
        require_finite(self, ("overlap",))
        if len(self.sentence_len) != 2 or not all(map(is_integer, self.sentence_len)):
            raise ConfigError(f"sentence_len must be two integers, got {self.sentence_len!r}")
        if self.n_clients < 2:
            raise UsageError("need at least 2 clients")
        if not 0.0 <= self.overlap <= 1.0:
            raise UsageError("overlap must be in [0, 1]")
        lo, hi = self.sentence_len
        if lo < 2 or hi < lo:
            raise UsageError("bad sentence length range")
        if self.topic_vocab_size < 1 or self.shared_vocab_size < 0:
            raise UsageError("bad vocabulary sizes")


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
            sent = np.where(
                from_shared & (spec.shared_vocab_size > 0),
                rng.choice(shared_ids, size=length) if spec.shared_vocab_size else 0,
                rng.choice(topic_ids[c], size=length),
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


def _tokenize(line: str) -> List[str]:
    return line.lower().split()


def load_text_shards(
    paths: Sequence,
    train_sentences: int = 64,
    valid_sentences: int = 8,
    freq_cutoff: int = 1,
) -> Tuple[List[ClientShard], Vocab]:
    """Load one UTF-8 text file per client (one sentence per line).

    Tokenization is whitespace + lowercase. The vocabulary is built from the
    train split with a frequency cutoff; rarer tokens map to UNK. Train is the
    leading sentences, valid the trailing ones."""
    per_client: List[Tuple[List[List[str]], List[List[str]]]] = []
    for path in paths:
        p = Path(path)
        if not p.is_file():
            raise InputError(f"missing client corpus file: {p}")
        lines = [_tokenize(ln) for ln in p.read_text(encoding="utf-8").splitlines()]
        lines = [toks for toks in lines if toks]
        if not lines:
            raise InputError(f"empty client corpus file: {p}")
        train = lines[:train_sentences]
        valid = lines[len(train) : len(train) + valid_sentences]
        per_client.append((train, valid))

    counts: Counter = Counter()
    for train, _ in per_client:
        for sent in train:
            counts.update(sent)
    kept = sorted(
        (tok for tok, n in counts.items() if n >= freq_cutoff),
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
    """Sliding next-token windows over truncated sentences."""
    windows, targets = [], []
    for sent in sentences:
        sent = sent[:MAX_SENTENCE_TOKENS]
        for i in range(len(sent) - context):
            windows.append(sent[i : i + context])
            targets.append(sent[i + context])
    if not windows:
        return np.zeros((0, context), dtype=np.int64), np.zeros(0, dtype=np.int64)
    return np.stack(windows).astype(np.int64), np.asarray(targets, dtype=np.int64)


def batch_iter(shard: ClientShard, batch_size: int, context: int, rng: np.random.Generator):
    """Yield (windows, targets) training mini-batches in a deterministic
    shuffled order; the final partial batch is included."""
    if batch_size < 1:
        raise UsageError("batch_size must be >= 1")
    if not shard.train:
        raise UsageError(f"shard {shard.client_id} has no train sentences")
    windows, targets = windows_from_sentences(shard.train, context)
    order = rng.permutation(windows.shape[0])
    for start in range(0, windows.shape[0], batch_size):
        idx = order[start : start + batch_size]
        yield windows[idx], targets[idx]
