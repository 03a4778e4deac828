"""Corpus ingestion: filtering, vocabulary construction, sentence encoding,
and the stochastic sample streams consumed by the trainer.

Input corpora are plain UTF-8 text, one sentence per line, tokens separated
by whitespace. Parallel corpora are two such files of equal line count with
line i of one file aligned to line i of the other.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ConfigError, DataError, SamplingError

UNK_TOKEN = "<unk>"
UNK_ID = 0

# Sampled phrases (outer, inner, and noise spans) never have fewer words.
MIN_SPAN_LEN = 3


# ---------------------------------------------------------------------------
# filtering


def lowercase_ratio(raw_sentence: str) -> float:
    """Lowercase letters divided by all other non-whitespace characters.

    Lines with no non-lowercase characters (including empty lines) return
    inf and therefore survive any finite cutoff; digit- and uppercase-heavy
    lines score near zero and get filtered.
    """
    lower = other = 0
    for ch in raw_sentence:
        if ch.islower():
            lower += 1
        elif not ch.isspace():
            other += 1
    return lower / other if other else float("inf")


def passes_filter(line: str, cutoff: float, min_len: int = 3) -> bool:
    return lowercase_ratio(line) >= cutoff and len(line.split()) >= min_len


def filter_mono(lines, cutoff: float, min_len: int = 3) -> list[str]:
    """Drop sentences that fail the lowercase-ratio cutoff or are too short."""
    return [ln for ln in lines if passes_filter(ln, cutoff, min_len)]


def filter_parallel(pairs, cutoff_l1: float, cutoff_l2: float, min_len: int = 3):
    """Jointly filter aligned sentence pairs.

    A pair is removed when either side fails its language's cutoff or either
    side has fewer than ``min_len`` tokens, keeping the two sides aligned.
    """
    return [
        (a, b)
        for a, b in pairs
        if passes_filter(a, cutoff_l1, min_len) and passes_filter(b, cutoff_l2, min_len)
    ]


def numbered_lines(path, error=DataError):
    """(line number from 1, line without its newline) for every line of the
    UTF-8 text file ``path``, newlines read as in text mode. A byte sequence
    that is not UTF-8 raises ``error`` naming ``path:line``."""
    # undecodable bytes read as lone surrogates U+DC80..U+DCFF, which UTF-8 text never holds
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.isascii() and re.search("[\udc80-\udcff]", line):
                raise error(f"{path}:{lineno}: not UTF-8 text")
            yield lineno, line.rstrip("\n")


def read_lines(path) -> list[str]:
    return [line for _, line in numbered_lines(path)]


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Write ``path`` through ``path.tmp`` and ``os.replace``: a write that
    raises (or is interrupted) removes the temp file and leaves any existing
    ``path`` with its old bytes."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def read_parallel(path_l1, path_l2) -> list[tuple[str, str]]:
    lines1 = read_lines(path_l1)
    lines2 = read_lines(path_l2)
    if len(lines1) != len(lines2):
        raise AlignmentError(
            f"parallel files disagree on line count: {path_l1} has {len(lines1)}, "
            f"{path_l2} has {len(lines2)}"
        )
    return list(zip(lines1, lines2))


# ---------------------------------------------------------------------------
# vocabulary


class Vocabulary:
    """Token-id map with occurrence counts; id 0 is the reserved UNK sink."""

    def __init__(self, tokens, counts, unk_count: int = 0, language_tag: str = ""):
        self.language_tag = language_tag
        self.id_to_token = [UNK_TOKEN, *tokens]
        self.counts = np.empty(len(self.id_to_token), dtype=np.int64)
        self.counts[0] = unk_count
        self.counts[1:] = list(counts)
        self.token_to_id = {t: i + 1 for i, t in enumerate(tokens)}
        self.token_to_id[UNK_TOKEN] = UNK_ID
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("duplicate tokens in vocabulary")

    unk_id = UNK_ID

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token) -> bool:
        return token in self.token_to_id

    def id_for(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def token_for(self, word_id: int) -> str:
        return self.id_to_token[word_id]

    @functools.cached_property
    def lowercased(self) -> bool:
        """Every token equals its lowercase: evaluation text is lowercased before lookup."""
        return all(token == token.lower() for token in self.id_to_token)

    def save(self, path) -> None:
        """One ``token<TAB>count`` line per id; line 0 is always ``<unk>``."""
        with atomic_write(path) as f:
            for token, count in zip(self.id_to_token, self.counts):
                f.write(f"{token}\t{int(count)}\n")

    @classmethod
    def load(cls, path, language_tag: str = "") -> "Vocabulary":
        tokens, counts, line_of = [], [], {}
        for lineno, line in numbered_lines(path):
            if not line:
                continue
            try:
                token, count = line.split("\t")
                counts.append(int(count))
            except ValueError:
                raise DataError(f"{path}:{lineno}: expected 'token<TAB>count' with an integer count")
            if token in line_of:
                raise DataError(f"{path}:{lineno}: token {token!r} repeats line {line_of[token]}")
            line_of[token] = lineno
            tokens.append(token)
        if not tokens or tokens[0] != UNK_TOKEN:
            raise DataError(f"{path}: line 0 must be the UNK token {UNK_TOKEN!r}")
        return cls(tokens[1:], counts[1:], unk_count=counts[0], language_tag=language_tag)


def build_vocabulary(token_stream, unk_threshold: int, language_tag: str = "") -> Vocabulary:
    """Count tokens and retain those occurring at least ``unk_threshold`` times.

    Ids are assigned by descending frequency, ties broken lexicographically,
    so identical input always yields the identical id assignment. The counts
    of all dropped tokens are folded into the UNK entry.
    """
    if unk_threshold < 1:
        raise DataError(f"unk_threshold must be >= 1, got {unk_threshold}")
    counter = collections.Counter(token_stream)
    unk_count = counter.pop(UNK_TOKEN, 0)  # literal <unk> in input stays UNK
    retained = [t for t, c in counter.items() if c >= unk_threshold]
    retained.sort(key=lambda t: (-counter[t], t))
    counts = [counter[t] for t in retained]
    unk_count += sum(counter.values()) - sum(counts)
    return Vocabulary(retained, counts, unk_count=unk_count, language_tag=language_tag)


def merge_vocabularies(vocabs, language_tag: str | None = None) -> Vocabulary:
    """Union of per-corpus vocabularies into one language-level vocabulary.

    Counts of tokens retained in several corpora are summed; ids are
    reassigned by the same descending-frequency ordering as in
    :func:`build_vocabulary`.
    """
    if not vocabs:
        raise DataError("merge_vocabularies needs at least one vocabulary")
    tag = language_tag if language_tag is not None else vocabs[0].language_tag
    merged: collections.Counter = collections.Counter()
    unk_count = 0
    for v in vocabs:
        unk_count += int(v.counts[0])
        for token, count in zip(v.id_to_token[1:], v.counts[1:]):
            merged[token] += int(count)
    retained = sorted(merged, key=lambda t: (-merged[t], t))
    return Vocabulary(
        retained, [merged[t] for t in retained], unk_count=unk_count, language_tag=tag
    )


def iter_tokens(lines, lowercase: bool = False):
    for line in lines:
        for token in line.split():
            yield token.lower() if lowercase else token


# ---------------------------------------------------------------------------
# encoded sentences and corpora


def encode(
    raw_sentence: str,
    vocab: Vocabulary,
    lowercase: bool = False,
    corpus_vocab: Vocabulary | None = None,
) -> np.ndarray:
    """Map a whitespace-tokenized line to an int32 id array; out-of-vocabulary
    tokens get UNK.

    When ``corpus_vocab`` is given, tokens not retained in that per-corpus
    vocabulary also map to UNK even if the language vocabulary knows them
    (per-corpus UNK thresholds apply to each corpus separately).
    """
    tokens = raw_sentence.split()
    if lowercase:
        tokens = [t.lower() for t in tokens]
    if corpus_vocab is None:
        ids = [vocab.id_for(t) for t in tokens]
    else:
        ids = [vocab.id_for(t) if t in corpus_vocab else UNK_ID for t in tokens]
    return np.asarray(ids, dtype=np.int32)


class EncodedCorpus:
    """Encoded sentences of one language, stored flat with offsets. Every
    sentence holds at least one word, and every id is >= 0.

    Read-only after construction; safe to share across samplers and workers.
    """

    def __init__(self, sentences, language_tag: str = ""):
        arrays = [np.asarray(ids, dtype=np.int32) for ids in sentences]
        flat = np.concatenate(arrays) if arrays else np.zeros(0, dtype=np.int32)
        self._set(flat, np.array([a.size for a in arrays], dtype=np.int64), language_tag)

    def _set(self, flat, lengths, language_tag: str) -> "EncodedCorpus":
        """Every construction ends here: int32 ids end to end, int64 lengths."""
        if lengths.size and lengths.min() < 1:
            raise DataError(f"{language_tag!r} corpus sentence {lengths.argmin()} holds no words")
        if flat.size and flat.min() < 0:
            raise DataError(f"{language_tag!r} corpus holds the negative id {flat.min()}")
        self.language_tag, self.flat, self.lengths = language_tag, flat, lengths
        self.offsets = np.concatenate([[0], np.cumsum(lengths)])
        # only sentences long enough to host a phrase are sampled monolingually
        self.eligible = np.flatnonzero(lengths >= MIN_SPAN_LEN)
        return self

    @classmethod
    def _from_flat(cls, flat, lengths, language_tag: str) -> "EncodedCorpus":
        return cls.__new__(cls)._set(flat, lengths, language_tag)

    def __len__(self) -> int:
        return int(self.lengths.size)

    @property
    def n_tokens(self) -> int:
        return int(self.flat.size)

    def sentence_ids(self, i: int) -> np.ndarray:
        return self.flat[self.offsets[i] : self.offsets[i + 1]]

    @classmethod
    def from_raw(
        cls,
        lines,
        vocab: Vocabulary,
        lowercase: bool = False,
        corpus_vocab: Vocabulary | None = None,
    ) -> "EncodedCorpus":
        return cls(
            [encode(ln, vocab, lowercase, corpus_vocab) for ln in lines],
            language_tag=vocab.language_tag,
        )

    def concat(self, other: "EncodedCorpus") -> "EncodedCorpus":
        if other.language_tag != self.language_tag:
            raise DataError("cannot concatenate corpora of different languages")
        return self._from_flat(
            np.concatenate([self.flat, other.flat]),
            np.concatenate([self.lengths, other.lengths]),
            self.language_tag,
        )

    def save_ids(self, path) -> None:
        """One sentence per line, ids space-separated."""
        with atomic_write(path) as f:
            for i in range(len(self)):
                f.write(" ".join(map(str, self.sentence_ids(i))))
                f.write("\n")

    @classmethod
    def load_ids(cls, path, language_tag: str = "") -> "EncodedCorpus":
        arrays = []
        for lineno, line in numbered_lines(path):
            if not line.strip():
                raise DataError(f"{path}:{lineno}: empty sentence line")
            try:
                arrays.append(np.array([int(t) for t in line.split()], dtype=np.int32))
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer token id")
            except OverflowError:
                raise DataError(f"{path}:{lineno}: token id outside the int32 range")
        return cls(arrays, language_tag=language_tag)


class ParallelCorpus:
    """Two sentence-aligned encoded corpora with differing language tags."""

    def __init__(self, l1: EncodedCorpus, l2: EncodedCorpus):
        if len(l1) != len(l2):
            raise AlignmentError(
                f"parallel corpus sides have {len(l1)} and {len(l2)} sentences"
            )
        if l1.language_tag == l2.language_tag:
            raise DataError("parallel corpus sides must have different language tags")
        self.l1 = l1
        self.l2 = l2

    def __len__(self) -> int:
        return len(self.l1)

    def limited(self, n: int) -> "ParallelCorpus":
        """First n pairs (corpus-size cap for the bilingual conditions)."""
        if n < 0:
            raise ConfigError(f"pair limit must be >= 0, got {n}")
        keep = min(n, len(self))
        l1, l2 = (
            c._from_flat(c.flat[: c.offsets[keep]].copy(), c.lengths[:keep].copy(), c.language_tag)
            for c in (self.l1, self.l2)
        )
        return ParallelCorpus(l1, l2)


# ---------------------------------------------------------------------------
# training samples


@dataclass
class SpanSet:
    """A batch of variable-length spans: flat ids plus per-span lengths."""

    ids: np.ndarray
    lengths: np.ndarray

    @property
    def n(self) -> int:
        return int(self.lengths.size)


@dataclass
class TripleBatch:
    language_tag: str
    outer: SpanSet
    inner: SpanSet
    noise: SpanSet

    @property
    def n(self) -> int:
        return self.outer.n


@dataclass
class PairBatch:
    tag_l1: str
    tag_l2: str
    side_l1: SpanSet
    side_l2: SpanSet

    @property
    def n(self) -> int:
        return self.side_l1.n


def _gather_spans(flat: np.ndarray, abs_starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Collect flat[start:start+len] for many spans into one flat array."""
    seg_off = np.cumsum(lengths) - lengths
    pos = np.arange(int(lengths.sum())) + np.repeat(abs_starts - seg_off, lengths)
    return flat[pos].astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# samplers


def sample_phrase_triples(corpus: EncodedCorpus, rng: np.random.Generator, n: int) -> TripleBatch:
    """Draw n (outer, inner, noise) phrase triples.

    Each outer sentence is uniform over sentences of length >= 3; the outer
    span's start is uniform in [0, L-3], then its end uniform in
    [start+3, L], and the inner span is drawn likewise within the outer
    span. The noise sentence is drawn uniformly and redrawn once if it
    collides with the outer sentence, then kept either way, so a
    single-sentence corpus noise-samples the outer sentence itself.
    """
    elig = corpus.eligible
    if elig.size == 0:
        raise SamplingError("no sentence of length >= 3 to sample phrases from")
    outer_idx = elig[rng.integers(0, elig.size, size=n)]
    length = corpus.lengths[outer_idx]
    o_start = rng.integers(0, length - MIN_SPAN_LEN + 1)
    o_end = rng.integers(o_start + MIN_SPAN_LEN, length + 1)
    i_start = rng.integers(o_start, o_end - MIN_SPAN_LEN + 1)
    i_end = rng.integers(i_start + MIN_SPAN_LEN, o_end + 1)
    noise_idx = elig[rng.integers(0, elig.size, size=n)]
    if elig.size >= 2:
        collision = noise_idx == outer_idx
        if collision.any():
            noise_idx[collision] = elig[rng.integers(0, elig.size, size=int(collision.sum()))]
    n_length = corpus.lengths[noise_idx]
    n_start = rng.integers(0, n_length - MIN_SPAN_LEN + 1)
    n_end = rng.integers(n_start + MIN_SPAN_LEN, n_length + 1)

    def spans(idx, start, end):
        return SpanSet(
            _gather_spans(corpus.flat, corpus.offsets[idx] + start, end - start),
            (end - start).astype(np.int64, copy=False),
        )

    return TripleBatch(
        corpus.language_tag,
        spans(outer_idx, o_start, o_end),
        spans(outer_idx, i_start, i_end),
        spans(noise_idx, n_start, n_end),
    )


def sample_bilingual_pairs(corpus: ParallelCorpus, rng: np.random.Generator, n: int) -> PairBatch:
    """n aligned pairs drawn uniformly; whole sentences, no sub-spans."""
    if len(corpus) == 0:
        raise SamplingError("cannot sample from an empty parallel corpus")
    idx = rng.integers(0, len(corpus), size=n)

    def side(c: EncodedCorpus) -> SpanSet:
        lengths = c.lengths[idx]
        return SpanSet(_gather_spans(c.flat, c.offsets[idx], lengths), lengths)

    return PairBatch(
        corpus.l1.language_tag, corpus.l2.language_tag, side(corpus.l1), side(corpus.l2)
    )
