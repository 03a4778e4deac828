"""Corpus ingestion: filtering, vocabulary construction, sentence encoding,
and the stochastic sample streams consumed by the trainer.

Input corpora are plain UTF-8 text, one sentence per line, tokens separated
by whitespace. Parallel corpora are two such files of equal line count with
line i of one file aligned to line i of the other.
"""

from __future__ import annotations

import array
import collections
import contextlib
import functools
import numbers
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ConfigError, DataError, SamplingError

UNK_TOKEN = "<unk>"
UNK_ID = 0

# Sampled phrases (outer, inner, and noise spans) never have fewer words.
MIN_SPAN_LEN = 3

INT32_MAX = int(np.iinfo(np.int32).max)

# save_ids formats this many sentences at a time from one list of Python ints
IDS_WRITE_BLOCK = 1 << 10


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


def is_file_name(name: str) -> bool:
    """Whether ``name`` is one plain file-name component, as a language tag
    must be, since tags name the files of their language: not empty, ``.``
    or ``..``, and holding no path separator (``/`` or ``\\``) and no NUL."""
    return name not in ("", ".", "..") and not any(c in name for c in "/\\\0")


def check_tokens(path, tokens) -> None:
    """Refuse, before ``path`` is written, a token that a reader splitting
    its line on whitespace would not read back as one field: a DataError
    naming the token's row. A token that is no str fails in the write."""
    for row, token in enumerate(tokens):
        if isinstance(token, str) and token.split() != [token]:
            raise DataError(f"{path}: row {row} has token {token!r}, which is empty or holds whitespace")


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
        self.counts[1:] = counts
        negative = np.flatnonzero(self.counts < 0)
        if negative.size:
            i = negative[0]
            raise DataError(f"token {self.id_to_token[i]!r} has a negative count {self.counts[i]}")
        self.token_to_id = dict(zip(self.id_to_token, range(len(self.id_to_token))))
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
        """One ``token<TAB>count`` line per id; line 0 is always ``<unk>``.
        A token that :meth:`load` refuses is refused before anything is written."""
        check_tokens(path, self.id_to_token)
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
                # int() also takes signs, "_", spaces and non-ASCII digits,
                # which save never writes
                if not (count.isascii() and count.isdigit()):
                    raise ValueError(count)
                counts.append(int(count))
            except ValueError:
                raise DataError(f"{path}:{lineno}: expected 'token<TAB>count' with an integer count")
            # save never writes such a token, and a .vec row could not hold it
            if token.split() != [token]:
                raise DataError(f"{path}:{lineno}: token {token!r} is empty or holds whitespace")
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


def _token_ids(raw_sentence: str, vocab: Vocabulary, lowercase: bool, corpus_vocab) -> list[int]:
    tokens = raw_sentence.split()
    if lowercase:
        tokens = [t.lower() for t in tokens]
    if corpus_vocab is None:
        return [vocab.id_for(t) for t in tokens]
    return [vocab.id_for(t) if t in corpus_vocab else UNK_ID for t in tokens]


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
    return np.asarray(_token_ids(raw_sentence, vocab, lowercase, corpus_vocab), dtype=np.int32)


def _refuse_sentences(sentences, language_tag: str):
    """Raise the DataError naming the first sentence that is not a non-empty
    1-D sequence of integer ids in the int32 range: the slow path of
    ``EncodedCorpus(sentences)`` when they do not concatenate to one 1-D
    integer array."""
    corpus = f"{language_tag!r} corpus"
    for i, ids in enumerate(sentences):
        try:
            row = np.ndim(ids) == 1
        except ValueError:  # ragged nesting
            row = False
        if not row:
            raise DataError(f"{corpus} sentence {i} is not a 1-D sequence of ids")
        if len(ids) == 0:
            raise DataError(f"{corpus} sentence {i} holds no words")
        for v in ids:
            if not isinstance(v, numbers.Integral):
                raise DataError(f"{corpus} sentence {i} holds the non-integer id {v}")
            if v < 0:
                raise DataError(f"{corpus} holds the negative id {v}")
            if v > INT32_MAX:
                raise DataError(f"{corpus} holds the id {v}, outside the int32 range")
    raise DataError(f"{corpus} sentences do not form one integer id array")


class EncodedCorpus:
    """Encoded sentences of one language, stored flat with offsets: int32
    ids in ``flat``, int64 ``lengths`` and ``offsets``. Every sentence holds
    at least one word, and every id is >= 0.

    Every constructor builds the two flat buffers directly and ends in the
    checks of :meth:`from_flat`; none holds one array per sentence.
    Read-only after construction; safe to share across samplers and workers.
    """

    def __init__(self, sentences, language_tag: str = ""):
        """From an iterable of sentences, each a 1-D integer array or a list of ints."""
        if not isinstance(sentences, list):
            sentences = list(sentences)
        try:
            lengths = np.fromiter(map(len, sentences), np.int64, count=len(sentences))
            flat = np.concatenate(sentences) if sentences else np.zeros(0, dtype=np.int32)
        except (TypeError, ValueError):
            flat = None
        if flat is None or flat.ndim != 1 or flat.dtype.kind not in "iu":
            _refuse_sentences(sentences, language_tag)
        self._set(flat, lengths, language_tag)

    @classmethod
    def from_flat(cls, flat, lengths, language_tag: str = "") -> "EncodedCorpus":
        """The corpus of ``len(lengths)`` sentences whose sentence i is
        ``flat[offsets[i]:offsets[i + 1]]``, ``offsets`` being the running
        sum of ``lengths``. Both may be 1-D arrays of any integer dtype;
        int32 ids and int64 lengths are kept without a copy."""
        return cls.__new__(cls)._set(flat, lengths, language_tag)

    def _set(self, flat, lengths, language_tag: str) -> "EncodedCorpus":
        """Every construction ends here: the checks, then int32 ids and int64 lengths."""
        corpus = f"{language_tag!r} corpus"
        flat, lengths = np.asarray(flat), np.asarray(lengths)
        for name, a in (("ids", flat), ("lengths", lengths)):
            if a.ndim != 1 or a.dtype.kind not in "iu":
                raise DataError(
                    f"{corpus} {name} are not one 1-D integer array ({a.dtype}, shape {a.shape})"
                )
        if lengths.size and lengths.min() < 1:
            raise DataError(f"{corpus} sentence {lengths.argmin()} holds no words")
        if lengths.sum() != flat.size:
            raise DataError(f"{corpus} lengths add up to {lengths.sum()} ids, but it holds {flat.size}")
        if flat.size and flat.min() < 0:
            raise DataError(f"{corpus} holds the negative id {flat.min()}")
        if flat.size and not np.can_cast(flat.dtype, np.int32) and flat.max() > INT32_MAX:
            raise DataError(f"{corpus} holds the id {flat.max()}, outside the int32 range")
        self.language_tag = language_tag
        self.flat = flat.astype(np.int32, copy=False)
        self.lengths = lengths.astype(np.int64, copy=False)
        self.offsets = np.concatenate([[0], np.cumsum(self.lengths)])
        # only sentences long enough to host a phrase are sampled monolingually
        self.eligible = np.flatnonzero(self.lengths >= MIN_SPAN_LEN)
        return self

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
        """``encode`` of every line, appended to one id buffer."""
        ids, lengths = array.array("i"), array.array("q")
        for line in lines:
            before = len(ids)
            ids.extend(_token_ids(line, vocab, lowercase, corpus_vocab))
            lengths.append(len(ids) - before)
        return cls.from_flat(
            np.frombuffer(ids, dtype=np.int32), np.frombuffer(lengths, dtype=np.int64),
            vocab.language_tag,
        )

    def concat(self, other: "EncodedCorpus") -> "EncodedCorpus":
        if other.language_tag != self.language_tag:
            raise DataError("cannot concatenate corpora of different languages")
        return self.from_flat(
            np.concatenate([self.flat, other.flat]),
            np.concatenate([self.lengths, other.lengths]),
            self.language_tag,
        )

    def save_ids(self, path) -> None:
        """One sentence per line, ids space-separated."""
        with atomic_write(path) as f:
            for first in range(0, len(self), IDS_WRITE_BLOCK):
                bounds = self.offsets[first : first + IDS_WRITE_BLOCK + 1]
                ids = self.flat[bounds[0] : bounds[-1]].tolist()
                bounds = (bounds - bounds[0]).tolist()
                f.writelines(" ".join(map(str, ids[a:b])) + "\n" for a, b in zip(bounds, bounds[1:]))

    @classmethod
    def load_ids(cls, path, language_tag: str = "") -> "EncodedCorpus":
        ids, lengths = array.array("i"), array.array("q")
        for lineno, line in numbered_lines(path):
            tokens = line.split()
            if not tokens:
                raise DataError(f"{path}:{lineno}: empty sentence line")
            try:
                # int() also takes "+1", "1_0" and non-ASCII digits, which
                # save_ids never writes; a sign "-" is left to the negative-id check
                if not line.isascii() or "_" in line or "+" in line:
                    raise ValueError(line)
                ids.extend(map(int, tokens))
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer token id")
            except OverflowError:
                raise DataError(f"{path}:{lineno}: token id outside the int32 range")
            lengths.append(len(tokens))
        return cls.from_flat(
            np.frombuffer(ids, dtype=np.int32), np.frombuffer(lengths, dtype=np.int64), language_tag
        )


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
            c.from_flat(c.flat[: c.offsets[keep]].copy(), c.lengths[:keep].copy(), c.language_tag)
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
    """Collect flat[start:start+len] for many spans into one flat int64
    array: the positions are built in one buffer, which the gathered ids
    then overwrite."""
    seg_off = np.cumsum(lengths) - lengths
    pos = np.repeat((abs_starts - seg_off).astype(np.int64, copy=False), lengths)
    pos += np.arange(pos.size)
    pos[...] = flat[pos]
    return pos


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
