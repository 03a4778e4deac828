"""Corpus ingestion: filtering, vocabulary construction, sentence encoding,
and the stochastic sample streams consumed by the trainer.

Input corpora are plain UTF-8 text, one sentence per line, tokens separated
by whitespace. Parallel corpora are two such files of equal line count with
line i of one file aligned to line i of the other.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, DataError, SamplingError

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


def read_lines(path) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f]


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

    def save(self, path) -> None:
        """One ``token<TAB>count`` line per id; line 0 is always ``<unk>``."""
        with open(path, "w", encoding="utf-8") as f:
            for token, count in zip(self.id_to_token, self.counts):
                f.write(f"{token}\t{int(count)}\n")

    @classmethod
    def load(cls, path, language_tag: str = "") -> "Vocabulary":
        tokens, counts = [], []
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    token, count = line.split("\t")
                except ValueError:
                    raise DataError(f"{path}:{lineno + 1}: expected 'token<TAB>count'")
                tokens.append(token)
                counts.append(int(count))
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


@dataclass
class Sentence:
    word_ids: np.ndarray
    language_tag: str = ""

    def __len__(self) -> int:
        return int(self.word_ids.size)


@dataclass
class SentencePair:
    l1_sentence: Sentence
    l2_sentence: Sentence

    def __post_init__(self):
        if self.l1_sentence.language_tag == self.l2_sentence.language_tag:
            raise DataError("sentence pair sides must have different language tags")


def encode(
    raw_sentence: str,
    vocab: Vocabulary,
    lowercase: bool = False,
    corpus_vocab: Vocabulary | None = None,
) -> Sentence:
    """Map a whitespace-tokenized line to ids; out-of-vocabulary tokens get UNK.

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
    return Sentence(np.asarray(ids, dtype=np.int32), vocab.language_tag)


def decode(sentence: Sentence, vocab: Vocabulary) -> list[str]:
    return [vocab.token_for(int(i)) for i in sentence.word_ids]


class EncodedCorpus:
    """Encoded sentences of one language, stored flat with offsets.

    Read-only after construction; safe to share across samplers and workers.
    """

    def __init__(self, sentences, language_tag: str = ""):
        arrays = []
        for s in sentences:
            ids = s.word_ids if isinstance(s, Sentence) else s
            arrays.append(np.asarray(ids, dtype=np.int32))
        self.language_tag = language_tag
        self.lengths = np.array([a.size for a in arrays], dtype=np.int64)
        self.offsets = np.concatenate([[0], np.cumsum(self.lengths)])
        self.flat = (
            np.concatenate(arrays) if arrays else np.zeros(0, dtype=np.int32)
        )
        # only sentences long enough to host a phrase are sampled monolingually
        self.eligible = np.flatnonzero(self.lengths >= MIN_SPAN_LEN)

    def __len__(self) -> int:
        return int(self.lengths.size)

    @property
    def n_tokens(self) -> int:
        return int(self.flat.size)

    def sentence_ids(self, i: int) -> np.ndarray:
        return self.flat[self.offsets[i] : self.offsets[i + 1]]

    def sentence(self, i: int) -> Sentence:
        return Sentence(self.sentence_ids(i), self.language_tag)

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
        out = EncodedCorpus([], self.language_tag)
        out.lengths = np.concatenate([self.lengths, other.lengths])
        out.offsets = np.concatenate([[0], np.cumsum(out.lengths)])
        out.flat = np.concatenate([self.flat, other.flat])
        out.eligible = np.flatnonzero(out.lengths >= MIN_SPAN_LEN)
        return out

    def save_ids(self, path) -> None:
        """One sentence per line, ids space-separated."""
        with open(path, "w", encoding="utf-8") as f:
            for i in range(len(self)):
                f.write(" ".join(map(str, self.sentence_ids(i))))
                f.write("\n")

    @classmethod
    def load_ids(cls, path, language_tag: str = "") -> "EncodedCorpus":
        arrays = []
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f):
                line = line.strip()
                if not line:
                    raise DataError(f"{path}:{lineno + 1}: empty sentence line")
                try:
                    arrays.append(np.array([int(t) for t in line.split()], dtype=np.int32))
                except ValueError:
                    raise DataError(f"{path}:{lineno + 1}: non-integer token id")
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

    def pair(self, i: int) -> SentencePair:
        return SentencePair(self.l1.sentence(i), self.l2.sentence(i))

    def limited(self, n: int) -> "ParallelCorpus":
        """First n pairs (corpus-size cap for the bilingual conditions)."""
        keep = min(n, len(self))
        return ParallelCorpus(
            EncodedCorpus([self.l1.sentence_ids(i) for i in range(keep)], self.l1.language_tag),
            EncodedCorpus([self.l2.sentence_ids(i) for i in range(keep)], self.l2.language_tag),
        )


# ---------------------------------------------------------------------------
# training samples


@dataclass
class PhraseTriple:
    """One monolingual training sample: an outer span, a sub-span inside it,
    and a noise span from an independently sampled sentence."""

    outer_sentence: np.ndarray
    outer_start: int
    outer_end: int
    inner_start: int
    inner_end: int
    noise_sentence: np.ndarray
    noise_start: int
    noise_end: int
    language_tag: str = ""
    sentence_index: int = -1
    noise_index: int = -1

    @property
    def outer_ids(self) -> np.ndarray:
        return self.outer_sentence[self.outer_start : self.outer_end]

    @property
    def inner_ids(self) -> np.ndarray:
        return self.outer_sentence[self.inner_start : self.inner_end]

    @property
    def noise_ids(self) -> np.ndarray:
        return self.noise_sentence[self.noise_start : self.noise_end]

    @property
    def len_outer(self) -> int:
        return self.outer_end - self.outer_start

    @property
    def len_inner(self) -> int:
        return self.inner_end - self.inner_start

    @property
    def len_noise(self) -> int:
        return self.noise_end - self.noise_start

    def validate(self) -> None:
        ok = (
            self.len_outer >= MIN_SPAN_LEN
            and self.len_inner >= MIN_SPAN_LEN
            and self.len_noise >= MIN_SPAN_LEN
            and self.outer_start <= self.inner_start
            and self.inner_end <= self.outer_end
            and 0 <= self.outer_start
            and self.outer_end <= self.outer_sentence.size
            and 0 <= self.noise_start
            and self.noise_end <= self.noise_sentence.size
        )
        if not ok:
            raise DataError(f"invalid phrase triple: {self}")


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

    @classmethod
    def from_triples(cls, triples) -> "TripleBatch":
        triples = list(triples)
        if not triples:
            raise DataError("empty triple list")
        tag = triples[0].language_tag

        def spans(attr):
            parts = [getattr(t, attr) for t in triples]
            return SpanSet(
                np.concatenate(parts).astype(np.int64, copy=False),
                np.array([p.size for p in parts], dtype=np.int64),
            )

        return cls(tag, spans("outer_ids"), spans("inner_ids"), spans("noise_ids"))


@dataclass
class PairBatch:
    tag_l1: str
    tag_l2: str
    side_l1: SpanSet
    side_l2: SpanSet

    @property
    def n(self) -> int:
        return self.side_l1.n

    @classmethod
    def from_pairs(cls, pairs) -> "PairBatch":
        pairs = list(pairs)
        if not pairs:
            raise DataError("empty pair list")

        def spans(side):
            parts = [getattr(p, side).word_ids for p in pairs]
            return SpanSet(
                np.concatenate(parts).astype(np.int64, copy=False),
                np.array([p.size for p in parts], dtype=np.int64),
            )

        return cls(
            pairs[0].l1_sentence.language_tag,
            pairs[0].l2_sentence.language_tag,
            spans("l1_sentence"),
            spans("l2_sentence"),
        )


def _gather_spans(flat: np.ndarray, abs_starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Collect flat[start:start+len] for many spans into one flat array."""
    total = int(lengths.sum())
    seg_off = np.cumsum(lengths) - lengths
    pos = np.arange(total) - np.repeat(seg_off, lengths) + np.repeat(abs_starts, lengths)
    return flat[pos].astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# samplers


def sample_bilingual_pair(corpus: ParallelCorpus, rng: np.random.Generator) -> SentencePair:
    """One aligned pair drawn uniformly; whole sentences, no sub-spans."""
    if len(corpus) == 0:
        raise SamplingError("cannot sample from an empty parallel corpus")
    return corpus.pair(int(rng.integers(0, len(corpus))))


def _sample_span(rng: np.random.Generator, length: int) -> tuple[int, int]:
    # start uniform in [0, L-3], then end uniform in [start+3, L]
    start = int(rng.integers(0, length - MIN_SPAN_LEN + 1))
    end = int(rng.integers(start + MIN_SPAN_LEN, length + 1))
    return start, end


def sample_phrase_triple(corpus: EncodedCorpus, rng: np.random.Generator) -> PhraseTriple:
    """Draw one (outer, inner, noise) phrase triple.

    The outer sentence is uniform over sentences of length >= 3; the outer
    span's start and end are chosen uniformly in two stages, the inner span
    likewise within the outer span. The noise sentence is drawn uniformly and
    redrawn once if it collides with the outer sentence, then kept either
    way, so a single-sentence corpus noise-samples the outer sentence itself.
    """
    elig = corpus.eligible
    if elig.size == 0:
        raise SamplingError("no sentence of length >= 3 to sample phrases from")
    outer_idx = int(elig[rng.integers(0, elig.size)])
    length = int(corpus.lengths[outer_idx])
    o_start, o_end = _sample_span(rng, length)
    i_start = int(rng.integers(o_start, o_end - MIN_SPAN_LEN + 1))
    i_end = int(rng.integers(i_start + MIN_SPAN_LEN, o_end + 1))
    noise_idx = int(elig[rng.integers(0, elig.size)])
    if noise_idx == outer_idx and elig.size >= 2:
        noise_idx = int(elig[rng.integers(0, elig.size)])
    n_start, n_end = _sample_span(rng, int(corpus.lengths[noise_idx]))
    return PhraseTriple(
        outer_sentence=corpus.sentence_ids(outer_idx),
        outer_start=o_start,
        outer_end=o_end,
        inner_start=i_start,
        inner_end=i_end,
        noise_sentence=corpus.sentence_ids(noise_idx),
        noise_start=n_start,
        noise_end=n_end,
        language_tag=corpus.language_tag,
        sentence_index=outer_idx,
        noise_index=noise_idx,
    )


def sample_phrase_triples(corpus: EncodedCorpus, rng: np.random.Generator, n: int) -> TripleBatch:
    """Vectorized batch with the same per-sample distribution as
    :func:`sample_phrase_triple`."""
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
    if len(corpus) == 0:
        raise SamplingError("cannot sample from an empty parallel corpus")
    idx = rng.integers(0, len(corpus), size=n)

    def side(c: EncodedCorpus) -> SpanSet:
        lengths = c.lengths[idx]
        return SpanSet(_gather_spans(c.flat, c.offsets[idx], lengths), lengths)

    return PairBatch(
        corpus.l1.language_tag, corpus.l2.language_tag, side(corpus.l1), side(corpus.l2)
    )
