"""Deterministic in-memory inputs for the benchmark workloads.

Everything is derived from one integer seed with numpy's default generator,
so the same seed always yields the same inputs. The shape follows the
reference setup: Zipf word frequencies over the vocabulary (row 0 is
``<unk>``; 100,000 rows per language for training), Poisson(25) sentence
lengths clipped below at 3 and 40-dimensional tables. Language 2 is a seeded permutation of language 1, so
aligned pairs carry a word-for-word alignment signal.

Uses numpy and the standard library only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VOCAB = 100_000  # table rows per language at full size
DIM = 40
MEAN_LEN = 25
MIN_LEN = 3
ZIPF_S = 1.0
N_CLASSES = 4
TOPIC_WORDS = 50  # per class, drawn from the mid-frequency band
TOPIC_SHARE = 0.3  # chance that a document token is a topic word


def _letters(k: np.ndarray, width: int) -> np.ndarray:
    out = np.empty((k.size, width), dtype="U1")
    k = k.copy()
    for j in range(width - 1, -1, -1):
        out[:, j] = np.array(list("abcdefghijklmnopqrstuvwxyz"))[k % 26]
        k //= 26
    return np.array(["".join(row) for row in out])


def token_strings(prefix: str, vocab: int) -> np.ndarray:
    """Lowercase token text per id; id 0 is ``<unk>``."""
    words = np.empty(vocab, dtype=object)
    words[0] = "<unk>"
    words[1:] = [prefix + w for w in _letters(np.arange(1, vocab), 4)]
    return words


@dataclass
class Language:
    """Word ids 1..vocab-1 with Zipf frequencies (id 1 most frequent)."""

    cdf: np.ndarray
    perm: np.ndarray  # l1 id -> l2 id; perm[0] == 0

    @classmethod
    def make(cls, rng: np.random.Generator, vocab: int) -> "Language":
        weights = 1.0 / np.arange(1, vocab) ** ZIPF_S
        cdf = np.cumsum(weights)
        perm = np.concatenate([[0], 1 + rng.permutation(vocab - 1)])
        return cls(cdf / cdf[-1], perm)

    def ids(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random(n)
        return (np.searchsorted(self.cdf, u, side="right") + 1).astype(np.int32)


def lengths(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.maximum(rng.poisson(MEAN_LEN, n), MIN_LEN).astype(np.int64)


def split(flat: np.ndarray, lens: np.ndarray) -> list[np.ndarray]:
    """One view per sentence (slicing with Python ints is several times
    faster than ``np.split`` at 500k sentences)."""
    ends = np.cumsum(lens).tolist()
    return [flat[a:b] for a, b in zip([0] + ends[:-1], ends)]


@dataclass
class TrainInputs:
    """Encoded corpora for the train workloads (one id array per sentence)
    plus each language's id counts."""

    pairs_l1: list
    pairs_l2: list
    mono_l1: list | None
    mono_l2: list | None
    counts_l1: np.ndarray
    counts_l2: np.ndarray


def train_inputs(seed: int, vocab: int, n_pairs: int, n_mono: int) -> TrainInputs:
    """Aligned pairs (l2 is the word-for-word image of l1) plus, when
    ``n_mono`` is non-zero, one independent monolingual corpus per language."""
    rng = np.random.default_rng((seed, 0))
    lang = Language.make(rng, vocab)
    lens = lengths(rng, n_pairs)
    l1 = lang.ids(rng, int(lens.sum()))
    l2 = lang.perm[l1].astype(np.int32)
    mono = [None, None]
    if n_mono:
        for i, side_perm in enumerate((None, lang.perm)):
            m_lens = lengths(rng, n_mono)
            ids = lang.ids(rng, int(m_lens.sum()))
            if side_perm is not None:
                ids = side_perm[ids].astype(np.int32)
            mono[i] = (ids, m_lens)
    counts = []
    for side, m in ((l1, mono[0]), (l2, mono[1])):
        c = np.bincount(side, minlength=vocab)
        if m is not None:
            c = c + np.bincount(m[0], minlength=vocab)
        counts.append(c)
    return TrainInputs(
        split(l1, lens),
        split(l2, lens),
        split(*mono[0]) if mono[0] is not None else None,
        split(*mono[1]) if mono[1] is not None else None,
        counts[0],
        counts[1],
    )


@dataclass
class PipelineInputs:
    """Raw text, documents, tables and queries for the pipeline workload."""

    parallel_l1: list  # raw lines
    parallel_l2: list
    mono_l1: list
    mono_l2: list
    kept_pairs: int  # lines preprocess must keep
    kept_mono_l1: int
    kept_mono_l2: int
    tokens_l1: np.ndarray  # token text per table row, row 0 is <unk>
    tokens_l2: np.ndarray
    table_l1: np.ndarray
    table_l2: np.ndarray
    docs: dict  # (language, "train"/"test") -> [(label, doc_id, [lines])]
    queries: list  # l1 tokens


def _lines(words: np.ndarray, flat: np.ndarray, lens: np.ndarray) -> list[str]:
    return [" ".join(s) for s in split(words[flat], lens)]


def _fail(lines: list[str], rng: np.random.Generator, n: int) -> set[int]:
    """Uppercase n random lines so the lowercase-ratio filter drops them."""
    idx = rng.choice(len(lines), size=n, replace=False)
    for i in idx:
        lines[i] = lines[i].upper()
    return set(int(i) for i in idx)


def pipeline_inputs(
    seed: int, vocab: int, n_pairs: int, n_mono: int, n_fail: int, n_docs: int, n_queries: int
) -> PipelineInputs:
    """Raw parallel and monolingual text with ``n_fail`` uppercased lines per
    file, ``vocab``-row tables, labelled documents per language and split, and
    frequent l1 query words. Needs ``vocab`` >= 3000."""
    rng = np.random.default_rng((seed, 1))
    lang = Language.make(rng, vocab)
    words_l1 = token_strings("e", vocab)
    words_l2 = token_strings("d", vocab)

    lens = lengths(rng, n_pairs)
    flat = lang.ids(rng, int(lens.sum()))
    par_l1 = _lines(words_l1, flat, lens)
    par_l2 = _lines(words_l2, lang.perm[flat], lens)
    dropped = _fail(par_l1, rng, n_fail) | _fail(par_l2, rng, n_fail)
    mono = []
    for words, perm in ((words_l1, None), (words_l2, lang.perm)):
        m_lens = lengths(rng, n_mono)
        ids = lang.ids(rng, int(m_lens.sum()))
        lines = _lines(words, ids if perm is None else perm[ids], m_lens)
        _fail(lines, rng, n_fail)
        mono.append(lines)

    # l2 rows are the permuted l1 rows plus small noise, so translations are
    # each other's nearest neighbours and classifiers transfer across languages
    table_l1 = rng.normal(0.0, 0.1, size=(vocab, DIM))
    table_l2 = np.empty_like(table_l1)
    table_l2[lang.perm] = table_l1 + rng.normal(0.0, 0.01, size=table_l1.shape)

    topics = 200 + rng.choice(2000, size=(N_CLASSES, TOPIC_WORDS), replace=False)
    labels = [f"c{i}" for i in range(N_CLASSES)]
    docs = {}
    for lang_name, words, perm in (("l1", words_l1, None), ("l2", words_l2, lang.perm)):
        for part in ("train", "test"):
            out = []
            for d in range(n_docs):
                c = int(rng.integers(N_CLASSES))
                s_lens = np.maximum(rng.poisson(8, int(rng.integers(2, 12))), MIN_LEN)
                ids = lang.ids(rng, int(s_lens.sum()))
                topical = rng.random(ids.size) < TOPIC_SHARE
                ids[topical] = rng.choice(topics[c], size=int(topical.sum()))
                if perm is not None:
                    ids = perm[ids]
                out.append((labels[c], f"{lang_name}-{part}-{d}", _lines(words, ids, s_lens)))
            docs[(lang_name, part)] = out

    queries = list(words_l1[1 + rng.choice(min(5000, vocab - 1), size=n_queries, replace=False)])
    return PipelineInputs(
        par_l1, par_l2, mono[0], mono[1],
        n_pairs - len(dropped), n_mono - n_fail, n_mono - n_fail,
        words_l1, words_l2, table_l1, table_l2, docs, queries,
    )
