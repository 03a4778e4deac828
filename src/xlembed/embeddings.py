"""Embedding tables and the two composition functions with exact gradients.

The model parameters are nothing but one word-vector table per language.
Spans compose either by plain addition or by summing tanh over the vector
sums of adjacent word bigrams, which makes the result order sensitive.
Composition (:class:`SpanComposition`) runs dimension-major, one block of
embedding columns at a time; between the forward and the backward it keeps
no per-position values, only the span of every position. A caller may also
run both in its own pass over the columns, handing each block's forward to
the backward, which then gathers nothing again; the train step does so for
Bi batches of pairs alone. Training and evaluation
(:func:`compose_documents`) share it. The column blocks of a call run side
by side on a pool of one thread per usable core (:func:`run_blocks`); each
block writes only its own columns, so the results are bit-identical
whatever the thread count, and there is nothing to tune. Whatever depends
on the spans alone is built once per composition, before its blocks run,
so the blocks spend their time in numpy calls that release the GIL. The
same pool runs the blocks of rows of a train step's per-row work;
:func:`cell_blocks` cuts both.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor, wait
from enum import Enum

import numpy as np

from .corpus import SpanSet, atomic_write, numbered_lines
from .errors import CompositionError, DataError


class CompositionKind(Enum):
    ADD = "add"
    BI = "bi"

    @classmethod
    def coerce(cls, kind) -> "CompositionKind":
        if isinstance(kind, cls):
            return kind
        try:
            return cls(str(kind).lower())
        except ValueError:
            raise DataError(f"unknown composition kind {kind!r} (expected add or bi)")


class EmbeddingTable:
    """Dense vocab-size by dim matrix of word vectors for one language.

    It keeps the layout it is given, and so do its copies; only
    :func:`xlembed.trainer.train` fixes one (column-major), and every reader
    is correct on any. Writes go through the trainer's update path only.
    """

    def __init__(self, matrix: np.ndarray, language_tag: str = ""):
        self.matrix = matrix
        self.language_tag = language_tag

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    def __len__(self) -> int:
        return int(self.matrix.shape[0])

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(self.matrix.copy(order="K"), self.language_tag)


def init_table(
    vocab_size: int,
    dim: int,
    sigma: float = 0.1,
    seed=0,
    language_tag: str = "",
) -> EmbeddingTable:
    """Gaussian-initialized table, entries iid Normal(0, sigma^2).

    Deterministic for a fixed seed: the same seed always yields the
    bit-identical table.
    """
    if vocab_size < 1 or dim < 1:
        raise DataError(f"need vocab_size >= 1 and dim >= 1, got {vocab_size}x{dim}")
    if sigma <= 0:
        raise DataError(f"sigma must be positive, got {sigma}")
    rng = np.random.default_rng(seed)
    return EmbeddingTable(rng.normal(0.0, sigma, size=(vocab_size, dim)), language_tag)


class TablePair:
    """The full parameter set: one embedding table per language."""

    def __init__(self, table_l1: EmbeddingTable, table_l2: EmbeddingTable):
        if table_l1.language_tag == table_l2.language_tag:
            raise DataError("the two tables must carry different language tags")
        if table_l1.dim != table_l2.dim:
            raise DataError("the two tables must share the embedding dimension")
        self.l1 = table_l1
        self.l2 = table_l2
        self._by_tag = {table_l1.language_tag: table_l1, table_l2.language_tag: table_l2}

    @property
    def dim(self) -> int:
        return self.l1.dim

    @property
    def tags(self) -> tuple[str, str]:
        return (self.l1.language_tag, self.l2.language_tag)

    @property
    def total_rows(self) -> int:
        return len(self.l1) + len(self.l2)

    def by_tag(self, tag: str) -> EmbeddingTable:
        try:
            return self._by_tag[tag]
        except KeyError:
            raise DataError(f"no embedding table for language {tag!r}")

    def copy(self) -> "TablePair":
        return TablePair(self.l1.copy(), self.l2.copy())


# ---------------------------------------------------------------------------
# batched composition over flat span sets, one block of columns at a time

# cells per block: tiny batches take every column in one block,
# benchmark-scale span sets one column per block
BLOCK_CELLS = 1 << 16


def cell_blocks(n: int, width: int) -> list[slice]:
    """Consecutive slices covering ``n`` units (the columns or the rows of
    an array whose other axis holds ``width`` cells), each slice holding at
    most BLOCK_CELLS cells but at least one unit; none for ``n == 0``."""
    k = max(1, BLOCK_CELLS // max(width, 1))
    return [slice(i, min(i + k, n)) for i in range(0, n, k)]


def _block_pool() -> ThreadPoolExecutor | None:
    """One thread per usable core, or no pool on a single core. Threads
    start on the first multi-block call, so a process that composes only
    small span sets starts none."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return ThreadPoolExecutor(cores, thread_name_prefix="xlembed-block") if cores > 1 else None


BLOCK_POOL = _block_pool()


def run_blocks(block, blocks: list[slice]) -> None:
    """Call ``block(part)`` for every slice, side by side on BLOCK_POOL.
    The slices (:func:`cell_blocks`) may be of columns or of rows; each
    call must write only outputs that no other call writes, so the results
    do not depend on the thread count, and must not call run_blocks itself,
    since waiting on the pool from a pool thread can deadlock.

    One block or none, or any call without a pool, runs in the calling
    thread. Every pool call runs in a copy of the caller's context, so the
    caller's ``np.errstate`` holds there too. The first failing block's
    exception, in block order, reaches the caller once every block has
    finished.
    """
    if BLOCK_POOL is None or len(blocks) <= 1:
        for part in blocks:
            block(part)
        return
    futures = [
        BLOCK_POOL.submit(contextvars.copy_context().run, block, part) for part in blocks
    ]
    wait(futures)
    for future in futures:
        future.result()


class SpanComposition:
    """Composed vectors for a batch of spans, and the backward that pushes a
    per-span upstream gradient down to per-position gradients. Every span
    holds at least one word and every id is a row of ``matrix``; an empty
    span or an id outside the rows is a CompositionError.

    The work is dimension-major: each block of columns (:func:`cell_blocks`)
    gathers its columns for every position from ``matrix.T``; the blocks run
    through :func:`run_blocks`. ``matrix`` is read in place, on any layout,
    with the same results; the gathers read contiguous memory when it is
    column-major, as the trainer's tables are. ``values`` is C-ordered
    (n_spans, d). Nothing per position outlives a block but the span of
    every position: the Bi backward gathers its block again from the kept
    view ``matrix.T``, unless its caller hands it the forward block of
    :meth:`forward`. With ``_forward=False`` no ``values`` are composed: the
    caller runs :meth:`forward` and :meth:`position_grads` in its own pass
    over the column blocks, which is how the train step composes and
    differentiates a Bi batch of pairs alone.

    What depends on the spans alone is built once, before any block runs:
    the span starts for ``reduceat`` and the span-of-position index with
    which the backward expands its upstream rows. A block's work is then
    in ``take``, ``reduceat`` and ``tanh``, which release the GIL, so the
    blocks of a call run side by side (``ndarray.repeat``, which holds it,
    runs once, here).
    """

    def __init__(self, kind, matrix: np.ndarray, span: SpanSet, *, _forward: bool = True):
        self.kind = CompositionKind.coerce(kind)
        if span.n:
            if span.lengths.min() < 1:
                raise CompositionError(f"span {span.lengths.argmin()} holds no words")
            low, high = span.ids.min(), span.ids.max()
            if low < 0 or high >= matrix.shape[0]:
                raise CompositionError(
                    f"id {low if low < 0 else high} is not a row of the {matrix.shape[0]}-row table"
                )
        self.span = span
        self._columns = matrix.T
        starts = span.lengths.cumsum() - span.lengths
        if self.kind is CompositionKind.BI:
            # bigram p joins positions p and p + 1; none starts at a span's
            # last position, so that slot holds zero
            self._last = starts + span.lengths - 1
        self._span_of = np.repeat(np.arange(span.n), span.lengths)
        if not _forward:
            self._starts = starts  # for forward(), block by block
            return
        dim = self._columns.shape[0]
        sums = np.empty((dim, span.n), dtype=matrix.dtype)

        def block(cols):
            np.add.reduceat(self._block(cols), starts, axis=-1, out=sums[cols])

        run_blocks(block, cell_blocks(dim, span.ids.size))
        self.values = np.ascontiguousarray(sums.T)

    def forward(self, cols: slice) -> tuple[np.ndarray, np.ndarray]:
        """The forward of the columns ``cols`` of a composition made with
        ``_forward=False``: their block (:meth:`_block`) and its span sums,
        the (width, n_spans) block that ``values[:, cols].T`` would be."""
        block = self._block(cols)
        return block, np.add.reduceat(block, self._starts, axis=-1)

    def _block(self, cols: slice) -> np.ndarray:
        """The (width, n_positions) block whose span sums are ``values``:
        the word columns under Add, the bigram tanh under Bi."""
        rows = self._columns[cols].take(self.span.ids, axis=1)
        if self.kind is CompositionKind.ADD:
            return rows
        t = np.empty_like(rows)
        np.add(rows[:, :-1], rows[:, 1:], out=t[:, :-1])
        np.tanh(t[:, :-1], out=t[:, :-1])
        t[:, self._last] = 0.0
        return t

    def position_grads(self, upstream: np.ndarray, cols: slice, block=None) -> np.ndarray:
        """Gradient of every flat position for the columns ``cols``, as a
        dimension-major (width, n_positions) block, from the upstream of
        those columns, a (width, n_spans) block. Under Bi, ``block`` is the
        forward block of ``cols`` from :meth:`forward` when the caller has
        it in hand; it is then overwritten. Without it the block is
        gathered again."""
        up = upstream.take(self._span_of, axis=1)
        if self.kind is CompositionKind.ADD:
            return up
        # tanh' = 1 - tanh^2 of each bigram, which feeds its own position
        # and the next one
        d = self._block(cols) if block is None else block
        np.multiply(d, d, out=d)
        np.subtract(1.0, d, out=d)
        d[:, self._last] = 0.0
        np.multiply(d, up, out=d)
        out = up  # no longer needed: reuse its memory
        out[:, :1] = d[:, :1]
        np.add(d[:, 1:], d[:, :-1], out=out[:, 1:])
        return out


def compose_documents(documents, matrix: np.ndarray, kind) -> np.ndarray:
    """Two-level composition of documents, each a list of encoded id arrays,
    one row per document: a :class:`SpanComposition` over every sentence of
    the set, each of at least one word, then one over the sentence vectors.
    A one-word sentence under Bi composes to zero, so it does not abort."""
    kind = CompositionKind.coerce(kind)
    if not documents:
        raise CompositionError("cannot compose an empty document set")
    n_sentences = np.array([len(doc) for doc in documents], dtype=np.int64)
    if not n_sentences.all():
        raise CompositionError("cannot compose an empty document")
    if kind is CompositionKind.BI and (n_sentences < 2).any():
        raise CompositionError("Bi document composition needs at least two sentences")
    sentences = [ids for doc in documents for ids in doc]
    lengths = np.array([len(ids) for ids in sentences], dtype=np.int64)
    words = SpanSet(np.concatenate(sentences), lengths)
    sentence_vectors = SpanComposition(kind, matrix, words).values
    by_document = SpanSet(np.arange(lengths.size), n_sentences)
    return SpanComposition(kind, sentence_vectors, by_document).values


# ---------------------------------------------------------------------------
# text export format: header "<vocab_size> <dim>", then "token f1 ... fd"
# per line in id order, one file per language


def save_embeddings_text(path, tokens, matrix: np.ndarray) -> None:
    if len(tokens) != matrix.shape[0]:
        raise DataError(
            f"token count {len(tokens)} does not match matrix rows {matrix.shape[0]}"
        )
    # a row is its token and values split on whitespace, so a token must
    # read back as one field (one that is no str fails in the write below)
    bad = next(
        (i for i, token in enumerate(tokens) if isinstance(token, str) and token.split() != [token]),
        None,
    )
    if bad is not None:
        raise DataError(f"{path}: row {bad} has token {tokens[bad]!r}, which is empty or holds whitespace")
    with atomic_write(path) as f:
        f.write(f"{matrix.shape[0]} {matrix.shape[1]}\n")
        # one row's floats at a time: repr of a Python float is the text of
        # float(v)!r, and a whole-table tolist() would hold every value boxed;
        # a float64 table is not copied
        rows = np.asarray(matrix, dtype=np.float64)
        f.writelines(
            " ".join((token, *map(repr, row.tolist()))) + "\n" for token, row in zip(tokens, rows)
        )


def load_embeddings_text(path) -> tuple[list[str], np.ndarray]:
    lines = numbered_lines(path)
    try:
        header = next(lines, (1, ""))[1].split()
        # int() also takes signs, "_" and non-ASCII digits, which save never writes
        if not all(x.isascii() and x.isdigit() for x in header):
            raise ValueError(header)
        n, dim = map(int, header)
        matrix = np.empty((n, dim), dtype=np.float64)
    except ValueError:
        raise DataError(f"{path}:1: malformed header, expected '<vocab_size> <dim>'")
    except MemoryError:
        raise DataError(f"{path}:1: header gives {n} x {dim} values, too many to allocate")
    if dim < 1:
        raise DataError(f"{path}:1: header gives dim {dim}, expected >= 1")
    tokens = []
    for i, (lineno, line) in zip(range(n), lines):
        parts = line.split()
        if len(parts) != dim + 1:
            raise DataError(f"{path}:{lineno}: row {i} has {len(parts) - 1} values, expected {dim}")
        tokens.append(parts[0])
        try:
            # float() also takes "_" and non-ASCII digits, which save never
            # writes; tokens may hold both, so one test of the whole line at
            # C speed decides whether the values need a look
            if not line.isascii() or "_" in line:
                if not all(x.isascii() and "_" not in x for x in parts[1:]):
                    raise ValueError(line)
            matrix[i] = [float(x) for x in parts[1:]]
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric value in row {i}")
    if len(tokens) < n:
        raise DataError(f"{path}: header promises {n} rows, the file holds {len(tokens)}")
    for lineno, line in lines:
        if line.strip():
            raise DataError(f"{path}:{lineno}: a row past the {n} rows the header gives")
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise DataError(f"{path}:{bad[0] + 2}: non-finite value in row {bad[0]}")
    return tokens, matrix
