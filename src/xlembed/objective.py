"""Training losses and their exact sparse gradients.

Three pieces: the bilingual loss (squared euclidean distance between the
composed vectors of an aligned sentence pair), the monolingual inclusion
loss (a phrase should sit closer to its own sub-phrase than to a random
noise phrase, with an always-on sub-phrase distance term and length-ratio
scaling), and an L2 penalty applied stochastically to the rows touched by
each mini-batch. Batch losses are plain sums over samples, not means.

The batch path composes each language once: its pair side and its outer,
inner and noise phrases are laid end to end in one
:class:`~xlembed.embeddings.SpanComposition`, next to one upstream array of
the same shape. Both split into one view per set; the terms are plain maths
on the value views that write the upstream views, and the composition's
backward over that one upstream is the language's one gradient source in
the accumulator. The views are dropped once the terms have run, before the
accumulator sums anything, so each language's composition and upstream are
freed as soon as its gradient sums exist. Every span sums on its own and
no Bi bigram crosses a span, so each value, and each gradient cell's order
of terms, is that of the sets composed one by one.

A Bi batch of bilingual pairs alone, as every batch of the bilingual-only
epochs is, takes one pass over the columns instead: a pair's upstream in
column c needs only column c of both sides, so one backward, shared by
both languages in the accumulator, composes a block of columns of both
sides, takes their differences and pushes them down through the Bi
bigrams it has just computed, with no second gather and ``tanh``. The
differences go into one (n_pairs, d) array, squared and summed once after
the pass, so the loss and the gradient keep the bits of the two-pass path.
A batch with triples keeps that path, since its hinge needs every column
of a triple's distances before any upstream exists; so does Add, whose
backward recomputes nothing.

The path is dimension-major: compositions and the gradient accumulator work
one block of embedding columns at a time, and no per-position value or
gradient outlives a block. It reads the tables in place, correct on any
layout; :func:`xlembed.trainer.train` keeps them column-major, so each
block reads contiguous memory. The regularizer keeps no rows: once the
data gradient is summed, one pass of row blocks gathers each touched row
once from the still unchanged tables, for its loss and its gradient alike.
The blocks of one call run side by side on one thread per usable core
(:func:`xlembed.embeddings.run_blocks`); each writes only its own columns
or rows, so losses and gradients are bit-identical whatever the thread
count, and there is nothing to tune. The loss alone (:func:`batch_loss`)
composes every batch forward only and stops before the backward: the
regularizer's touched rows are the unique sampled ids, the same ids the
gradient is summed over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import PairBatch, SpanSet, TripleBatch
from .embeddings import (
    CompositionKind, SpanComposition, TablePair, cell_blocks, run_blocks,
)
from .errors import DataError


@dataclass
class LossBreakdown:
    bilingual: float
    mono_l1: float
    mono_l2: float
    regularizer: float
    total: float

    @classmethod
    def of(cls, bilingual=0.0, mono_l1=0.0, mono_l2=0.0, regularizer=0.0):
        return cls(
            bilingual,
            mono_l1,
            mono_l2,
            regularizer,
            bilingual + mono_l1 + mono_l2 + regularizer,
        )


# ---------------------------------------------------------------------------
# sparse gradient accumulation


class GradientAccumulator:
    """Sparse map (language_tag, word_id) -> d-vector of summed gradients.

    Each language has one source: an id array plus a function
    ``grads(cols)``. Several languages may be added with the same function;
    for the column slice ``cols`` it returns the gradients of each of their
    id arrays, in the order they were added, each as a dimension-major
    (width, ids.size) block. The source's unique ids are found when it is
    added. :meth:`coalesce` asks each function for one block of columns at
    a time and sums each column of each block into its language's unique
    rows with one ``bincount``, so no positions x dim gradient is ever
    built; every cell sums its terms from zero in position order. The
    blocks run through :func:`xlembed.embeddings.run_blocks`, one call per
    function: the languages that share one are summed in one call.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._sources: dict[str, tuple] = {}  # unique, inverse, grads

    def add(self, tag: str, ids, grads) -> None:
        if tag in self._sources:
            raise DataError(f"a gradient source for {tag!r} was already added")
        ids = np.asarray(ids, dtype=np.int64).ravel()
        if ids.size:
            self._sources[tag] = (*_unique_inverse(ids), grads)

    def touched(self) -> dict[str, np.ndarray]:
        """Unique ids per language, from the ids alone: no gradient block is
        computed."""
        return {tag: unique for tag, (unique, _, _) in self._sources.items()}

    def coalesce(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Unique ids per language with their summed gradient rows. Each
        function's languages leave the accumulator as they are summed, which
        frees their backward context (the compositions, the upstream arrays)
        once the sums exist; a second call returns ``{}``."""
        out = {}
        while self._sources:
            grads = next(iter(self._sources.values()))[2]
            tags = [tag for tag, (_, _, g) in self._sources.items() if g is grads]
            sources = [self._sources.pop(tag)[:2] for tag in tags]
            sums = [np.empty((unique.size, self.dim), dtype=np.float64) for unique, _ in sources]

            def sum_block(cols):
                for (unique, inverse), summed, block in zip(sources, sums, grads(cols)):
                    if block.shape != (cols.stop - cols.start, inverse.size):
                        raise DataError(
                            f"gradient block shape {block.shape} does not match ids {inverse.size}"
                        )
                    for c, column in enumerate(block, start=cols.start):
                        summed[:, c] = np.bincount(inverse, weights=column, minlength=unique.size)

            width = sum(inverse.size for _, inverse in sources)
            run_blocks(sum_block, cell_blocks(self.dim, width))
            out.update((tag, (unique, summed)) for tag, (unique, _), summed in zip(tags, sources, sums))
        return out


def _unique_inverse(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(ids, return_inverse=True)`` for non-negative ids, from a
    presence map over the id range instead of a sort."""
    present = np.zeros(int(ids.max()) + 1, dtype=bool)
    present[ids] = True
    unique = np.flatnonzero(present)
    slot = np.empty(present.size, dtype=np.int64)
    slot[unique] = np.arange(unique.size)
    return unique, slot[ids]


# ---------------------------------------------------------------------------
# batch loss and gradient


def _pair_term(side1, side2) -> float:
    """Sum of squared distances between the rows of two ``(values,
    upstream)`` view pairs; writes each side's upstream gradient."""
    (v1, up1), (v2, up2) = side1, side2
    diff = v1 - v2
    np.multiply(diff, 2.0, out=up1)
    np.multiply(diff, -2.0, out=up2)
    return float((diff * diff).sum())


def _triple_term(outer, inner, noise, batch: TripleBatch, margin: float) -> float:
    """Sum of [max(0, margin + d_in - d_no) + d_in] * len_inner / len_outer
    over the triples whose outer, inner and noise phrases are the
    ``(values, upstream)`` view pairs given; writes their upstream
    gradients. At the hinge kink the inactive branch is used."""
    (vo, up_out), (vi, up_in), (vn, up_noise) = outer, inner, noise
    diff_in = vo - vi
    diff_no = vo - vn
    d_in = (diff_in * diff_in).sum(axis=1)
    d_no = (diff_no * diff_no).sum(axis=1)
    ratio = batch.inner.lengths / batch.outer.lengths
    hinge = margin + d_in - d_no
    active = hinge > 0.0
    loss = float(((np.where(active, hinge, 0.0) + d_in) * ratio).sum())
    a = active.astype(np.float64)
    r = ratio[:, None]
    up_out[...] = r * ((1.0 + a)[:, None] * 2.0 * diff_in - a[:, None] * 2.0 * diff_no)
    up_in[...] = -r * (1.0 + a)[:, None] * 2.0 * diff_in
    up_noise[...] = (a * ratio)[:, None] * 2.0 * diff_no
    return loss


def _compose(acc: GradientAccumulator, kind, table, span_sets: list[SpanSet]):
    """Composes a language's span sets laid end to end in one
    :class:`SpanComposition`, added to ``acc`` as the language's gradient
    source with one upstream array, and returns one ``(values, upstream)``
    view pair per set; the terms write the upstream views. Each span sums
    on its own and Bi zeroes every span's last bigram, so every value is
    that of its set composed alone. A single set is composed as it is."""
    joined = span_sets[0] if len(span_sets) == 1 else SpanSet(
        np.concatenate([s.ids for s in span_sets]), np.concatenate([s.lengths for s in span_sets])
    )
    composition = SpanComposition(kind, table.matrix, joined)
    upstream = np.empty_like(composition.values)

    def grads(cols):
        return (composition.position_grads(upstream[:, cols].T, cols),)

    acc.add(table.language_tag, composition.span.ids, grads)
    bounds = np.cumsum([s.n for s in span_sets[:-1]])
    return zip(np.split(composition.values, bounds), np.split(upstream, bounds))


def _pair_pass(acc: GradientAccumulator, kind, tables: TablePair, pairs: PairBatch) -> np.ndarray:
    """Adds to ``acc`` the one backward of a batch of pairs alone, shared by
    both languages: for one block of columns it composes both sides
    (:meth:`SpanComposition.forward`), writes ``v1 - v2`` into the returned
    C-ordered (n_pairs, d) array, and pushes the upstreams ``+-2 (v1 - v2)``
    down through each side's forward block, with no second gather. So the
    array holds the pair term's differences, bit for bit those of
    :func:`_pair_term`, once ``acc.coalesce()`` has run."""
    sides = [
        SpanComposition(kind, tables.by_tag(tag).matrix, side, _forward=False)
        for tag, side in ((pairs.tag_l1, pairs.side_l1), (pairs.tag_l2, pairs.side_l2))
    ]
    diff = np.empty((pairs.n, tables.dim), dtype=np.float64)

    def backward(cols):
        (block1, sums1), (block2, sums2) = (side.forward(cols) for side in sides)
        d = sums1 - sums2
        diff[:, cols] = d.T
        grads2 = sides[1].position_grads(d * -2.0, cols, block2)
        del block2  # freed before the l1 side's backward
        return sides[0].position_grads(d * 2.0, cols, block1), grads2

    for tag, side in zip((pairs.tag_l1, pairs.tag_l2), sides):
        acc.add(tag, side.span.ids, backward)
    return diff


def _regularize(matrix: np.ndarray, ids: np.ndarray, summed, lam_eff: float) -> float:
    """``lam_eff * ||matrix[ids]||^2``, and, unless ``summed`` is None,
    ``summed += 2 * lam_eff * matrix[ids]``, in one pass of row blocks on
    the pool: each block gathers its rows once, writes their squares into
    one C-ordered (n, d) array, summed once over the whole array, and adds
    the rows, scaled in place, to its rows of ``summed``."""
    squares = np.empty((ids.size, matrix.shape[1]), dtype=np.float64)
    scale = 2.0 * lam_eff

    def block(part):
        rows = matrix[ids[part]]
        np.multiply(rows, rows, out=squares[part])
        if summed is not None:
            rows *= scale
            view = summed[part]
            view += rows

    run_blocks(block, cell_blocks(*squares.shape))
    return lam_eff * float(squares.sum())


def _batch(bi_samples, mono_samples_l1, mono_samples_l2, tables, kind, margin, lam, with_grad):
    """The loss of :func:`batch_loss_and_grad` and, ``with_grad``, its
    gradient. A Bi batch of pairs alone takes one pass over the columns for
    its forward and backward (:func:`_pair_pass`) when the gradient is asked
    for; every other batch, and the loss alone, composes each language first
    and runs the backward in the accumulator. Both modes share one tail: the
    touched ids, with their summed gradient rows or with None for the loss
    alone, go to :func:`_regularize`. Returns the breakdown and the
    gradient, or None without it."""
    kind = CompositionKind.coerce(kind)
    if margin < 0:
        raise DataError(f"margin must be >= 0, got {margin}")
    if lam < 0:
        raise DataError(f"lambda must be >= 0, got {lam}")
    acc = GradientAccumulator(tables.dim)

    pair_batch, triple_l1, triple_l2 = (
        b if b is not None and b.n else None for b in (bi_samples, mono_samples_l1, mono_samples_l2)
    )
    tag1, tag2 = tables.tags
    if triple_l1 is not None and triple_l1.language_tag != tag1:
        raise DataError(f"mono_samples_l1 carries tag {triple_l1.language_tag!r}, expected {tag1!r}")
    if triple_l2 is not None and triple_l2.language_tag != tag2:
        raise DataError(f"mono_samples_l2 carries tag {triple_l2.language_tag!r}, expected {tag2!r}")

    l_bi, l_mono, diff = 0.0, [0.0, 0.0], None
    if with_grad and kind is CompositionKind.BI and pair_batch and not (triple_l1 or triple_l2):
        diff = _pair_pass(acc, kind, tables, pair_batch)
    else:
        # each language's span sets, composed together in the order pair
        # side, outer, inner, noise; the terms take their views back in
        # that order
        span_sets: dict[str, list[SpanSet]] = {}
        if pair_batch:
            span_sets.setdefault(pair_batch.tag_l1, []).append(pair_batch.side_l1)
            span_sets.setdefault(pair_batch.tag_l2, []).append(pair_batch.side_l2)
        for triple in (triple_l1, triple_l2):
            if triple:
                span_sets.setdefault(triple.language_tag, []).extend(
                    (triple.outer, triple.inner, triple.noise)
                )
        views = {tag: _compose(acc, kind, tables.by_tag(tag), sets) for tag, sets in span_sets.items()}
        if pair_batch:
            l_bi = _pair_term(next(views[pair_batch.tag_l1]), next(views[pair_batch.tag_l2]))
        for i, triple in enumerate((triple_l1, triple_l2)):
            if triple:
                l_mono[i] = _triple_term(*views[triple.language_tag], triple, margin)
        # the views hold every language's values and upstream: dropped here,
        # each language's arrays are freed as soon as coalesce has summed it
        del views

    grads = acc.coalesce() if with_grad else {tag: (ids, None) for tag, ids in acc.touched().items()}
    if diff is not None:
        np.multiply(diff, diff, out=diff)
        l_bi = float(diff.sum())
    # the regularizer reads the tables, which no step has written yet, and
    # adds its rows after the data sums, so every per-row sum keeps a fixed
    # order
    n_touched = sum(ids.size for ids, _ in grads.values())
    reg = 0.0
    if lam > 0.0 and n_touched:
        lam_eff = lam * n_touched / tables.total_rows
        for tag in (tag1, tag2):
            if tag in grads:
                reg += _regularize(tables.by_tag(tag).matrix, *grads[tag], lam_eff)
    return LossBreakdown.of(l_bi, *l_mono, reg), grads if with_grad else None


def batch_loss_and_grad(
    bi_samples: PairBatch | None,
    mono_samples_l1: TripleBatch | None,
    mono_samples_l2: TripleBatch | None,
    tables: TablePair,
    kind="add",
    margin: float = 40.0,
    lam: float = 1.0,
) -> tuple[LossBreakdown, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Summed loss over a mixed batch plus its exact sparse gradient; the
    one batch path, shared by training and the gradient oracles.

    An absent or empty source may be None or a batch of zero samples.
    Rows touched by several samples accumulate additively, each row's terms
    summed in a fixed order whatever the column block width. The gradient
    maps each touched language to ``(ids, rows)``: its unique ids and their
    summed gradient rows. The regularizer follows the stochastic schedule on
    exactly those ids: every touched row w contributes
    lam_eff * ||w||^2 with gradient 2 * lam_eff * w, where
    lam_eff = lam * touched_rows / total_rows.
    """
    return _batch(bi_samples, mono_samples_l1, mono_samples_l2, tables, kind, margin, lam, True)


def batch_loss(bi_samples, mono_samples_l1, mono_samples_l2, tables, kind="add",
               margin: float = 40.0, lam: float = 1.0) -> LossBreakdown:
    """The loss of :func:`batch_loss_and_grad`, without its backward (used by
    finite-difference oracles): every batch is composed forward only."""
    return _batch(
        bi_samples, mono_samples_l1, mono_samples_l2, tables, kind, margin, lam, False
    )[0]
