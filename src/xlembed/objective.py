"""Training losses and their exact sparse gradients.

Three pieces: the bilingual loss (squared euclidean distance between the
composed vectors of an aligned sentence pair), the monolingual inclusion
loss (a phrase should sit closer to its own sub-phrase than to a random
noise phrase, with an always-on sub-phrase distance term and length-ratio
scaling), and an L2 penalty applied stochastically to the rows touched by
each mini-batch. Batch losses are plain sums over samples, not means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import PairBatch, TripleBatch
from .embeddings import (
    ComposedVector,
    CompositionKind,
    SpanComposition,
    TablePair,
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


def _values(v) -> np.ndarray:
    return np.asarray(v.values if isinstance(v, ComposedVector) else v, dtype=np.float64)


def _check_dims(*vecs):
    dims = {v.shape[-1] for v in vecs}
    if len(dims) != 1:
        raise DataError(f"dimension mismatch between composed vectors: {sorted(dims)}")


# ---------------------------------------------------------------------------
# per-sample losses


def bilingual_loss(v1, v2) -> float:
    """Squared euclidean distance between two composed sentence vectors."""
    a, b = _values(v1), _values(v2)
    _check_dims(a, b)
    diff = a - b
    return float(diff @ diff)


def bilingual_grad(v1, v2) -> tuple[np.ndarray, np.ndarray]:
    a, b = _values(v1), _values(v2)
    _check_dims(a, b)
    diff = a - b
    return 2.0 * diff, -2.0 * diff


def _mono_parts(a_out: ComposedVector, a_in: ComposedVector, b_noise: ComposedVector, margin):
    if margin < 0:
        raise DataError(f"margin must be >= 0, got {margin}")
    if a_in.source_len > a_out.source_len:
        raise DataError(
            f"inner phrase longer than outer: {a_in.source_len} > {a_out.source_len}"
        )
    ao, ai, bn = _values(a_out), _values(a_in), _values(b_noise)
    _check_dims(ao, ai, bn)
    diff_in = ao - ai
    diff_no = ao - bn
    d_in = float(diff_in @ diff_in)
    d_no = float(diff_no @ diff_no)
    ratio = a_in.source_len / a_out.source_len
    return diff_in, diff_no, d_in, d_no, ratio


def mono_loss(a_out: ComposedVector, a_in: ComposedVector, b_noise: ComposedVector, margin) -> float:
    """Inclusion loss for one (outer, inner, noise) phrase triple.

    With d_in the squared distance from the outer phrase to its sub-phrase
    and d_no the squared distance to the noise phrase, the loss is

        [max(0, margin + d_in - d_no) + d_in] * len_inner / len_outer

    The extra d_in term keeps an error signal alive after the hinge is
    satisfied; the length ratio compensates for span-length differences.
    """
    _, _, d_in, d_no, ratio = _mono_parts(a_out, a_in, b_noise, margin)
    return (max(0.0, margin + d_in - d_no) + d_in) * ratio


def mono_grad(a_out, a_in, b_noise, margin):
    """Exact partial derivatives of :func:`mono_loss` w.r.t. the three
    composed vectors. At the hinge kink the inactive branch is used."""
    diff_in, diff_no, d_in, d_no, ratio = _mono_parts(a_out, a_in, b_noise, margin)
    active = 1.0 if margin + d_in - d_no > 0.0 else 0.0
    g_out = ratio * ((1.0 + active) * 2.0 * diff_in - active * 2.0 * diff_no)
    g_in = -ratio * (1.0 + active) * 2.0 * diff_in
    g_noise = ratio * active * 2.0 * diff_no
    return g_out, g_in, g_noise


def l2_regularizer(tables: TablePair, lam: float) -> float:
    """Full penalty lam * sum of squared entries over both tables."""
    if lam < 0:
        raise DataError(f"lambda must be >= 0, got {lam}")
    return lam * tables.sq_norm()


# ---------------------------------------------------------------------------
# sparse gradient accumulation


class GradientAccumulator:
    """Sparse map (language_tag, word_id) -> d-vector of summed gradients.

    Scatter updates are appended as chunks (an id array plus matching rows)
    and summed into unique rows by :meth:`coalesce`, whose result stays
    readable as ``coalesced`` until the next :meth:`add`.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._chunks: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
        self.coalesced: dict[str, tuple[np.ndarray, np.ndarray]] | None = None

    def add(self, tag: str, ids, rows) -> None:
        ids = np.asarray(ids, dtype=np.int64).ravel()
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 1:  # one gradient vector shared by every id
            rows = np.broadcast_to(rows, (ids.size, self.dim))
        if rows.shape != (ids.size, self.dim):
            raise DataError(f"gradient chunk shape {rows.shape} does not match ids {ids.size}")
        if ids.size:
            self._chunks.setdefault(tag, []).append((ids, rows))
            self.coalesced = None

    def coalesce(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Unique ids per language with their summed gradient rows; collapses
        the internal chunk lists so repeated calls stay cheap."""
        out = {}
        for tag, chunks in self._chunks.items():
            if len(chunks) == 1:
                ids_all, rows_all = chunks[0]
            else:
                ids_all = np.concatenate([c[0] for c in chunks])
                rows_all = np.concatenate([np.ascontiguousarray(c[1]) for c in chunks])
            unique, inverse = np.unique(ids_all, return_inverse=True)
            summed = np.zeros((unique.size, self.dim), dtype=np.float64)
            for j in range(self.dim):
                summed[:, j] = np.bincount(
                    inverse, weights=rows_all[:, j], minlength=unique.size
                )
            self._chunks[tag] = [(unique, summed)]
            out[tag] = (unique, summed)
        self.coalesced = out
        return out

    def get(self, tag: str, word_id: int) -> np.ndarray:
        """Accumulated gradient for one row; absent keys read as zero."""
        total = np.zeros(self.dim, dtype=np.float64)
        for ids, rows in self._chunks.get(tag, []):
            pos = np.flatnonzero(ids == word_id)
            if pos.size:
                total += rows[pos].sum(axis=0)
        return total

    @property
    def tags(self):
        return sorted(self._chunks)

    def touched_rows(self) -> int:
        return sum(ids.size for ids, _ in self.coalesce().values())

    def is_empty(self) -> bool:
        return not self._chunks


# ---------------------------------------------------------------------------
# batch loss and gradient


def _pair_term(batch: PairBatch, tables: TablePair, kind, acc) -> float:
    w1 = tables.by_tag(batch.tag_l1)
    w2 = tables.by_tag(batch.tag_l2)
    c1 = SpanComposition(kind, w1.matrix, batch.side_l1)
    c2 = SpanComposition(kind, w2.matrix, batch.side_l2)
    diff = c1.values - c2.values
    acc.add(batch.tag_l1, batch.side_l1.ids, c1.position_grads(2.0 * diff))
    acc.add(batch.tag_l2, batch.side_l2.ids, c2.position_grads(-2.0 * diff))
    return float((diff * diff).sum())


def _triple_term(batch: TripleBatch, tables: TablePair, kind, margin, acc) -> float:
    table = tables.by_tag(batch.language_tag)
    co = SpanComposition(kind, table.matrix, batch.outer)
    ci = SpanComposition(kind, table.matrix, batch.inner)
    cn = SpanComposition(kind, table.matrix, batch.noise)
    diff_in = co.values - ci.values
    diff_no = co.values - cn.values
    d_in = (diff_in * diff_in).sum(axis=1)
    d_no = (diff_no * diff_no).sum(axis=1)
    ratio = batch.inner.lengths / batch.outer.lengths
    hinge = margin + d_in - d_no
    active = hinge > 0.0
    loss = float(((np.where(active, hinge, 0.0) + d_in) * ratio).sum())
    a = active.astype(np.float64)
    r = ratio[:, None]
    up_out = r * ((1.0 + a)[:, None] * 2.0 * diff_in - a[:, None] * 2.0 * diff_no)
    up_in = -r * (1.0 + a)[:, None] * 2.0 * diff_in
    up_noise = (a * ratio)[:, None] * 2.0 * diff_no
    acc.add(batch.language_tag, batch.outer.ids, co.position_grads(up_out))
    acc.add(batch.language_tag, batch.inner.ids, ci.position_grads(up_in))
    acc.add(batch.language_tag, batch.noise.ids, cn.position_grads(up_noise))
    return loss


def _as_pair_batch(samples) -> PairBatch | None:
    if samples is None or isinstance(samples, PairBatch):
        return samples if samples is None or samples.n else None
    samples = list(samples)
    return PairBatch.from_pairs(samples) if samples else None


def _as_triple_batch(samples) -> TripleBatch | None:
    if samples is None or isinstance(samples, TripleBatch):
        return samples if samples is None or samples.n else None
    samples = list(samples)
    return TripleBatch.from_triples(samples) if samples else None


def batch_loss_and_grad(
    bi_samples,
    mono_samples_l1,
    mono_samples_l2,
    tables: TablePair,
    kind="add",
    margin: float = 40.0,
    lam: float = 1.0,
) -> tuple[LossBreakdown, GradientAccumulator]:
    """Summed loss over a mixed batch plus its exact sparse gradient; the
    one batch path, shared by training and the gradient oracles.

    Sample arguments may be lists of SentencePair / PhraseTriple objects or
    the pre-packed PairBatch / TripleBatch forms; empty sources may be None.
    Rows touched by several samples accumulate additively. The returned
    accumulator is already coalesced: ``acc.coalesced`` holds the unique ids
    and summed rows per language. The regularizer follows the stochastic
    schedule on exactly those ids: every touched row w contributes
    lam_eff * ||w||^2 with gradient 2 * lam_eff * w, where
    lam_eff = lam * touched_rows / total_rows.
    """
    kind = CompositionKind.coerce(kind)
    if margin < 0:
        raise DataError(f"margin must be >= 0, got {margin}")
    if lam < 0:
        raise DataError(f"lambda must be >= 0, got {lam}")
    acc = GradientAccumulator(tables.dim)

    pair_batch = _as_pair_batch(bi_samples)
    tag1, tag2 = tables.tags
    triple_l1 = _as_triple_batch(mono_samples_l1)
    triple_l2 = _as_triple_batch(mono_samples_l2)
    if triple_l1 is not None and triple_l1.language_tag != tag1:
        raise DataError(f"mono_samples_l1 carries tag {triple_l1.language_tag!r}, expected {tag1!r}")
    if triple_l2 is not None and triple_l2.language_tag != tag2:
        raise DataError(f"mono_samples_l2 carries tag {triple_l2.language_tag!r}, expected {tag2!r}")

    l_bi = _pair_term(pair_batch, tables, kind, acc) if pair_batch else 0.0
    l_m1 = _triple_term(triple_l1, tables, kind, margin, acc) if triple_l1 else 0.0
    l_m2 = _triple_term(triple_l2, tables, kind, margin, acc) if triple_l2 else 0.0

    # the coalesced ids are the touched set; regularizer rows are added
    # after the data sums, so every per-row sum keeps a fixed order
    grads = acc.coalesce()
    reg = 0.0
    n_touched = sum(ids.size for ids, _ in grads.values())
    if lam > 0.0 and n_touched:
        lam_eff = lam * n_touched / tables.total_rows
        for tag in (tag1, tag2):
            if tag in grads:
                ids, summed = grads[tag]
                rows = tables.by_tag(tag).matrix[ids].astype(np.float64, copy=False)
                reg += lam_eff * float((rows * rows).sum())
                summed += 2.0 * lam_eff * rows

    return LossBreakdown.of(l_bi, l_m1, l_m2, reg), acc


def batch_loss(bi_samples, mono_samples_l1, mono_samples_l2, tables, kind="add",
               margin: float = 40.0, lam: float = 1.0) -> LossBreakdown:
    """The loss part of :func:`batch_loss_and_grad` (used by
    finite-difference oracles)."""
    return batch_loss_and_grad(
        bi_samples, mono_samples_l1, mono_samples_l2, tables, kind, margin, lam
    )[0]
