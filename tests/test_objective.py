import hashlib
import sys
import weakref
from dataclasses import astuple

import numpy as np
import oracle
import pytest

from conftest import build_training_data, spans

from xlembed.corpus import (
    EncodedCorpus,
    PairBatch,
    ParallelCorpus,
    TripleBatch,
    sample_bilingual_pairs,
    sample_phrase_triples,
)
from xlembed import embeddings, objective
from xlembed.embeddings import EmbeddingTable, TablePair, init_table
from xlembed.errors import CompositionError, DataError
from xlembed.objective import (
    GradientAccumulator,
    LossBreakdown,
    batch_loss,
    batch_loss_and_grad,
)
from xlembed.trainer import (
    AdaGradState,
    Batch,
    TrainConfig,
    make_batch,
    proportional_mix,
    train_step,
)


def dense_grads(rows: np.ndarray):
    """The ``grads`` function of an accumulator source held as one (n, d) array."""
    return lambda cols: (rows[:, cols].T,)


def tables_of(matrix_l1, matrix_l2) -> TablePair:
    return TablePair(
        EmbeddingTable(np.array(matrix_l1, dtype=float), "en"),
        EmbeddingTable(np.array(matrix_l2, dtype=float), "de"),
    )


def one_pair(a, b):
    """Bilingual loss and the two word gradients of one Add pair whose sides
    are the single words a and b."""
    tables = tables_of([a], [b])
    pair = PairBatch("en", "de", spans([0]), spans([0]))
    breakdown, coalesced = batch_loss_and_grad(pair, None, None, tables, "add", 0.0, 0.0)
    return breakdown.bilingual, coalesced["en"][1][0], coalesced["de"][1][0]


def one_triple(ao, ai, bn, len_outer, len_inner, margin, len_noise=3):
    """Inclusion loss and the (outer, inner, noise) gradients of one Add
    triple whose phrases compose to ao, ai and bn: each phrase is its own
    word padded with zero-vector words to the given length."""
    m = np.array([np.zeros(len(ao)), ao, ai, bn], dtype=float)
    triple = TripleBatch(
        "en",
        spans([1] + [0] * (len_outer - 1)),
        spans([2] + [0] * (len_inner - 1)),
        spans([3] + [0] * (len_noise - 1)),
    )
    breakdown, coalesced = batch_loss_and_grad(
        None, triple, None, tables_of(m, [m[0]]), "add", margin, 0.0
    )
    ids, rows = coalesced["en"]
    grads = np.zeros_like(m)
    grads[ids] = rows
    return breakdown.mono_l1, grads[1], grads[2], grads[3]


class TestBilingualLoss:
    def test_identical_vectors_zero(self):
        assert one_pair([1.0, 2.0], [1.0, 2.0])[0] == 0.0

    def test_hand_value(self):
        assert one_pair([1.0, 2.0], [0.0, 0.0])[0] == 5.0

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.normal(size=(2, 6))
            assert one_pair(a, b)[0] == one_pair(b, a)[0]

    def test_grad_hand_value(self):
        _, g1, g2 = one_pair([1.0, 2.0], [0.0, 0.0])
        assert g1.tolist() == [2.0, 4.0]
        assert g2.tolist() == [-2.0, -4.0]

    def test_grad_zero_at_equal_vectors(self):
        _, g1, g2 = one_pair([3.0, 3.0], [3.0, 3.0])
        assert (g1 == 0).all() and (g2 == 0).all()

    def test_grad_matches_central_differences(self):
        rng = np.random.default_rng(1)
        h = 1e-5
        for _ in range(10):
            a, b = rng.normal(size=(2, 5))
            _, g1, g2 = one_pair(a, b)
            for vec, grad in ((a, g1), (b, g2)):
                for j in range(5):
                    orig = vec[j]
                    vec[j] = orig + h
                    fp = one_pair(a, b)[0]
                    vec[j] = orig - h
                    fm = one_pair(a, b)[0]
                    vec[j] = orig
                    fd = (fp - fm) / (2 * h)
                    assert abs(grad[j] - fd) <= 1e-8 * max(1.0, abs(fd))


class TestMonoLoss:
    def test_satisfied_hinge_zero_inner_distance(self):
        assert one_triple([0, 0], [0, 0], [3, 0], 3, 3, margin=4.0)[0] == 0.0

    def test_hand_value(self):
        # d_in = 1, d_no = 0, hinge = max(0, 1 + 1 - 0) = 2, ratio = 3/6
        loss = one_triple([1, 0], [0, 0], [1, 0], 6, 3, margin=1.0)[0]
        assert loss == pytest.approx(1.5, abs=1e-15)

    def test_nonnegative_and_at_least_scaled_inner_distance(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            ao, ai, bn = rng.normal(size=(3, 4))
            lo = int(rng.integers(3, 10))
            li = int(rng.integers(3, lo + 1))
            loss = one_triple(ao, ai, bn, lo, li, margin=2.0, len_noise=5)[0]
            d_in = float(((ao - ai) ** 2).sum())
            assert loss >= d_in * li / lo - 1e-12
            assert loss >= 0.0

    def test_length_ratio_scale_invariance(self):
        ao, ai, bn = np.array([1.0, 2.0]), np.array([0.5, 1.0]), np.array([-1.0, 0.0])
        a = one_triple(ao, ai, bn, 4, 3, margin=1.0)[0]
        b = one_triple(ao, ai, bn, 8, 6, margin=1.0)[0]
        assert a == pytest.approx(b, rel=1e-15)


class TestMonoGrad:
    def test_inactive_hinge_case(self):
        # noise far away: only the d_in term contributes
        _, g_out, g_in, g_noise = one_triple([1.0, 0.0], [0.0, 0.0], [100.0, 0.0], 4, 3, 1.0)
        r = 3 / 4
        assert np.allclose(g_in, -2 * np.array([1.0, 0.0]) * r)
        assert np.allclose(g_noise, 0.0)
        assert np.allclose(g_out, 2 * np.array([1.0, 0.0]) * r)

    def test_outer_equals_inner_zeroes_inner_grad(self):
        # noise close by: hinge active
        _, g_out, g_in, g_noise = one_triple([2.0, -1.0], [2.0, -1.0], [2.1, -1.0], 3, 3, 5.0)
        assert np.allclose(g_in, 0.0)
        assert not np.allclose(g_noise, 0.0)

    def test_matches_central_differences_away_from_kink(self):
        rng = np.random.default_rng(3)
        h = 1e-5
        checked = 0
        while checked < 25:
            ao, ai, bn = rng.normal(size=(3, 4))
            lo = int(rng.integers(3, 9))
            li = int(rng.integers(3, lo + 1))
            margin = float(rng.uniform(0.0, 4.0))
            d_in = float(((ao - ai) ** 2).sum())
            d_no = float(((ao - bn) ** 2).sum())
            if abs(margin + d_in - d_no) <= 1e-4:
                continue
            grads = one_triple(ao, ai, bn, lo, li, margin, 5)[1:]
            for vec, grad in zip((ao, ai, bn), grads):
                for j in range(4):
                    orig = vec[j]
                    vec[j] = orig + h
                    fp = one_triple(ao, ai, bn, lo, li, margin, 5)[0]
                    vec[j] = orig - h
                    fm = one_triple(ao, ai, bn, lo, li, margin, 5)[0]
                    vec[j] = orig
                    fd = (fp - fm) / (2 * h)
                    assert abs(grad[j] - fd) <= 1e-6 * max(1.0, abs(fd), abs(grad[j]))
            checked += 1


class TestRegularizer:
    def test_full_penalty_hand_value(self):
        # a batch touching every row has lam_eff = lam: the full penalty
        tables = tables_of([[3.0, 4.0]], [[0.0, 0.0]])
        pair = PairBatch("en", "de", spans([0]), spans([0]))
        assert batch_loss(pair, None, None, tables, "add", 0.0, 1.0).regularizer == 25.0
        assert batch_loss(pair, None, None, tables, "add", 0.0, 0.5).regularizer == 12.5

    def test_lambda_zero_no_gradient_effect(self):
        tables = tables_of([[1.0, 1.0], [2.0, 2.0]], [[1.0, 0.0], [0.0, 1.0]])
        pair = PairBatch("en", "de", spans([0, 1]), spans([0]))
        b0, _ = batch_loss_and_grad(pair, None, None, tables, "add", 1.0, 0.0)
        assert b0.regularizer == 0.0

    def test_stochastic_rule_hand_value(self):
        # one touched row (3,4) out of 2 total rows: lam_eff = 1 * 1/2
        tables = tables_of([[3.0, 4.0]], [[9.0, 9.0]])
        triple = TripleBatch("en", *[spans([0, 0, 0])] * 3)
        breakdown, coalesced = batch_loss_and_grad(None, triple, None, tables, "add", 0.0, 1.0)
        lam_eff = 1.0 * 1 / 2
        assert breakdown.regularizer == pytest.approx(lam_eff * 25.0)
        ids, grads = coalesced["en"]
        assert ids.tolist() == [0]
        assert np.allclose(grads[0], 2 * lam_eff * np.array([3.0, 4.0]))

    def test_row_shared_across_sources_counts_once(self):
        # en row 1 is on the pair's l1 side and in the l1 triple; the data
        # terms vanish (equal pair vectors, outer == inner == noise, margin
        # 0), so the whole gradient is the regularizer's
        tables = tables_of([[0.0, 0.0], [3.0, 4.0], [1.0, 2.0]], [[0.0, 0.0], [3.0, 4.0]])
        pair = PairBatch("en", "de", spans([1]), spans([1]))
        triple = TripleBatch("en", *[spans([1, 2, 1])] * 3)
        breakdown, coalesced = batch_loss_and_grad(pair, triple, None, tables, "add", 0.0, 1.0)
        assert breakdown.bilingual == 0.0 and breakdown.mono_l1 == 0.0
        # en {1, 2} and de {1}, not 4
        assert sum(ids.size for ids, _ in coalesced.values()) == 3
        lam_eff = 1.0 * 3 / 5
        assert breakdown.regularizer == pytest.approx(lam_eff * (25.0 + 5.0 + 25.0))
        en_ids, en_grads = coalesced["en"]
        de_ids, de_grads = coalesced["de"]
        assert en_ids.tolist() == [1, 2] and de_ids.tolist() == [1]
        assert np.allclose(en_grads, 2 * lam_eff * np.array([[3.0, 4.0], [1.0, 2.0]]))
        assert np.allclose(de_grads, 2 * lam_eff * np.array([[3.0, 4.0]]))

    def test_pure_regularizer_shrinks_row_norms(self):
        tables = tables_of([[3.0, 4.0], [1.0, -2.0]], [[2.0, 2.0]])
        # outer == inner == noise: data gradients are exactly zero
        batch = Batch(mono_l1=TripleBatch("en", *[spans([0, 1, 0])] * 3))
        norms_before = np.linalg.norm(tables.l1.matrix, axis=1).copy()
        config = TrainConfig(dim=2, lam=1.0, margin=0.0, batch_size=1)
        state = AdaGradState.zeros(tables)
        for _ in range(5):
            train_step(batch, tables, state, config)
            norms_after = np.linalg.norm(tables.l1.matrix, axis=1)
            assert (norms_after <= norms_before + 1e-12).all()
            norms_before = norms_after.copy()


def make_world(seed, dim, vocab=12, kind="add"):
    rng = np.random.default_rng(seed)
    sents_en = [rng.integers(0, vocab, size=rng.integers(3, 7)).astype(np.int32) for _ in range(6)]
    sents_de = [rng.integers(0, vocab, size=rng.integers(3, 7)).astype(np.int32) for _ in range(6)]
    ce, cd = EncodedCorpus(sents_en, "en"), EncodedCorpus(sents_de, "de")
    par = ParallelCorpus(ce, cd)
    pb = sample_bilingual_pairs(par, rng, 2)
    t1 = sample_phrase_triples(ce, rng, 2)
    t2 = sample_phrase_triples(cd, rng, 2)
    tables = TablePair(
        init_table(vocab, dim, 0.3, (seed, 0), "en"),
        init_table(vocab, dim, 0.3, (seed, 1), "de"),
    )
    return pb, t1, t2, tables


def assert_matches_finite_differences(sources, tables, kind, margin, lam, h=1e-5):
    """Every coalesced gradient cell of the batch within a relative 1e-5 of
    the central difference of :func:`batch_loss`."""
    _, coalesced = batch_loss_and_grad(*sources, tables, kind, margin, lam)
    for tag, (ids, grads) in coalesced.items():
        matrix = tables.by_tag(tag).matrix
        for r, i in enumerate(ids):
            for j in range(matrix.shape[1]):
                orig = matrix[i, j]
                matrix[i, j] = orig + h
                fp = batch_loss(*sources, tables, kind, margin, lam).total
                matrix[i, j] = orig - h
                fm = batch_loss(*sources, tables, kind, margin, lam).total
                matrix[i, j] = orig
                fd = (fp - fm) / (2 * h)
                analytic = grads[r, j]
                rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-4)
                assert rel <= 1e-5, (tag, int(i), j, analytic, fd)


class TestBatchLossAndGrad:
    def test_empty_batch(self):
        tables = TablePair(init_table(3, 2, 0.1, 0, "en"), init_table(3, 2, 0.1, 1, "de"))
        breakdown, coalesced = batch_loss_and_grad(None, None, None, tables, "add", 1.0, 1.0)
        assert breakdown.total == 0.0
        assert coalesced == {}

    def test_identical_pair_zero_bilingual_term(self):
        m = [[0.0, 0.0], [1.0, 2.0]]
        pair = PairBatch("en", "de", spans([1, 1]), spans([1, 1]))
        breakdown, _ = batch_loss_and_grad(pair, None, None, tables_of(m, m), "add", 1.0, 0.0)
        assert breakdown.bilingual == 0.0

    def test_breakdown_total_is_sum_of_parts(self):
        pb, t1, t2, tables = make_world(0, 5)
        for kind in ("add", "bi"):
            b, _ = batch_loss_and_grad(pb, t1, t2, tables, kind, 2.0, 0.3)
            assert b.total == pytest.approx(
                b.bilingual + b.mono_l1 + b.mono_l2 + b.regularizer, abs=1e-12
            )
            assert min(b.bilingual, b.mono_l1, b.mono_l2, b.regularizer) >= 0.0

    def test_accumulator_addition_across_repeated_words(self):
        tables = tables_of([[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]])
        pair = PairBatch("en", "de", spans([1, 1]), spans([0]))
        _, coalesced = batch_loss_and_grad(pair, None, None, tables, "add", 1.0, 0.0)
        # v1 = (2, 0), v2 = (0, 0): grad per occurrence of word 1 is 2*diff
        ids, grads = coalesced["en"]
        assert ids.tolist() == [1]
        assert np.allclose(grads[0], 2 * np.array([2.0 * 2, 0.0]))

    def test_scalar_and_batch_paths_agree(self):
        rng = np.random.default_rng(9)
        sents = [rng.integers(0, 8, size=5).astype(np.int32) for _ in range(4)]
        triples = sample_phrase_triples(EncodedCorpus(sents, "en"), rng, 3)
        tables = TablePair(
            init_table(8, 3, 0.4, (9, 0), "en"), init_table(8, 3, 0.4, (9, 1), "de")
        )
        m, margin = tables.l1.matrix, 2.0
        split = [
            np.split(s.ids, np.cumsum(s.lengths)[:-1])
            for s in (triples.outer, triples.inner, triples.noise)
        ]
        for kind in ("add", "bi"):
            b, _ = batch_loss_and_grad(None, triples, None, tables, kind, margin, 0.0)
            expected = sum(
                oracle.mono_loss(
                    *(oracle.compose(kind, m[ids]) for ids in (o, i, n)), o.size, i.size, margin
                )
                for o, i, n in zip(*split)
            )
            assert b.mono_l1 == pytest.approx(expected, rel=1e-12)

    def test_satisfied_batch_with_zero_lambda_has_zero_accumulator(self):
        m = [[0.0, 0.0], [1.0, 2.0], [5.0, 5.0]]
        pair = PairBatch("en", "de", spans([1, 2]), spans([1, 2]))
        # outer == inner and the noise phrase is far: hinge inactive, d_in = 0
        triple = TripleBatch("en", spans([1, 1, 1]), spans([1, 1, 1]), spans([2, 2, 2]))
        breakdown, coalesced = batch_loss_and_grad(pair, triple, None, tables_of(m, m), "add", 1.0, 0.0)
        assert breakdown.total == 0.0
        for tag, (ids, grads) in coalesced.items():
            assert np.allclose(grads, 0.0, atol=1e-15)

    def test_wrong_language_tag_rejected(self):
        pb, t1, t2, tables = make_world(1, 3)
        with pytest.raises(DataError):
            batch_loss_and_grad(None, t2, None, tables, "add", 1.0, 0.0)
        with pytest.raises(DataError, match="mono_samples_l2 carries tag 'en', expected 'de'"):
            batch_loss_and_grad(None, None, t1, tables, "add", 1.0, 0.0)

    @pytest.mark.parametrize("margin, lam, message", [
        (-0.5, 0.7, "margin must be >= 0, got -0.5"),
        (0.5, -0.7, "lambda must be >= 0, got -0.7"),
    ])
    def test_negative_margin_or_lambda_rejected(self, margin, lam, message):
        pb, t1, t2, tables = make_world(1, 3)
        with pytest.raises(DataError, match=message):
            batch_loss_and_grad(pb, t1, t2, tables, "add", margin, lam)

    @pytest.mark.parametrize("kind", ["add", "bi"])
    def test_gradient_matches_finite_differences(self, kind):
        for seed in range(6):
            pb, t1, t2, tables = make_world(seed, 4)
            assert_matches_finite_differences((pb, t1, t2), tables, kind, 0.4, 0.7)

    @pytest.mark.parametrize("kind", ["add", "bi"])
    @pytest.mark.parametrize("dim", [2, 8])
    def test_pairs_only_gradient_matches_finite_differences(self, kind, dim):
        # a Bi batch of pairs alone takes its one-pass backward; the loss
        # of the differences is the forward-only batch_loss
        for seed in range(4):
            pb, _, _, tables = make_world(seed, dim)
            assert_matches_finite_differences((pb, None, None), tables, kind, 0.4, 0.7)


@pytest.fixture(scope="module")
def synth_batch(synth_world):
    """One mixed batch of the synthetic world at dim 40: about 6.2k
    positions per language, so the default column blocks are 10 wide."""
    data = build_training_data(synth_world)
    config = TrainConfig(dim=40, batch_size=1200)
    batch = make_batch(data, config, proportional_mix(*data.sizes()), np.random.default_rng(17))
    tables = TablePair(
        init_table(len(data.vocab_l1), 40, 0.1, (17, 0), data.vocab_l1.language_tag),
        init_table(len(data.vocab_l2), 40, 0.1, (17, 1), data.vocab_l2.language_tag),
    )
    return batch, tables


def batch_digest(breakdown, coalesced) -> str:
    h = hashlib.sha256(np.array(astuple(breakdown), dtype="<f8").tobytes())
    for tag in sorted(coalesced):
        ids, rows = coalesced[tag]
        h.update(ids.astype("<i8").tobytes())
        h.update(np.ascontiguousarray(rows, dtype="<f8").tobytes())
    return h.hexdigest()


class TestBatchBits:
    @pytest.mark.parametrize("kind", ["add", "bi"])
    def test_column_block_width_keeps_bits(self, kind, synth_batch, monkeypatch):
        batch, tables = synth_batch
        # the mixed batch, and its pairs alone (Bi's one-pass backward)
        for sources in ((batch.pairs, batch.mono_l1, batch.mono_l2), (batch.pairs, None, None)):
            digests = []
            for cells in (1, embeddings.BLOCK_CELLS, 10**9):  # one column, default, all columns
                monkeypatch.setattr(embeddings, "BLOCK_CELLS", cells)
                breakdown, coalesced = batch_loss_and_grad(*sources, tables, kind, 40.0, 1.0)
                digests.append(batch_digest(breakdown, coalesced))
            assert digests[0] == digests[1] == digests[2]

    @pytest.mark.parametrize("kind", ["add", "bi"])
    def test_thread_count_keeps_bits(self, kind, synth_batch, one_column_blocks):
        batch, tables = synth_batch
        interval = sys.getswitchinterval()
        for sources in ((batch.pairs, batch.mono_l1, batch.mono_l2), (batch.pairs, None, None)):
            digests = []
            for workers in (1, 4):  # inline, and more threads than cores
                one_column_blocks(workers)
                sys.setswitchinterval(1e-6)  # threads switch often inside each block
                try:
                    breakdown, coalesced = batch_loss_and_grad(*sources, tables, kind, 40.0, 1.0)
                finally:
                    sys.setswitchinterval(interval)
                digests.append(batch_digest(breakdown, coalesced))
            assert digests[0] == digests[1]

    @pytest.mark.parametrize("kind", ["add", "bi"])
    def test_loss_alone_is_the_loss_of_the_gradient_path(self, kind, synth_batch, monkeypatch):
        # the finite-difference oracles read batch_loss, which composes
        # forward only, as the loss whose gradient batch_loss_and_grad gives
        batch, tables = synth_batch
        for cells in (embeddings.BLOCK_CELLS, 1):  # default blocks, one column or row each
            monkeypatch.setattr(embeddings, "BLOCK_CELLS", cells)
            # the mixed batch, its pairs alone (Bi's one pass) and its l1 triples alone
            for sources in ((batch.pairs, batch.mono_l1, batch.mono_l2), (batch.pairs, None, None),
                            (None, batch.mono_l1, None)):
                loss = batch_loss(*sources, tables, kind, 40.0, 1.0)
                assert loss == batch_loss_and_grad(*sources, tables, kind, 40.0, 1.0)[0]

    def test_golden_add_batch(self, synth_batch):
        # the loss and coalesced gradient bits of the batch path with span
        # sums by np.add.reduceat, re-derived once that path matched the
        # oracle's sequential sums (TestSpanComposition); Add only, since
        # tanh's last bit depends on the platform's math library
        batch, tables = synth_batch
        breakdown, coalesced = batch_loss_and_grad(
            batch.pairs, batch.mono_l1, batch.mono_l2, tables, "add", 40.0, 1.0
        )
        assert breakdown.total == 35218.28197828421
        assert batch_digest(breakdown, coalesced) == (
            "be8db26dc67b65ee7355400f2cc3ecc1bdc76478b73829f041c56bf3cd0a91f0"
        )


def per_set_reference(pairs, mono_l1, mono_l2, tables, kind, margin, lam):
    """The batch loss and gradient with every span set composed on its own;
    each language's gradient source joins its sets' blocks in the order pair
    side, then outer, inner and noise; the maths of the batch path."""
    acc = GradientAccumulator(tables.dim)
    losses = [0.0, 0.0, 0.0]
    parts: dict[str, list] = {}  # tag -> [(composition, upstream)]

    def composed(tag, span):
        return embeddings.SpanComposition(kind, tables.by_tag(tag).matrix, span)

    def add(tag, composition, upstream):
        parts.setdefault(tag, []).append((composition, upstream))

    if pairs is not None and pairs.n:
        c1, c2 = composed(pairs.tag_l1, pairs.side_l1), composed(pairs.tag_l2, pairs.side_l2)
        diff = c1.values - c2.values
        losses[0] = float((diff * diff).sum())
        add(pairs.tag_l1, c1, 2.0 * diff)
        add(pairs.tag_l2, c2, -2.0 * diff)
    for slot, triple in ((1, mono_l1), (2, mono_l2)):
        if triple is None or not triple.n:
            continue
        tag = triple.language_tag
        co, ci, cn = (composed(tag, s) for s in (triple.outer, triple.inner, triple.noise))
        diff_in, diff_no = co.values - ci.values, co.values - cn.values
        d_in, d_no = (diff_in * diff_in).sum(axis=1), (diff_no * diff_no).sum(axis=1)
        ratio = triple.inner.lengths / triple.outer.lengths
        hinge = margin + d_in - d_no
        a = (hinge > 0.0).astype(np.float64)
        losses[slot] = float(((np.where(hinge > 0.0, hinge, 0.0) + d_in) * ratio).sum())
        r = ratio[:, None]
        add(tag, co, r * ((1.0 + a)[:, None] * 2.0 * diff_in - a[:, None] * 2.0 * diff_no))
        add(tag, ci, -r * (1.0 + a)[:, None] * 2.0 * diff_in)
        add(tag, cn, (a * ratio)[:, None] * 2.0 * diff_no)
    for tag, sets in parts.items():
        ids = np.concatenate([c.span.ids for c, _ in sets])
        acc.add(tag, ids, lambda cols, sets=sets: (np.concatenate(
            [c.position_grads(up[:, cols].T, cols) for c, up in sets], axis=1
        ),))
    touched = acc.touched()
    n_touched = sum(ids.size for ids in touched.values())
    reg, reg_rows = 0.0, {}
    if lam > 0.0 and n_touched:
        lam_eff = lam * n_touched / tables.total_rows
        for tag in tables.tags:
            if tag in touched:
                rows = tables.by_tag(tag).matrix[touched[tag]]
                reg += lam_eff * float((rows * rows).sum())
                reg_rows[tag] = 2.0 * lam_eff * rows
    grads = acc.coalesce()
    for tag, rows in reg_rows.items():
        grads[tag][1][...] += rows
    return LossBreakdown.of(*losses, reg), grads


def hand_batches():
    """Small batches with one-word spans, and every subset of the three
    sources, over 6-word tables."""
    pairs = PairBatch("en", "de", spans([0], [1, 2, 3], [4], [3], [5, 1]),
                      spans([2], [5], [3, 4, 5, 0], [1, 1], [0]))
    mono_l1 = TripleBatch("en", spans([1, 2, 3, 4], [2, 5, 1]), spans([2], [5, 1]),
                          spans([3, 3, 0], [4]))
    mono_l2 = TripleBatch("de", spans([4, 1, 0], [2, 2, 2, 3, 5]), spans([4, 1], [2, 3]),
                          spans([5], [0, 1, 2]))
    return {
        "mixed": (pairs, mono_l1, mono_l2),
        "pairs only": (pairs, None, None),
        "mono only": (None, mono_l1, mono_l2),
        "one language": (None, mono_l1, None),
        "pairs and one language": (pairs, None, mono_l2),
    }


@pytest.mark.parametrize("kind", ["add", "bi"])
def test_batch_with_an_empty_span_is_refused(kind):
    rng = np.random.default_rng(5)
    tables = tables_of(rng.normal(size=(6, 3)), rng.normal(size=(6, 3)))
    pairs = PairBatch("en", "de", spans([1, 2], [3]), spans([4], []))
    with pytest.raises(CompositionError, match="span 1 holds no words"):
        batch_loss_and_grad(pairs, None, None, tables, kind, 0.5, 0.7)


@pytest.mark.parametrize("kind", ["add", "bi"])
@pytest.mark.parametrize("bad", [-1, 4])
def test_batch_with_an_id_outside_the_table_is_refused(kind, bad):
    # -1 would read row 3 and file its gradient under id 1; 4 is past the rows
    rng = np.random.default_rng(5)
    tables = tables_of(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
    pairs = PairBatch("en", "de", spans([bad, 1]), spans([2, 3]))
    with pytest.raises(CompositionError, match=f"id {bad} is not a row of the 4-row table"):
        batch_loss_and_grad(pairs, None, None, tables, kind, 0.5, 0.7)


class TestPerLanguageComposition:
    """Each language's span sets are composed together; the results must be
    those of composing every set on its own, bit for bit."""

    @staticmethod
    def assert_same(got, expected):
        (loss, grads), (ref_loss, ref_grads) = got, expected
        assert np.array_equal(astuple(loss), astuple(ref_loss))
        assert sorted(grads) == sorted(ref_grads)
        for tag in grads:
            assert np.array_equal(grads[tag][0], ref_grads[tag][0])
            assert np.array_equal(grads[tag][1], ref_grads[tag][1])

    @pytest.mark.parametrize("kind", ["add", "bi"])
    @pytest.mark.parametrize("name", list(hand_batches()))
    def test_hand_batches_match_per_set_reference(self, kind, name):
        rng = np.random.default_rng(5)
        tables = tables_of(rng.normal(size=(6, 3)), rng.normal(size=(6, 3)))
        batch = hand_batches()[name]
        for lam in (0.0, 0.7):
            expected = per_set_reference(*batch, tables, kind, 0.5, lam)
            self.assert_same(batch_loss_and_grad(*batch, tables, kind, 0.5, lam), expected)
            loss = batch_loss(*batch, tables, kind, 0.5, lam)
            assert np.array_equal(astuple(loss), astuple(expected[0]))

    @pytest.mark.parametrize("kind", ["add", "bi"])
    def test_mixed_batch_matches_per_set_reference(self, kind, synth_batch, one_column_blocks):
        batch, tables = synth_batch
        sources = (batch.pairs, batch.mono_l1, batch.mono_l2)
        expected = per_set_reference(*sources, tables, kind, 40.0, 1.0)
        one_column_blocks(2)
        self.assert_same(batch_loss_and_grad(*sources, tables, kind, 40.0, 1.0), expected)

    @pytest.mark.parametrize("kind", ["add", "bi"])
    def test_pairs_only_batch_matches_per_set_reference(self, kind, synth_batch,
                                                        one_column_blocks):
        # under Bi, the one pass over the columns that composes and
        # differentiates both sides
        batch, tables = synth_batch
        expected = per_set_reference(batch.pairs, None, None, tables, kind, 40.0, 1.0)
        one_column_blocks(2)
        self.assert_same(batch_loss_and_grad(batch.pairs, None, None, tables, kind, 40.0, 1.0),
                         expected)


class TestGradientAccumulator:
    def test_absent_key_reads_zero(self):
        acc = GradientAccumulator(3)
        assert "en" not in acc.coalesce()

    def test_add_and_coalesce(self):
        acc = GradientAccumulator(2)
        acc.add("en", [1, 2, 1], dense_grads(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])))
        ids, grads = acc.coalesce()["en"]
        assert ids.tolist() == [1, 2]
        assert grads.tolist() == [[3.0, 2.0], [0.0, 1.0]]

    @pytest.mark.parametrize("cells", [1, 10**9])
    def test_sources_match_unique_and_add_at(self, cells, monkeypatch):
        monkeypatch.setattr(embeddings, "BLOCK_CELLS", cells)
        rng = np.random.default_rng(4)
        acc = GradientAccumulator(5)
        sources = {}
        for tag, n in (("en", 7), ("de", 1), ("fr", 12)):
            sources[tag] = rng.integers(3, 40, size=n), rng.normal(size=(n, 5))
            acc.add(tag, sources[tag][0], dense_grads(sources[tag][1]))
        assert sorted(acc.touched()) == sorted(sources)
        coalesced = acc.coalesce()
        assert sorted(coalesced) == sorted(sources)
        for tag, (source_ids, rows) in sources.items():
            ids, grads = coalesced[tag]
            unique, inverse = np.unique(source_ids, return_inverse=True)
            expected = np.zeros((unique.size, 5))
            np.add.at(expected, inverse, rows)
            assert ids.tolist() == unique.tolist()
            assert np.allclose(grads, expected, rtol=0, atol=1e-12)

    def test_second_source_for_a_language_rejected(self):
        acc = GradientAccumulator(2)
        acc.add("en", [1, 2], dense_grads(np.ones((2, 2))))
        acc.add("de", [1], dense_grads(np.ones((1, 2))))
        with pytest.raises(DataError, match="'en'"):
            acc.add("en", [3], dense_grads(np.ones((1, 2))))
        assert acc.coalesce()["en"][1].tolist() == [[1.0, 1.0], [1.0, 1.0]]

    def test_coalesce_frees_backward_context(self, synth_batch, monkeypatch):
        # every composition of an Add and a Bi mixed batch and of a Bi batch
        # of pairs alone (composed in the one-pass backward) is gone once
        # coalesce has summed the gradient, while the accumulator itself
        # still exists
        batch, tables = synth_batch
        refs, alive = [], []

        class Tracked(embeddings.SpanComposition):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                refs.append(weakref.ref(self))

        coalesce = GradientAccumulator.coalesce

        def checked_coalesce(acc):
            out = coalesce(acc)
            alive.append(sum(ref() is not None for ref in refs))
            return out

        monkeypatch.setattr(objective, "SpanComposition", Tracked)
        monkeypatch.setattr(GradientAccumulator, "coalesce", checked_coalesce)
        for kind in ("add", "bi"):
            batch_loss_and_grad(batch.pairs, batch.mono_l1, batch.mono_l2, tables, kind, 40.0, 1.0)
        batch_loss_and_grad(batch.pairs, None, None, tables, "bi", 40.0, 1.0)
        assert len(refs) == 3 * 2  # one per language, per batch
        assert alive == [0, 0, 0]
        assert all(ref() is None for ref in refs)

    def test_first_language_values_freed_before_second_is_summed(self, synth_batch,
                                                                  monkeypatch):
        # a two-pass Add batch: once the first language's sums exist, its
        # composed values are gone before the second language's backward runs
        batch, tables = synth_batch
        values, alive = [], []

        class Tracked(embeddings.SpanComposition):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.index = len(values)
                values.append(weakref.ref(self.values))

            def position_grads(self, *args):
                if self.index == 1:
                    alive.append(values[0]() is not None)
                return super().position_grads(*args)

        monkeypatch.setattr(objective, "SpanComposition", Tracked)
        batch_loss_and_grad(batch.pairs, batch.mono_l1, batch.mono_l2, tables, "add", 40.0, 1.0)
        assert len(values) == 2 and alive and not any(alive)

    @pytest.mark.parametrize("cells", [1, 10**9])
    def test_shared_function_returns_one_block_per_language(self, cells, monkeypatch):
        # one function added for two languages is asked once per column
        # block and returns one block per language, in the order added
        monkeypatch.setattr(embeddings, "BLOCK_CELLS", cells)
        rng = np.random.default_rng(6)
        sources = {tag: (rng.integers(0, 9, size=n), rng.normal(size=(n, 3)))
                   for tag, n in (("en", 5), ("de", 8))}
        calls = []

        def both(cols):
            calls.append(cols)
            return tuple(rows[:, cols].T for _, rows in sources.values())

        acc = GradientAccumulator(3)
        for tag, (ids, _) in sources.items():
            acc.add(tag, ids, both)
        coalesced = acc.coalesce()
        assert len(calls) == (3 if cells == 1 else 1)
        for tag, (source_ids, rows) in sources.items():
            unique, inverse = np.unique(source_ids, return_inverse=True)
            expected = np.zeros((unique.size, 3))
            np.add.at(expected, inverse, rows)
            assert coalesced[tag][0].tolist() == unique.tolist()
            assert np.allclose(coalesced[tag][1], expected, rtol=0, atol=1e-12)

    def test_second_coalesce_is_empty(self):
        acc = GradientAccumulator(2)
        acc.add("en", [1, 1], dense_grads(np.ones((2, 2))))
        assert acc.coalesce()["en"][1].tolist() == [[2.0, 2.0]]
        assert acc.coalesce() == {}

    def test_shape_mismatch_rejected(self):
        acc = GradientAccumulator(3)
        acc.add("en", [1, 2], dense_grads(np.zeros((3, 3))))
        with pytest.raises(DataError):
            acc.coalesce()

    def test_shape_mismatch_rejected_on_pool_threads(self, one_column_blocks):
        one_column_blocks(2)
        acc = GradientAccumulator(3)
        acc.add("en", [1, 2], dense_grads(np.zeros((3, 3))))
        with pytest.raises(DataError, match="gradient block shape"):
            acc.coalesce()


def test_loss_breakdown_of():
    b = LossBreakdown.of(1.0, 2.0, 3.0, 0.5)
    assert b.total == 6.5
