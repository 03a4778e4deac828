import numpy as np
import pytest

from xlembed.corpus import (
    EncodedCorpus,
    ParallelCorpus,
    PhraseTriple,
    Sentence,
    SentencePair,
    sample_bilingual_pairs,
    sample_phrase_triple,
    sample_phrase_triples,
)
from xlembed.embeddings import ComposedVector, TablePair, init_table
from xlembed.errors import DataError
from xlembed.objective import (
    GradientAccumulator,
    LossBreakdown,
    batch_loss,
    batch_loss_and_grad,
    bilingual_grad,
    bilingual_loss,
    l2_regularizer,
    mono_grad,
    mono_loss,
)


def cv(values, source_len):
    return ComposedVector(np.asarray(values, dtype=float), source_len)


class TestBilingualLoss:
    def test_identical_vectors_zero(self):
        assert bilingual_loss(cv([1.0, 2.0], 3), cv([1.0, 2.0], 4)) == 0.0

    def test_hand_value(self):
        assert bilingual_loss(cv([1.0, 2.0], 3), cv([0.0, 0.0], 3)) == 5.0

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.normal(size=(2, 6))
            assert bilingual_loss(a, b) == bilingual_loss(b, a)

    def test_grad_hand_value(self):
        g1, g2 = bilingual_grad(cv([1.0, 2.0], 3), cv([0.0, 0.0], 3))
        assert g1.tolist() == [2.0, 4.0]
        assert g2.tolist() == [-2.0, -4.0]

    def test_grad_zero_at_equal_vectors(self):
        g1, g2 = bilingual_grad([3.0, 3.0], [3.0, 3.0])
        assert (g1 == 0).all() and (g2 == 0).all()

    def test_grad_matches_central_differences(self):
        rng = np.random.default_rng(1)
        h = 1e-5
        for _ in range(10):
            a, b = rng.normal(size=(2, 5))
            g1, g2 = bilingual_grad(a, b)
            for vec, grad in ((a, g1), (b, g2)):
                for j in range(5):
                    orig = vec[j]
                    vec[j] = orig + h
                    fp = bilingual_loss(a, b)
                    vec[j] = orig - h
                    fm = bilingual_loss(a, b)
                    vec[j] = orig
                    fd = (fp - fm) / (2 * h)
                    assert abs(grad[j] - fd) <= 1e-8 * max(1.0, abs(fd))

    def test_dim_mismatch(self):
        with pytest.raises(DataError):
            bilingual_loss([1.0, 2.0], [1.0, 2.0, 3.0])


class TestMonoLoss:
    def test_satisfied_hinge_zero_inner_distance(self):
        out = mono_loss(cv([0, 0], 3), cv([0, 0], 3), cv([3, 0], 3), margin=4.0)
        assert out == 0.0

    def test_hand_value(self):
        # d_in = 1, d_no = 0, hinge = max(0, 1 + 1 - 0) = 2, ratio = 3/6
        out = mono_loss(cv([1, 0], 6), cv([0, 0], 3), cv([1, 0], 3), margin=1.0)
        assert out == pytest.approx(1.5, abs=1e-15)

    def test_nonnegative_and_at_least_scaled_inner_distance(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            ao, ai, bn = rng.normal(size=(3, 4))
            lo = int(rng.integers(3, 10))
            li = int(rng.integers(3, lo + 1))
            loss = mono_loss(cv(ao, lo), cv(ai, li), cv(bn, 5), margin=2.0)
            d_in = float(((ao - ai) ** 2).sum())
            assert loss >= d_in * li / lo - 1e-12
            assert loss >= 0.0

    def test_length_ratio_scale_invariance(self):
        ao, ai, bn = np.array([1.0, 2.0]), np.array([0.5, 1.0]), np.array([-1.0, 0.0])
        a = mono_loss(cv(ao, 4), cv(ai, 3), cv(bn, 3), margin=1.0)
        b = mono_loss(cv(ao, 8), cv(ai, 6), cv(bn, 3), margin=1.0)
        assert a == pytest.approx(b, rel=1e-15)

    def test_inner_longer_than_outer_rejected(self):
        with pytest.raises(DataError):
            mono_loss(cv([0, 0], 3), cv([0, 0], 4), cv([1, 1], 3), margin=1.0)


class TestMonoGrad:
    def test_inactive_hinge_case(self):
        # noise far away: only the d_in term contributes
        ao, ai, bn = cv([1.0, 0.0], 4), cv([0.0, 0.0], 3), cv([100.0, 0.0], 3)
        g_out, g_in, g_noise = mono_grad(ao, ai, bn, margin=1.0)
        r = 3 / 4
        assert np.allclose(g_in, -2 * np.array([1.0, 0.0]) * r)
        assert np.allclose(g_noise, 0.0)
        assert np.allclose(g_out, 2 * np.array([1.0, 0.0]) * r)

    def test_outer_equals_inner_zeroes_inner_grad(self):
        ao = cv([2.0, -1.0], 3)
        ai = cv([2.0, -1.0], 3)
        bn = cv([2.1, -1.0], 3)  # hinge active
        g_out, g_in, g_noise = mono_grad(ao, ai, bn, margin=5.0)
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
            grads = mono_grad(cv(ao, lo), cv(ai, li), cv(bn, 5), margin)
            for vec, grad in zip((ao, ai, bn), grads):
                for j in range(4):
                    orig = vec[j]
                    vec[j] = orig + h
                    fp = mono_loss(cv(ao, lo), cv(ai, li), cv(bn, 5), margin)
                    vec[j] = orig - h
                    fm = mono_loss(cv(ao, lo), cv(ai, li), cv(bn, 5), margin)
                    vec[j] = orig
                    fd = (fp - fm) / (2 * h)
                    assert abs(grad[j] - fd) <= 1e-6 * max(1.0, abs(fd), abs(grad[j]))
            checked += 1


class TestRegularizer:
    def _tables(self, matrix_l1, matrix_l2):
        from xlembed.embeddings import EmbeddingTable

        return TablePair(
            EmbeddingTable(np.asarray(matrix_l1, dtype=float), "en"),
            EmbeddingTable(np.asarray(matrix_l2, dtype=float), "de"),
        )

    def test_full_penalty_hand_value(self):
        tables = self._tables([[3.0, 4.0]], [[0.0, 0.0]])
        assert l2_regularizer(tables, 1.0) == 25.0
        assert l2_regularizer(tables, 0.5) == 12.5

    def test_lambda_zero_no_gradient_effect(self):
        tables = self._tables([[1.0, 1.0], [2.0, 2.0]], [[1.0, 0.0], [0.0, 1.0]])
        pair = SentencePair(Sentence(np.array([0, 1]), "en"), Sentence(np.array([0]), "de"))
        b0, acc0 = batch_loss_and_grad([pair], None, None, tables, "add", 1.0, 0.0)
        assert b0.regularizer == 0.0

    def test_stochastic_rule_hand_value(self):
        # one touched row (3,4) out of 2 total rows: lam_eff = 1 * 1/2
        tables = self._tables([[3.0, 4.0]], [[9.0, 9.0]])
        triple = PhraseTriple(
            outer_sentence=np.array([0, 0, 0]),
            outer_start=0, outer_end=3, inner_start=0, inner_end=3,
            noise_sentence=np.array([0, 0, 0]), noise_start=0, noise_end=3,
            language_tag="en",
        )
        breakdown, acc = batch_loss_and_grad(None, [triple], None, tables, "add", 0.0, 1.0)
        lam_eff = 1.0 * 1 / 2
        assert breakdown.regularizer == pytest.approx(lam_eff * 25.0)
        assert np.allclose(acc.get("en", 0), 2 * lam_eff * np.array([3.0, 4.0]))

    def test_row_shared_across_sources_counts_once(self):
        # en row 1 is on the pair's l1 side and in the l1 triple; the data
        # terms vanish (equal pair vectors, outer == inner == noise, margin
        # 0), so the whole gradient is the regularizer's
        tables = self._tables([[0.0, 0.0], [3.0, 4.0], [1.0, 2.0]], [[0.0, 0.0], [3.0, 4.0]])
        pair = SentencePair(Sentence(np.array([1]), "en"), Sentence(np.array([1]), "de"))
        triple = PhraseTriple(
            outer_sentence=np.array([1, 2, 1]),
            outer_start=0, outer_end=3, inner_start=0, inner_end=3,
            noise_sentence=np.array([1, 2, 1]), noise_start=0, noise_end=3,
            language_tag="en",
        )
        breakdown, acc = batch_loss_and_grad([pair], [triple], None, tables, "add", 0.0, 1.0)
        assert breakdown.bilingual == 0.0 and breakdown.mono_l1 == 0.0
        assert acc.touched_rows() == 3  # en {1, 2} and de {1}, not 4
        lam_eff = 1.0 * 3 / 5
        assert breakdown.regularizer == pytest.approx(lam_eff * (25.0 + 5.0 + 25.0))
        en_ids, en_grads = acc.coalesced["en"]
        de_ids, de_grads = acc.coalesced["de"]
        assert en_ids.tolist() == [1, 2] and de_ids.tolist() == [1]
        assert np.allclose(en_grads, 2 * lam_eff * np.array([[3.0, 4.0], [1.0, 2.0]]))
        assert np.allclose(de_grads, 2 * lam_eff * np.array([[3.0, 4.0]]))

    def test_pure_regularizer_shrinks_row_norms(self):
        from xlembed.trainer import AdaGradState, TrainConfig, train_step, Batch
        from xlembed.corpus import TripleBatch, SpanSet

        tables = self._tables([[3.0, 4.0], [1.0, -2.0]], [[2.0, 2.0]])
        # outer == inner == noise: data gradients are exactly zero
        triple = PhraseTriple(
            outer_sentence=np.array([0, 1, 0]),
            outer_start=0, outer_end=3, inner_start=0, inner_end=3,
            noise_sentence=np.array([0, 1, 0]), noise_start=0, noise_end=3,
            language_tag="en",
        )
        norms_before = np.linalg.norm(tables.l1.matrix, axis=1).copy()
        config = TrainConfig(dim=2, lam=1.0, margin=0.0, batch_size=1)
        state = AdaGradState.zeros(tables)
        for _ in range(5):
            batch = Batch(mono_l1=TripleBatch.from_triples([triple]))
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


class TestBatchLossAndGrad:
    def test_empty_batch(self):
        tables = TablePair(init_table(3, 2, 0.1, 0, "en"), init_table(3, 2, 0.1, 1, "de"))
        breakdown, acc = batch_loss_and_grad(None, None, None, tables, "add", 1.0, 1.0)
        assert breakdown.total == 0.0
        assert acc.is_empty()

    def test_identical_pair_zero_bilingual_term(self):
        from xlembed.embeddings import EmbeddingTable

        m = np.array([[0.0, 0.0], [1.0, 2.0]])
        tables = TablePair(EmbeddingTable(m.copy(), "en"), EmbeddingTable(m.copy(), "de"))
        pair = SentencePair(Sentence(np.array([1, 1]), "en"), Sentence(np.array([1, 1]), "de"))
        breakdown, _ = batch_loss_and_grad([pair], None, None, tables, "add", 1.0, 0.0)
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
        from xlembed.embeddings import EmbeddingTable

        m1 = np.array([[0.0, 0.0], [1.0, 0.0]])
        m2 = np.array([[0.0, 0.0], [0.0, 0.0]])
        tables = TablePair(EmbeddingTable(m1, "en"), EmbeddingTable(m2, "de"))
        pair = SentencePair(Sentence(np.array([1, 1]), "en"), Sentence(np.array([0]), "de"))
        _, acc = batch_loss_and_grad([pair], None, None, tables, "add", 1.0, 0.0)
        # v1 = (2, 0), v2 = (0, 0): grad per occurrence of word 1 is 2*diff
        assert np.allclose(acc.get("en", 1), 2 * np.array([2.0 * 2, 0.0]))

    def test_scalar_and_batch_paths_agree(self):
        rng = np.random.default_rng(9)
        sents = [rng.integers(0, 8, size=5).astype(np.int32) for _ in range(4)]
        ce = EncodedCorpus(sents, "en")
        triples = [sample_phrase_triple(ce, rng) for _ in range(3)]
        tables = TablePair(
            init_table(8, 3, 0.4, (9, 0), "en"), init_table(8, 3, 0.4, (9, 1), "de")
        )
        margin = 2.0
        b, _ = batch_loss_and_grad(None, triples, None, tables, "add", margin, 0.0)
        from xlembed.embeddings import compose_add

        expected = sum(
            mono_loss(
                compose_add(tables.l1.matrix[t.outer_ids]),
                compose_add(tables.l1.matrix[t.inner_ids]),
                compose_add(tables.l1.matrix[t.noise_ids]),
                margin,
            )
            for t in triples
        )
        assert b.mono_l1 == pytest.approx(expected, rel=1e-12)

    def test_satisfied_batch_with_zero_lambda_has_zero_accumulator(self):
        from xlembed.embeddings import EmbeddingTable

        m = np.array([[0.0, 0.0], [1.0, 2.0], [5.0, 5.0]])
        tables = TablePair(EmbeddingTable(m.copy(), "en"), EmbeddingTable(m.copy(), "de"))
        pair = SentencePair(Sentence(np.array([1, 2]), "en"), Sentence(np.array([1, 2]), "de"))
        # outer == inner and the noise phrase is far: hinge inactive, d_in = 0
        triple = PhraseTriple(
            outer_sentence=np.array([1, 1, 1]),
            outer_start=0, outer_end=3, inner_start=0, inner_end=3,
            noise_sentence=np.array([2, 2, 2]), noise_start=0, noise_end=3,
            language_tag="en",
        )
        breakdown, acc = batch_loss_and_grad([pair], [triple], None, tables, "add", 1.0, 0.0)
        assert breakdown.total == 0.0
        for tag, (ids, grads) in acc.coalesce().items():
            assert np.allclose(grads, 0.0, atol=1e-15)

    def test_wrong_language_tag_rejected(self):
        pb, t1, t2, tables = make_world(1, 3)
        with pytest.raises(DataError):
            batch_loss_and_grad(None, t2, None, tables, "add", 1.0, 0.0)

    @pytest.mark.parametrize("kind", ["add", "bi"])
    def test_gradient_matches_finite_differences(self, kind):
        h = 1e-5
        for seed in range(6):
            pb, t1, t2, tables = make_world(seed, 4)
            margin, lam = 0.4, 0.7
            _, acc = batch_loss_and_grad(pb, t1, t2, tables, kind, margin, lam)
            for tag, (ids, grads) in acc.coalesce().items():
                matrix = tables.by_tag(tag).matrix
                for r, i in enumerate(ids):
                    for j in range(matrix.shape[1]):
                        orig = matrix[i, j]
                        matrix[i, j] = orig + h
                        fp = batch_loss(pb, t1, t2, tables, kind, margin, lam).total
                        matrix[i, j] = orig - h
                        fm = batch_loss(pb, t1, t2, tables, kind, margin, lam).total
                        matrix[i, j] = orig
                        fd = (fp - fm) / (2 * h)
                        analytic = grads[r, j]
                        rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-4)
                        assert rel <= 1e-5, (tag, int(i), j, analytic, fd)


class TestGradientAccumulator:
    def test_absent_key_reads_zero(self):
        acc = GradientAccumulator(3)
        assert acc.get("en", 5).tolist() == [0.0, 0.0, 0.0]

    def test_add_and_coalesce(self):
        acc = GradientAccumulator(2)
        acc.add("en", [1, 2, 1], np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]))
        ids, grads = acc.coalesce()["en"]
        assert ids.tolist() == [1, 2]
        assert grads.tolist() == [[3.0, 2.0], [0.0, 1.0]]

    def test_uniform_row_broadcast(self):
        acc = GradientAccumulator(2)
        acc.add("en", [3, 4, 3], np.array([1.0, -1.0]))
        assert acc.get("en", 3).tolist() == [2.0, -2.0]

    def test_coalesced_kept_until_next_add(self):
        acc = GradientAccumulator(2)
        assert acc.coalesced is None
        acc.add("en", [1, 1], np.array([1.0, 1.0]))
        out = acc.coalesce()
        assert acc.coalesced is out
        assert out["en"][1].tolist() == [[2.0, 2.0]]
        acc.add("en", [2], np.array([1.0, 0.0]))
        assert acc.coalesced is None

    def test_shape_mismatch_rejected(self):
        acc = GradientAccumulator(3)
        with pytest.raises(DataError):
            acc.add("en", [1, 2], np.zeros((3, 3)))


def test_loss_breakdown_of():
    b = LossBreakdown.of(1.0, 2.0, 3.0, 0.5)
    assert b.total == 6.5
