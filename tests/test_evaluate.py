import numpy as np
import pytest

from xlembed.corpus import Vocabulary, build_vocabulary
from xlembed.embeddings import EmbeddingTable, TablePair, init_table
from xlembed.errors import DataError, OovError
from xlembed.evaluate import (
    US,
    LabeledDocument,
    PerceptronModel,
    crosslingual_eval,
    encode_documents,
    nearest_neighbors,
    perceptron_train,
    read_labeled_documents,
    represent_document,
    write_labeled_documents,
)


def blobs(seed=0, n_per_class=100, n_classes=4, dim=40, spread=0.5):
    """Linearly separable Gaussian blobs around well-separated means."""
    rng = np.random.default_rng(seed)
    means = rng.normal(scale=5.0, size=(n_classes, dim))
    xs, ys = [], []
    for c in range(n_classes):
        xs.append(means[c] + rng.normal(scale=spread, size=(n_per_class, dim)))
        ys.extend([c] * n_per_class)
    return np.concatenate(xs), np.array(ys)


def docs_from_labels(y, prefix="d"):
    return [
        LabeledDocument(f"{prefix}{i}", f"class{c}", [np.array([1, 2])], "en")
        for i, c in enumerate(y)
    ]


class TestPerceptron:
    def test_separable_blobs_reach_full_training_accuracy(self):
        x, y = blobs(seed=1, n_per_class=100, n_classes=4, dim=40)
        model = perceptron_train(docs_from_labels(y), x, epochs=10, seed=0)
        predictions = model.predict_indices(x, use_average=True)
        assert (predictions == y).mean() == 1.0

    def test_zero_vectors_predict_tie_break_class(self):
        x = np.zeros((40, 8))
        y = np.array([0, 1, 2, 3] * 10)
        model = perceptron_train(docs_from_labels(y), x, epochs=3, seed=0)
        predictions = model.predict_indices(x)
        assert (predictions == 0).all()  # lowest class index
        assert (predictions == y).mean() == pytest.approx(0.25)

    def test_averaged_equals_final_when_weights_never_change(self):
        model = PerceptronModel(["a", "b"], 3)
        for _ in range(5):
            model.observe(np.zeros(3), 0)  # zero input: no weight movement
        assert np.allclose(model.averaged_weights(), model.w)

    def test_averaging_matches_explicit_running_mean(self):
        rng = np.random.default_rng(2)
        x, y = blobs(seed=2, n_per_class=10, n_classes=3, dim=5, spread=3.0)
        order = rng.permutation(len(y))
        model = PerceptronModel(["a", "b", "c"], 5)
        snapshots = []
        for i in order:
            model.observe(x[i], int(y[i]))
            snapshots.append(model.w.copy())
        expected = np.mean(snapshots, axis=0)
        assert np.allclose(model.averaged_weights(), expected, atol=1e-12)

    def test_averaged_before_any_example_is_a_copy_of_the_weights(self):
        model = PerceptronModel(["a", "b"], 3)
        model.w[0] = [1.0, 2.0, 3.0]
        averaged = model.averaged_weights()
        assert np.array_equal(averaged, model.w)
        assert not np.shares_memory(averaged, model.w)

    def test_prediction_scale_invariant(self):
        x, y = blobs(seed=3, n_per_class=30, n_classes=4, dim=40)
        model = perceptron_train(docs_from_labels(y), x, epochs=10, seed=1)
        base = model.predict_indices(x)
        scaled = model.predict_indices(10.0 * x)
        assert (base == scaled).all()

    def test_training_deterministic_under_seed(self):
        x, y = blobs(seed=4, n_per_class=20, n_classes=3, dim=6, spread=4.0)
        m1 = perceptron_train(docs_from_labels(y), x, epochs=5, seed=7)
        m2 = perceptron_train(docs_from_labels(y), x, epochs=5, seed=7)
        assert (m1.averaged_weights() == m2.averaged_weights()).all()

    def test_single_class_rejected(self):
        x = np.zeros((4, 3))
        docs = [LabeledDocument(str(i), "only", [np.array([1])], "en") for i in range(4)]
        with pytest.raises(DataError):
            perceptron_train(docs, x)

    def test_vector_count_must_match_document_count(self):
        with pytest.raises(DataError, match="document and vector counts differ"):
            perceptron_train(docs_from_labels(np.array([0, 1, 0])), np.zeros((2, 4)))

    def test_hand_built_two_class_prediction(self):
        model = PerceptronModel(["neg", "pos"], 2)
        model.w[:] = [[-1.0, 0.0], [1.0, 0.0]]
        predicted = model.predict_indices([[2.0, 0.0], [-2.0, 1.0]], use_average=False)
        assert [model.classes[i] for i in predicted] == ["pos", "neg"]


def doc_of(*sentences):
    return LabeledDocument("d", "x", [np.array(s) for s in sentences], "en")


class TestRepresentDocument:
    def _table(self):
        return init_table(10, 4, 0.5, seed=5, language_tag="en")

    def test_single_sentence_add_is_sentence_vector(self):
        table = self._table()
        vecs = represent_document([doc_of([1, 2, 3]), doc_of([4], [5, 6])], table, "add")
        assert vecs.shape == (2, 4)
        assert np.allclose(vecs[0], table.matrix[[1, 2, 3]].sum(axis=0))

    def test_by_token_count_is_mean_word_vector(self):
        table = self._table()
        docs = [doc_of([1, 2], [3]), doc_of([4, 5, 6, 7, 8])]
        vecs = represent_document(docs, table, "add", "by_token_count")
        assert np.allclose(vecs[0], table.matrix[[1, 2, 3]].mean(axis=0))
        assert np.allclose(vecs[1], table.matrix[[4, 5, 6, 7, 8]].mean(axis=0))

    def test_unit_l2(self):
        table = EmbeddingTable(np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]]), "en")
        vecs = represent_document([doc_of([1, 2]), doc_of([0]), doc_of([1])], table, "add", "unit_l2")
        assert np.linalg.norm(vecs[0]) == pytest.approx(1.0)
        assert vecs[1].tolist() == [0.0, 0.0]  # zero stays zero
        assert vecs[2] == pytest.approx([0.6, 0.8])

    def test_add_invariant_to_sentence_order(self):
        s1, s2 = [1, 2, 3], [4, 5]
        a, b = represent_document([doc_of(s1, s2), doc_of(s2, s1)], self._table(), "add")
        assert np.allclose(a, b)

    def test_bi_sensitive_to_sentence_order(self):
        s1, s2, s3 = [1, 2, 3], [4, 5], [6, 7]
        a, b = represent_document([doc_of(s1, s2, s3), doc_of(s2, s1, s3)], self._table(), "bi")
        assert not np.allclose(a, b)

    def test_unknown_norm_mode_rejected(self):
        with pytest.raises(DataError):
            represent_document([doc_of([1])], self._table(), "add", "zscore")


def make_separable_eval_data(seed=0, n=40):
    """Two languages with identical geometry: class-0 docs use tokens 1-2,
    class-1 docs use tokens 3-4."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(scale=1.0, size=(5, 6))
    tables = TablePair(
        EmbeddingTable(matrix.copy(), "en"), EmbeddingTable(matrix.copy(), "de")
    )

    def doc(i, label, tag):
        tokens = [1, 2] if label == "c0" else [3, 4]
        sents = [np.array(tokens + [int(rng.integers(1, 5))]) for _ in range(2)]
        return LabeledDocument(f"{tag}{i}", label, sents, tag)

    train = [doc(i, "c0" if i % 2 == 0 else "c1", "en") for i in range(n)]
    test = [doc(i, "c0" if i % 2 == 0 else "c1", "de") for i in range(n)]
    return train, test, tables


class TestCrosslingualEval:
    def test_identical_language_sanity_check(self):
        train, _, tables = make_separable_eval_data()
        report = crosslingual_eval(train, train, tables, kind="add", epochs=10, seed=0)
        assert report.accuracy == 1.0
        assert report.direction == "en->en"

    def test_crosslingual_direction_and_confusion_trace(self):
        train, test, tables = make_separable_eval_data()
        report = crosslingual_eval(train, test, tables, kind="add", epochs=10, seed=0)
        assert report.direction == "en->de"
        assert report.accuracy == np.trace(report.confusion) / report.confusion.sum()
        assert report.confusion.sum() == len(test)

    def test_label_set_mismatch_rejected(self):
        train, test, tables = make_separable_eval_data()
        test = [LabeledDocument(d.doc_id, "other", d.sentences, d.language_tag) for d in test]
        with pytest.raises(DataError):
            crosslingual_eval(train, test, tables)

    @pytest.mark.parametrize("empty", ["train", "test"])
    def test_empty_document_set_rejected(self, empty):
        train, test, tables = make_separable_eval_data()
        sets = {"train": train, "test": test, empty: []}
        with pytest.raises(DataError, match="both document sets must be non-empty"):
            crosslingual_eval(sets["train"], sets["test"], tables)

    def test_mixed_language_set_rejected(self):
        train, test, tables = make_separable_eval_data()
        with pytest.raises(DataError, match="mixes languages"):
            crosslingual_eval(train[:20] + test[20:], test, tables)

    def test_train_size_subsampling_is_seeded(self):
        train, test, tables = make_separable_eval_data(n=60)
        r1 = crosslingual_eval(train, test, tables, train_size=20, seed=5)
        r2 = crosslingual_eval(train, test, tables, train_size=20, seed=5)
        assert r1.train_size == 20
        assert r1.accuracy == r2.accuracy

    def test_report_text_has_machine_block(self):
        train, test, tables = make_separable_eval_data()
        text = crosslingual_eval(train, test, tables).to_text()
        assert "direction=en->de" in text
        assert "accuracy=" in text
        assert "confusion[c0]=" in text


class TestNearestNeighbors:
    def _vocab_table(self, vecs, tag):
        tokens = [f"{tag}{i}" for i in range(len(vecs) - 1)]
        vocab = Vocabulary(tokens, [1] * len(tokens), 0, tag)
        return vocab, EmbeddingTable(np.asarray(vecs, dtype=float), tag)

    def test_euclidean_self_query_is_rank_one(self):
        vocab, table = self._vocab_table([[0, 0], [1.0, 0.0], [0.9, 0.1], [5.0, 5.0]], "t")
        out = nearest_neighbors("t0", vocab, table, vocab, table, k=3, metric="euclidean")
        assert out[0][0] == "t0"
        assert out[0][1] == 0.0

    def test_cosine_ranking_orthogonal_vs_parallel(self):
        # query (1,0): parallel (2,0) scores 1, diagonal ~0.707, orthogonal 0
        vocab, table = self._vocab_table(
            [[0, 0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [1.0, 1.0]], "t"
        )
        out = nearest_neighbors("t0", vocab, table, vocab, table, k=4, metric="cosine")
        names = [t for t, _ in out]
        assert names[0] in ("t0", "t2")  # both have cosine exactly 1
        assert set(names[:2]) == {"t0", "t2"}
        assert names[2] == "t3"
        assert names[3] == "t1"
        assert out[0][1] == pytest.approx(1.0)
        assert out[2][1] == pytest.approx(np.sqrt(0.5))
        assert out[3][1] == pytest.approx(0.0)

    def test_scores_monotone_and_total_order(self):
        rng = np.random.default_rng(6)
        vecs = np.vstack([np.zeros(4), rng.normal(size=(9, 4))])
        vocab, table = self._vocab_table(vecs, "t")
        out = nearest_neighbors("t3", vocab, table, vocab, table, k=len(vocab) - 1)
        assert len(out) == 9  # every non-UNK token exactly once
        scores = [s for _, s in out]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        assert len({t for t, _ in out}) == 9

    def test_unk_never_reported(self):
        vocab, table = self._vocab_table([[1.0, 1.0], [1.0, 0.9]], "t")
        out = nearest_neighbors("t0", vocab, table, vocab, table, k=5)
        assert all(t != "<unk>" for t, _ in out)

    def test_oov_query_raises_with_unk_policy(self):
        vocab, table = self._vocab_table([[0, 0], [1.0, 0.0]], "t")
        with pytest.raises(OovError, match="unk"):
            nearest_neighbors("missing", vocab, table, vocab, table)

    @pytest.mark.parametrize("setting, message", [
        ({"k": 0}, "k must be >= 1, got 0"),
        ({"metric": "manhattan"}, "unknown metric 'manhattan'"),
    ])
    def test_bad_k_or_metric_rejected(self, setting, message):
        vocab, table = self._vocab_table([[0, 0], [1.0, 0.0]], "t")
        with pytest.raises(DataError, match=message):
            nearest_neighbors("t0", vocab, table, vocab, table, **setting)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("k", [1, 3, 10, 17, 59, 80])
    def test_ties_across_k_match_full_sort(self, metric, k):
        # small integer vectors repeat, so many scores tie exactly; the
        # tokens are shuffled against the ids, so only the sort orders ties
        rng = np.random.default_rng(11)
        vecs = rng.integers(-1, 2, size=(60, 3)).astype(float)
        vecs[[7, 30]] = 0.0  # zero rows score cosine 0
        tokens = [f"w{p}" for p in rng.permutation(59)]
        vocab = Vocabulary(tokens, [1] * 59, 0, "t")
        table = EmbeddingTable(vecs, "t")
        query = tokens[2]
        q = vecs[vocab.id_for(query)]
        scored = []
        for i in range(1, len(vocab)):  # the full-sort reference
            if metric == "cosine":
                denom = np.linalg.norm(vecs[i]) * np.linalg.norm(q)
                score = float(vecs[i] @ q / denom) if denom > 0 else 0.0
            else:
                score = -float(np.linalg.norm(vecs[i] - q))
            scored.append((vocab.token_for(i), score))
        scored.sort(key=lambda ts: (-ts[1], ts[0]))
        out = nearest_neighbors(query, vocab, table, vocab, table, k=k, metric=metric)
        assert out == scored[:k]
        if k < 59:  # the k-th score ties with a row left out
            assert scored[k - 1][1] == scored[k][1]

    def test_query_is_looked_up_in_the_vocabulary_casing(self):
        vocab, table = self._vocab_table([[0, 0], [1.0, 0.0], [0.0, 1.0]], "t")
        assert nearest_neighbors("T1", vocab, table, vocab, table, k=1) == [("t1", 1.0)]
        cased = Vocabulary(["T0", "t1"], [1, 1], 0, "t")
        with pytest.raises(OovError, match="'t0'"):
            nearest_neighbors("t0", cased, table, cased, table)

    def test_crosslingual_tables(self):
        src_vocab, src_table = self._vocab_table([[0, 0], [1.0, 0.0]], "en")
        dst_vocab, dst_table = self._vocab_table([[0, 0], [0.0, 1.0], [1.0, 0.1]], "de")
        out = nearest_neighbors("en0", src_vocab, src_table, dst_vocab, dst_table, k=1)
        assert out[0][0] == "de1"


class TestLabeledDocumentFiles:
    def test_round_trip(self, tmp_path):
        docs = [
            LabeledDocument("doc1", "Economics", ["markets rose today", "end of story"], "en"),
            LabeledDocument("doc2", "Markets", ["one sentence only here"], "en"),
        ]
        path = tmp_path / "docs.txt"
        write_labeled_documents(path, docs)
        raw = path.read_text()
        assert raw.splitlines()[0] == f"Economics\tdoc1\tmarkets rose today{US}end of story"
        loaded = read_labeled_documents(path, "en")
        assert [d.doc_id for d in loaded] == ["doc1", "doc2"]
        assert loaded[0].sentences == ["markets rose today", "end of story"]

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("just_a_label\n")
        with pytest.raises(DataError):
            read_labeled_documents(path)

    def test_encode_documents(self):
        vocab = build_vocabulary("a a b".split(), 1, "en")
        docs = [LabeledDocument("d", "x", ["a b zzz"], "")]
        encoded = encode_documents(docs, vocab)
        assert encoded[0].sentences[0].tolist() == [1, 2, 0]
        assert encoded[0].language_tag == "en"

    def test_documents_are_looked_up_in_the_vocabulary_casing(self):
        docs = [LabeledDocument("d", "x", ["Die Regierung und der Markt"], "")]
        lowered = build_vocabulary("die der und regierung markt markt".split(), 1, "de")
        cased = build_vocabulary("die der und Regierung markt markt".split(), 1, "de")
        ids = [lowered.id_for(t) for t in "die regierung und der markt".split()]
        assert 0 not in ids
        assert encode_documents(docs, lowered)[0].sentences[0].tolist() == ids
        # a cased vocabulary is looked up exactly: "Die" and "Markt" are unknown
        assert encode_documents(docs, cased)[0].sentences[0].tolist() == [
            0, cased.id_for("Regierung"), cased.id_for("und"), cased.id_for("der"), 0
        ]
