import ast
import math
from pathlib import Path

import numpy as np
import oracle
import pytest
from conftest import spans

from xlembed import embeddings
from xlembed.corpus import SpanSet
from xlembed.embeddings import (
    CompositionKind,
    SpanComposition,
    TablePair,
    cell_blocks,
    compose_documents,
    init_table,
    load_embeddings_text,
    save_embeddings_text,
)
from xlembed.errors import CompositionError, DataError


class TestInitTable:
    def test_default_shape_and_dtype(self):
        table = init_table(100, 40, 0.1, seed=3, language_tag="en")
        assert table.matrix.shape == (100, 40)
        assert table.matrix.dtype == np.float64
        assert table.dim == 40

    def test_deterministic_per_seed(self):
        a = init_table(50, 8, 0.1, seed=9)
        b = init_table(50, 8, 0.1, seed=9)
        c = init_table(50, 8, 0.1, seed=10)
        assert (a.matrix == b.matrix).all()
        assert (a.matrix != c.matrix).any()

    def test_moments(self):
        n, sigma = 1_000_000, 0.1
        table = init_table(n // 10, 10, sigma, seed=1)
        flat = table.matrix.ravel()
        assert abs(flat.mean()) <= 4 * sigma / math.sqrt(n)
        assert abs(flat.std() - sigma) <= 0.02 * sigma

    def test_bad_args(self):
        with pytest.raises(DataError):
            init_table(0, 4)
        with pytest.raises(DataError):
            init_table(4, 4, sigma=0.0)


def composed(kind, vectors) -> SpanComposition:
    """The composition of one span whose words have the given vectors."""
    vectors = np.asarray(vectors, dtype=float)
    return SpanComposition(kind, vectors, spans(range(len(vectors))))


class TestComposeAdd:
    def test_componentwise_sum(self):
        assert composed("add", [(1.0, 0.0), (0.0, 2.0)]).values[0].tolist() == [1.0, 2.0]

    def test_single_vector_identity(self):
        assert composed("add", [(3.0, -1.0)]).values[0].tolist() == [3.0, -1.0]

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        vecs = rng.normal(size=(6, 5))
        a = composed("add", vecs).values
        b = composed("add", vecs[::-1]).values
        assert np.allclose(a, b, atol=1e-12)


class TestComposeBi:
    def test_zero_vectors_give_zero(self):
        assert composed("bi", [(0.0, 0.0), (0.0, 0.0)]).values[0].tolist() == [0.0, 0.0]

    def test_saturating_pair_matches_scalar_tanh(self):
        v = (10.0, -10.0)
        out = composed("bi", [v, v]).values[0]
        assert out[0] == pytest.approx(math.tanh(20.0), rel=1e-15)
        assert out[1] == pytest.approx(math.tanh(-20.0), rel=1e-15)

    def test_word_order_sensitivity(self):
        rng = np.random.default_rng(1)
        found = False
        for _ in range(20):
            vecs = rng.normal(size=(4, 3))
            swapped = vecs.copy()
            swapped[[1, 2]] = swapped[[2, 1]]
            if not np.allclose(composed("bi", vecs).values, composed("bi", swapped).values):
                found = True
                break
        assert found, "swapping adjacent distinct words never changed the output"

    def test_bounded_per_coordinate(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            l = int(rng.integers(2, 10))
            vecs = rng.normal(scale=5.0, size=(l, 4))
            out = composed("bi", vecs).values[0]
            assert (np.abs(out) < l - 1 + 1e-12).all()


def central_difference(f, x, h=1e-5):
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        orig = x[idx]
        x[idx] = orig + h
        fp = f()
        x[idx] = orig - h
        fm = f()
        x[idx] = orig
        grad[idx] = (fp - fm) / (2 * h)
    return grad


def word_grads(kind, vectors, upstream) -> np.ndarray:
    """(l, d) per-word gradients of one span against one upstream vector."""
    d = len(upstream)
    return composed(kind, vectors).position_grads(np.asarray(upstream)[None], slice(0, d)).T


class TestComposeBackward:
    def test_add_broadcasts_upstream(self):
        g = np.array([1.0, -2.0])
        out = word_grads("add", np.zeros((3, 2)), g)
        assert out.shape == (3, 2)
        assert (out == g).all()

    def test_bi_at_zero_interior_words_get_double(self):
        g = np.array([0.5, 1.0, -1.0])
        out = word_grads("bi", np.zeros((4, 3)), g)
        # tanh'(0) = 1: boundary words belong to one bigram, interior to two
        assert np.allclose(out[0], g)
        assert np.allclose(out[1], 2 * g)
        assert np.allclose(out[2], 2 * g)
        assert np.allclose(out[3], g)

    @pytest.mark.parametrize("kind", ["add", "bi"])
    def test_matches_central_differences(self, kind):
        rng = np.random.default_rng(4)
        for _ in range(10):
            l = int(rng.integers(2 if kind == "bi" else 1, 13))
            d = int(rng.integers(2, 41))
            vecs = rng.normal(scale=0.5, size=(l, d))
            g = rng.normal(size=d)

            def loss():
                return float(composed(kind, vecs).values[0] @ g)

            analytic = word_grads(kind, vecs, g)
            fd = central_difference(loss, vecs)
            denom = np.maximum(np.abs(fd), 1.0)
            assert (np.abs(analytic - fd) / denom).max() <= 1e-6


def ids(*values):
    return np.array(values, dtype=np.int32)


# (kind, documents) that cannot be composed
UNCOMPOSABLE = {
    "no documents": ("add", []),
    "empty document": ("add", [[ids(1, 2)], []]),
    "only an empty document": ("add", [[]]),
    "empty sentence": ("add", [[ids(1, 2), ids()]]),
    "one-sentence Bi document": ("bi", [[ids(1, 2), ids(3)], [ids(1, 2)]]),
}


class TestComposeDocument:
    def _matrix(self, seed=0):
        return init_table(20, 4, 0.5, seed=seed, language_tag="en").matrix

    @pytest.mark.parametrize("kind", ["add", "bi"])
    def test_set_matches_two_level_oracle(self, kind):
        rng = np.random.default_rng(11)
        matrix = rng.normal(scale=0.5, size=(30, 5))
        fewest = 2 if kind == "bi" else 1
        documents = [
            [rng.integers(0, 30, size=rng.integers(1, 8)) for _ in range(n)]
            for n in rng.integers(fewest, 7, size=25)
        ]
        documents[0][0] = documents[3][-1] = ids(7)  # one-word sentences
        out = compose_documents(documents, matrix, kind)
        assert out.shape == (25, 5)
        for doc, row in zip(documents, out):
            sentence_vecs = [oracle.compose(kind, matrix[s]) for s in doc]
            assert np.abs(row - oracle.compose(kind, sentence_vecs)).max() <= 1e-12

    def test_add_equals_flat_sum_over_words(self):
        matrix = self._matrix()
        out = compose_documents([[ids(1, 2, 3), ids(4, 5)]], matrix, "add")
        assert np.allclose(out[0], matrix[[1, 2, 3, 4, 5]].sum(axis=0), atol=1e-12)

    def test_single_sentence_doc_add(self):
        matrix = self._matrix()
        out = compose_documents([[ids(1, 2)], [ids(7, 9)]], matrix, "add")
        assert np.allclose(out[1], matrix[[7, 9]].sum(axis=0), atol=1e-12)

    def test_bi_two_level_matches_hand_composition(self):
        m = self._matrix(3)
        out = compose_documents([[ids(1, 2, 3), ids(4, 5)]], m, "bi")
        # hand-compose: sentence vectors then tanh of their sum
        sv1 = np.tanh(m[1] + m[2]) + np.tanh(m[2] + m[3])
        sv2 = np.tanh(m[4] + m[5])
        assert np.allclose(out[0], np.tanh(sv1 + sv2), atol=1e-12)

    def test_bi_single_word_sentence_contributes_zero(self):
        m = self._matrix()
        out = compose_documents([[ids(3), ids(4, 5, 6)]], m, "bi")
        sv2 = np.tanh(m[4] + m[5]) + np.tanh(m[5] + m[6])
        assert np.allclose(out[0], np.tanh(0.0 + sv2), atol=1e-12)

    @pytest.mark.parametrize("case", list(UNCOMPOSABLE))
    def test_uncomposable_input_errors(self, case):
        kind, documents = UNCOMPOSABLE[case]
        with pytest.raises(CompositionError):
            compose_documents(documents, self._matrix(), kind)

    @pytest.mark.parametrize("kind", ["add", "bi"])
    @pytest.mark.parametrize("bad", [-1, 4])
    def test_id_outside_the_table_is_refused(self, kind, bad):
        matrix = self._matrix()[:4]
        with pytest.raises(CompositionError, match=f"id {bad} is not a row of the 4-row table"):
            compose_documents([[ids(bad, 1), ids(2, 3)]], matrix, kind)


class TestSpanComposition:
    @pytest.mark.parametrize("kind", ["add", "bi"])
    @pytest.mark.parametrize("lengths", [[2, 0, 3], [0], [1, 4, -1]])
    def test_span_without_words_is_refused(self, kind, lengths):
        span = SpanSet(np.zeros(max(sum(lengths), 0), dtype=np.int64), np.array(lengths))
        bad = next(i for i, n in enumerate(lengths) if n < 1)
        with pytest.raises(CompositionError, match=f"span {bad} holds no words"):
            SpanComposition(kind, np.ones((4, 2)), span)

    def test_cell_blocks_cover_every_unit(self, monkeypatch):
        monkeypatch.setattr(embeddings, "BLOCK_CELLS", 100)
        # columns of a (40, positions) block
        assert cell_blocks(40, 2) == [slice(0, 40)]
        assert cell_blocks(40, 0) == [slice(0, 40)]
        assert cell_blocks(40, 30) == [slice(j, min(j + 3, 40)) for j in range(0, 40, 3)]
        assert cell_blocks(40, 10**6) == [slice(j, j + 1) for j in range(40)]
        # rows of an (n, 40) array
        assert cell_blocks(0, 40) == []
        assert cell_blocks(1, 40) == [slice(0, 1)]
        assert cell_blocks(5, 40) == [slice(0, 2), slice(2, 4), slice(4, 5)]
        assert cell_blocks(3, 1000) == [slice(0, 1), slice(1, 2), slice(2, 3)]

    @pytest.mark.parametrize("kind", ["add", "bi"])
    def test_batch_matches_per_span_composition(self, kind):
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(15, 6))
        id_lists = [rng.integers(0, 15, size=rng.integers(2, 7)) for _ in range(9)]
        batch = SpanComposition(kind, matrix, spans(*id_lists))
        for i, ids in enumerate(id_lists):
            expected = oracle.compose(kind, matrix[ids])
            assert np.allclose(batch.values[i], expected, atol=1e-12)

    @pytest.mark.parametrize("kind", ["add", "bi"])
    def test_batch_backward_matches_per_span_backward(self, kind):
        rng = np.random.default_rng(6)
        matrix = rng.normal(size=(12, 3))
        id_lists = [rng.integers(0, 12, size=rng.integers(2, 6)) for _ in range(5)]
        upstream = rng.normal(size=(5, 3))
        batch = SpanComposition(kind, matrix, spans(*id_lists))
        grads = batch.position_grads(upstream, slice(0, 3)).T
        offset = 0
        for i, ids in enumerate(id_lists):
            expected = oracle.compose_backward(kind, matrix[ids], upstream[i])
            assert np.allclose(grads[offset : offset + ids.size], expected, atol=1e-12)
            offset += ids.size

    @pytest.mark.parametrize("kind", ["add", "bi"])
    def test_long_batch_matches_sequential_sums(self, kind):
        # about 1M positions of non-negative values, so no cancellation
        # hides a sum whose error grows with the batch; every span is held
        # to the oracle's sequential sum
        rng = np.random.default_rng(9)
        lengths = rng.integers(15, 36, size=40_000)
        ends = lengths.cumsum()
        matrix = rng.random((int(ends[-1]), 2))
        batch = SpanComposition(kind, matrix, SpanSet(np.arange(ends[-1]), lengths))
        expected = np.array(
            [oracle.compose(kind, matrix[end - n : end]) for n, end in zip(lengths, ends)]
        )
        worst = float((np.abs(batch.values - expected) / expected).max())
        assert worst <= 1e-13

    @pytest.mark.parametrize("kind", ["add", "bi"])
    @pytest.mark.parametrize("one_column", [False, True])
    def test_blocks_match_per_column_reference(self, kind, one_column, request):
        # the forward as np.add.reduceat over one column at a time, the
        # backward expanding the upstream with np.repeat: every bit equal
        if one_column:
            request.getfixturevalue("one_column_blocks")(2)
        rng = np.random.default_rng(12)
        lengths = np.array([2, 3, 1, 1, 5, 6, 2, 4, 1])
        matrix = rng.normal(size=(10, 6))
        ids = rng.integers(0, 10, size=lengths.sum())
        upstream = rng.normal(size=(lengths.size, 6))
        batch = SpanComposition(kind, matrix, SpanSet(ids, lengths))

        last = lengths.cumsum() - 1
        values = np.empty((lengths.size, 6))
        grads = np.empty((6, ids.size))
        for j in range(6):
            block = matrix.T[j : j + 1].take(ids, axis=1)
            up = upstream[:, j : j + 1].T.repeat(lengths, axis=1)
            if kind == "bi":
                t = np.zeros_like(block)
                t[:, :-1] = np.tanh(block[:, :-1] + block[:, 1:])
                t[:, last] = 0.0
                block = t
                d = (1.0 - t * t) * up
                d[:, last] = 0.0
                up = np.concatenate([d[:, :1], d[:, 1:] + d[:, :-1]], axis=1)
            values[:, j] = np.add.reduceat(block, lengths.cumsum() - lengths, axis=1)[0]
            grads[j] = up[0]

        assert batch.values.flags.c_contiguous
        assert np.array_equal(batch.values, values)
        for cols in cell_blocks(6, ids.size):
            assert np.array_equal(batch.position_grads(upstream, cols), grads[cols])

    def test_bi_single_token_span_is_zero(self):
        batch = SpanComposition("bi", np.ones((4, 2)), spans([1], [2, 3, 1]))
        assert np.allclose(batch.values[0], 0.0)
        grads = batch.position_grads(np.ones((2, 2)), slice(0, 2))
        assert grads.shape == (2, 4)
        assert np.allclose(grads[:, 0], 0.0)


class TestTablePair:
    def test_lookup_and_sizes(self):
        pair = TablePair(init_table(4, 3, 0.1, 0, "en"), init_table(6, 3, 0.1, 1, "de"))
        assert pair.total_rows == 10
        assert pair.by_tag("de").language_tag == "de"
        with pytest.raises(DataError):
            pair.by_tag("fr")

    def test_same_tags_rejected(self):
        with pytest.raises(DataError):
            TablePair(init_table(4, 3, 0.1, 0, "en"), init_table(4, 3, 0.1, 1, "en"))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DataError):
            TablePair(init_table(4, 3, 0.1, 0, "en"), init_table(4, 2, 0.1, 1, "de"))

    def test_copy_keeps_each_layout_and_shares_no_memory(self):
        l1 = init_table(4, 3, 0.1, 0, "en")
        l1.matrix = np.asfortranarray(l1.matrix)
        pair = TablePair(l1, init_table(6, 3, 0.1, 1, "de"))
        copy = pair.copy()
        assert copy.by_tag("de") is copy.l2
        for original, copied in ((pair.l1, copy.l1), (pair.l2, copy.l2)):
            assert copied.language_tag == original.language_tag
            assert np.array_equal(copied.matrix, original.matrix)
            assert copied.matrix.flags.f_contiguous == original.matrix.flags.f_contiguous
            assert copied.matrix.flags.c_contiguous == original.matrix.flags.c_contiguous
            assert not np.shares_memory(copied.matrix, original.matrix)
        assert copy.l1.matrix.flags.f_contiguous and not copy.l1.matrix.flags.c_contiguous


class TestEmbeddingTextFormat:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        matrix = rng.normal(size=(7, 5))
        tokens = ["<unk>"] + [f"tok{i}" for i in range(6)]
        path = tmp_path / "e.vec"
        save_embeddings_text(path, tokens, matrix)
        loaded_tokens, loaded = load_embeddings_text(path)
        assert loaded_tokens == tokens
        assert (loaded == matrix).all()  # repr round-trips float64 exactly

    def test_rows_are_the_repr_of_each_value(self, tmp_path):
        rng = np.random.default_rng(9)
        matrix = rng.normal(scale=1e3, size=(6, 4))
        matrix[1] = [0.0, -0.0, 1e-300, -5e-324]
        matrix[2] = [1e300, -1.7976931348623157e308, 0.1, 123456789.0]
        tokens = ["<unk>"] + [f"tok{i}" for i in range(5)]
        path = tmp_path / "e.vec"
        save_embeddings_text(path, tokens, np.asfortranarray(matrix))
        expected = "6 4\n" + "".join(
            token + "".join(f" {float(v)!r}" for v in row) + "\n"
            for token, row in zip(tokens, matrix)
        )
        assert path.read_text() == expected
        save_embeddings_text(path, ["<unk>", "a"], np.array([[1, -2], [0, 3]]))
        assert path.read_text() == "2 2\n<unk> 1.0 -2.0\na 0.0 3.0\n"

    def test_blank_lines_after_the_rows_are_accepted(self, tmp_path):
        path = tmp_path / "e.vec"
        path.write_text("1 2\ntok 0.5 1.5\n\n  \n")
        tokens, matrix = load_embeddings_text(path)
        assert tokens == ["tok"] and matrix.tolist() == [[0.5, 1.5]]

    def test_header_format(self, tmp_path):
        path = tmp_path / "e.vec"
        save_embeddings_text(path, ["<unk>", "a"], np.zeros((2, 3)))
        first = path.read_text().splitlines()[0]
        assert first == "2 3"

    def test_row_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(DataError):
            save_embeddings_text(tmp_path / "e.vec", ["a"], np.zeros((2, 3)))

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.vec"
        path.write_text("1 3\ntok 0.5 0.5\n")
        with pytest.raises(DataError):
            load_embeddings_text(path)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "e.vec"
        save_embeddings_text(path, ["<unk>", "a"], np.ones((2, 3)))
        before = path.read_bytes()
        with pytest.raises(TypeError):  # the second token is not a str
            save_embeddings_text(path, ["<unk>", 7], np.zeros((2, 3)))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["e.vec"]


def test_composition_kind_coercion():
    assert CompositionKind.coerce("ADD") is CompositionKind.ADD
    assert CompositionKind.coerce(CompositionKind.BI) is CompositionKind.BI
    with pytest.raises(DataError):
        CompositionKind.coerce("conv")


def test_oracle_imports_only_numpy():
    # the oracles stay independent of the library code they check
    tree = ast.parse(Path(oracle.__file__).read_text())
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            roots.add((node.module or "").split(".")[0])
    assert roots == {"numpy"}
