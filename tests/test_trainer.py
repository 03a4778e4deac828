import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import oracle
import pytest
from conftest import spans

from xlembed import trainer
from xlembed.corpus import (
    EncodedCorpus,
    PairBatch,
    ParallelCorpus,
    TripleBatch,
    Vocabulary,
    atomic_write,
    sample_bilingual_pairs,
)
from xlembed.embeddings import EmbeddingTable, TablePair, init_table
from xlembed.errors import ConfigError, DataError, TrainingError
from xlembed.objective import batch_loss, batch_loss_and_grad
from xlembed.trainer import (
    EPOCHS_BI_ONLY,
    EPOCHS_WITH_MONO,
    AdaGradState,
    Batch,
    TrainConfig,
    TrainingData,
    apply_sparse_update,
    load_checkpoint,
    make_batch,
    parse_config_file,
    proportional_mix,
    save_checkpoint,
    train,
    train_step,
)


def small_data(seed=0, n_pairs=30, n_mono=50, vocab=20, tags=("en", "de")):
    rng = np.random.default_rng(seed)

    def sentences(n):
        return [rng.integers(1, vocab, size=rng.integers(3, 8)).astype(np.int32) for _ in range(n)]

    pair_sents = sentences(n_pairs)
    tag1, tag2 = tags
    voc1 = Vocabulary([f"w{i}" for i in range(vocab - 1)], [5] * (vocab - 1), 0, tag1)
    voc2 = Vocabulary([f"v{i}" for i in range(vocab - 1)], [5] * (vocab - 1), 0, tag2)
    return TrainingData(
        voc1,
        voc2,
        ParallelCorpus(
            EncodedCorpus(pair_sents, tag1),
            EncodedCorpus([s.copy() for s in pair_sents], tag2),
        ),
        EncodedCorpus(sentences(n_mono), tag1),
        EncodedCorpus(sentences(n_mono), tag2),
    )


class TestTrainConfig:
    def test_defaults_follow_reference_setup(self):
        config = TrainConfig()
        assert config.dim == 40
        assert config.learning_rate == 0.2
        assert config.batch_size == 40000
        assert config.resolved_margin() == 40.0
        assert config.lam == 1.0
        assert config.epochs is None
        assert (EPOCHS_BI_ONLY, EPOCHS_WITH_MONO) == (100, 25)
        assert config.composition == "add"
        assert config.init_sigma == 0.1
        assert config.adagrad_epsilon == 1e-8

    def test_margin_defaults_to_dim(self):
        assert TrainConfig(dim=16).resolved_margin() == 16.0
        assert TrainConfig(dim=16, margin=3.0).resolved_margin() == 3.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(mix=(0.5, 0.5, 0.5)).validate()
        with pytest.raises(ConfigError):
            TrainConfig(composition="conv").validate()

    @pytest.mark.parametrize("field, value, message", [
        ("dim", "forty", "dim must be an integer, got 'forty'"),
        ("dim", 40.0, "dim must be an integer, got 40.0"),
        ("batch_size", True, "batch_size must be an integer, got True"),
        ("seed", None, "seed must be an integer, got None"),
        ("epochs", 2.5, "epochs must be an integer, got 2.5"),
        ("learning_rate", "0.2", "learning_rate must be a number, got '0.2'"),
        ("margin", [1.0], r"margin must be a number, got \[1.0\]"),
        ("lam", None, "lambda must be a number, got None"),
        ("mix", (0.5, "a", 0.5), "mix must be three finite fractions"),
        ("mix", (0.5, 0.5), "mix must be three finite fractions"),
        ("mix", "abc", "mix must be three finite fractions"),
    ])
    def test_field_types_checked(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            replace(TrainConfig(), **{field: value}).validate()

    @pytest.mark.parametrize("field, message", [
        ("dim", "dim is too large for a float"),
        ("batch_size", "batch_size is too large for a float"),
        ("learning_rate", "learning_rate must be finite"),
        ("margin", "margin must be finite"),
        ("lam", "lambda must be finite"),
        ("adagrad_epsilon", "adagrad_epsilon must be finite"),
        ("init_sigma", "init_sigma must be finite"),
        ("mix", "mix must be three finite fractions"),
    ])
    def test_integer_too_large_for_a_float_is_refused(self, field, message):
        value = (10**400, 0, 0) if field == "mix" else 10**400
        with pytest.raises(ConfigError, match=message):
            replace(TrainConfig(), **{field: value}).validate()

    def test_numbers_of_any_type_and_derived_defaults_accepted(self):
        TrainConfig(dim=np.int64(4), learning_rate=1, lam=np.float64(0.5), margin=None,
                    epochs=None, mix=[0.5, 0.25, 0.25]).validate()

    def test_proportional_mix_from_corpus_sizes(self):
        mix = proportional_mix(1_660_000, 4_500_000, 900_000)
        assert tuple(round(f, 3) for f in mix) == (0.235, 0.637, 0.127)
        assert sum(mix) == pytest.approx(1.0)


def step_row(w, g_acc, grad, lr, eps):
    """apply_sparse_update on a one-row table; returns the new (G, w) row."""
    table = EmbeddingTable(np.array([w], dtype=float), "en")
    g_rows, w_rows = apply_sparse_update(
        table, np.array([g_acc], dtype=float), np.array([0]), np.array([grad], dtype=float),
        lr, eps,
    )
    return g_rows[0], w_rows[0]


class TestAdaGrad:
    def test_zero_gradient_no_change(self):
        g, w = step_row([1.0, 2.0], [0.5, 0.5], [0.0, 0.0], lr=0.2, eps=1e-8)
        assert w.tolist() == [1.0, 2.0]
        assert g.tolist() == [0.5, 0.5]

    def test_first_step_size_is_learning_rate(self):
        # fresh accumulator: step = lr * g / (|g| + eps) ~ lr * sign(g)
        _, w = step_row([0.0, 0.0], [0.0, 0.0], [1.0, 0.0], lr=0.2, eps=1e-12)
        assert w[0] == pytest.approx(-0.2, rel=1e-9)
        assert w[1] == 0.0

    def test_repeated_identical_gradients_decay_as_inverse_sqrt(self):
        g, w = np.zeros(1), np.zeros(1)
        lr = 0.1
        for t in range(1, 21):
            before = w[0]
            g, w = step_row(w, g, [2.0], lr=lr, eps=1e-12)
            # closed form: G = t * g^2, step = lr * g / (sqrt(t) * |g|)
            assert before - w[0] == pytest.approx(lr / np.sqrt(t), rel=1e-9)

    def test_accumulator_monotone_nondecreasing(self):
        rng = np.random.default_rng(0)
        g, w = np.zeros(4), np.zeros(4)
        for _ in range(50):
            last = g
            g, w = step_row(w, g, rng.normal(size=4), lr=0.1, eps=1e-8)
            assert (g >= last).all()

    def test_nonfinite_gradient_aborts(self):
        with pytest.raises(TrainingError):
            step_row([0.0, 0.0], [0.0, 0.0], [np.nan, 0.0], 0.1, 1e-8)

    def test_vectorized_update_matches_row_loop(self):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(6, 3))
        g_matrix = np.abs(rng.normal(size=(6, 3)))
        table = EmbeddingTable(matrix.copy(), "en")
        g_vec = g_matrix.copy()
        ids = np.array([1, 4, 5])
        grads = rng.normal(size=(3, 3))
        g_rows, w_rows = apply_sparse_update(table, g_vec, ids, grads.copy(), lr=0.3, eps=1e-8)
        assert (table.matrix == matrix).all() and (g_vec == g_matrix).all()
        for r, i in enumerate(ids):
            g_row, w_row = oracle.adagrad_step(matrix[i], g_matrix[i], grads[r], 0.3, 1e-8)
            assert (w_rows[r] == w_row).all() and (g_rows[r] == g_row).all()


class TestTrainStep:
    def test_zero_gradient_batch_leaves_tables_unchanged(self):
        m = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]])
        tables = TablePair(EmbeddingTable(m.copy(), "en"), EmbeddingTable(m.copy(), "de"))
        state = AdaGradState.zeros(tables)
        config = TrainConfig(dim=2, lam=0.0, margin=0.0, batch_size=2)
        # outer == inner == noise spans: exactly zero data gradient
        batch = Batch(mono_l1=TripleBatch("en", *[spans([1, 2, 1])] * 3))
        before = tables.l1.matrix.copy()
        train_step(batch, tables, state, config)
        assert (tables.l1.matrix == before).all()

    def test_bilingual_descent_on_single_pair(self):
        rng = np.random.default_rng(3)
        tables = TablePair(
            init_table(5, 4, 0.5, (3, 0), "en"), init_table(5, 4, 0.5, (3, 1), "de")
        )
        par = ParallelCorpus(
            EncodedCorpus([np.array([1, 2, 3])], "en"),
            EncodedCorpus([np.array([2, 4, 1])], "de"),
        )
        config = TrainConfig(dim=4, lam=0.0, learning_rate=0.05, batch_size=1)
        state = AdaGradState.zeros(tables)
        pairs = sample_bilingual_pairs(par, rng, 1)
        before = batch_loss(pairs, None, None, tables, "add", 4.0, 0.0).bilingual
        train_step(Batch(pairs=pairs), tables, state, config)
        after = batch_loss(pairs, None, None, tables, "add", 4.0, 0.0).bilingual
        assert after < before

    def test_overflowing_l2_update_leaves_both_tables_unchanged(self):
        # v2 = [0, 1] from two huge rows, so every gradient is +-1, and at
        # learning rate 1e308 the second l2 row steps past the float range;
        # the l1 row, whose accumulator starts at 2, stays finite
        tables = TablePair(
            EmbeddingTable(np.array([[0.5, 0.5]]), "en"),
            EmbeddingTable(np.array([[-1.5e308, 0.5], [1.5e308, 0.5]]), "de"),
        )
        state = AdaGradState.zeros(tables)
        state.g_by_tag["en"][:] = 2.0
        pair = PairBatch("en", "de", spans([0]), spans([0, 1]))
        config = TrainConfig(dim=2, lam=0.0, learning_rate=1e308, batch_size=1)
        before = [a.copy() for a in (tables.l1.matrix, tables.l2.matrix,
                                     state.g_by_tag["en"], state.g_by_tag["de"])]
        with pytest.raises(TrainingError, match="after update in 'de'"):
            train_step(Batch(pairs=pair), tables, state, config)
        after = (tables.l1.matrix, tables.l2.matrix, state.g_by_tag["en"], state.g_by_tag["de"])
        for old, new in zip(before, after):
            assert old.tobytes() == new.tobytes()

    def test_overflow_on_pool_threads_raises_without_warnings(self, one_column_blocks):
        # each one-column block of the l2 composition overflows on a pool
        # thread, where train_step's errstate must hold as in the caller
        one_column_blocks(2)
        tables = TablePair(
            EmbeddingTable(np.array([[0.5, 0.5]]), "en"),
            EmbeddingTable(np.full((2, 2), 1.5e308), "de"),
        )
        state = AdaGradState.zeros(tables)
        pair = PairBatch("en", "de", spans([0]), spans([0, 1]))
        config = TrainConfig(dim=2, lam=0.0, batch_size=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError):
                train_step(Batch(pairs=pair), tables, state, config)

    def test_step_touches_only_batch_rows(self):
        data = small_data()
        tables = TablePair(
            init_table(len(data.vocab_l1), 4, 0.1, (7, 0), "en"),
            init_table(len(data.vocab_l2), 4, 0.1, (7, 1), "de"),
        )
        state = AdaGradState.zeros(tables)
        config = TrainConfig(dim=4, batch_size=6)
        rng = np.random.default_rng(11)
        batch = make_batch(data, config, (0.4, 0.3, 0.3), rng)
        before = {t: tables.by_tag(t).matrix.copy() for t in tables.tags}
        train_step(batch, tables, state, config)
        batch_ids = {
            "en": set(batch.pairs.side_l1.ids.tolist()) | set(batch.mono_l1.outer.ids.tolist())
            | set(batch.mono_l1.inner.ids.tolist()) | set(batch.mono_l1.noise.ids.tolist()),
            "de": set(batch.pairs.side_l2.ids.tolist()) | set(batch.mono_l2.outer.ids.tolist())
            | set(batch.mono_l2.inner.ids.tolist()) | set(batch.mono_l2.noise.ids.tolist()),
        }
        for tag in tables.tags:
            changed = np.flatnonzero(
                (tables.by_tag(tag).matrix != before[tag]).any(axis=1)
            )
            assert set(changed.tolist()) <= batch_ids[tag]


def serial_update(matrix, g_matrix, ids, grads, lr, eps):
    """The oracle's AdaGrad step on every touched row, one row at a time,
    as the new (G, w) rows."""
    steps = [oracle.adagrad_step(matrix[i], g_matrix[i], g, lr, eps) for i, g in zip(ids, grads)]
    return np.array([g for g, _ in steps]), np.array([w for _, w in steps])


def laid_out(tables, state, table_order, g_order):
    for table in (tables.l1, tables.l2):
        table.matrix = np.asarray(table.matrix, order=table_order)
    state.g_by_tag = {tag: np.asarray(g, order=g_order) for tag, g in state.g_by_tag.items()}


def arrays(tables, state):
    return [tables.l1.matrix, tables.l2.matrix, state.g_by_tag["en"], state.g_by_tag["de"]]


LAYOUTS = [("F", "F"), ("F", "C"), ("C", "C")]  # (tables, accumulators)


class TestRowBlocks:
    """The per-row tail (regularizer rows, AdaGrad, commit) runs in one-row
    blocks on two pool threads; the results must be those of serial code,
    and a failure in any block must write nothing."""

    @pytest.mark.parametrize("g_order", ["C", "F"])
    def test_update_matches_serial_reference(self, one_column_blocks, g_order):
        one_column_blocks(2)
        rng = np.random.default_rng(2)
        matrix = np.asfortranarray(rng.normal(size=(30, 4)))
        g_matrix = np.asarray(np.abs(rng.normal(size=(30, 4))), order=g_order)
        ids = np.array([0, 3, 4, 9, 17, 28, 29])
        grads = rng.normal(size=(ids.size, 4))
        before = (matrix.copy(), g_matrix.copy())
        g_rows, w_rows = apply_sparse_update(
            EmbeddingTable(matrix, "en"), g_matrix, ids, grads.copy(), 0.3, 1e-8
        )
        ref_g, ref_w = serial_update(matrix, g_matrix, ids, grads, 0.3, 1e-8)
        assert np.array_equal(g_rows, ref_g) and np.array_equal(w_rows, ref_w)
        assert np.array_equal(matrix, before[0]) and np.array_equal(g_matrix, before[1])

    @pytest.mark.parametrize("table_order,g_order", LAYOUTS)
    def test_train_step_matches_serial_reference(self, one_column_blocks, table_order, g_order):
        data = small_data(seed=4)
        config = TrainConfig(dim=4, batch_size=12)
        batch = make_batch(data, config, (0.4, 0.3, 0.3), np.random.default_rng(8))
        tables = TablePair(
            init_table(len(data.vocab_l1), 4, 0.1, (4, 0), "en"),
            init_table(len(data.vocab_l2), 4, 0.1, (4, 1), "de"),
        )
        state = AdaGradState.zeros(tables)
        state.g_by_tag = {tag: g + 0.5 for tag, g in state.g_by_tag.items()}
        laid_out(tables, state, table_order, g_order)
        expected = [a.copy() for a in arrays(tables, state)]
        ref_loss, grads = batch_loss_and_grad(
            batch.pairs, batch.mono_l1, batch.mono_l2, tables, "add", config.resolved_margin(),
            config.lam,
        )
        for i, tag in enumerate(tables.tags):
            ids, rows = grads[tag]
            g_rows, w_rows = serial_update(
                expected[i], expected[2 + i], ids, rows, config.learning_rate,
                config.adagrad_epsilon,
            )
            expected[2 + i][ids] = g_rows
            expected[i][ids] = w_rows
        one_column_blocks(2)
        loss = train_step(batch, tables, state, config)
        assert loss == ref_loss
        for got, want in zip(arrays(tables, state), expected):
            assert np.array_equal(got, want)

    def test_late_nonfinite_gradient_names_first_eight_ids(self, one_column_blocks):
        one_column_blocks(2)
        ids = np.arange(0, 40, 2)
        grads = np.ones((ids.size, 3))
        grads[[19, 11, 14, 12, 13, 15, 16, 17, 18], 1] = [np.nan, np.inf, -np.inf] * 3
        table = EmbeddingTable(np.zeros((40, 3)), "en")
        with pytest.raises(TrainingError) as info:
            apply_sparse_update(table, np.zeros((40, 3)), ids, grads, 0.1, 1e-8)
        assert str(info.value) == (
            "non-finite gradient for 'en' rows [22, 24, 26, 28, 30, 32, 34, 36]"
        )

    def test_weights_written_over_gradient_rows(self):
        # only the accumulator rows are a new array, so the update's peak is
        # one (rows, dim) array plus its row blocks' temporaries
        rng = np.random.default_rng(5)
        rows, dim = 50_000, 40
        matrix = np.asfortranarray(rng.normal(size=(rows, dim)))
        g_matrix = np.asfortranarray(np.abs(rng.normal(size=(rows, dim))))
        ids = np.arange(rows)
        grads = rng.normal(size=(rows, dim))
        expected = serial_update(matrix[:50], g_matrix[:50], ids[:50], grads[:50], 0.2, 1e-8)
        tracemalloc.start()
        try:
            g_rows, w_rows = apply_sparse_update(
                EmbeddingTable(matrix, "en"), g_matrix, ids, grads, 0.2, 1e-8
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(w_rows, grads) and not np.shares_memory(g_rows, grads)
        assert peak < 1.5 * grads.nbytes
        assert np.array_equal(g_rows[:50], expected[0]) and np.array_equal(w_rows[:50], expected[1])

    def test_nonfinite_gradient_named_over_an_overflowing_update(self, one_column_blocks):
        # one-row blocks: the updates of rows 0 and 1 overflow and write over
        # their gradient rows, rows 3 to 12 hold a non-finite gradient; only
        # those are named, in id order, and nothing is written
        one_column_blocks(2)
        ids = np.arange(0, 40, 2)
        matrix = np.zeros((40, 2))
        matrix[ids[:2]] = 1.5e308
        g_matrix = np.zeros((40, 2))
        grads = -np.ones((ids.size, 2))
        grads[3:13, 1] = [np.nan, np.inf, -np.inf, np.nan, np.inf, -np.inf, np.nan, np.inf,
                          -np.inf, np.nan]
        before = matrix.tobytes(), g_matrix.tobytes()
        with pytest.raises(TrainingError) as info:
            apply_sparse_update(EmbeddingTable(matrix, "en"), g_matrix, ids, grads, 1e308, 1e-8)
        assert str(info.value) == (
            "non-finite gradient for 'en' rows [6, 8, 10, 12, 14, 16, 18, 20]"
        )
        assert (matrix.tobytes(), g_matrix.tobytes()) == before

    def test_late_nonfinite_update_message(self, one_column_blocks):
        one_column_blocks(2)
        matrix = np.zeros((20, 2))
        matrix[19] = 1.5e308
        grads = -np.ones((20, 2))
        with pytest.raises(TrainingError) as info:
            apply_sparse_update(EmbeddingTable(matrix, "de"), np.zeros((20, 2)), np.arange(20),
                                grads, 1e308, 1e-8)
        assert str(info.value) == "non-finite weights or accumulators after update in 'de'"

    @staticmethod
    def failing_step(tables, state, pair, lr, composition="add"):
        config = TrainConfig(dim=2, lam=0.0, learning_rate=lr, batch_size=1,
                             composition=composition)
        before = [a.copy() for a in arrays(tables, state)]
        with pytest.raises(TrainingError) as info:
            train_step(Batch(pairs=pair), tables, state, config)
        for old, new in zip(before, arrays(tables, state)):
            assert old.tobytes() == new.tobytes()
        return str(info.value)

    @pytest.mark.parametrize("table_order,g_order", LAYOUTS)
    def test_late_nonfinite_gradient_writes_nothing(self, one_column_blocks, table_order, g_order):
        one_column_blocks(2)
        # the second en span composes to inf, so only en rows 10 and 11 (and
        # the de rows of that pair) get a non-finite gradient
        en = np.full((12, 2), 0.25)
        en[10:] = 1e308
        tables = TablePair(EmbeddingTable(en, "en"), EmbeddingTable(np.full((12, 2), 0.5), "de"))
        state = AdaGradState.zeros(tables)
        laid_out(tables, state, table_order, g_order)
        pair = PairBatch("en", "de", spans(list(range(10)), [10, 11]),
                         spans(list(range(5)), [6, 7]))
        assert self.failing_step(tables, state, pair, 0.1) == (
            "non-finite gradient for 'en' rows [10, 11]"
        )

    @pytest.mark.parametrize("table_order,g_order", LAYOUTS)
    def test_nan_row_under_bi_pairs_step_writes_nothing(self, one_column_blocks, table_order,
                                                        g_order):
        # a Bi batch of pairs alone takes the one-pass backward; the NaN in
        # en row 10 reaches the second pair's bigram, so only en rows 10
        # and 11 (and the de rows of that pair) get a non-finite gradient
        one_column_blocks(2)
        en = np.full((12, 2), 0.25)
        en[10, 1] = np.nan
        tables = TablePair(EmbeddingTable(en, "en"), EmbeddingTable(np.full((12, 2), 0.5), "de"))
        state = AdaGradState.zeros(tables)
        laid_out(tables, state, table_order, g_order)
        pair = PairBatch("en", "de", spans(list(range(10)), [10, 11]),
                         spans(list(range(5)), [6, 7]))
        assert self.failing_step(tables, state, pair, 0.1, "bi") == (
            "non-finite gradient for 'en' rows [10, 11]"
        )

    @pytest.mark.parametrize("table_order,g_order", LAYOUTS)
    def test_only_second_table_failing_writes_nothing(self, one_column_blocks, table_order,
                                                      g_order):
        one_column_blocks(2)
        # v1 = [0.25, 2.25], and v2 = [0, 2] from zero rows and two huge
        # rows: every gradient is +-0.5, so at learning rate 1e308 each row
        # steps by 1e308, which only the last de row cannot take
        de = np.zeros((12, 2))
        de[10:] = [[-1.5e308, 1.0], [1.5e308, 1.0]]
        en = np.tile([0.0625, 0.5625], (4, 1))
        tables = TablePair(EmbeddingTable(en, "en"), EmbeddingTable(de, "de"))
        state = AdaGradState.zeros(tables)
        laid_out(tables, state, table_order, g_order)
        pair = PairBatch("en", "de", spans([0, 1, 2, 3]), spans(list(range(12))))
        assert self.failing_step(tables, state, pair, 1e308) == (
            "non-finite weights or accumulators after update in 'de'"
        )


class TestMakeBatch:
    def test_counts_follow_mix(self):
        data = small_data()
        config = TrainConfig(batch_size=100)
        rng = np.random.default_rng(0)
        batch = make_batch(data, config, (0.2, 0.5, 0.3), rng)
        assert batch.pairs.n == 20
        assert batch.mono_l1.n == 50
        assert batch.mono_l2.n == 30

    def test_all_bilingual_mix(self):
        data = small_data()
        config = TrainConfig(batch_size=10)
        batch = make_batch(data, config, (1.0, 0.0, 0.0), np.random.default_rng(0))
        assert batch.pairs.n == 10
        assert batch.mono_l1 is None and batch.mono_l2 is None

    def test_mix_on_absent_corpus_rejected_by_train(self):
        data = small_data()
        data.mono_l1 = None
        config = TrainConfig(dim=2, epochs=1, batch_size=4, mix=(0.5, 0.5, 0.0))
        with pytest.raises(ConfigError):
            train(data, config)

    def test_batch_beyond_physical_memory_refused_by_train(self, monkeypatch):
        # 30 pairs of 3-7 words a side and 50 mono sentences per language:
        # batch 100 samples at least 7 KiB of span ids, batch 8 under 1 KiB
        data = small_data()
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1}
        monkeypatch.setattr(trainer.os, "sysconf", pages.__getitem__)
        with pytest.raises(ConfigError, match="batch_size 100 needs .* GiB of physical memory"):
            train(data, TrainConfig(dim=2, epochs=1, batch_size=100))
        assert len(train(data, TrainConfig(dim=2, epochs=1, batch_size=8)).history) == round(50 / 8)

    def test_unreported_physical_memory_skips_the_check(self, monkeypatch):
        def unreported(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr(trainer.os, "sysconf", unreported)
        assert len(train(small_data(), TrainConfig(dim=2, epochs=1, batch_size=100)).history) == 1


class TestTrainLoop:
    def test_epochs_zero_returns_initial_tables(self):
        data = small_data()
        config = TrainConfig(dim=4, epochs=0, batch_size=8, seed=5)
        result = train(data, config)
        expected = init_table(len(data.vocab_l1), 4, config.init_sigma, (5, 0), "en")
        assert (result.tables.l1.matrix == expected.matrix).all()
        assert result.history == []

    def test_epoch_selection_by_corpus_presence(self, monkeypatch):
        monkeypatch.setattr(trainer, "EPOCHS_BI_ONLY", 2)
        monkeypatch.setattr(trainer, "EPOCHS_WITH_MONO", 1)
        data = small_data()
        config = TrainConfig(dim=2, batch_size=64)
        result = train(data, config)
        assert max(e for e, _, _ in result.history) == 1
        bi_only = TrainingData(data.vocab_l1, data.vocab_l2, data.parallel)
        result = train(bi_only, config)
        assert max(e for e, _, _ in result.history) == 2

    def test_steps_per_epoch_rounding(self):
        data = small_data(n_pairs=10, n_mono=50)
        config = TrainConfig(dim=2, epochs=2, batch_size=25)
        result = train(data, config)
        # largest corpus 50 sentences / batch 25 = 2 steps per epoch
        assert [s for _, s, _ in result.history] == [1, 2, 1, 2]

    def test_deterministic_with_fixed_seed(self):
        data = small_data()
        config = TrainConfig(dim=4, epochs=3, batch_size=32, seed=21)
        r1 = train(small_data(), config)
        r2 = train(small_data(), config)
        assert (r1.tables.l1.matrix == r2.tables.l1.matrix).all()
        assert (r1.tables.l2.matrix == r2.tables.l2.matrix).all()
        t1 = [b.total for _, _, b in r1.history]
        t2 = [b.total for _, _, b in r2.history]
        assert t1 == t2

    def test_log_line_format(self):
        data = small_data()
        lines = []
        config = TrainConfig(dim=2, epochs=1, batch_size=64)
        train(data, config, log_fn=lines.append)
        parts = lines[0].split()
        assert len(parts) == 7
        assert parts[0] == "1" and parts[1] == "1"
        epoch, step, l_bi, l_m1, l_m2, l_reg, l_total = (float(p) for p in parts)
        assert l_total == pytest.approx(l_bi + l_m1 + l_m2 + l_reg, rel=1e-9)

    def test_parameters_finite_after_training(self):
        data = small_data()
        result = train(data, TrainConfig(dim=4, epochs=5, batch_size=64))
        assert np.isfinite(result.tables.l1.matrix).all()
        assert np.isfinite(result.tables.l2.matrix).all()
        for g in result.state.g_by_tag.values():
            assert (g >= 0).all()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        tables = TablePair(init_table(4, 3, 0.1, 0, "en"), init_table(5, 3, 0.1, 1, "de"))
        state = AdaGradState.zeros(tables)
        state.g_by_tag["en"][2, 1] = 7.0
        config = TrainConfig(dim=3, mix=(0.5, 0.25, 0.25))
        rng = np.random.default_rng(123)
        rng.integers(0, 10, size=5)  # advance the stream
        path = tmp_path / "ck.npz"
        save_checkpoint(path, tables, state, config, epoch=4, rng=rng)
        tables2, state2, config2, epoch2, rng2 = load_checkpoint(path)
        assert epoch2 == 4
        assert config2 == config
        assert (tables2.l1.matrix == tables.l1.matrix).all()
        assert (state2.g_by_tag["en"] == state.g_by_tag["en"]).all()
        assert rng2.integers(0, 1000) == rng.integers(0, 1000)

    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_rejects_unknown_version(self, tmp_path):
        from xlembed.trainer import CHECKPOINT_MAGIC

        path = tmp_path / "future.npz"
        np.savez(path, magic=np.array(CHECKPOINT_MAGIC), version=np.array(99))
        with pytest.raises(DataError):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["table_l1", "table_l2", "g_l1", "g_l2"])
    def test_rejects_non_finite_arrays(self, tmp_path, key):
        tables = TablePair(init_table(4, 3, 0.1, 0, "en"), init_table(5, 3, 0.1, 1, "de"))
        path = tmp_path / "ck.npz"
        save_checkpoint(path, tables, AdaGradState.zeros(tables), TrainConfig(dim=3), 1,
                        np.random.default_rng(0))
        with np.load(path) as z:
            arrays = dict(z)
        arrays[key][1, 2] = np.inf
        np.savez(path, **arrays)
        with pytest.raises(DataError, match="non-finite"):
            load_checkpoint(path)

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        full = train(small_data(), TrainConfig(dim=4, epochs=6, batch_size=32, seed=9))

        # stop after 3 epochs, then continue from the checkpoint to epoch 6
        path = tmp_path / "ck.npz"
        train(small_data(), TrainConfig(dim=4, epochs=3, batch_size=32, seed=9),
              checkpoint_path=path)
        resumed = train(
            small_data(),
            TrainConfig(dim=4, epochs=6, batch_size=32, seed=9),
            resume_from=path,
        )
        assert max(e for e, _, _ in resumed.history) == 6
        assert min(e for e, _, _ in resumed.history) == 4
        assert (resumed.tables.l1.matrix == full.tables.l1.matrix).all()
        assert (resumed.tables.l2.matrix == full.tables.l2.matrix).all()

    def test_resume_with_other_config_rejected(self, tmp_path):
        config = TrainConfig(dim=4, epochs=2, batch_size=32)
        path = tmp_path / "ck.npz"
        train(small_data(), config, checkpoint_path=path)
        other = TrainConfig(dim=4, epochs=2, batch_size=16)
        with pytest.raises(ConfigError):
            train(small_data(), other, resume_from=path)

    def test_resume_with_other_language_tags_rejected(self, tmp_path):
        config = TrainConfig(dim=4, epochs=2, batch_size=32)
        path = tmp_path / "ck.npz"
        train(small_data(), config, checkpoint_path=path)
        with pytest.raises(DataError, match="checkpoint language tags do not match the corpora"):
            train(small_data(tags=("en", "fr")), config, resume_from=path)


def checkpoint_members(path) -> dict[str, np.ndarray]:
    with np.load(path) as z:
        return {name: z[name] for name in z.files}


class TestFailureKeepsBoundaryCheckpoint:
    """After a failure or an interrupt, checkpoint.npz holds the last epoch
    boundary under its true epoch, and resuming from it replays the
    uninterrupted run bit for bit."""

    CONFIG = TrainConfig(dim=4, epochs=6, batch_size=32, seed=9)  # 2 steps per epoch

    @pytest.fixture
    def uninterrupted(self, tmp_path, monkeypatch):
        """The 6-epoch run with checkpoint_every=1, and each checkpoint it
        wrote, by epoch."""
        saved = {}
        save = trainer.save_checkpoint

        def keep_copy(path, tables, state, config, epoch, rng):
            save(path, tables, state, config, epoch, rng)
            saved[epoch] = checkpoint_members(path)

        with monkeypatch.context() as m:
            m.setattr(trainer, "save_checkpoint", keep_copy)
            result = train(small_data(), self.CONFIG, checkpoint_path=tmp_path / "full.npz",
                           checkpoint_every=1)
        return result, saved

    @staticmethod
    def fail_at_epoch_3(kind, monkeypatch):
        """Run arguments and patches that make the run fail in epoch 3."""
        if kind == "training_error":  # the failing step is epoch 3, step 2
            calls = []
            step = trainer.train_step

            def failing_step(*args):
                calls.append(1)
                if len(calls) == 6:
                    raise TrainingError("injected divergence")
                return step(*args)

            monkeypatch.setattr(trainer, "train_step", failing_step)
            return {}
        if kind == "interrupt":  # after epoch 3, step 1 has updated the tables
            def log_fn(line):
                if line.startswith("3 1 "):
                    raise KeyboardInterrupt
            return {"log_fn": log_fn}
        save = trainer.save_checkpoint

        def failing_save(path, tables, state, config, epoch, rng):
            if epoch == 3:  # the disk fills half way through the write
                with atomic_write(path, "wb") as f:
                    f.write(b"PK\x03\x04")
                    raise OSError(28, "No space left on device")
            save(path, tables, state, config, epoch, rng)

        monkeypatch.setattr(trainer, "save_checkpoint", failing_save)
        return {}

    @pytest.mark.parametrize("kind", ["training_error", "interrupt", "save_oserror"])
    def test_resume_after_failure_replays_run(self, tmp_path, monkeypatch, uninterrupted, kind):
        full, saved = uninterrupted
        path = tmp_path / "checkpoint.npz"
        with monkeypatch.context() as m:
            kwargs = self.fail_at_epoch_3(kind, m)
            with pytest.raises((TrainingError, KeyboardInterrupt, OSError)):
                train(small_data(), self.CONFIG, checkpoint_path=path, checkpoint_every=1,
                      **kwargs)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.npz", "full.npz"]
        left = checkpoint_members(path)
        assert left.keys() == saved[2].keys()
        for name, array in saved[2].items():
            assert np.array_equal(left[name], array), name

        resumed = train(small_data(), self.CONFIG, checkpoint_path=path, checkpoint_every=1,
                        resume_from=path)
        assert (resumed.tables.l1.matrix == full.tables.l1.matrix).all()
        assert (resumed.tables.l2.matrix == full.tables.l2.matrix).all()
        assert resumed.history == [h for h in full.history if h[0] >= 3]
        assert load_checkpoint(path)[3] == 6

    def test_resume_past_target_rejected_before_writing(self, tmp_path):
        path = tmp_path / "checkpoint.npz"
        train(small_data(), self.CONFIG, checkpoint_path=path)
        before = path.read_bytes()
        with pytest.raises(ConfigError, match="past the target"):
            train(small_data(), replace(self.CONFIG, epochs=4), checkpoint_path=path,
                  resume_from=path)
        assert path.read_bytes() == before

    def test_resume_at_target_runs_no_step(self, tmp_path):
        path = tmp_path / "checkpoint.npz"
        full = train(small_data(), self.CONFIG, checkpoint_path=path)
        before = checkpoint_members(path)
        again = train(small_data(), self.CONFIG, checkpoint_path=path, resume_from=path)
        assert again.history == []
        assert (again.tables.l1.matrix == full.tables.l1.matrix).all()
        after = checkpoint_members(path)
        for name, array in before.items():
            assert np.array_equal(after[name], array), name


class TestTableLayout:
    """train alone fixes the layout: its tables and accumulators are
    column-major float64 after a fresh start and after a resume, and the
    batch path reads them in place."""

    CONFIG = TrainConfig(dim=4, epochs=6, batch_size=32, seed=9)

    @staticmethod
    def assert_column_major(result):
        arrays = [result.tables.l1.matrix, result.tables.l2.matrix, *result.state.g_by_tag.values()]
        for array in arrays:
            assert array.flags.f_contiguous and not array.flags.c_contiguous
            assert array.dtype == np.float64

    def test_fresh_and_resumed_runs_are_column_major(self, tmp_path):
        path = tmp_path / "ck.npz"
        self.assert_column_major(train(small_data(), replace(self.CONFIG, epochs=3),
                                       checkpoint_path=path))
        self.assert_column_major(train(small_data(), self.CONFIG, resume_from=path))

    def test_resume_from_row_major_checkpoint_replays_run(self, tmp_path):
        full = train(small_data(), self.CONFIG)
        path = tmp_path / "ck.npz"
        train(small_data(), replace(self.CONFIG, epochs=3), checkpoint_path=path)
        # rewrite the checkpoint row-major, as earlier versions saved it
        members = checkpoint_members(path)
        np.savez(path, **{name: a.copy(order="C") for name, a in members.items()})
        assert checkpoint_members(path)["table_l1"].flags.c_contiguous
        resumed = train(small_data(), self.CONFIG, resume_from=path)
        self.assert_column_major(resumed)
        assert resumed.history == [h for h in full.history if h[0] >= 4]
        assert np.array_equal(resumed.tables.l1.matrix, full.tables.l1.matrix)
        assert np.array_equal(resumed.tables.l2.matrix, full.tables.l2.matrix)
        for tag, g in full.state.g_by_tag.items():
            assert np.array_equal(resumed.state.g_by_tag[tag], g)

    def test_steps_compose_from_the_tables_in_place(self, monkeypatch):
        from xlembed import objective

        read = []
        compose = objective.SpanComposition

        def spy(kind, matrix, span):
            read.append(matrix)
            return compose(kind, matrix, span)

        monkeypatch.setattr(objective, "SpanComposition", spy)
        result = train(small_data(), replace(self.CONFIG, epochs=1))
        assert read and all(
            m is result.tables.l1.matrix or m is result.tables.l2.matrix for m in read
        )


class TestCheckpointSaves:
    @staticmethod
    def saved_epochs(monkeypatch, tmp_path, config, **kwargs):
        epochs = []
        save = trainer.save_checkpoint

        def record(path, tables, state, config, epoch, rng):
            epochs.append(epoch)
            save(path, tables, state, config, epoch, rng)

        monkeypatch.setattr(trainer, "save_checkpoint", record)
        train(small_data(), config, checkpoint_path=tmp_path / "ck.npz", **kwargs)
        return epochs

    @pytest.mark.parametrize("every, epochs", [(0, [3]), (1, [1, 2, 3]), (2, [2, 3]), (3, [3])])
    def test_each_epoch_saved_once(self, monkeypatch, tmp_path, every, epochs):
        config = TrainConfig(dim=2, epochs=3, batch_size=64)
        assert self.saved_epochs(monkeypatch, tmp_path, config, checkpoint_every=every) == epochs

    def test_negative_interval_refused_before_any_save(self, monkeypatch, tmp_path):
        config = TrainConfig(dim=2, epochs=3, batch_size=64)
        with pytest.raises(ConfigError, match="checkpoint_every must be >= 0, got -1"):
            self.saved_epochs(monkeypatch, tmp_path, config, checkpoint_every=-1)
        assert not list(tmp_path.iterdir())

    def test_run_of_no_epoch_saves_its_start_once(self, monkeypatch, tmp_path):
        config = TrainConfig(dim=2, epochs=0, batch_size=64)
        assert self.saved_epochs(monkeypatch, tmp_path, config, checkpoint_every=1) == [0]

    def test_resumed_run_saves_each_remaining_epoch_once(self, monkeypatch, tmp_path):
        config = TrainConfig(dim=2, epochs=3, batch_size=64)
        start = tmp_path / "epoch1.npz"
        train(small_data(), replace(config, epochs=1), checkpoint_path=start)
        assert self.saved_epochs(monkeypatch, tmp_path, config, checkpoint_every=1,
                                 resume_from=start) == [2, 3]


class TestConfigFile:
    def test_parse_and_unknown_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\ndim = 16\nlambda = 0.5\n")
        values = parse_config_file(path, {"dim", "lambda"})
        assert values == {"dim": "16", "lambda": "0.5"}
        path.write_text("dimension = 16\n")
        with pytest.raises(ConfigError):
            parse_config_file(path, {"dim"})

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("dim = 16\ndim = 8\n")
        with pytest.raises(ConfigError):
            parse_config_file(path, {"dim"})

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("dim 16\n")
        with pytest.raises(ConfigError):
            parse_config_file(path, {"dim"})
