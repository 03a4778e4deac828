import numpy as np
import pytest

from xlembed.corpus import (
    EncodedCorpus,
    ParallelCorpus,
    TripleBatch,
    Vocabulary,
    sample_bilingual_pairs,
)
from xlembed.embeddings import EmbeddingTable, TablePair, init_table
from xlembed.errors import ConfigError, DataError, TrainingError
from xlembed.objective import batch_loss
from xlembed.trainer import (
    AdaGradState,
    Batch,
    TrainConfig,
    TrainingData,
    adagrad_update,
    apply_sparse_update,
    load_checkpoint,
    make_batch,
    parse_config_file,
    proportional_mix,
    save_checkpoint,
    train,
    train_step,
)


def small_data(seed=0, n_pairs=30, n_mono=50, vocab=20):
    rng = np.random.default_rng(seed)

    def sentences(n):
        return [rng.integers(1, vocab, size=rng.integers(3, 8)).astype(np.int32) for _ in range(n)]

    pair_sents = sentences(n_pairs)
    voc1 = Vocabulary([f"w{i}" for i in range(vocab - 1)], [5] * (vocab - 1), 0, "en")
    voc2 = Vocabulary([f"v{i}" for i in range(vocab - 1)], [5] * (vocab - 1), 0, "de")
    return TrainingData(
        voc1,
        voc2,
        ParallelCorpus(
            EncodedCorpus(pair_sents, "en"),
            EncodedCorpus([s.copy() for s in pair_sents], "de"),
        ),
        EncodedCorpus(sentences(n_mono), "en"),
        EncodedCorpus(sentences(n_mono), "de"),
    )


class TestTrainConfig:
    def test_defaults_follow_reference_setup(self):
        config = TrainConfig()
        assert config.dim == 40
        assert config.learning_rate == 0.2
        assert config.batch_size == 40000
        assert config.resolved_margin() == 40.0
        assert config.lam == 1.0
        assert config.epochs_bi_only == 100
        assert config.epochs_with_mono == 25
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

    def test_proportional_mix_from_corpus_sizes(self):
        mix = proportional_mix(1_660_000, 4_500_000, 900_000)
        assert tuple(round(f, 3) for f in mix) == (0.235, 0.637, 0.127)
        assert sum(mix) == pytest.approx(1.0)


class TestAdaGrad:
    def test_zero_gradient_no_change(self):
        row = np.array([1.0, 2.0])
        g = np.array([0.5, 0.5])
        adagrad_update(row, np.zeros(2), g, lr=0.2, eps=1e-8)
        assert row.tolist() == [1.0, 2.0]
        assert g.tolist() == [0.5, 0.5]

    def test_first_step_size_is_learning_rate(self):
        # fresh accumulator: step = lr * g / (|g| + eps) ~ lr * sign(g)
        row = np.zeros(2)
        g = np.zeros(2)
        adagrad_update(row, np.array([1.0, 0.0]), g, lr=0.2, eps=1e-12)
        assert row[0] == pytest.approx(-0.2, rel=1e-9)
        assert row[1] == 0.0

    def test_repeated_identical_gradients_decay_as_inverse_sqrt(self):
        row = np.zeros(1)
        g_acc = np.zeros(1)
        grad = np.array([2.0])
        lr = 0.1
        previous = 0.0
        for t in range(1, 21):
            before = row[0]
            adagrad_update(row, grad, g_acc, lr=lr, eps=1e-12)
            step = before - row[0]
            # closed form: G = t * g^2, step = lr * g / (sqrt(t) * |g|)
            assert step == pytest.approx(lr / np.sqrt(t), rel=1e-9)
            previous = step

    def test_accumulator_monotone_nondecreasing(self):
        rng = np.random.default_rng(0)
        row = np.zeros(4)
        g_acc = np.zeros(4)
        last = g_acc.copy()
        for _ in range(50):
            adagrad_update(row, rng.normal(size=4), g_acc, lr=0.1, eps=1e-8)
            assert (g_acc >= last).all()
            last = g_acc.copy()

    def test_nonfinite_gradient_aborts(self):
        with pytest.raises(TrainingError):
            adagrad_update(np.zeros(2), np.array([np.nan, 0.0]), np.zeros(2), 0.1, 1e-8)

    def test_vectorized_update_matches_row_loop(self):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(6, 3))
        g_matrix = np.abs(rng.normal(size=(6, 3)))
        table = EmbeddingTable(matrix.copy(), "en")
        g_vec = g_matrix.copy()
        ids = np.array([1, 4, 5])
        grads = rng.normal(size=(3, 3))
        apply_sparse_update(table, g_vec, ids, grads.copy(), lr=0.3, eps=1e-8)
        for r, i in enumerate(ids):
            row = matrix[i].copy()
            adagrad_update(row, grads[r], g_matrix[i], lr=0.3, eps=1e-8)
            assert np.allclose(table.matrix[i], row, atol=1e-15)
            assert np.allclose(g_vec[i], g_matrix[i], atol=1e-15)


class TestTrainStep:
    def test_zero_gradient_batch_leaves_tables_unchanged(self):
        m = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]])
        tables = TablePair(EmbeddingTable(m.copy(), "en"), EmbeddingTable(m.copy(), "de"))
        state = AdaGradState.zeros(tables)
        config = TrainConfig(dim=2, lam=0.0, margin=0.0, batch_size=2)
        # outer == inner == noise spans: exactly zero data gradient
        from xlembed.corpus import PhraseTriple

        triple = PhraseTriple(
            outer_sentence=np.array([1, 2, 1]),
            outer_start=0, outer_end=3, inner_start=0, inner_end=3,
            noise_sentence=np.array([1, 2, 1]), noise_start=0, noise_end=3,
            language_tag="en",
        )
        batch = Batch(mono_l1=TripleBatch.from_triples([triple]))
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


class TestTrainLoop:
    def test_epochs_zero_returns_initial_tables(self):
        data = small_data()
        config = TrainConfig(dim=4, epochs=0, batch_size=8, seed=5)
        result = train(data, config)
        expected = init_table(len(data.vocab_l1), 4, config.init_sigma, (5, 0), "en")
        assert (result.tables.l1.matrix == expected.matrix).all()
        assert result.history == []

    def test_epoch_selection_by_corpus_presence(self):
        data = small_data()
        config = TrainConfig(dim=2, epochs_bi_only=2, epochs_with_mono=1, batch_size=64)
        result = train(data, config)
        assert max(e for e, _, _ in result.history) == 1
        bi_only = TrainingData(data.vocab_l1, data.vocab_l2, data.parallel)
        result = train(bi_only, TrainConfig(dim=2, epochs_bi_only=2, batch_size=64))
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
