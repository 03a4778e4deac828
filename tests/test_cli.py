import json
import os

import numpy as np
import pytest

from xlembed.cli import main
from xlembed.corpus import EncodedCorpus, Vocabulary
from xlembed.embeddings import load_embeddings_text
from xlembed.errors import DataError
from xlembed.evaluate import US
from xlembed.trainer import load_checkpoint


@pytest.fixture
def tiny_corpus(tmp_path):
    pairs = [
        ("the cat sat down", "die katze sass hier"),
        ("the dog ran away", "der hund lief weg"),
        ("a cat and a dog", "eine katze und ein hund"),
        ("the cat ran here", "die katze lief hier"),
        ("REPORT 123 456 789", "BERICHT 123 456 789"),  # filtered jointly
        ("the dog sat down", "der hund sass hier"),
    ]
    mono_en = ["the cat sat quietly", "a dog ran fast", "xy", "the cat and the dog sat"]
    mono_de = ["die katze sass leise", "ein hund lief schnell", "die katze und der hund"]
    paths = {
        "l1": tmp_path / "corpus.en",
        "l2": tmp_path / "corpus.de",
        "mono_en": tmp_path / "mono.en",
        "mono_de": tmp_path / "mono.de",
    }
    paths["l1"].write_text("\n".join(p[0] for p in pairs) + "\n")
    paths["l2"].write_text("\n".join(p[1] for p in pairs) + "\n")
    paths["mono_en"].write_text("\n".join(mono_en) + "\n")
    paths["mono_de"].write_text("\n".join(mono_de) + "\n")
    return paths


def preprocess_args(paths, outdir, threshold="1"):
    return [
        "preprocess",
        "--parallel-l1", str(paths["l1"]),
        "--parallel-l2", str(paths["l2"]),
        "--mono-l1", str(paths["mono_en"]),
        "--mono-l2", str(paths["mono_de"]),
        "--unk-threshold-bi-l1", threshold,
        "--unk-threshold-bi-l2", threshold,
        "--unk-threshold-mono-l1", threshold,
        "--unk-threshold-mono-l2", threshold,
        "--outdir", str(outdir),
    ]


class TestPreprocessCommand:
    def test_writes_vocab_and_ids(self, tiny_corpus, tmp_path, capsys):
        outdir = tmp_path / "prep"
        assert main(preprocess_args(tiny_corpus, outdir)) == 0
        for name in ("en.vocab", "de.vocab", "bi.en.ids", "bi.de.ids", "mono.en.ids", "mono.de.ids"):
            assert (outdir / name).exists(), name
        out = capsys.readouterr().out
        assert "#sentences" in out and "|V|" in out

    def test_stats_match_independent_recount(self, tiny_corpus, tmp_path, capsys):
        outdir = tmp_path / "prep"
        main(preprocess_args(tiny_corpus, outdir))
        lines = capsys.readouterr().out.splitlines()
        stats = {}
        for line in lines:
            parts = line.split()
            if parts and parts[0] in ("bi.en", "bi.de", "mono.en", "mono.de"):
                stats[parts[0]] = (int(parts[3]), int(parts[4]), int(parts[5]))
        for name, (n_sent, n_tok, v_size) in stats.items():
            enc = EncodedCorpus.load_ids(outdir / f"{name}.ids")
            assert len(enc) == n_sent
            assert enc.n_tokens == n_tok
            # corpus |V| = distinct non-unk ids + the UNK entry
            distinct = len(set(enc.flat.tolist()) - {0})
            assert v_size == distinct + 1

    def test_joint_filtering_keeps_alignment(self, tiny_corpus, tmp_path):
        outdir = tmp_path / "prep"
        main(preprocess_args(tiny_corpus, outdir))
        en = EncodedCorpus.load_ids(outdir / "bi.en.ids")
        de = EncodedCorpus.load_ids(outdir / "bi.de.ids")
        assert len(en) == len(de) == 5  # the digit-heavy pair is gone

    def test_empty_input_warns_and_exits_zero(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.write_text("")
        outdir = tmp_path / "prep"
        code = main([
            "preprocess", "--parallel-l1", str(empty), "--parallel-l2", str(empty),
            "--outdir", str(outdir),
        ])
        assert code == 0
        assert "warning" in capsys.readouterr().err
        vocab = Vocabulary.load(outdir / "en.vocab")
        assert vocab.id_to_token == ["<unk>"]

    def test_missing_input_is_data_error(self, tmp_path):
        code = main([
            "preprocess", "--parallel-l1", str(tmp_path / "nope"),
            "--parallel-l2", str(tmp_path / "nope2"), "--outdir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert not (tmp_path / "out").exists()  # no partial outputs

    def test_misaligned_input_is_data_error(self, tiny_corpus, tmp_path):
        short = tmp_path / "short.de"
        short.write_text("nur eine zeile\n")
        code = main([
            "preprocess", "--parallel-l1", str(tiny_corpus["l1"]),
            "--parallel-l2", str(short), "--outdir", str(tmp_path / "out"),
        ])
        assert code == 2

    def test_config_file_with_unknown_key_is_usage_error(self, tiny_corpus, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = yes\n")
        code = main(preprocess_args(tiny_corpus, tmp_path / "out") + ["--config", str(cfg)])
        assert code == 1


@pytest.fixture
def prepared(tiny_corpus, tmp_path):
    outdir = tmp_path / "prep"
    assert main(preprocess_args(tiny_corpus, outdir)) == 0
    return outdir


def train_args(prep, outdir, *extra):
    return [
        "train", "--data-dir", str(prep), "--outdir", str(outdir),
        "--dim", "4", "--epochs", "2", "--batch-size", "16", "--seed", "3",
        *extra,
    ]


def append_to_first_line(path, text):
    lines = path.read_text().splitlines()
    lines[0] = f"{lines[0]} {text}"
    path.write_text("\n".join(lines) + "\n")


class TestTrainCommand:
    def test_trains_and_exports(self, prepared, tmp_path, capsys):
        outdir = tmp_path / "model"
        assert main(train_args(prepared, outdir)) == 0
        assert (outdir / "checkpoint.npz").exists()
        tokens, matrix = load_embeddings_text(outdir / "en.vec")
        assert tokens[0] == "<unk>"
        assert matrix.shape[1] == 4
        log_lines = [
            l for l in capsys.readouterr().out.splitlines() if l and l[0].isdigit()
        ]
        assert len(log_lines) == 2
        assert all(len(l.split()) == 7 for l in log_lines)

    def test_seeded_runs_are_identical(self, prepared, tmp_path):
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        main(train_args(prepared, out1))
        main(train_args(prepared, out2))
        assert (out1 / "en.vec").read_bytes() == (out2 / "en.vec").read_bytes()
        assert (out1 / "de.vec").read_bytes() == (out2 / "de.vec").read_bytes()

    def test_bilingual_limit_and_no_mono(self, prepared, tmp_path, capsys):
        outdir = tmp_path / "model"
        code = main(train_args(prepared, outdir, "--bilingual-limit", "2", "--no-mono"))
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l and l[0].isdigit()]
        # mono sources absent: their loss columns stay exactly zero
        assert all(float(l.split()[3]) == 0.0 and float(l.split()[4]) == 0.0 for l in lines)

    @pytest.mark.parametrize("bad_id", ["-1", "100000"])
    def test_id_outside_vocabulary_is_data_error(self, prepared, tmp_path, bad_id):
        append_to_first_line(prepared / "bi.de.ids", bad_id)
        assert main(train_args(prepared, tmp_path / "model")) == 2

    @pytest.mark.parametrize("bad_id", ["2147483648", "99999999999", "-2147483649"])
    def test_id_outside_int32_is_data_error(self, prepared, tmp_path, capsys, bad_id):
        append_to_first_line(prepared / "bi.de.ids", bad_id)
        assert main(train_args(prepared, tmp_path / "model")) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "bi.de.ids:1: token id outside the int32 range" in err

    def test_config_file_applies_and_flags_override(self, prepared, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dim = 6\nepochs = 1\nbatch_size = 16\nlambda = 0.5\nseed = 3\n")
        outdir = tmp_path / "model"
        code = main([
            "train", "--data-dir", str(prepared), "--outdir", str(outdir),
            "--config", str(cfg), "--dim", "3",
        ])
        assert code == 0
        _, matrix = load_embeddings_text(outdir / "en.vec")
        assert matrix.shape[1] == 3  # flag wins over config

    def test_unknown_config_key_is_usage_error(self, prepared, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("learning_rate_decay = 0.5\n")
        code = main([
            "train", "--data-dir", str(prepared), "--outdir", str(tmp_path / "m"),
            "--config", str(cfg),
        ])
        assert code == 1

    def test_mono_use_parallel_switch(self, prepared, tmp_path, capsys):
        outdir = tmp_path / "model"
        code = main(train_args(prepared, outdir, "--mono-use-parallel"))
        assert code == 0

    def test_numeric_divergence_exits_three_with_checkpoint(self, prepared, tmp_path, capsys):
        outdir = tmp_path / "model"
        code = main(train_args(prepared, outdir, "--learning-rate", "1e200"))
        assert code == 3
        assert "numeric" in capsys.readouterr().err
        assert (outdir / "checkpoint.npz").exists()  # flushed on abort
        # the failed step wrote nothing, so the flushed state is usable
        tables, state, _, _, _ = load_checkpoint(outdir / "checkpoint.npz")
        for array in (tables.l1.matrix, tables.l2.matrix, *state.g_by_tag.values()):
            assert np.isfinite(array).all()

    def test_checkpoint_with_unknown_config_key_is_data_error(self, prepared, tmp_path, capsys):
        outdir = tmp_path / "model"
        assert main(train_args(prepared, outdir)) == 0
        ck = outdir / "checkpoint.npz"
        with np.load(ck) as z:
            arrays = dict(z)
        config = json.loads(str(arrays["config"]))
        config["threads"] = 1  # a key that TrainConfig does not have
        arrays["config"] = np.array(json.dumps(config))
        np.savez(ck, **arrays)
        with pytest.raises(DataError, match="threads"):
            load_checkpoint(ck)
        capsys.readouterr()
        code = main(train_args(prepared, tmp_path / "resumed", "--resume-from", str(ck)))
        assert code == 2
        assert "threads" in capsys.readouterr().err


class TestExportCommand:
    def test_export_matches_train_export(self, prepared, tmp_path):
        model = tmp_path / "model"
        main(train_args(prepared, model))
        exported = tmp_path / "exported"
        code = main([
            "export", "--checkpoint", str(model / "checkpoint.npz"),
            "--vocab-l1", str(prepared / "en.vocab"), "--vocab-l2", str(prepared / "de.vocab"),
            "--outdir", str(exported),
        ])
        assert code == 0
        assert (exported / "en.vec").read_bytes() == (model / "en.vec").read_bytes()

    @pytest.mark.parametrize("kind", ["text", "truncated", "empty", "single_array"])
    def test_unreadable_checkpoint_is_data_error(self, model_dir, prepared, tmp_path,
                                                 capsys, kind):
        bad = tmp_path / "bad.npz"
        if kind == "text":
            bad.write_text("not a checkpoint\n")
        elif kind == "truncated":
            data = (model_dir / "checkpoint.npz").read_bytes()
            bad.write_bytes(data[: len(data) // 2])
        elif kind == "empty":
            bad.write_bytes(b"")
        else:
            with open(bad, "wb") as f:
                np.save(f, np.zeros((2, 2)))
        capsys.readouterr()
        code = main([
            "export", "--checkpoint", str(bad),
            "--vocab-l1", str(prepared / "en.vocab"), "--vocab-l2", str(prepared / "de.vocab"),
            "--outdir", str(tmp_path / "exported"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(bad) in err


@pytest.fixture
def model_dir(prepared, tmp_path):
    outdir = tmp_path / "model"
    assert main(train_args(prepared, outdir)) == 0
    return outdir


class TestNnCommand:
    def test_self_query_rank_one(self, model_dir, capsys):
        code = main([
            "nn", "--embeddings", str(model_dir / "en.vec"),
            "--query", "cat", "--k", "1", "--metric", "euclidean",
        ])
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[0].split("\t")
        assert line[:3] == ["cat", "1", "cat"]

    def test_oov_query_is_data_error(self, model_dir, capsys):
        code = main(["nn", "--embeddings", str(model_dir / "en.vec"), "--query", "zzz"])
        assert code == 2
        assert "vocabulary" in capsys.readouterr().err

    def test_batch_query_file_stable_order(self, model_dir, tmp_path, capsys):
        qfile = tmp_path / "queries.txt"
        qfile.write_text("cat\ndog\n")
        args = ["nn", "--embeddings", str(model_dir / "en.vec"), "--query-file", str(qfile), "--k", "2"]
        assert main(args) == 0
        out1 = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == out1
        assert out1.splitlines()[0].startswith("cat\t1\t")

    def test_no_query_is_usage_error(self, model_dir):
        assert main(["nn", "--embeddings", str(model_dir / "en.vec")]) == 1

    @pytest.mark.parametrize("text", ["x 2\nfoo 1.0 2.0\n", "1 2\nfoo 1.0 abc\n"])
    def test_malformed_number_is_data_error(self, tmp_path, capsys, text):
        vec = tmp_path / "bad.vec"
        vec.write_text(text)
        assert main(["nn", "--embeddings", str(vec), "--query", "foo"]) == 2
        err = capsys.readouterr().err
        assert "bad.vec" in err and err.count("\n") == 1


def write_docs(path, docs):
    with open(path, "w", encoding="utf-8") as f:
        for label, doc_id, sents in docs:
            f.write(f"{label}\t{doc_id}\t{US.join(sents)}\n")


@pytest.fixture
def doc_files(tmp_path):
    en_docs = [
        ("pets", f"en{i}", ["the cat sat down", "a cat ran here"]) for i in range(6)
    ] + [("people", f"en{i+6}", ["the dog ran away", "a dog sat down"]) for i in range(6)]
    de_docs = [
        ("pets", f"de{i}", ["die katze sass hier", "eine katze lief weg"]) for i in range(6)
    ] + [("people", f"de{i+6}", ["der hund lief weg", "ein hund sass hier"]) for i in range(6)]
    train_l1 = tmp_path / "train.l1.docs"
    test_l2 = tmp_path / "test.l2.docs"
    write_docs(train_l1, en_docs)
    write_docs(test_l2, de_docs)
    return train_l1, test_l2


class TestClassifyEvalCommand:
    def test_report_written_and_deterministic(self, model_dir, doc_files, tmp_path, capsys):
        train_l1, test_l2 = doc_files
        out = tmp_path / "report.txt"
        args = [
            "classify-eval",
            "--embeddings-l1", str(model_dir / "en.vec"),
            "--embeddings-l2", str(model_dir / "de.vec"),
            "--train-docs-l1", str(train_l1), "--test-docs-l2", str(test_l2),
            "--seed", "11", "--out", str(out),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "direction=l1->l2" in first
        assert out.exists()
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_train_size_flag(self, model_dir, doc_files, capsys):
        train_l1, test_l2 = doc_files
        code = main([
            "classify-eval",
            "--embeddings-l1", str(model_dir / "en.vec"),
            "--embeddings-l2", str(model_dir / "de.vec"),
            "--train-docs-l1", str(train_l1), "--test-docs-l2", str(test_l2),
            "--train-size", "8",
        ])
        assert code == 0
        assert "train size 8" in capsys.readouterr().out

    def test_both_directions(self, model_dir, doc_files, tmp_path, capsys):
        train_l1, test_l2 = doc_files
        code = main([
            "classify-eval",
            "--embeddings-l1", str(model_dir / "en.vec"),
            "--embeddings-l2", str(model_dir / "de.vec"),
            "--train-docs-l1", str(train_l1), "--test-docs-l2", str(test_l2),
            "--train-docs-l2", str(test_l2), "--test-docs-l1", str(train_l1),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "direction=l1->l2" in out and "direction=l2->l1" in out

    def test_half_direction_is_usage_error(self, model_dir, doc_files):
        train_l1, _ = doc_files
        code = main([
            "classify-eval",
            "--embeddings-l1", str(model_dir / "en.vec"),
            "--embeddings-l2", str(model_dir / "de.vec"),
            "--train-docs-l1", str(train_l1),
        ])
        assert code == 1


class TestComposeCommand:
    def test_output_matches_summation_oracle(self, model_dir, doc_files, tmp_path):
        train_l1, _ = doc_files
        out = tmp_path / "docs.vec"
        code = main([
            "compose", "--embeddings", str(model_dir / "en.vec"),
            "--docs", str(train_l1), "--out", str(out),
        ])
        assert code == 0
        doc_ids, doc_vecs = load_embeddings_text(out)
        tokens, matrix = load_embeddings_text(model_dir / "en.vec")
        index = {t: i for i, t in enumerate(tokens)}
        with open(train_l1) as f:
            first = f.readline().rstrip("\n").split("\t")
        expected = np.zeros(matrix.shape[1])
        for sentence in first[2].split(US):
            for token in sentence.split():
                expected += matrix[index.get(token, 0)]
        assert doc_ids[0] == first[1]
        assert np.allclose(doc_vecs[0], expected, atol=1e-12)

    def test_by_token_count_rescales_only(self, model_dir, doc_files, tmp_path):
        train_l1, _ = doc_files
        a, b = tmp_path / "a.vec", tmp_path / "b.vec"
        main(["compose", "--embeddings", str(model_dir / "en.vec"), "--docs", str(train_l1), "--out", str(a)])
        main(["compose", "--embeddings", str(model_dir / "en.vec"), "--docs", str(train_l1),
              "--out", str(b), "--norm", "by_token_count"])
        _, va = load_embeddings_text(a)
        _, vb = load_embeddings_text(b)
        token_count = 8  # every doc in the fixture has 2 sentences x 4 tokens
        assert np.allclose(va, vb * token_count, atol=1e-9)


def test_preprocess_defaults_match_reference_thresholds():
    from xlembed.cli import _PIPELINE_DEFAULTS

    assert _PIPELINE_DEFAULTS["unk_threshold_bi_l1"] == 2
    assert _PIPELINE_DEFAULTS["unk_threshold_bi_l2"] == 2
    assert _PIPELINE_DEFAULTS["unk_threshold_mono_l1"] == 5
    assert _PIPELINE_DEFAULTS["unk_threshold_mono_l2"] == 3
    assert _PIPELINE_DEFAULTS["lowercase_cutoff_l1"] == 0.9
    assert _PIPELINE_DEFAULTS["lowercase_cutoff_l2"] == 0.7
    assert _PIPELINE_DEFAULTS["min_sentence_len"] == 3


class TestUsageContract:
    def test_unknown_command_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["preprocess"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("preprocess", ["--unk-threshold-bi-l1", "--lowercase-cutoff-l1", "--outdir"]),
            ("train", ["--dim", "--learning-rate", "--batch-size", "--margin", "--lambda", "--seed"]),
            ("nn", ["--k", "--metric"]),
            ("classify-eval", ["--epochs", "--train-size", "--norm"]),
            ("compose", ["--norm", "--composition"]),
        ],
    )
    def test_help_lists_flags_with_defaults(self, command, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in flags:
            assert flag in out
        assert "default" in out

    def test_export_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["export", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--checkpoint", "--vocab-l1", "--vocab-l2", "--outdir"):
            assert flag in out

    def test_reference_scale_defaults_in_train_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        out = capsys.readouterr().out
        assert "40000" in out  # batch size
        assert "0.2" in out  # learning rate
        assert "100" in out and "25" in out  # epoch counts
