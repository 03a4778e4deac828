import json
import os

import numpy as np
import pytest

from xlembed.cli import main
from xlembed.corpus import EncodedCorpus, Vocabulary
from xlembed.embeddings import EmbeddingTable, load_embeddings_text
from xlembed.errors import DataError
from xlembed.evaluate import US, nearest_neighbors
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

    def test_bad_byte_is_data_error_naming_its_line(self, tiny_corpus, tmp_path, capsys):
        bad = tmp_path / "bad.de"
        bad.write_bytes(tiny_corpus["l2"].read_bytes().replace(b"der hund", b"der h\xffnd", 1))
        code = main(preprocess_args({**tiny_corpus, "l2": bad}, tmp_path / "out"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "bad.de:2: not UTF-8 text" in err
        assert not (tmp_path / "out").exists()  # nothing is written before the inputs read

    def test_bad_byte_in_config_file_is_usage_error(self, tiny_corpus, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"# caf\xe9\nl1_tag = en\n")
        code = main(preprocess_args(tiny_corpus, tmp_path / "out") + ["--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "bad.cfg:1: not UTF-8 text" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--min-sentence-len", "0", "min_sentence_len must be >= 1, got 0"),
        ("--unk-threshold-bi-l1", "0", "unk_threshold_bi_l1 must be >= 1, got 0"),
        ("--unk-threshold-mono-l2", "-2", "unk_threshold_mono_l2 must be >= 1, got -2"),
        ("--lowercase-cutoff-l1", "nan", "lowercase_cutoff_l1 must be a number, got nan"),
    ])
    def test_bad_setting_is_usage_error_before_any_output(self, tiny_corpus, tmp_path, capsys,
                                                          flag, value, message):
        outdir = tmp_path / "out"
        assert main(preprocess_args(tiny_corpus, outdir) + [flag, value]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and f"configuration error: {message}" in err
        assert not outdir.exists()

    @pytest.mark.parametrize("tag", ["", ".", "..", "../escaped", "a/b", "a\\b", "nul\0"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_tag_that_is_no_plain_file_name_is_usage_error(self, tiny_corpus, tmp_path, capsys,
                                                           tag, source):
        # the tag names the language's files: a path in it would write
        # outside --outdir
        outdir = tmp_path / "out" / "data"
        before = sorted(tmp_path.rglob("*"))
        argv = preprocess_args(tiny_corpus, outdir)
        if source == "flag":
            argv += ["--l1-tag", tag]
        else:
            (tmp_path / "run.cfg").write_text(f"l1_tag = {tag}\n")
            before = sorted(tmp_path.rglob("*"))
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert f"configuration error: l1_tag must be one plain file name, got {tag!r}" in err
        assert sorted(tmp_path.rglob("*")) == before

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

    def test_dim_too_large_to_allocate_is_usage_error(self, prepared, tmp_path, capsys):
        # 1e12 columns fail at allocation at once; no size that might be
        # allocated is tried
        outdir = tmp_path / "model"
        assert main(train_args(prepared, outdir, "--dim", "1000000000000")) == 1
        err = capsys.readouterr().err
        assert "dim 1000000000000 gives tables of" in err and "too large to allocate" in err
        assert err.count("\n") == 1
        assert not (outdir / "checkpoint.npz").exists()

    def test_batch_beyond_physical_memory_is_usage_error(self, prepared, tmp_path, capsys):
        # refused from a bound on the sampled ids before anything is allocated
        outdir = tmp_path / "model"
        assert main(train_args(prepared, outdir, "--batch-size", "1000000000000")) == 1
        err = capsys.readouterr().err
        assert "batch_size 1000000000000 needs" in err and "of physical memory" in err
        assert err.count("\n") == 1
        assert not (outdir / "checkpoint.npz").exists()

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

    @pytest.mark.parametrize("mix", ["0.5,0.5", "a,b,c"])
    def test_malformed_mix_flag_is_usage_error(self, prepared, tmp_path, capsys, mix):
        with pytest.raises(SystemExit) as exc:
            main(train_args(prepared, tmp_path / "model", "--mix", mix))
        assert exc.value.code == 1
        # argparse's usage, then one error line
        errors = [ln for ln in capsys.readouterr().err.splitlines() if "error" in ln]
        assert len(errors) == 1 and "mix needs three" in errors[0]

    def test_mono_use_parallel_switch(self, prepared, tmp_path, capsys):
        outdir = tmp_path / "model"
        code = main(train_args(prepared, outdir, "--mono-use-parallel"))
        assert code == 0

    def test_numeric_divergence_exits_three_and_writes_nothing(self, prepared, tmp_path, capsys):
        outdir = tmp_path / "model"
        code = main(train_args(prepared, outdir, "--learning-rate", "1e200"))
        assert code == 3
        assert "numeric" in capsys.readouterr().err
        # no epoch boundary was reached, so there is no checkpoint to keep
        assert not (outdir / "checkpoint.npz").exists()
        assert not list(outdir.glob("*.tmp")) and not list(outdir.glob("*.vec"))

    @pytest.mark.parametrize("flag", ["--l1-tag", "--l2-tag"])
    def test_tag_that_is_no_plain_file_name_is_usage_error(self, prepared, tmp_path, capsys,
                                                           flag):
        before = sorted(tmp_path.rglob("*"))
        assert main(train_args(prepared, tmp_path / "out", flag, "../prep/en")) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        name = flag[2:].replace("-", "_")
        assert f"configuration error: {name} must be one plain file name, got '../prep/en'" in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_resume_past_target_is_usage_error(self, prepared, tmp_path, capsys):
        outdir = tmp_path / "model"
        assert main(train_args(prepared, outdir, "--epochs", "3")) == 0
        ck = outdir / "checkpoint.npz"
        before = ck.read_bytes()
        capsys.readouterr()
        code = main(train_args(prepared, outdir, "--resume-from", str(ck)))
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "checkpoint epoch 3 is past the target of 2 epochs" in err
        assert ck.read_bytes() == before

    def test_refused_resume_names_the_checkpoint_and_the_setting(self, prepared, tmp_path, capsys):
        outdir = tmp_path / "model"
        assert main(train_args(prepared, outdir)) == 0
        ck = outdir / "checkpoint.npz"
        before = ck.read_bytes()
        capsys.readouterr()
        code = main(train_args(prepared, outdir, "--resume-from", str(ck), "--learning-rate", "0.3"))
        out, err = capsys.readouterr()
        assert code == 1 and out == "" and err.count("\n") == 1
        assert (f"{ck}: checkpoint was written with a different configuration: "
                "learning_rate 0.2 there, 0.3 here") in err
        assert ck.read_bytes() == before

    def test_refused_resume_keeps_earlier_log(self, prepared, tmp_path, capsys):
        outdir, log = tmp_path / "model", tmp_path / "run.log"
        assert main(train_args(prepared, outdir, "--epochs", "3", "--log-file", str(log))) == 0
        before = log.read_bytes()
        assert len(before.splitlines()) == 3
        code = main(train_args(prepared, outdir, "--resume-from", str(outdir / "checkpoint.npz"),
                               "--log-file", str(log)))
        assert code == 1
        assert log.read_bytes() == before

    def test_resume_with_vocabulary_of_another_size_refused_before_any_step(
            self, prepared, tmp_path, capsys):
        outdir = tmp_path / "model"
        assert main(train_args(prepared, outdir)) == 0
        ck = outdir / "checkpoint.npz"
        before = ck.read_bytes()
        rows = len(load_checkpoint(ck)[0].by_tag("en"))
        with open(prepared / "en.vocab", "a", encoding="utf-8") as f:
            f.write("zzy\t1\nzzz\t1\n")  # every id stays in range; only the size differs
        capsys.readouterr()
        # resumed in place, so a run that trained first would write over the checkpoint
        code = main(train_args(prepared, outdir, "--epochs", "4", "--resume-from", str(ck)))
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert f"{ck}: vocabulary size {rows + 2} does not match table rows {rows} for 'en'" in err
        assert ck.read_bytes() == before

    def test_vocab_token_with_whitespace_refused_before_first_epoch(self, prepared, tmp_path,
                                                                    capsys):
        vocab = prepared / "en.vocab"
        lines = vocab.read_text(encoding="utf-8").splitlines()
        lines[1] = "th e\t" + lines[1].split("\t")[1]
        vocab.write_text("\n".join(lines) + "\n", encoding="utf-8")
        outdir = tmp_path / "model"
        capsys.readouterr()
        assert main(train_args(prepared, outdir)) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert f"{vocab}:2: token 'th e' is empty or holds whitespace" in err
        assert not (outdir / "checkpoint.npz").exists()

    @pytest.mark.parametrize("key", ["epochs_bi_only", "epochs_with_mono"])
    def test_removed_run_length_key_is_refused(self, prepared, tmp_path, capsys, key):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"{key} = 100\n")
        capsys.readouterr()
        assert main(train_args(prepared, tmp_path / "from_file", "--config", str(cfg))) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{cfg}:1: unknown key {key!r}" in err
        outdir = tmp_path / "model"
        assert main(train_args(prepared, outdir)) == 0
        ck = outdir / "checkpoint.npz"
        with np.load(ck) as z:
            arrays = dict(z)
        arrays["config"] = config_with(arrays, **{key: 100})
        np.savez(ck, **arrays)
        capsys.readouterr()
        assert main(train_args(prepared, tmp_path / "resumed", "--resume-from", str(ck))) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{ck}: checkpoint config has unknown keys [{key!r}]" in err

    def test_log_file_inside_new_outdir(self, prepared, tmp_path):
        # the run makes --outdir after its checks and before its first loss line
        outdir = tmp_path / "model"
        assert main(train_args(prepared, outdir, "--log-file", str(outdir / "run.log"))) == 0
        assert len((outdir / "run.log").read_text().splitlines()) == 2

    @pytest.mark.parametrize("flag", ["--learning-rate", "--margin", "--lambda",
                                      "--adagrad-epsilon", "--init-sigma"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    def test_non_finite_or_negative_setting_is_usage_error(self, prepared, tmp_path, capsys,
                                                           flag, value):
        outdir = tmp_path / "model"
        assert main(train_args(prepared, outdir, f"{flag}={value}")) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"got {float(value)}" in err
        assert not outdir.exists()

    @pytest.mark.parametrize("mix", ["nan,0.5,0.5", "inf,0,0", "-0.5,1,0.5"])
    def test_non_finite_or_negative_mix_is_usage_error(self, prepared, tmp_path, capsys, mix):
        assert main(train_args(prepared, tmp_path / "model", f"--mix={mix}")) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "mix must be three finite fractions" in err

    def test_negative_bilingual_limit_is_usage_error(self, prepared, tmp_path, capsys):
        code = main(train_args(prepared, tmp_path / "model", "--bilingual-limit", "-5", "--no-mono"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "bilingual_limit must be >= 0, got -5" in err

    @pytest.mark.parametrize("flag, name", [("--epochs", "epochs"),
                                            ("--checkpoint-every", "checkpoint_every")])
    def test_negative_epoch_count_is_usage_error(self, prepared, tmp_path, capsys, flag, name):
        outdir = tmp_path / "model"
        assert main(train_args(prepared, outdir, flag, "-1")) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{name} must be >= 0, got -1" in err
        assert not outdir.exists()

    def test_negative_seed_is_usage_error(self, prepared, tmp_path, capsys):
        outdir = tmp_path / "model"
        assert main(train_args(prepared, outdir, "--seed", "-1")) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "seed must be >= 0, got -1" in err
        assert not outdir.exists()

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

    def test_accumulator_wider_than_table_is_data_error(self, prepared, tmp_path, capsys):
        outdir = tmp_path / "model"
        assert main(train_args(prepared, outdir)) == 0
        ck = outdir / "checkpoint.npz"
        with np.load(ck) as z:
            arrays = dict(z)
        rows, dim = arrays["table_l1"].shape
        arrays["g_l1"] = np.zeros((rows, dim + 1))
        np.savez(ck, **arrays)
        capsys.readouterr()
        code = main(train_args(prepared, tmp_path / "resumed", "--resume-from", str(ck)))
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{ck}: checkpoint member 'g_l1'" in err


# checkpoint member -> a malformed value for it, made from the good archive
MALFORMED_MEMBERS = [
    ("version", lambda z: np.array("one")),
    ("tags", lambda z: np.array(["en"])),
    ("tags", lambda z: np.array("en")),
    ("table_l1", lambda z: np.zeros(4)),
    ("table_l2", lambda z: np.array([["a", "b"]])),
    ("g_l2", lambda z: np.zeros((z["table_l2"].shape[0], z["table_l2"].shape[1] + 1))),
    ("config", lambda z: np.array("{not json")),
    ("config", lambda z: np.array("[1, 2]")),
    ("config", lambda z: np.array(json.dumps({**json.loads(str(z["config"])), "mix": 5}))),
    ("epoch", lambda z: np.array([1, 2])),
    ("epoch", lambda z: np.array(1.5)),
    ("rng_state", lambda z: np.array("not json")),
    ("rng_state", lambda z: np.array(json.dumps({"bit_generator": "MT19937"}))),
    ("rng_state", lambda z: np.array(json.dumps({"bit_generator": "PCG64"}))),
    ("config", lambda z: config_with(z, dim="forty")),
    ("config", lambda z: config_with(z, batch_size=1.5)),
    ("config", lambda z: config_with(z, lam=True)),
    ("config", lambda z: config_with(z, seed=None)),
    ("config", lambda z: config_with(z, mix=["a", 0.5, 0.5])),
    ("config", lambda z: config_with(z, dim=0)),
    ("config", lambda z: config_with(z, lam=10**400)),
    ("tags", lambda z: np.array(["../en", "de"])),
    ("tags", lambda z: np.array(["en", ".."])),
]


def config_with(arrays, **settings):
    """The checkpoint's config member with ``settings`` replaced."""
    return np.array(json.dumps({**json.loads(str(arrays["config"])), **settings}))


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

    def test_mismatched_l2_vocabulary_writes_nothing(self, model_dir, prepared, tmp_path, capsys):
        (tmp_path / "small.vocab").write_text("<unk>\t0\n")
        exported = tmp_path / "exported"
        argv = ["export", "--checkpoint", str(model_dir / "checkpoint.npz"),
                "--vocab-l1", str(prepared / "en.vocab"), "--vocab-l2", str(tmp_path / "small.vocab"),
                "--outdir", str(exported)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "vocabulary size 1 does not match table rows" in err
        assert not exported.exists()
        exported.mkdir()  # an existing --outdir gains no l1 file either
        assert main(argv) == 2
        assert list(exported.iterdir()) == []

    @pytest.mark.parametrize(
        "kind", ["text", "truncated", "empty", "single_array", "missing_member"]
    )
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
        elif kind == "missing_member":
            # the checkpoint magic and one table, but no version or anything else
            with np.load(model_dir / "checkpoint.npz") as z:
                np.savez(bad, magic=z["magic"], table_l1=z["table_l1"])
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

    @pytest.mark.parametrize("member, malformed", MALFORMED_MEMBERS,
                             ids=[f"{m}-{i}" for i, (m, _) in enumerate(MALFORMED_MEMBERS)])
    def test_malformed_member_is_data_error(self, model_dir, prepared, tmp_path, capsys,
                                            member, malformed):
        with np.load(model_dir / "checkpoint.npz") as z:
            arrays = dict(z)
        arrays[member] = malformed(arrays)
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        capsys.readouterr()
        code = main([
            "export", "--checkpoint", str(bad),
            "--vocab-l1", str(prepared / "en.vocab"), "--vocab-l2", str(prepared / "de.vocab"),
            "--outdir", str(tmp_path / "exported"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{bad}: checkpoint member {member!r} is not" in err
        assert not (tmp_path / "exported").exists()


@pytest.mark.parametrize("command", ["export", "resume"])
def test_checkpoint_tag_that_is_no_plain_file_name_is_data_error(model_dir, prepared, tmp_path,
                                                                 capsys, command):
    # the tag would name the exported file: '../escaped' writes beside --outdir
    with np.load(model_dir / "checkpoint.npz") as z:
        arrays = dict(z)
    arrays["tags"] = np.array(["../escaped", "de"])
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    before = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    capsys.readouterr()
    if command == "export":
        argv = ["export", "--checkpoint", str(bad), "--vocab-l1", str(prepared / "en.vocab"),
                "--vocab-l2", str(prepared / "de.vocab"), "--outdir", str(tmp_path / "out")]
    else:
        argv = train_args(prepared, tmp_path / "out", "--epochs", "3", "--resume-from", str(bad))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert f"{bad}: checkpoint member 'tags' is not two language tags, each one plain file name" in err
    assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == before
    assert not (tmp_path / "out").exists()


@pytest.fixture
def model_dir(prepared, tmp_path):
    outdir = tmp_path / "model"
    assert main(train_args(prepared, outdir)) == 0
    return outdir


# .vec file text -> what its data error says
MALFORMED_VEC = {
    "x 2\nfoo 1.0 2.0\n": "bad.vec:1: malformed header",
    "1 2\nfoo 1.0 abc\n": "bad.vec:2: non-numeric",
    "2 2\n<unk> 0.0 0.0\nfoo nan 1.0\n": "bad.vec:3: non-finite",
    "2 2\n<unk> 0.0 0.0\nfoo 1.0 inf\n": "bad.vec:3: non-finite",
    "3 2\n<unk> 0.0 0.0\nfoo 1.0 2.0\n": "bad.vec: header promises 3 rows, the file holds 2",
    "2 0\n<unk>\nfoo\n": "bad.vec:1: header gives dim 0, expected >= 1",
    # number forms float() and int() take but save_embeddings_text never writes
    "+2 2\n<unk> 0.0 0.0\nfoo 1.0 2.0\n": "bad.vec:1: malformed header",
    "1_0 2\n<unk> 0.0 0.0\nfoo 1.0 2.0\n": "bad.vec:1: malformed header",
    "\u0662 2\n<unk> 0.0 0.0\nfoo 1.0 2.0\n": "bad.vec:1: malformed header",
    "2 +2\n<unk> 0.0 0.0\nfoo 1.0 2.0\n": "bad.vec:1: malformed header",
    "2 2\n<unk> 0.0 0.0\nfoo 1_0 2.0\n": "bad.vec:3: non-numeric value in row 1",
    "2 2\n<unk> 0.0 0.0\nfoo 1.0 \u0663\n": "bad.vec:3: non-numeric value in row 1",
    "2 2\n<unk> 0.0 0.0\nf\u00fc_r 1.0 \uff12.5\n": "bad.vec:3: non-numeric value in row 1",
    "2 2\n<unk> 0.0 0.0\nfoo 1.0\n": "bad.vec:3: row 1 has 1 values, expected 2",
    "2 2\n<unk> 0.0 0.0\nfoo 1.0 2.0\nbar 3.0 4.0\n": "bad.vec:4: a row past the 2 rows the header gives",
    "2 2\n<unk> 0.0 0.0\nfoo 1.0 2.0\n\nbar 3.0 4.0\n": "bad.vec:5: a row past the 2 rows the header gives",
    "3 2\n<unk> 0.0 0.0\nfoo 1.0 2.0\nfoo 3.0 4.0\n": "bad.vec:4: token 'foo' repeats line 3",
    # 1e11 rows fail at allocation at once; no size that might be allocated is tried
    "100000000000 40\nfoo 1.0\n": (
        "bad.vec:1: header gives 100000000000 x 40 values, too many to allocate"
    ),
}


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

    def test_crosslingual_query_reads_the_destination_table(self, model_dir, tmp_path, capsys):
        en, de = model_dir / "en.vec", model_dir / "de.vec"
        loaded = {}
        for path, tag in ((en, "en"), (de, "de")):
            tokens, matrix = load_embeddings_text(path)
            loaded[tag] = (Vocabulary(tokens[1:], [0] * (len(tokens) - 1), 0, tag),
                           EmbeddingTable(matrix, tag))
        expected = nearest_neighbors("cat", *loaded["en"], *loaded["de"], k=3)
        qfile = tmp_path / "queries.txt"
        qfile.write_text("cat\n")
        for query in (["--query", "cat"], ["--query-file", str(qfile)]):
            args = ["nn", "--embeddings", str(en), "--dst-embeddings", str(de), "--k", "3", *query]
            assert main(args) == 0
            rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
            assert {token for _, _, token, _ in rows} <= set(loaded["de"][0].id_to_token)
            assert rows == [["cat", str(rank), token, f"{score:.6f}"]
                            for rank, (token, score) in enumerate(expected, start=1)]

    def test_no_query_is_usage_error(self, model_dir):
        assert main(["nn", "--embeddings", str(model_dir / "en.vec")]) == 1

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_is_usage_error(self, model_dir, capsys, k):
        code = main(["nn", "--embeddings", str(model_dir / "en.vec"), "--query", "cat", "--k", k])
        assert code == 1
        err = capsys.readouterr().err
        assert "--k must be >= 1" in err and err.count("\n") == 1

    @pytest.mark.parametrize("text", list(MALFORMED_VEC))
    def test_malformed_number_is_data_error(self, tmp_path, capsys, text):
        vec = tmp_path / "bad.vec"
        vec.write_text(text, encoding="utf-8")
        assert main(["nn", "--embeddings", str(vec), "--query", "foo"]) == 2
        err = capsys.readouterr().err
        assert MALFORMED_VEC[text] in err and err.count("\n") == 1


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

    def test_report_failing_partway_keeps_old_file(self, model_dir, doc_files, tmp_path,
                                                   monkeypatch, capsys):
        from xlembed.evaluate import EvalReport

        train_l1, test_l2 = doc_files
        out = tmp_path / "report.txt"
        out.write_text("earlier report\n")
        calls = []
        to_text = EvalReport.to_text

        def fail_on_fourth(self):
            # calls 1-2 print the two reports, 3 writes the first, 4 fails
            calls.append(1)
            if len(calls) == 4:
                raise OSError("disk full")
            return to_text(self)

        monkeypatch.setattr(EvalReport, "to_text", fail_on_fourth)
        code = main([
            "classify-eval",
            "--embeddings-l1", str(model_dir / "en.vec"),
            "--embeddings-l2", str(model_dir / "de.vec"),
            "--train-docs-l1", str(train_l1), "--test-docs-l2", str(test_l2),
            "--train-docs-l2", str(test_l2), "--test-docs-l1", str(train_l1),
            "--out", str(out),
        ])
        assert code == 2
        assert len(calls) == 4
        assert out.read_text() == "earlier report\n"
        assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("report")) == [
            "report.txt"
        ]

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

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_train_size_below_one_is_usage_error(self, model_dir, doc_files, capsys, size):
        train_l1, test_l2 = doc_files
        code = main([
            "classify-eval",
            "--embeddings-l1", str(model_dir / "en.vec"),
            "--embeddings-l2", str(model_dir / "de.vec"),
            "--train-docs-l1", str(train_l1), "--test-docs-l2", str(test_l2),
            "--train-size", size,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "--train-size must be >= 1" in err and err.count("\n") == 1

    @pytest.mark.parametrize("epochs", ["0", "-3"])
    def test_epochs_below_one_is_usage_error(self, model_dir, doc_files, capsys, epochs):
        train_l1, test_l2 = doc_files
        code = main([
            "classify-eval",
            "--embeddings-l1", str(model_dir / "en.vec"),
            "--embeddings-l2", str(model_dir / "de.vec"),
            "--train-docs-l1", str(train_l1), "--test-docs-l2", str(test_l2),
            "--epochs", epochs,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "--epochs must be >= 1" in err and err.count("\n") == 1

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


@pytest.mark.parametrize("command", ["nn", "classify-eval", "compose"])
def test_vec_too_large_to_allocate_is_data_error(model_dir, doc_files, tmp_path, capsys, command):
    # 1e11 rows fail at allocation at once; no size that might be allocated is tried
    big = tmp_path / "big.vec"
    big.write_text("100000000000 40\nfoo 1.0\n")
    train_l1, test_l2 = doc_files
    args = {
        "nn": ["nn", "--embeddings", str(big), "--query", "foo"],
        "classify-eval": [
            "classify-eval", "--embeddings-l1", str(model_dir / "en.vec"),
            "--embeddings-l2", str(big),
            "--train-docs-l1", str(train_l1), "--test-docs-l2", str(test_l2),
        ],
        "compose": ["compose", "--embeddings", str(big), "--docs", str(train_l1),
                    "--out", str(tmp_path / "docs.vec")],
    }[command]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"{big}:1: header gives 100000000000 x 40 values, too many to allocate" in err
    assert err.count("\n") == 1


# error case -> (exit code, text of its one stderr line with {tmp} for
# tmp_path, a function of (fixture getter, tmp_path) that prepares the
# inputs and returns the argv)
EXIT_CASES = {}


def exit_case(code, message):
    def register(make_argv):
        EXIT_CASES[make_argv.__name__] = (code, message, make_argv)
        return make_argv
    return register


def write_config(tmp, line):
    path = tmp / "run.cfg"
    path.write_text(line + "\n")
    return str(path)


def insert_line(path, index, line):
    lines = path.read_text().splitlines()
    lines.insert(index, line)
    path.write_text("\n".join(lines) + "\n")


def classify_args(model, *docs):
    return ["classify-eval", "--embeddings-l1", str(model / "en.vec"),
            "--embeddings-l2", str(model / "de.vec"), *map(str, docs)]


@exit_case(1, "l1 and l2 tags must differ")
def same_tags(fx, tmp):
    return preprocess_args(fx("tiny_corpus"), tmp / "out") + ["--l1-tag", "en", "--l2-tag", "en"]


@exit_case(1, "l1 and l2 tags must differ")
def train_same_tags_before_any_input(fx, tmp):
    return train_args(tmp / "no_such_dir", tmp / "out", "--l1-tag", "en", "--l2-tag", "en")


@exit_case(1, "dim must be >= 1, got 0")
def preprocess_config_with_train_value_out_of_range(fx, tmp):
    return preprocess_args(fx("tiny_corpus"), tmp / "out") + [
        "--config", write_config(tmp, "dim = 0")]


@exit_case(1, "unk_threshold_bi_l1 must be >= 1, got 0")
def train_config_with_preprocess_value_out_of_range(fx, tmp):
    return train_args(fx("prepared"), tmp / "out", "--config",
                      write_config(tmp, "unk_threshold_bi_l1 = 0"))


@exit_case(1, "{tmp}/run.cfg: bad value for 'dim'")
def config_dim_not_a_number(fx, tmp):
    return train_args(fx("prepared"), tmp / "out", "--config", write_config(tmp, "dim = forty"))


@exit_case(1, "{tmp}/run.cfg: bad value for 'lowercase'")
def config_bool_not_a_bool(fx, tmp):
    return preprocess_args(fx("tiny_corpus"), tmp / "out") + [
        "--config", write_config(tmp, "lowercase = maybe")]


@exit_case(1, "dim is too large for a float, got 1111")
def dim_too_large_for_a_float(fx, tmp):
    return train_args(fx("prepared"), tmp / "out", "--dim", "1" * 401)


@exit_case(1, "batch_size is too large for a float, got 1111")
def batch_size_too_large_for_a_float(fx, tmp):
    return train_args(fx("prepared"), tmp / "out", "--batch-size", "1" * 401)


@exit_case(1, "no corpus configured")
def every_pair_filtered_and_no_mono(fx, tmp):
    (tmp / "c.en").write_text("REPORT 123 456 789\n")
    (tmp / "c.de").write_text("BERICHT 123 456 789\n")
    assert main(["preprocess", "--parallel-l1", str(tmp / "c.en"), "--parallel-l2",
                 str(tmp / "c.de"), "--outdir", str(tmp / "prep")]) == 0
    return train_args(tmp / "prep", tmp / "out")


@exit_case(2, "{tmp}/prep/bi.en.ids:2: empty sentence line")
def ids_blank_line(fx, tmp):
    insert_line(fx("prepared") / "bi.en.ids", 1, "")
    return train_args(tmp / "prep", tmp / "out")


@exit_case(2, "{tmp}/prep/bi.en.ids:1: non-integer token id")
def ids_not_an_integer(fx, tmp):
    append_to_first_line(fx("prepared") / "bi.en.ids", "x")
    return train_args(tmp / "prep", tmp / "out")


@exit_case(2, "{tmp}/prep/bi.en.ids:1: non-integer token id")
def ids_with_a_plus_sign(fx, tmp):
    append_to_first_line(fx("prepared") / "bi.en.ids", "+1")
    return train_args(tmp / "prep", tmp / "out")


@exit_case(2, "{tmp}/prep/en.vocab:3: expected 'token<TAB>count' with an integer count")
def vocab_count_with_an_underscore(fx, tmp):
    insert_line(fx("prepared") / "en.vocab", 2, "zzz\t1_0")
    return train_args(tmp / "prep", tmp / "out")


@exit_case(2, "{tmp}/prep/en.vocab:3: token 'the' repeats line 2")
def vocab_duplicate_token(fx, tmp):
    insert_line(fx("prepared") / "en.vocab", 2, "the\t7")
    return train_args(tmp / "prep", tmp / "out")


@exit_case(2, "vocabulary size 1 does not match table rows 13 for 'en'")
def export_vocab_smaller_than_table(fx, tmp):
    model = fx("model_dir")
    (tmp / "small.vocab").write_text("<unk>\t0\n")
    return ["export", "--checkpoint", str(model / "checkpoint.npz"),
            "--vocab-l1", str(tmp / "small.vocab"), "--vocab-l2", str(tmp / "prep" / "de.vocab"),
            "--outdir", str(tmp / "exported")]


@exit_case(2, "{tmp}/v7.npz: unsupported checkpoint version 7")
def checkpoint_version_7(fx, tmp):
    model = fx("model_dir")
    with np.load(model / "checkpoint.npz") as z:
        arrays = dict(z)
    np.savez(tmp / "v7.npz", **{**arrays, "version": np.array(7)})
    return ["export", "--checkpoint", str(tmp / "v7.npz"), "--vocab-l1", str(tmp / "prep" / "en.vocab"),
            "--vocab-l2", str(tmp / "prep" / "de.vocab"), "--outdir", str(tmp / "exported")]


@exit_case(2, "{tmp}/bad.vec: row 0 must be the '<unk>' vector")
def vec_row_0_not_unk(fx, tmp):
    (tmp / "bad.vec").write_text("1 2\nfoo 1.0 2.0\n")
    return ["nn", "--embeddings", str(tmp / "bad.vec"), "--query", "foo"]


@exit_case(2, "source and destination tables have different dims")
def nn_destination_of_another_dim(fx, tmp):
    (tmp / "dst.vec").write_text("2 3\n<unk> 0.0 0.0 0.0\nkatze 1.0 2.0 3.0\n")
    return ["nn", "--embeddings", str(fx("model_dir") / "en.vec"),
            "--dst-embeddings", str(tmp / "dst.vec"), "--query", "cat"]


@exit_case(1, "l2->l1 needs both --train-docs-l2 and --test-docs-l1")
def classify_half_direction_l2(fx, tmp):
    _, test_l2 = fx("doc_files")
    return classify_args(fx("model_dir"), "--train-docs-l2", test_l2)


@exit_case(1, "no direction given")
def classify_no_direction(fx, tmp):
    return classify_args(fx("model_dir"))


@exit_case(2, "{tmp}/empty.docs:1: document has no sentences")
def docs_line_without_sentence(fx, tmp):
    _, test_l2 = fx("doc_files")
    (tmp / "empty.docs").write_text("pets\ten0\t\n")
    return classify_args(fx("model_dir"), "--train-docs-l1", tmp / "empty.docs",
                         "--test-docs-l2", test_l2)


@exit_case(2, "{tmp}/out.vec: row 0 has token 'doc 1', which is empty or holds whitespace")
def compose_doc_id_that_is_no_vec_token(fx, tmp):
    (tmp / "ids.docs").write_text("pets\tdoc 1\tcat\npets\t\tcat\n")
    return ["compose", "--embeddings", str(fx("model_dir") / "en.vec"),
            "--docs", str(tmp / "ids.docs"), "--out", str(tmp / "out.vec")]


@pytest.mark.parametrize("case", list(EXIT_CASES))
def test_error_exits_with_its_code_and_one_line(case, request, tmp_path, capsys):
    code, message, make_argv = EXIT_CASES[case]
    argv = make_argv(request.getfixturevalue, tmp_path)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert message.format(tmp=tmp_path) in err
    assert not list(tmp_path.rglob("*.tmp"))


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

    def test_file_without_documents_is_data_error(self, model_dir, tmp_path, capsys):
        docs = tmp_path / "none.docs"
        docs.write_text("\n")
        out = tmp_path / "docs.vec"
        code = main([
            "compose", "--embeddings", str(model_dir / "en.vec"),
            "--docs", str(docs), "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "empty document set" in err and err.count("\n") == 1
        assert not out.exists()


def test_preprocess_defaults_match_reference_thresholds():
    from xlembed.cli import _PIPELINE_DEFAULTS

    assert _PIPELINE_DEFAULTS["unk_threshold_bi_l1"] == 2
    assert _PIPELINE_DEFAULTS["unk_threshold_bi_l2"] == 2
    assert _PIPELINE_DEFAULTS["unk_threshold_mono_l1"] == 5
    assert _PIPELINE_DEFAULTS["unk_threshold_mono_l2"] == 3
    assert _PIPELINE_DEFAULTS["lowercase_cutoff_l1"] == 0.9
    assert _PIPELINE_DEFAULTS["lowercase_cutoff_l2"] == 0.7
    assert _PIPELINE_DEFAULTS["min_sentence_len"] == 3


# every config key set to a value other than its default; the tags match the
# data directory that TestSettings trains on
ALL_KEYS_CFG = {
    "l1_tag": "xx", "l2_tag": "yy",
    "unk_threshold_bi_l1": "1", "unk_threshold_bi_l2": "3",
    "unk_threshold_mono_l1": "4", "unk_threshold_mono_l2": "6",
    "lowercase_cutoff_l1": "0.8", "lowercase_cutoff_l2": "0.6",
    "min_sentence_len": "2",
    "lowercase": "false", "use_mono": "false", "mono_use_parallel": "true",
    "bilingual_limit": "3", "checkpoint_every": "1",
    "dim": "5", "learning_rate": "0.1", "batch_size": "16", "margin": "2.5",
    "lambda": "0.5", "epochs": "1",
    "mix": "0.5,0.25,0.25", "seed": "9", "adagrad_epsilon": "1e-6",
    "composition": "bi", "init_sigma": "0.05",
}

# TrainConfig as ALL_KEYS_CFG and as FLAG_VALUES set it
CFG_TRAIN_CONFIG = {
    "dim": 5, "learning_rate": 0.1, "batch_size": 16, "margin": 2.5, "lam": 0.5,
    "epochs": 1, "mix": (0.5, 0.25, 0.25),
    "seed": 9, "adagrad_epsilon": 1e-6, "composition": "bi", "init_sigma": 0.05,
}
FLAG_TRAIN_CONFIG = {
    "dim": 3, "learning_rate": 0.3, "batch_size": 8, "margin": 1.5, "lam": 0.25,
    "epochs": 2, "mix": (0.6, 0.2, 0.2),
    "seed": 11, "adagrad_epsilon": 1e-7, "composition": "add", "init_sigma": 0.2,
}
TRAIN_FLAGS = [
    "--dim", "3", "--learning-rate", "0.3", "--batch-size", "8", "--margin", "1.5",
    "--lambda", "0.25", "--epochs", "2",
    "--mix", "0.6,0.2,0.2", "--seed", "11", "--adagrad-epsilon", "1e-7",
    "--composition", "add", "--init-sigma", "0.2",
]


class _StopTraining(Exception):
    pass


class TestSettings:
    """Each config key reaches the code that uses it, and its flag beats the file."""

    def test_config_keys_are_the_reference_set(self):
        from xlembed.cli import CONFIG_KEYS

        assert CONFIG_KEYS == frozenset(ALL_KEYS_CFG)
        assert len(CONFIG_KEYS) == 25

    def test_readme_defaults_table_matches_the_code(self):
        import argparse
        from pathlib import Path

        from xlembed.cli import (
            _DEFAULT_WORDS, _DEFAULTS, _SETTING_OF_KEY, CONFIG_KEYS, _parse, build_parser,
        )

        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Defaults\n", 1)[1].split("\n## ", 1)[0]
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in section.splitlines() if line.startswith("|")][2:]
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {}
        for command in ("preprocess", "train"):
            for action in sub.choices[command]._actions:
                flags.setdefault(action.dest, set()).update(action.option_strings)
        keys = [row[0] for row in rows]
        assert sorted(keys) == sorted(CONFIG_KEYS)
        for key, default, flag, _ in rows:
            name = _SETTING_OF_KEY[key]
            assert flag.strip("`") in flags[name], key
            if name in _DEFAULT_WORDS:
                assert (default, _DEFAULTS[name]) == (_DEFAULT_WORDS[name], None), key
            # as a file value or a flag would give it
            assert _parse(name, default) == _DEFAULTS[name], key

    def test_file_values_differ_from_defaults_and_flags(self, tmp_path):
        from dataclasses import fields

        from xlembed.cli import _PIPELINE_DEFAULTS, load_pipeline_config
        from xlembed.trainer import TrainConfig

        defaults = {f.name: f.default for f in fields(TrainConfig)}
        defaults.update(_PIPELINE_DEFAULTS)
        settings = load_pipeline_config(self.write_cfg(tmp_path / "all.cfg"))
        assert settings.keys() == defaults.keys()
        assert all(settings[k] != defaults[k] for k in defaults)
        assert {k: settings[k] for k in CFG_TRAIN_CONFIG} == CFG_TRAIN_CONFIG
        assert all(FLAG_TRAIN_CONFIG[k] != CFG_TRAIN_CONFIG[k] for k in CFG_TRAIN_CONFIG)

    @staticmethod
    def write_cfg(path, **overrides):
        values = {**ALL_KEYS_CFG, **overrides}
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        return path

    @staticmethod
    def spy_preprocess(monkeypatch):
        import xlembed.corpus as corp

        seen = {"filter_parallel": set(), "filter_mono": set(), "vocab": set(), "lowercase": set()}

        def spy(name, fn, record):
            def wrapped(*args, **kwargs):
                seen[name].add(record(*args, **kwargs))
                return fn(*args, **kwargs)
            monkeypatch.setattr(corp, fn.__name__, wrapped)

        spy("filter_parallel", corp.filter_parallel, lambda pairs, c1, c2, n: (c1, c2, n))
        spy("filter_mono", corp.filter_mono, lambda lines, cutoff, n: (cutoff, n))
        spy("vocab", corp.build_vocabulary, lambda tokens, threshold, tag: (threshold, tag))
        spy("lowercase", corp.iter_tokens, lambda lines, lowercase: lowercase)
        return seen

    def test_config_file_reaches_preprocess(self, tiny_corpus, tmp_path, monkeypatch):
        seen = self.spy_preprocess(monkeypatch)
        cfg = self.write_cfg(tmp_path / "all.cfg")
        outdir = tmp_path / "prep"
        code = main([
            "preprocess", "--parallel-l1", str(tiny_corpus["l1"]),
            "--parallel-l2", str(tiny_corpus["l2"]), "--mono-l1", str(tiny_corpus["mono_en"]),
            "--mono-l2", str(tiny_corpus["mono_de"]), "--outdir", str(outdir),
            "--config", str(cfg),
        ])
        assert code == 0
        assert seen == {
            "filter_parallel": {(0.8, 0.6, 2)},
            "filter_mono": {(0.8, 2), (0.6, 2)},
            "vocab": {(1, "xx"), (4, "xx"), (3, "yy"), (6, "yy")},
            "lowercase": {False},
        }
        for name in ("xx.vocab", "yy.vocab", "bi.xx.ids", "mono.yy.ids"):
            assert (outdir / name).exists()

    def test_flags_beat_config_file_in_preprocess(self, tiny_corpus, tmp_path, monkeypatch):
        seen = self.spy_preprocess(monkeypatch)
        cfg = self.write_cfg(tmp_path / "all.cfg", lowercase="true")
        outdir = tmp_path / "prep"
        code = main([
            "preprocess", "--parallel-l1", str(tiny_corpus["l1"]),
            "--parallel-l2", str(tiny_corpus["l2"]), "--mono-l1", str(tiny_corpus["mono_en"]),
            "--mono-l2", str(tiny_corpus["mono_de"]), "--outdir", str(outdir),
            "--config", str(cfg), "--l1-tag", "pp", "--l2-tag", "qq",
            "--unk-threshold-bi-l1", "7", "--unk-threshold-bi-l2", "8",
            "--unk-threshold-mono-l1", "9", "--unk-threshold-mono-l2", "10",
            "--lowercase-cutoff-l1", "0.5", "--lowercase-cutoff-l2", "0.4",
            "--min-sentence-len", "4", "--no-lowercase",
        ])
        assert code == 0
        assert seen == {
            "filter_parallel": {(0.5, 0.4, 4)},
            "filter_mono": {(0.5, 4), (0.4, 4)},
            "vocab": {(7, "pp"), (9, "pp"), (8, "qq"), (10, "qq")},
            "lowercase": {False},
        }
        assert (outdir / "pp.vocab").exists() and (outdir / "qq.vocab").exists()

    @pytest.fixture
    def prepared_xy(self, tiny_corpus, tmp_path):
        outdir = tmp_path / "prep_xy"
        args = preprocess_args(tiny_corpus, outdir) + ["--l1-tag", "xx", "--l2-tag", "yy"]
        assert main(args) == 0
        return outdir

    @staticmethod
    def capture_train(monkeypatch, args):
        from dataclasses import asdict

        import xlembed.cli as cli

        seen = {}

        def fake_train(data, config, **kwargs):
            seen.update(data=data, config=asdict(config), **kwargs)
            raise _StopTraining

        monkeypatch.setattr(cli, "train", fake_train)
        with pytest.raises(_StopTraining):
            main(args)
        return seen

    def test_config_file_reaches_train(self, prepared_xy, tmp_path, monkeypatch):
        cfg = self.write_cfg(tmp_path / "all.cfg")
        seen = self.capture_train(monkeypatch, [
            "train", "--data-dir", str(prepared_xy), "--outdir", str(tmp_path / "m"),
            "--config", str(cfg),
        ])
        assert seen["config"] == CFG_TRAIN_CONFIG
        assert seen["checkpoint_every"] == 1
        data = seen["data"]
        assert (data.vocab_l1.language_tag, data.vocab_l2.language_tag) == ("xx", "yy")
        # bilingual_limit = 3, use_mono = false, mono_use_parallel = true: the
        # monolingual streams are exactly the three kept parallel sides
        assert len(data.parallel) == 3
        assert data.mono_l1.flat.tolist() == data.parallel.l1.flat.tolist()
        assert data.mono_l2.flat.tolist() == data.parallel.l2.flat.tolist()

    def test_flags_beat_config_file_in_train(self, prepared_xy, tmp_path, monkeypatch):
        cfg = self.write_cfg(
            tmp_path / "all.cfg", l1_tag="aa", l2_tag="bb", bilingual_limit="2",
            checkpoint_every="3", use_mono="true", mono_use_parallel="false",
        )
        seen = self.capture_train(monkeypatch, [
            "train", "--data-dir", str(prepared_xy), "--outdir", str(tmp_path / "m"),
            "--config", str(cfg), *TRAIN_FLAGS, "--l1-tag", "xx", "--l2-tag", "yy",
            "--bilingual-limit", "4", "--checkpoint-every", "2", "--no-mono",
            "--mono-use-parallel",
        ])
        assert seen["config"] == FLAG_TRAIN_CONFIG
        assert seen["checkpoint_every"] == 2
        data = seen["data"]
        assert (data.vocab_l1.language_tag, data.vocab_l2.language_tag) == ("xx", "yy")
        assert len(data.parallel) == 4
        assert data.mono_l1.flat.tolist() == data.parallel.l1.flat.tolist()
        assert data.mono_l2.flat.tolist() == data.parallel.l2.flat.tolist()

    def test_proportional_mix_flag_beats_config_file(self, prepared_xy, tmp_path, monkeypatch):
        cfg = self.write_cfg(tmp_path / "all.cfg")
        seen = self.capture_train(monkeypatch, [
            "train", "--data-dir", str(prepared_xy), "--outdir", str(tmp_path / "m"),
            "--config", str(cfg), "--mix", "proportional",
        ])
        assert seen["config"] == {**CFG_TRAIN_CONFIG, "mix": None}

    @pytest.mark.parametrize("flag,word,setting", [
        ("--margin", "dim", "margin"),
        ("--epochs", "none", "epochs"),
        ("--epochs", "auto", "epochs"),
        ("--bilingual-limit", "none", "bilingual_limit"),
        ("--bilingual-limit", "all", "bilingual_limit"),
    ])
    def test_derived_default_flag_beats_config_file(
        self, prepared_xy, tmp_path, monkeypatch, flag, word, setting
    ):
        cfg = self.write_cfg(tmp_path / "all.cfg")
        seen = self.capture_train(monkeypatch, [
            "train", "--data-dir", str(prepared_xy), "--outdir", str(tmp_path / "m"),
            "--config", str(cfg), flag, word,
        ])
        if setting == "bilingual_limit":  # the file keeps 3 pairs, the flag all of them
            assert seen["config"] == CFG_TRAIN_CONFIG
            assert len(seen["data"].parallel) > 3
        else:
            assert seen["config"] == {**CFG_TRAIN_CONFIG, setting: None}
            assert len(seen["data"].parallel) == 3

    def test_derived_default_words_in_config_file(self, prepared_xy, tmp_path, monkeypatch):
        cfg = self.write_cfg(tmp_path / "all.cfg", epochs="auto", bilingual_limit="all")
        seen = self.capture_train(monkeypatch, [
            "train", "--data-dir", str(prepared_xy), "--outdir", str(tmp_path / "m"),
            "--config", str(cfg),
        ])
        assert seen["config"] == {**CFG_TRAIN_CONFIG, "epochs": None}
        assert len(seen["data"].parallel) > 3

    @pytest.mark.parametrize(
        "command", ["preprocess", "train", "export", "nn", "classify-eval", "compose"]
    )
    def test_help_shows_each_default_once(self, command):
        import argparse
        import re
        from dataclasses import fields

        from xlembed.cli import _PIPELINE_DEFAULTS, build_parser
        from xlembed.trainer import TrainConfig

        defaults = {f.name: f.default for f in fields(TrainConfig)}
        defaults.update(_PIPELINE_DEFAULTS)
        # settings whose None default means "derived" show a word instead
        defaults.update(margin="dim", epochs="auto", mix="proportional", bilingual_limit="all")
        (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for action in sub.choices[command]._actions:
            if action.dest == "help":
                continue
            shown = re.findall(r"\(default: ([^)]*)\)", action.help or "")
            assert len(shown) <= 1, action.option_strings
            if command not in ("preprocess", "train") or action.required:
                continue
            if action.dest in defaults and action.const is not None:
                expected = f"{action.dest} = {defaults[action.dest]}"  # a switch
            else:
                expected = str(defaults.get(action.dest, action.default))
            assert shown == [expected], action.option_strings


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
