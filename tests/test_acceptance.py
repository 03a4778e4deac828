"""Acceptance suite. Each criterion records one pass/fail verdict line,
printed in the terminal summary after the run."""

import time

import numpy as np
import pytest

from conftest import build_training_data, record_verdict
from synthdata import make_world

from xlembed.cli import load_pipeline_config, main
from xlembed.corpus import (
    EncodedCorpus,
    ParallelCorpus,
    build_vocabulary,
    encode,
    filter_parallel,
    lowercase_ratio,
    sample_bilingual_pairs,
    sample_phrase_triples,
)
from xlembed.embeddings import TablePair, init_table, save_embeddings_text
from xlembed.evaluate import (
    LabeledDocument,
    crosslingual_eval,
    nearest_neighbors,
    perceptron_train,
)
from xlembed.objective import batch_loss, batch_loss_and_grad
from xlembed.trainer import EPOCHS_BI_ONLY, EPOCHS_WITH_MONO, TrainConfig, train


def announce(name: str, ok: bool, detail: str = ""):
    record_verdict(name, ok, detail)
    verdict = "PASS" if ok else "FAIL"
    print(f"acceptance [{name}]: {verdict} {detail}".rstrip(), flush=True)


# ---------------------------------------------------------------------------
# criterion 1: gradient-oracle equivalence


def _random_config(rng, dim):
    """One random mixed batch over tiny corpora, resampled until every
    monolingual sample sits clear of the hinge kink."""
    vocab = int(rng.integers(6, 21))
    for _ in range(100):
        sents_l1 = [
            rng.integers(0, vocab, size=rng.integers(3, 6)).astype(np.int32) for _ in range(5)
        ]
        sents_l2 = [
            rng.integers(0, vocab, size=rng.integers(3, 6)).astype(np.int32) for _ in range(5)
        ]
        c1, c2 = EncodedCorpus(sents_l1, "en"), EncodedCorpus(sents_l2, "de")
        pairs = sample_bilingual_pairs(ParallelCorpus(c1, c2), rng, 2)
        mono_l1 = sample_phrase_triples(c1, rng, 2)
        mono_l2 = sample_phrase_triples(c2, rng, 2)
        tables = TablePair(
            init_table(vocab, dim, 0.1, tuple(rng.integers(0, 2**31, 2)), "en"),
            init_table(vocab, dim, 0.1, tuple(rng.integers(0, 2**31, 2)), "de"),
        )
        kind = "add" if rng.random() < 0.5 else "bi"
        # margin scaled by sqrt(dim) keeps batch losses O(10); larger losses
        # push the oracle's own round-off (eps * L / 2h) above the tolerance
        margin = float(rng.uniform(0.1, 2.0) * np.sqrt(dim)) if rng.random() < 0.8 else 0.0
        lam = float(rng.uniform(0.0, 1.5))

        # hinge-kink exclusion: reject batches with any |m + d_in - d_no| <= 1e-4
        clear = True
        for batch, tag in ((mono_l1, "en"), (mono_l2, "de")):
            from xlembed.embeddings import SpanComposition

            w = tables.by_tag(tag).matrix
            co = SpanComposition(kind, w, batch.outer).values
            ci = SpanComposition(kind, w, batch.inner).values
            cn = SpanComposition(kind, w, batch.noise).values
            d_in = ((co - ci) ** 2).sum(axis=1)
            d_no = ((co - cn) ** 2).sum(axis=1)
            if (np.abs(margin + d_in - d_no) <= 1e-4).any():
                clear = False
                break
        if clear:
            return pairs, mono_l1, mono_l2, tables, kind, margin, lam
    raise RuntimeError("could not sample a kink-free configuration")


def test_criterion_1_gradient_oracle_equivalence():
    rng = np.random.default_rng(101)
    h = 1e-5
    start = time.monotonic()
    n_configs = 0
    worst = 0.0
    for dim, reps in ((2, 90), (8, 70), (40, 40)):
        for _ in range(reps):
            pairs, m1, m2, tables, kind, margin, lam = _random_config(rng, dim)
            _, grads_by_tag = batch_loss_and_grad(pairs, m1, m2, tables, kind, margin, lam)
            for tag, (ids, grads) in grads_by_tag.items():
                matrix = tables.by_tag(tag).matrix
                for r, i in enumerate(ids):
                    for j in range(dim):
                        orig = matrix[i, j]
                        matrix[i, j] = orig + h
                        fp = batch_loss(pairs, m1, m2, tables, kind, margin, lam).total
                        matrix[i, j] = orig - h
                        fm = batch_loss(pairs, m1, m2, tables, kind, margin, lam).total
                        matrix[i, j] = orig
                        fd = (fp - fm) / (2 * h)
                        analytic = grads[r, j]
                        rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-4)
                        worst = max(worst, rel)
            n_configs += 1
    elapsed = time.monotonic() - start
    ok = worst <= 1e-5 and n_configs >= 200 and elapsed < 60.0
    announce(
        "1 gradient-oracle equivalence",
        ok,
        f"({n_configs} configs, worst rel err {worst:.2e}, {elapsed:.1f}s)",
    )
    assert n_configs >= 200
    assert worst <= 1e-5
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 2: objective descent on synthetic data


def test_criterion_2_objective_descent(synth_run):
    history = synth_run.result.history
    epochs = max(e for e, _, _ in history)
    first = np.mean([b.total for e, _, b in history if e == 1])
    last = np.mean([b.total for e, _, b in history if e == epochs])
    ratio = last / first
    ok = ratio < 0.2 and synth_run.train_seconds < 120.0
    announce(
        "2 objective descent",
        ok,
        f"(final/first epoch loss ratio {ratio:.3f}, train {synth_run.train_seconds:.1f}s)",
    )
    assert epochs == 50
    assert ratio < 0.2
    assert synth_run.train_seconds < 120.0


# ---------------------------------------------------------------------------
# criterion 3: crosslingual neighbor recovery


def test_criterion_3_neighbor_recovery(synth_run):
    vocab_l1 = synth_run.data.vocab_l1
    vocab_l2 = synth_run.data.vocab_l2
    tables = synth_run.result.tables
    by_frequency = np.argsort(-vocab_l1.counts[1:], kind="stable") + 1
    top50 = [vocab_l1.token_for(int(i)) for i in by_frequency[:50]]
    hits = 0
    for token in top50:
        neighbor = nearest_neighbors(
            token, vocab_l1, tables.l1, vocab_l2, tables.l2, k=1, metric="cosine"
        )[0][0]
        if neighbor == synth_run.world.rename[token]:
            hits += 1
    ok = hits >= 40
    announce("3 neighbor recovery", ok, f"({hits}/50 rank-1 counterparts)")
    assert hits >= 40


# ---------------------------------------------------------------------------
# criterion 4: toy crosslingual document classification


def test_criterion_4_toy_document_classification(synth_run):
    start = time.monotonic()
    world = synth_run.world
    vocab_l1, vocab_l2 = synth_run.data.vocab_l1, synth_run.data.vocab_l2

    def encode_docs(raw_docs, vocab):
        return [
            LabeledDocument(
                doc_id, label, [encode(s, vocab) for s in sents], vocab.language_tag
            )
            for label, doc_id, sents in raw_docs
        ]

    train_docs = encode_docs(world.train_docs_l1, vocab_l1)
    test_docs = encode_docs(world.test_docs_l2, vocab_l2)
    assert len(train_docs) == len(test_docs) == 500
    labels = [d.label for d in test_docs]
    majority = max(labels.count(l) for l in set(labels)) / len(labels)
    report = crosslingual_eval(
        train_docs, test_docs, synth_run.result.tables, kind="add", epochs=10, seed=7
    )
    elapsed = time.monotonic() - start
    ok = report.accuracy >= 0.9 and majority == 0.5 and elapsed < 300.0
    announce(
        "4 toy document classification",
        ok,
        f"(accuracy {report.accuracy:.3f} vs majority {majority:.2f}, {elapsed:.1f}s)",
    )
    assert majority == 0.5
    assert report.accuracy >= 0.9
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# criterion 5: full-scale harness (declared substitution, desk-runnable)


def test_criterion_5_reproduce_configs_and_formats(tmp_path):
    # the full-scale numbers need licensed corpora and hours of compute; the
    # harness must still accept those corpora via the documented formats and
    # the reproduce/ configs must carry the reference thresholds
    expected = {
        "euro500k.cfg": {"bilingual_limit": 500000, "use_mono": False},
        "eurofull.cfg": {"bilingual_limit": None, "use_mono": False},
        "euro500k_reuters.cfg": {"bilingual_limit": 500000, "use_mono": True},
        "eurofull_reuters.cfg": {"bilingual_limit": None, "use_mono": True},
    }
    import os

    assert (EPOCHS_BI_ONLY, EPOCHS_WITH_MONO) == (100, 25)
    here = os.path.join(os.path.dirname(__file__), "..", "reproduce")
    for name, wants in expected.items():
        settings = load_pipeline_config(os.path.join(here, name))
        assert settings["unk_threshold_bi_l1"] == 2, name
        assert settings["unk_threshold_bi_l2"] == 2, name
        assert settings["lowercase_cutoff_l1"] == 0.9, name
        assert settings["lowercase_cutoff_l2"] == 0.7, name
        assert settings["dim"] == 40, name
        assert settings["learning_rate"] == 0.2, name
        assert settings["batch_size"] == 40000, name
        assert settings["lam"] == 1.0, name
        assert settings.get("epochs") is None, name  # auto: the reference run length
        assert settings.get("bilingual_limit") == wants["bilingual_limit"], name
        assert settings["use_mono"] is wants["use_mono"], name
        if wants["use_mono"]:
            assert settings["unk_threshold_mono_l1"] == 5, name
            assert settings["unk_threshold_mono_l2"] == 3, name
        config = TrainConfig(
            **{
                k: v
                for k, v in settings.items()
                if k in TrainConfig.__dataclass_fields__
            }
        )
        config.validate()
        assert config.resolved_margin() == 40.0

    # dry run: the mixed-condition config drives the CLI end to end on a
    # miniature corpus in the documented file formats (desk-scale overrides
    # for dim/epochs/batch only)
    world = make_world(555)
    for name, lines in (
        ("para.l1", [p[0] for p in world.pairs[:200]]),
        ("para.l2", [p[1] for p in world.pairs[:200]]),
        ("mono.l1", world.mono_l1[:200]),
        ("mono.l2", world.mono_l2[:200]),
    ):
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    cfg = os.path.join(here, "euro500k_reuters.cfg")
    code = main([
        "preprocess", "--parallel-l1", str(tmp_path / "para.l1"),
        "--parallel-l2", str(tmp_path / "para.l2"),
        "--mono-l1", str(tmp_path / "mono.l1"), "--mono-l2", str(tmp_path / "mono.l2"),
        "--config", cfg,
        "--unk-threshold-bi-l1", "1", "--unk-threshold-bi-l2", "1",
        "--unk-threshold-mono-l1", "1", "--unk-threshold-mono-l2", "1",
        "--outdir", str(tmp_path / "prep"),
    ])
    assert code == 0
    code = main([
        "train", "--data-dir", str(tmp_path / "prep"), "--outdir", str(tmp_path / "model"),
        "--config", cfg, "--dim", "8", "--epochs", "2", "--batch-size", "512",
    ])
    assert code == 0
    assert (tmp_path / "model" / "en.vec").exists()
    assert (tmp_path / "model" / "de.vec").exists()
    announce("5 full-scale harness (declared substitution)", True,
             "(configs verified, desk-scale dry run trained)")


# ---------------------------------------------------------------------------
# criterion 6: averaged perceptron correctness


def test_criterion_6_averaged_perceptron():
    rng = np.random.default_rng(606)
    dim, per_class = 40, 100
    means = rng.normal(scale=5.0, size=(4, dim))
    xs = np.concatenate(
        [means[c] + rng.normal(scale=0.5, size=(per_class, dim)) for c in range(4)]
    )
    ys = np.repeat(np.arange(4), per_class)
    docs = [
        LabeledDocument(f"d{i}", f"class{c}", [np.array([1])], "en")
        for i, c in enumerate(ys)
    ]
    model = perceptron_train(docs, xs, epochs=10, seed=1)
    predictions = model.predict_indices(xs, use_average=True)
    accuracy = float((predictions == ys).mean())
    scaled = model.predict_indices(10.0 * xs, use_average=True)
    invariant = bool((predictions == scaled).all())
    ok = accuracy == 1.0 and invariant
    announce(
        "6 averaged perceptron",
        ok,
        f"(train accuracy {accuracy:.3f} on 400 points, scale-invariant {invariant})",
    )
    assert xs.shape == (400, 40)
    assert accuracy == 1.0
    assert invariant


# ---------------------------------------------------------------------------
# criterion 7: preprocessing conformance (all exact)


def test_criterion_7_preprocessing_conformance():
    checks = []
    checks.append(lowercase_ratio("the cat sat") == float("inf"))
    checks.append(lowercase_ratio("REPORT 1234") == 0.0)
    checks.append(lowercase_ratio("Prices Rose 3%") == 8 / 4)
    checks.append(lowercase_ratio("") == float("inf"))

    pairs = [
        ("good lowercase line", "gute zeile hier"),
        ("BAD 123 456 000", "gute zeile hier"),
        ("good lowercase line", "SCHLECHT 999 111 222"),
    ]
    kept = filter_parallel(pairs, 0.9, 0.7)
    checks.append(kept == [pairs[0]])

    vocab = build_vocabulary(["a"] * 3 + ["b"] * 2 + ["c"], unk_threshold=2)
    checks.append("a" in vocab and "b" in vocab)  # frequency == threshold retained
    checks.append(vocab.id_for("c") == 0)  # threshold - 1 dropped

    stream = "one two two three three three".split()
    v1, v2 = build_vocabulary(list(stream), 2), build_vocabulary(list(stream), 2)
    checks.append(v1.id_to_token == v2.id_to_token and (v1.counts == v2.counts).all())

    ok = all(checks)
    announce("7 preprocessing conformance", ok, f"({sum(checks)}/{len(checks)} exact checks)")
    assert all(checks)


# ---------------------------------------------------------------------------
# criterion 8: determinism and throughput


def test_criterion_8_determinism_and_throughput(synth_run, tmp_path):
    # second run of the criterion-2 configuration, built from scratch
    data = build_training_data(synth_run.world)
    rerun = train(data, TrainConfig(dim=16, epochs=50))

    def export(result, data, subdir):
        outdir = tmp_path / subdir
        outdir.mkdir()
        paths = []
        for vocab, table in ((data.vocab_l1, result.tables.l1), (data.vocab_l2, result.tables.l2)):
            path = outdir / f"{table.language_tag}.vec"
            save_embeddings_text(path, vocab.id_to_token, table.matrix)
            paths.append(path)
        return paths

    first = export(synth_run.result, synth_run.data, "run1")
    second = export(rerun, data, "run2")
    identical = all(a.read_bytes() == b.read_bytes() for a, b in zip(first, second))

    # throughput at the reference dimensionality with Add composition
    data40 = build_training_data(synth_run.world)
    config40 = TrainConfig(dim=40, epochs=2)
    start = time.monotonic()
    result40 = train(data40, config40)
    elapsed = time.monotonic() - start
    samples = len(result40.history) * config40.batch_size
    rate = samples / elapsed
    ok = identical and rate >= 2000.0
    announce(
        "8 determinism and throughput",
        ok,
        f"(bit-identical exports {identical}, {rate:,.0f} samples/s at dim 40)",
    )
    assert identical
    assert rate >= 2000.0
