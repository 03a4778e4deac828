"""The benchmark workloads: what each one runs, times and checks.

An *iteration* is the unit a workload repeats in its closed loop: one train
step on the train workloads, one full preprocess -> checkpoint -> export ->
load -> nn -> classify pass on ``pipeline``. An *operation*, the unit of
``attempted`` and ``failed``, is a train step, a pipeline stage or one
``nn`` query; a failed correctness check fails its operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import time
import traceback
from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

import gen
from xlembed import cli, corpus, embeddings, evaluate, trainer


@dataclass(frozen=True)
class Size:
    vocab: int = gen.VOCAB  # train table rows per language
    batch: int = 40_000
    pairs: int = 500_000  # euro500k: the first 500,000 sentence pairs
    mono: int = 500_000  # per language, train-add-mixed only (perfbench/README.md)
    pipeline_vocab: int = 25_000  # pipeline table rows per language (perfbench/README.md)
    raw_pairs: int = 5_000  # pipeline raw text
    raw_mono: int = 5_000  # lines per language
    raw_fail: int = 100  # lines per raw file that the lowercase filter drops
    docs: int = 500  # per language and split
    queries: int = 25  # nn queries per pipeline pass
    k: int = 10


FULL = Size()
TINY = Size(vocab=3000, batch=500, pairs=600, mono=600, pipeline_vocab=3000, raw_pairs=300,
            raw_mono=300, raw_fail=20, docs=40, queries=10)

# A timed loop runs at least this many iterations, however long they take.
MIN_TIMED = 3
# The table hash is taken after this many train steps (warm-up included), so
# runs with the same seed compare whatever their speed.
HASH_STEPS = 3


@dataclass
class Record:
    """Timings and outcomes of one measured loop."""

    iter_s: list = field(default_factory=list)  # timed seconds per timed iteration
    iterations: int = 0  # timed iterations
    attempted: int = 0
    failed: int = 0
    figures: dict = field(default_factory=dict)  # name -> list of samples
    details: dict = field(default_factory=dict)

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def sample(self, name: str, value: float) -> None:
        self.figures.setdefault(name, []).append(value)


def _failed_op(rec: Record, what: str) -> None:
    print(f"perfbench: {what} failed", flush=True)
    traceback.print_exc()
    rec.op(False)


def closed_loop(seconds: float, iterate, rec: Record) -> None:
    """Calls ``iterate(rec)``, which returns the iteration's timed seconds,
    while the next call is predicted (from the last one's wall time) to end
    within ``seconds``, and at least MIN_TIMED times."""
    deadline = time.perf_counter() + seconds
    done, wall = 0, 0.0
    while done < MIN_TIMED or time.perf_counter() + wall <= deadline:
        start = time.perf_counter()
        rec.iter_s.append(iterate(rec))
        rec.iterations += 1
        done += 1
        wall = time.perf_counter() - start


# ---------------------------------------------------------------------------
# train workloads


class TrainWorkload:
    """Train steps on generated corpora, run as ``trainer.train`` runs them:
    the start state comes from ``trainer.train`` with zero epochs, then each
    step is ``make_batch`` plus ``train_step`` with the trainer's own RNG
    stream. A run is one session; its first step is the untimed warm-up.
    (``trainer.train`` itself only stops at epoch ends, and an epoch over
    500k pairs is 12 steps, longer than a run.)"""

    def __init__(self, composition: str, mono: bool):
        self.composition = composition
        self.mono = mono

    def generate(self, seed: int, size: Size) -> None:
        self.seed = seed
        self.size = size
        n_mono = size.mono if self.mono else 0
        self.inputs = gen.train_inputs(seed, size.vocab, size.pairs, n_mono)
        self.tokens_l1 = list(gen.token_strings("e", size.vocab)[1:])
        self.tokens_l2 = list(gen.token_strings("d", size.vocab)[1:])

    def setup(self, workdir: Path) -> None:
        """Vocabularies, encoded corpora and the trainer's own start-up
        (config checks, table and AdaGrad initialisation) with zero epochs."""
        inp = self.inputs
        self.data = self.start = None  # the previous set-up's corpora are not kept alive

        def vocab(tokens, counts, tag):
            return corpus.Vocabulary(tokens, counts[1:], int(counts[0]), tag)

        def mono(sentences, tag):
            return corpus.EncodedCorpus(sentences, tag) if sentences is not None else None

        self.data = trainer.TrainingData(
            vocab(self.tokens_l1, inp.counts_l1, "l1"),
            vocab(self.tokens_l2, inp.counts_l2, "l2"),
            corpus.ParallelCorpus(
                corpus.EncodedCorpus(inp.pairs_l1, "l1"), corpus.EncodedCorpus(inp.pairs_l2, "l2")
            ),
            mono(inp.mono_l1, "l1"),
            mono(inp.mono_l2, "l2"),
        )
        self.config = trainer.TrainConfig(
            batch_size=self.size.batch, composition=self.composition, seed=self.seed, epochs=0
        )
        self.start = trainer.train(self.data, self.config)

    def samples_per_step(self) -> int:
        return sum(round(self.size.batch * f) for f in self.mix)

    def _restart(self) -> None:
        """The state and RNG stream ``trainer.train`` starts its first step from."""
        self.tables = self.start.tables.copy()
        self.state = trainer.AdaGradState({t: g.copy() for t, g in self.start.state.g_by_tag.items()})
        self.rng = np.random.default_rng((self.seed, 2))
        mix = self.config.mix
        self.mix = mix if mix is not None else trainer.proportional_mix(*self.data.sizes())
        self.steps = 0

    def warm_up(self, rec: Record) -> None:
        self._restart()
        self._step(rec)
        rec.details["samples_per_step"] = self.samples_per_step()

    def run(self, seconds: float, rec: Record) -> None:
        closed_loop(seconds, self._step, rec)

    def _step(self, rec: Record) -> float:
        """One step, timed; then, untimed, one operation that fails when the
        LossBreakdown or a table is not finite. Records the loss trajectory
        and, after HASH_STEPS steps, the tables' sha256."""
        start = time.perf_counter()
        try:
            batch = trainer.make_batch(self.data, self.config, self.mix, self.rng)
            breakdown = trainer.train_step(batch, self.tables, self.state, self.config)
        except Exception:  # the run goes on from a fresh start state
            elapsed = time.perf_counter() - start
            _failed_op(rec, "train step")
            self._restart()
            return elapsed
        elapsed = time.perf_counter() - start
        self.steps += 1
        tables = (self.tables.l1.matrix, self.tables.l2.matrix)
        rec.op(bool(np.isfinite(astuple(breakdown)).all()) and all(bool(np.isfinite(t).all()) for t in tables))
        rec.details.setdefault("loss_trajectory", []).append(astuple(breakdown))
        if self.steps == HASH_STEPS:
            rec.details["table_sha256"] = hashlib.sha256(b"".join(t.tobytes() for t in tables)).hexdigest()
        return elapsed


# ---------------------------------------------------------------------------
# pipeline workload


def _nn_reference(query_row: np.ndarray, dst: np.ndarray, dst_norms: np.ndarray, k: int):
    """Top-k rows by cosine, computed independently of the library."""
    sims = (dst @ query_row) / (dst_norms * np.linalg.norm(query_row))
    sims[0] = -np.inf  # the <unk> row is never reported
    order = np.argsort(-sims, kind="stable")[:k]
    return order, sims[order]


class PipelineWorkload:
    """Generated raw text through ``xlembed preprocess``, then a checkpoint
    save and load of the two tables, ``.vec`` export and reload of both
    languages, ``nn`` queries and ``classify-eval`` in both directions. The
    first pass is the untimed warm-up."""

    STAGES = ("preprocess", "checkpoint", "export", "load", "classify l1->l2", "classify l2->l1")

    def generate(self, seed: int, size: Size) -> None:
        self.seed = seed
        self.size = size

    def setup(self, workdir: Path) -> None:
        """The generated inputs, their files on disk, and the table pair and
        AdaGrad state that the checkpoint stage saves. Generating here keeps
        the set-up CPU-bound: writing the files alone takes about 20 ms, and
        file-cache noise swings that by a factor of two between runs."""
        size = self.size
        self.inputs = inp = gen.pipeline_inputs(
            self.seed, size.pipeline_vocab, size.raw_pairs, size.raw_mono, size.raw_fail, size.docs, size.queries
        )
        self.workdir = workdir
        self.dir = workdir / "inputs"
        self.dir.mkdir(parents=True, exist_ok=True)
        for name, lines in (("par.l1", inp.parallel_l1), ("par.l2", inp.parallel_l2),
                            ("mono.l1", inp.mono_l1), ("mono.l2", inp.mono_l2)):
            (self.dir / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        for (lang, part), docs in inp.docs.items():
            evaluate.write_labeled_documents(
                self.dir / f"{part}.{lang}.docs",
                [evaluate.LabeledDocument(doc_id, label, lines) for label, doc_id, lines in docs],
            )
        self.tokens = {"l1": list(inp.tokens_l1), "l2": list(inp.tokens_l2)}
        self.tables = embeddings.TablePair(
            embeddings.EmbeddingTable(inp.table_l1, "l1"), embeddings.EmbeddingTable(inp.table_l2, "l2")
        )
        self.state = trainer.AdaGradState.zeros(self.tables)
        self.config = trainer.TrainConfig(seed=self.seed)
        self.passes = 0

    def warm_up(self, rec: Record) -> None:
        """One pass whose checks count but whose timings are dropped."""
        scratch = Record()
        self._pass(scratch)
        rec.attempted += scratch.attempted
        rec.failed += scratch.failed

    def run(self, seconds: float, rec: Record) -> None:
        closed_loop(seconds, self._pass, rec)

    def _pass(self, rec: Record) -> float:
        """Runs the stages and returns their summed time; the checks run
        between stages and are not timed."""
        out = self.workdir / f"pass{self.passes}"
        self.passes += 1
        out.mkdir(parents=True)
        planned = len(self.STAGES) + len(self.inputs.queries)
        before = rec.attempted
        start = time.perf_counter()
        try:
            return self._stages(out, rec)
        except Exception:  # later stages depend on this one and cannot run
            _failed_op(rec, "pipeline stage")
            while rec.attempted - before < planned:
                rec.op(False)
            return time.perf_counter() - start
        finally:
            shutil.rmtree(out)  # a pass writes tens of MB

    def _stages(self, out: Path, rec: Record) -> float:
        inp, size = self.inputs, self.size
        timed = [0.0]

        def lap(start: float) -> float:
            elapsed = time.perf_counter() - start
            timed[0] += elapsed
            return elapsed

        # preprocess, then read the id files back as training would
        t = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([
                "preprocess", "--l1-tag", "l1", "--l2-tag", "l2",
                "--parallel-l1", str(self.dir / "par.l1"), "--parallel-l2", str(self.dir / "par.l2"),
                "--mono-l1", str(self.dir / "mono.l1"), "--mono-l2", str(self.dir / "mono.l2"),
                "--outdir", str(out / "data"),
            ])
        kept = {
            name: len(corpus.EncodedCorpus.load_ids(out / "data" / f"{name}.ids"))
            for name in ("bi.l1", "bi.l2", "mono.l1", "mono.l2")
        }
        lines = 2 * len(inp.parallel_l1) + len(inp.mono_l1) + len(inp.mono_l2)
        rec.sample("preprocess_lines_per_s", lines / lap(t))
        expected = {"bi.l1": inp.kept_pairs, "bi.l2": inp.kept_pairs,
                    "mono.l1": inp.kept_mono_l1, "mono.l2": inp.kept_mono_l2}
        rec.op(code == 0 and kept == expected)

        # checkpoint save and load
        t = time.perf_counter()
        path = out / "checkpoint.npz"
        trainer.save_checkpoint(path, self.tables, self.state, self.config, 1,
                                np.random.default_rng(self.seed))
        tables, state, _, _, _ = trainer.load_checkpoint(path)
        rec.sample("checkpoint_s", lap(t))
        rec.op(all(
            np.array_equal(a, b) for a, b in (
                (tables.l1.matrix, self.tables.l1.matrix), (tables.l2.matrix, self.tables.l2.matrix),
                (state.g_by_tag["l1"], self.state.g_by_tag["l1"]),
                (state.g_by_tag["l2"], self.state.g_by_tag["l2"]),
            )
        ))

        # export both languages from the loaded checkpoint; checked on reload
        t = time.perf_counter()
        for tag, table in (("l1", tables.l1), ("l2", tables.l2)):
            embeddings.save_embeddings_text(out / f"{tag}.vec", self.tokens[tag], table.matrix)
        rec.sample("export_s", lap(t))
        rec.op(True)

        # reload both, as the nn and classify-eval commands do
        t = time.perf_counter()
        vocabs, loaded, read_tokens = {}, {}, {}
        for tag in ("l1", "l2"):
            read_tokens[tag], matrix = embeddings.load_embeddings_text(out / f"{tag}.vec")
            vocabs[tag] = corpus.Vocabulary(read_tokens[tag][1:], [0] * (len(matrix) - 1), 0, tag)
            loaded[tag] = embeddings.EmbeddingTable(matrix, tag)
        rec.sample("load_s", lap(t))
        rec.op(all(
            read_tokens[tag] == self.tokens[tag] and np.array_equal(loaded[tag].matrix, table.matrix)
            for tag, table in (("l1", tables.l1), ("l2", tables.l2))
        ))

        # nn: l1 queries against the l2 table
        dst = loaded["l2"].matrix
        dst_norms = np.linalg.norm(dst, axis=1)
        for query in inp.queries:
            t = time.perf_counter()
            got = evaluate.nearest_neighbors(
                query, vocabs["l1"], loaded["l1"], vocabs["l2"], loaded["l2"], k=size.k
            )
            rec.sample("nn_query_ms", 1000.0 * lap(t))
            order, sims = _nn_reference(loaded["l1"].matrix[vocabs["l1"].id_for(query)], dst, dst_norms, size.k)
            rec.op(
                [tok for tok, _ in got] == [self.tokens["l2"][i] for i in order]
                and np.allclose([s for _, s in got], sims, rtol=1e-9, atol=1e-12)
            )

        # classify-eval in both directions
        pair = embeddings.TablePair(loaded["l1"], loaded["l2"])
        for train_tag, test_tag in (("l1", "l2"), ("l2", "l1")):
            t = time.perf_counter()
            train_docs, test_docs = (
                evaluate.encode_documents(
                    evaluate.read_labeled_documents(self.dir / f"{part}.{tag}.docs", tag), vocabs[tag]
                )
                for part, tag in (("train", train_tag), ("test", test_tag))
            )
            report = evaluate.crosslingual_eval(train_docs, test_docs, pair, kind="add", seed=self.seed)
            rec.sample("classify_docs_per_s", (len(train_docs) + len(test_docs)) / lap(t))
            rec.details.setdefault("accuracy", {})[report.direction] = report.accuracy
            rec.op(int(report.confusion.sum()) == len(test_docs))
        return timed[0]


WORKLOADS = {
    "train-add-mixed": lambda: TrainWorkload("add", mono=True),
    "train-bi-bilingual": lambda: TrainWorkload("bi", mono=False),
    "pipeline": PipelineWorkload,
}
