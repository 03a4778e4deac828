"""Stochastic mini-batch AdaGrad training over mixed bilingual and
monolingual sample streams, with checkpointing and deterministic replay.

Each step computes the batch loss and its coalesced sparse gradient with
:func:`xlembed.objective.batch_loss_and_grad`, then applies AdaGrad to
exactly the touched rows, one block of rows at a time on the block pool,
and writes both tables only once both are computed and finite. Training is
bit-deterministic for a fixed seed, including across a checkpoint/resume
boundary.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import zipfile
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .corpus import (
    MIN_SPAN_LEN,
    EncodedCorpus,
    ParallelCorpus,
    Vocabulary,
    atomic_write,
    is_file_name,
    sample_bilingual_pairs,
    sample_phrase_triples,
)
from .embeddings import (
    CompositionKind, EmbeddingTable, TablePair, init_table, cell_blocks, run_blocks,
)
from .errors import ConfigError, DataError, TrainingError
from .objective import LossBreakdown, batch_loss_and_grad

# used whenever no --seed is given, so unseeded runs are still reproducible
DEFAULT_SEED = 42

# the run length when epochs is None: without, or with monolingual corpora
EPOCHS_BI_ONLY = 100
EPOCHS_WITH_MONO = 25

CHECKPOINT_MAGIC = "xlembed-checkpoint"
CHECKPOINT_VERSION = 1
# what save_checkpoint writes besides the magic
CHECKPOINT_MEMBERS = (
    "version", "tags", "table_l1", "table_l2", "g_l1", "g_l2", "config", "epoch", "rng_state"
)


@dataclass
class TrainConfig:
    """Hyperparameters; defaults follow the reference setup (40-dim vectors,
    learning rate 0.2, mini-batches of 40,000 samples, margin = dim,
    lambda 1.0, and with epochs None, 100 bilingual-only or 25 mixed epochs)."""

    dim: int = 40
    learning_rate: float = 0.2
    batch_size: int = 40000
    margin: float | None = None  # None resolves to dim
    lam: float = 1.0
    epochs: int | None = None  # None: EPOCHS_BI_ONLY, or EPOCHS_WITH_MONO with mono corpora
    mix: tuple[float, float, float] | None = None  # None: proportional to corpus sizes
    seed: int = DEFAULT_SEED
    adagrad_epsilon: float = 1e-8
    composition: str = "add"
    init_sigma: float = 0.1

    def resolved_margin(self) -> float:
        return float(self.dim if self.margin is None else self.margin)

    def validate(self) -> None:
        for name, low in (("dim", 1), ("batch_size", 1), ("epochs", 0), ("seed", 0)):
            value = getattr(self, name)
            if not (_is_number(value, numbers.Integral) or value is None and name == "epochs"):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value is not None and value < low:
                raise ConfigError(f"{name} must be >= {low}, got {value}")
        # dim is the default margin, and batch_size is scaled by the mix fractions
        for name in ("dim", "batch_size"):
            value = getattr(self, name)
            if not _finite(value):
                raise ConfigError(f"{name} is too large for a float, got {value}")
        # every comparison with NaN is false: test finiteness first
        for name, value, bound in (
            ("learning_rate", self.learning_rate, "> 0"),
            ("margin", self.dim if self.margin is None else self.margin, ">= 0"),
            ("lambda", self.lam, ">= 0"),
            ("adagrad_epsilon", self.adagrad_epsilon, "> 0"),
            ("init_sigma", self.init_sigma, "> 0"),
        ):
            if not _is_number(value):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            if not (_finite(value) and (value > 0 or value == 0 and bound == ">= 0")):
                raise ConfigError(f"{name} must be finite and {bound}, got {value}")
        if self.mix is not None:
            if not (isinstance(self.mix, (tuple, list)) and len(self.mix) == 3
                    and all(_is_number(f) and _finite(f) and f >= 0 for f in self.mix)):
                raise ConfigError(f"mix must be three finite fractions >= 0, got {self.mix}")
            if abs(sum(self.mix) - 1.0) > 1e-9:
                raise ConfigError(f"mix fractions must sum to 1, got {self.mix}")
        try:
            CompositionKind.coerce(self.composition)
        except DataError as exc:
            raise ConfigError(str(exc))


def _is_number(value, kind=numbers.Real) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _finite(value) -> bool:
    """``math.isfinite``, with an integer too large for a float not finite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def proportional_mix(n_bi: int, n_mono_l1: int, n_mono_l2: int) -> tuple[float, float, float]:
    """Mix fractions proportional to the configured corpus sizes."""
    total = n_bi + n_mono_l1 + n_mono_l2
    if total == 0:
        raise ConfigError("no corpus configured")
    return (n_bi / total, n_mono_l1 / total, n_mono_l2 / total)


class AdaGradState:
    """Per-parameter accumulators of squared gradients, one matrix per table."""

    def __init__(self, g_by_tag: dict[str, np.ndarray]):
        self.g_by_tag = g_by_tag

    @classmethod
    def zeros(cls, tables: TablePair) -> "AdaGradState":
        return cls({t.language_tag: np.zeros_like(t.matrix) for t in (tables.l1, tables.l2)})


def apply_sparse_update(
    table: EmbeddingTable, g_matrix: np.ndarray, ids: np.ndarray, grads: np.ndarray,
    lr: float, eps: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized AdaGrad over the unique touched rows of one table:
    G += g^2, then w -= lr * g / (sqrt(G) + eps).

    Returns the new accumulator rows and weight rows as (g_rows, w_rows),
    checked to be finite; nothing is written to ``table`` or ``g_matrix``,
    so the caller can commit several tables together or none of them. Only
    the accumulator rows are a new C-ordered array: the weight rows are
    written over the gradient rows, so ``w_rows`` is ``grads`` (cast to the
    table's dtype first if it is not of it, or not writable), whose gradient
    is gone once this returns. The rows are gathered and updated one block
    of rows at a time on the block pool
    (:func:`xlembed.embeddings.cell_blocks`), which reads any layout of
    ``table`` and ``g_matrix`` well; every cell's arithmetic is that of one
    whole-array update.
    """
    grads = np.require(grads, table.matrix.dtype, "W")
    g_rows = np.empty(grads.shape, dtype=g_matrix.dtype)
    bad = {}  # block start -> ids of the block's non-finite gradient rows
    diverged = []  # starts of the blocks whose update is not finite

    def update(part):
        g = grads[part]
        # found before the block writes anything over its gradient rows
        if not np.isfinite(g).all():
            bad[part.start] = ids[part][~np.isfinite(g).all(axis=1)]
            return
        g_new = g_rows[part]
        g_new[...] = g_matrix[ids[part]]
        g_new += g * g
        # w - lr * g / (sqrt(G) + eps), with the steps of the same expression
        g *= lr
        g /= np.sqrt(g_new) + eps
        np.subtract(table.matrix[ids[part]], g, out=g)
        if not (np.isfinite(g_new).all() and np.isfinite(g).all()):
            diverged.append(part.start)

    with np.errstate(over="ignore", invalid="ignore"):  # divergence raises below
        run_blocks(update, cell_blocks(*grads.shape))
    # the messages are those of one whole-array check
    if bad:
        rows = np.concatenate([bad[start] for start in sorted(bad)])
        raise TrainingError(
            f"non-finite gradient for {table.language_tag!r} rows {rows[:8].tolist()}"
        )
    if diverged:
        raise TrainingError(
            f"non-finite weights or accumulators after update in {table.language_tag!r}"
        )
    return g_rows, grads


def _commit(ids: np.ndarray, g_matrix: np.ndarray, g_rows: np.ndarray,
            matrix: np.ndarray, w_rows: np.ndarray) -> None:
    """``g_matrix[ids] = g_rows`` and ``matrix[ids] = w_rows``, in one pass
    of row blocks on the block pool."""

    def block(part):
        g_matrix[ids[part]] = g_rows[part]
        matrix[ids[part]] = w_rows[part]

    run_blocks(block, cell_blocks(*w_rows.shape))


# ---------------------------------------------------------------------------
# batches


@dataclass
class Batch:
    pairs: object = None  # PairBatch | None
    mono_l1: object = None  # TripleBatch | None
    mono_l2: object = None


@dataclass
class TrainingData:
    """Preprocessed corpora plus their vocabularies."""

    vocab_l1: Vocabulary
    vocab_l2: Vocabulary
    parallel: ParallelCorpus
    mono_l1: EncodedCorpus | None = None
    mono_l2: EncodedCorpus | None = None

    @property
    def tags(self) -> tuple[str, str]:
        return (self.vocab_l1.language_tag, self.vocab_l2.language_tag)

    def sizes(self) -> tuple[int, int, int]:
        return (
            len(self.parallel),
            len(self.mono_l1) if self.mono_l1 is not None else 0,
            len(self.mono_l2) if self.mono_l2 is not None else 0,
        )

    def has_mono(self) -> bool:
        return self.mono_l1 is not None or self.mono_l2 is not None


def _check_batch_fits(data: TrainingData, config: TrainConfig, mix) -> None:
    """Refuse a batch whose int64 span ids alone, bounded below, exceed physical memory."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # not reported on this platform
        return
    n_bi, n_m1, n_m2 = (round(config.batch_size * fraction) for fraction in mix)
    pair_words = (data.parallel.l1.n_tokens + data.parallel.l2.n_tokens) / max(len(data.parallel), 1)
    words = n_bi * pair_words + (n_m1 + n_m2) * 3 * MIN_SPAN_LEN
    if 8 * words > memory:
        raise ConfigError(f"batch_size {config.batch_size} needs {8 * words / 2**30:.3g} GiB of span "
                          f"ids per batch, more than the {memory / 2**30:.3g} GiB of physical memory")


def make_batch(data: TrainingData, config: TrainConfig, mix, rng) -> Batch:
    """Draw round(batch_size * fraction) samples from each configured source."""
    n_bi, n_m1, n_m2 = (round(config.batch_size * fraction) for fraction in mix)
    batch = Batch()
    if n_bi:
        batch.pairs = sample_bilingual_pairs(data.parallel, rng, n_bi)
    if n_m1:
        batch.mono_l1 = sample_phrase_triples(data.mono_l1, rng, n_m1)
    if n_m2:
        batch.mono_l2 = sample_phrase_triples(data.mono_l2, rng, n_m2)
    return batch


def train_step(batch: Batch, tables: TablePair, state: AdaGradState, config: TrainConfig) -> LossBreakdown:
    """One optimization step: batch gradient, then AdaGrad on exactly the
    touched rows."""
    with np.errstate(over="ignore", invalid="ignore"):  # divergence raises in the update
        breakdown, grads_by_tag = batch_loss_and_grad(
            batch.pairs, batch.mono_l1, batch.mono_l2, tables,
            config.composition, config.resolved_margin(), config.lam,
        )
    # both tables are computed and checked before either is written
    staged = []
    for tag, (ids, grads) in grads_by_tag.items():
        table, g_matrix = tables.by_tag(tag), state.g_by_tag[tag]
        g_rows, w_rows = apply_sparse_update(
            table, g_matrix, ids, grads, config.learning_rate, config.adagrad_epsilon,
        )
        staged.append((ids, g_matrix, g_rows, table.matrix, w_rows))
    for args in staged:
        _commit(*args)
    return breakdown


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, tables: TablePair, state: AdaGradState, config: TrainConfig,
                    epoch: int, rng: np.random.Generator) -> None:
    """Single-file binary archive with a versioned header; written via a
    temp file so aborted saves never leave a partial checkpoint behind."""
    tag1, tag2 = tables.tags
    with atomic_write(path, "wb") as f:
        np.savez(
            f,
            magic=np.array(CHECKPOINT_MAGIC),
            version=np.array(CHECKPOINT_VERSION),
            tags=np.array([tag1, tag2]),
            table_l1=tables.l1.matrix,
            table_l2=tables.l2.matrix,
            g_l1=state.g_by_tag[tag1],
            g_l2=state.g_by_tag[tag2],
            config=np.array(json.dumps(asdict(config))),
            epoch=np.array(epoch),
            rng_state=np.array(json.dumps(rng.bit_generator.state)),
        )


def _read_archive(path) -> dict[str, np.ndarray]:
    """Every array of the .npz archive at ``path``; an empty, cut or
    corrupt file, or one that is no .npz archive, is a DataError."""
    try:
        # opened here, since np.load leaves its own file open when the
        # archive fails to open
        with open(path, "rb") as f:
            z = np.load(f, allow_pickle=False)
            if not isinstance(z, np.lib.npyio.NpzFile):
                raise DataError(f"{path} holds a single numpy array, not a checkpoint")
            with z:
                return {name: z[name] for name in z.files}
    except (ValueError, EOFError, zipfile.BadZipFile):
        # np.load reads a file without a numpy or zip header as a pickle,
        # which allow_pickle=False refuses with a ValueError
        raise DataError(f"{path} is not a readable checkpoint archive")


def _config_fields(array) -> dict | None:
    raw = json.loads(str(array))
    if not isinstance(raw, dict):
        return None
    if raw.get("mix") is not None:
        raw["mix"] = tuple(raw["mix"])
    return raw


def _rng_of(array) -> np.random.Generator:
    rng = np.random.default_rng()
    rng.bit_generator.state = json.loads(str(array))
    return rng


def load_checkpoint(path):
    """Returns (tables, state, config, epoch, rng) restored bit-exactly. A
    member that is missing, has the wrong shape or does not parse is a
    DataError naming the path and the member."""
    z = _read_archive(path)
    if "magic" not in z or str(z["magic"]) != CHECKPOINT_MAGIC:
        raise DataError(f"{path} is not a checkpoint file")
    missing = [name for name in CHECKPOINT_MEMBERS if name not in z]
    if missing:
        raise DataError(f"{path}: checkpoint lacks {', '.join(missing)}")

    def member(name, expected, read):
        """``read(z[name])``; a failure or a None result is a DataError."""
        try:
            value = read(z[name])
        except (ValueError, TypeError, KeyError):  # bad JSON, int() or RNG state
            value = None
        if value is None:
            raise DataError(f"{path}: checkpoint member {name!r} is not {expected}")
        return value

    def integer(a):
        return int(a) if a.ndim == 0 and a.dtype.kind in "iu" else None

    def floats(name, expected, shape_ok):
        return member(name, expected, lambda a: a if shape_ok(a) and a.dtype.kind == "f" else None)

    version = member("version", "an integer", integer)
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    def tag_pair(a):
        tags = [str(t) for t in a] if a.shape == (2,) else []
        return tags if tags and all(map(is_file_name, tags)) else None

    tag1, tag2 = member("tags", "two language tags, each one plain file name", tag_pair)
    t1, t2 = (floats(name, "a 2-D float table", lambda a: a.ndim == 2)
              for name in ("table_l1", "table_l2"))
    g1, g2 = (
        floats(name, f"an accumulator of its table's shape {t.shape}", lambda a: a.shape == t.shape)
        for name, t in (("g_l1", t1), ("g_l2", t2))
    )
    for name, array in zip(("table_l1", "table_l2", "g_l1", "g_l2"), (t1, t2, g1, g2)):
        if not np.isfinite(array).all():
            raise DataError(f"{path}: checkpoint member {name!r} holds non-finite values")
    tables = TablePair(EmbeddingTable(t1, tag1), EmbeddingTable(t2, tag2))
    state = AdaGradState({tag1: g1, tag2: g2})
    raw = member("config", "a JSON object of settings", _config_fields)
    unknown = sorted(set(raw) - {f.name for f in fields(TrainConfig)})
    if unknown:
        raise DataError(f"{path}: checkpoint config has unknown keys {unknown}")
    config = TrainConfig(**raw)
    try:
        config.validate()
    except ConfigError as exc:
        raise DataError(f"{path}: checkpoint member 'config' is not valid: {exc}")
    epoch = member("epoch", "an integer", integer)
    rng = member("rng_state", "a JSON PCG64 generator state", _rng_of)
    return tables, state, config, epoch, rng


# ---------------------------------------------------------------------------
# the loop


@dataclass
class TrainResult:
    tables: TablePair
    state: AdaGradState
    config: TrainConfig
    history: list = field(default_factory=list)  # (epoch, step, LossBreakdown)


def log_line(epoch: int, step: int, b: LossBreakdown) -> str:
    return (
        f"{epoch} {step} {b.bilingual:.10g} {b.mono_l1:.10g} "
        f"{b.mono_l2:.10g} {b.regularizer:.10g} {b.total:.10g}"
    )


def train(
    data: TrainingData,
    config: TrainConfig,
    log_fn=None,
    checkpoint_path=None,
    checkpoint_every: int = 0,
    resume_from=None,
) -> TrainResult:
    """Run the full optimization.

    An epoch presents as many samples as the largest configured corpus,
    rounded to whole batches (at least one). Sampling is with replacement;
    the epoch is a counting unit, not a permutation of the corpus.

    The directory of ``checkpoint_path`` is made only once every check has
    passed, ``resume_from``'s checkpoint included: a refused run leaves
    nothing on disk.
    """
    config.validate()
    if checkpoint_every < 0:
        raise ConfigError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
    tag1, tag2 = data.tags
    sizes = data.sizes()
    mix = config.mix if config.mix is not None else proportional_mix(*sizes)
    for frac, size, name in zip(mix, sizes, ("bilingual", "mono_l1", "mono_l2")):
        if frac > 0 and size == 0:
            raise ConfigError(f"mix places weight on absent corpus {name}")
    _check_batch_fits(data, config, mix)

    if resume_from is not None:
        tables, state, saved_config, start_epoch, rng = load_checkpoint(resume_from)
        # the epoch target may change on resume (finish or extend a run);
        # any other difference silently breaks replay, so reject it
        saved, given = asdict(saved_config), asdict(config)
        differing = [f"{name} {saved[name]!r} there, {given[name]!r} here"
                     for name in saved if name != "epochs" and saved[name] != given[name]]
        if differing:
            raise ConfigError(f"{resume_from}: checkpoint was written with a different configuration: "
                              + "; ".join(differing))
        if set(tables.tags) != {tag1, tag2}:
            raise DataError(f"{resume_from}: checkpoint language tags do not match the corpora: "
                            f"{tables.tags} there, {(tag1, tag2)} here")
        for tag, vocab in ((tag1, data.vocab_l1), (tag2, data.vocab_l2)):
            if len(vocab) != len(tables.by_tag(tag)):
                raise DataError(f"{resume_from}: vocabulary size {len(vocab)} does not match "
                                f"table rows {len(tables.by_tag(tag))} for {tag!r}")
    else:
        try:
            tables = TablePair(
                init_table(len(data.vocab_l1), config.dim, config.init_sigma, (config.seed, 0), tag1),
                init_table(len(data.vocab_l2), config.dim, config.init_sigma, (config.seed, 1), tag2),
            )
        except MemoryError:
            raise ConfigError(
                f"dim {config.dim} gives tables of {len(data.vocab_l1)} and {len(data.vocab_l2)} "
                "rows too large to allocate"
            )
        state = None
        start_epoch = 0
        rng = np.random.default_rng((config.seed, 2))

    # the one place that fixes the layout: column-major float64, so a step's
    # column blocks read contiguous memory and no step copies a table
    for table in (tables.l1, tables.l2):
        table.matrix = np.asfortranarray(table.matrix, dtype=np.float64)
    if state is None:  # zeros_like keeps the tables' layout
        state = AdaGradState.zeros(tables)
    state.g_by_tag = {tag: np.asfortranarray(g, dtype=np.float64) for tag, g in state.g_by_tag.items()}

    epochs = config.epochs
    if epochs is None:
        epochs = EPOCHS_WITH_MONO if data.has_mono() else EPOCHS_BI_ONLY
    if start_epoch > epochs:
        raise ConfigError(f"checkpoint epoch {start_epoch} is past the target of {epochs} epochs")
    steps_per_epoch = max(1, round(max(sizes) / config.batch_size))
    if checkpoint_path:
        os.makedirs(os.path.dirname(checkpoint_path) or os.curdir, exist_ok=True)

    # the checkpoint only ever holds an epoch boundary, under its true epoch:
    # a failure or interrupt saves nothing, and saves are atomic
    result = TrainResult(tables, state, config)
    for epoch in range(start_epoch + 1, epochs + 1):
        for step in range(1, steps_per_epoch + 1):
            batch = make_batch(data, config, mix, rng)
            breakdown = train_step(batch, tables, state, config)
            result.history.append((epoch, step, breakdown))
            if log_fn is not None:
                log_fn(log_line(epoch, step, breakdown))
        if checkpoint_path and checkpoint_every and epoch % checkpoint_every == 0 and epoch < epochs:
            save_checkpoint(checkpoint_path, tables, state, config, epoch, rng)
    if checkpoint_path:
        save_checkpoint(checkpoint_path, tables, state, config, epochs, rng)
    return result
