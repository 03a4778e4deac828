"""Stochastic mini-batch AdaGrad training over mixed bilingual and
monolingual sample streams, with checkpointing and deterministic replay.

Each step computes the batch loss and its coalesced sparse gradient with
:func:`xlembed.objective.batch_loss_and_grad`, then applies AdaGrad to
exactly the touched rows. Training is bit-deterministic for a fixed seed,
including across a checkpoint/resume boundary.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .corpus import (
    EncodedCorpus,
    ParallelCorpus,
    Vocabulary,
    sample_bilingual_pairs,
    sample_phrase_triples,
)
from .embeddings import CompositionKind, EmbeddingTable, TablePair, init_table
from .errors import ConfigError, DataError, TrainingError
from .objective import LossBreakdown, batch_loss_and_grad

# used whenever no --seed is given, so unseeded runs are still reproducible
DEFAULT_SEED = 42

CHECKPOINT_MAGIC = "xlembed-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    """Hyperparameters; defaults follow the reference setup (40-dim vectors,
    learning rate 0.2, mini-batches of 40,000 samples, margin = dim,
    lambda 1.0, 100 bilingual-only or 25 mixed epochs)."""

    dim: int = 40
    learning_rate: float = 0.2
    batch_size: int = 40000
    margin: float | None = None  # None resolves to dim
    lam: float = 1.0
    epochs_bi_only: int = 100
    epochs_with_mono: int = 25
    epochs: int | None = None  # explicit override of the two counts above
    mix: tuple[float, float, float] | None = None  # None: proportional to corpus sizes
    seed: int = DEFAULT_SEED
    adagrad_epsilon: float = 1e-8
    composition: str = "add"
    init_sigma: float = 0.1

    def resolved_margin(self) -> float:
        return float(self.dim if self.margin is None else self.margin)

    def validate(self) -> None:
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.resolved_margin() < 0:
            raise ConfigError(f"margin must be >= 0, got {self.margin}")
        if self.lam < 0:
            raise ConfigError(f"lambda must be >= 0, got {self.lam}")
        if self.adagrad_epsilon <= 0:
            raise ConfigError(f"adagrad_epsilon must be positive, got {self.adagrad_epsilon}")
        if self.init_sigma <= 0:
            raise ConfigError(f"init_sigma must be positive, got {self.init_sigma}")
        for name in ("epochs_bi_only", "epochs_with_mono"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.mix is not None:
            if len(self.mix) != 3 or any(f < 0 for f in self.mix):
                raise ConfigError(f"mix must be three fractions >= 0, got {self.mix}")
            if abs(sum(self.mix) - 1.0) > 1e-9:
                raise ConfigError(f"mix fractions must sum to 1, got {self.mix}")
        try:
            CompositionKind.coerce(self.composition)
        except DataError as exc:
            raise ConfigError(str(exc))


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
        return cls(
            {
                t.language_tag: np.zeros_like(t.matrix)
                for t in (tables.l1, tables.l2)
            }
        )


def adagrad_update(row, grad_row, g_row, lr: float, eps: float):
    """One AdaGrad step on a single row, in place:
    G += g^2 then w -= lr * g / (sqrt(G) + eps)."""
    grad_row = np.asarray(grad_row)
    if not np.isfinite(grad_row).all():
        raise TrainingError(f"non-finite gradient in update: {grad_row}")
    g_row += grad_row * grad_row
    row -= lr * grad_row / (np.sqrt(g_row) + eps)
    return row


def apply_sparse_update(
    table: EmbeddingTable, g_matrix: np.ndarray, ids: np.ndarray, grads: np.ndarray,
    lr: float, eps: float,
) -> None:
    """Vectorized AdaGrad over the unique touched rows of one table."""
    if not np.isfinite(grads).all():
        bad = ids[~np.isfinite(grads).all(axis=1)]
        raise TrainingError(
            f"non-finite gradient for {table.language_tag!r} rows {bad[:8].tolist()}"
        )
    grads = grads.astype(table.matrix.dtype, copy=False)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence raises below
        g_rows = g_matrix[ids]
        g_rows += grads * grads
        g_matrix[ids] = g_rows
        table.matrix[ids] -= lr * grads / (np.sqrt(g_rows) + eps)
    if not np.isfinite(table.matrix[ids]).all():
        raise TrainingError(f"non-finite weights after update in {table.language_tag!r}")


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


def make_batch(data: TrainingData, config: TrainConfig, mix, rng) -> Batch:
    """Draw round(batch_size * fraction) samples from each configured source."""
    n_bi = round(config.batch_size * mix[0])
    n_m1 = round(config.batch_size * mix[1])
    n_m2 = round(config.batch_size * mix[2])
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
        breakdown, acc = batch_loss_and_grad(
            batch.pairs, batch.mono_l1, batch.mono_l2, tables,
            config.composition, config.resolved_margin(), config.lam,
        )
    for tag, (ids, grads) in acc.coalesced.items():
        apply_sparse_update(
            tables.by_tag(tag), state.g_by_tag[tag], ids, grads,
            config.learning_rate, config.adagrad_epsilon,
        )
    return breakdown


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, tables: TablePair, state: AdaGradState, config: TrainConfig,
                    epoch: int, rng: np.random.Generator) -> None:
    """Single-file binary archive with a versioned header; written via a
    temp file so aborted saves never leave a partial checkpoint behind."""
    tag1, tag2 = tables.tags
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
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
    os.replace(tmp, path)


def load_checkpoint(path):
    """Returns (tables, state, config, epoch, rng) restored bit-exactly."""
    with np.load(path, allow_pickle=False) as z:
        if "magic" not in z or str(z["magic"]) != CHECKPOINT_MAGIC:
            raise DataError(f"{path} is not a checkpoint file")
        version = int(z["version"])
        if version != CHECKPOINT_VERSION:
            raise DataError(f"unsupported checkpoint version {version}")
        tag1, tag2 = (str(t) for t in z["tags"])
        tables = TablePair(
            EmbeddingTable(z["table_l1"], tag1), EmbeddingTable(z["table_l2"], tag2)
        )
        state = AdaGradState({tag1: z["g_l1"].copy(), tag2: z["g_l2"].copy()})
        raw = json.loads(str(z["config"]))
        unknown = sorted(set(raw) - {f.name for f in fields(TrainConfig)})
        if unknown:
            raise DataError(f"{path}: checkpoint config has unknown keys {unknown}")
        if raw.get("mix") is not None:
            raw["mix"] = tuple(raw["mix"])
        config = TrainConfig(**raw)
        epoch = int(z["epoch"])
        rng = np.random.default_rng()
        rng.bit_generator.state = json.loads(str(z["rng_state"]))
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
    """
    config.validate()
    tag1, tag2 = data.tags
    sizes = data.sizes()
    mix = config.mix if config.mix is not None else proportional_mix(*sizes)
    for frac, size, name in zip(mix, sizes, ("bilingual", "mono_l1", "mono_l2")):
        if frac > 0 and size == 0:
            raise ConfigError(f"mix places weight on absent corpus {name}")
    if sum(mix) == 0:
        raise ConfigError("mix fractions are all zero")

    if resume_from is not None:
        tables, state, saved_config, start_epoch, rng = load_checkpoint(resume_from)
        # the epoch target may change on resume (finish or extend a run);
        # any other difference silently breaks replay, so reject it
        if replace(saved_config, epochs=None) != replace(config, epochs=None):
            raise ConfigError("checkpoint was written with a different configuration")
        if set(tables.tags) != {tag1, tag2}:
            raise DataError("checkpoint language tags do not match the corpora")
    else:
        tables = TablePair(
            init_table(len(data.vocab_l1), config.dim, config.init_sigma, (config.seed, 0), tag1),
            init_table(len(data.vocab_l2), config.dim, config.init_sigma, (config.seed, 1), tag2),
        )
        state = AdaGradState.zeros(tables)
        start_epoch = 0
        rng = np.random.default_rng((config.seed, 2))

    if config.epochs is not None:
        epochs = config.epochs
    else:
        epochs = config.epochs_with_mono if data.has_mono() else config.epochs_bi_only
    largest = max(sizes)
    steps_per_epoch = max(1, round(largest / config.batch_size))

    result = TrainResult(tables, state, config)
    try:
        for epoch in range(start_epoch + 1, epochs + 1):
            for step in range(1, steps_per_epoch + 1):
                batch = make_batch(data, config, mix, rng)
                breakdown = train_step(batch, tables, state, config)
                result.history.append((epoch, step, breakdown))
                if log_fn is not None:
                    log_fn(log_line(epoch, step, breakdown))
            if checkpoint_path and checkpoint_every and epoch % checkpoint_every == 0:
                save_checkpoint(checkpoint_path, tables, state, config, epoch, rng)
    except (TrainingError, OSError):
        if checkpoint_path:
            try:
                save_checkpoint(checkpoint_path, tables, state, config, epoch - 1, rng)
            except OSError:
                pass  # the original failure is the one worth reporting
        raise
    if checkpoint_path:
        save_checkpoint(checkpoint_path, tables, state, config, epochs, rng)
    return result


# ---------------------------------------------------------------------------
# config files: `key = value` lines, # comments, unknown keys are errors


def parse_config_file(path, known_keys) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key not in known_keys:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = value
    return values
