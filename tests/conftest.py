import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from synthdata import SynthWorld, make_world  # noqa: E402

from xlembed import embeddings  # noqa: E402
from xlembed.corpus import (  # noqa: E402
    EncodedCorpus,
    ParallelCorpus,
    SpanSet,
    build_vocabulary,
    iter_tokens,
)
from xlembed.trainer import TrainConfig, TrainingData, TrainResult, train  # noqa: E402


ACCEPTANCE_VERDICTS: list[str] = []


def record_verdict(name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    ACCEPTANCE_VERDICTS.append(f"acceptance [{name}]: {verdict} {detail}".rstrip())


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def spans(*id_lists) -> SpanSet:
    """A SpanSet of hand-written spans, one id list each."""
    return SpanSet(
        np.concatenate([np.asarray(ids, dtype=np.int64) for ids in id_lists]),
        np.array([len(ids) for ids in id_lists], dtype=np.int64),
    )


@pytest.fixture
def one_column_blocks(monkeypatch):
    """``use(workers)``: later batch calls split into one-column blocks that
    run on a pool of ``workers`` threads (1: inline, as on a single core)."""
    monkeypatch.setattr(embeddings, "BLOCK_CELLS", 1)
    pools = []

    def use(workers: int) -> None:
        pool = ThreadPoolExecutor(workers) if workers > 1 else None
        if pool is not None:
            pools.append(pool)
        monkeypatch.setattr(embeddings, "BLOCK_POOL", pool)

    yield use
    for pool in pools:
        pool.shutdown()


@dataclass
class SynthRun:
    world: SynthWorld
    data: TrainingData
    config: TrainConfig
    result: TrainResult
    train_seconds: float


def build_training_data(world: SynthWorld) -> TrainingData:
    """The preprocessing pipeline for the synthetic corpus: per-language
    vocabularies over all corpora (threshold 1 keeps the full vocabulary),
    then encoding."""
    vocab_l1 = build_vocabulary(
        iter_tokens([p[0] for p in world.pairs] + world.mono_l1), 1, "l1"
    )
    vocab_l2 = build_vocabulary(
        iter_tokens([p[1] for p in world.pairs] + world.mono_l2), 1, "l2"
    )
    parallel = ParallelCorpus(
        EncodedCorpus.from_raw((p[0] for p in world.pairs), vocab_l1),
        EncodedCorpus.from_raw((p[1] for p in world.pairs), vocab_l2),
    )
    return TrainingData(
        vocab_l1,
        vocab_l2,
        parallel,
        EncodedCorpus.from_raw(world.mono_l1, vocab_l1),
        EncodedCorpus.from_raw(world.mono_l2, vocab_l2),
    )


@pytest.fixture(scope="session")
def synth_world() -> SynthWorld:
    return make_world()


@pytest.fixture(scope="session")
def synth_run(synth_world) -> SynthRun:
    """The reference training run shared by several acceptance criteria:
    dim 16, 50 epochs, every other hyperparameter at its default."""
    data = build_training_data(synth_world)
    config = TrainConfig(dim=16, epochs=50)
    start = time.monotonic()
    result = train(data, config)
    elapsed = time.monotonic() - start
    return SynthRun(synth_world, data, config, result, elapsed)
