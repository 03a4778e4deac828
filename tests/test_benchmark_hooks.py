"""The benchmark's tracer finds every library function it hooks.

``perfbench/spans.py`` wraps library entry points by name and reads some
of their arguments by position; a renamed or reordered hooked signature
makes it report the hook or its count as absent. This test installs the
tracer, runs one tiny Add epoch with monolingual data, one tiny Bi epoch
and one ``.vec`` export, and expects nothing absent and every counted
hook to have counted.
"""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

from conftest import build_training_data
from xlembed import embeddings
from xlembed.trainer import TrainConfig, train

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def test_every_hook_is_present_and_counts(synth_world, tmp_path, monkeypatch):
    spans = load_spans(monkeypatch)
    data = build_training_data(synth_world)
    config = TrainConfig(dim=4, epochs=1, batch_size=64)
    tracer = spans.Tracer()
    tracer.install()
    try:
        add = train(data, config)
        train(replace(data, mono_l1=None, mono_l2=None), replace(config, composition="bi"))
        # through the module, whose attribute the tracer replaces
        embeddings.save_embeddings_text(
            tmp_path / "l1.vec", data.vocab_l1.id_to_token, add.tables.l1.matrix
        )
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    counted = {
        "corpus.sampled_positions", "embeddings.positions", "objective.scatter_rows",
        "objective.touched_rows", "trainer.rows_updated", "embeddings.vec_bytes",
    }
    assert {name for name, value in tracer.counts.items() if value > 0} == counted
    assert {s.name for s in tracer.spans} >= {
        "corpus.sample", "trainer.step", "embeddings.compose_fwd", "embeddings.compose_bwd",
        "objective.scatter", "objective.coalesce", "trainer.update", "embeddings.vec_write",
    }
