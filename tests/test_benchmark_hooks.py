"""The benchmark still runs against the library.

``perfbench/spans.py`` wraps library entry points by name and reads some
of their arguments by position; a renamed or reordered hooked signature
makes it report the hook or its count as absent. The first test installs
the tracer, runs one tiny Add epoch with monolingual data, one tiny Bi
epoch and one ``.vec`` export, and expects nothing absent and every
counted hook to have counted. The second traces a Bi epoch of pairs alone
on its own: its one-pass backward must still run through the hooked
calls. The third runs ``perfbench/smoke.py``, which catches a library
function that the benchmark calls directly and that no longer fits it,
and a benchmark step loop that no longer matches ``trainer.train``.
"""

import importlib.util
import subprocess
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


def test_bi_pairs_only_epoch_runs_through_the_hooks(synth_world, monkeypatch):
    # a Bi batch of pairs alone is composed and differentiated in one pass
    # over the columns; that pass must still go through the hooked calls,
    # which the benchmark's Bi layer metrics read
    spans = load_spans(monkeypatch)
    data = replace(build_training_data(synth_world), mono_l1=None, mono_l2=None)
    tracer = spans.Tracer()
    tracer.install()
    try:
        train(data, TrainConfig(dim=4, epochs=1, batch_size=64, composition="bi"))
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert {s.name for s in tracer.spans} >= {
        "embeddings.compose_fwd", "embeddings.compose_bwd", "objective.scatter",
        "objective.coalesce",
    }
    for name in ("embeddings.positions", "objective.scatter_rows", "objective.touched_rows"):
        assert tracer.counts[name] > 0, name


def test_benchmark_smoke_check_passes():
    # the benchmark calls library functions directly and runs its own copy
    # of the step loop; its smoke check runs every workload at a tiny size
    smoke = SPANS.parent / "smoke.py"
    done = subprocess.run([sys.executable, str(smoke)], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    assert "smoke: ok" in done.stdout.splitlines()
