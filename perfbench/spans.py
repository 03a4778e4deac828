"""In-memory span tracing around the library's public entry points.

Spans are recorded by wrapping module functions and class methods of the
``xlembed`` package from outside, so the program itself is unchanged. A
function imported by name into several modules is replaced in every module
that holds it, because callers look names up in their own module. Each span
keeps (name, start, end, parent); counts are recorded at the same
boundaries. A hook whose target no longer exists is reported as absent
instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


def _positions(*spansets):
    return sum(int(s.ids.size) for s in spansets)


def _sampled(args, kwargs, result):
    if hasattr(result, "side_l1"):
        return {"corpus.sampled_positions": _positions(result.side_l1, result.side_l2)}
    return {"corpus.sampled_positions": _positions(result.outer, result.inner, result.noise)}


def _composed(args, kwargs, result):
    span = kwargs["span"] if "span" in kwargs else args[3]
    return {"embeddings.positions": int(span.ids.size)}


def _scattered(args, kwargs, result):
    ids = kwargs["ids"] if "ids" in kwargs else args[2]
    return {"objective.scatter_rows": int(getattr(ids, "size", len(ids)))}


def _coalesced(args, kwargs, result):
    return {"objective.touched_rows": sum(int(ids.size) for ids, _ in result.values())}


def _updated(args, kwargs, result):
    ids = kwargs["ids"] if "ids" in kwargs else args[2]
    return {"trainer.rows_updated": int(ids.size)}


def _vec_written(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[0]
    return {"embeddings.vec_bytes": os.path.getsize(path)}


# (span name, "module:attribute" or "module:Class.method", counter or None).
# Per-sample helpers (encode, passes_filter, ...) are deliberately not hooked:
# a span per sentence would cost more than the work it measures.
HOOKS = [
    ("corpus.sample", "xlembed.corpus:sample_bilingual_pairs", _sampled),
    ("corpus.sample", "xlembed.corpus:sample_phrase_triples", _sampled),
    ("trainer.step", "xlembed.trainer:train_step", None),
    ("embeddings.compose_fwd", "xlembed.embeddings:SpanComposition.__init__", _composed),
    ("embeddings.compose_bwd", "xlembed.embeddings:SpanComposition.position_grads", None),
    ("objective.scatter", "xlembed.objective:GradientAccumulator.add", _scattered),
    ("objective.coalesce", "xlembed.objective:GradientAccumulator.coalesce", _coalesced),
    ("trainer.update", "xlembed.trainer:apply_sparse_update", _updated),
    ("corpus.filter", "xlembed.corpus:filter_parallel", None),
    ("corpus.filter", "xlembed.corpus:filter_mono", None),
    ("corpus.vocab", "xlembed.corpus:build_vocabulary", None),
    ("corpus.vocab", "xlembed.corpus:merge_vocabularies", None),
    ("corpus.encode", "xlembed.corpus:EncodedCorpus.from_raw", None),
    ("corpus.ids_write", "xlembed.corpus:EncodedCorpus.save_ids", None),
    ("corpus.ids_read", "xlembed.corpus:EncodedCorpus.load_ids", None),
    ("trainer.checkpoint_write", "xlembed.trainer:save_checkpoint", None),
    ("trainer.checkpoint_read", "xlembed.trainer:load_checkpoint", None),
    ("embeddings.vec_write", "xlembed.embeddings:save_embeddings_text", _vec_written),
    ("embeddings.vec_read", "xlembed.embeddings:load_embeddings_text", None),
    ("evaluate.nn", "xlembed.evaluate:nearest_neighbors", None),
    ("evaluate.represent", "xlembed.evaluate:represent_document", None),
    ("evaluate.perceptron", "xlembed.evaluate:perceptron_train", None),
]


class Tracer:
    """Collects spans and counts while installed; restores every patched
    attribute on ``uninstall``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []  # hook targets that no longer exist
        self.present: set[str] = set()  # span names with an installed hook
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1))
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index].end = time.perf_counter()
            if count is not None:
                try:
                    counted = count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    # the call's signature or result changed shape: drop the count
                    if f"count:{name}" not in self.absent:
                        self.absent.append(f"count:{name}")
                else:
                    for key, value in counted.items():
                        self.counts[key] += value
            return result

        return traced

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, hooks=HOOKS) -> None:
        for name, target, count in hooks:
            module_name, path = target.split(":")
            try:
                module = importlib.import_module(module_name)
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        self._patch(owner, attr, classmethod(self._wrap(name, raw.__func__, count)))
                    else:
                        self._patch(owner, attr, self._wrap(name, raw, count))
                else:
                    fn = module.__dict__[path]
                    new = self._wrap(name, fn, count)
                    for mod in list(sys.modules.values()):
                        if getattr(mod, "__name__", "").startswith("xlembed"):
                            for attr, value in list(vars(mod).items()):
                                if value is fn:
                                    self._patch(mod, attr, new)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(target)
            else:
                self.present.add(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def totals(self) -> dict[str, float]:
        """Busy seconds per span name."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.end - s.start
        return out

    def self_times(self) -> dict[str, float]:
        """Busy seconds per span name minus the time its direct children
        cover (spans of one thread nest, so children never overlap)."""
        out = self.totals()
        for s in self.spans:
            if s.parent >= 0:
                out[self.spans[s.parent].name] -= s.end - s.start
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}))
                f.write("\n")
