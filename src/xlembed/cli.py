"""Command line entry point wiring the full pipeline:
preprocess -> train -> export -> nn / classify-eval / compose.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numeric training failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import corpus as corp
from . import evaluate as ev
from .embeddings import (
    EmbeddingTable,
    TablePair,
    load_embeddings_text,
    save_embeddings_text,
)
from .errors import ConfigError, DataError, OovError, TrainingError, XlembedError
from .trainer import (
    DEFAULT_SEED,
    TrainConfig,
    TrainingData,
    load_checkpoint,
    parse_config_file,
    train,
)

# every key a pipeline config file may carry; unknown keys are rejected
CONFIG_KEYS = frozenset(
    {
        "l1_tag",
        "l2_tag",
        "unk_threshold_bi_l1",
        "unk_threshold_bi_l2",
        "unk_threshold_mono_l1",
        "unk_threshold_mono_l2",
        "lowercase_cutoff_l1",
        "lowercase_cutoff_l2",
        "min_sentence_len",
        "lowercase",
        "use_mono",
        "mono_use_parallel",
        "bilingual_limit",
        "dim",
        "learning_rate",
        "batch_size",
        "margin",
        "lambda",
        "epochs_bi_only",
        "epochs_with_mono",
        "epochs",
        "mix",
        "seed",
        "adagrad_epsilon",
        "composition",
        "init_sigma",
        "checkpoint_every",
    }
)

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in _TRUE:
        return True
    if v in _FALSE:
        return False
    raise ConfigError(f"expected a boolean, got {value!r}")


def _parse_mix(value):
    v = value.strip().lower()
    if v in ("", "proportional", "none"):
        return None
    parts = [float(x) for x in v.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"mix needs three comma-separated fractions, got {value!r}")
    return tuple(parts)


def _parse_margin(value):
    v = value.strip().lower()
    if v in ("", "dim", "none"):
        return None
    return float(v)


def _parse_opt_int(value):
    v = value.strip().lower()
    if v in ("", "none"):
        return None
    return int(v)


# key -> (parser, destination attribute); config file values feed both the
# TrainConfig and the data-selection settings of the train command
_CONFIG_PARSERS = {
    "l1_tag": (str, "l1_tag"),
    "l2_tag": (str, "l2_tag"),
    "unk_threshold_bi_l1": (int, "unk_threshold_bi_l1"),
    "unk_threshold_bi_l2": (int, "unk_threshold_bi_l2"),
    "unk_threshold_mono_l1": (int, "unk_threshold_mono_l1"),
    "unk_threshold_mono_l2": (int, "unk_threshold_mono_l2"),
    "lowercase_cutoff_l1": (float, "lowercase_cutoff_l1"),
    "lowercase_cutoff_l2": (float, "lowercase_cutoff_l2"),
    "min_sentence_len": (int, "min_sentence_len"),
    "lowercase": (_parse_bool, "lowercase"),
    "use_mono": (_parse_bool, "use_mono"),
    "mono_use_parallel": (_parse_bool, "mono_use_parallel"),
    "bilingual_limit": (_parse_opt_int, "bilingual_limit"),
    "dim": (int, "dim"),
    "learning_rate": (float, "learning_rate"),
    "batch_size": (int, "batch_size"),
    "margin": (_parse_margin, "margin"),
    "lambda": (float, "lam"),
    "epochs_bi_only": (int, "epochs_bi_only"),
    "epochs_with_mono": (int, "epochs_with_mono"),
    "epochs": (_parse_opt_int, "epochs"),
    "mix": (_parse_mix, "mix"),
    "seed": (int, "seed"),
    "adagrad_epsilon": (float, "adagrad_epsilon"),
    "composition": (str, "composition"),
    "init_sigma": (float, "init_sigma"),
    "checkpoint_every": (int, "checkpoint_every"),
}

# pipeline settings that are not TrainConfig fields
_PIPELINE_DEFAULTS = {
    "l1_tag": "en",
    "l2_tag": "de",
    "unk_threshold_bi_l1": 2,
    "unk_threshold_bi_l2": 2,
    "unk_threshold_mono_l1": 5,
    "unk_threshold_mono_l2": 3,
    "lowercase_cutoff_l1": 0.9,
    "lowercase_cutoff_l2": 0.7,
    "min_sentence_len": 3,
    "lowercase": True,
    "use_mono": True,
    "mono_use_parallel": False,
    "bilingual_limit": None,
    "checkpoint_every": 0,
}


def load_pipeline_config(path) -> dict:
    """Parse a `key = value` config file into typed settings."""
    raw = parse_config_file(path, CONFIG_KEYS)
    settings = {}
    for key, value in raw.items():
        parse, dest = _CONFIG_PARSERS[key]
        try:
            settings[dest] = parse(value)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}: bad value for {key!r}: {exc}")
    return settings


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add(parser, flag, default=None, required=False, **kwargs):
    """add_argument with the default echoed in the help text."""
    help_text = kwargs.pop("help", "")
    if not required and "action" not in kwargs:
        help_text = f"{help_text} (default: {default})"
    parser.add_argument(flag, default=default, required=required, help=help_text, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="xlembed", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command", parser_class=_Parser)

    p = sub.add_parser("preprocess", help="filter corpora, build vocabularies, encode")
    _add(p, "--parallel-l1", required=True, help="language-1 side of the aligned corpus")
    _add(p, "--parallel-l2", required=True, help="language-2 side of the aligned corpus")
    _add(p, "--mono-l1", help="monolingual corpus for language 1")
    _add(p, "--mono-l2", help="monolingual corpus for language 2")
    _add(p, "--config", help="key = value config file; flags override it")
    _add(p, "--l1-tag", help="language-1 tag (default: en)")
    _add(p, "--l2-tag", help="language-2 tag (default: de)")
    _add(p, "--unk-threshold-bi-l1", type=int, help="UNK threshold, bilingual l1 side (default: 2)")
    _add(p, "--unk-threshold-bi-l2", type=int, help="UNK threshold, bilingual l2 side (default: 2)")
    _add(p, "--unk-threshold-mono-l1", type=int, help="UNK threshold, monolingual l1 (default: 5)")
    _add(p, "--unk-threshold-mono-l2", type=int, help="UNK threshold, monolingual l2 (default: 3)")
    _add(p, "--lowercase-cutoff-l1", type=float, help="lowercase-ratio cutoff, l1 (default: 0.9)")
    _add(p, "--lowercase-cutoff-l2", type=float, help="lowercase-ratio cutoff, l2 (default: 0.7)")
    _add(p, "--min-sentence-len", type=int, help="minimum tokens per kept sentence (default: 3)")
    p.add_argument("--no-lowercase", action="store_true",
                   help="keep original casing after filtering (default: lowercase)")
    _add(p, "--outdir", required=True, help="output directory for vocab and id files")

    p = sub.add_parser("train", help="run the optimizer and export embeddings")
    _add(p, "--data-dir", required=True, help="directory written by the preprocess command")
    _add(p, "--outdir", required=True, help="output directory for checkpoint and embeddings")
    _add(p, "--config", help="key = value config file; flags override it")
    _add(p, "--l1-tag", help="language-1 tag (default: en)")
    _add(p, "--l2-tag", help="language-2 tag (default: de)")
    _add(p, "--dim", type=int, help="embedding dimensionality (default: 40)")
    _add(p, "--learning-rate", type=float, help="AdaGrad learning rate (default: 0.2)")
    _add(p, "--batch-size", type=int, help="samples per mini-batch (default: 40000)")
    _add(p, "--margin", type=float, help="hinge margin (default: dim)")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="L2 regularization strength (default: 1.0)")
    _add(p, "--epochs", type=int, help="epoch count override (default: auto)")
    _add(p, "--epochs-bi-only", type=int, help="epochs without monolingual data (default: 100)")
    _add(p, "--epochs-with-mono", type=int, help="epochs with monolingual data (default: 25)")
    _add(p, "--mix", help="bi,mono_l1,mono_l2 batch fractions (default: proportional)")
    _add(p, "--seed", type=int, help=f"random seed (default: {DEFAULT_SEED})")
    _add(p, "--composition", choices=("add", "bi"), help="composition function (default: add)")
    _add(p, "--adagrad-epsilon", type=float, help="AdaGrad denominator epsilon (default: 1e-08)")
    _add(p, "--init-sigma", type=float, help="Gaussian init std (default: 0.1)")
    _add(p, "--bilingual-limit", type=int, help="use only the first N sentence pairs")
    p.add_argument("--no-mono", action="store_true", help="ignore monolingual corpora")
    p.add_argument("--mono-use-parallel", action="store_true",
                   help="also feed the bilingual sides to the monolingual objective")
    _add(p, "--checkpoint-every", type=int, help="checkpoint every N epochs; 0 writes only the final one (default: 0)")
    _add(p, "--resume-from", help="checkpoint file to resume from")
    _add(p, "--log-file", help="also write per-batch loss lines to this file")

    p = sub.add_parser("export", help="write embedding text files from a checkpoint")
    _add(p, "--checkpoint", required=True, help="checkpoint file")
    _add(p, "--vocab-l1", required=True, help="language-1 vocabulary file")
    _add(p, "--vocab-l2", required=True, help="language-2 vocabulary file")
    _add(p, "--outdir", required=True, help="output directory for <tag>.vec files")

    p = sub.add_parser("nn", help="query nearest neighbors in an embedding file")
    _add(p, "--embeddings", required=True, help="source embedding text file")
    _add(p, "--dst-embeddings", help="destination embedding file (default: the source)")
    p.add_argument("--query", action="append", default=[], help="query token (repeatable)")
    _add(p, "--query-file", help="file with one query token per line")
    _add(p, "--k", default=5, type=int, help="neighbors per query")
    _add(p, "--metric", default="cosine", choices=("cosine", "euclidean"), help="similarity metric")

    p = sub.add_parser("classify-eval", help="crosslingual document classification")
    _add(p, "--embeddings-l1", required=True, help="language-1 embedding text file")
    _add(p, "--embeddings-l2", required=True, help="language-2 embedding text file")
    _add(p, "--train-docs-l1", help="labeled documents in language 1 (train l1->l2)")
    _add(p, "--test-docs-l2", help="labeled documents in language 2 (test l1->l2)")
    _add(p, "--train-docs-l2", help="labeled documents in language 2 (train l2->l1)")
    _add(p, "--test-docs-l1", help="labeled documents in language 1 (test l2->l1)")
    _add(p, "--epochs", default=10, type=int, help="perceptron training iterations")
    _add(p, "--train-size", type=int, help="subsample the training set to N documents (seeded)")
    _add(p, "--norm", default="none", choices=ev.NORM_MODES, help="document vector normalization")
    _add(p, "--composition", default="add", choices=("add", "bi"), help="composition function")
    _add(p, "--seed", default=DEFAULT_SEED, type=int, help="random seed")
    _add(p, "--out", help="also write the report(s) to this file")

    p = sub.add_parser("compose", help="compose labeled documents into a vectors file")
    _add(p, "--embeddings", required=True, help="embedding text file")
    _add(p, "--docs", required=True, help="labeled document file")
    _add(p, "--out", required=True, help="output vectors file (doc_id as the token field)")
    _add(p, "--norm", default="none", choices=ev.NORM_MODES, help="document vector normalization")
    _add(p, "--composition", default="add", choices=("add", "bi"), help="composition function")
    return parser


def _require_files(*paths):
    for path in paths:
        if path is not None and not os.path.exists(path):
            raise DataError(f"input file not found: {path}")


# ---------------------------------------------------------------------------
# preprocess


def _corpus_stats(name: str, kind: str, threshold, enc: corp.EncodedCorpus, vocab) -> str:
    return (
        f"{name:<10} {kind:<12} {threshold!s:>13} {len(enc):>11} "
        f"{enc.n_tokens:>10} {len(vocab):>8}"
    )


def _merge_preprocess_settings(args) -> dict:
    settings = dict(_PIPELINE_DEFAULTS)
    if args.config:
        _require_files(args.config)
        file_settings = load_pipeline_config(args.config)
        settings.update({k: v for k, v in file_settings.items() if k in _PIPELINE_DEFAULTS})
    for key in (
        "l1_tag", "l2_tag", "unk_threshold_bi_l1", "unk_threshold_bi_l2",
        "unk_threshold_mono_l1", "unk_threshold_mono_l2",
        "lowercase_cutoff_l1", "lowercase_cutoff_l2", "min_sentence_len",
    ):
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            settings[key] = flag_value
    if args.no_lowercase:
        settings["lowercase"] = False
    return settings


def run_preprocess(args) -> int:
    _require_files(args.parallel_l1, args.parallel_l2, args.mono_l1, args.mono_l2)
    cfg = _merge_preprocess_settings(args)
    tag_l1, tag_l2 = cfg["l1_tag"], cfg["l2_tag"]
    if tag_l1 == tag_l2:
        raise ConfigError("l1 and l2 tags must differ")
    lowercase = cfg["lowercase"]
    min_len = cfg["min_sentence_len"]
    os.makedirs(args.outdir, exist_ok=True)

    pairs = corp.read_parallel(args.parallel_l1, args.parallel_l2)
    kept = corp.filter_parallel(
        pairs, cfg["lowercase_cutoff_l1"], cfg["lowercase_cutoff_l2"], min_len
    )
    bi_lines = {tag_l1: [p[0] for p in kept], tag_l2: [p[1] for p in kept]}
    mono_lines = {}
    for tag, path, cutoff in (
        (tag_l1, args.mono_l1, cfg["lowercase_cutoff_l1"]),
        (tag_l2, args.mono_l2, cfg["lowercase_cutoff_l2"]),
    ):
        if path is not None:
            mono_lines[tag] = corp.filter_mono(corp.read_lines(path), cutoff, min_len)
    if not kept:
        print("warning: no sentence pairs survived filtering", file=sys.stderr)

    bi_thresholds = {tag_l1: cfg["unk_threshold_bi_l1"], tag_l2: cfg["unk_threshold_bi_l2"]}
    mono_thresholds = {tag_l1: cfg["unk_threshold_mono_l1"], tag_l2: cfg["unk_threshold_mono_l2"]}

    header = (
        f"{'corpus':<10} {'type':<12} {'unk_threshold':>13} {'#sentences':>11} "
        f"{'#tokens':>10} {'|V|':>8}"
    )
    print(header)
    for tag in (tag_l1, tag_l2):
        bi_vocab = corp.build_vocabulary(
            corp.iter_tokens(bi_lines[tag], lowercase), bi_thresholds[tag], tag
        )
        per_corpus = [("bi." + tag, "bilingual", bi_thresholds[tag], bi_lines[tag], bi_vocab)]
        vocabs = [bi_vocab]
        if tag in mono_lines:
            mono_vocab = corp.build_vocabulary(
                corp.iter_tokens(mono_lines[tag], lowercase), mono_thresholds[tag], tag
            )
            per_corpus.append(
                ("mono." + tag, "monolingual", mono_thresholds[tag], mono_lines[tag], mono_vocab)
            )
            vocabs.append(mono_vocab)
        lang_vocab = corp.merge_vocabularies(vocabs, tag)
        lang_vocab.save(os.path.join(args.outdir, f"{tag}.vocab"))
        for name, kind, threshold, lines, corpus_vocab in per_corpus:
            enc = corp.EncodedCorpus.from_raw(lines, lang_vocab, lowercase, corpus_vocab)
            enc.save_ids(os.path.join(args.outdir, f"{name}.ids"))
            print(_corpus_stats(name, kind, threshold, enc, corpus_vocab))
        print(f"language {tag}: |V| = {len(lang_vocab)}")
    return 0


# ---------------------------------------------------------------------------
# train and export


def _merge_train_settings(args) -> tuple[TrainConfig, dict]:
    settings = dict(_PIPELINE_DEFAULTS)
    file_settings = load_pipeline_config(args.config) if args.config else {}
    settings.update({k: v for k, v in file_settings.items() if k in _PIPELINE_DEFAULTS})

    kwargs = {}
    for field in (
        "dim", "learning_rate", "batch_size", "margin", "lam", "epochs_bi_only",
        "epochs_with_mono", "epochs", "mix", "seed", "adagrad_epsilon",
        "composition", "init_sigma",
    ):
        if field in file_settings:
            kwargs[field] = file_settings[field]
        flag_value = getattr(args, field, None)
        if flag_value is not None:
            kwargs[field] = _parse_mix(flag_value) if field == "mix" else flag_value
    config = TrainConfig(**kwargs)
    config.validate()

    for key in ("l1_tag", "l2_tag"):
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            settings[key] = flag_value
    if args.bilingual_limit is not None:
        settings["bilingual_limit"] = args.bilingual_limit
    if args.no_mono:
        settings["use_mono"] = False
    if args.mono_use_parallel:
        settings["mono_use_parallel"] = True
    if args.checkpoint_every is not None:
        settings["checkpoint_every"] = args.checkpoint_every
    return config, settings


def _load_training_data(data_dir: str, settings: dict) -> TrainingData:
    tag1, tag2 = settings["l1_tag"], settings["l2_tag"]
    paths = {
        "vocab_l1": os.path.join(data_dir, f"{tag1}.vocab"),
        "vocab_l2": os.path.join(data_dir, f"{tag2}.vocab"),
        "bi_l1": os.path.join(data_dir, f"bi.{tag1}.ids"),
        "bi_l2": os.path.join(data_dir, f"bi.{tag2}.ids"),
    }
    _require_files(*paths.values())
    vocab_l1 = corp.Vocabulary.load(paths["vocab_l1"], tag1)
    vocab_l2 = corp.Vocabulary.load(paths["vocab_l2"], tag2)
    parallel = corp.ParallelCorpus(
        corp.EncodedCorpus.load_ids(paths["bi_l1"], tag1),
        corp.EncodedCorpus.load_ids(paths["bi_l2"], tag2),
    )
    if settings["bilingual_limit"] is not None:
        parallel = parallel.limited(settings["bilingual_limit"])
    mono = {}
    if settings["use_mono"]:
        for tag in (tag1, tag2):
            path = os.path.join(data_dir, f"mono.{tag}.ids")
            if os.path.exists(path):
                mono[tag] = corp.EncodedCorpus.load_ids(path, tag)
    if settings["mono_use_parallel"]:
        for tag, side in ((tag1, parallel.l1), (tag2, parallel.l2)):
            mono[tag] = mono[tag].concat(side) if tag in mono else side
    for vocab, corpora in (
        (vocab_l1, (parallel.l1, mono.get(tag1))),
        (vocab_l2, (parallel.l2, mono.get(tag2))),
    ):
        for enc in corpora:
            if enc is not None and enc.n_tokens and int(enc.flat.max()) >= len(vocab):
                raise DataError(
                    f"{enc.language_tag!r} corpus references id {int(enc.flat.max())} "
                    f"outside the vocabulary (size {len(vocab)})"
                )
    return TrainingData(vocab_l1, vocab_l2, parallel, mono.get(tag1), mono.get(tag2))


def _export_tables(outdir: str, tables: TablePair, vocab_l1, vocab_l2) -> list[str]:
    written = []
    for vocab, table in ((vocab_l1, tables.l1), (vocab_l2, tables.l2)):
        if len(vocab) != len(table):
            raise DataError(
                f"vocabulary size {len(vocab)} does not match table rows {len(table)} "
                f"for {table.language_tag!r}"
            )
        path = os.path.join(outdir, f"{table.language_tag}.vec")
        save_embeddings_text(path, vocab.id_to_token, table.matrix)
        written.append(path)
    return written


def run_train(args) -> int:
    config, settings = _merge_train_settings(args)
    if args.resume_from is not None:
        _require_files(args.resume_from)
    data = _load_training_data(args.data_dir, settings)
    os.makedirs(args.outdir, exist_ok=True)

    log_handle = open(args.log_file, "w", encoding="utf-8") if args.log_file else None

    def log_fn(line):
        print(line)
        if log_handle:
            log_handle.write(line + "\n")

    try:
        result = train(
            data,
            config,
            log_fn=log_fn,
            checkpoint_path=os.path.join(args.outdir, "checkpoint.npz"),
            checkpoint_every=settings["checkpoint_every"],
            resume_from=args.resume_from,
        )
    finally:
        if log_handle:
            log_handle.close()
    for path in _export_tables(args.outdir, result.tables, data.vocab_l1, data.vocab_l2):
        print(f"wrote {path}")
    print(f"wrote {os.path.join(args.outdir, 'checkpoint.npz')}")
    return 0


def run_export(args) -> int:
    _require_files(args.checkpoint, args.vocab_l1, args.vocab_l2)
    tables, _, _, _, _ = load_checkpoint(args.checkpoint)
    tag1, tag2 = tables.tags
    vocab_l1 = corp.Vocabulary.load(args.vocab_l1, tag1)
    vocab_l2 = corp.Vocabulary.load(args.vocab_l2, tag2)
    os.makedirs(args.outdir, exist_ok=True)
    for path in _export_tables(args.outdir, tables, vocab_l1, vocab_l2):
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# inspection commands


def _load_vec_as_vocab_table(path, tag: str) -> tuple[corp.Vocabulary, EmbeddingTable]:
    tokens, matrix = load_embeddings_text(path)
    if not tokens or tokens[0] != corp.UNK_TOKEN:
        raise DataError(f"{path}: row 0 must be the {corp.UNK_TOKEN!r} vector")
    vocab = corp.Vocabulary(tokens[1:], [0] * (len(tokens) - 1), 0, tag)
    return vocab, EmbeddingTable(matrix, tag)


def run_nn(args) -> int:
    _require_files(args.embeddings, args.dst_embeddings, args.query_file)
    queries = list(args.query)
    if args.query_file:
        queries.extend(t for t in corp.read_lines(args.query_file) if t.strip())
    if not queries:
        raise ConfigError("no query given; use --query or --query-file")
    src_vocab, src_table = _load_vec_as_vocab_table(args.embeddings, "src")
    if args.dst_embeddings and args.dst_embeddings != args.embeddings:
        dst_vocab, dst_table = _load_vec_as_vocab_table(args.dst_embeddings, "dst")
    else:
        dst_vocab, dst_table = src_vocab, src_table
    for query in queries:
        try:
            neighbors = ev.nearest_neighbors(
                query, src_vocab, src_table, dst_vocab, dst_table, k=args.k, metric=args.metric
            )
        except OovError as exc:
            raise OovError(f"{exc} (vocabulary read from {args.embeddings})")
        for rank, (token, score) in enumerate(neighbors, start=1):
            print(f"{query}\t{rank}\t{token}\t{score:.6f}")
    return 0


def _load_docs_for(path, vocab: corp.Vocabulary):
    raw = ev.read_labeled_documents(path, vocab.language_tag)
    return ev.encode_documents(raw, vocab)


def run_classify_eval(args) -> int:
    directions = []
    if args.train_docs_l1 or args.test_docs_l2:
        if not (args.train_docs_l1 and args.test_docs_l2):
            raise ConfigError("l1->l2 needs both --train-docs-l1 and --test-docs-l2")
        directions.append(("l1", args.train_docs_l1, "l2", args.test_docs_l2))
    if args.train_docs_l2 or args.test_docs_l1:
        if not (args.train_docs_l2 and args.test_docs_l1):
            raise ConfigError("l2->l1 needs both --train-docs-l2 and --test-docs-l1")
        directions.append(("l2", args.train_docs_l2, "l1", args.test_docs_l1))
    if not directions:
        raise ConfigError("no direction given; pass --train-docs-l1/--test-docs-l2 "
                          "and/or --train-docs-l2/--test-docs-l1")
    _require_files(args.embeddings_l1, args.embeddings_l2)
    for _, train_path, _, test_path in directions:
        _require_files(train_path, test_path)

    vocab_l1, table_l1 = _load_vec_as_vocab_table(args.embeddings_l1, "l1")
    vocab_l2, table_l2 = _load_vec_as_vocab_table(args.embeddings_l2, "l2")
    tables = TablePair(table_l1, table_l2)
    vocabs = {"l1": vocab_l1, "l2": vocab_l2}

    reports = []
    for train_tag, train_path, test_tag, test_path in directions:
        report = ev.crosslingual_eval(
            _load_docs_for(train_path, vocabs[train_tag]),
            _load_docs_for(test_path, vocabs[test_tag]),
            tables,
            kind=args.composition,
            norm_mode=args.norm,
            epochs=args.epochs,
            seed=args.seed,
            train_size=args.train_size,
        )
        reports.append(report)
        print(report.to_text())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            for report in reports:
                f.write(report.to_text())
                f.write("\n")
    return 0


def run_compose(args) -> int:
    _require_files(args.embeddings, args.docs)
    vocab, table = _load_vec_as_vocab_table(args.embeddings, "doc")
    docs = _load_docs_for(args.docs, vocab)
    vectors = [
        ev.represent_document(d, table, args.composition, args.norm) for d in docs
    ]
    save_embeddings_text(args.out, [d.doc_id for d in docs], np.stack(vectors))
    print(f"wrote {args.out} ({len(docs)} documents)")
    return 0


_HANDLERS = {
    "preprocess": run_preprocess,
    "train": run_train,
    "export": run_export,
    "nn": run_nn,
    "classify-eval": run_classify_eval,
    "compose": run_compose,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"xlembed: configuration error: {exc}", file=sys.stderr)
        return 1
    except TrainingError as exc:
        print(f"xlembed: numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"xlembed: data error: {exc}", file=sys.stderr)
        return 2
    except XlembedError as exc:
        print(f"xlembed: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
