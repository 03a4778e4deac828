"""Command line entry point wiring the full pipeline:
preprocess -> train -> export -> nn / classify-eval / compose.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numeric training failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields

from . import corpus as corp
from . import evaluate as ev
from .embeddings import (
    EmbeddingTable,
    TablePair,
    load_embeddings_text,
    save_embeddings_text,
)
from .errors import ConfigError, DataError, OovError, TrainingError
from .trainer import (
    DEFAULT_SEED,
    TrainConfig,
    TrainingData,
    load_checkpoint,
    parse_config_file,
    train,
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


def _parse_fractions(value):
    try:
        parts = tuple(float(x) for x in value.split(","))
    except ValueError:
        parts = ()
    if len(parts) != 3:
        raise ValueError(f"mix needs three comma-separated fractions, got {value!r}")
    return parts


def _or_none(parse, *words):
    """`parse`, except that "", "none" and `words` read as None (a derived default)."""
    def parse_or_none(value):
        return None if value.strip().lower() in ("", "none", *words) else parse(value)
    return parse_or_none


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

# every setting and its default: the TrainConfig fields and the pipeline settings
_DEFAULTS = {**{f.name: f.default for f in fields(TrainConfig)}, **_PIPELINE_DEFAULTS}

# config-file key -> setting name; only lam is spelled differently, as lambda
_SETTING_OF_KEY = {("lambda" if name == "lam" else name): name for name in _DEFAULTS}

# every key a pipeline config file may carry; unknown keys are rejected
CONFIG_KEYS = frozenset(_SETTING_OF_KEY)

# value parsers, for files and flags alike, of the settings that the type of
# their default cannot parse
_PARSERS = {
    "lowercase": _parse_bool,
    "use_mono": _parse_bool,
    "mono_use_parallel": _parse_bool,
    "bilingual_limit": _or_none(int),
    "epochs": _or_none(int),
    "margin": _or_none(float, "dim"),
    "mix": _or_none(_parse_fractions, "proportional"),
}

# what a None default means, for the help text
_DEFAULT_WORDS = {"margin": "dim", "epochs": "auto", "mix": "proportional", "bilingual_limit": "all"}


def load_pipeline_config(path) -> dict:
    """Parse a `key = value` config file into typed settings, keyed by setting name."""
    settings = {}
    for key, value in parse_config_file(path, CONFIG_KEYS).items():
        name = _SETTING_OF_KEY[key]
        try:
            settings[name] = _PARSERS.get(name, type(_DEFAULTS[name]))(value)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}: bad value for {key!r}: {exc}")
    return settings


def _merge_settings(args) -> dict:
    """Every setting: its default, then the config file, then each given flag."""
    settings = dict(_DEFAULTS)
    if args.config:
        _require_files(args.config)
        settings.update(load_pipeline_config(args.config))
    settings.update((name, getattr(args, name)) for name in _DEFAULTS if hasattr(args, name))
    return settings


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add(parser, flag, default=None, required=False, help="", **kwargs):
    """add_argument with the default of an optional flag echoed in its help."""
    if not required:
        help = f"{help} (default: {default})"
    parser.add_argument(flag, default=default, required=required, help=help, **kwargs)


def _flag_value(name):
    """The value parser of setting `name`, with a bad value reported by argparse
    as the parser describes it."""
    parse = _PARSERS.get(name, type(_DEFAULTS[name]))

    def flag_value(value):
        try:
            return parse(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad value: {exc}")
    return flag_value


def _setting(parser, name, help, flag=None, **kwargs):
    """Add the flag of setting `name`, parsed as a config file value is, or a
    switch that stores `const`. A flag that is not given leaves no attribute,
    so the merge sees only the flags that were given, None values included."""
    default = _DEFAULT_WORDS.get(name, _DEFAULTS[name])
    if "const" in kwargs:
        kwargs["action"] = "store_const"
        default = f"{name} = {default}"
    else:
        kwargs["type"] = _flag_value(name)
    parser.add_argument(flag or "--" + name.replace("_", "-"), dest=name,
                        default=argparse.SUPPRESS, help=f"{help} (default: {default})", **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="xlembed", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command", parser_class=_Parser)

    p = sub.add_parser("preprocess", help="filter corpora, build vocabularies, encode")
    _add(p, "--parallel-l1", required=True, help="language-1 side of the aligned corpus")
    _add(p, "--parallel-l2", required=True, help="language-2 side of the aligned corpus")
    _add(p, "--mono-l1", help="monolingual corpus for language 1")
    _add(p, "--mono-l2", help="monolingual corpus for language 2")
    _add(p, "--config", help="key = value config file; flags override it")
    _setting(p, "l1_tag", "language-1 tag")
    _setting(p, "l2_tag", "language-2 tag")
    _setting(p, "unk_threshold_bi_l1", "UNK threshold, bilingual l1 side")
    _setting(p, "unk_threshold_bi_l2", "UNK threshold, bilingual l2 side")
    _setting(p, "unk_threshold_mono_l1", "UNK threshold, monolingual l1")
    _setting(p, "unk_threshold_mono_l2", "UNK threshold, monolingual l2")
    _setting(p, "lowercase_cutoff_l1", "lowercase-ratio cutoff, l1")
    _setting(p, "lowercase_cutoff_l2", "lowercase-ratio cutoff, l2")
    _setting(p, "min_sentence_len", "minimum tokens per kept sentence")
    _setting(p, "lowercase", "keep original casing after filtering", "--no-lowercase", const=False)
    _add(p, "--outdir", required=True, help="output directory for vocab and id files")

    p = sub.add_parser("train", help="run the optimizer and export embeddings")
    _add(p, "--data-dir", required=True, help="directory written by the preprocess command")
    _add(p, "--outdir", required=True, help="output directory for checkpoint and embeddings")
    _add(p, "--config", help="key = value config file; flags override it")
    _setting(p, "l1_tag", "language-1 tag")
    _setting(p, "l2_tag", "language-2 tag")
    _setting(p, "dim", "embedding dimensionality")
    _setting(p, "learning_rate", "AdaGrad learning rate")
    _setting(p, "batch_size", "samples per mini-batch")
    _setting(p, "margin", "hinge margin")
    _setting(p, "lam", "L2 regularization strength", "--lambda")
    _setting(p, "epochs", "epoch count override")
    _setting(p, "epochs_bi_only", "epochs without monolingual data")
    _setting(p, "epochs_with_mono", "epochs with monolingual data")
    _setting(p, "mix", "bi,mono_l1,mono_l2 batch fractions")
    _setting(p, "seed", "random seed")
    _setting(p, "composition", "composition function", choices=("add", "bi"))
    _setting(p, "adagrad_epsilon", "AdaGrad denominator epsilon")
    _setting(p, "init_sigma", "Gaussian init std")
    _setting(p, "bilingual_limit", "use only the first N sentence pairs")
    _setting(p, "use_mono", "ignore monolingual corpora", "--no-mono", const=False)
    _setting(p, "mono_use_parallel", "also feed the bilingual sides to the monolingual objective",
             const=True)
    _setting(p, "checkpoint_every", "checkpoint every N epochs; 0 writes only the final one")
    _add(p, "--resume-from", help="checkpoint file to resume from")
    _add(p, "--log-file", help="also write per-batch loss lines to this file")

    p = sub.add_parser("export", help="write embedding text files from a checkpoint")
    _add(p, "--checkpoint", required=True, help="checkpoint file")
    _add(p, "--vocab-l1", required=True, help="language-1 vocabulary file")
    _add(p, "--vocab-l2", required=True, help="language-2 vocabulary file")
    _add(p, "--outdir", required=True, help="output directory for <tag>.vec files")

    p = sub.add_parser("nn", help="query nearest neighbors in an embedding file")
    _add(p, "--embeddings", required=True, help="source embedding text file")
    p.add_argument("--dst-embeddings", help="destination embedding file (default: the source)")
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


def run_preprocess(args) -> int:
    _require_files(args.parallel_l1, args.parallel_l2, args.mono_l1, args.mono_l2)
    cfg = _merge_settings(args)
    tag_l1, tag_l2 = cfg["l1_tag"], cfg["l2_tag"]
    if tag_l1 == tag_l2:
        raise ConfigError("l1 and l2 tags must differ")
    for name in ("min_sentence_len", "unk_threshold_bi_l1", "unk_threshold_bi_l2",
                 "unk_threshold_mono_l1", "unk_threshold_mono_l2"):
        if cfg[name] < 1:
            raise ConfigError(f"{name} must be >= 1, got {cfg[name]}")
    for name in ("lowercase_cutoff_l1", "lowercase_cutoff_l2"):
        if math.isnan(cfg[name]):
            raise ConfigError(f"{name} must be a number, got nan")
    lowercase = cfg["lowercase"]
    min_len = cfg["min_sentence_len"]

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
    os.makedirs(args.outdir, exist_ok=True)
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
    for vocab, enc in ((vocab_l1, parallel.l1), (vocab_l1, mono.get(tag1)),  # ids >= 0 already
                       (vocab_l2, parallel.l2), (vocab_l2, mono.get(tag2))):
        if enc is not None and enc.n_tokens and enc.flat.max() >= len(vocab):
            raise DataError(
                f"{enc.language_tag!r} corpus references id {enc.flat.max()} "
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
    settings = _merge_settings(args)
    config = TrainConfig(**{f.name: settings[f.name] for f in fields(TrainConfig)})
    config.validate()
    if settings["bilingual_limit"] is not None and settings["bilingual_limit"] < 0:
        raise ConfigError(f"bilingual_limit must be >= 0, got {settings['bilingual_limit']}")
    if settings["checkpoint_every"] < 0:
        raise ConfigError(f"checkpoint_every must be >= 0, got {settings['checkpoint_every']}")
    _require_files(args.resume_from)
    data = _load_training_data(args.data_dir, settings)
    os.makedirs(args.outdir, exist_ok=True)

    log_handle = None  # opened at the first loss line: a refused run keeps an earlier log

    def log_fn(line):
        nonlocal log_handle
        print(line)
        if args.log_file:
            if log_handle is None:
                log_handle = open(args.log_file, "w", encoding="utf-8")
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
    first_row = {}
    for i, token in enumerate(tokens):  # row i is on line i + 2
        if first_row.setdefault(token, i) != i:
            raise DataError(f"{path}:{i + 2}: token {token!r} repeats line {first_row[token] + 2}")
    vocab = corp.Vocabulary(tokens[1:], [0] * (len(tokens) - 1), 0, tag)
    return vocab, EmbeddingTable(matrix, tag)


def run_nn(args) -> int:
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
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
    if args.train_size is not None and args.train_size < 1:
        raise ConfigError(f"--train-size must be >= 1, got {args.train_size}")
    if args.epochs < 1:
        raise ConfigError(f"--epochs must be >= 1, got {args.epochs}")
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
        with corp.atomic_write(args.out) as f:
            for report in reports:
                f.write(report.to_text())
                f.write("\n")
    return 0


def run_compose(args) -> int:
    _require_files(args.embeddings, args.docs)
    vocab, table = _load_vec_as_vocab_table(args.embeddings, "doc")
    docs = _load_docs_for(args.docs, vocab)
    vectors = ev.represent_document(docs, table, args.composition, args.norm)
    save_embeddings_text(args.out, [d.doc_id for d in docs], vectors)
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


if __name__ == "__main__":
    sys.exit(main())
