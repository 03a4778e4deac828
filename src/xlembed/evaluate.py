"""Crosslingual document classification and nearest-neighbor inspection.

The classification protocol composes every document into a single vector
with the same two-level composition used during training, trains an
averaged perceptron on documents of one language for 10 iterations, and
tests it on documents of the other language.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import Vocabulary, atomic_write, encode, numbered_lines
from .embeddings import CompositionKind, EmbeddingTable, TablePair, compose_documents
from .errors import ConfigError, DataError, OovError

# ASCII unit separator: delimits sentences within a document line
US = "\x1f"

NORM_MODES = ("none", "by_token_count", "unit_l2")


@dataclass
class LabeledDocument:
    doc_id: str
    label: str
    sentences: list  # encoded id arrays
    language_tag: str = ""


def represent_document(docs, table: EmbeddingTable, kind, norm_mode: str = "none") -> np.ndarray:
    """Two-level composition of a set of documents, one row per document,
    with optional normalization.

    ``by_token_count`` divides by each document's token count (the mean
    word vector under Add); ``unit_l2`` rescales to unit norm (zero stays
    zero).
    """
    if norm_mode not in NORM_MODES:
        raise DataError(f"unknown norm mode {norm_mode!r}, expected one of {NORM_MODES}")
    vecs = compose_documents([d.sentences for d in docs], table.matrix, kind)
    if norm_mode == "by_token_count":
        return vecs / np.array([[sum(map(len, d.sentences))] for d in docs])
    if norm_mode == "unit_l2":
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        return np.divide(vecs, norms, out=vecs, where=norms > 0)
    return vecs


# ---------------------------------------------------------------------------
# averaged perceptron


class PerceptronModel:
    """Multiclass averaged perceptron.

    The averaged weights are the mean of the weights after each example.
    Prediction is argmax of class scores; ties resolve to the lowest class
    index. There is no bias term, so predictions are invariant to positive
    rescaling of the inputs.
    """

    def __init__(self, classes, dim: int):
        self.classes = list(classes)
        if len(self.classes) < 2:
            raise DataError("perceptron needs at least two classes")
        self.w = np.zeros((len(self.classes), dim), dtype=np.float64)
        self._sum = np.zeros_like(self.w)
        self._t = 0

    def observe(self, x: np.ndarray, true_class: int) -> int:
        predicted = int(np.argmax(self.w @ x))
        if predicted != true_class:
            self.w[true_class] += x
            self.w[predicted] -= x
        self._sum += self.w
        self._t += 1
        return predicted

    def averaged_weights(self) -> np.ndarray:
        if self._t == 0:
            return self.w.copy()
        return self._sum / self._t

    def predict_indices(self, xs, use_average: bool = True) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        weights = self.averaged_weights() if use_average else self.w
        return np.argmax(xs @ weights.T, axis=1)


def perceptron_train(train_docs, vectors, epochs: int = 10, seed: int = 0) -> PerceptronModel:
    """Train on composed document vectors; labels come from the documents.

    Document order is shuffled once per epoch by the seeded generator.
    """
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    docs = list(train_docs)
    vectors = np.asarray(vectors, dtype=np.float64)
    if len(docs) != vectors.shape[0]:
        raise DataError("document and vector counts differ")
    classes = sorted({d.label for d in docs})  # PerceptronModel rejects fewer than two
    index = {c: i for i, c in enumerate(classes)}
    y = np.array([index[d.label] for d in docs], dtype=np.int64)
    model = PerceptronModel(classes, vectors.shape[1])
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        for i in rng.permutation(len(docs)):
            model.observe(vectors[i], int(y[i]))
    return model


# ---------------------------------------------------------------------------
# crosslingual evaluation


@dataclass
class EvalReport:
    direction: str
    accuracy: float
    confusion: np.ndarray  # rows: true class, cols: predicted
    classes: list
    train_size: int
    config: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [
            f"crosslingual document classification {self.direction}",
            f"train size {self.train_size}, test size {int(self.confusion.sum())}",
            f"accuracy {self.accuracy:.4f}",
            "",
            "key=value block:",
            f"direction={self.direction}",
            f"accuracy={self.accuracy!r}",
            f"train_size={self.train_size}",
            f"test_size={int(self.confusion.sum())}",
            f"classes={','.join(self.classes)}",
        ]
        for key, value in sorted(self.config.items()):
            lines.append(f"config.{key}={value}")
        for i, label in enumerate(self.classes):
            row = ",".join(str(int(v)) for v in self.confusion[i])
            lines.append(f"confusion[{label}]={row}")
        return "\n".join(lines) + "\n"


def crosslingual_eval(
    train_docs,
    test_docs,
    tables: TablePair,
    kind="add",
    norm_mode: str = "none",
    epochs: int = 10,
    seed: int = 0,
    train_size: int | None = None,
) -> EvalReport:
    """Compose each document set with its language's table, train the
    perceptron on the first set, and report accuracy on the second. Each
    set holds documents of one language."""
    if train_size is not None and train_size < 1:
        raise ConfigError(f"train_size must be >= 1, got {train_size}")
    train_docs = list(train_docs)
    test_docs = list(test_docs)
    if not train_docs or not test_docs:
        raise DataError("both document sets must be non-empty")
    train_labels = {d.label for d in train_docs}
    test_labels = {d.label for d in test_docs}
    if train_labels != test_labels:
        raise DataError(
            f"label sets differ: train {sorted(train_labels)} vs test {sorted(test_labels)}"
        )
    if train_size is not None and train_size < len(train_docs):
        rng = np.random.default_rng((seed, 1))
        keep = rng.choice(len(train_docs), size=train_size, replace=False)
        train_docs = [train_docs[i] for i in sorted(keep)]

    def compose_all(docs):
        tags = sorted({d.language_tag for d in docs})
        if len(tags) > 1:
            raise DataError(f"a document set mixes languages {tags}")
        return represent_document(docs, tables.by_tag(tags[0]), kind, norm_mode)

    x_train = compose_all(train_docs)
    x_test = compose_all(test_docs)
    model = perceptron_train(train_docs, x_train, epochs=epochs, seed=seed)
    index = {c: i for i, c in enumerate(model.classes)}
    y_true = np.array([index[d.label] for d in test_docs])
    y_pred = model.predict_indices(x_test)
    c = len(model.classes)
    confusion = np.zeros((c, c), dtype=np.int64)
    np.add.at(confusion, (y_true, y_pred), 1)
    accuracy = float(np.trace(confusion) / confusion.sum())
    direction = f"{train_docs[0].language_tag}->{test_docs[0].language_tag}"
    return EvalReport(
        direction=direction,
        accuracy=accuracy,
        confusion=confusion,
        classes=model.classes,
        train_size=len(train_docs),
        config={"kind": CompositionKind.coerce(kind).value, "norm_mode": norm_mode,
                "epochs": epochs, "seed": seed},
    )


# ---------------------------------------------------------------------------
# nearest neighbors


def nearest_neighbors(
    query_token: str,
    src_vocab: Vocabulary,
    src_table: EmbeddingTable,
    dst_vocab: Vocabulary,
    dst_table: EmbeddingTable,
    k: int = 5,
    metric: str = "cosine",
) -> list[tuple[str, float]]:
    """Exhaustive scan of the destination table, descending similarity.

    The destination may equal the source for monolingual queries. The UNK
    row is never reported. For the euclidean metric the score is the negated
    distance so that scores are monotone non-increasing for both metrics.
    Ties order lexicographically by token. The query is looked up in the
    source vocabulary's casing (:attr:`xlembed.corpus.Vocabulary.lowercased`)."""
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    if metric not in ("cosine", "euclidean"):
        raise DataError(f"unknown metric {metric!r}, expected cosine or euclidean")
    query_id = src_vocab.id_for(query_token.lower() if src_vocab.lowercased else query_token)
    if query_id == src_vocab.unk_id:
        raise OovError(
            f"query {query_token!r} is not in the {src_vocab.language_tag or 'source'} "
            "vocabulary (tokens below the UNK threshold share the <unk> vector and "
            "cannot be queried individually)"
        )
    q = src_table.matrix[query_id]
    m = dst_table.matrix
    if q.shape[0] != m.shape[1]:
        raise DataError("source and destination tables have different dims")
    if metric == "cosine":
        norms = np.linalg.norm(m, axis=1)
        qn = float(np.linalg.norm(q))
        denom = norms * qn
        with np.errstate(invalid="ignore", divide="ignore"):
            scores = np.where(denom > 0, (m @ q) / denom, 0.0)
    else:
        scores = -np.linalg.norm(m - q, axis=1)
    scores = scores[1 : len(dst_vocab)]  # row 0 is UNK
    k = min(k, scores.size)
    # sort only the rows scoring at least the k-th best score, all ties included
    cut = np.partition(scores, scores.size - k)[scores.size - k] if k else np.inf
    rows = np.flatnonzero(scores >= cut)
    candidates = [(dst_vocab.token_for(i + 1), float(scores[i])) for i in rows]
    candidates.sort(key=lambda ts: (-ts[1], ts[0]))
    return candidates[:k]


# ---------------------------------------------------------------------------
# labeled-document files: one document per line,
# label<TAB>doc_id<TAB>sentence1<US>sentence2<US>...


def read_labeled_documents(path, language_tag: str = "") -> list[LabeledDocument]:
    """Parse documents with raw token sentences (not yet encoded)."""
    docs = []
    for lineno, line in numbered_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 'label<TAB>doc_id<TAB>sentences'")
        label, doc_id, body = parts
        sentences = [s for s in body.split(US) if s.split()]
        if not sentences:
            raise DataError(f"{path}:{lineno}: document has no sentences")
        docs.append(LabeledDocument(doc_id, label, sentences, language_tag))
    return docs


def write_labeled_documents(path, docs) -> None:
    with atomic_write(path) as f:
        for doc in docs:
            body = US.join(
                s if isinstance(s, str) else " ".join(map(str, s)) for s in doc.sentences
            )
            f.write(f"{doc.label}\t{doc.doc_id}\t{body}\n")


def encode_documents(docs, vocab: Vocabulary) -> list[LabeledDocument]:
    """Encode raw-token documents against a vocabulary, in its casing
    (:attr:`xlembed.corpus.Vocabulary.lowercased`); OOV tokens map to UNK."""
    out = []
    for doc in docs:
        sentences = [encode(s, vocab, vocab.lowercased) for s in doc.sentences]
        out.append(LabeledDocument(doc.doc_id, doc.label, sentences, vocab.language_tag))
    return out
