"""Compositional crosslingual word embeddings.

Trains one word-vector table per language so that composed representations
of aligned sentences coincide across languages while phrases stay closer to
their own sub-phrases than to random noise phrases, then evaluates the
induced space with crosslingual document classification and
nearest-neighbor queries.
"""

from .corpus import (
    EncodedCorpus,
    ParallelCorpus,
    Vocabulary,
    build_vocabulary,
    encode,
    filter_mono,
    filter_parallel,
    lowercase_ratio,
    merge_vocabularies,
)
from .embeddings import (
    CompositionKind,
    EmbeddingTable,
    TablePair,
    compose_documents,
    init_table,
    load_embeddings_text,
    save_embeddings_text,
)
from .errors import (
    AlignmentError,
    CompositionError,
    ConfigError,
    DataError,
    OovError,
    SamplingError,
    TrainingError,
    XlembedError,
)
from .evaluate import (
    EvalReport,
    LabeledDocument,
    PerceptronModel,
    crosslingual_eval,
    nearest_neighbors,
    perceptron_train,
    represent_document,
)
from .objective import (
    GradientAccumulator,
    LossBreakdown,
    batch_loss,
    batch_loss_and_grad,
)
from .trainer import (
    AdaGradState,
    TrainConfig,
    TrainingData,
    TrainResult,
    load_checkpoint,
    make_batch,
    proportional_mix,
    save_checkpoint,
    train,
    train_step,
)

__version__ = "0.1.0"
