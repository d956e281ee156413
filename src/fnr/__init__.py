"""Function need recognition: a semi-supervised attention tagger that
labels product-question tokens as function-expression (F) or other (O),
letting each token attend over a bank of similar unlabeled questions."""

from .attention import AttentionParams, AttentionTrace, bank_attend_batch, transform_bank
from .autodiff import Gradients, NonFiniteError, Tape, Tensor
from .data import (CorpusError, CorpusSplit, Example, QaRecord, collate, corpus_stats,
                   load_corpus, make_example, split)
from .embeddings import (EmbeddingMatrix, SgnsConfig, load_embeddings, save_embeddings,
                         train_skipgram)
from .lstm import BlstmParams, LstmParams, blstm_forward
from .metrics import Metrics, score_predictions
from .model import (CheckpointError, FunctionSpan, Probabilities, SanConfig, SanParams,
                    batch_loss, extract_spans, forward_batch, load_model, predict_tags,
                    save_model)
from .optim import ParamGroup, adam_step, grad_check
from .retrieval import Bm25Index, build_bank
from .training import DivergenceError, EpochLog, TrainConfig, evaluate, train
from .vocab import Vocabulary, build_vocab, tokenize

__version__ = "0.1.0"
