"""Word embeddings: skip-gram pretraining and text-format I/O.

The embedding matrix doubles as a trainable tensor inside the tagger
(shared by the labeled question and the bank branch, looked up with
``autodiff.gather_rows``) and as a standalone artifact pretrained with
skip-gram negative sampling on a raw question corpus.

Pretraining takes one numpy step per sentence: all of the sentence's
(center, context) pairs are scored by batched products, each center's
negatives are shared by its context pairs (Ji et al. 2016, arXiv
1604.04661), and the summed updates are scattered back at the end of the
step.  The vectors differ from pair-by-pair SGD; the same seed and corpus
give the same vectors, bit for bit.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .autodiff import NonFiniteError, scatter_add
from .vocab import PAD_ID, RESERVED, Vocabulary, build_vocab

log = logging.getLogger(__name__)


@dataclass
class SgnsConfig:
    """Skip-gram-with-negative-sampling settings.

    Defaults are the method's conventional ones: window 5, 5 negatives,
    lr 0.025 with linear decay, 5 epochs, 100-dim vectors.
    """
    dim: int = 100
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    lr: float = 0.025
    min_freq: int = 1

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        if self.dim < 1 or self.epochs < 1:
            raise ValueError("dim/epochs must be positive")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.min_freq < 1:
            raise ValueError(f"min_freq must be >= 1, got {self.min_freq}")


@dataclass
class EmbeddingMatrix:
    """|V| x dim real matrix aligned with a Vocabulary.

    Row PAD_ID is all-zero and must stay that way; it never receives
    gradient because every consumer of a PAD position is masked out.
    """
    vocab: Vocabulary
    vectors: np.ndarray
    loss_history: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.vectors.shape[0] != len(self.vocab):
            raise ValueError(
                f"vector rows {self.vectors.shape[0]} != vocabulary size {len(self.vocab)}")
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        self.vectors[PAD_ID] = 0.0

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _negative_table(counts: np.ndarray) -> np.ndarray:
    """Cumulative unigram^0.75 distribution for inverse-CDF sampling.

    Dividing the running sum by its last entry ends the table at exactly
    1.0, so every uniform draw in [0, 1) falls inside it."""
    weights = counts.astype(np.float64) ** 0.75
    weights[PAD_ID] = 0.0
    cum = np.cumsum(weights)
    if cum[-1] <= 0:
        raise ValueError("no tokens available for negative sampling")
    return cum / cum[-1]


def _draw_negatives(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Token ids for uniforms ``u`` in [0, 1): id i when cum[i-1] <= u <
    cum[i].  A zero-weight id (PAD, unseen reserved tokens) spans an empty
    interval and is never drawn."""
    return np.searchsorted(cum, u, side="right")


def _pair_count(length: int, window: int) -> int:
    """(center, context) pairs in a sentence of ``length`` tokens: each
    offset d = 1..min(window, length - 1) pairs ``length - d`` tokens, in
    both directions."""
    m = max(0, min(window, length - 1))
    return m * (2 * length - m - 1)


def _learning_rate(lr: float, seen, total_pairs: int):
    """Linear decay from ``lr`` to the ``lr * 1e-4`` floor at the last pair;
    ``seen`` is a pair's 1-based running index, or an array of them."""
    return np.maximum(lr * (1.0 - seen / total_pairs), lr * 1e-4)


# A diverging rate overflows inside an epoch; the check at its end reports it.
@np.errstate(over="ignore", invalid="ignore")
def train_skipgram(raw_corpus: Iterable[Sequence[str]], cfg: SgnsConfig,
                   rng: np.random.Generator) -> EmbeddingMatrix:
    """Pretrain embeddings with skip-gram negative sampling.

    One step per sentence of n tokens.  Its (center, context) pairs form
    an (n, 2w) window matrix, masked at the sentence edges.  Each center
    draws ``cfg.negatives`` ids from the unigram^0.75 distribution, shared
    by all its context pairs (Ji et al. 2016); a draw equal to the center
    is skipped, as in the reference implementation of the method.  The
    context input vectors (n, 2w, d) are scored against the output vectors
    of the center and its negatives (n, K+1, d) by batched products, every
    gradient is taken from the vectors as they were at the start of the
    sentence, and ``np.add.at`` scatters the updates, so a word used twice
    in a sentence gets both.  Each pair keeps its own learning rate from
    its running index, which reaches the floor at the last pair.  The
    vectors therefore differ from pair-by-pair SGD; the same seed gives
    the same vectors.  The per-epoch mean objective per pair is kept on
    the returned matrix as ``loss_history`` and logged with the pair count
    and tokens/s.  An epoch that ends with a non-finite mean objective or
    vectors (a learning rate too large) raises ``NonFiniteError``.
    """
    sequences = [list(seq) for seq in raw_corpus]
    if not any(sequences):
        raise ValueError("skip-gram corpus is empty")
    vocab = build_vocab(sequences, min_freq=cfg.min_freq)
    if len(vocab) < cfg.negatives + 1:
        raise ValueError(
            f"vocabulary of {len(vocab)} tokens is too small for {cfg.negatives} negatives")

    encoded = [np.asarray(vocab.encode(seq), dtype=np.int64) for seq in sequences if seq]
    counts = np.zeros(len(vocab), dtype=np.int64)
    for ids in encoded:
        np.add.at(counts, ids, 1)
    cum = _negative_table(counts)

    w_in = (rng.random((len(vocab), cfg.dim)) - 0.5) / cfg.dim
    w_out = np.zeros((len(vocab), cfg.dim))

    total_pairs = sum(_pair_count(len(ids), cfg.window) for ids in encoded) * cfg.epochs
    total_pairs = max(total_pairs, 1)
    tokens = sum(len(ids) for ids in encoded)
    offsets = np.concatenate([np.arange(-cfg.window, 0), np.arange(1, cfg.window + 1)])
    sign = np.ones(cfg.negatives + 1)
    sign[0] = -1.0  # column 0 is the positive, the center itself
    seen = 0
    history: list[float] = []
    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        loss_sum = 0.0
        loss_n = 0
        for ids in encoded:
            n = len(ids)
            if n < 2:
                continue
            pos = np.arange(n)[:, None] + offsets
            valid = (pos >= 0) & (pos < n)                                 # (n, 2w)
            ctx = ids[np.clip(pos, 0, n - 1)]
            m = int(valid.sum())
            alpha = np.zeros(valid.shape)
            alpha[valid] = _learning_rate(cfg.lr, seen + np.arange(1, m + 1), total_pairs)
            seen += m
            negs = _draw_negatives(cum, rng.random((n, cfg.negatives)))
            targets = np.concatenate([ids[:, None], negs], axis=1)         # (n, K+1)
            keep = np.ones(targets.shape, dtype=bool)
            keep[:, 1:] = negs != ids[:, None]
            mask = valid[:, :, None] & keep[:, None, :]                    # (n, 2w, K+1)
            x = w_in[ctx]                                                  # (n, 2w, d)
            y = w_out[targets]                                             # (n, K+1, d)
            # z = -score for the positive and +score for the negatives;
            # the objective is sum log(1 + e^z), its gradient sign * sig(z).
            z = np.clip(x @ y.transpose(0, 2, 1), -30.0, 30.0) * sign
            loss_sum += float(np.log1p(np.exp(z))[mask].sum())
            loss_n += m
            err = (sign / (1.0 + np.exp(-z))) * mask * alpha[:, :, None]
            scatter_add(w_in, ctx[valid], -(err @ y)[valid])
            scatter_add(w_out, targets, -(err.transpose(0, 2, 1) @ x))
        mean = loss_sum / max(loss_n, 1)
        history.append(mean)
        log.info("skip-gram epoch %d/%d: mean objective %.6f over %d pairs, %.0f tokens/s",
                 epoch + 1, cfg.epochs, mean, loss_n,
                 tokens / max(time.perf_counter() - started, 1e-9))
        if not (math.isfinite(mean) and np.isfinite(w_in).all() and np.isfinite(w_out).all()):
            raise NonFiniteError(f"skip-gram diverged in epoch {epoch + 1} "
                                 f"(mean objective {mean}); lower the learning rate")
    matrix = EmbeddingMatrix(vocab, w_in)
    matrix.loss_history = history
    return matrix


def save_embeddings(matrix: EmbeddingMatrix, path) -> None:
    """Write the word2vec text format: "<|V|> <dim>" header, then one
    "<token> <v1> ... <vdim>" line per row in id order.  Values print at
    17 significant digits, which round-trips float64 exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(matrix.vocab)} {matrix.dim}\n")
        for token, row in zip(matrix.vocab.id_to_token, matrix.vectors):
            values = " ".join(f"{v:.17g}" for v in row)
            fh.write(f"{token} {values}\n")


def load_embeddings(path) -> EmbeddingMatrix:
    """Read the text format back; reserved tokens are forced into their
    fixed ids and synthesized (PAD as zeros, others as zeros with a
    warning) when the file lacks them."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: malformed embedding header {header!r}")
        try:
            n_rows, dim = int(header[0]), int(header[1])
        except ValueError as err:
            raise ValueError(f"{path}: malformed embedding header {header!r}") from err
        tokens: list[str] = []
        vectors: list[np.ndarray] = []
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                raise ValueError(
                    f"{path}:{line_no}: expected {dim} values, found {len(parts) - 1}")
            try:
                row = np.asarray([float(v) for v in parts[1:]], dtype=np.float64)
            except ValueError as err:
                raise ValueError(f"{path}:{line_no}: {err}") from err
            if not np.all(np.isfinite(row)):
                raise ValueError(f"{path}:{line_no}: embedding values must be finite")
            tokens.append(parts[0])
            vectors.append(row)
    if len(tokens) != n_rows:
        raise ValueError(f"{path}: header promises {n_rows} rows, file holds {len(tokens)}")
    if len(set(tokens)) != len(tokens):
        raise ValueError(f"{path}: duplicate tokens in embedding file")

    by_token = dict(zip(tokens, vectors))
    for reserved in RESERVED:
        if reserved not in by_token:
            log.warning("embedding file %s lacks %s; synthesizing a zero row", path, reserved)
            by_token[reserved] = np.zeros(dim)
    ordered = list(RESERVED) + [t for t in tokens if t not in RESERVED]
    matrix = np.stack([by_token[t] for t in ordered])
    return EmbeddingMatrix(Vocabulary(ordered), matrix)
