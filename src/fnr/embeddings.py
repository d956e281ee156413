"""Word embeddings: skip-gram pretraining and text-format I/O.

The embedding matrix doubles as a trainable tensor inside the tagger
(shared by the labeled question and the bank branch, looked up with
``autodiff.gather_rows``) and as a standalone artifact pretrained with
skip-gram negative sampling on a raw question corpus.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

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
        if self.dim < 1 or self.epochs < 1 or self.lr <= 0:
            raise ValueError("dim/epochs/lr must be positive")


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
    """Cumulative unigram^0.75 distribution for inverse-CDF sampling."""
    weights = counts.astype(np.float64) ** 0.75
    weights[PAD_ID] = 0.0
    total = weights.sum()
    if total <= 0:
        raise ValueError("no tokens available for negative sampling")
    return np.cumsum(weights / total)


def _pair_count(length: int, window: int) -> int:
    """(center, context) pairs in a sentence of ``length`` tokens: each
    offset d = 1..min(window, length - 1) pairs ``length - d`` tokens, in
    both directions."""
    m = max(0, min(window, length - 1))
    return m * (2 * length - m - 1)


def _learning_rate(lr: float, seen: int, total_pairs: int) -> float:
    """Linear decay from ``lr`` to the ``lr * 1e-4`` floor at the last pair."""
    return max(lr * (1.0 - seen / total_pairs), lr * 1e-4)


def train_skipgram(raw_corpus: Iterable[Sequence[str]], cfg: SgnsConfig,
                   rng: np.random.Generator) -> EmbeddingMatrix:
    """Pretrain embeddings with skip-gram negative sampling.

    Negatives are drawn from the unigram^0.75 distribution; draws that
    collide with the positive context are skipped, as in the reference
    implementation of the method.  The per-epoch mean objective is kept on
    the returned matrix as ``loss_history``.
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
    seen = 0
    history: list[float] = []
    for _ in range(cfg.epochs):
        loss_sum = 0.0
        loss_n = 0
        for ids in encoded:
            n = len(ids)
            for i in range(n):
                center = ids[i]
                lo = max(0, i - cfg.window)
                hi = min(n, i + cfg.window + 1)
                for j in range(lo, hi):
                    if j == i:
                        continue
                    seen += 1
                    alpha = _learning_rate(cfg.lr, seen, total_pairs)
                    context = ids[j]
                    negs = np.searchsorted(cum, rng.random(cfg.negatives))
                    negs = negs[negs != context]
                    targets = np.concatenate(([context], negs))
                    labels = np.zeros(len(targets))
                    labels[0] = 1.0
                    v = w_in[center]
                    u = w_out[targets]
                    scores = np.clip(u @ v, -30.0, 30.0)
                    preds = 1.0 / (1.0 + np.exp(-scores))
                    # objective: -[log sig(pos) + sum log sig(-neg)]
                    loss_sum += float(np.log1p(np.exp(-scores[0]))
                                      + np.log1p(np.exp(scores[1:])).sum())
                    loss_n += 1
                    err = (preds - labels)[:, None]
                    grad_v = (err * u).sum(axis=0)
                    w_out[targets] -= alpha * err * v
                    w_in[center] -= alpha * grad_v
        history.append(loss_sum / max(loss_n, 1))
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
