"""Word embeddings: skip-gram pretraining and text-format I/O.

The embedding matrix doubles as a trainable tensor inside the tagger
(shared by the labeled question and the bank branch, looked up with
``autodiff.gather_rows``) and as a standalone artifact pretrained with
skip-gram negative sampling on a raw question corpus.

Pretraining takes one numpy step per sentence: all of the sentence's
(center, context) pairs are scored by batched products, each center's
negatives are shared by its context pairs (Ji et al. 2016, arXiv
1604.04661), and the summed updates are scattered back, the output
vectors' first and then the input vectors', whose errors are recomputed
against the updated output vectors.  The vectors differ from
pair-by-pair SGD; the same seed and corpus give the same vectors, bit
for bit.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .autodiff import NonFiniteError, scatter_add
from .optim import check_lr
from .vocab import PAD_ID, RESERVED, Vocabulary, build_vocab, normalize

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
        check_lr(self.lr)
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


# Centers (tokens) whose set-up one vectorized pass builds.  At the default
# window 5 and 5 negatives a center's set-up arrays take about 1 kB, so a
# block's take about 4 MB whatever the corpus size.  A longer sentence is a
# block of its own, no larger than its own step's arrays.
_BLOCK_CENTERS = 4096


def _sentence_blocks(lengths: Sequence[int]) -> list[tuple[int, int]]:
    """Split sentences of the given lengths, in order, into [lo, hi) runs of
    at most ``_BLOCK_CENTERS`` tokens; a longer sentence runs alone."""
    blocks, lo, size = [], 0, 0
    for i, length in enumerate(lengths):
        if size and size + length > _BLOCK_CENTERS:
            blocks.append((lo, i))
            lo, size = i, 0
        size += length
    if size:
        blocks.append((lo, len(lengths)))
    return blocks


def _pair_terms(x: np.ndarray, y: np.ndarray, sign: np.ndarray):
    """z = -score for the positive column and +score for the negatives,
    so a pair's objective is sum log(1 + e^z); returns z and the
    objective's gradient with respect to the scores, sign * sig(z)."""
    z = np.minimum(np.maximum(x @ y.transpose(0, 2, 1), -30.0), 30.0) * sign
    return z, sign / (1.0 + np.exp(-z))


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
    of the center and its negatives (n, K+1, d) by batched products.  The
    step updates the two blocks in turn: the output vectors first, with
    the errors of the vectors as they were at the start of the sentence,
    then the input vectors, with the errors recomputed against the output
    vectors as that update left them.  ``w_out`` starts at zero, so
    errors taken from the start-of-sentence output vectors alone would
    leave the input vectors of a sentence of unseen words where they
    were, where per-pair SGD lets each pair see the updates made before
    it.  ``np.add.at`` scatters the updates, so a word used twice in a
    sentence gets both.  Each pair keeps its own learning rate from its
    running index, which reaches the floor at the last pair.  The vectors
    therefore differ from pair-by-pair SGD; the same seed gives the same
    vectors.  The per-epoch mean objective per pair, from the first
    errors, is kept on the returned matrix as ``loss_history`` and logged
    with the pair count and tokens/s.  An epoch that ends with a
    non-finite mean objective or vectors (a learning rate too large)
    raises ``NonFiniteError``.

    The set-up that reads no vectors (windows, ``valid``, context ids,
    learning rates, negatives, ``mask`` and ``scale``) is built in one
    vectorized pass per block of consecutive sentences holding at most
    ``_BLOCK_CENTERS`` centers, and each sentence's step runs on its rows
    of the block.  Those rows are the arrays the sentence would build
    alone: its windows are clipped at its own edges, its pairs keep their
    running indices, and one ``rng.random((N, K))`` draw for the block's N
    centers yields the numbers the per-sentence draws yield in turn.  The
    steps run in the same order with the same arithmetic, so the vectors
    and ``loss_history`` are those of building each sentence's set-up
    alone, bit for bit.  The cap bounds the block's arrays at about 4 MB
    at the default window and negatives, whatever the corpus size.
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

    epoch_pairs = sum(_pair_count(len(ids), cfg.window) for ids in encoded)
    total_pairs = max(epoch_pairs * cfg.epochs, 1)
    tokens = sum(len(ids) for ids in encoded)
    trained = [ids for ids in encoded if len(ids) >= 2]   # a 1-token sentence has no pair
    sizes = [len(ids) for ids in trained]
    blocks = _sentence_blocks(sizes)
    offsets = np.concatenate([np.arange(-cfg.window, 0), np.arange(1, cfg.window + 1)])
    sign = np.ones(cfg.negatives + 1)
    sign[0] = -1.0  # column 0 is the positive, the center itself
    seen = 0
    history: list[float] = []
    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        loss_sum = 0.0
        for lo, hi in blocks:
            ids, lengths = np.concatenate(trained[lo:hi]), sizes[lo:hi]
            n = np.repeat(lengths, lengths)[:, None]                      # (N, 1)
            first = np.repeat(np.cumsum(lengths) - lengths, lengths)[:, None]
            pos = np.arange(len(ids))[:, None] - first + offsets           # (N, 2w)
            valid = (pos >= 0) & (pos < n)
            ctx = ids[first + np.clip(pos, 0, n - 1)]
            m = int(valid.sum())
            alpha = np.zeros(valid.shape)
            alpha[valid] = _learning_rate(cfg.lr, seen + np.arange(1, m + 1), total_pairs)
            seen += m
            negs = _draw_negatives(cum, rng.random((len(ids), cfg.negatives)))
            targets = np.concatenate([ids[:, None], negs], axis=1)         # (N, K+1)
            keep = np.ones(targets.shape, dtype=bool)
            keep[:, 1:] = negs != ids[:, None]
            mask = valid[:, :, None] & keep[:, None, :]                    # (N, 2w, K+1)
            scale = mask * alpha[:, :, None]
            rows = np.cumsum([0] + lengths).tolist()
            for a, b in zip(rows, rows[1:]):
                x = w_in[ctx[a:b]]                                         # (n, 2w, d)
                z, grad = _pair_terms(x, w_out[targets[a:b]], sign)
                loss_sum += float(np.log1p(np.exp(z))[mask[a:b]].sum())
                scatter_add(w_out, targets[a:b], -((grad * scale[a:b]).transpose(0, 2, 1) @ x))
                y = w_out[targets[a:b]]                                    # (n, K+1, d)
                _, grad = _pair_terms(x, y, sign)
                scatter_add(w_in, ctx[a:b][valid[a:b]], -((grad * scale[a:b]) @ y)[valid[a:b]])
        mean = loss_sum / max(epoch_pairs, 1)
        history.append(mean)
        log.info("skip-gram epoch %d/%d: mean objective %.6f over %d pairs, %.0f tokens/s",
                 epoch + 1, cfg.epochs, mean, epoch_pairs,
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
    17 significant digits, which round-trips float64 exactly.

    A token that is empty or holds whitespace (``load_corpus`` accepts any
    string token, so a corpus can hold ``""`` or ``"usb c"``) cannot be read
    back by ``load_embeddings``; the first such token raises ``ValueError``
    naming it before the file is opened, so no partial file is left."""
    bad = next((t for t in matrix.vocab.id_to_token if t.split() != [t]), None)
    if bad is not None:
        raise ValueError(f"token {bad!r} is empty or holds whitespace; "
                         "the embedding text format cannot hold it")
    # "%.17g" % v is the same conversion as f"{v:.17g}", and one format
    # per row keeps the per-value work out of the interpreter loop.
    row_format = "%s " + " ".join(["%.17g"] * matrix.dim) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(matrix.vocab)} {matrix.dim}\n")
        for token, row in zip(matrix.vocab.id_to_token, matrix.vectors.tolist()):
            fh.write(row_format % (token, *row))


def load_embeddings(path) -> EmbeddingMatrix:
    """Read the text format back; reserved tokens are forced into their
    fixed ids and synthesized (PAD as zeros, others as zeros with a
    warning) when the file lacks them.  Every other token is stored in
    its vocabulary form (``vocab.normalize``), so a row written as
    ``iPhone`` is the row ``lookup("iPhone")`` finds; two lines whose
    tokens fold to one form are an error naming both lines.  A token that
    is empty or holds whitespace, which no lookup can reach, is an error
    naming its line."""
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
        line_of: dict[str, int] = {}
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
            if parts[0].split() != [parts[0]]:
                raise ValueError(f"{path}:{line_no}: token {parts[0]!r} is empty "
                                 "or holds whitespace")
            token = parts[0] if parts[0] in RESERVED else normalize(parts[0])
            if token in line_of:
                raise ValueError(f"{path}: lines {line_of[token]} and {line_no} both hold "
                                 f"the token {token!r} once case-folded")
            line_of[token] = line_no
            tokens.append(token)
            vectors.append(row)
    if len(tokens) != n_rows:
        raise ValueError(f"{path}: header promises {n_rows} rows, file holds {len(tokens)}")

    by_token = dict(zip(tokens, vectors))
    for reserved in RESERVED:
        if reserved not in by_token:
            log.warning("embedding file %s lacks %s; synthesizing a zero row", path, reserved)
            by_token[reserved] = np.zeros(dim)
    ordered = list(RESERVED) + [t for t in tokens if t not in RESERVED]
    matrix = np.stack([by_token[t] for t in ordered])
    return EmbeddingMatrix(Vocabulary(ordered), matrix)
