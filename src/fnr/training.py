"""Mini-batch training with Adam and validation-based early stopping,
plus evaluation.

Everything is deterministic given the seed, the BLAS library and its
thread count: epoch shuffles and dropout masks come from one generator,
batches run sequentially, and gradient accumulation is an ordered sum, so
two such runs with the same configuration produce bit-identical
checkpoints and epoch logs.  At the paper's sizes the backward's products
change in the last bit between 1 and 2 OpenBLAS threads.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .autodiff import NonFiniteError, Tape
from .data import CorpusSplit, Example, collate
from .embeddings import EmbeddingMatrix
from .metrics import Metrics, score_predictions
from .model import SanConfig, SanParams, batch_loss, forward_batch, predict_tags
from .optim import adam_step, check_lr
from .vocab import Vocabulary

# Examples per forward in ``predict``/``evaluate``; metrics do not depend on it.
EVAL_BATCH_SIZE = 64


class DivergenceError(RuntimeError):
    """Training hit a non-finite loss or update."""


@dataclass
class TrainConfig:
    lr: float = 0.001
    batch_size: int = 256
    max_epochs: int = 50
    patience: int = 5

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        check_lr(self.lr)


@dataclass
class EpochLog:
    """One epoch's record.  ``wall_time`` is kept in memory for progress
    reporting but stays out of the serialized form so that logs from
    identical runs compare bit-for-bit."""
    epoch: int
    train_loss: float
    val_metrics: Metrics
    wall_time: float

    def to_json(self) -> str:
        return json.dumps({
            "epoch": self.epoch,
            "train_loss": self.train_loss,
            "val": self.val_metrics.to_dict(),
        }, sort_keys=True)


def predict(params: SanParams, cfg: SanConfig, examples: Sequence[Example]) -> list[list[str]]:
    """Eval-mode tag sequences for each example, valid positions only."""
    out: list[list[str]] = []
    for lo in range(0, len(examples), EVAL_BATCH_SIZE):
        batch = collate(examples[lo:lo + EVAL_BATCH_SIZE])
        probs, _ = forward_batch(batch, params, cfg, training=False)
        for i, ex in enumerate(batch.examples):
            out.append(predict_tags(probs.data[i], ex.mask))
    return out


def evaluate(params: SanParams, cfg: SanConfig, examples: Sequence[Example]) -> Metrics:
    """Span- and token-level metrics against gold tags."""
    unlabeled = [e for e in examples if e.tag_ids is None]
    if unlabeled:
        raise ValueError("evaluation set contains unlabeled examples")
    preds = predict(params, cfg, examples)
    items = [(pred, ex.gold_tags(), ex.tokens) for pred, ex in zip(preds, examples)]
    return score_predictions(items)


def _train_step(batch, params: SanParams, cfg: SanConfig, lr: float,
                rng: np.random.Generator) -> float:
    """One Adam step on the batch's summed loss, which it returns.  The
    step's tape, probabilities and gradients live only in this scope, so
    they are freed before the next step's forward starts."""
    with Tape() as tape:
        probs, _ = forward_batch(batch, params, cfg, training=True, rng=rng)
        loss = batch_loss(probs, batch.gold, batch.mask)
    adam_step(params.group, tape.gradients(loss), lr=lr)
    return loss.item()


def train(cfg: SanConfig, tcfg: TrainConfig, split: CorpusSplit, vocab: Vocabulary,
          pretrained: EmbeddingMatrix | None = None,
          epoch_sink: Callable[[EpochLog], None] | None = None) -> tuple[SanParams, list[EpochLog]]:
    """Train one variant, keeping the checkpoint with the best validation
    span-F1 and stopping after ``patience`` epochs without improvement.

    The per-batch objective is the summed cross entropy over the batch's
    examples; one Adam step runs per batch and the last partial batch is
    kept.  ``cfg.seed`` seeds both the initial weights and the generator
    of epoch shuffles and dropout masks; ``cfg.dropout`` is the rate.
    Divergence aborts with the epoch/batch location.  Both the
    training and the validation split must be non-empty: with no
    validation examples span-F1 would stay 0 and the epoch-1 weights
    would be kept.
    """
    if not split.train:
        raise ValueError("training split is empty")
    if not split.validation:
        raise ValueError("validation split is empty")
    params = SanParams.build(cfg, len(vocab), np.random.default_rng(cfg.seed), pretrained)
    rng = np.random.default_rng(cfg.seed)
    best_values = best_f1 = None   # set by epoch 1, which always runs
    stale = 0
    logs: list[EpochLog] = []
    for epoch in range(1, tcfg.max_epochs + 1):
        started = time.monotonic()
        order = rng.permutation(len(split.train))
        epoch_loss = 0.0
        for batch_idx, lo in enumerate(range(0, len(order), tcfg.batch_size)):
            members = [split.train[i] for i in order[lo:lo + tcfg.batch_size]]
            try:
                epoch_loss += _train_step(collate(members), params, cfg, tcfg.lr, rng)
            except NonFiniteError as err:
                raise DivergenceError(
                    f"training diverged at epoch {epoch}, batch {batch_idx}: {err}") from err
        val_metrics = evaluate(params, cfg, split.validation)
        entry = EpochLog(epoch, epoch_loss, val_metrics, time.monotonic() - started)
        logs.append(entry)
        if epoch_sink is not None:
            epoch_sink(entry)
        if best_f1 is None or val_metrics.span_f1 > best_f1:
            best_f1 = val_metrics.span_f1
            best_values = params.group.copy_values()
            stale = 0
        else:
            stale += 1
            if stale >= tcfg.patience:
                break
    params.group.load_values(best_values)
    return params, logs

