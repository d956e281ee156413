import dataclasses
import json
import weakref

import numpy as np
import pytest

from fnr import autodiff, training
from fnr.data import CorpusSplit, QaRecord, collate, make_example
from fnr.model import SanConfig, SanParams, batch_loss, forward_batch
from fnr.training import DivergenceError, EpochLog, Metrics, TrainConfig, evaluate, train
from fnr.vocab import build_vocab


def tiny_dataset(n=8, seed=0, bank_size=2, max_len=6):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(12)]
    records, banks = [], []
    for i in range(n):
        toks = [words[j] for j in rng.choice(len(words), size=4, replace=False)]
        tags = ["F" if rng.random() < 0.5 else "O" for _ in toks]
        records.append(QaRecord(f"p{i}", "cat", toks, tags=tags))
        banks.append([QaRecord("b", "cat", [words[j] for j in rng.choice(len(words), size=3)])
                      for _ in range(bank_size)])
    vocab = build_vocab([r.question_tokens for r in records] +
                        [b.question_tokens for bk in banks for b in bk])
    examples = [make_example(r, b, vocab, max_len=max_len, bank_size=bank_size)
                for r, b in zip(records, banks)]
    return vocab, examples


def tiny_cfg(variant="san", seed=1, dropout=0.0):
    return SanConfig(embedding_dim=6, hidden_size=5, attention_dim=5, max_len=6,
                     bank_size=2, dropout=dropout, variant=variant, seed=seed)


class TestTrain:
    def test_two_runs_identical_logs_and_params(self):
        vocab, examples = tiny_dataset()
        split = CorpusSplit(train=examples[:6], validation=examples[6:], test=[])
        tcfg = TrainConfig(lr=0.01, batch_size=4, max_epochs=4, patience=3)
        runs = []
        for _ in range(2):
            params, logs = train(tiny_cfg(seed=5, dropout=0.1), tcfg, split, vocab)
            runs.append(([e.to_json() for e in logs], params.group.copy_values()))
        assert runs[0][0] == runs[1][0]
        for name in runs[0][1]:
            assert np.array_equal(runs[0][1][name], runs[1][1][name])

    def test_frozen_model_stops_after_patience(self):
        # With an lr so small nothing changes, validation F1 never improves
        # after epoch 1, so patience=5 stops the run at epoch 6.
        vocab, examples = tiny_dataset()
        split = CorpusSplit(train=examples[:6], validation=examples[6:], test=[])
        tcfg = TrainConfig(lr=1e-12, batch_size=8, max_epochs=50, patience=5)
        _, logs = train(tiny_cfg(), tcfg, split, vocab)
        assert len(logs) == 6

    def test_single_full_batch_step_decreases_eval_loss(self):
        # Dropout off, one Adam step at a small lr on the full batch: the
        # training loss evaluated before and after must go down.
        from fnr.autodiff import Tape
        from fnr.optim import adam_step

        vocab, examples = tiny_dataset()
        cfg = tiny_cfg()
        batch = collate(examples)
        params = SanParams.build(cfg, len(vocab), np.random.default_rng(cfg.seed))

        def eval_loss():
            probs, _ = forward_batch(batch, params, cfg)
            return batch_loss(probs, batch.gold, batch.mask).item()

        before = eval_loss()
        with Tape() as tape:
            probs, _ = forward_batch(batch, params, cfg)
            loss = batch_loss(probs, batch.gold, batch.mask)
        adam_step(params.group, tape.gradients(loss), lr=1e-4)
        assert eval_loss() < before

    def test_divergence_aborts_with_location(self):
        vocab, examples = tiny_dataset()
        split = CorpusSplit(train=examples[:6], validation=examples[6:], test=[])
        tcfg = TrainConfig(lr=1e200, batch_size=3, max_epochs=5, patience=2)
        with pytest.raises(DivergenceError, match=r"epoch \d+, batch \d+"):
            train(tiny_cfg(), tcfg, split, vocab)

    def test_empty_train_rejected(self):
        vocab, examples = tiny_dataset()
        split = CorpusSplit(train=[], validation=examples, test=[])
        with pytest.raises(ValueError, match="empty"):
            train(tiny_cfg(), TrainConfig(max_epochs=2, patience=1), split, vocab)

    def test_empty_validation_rejected(self):
        # Without validation examples span-F1 stays 0 and early stopping
        # would silently keep the epoch-1 weights.
        vocab, examples = tiny_dataset()
        split = CorpusSplit(train=examples, validation=[], test=[])
        with pytest.raises(ValueError, match="validation split is empty"):
            train(tiny_cfg(), TrainConfig(max_epochs=2, patience=1), split, vocab)

    def test_best_checkpoint_restored(self):
        # The returned parameters must reproduce the best epoch's val score.
        vocab, examples = tiny_dataset(n=10)
        split = CorpusSplit(train=examples[:7], validation=examples[7:], test=[])
        tcfg = TrainConfig(lr=0.05, batch_size=4, max_epochs=8, patience=7)
        cfg = tiny_cfg(seed=3)
        params, logs = train(cfg, tcfg, split, vocab)
        best = max(e.val_metrics.span_f1 for e in logs)
        assert evaluate(params, cfg, split.validation).span_f1 == best

    def test_previous_step_graph_freed_before_next_forward(self, monkeypatch):
        # Each training forward counts what is still alive of earlier steps'
        # tapes, output probabilities and gradient tables.
        vocab, examples = tiny_dataset()
        split = CorpusSplit(train=examples[:6], validation=examples[6:], test=[])
        refs, live_at_forward = [], []
        gradients = autodiff.Tape.gradients

        def watched_forward(batch, params, cfg, training=False, **kwargs):
            if training:
                live_at_forward.append(sum(ref() is not None for ref in refs))
            probs, traces = forward_batch(batch, params, cfg, training=training, **kwargs)
            if training:
                refs.extend([weakref.ref(autodiff._tape()), weakref.ref(probs.data)])
            return probs, traces

        def watched_gradients(tape, output, seed=None):
            grads = gradients(tape, output, seed)
            refs.append(weakref.ref(grads))
            return grads

        monkeypatch.setattr(training, "forward_batch", watched_forward)
        monkeypatch.setattr(autodiff.Tape, "gradients", watched_gradients)
        tcfg = TrainConfig(lr=0.01, batch_size=2, max_epochs=2, patience=1)
        train(tiny_cfg(dropout=0.1), tcfg, split, vocab)
        assert len(refs) == 18
        assert live_at_forward == [0] * 6

    def test_epoch_log_json_excludes_wall_time(self):
        entry = EpochLog(1, 2.5, Metrics.from_counts(1, 0, 0, 2, 0, 0), wall_time=0.123)
        payload = json.loads(entry.to_json())
        assert set(payload) == {"epoch", "train_loss", "val"}


class TestEvaluate:
    def test_unlabeled_rejected(self):
        vocab, examples = tiny_dataset()
        cfg = tiny_cfg()
        params = SanParams.build(cfg, len(vocab), np.random.default_rng(0))
        unlabeled = dataclasses.replace(examples[0], tag_ids=None)
        with pytest.raises(ValueError, match="unlabeled"):
            evaluate(params, cfg, [examples[0], unlabeled])

    def test_order_invariant(self):
        vocab, examples = tiny_dataset(n=6)
        cfg = tiny_cfg()
        params = SanParams.build(cfg, len(vocab), np.random.default_rng(0))
        a = evaluate(params, cfg, examples)
        b = evaluate(params, cfg, examples[::-1])
        assert a == b

    def test_batching_does_not_change_metrics(self, monkeypatch):
        vocab, examples = tiny_dataset(n=7)
        cfg = tiny_cfg()
        params = SanParams.build(cfg, len(vocab), np.random.default_rng(0))
        whole = evaluate(params, cfg, examples)
        monkeypatch.setattr(training, "EVAL_BATCH_SIZE", 2)
        assert evaluate(params, cfg, examples) == whole


class TestTrainConfig:
    def test_defaults_match_run_settings(self):
        tcfg = TrainConfig()
        assert tcfg.lr == 0.001
        assert tcfg.batch_size == 256
        assert SanConfig().dropout == 0.2

    def test_patience_must_be_positive(self):
        assert TrainConfig(max_epochs=5, patience=5).patience == 5
        with pytest.raises(ValueError):
            TrainConfig(patience=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
