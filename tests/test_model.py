import collections
import dataclasses
import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from fnr import autodiff, model as fmodel
from fnr.autodiff import Tape, Tensor, gather_rows
from fnr.data import F_INDEX, O_INDEX, QaRecord, collate, make_example
from fnr.embeddings import EmbeddingMatrix
from fnr.model import (CheckpointError, Probabilities, SanConfig, SanParams, batch_loss,
                       extract_spans, forward_batch, load_model, predict_tags,
                       save_model)
from fnr.optim import ParamGroup, adam_step, grad_check
from fnr.vocab import EOS_TOKEN, PAD_ID, RESERVED, Vocabulary
from checkpoint_files import read_checkpoint, rewrite_checkpoint


def build(cfg, vocab, seed=0):
    return SanParams.build(cfg, len(vocab), np.random.default_rng(seed))


def probs_of(example, params, cfg, **kwargs):
    """(T, |L|) probabilities of one example through forward_batch."""
    probs, _ = forward_batch(collate([example]), params, cfg, **kwargs)
    return probs.data[0]


class TestForward:
    def test_valid_rows_sum_to_one(self, tiny_cfg, tiny_vocab, fig_example):
        params = build(tiny_cfg, tiny_vocab)
        probs = probs_of(fig_example, params, tiny_cfg)
        assert np.allclose(probs[:4].sum(axis=-1), 1.0, atol=1e-9)

    def test_zero_projection_gives_uniform(self, tiny_cfg, tiny_vocab, fig_example):
        params = build(tiny_cfg, tiny_vocab)
        params.group.assign("proj.w", ..., 0.0)
        params.group.assign("proj.b", ..., 0.0)
        probs = probs_of(fig_example, params, tiny_cfg)
        assert np.allclose(probs[:4], 0.5, atol=1e-12)

    def test_unpreprocessed_length_rejected(self, tiny_cfg, tiny_vocab, fig_example):
        params = build(tiny_cfg, tiny_vocab)
        import dataclasses
        bad_cfg = dataclasses.replace(tiny_cfg, max_len=9)
        with pytest.raises(ValueError, match="max_len"):
            probs_of(fig_example, params, bad_cfg)

    def test_train_mode_needs_rng(self, tiny_vocab, fig_example):
        cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                        bank_size=2, dropout=0.2, variant="san", seed=1)
        params = build(cfg, tiny_vocab)
        with pytest.raises(ValueError, match="rng"):
            probs_of(fig_example, params, cfg, training=True)

    def test_eval_mode_identity(self, tiny_vocab, fig_example):
        cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                        bank_size=2, dropout=0.5, variant="san", seed=1)
        params = build(cfg, tiny_vocab)
        no_dropout = dataclasses.replace(cfg, dropout=0.0)
        assert np.array_equal(probs_of(fig_example, params, cfg),
                              probs_of(fig_example, params, no_dropout))

    def test_dropout_training_only(self, tiny_vocab, fig_example):
        cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                        bank_size=2, dropout=0.5, variant="san", seed=1)
        params = build(cfg, tiny_vocab)
        eval_out = probs_of(fig_example, params, cfg)
        trained = probs_of(fig_example, params, cfg, training=True,
                           rng=np.random.default_rng(12))
        assert not np.array_equal(trained, eval_out)
        no_dropout = dataclasses.replace(cfg, dropout=0.0)
        assert np.array_equal(probs_of(fig_example, params, no_dropout, training=True),
                              eval_out)

    def test_sblstm_independent_of_bank_contents(self, tiny_vocab):
        cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                        bank_size=2, dropout=0.0, variant="sblstm", seed=2)
        params = build(cfg, tiny_vocab)
        rec = QaRecord("p", "c", ["works", "with", "iphone", "?"], tags=None)
        bank_a = [QaRecord("a", "c", ["video", "calls"])]
        bank_b = [QaRecord("b", "c", ["good", "it", "does"]),
                  QaRecord("b2", "c", ["?"])]
        ex_a = make_example(rec, bank_a, tiny_vocab, max_len=6, bank_size=2)
        ex_b = make_example(rec, bank_b, tiny_vocab, max_len=6, bank_size=2)
        pa = probs_of(ex_a, params, cfg)
        pb = probs_of(ex_b, params, cfg)
        assert np.array_equal(pa, pb)

    def test_zero_attention_params_match_empty_bank(self, tiny_vocab, fig_example):
        cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                        bank_size=2, dropout=0.0, variant="san", seed=3)
        params = build(cfg, tiny_vocab)
        for name in params.group.names():
            if name.startswith("attention."):
                params.group.assign(name, ..., 0.0)
        with_banks = probs_of(fig_example, params, cfg)
        empty = make_example(fig_example.record, [], tiny_vocab, max_len=6, bank_size=2)
        without = probs_of(empty, params, cfg)
        assert np.allclose(with_banks, without, atol=1e-12)

    def test_variant_wiring_widths(self, tiny_vocab):
        for variant, has_bank, has_l2 in (("san", True, True),
                                          ("sblstm", False, True),
                                          ("san-noblstm2", True, False)):
            cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                            bank_size=2, dropout=0.0, variant=variant, seed=4)
            params = build(cfg, tiny_vocab)
            names = params.group.names()
            assert any(n.startswith("bank.") for n in names) == has_bank
            assert any(n.startswith("attention.") for n in names) == has_bank
            assert any(n.startswith("blstm2.") for n in names) == has_l2
            assert params.proj_w.shape == (2, cfg.projection_width)

    def test_one_bank_encoder_regardless_of_bank_count(self, tiny_vocab):
        cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                        bank_size=5, dropout=0.0, variant="san", seed=6)
        params = build(cfg, tiny_vocab)
        bank_tensors = [n for n in params.group.names() if n.startswith("bank.")]
        assert len(bank_tensors) == 6  # 2 directions x (w_x, w_h, b)
        assert len(params.group) == 27

    def test_dropout_deterministic_given_seed(self, tiny_vocab, fig_example):
        cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                        bank_size=2, dropout=0.3, variant="san", seed=7)
        params = build(cfg, tiny_vocab)
        a = probs_of(fig_example, params, cfg, training=True,
                     rng=np.random.default_rng(42))
        b = probs_of(fig_example, params, cfg, training=True,
                     rng=np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_tape_length_independent_of_max_len(self, tiny_vocab):
        rec = QaRecord("p1", "laptop", ["works", "with", "iphone", "?"],
                       tags=["F", "F", "F", "O"])
        bank = [QaRecord("p2", "laptop", ["does", "it", "video", "calls", "?"])]
        lengths = []
        for max_len in (6, 12):
            cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4,
                            max_len=max_len, bank_size=2, dropout=0.0, variant="san",
                            seed=1)
            batch = collate([make_example(rec, bank, tiny_vocab, max_len=max_len,
                                          bank_size=2)])
            with Tape() as tape:
                probs, _ = forward_batch(batch, build(cfg, tiny_vocab), cfg)
                batch_loss(probs, batch.gold, batch.mask)
            lengths.append(len(tape))
        assert lengths[0] == lengths[1]


def tape_mix_order(tape):
    """The op of each node in recording order, named by the function whose
    backward it holds."""
    return [backward.__qualname__.split(".")[0] for _, _, backward in tape._nodes]


def tape_mix(tape):
    """Nodes per op."""
    return collections.Counter(tape_mix_order(tape))


class TestTapeMix:
    def test_san_training_step(self, tiny_vocab, fig_example):
        cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                        bank_size=2, dropout=0.2, variant="san", seed=1)
        batch = collate([fig_example])
        with Tape() as tape:
            probs, _ = forward_batch(batch, build(cfg, tiny_vocab), cfg, training=True,
                                     rng=np.random.default_rng(0))
            batch_loss(probs, batch.gold, batch.mask)
        # Embedding lookups for questions and banks, one node per BLSTM
        # (dropout included), then one node each for the bank transform,
        # attention, the projection and the loss.
        assert tape_mix(tape) == {"gather_rows": 2, "blstm_forward": 3, "transform_bank": 1,
                                  "bank_attend_batch": 1, "linear": 1, "batch_loss": 1}
        assert len(tape) == 9

    @pytest.mark.parametrize("variant, bank_size, nodes", [
        ("san", 2, 8), ("san-noblstm2", 2, 7), ("sblstm", 2, 4), ("san", 0, 5)])
    def test_training_step_node_count(self, tiny_vocab, fig_example, variant, bank_size, nodes):
        # ``nodes`` are the forward's; the loss records one more.
        cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                        bank_size=bank_size, dropout=0.2, variant=variant, seed=1)
        batch = collate([make_example(fig_example.record, fig_example.bank, tiny_vocab,
                                      max_len=6, bank_size=bank_size)])
        params = build(cfg, tiny_vocab)
        with Tape() as tape:
            probs, _ = forward_batch(batch, params, cfg, training=True,
                                     rng=np.random.default_rng(0))
            assert len(tape) == nodes
            batch_loss(probs, batch.gold, batch.mask)
        assert len(tape) == nodes + 1
        assert (params.bank_encoded, params.bank_served) == (0, 0)

    @staticmethod
    def paper_dims_batch():
        """H = A = d = 100, T = 40, U = 5; questions of 1 to 40 tokens,
        banks of 0 to 5 questions of 1 to 40 tokens."""
        rng = np.random.default_rng(5)
        vocab = Vocabulary(list(RESERVED) + [f"w{i}" for i in range(60)])
        words = lambda n: [f"w{i}" for i in rng.integers(0, 60, size=n)]  # noqa: E731
        examples = []
        for n in (1, 6, 12, 17, 23, 29, 35, 40):
            rec = QaRecord(f"q{n}", "c", words(n), tags=list(rng.choice(["F", "O"], size=n)))
            bank = [QaRecord(f"b{n}-{u}", "c", words(m))
                    for u, m in enumerate((40, 3, 1, 22, 9)[:n % 6])]
            examples.append(make_example(rec, bank, vocab))
        cfg = SanConfig()
        return collate(examples), build(cfg, vocab), cfg

    def test_san_step_gradients_finite_at_paper_dims(self):
        batch, params, cfg = self.paper_dims_batch()
        with Tape() as tape:
            probs, _ = forward_batch(batch, params, cfg, training=True,
                                     rng=np.random.default_rng(0))
            loss = batch_loss(probs, batch.gold, batch.mask)
        assert len(tape) == 9
        grads = tape.gradients(loss)
        for name, t in params.group.items():
            assert np.all(np.isfinite(grads[t])), name
        assert np.any(grads[params.attention.w_k2] != 0.0)

    def test_layers_pass_packed_rows(self):
        # From the embedding lookups through the projection every node
        # outputs one row per valid question or bank token.
        batch, params, cfg = self.paper_dims_batch()
        with Tape() as tape:
            forward_batch(batch, params, cfg, training=True, rng=np.random.default_rng(0))
        n_q, n_b = int(batch.mask.sum()), int(batch.bank_mask.sum())
        assert n_q != n_b
        width, attn = cfg.encoder_width, cfg.attention_dim
        shapes = [(op, out.shape) for op, (out, _, _) in zip(tape_mix_order(tape), tape._nodes)]
        assert shapes == [("gather_rows", (n_q, cfg.embedding_dim)),
                          ("blstm_forward", (n_q, width)),
                          ("gather_rows", (n_b, cfg.embedding_dim)),
                          ("blstm_forward", (n_b, width)),
                          ("transform_bank", (n_b, attn)),
                          ("bank_attend_batch", (n_q, width + attn)),
                          ("blstm_forward", (n_q, width)),
                          ("linear", (n_q, 2))]
        words = params.bank_words(batch.bank_ids, batch.bank_mask).data
        assert words.shape == (n_b, attn)

    def test_san_step_keeps_what_its_nodes_document(self, traced):
        # The forward of a training step keeps what each node says it
        # keeps, summed from the shapes, plus a fixed slack for the Python
        # objects: one more (n, 2H) or (U, N, A) array exceeds the bound.
        batch, params, cfg = self.paper_dims_batch()
        n_q, n_b = int(batch.mask.sum()), int(batch.bank_mask.sum())
        b_sz, t_len = batch.mask.shape
        hidden, attn, dim, n_banks = (cfg.hidden_size, cfg.attention_dim, cfg.embedding_dim,
                                      cfg.bank_size)
        item, ids, index = 8, batch.ids.itemsize, np.dtype(np.intp).itemsize

        def blstm(n, dropout):
            # Per direction the four gate activations and the packed row
            # index; the (n, 2H) output; with dropout, its bool keep mask.
            return 2 * (4 * hidden * item + index) * n + 2 * hidden * n * (item + dropout)

        q_len = batch.mask.sum(axis=1).astype(int)
        t_bank = batch.bank_mask.sum(axis=2).max(axis=1).astype(int)
        level1 = sum(n_banks * q * (t + 1) for q, t in zip(q_len, t_bank) if q and t)
        kept = (
            (dim * item + ids) * (n_q + n_b)                  # embedding rows and their ids
            + blstm(n_q, True) + blstm(n_b, False)            # blstm1, bank BLSTM
            + attn * n_b * item                               # transform_bank's output
            # bank_attend_batch: output, query transform, level-1 e and z,
            # level-2 weights, e and z
            + (n_q * (2 * hidden + attn) + n_q * attn + level1 + 3 * n_banks * n_q) * item
            + blstm(n_q, True)                                # blstm2
            + n_q * 2 * item                                  # linear
            + n_q * 2 * item                                  # loss: p - y
            + b_sz * t_len * (2 * item + 1))                  # probabilities, valid mask
        slack = 64 * 1024
        assert slack < 2 * hidden * n_q * item < n_banks * n_q * attn * item

        def forward():
            with Tape() as tape:
                probs, _ = forward_batch(batch, params, cfg, training=True,
                                         rng=np.random.default_rng(0))
                return tape, batch_loss(probs, batch.gold, batch.mask)
        (tape, _), live, _ = traced(forward)
        assert len(tape) == 9
        assert live < kept + slack

    def test_head_calls_the_names_the_benchmark_patches(self, tiny_vocab, fig_example,
                                                        monkeypatch):
        # benchmarks/workloads.py times the layers by replacing these
        # module attributes of fnr.model; the head's span covers the
        # projection and the probability pass, one call each per forward.
        for name in ("gather_rows", "blstm_forward", "bank_attend_batch", "linear", "softmax"):
            assert callable(getattr(fmodel, name)), name
        calls = collections.Counter()

        def counted(name):
            real = getattr(fmodel, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        for name in ("linear", "softmax"):
            monkeypatch.setattr(fmodel, name, counted(name))
        cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                        bank_size=2, dropout=0.2, variant="san", seed=1)
        batch = collate([fig_example])
        with Tape():
            forward_batch(batch, build(cfg, tiny_vocab), cfg, training=True,
                          rng=np.random.default_rng(0))
        assert calls == {"linear": 1, "softmax": 1}

    def test_head_span_counts_the_head_softmax_only(self, tiny_vocab, fig_example,
                                                     monkeypatch):
        # The attention runs the head's softmax function under its own
        # import, so the patched fnr.model.softmax of the benchmark's head
        # span sees the head's one call per forward, none of the
        # attention's, with the bank attention running.
        assert fmodel.softmax is autodiff.softmax
        real, shapes = fmodel.softmax, []

        def counted(*args, **kwargs):
            shapes.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(fmodel, "softmax", counted)
        cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                        bank_size=2, dropout=0.0, variant="san", seed=1)
        batch = collate([fig_example])
        assert batch.bank_mask.sum() > 0
        _, traces = forward_batch(batch, build(cfg, tiny_vocab), cfg, want_trace=True)
        assert shapes == [(int(batch.mask.sum()), 2)]
        assert np.allclose(traces[0].level2_weights[:4].sum(axis=-1), 1.0)


class TestSaturatedLogits:
    """Logits saturated past where the losing label's probability
    underflows to 0 (a gap of 746 at float64, 104 at float32): the loss is
    the gap per token whose gold label loses, and the logit gradient is
    p - y, both exact."""

    @pytest.mark.parametrize("dtype, gap", [(np.float64, 800.0), (np.float32, 104.0)],
                             ids=["float64", "float32"])
    def test_loss_and_gradient_exact(self, dtype, gap):
        batch, params, cfg = TestTapeMix.paper_dims_batch()
        params = SanParams.build(cfg, params.embedding.shape[0], np.random.default_rng(0),
                                 dtype=dtype)
        params.group.assign("proj.w", ..., 0.0)
        params.group.assign("proj.b", F_INDEX, gap)
        with Tape() as tape:
            probs, _ = forward_batch(batch, params, cfg)
            loss = batch_loss(probs, batch.gold, batch.mask)
        grads = tape.gradients(loss)
        n_o = int(np.sum(batch.gold[batch.mask > 0] == O_INDEX))
        assert 0 < n_o < batch.mask.sum()
        assert loss.item() == gap * n_o
        assert grads[params.proj_b].tolist() == [n_o, -n_o]


def walk_without_popping(tape, output):
    """Gradients of every tensor from a reverse walk over the tape's nodes
    that frees nothing: the reference for ``Tape.gradients``, which frees
    each node once its backward has run."""
    table = {id(output): [output, np.ones_like(output.data)]}
    for out, inputs, backward in reversed(tape._nodes):
        entry = table.get(id(out))
        if entry is None:
            continue
        for inp, g in zip(inputs, backward(entry[1]), strict=True):
            cur = table.get(id(inp))
            if cur is None:
                table[id(inp)] = [inp, g]
            else:
                cur[1] = cur[1] + g
    return table


class TestTapeMemory:
    def san_step(self, vocab, example):
        cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                        bank_size=2, dropout=0.2, variant="san", seed=1)
        params = build(cfg, vocab)
        batch = collate([example, example])
        with Tape() as tape:
            probs, _ = forward_batch(batch, params, cfg, training=True,
                                     rng=np.random.default_rng(0))
            loss = batch_loss(probs, batch.gold, batch.mask)
        return params, tape, probs, loss

    def test_leaf_gradients_match_walk_without_popping(self, tiny_vocab, fig_example):
        # Two recordings of the same step (same parameters, same dropout
        # draws): the reference walks one, ``Tape.gradients`` the other, so
        # no backward closure runs twice.
        ref_params, ref_tape, _, ref_loss = self.san_step(tiny_vocab, fig_example)
        expected = walk_without_popping(ref_tape, ref_loss)
        params, tape, _, loss = self.san_step(tiny_vocab, fig_example)
        assert np.array_equal(loss.data, ref_loss.data)
        grads = tape.gradients(loss)
        assert len(tape) == 0
        ref = dict(ref_params.group.items())
        for name, t in params.group.items():
            assert np.array_equal(grads[t], expected[id(ref[name])][1]), name

    def test_held_gradients_keep_no_forward_output(self, tiny_vocab, fig_example,
                                                   monkeypatch):
        # Weak references to the BLSTM and bank-transform outputs (and the
        # buffers they view) must die with the tape, while the gradients
        # of the step stay held.
        refs = []

        def watched(fn):
            def call(*args, **kwargs):
                out = fn(*args, **kwargs)
                refs.extend(weakref.ref(a) for a in (out.data, out.data.base)
                            if a is not None)
                return out
            return call

        for name in ("blstm_forward", "transform_bank"):
            monkeypatch.setattr(fmodel, name, watched(getattr(fmodel, name)))
        params, tape, probs, loss = self.san_step(tiny_vocab, fig_example)
        grads = tape.gradients(loss)
        del tape, probs, loss
        assert len(refs) >= 4
        assert [ref() for ref in refs if ref() is not None] == []
        assert np.any(grads[params.attention.w_k] != 0.0)


class TestLoss:
    # One (T, |L|) sequence as a batch of one; ``Probabilities`` takes the
    # valid rows' logits: log-probabilities, or +-40 for a perfect one.
    def test_perfect_predictions_zero_loss(self):
        probs = Probabilities(Tensor(np.array([[40.0, -40.0], [-40.0, 40.0]])), np.ones((1, 2)))
        gold = np.array([[F_INDEX, O_INDEX]])
        loss = batch_loss(probs, gold, np.ones((1, 2)))
        assert loss.item() < 1e-6

    def test_uniform_probs_ln2_per_token(self):
        n = 5
        probs = Probabilities(Tensor(np.log(np.full((n, 2), 0.5))), np.ones((1, n)))
        gold = np.full((1, n), F_INDEX)
        loss = batch_loss(probs, gold, np.ones((1, n)))
        assert abs(loss.item() - n * math.log(2)) < 1e-9

    def test_hand_case(self):
        probs = Probabilities(Tensor(np.log([[0.9, 0.1], [0.2, 0.8]])), np.ones((1, 2)))
        gold = np.array([[F_INDEX, O_INDEX]])
        loss = batch_loss(probs, gold, np.ones((1, 2)))
        assert abs(loss.item() - (-(math.log(0.9) + math.log(0.8)))) < 1e-12

    def test_padding_excluded(self):
        probs = Probabilities(Tensor(np.log([[0.9, 0.1]])), np.array([[1.0, 0.0]]))
        gold = np.array([[F_INDEX, O_INDEX]])
        loss = batch_loss(probs, gold, np.array([[1.0, 0.0]]))
        assert abs(loss.item() - (-math.log(0.9))) < 1e-12

    def test_saturated_wrong_token_keeps_loss_and_gradient(self):
        # Logits [30, 0] with gold O: p(O) = e^-30 / (1 + e^-30) is below
        # 1e-12, yet the loss must be the full -log p(O) and the logit
        # gradient p - y, not a clamped constant with zero gradient.
        logits = Tensor(np.array([[30.0, 0.0]]))
        gold = np.array([[O_INDEX]])
        with Tape() as tape:
            probs = Probabilities(logits, np.ones((1, 1)))
            loss = batch_loss(probs, gold, np.ones((1, 1)))
        grad = tape.gradients(loss)[logits]
        assert abs(loss.item() - 30.0) <= 1e-12 * 30.0
        assert np.allclose(grad, probs.data - np.eye(2)[gold], rtol=1e-12, atol=0)

    def test_gradcheck_through_softmax(self):
        # One token per regime: saturated wrong, saturated right, ordinary,
        # and a padded position that must not contribute.
        group = ParamGroup()
        group.add("logits", np.array([[[30.0, 0.0], [0.0, 25.0], [0.3, -0.2], [4.0, 1.0]]])[0])
        gold = np.array([[O_INDEX, O_INDEX, F_INDEX, F_INDEX]])
        valid = np.array([[1.0, 1.0, 1.0, 0.0]])
        rows = np.flatnonzero(valid)
        err = grad_check(
            lambda g: batch_loss(Probabilities(gather_rows(g["logits"], rows), valid),
                                 gold, valid),
            group, h=1e-6)
        assert err < 1e-6

    def test_gold_id_outside_the_labels_rejected(self):
        probs = Probabilities(Tensor(np.zeros((1, 2))), np.array([[1.0, 0.0]]))
        for bad in (-1, 2):
            with pytest.raises(ValueError, match="ids of the labels"):
                batch_loss(probs, np.array([[bad, O_INDEX]]), probs.valid)
        # An id at padding is never read.
        loss = batch_loss(probs, np.array([[F_INDEX, 7]]), probs.valid)
        assert abs(loss.item() - math.log(2)) < 1e-12

    def test_non_integer_gold_rejected(self):
        # A one-hot float array, the gold of old, and a float array of ids.
        probs = Probabilities(Tensor(np.zeros((2, 2))), np.ones((1, 2)))
        for gold in (np.array([[[1.0, 0.0], [0.0, 1.0]]]), np.array([[0.0, 1.0]])):
            with pytest.raises(ValueError, match="integer ids"):
                batch_loss(probs, gold, np.ones((1, 2)))

    def test_batch_loss_sums_over_examples(self):
        probs = Probabilities(Tensor(np.zeros((6, 2))), np.ones((3, 2)))
        gold = np.full((3, 2), O_INDEX)
        loss = batch_loss(probs, gold, np.ones((3, 2)))
        assert abs(loss.item() - 6 * math.log(2)) < 1e-9

    def test_plain_tensor_rejected(self):
        # Probabilities alone carry the logits the loss differentiates.
        gold = np.array([[F_INDEX, O_INDEX]])
        with pytest.raises(TypeError, match="Probabilities"):
            batch_loss(Tensor(np.full((1, 2, 2), 0.5)), gold, np.ones((1, 2)))

    def test_valid_must_be_the_forward_mask(self, tiny_cfg, tiny_vocab, fig_example):
        batch = collate([fig_example])
        probs, _ = forward_batch(batch, build(tiny_cfg, tiny_vocab), tiny_cfg)
        for valid in (batch.mask[:, :-1], np.where(np.arange(6) == 0, 0.0, batch.mask)):
            with pytest.raises(ValueError, match="mask the logits were packed from"):
                batch_loss(probs, batch.gold, valid)


class TestPredictTags:
    def test_argmax(self):
        probs = np.array([[0.9, 0.1], [0.3, 0.7]])
        assert predict_tags(probs, [1, 1]) == ["F", "O"]

    def test_tie_goes_to_o(self):
        assert predict_tags(np.array([[0.5, 0.5]]), [1]) == ["O"]

    def test_masked_positions_produce_no_tags(self):
        probs = np.array([[0.9, 0.1], [0.9, 0.1], [0.9, 0.1]])
        assert predict_tags(probs, [1, 1, 0]) == ["F", "F"]


class TestExtractSpans:
    def test_fig_case(self):
        spans = extract_spans(["F", "F", "F", "O"], ["Works", "with", "iphone", "?"])
        assert len(spans) == 1
        assert spans[0].text == "Works with iphone"
        assert (spans[0].start, spans[0].end) == (0, 2)

    def test_all_o(self):
        assert extract_spans(["O", "O"], ["a", "b"]) == []

    def test_two_single_token_spans(self):
        spans = extract_spans(["F", "O", "F"], ["a", "b", "c"])
        assert [(s.start, s.end) for s in spans] == [(0, 0), (2, 2)]

    def test_span_reaching_end(self):
        spans = extract_spans(["O", "F", "F"], ["a", "b", "c"])
        assert [(s.start, s.end, s.text) for s in spans] == [(1, 2, "b c")]

    def test_eos_terminates_and_never_inside(self):
        spans = extract_spans(["F", "F", "F"], ["a", EOS_TOKEN, "b"])
        assert [(s.start, s.end) for s in spans] == [(0, 0), (2, 2)]

    def test_total_and_deterministic_on_any_probs(self):
        # extract_spans(predict_tags(.)) must succeed on arbitrary
        # probability matrices and always give the same answer.
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            raw = rng.random((n, 2))
            probs = raw / raw.sum(axis=-1, keepdims=True)
            tokens = [f"t{i}" for i in range(n)]
            first = extract_spans(predict_tags(probs, np.ones(n)), tokens)
            second = extract_spans(predict_tags(probs, np.ones(n)), tokens)
            assert first == second
            for span in first:
                assert 0 <= span.start <= span.end < n


class TestCheckpoint:
    def test_round_trip_bit_identical_forward(self, tmp_path, tiny_cfg, tiny_vocab, fig_example):
        params = build(tiny_cfg, tiny_vocab, seed=8)
        before = probs_of(fig_example, params, tiny_cfg)
        path = tmp_path / "model.npz"
        save_model(path, params, tiny_cfg, tiny_vocab)
        loaded, cfg2, vocab2 = load_model(path)
        after = probs_of(fig_example, loaded, cfg2)
        assert np.array_equal(before, after)
        assert cfg2 == tiny_cfg
        assert vocab2.id_to_token == tiny_vocab.id_to_token

    def test_save_deterministic_bytes(self, tmp_path, tiny_cfg, tiny_vocab):
        params = build(tiny_cfg, tiny_vocab, seed=9)
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        save_model(p1, params, tiny_cfg, tiny_vocab)
        save_model(p2, params, tiny_cfg, tiny_vocab)
        assert p1.read_bytes() == p2.read_bytes()

    def test_writes_exactly_the_given_path(self, tmp_path, tiny_cfg, tiny_vocab):
        params = build(tiny_cfg, tiny_vocab)
        path = tmp_path / "model.json"
        save_model(path, params, tiny_cfg, tiny_vocab)
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
        assert load_model(path)[2].id_to_token == tiny_vocab.id_to_token

    @pytest.mark.parametrize("shape", [(3, 8), (8, 2)], ids=["size", "transposed"])
    def test_tampered_shape_names_tensor(self, tmp_path, tiny_cfg, tiny_vocab, shape):
        def edit(meta, arrays):
            arrays["proj.w"] = np.resize(arrays["proj.w"], shape)
            return meta
        path = self.edited(tmp_path, tiny_cfg, tiny_vocab, edit)
        with pytest.raises(CheckpointError, match="proj.w"):
            load_model(path)

    def test_version_mismatch_rejected(self, tmp_path, tiny_cfg, tiny_vocab):
        def edit(meta, arrays):
            meta["format_version"] = 1
            return meta
        path = self.edited(tmp_path, tiny_cfg, tiny_vocab, edit)
        with pytest.raises(CheckpointError, match="format_version"):
            load_model(path)

    @pytest.mark.parametrize("key, value", [("labels", ["F", "O"]), ("variant", "crf")],
                             ids=["unknown_key", "rejected_value"])
    def test_config_rejected_by_san_config_is_checkpoint_error(self, tmp_path, tiny_cfg,
                                                              tiny_vocab, key, value):
        def edit(meta, arrays):
            meta["config"][key] = value
            return meta
        path = self.edited(tmp_path, tiny_cfg, tiny_vocab, edit)
        with pytest.raises(CheckpointError, match=key):
            load_model(path)

    def test_unnormalised_vocabulary_token_is_checkpoint_error(self, tmp_path, tiny_cfg,
                                                               tiny_vocab):
        def edit(meta, arrays):
            meta["config"]["vocab"][tiny_vocab.lookup("iphone")] = "iPhone"
            return meta
        path = self.edited(tmp_path, tiny_cfg, tiny_vocab, edit)
        with pytest.raises(CheckpointError, match="iPhone"):
            load_model(path)

    def test_missing_tensor_named(self, tmp_path, tiny_cfg, tiny_vocab):
        def edit(meta, arrays):
            del arrays["embedding"]
            return meta
        path = self.edited(tmp_path, tiny_cfg, tiny_vocab, edit)
        with pytest.raises(CheckpointError, match="embedding"):
            load_model(path)

    @pytest.mark.parametrize("shape", [(3, 4), (4, 9)], ids=["rows", "transposed"])
    def test_tampered_embedding_shape_names_tensor(self, tmp_path, tiny_cfg, tiny_vocab,
                                                   shape):
        def edit(meta, arrays):
            arrays["embedding"] = np.resize(arrays["embedding"], shape)
            return meta
        path = self.edited(tmp_path, tiny_cfg, tiny_vocab, edit)
        with pytest.raises(CheckpointError, match=r"'embedding' has shape \[%d, %d\]" % shape):
            load_model(path)

    def test_load_adopts_the_embedding(self, tmp_path):
        # 20k rows at d=100: the group keeps the array np.load read, so the
        # load peaks near one embedding's bytes, not two.
        cfg = SanConfig(embedding_dim=100, hidden_size=4, attention_dim=4, max_len=6,
                        bank_size=2, seed=1)
        vocab = Vocabulary(list(RESERVED) + [f"w{i}" for i in range(20_000)])
        params = build(cfg, vocab)
        path = tmp_path / "model.npz"
        save_model(path, params, cfg, vocab)
        tracemalloc.start()
        try:
            loaded, _, _ = load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * params.embedding.data.nbytes
        assert np.array_equal(loaded.embedding.data, params.embedding.data)

    def test_noblstm2_checkpoint_has_no_layer2_tensors(self, tmp_path, tiny_vocab):
        cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                        bank_size=2, dropout=0.0, variant="san-noblstm2", seed=11)
        params = build(cfg, tiny_vocab)
        path = tmp_path / "model.npz"
        save_model(path, params, cfg, tiny_vocab)
        _, tensors = read_checkpoint(path)
        assert not any(name.startswith("blstm2.") for name in tensors)

    @staticmethod
    def edited(tmp_path, cfg, vocab, edit):
        """A fresh checkpoint of ``cfg`` rewritten through ``edit``."""
        path = tmp_path / "model.npz"
        save_model(path, build(cfg, vocab), cfg, vocab)
        rewrite_checkpoint(path, path, edit)
        return path


class TestEmbeddingGradients:
    def test_pad_row_stays_zero_through_training(self, tiny_vocab, fig_example):
        cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                        bank_size=2, dropout=0.0, variant="san", seed=12)
        params = build(cfg, tiny_vocab)
        batch = collate([fig_example])
        for _ in range(3):
            with Tape() as tape:
                probs, _ = forward_batch(batch, params, cfg)
                loss = batch_loss(probs, batch.gold, batch.mask)
            adam_step(params.group, tape.gradients(loss), lr=0.01)
        assert np.array_equal(params.embedding.data[PAD_ID], np.zeros(4))

    def test_bank_only_token_embedding_gets_gradient(self, tiny_vocab):
        # "video" and "calls" appear only in the bank; attending over the bank
        # must still tune their embedding rows.
        cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                        bank_size=2, dropout=0.0, variant="san", seed=13)
        params = build(cfg, tiny_vocab)
        rec = QaRecord("p", "c", ["works", "with", "iphone", "?"],
                       tags=["F", "F", "F", "O"])
        bank = [QaRecord("b", "c", ["video", "calls"])]
        ex = make_example(rec, bank, tiny_vocab, max_len=6, bank_size=2)
        batch = collate([ex])
        with Tape() as tape:
            probs, _ = forward_batch(batch, params, cfg)
            loss = batch_loss(probs, batch.gold, batch.mask)
        grad = tape.gradients(loss)[params.embedding]
        video_row = tiny_vocab.lookup("video")
        assert np.any(grad[video_row] != 0.0)
        assert np.array_equal(grad[PAD_ID], np.zeros(4))


class TestEndToEndGradients:
    @pytest.mark.parametrize("variant", ["san", "sblstm", "san-noblstm2"])
    def test_tiny_gradcheck_sampled(self, variant, tiny_vocab, fig_example):
        cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                        bank_size=2, dropout=0.0, variant=variant, seed=14)
        params = build(cfg, tiny_vocab)
        batch = collate([fig_example])

        def loss(group):
            probs, _ = forward_batch(batch, params, cfg)
            return batch_loss(probs, batch.gold, batch.mask)

        values = params.group.copy_values()
        err = grad_check(loss, params.group, h=1e-5, max_coords_per_tensor=16)
        assert err < 1e-4
        for name, value in values.items():
            assert np.array_equal(params.group[name].data, value), name


class TestFloat32:
    """A float32 ``ParamGroup`` keeps the whole model float32."""

    @pytest.fixture
    def words_dtypes(self, monkeypatch):
        """Dtype of the bank words each forward hands to the attention."""
        seen = []

        def spy(hq1, query_mask, words, *args, **kwargs):
            seen.append(words.data.dtype)
            return real(hq1, query_mask, words, *args, **kwargs)

        real = fmodel.bank_attend_batch
        monkeypatch.setattr(fmodel, "bank_attend_batch", spy)
        return seen

    def test_step_and_eval_stay_float32(self, memo_vocab, memo_batch, words_dtypes):
        cfg = dataclasses.replace(memo_cfg(), dropout=0.2)
        params = SanParams.build(cfg, len(memo_vocab), np.random.default_rng(0),
                                 dtype=np.float32)
        with Tape() as tape:
            probs, _ = forward_batch(memo_batch, params, cfg, training=True,
                                     rng=np.random.default_rng(1))
            loss = batch_loss(probs, memo_batch.gold, memo_batch.mask)
        grads = tape.gradients(loss)
        adam_step(params.group, grads, lr=0.01)
        assert loss.data.dtype == np.float32
        for name, p in params.group.items():
            assert (grads[p].dtype, p.data.dtype) == (np.float32, np.float32), name
        probs, _ = forward_batch(memo_batch, params, cfg)
        assert probs.data.dtype == np.float32
        assert params.bank_encoded == 4
        assert words_dtypes == [np.float32, np.float32]
        ref = build(cfg, memo_vocab)
        ref.group.load_values(params.group.copy_values())
        want, _ = forward_batch(memo_batch, ref, cfg)
        assert np.allclose(probs.data, want.data, rtol=0, atol=1e-5)

    def test_empty_bank_slots_stay_float32(self, memo_vocab, words_dtypes):
        cfg = dataclasses.replace(memo_cfg(), bank_size=0)
        params = SanParams.build(cfg, len(memo_vocab), np.random.default_rng(0),
                                 dtype=np.float32)
        rec = QaRecord("p", "c", ["works", "with", "iphone"], tags=["F", "F", "O"])
        example = make_example(rec, [], memo_vocab, max_len=6, bank_size=0)
        assert probs_of(example, params, cfg).dtype == np.float32
        assert words_dtypes == [np.float32]
        assert (params.bank_encoded, params.bank_served) == (0, 0)


class TestConfig:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            SanConfig(variant="crf")

    def test_pretrained_matrix_must_fit_the_config_and_vocabulary(self, tiny_cfg, tiny_vocab):
        rng, n, dim = np.random.default_rng(0), len(tiny_vocab), tiny_cfg.embedding_dim
        fits = EmbeddingMatrix(tiny_vocab, np.ones((n, dim)))
        assert np.array_equal(SanParams.build(tiny_cfg, n, rng, fits).embedding.data,
                              fits.vectors)
        wide = EmbeddingMatrix(tiny_vocab, np.ones((n, dim + 1)))
        with pytest.raises(ValueError, match=f"pretrained dim {dim + 1} != config "
                                             f"embedding_dim {dim}"):
            SanParams.build(tiny_cfg, n, rng, wide)
        with pytest.raises(ValueError, match="pretrained embedding rows != vocabulary size"):
            SanParams.build(tiny_cfg, n + 1, rng, fits)

    def test_from_dict_rejects_unknown_keys(self, tmp_path, tiny_cfg, tiny_vocab):
        # load_model names every key SanConfig lacks, sorted, in one error.
        def edit(meta, arrays):
            meta["config"].update(bogus=1, alpha=2)
            return meta
        path = TestCheckpoint.edited(tmp_path, tiny_cfg, tiny_vocab, edit)
        with pytest.raises(CheckpointError, match=r"unknown keys \['alpha', 'bogus'\]"):
            load_model(path)

    def test_round_trip(self, tmp_path, tiny_vocab):
        # Every field off its default survives save_model/load_model, and
        # the checkpoint's config is exactly the fields plus the vocabulary.
        cfg = SanConfig(embedding_dim=3, hidden_size=5, attention_dim=2, max_len=7,
                        bank_size=0, dropout=0.5, variant="sblstm", seed=4)
        defaults = SanConfig()
        assert all(getattr(cfg, f.name) != getattr(defaults, f.name)
                   for f in dataclasses.fields(SanConfig))
        path = tmp_path / "model.npz"
        save_model(path, build(cfg, tiny_vocab), cfg, tiny_vocab)
        meta, _ = read_checkpoint(path)
        assert meta["config"] == {**dataclasses.asdict(cfg), "vocab": tiny_vocab.id_to_token}
        assert load_model(path)[1] == cfg



def memo_cfg():
    return SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                     bank_size=3, dropout=0.0, variant="san", seed=1)


@pytest.fixture
def memo_vocab():
    tokens = ["works", "with", "iphone", "?", "does", "it", "video", "calls", "good"]
    return Vocabulary(list(RESERVED) + tokens)


@pytest.fixture
def memo_batch(memo_vocab):
    """Three questions whose banks hold a row twice, a row ending in
    PAD_ID inside its valid prefix next to that unpadded prefix, and empty
    slots."""
    shared = QaRecord("u1", "c", ["does", "it", "video", "calls", "?"])
    with_pad = QaRecord("u2", "c", ["works", "it"])
    prefix = QaRecord("u3", "c", ["works"])
    other = QaRecord("u4", "c", ["good", "video", "calls"])
    rows = [(["works", "with", "iphone", "?"], [shared, with_pad, prefix]),
            (["good", "with", "iphone"], [shared, other]),
            (["it", "works"], [])]
    examples = [make_example(QaRecord(f"p{i}", "c", toks, tags=["O"] * len(toks)),
                             bank, memo_vocab, max_len=6, bank_size=3)
                for i, (toks, bank) in enumerate(rows)]
    examples[0].bank_ids[1, 1] = PAD_ID  # with_pad's last valid token
    return collate(examples)


class TestBankMemo:
    """Tape-free forwards read bank words from the memo on SanParams."""

    @staticmethod
    def edits(path, params, cfg, batch, vocab):
        """Changes of the weights through one of the group's write paths,
        each a call taking no arguments."""
        group = params.group
        if path == "assign":
            video = vocab.lookup("video")  # a token only bank questions hold
            spots = [("bank.fwd.w_x", (0, 0)), ("embedding", (video,)),
                     ("attention.b_k", (slice(None),))]
            return [lambda name=name, where=where:
                    group.assign(name, where, group[name].data[where] + 0.5)
                    for name, where in spots]
        if path == "adam_step":
            def step():
                with Tape() as tape:
                    probs, _ = forward_batch(batch, params, cfg)
                    loss = batch_loss(probs, batch.gold, batch.mask)
                adam_step(group, tape.gradients(loss), lr=0.01)
            return [step]
        return [lambda: group.load_values(build(cfg, vocab, seed=7).group.copy_values())]

    @pytest.mark.parametrize("path", ["assign", "adam_step", "load_values"])
    def test_in_place_edits_recompute(self, path, memo_vocab, memo_batch):
        cfg = memo_cfg()
        params = build(cfg, memo_vocab)
        before, _ = forward_batch(memo_batch, params, cfg)
        for write in self.edits(path, params, cfg, memo_batch, memo_vocab):
            write()
            got, _ = forward_batch(memo_batch, params, cfg)
            fresh = build(cfg, memo_vocab, seed=99)
            fresh.group.load_values(params.group.copy_values())
            want, _ = forward_batch(memo_batch, fresh, cfg)
            assert np.array_equal(got.data, want.data)
            assert not np.array_equal(got.data, before.data)
            before = got

    def test_direct_writes_refused(self, memo_vocab):
        params = build(memo_cfg(), memo_vocab)
        for tensor in (params.embedding, params.bank_blstm.fwd.w_x):
            with pytest.raises(ValueError, match="read-only"):
                tensor.data[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                tensor.data += 1.0

    def test_memoised_equals_unmemoised(self, memo_vocab, memo_batch):
        cfg = memo_cfg()
        params = build(cfg, memo_vocab)
        with Tape():
            want, want_traces = forward_batch(memo_batch, params, cfg, want_trace=True)
        assert params.bank_encoded == 0
        first, traces = forward_batch(memo_batch, params, cfg, want_trace=True)
        second, _ = forward_batch(memo_batch, params, cfg)
        diff = max(np.abs(first.data - want.data).max(),
                   np.abs(second.data - want.data).max())
        print(f"max |memoised - unmemoised| probability difference: {diff:.3g}")
        assert diff <= 1e-12
        assert np.array_equal(first.data, second.data)
        for got, ref in zip(traces, want_traces):
            assert got.level1_weights.shape == ref.level1_weights.shape
            assert np.allclose(got.level1_weights, ref.level1_weights, rtol=0, atol=1e-12)
            assert np.allclose(got.side, ref.side, rtol=0, atol=1e-12)

    def test_writes_the_words_never_read_keep_entries(self, memo_vocab, memo_batch):
        cfg = memo_cfg()
        params = build(cfg, memo_vocab)
        forward_batch(memo_batch, params, cfg)
        assert params.bank_encoded == 4
        params.group.assign("proj.w", (0, 0), 0.5)
        forward_batch(memo_batch, params, cfg)
        assert params.bank_encoded == 4
        params.group.assign("attention.w_k", (0, 0), 0.5)
        forward_batch(memo_batch, params, cfg)
        assert params.bank_encoded == 8

    def test_counts_encoded_and_served_rows(self, memo_vocab, memo_batch):
        cfg = memo_cfg()
        params = build(cfg, memo_vocab)
        # Non-empty bank rows: shared, with_pad, prefix, shared, other.
        forward_batch(memo_batch, params, cfg)
        assert (params.bank_encoded, params.bank_served) == (4, 1)
        forward_batch(memo_batch, params, cfg)
        assert (params.bank_encoded, params.bank_served) == (4, 6)
        with Tape():
            forward_batch(memo_batch, params, cfg)
        assert (params.bank_encoded, params.bank_served) == (4, 6)

    def test_eval_thread_ignores_another_threads_tape(self, memo_vocab, memo_batch):
        cfg = memo_cfg()
        params = build(cfg, memo_vocab)
        recorded, errors = [], []
        taped = threading.Event()
        evaluated = threading.Event()

        def trainer():
            try:
                with Tape() as tape:
                    probs, _ = forward_batch(memo_batch, params, cfg)
                    batch_loss(probs, memo_batch.gold, memo_batch.mask)
                    recorded.append(len(tape))
                    taped.set()
                    assert evaluated.wait(timeout=60)
                    recorded.append(len(tape))
            except Exception as err:  # reported by the main thread
                errors.append(err)
                taped.set()

        def evaluator():
            try:
                assert taped.wait(timeout=60)
                for _ in range(2):
                    forward_batch(memo_batch, params, cfg)
            except Exception as err:
                errors.append(err)
            finally:
                evaluated.set()

        threads = [threading.Thread(target=trainer), threading.Thread(target=evaluator)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        assert not errors
        assert len(recorded) == 2 and recorded[0] == recorded[1] > 0
        assert (params.bank_encoded, params.bank_served) == (4, 6)
