import collections
import json
import math
import threading

import numpy as np
import pytest

from fnr.autodiff import Tape, Tensor
from fnr.data import QaRecord, collate, make_example
from fnr.model import (CheckpointError, SanConfig, SanParams, batch_loss,
                       extract_spans, forward_batch, load_model, predict_tags,
                       save_model, softmax)
from fnr.optim import ParamGroup, adam_step, grad_check
from fnr.vocab import EOS_TOKEN, PAD_ID, PAD_TOKEN, RESERVED, Vocabulary


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
        params.proj_w.data[...] = 0.0
        params.proj_b.data[...] = 0.0
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
                params.group[name].data[...] = 0.0
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

    def test_shared_bank_encoder_single_param_set(self, tiny_vocab):
        cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                        bank_size=2, dropout=0.0, variant="san", seed=5,
                        share_bank_encoder=True)
        params = build(cfg, tiny_vocab)
        assert params.bank_blstm is params.blstm1
        assert not any(n.startswith("bank.") for n in params.group.names())

    def test_one_bank_encoder_regardless_of_bank_count(self, tiny_vocab):
        cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                        bank_size=5, dropout=0.0, variant="san", seed=6)
        params = build(cfg, tiny_vocab)
        bank_tensors = [n for n in params.group.names() if n.startswith("bank.")]
        assert len(bank_tensors) == 24  # 2 directions x 4 gates x 3 tensors

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


def tape_mix(tape):
    """Nodes per op, named by the function whose backward each node holds."""
    return collections.Counter(backward.__qualname__.split(".")[0]
                               for _, _, backward in tape._nodes)


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
        # attention, the projection, softmax and loss.
        assert tape_mix(tape) == {"gather_rows": 2, "blstm_forward": 3, "transform_bank": 1,
                                  "bank_attend_batch": 1, "linear": 1, "softmax": 1,
                                  "batch_loss": 1}
        assert len(tape) == 10

    @pytest.mark.parametrize("variant, bank_size, nodes", [
        ("san", 2, 10), ("san-noblstm2", 2, 9), ("sblstm", 2, 6), ("san", 0, 7)])
    def test_training_step_node_count(self, tiny_vocab, fig_example, variant, bank_size, nodes):
        cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                        bank_size=bank_size, dropout=0.2, variant=variant, seed=1)
        batch = collate([make_example(fig_example.record, fig_example.bank, tiny_vocab,
                                      max_len=6, bank_size=bank_size)])
        with Tape() as tape:
            probs, _ = forward_batch(batch, build(cfg, tiny_vocab), cfg, training=True,
                                     rng=np.random.default_rng(0))
            batch_loss(probs, batch.gold, batch.mask)
        assert len(tape) == nodes

    def test_san_step_gradients_finite_at_paper_dims(self):
        # H = A = d = 100, T = 40, U = 5; questions of 1 to 40 tokens, banks
        # of 0 to 5 questions of 1 to 40 tokens.
        rng = np.random.default_rng(5)
        vocab = Vocabulary(list(RESERVED) + [f"w{i}" for i in range(60)])
        cfg = SanConfig()
        words = lambda n: [f"w{i}" for i in rng.integers(0, 60, size=n)]  # noqa: E731
        examples = []
        for n in (1, 6, 12, 17, 23, 29, 35, 40):
            rec = QaRecord(f"q{n}", "c", words(n), tags=list(rng.choice(["F", "O"], size=n)))
            bank = [QaRecord(f"b{n}-{u}", "c", words(m))
                    for u, m in enumerate((40, 3, 1, 22, 9)[:n % 6])]
            examples.append(make_example(rec, bank, vocab))
        batch = collate(examples)
        params = build(cfg, vocab)
        with Tape() as tape:
            probs, _ = forward_batch(batch, params, cfg, training=True,
                                     rng=np.random.default_rng(0))
            loss = batch_loss(probs, batch.gold, batch.mask)
        assert len(tape) == 10
        grads = tape.gradients(loss)
        for name, t in params.group.items():
            assert np.all(np.isfinite(grads[t])), name
        assert np.any(grads[params.attention.w_k2] != 0.0)


class TestLoss:
    # One (T, |L|) sequence as a batch of one.
    def test_perfect_predictions_zero_loss(self):
        probs = Tensor(np.array([[[1.0, 0.0], [0.0, 1.0]]]))
        gold = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        loss = batch_loss(probs, gold, np.ones((1, 2)))
        assert loss.item() < 1e-6

    def test_uniform_probs_ln2_per_token(self):
        n = 5
        probs = Tensor(np.full((1, n, 2), 0.5))
        gold = np.zeros((1, n, 2))
        gold[..., 0] = 1.0
        loss = batch_loss(probs, gold, np.ones((1, n)))
        assert abs(loss.item() - n * math.log(2)) < 1e-9

    def test_hand_case(self):
        probs = Tensor(np.array([[[0.9, 0.1], [0.2, 0.8]]]))
        gold = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        loss = batch_loss(probs, gold, np.ones((1, 2)))
        assert abs(loss.item() - (-(math.log(0.9) + math.log(0.8)))) < 1e-12

    def test_padding_excluded(self):
        probs = Tensor(np.array([[[0.9, 0.1], [0.5, 0.5]]]))
        gold = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        loss = batch_loss(probs, gold, np.array([[1.0, 0.0]]))
        assert abs(loss.item() - (-math.log(0.9))) < 1e-12

    def test_saturated_wrong_token_keeps_loss_and_gradient(self):
        # Logits [30, 0] with gold O: p(O) = e^-30 / (1 + e^-30) is below
        # 1e-12, yet the loss must be the full -log p(O) and the logit
        # gradient p - y, not a clamped constant with zero gradient.
        logits = Tensor(np.array([[[30.0, 0.0]]]))
        gold = np.array([[[0.0, 1.0]]])
        with Tape() as tape:
            probs = softmax(logits)
            loss = batch_loss(probs, gold, np.ones((1, 1)))
        grad = tape.gradients(loss)[logits]
        assert abs(loss.item() - 30.0) <= 1e-12 * 30.0
        assert np.allclose(grad, probs.data - gold, rtol=1e-12, atol=0)

    def test_gradcheck_through_softmax(self):
        # One token per regime: saturated wrong, saturated right, ordinary,
        # and a padded position that must not contribute.
        group = ParamGroup()
        group.add("logits", np.array([[[30.0, 0.0], [0.0, 25.0], [0.3, -0.2], [4.0, 1.0]]]))
        gold = np.array([[[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]])
        valid = np.array([[1.0, 1.0, 1.0, 0.0]])
        err = grad_check(lambda g: batch_loss(softmax(g["logits"]), gold, valid),
                         group, h=1e-6)
        assert err < 1e-6

    def test_gradcheck_probabilities(self):
        group = ParamGroup()
        group.add("probs", np.random.default_rng(3).uniform(0.05, 1.0, size=(2, 3, 2)))
        gold = np.zeros((2, 3, 2))
        gold[0, :, 0] = gold[1, :, 1] = 1.0
        valid = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        err = grad_check(lambda g: batch_loss(g["probs"], gold, valid), group, h=1e-6)
        assert err < 1e-6

    def test_gold_not_one_hot_rejected(self):
        probs = Tensor(np.full((1, 2, 2), 0.5))
        gold = np.array([[[1.0, 1.0], [0.0, 1.0]]])
        with pytest.raises(ValueError, match="one-hot"):
            batch_loss(probs, gold, np.ones((1, 2)))

    def test_batch_loss_sums_over_examples(self):
        probs = Tensor(np.full((3, 2, 2), 0.5))
        gold = np.zeros((3, 2, 2))
        gold[:, :, 1] = 1.0
        loss = batch_loss(probs, gold, np.ones((3, 2)))
        assert abs(loss.item() - 6 * math.log(2)) < 1e-9


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
        path = tmp_path / "model.json"
        save_model(path, params, tiny_cfg, tiny_vocab)
        loaded, cfg2, vocab2 = load_model(path)
        after = probs_of(fig_example, loaded, cfg2)
        assert np.array_equal(before, after)
        assert vocab2.id_to_token == tiny_vocab.id_to_token

    def test_save_deterministic_bytes(self, tmp_path, tiny_cfg, tiny_vocab):
        params = build(tiny_cfg, tiny_vocab, seed=9)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(p1, params, tiny_cfg, tiny_vocab)
        save_model(p2, params, tiny_cfg, tiny_vocab)
        assert p1.read_bytes() == p2.read_bytes()

    def test_tampered_shape_names_tensor(self, tmp_path, tiny_cfg, tiny_vocab):
        params = build(tiny_cfg, tiny_vocab)
        path = tmp_path / "model.json"
        save_model(path, params, tiny_cfg, tiny_vocab)
        payload = json.loads(path.read_text())
        payload["tensors"]["proj.w"]["shape"] = [3, 8]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="proj.w"):
            load_model(path)

    def test_cross_variant_load_rejected(self, tmp_path, tiny_vocab):
        cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                        bank_size=2, dropout=0.0, variant="sblstm", seed=10)
        params = build(cfg, tiny_vocab)
        path = tmp_path / "model.json"
        save_model(path, params, cfg, tiny_vocab)
        import dataclasses
        san_cfg = dataclasses.replace(cfg, variant="san")
        with pytest.raises(CheckpointError, match="variant"):
            load_model(path, expected=san_cfg)

    def test_version_mismatch_rejected(self, tmp_path, tiny_cfg, tiny_vocab):
        params = build(tiny_cfg, tiny_vocab)
        path = tmp_path / "model.json"
        save_model(path, params, tiny_cfg, tiny_vocab)
        payload = json.loads(path.read_text())
        payload["format_version"] = 2
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="format_version"):
            load_model(path)

    def test_missing_tensor_named(self, tmp_path, tiny_cfg, tiny_vocab):
        params = build(tiny_cfg, tiny_vocab)
        path = tmp_path / "model.json"
        save_model(path, params, tiny_cfg, tiny_vocab)
        payload = json.loads(path.read_text())
        del payload["tensors"]["embedding"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="embedding"):
            load_model(path)

    def test_noblstm2_checkpoint_has_no_layer2_tensors(self, tmp_path, tiny_vocab):
        cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                        bank_size=2, dropout=0.0, variant="san-noblstm2", seed=11)
        params = build(cfg, tiny_vocab)
        path = tmp_path / "model.json"
        save_model(path, params, cfg, tiny_vocab)
        payload = json.loads(path.read_text())
        assert not any(name.startswith("blstm2.") for name in payload["tensors"])


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

        err = grad_check(loss, params.group, h=1e-5, max_coords_per_tensor=4,
                         rng=np.random.default_rng(0))
        assert err < 1e-4


class TestConfig:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            SanConfig(variant="crf")

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            SanConfig.from_dict({"variant": "san", "bogus": 1})

    def test_round_trip(self, tiny_cfg):
        assert SanConfig.from_dict(tiny_cfg.to_dict()) == tiny_cfg


def memo_cfg(**kwargs):
    return SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=6,
                     bank_size=3, dropout=0.0, variant="san", seed=1, **kwargs)


@pytest.fixture
def memo_vocab():
    # Case-sensitive, so the literal "<PAD>" text encodes as PAD_ID.
    tokens = ["works", "with", "iphone", "?", "does", "it", "video", "calls", "good"]
    return Vocabulary(list(RESERVED) + tokens, lowercase=False)


@pytest.fixture
def memo_batch(memo_vocab):
    """Three questions whose banks hold a row twice, a row ending in the
    "<PAD>" text next to its unpadded prefix, and empty slots."""
    shared = QaRecord("u1", "c", ["does", "it", "video", "calls", "?"])
    with_pad = QaRecord("u2", "c", ["works", PAD_TOKEN])
    prefix = QaRecord("u3", "c", ["works"])
    other = QaRecord("u4", "c", ["good", "video", "calls"])
    rows = [(["works", "with", "iphone", "?"], [shared, with_pad, prefix]),
            (["good", "with", "iphone"], [shared, other]),
            (["it", "works"], [])]
    examples = [make_example(QaRecord(f"p{i}", "c", toks, tags=["O"] * len(toks)),
                             bank, memo_vocab, max_len=6, bank_size=3)
                for i, (toks, bank) in enumerate(rows)]
    return collate(examples)


class TestBankMemo:
    """Tape-free forwards read bank words from the memo on SanParams."""

    @pytest.mark.parametrize("share", [False, True])
    def test_in_place_edits_recompute(self, share, memo_vocab, memo_batch):
        cfg = memo_cfg(share_bank_encoder=share)
        params = build(cfg, memo_vocab)
        video = memo_vocab.lookup("video")  # a token only bank questions hold
        edits = [lambda p: (p.bank_blstm.fwd.w_xi, (0, 0)),
                 lambda p: (p.embedding, (video,)),
                 lambda p: (p.attention.b_k, (slice(None),))]
        before, _ = forward_batch(memo_batch, params, cfg)
        for edit in edits:
            tensor, where = edit(params)
            tensor.data[where] += 0.5
            got, _ = forward_batch(memo_batch, params, cfg)
            fresh = build(cfg, memo_vocab, seed=99)
            fresh.group.load_values(params.group.copy_values())
            want, _ = forward_batch(memo_batch, fresh, cfg)
            assert np.array_equal(got.data, want.data)
            assert not np.array_equal(got.data, before.data)
            before = got

    def test_memoised_equals_unmemoised(self, memo_vocab, memo_batch):
        cfg = memo_cfg()
        params = build(cfg, memo_vocab)
        with Tape():
            want, want_traces = forward_batch(memo_batch, params, cfg, want_trace=True)
        assert params.bank_memo.encoded == 0
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

    def test_counts_encoded_and_served_rows(self, memo_vocab, memo_batch):
        cfg = memo_cfg()
        params = build(cfg, memo_vocab)
        memo = params.bank_memo
        # Non-empty bank rows: shared, with_pad, prefix, shared, other.
        forward_batch(memo_batch, params, cfg)
        assert (memo.encoded, memo.served) == (4, 1)
        forward_batch(memo_batch, params, cfg)
        assert (memo.encoded, memo.served) == (4, 6)
        with Tape():
            forward_batch(memo_batch, params, cfg)
        assert (memo.encoded, memo.served) == (4, 6)

    def test_dtype_switch_drops_entries(self, memo_vocab, memo_batch):
        from fnr.autodiff import set_default_dtype
        cfg = memo_cfg()
        params = build(cfg, memo_vocab)
        forward_batch(memo_batch, params, cfg)
        old = set_default_dtype(np.float32)
        try:
            probs, _ = forward_batch(memo_batch, params, cfg)
        finally:
            set_default_dtype(old)
        assert probs.data.dtype == np.float32
        assert params.bank_memo.encoded == 8

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
        assert (params.bank_memo.encoded, params.bank_memo.served) == (4, 6)
