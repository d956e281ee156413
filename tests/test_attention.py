import json

import numpy as np
import pytest

from fnr.attention import bank_attend_batch, init_attention, transform_bank
from fnr.autodiff import Tape, Tensor, mul, reduce_sum
from fnr.optim import ParamGroup, grad_check


def make_params(encoder_width=4, attn_dim=3, seed=0, zero=False):
    g = ParamGroup()
    p = init_attention(g, "a", encoder_width, attn_dim, np.random.default_rng(seed))
    if zero:
        for _, t in g.items():
            t.data[...] = 0.0
    return g, p


def pad_banks(banks, masks, encoder_width, width=None):
    """Lay one question's list of (T_u, 2H) bank questions and 0/1 masks out
    as batched inputs: bank_h (1, U, T_u, 2H), token_mask (1, U, T_u) and
    bank_valid (1, U), padded with zeros to ``width`` or the longest bank."""
    if width is None:
        width = max([b.shape[0] for b in banks], default=1)
    bank_h = np.zeros((1, len(banks), width, encoder_width))
    token_mask = np.zeros((1, len(banks), width))
    for n, (b, m) in enumerate(zip(banks, masks)):
        bank_h[0, n, :b.shape[0]] = b
        token_mask[0, n, :len(m)] = m
    return bank_h, token_mask, token_mask.any(axis=2).astype(float)


def attend_one(hq1, banks, masks, p, width=None):
    """transform_bank, then bank_attend_batch, on one (T_q, 2H) question and
    its (T_u, 2H) bank questions: (T_q, 2H + A) and its trace."""
    bank_h, token_mask, bank_valid = pad_banks(banks, masks, hq1.shape[1], width)
    hq2, traces = bank_attend_batch(Tensor(hq1[None]), np.ones((1, hq1.shape[0])),
                                    transform_bank(Tensor(bank_h), token_mask, p),
                                    token_mask, bank_valid, p, want_trace=True)
    return hq2.data[0], traces[0]


def observed_query(hq1, p):
    """The query transform tanh(W_r h + b_r) of a (T_q, 2H) question as
    bank_attend_batch applies it, read back from level 1: against the bank
    words [0, e_1, ..., e_A] a token's weights are proportional to
    [1, exp(q_1), ..., exp(q_A)]."""
    attn = p.dim
    words = np.vstack([np.zeros(attn), np.eye(attn)])[None, None]
    _, traces = bank_attend_batch(Tensor(hq1[None]), np.ones((1, hq1.shape[0])), Tensor(words),
                                  np.ones((1, 1, attn + 1)), np.ones((1, 1)), p,
                                  want_trace=True)
    w = traces[0].level1_weights[:, 0]
    return np.log(w[:, 1:] / w[:, :1])


def reference_bank_attention(hq1, banks, masks, p):
    """Brute-force transcription of the two-level equations in plain numpy."""
    w_r, b_r = p.w_r.data, p.b_r.data
    w_k, b_k = p.w_k.data, p.b_k.data
    w_k2, b_k2 = p.w_k2.data, p.b_k2.data
    t_q = hq1.shape[0]
    attn = w_r.shape[0]
    side = np.zeros((t_q, attn))
    lvl1_w, lvl1_a, lvl2_w = [], [], []
    for t in range(t_q):
        q = np.tanh(w_r @ hq1[t] + b_r)
        summaries, valid = [], []
        per_bank_w = []
        for bank, mask in zip(banks, masks):
            k = np.tanh(bank @ w_k.T + b_k)
            scores = k @ q
            ex = np.where(mask > 0, np.exp(scores - scores[mask > 0].max()), 0.0) \
                if mask.any() else np.zeros_like(scores)
            w = ex / ex.sum() if mask.any() else ex
            per_bank_w.append(w)
            summaries.append(w @ k)
            valid.append(mask.any())
        summaries = np.asarray(summaries)
        k2 = np.tanh(summaries @ w_k2.T + b_k2)
        scores2 = k2 @ q
        valid = np.asarray(valid)
        if valid.any():
            ex2 = np.where(valid, np.exp(scores2 - scores2[valid].max()), 0.0)
            w2 = ex2 / ex2.sum()
            side[t] = w2 @ k2
        else:
            w2 = np.zeros(len(banks))
        lvl1_w.append(per_bank_w)
        lvl1_a.append(summaries)
        lvl2_w.append(w2)
    hq2 = np.concatenate([hq1, side], axis=1)
    return hq2, lvl1_w, np.asarray(lvl1_a), np.asarray(lvl2_w)


class TestTransformQuery:
    def test_zero_params_zero_output(self):
        _, p = make_params(zero=True)
        out = observed_query(np.random.default_rng(0).normal(size=(3, 4)), p)
        assert np.array_equal(out, np.zeros((3, 3)))

    def test_range_open_interval(self):
        _, p = make_params(seed=1)
        out = observed_query(np.random.default_rng(1).normal(size=(5, 4)) * 10, p)
        assert np.all(np.abs(out) < 1.0)

    def test_hand_case(self):
        g, p = make_params(encoder_width=2, attn_dim=2, seed=2)
        h = np.array([[0.5, -1.0], [2.0, 0.25]])
        out = observed_query(h, p)
        expected = np.tanh(h @ p.w_r.data.T + p.b_r.data)
        assert np.allclose(out, expected, atol=1e-12)


def prefix_mask_3d(lengths, n_banks=3, t_u=4):
    """(B, U, T_u) 0/1 prefix masks from B * U row lengths."""
    lengths = np.asarray(lengths).reshape(-1, n_banks)
    return (np.arange(t_u) < lengths[..., None]).astype(float)


class TestTransformBank:
    def test_valid_words_only(self):
        _, p = make_params(encoder_width=4, attn_dim=3, seed=3)
        rng = np.random.default_rng(3)
        bank_h = rng.normal(size=(2, 3, 4, 4))
        token_mask = prefix_mask_3d([4, 2, 0, 1, 3, 0])
        out = transform_bank(Tensor(bank_h), token_mask, p)
        valid = token_mask > 0
        want = np.tanh(bank_h @ p.w_k.data.T + p.b_k.data)
        assert out.shape == (2, 3, 4, 3)
        assert np.allclose(out.data[valid], want[valid], atol=1e-15, rtol=0)
        assert np.array_equal(out.data[~valid], np.zeros((int((~valid).sum()), 3)))

    def test_one_node_and_gradcheck(self):
        group, p = make_params(encoder_width=4, attn_dim=3, seed=4)
        rng = np.random.default_rng(4)
        bank_h = group.add("bank_h", rng.normal(size=(2, 3, 4, 4)))
        token_mask = prefix_mask_3d([4, 2, 0, 1, 3, 0])
        weights = Tensor(rng.normal(size=(2, 3, 4, 3)), const=True)

        def loss(g):
            return reduce_sum(mul(transform_bank(bank_h, token_mask, p), weights))

        with Tape() as tape:
            loss(group)
        assert len(tape) == 3  # transform_bank, mul, reduce_sum
        assert grad_check(loss, group, h=1e-6) < 1e-6

    def test_mask_shape_checked(self):
        _, p = make_params()
        with pytest.raises(ValueError, match="token_mask shape"):
            transform_bank(Tensor(np.zeros((1, 2, 3, 4))), np.ones((1, 2, 4)), p)


class TestLevel1Attend:
    def test_single_valid_word(self):
        _, p = make_params(encoder_width=3, attn_dim=3, seed=16)
        bank = np.array([[0.3, -0.2, 0.5]])
        _, trace = attend_one(np.array([[1.0, 0.0, 0.0]]), [bank], [[1.0]], p)
        assert np.allclose(trace.level1_weights[0, 0], [1.0])
        bank_k = np.tanh(bank @ p.w_k.data.T + p.b_k.data)
        assert np.allclose(trace.level1_attended[0, 0], bank_k[0])

    def test_orthogonal_query_uniform(self):
        # A zero query transform makes every score 0.
        _, p = make_params(encoder_width=2, attn_dim=2, seed=17)
        p.w_r.data[...] = 0.0
        p.b_r.data[...] = 0.0
        bank = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        _, trace = attend_one(np.array([[0.5, -0.5]]), [bank], [[1.0, 1.0, 1.0]], p)
        assert np.allclose(trace.level1_weights[0, 0], [1 / 3] * 3)

    def test_two_word_hand_oracle(self):
        _, p = make_params(encoder_width=2, attn_dim=2, seed=18)
        h = np.array([0.5, -0.5])
        bank = np.array([[1.0, 0.0], [0.0, 1.0]])
        _, trace = attend_one(h[None], [bank], [[1.0, 1.0]], p)
        q = np.tanh(p.w_r.data @ h + p.b_r.data)
        bank_k = np.tanh(bank @ p.w_k.data.T + p.b_k.data)
        scores = bank_k @ q
        e = np.exp(scores - scores.max())
        w_ref = e / e.sum()
        assert np.allclose(trace.level1_weights[0, 0], w_ref, atol=1e-12)
        assert np.allclose(trace.level1_attended[0, 0], w_ref @ bank_k, atol=1e-12)


class TestLevel2Attend:
    def test_single_bank(self):
        _, p = make_params(encoder_width=4, attn_dim=3, seed=3)
        rng = np.random.default_rng(3)
        hq1, bank = rng.normal(size=(2, 4)), rng.normal(size=(3, 4))
        hq2, trace = attend_one(hq1, [bank], [np.ones(3)], p)
        assert np.allclose(trace.level2_weights, [[1.0], [1.0]])
        expected = np.tanh(trace.level1_attended[:, 0] @ p.w_k2.data.T + p.b_k2.data)
        assert np.allclose(trace.side, expected, atol=1e-12)
        assert np.array_equal(hq2[:, 4:], trace.side)

    def test_empty_bank_degenerates_to_zero(self):
        _, p = make_params(attn_dim=3)
        hq2, trace = attend_one(np.ones((2, 4)), [], [], p)
        assert trace.level2_weights.shape == (2, 0)
        assert np.array_equal(trace.side, np.zeros((2, 3)))
        assert np.array_equal(hq2[:, 4:], np.zeros((2, 3)))

    def test_all_masked_degenerates_to_zero(self):
        _, p = make_params(attn_dim=3)
        rng = np.random.default_rng(4)
        banks = [rng.normal(size=(2, 4)), rng.normal(size=(3, 4))]
        hq2, trace = attend_one(np.ones((1, 4)), banks, [np.zeros(2), np.zeros(3)], p)
        assert np.array_equal(trace.level2_weights, [[0.0, 0.0]])
        assert np.array_equal(trace.side, np.zeros((1, 3)))
        assert np.array_equal(hq2[:, 4:], np.zeros((1, 3)))

    def test_two_bank_hand_oracle(self):
        _, p = make_params(encoder_width=4, attn_dim=2, seed=5)
        rng = np.random.default_rng(5)
        h = rng.normal(size=4)
        banks = [rng.normal(size=(2, 4)), rng.normal(size=(3, 4))]
        _, trace = attend_one(h[None], banks, [np.ones(2), np.ones(3)], p)
        q = np.tanh(p.w_r.data @ h + p.b_r.data)
        summary = trace.level1_attended[0]
        k2 = np.tanh(summary @ p.w_k2.data.T + p.b_k2.data)
        scores = k2 @ q
        e = np.exp(scores - scores.max())
        w_ref = e / e.sum()
        assert np.allclose(trace.level2_weights[0], w_ref, atol=1e-12)
        assert np.allclose(trace.side[0], w_ref @ k2, atol=1e-12)


def random_instance(rng, t_q=3, encoder_width=4, attn_dim=3, n_banks=2, zero_pad=0):
    hq1 = rng.normal(size=(t_q, encoder_width))
    banks = []
    masks = []
    for _ in range(n_banks):
        t_u = int(rng.integers(1, 5))
        banks.append(rng.normal(size=(t_u, encoder_width)))
        masks.append(np.ones(t_u))
    return hq1, banks, masks


class TestBankAttend:
    def test_output_width(self):
        _, p = make_params(encoder_width=4, attn_dim=3, seed=6)
        rng = np.random.default_rng(6)
        hq1, banks, masks = random_instance(rng)
        hq2, trace = attend_one(hq1, banks, masks, p)
        assert hq2.shape == (3, 4 + 3)

    def test_matches_bruteforce_oracle(self):
        _, p = make_params(encoder_width=4, attn_dim=3, seed=7)
        rng = np.random.default_rng(7)
        hq1, banks, masks = random_instance(rng, t_q=2)
        hq2, trace = attend_one(hq1, banks, masks, p)
        ref_hq2, ref_w1, ref_a1, ref_w2 = reference_bank_attention(hq1, banks, masks, p)
        assert np.allclose(hq2, ref_hq2, atol=1e-12)
        assert np.allclose(trace.level2_weights, ref_w2, atol=1e-12)
        assert np.allclose(trace.level1_attended, ref_a1, atol=1e-12)
        t_u_max = max(b.shape[0] for b in banks)
        for t in range(2):
            for n, b in enumerate(banks):
                assert np.allclose(trace.level1_weights[t, n, :b.shape[0]],
                                   ref_w1[t][n], atol=1e-12)
                assert np.array_equal(trace.level1_weights[t, n, b.shape[0]:],
                                      np.zeros(t_u_max - b.shape[0]))

    def test_bank_permutation_invariance(self):
        _, p = make_params(encoder_width=4, attn_dim=3, seed=8)
        rng = np.random.default_rng(8)
        hq1, banks, masks = random_instance(rng, n_banks=3)
        base, _ = attend_one(hq1, banks, masks, p)
        perm, _ = attend_one(hq1, [banks[2], banks[0], banks[1]],
                             [masks[2], masks[0], masks[1]], p)
        assert np.allclose(base, perm, atol=1e-12)

    def test_pad_extension_bit_for_bit(self):
        # At a fixed padded width (the model always runs banks at width T),
        # appending PAD rows must not change a single bit of the output.
        _, p = make_params(encoder_width=4, attn_dim=3, seed=9)
        rng = np.random.default_rng(9)
        hq1, banks, masks = random_instance(rng)
        base, _ = attend_one(hq1, banks, masks, p, width=8)
        ext_banks = [np.vstack([b, rng.normal(size=(2, 4))]) for b in banks]
        ext_masks = [np.concatenate([m, [0.0, 0.0]]) for m in masks]
        out, _ = attend_one(hq1, ext_banks, ext_masks, p, width=8)
        assert np.array_equal(base, out)

    def test_pad_extension_close_across_widths(self):
        # Without a fixed width the padded shapes differ, so equality is
        # only up to BLAS kernel selection; it must still be 1e-12 tight.
        _, p = make_params(encoder_width=4, attn_dim=3, seed=9)
        rng = np.random.default_rng(9)
        hq1, banks, masks = random_instance(rng)
        base, _ = attend_one(hq1, banks, masks, p)
        ext_banks = [np.vstack([b, rng.normal(size=(2, 4))]) for b in banks]
        ext_masks = [np.concatenate([m, [0.0, 0.0]]) for m in masks]
        out, _ = attend_one(hq1, ext_banks, ext_masks, p)
        assert np.allclose(base, out, atol=1e-12, rtol=0)

    def test_empty_bank_list_concats_zero_side(self):
        _, p = make_params(encoder_width=4, attn_dim=3, seed=10)
        hq1 = np.random.default_rng(10).normal(size=(3, 4))
        hq2, trace = attend_one(hq1, [], [], p)
        assert np.array_equal(hq2[:, :4], hq1)
        assert np.array_equal(hq2[:, 4:], np.zeros((3, 3)))

    def test_side_vector_inside_unit_cube(self):
        # Convex combination of tanh outputs: every component in (-1, 1).
        _, p = make_params(encoder_width=4, attn_dim=3, seed=11)
        rng = np.random.default_rng(11)
        for _ in range(10):
            hq1, banks, masks = random_instance(rng, n_banks=3)
            _, trace = attend_one(hq1, banks, masks, p)
            assert np.all(np.abs(trace.side) < 1.0)

    def test_gradcheck_attention_parameters(self):
        group, p = make_params(encoder_width=4, attn_dim=3, seed=12)
        rng = np.random.default_rng(12)
        hq1, banks, masks = random_instance(rng, t_q=2)
        weights = rng.normal(size=(1, 2, 7))
        bank_h, token_mask, bank_valid = pad_banks(banks, masks, 4)

        def loss(g):
            words = transform_bank(Tensor(bank_h, const=True), token_mask, p)
            hq2, _ = bank_attend_batch(Tensor(hq1[None], const=True), np.ones((1, 2)), words,
                                       token_mask, bank_valid, p)
            return reduce_sum(mul(hq2, Tensor(weights, const=True)))

        assert grad_check(loss, group, h=1e-5) < 1e-5

    def test_gradcheck_all_inputs_empty_slots_and_banks(self):
        # Example 0 has PAD positions and an empty middle slot; example 1's
        # whole bank is empty, so its side vector is zero.
        group, p = make_params(encoder_width=4, attn_dim=3, seed=19)
        rng = np.random.default_rng(19)
        hq1 = group.add("hq1", rng.normal(size=(2, 3, 4)))
        words = group.add("words", np.tanh(rng.normal(size=(2, 3, 4, 3))))
        token_mask = np.zeros((2, 3, 4))
        token_mask[0, 0, :2] = 1.0
        token_mask[0, 2, :] = 1.0
        bank_valid = token_mask.any(axis=2).astype(float)
        weights = Tensor(rng.normal(size=(2, 3, 7)), const=True)

        def loss(g):
            hq2, _ = bank_attend_batch(hq1, np.ones((2, 3)), words, token_mask, bank_valid, p)
            return reduce_sum(mul(hq2, weights))

        with Tape() as tape:
            loss(group)
        assert len(tape) == 3  # bank_attend_batch, mul, reduce_sum
        assert grad_check(loss, group, h=1e-6) < 1e-6

    def test_batch_matches_single(self):
        _, p = make_params(encoder_width=4, attn_dim=3, seed=13)
        rng = np.random.default_rng(13)
        t_q, t_u, n_banks, b_sz = 3, 4, 2, 3
        hq1 = rng.normal(size=(b_sz, t_q, 4))
        bank_h = rng.normal(size=(b_sz, n_banks, t_u, 4))
        token_mask = (rng.random((b_sz, n_banks, t_u)) > 0.3).astype(float)
        token_mask[:, :, 0] = 1.0
        token_mask = np.cumprod(token_mask, axis=-1)  # padding is a suffix
        bank_valid = token_mask.any(axis=2).astype(float)
        batched, _ = bank_attend_batch(Tensor(hq1), np.ones((b_sz, t_q)),
                                       transform_bank(Tensor(bank_h), token_mask, p), token_mask,
                                       bank_valid, p)
        for i in range(b_sz):
            single, _ = attend_one(hq1[i], list(bank_h[i]), list(token_mask[i]), p)
            assert np.allclose(batched.data[i], single, atol=1e-12, rtol=0)

    def test_trace_serializes_to_json(self):
        _, p = make_params(encoder_width=4, attn_dim=3, seed=14)
        rng = np.random.default_rng(14)
        hq1, banks, masks = random_instance(rng)
        _, trace = attend_one(hq1, banks, masks, p)
        payload = json.dumps(trace.to_dict())
        parsed = json.loads(payload)
        assert set(parsed) == {"level1_weights", "level1_attended",
                               "level2_weights", "side_vectors"}

    def test_simplex_properties_random_instances(self):
        rng = np.random.default_rng(15)
        _, p = make_params(encoder_width=4, attn_dim=3, seed=15)
        for _ in range(25):
            hq1, banks, masks = random_instance(rng, n_banks=int(rng.integers(1, 4)))
            # pad out a random suffix of each bank question, keeping at least one valid
            masks = [m.copy() for m in masks]
            for m in masks:
                if m.shape[0] > 1:
                    m[rng.integers(0, m.shape[0]):] = 0.0
                if not m.any():
                    m[0] = 1.0
            _, trace = attend_one(hq1, banks, masks, p)
            assert np.all(trace.level1_weights >= 0)
            assert np.all(trace.level2_weights >= 0)
            for n, m in enumerate(masks):
                sums = trace.level1_weights[:, n, :].sum(axis=-1)
                assert np.allclose(sums, 1.0, atol=1e-9)
                dead = trace.level1_weights[:, n, m.shape[0]:]
                assert np.array_equal(dead, np.zeros_like(dead))
            assert np.allclose(trace.level2_weights.sum(axis=-1), 1.0, atol=1e-9)


def mixed_batch(rng, encoder_width=4, t_u=5):
    """Four questions of T_q = 4 with valid lengths 3, 0, 4 and 2, and
    their (B, U, T_u, 2H) bank representations, token_mask and bank_valid.
    Example 0 has PAD bank positions and an empty middle slot, example 1
    is a length-0 question, example 3's bank is fully empty; no bank
    question fills T_u, so every example's level 1 runs on a cut width."""
    q_len = np.array([3, 0, 4, 2])
    bank_len = np.array([[2, 0, 4], [3, 1, 4], [1, 4, 3], [0, 0, 0]])
    hq1 = rng.normal(size=(4, 4, encoder_width))
    query_mask = (np.arange(4) < q_len[:, None]).astype(float)
    bank_h = rng.normal(size=(4, 3, t_u, encoder_width))
    token_mask = (np.arange(t_u) < bank_len[..., None]).astype(float)
    return hq1, query_mask, bank_h, token_mask, token_mask.any(axis=2).astype(float)


class TestBankValid:
    def test_valid_slot_without_words_rejected(self):
        # An all-PAD slot marked valid would take part in level 2 with the
        # summary tanh(b_k2): side vectors of tanh(0.5) = 0.462, not 0.
        _, p = make_params(encoder_width=4, attn_dim=3, seed=25, zero=True)
        p.b_k2.data[...] = 0.5
        hq1 = Tensor(np.random.default_rng(25).normal(size=(1, 2, 4)))
        words = Tensor(np.zeros((1, 1, 3, 3)))
        token_mask = np.zeros((1, 1, 3))
        for bank_valid in (np.ones((1, 1)), np.zeros((1, 2))):
            with pytest.raises(ValueError, match="bank_valid"):
                bank_attend_batch(hq1, np.ones((1, 2)), words, token_mask, bank_valid, p)
        out, _ = bank_attend_batch(hq1, np.ones((1, 2)), words, token_mask,
                                   token_mask.any(axis=2).astype(float), p)
        assert np.array_equal(out.data[..., 4:], np.zeros((1, 2, 3)))


class TestValidQueryRows:
    """bank_attend_batch computes only at valid query positions."""

    def test_gradcheck_all_inputs_mixed_query_lengths(self):
        group, p = make_params(encoder_width=4, attn_dim=3, seed=20)
        rng = np.random.default_rng(20)
        hq1_data, query_mask, bank_h, token_mask, bank_valid = mixed_batch(rng)
        hq1 = group.add("hq1", hq1_data)
        words = group.add("words", np.tanh(bank_h[..., :3]))
        weights = Tensor(rng.normal(size=(4, 4, 7)), const=True)

        def loss(g):
            hq2, _ = bank_attend_batch(hq1, query_mask, words, token_mask, bank_valid, p)
            return reduce_sum(mul(hq2, weights))

        with Tape() as tape:
            loss(group)
        assert len(tape) == 3  # bank_attend_batch, mul, reduce_sum
        assert grad_check(loss, group, h=1e-6) < 1e-6

    def test_padded_query_rows_ignored(self):
        _, p = make_params(encoder_width=4, attn_dim=3, seed=21)
        rng = np.random.default_rng(21)
        hq1, query_mask, bank_h, token_mask, bank_valid = mixed_batch(rng)
        words = transform_bank(Tensor(bank_h), token_mask, p)
        base, base_traces = bank_attend_batch(Tensor(hq1), query_mask, words, token_mask,
                                              bank_valid, p, want_trace=True)
        padded = query_mask == 0
        garbage = hq1.copy()
        garbage[padded] = 1e3 * rng.normal(size=(padded.sum(), 4))
        out, traces = bank_attend_batch(Tensor(garbage), query_mask, words, token_mask,
                                        bank_valid, p, want_trace=True)
        valid = ~padded
        assert np.array_equal(out.data[valid], base.data[valid])
        assert np.array_equal(out.data[padded, :4], garbage[padded])
        assert np.array_equal(out.data[padded, 4:], np.zeros((padded.sum(), 3)))
        for n, trace, base_trace in zip(query_mask.sum(axis=1).astype(int), traces,
                                        base_traces):
            for field in ("level1_weights", "level1_attended", "level2_weights", "side"):
                got = getattr(trace, field)
                assert np.array_equal(got, getattr(base_trace, field))
                assert np.array_equal(got[n:], np.zeros_like(got[n:]))

    def test_mixed_lengths_match_reference_per_example(self):
        _, p = make_params(encoder_width=4, attn_dim=3, seed=22)
        rng = np.random.default_rng(22)
        hq1, query_mask, bank_h, token_mask, bank_valid = mixed_batch(rng)
        out, traces = bank_attend_batch(Tensor(hq1), query_mask,
                                        transform_bank(Tensor(bank_h), token_mask, p),
                                        token_mask, bank_valid, p, want_trace=True)
        for i, n in enumerate(query_mask.sum(axis=1).astype(int)):
            ref_hq2, ref_w1, ref_a1, ref_w2 = reference_bank_attention(
                hq1[i, :n], list(bank_h[i]), list(token_mask[i]), p)
            assert np.allclose(out.data[i, :n], ref_hq2, atol=1e-12, rtol=0)
            assert np.array_equal(out.data[i, n:, 4:], np.zeros((4 - n, 3)))
            if n == 0:
                continue
            assert np.allclose(traces[i].level1_weights[:n], ref_w1, atol=1e-12, rtol=0)
            assert np.allclose(traces[i].level1_attended[:n], ref_a1, atol=1e-12, rtol=0)
            assert np.allclose(traces[i].level2_weights[:n], ref_w2, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("case, match", [
        ("query_mask_shape", "query_mask shape"),
        ("query_mask_not_binary", "query_mask entries"),
        ("query_mask_not_prefix", "query_mask rows"),
        ("token_mask_shape", "token_mask shape"),
        ("token_mask_not_binary", "token_mask entries"),
        ("token_mask_not_prefix", "token_mask rows")])
    def test_bad_masks_rejected(self, case, match):
        _, p = make_params(encoder_width=4, attn_dim=3, seed=24)
        rng = np.random.default_rng(24)
        hq1, query_mask, bank_h, token_mask, bank_valid = mixed_batch(rng)
        words = Tensor(np.tanh(bank_h[..., :3]))
        target, flaw = case.split("_mask_")
        bad = (query_mask if target == "query" else token_mask).copy()
        if flaw == "shape":
            bad = bad[..., :-1]
        elif flaw == "not_binary":
            bad[(0,) * bad.ndim] = 0.5
        else:
            bad[(0,) * bad.ndim] = 0.0  # the first row keeps a later 1
        if target == "query":
            query_mask = bad
        else:
            token_mask = bad
        with pytest.raises(ValueError, match=match):
            bank_attend_batch(Tensor(hq1), query_mask, words, token_mask, bank_valid, p)
