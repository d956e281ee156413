import warnings

import numpy as np
import pytest

from fnr.autodiff import NonFiniteError, Tape, Tensor, mul, reduce_sum
from fnr.lstm import BlstmParams, blstm_forward, init_blstm, init_lstm
from fnr.optim import ParamGroup, grad_check


def zero_lstm(din, hidden, forget_bias=0.0):
    g = ParamGroup()
    p = init_lstm(g, "z", din, hidden, np.random.default_rng(0))
    for name, t in g.items():
        t.data[...] = 0.0
    p.b_f.data[...] = forget_bias
    return p


def rand_lstm(din, hidden, seed):
    g = ParamGroup()
    return g, init_lstm(g, "r", din, hidden, np.random.default_rng(seed))


def reference_lstm_step(x, h, c, p):
    """Straight-line transcription of the gate equations, numpy only."""
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    i = sig(p.w_xi.data @ x + p.w_hi.data @ h + p.b_i.data)
    f = sig(p.w_xf.data @ x + p.w_hf.data @ h + p.b_f.data)
    o = sig(p.w_xo.data @ x + p.w_ho.data @ h + p.b_o.data)
    g = np.tanh(p.w_xg.data @ x + p.w_hg.data @ h + p.b_g.data)
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


def reference_scan(x, lengths, p, reverse=False):
    """Row by row, step by step over each row's valid prefix from zero
    state; padded positions stay zero."""
    batch, steps, _ = x.shape
    hidden = p.hidden_size
    out = np.zeros((batch, steps, hidden))
    for b in range(batch):
        h, c = np.zeros(hidden), np.zeros(hidden)
        times = range(lengths[b])
        for t in (reversed(times) if reverse else times):
            h, c = reference_lstm_step(x[b, t], h, c, p)
            out[b, t] = h
    return out


def reference_bptt(x, lengths, p, g_out, reverse=False):
    """Gradients of sum(g_out * h) for one direction, row by row: the
    forward of ``reference_scan`` keeping each step's gates, then the gate
    derivative equations back through time.  Returns d_x and a dict of
    parameter gradients keyed like the ``LstmParams`` fields."""
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))  # noqa: E731
    hidden = p.hidden_size
    grads = {name: np.zeros_like(getattr(p, name).data) for name in (
        "w_xi", "w_hi", "b_i", "w_xf", "w_hf", "b_f", "w_xo", "w_ho", "b_o",
        "w_xg", "w_hg", "b_g")}
    d_x = np.zeros_like(x)
    for b in range(x.shape[0]):
        times = list(range(lengths[b]))
        if reverse:
            times.reverse()
        h, c = np.zeros(hidden), np.zeros(hidden)
        cache = []
        for t in times:
            xt = x[b, t]
            i = sig(p.w_xi.data @ xt + p.w_hi.data @ h + p.b_i.data)
            f = sig(p.w_xf.data @ xt + p.w_hf.data @ h + p.b_f.data)
            o = sig(p.w_xo.data @ xt + p.w_ho.data @ h + p.b_o.data)
            g = np.tanh(p.w_xg.data @ xt + p.w_hg.data @ h + p.b_g.data)
            c_new = f * c + i * g
            cache.append((t, h, c, i, f, o, g, c_new))
            h, c = o * np.tanh(c_new), c_new
        d_h_next, d_c_next = np.zeros(hidden), np.zeros(hidden)
        for t, h_prev, c_prev, i, f, o, g, c in reversed(cache):
            d_h = g_out[b, t] + d_h_next
            d_c = d_h * o * (1.0 - np.tanh(c) ** 2) + d_c_next
            d_a = {"o": d_h * np.tanh(c) * o * (1.0 - o),
                   "i": d_c * g * i * (1.0 - i),
                   "f": d_c * c_prev * f * (1.0 - f),
                   "g": d_c * i * (1.0 - g ** 2)}
            d_h_next = np.zeros(hidden)
            for gate, d in d_a.items():
                grads[f"w_x{gate}"] += np.outer(d, x[b, t])
                grads[f"w_h{gate}"] += np.outer(d, h_prev)
                grads[f"b_{gate}"] += d
                d_x[b, t] += getattr(p, f"w_x{gate}").data.T @ d
                d_h_next += getattr(p, f"w_h{gate}").data.T @ d
            d_c_next = d_c * f
    return d_x, grads


def prefix_mask(lengths, steps):
    return (np.arange(steps)[None, :] < np.asarray(lengths)[:, None]).astype(float)


def lstm_scan(x, mask, p, reverse=False):
    """One LSTM direction: its half of the ``blstm_forward`` output when
    both directions share ``p``."""
    out = blstm_forward(x, mask, BlstmParams(fwd=p, bwd=p))
    hidden = p.hidden_size
    return Tensor(out.data[..., hidden:] if reverse else out.data[..., :hidden])


class TestLstmScan:
    """Each scan direction of ``blstm_forward``, read off its half of the
    output."""

    def test_all_zero_parameters(self):
        # At zero parameters o = 1/2, so h = tanh(c)/2 is zero at a step
        # exactly when the cell is: zero outputs mean zero cells too.
        p = zero_lstm(3, 2)
        x = np.random.default_rng(0).normal(size=(1, 4, 3))
        for reverse in (False, True):
            h = lstm_scan(Tensor(x), np.ones((1, 4)), p, reverse=reverse)
            assert np.array_equal(h.data, np.zeros((1, 4, 2)))

    def test_saturated_forget_gate_preserves_cell(self):
        # Step 0 writes c_prev into the cell (i saturated at 1, g = c_prev);
        # later inputs are zero, so g = 0 and only the forget gate acts.
        # With o = 1/2 throughout, h_t = tanh(c_t)/2 reads the cell back.
        p = zero_lstm(3, 2, forget_bias=50.0)
        c_prev = np.array([0.7, -0.3])
        p.w_xi.data[:, 0] = 50.0
        p.w_xg.data[:, 0] = np.arctanh(c_prev)
        x = np.zeros((1, 5, 3))
        x[0, 0, 0] = 1.0
        h = lstm_scan(Tensor(x), np.ones((1, 5)), p)
        for t in range(5):
            assert np.allclose(h.data[0, t], 0.5 * np.tanh(c_prev), atol=1e-12)

    def test_matches_reference_recurrence(self):
        _, p = rand_lstm(3, 3, seed=42)
        x = np.random.default_rng(1).normal(size=(3, 5, 3))
        lengths = [5, 3, 1]
        for reverse in (False, True):
            h = lstm_scan(Tensor(x), prefix_mask(lengths, 5), p, reverse=reverse)
            assert np.allclose(h.data, reference_scan(x, lengths, p, reverse), atol=1e-12)

    def test_batched_matches_single(self):
        _, p = rand_lstm(3, 4, seed=5)
        xs = np.random.default_rng(2).normal(size=(2, 3, 3))
        hb = lstm_scan(Tensor(xs), np.ones((2, 3)), p)
        for b in range(2):
            hs = lstm_scan(Tensor(xs[b:b + 1]), np.ones((1, 3)), p)
            assert np.allclose(hb.data[b], hs.data[0], atol=1e-12, rtol=0)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_batch_equals_each_row_scanned_alone(self, reverse):
        _, p = rand_lstm(3, 4, seed=6)
        steps = 6
        lengths = [0, 1, steps - 1, steps, 3, 1]
        x = np.random.default_rng(3).normal(size=(len(lengths), steps, 3))
        batched = lstm_scan(Tensor(x), prefix_mask(lengths, steps), p, reverse=reverse)
        for b, n in enumerate(lengths):
            alone = lstm_scan(Tensor(x[b:b + 1, :n]), np.ones((1, n)), p, reverse=reverse)
            assert np.allclose(batched.data[b, :n], alone.data[0], atol=1e-12, rtol=0)
            assert np.array_equal(batched.data[b, n:], np.zeros((steps - n, 4)))

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("x_const", [True, False])
    def test_gradcheck_mixed_lengths(self, reverse, x_const):
        group, p = rand_lstm(2, 3, seed=7)
        steps = 4
        rng = np.random.default_rng(8)
        x_data = rng.normal(size=(4, steps, 2))
        x = Tensor(x_data, const=True) if x_const else group.add("x", x_data)
        mask = prefix_mask([0, 1, steps - 1, steps], steps)
        # Weights on the tested direction's half only; both halves share p.
        weights = np.zeros((4, steps, 6))
        half = slice(3, 6) if reverse else slice(0, 3)
        weights[..., half] = rng.normal(size=(4, steps, 3))
        weights = Tensor(weights, const=True)
        p2 = BlstmParams(fwd=p, bwd=p)

        def loss(g):
            return reduce_sum(mul(blstm_forward(x, mask, p2), weights))

        assert grad_check(loss, group, h=1e-5) < 1e-5

    def test_overflow_raises_nonfinite_without_warning(self):
        p = zero_lstm(3, 2)
        p.w_xi.data[...] = 1e300
        x = Tensor(np.full((1, 2, 3), 1e10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError):
                lstm_scan(x, np.ones((1, 2)), p)


def rand_blstm(din, hidden, seed):
    g = ParamGroup()
    return g, init_blstm(g, "b", din, hidden, np.random.default_rng(seed))


class TestBlstmForward:
    def test_output_shape(self):
        _, p = rand_blstm(3, 8, seed=0)
        out = blstm_forward(Tensor(np.random.default_rng(0).normal(size=(1, 5, 3))),
                            np.ones((1, 5)), p)
        assert out.shape == (1, 5, 16)

    def test_masked_rows_exactly_zero(self):
        _, p = rand_blstm(3, 4, seed=1)
        x = np.random.default_rng(1).normal(size=(1, 5, 3))
        mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0]])
        out = blstm_forward(Tensor(x), mask, p)
        assert np.array_equal(out.data[0, 3:], np.zeros((2, 8)))

    def test_reversal_oracle(self):
        # Backward-direction outputs on s equal forward-direction outputs on
        # reversed s, re-reversed, when both directions share parameters.
        g = ParamGroup()
        fwd = init_lstm(g, "only", 3, 4, np.random.default_rng(3))
        p = BlstmParams(fwd=fwd, bwd=fwd)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 6, 3))
        out = blstm_forward(Tensor(x), np.ones((1, 6)), p)
        out_rev = blstm_forward(Tensor(x[:, ::-1].copy()), np.ones((1, 6)), p)
        fwd_half, bwd_half = out.data[0, :, :4], out.data[0, :, 4:]
        fwd_half_rev = out_rev.data[0, :, :4]
        assert np.allclose(bwd_half, fwd_half_rev[::-1], atol=1e-12)

    def test_pad_extension_bit_for_bit(self):
        _, p = rand_blstm(3, 4, seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 3))
        base = blstm_forward(Tensor(x[None]), np.ones((1, 4)), p)
        extended = np.vstack([x, rng.normal(size=(3, 3))])
        mask = np.array([[1.0] * 4 + [0.0] * 3])
        out = blstm_forward(Tensor(extended[None]), mask, p)
        assert np.array_equal(out.data[0, :4], base.data[0])
        assert np.array_equal(out.data[0, 4:], np.zeros((3, 8)))

    def test_gradcheck_small_instance(self):
        group = ParamGroup()
        p = init_blstm(group, "b", 2, 3, np.random.default_rng(7))
        x = np.random.default_rng(8).normal(size=(1, 4, 2))
        mask = np.array([[1.0, 1.0, 1.0, 0.0]])
        weights = np.random.default_rng(9).normal(size=(1, 4, 6))

        def loss(g):
            out = blstm_forward(Tensor(x, const=True), mask, p)
            return reduce_sum(mul(out, Tensor(weights, const=True)))

        assert grad_check(loss, group, h=1e-5) < 1e-5

    def test_dropout_training_only(self):
        _, p = rand_blstm(2, 3, seed=10)
        x = Tensor(np.random.default_rng(11).normal(size=(1, 4, 2)))
        mask = np.ones((1, 4))
        eval_out = blstm_forward(x, mask, p, dropout_rate=0.5, training=False)
        ref = blstm_forward(x, mask, p)
        assert np.array_equal(eval_out.data, ref.data)
        train_out = blstm_forward(x, mask, p, dropout_rate=0.5, training=True,
                                  rng=np.random.default_rng(12))
        assert (train_out.data == 0.0).sum() > (ref.data == 0.0).sum()

    def test_batched_matches_single(self):
        _, p = rand_blstm(3, 4, seed=13)
        rng = np.random.default_rng(14)
        x = rng.normal(size=(3, 5, 3))
        mask = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0], [1, 0, 0, 0, 0]], dtype=float)
        batched = blstm_forward(Tensor(x), mask, p)
        for b in range(3):
            single = blstm_forward(Tensor(x[b:b + 1]), mask[b:b + 1], p)
            assert np.allclose(batched.data[b], single.data[0], atol=1e-12, rtol=0)

    def test_mask_must_be_prefix_shaped(self):
        _, p = rand_blstm(2, 2, seed=15)
        with pytest.raises(ValueError):
            blstm_forward(Tensor(np.zeros((1, 3, 2))), np.ones((1, 4)), p)

    def test_non_prefix_mask_rejected(self):
        _, p = rand_blstm(2, 2, seed=16)
        mask = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="prefix"):
            blstm_forward(Tensor(np.zeros((2, 3, 2))), mask, p)

    def test_non_binary_mask_rejected(self):
        _, p = rand_blstm(2, 2, seed=17)
        with pytest.raises(ValueError, match="0 or 1"):
            blstm_forward(Tensor(np.zeros((1, 3, 2))), np.array([[1.0, 0.5, 0.0]]), p)

    def test_empty_rows_allowed(self):
        _, p = rand_blstm(2, 2, seed=18)
        mask = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        out = blstm_forward(Tensor(np.ones((2, 3, 2))), mask, p)
        assert np.array_equal(out.data[1], np.zeros((3, 4)))

    def test_one_tape_node(self):
        _, p = rand_blstm(2, 3, seed=19)
        x = Tensor(np.ones((2, 3, 2)))
        with Tape() as tape:
            blstm_forward(x, prefix_mask([3, 1], 3), p, dropout_rate=0.5, training=True,
                          rng=np.random.default_rng(20))
        assert len(tape) == 1

    @pytest.mark.parametrize("x_const", [True, False])
    def test_gradcheck_fused_node(self, x_const):
        # Bank-shaped (B, U, T, din) input with dropout, rows of length
        # 0, 1, T-1 and T, and a slot whose rows are all empty.
        group = ParamGroup()
        p = init_blstm(group, "b", 2, 3, np.random.default_rng(21))
        rng = np.random.default_rng(22)
        steps = 4
        x_data = rng.normal(size=(2, 3, steps, 2))
        x = Tensor(x_data, const=True) if x_const else group.add("x", x_data)
        mask = prefix_mask([4, 1, 0, 3, 0, 0], steps).reshape(2, 3, steps)
        weights = Tensor(rng.normal(size=(2, 3, steps, 6)), const=True)

        def loss(g):
            out = blstm_forward(x, mask, p, dropout_rate=0.3, training=True,
                                rng=np.random.default_rng(23))  # same mask every evaluation
            return reduce_sum(mul(out, weights))

        assert grad_check(loss, group, h=1e-5) < 1e-5

    @pytest.mark.parametrize("x_const", [True, False])
    def test_gradients_match_reference_bptt(self, x_const):
        # Both directions at once, rows of length 0 to T, separate
        # parameters per direction.
        group = ParamGroup()
        p = init_blstm(group, "b", 3, 4, np.random.default_rng(27))
        rng = np.random.default_rng(28)
        steps, lengths = 5, [0, 5, 1, 3, 5, 2, 0, 4]
        x_data = rng.normal(size=(len(lengths), steps, 3))
        x = Tensor(x_data, const=True) if x_const else group.add("x", x_data)
        g_out = rng.normal(size=(len(lengths), steps, 8))
        with Tape() as tape:
            loss = reduce_sum(mul(blstm_forward(x, prefix_mask(lengths, steps), p),
                                  Tensor(g_out, const=True)))
        grads = tape.gradients(loss)
        d_x = np.zeros_like(x_data)
        for half, direction, reverse in ((slice(0, 4), p.fwd, False),
                                         (slice(4, 8), p.bwd, True)):
            d_x_dir, want = reference_bptt(x_data, lengths, direction, g_out[..., half],
                                           reverse)
            d_x += d_x_dir
            for name, ref in want.items():
                assert np.allclose(grads[getattr(direction, name)], ref, atol=1e-12, rtol=0)
        if not x_const:
            assert np.allclose(grads[x], d_x, atol=1e-12, rtol=0)

    def test_taped_output_equals_tape_free(self):
        _, p = rand_blstm(3, 4, seed=29)
        rng = np.random.default_rng(30)
        x = Tensor(rng.normal(size=(2, 3, 6, 3)))
        mask = prefix_mask([6, 0, 2, 5, 1, 3], 6).reshape(2, 3, 6)
        free = blstm_forward(x, mask, p)
        with Tape():
            taped = blstm_forward(x, mask, p)
        assert np.array_equal(taped.data, free.data)

    def test_bank_shaped_matches_flattened(self):
        group = ParamGroup()
        p = init_blstm(group, "b", 2, 3, np.random.default_rng(24))
        rng = np.random.default_rng(25)
        x4 = Tensor(rng.normal(size=(2, 3, 5, 2)))
        mask4 = prefix_mask([5, 2, 0, 4, 0, 1], 5).reshape(2, 3, 5)
        weights = rng.normal(size=(2, 3, 5, 6))
        results = []
        for x, mask in ((x4, mask4), (Tensor(x4.data.reshape(6, 5, 2)), mask4.reshape(6, 5))):
            with Tape() as tape:
                out = blstm_forward(x, mask, p, dropout_rate=0.4, training=True,
                                    rng=np.random.default_rng(26))
                loss = reduce_sum(mul(out, Tensor(weights.reshape(out.shape), const=True)))
            grads = tape.gradients(loss)
            results.append([out.data.reshape(-1), grads[x].reshape(-1)]
                           + [grads[t] for _, t in group.items()])
        for a, b in zip(*results):
            assert np.array_equal(a, b)
