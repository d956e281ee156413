import warnings

import numpy as np
import pytest

from fnr.autodiff import NonFiniteError, Tape, Tensor
from fnr.lstm import BlstmParams, blstm_forward, glorot, init_blstm, init_lstm
from fnr.optim import ParamGroup, grad_check
from test_attention import unpack


GATES = ("i", "f", "o", "g")


def gate_rows(name, hidden):
    """Rows of gate ``name``'s block in the stacked (4H, ...) tensors."""
    j = GATES.index(name)
    return slice(j * hidden, (j + 1) * hidden)


def gate(p, name):
    """Views (w_x, w_h, b) of one gate's block of ``p``."""
    rows = gate_rows(name, p.hidden_size)
    return p.w_x.data[rows], p.w_h.data[rows], p.b.data[rows]


def pre_activation(x, h, p, name):
    w_x, w_h, b = gate(p, name)
    return w_x @ x + w_h @ h + b


def zero_lstm(din, hidden, forget_bias=0.0):
    g = ParamGroup()
    p = init_lstm(g, "z", din, hidden, np.random.default_rng(0))
    for name in g.names():
        g.assign(name, ..., 0.0)
    g.assign("z.b", gate_rows("f", hidden), forget_bias)
    return g, p


def rand_lstm(din, hidden, seed):
    g = ParamGroup()
    return g, init_lstm(g, "r", din, hidden, np.random.default_rng(seed))


def reference_lstm_step(x, h, c, p):
    """Straight-line transcription of the gate equations, numpy only."""
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    i = sig(pre_activation(x, h, p, "i"))
    f = sig(pre_activation(x, h, p, "f"))
    o = sig(pre_activation(x, h, p, "o"))
    g = np.tanh(pre_activation(x, h, p, "g"))
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
    per-gate parameter gradients keyed by gate, each as (w_x, w_h, b)."""
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))  # noqa: E731
    hidden = p.hidden_size
    grads = {name: tuple(np.zeros_like(t) for t in gate(p, name)) for name in GATES}
    d_x = np.zeros_like(x)
    for b in range(x.shape[0]):
        times = list(range(lengths[b]))
        if reverse:
            times.reverse()
        h, c = np.zeros(hidden), np.zeros(hidden)
        cache = []
        for t in times:
            xt = x[b, t]
            i = sig(pre_activation(xt, h, p, "i"))
            f = sig(pre_activation(xt, h, p, "f"))
            o = sig(pre_activation(xt, h, p, "o"))
            g = np.tanh(pre_activation(xt, h, p, "g"))
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
            for name, d in d_a.items():
                d_wx, d_wh, d_b = grads[name]
                w_x, w_h, _ = gate(p, name)
                d_wx += np.outer(d, x[b, t])
                d_wh += np.outer(d, h_prev)
                d_b += d
                d_x[b, t] += w_x.T @ d
                d_h_next += w_h.T @ d
            d_c_next = d_c * f
    return d_x, grads


def prefix_mask(lengths, steps):
    return (np.arange(steps)[None, :] < np.asarray(lengths)[:, None]).astype(float)


def blstm_padded(x, mask, p, **kwargs):
    """``blstm_forward`` on the valid rows of a padded (..., T, din) x, its
    output scattered into (..., T, 2H), zero at padding."""
    mask = np.asarray(mask)
    return Tensor(unpack(blstm_forward(Tensor(x.data[mask > 0]), mask, p, **kwargs).data, mask))


def lstm_scan(x, mask, p, reverse=False):
    """One LSTM direction: its half of the ``blstm_forward`` output when
    both directions share ``p``, unpacked to (..., T, H)."""
    out = blstm_padded(x, mask, BlstmParams(fwd=p, bwd=p))
    hidden = p.hidden_size
    return Tensor(out.data[..., hidden:] if reverse else out.data[..., :hidden])


class TestInitLstm:
    def test_stacks_per_gate_glorot_draws(self):
        din, hidden = 3, 5
        g = ParamGroup()
        p = init_lstm(g, "s", din, hidden, np.random.default_rng(11))
        rng = np.random.default_rng(11)
        for name in GATES:
            w_x, w_h, b = gate(p, name)
            assert np.array_equal(w_x, glorot(rng, (hidden, din)))
            assert np.array_equal(w_h, glorot(rng, (hidden, hidden)))
            assert np.array_equal(b, np.full(hidden, 1.0 if name == "f" else 0.0))
        assert g.names() == ["s.w_x", "s.w_h", "s.b"]
        assert (p.w_x.shape, p.w_h.shape, p.b.shape) == ((4 * hidden, din),
                                                         (4 * hidden, hidden), (4 * hidden,))


class TestLstmScan:
    """Each scan direction of ``blstm_forward``, read off its half of the
    output."""

    def test_all_zero_parameters(self):
        # At zero parameters o = 1/2, so h = tanh(c)/2 is zero at a step
        # exactly when the cell is: zero outputs mean zero cells too.
        _, p = zero_lstm(3, 2)
        x = np.random.default_rng(0).normal(size=(1, 4, 3))
        for reverse in (False, True):
            h = lstm_scan(Tensor(x), np.ones((1, 4)), p, reverse=reverse)
            assert np.array_equal(h.data, np.zeros((1, 4, 2)))

    def test_saturated_forget_gate_preserves_cell(self):
        # Step 0 writes c_prev into the cell (i saturated at 1, g = c_prev);
        # later inputs are zero, so g = 0 and only the forget gate acts.
        # With o = 1/2 throughout, h_t = tanh(c_t)/2 reads the cell back.
        g, p = zero_lstm(3, 2, forget_bias=50.0)
        c_prev = np.array([0.7, -0.3])
        g.assign("z.w_x", (gate_rows("i", 2), 0), 50.0)
        g.assign("z.w_x", (gate_rows("g", 2), 0), np.arctanh(c_prev))
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
    def test_gradcheck_mixed_lengths(self, reverse):
        group, p = rand_lstm(2, 3, seed=7)
        steps = 4
        rng = np.random.default_rng(8)
        mask = prefix_mask([0, 1, steps - 1, steps], steps)
        x = group.add("x", rng.normal(size=(4, steps, 2))[mask > 0])
        # Weights on the tested direction's half only; both halves share p.
        weights = np.zeros((4, steps, 6))
        half = slice(3, 6) if reverse else slice(0, 3)
        weights[..., half] = rng.normal(size=(4, steps, 3))
        weights = weights[mask > 0]
        p2 = BlstmParams(fwd=p, bwd=p)
        assert grad_check(lambda g: blstm_forward(x, mask, p2), group, h=1e-5,
                          seed=weights) < 1e-5

    def test_overflow_raises_nonfinite_without_warning(self):
        g, p = zero_lstm(3, 2)
        g.assign("z.w_x", gate_rows("i", 2), 1e300)
        x = Tensor(np.full((1, 2, 3), 1e10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError):
                lstm_scan(x, np.ones((1, 2)), p)


def rand_blstm(din, hidden, seed):
    g = ParamGroup()
    return g, init_blstm(g, "b", din, hidden, np.random.default_rng(seed))


def taped_node_bytes(n, hidden, item):
    """What a taped node over n rows keeps: per direction the four gate
    activations (4H) and the packed row index, plus a byte per row to
    spare; then the (n, 2H) output."""
    return 2 * ((4 * hidden + 1) * item + 1) * n + 2 * hidden * n * item


class TestBlstmForward:
    def test_output_shape(self):
        # One (2H,) row per valid token of the mask.
        _, p = rand_blstm(3, 8, seed=0)
        out = blstm_forward(Tensor(np.random.default_rng(0).normal(size=(4, 3))),
                            prefix_mask([3, 0, 1], 5), p)
        assert out.shape == (4, 16)

    def test_masked_rows_exactly_zero(self):
        _, p = rand_blstm(3, 4, seed=1)
        x = np.random.default_rng(1).normal(size=(1, 5, 3))
        mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0]])
        out = blstm_padded(Tensor(x), mask, p)
        assert np.array_equal(out.data[0, 3:], np.zeros((2, 8)))

    def test_reversal_oracle(self):
        # Backward-direction outputs on s equal forward-direction outputs on
        # reversed s, re-reversed, when both directions share parameters.
        g = ParamGroup()
        fwd = init_lstm(g, "only", 3, 4, np.random.default_rng(3))
        p = BlstmParams(fwd=fwd, bwd=fwd)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 6, 3))
        out = blstm_padded(Tensor(x), np.ones((1, 6)), p)
        out_rev = blstm_padded(Tensor(x[:, ::-1].copy()), np.ones((1, 6)), p)
        fwd_half, bwd_half = out.data[0, :, :4], out.data[0, :, 4:]
        fwd_half_rev = out_rev.data[0, :, :4]
        assert np.allclose(bwd_half, fwd_half_rev[::-1], atol=1e-12)

    def test_reverse_scan_is_forward_scan_over_reversed_rows(self):
        # Both directions run one packed schedule, so the reverse half of a
        # node is, bit for bit, the forward half of a node running the same
        # weights on each sequence reversed: outputs and weight gradients.
        group = ParamGroup()
        p = init_blstm(group, "b", 3, 5, np.random.default_rng(34))
        rng = np.random.default_rng(35)
        steps, lengths = 7, [0, 1, 7, 3, 7, 2, 5, 1, 6]
        mask = prefix_mask(lengths, steps)
        starts = np.cumsum(lengths) - lengths
        flip = np.concatenate([s + np.arange(n)[::-1] for s, n in zip(starts, lengths)])
        x = rng.normal(size=(sum(lengths), 3))
        g_out = rng.normal(size=(sum(lengths), 10))
        g_rev = rng.normal(size=g_out.shape)
        g_rev[:, :5] = g_out[flip, 5:]
        with Tape() as tape:
            out = blstm_forward(Tensor(x), mask, p)
        grads = tape.gradients(out, seed=g_out)
        with Tape() as tape:
            out_rev = blstm_forward(Tensor(x[flip]), mask, BlstmParams(fwd=p.bwd, bwd=p.fwd))
        grads_rev = tape.gradients(out_rev, seed=g_rev)
        assert out.data[:, 5:].tobytes() == out_rev.data[flip, :5].tobytes()
        for t in (p.bwd.w_x, p.bwd.w_h, p.bwd.b):
            assert grads[t].tobytes() == grads_rev[t].tobytes()

    def test_pad_extension_bit_for_bit(self):
        _, p = rand_blstm(3, 4, seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 3))
        base = blstm_padded(Tensor(x[None]), np.ones((1, 4)), p)
        extended = np.vstack([x, rng.normal(size=(3, 3))])
        mask = np.array([[1.0] * 4 + [0.0] * 3])
        out = blstm_padded(Tensor(extended[None]), mask, p)
        assert np.array_equal(out.data[0, :4], base.data[0])
        assert np.array_equal(out.data[0, 4:], np.zeros((3, 8)))

    def test_gradcheck_small_instance(self):
        group = ParamGroup()
        p = init_blstm(group, "b", 2, 3, np.random.default_rng(7))
        x = np.random.default_rng(8).normal(size=(1, 4, 2))
        mask = np.array([[1.0, 1.0, 1.0, 0.0]])
        weights = np.random.default_rng(9).normal(size=(1, 4, 6))
        assert grad_check(lambda g: blstm_forward(Tensor(x[mask > 0]), mask, p), group,
                          h=1e-5, seed=weights[mask > 0]) < 1e-5

    def test_batched_matches_single(self):
        _, p = rand_blstm(3, 4, seed=13)
        rng = np.random.default_rng(14)
        x = rng.normal(size=(3, 5, 3))
        mask = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0], [1, 0, 0, 0, 0]], dtype=float)
        batched = blstm_padded(Tensor(x), mask, p)
        for b in range(3):
            single = blstm_padded(Tensor(x[b:b + 1]), mask[b:b + 1], p)
            assert np.allclose(batched.data[b], single.data[0], atol=1e-12, rtol=0)

    def test_mask_must_be_prefix_shaped(self):
        # x must hold exactly one row per valid token of the mask.
        _, p = rand_blstm(2, 2, seed=15)
        for x in (np.zeros((3, 2)), np.zeros((5, 2)), np.zeros((1, 4, 2))):
            with pytest.raises(ValueError, match="one row per valid token"):
                blstm_forward(Tensor(x), np.ones((1, 4)), p)

    def test_non_prefix_mask_rejected(self):
        _, p = rand_blstm(2, 2, seed=16)
        mask = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="prefix"):
            blstm_forward(Tensor(np.zeros((3, 2))), mask, p)

    def test_non_binary_mask_rejected(self):
        _, p = rand_blstm(2, 2, seed=17)
        with pytest.raises(ValueError, match="0 or 1"):
            blstm_forward(Tensor(np.zeros((1, 2))), np.array([[1.0, 0.5, 0.0]]), p)

    def test_empty_rows_allowed(self):
        _, p = rand_blstm(2, 2, seed=18)
        mask = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        out = blstm_padded(Tensor(np.ones((2, 3, 2))), mask, p)
        assert np.array_equal(out.data[1], np.zeros((3, 4)))

    def test_one_tape_node(self):
        _, p = rand_blstm(2, 3, seed=19)
        x = Tensor(np.ones((4, 2)))
        with Tape() as tape:
            blstm_forward(x, prefix_mask([3, 1], 3), p, dropout_rate=0.5,
                          rng=np.random.default_rng(20))
        assert len(tape) == 1
        assert len(tape._nodes[0][1]) == 7  # x, then each direction's w_x, w_h, b

    def test_gradcheck_fused_node(self):
        # Bank-shaped (B, U, T, din) input with dropout, rows of length
        # 0, 1, T-1 and T, and a slot whose rows are all empty.
        group = ParamGroup()
        p = init_blstm(group, "b", 2, 3, np.random.default_rng(21))
        rng = np.random.default_rng(22)
        steps = 4
        mask = prefix_mask([4, 1, 0, 3, 0, 0], steps).reshape(2, 3, steps)
        x = group.add("x", rng.normal(size=(2, 3, steps, 2))[mask > 0])
        weights = rng.normal(size=(2, 3, steps, 6))[mask > 0]

        def out(g):
            return blstm_forward(x, mask, p, dropout_rate=0.3,
                                 rng=np.random.default_rng(23))  # same mask every evaluation

        assert grad_check(out, group, h=1e-5, seed=weights) < 1e-5

    def test_gradients_match_reference_bptt(self):
        # Both directions at once, rows of length 0 to T, separate
        # parameters per direction.
        group = ParamGroup()
        p = init_blstm(group, "b", 3, 4, np.random.default_rng(27))
        rng = np.random.default_rng(28)
        steps, lengths = 5, [0, 5, 1, 3, 5, 2, 0, 4]
        mask = prefix_mask(lengths, steps)
        x_data = rng.normal(size=(len(lengths), steps, 3))
        x = group.add("x", x_data[mask > 0])
        g_out = rng.normal(size=(len(lengths), steps, 8))
        with Tape() as tape:
            out = blstm_forward(x, mask, p)
        grads = tape.gradients(out, seed=g_out[mask > 0])
        d_x = np.zeros_like(x_data)
        for half, direction, reverse in ((slice(0, 4), p.fwd, False),
                                         (slice(4, 8), p.bwd, True)):
            d_x_dir, want = reference_bptt(x_data, lengths, direction, g_out[..., half],
                                           reverse)
            d_x += d_x_dir
            for name, refs in want.items():
                rows = gate_rows(name, direction.hidden_size)
                for t, ref in zip((direction.w_x, direction.w_h, direction.b), refs):
                    assert np.allclose(grads[t][rows], ref, atol=1e-12, rtol=0)
        assert np.allclose(grads[x], d_x[mask > 0], atol=1e-12, rtol=0)

    def test_taped_output_equals_tape_free(self):
        _, p = rand_blstm(3, 4, seed=29)
        rng = np.random.default_rng(30)
        mask = prefix_mask([6, 0, 2, 5, 1, 3], 6).reshape(2, 3, 6)
        x = Tensor(rng.normal(size=(2, 3, 6, 3))[mask > 0])
        free = blstm_forward(x, mask, p)
        with Tape():
            taped = blstm_forward(x, mask, p)
        assert np.array_equal(taped.data, free.data)

    def test_bank_shaped_matches_flattened(self):
        group = ParamGroup()
        p = init_blstm(group, "b", 2, 3, np.random.default_rng(24))
        rng = np.random.default_rng(25)
        mask4 = prefix_mask([5, 2, 0, 4, 0, 1], 5).reshape(2, 3, 5)
        x_rows = rng.normal(size=(2, 3, 5, 2))[mask4 > 0]
        weights = rng.normal(size=(2, 3, 5, 6))[mask4 > 0]
        results = []
        for x, mask in ((Tensor(x_rows), mask4), (Tensor(x_rows), mask4.reshape(6, 5))):
            with Tape() as tape:
                out = blstm_forward(x, mask, p, dropout_rate=0.4, rng=np.random.default_rng(26))
            grads = tape.gradients(out, seed=weights.reshape(out.shape))
            results.append([out.data.reshape(-1), grads[x].reshape(-1)]
                           + [grads[t] for _, t in group.items()])
        for a, b in zip(*results):
            assert np.array_equal(a, b)

    def test_taped_scan_keeps_no_input_copy(self, traced):
        # With din >> H the packed input rows dwarf what backward needs:
        # the node regathers them from x instead of keeping a copy.
        n_rows, steps, din, hidden = 8, 50, 400, 4
        _, p = rand_blstm(din, hidden, seed=31)
        x = Tensor(np.random.default_rng(31).normal(size=(n_rows * steps, din)))
        n, item = n_rows * steps, x.data.itemsize
        bound = taped_node_bytes(n, hidden, item) + 24 * 1024
        assert n * din * item > bound

        def forward():
            with Tape() as tape:
                return tape, blstm_forward(x, np.ones((n_rows, steps)), p)
        (tape, out), live, _ = traced(forward)
        assert len(tape) == 1 and out.shape == (n_rows * steps, 2 * hidden)
        assert live < bound

    def test_backward_allocates_no_gate_gradient_array(self, traced):
        # The forward keeps each direction's four gate activations; each
        # direction's backward rebuilds its (n, H) cell states, turns the
        # activations into the gate gradients in place and frees them
        # before the other runs.  So forward plus backward peak at the
        # saved layout and output, plus one direction's cell states and
        # output-gradient rows, d_x and the weight gradients: two more
        # (n, H) rows per direction kept by the forward (4H in all), or
        # one more (n, 4H) array, would exceed the bound.
        n_rows, steps, din, hidden = 8, 50, 4, 32
        _, p = rand_blstm(din, hidden, seed=33)
        rng = np.random.default_rng(33)
        x = Tensor(rng.normal(size=(n_rows * steps, din)))
        n, item = n_rows * steps, x.data.itemsize
        seed = rng.normal(size=(n, 2 * hidden))
        kept = taped_node_bytes(n, hidden, item)
        extra = (2 * hidden * n + n * din + 2 * 4 * hidden * (din + hidden + 1)) * item + 64 * 1024
        assert 4 * hidden * n * item > extra

        def step():
            with Tape() as tape:
                out = blstm_forward(x, np.ones((n_rows, steps)), p)
            return tape.gradients(out, seed=seed)
        grads, _, peak = traced(step)
        assert len(grads) == 7
        assert peak < kept + extra

    def test_dropout_keeps_no_scaled_copy(self, traced):
        # Dropout scales the output in place and keeps only its bool keep
        # mask (n x 2H bytes): a second (n, 2H) float array would exceed
        # the bound of the dropout-free node.
        n_rows, steps, din, hidden = 8, 50, 4, 16
        _, p = rand_blstm(din, hidden, seed=35)
        x = Tensor(np.random.default_rng(35).normal(size=(n_rows * steps, din)))
        n, item = n_rows * steps, x.data.itemsize
        slack = 24 * 1024
        bound = taped_node_bytes(n, hidden, item) + 2 * hidden * n + slack
        assert 2 * hidden * n * item > slack + n

        def forward():
            with Tape() as tape:
                return tape, blstm_forward(x, np.ones((n_rows, steps)), p, dropout_rate=0.5,
                                           rng=np.random.default_rng(35))
        (tape, out), live, _ = traced(forward)
        assert len(tape) == 1 and np.any(out.data == 0.0)
        assert live < bound

    def test_backward_reads_no_output(self):
        # Backward rebuilds every previous hidden state from the gate
        # activations it keeps: overwriting the node's output after the
        # forward leaves every gradient bit for bit as it was.
        group, p = rand_blstm(3, 4, seed=36)
        rng = np.random.default_rng(36)
        mask = prefix_mask([5, 0, 1, 3, 5], 5)
        n = int(mask.sum())
        x = Tensor(rng.normal(size=(n, 3)))
        seed = rng.normal(size=(n, 8))
        results = []
        for spoil in (False, True):
            with Tape() as tape:
                out = blstm_forward(x, mask, p)
            if spoil:
                np.copyto(out.data, np.nan)
            grads = tape.gradients(out, seed=seed)
            results.append([grads[x]] + [grads[t] for _, t in group.items()])
        for a, b in zip(*results):
            assert a.tobytes() == b.tobytes()
