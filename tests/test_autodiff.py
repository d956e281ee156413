import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fnr.autodiff import (NonFiniteError, Tape, Tensor, add, gather_rows, linear, mul,
                          reduce_sum, sigmoid_array, softmax, softmax_grad, softmax_parts,
                          tanh)
from fnr.lstm import blstm_forward, init_blstm
from fnr.optim import ParamGroup, grad_check


def tape_grad(build, *inputs):
    """Gradient of a scalar built from the given input tensors."""
    with Tape() as tape:
        out = build(*inputs)
    grads = tape.gradients(out)
    return [grads[t] for t in inputs]


class TestAffine:
    """``linear`` on a single (1, d) row: w @ x + b."""

    def test_zero_weight_annihilates(self):
        w = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros(2))
        out = linear(Tensor([[1.0, -2.0, 3.0]]), w, b)
        assert np.array_equal(out.data, [[0.0, 0.0]])

    def test_identity(self):
        out = linear(Tensor([[3.0, -1.0]]), Tensor(np.eye(2)), Tensor(np.zeros(2)))
        assert np.array_equal(out.data, [[3.0, -1.0]])

    def test_hand_case(self):
        out = linear(Tensor([[1.0, 1.0]]), Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([1.0, 1.0]))
        assert np.allclose(out.data, [[4.0, 8.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            linear(Tensor([[1.0, 2.0, 3.0]]), Tensor(np.ones((2, 2))), Tensor(np.zeros(2)))

    def test_gradients_flow_to_all_three(self):
        x = Tensor([[0.5, -0.25]])
        w = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([0.1, 0.2])
        gx, gw, gb = tape_grad(lambda x, w, b: reduce_sum(linear(x, w, b)), x, w, b)
        assert np.allclose(gx, [w.data.sum(axis=0)])
        assert np.allclose(gw, np.vstack([x.data, x.data]))
        assert np.allclose(gb, [1.0, 1.0])


class TestTanh:
    def test_zero(self):
        assert tanh(Tensor([0.0])).data[0] == 0.0

    def test_saturation_no_overflow(self):
        assert abs(tanh(Tensor([50.0])).data[0] - 1.0) < 1e-12

    def test_reference_value(self):
        assert abs(tanh(Tensor([0.5])).data[0] - math.tanh(0.5)) < 1e-15


def piecewise_sigmoid(x):
    """1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) for x < 0, on each
    half gathered apart; NaN takes the second branch and stays NaN."""
    ref = np.empty_like(x)
    pos = x >= 0
    ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    ref[~pos] = ex / (1.0 + ex)
    return ref


class TestSigmoid:
    def test_dense_form_bit_identical_to_piecewise(self):
        x = np.concatenate([[0.0, -0.0, 1e-320, -1e-320, 800.0, -800.0],
                            np.random.default_rng(0).normal(scale=20.0, size=200)])
        assert np.array_equal(sigmoid_array(x), piecewise_sigmoid(x))

    def test_special_values_and_random_draws_without_warning(self):
        tiny = np.finfo(float).tiny
        special = [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324, tiny / 3, -tiny / 3,
                   tiny, -tiny, 36.0, -36.0, 710.0, -710.0, np.finfo(float).max,
                   -np.finfo(float).max]
        rng = np.random.default_rng(1)
        # Normal draws at several scales, and magnitudes spread log-uniformly
        # from 1e-300 to 1e300 with random signs.
        draws = np.concatenate([rng.normal(scale=s, size=20_000) for s in (1.0, 10.0, 100.0)]
                               + [rng.choice([-1.0, 1.0], size=40_000)
                                  * 10.0 ** rng.uniform(-300, 300, size=40_000)])
        x = np.concatenate([special, draws])
        assert draws.size == 100_000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigmoid_array(x)
            want = piecewise_sigmoid(x)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got[2]) and got[0] == 1.0 and got[1] == 0.0


def masked_softmax(scores, mask):
    """softmax_parts' weights over the entries where ``mask`` is nonzero."""
    return softmax_parts(np.asarray(scores, dtype=float), valid=np.asarray(mask) > 0)[0]


class TestSoftmaxMasked:
    def test_uniform(self):
        out = masked_softmax([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert np.allclose(out, [1 / 3] * 3)

    def test_singleton(self):
        out = masked_softmax([5.0], [1.0])
        assert np.allclose(out, [1.0])

    def test_reference_value(self):
        out = masked_softmax([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        assert np.allclose(out, [0.09003, 0.24473, 0.66524], atol=1e-5)

    def test_masked_slots_exactly_zero(self):
        out = masked_softmax([1.0, 99.0, 2.0], [1.0, 0.0, 1.0])
        assert out[1] == 0.0
        assert abs(out.sum() - 1.0) < 1e-9

    def test_large_scores_stable(self):
        out = masked_softmax([1000.0, 1000.0], [1.0, 1.0])
        assert np.allclose(out, [0.5, 0.5])

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=8),
           st.floats(-10, 10))
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance_and_simplex(self, scores, shift):
        valid = np.ones(len(scores))
        a = masked_softmax(scores, valid)
        b = masked_softmax([s + shift for s in scores], valid)
        assert np.all(a >= 0)
        assert abs(a.sum() - 1.0) < 1e-9
        assert np.allclose(a, b, atol=1e-9)


def constant_blstm(hidden):
    """A BLSTM over 1-wide input whose output is H0 at every valid
    position: the forget gate is shut, the input gate open and the cell
    candidate fixed at tanh(1), with o = 1/2."""
    group = ParamGroup()
    p = init_blstm(group, "c", 1, hidden, np.random.default_rng(0))
    for _, t in group.items():
        t.data[...] = 0.0
    for d in (p.fwd, p.bwd):
        d.b_i.data[...], d.b_f.data[...], d.b_g.data[...] = 50.0, -50.0, 1.0
    return p


H0 = 0.5 * math.tanh(math.tanh(1.0))


class TestDropout:
    """Inverted dropout inside ``blstm_forward``, on a BLSTM whose output
    is the constant H0 before dropout."""

    def run(self, rate, training, rng=None, shape=(2, 3), hidden=2):
        x = Tensor(np.ones(shape + (1,)))
        return blstm_forward(x, np.ones(shape), constant_blstm(hidden),
                             dropout_rate=rate, training=training, rng=rng)

    def test_rate_zero_identity(self):
        out = self.run(0.0, training=True, rng=np.random.default_rng(0))
        assert np.array_equal(out.data, self.run(0.0, training=False).data)
        assert np.allclose(out.data, H0, rtol=1e-15, atol=0)

    def test_eval_mode_identity(self):
        out = self.run(0.2, training=False)
        assert np.array_equal(out.data, self.run(0.0, training=False).data)

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            self.run(1.0, training=True, rng=np.random.default_rng(0))

    def test_large_sample_mean_preserved(self):
        out = self.run(0.2, training=True, rng=np.random.default_rng(7),
                       shape=(100, 50), hidden=10)
        assert out.size == 100_000
        assert abs(out.data.mean() / H0 - 1.0) < 0.02

    def test_survivors_scaled(self):
        out = self.run(0.2, training=True, rng=np.random.default_rng(3),
                       shape=(10, 10), hidden=5)
        survivors = out.data[out.data != 0.0]
        assert 0 < survivors.size < out.size
        assert np.allclose(survivors, H0 / 0.8)


class TestTapeMechanics:
    def test_two_consumer_accumulation(self):
        # z = x*a + x*b: dz/dx must sum both branch contributions.
        x = Tensor([2.0])
        a = Tensor([3.0])
        b = Tensor([5.0])
        (gx,) = tape_grad(lambda x: reduce_sum(add(mul(x, a), mul(x, b))), x)
        assert np.allclose(gx, [8.0])

    def test_unused_tensor_gets_zero_gradient(self):
        x = Tensor([1.0])
        unused = Tensor([9.0])
        with Tape() as tape:
            out = reduce_sum(mul(x, x))
        grads = tape.gradients(out)
        assert np.array_equal(grads[unused], [0.0])

    def test_same_tensor_twice_in_one_op(self):
        x = Tensor([3.0])
        (gx,) = tape_grad(lambda x: reduce_sum(mul(x, x)), x)
        assert np.allclose(gx, [6.0])

    def test_const_inputs_skipped(self):
        x = Tensor([1.0])
        c = Tensor([2.0], const=True)
        with Tape() as tape:
            out = reduce_sum(mul(x, c))
        grads = tape.gradients(out)
        assert np.array_equal(grads[c], [0.0])

    def test_no_tape_means_no_recording(self):
        tape = Tape()
        _ = mul(Tensor([1.0]), Tensor([2.0]))
        assert len(tape) == 0

    def test_non_finite_output_is_hard_error(self):
        with pytest.raises(NonFiniteError):
            mul(Tensor([1e300]), Tensor([1e300]))
        with pytest.raises(NonFiniteError):
            Tensor([np.nan])


def _quadratic_group(values):
    g = ParamGroup()
    for i, v in enumerate(np.atleast_1d(values)):
        g.add(f"p{i}", np.asarray(v))
    return g


class TestPerOpGradients:
    """Every differentiable op passes an isolated finite-difference check."""

    CASES = {
        "add": lambda a, b: reduce_sum(add(a, b)),
        "mul": lambda a, b: reduce_sum(mul(a, b)),
        "linear": lambda a, b: reduce_sum(linear(a, b)),
        "tanh": lambda a, b: reduce_sum(tanh(mul(a, b))),
        "softmax": lambda a, b: reduce_sum(mul(softmax(a, axis=-1), b)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_op_gradcheck(self, name):
        rng = np.random.default_rng(hash(name) % 2**31)
        group = ParamGroup()
        a = group.add("a", rng.normal(size=(2, 4)))
        b = group.add("b", rng.normal(size=(2, 4)))
        fn = self.CASES[name]
        err = grad_check(lambda g: fn(g["a"], g["b"]), group, h=1e-6)
        assert err < 1e-6, f"{name}: rel err {err}"

    @pytest.mark.parametrize("axis", [-1, 1])
    def test_softmax_node_gradcheck(self, axis):
        group = ParamGroup()
        group.add("x", np.random.default_rng(10).normal(scale=3.0, size=(2, 3, 4)))
        weights = Tensor(np.random.default_rng(13).normal(size=(2, 3, 4)), const=True)
        err = grad_check(lambda g: reduce_sum(mul(softmax(g["x"], axis=axis), weights)),
                         group, h=1e-6)
        assert err < 1e-6

    def test_masked_softmax_gradcheck(self):
        # softmax_grad against central differences of softmax_parts, with
        # grad_check's step and error measure.
        rng = np.random.default_rng(11)
        s = rng.normal(size=(3, 5))
        valid = rng.random((3, 5)) > 0.3
        valid[:, 0] = True
        weights = rng.normal(size=(3, 5))
        _, e, z = softmax_parts(s, valid=valid)
        grad = softmax_grad(weights, e, z, axis=-1)
        h, worst = 1e-6, 0.0
        for i in np.ndindex(s.shape):
            step = np.zeros_like(s)
            step[i] = h
            lp, lm = ((softmax_parts(s + d, valid=valid)[0] * weights).sum()
                      for d in (step, -step))
            fd = (lp - lm) / (2.0 * h)
            worst = max(worst, abs(grad[i] - fd) / max(1.0, abs(grad[i]), abs(fd)))
        assert worst < 1e-6

    def test_gather_rows_gradcheck(self):
        rng = np.random.default_rng(12)
        group = ParamGroup()
        group.add("table", rng.normal(size=(5, 3)))
        ids = np.array([0, 2, 2, 4])
        weights = rng.normal(size=(4, 3))
        err = grad_check(
            lambda g: reduce_sum(mul(tanh(gather_rows(g["table"], ids)), weights)),
            group, h=1e-6)
        assert err < 1e-6

    def test_dropout_gradcheck_with_fixed_mask(self):
        # Dropout inside blstm_forward, over x and every gate tensor.
        group = ParamGroup()
        p = init_blstm(group, "b", 4, 2, np.random.default_rng(5))
        group.add("x", np.random.default_rng(4).normal(size=(3, 4)))

        def loss(g):
            rng = np.random.default_rng(99)  # same mask every evaluation
            out = blstm_forward(g["x"], np.ones(3), p, dropout_rate=0.4, training=True, rng=rng)
            return reduce_sum(tanh(out))

        assert grad_check(loss, group, h=1e-6) < 1e-6


class TestGatherRows:
    def test_out_of_range(self):
        with pytest.raises(IndexError):
            gather_rows(Tensor(np.ones((3, 2))), np.array([3]))

    def test_scatter_accumulates(self):
        table = Tensor(np.arange(6, dtype=float).reshape(3, 2))
        ids = np.array([1, 1])
        (gt,) = tape_grad(lambda t: reduce_sum(gather_rows(t, ids)), table)
        assert np.array_equal(gt, [[0, 0], [2, 2], [0, 0]])

    def test_repeated_ids_match_2d_add_at(self):
        # (B, U, T)-shaped ids with many repeats, as the bank lookup has.
        rng = np.random.default_rng(2)
        table = Tensor(rng.normal(size=(7, 5)))
        ids = rng.integers(0, 7, size=(3, 4, 6))
        weights = Tensor(rng.normal(size=(3, 4, 6, 5)), const=True)
        (gt,) = tape_grad(lambda t: reduce_sum(mul(gather_rows(t, ids), weights)), table)
        want = np.zeros((7, 5))
        np.add.at(want, ids.reshape(-1), weights.data.reshape(-1, 5))
        assert np.array_equal(gt, want)


class TestFastMode:
    def test_float32_switch_and_gradcheck_refusal(self):
        from fnr.autodiff import set_default_dtype

        old = set_default_dtype(np.float32)
        try:
            t = tanh(Tensor([0.5]))
            assert t.data.dtype == np.float32
            group = ParamGroup()
            group.add("p", [1.0])
            with pytest.raises(RuntimeError, match="float64"):
                grad_check(lambda g: reduce_sum(mul(g["p"], g["p"])), group)
        finally:
            set_default_dtype(old)

    def test_dtype_and_tapes_are_per_thread(self):
        import threading
        from fnr.autodiff import _tape, default_dtype, set_default_dtype

        seen = []

        def worker():
            seen.append((default_dtype(), _tape()))
            set_default_dtype(np.float32)
            tanh(Tensor([0.5]))

        with Tape() as tape:
            old = set_default_dtype(np.float32)
            try:
                thread = threading.Thread(target=worker)
                thread.start()
                thread.join(timeout=30)
                assert not thread.is_alive()
                assert default_dtype() == np.float32
            finally:
                set_default_dtype(old)
        assert seen == [(np.dtype(np.float64), None)]
        assert len(tape) == 0

    def test_unsupported_dtype_rejected(self):
        from fnr.autodiff import set_default_dtype
        with pytest.raises(ValueError):
            set_default_dtype(np.int32)
