import math
import os
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fnr
from fnr.autodiff import (NonFiniteError, Tape, Tensor, gather_rows, linear, record,
                          scatter_add, sigmoid_array, softmax, softmax_grad)
from fnr.lstm import blstm_forward, init_blstm
from fnr.optim import ParamGroup, grad_check


def tape_grad(build, *inputs, seed=None):
    """Gradients of sum(seed * out), for the output built from the given
    input tensors; the seed defaults to ones."""
    with Tape() as tape:
        out = build(*inputs)
    grads = tape.gradients(out, seed=seed)
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

    @pytest.mark.parametrize("shape", [(2,), (1, 1, 2)])
    def test_only_packed_rows(self, shape):
        with pytest.raises(ValueError, match="packed"):
            linear(Tensor(np.ones(shape)), Tensor(np.eye(2)), Tensor(np.zeros(2)))

    def test_gradients_flow_to_all_three(self):
        x = Tensor([[0.5, -0.25]])
        w = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([0.1, 0.2])
        gx, gw, gb = tape_grad(linear, x, w, b)
        assert np.allclose(gx, [w.data.sum(axis=0)])
        assert np.allclose(gw, np.vstack([x.data, x.data]))
        assert np.allclose(gb, [1.0, 1.0])


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
    """softmax weights over the entries where ``mask`` is nonzero."""
    return softmax(np.asarray(scores, dtype=float), valid=np.asarray(mask) > 0)


def three_where_parts(x, axis, valid):
    """(weights, e, z) of a masked softmax that masks the max, the shift
    and the exponent separately, with weights = e / z."""
    if valid is None:
        valid = np.ones(x.shape, dtype=bool)
    any_valid = valid.any(axis=axis, keepdims=True)
    top = np.where(valid, x, -np.inf).max(axis=axis, keepdims=True, initial=-np.inf)
    e = np.exp(np.where(valid, x - np.where(any_valid, top, 0.0), -np.inf))
    z = e.sum(axis=axis, keepdims=True) + ~any_valid
    return e / z, e, z


def softmax_cases(seed, count):
    """``count`` random (x, axis, valid) softmax instances in the
    attention's level-1 and level-2 shapes and the head's, alternating
    float64 and float32 scores."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        dtype = (np.float64, np.float32)[case % 2]
        kind = case % 3
        if kind == 0:    # level 1: (U, n, t) scores, a prefix mask per slot
            u, n, t = rng.integers(1, 6), rng.integers(1, 5), rng.integers(1, 7)
            x = rng.normal(0, 10, (u, n, t))
            lengths = rng.integers(0, t + 1, size=u)   # 0: an empty slot
            valid, axis = (np.arange(t) < lengths[:, None])[:, None, :], -1
        elif kind == 1:  # level 2: (U, N) scores over bank slots
            u, n = rng.integers(1, 6), rng.integers(1, 9)
            x = rng.normal(0, 10, (u, n))
            valid, axis = rng.random((u, n)) < 0.7, 0
        else:            # the head: no mask
            x, valid, axis = rng.normal(0, 10, (rng.integers(1, 9), 2)), None, -1
        yield x.astype(dtype), axis, valid


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

    def test_matches_three_where_reference(self):
        # softmax masks once; the reference masks the max, the shift and
        # the exponent separately.  Bit-identical on finite scores in the
        # attention's level-1 and level-2 shapes and the head's.
        for case, (x, axis, valid) in enumerate(softmax_cases(17, 3000)):
            got, want = softmax(x, axis=axis, valid=valid), three_where_parts(x, axis, valid)[0]
            assert got.dtype == want.dtype == x.dtype
            assert np.array_equal(got, want), case

    def test_grad_stays_within_a_few_ulps_of_the_quotient_chain_form(self):
        # The gradient of e / z by the composite exp -> sum -> divide
        # chain, (g / z + sum(-g * e / z^2)) * e, is the same function as
        # w * (g - sum(g * w)); the two round differently, by at most a
        # few eps of max|g|.  A slice with no valid entry gets exactly 0.
        worst = {np.dtype(np.float64): 0.0, np.dtype(np.float32): 0.0}
        rng = np.random.default_rng(19)
        for case, (x, axis, valid) in enumerate(softmax_cases(18, 3000)):
            g = rng.normal(size=x.shape).astype(x.dtype)
            _, e, z = three_where_parts(x, axis, valid)
            chain = (g / z + (-g * e / (z * z)).sum(axis=axis, keepdims=True)) * e
            got = softmax_grad(g, softmax(x, axis=axis, valid=valid), axis=axis)
            assert got.dtype == x.dtype
            if valid is not None:
                empty = ~np.broadcast_to(valid, x.shape).any(axis=axis, keepdims=True)
                empty = np.broadcast_to(empty, x.shape)
                assert np.all(got[empty] == 0.0) and np.all(chain[empty] == 0.0), case
            move = np.abs(got - chain).max() / (np.finfo(x.dtype).eps * np.abs(g).max())
            worst[x.dtype] = max(worst[x.dtype], move)
        assert max(worst.values()) <= 4.0, worst


def constant_blstm(hidden):
    """A BLSTM over 1-wide input whose output is H0 at every valid
    position: the forget gate is shut, the input gate open and the cell
    candidate fixed at tanh(1), with o = 1/2."""
    group = ParamGroup()
    p = init_blstm(group, "c", 1, hidden, np.random.default_rng(0))
    for name in group.names():
        group.assign(name, ..., 0.0)
    for direction in ("fwd", "bwd"):
        group.assign(f"c.{direction}.b", ..., np.repeat([50.0, -50.0, 0.0, 1.0], hidden))
    return p


H0 = 0.5 * math.tanh(math.tanh(1.0))


class TestDropout:
    """Inverted dropout inside ``blstm_forward``, on a BLSTM whose output
    is the constant H0 before dropout."""

    def run(self, rate, rng=None, shape=(2, 3), hidden=2):
        x = Tensor(np.ones((math.prod(shape), 1)))   # one row per token
        return blstm_forward(x, np.ones(shape), constant_blstm(hidden),
                             dropout_rate=rate, rng=rng)

    def test_rate_zero_identity(self):
        out = self.run(0.0, rng=np.random.default_rng(0))
        assert np.array_equal(out.data, self.run(0.0).data)
        assert np.allclose(out.data, H0, rtol=1e-15, atol=0)

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            self.run(1.0, rng=np.random.default_rng(0))

    def test_large_sample_mean_preserved(self):
        out = self.run(0.2, rng=np.random.default_rng(7),
                       shape=(100, 50), hidden=10)
        assert out.size == 100_000
        assert abs(out.data.mean() / H0 - 1.0) < 0.02

    def test_survivors_scaled(self):
        out = self.run(0.2, rng=np.random.default_rng(3),
                       shape=(10, 10), hidden=5)
        survivors = out.data[out.data != 0.0]
        assert 0 < survivors.size < out.size
        assert np.allclose(survivors, H0 / 0.8)

    def test_backward_scale_matches_forward_exactly(self):
        # The backward rebuilds the scale from the kept mask: its gradients
        # must equal those of the undropped layer seeded with that scale.
        group = ParamGroup()
        p = init_blstm(group, "b", 3, 2, np.random.default_rng(5))
        x = Tensor(np.random.default_rng(4).normal(size=(8, 3)))
        mask = np.ones((2, 4))
        with Tape() as tape:
            out = blstm_forward(x, mask, p, dropout_rate=0.3, rng=np.random.default_rng(6))
        dropped = tape.gradients(out)
        scale = (out.data != 0.0) / (1.0 - 0.3)
        with Tape() as tape:
            plain = blstm_forward(x, mask, p)
        assert np.array_equal(out.data, plain.data * scale)
        seeded = tape.gradients(plain, seed=scale)
        for t in [x] + [t for _, t in group.items()]:
            assert np.array_equal(dropped[t], seeded[t])


def square(x):
    """x @ x.T for a (1, n) row, as one ``linear`` node with a zero bias."""
    return linear(x, x, Tensor([0.0]))


class TestTapeMechanics:
    def test_two_consumer_accumulation(self):
        # Two gathers of the same row feed one linear: out = r . r, and
        # the table's gradient must sum both branch contributions.
        table = Tensor([[2.0, -1.0], [7.0, 7.0]])
        row = np.array([0])
        (gt,) = tape_grad(lambda t: linear(gather_rows(t, row), gather_rows(t, row),
                                           Tensor([0.5])), table)
        assert np.array_equal(gt, [[4.0, -2.0], [0.0, 0.0]])

    def test_unused_tensor_gets_zero_gradient(self):
        x = Tensor([[1.0]])
        unused = Tensor([9.0])
        with Tape() as tape:
            out = square(x)
        grads = tape.gradients(out)
        assert np.array_equal(grads[unused], [0.0])

    def test_same_tensor_twice_in_one_op(self):
        x = Tensor([[3.0]])
        (gx,) = tape_grad(square, x)
        assert np.allclose(gx, [[6.0]])

    def test_every_input_gets_a_gradient(self):
        x = Tensor([[1.0]])
        c = Tensor([[2.0]])
        b = Tensor([0.0])
        with Tape() as tape:
            out = linear(x, c, b)
        grads = tape.gradients(out)
        assert np.array_equal(grads[x], [[2.0]])
        assert np.array_equal(grads[c], [[1.0]])
        assert np.array_equal(grads[b], [1.0])

    @pytest.mark.parametrize("count", [1, 3])
    def test_gradient_count_must_match_inputs(self, count):
        # A node with two inputs whose backward returns another number of
        # gradients is an error, not a silently dropped or ignored gradient.
        x, y = Tensor([[1.0]]), Tensor([[2.0]])
        with Tape() as tape:
            out = record(Tensor([[3.0]]), (x, y), lambda g: (g,) * count)
        with pytest.raises(ValueError):
            tape.gradients(out)

    def test_second_tape_is_refused(self):
        # Tapes do not nest: entering one while another is active raises,
        # and ops keep recording onto the tape that is active.
        x = Tensor([[1.0]])
        out = record(Tensor([[2.0]]), (x,), lambda g: (g,))
        second = Tape()
        with Tape() as first:
            with pytest.raises(RuntimeError, match="already active"):
                with second:
                    pass
            assert record(out, (x,), lambda g: (g,)) is out
        assert (len(first), len(second)) == (1, 0)

    def test_no_tape_means_no_recording(self):
        tape = Tape()
        _ = square(Tensor([[2.0]]))
        assert len(tape) == 0

    def test_non_finite_output_is_hard_error(self):
        with pytest.raises(NonFiniteError):
            square(Tensor([[1e300]]))
        with pytest.raises(NonFiniteError):
            Tensor([np.nan])

    def test_gradients_use_the_tape_up(self):
        x = Tensor([[2.0]])
        with Tape() as tape:
            y = gather_rows(x, np.array([0]))
            out = square(y)
        assert len(tape) == 2
        grads = tape.gradients(out)
        assert len(tape) == 0
        assert np.array_equal(grads[x], [[4.0]])
        # Only leaves keep a gradient; an intermediate's is dropped once read.
        assert np.array_equal(grads[y], [[0.0]])
        with pytest.raises(RuntimeError, match="already differentiated"):
            tape.gradients(out)

    def test_bad_seed_leaves_the_tape_usable(self):
        x = Tensor([[2.0]])
        with Tape() as tape:
            out = square(x)
        with pytest.raises(ValueError, match="seed shape"):
            tape.gradients(out, seed=np.ones(2))
        assert np.array_equal(tape.gradients(out)[x], [[4.0]])

    def test_exit_of_inactive_tape_checked_under_optimize(self):
        # Exiting a tape that is not the active one must raise, also under
        # ``python -O``, which strips asserts: otherwise the active tape is
        # cleared and later ops record onto no tape.
        code = ("from fnr.autodiff import Tape, _tape\n"
                "a, b = Tape(), Tape()\n"
                "a.__enter__()\n"
                "try:\n"
                "    b.__exit__(None, None, None)\n"
                "except RuntimeError:\n"
                "    print('raised', _tape() is a)\n")
        src = str(Path(fnr.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["raised", "True"]


class TestPerOpGradients:
    """Every differentiable op passes an isolated finite-difference check."""

    @pytest.mark.parametrize("name", ["linear"])
    def test_op_gradcheck(self, name):
        # crc32 of the name, unlike the per-process salted hash(), draws
        # the same instance in every run.
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        a, b = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        group = ParamGroup()
        group.add("a", a)
        group.add("b", b)
        err = grad_check(lambda g: linear(g["a"], g["b"], Tensor(np.zeros(2))), group, h=1e-6,
                         seed=np.ones((2, 2)))
        assert err < 1e-6, f"{name}: rel err {err}"

    def test_masked_softmax_gradcheck(self):
        # softmax_grad against central differences of softmax, with
        # grad_check's step and error measure.  The last row has no valid
        # entry: its weights are all zero whatever its scores, and so is
        # its gradient, exactly, at float32 as at float64.
        rng = np.random.default_rng(11)
        s = rng.normal(size=(3, 5))
        valid = rng.random((3, 5)) > 0.3
        valid[:, 0] = True
        weights = rng.normal(size=(3, 5))
        s, weights = np.vstack([s, rng.normal(size=5)]), np.vstack([weights, rng.normal(size=5)])
        valid = np.vstack([valid, np.zeros(5, dtype=bool)])
        grad = softmax_grad(weights, softmax(s, valid=valid), axis=-1)
        h, worst = 1e-6, 0.0
        for i in np.ndindex(s.shape):
            step = np.zeros_like(s)
            step[i] = h
            lp, lm = ((softmax(s + d, valid=valid) * weights).sum() for d in (step, -step))
            fd = (lp - lm) / (2.0 * h)
            worst = max(worst, abs(grad[i] - fd) / max(1.0, abs(grad[i]), abs(fd)))
        assert worst < 1e-6
        assert np.all(grad[-1] == 0.0)
        s32, weights32 = s.astype(np.float32), weights.astype(np.float32)
        grad32 = softmax_grad(weights32, softmax(s32, valid=valid), axis=-1)
        assert grad32.dtype == np.float32 and np.all(grad32[-1] == 0.0)

    def test_gather_rows_gradcheck(self):
        rng = np.random.default_rng(12)
        group = ParamGroup()
        group.add("table", rng.normal(size=(5, 3)))
        ids = np.array([0, 2, 2, 4])
        weights = rng.normal(size=(4, 3))
        err = grad_check(lambda g: gather_rows(g["table"], ids), group, h=1e-6, seed=weights)
        assert err < 1e-6

    def test_dropout_gradcheck_with_fixed_mask(self):
        # Dropout inside blstm_forward, over x and every gate tensor.
        group = ParamGroup()
        p = init_blstm(group, "b", 4, 2, np.random.default_rng(5))
        group.add("x", np.random.default_rng(4).normal(size=(3, 4)))

        def out(g):
            rng = np.random.default_rng(99)  # same mask every evaluation
            return blstm_forward(g["x"], np.ones(3), p, dropout_rate=0.4, rng=rng)

        seed = np.random.default_rng(98).normal(size=(3, 4))
        assert grad_check(out, group, h=1e-6, seed=seed) < 1e-6


class TestGatherRows:
    def test_out_of_range(self):
        with pytest.raises(IndexError):
            gather_rows(Tensor(np.ones((3, 2))), np.array([3]))

    def test_scatter_accumulates(self):
        table = Tensor(np.arange(6, dtype=float).reshape(3, 2))
        ids = np.array([1, 1])
        (gt,) = tape_grad(lambda t: gather_rows(t, ids), table)
        assert np.array_equal(gt, [[0, 0], [2, 2], [0, 0]])

    def test_repeated_ids_match_2d_add_at(self):
        # (B, U, T)-shaped ids with many repeats, as the bank lookup has.
        rng = np.random.default_rng(2)
        table = Tensor(rng.normal(size=(7, 5)))
        ids = rng.integers(0, 7, size=(3, 4, 6))
        weights = rng.normal(size=(3, 4, 6, 5))
        (gt,) = tape_grad(lambda t: gather_rows(t, ids), table, seed=weights)
        want = np.zeros((7, 5))
        np.add.at(want, ids.reshape(-1), weights.reshape(-1, 5))
        assert np.array_equal(gt, want)

    def test_scatter_add_blocks_match_2d_add_at_in_bounded_memory(self, traced):
        # (B, U, T) = (256, 5, 40) ids over 50 rows, as a bank lookup's
        # backward scatters many repeats: the ids span many blocks.
        rng = np.random.default_rng(3)
        dim = 8
        ids = rng.integers(0, 50, size=(256, 5, 40))
        values = rng.normal(size=ids.shape + (dim,))
        want = rng.normal(size=(50, dim))
        table = want.copy()
        np.add.at(want, ids.reshape(-1), values.reshape(-1, dim))
        _, _, peak = traced(lambda: scatter_add(table, ids, values))
        assert table.tobytes() == want.tobytes()
        # A flat index over all ids at once would take ids.size * dim intp.
        assert peak < ids.size * dim * np.dtype(np.intp).itemsize // 4

    def test_scatter_add_checks_values_shape(self):
        with pytest.raises(ValueError, match="values shape"):
            scatter_add(np.zeros((3, 2)), np.array([0, 1]), np.ones((3, 2)))


class TestFastMode:
    """Float32 comes from the parameters: ops compute in their inputs' dtype."""

    def test_tensor_keeps_float32_and_float64(self):
        for dtype in (np.float32, np.float64):
            assert Tensor(np.ones(2, dtype=dtype)).data.dtype == dtype
        for data in ([1, 2], np.ones(2, dtype=np.float16), np.ones(2, dtype=bool)):
            assert Tensor(data).data.dtype == np.float64

    def test_float32_group_gives_float32_ops(self):
        group = ParamGroup(np.float32)
        table = group.add("table", [[0.5, -0.25], [1.0, 2.0]])
        w = group.add("w", [[1.0, 2.0], [3.0, 4.0]])
        b = group.add("b", [0.1, 0.2])
        with Tape() as tape:
            rows = gather_rows(table, np.array([1, 0, 1]))
            out = linear(rows, w, b)
        grads = tape.gradients(out)
        assert table.data.dtype == rows.data.dtype == out.data.dtype == np.float32
        assert [grads[t].dtype for t in (table, w, b)] == [np.dtype(np.float32)] * 3

    def test_gradcheck_refuses_float32_group(self):
        group = ParamGroup(np.float32)
        group.add("p", [[1.0]])
        with pytest.raises(RuntimeError, match="float64"):
            grad_check(lambda g: square(g["p"]), group)

    def test_tapes_are_per_thread(self):
        import threading
        from fnr.autodiff import _tape

        seen = []

        def worker():
            seen.append(_tape())
            square(Tensor([[0.5]]))

        with Tape() as tape:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert seen == [None]
        assert len(tape) == 0

    @pytest.mark.parametrize("dtype", [np.int32, np.float16])
    def test_unsupported_dtype_rejected(self, dtype):
        with pytest.raises(ValueError, match="float32 or float64"):
            ParamGroup(dtype)
