import os

import numpy as np
import pytest

from fnr import autodiff
from fnr.autodiff import NonFiniteError, Tensor, linear, record
from fnr.optim import ParamGroup, adam_step, grad_check
from test_autodiff import square


class ZeroGrads:
    def __getitem__(self, tensor):
        return np.zeros_like(tensor.data)


class OnesGrads:
    def __getitem__(self, tensor):
        return np.ones_like(tensor.data)


def reference_adam(p0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Independent straight-line transcription of the update recurrences."""
    p, m, v = float(p0), 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        g = ParamGroup()
        p = g.add("p", [1.5, -2.5])
        for _ in range(5):
            adam_step(g, ZeroGrads(), lr=0.1)
        assert np.array_equal(p.data, [1.5, -2.5])

    def test_first_step_moves_by_lr(self):
        g = ParamGroup()
        p = g.add("p", [1.0])
        adam_step(g, OnesGrads(), lr=0.001)
        assert abs(p.data[0] - (1.0 - 0.001)) < 1e-9

    def test_matches_reference_recurrence(self):
        seq = [1.0, -0.5, 0.25, 2.0, -1.0]
        g = ParamGroup()
        p = g.add("p", [0.3])

        class Seq:
            def __init__(self):
                self.i = 0
            def __getitem__(self, tensor):
                self.i += 1
                return np.array([seq[self.i - 1]])

        feeder = Seq()
        for _ in seq:
            adam_step(g, feeder, lr=0.01)
        assert abs(p.data[0] - reference_adam(0.3, seq, lr=0.01)) < 1e-12

    def test_step_count_shared_and_incremented(self):
        g = ParamGroup()
        g.add("a", [1.0])
        g.add("b", [2.0])
        adam_step(g, OnesGrads(), lr=0.01)
        adam_step(g, OnesGrads(), lr=0.01)
        assert g.step_count == 2

    def test_shape_mismatch_rejected(self):
        g = ParamGroup()
        g.add("p", [1.0, 2.0])

        class Bad:
            def __getitem__(self, tensor):
                return np.zeros(3)

        with pytest.raises(ValueError):
            adam_step(g, Bad(), lr=0.01)

    def test_nonpositive_lr_rejected(self):
        g = ParamGroup()
        g.add("p", [1.0])
        with pytest.raises(ValueError):
            adam_step(g, ZeroGrads(), lr=0.0)

    def test_parameter_non_finite_after_the_update_rejected(self):
        # A finite lr and gradient can still carry a parameter past the
        # largest double: the first step moves it by about lr.
        g = ParamGroup()
        p = g.add("p", [1.7e308])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError,
                                                       match="'p' became non-finite"):
            adam_step(g, {p: np.array([-1.0])}, lr=1e308)

    def test_moment_shapes_track_parameters(self):
        g = ParamGroup()
        g.add("w", np.ones((3, 2)))
        adam_step(g, ZeroGrads(), lr=0.01)
        assert g._m["w"].shape == (3, 2)
        assert g._v["w"].shape == (3, 2)

    def test_group_that_never_steps_holds_no_moments(self):
        g = ParamGroup()
        g.add("w", np.ones((3, 2)))
        g.assign("w", 0, 2.0)
        g.load_values({"w": np.zeros((3, 2))})
        assert g._m == {} and g._v == {}


def resident_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class TestParamGroup:
    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
    def test_add_commits_no_moment_pages(self):
        # A group that never steps (evaluation) must not pay for Adam's
        # moments: written zeros would commit 2 x 40 MB here.
        data = np.ones(5_000_000)
        group = ParamGroup()
        before = resident_bytes()
        group.add("w", data)
        assert resident_bytes() - before < 20e6

    def test_add_takes_the_array_over(self):
        # A caller still holding the array must not change the parameter
        # behind the group's back, since ``writes`` would not count it.
        a = np.zeros(3)
        g = ParamGroup()
        t = g.add("w", a)
        with pytest.raises(ValueError):
            a[0] = 5.0
        g.assign("w", 1, 2.0)
        assert np.array_equal(t.data, [0.0, 2.0, 0.0]) and g.writes == {"w": 1}

    def test_writes_count_per_tensor(self):
        g = ParamGroup()
        g.add("a", [1.0])
        g.add("b", [2.0])
        g.assign("a", 0, 3.0)
        assert g.writes == {"a": 1, "b": 0}
        adam_step(g, OnesGrads(), lr=0.1)
        g.load_values(g.copy_values())
        assert g.writes == {"a": 3, "b": 2}

    def test_load_values_checks_names_and_shapes(self):
        g = ParamGroup()
        p = g.add("p", [1.0, 2.0])
        q = g.add("q", [[3.0]])
        for table, named in [({"p": np.zeros(2)}, "missing tensor 'q'"),
                             ({"p": np.zeros(2), "q": np.zeros((1, 1)), "r": np.zeros(1)},
                              "unexpected tensor 'r'"),
                             ({"p": np.zeros(2), "q": np.zeros(1)}, "'q' has shape")]:
            with pytest.raises(ValueError, match=named):
                g.load_values(table)
        # A rejected table copies nothing, not even its well-formed entries.
        assert np.array_equal(p.data, [1.0, 2.0]) and np.array_equal(q.data, [[3.0]])

    def test_duplicate_name_rejected(self):
        g = ParamGroup()
        g.add("p", [1.0])
        with pytest.raises(ValueError):
            g.add("p", [2.0])

    def test_copy_and_load_round_trip(self):
        g = ParamGroup()
        p = g.add("p", [1.0, 2.0])
        snapshot = g.copy_values()
        g.assign("p", ..., [9.0, 9.0])
        g.load_values(snapshot)
        assert np.array_equal(p.data, [1.0, 2.0])


# The cotangent that makes square() the loss 0.5 * sum(p ** 2).
HALF = np.array([[0.5]])


class TestGradCheck:
    def test_quadratic_is_exact(self):
        g = ParamGroup()
        g.add("p", np.array([[0.5, -1.25, 2.0]]))
        assert grad_check(lambda group: square(group["p"]), g, h=1e-5, seed=HALF) < 1e-8

    def test_constant_loss_both_zero(self):
        g = ParamGroup()
        g.add("p", np.array([1.0, 2.0]))

        def loss(group):
            return linear(Tensor([[3.0]]), Tensor([[4.0]]), Tensor([0.0]))

        assert grad_check(loss, g, h=1e-5) == 0.0

    def test_non_finite_loss_rejected(self):
        g = ParamGroup()
        g.add("p", np.array([[800.0]]))

        def loss(group):
            return linear(group["p"], Tensor([[1e307]]), Tensor([0.0]))

        with pytest.raises(NonFiniteError):
            grad_check(loss, g, h=1e-5)

    def test_small_wrong_gradient_fails(self):
        # A backward that halves a gradient of magnitude 1e-7 is wrong by
        # 2x: the error is relative to the gradients' own scale, not to 1.
        g = ParamGroup()
        g.add("p", np.array([[0.5, -1.25, 2.0]]))

        def loss(group):
            p = group["p"]
            out = Tensor([[1e-7 * p.data.sum()]])
            return record(out, (p,), lambda grad: (np.full(p.shape, 0.5e-7) * grad,))

        assert grad_check(loss, g, h=1e-5) > 1e-6

    def test_nan_taped_gradient_fails(self):
        # A NaN gradient would drop out of the error's max() and its
        # comparison with the worst error, and score 0.0.
        g = ParamGroup()
        g.add("p", np.array([[0.5, -1.25]]))

        def loss(group):
            p = group["p"]
            out = Tensor([[p.data.sum()]])
            return record(out, (p,), lambda grad: (np.full(p.shape, np.nan),))

        with pytest.raises(NonFiniteError, match="'p'"):
            grad_check(loss, g, h=1e-5)

    def test_sampled_coordinates(self):
        rng = np.random.default_rng(0)
        g = ParamGroup()
        g.add("p", rng.normal(size=(1, 400)))
        err = grad_check(lambda group: square(group["p"]), g, h=1e-5, seed=HALF,
                         max_coords_per_tensor=16)
        assert err < 1e-8


def softmax(x):
    """Softmax over the last axis as one test-local node; its backward
    looks up ``autodiff.softmax_grad`` when it runs, so a patch bites."""
    weights = autodiff.softmax(x.data)
    return record(Tensor(weights), (x,), lambda g: (autodiff.softmax_grad(g, weights, -1),))


class TestGradCheckSeed:
    """``seed`` checks an op on its own output through a vector-Jacobian
    product with a chosen cotangent."""

    # Two softmax backwards with a bug: one drops the term that flows
    # through the normaliser z, sum(g * w), the other centres g on its
    # plain mean where the softmax-weighted mean belongs.
    BROKEN = {
        "omits_gz": lambda g, w, axis: w * g,
        "unweighted_centering": lambda g, w, axis: w * (g - g.mean(axis=axis, keepdims=True)),
    }

    @pytest.mark.parametrize("bug, summed_sees_it", [("omits_gz", True),
                                                     ("unweighted_centering", False)])
    def test_nonuniform_seed_catches_broken_softmax_backward(self, monkeypatch, bug,
                                                             summed_sees_it):
        rng = np.random.default_rng(5)
        group = ParamGroup()
        group.add("x", rng.normal(size=(1, 4)))
        w = rng.normal(size=(1, 4))

        def check(seed=None):
            if seed is None:  # sum(softmax(x)) as a scalar
                return grad_check(lambda g: linear(softmax(g["x"]), Tensor(np.ones((1, 4))),
                                                 Tensor(np.zeros(1))),
                                  group, h=1e-6)
            return grad_check(lambda g: softmax(g["x"]), group, h=1e-6, seed=seed)

        assert check(w) < 1e-6 and check() < 1e-6
        monkeypatch.setattr(autodiff, "softmax_grad", self.BROKEN[bug])
        assert check(w) > 1e-2
        # sum(softmax(x)) is constant, so its true gradient is zero: the
        # summed check sees only a backward that is wrong at a uniform
        # cotangent, which the centring bug is not.
        assert (check() > 1e-2) if summed_sees_it else (check() < 1e-6)

    def test_seed_shape_must_match_output(self):
        group = ParamGroup()
        group.add("x", np.zeros((1, 4)))
        with pytest.raises(ValueError, match="seed shape"):
            grad_check(lambda g: softmax(g["x"]), group, seed=np.ones(4))

    def test_non_scalar_output_needs_a_seed(self):
        group = ParamGroup()
        group.add("x", np.zeros((1, 4)))
        with pytest.raises(ValueError, match="scalar"):
            grad_check(lambda g: softmax(g["x"]), group)
