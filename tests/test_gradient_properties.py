"""Property-based gradient checks of tape nodes over drawn shapes and
saturated regimes, against central differences (``optim.grad_check``).

Each check scales its cotangent so that the largest taped gradient entry
is 1, and one fixed tolerance holds for every drawn case.  A scale below
``SCALE_FLOOR`` counts as the floor, so that the differenced side's
rounding, eps |loss| / h, stays far below the tolerance when saturation
leaves every gradient near zero.  ``grad_check`` itself divides by the
same clipped scale, so its error is relative to the gradient's scale
whatever the cotangent.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from fnr.attention import bank_attend_batch, init_attention, transform_bank
from fnr.autodiff import Tape, gather_rows, linear
from fnr.data import LABELS, O_INDEX
from fnr.lstm import blstm_forward, init_blstm
from fnr.model import Probabilities, batch_loss
from fnr.optim import ParamGroup, grad_check


TOLERANCE = 1e-6
SCALE_FLOOR = 1e-2


def unit_scale_seed(loss_fn, group, seed):
    """``seed`` scaled so that the largest gradient entry of ``loss_fn``'s
    vector-Jacobian product over ``group`` is 1, or below 1 if under the
    floor."""
    with Tape() as tape:
        out = loss_fn(group)
    grads = tape.gradients(out, seed=seed)
    scale = max(np.abs(grads[t]).max(initial=0.0) for _, t in group.items())
    return seed / max(scale, SCALE_FLOOR)


def check_node(out, group, rng):
    """``out(group)`` gives byte-equal outputs with and without a tape, and
    its gradients pass ``grad_check`` for a random cotangent from ``rng``,
    unit-scaled."""
    free = out(group)
    with Tape():
        taped = out(group)
    assert free.data.tobytes() == taped.data.tobytes()
    cotangent = unit_scale_seed(out, group, rng.normal(size=free.shape))
    assert grad_check(out, group, h=1e-5, seed=cotangent) < TOLERANCE


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_blstm_forward_gradcheck(data):
    # Both directions, each with its own parameters, over one batch that
    # mixes empty, length-1 and full-length sequences; each gate's bias
    # may push its pre-activations to +-40, where its nonlinearity
    # saturates in float64.
    steps = data.draw(st.integers(1, 4), label="T")
    lengths = data.draw(st.lists(st.sampled_from([0, 1, steps]) | st.integers(0, steps),
                                 min_size=1, max_size=4), label="lengths")
    din = data.draw(st.integers(1, 2), label="din")
    hidden = data.draw(st.integers(1, 3), label="H")
    dropout = data.draw(st.sampled_from([0.0, 0.3]), label="dropout")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    rng = np.random.default_rng(seed)

    group = ParamGroup()
    p = init_blstm(group, "b", din, hidden, rng)
    for name in ("b.fwd.b", "b.bwd.b"):
        shifts = data.draw(st.just([0.0] * 4)
                           | st.lists(st.sampled_from([0.0, 40.0, -40.0]), min_size=4,
                                      max_size=4), label=f"{name} gate shifts (i, f, o, g)")
        group.assign(name, ..., group[name].data + np.repeat(shifts, hidden))
    mask = (np.arange(steps)[None, :] < np.asarray(lengths)[:, None]).astype(float)
    n = int(mask.sum())
    x = group.add("x", rng.normal(size=(n, din)))

    def out(_):
        # Re-seeded per call, so every evaluation draws the same dropout mask.
        return blstm_forward(x, mask, p, dropout_rate=dropout,
                             rng=np.random.default_rng(seed))

    check_node(out, group, rng)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_bank_attend_batch_gradcheck(data):
    # A batch mixing queries of length 0, 1 and T with banks whose slots
    # hold 0 to T words, some examples with no bank word at all; bank
    # words scaled by 30 make each level-1 softmax saturate on one entry.
    steps = data.draw(st.integers(1, 4), label="T")
    b_sz = data.draw(st.integers(1, 3), label="B")
    n_banks = data.draw(st.integers(1, 3), label="U")
    q_len = data.draw(st.lists(st.sampled_from([0, 1, steps]) | st.integers(0, steps),
                               min_size=b_sz, max_size=b_sz), label="query lengths")
    slots = st.lists(st.integers(0, steps), min_size=n_banks, max_size=n_banks)
    bank_len = data.draw(st.lists(st.just([0] * n_banks) | slots, min_size=b_sz,
                                  max_size=b_sz), label="bank slot lengths")
    width = data.draw(st.integers(1, 3), label="2H")
    attn = data.draw(st.integers(1, 3), label="A")
    scale = data.draw(st.sampled_from([1.0, 30.0]), label="bank word scale")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    rng = np.random.default_rng(seed)

    group = ParamGroup()
    p = init_attention(group, "a", width, attn, rng)
    for name in ("a.b_r", "a.b_k2"):
        group.assign(name, ..., rng.normal(size=attn))
    query_mask = (np.arange(steps) < np.asarray(q_len)[:, None]).astype(float)
    token_mask = (np.arange(steps) < np.asarray(bank_len)[..., None]).astype(float)
    hq1 = group.add("hq1", rng.normal(size=(int(query_mask.sum()), width)))
    words = group.add("words", scale * np.tanh(rng.normal(size=(int(token_mask.sum()), attn))))

    def out(_):
        return bank_attend_batch(hq1, query_mask, words, token_mask, p)[0]

    check_node(out, group, rng)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_gather_rows_gradcheck(data):
    # Ids drawn from a table of at most 4 rows, so most lookups repeat a
    # row and its gradient must sum over them; an empty id array too.
    rows = data.draw(st.integers(1, 4), label="V")
    dim = data.draw(st.integers(1, 3), label="d")
    ids = data.draw(st.just([]) | st.lists(st.integers(0, rows - 1), min_size=1, max_size=8),
                    label="ids")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))

    group = ParamGroup()
    table = group.add("table", rng.normal(size=(rows, dim)))
    check_node(lambda _: gather_rows(table, np.array(ids, dtype=np.int64)), group, rng)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_transform_bank_gradcheck(data):
    # 0 to 5 bank word rows; a b_k entry shifted by +-40 saturates its tanh.
    n = data.draw(st.integers(0, 5), label="rows")
    width = data.draw(st.integers(1, 3), label="2H")
    attn = data.draw(st.integers(1, 3), label="A")
    shifts = data.draw(st.lists(st.sampled_from([0.0, 40.0, -40.0]), min_size=attn,
                                max_size=attn), label="b_k shifts")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))

    group = ParamGroup()
    p = init_attention(group, "a", width, attn, rng)
    group.assign("a.b_k", ..., rng.normal(size=attn) + shifts)
    bank_h = group.add("bank_h", rng.normal(size=(n, width)))
    check_node(lambda _: transform_bank(bank_h, p), group, rng)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_head_and_loss_gradcheck(data):
    # The projection on packed rows and the loss on its logits, over
    # batches mixing questions of length 0, 1 and T, both labels as gold;
    # a proj.b shift of up to 1e3 between the labels saturates the softmax
    # far past where the losing label's probability underflows to 0.
    steps = data.draw(st.integers(1, 4), label="T")
    b_sz = data.draw(st.integers(1, 3), label="B")
    lengths = data.draw(st.lists(st.sampled_from([0, 1, steps]) | st.integers(0, steps),
                                 min_size=b_sz, max_size=b_sz), label="lengths")
    width = data.draw(st.integers(1, 3), label="2H")
    gap = data.draw(st.sampled_from([0.0, 1e3]) | st.floats(-1e3, 1e3), label="b_F - b_O shift")
    mask = (np.arange(steps) < np.asarray(lengths)[:, None]).astype(float)
    n = int(mask.sum())
    labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="gold")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))

    gold = np.full(mask.shape, O_INDEX)
    gold[mask > 0] = labels
    group = ParamGroup()
    x = group.add("x", rng.normal(size=(n, width)))
    w = group.add("w", rng.normal(size=(len(LABELS), width)))
    b = group.add("b", rng.normal(size=len(LABELS)) + [gap, 0.0])

    def out(_):
        return batch_loss(Probabilities(linear(x, w, b), mask), gold, mask)

    check_node(out, group, rng)
