"""Bidirectional LSTM layer with exact padding masking, as one tape node.

``blstm_forward`` runs both scan directions into one output buffer,
applies inverted dropout to it in place and records a single tape node;
its hand-written backward applies the dropout scale, splits the gradient and
runs each direction's backpropagation through time, both adding their
input gradient into one buffer.  Each direction stores its four gate
blocks (input i, forget f, output o, cell candidate g) stacked in that
order as ``w_x (4H, din)``, ``w_h (4H, H)`` and ``b (4H,)``: the layout
the scan multiplies with, and the one checkpoints (format version 3)
store.

The input projection ``x Wx^T`` of every valid position is one GEMM
before the recurrence; each step adds ``h_prev Wh^T`` and the bias to its
rows.  A taped scan keeps, per valid position, only the four gate
activations i, f, o, g (4H values); taped and tape-free forwards run the
same steps.  Backward rebuilds the rest with the forward's own arithmetic,
so its gradients are bit-identical to keeping it: first each position's
cell state, by the recurrence c = i g + f c_prev, then, step by step in
reverse, tanh c and the coefficients that turn d_c (d_h for o) into the
gate pre-activation gradients: o(1 - tanh^2 c) for d_c itself,
g i(1 - i), c_prev f(1 - f), tanh c o(1 - o) and i(1 - g^2).  No GEMM is
re-run.  The scan keeps no copy of the input rows or of the hidden
states either, and backward never reads the node's output: as the reverse
loop leaves step s it writes step s's hidden states, o tanh c, over step
s + 1's used-up cell states, so afterwards each position's row holds its
previous state (none at a sequence's first position) for ``d_w_h``; for
``d_w_x`` backward regathers the input rows from the node's input.
``bptt`` consumes what its scan kept: it turns the activations into the
gate gradients in place and drops each buffer once done with it, so one
direction's saved state is freed before the other direction's backward
runs.  A node's backward therefore runs once, which ``Tape.gradients``
already enforces.

The layer reads and writes packed rows: one row per valid position of
its (..., T) mask, in the row-major order ``a[mask > 0]`` gives, i.e.
sequence by sequence, each in time order.  Padding is suffix-only (masks
are prefixes of ones), which the layer checks.  Both directions run one
schedule, built once per call as in PyTorch's ``PackedSequence``:
sequences sorted longest first, so step s runs the prefix of those longer
than s, and each step's rows are a prefix of the previous step's.  At
step s a sequence reads its position s going forward and its position
length - 1 - s going back, so the reverse scan is, bit for bit, the
forward scan over each sequence's rows reversed.  Padding is never
computed or stored: the reverse direction starts each sequence at its
last valid token from a zero state, and extending a sequence with PAD
positions is a bit-for-bit no-op.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _tape, check_finite, record, sigmoid_array
from .optim import ParamGroup


@dataclass
class LstmParams:
    """One direction's input/recurrent weights and bias, the gate blocks
    i, f, o, g stacked along axis 0: ``w_x (4H, din)``, ``w_h (4H, H)``,
    ``b (4H,)``."""
    w_x: Tensor
    w_h: Tensor
    b: Tensor

    @property
    def hidden_size(self) -> int:
        return self.w_h.shape[1]


@dataclass
class BlstmParams:
    fwd: LstmParams
    bwd: LstmParams

    @property
    def hidden_size(self) -> int:
        return self.fwd.hidden_size


def glorot(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    fan_out, fan_in = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_lstm(group: ParamGroup, prefix: str, input_size: int, hidden: int,
              rng: np.random.Generator) -> LstmParams:
    """Glorot-uniform weights drawn gate by gate (i, f, o, g; w_x, then
    w_h), forget bias 1.0, other biases 0."""
    blocks = [(glorot(rng, (hidden, input_size)), glorot(rng, (hidden, hidden)))
              for _ in range(4)]
    bias = np.zeros(4 * hidden)
    bias[hidden:2 * hidden] = 1.0
    return LstmParams(w_x=group.add(f"{prefix}.w_x", np.concatenate([wx for wx, _ in blocks])),
                      w_h=group.add(f"{prefix}.w_h", np.concatenate([wh for _, wh in blocks])),
                      b=group.add(f"{prefix}.b", bias))


def init_blstm(group: ParamGroup, prefix: str, input_size: int, hidden: int,
               rng: np.random.Generator) -> BlstmParams:
    return BlstmParams(fwd=init_lstm(group, f"{prefix}.fwd", input_size, hidden, rng),
                       bwd=init_lstm(group, f"{prefix}.bwd", input_size, hidden, rng))


def _scan(xs: np.ndarray, rows: np.ndarray, offs: np.ndarray, p: LstmParams,
          out: np.ndarray, taped: bool):
    """One LSTM direction from zero state over the (n, din) rows ``xs``,
    on the packed schedule ``rows``, ``offs`` that ``blstm_forward`` builds.

    Step s runs packed rows offs[s]:offs[s+1], which are input rows
    ``rows[offs[s]:offs[s+1]]``, and its rows are a prefix of step s - 1's:
    row j of step s continues row j of step s - 1, and step 0 starts every
    sequence from zero state.  Writes the hidden states into the (n, H)
    ``out`` and, with ``taped``, returns a backpropagation-through-time
    closure ``bptt(g_out, d_x)`` mapping the output gradient to
    ``[d_w_x, d_w_h, d_b]``; it adds the input gradient into ``d_x``.  The
    closure keeps the (n, 4H) gate activations and the schedule; it
    rebuilds the (n, H) cell states from them, then in the same buffer
    each row's previous hidden state, reads nothing of ``out`` and runs at
    most once.
    """
    steps = len(offs) - 1
    counts = np.diff(offs)
    n = len(rows)
    hidden = p.hidden_size
    dtype = out.dtype
    w_x, w_h, bias = p.w_x.data, p.w_h.data, p.b.data
    hs = np.empty((n, hidden), dtype=dtype)

    h3 = 3 * hidden
    with np.errstate(over="ignore", invalid="ignore"):
        # The input projection of every packed row, hoisted out of the
        # recurrence; step s turns its rows into the gate pre-activations,
        # then in place into the activations i, f, o, g.
        gates = xs[rows] @ w_x.T
        c = None
        for s in range(steps):
            lo, hi, back = offs[s], offs[s + 1], counts[s - 1]
            pre = gates[lo:hi]
            if s:
                pre += hs[lo - back:hi - back] @ w_h.T
            pre += bias
            check_finite(pre, "LSTM pre-activation")
            pre[:, :h3] = sigmoid_array(pre[:, :h3])
            i, f, o, g = (pre[:, j * hidden:(j + 1) * hidden] for j in range(4))
            np.tanh(g, out=g)
            c_prev, c = c, i * g
            if s:
                c += f * c_prev[:hi - lo]
            np.multiply(o, np.tanh(c), out=hs[lo:hi])

    out[rows] = hs
    if not taped:
        return None

    def bptt(g_out, d_x):
        # The activation buffer becomes the gate gradients in place; each
        # buffer is dropped as soon as it is used up.
        nonlocal gates
        d_pre, gates = gates, None
        with np.errstate(over="ignore", invalid="ignore"):
            # The cell states, rebuilt by the forward's own recurrence.
            cs = np.empty((n, hidden), dtype=dtype)
            for s in range(steps):
                lo, hi, back = offs[s], offs[s + 1], counts[s - 1]
                i, f, g = (d_pre[lo:hi, j * hidden:(j + 1) * hidden] for j in (0, 1, 3))
                np.multiply(i, g, out=cs[lo:hi])
                if s:
                    cs[lo:hi] += f * cs[lo - back:hi - back]
            d_hs = g_out[rows]
            d_h_next = d_c_next = np.empty((0, hidden), dtype=dtype)
            for s in range(steps - 1, -1, -1):
                lo, hi, back = offs[s], offs[s + 1], counts[s - 1]
                i, f, o, g = (d_pre[lo:hi, j * hidden:(j + 1) * hidden] for j in range(4))
                tanh_c = np.tanh(cs[lo:hi])
                # Step s + 1's cell states are used up: its rows, a prefix
                # of this step's, take this step's hidden states instead,
                # which are their previous states.
                k = counts[s + 1] if s + 1 < steps else 0
                np.multiply(o[:k], tanh_c[:k], out=cs[hi:hi + k])
                d_h = d_hs[lo:hi]
                d_h[:len(d_h_next)] += d_h_next
                d_c = d_h * (o * (1.0 - tanh_c * tanh_c))
                d_c[:len(d_c_next)] += d_c_next
                d_c_next = d_c * f
                # Each gate's pre-activation gradient is d_c (d_h for o)
                # times a coefficient of the step's activations and cell
                # states, written over the activation it replaces; at step
                # 0 the previous cell state, so f's coefficient, is zero.
                coef_i = g * i * (1.0 - i)
                np.multiply(i, 1.0 - g * g, out=g)
                i[...] = coef_i
                f[...] = cs[lo - back:hi - back] * f * (1.0 - f) if s else 0.0
                o[...] = tanh_c * o * (1.0 - o)
                o *= d_h
                i *= d_c
                f *= d_c
                g *= d_c
                if s:
                    d_h_next = d_pre[lo:hi] @ w_h
            # d_h is a view of d_hs: both go, with the loop's temporaries,
            # before the weight-gradient GEMMs.
            d_hs = d_h = d_h_next = d_c = d_c_next = tanh_c = coef_i = None
            # cs[first:] now holds each row's previous hidden state, in
            # packed order; step 0's are zero and add nothing.
            first = counts[:1].sum()
            d_wh = d_pre[first:].T @ cs[first:]
            cs = None
            x_rows = xs[rows]
            d_wx = d_pre.T @ x_rows
            d_b = d_pre.sum(axis=0)
            d_x[rows] += np.matmul(d_pre, w_x, out=x_rows)
        return [d_wx, d_wh, d_b]

    return bptt


def prefix_lengths(mask: np.ndarray, shape: tuple[int, ...], name: str = "mask") -> np.ndarray:
    """Row lengths of a padding mask of ``shape``, rows along the last axis.

    Entries must be 0 or 1 and each row a prefix of ones followed by
    padding; an all-zero row (an empty sequence) is fine.
    """
    mask = np.asarray(mask)
    if mask.shape != tuple(shape):
        raise ValueError(f"{name} shape {mask.shape} != {tuple(shape)}")
    if not np.all((mask == 0) | (mask == 1)):
        raise ValueError(f"{name} entries must be 0 or 1")
    if np.any(mask[..., 1:] > mask[..., :-1]):
        raise ValueError(f"{name} rows must be a prefix of ones followed by padding")
    return mask.sum(axis=-1).astype(np.intp)


def blstm_forward(x: Tensor, mask: np.ndarray, p: BlstmParams, dropout_rate: float = 0.0,
                  rng: np.random.Generator | None = None) -> Tensor:
    """Bidirectional scan over the valid tokens of ``mask``, as one tape node.

    ``mask`` is (..., T) 0/1 with rows along its last axis; x is (n, din),
    one row per valid position, in the row-major order ``a[mask > 0]``
    gives.  Output row j is forward_h concatenated with backward_h at x's
    row j, shape (n, 2H).  A nonzero ``dropout_rate`` applies inverted
    dropout to the output rows in place (never inside the recurrence):
    after both scans, one ``rng.random((T, 2H))`` draw per mask row, in
    row order, read at that row's valid positions, which takes the
    generator stream of one draw over the padded (..., T, 2H) shape.  The
    node's inputs are x and each direction's ``w_x``, ``w_h`` and ``b``,
    forward direction first.  Besides its output it keeps each direction's
    gate activations and packed row index and, with dropout, the bool
    keep mask.
    """
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {dropout_rate}")
    mask = np.asarray(mask)
    lengths = prefix_lengths(mask, mask.shape).reshape(-1)
    n = int(lengths.sum())
    if x.ndim != 2 or x.shape[0] != n:
        raise ValueError(f"x shape {x.shape} != ({n}, din): one row per valid token of mask")
    taped = _tape() is not None
    hidden = p.hidden_size
    # The packed schedule of both directions: sequences sorted longest
    # first, so step s runs the prefix of those longer than s, and each
    # step's row reads input row start + s going forward and
    # start + length - 1 - s going back.
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(-lengths, kind="stable")
    active = lengths[order][None, :] > np.arange(lengths.max(initial=0))[:, None]
    offs = np.concatenate([[0], np.cumsum(active.sum(axis=1))])
    step, slot = np.nonzero(active)
    seq = order[slot]
    out_data = np.empty((n, 2 * hidden), dtype=np.result_type(x.data, p.fwd.w_x.data))
    bptt_f = _scan(x.data, starts[seq] + step, offs, p.fwd, out_data[:, :hidden], taped)
    bptt_b = _scan(x.data, starts[seq] + lengths[seq] - 1 - step, offs, p.bwd,
                   out_data[:, hidden:], taped)
    keep, dtype = None, out_data.dtype
    if dropout_rate > 0.0:
        if rng is None:
            raise ValueError("dropout needs a seeded generator (rng)")
        # One (T, 2H) draw per mask row, in row order, kept at its valid
        # positions: the stream of one draw over the padded shape.
        keep = np.empty(out_data.shape, dtype=bool)
        row_shape = (mask.shape[-1], 2 * hidden)
        for start, length in zip(starts, lengths):
            keep[start:start + length] = rng.random(row_shape)[:length] >= dropout_rate
        out_data *= (keep / (1.0 - dropout_rate)).astype(dtype, copy=False)

    def backward(g):
        if keep is not None:
            # Rebuilt from the bool mask, an eighth of the float scale's size.
            scale = (keep / (1.0 - dropout_rate)).astype(dtype, copy=False)
            g = np.multiply(g, scale, out=scale)
        g_f, g_b = np.split(g, [hidden], axis=-1)
        d_x = np.zeros_like(x.data)
        # Each row of d_x gets one term per direction, so the call order keeps its bits.
        grads_b = bptt_b(g_b, d_x)
        grads_f = bptt_f(g_f, d_x)
        return (d_x, *grads_f, *grads_b)
    inputs = (x, p.fwd.w_x, p.fwd.w_h, p.fwd.b, p.bwd.w_x, p.bwd.w_h, p.bwd.b)
    return record(Tensor(out_data), inputs, backward)
