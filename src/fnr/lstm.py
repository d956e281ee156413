"""Bidirectional LSTM layer with exact padding masking, as one tape node.

``blstm_forward`` runs both scan directions into one output buffer,
applies inverted dropout in numpy and records a single tape node; its
hand-written backward applies the dropout scale, splits the gradient and
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
states either: for the weights' gradients backward regathers the input
rows from the node's input, and each position's previous state from the
node's unscaled output (zero at a sequence's first position), both in the
same packed order.  ``bptt`` consumes what its scan kept: it turns the
activations into the gate gradients in place and drops each buffer once
done with it, the cell states before those gathers, so one direction's
saved state is freed before the other direction's backward runs.  A
node's backward therefore runs once, which ``Tape.gradients`` already
enforces.

The layer reads and writes packed rows: one row per valid position of
its (..., T) mask, in the row-major order ``a[mask > 0]`` gives, i.e.
sequence by sequence, each in time order.  Padding is suffix-only (masks
are prefixes of ones), which the layer checks.  Sequences are sorted by
length once, so step t runs only on the prefix of sequences still inside
their length, indexing their rows directly: padding is never computed or
stored.  The reverse direction therefore starts each sequence at its last
valid token from a zero state, and extending a sequence with PAD
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


def _scan(xs: np.ndarray, lengths: np.ndarray, p: LstmParams, reverse: bool,
          out: np.ndarray, taped: bool):
    """One LSTM direction from zero state over plain (n, din) rows: the
    valid tokens of sequences of ``lengths``, row-major, each sequence's
    tokens in time order.

    Writes the hidden states into the (n, H) ``out`` and, with ``taped``,
    returns a backpropagation-through-time closure ``bptt(g_out, d_x)``
    mapping the output gradient to ``[d_w_x, d_w_h, d_b]``; it adds the
    input gradient into ``d_x``.  The closure keeps the (n, 4H) gate
    activations and the packed-row schedule; it rebuilds the (n, H) cell
    states from them, reads the previous states back from ``out``, which
    must still hold them, and runs at most once.  With ``reverse`` the
    scan runs from each sequence's last valid token back to its first.
    """
    steps = lengths.max(initial=0)
    hidden = p.hidden_size
    dtype = out.dtype

    # Packed layout: processing step s covers the rows still inside their
    # sequence, longest first, as rows offs[s]:offs[s+1] of each buffer;
    # every step covers at least the longest row.
    order = np.argsort(-lengths, kind="stable")
    times = np.arange(steps)[::-1] if reverse else np.arange(steps)
    active = lengths[order][None, :] > times[:, None]
    counts = active.sum(axis=1)
    offs = np.concatenate([[0], np.cumsum(counts)])
    # Rows that also ran the previous step carry its state; they are a
    # prefix of this step's rows.  The rest start from zero state.
    carried = np.minimum(counts, np.concatenate([[0], counts[:-1]]))
    step_idx, slot_idx = np.nonzero(active)
    # Each packed step row's position among the input rows.
    rows = (np.cumsum(lengths) - lengths)[order[slot_idx]] + times[step_idx]
    n = len(rows)

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
            lo, hi, k = offs[s], offs[s + 1], carried[s]
            prev = offs[s - 1] if s else 0
            pre = gates[lo:hi]
            if k:
                pre[:k] += hs[prev:prev + k] @ w_h.T
            pre += bias
            check_finite(pre, "LSTM pre-activation")
            pre[:, :h3] = sigmoid_array(pre[:, :h3])
            i, f, o, g = (pre[:, j * hidden:(j + 1) * hidden] for j in range(4))
            np.tanh(g, out=g)
            c_prev, c = c, i * g
            if k:
                c[:k] += f[:k] * c_prev[:k]
            np.multiply(o, np.tanh(c), out=hs[lo:hi])

    out[rows] = hs
    if not taped:
        return None

    # Packed rows that start their sequence: their previous state is zero.
    # Every other row's previous state is the output row one time step back.
    first = slot_idx >= carried[step_idx]

    def bptt(g_out, d_x):
        # The activation buffer becomes the gate gradients in place; each
        # buffer is dropped as soon as it is used up.
        nonlocal gates
        d_pre, gates = gates, None
        with np.errstate(over="ignore", invalid="ignore"):
            # The cell states, rebuilt by the forward's own recurrence.
            cs = np.empty((n, hidden), dtype=dtype)
            for s in range(steps):
                lo, hi, k = offs[s], offs[s + 1], carried[s]
                prev = offs[s - 1] if s else 0
                i, f, g = (d_pre[lo:hi, j * hidden:(j + 1) * hidden] for j in (0, 1, 3))
                np.multiply(i, g, out=cs[lo:hi])
                if k:
                    cs[lo:lo + k] += f[:k] * cs[prev:prev + k]
            d_hs = g_out[rows]
            d_h_next = d_c_next = None
            for s in range(steps - 1, -1, -1):
                lo, hi, k = offs[s], offs[s + 1], carried[s]
                prev = offs[s - 1] if s else 0
                k_next = carried[s + 1] if s + 1 < steps else 0
                i, f, o, g = (d_pre[lo:hi, j * hidden:(j + 1) * hidden] for j in range(4))
                tanh_c = np.tanh(cs[lo:hi])
                d_h = d_hs[lo:hi]
                if k_next:
                    d_h[:k_next] += d_h_next
                d_c = d_h * (o * (1.0 - tanh_c * tanh_c))
                if k_next:
                    d_c[:k_next] += d_c_next
                d_c_next = d_c[:k] * f[:k]
                # Each gate's pre-activation gradient is d_c (d_h for o)
                # times a coefficient of the step's activations and cell
                # states, written over the activation it replaces.
                coef_i = g * i * (1.0 - i)
                np.multiply(i, 1.0 - g * g, out=g)
                i[...] = coef_i
                f[k:] = 0.0
                if k:
                    f[:k] = cs[prev:prev + k] * f[:k] * (1.0 - f[:k])
                o[...] = tanh_c * o * (1.0 - o)
                o *= d_h
                i *= d_c
                f *= d_c
                g *= d_c
                d_h_next = d_pre[lo:lo + k] @ w_h
            d_hs = cs = None
            d_wx = d_pre.T @ xs[rows]
            h_prev = out[np.where(first, 0, rows + (1 if reverse else -1))]
            h_prev[first] = 0.0
            d_wh = d_pre.T @ h_prev
            d_b = d_pre.sum(axis=0)
            d_x[rows] += d_pre @ w_x
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
    dropout to a scaled copy of the output rows only (never inside the
    recurrence): after both scans, one ``rng.random((T, 2H))`` draw per
    mask row, in row order, read at that row's valid positions, which
    takes the generator stream of one draw over the padded (..., T, 2H)
    shape.  The node's inputs are x and each direction's ``w_x``, ``w_h``
    and ``b``, forward direction first.
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
    out_data = np.empty((n, 2 * hidden), dtype=np.result_type(x.data, p.fwd.w_x.data))
    bptt_f = _scan(x.data, lengths, p.fwd, False, out_data[:, :hidden], taped)
    bptt_b = _scan(x.data, lengths, p.bwd, True, out_data[:, hidden:], taped)
    keep, dtype, out = None, out_data.dtype, out_data
    if dropout_rate > 0.0:
        if rng is None:
            raise ValueError("dropout needs a seeded generator (rng)")
        # One (T, 2H) draw per mask row, in row order, kept at its valid
        # positions: the stream of one draw over the padded shape.
        keep = np.empty(out_data.shape, dtype=bool)
        row_shape = (mask.shape[-1], 2 * hidden)
        for start, length in zip(np.cumsum(lengths) - lengths, lengths):
            keep[start:start + length] = rng.random(row_shape)[:length] >= dropout_rate
        # A scaled copy: backward reads the previous states from out_data.
        out = out_data * (keep / (1.0 - dropout_rate)).astype(dtype, copy=False)

    def backward(g):
        if keep is not None:
            # Rebuilt from the bool mask, an eighth of the float scale's size.
            g = g * (keep / (1.0 - dropout_rate)).astype(dtype, copy=False)
        g_f, g_b = np.split(g, [hidden], axis=-1)
        d_x = np.zeros_like(x.data)
        # Summation order (reverse, then forward) is fixed: checkpoints depend on it bit for bit.
        grads_b = bptt_b(g_b, d_x)
        grads_f = bptt_f(g_f, d_x)
        return (d_x, *grads_f, *grads_b)
    inputs = (x, p.fwd.w_x, p.fwd.w_h, p.fwd.b, p.bwd.w_x, p.bwd.w_h, p.bwd.b)
    return record(Tensor(out), inputs, backward)
