"""Bidirectional LSTM layer with exact padding masking, as one tape node.

``blstm_forward`` runs both scan directions into one output buffer,
applies inverted dropout in numpy and records a single tape node; its
hand-written backward applies the dropout scale, splits the gradient and
runs each direction's backpropagation through time, both adding their
input gradient into one buffer.  The per-gate tensors (input i, forget
f, output o, cell candidate g) are stacked into ``Wx (4H, din)``, ``Wh
(4H, H)`` and ``b (4H)`` at call time, and their gradients are split
back per gate.  Parameters stay stored per gate, so their names and the
checkpoint format (version 1) are unchanged.

The input projection ``x Wx^T`` of every valid position is one GEMM
before the recurrence; each step adds ``h_prev Wh^T`` and the bias to its
rows.  A taped scan keeps, per valid position, the input, the hidden
state, the forget gate, o(1 - tanh^2 c), and in place of the four
activations the coefficients that turn d_c (d_h for o) into the gate
pre-activation gradients: g i(1 - i), c_prev f(1 - f), tanh c o(1 - o)
and i(1 - g^2).  They are taken during the forward step, so the backward
pass only runs the recurrence for d_h and d_c.

Padding is suffix-only (masks are prefixes of ones), which the layer
checks.  Rows are sorted by length once, so step t runs only on the
prefix of rows still inside their sequence: padded positions are never
computed and come out exactly zero.  The reverse direction therefore
starts each row at its last valid token from a zero state, and extending
a sequence with PAD positions is a bit-for-bit no-op at the valid
positions.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _tape, check_finite, sigmoid_array
from .optim import ParamGroup

GATES = ("i", "f", "o", "g")


@dataclass
class LstmParams:
    """Input/recurrent weights and bias for each of the four gate blocks
    (input i, forget f, output o, cell candidate g)."""
    w_xi: Tensor
    w_hi: Tensor
    b_i: Tensor
    w_xf: Tensor
    w_hf: Tensor
    b_f: Tensor
    w_xo: Tensor
    w_ho: Tensor
    b_o: Tensor
    w_xg: Tensor
    w_hg: Tensor
    b_g: Tensor

    @property
    def hidden_size(self) -> int:
        return self.w_hi.shape[0]

    @property
    def input_size(self) -> int:
        return self.w_xi.shape[1]


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
    """Glorot-uniform weights, forget bias 1.0, other biases 0."""
    fields = {}
    for gate in GATES:
        fields[f"w_x{gate}"] = group.add(f"{prefix}.w_x{gate}", glorot(rng, (hidden, input_size)))
        fields[f"w_h{gate}"] = group.add(f"{prefix}.w_h{gate}", glorot(rng, (hidden, hidden)))
        bias = np.ones(hidden) if gate == "f" else np.zeros(hidden)
        fields[f"b_{gate}"] = group.add(f"{prefix}.b_{gate}", bias)
    return LstmParams(**fields)


def init_blstm(group: ParamGroup, prefix: str, input_size: int, hidden: int,
               rng: np.random.Generator) -> BlstmParams:
    return BlstmParams(fwd=init_lstm(group, f"{prefix}.fwd", input_size, hidden, rng),
                       bwd=init_lstm(group, f"{prefix}.bwd", input_size, hidden, rng))


def _scan(xs: np.ndarray, lengths: np.ndarray, p: LstmParams, reverse: bool,
          out: np.ndarray, taped: bool):
    """One LSTM direction over plain (N, T, din) input from zero state.

    Writes the hidden states into the valid positions of the zeroed
    (N, T, H) ``out`` and, with ``taped``, returns a backpropagation-
    through-time closure ``bptt(g_out, d_x)`` mapping the output gradient
    to ``[d_w_x, d_w_h, d_b per gate]``; it adds the input gradient into
    ``d_x`` unless that is None.  With ``reverse`` the scan runs from each
    row's last valid token back to its first.
    """
    steps = xs.shape[1]
    hidden = p.hidden_size
    dtype = out.dtype

    # Packed layout: processing step s covers the rows still inside their
    # sequence, longest first, as rows offs[s]:offs[s+1] of each buffer.
    order = np.argsort(-lengths, kind="stable")
    times = np.arange(steps)[::-1] if reverse else np.arange(steps)
    active = lengths[order][None, :] > times[:, None]
    counts = active.sum(axis=1)
    offs = np.concatenate([[0], np.cumsum(counts)])
    # Rows that also ran the previous step carry its state; they are a
    # prefix of this step's rows.  The rest start from zero state.
    carried = np.minimum(counts, np.concatenate([[0], counts[:-1]]))
    step_idx, slot_idx = np.nonzero(active)
    row_idx, t_idx = order[slot_idx], times[step_idx]
    n = len(row_idx)

    # Field order is gate by gate, each as (w_x, w_h, b).
    tensors = tuple(getattr(p, f.name) for f in dataclasses.fields(p))
    w_x = np.concatenate([t.data for t in tensors[0::3]])
    w_h = np.concatenate([t.data for t in tensors[1::3]])
    bias = np.concatenate([t.data for t in tensors[2::3]])
    x_rows = xs[row_idx, t_idx]
    hs = np.empty((n, hidden), dtype=dtype)
    if taped:
        fs = np.empty((n, hidden), dtype=dtype)
        dc_dh = np.empty((n, hidden), dtype=dtype)

    h3 = 3 * hidden
    with np.errstate(over="ignore", invalid="ignore"):
        # The input projection of every packed row, hoisted out of the
        # recurrence; step s turns its rows into the gate pre-activations,
        # then the activations, and under a tape the backward coefficients.
        gates = x_rows @ w_x.T
        c = None
        for s in range(steps):
            lo, hi, k = offs[s], offs[s + 1], carried[s]
            if lo == hi:
                continue
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
            tanh_c = np.tanh(c)
            np.multiply(o, tanh_c, out=hs[lo:hi])
            if not taped:
                continue
            # Each gate's pre-activation gradient is d_c (d_h for o) times
            # a coefficient that needs no recurrence: taken here, while
            # the step's rows are in cache, in place of the activations.
            fs[lo:hi] = f
            np.multiply(o, 1.0 - tanh_c * tanh_c, out=dc_dh[lo:hi])
            coef_i = g * i * (1.0 - i)
            np.multiply(i, 1.0 - g * g, out=g)
            i[...] = coef_i
            f[k:] = 0.0
            if k:
                f[:k] = c_prev[:k] * f[:k] * (1.0 - f[:k])
            o[...] = tanh_c * o * (1.0 - o)

    out[row_idx, t_idx] = hs
    if not taped:
        return None

    # Packed index of each position's previous state; n is a zero row.
    prev_idx = np.where(slot_idx < carried[step_idx], offs[step_idx - 1] + slot_idx, n)

    def bptt(g_out, d_x):
        d_hs = g_out[row_idx, t_idx]
        d_pre = np.empty((n, 4 * hidden), dtype=dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            d_h_next = d_c_next = None
            for s in range(steps - 1, -1, -1):
                lo, hi = offs[s], offs[s + 1]
                if lo == hi:
                    continue
                k_next = carried[s + 1] if s + 1 < steps else 0
                d_h = d_hs[lo:hi]
                if k_next:
                    d_h[:k_next] += d_h_next
                d_c = d_h * dc_dh[lo:hi]
                if k_next:
                    d_c[:k_next] += d_c_next
                d_step = d_pre[lo:hi].reshape(hi - lo, 4, hidden)
                coef = gates[lo:hi].reshape(hi - lo, 4, hidden)
                np.multiply(coef, d_c[:, None, :], out=d_step)
                np.multiply(d_h, coef[:, 2], out=d_step[:, 2])
                k = carried[s]
                d_h_next = d_pre[lo:lo + k] @ w_h
                d_c_next = d_c[:k] * fs[lo:lo + k]
            h_prev = np.concatenate([hs, np.zeros((1, hidden), dtype=dtype)])[prev_idx]
            d_wx = d_pre.T @ x_rows
            d_wh = d_pre.T @ h_prev
            d_b = d_pre.sum(axis=0)
            if d_x is not None:
                d_x[row_idx, t_idx] += d_pre @ w_x
        return [d[gate * hidden:(gate + 1) * hidden]
                for gate in range(4) for d in (d_wx, d_wh, d_b)]

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


def blstm_forward(x: Tensor, mask: np.ndarray, p: BlstmParams,
                  dropout_rate: float = 0.0, training: bool = False,
                  rng: np.random.Generator | None = None) -> Tensor:
    """Bidirectional scan over (..., T, din) input, as one tape node.

    Output position t is forward_h_t concatenated with backward_h_t, shape
    (..., T, 2H); leading axes are batch axes, flattened inside.  Padded
    positions come out exactly zero, since neither scan computes them.
    Dropout, when requested, is inverted dropout on the output rows only
    (never inside the recurrence): one ``rng.random`` draw over the output
    shape after both scans.  The node's inputs are x and the 24 gate
    tensors, forward direction first.
    """
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {dropout_rate}")
    *lead, steps, din = x.shape
    n_rows = np.prod(lead, dtype=int)
    lengths = prefix_lengths(mask, x.shape[:-1]).reshape(n_rows)
    xs = x.data.reshape(n_rows, steps, din)
    tape = _tape()
    hidden = p.hidden_size
    out_data = np.zeros((n_rows, steps, 2 * hidden), dtype=np.result_type(xs, p.fwd.w_xi.data))
    bptt_f = _scan(xs, lengths, p.fwd, False, out_data[..., :hidden], tape is not None)
    bptt_b = _scan(xs, lengths, p.bwd, True, out_data[..., hidden:], tape is not None)
    out_data = out_data.reshape(*lead, steps, 2 * hidden)
    scale = None
    if training and dropout_rate > 0.0:
        if rng is None:
            raise ValueError("training-mode dropout needs a seeded generator")
        keep = rng.random(out_data.shape) >= dropout_rate
        scale = (keep / (1.0 - dropout_rate)).astype(out_data.dtype, copy=False)
        out_data *= scale
    out = Tensor(out_data)
    if tape is None:
        return out

    inputs = (x,) + tuple(getattr(d, f.name) for d in (p.fwd, p.bwd)
                          for f in dataclasses.fields(d))

    def backward(g):
        if scale is not None:
            g = g * scale
        g_f, g_b = np.split(g.reshape(n_rows, steps, 2 * hidden), [hidden], axis=-1)
        d_x = None if x.const else np.zeros_like(xs)
        # Summation order (reverse, then forward) is fixed: checkpoints depend on it bit for bit.
        grads_b = bptt_b(g_b, d_x)
        grads_f = bptt_f(g_f, d_x)
        d_x = None if d_x is None else d_x.reshape(x.shape)
        return tuple(None if t.const else gr for t, gr in zip(inputs, [d_x] + grads_f + grads_b))

    tape._nodes.append((out, inputs, backward))
    return out
