"""Bidirectional LSTM layer with exact padding masking, as one tape node.

``blstm_forward`` runs both scan directions, their concat and inverted
dropout in numpy and records a single tape node; its hand-written
backward applies the dropout scale, splits the gradient and runs each
direction's backpropagation through time.  The per-gate tensors (input
i, forget f, output o, cell candidate g) are stacked into ``Wx (4H,
din)``, ``Wh (4H, H)`` and ``b (4H)`` at call time, and their gradients
are split back per gate.  Parameters stay stored per gate, so their
names and the checkpoint format (version 1) are unchanged.

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
          taped: bool, need_dx: bool):
    """One LSTM direction over plain (N, T, din) input from zero state.

    Returns the hidden states (N, T, H), exactly zero at padded positions,
    and with ``taped`` a backpropagation-through-time closure mapping the
    output gradient to ``(d_x, [d_w_x, d_w_h, d_b per gate])``; ``d_x`` is
    None unless ``need_dx``.  With ``reverse`` the scan runs from each
    row's last valid token back to its first.
    """
    batch, steps, _ = xs.shape
    hidden = p.hidden_size

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
    dtype = np.result_type(xs, w_x)
    x_rows = xs[row_idx, t_idx]
    hs = np.empty((n, hidden), dtype=dtype)
    cs = np.empty((n, hidden), dtype=dtype)
    if taped:
        gates = np.empty((n, 4 * hidden), dtype=dtype)
        tanh_cs = np.empty((n, hidden), dtype=dtype)

    h3 = 3 * hidden
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(steps):
            lo, hi, k = offs[s], offs[s + 1], carried[s]
            if lo == hi:
                continue
            prev = offs[s - 1] if s else 0
            pre = x_rows[lo:hi] @ w_x.T
            if k:
                pre[:k] += hs[prev:prev + k] @ w_h.T
            pre += bias
            check_finite(pre, "LSTM pre-activation")
            act = gates[lo:hi] if taped else pre
            act[:, :h3] = sigmoid_array(pre[:, :h3])
            act[:, h3:] = np.tanh(pre[:, h3:])
            c = act[:, :hidden] * act[:, h3:]
            if k:
                c[:k] += act[:k, hidden:2 * hidden] * cs[prev:prev + k]
            cs[lo:hi] = c
            tanh_c = np.tanh(c, out=tanh_cs[lo:hi]) if taped else np.tanh(c)
            np.multiply(act[:, 2 * hidden:h3], tanh_c, out=hs[lo:hi])

    out = np.zeros((batch, steps, hidden), dtype=dtype)
    out[row_idx, t_idx] = hs
    if not taped:
        return out, None

    # Packed index of each position's previous state; n is a zero row.
    prev_idx = np.where(slot_idx < carried[step_idx], offs[step_idx - 1] + slot_idx, n)

    def bptt(g_out):
        zero_row = np.zeros((1, hidden), dtype=dtype)
        i, f, o, g = np.split(gates, 4, axis=1)
        # Each gate's pre-activation gradient is d_c (d_h for o) times a
        # coefficient that needs no recurrence, so those are taken at once.
        coef = np.empty((n, 4, hidden), dtype=dtype)
        coef[:, 0] = g * i * (1.0 - i)
        coef[:, 1] = np.concatenate([cs, zero_row])[prev_idx] * f * (1.0 - f)
        coef[:, 2] = 0.0
        coef[:, 3] = i * (1.0 - g * g)
        o_coef = tanh_cs * o * (1.0 - o)
        dc_dh = o * (1.0 - tanh_cs * tanh_cs)
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
                np.multiply(coef[lo:hi], d_c[:, None, :], out=d_step)
                np.multiply(d_h, o_coef[lo:hi], out=d_step[:, 2])
                k = carried[s]
                d_h_next = d_pre[lo:lo + k] @ w_h
                d_c_next = d_c[:k] * f[lo:lo + k]
            h_prev = np.concatenate([hs, zero_row])[prev_idx]
            d_wx = d_pre.T @ x_rows
            d_wh = d_pre.T @ h_prev
            d_b = d_pre.sum(axis=0)
            d_x = None
            if need_dx:
                d_x = np.zeros_like(xs)
                d_x[row_idx, t_idx] = d_pre @ w_x
        return d_x, [d[gate * hidden:(gate + 1) * hidden]
                     for gate in range(4) for d in (d_wx, d_wh, d_b)]

    return out, bptt


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
    out_f, bptt_f = _scan(xs, lengths, p.fwd, False, tape is not None, not x.const)
    out_b, bptt_b = _scan(xs, lengths, p.bwd, True, tape is not None, not x.const)
    hidden = p.hidden_size
    out_data = np.concatenate([out_f, out_b], axis=-1).reshape(*lead, steps, 2 * hidden)
    scale = None
    if training and dropout_rate > 0.0:
        if rng is None:
            raise ValueError("training-mode dropout needs a seeded generator")
        keep = rng.random(out_data.shape) >= dropout_rate
        scale = (keep / (1.0 - dropout_rate)).astype(out_data.dtype, copy=False)
        out_data = out_data * scale
    out = Tensor(out_data)
    if tape is None:
        return out

    inputs = (x,) + tuple(getattr(d, f.name) for d in (p.fwd, p.bwd)
                          for f in dataclasses.fields(d))

    def backward(g):
        if scale is not None:
            g = g * scale
        g_f, g_b = np.split(g.reshape(n_rows, steps, 2 * hidden), [hidden], axis=-1)
        # Summation order (reverse, then forward) is fixed: checkpoints depend on it bit for bit.
        d_x_b, grads_b = bptt_b(g_b)
        d_x_f, grads_f = bptt_f(g_f)
        d_x = None if x.const else (d_x_b + d_x_f).reshape(x.shape)
        return tuple(None if t.const else gr for t, gr in zip(inputs, [d_x] + grads_f + grads_b))

    tape._nodes.append((out, inputs, backward))
    return out
