"""LSTM scan and bidirectional layer with exact padding masking.

One direction of a BLSTM is a single autodiff primitive, ``lstm_scan``: it
runs the whole recurrence in numpy and records one tape node, whose
backward is a hand-written backpropagation through time.  The per-gate
tensors (input i, forget f, output o, cell candidate g) are stacked into
``Wx (4H, din)``, ``Wh (4H, H)`` and ``b (4H)`` at call time, and their
gradients are split back per gate.  Parameters stay stored per gate, so
their names and the checkpoint format (version 1) are unchanged.

Padding is suffix-only (masks are prefixes of ones), which the scan
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

from .autodiff import Tensor, _tape, check_finite, concat, dropout, sigmoid_array
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


def _sequence_lengths(mask: np.ndarray) -> np.ndarray:
    """Row lengths of a (B, T) mask, which must be 0/1 with each row a
    prefix of ones (all-zero rows, such as empty bank slots, are fine)."""
    mask = np.asarray(mask)
    if not np.all((mask == 0) | (mask == 1)):
        raise ValueError("mask entries must be 0 or 1")
    if np.any(mask[:, 1:] > mask[:, :-1]):
        raise ValueError("mask rows must be a prefix of ones followed by padding")
    return mask.sum(axis=1).astype(np.intp)


def lstm_scan(x: Tensor, mask: np.ndarray, p: LstmParams, reverse: bool = False) -> Tensor:
    """One LSTM direction over batched (B, T, din) input from zero state.

    Returns the hidden states (B, T, H), exactly zero at padded positions.
    With ``reverse`` the scan runs from each row's last valid token back
    to its first.  Records a single tape node covering x and all 12 gate
    tensors.
    """
    batch, steps, _ = x.shape
    hidden = p.hidden_size
    mask = np.asarray(mask)
    if mask.shape != (batch, steps):
        raise ValueError(f"mask shape {mask.shape} != {(batch, steps)}")
    lengths = _sequence_lengths(mask)

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
    dtype = np.result_type(x.data, w_x)
    xs = x.data[row_idx, t_idx]
    hs = np.empty((n, hidden), dtype=dtype)
    cs = np.empty((n, hidden), dtype=dtype)
    tape = _tape()
    if tape is not None:
        gates = np.empty((n, 4 * hidden), dtype=dtype)
        tanh_cs = np.empty((n, hidden), dtype=dtype)

    h3 = 3 * hidden
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(steps):
            lo, hi, k = offs[s], offs[s + 1], carried[s]
            if lo == hi:
                continue
            prev = offs[s - 1] if s else 0
            pre = xs[lo:hi] @ w_x.T
            if k:
                pre[:k] += hs[prev:prev + k] @ w_h.T
            pre += bias
            check_finite(pre, "LSTM pre-activation")
            act = pre if tape is None else gates[lo:hi]
            act[:, :h3] = sigmoid_array(pre[:, :h3])
            act[:, h3:] = np.tanh(pre[:, h3:])
            c = act[:, :hidden] * act[:, h3:]
            if k:
                c[:k] += act[:k, hidden:2 * hidden] * cs[prev:prev + k]
            cs[lo:hi] = c
            tanh_c = np.tanh(c) if tape is None else np.tanh(c, out=tanh_cs[lo:hi])
            np.multiply(act[:, 2 * hidden:h3], tanh_c, out=hs[lo:hi])

    out_data = np.zeros((batch, steps, hidden), dtype=dtype)
    out_data[row_idx, t_idx] = hs
    out = Tensor(out_data)
    if tape is None:
        return out

    # Packed index of each position's previous state; n is a zero row.
    prev_idx = np.where(slot_idx < carried[step_idx], offs[step_idx - 1] + slot_idx, n)

    def backward(g_out):
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
            d_wx = d_pre.T @ xs
            d_wh = d_pre.T @ h_prev
            d_b = d_pre.sum(axis=0)
            d_x = None
            if not x.const:
                d_x = np.zeros_like(x.data)
                d_x[row_idx, t_idx] = d_pre @ w_x
        grads = [d_x]
        for gate in range(4):
            rows = slice(gate * hidden, (gate + 1) * hidden)
            grads += [d_wx[rows], d_wh[rows], d_b[rows]]
        return tuple(None if t.const else gr for t, gr in zip((x,) + tensors, grads))

    tape._nodes.append((out, (x,) + tensors, backward))
    return out


def blstm_forward(x: Tensor, mask: np.ndarray, p: BlstmParams,
                  dropout_rate: float = 0.0, training: bool = False,
                  rng: np.random.Generator | None = None) -> Tensor:
    """Bidirectional scan over batched (B, T, din) input.

    Output position t is forward_h_t concatenated with backward_h_t;
    padded positions come out exactly zero, since ``lstm_scan`` never
    computes them.  Dropout, when requested, applies to the output rows
    only (never inside the recurrence).
    """
    out = concat(lstm_scan(x, mask, p.fwd), lstm_scan(x, mask, p.bwd, reverse=True), axis=-1)
    if training and dropout_rate > 0.0:
        out = dropout(out, dropout_rate, training=True, rng=rng)
    return out
