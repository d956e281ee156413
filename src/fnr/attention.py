"""Two-level attention of labeled-question tokens over the unlabeled bank.

Level 1: every token of the labeled question attends over the words of
each unlabeled question (dot products of tanh-transformed vectors, masked
softmax, weighted sum of the transformed bank words).  Level 2: the same
token then attends over the per-question summaries, producing its side
vector, which is concatenated onto the token's BLSTM representation.

The bank words come in already transformed (``transform_bank``: taped
ops in training, the eval bank memo otherwise).  ``bank_attend_batch``
then computes the query transform, both levels and the concat for a whole
batch as one tape node with a hand-written backward, over the padded
(B, U, T_q, T_u) layout.

Scores are plain unscaled dot products.  PAD positions inside bank
questions are excluded from the level-1 softmax; banks that are entirely
PAD (or an empty bank) are excluded at level 2, and a fully empty bank
degrades gracefully to a zero side vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (Tensor, _tape, _unbroadcast, astensor, linear, softmax_grad,
                       softmax_parts, tanh)
from .lstm import glorot
from .optim import ParamGroup


@dataclass
class AttentionParams:
    """Query transform (r), bank word transform (k), bank summary transform
    (k2); all three project into the same attention dimension so the dot
    products are defined."""
    w_r: Tensor
    b_r: Tensor
    w_k: Tensor
    b_k: Tensor
    w_k2: Tensor
    b_k2: Tensor

    @property
    def dim(self) -> int:
        return self.w_r.shape[0]


def init_attention(group: ParamGroup, prefix: str, encoder_width: int, attn_dim: int,
                   rng: np.random.Generator) -> AttentionParams:
    return AttentionParams(
        w_r=group.add(f"{prefix}.w_r", glorot(rng, (attn_dim, encoder_width))),
        b_r=group.add(f"{prefix}.b_r", np.zeros(attn_dim)),
        w_k=group.add(f"{prefix}.w_k", glorot(rng, (attn_dim, encoder_width))),
        b_k=group.add(f"{prefix}.b_k", np.zeros(attn_dim)),
        w_k2=group.add(f"{prefix}.w_k2", glorot(rng, (attn_dim, attn_dim))),
        b_k2=group.add(f"{prefix}.b_k2", np.zeros(attn_dim)),
    )


@dataclass
class AttentionTrace:
    """Detached per-example attention record for inspection and tests.

    level1_weights: (T_q, U, T_u); level1_attended: (T_q, U, A);
    level2_weights: (T_q, U); side: (T_q, A).
    """
    level1_weights: np.ndarray
    level1_attended: np.ndarray
    level2_weights: np.ndarray
    side: np.ndarray

    def to_dict(self) -> dict:
        return {
            "level1_weights": self.level1_weights.tolist(),
            "level1_attended": self.level1_attended.tolist(),
            "level2_weights": self.level2_weights.tolist(),
            "side_vectors": self.side.tolist(),
        }


def transform_bank(bank_h: Tensor, p: AttentionParams) -> Tensor:
    """tanh(W_k h + b_k) rowwise over bank word representations."""
    return tanh(linear(bank_h, p.w_k, p.b_k))


def bank_attend_batch(hq1: Tensor, words: Tensor, token_mask: np.ndarray,
                      bank_valid: np.ndarray, p: AttentionParams,
                      want_trace: bool = False) -> tuple[Tensor, list[AttentionTrace] | None]:
    """Both attention levels and the final concat, as one tape node.

    hq1: (B, T_q, 2H); words: (B, U, T_u, A), bank words already through
    ``transform_bank``; token_mask: (B, U, T_u) 0/1; bank_valid: (B, U)
    0/1.  Returns (B, T_q, 2H + A) and, when asked, one AttentionTrace
    per batch element.  The node's inputs are hq1, words, w_r, b_r, w_k2
    and b_k2; its backward repeats, step by step, the arithmetic of the
    chain of elementary ops this node replaces.

    Masked slots get exactly zero weight, so at a fixed T_u the contents
    of PAD positions leave the output bit-for-bit unchanged.
    """
    hq1, words = astensor(hq1), astensor(words)
    b_sz, t_q, width = hq1.shape
    n_banks, attn_dim = words.shape[1], p.dim
    inputs = (hq1, words, p.w_r, p.b_r, p.w_k2, p.b_k2)
    h, k, w_r, b_r, w_k2, b_k2 = (t.data for t in inputs)

    with np.errstate(over="ignore", invalid="ignore"):
        query = np.tanh(h @ w_r.T + b_r)                                  # (B, T_q, A)
        q4 = query.reshape(b_sz, 1, t_q, attn_dim)
        weights1, e1, z1 = softmax_parts(q4 @ np.swapaxes(k, -1, -2), axis=-1,
                                         valid=np.asarray(token_mask)[:, :, None, :] > 0)
        attended = weights1 @ k                                           # (B, U, T_q, A)
        summary = np.tanh(attended @ w_k2.T + b_k2)                       # (B, U, T_q, A)
        weights2, e2, z2 = softmax_parts((summary * q4).sum(axis=-1), axis=1,
                                         valid=np.asarray(bank_valid)[:, :, None] > 0)
        weights2_4 = weights2.reshape(b_sz, n_banks, t_q, 1)
        side = (weights2_4 * summary).sum(axis=1)                         # (B, T_q, A)
    out = Tensor(np.concatenate([h, side], axis=-1))

    tape = _tape()
    if tape is not None:
        def backward(g):
            g_h, g_side = np.split(g, [width], axis=-1)
            g_side4 = np.broadcast_to(g_side[:, None], summary.shape)
            g_w2 = _unbroadcast(g_side4 * summary, weights2_4.shape).reshape(weights2.shape)
            g_s2 = np.broadcast_to(softmax_grad(g_w2, e2, z2, axis=1)[..., None],
                                   summary.shape)
            g_q4 = _unbroadcast(g_s2 * summary, q4.shape)
            g_pre2 = (g_side4 * weights2_4 + g_s2 * q4) * (1.0 - summary * summary)
            g_att = g_pre2 @ w_k2
            g_words = np.swapaxes(weights1, -1, -2) @ g_att
            g_s1 = softmax_grad(g_att @ np.swapaxes(k, -1, -2), e1, z1, axis=-1)
            g_q4 = g_q4 + _unbroadcast(g_s1 @ k, q4.shape)
            g_words = g_words + np.swapaxes(np.swapaxes(q4, -1, -2) @ g_s1, -1, -2)
            g_pre1 = g_q4.reshape(query.shape) * (1.0 - query * query)
            g1, g2 = g_pre1.reshape(-1, attn_dim), g_pre2.reshape(-1, attn_dim)
            grads = (g_h + g_pre1 @ w_r, g_words,
                     g1.T @ h.reshape(-1, width), g1.sum(axis=0),
                     g2.T @ attended.reshape(-1, attn_dim), g2.sum(axis=0))
            return tuple(None if t.const else gr for t, gr in zip(inputs, grads))
        tape._nodes.append((out, inputs, backward))

    if not want_trace:
        return out, None
    return out, [AttentionTrace(
        level1_weights=np.swapaxes(weights1[i], 0, 1).copy(),   # (T_q, U, T_u)
        level1_attended=np.swapaxes(attended[i], 0, 1).copy(),  # (T_q, U, A)
        level2_weights=weights2[i].T.copy(),                    # (T_q, U)
        side=side[i].copy(),
    ) for i in range(b_sz)]
