"""Two-level attention of labeled-question tokens over the unlabeled bank.

Level 1: every token of the labeled question attends over the words of
each unlabeled question (dot products of tanh-transformed vectors, masked
softmax, weighted sum of the transformed bank words).  Level 2: the same
token then attends over the per-question summaries, producing its side
vector, which is concatenated onto the token's BLSTM representation.
``bank_attend_batch`` computes both levels for a whole batch of questions
and their padded banks at once.

Scores are plain unscaled dot products.  PAD positions inside bank
questions are excluded from the level-1 softmax; banks that are entirely
PAD (or an empty bank) are excluded at level 2, and a fully empty bank
degrades gracefully to a zero side vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (Tensor, concat, linear, masked_softmax, matmul, mul,
                       reduce_sum, reshape, swap_last, tanh)
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


def transform_query(hq1: Tensor, p: AttentionParams) -> Tensor:
    """tanh(W_r h + b_r) rowwise; works on (T,2H) and batched (...,2H)."""
    return tanh(linear(hq1, p.w_r, p.b_r))


def transform_bank(bank_h: Tensor, p: AttentionParams) -> Tensor:
    """tanh(W_k h + b_k) rowwise over bank word representations."""
    return tanh(linear(bank_h, p.w_k, p.b_k))


def bank_attend_batch(hq1: Tensor, bank_h: Tensor, token_mask: np.ndarray,
                      bank_valid: np.ndarray, p: AttentionParams,
                      want_trace: bool = False,
                      transformed: bool = False) -> tuple[Tensor, list[AttentionTrace] | None]:
    """Batched bank attention.

    hq1: (B, T_q, 2H); bank_h: (B, U, T_u, 2H); token_mask: (B, U, T_u)
    0/1; bank_valid: (B, U) 0/1.  Returns (B, T_q, 2H + A) and, when asked,
    one AttentionTrace per batch element.  With ``transformed`` bank_h
    already holds the words tanh(W_k h + b_k), shape (B, U, T_u, A).

    Masked softmax gives PAD slots exactly zero weight, so at a fixed T_u
    the contents of PAD positions leave the output bit-for-bit unchanged.
    """
    b_sz, t_q, _ = hq1.shape
    n_banks = bank_h.shape[1]
    attn_dim = p.dim

    query = transform_query(hq1, p)                           # (B, T_q, A)
    if n_banks == 0:
        side = Tensor(np.zeros((b_sz, t_q, attn_dim)), const=True)
        hq2 = concat(hq1, side, axis=-1)
        if not want_trace:
            return hq2, None
        empty = [AttentionTrace(np.zeros((t_q, 0, 0)), np.zeros((t_q, 0, attn_dim)),
                                np.zeros((t_q, 0)), side.data[i]) for i in range(b_sz)]
        return hq2, empty

    token_mask = np.asarray(token_mask, dtype=float)
    bank_valid = np.asarray(bank_valid, dtype=float)

    bank_k = bank_h if transformed else transform_bank(bank_h, p)   # (B, U, T_u, A)
    query_4d = reshape(query, (b_sz, 1, t_q, attn_dim))
    scores1 = matmul(query_4d, swap_last(bank_k))             # (B, U, T_q, T_u)
    weights1 = masked_softmax(scores1, token_mask[:, :, None, :], axis=-1)
    attended = matmul(weights1, bank_k)                       # (B, U, T_q, A)

    summary = tanh(linear(attended, p.w_k2, p.b_k2))          # (B, U, T_q, A)
    scores2 = reduce_sum(mul(summary, query_4d), axis=-1)     # (B, U, T_q)
    weights2 = masked_softmax(scores2, bank_valid[:, :, None], axis=1)
    side = reduce_sum(mul(reshape(weights2, (b_sz, n_banks, t_q, 1)), summary),
                      axis=1)                                 # (B, T_q, A)

    hq2 = concat(hq1, side, axis=-1)
    if not want_trace:
        return hq2, None
    traces = []
    for i in range(b_sz):
        traces.append(AttentionTrace(
            level1_weights=np.swapaxes(weights1.data[i], 0, 1).copy(),   # (T_q, U, T_u)
            level1_attended=np.swapaxes(attended.data[i], 0, 1).copy(),  # (T_q, U, A)
            level2_weights=weights2.data[i].T.copy(),                    # (T_q, U)
            side=side.data[i].copy(),
        ))
    return hq2, traces
