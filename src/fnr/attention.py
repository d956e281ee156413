"""Two-level attention of labeled-question tokens over the unlabeled bank.

Level 1: every token of the labeled question attends over the words of
each unlabeled question (dot products of tanh-transformed vectors, masked
softmax, weighted sum of the transformed bank words).  Level 2: the same
token then attends over the per-question summaries, producing its side
vector, which is concatenated onto the token's BLSTM representation.

The bank words come in already transformed: ``transform_bank`` is one
tape node that runs tanh(W_k h + b_k) at the valid bank words only and
leaves padded positions zero; training calls it on the bank BLSTM output
and the eval bank memo on the rows it lacks.  ``bank_attend_batch``
then computes the query transform, both levels and the concat for a whole
batch as one tape node with a hand-written backward.  It works only at
valid query positions, packed along each example's query axis: level 1
runs per example on its valid query rows against its bank cut to its
longest valid bank question, and the summary transform and level 2 run
once on the packed rows of the whole batch.  Padded query rows get an
exactly zero side vector, as BLSTM outputs are zero at padding.

Scores are plain unscaled dot products.  PAD positions inside bank
questions are excluded from the level-1 softmax; banks that are entirely
PAD (or an empty bank) are excluded at level 2, and a fully empty bank
degrades gracefully to a zero side vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, astensor, check_finite, record, softmax_grad, softmax_parts
from .lstm import glorot, prefix_lengths
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
    level2_weights: (T_q, U); side: (T_q, A).  Rows past the question's
    length are zero.
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


def transform_bank(bank_h: Tensor, token_mask: np.ndarray, p: AttentionParams) -> Tensor:
    """tanh(W_k h + b_k) at the valid bank words, as one tape node.

    bank_h: (..., T_u, 2H) bank word representations; token_mask: 0/1 of
    shape (..., T_u).  Returns (..., T_u, A), exactly zero where the mask
    is 0: the projection and the tanh run on the valid words only.  The
    node's inputs are bank_h, w_k and b_k.  Its backward keeps only the
    mask of valid words: it regathers their inputs from bank_h and their
    tanh from the output.
    """
    bank_h = astensor(bank_h)
    if np.shape(token_mask) != bank_h.shape[:-1]:
        raise ValueError(f"token_mask shape {np.shape(token_mask)} != {bank_h.shape[:-1]}")
    valid = np.asarray(token_mask) > 0
    inputs = (bank_h, p.w_k, p.b_k)
    h, w_k, b_k = (t.data for t in inputs)
    h_v = h[valid]                                                        # (N, 2H)
    with np.errstate(over="ignore", invalid="ignore"):
        pre = h_v @ w_k.T + b_k
    check_finite(pre, "bank transform pre-activation")
    words = np.tanh(pre)                                                  # (N, A)
    out_data = np.zeros(valid.shape + (p.dim,), dtype=words.dtype)
    out_data[valid] = words

    def backward(g):
        words = out_data[valid]
        g_pre = g[valid] * (1.0 - words * words)
        g_h = np.zeros_like(h)
        g_h[valid] = g_pre @ w_k
        return g_h, g_pre.T @ h[valid], g_pre.sum(axis=0)
    return record(Tensor(out_data), inputs, backward)


def bank_attend_batch(hq1: Tensor, query_mask: np.ndarray, words: Tensor,
                      token_mask: np.ndarray, p: AttentionParams,
                      want_trace: bool = False) -> tuple[Tensor, list[AttentionTrace] | None]:
    """Both attention levels and the final concat, as one tape node.

    hq1: (B, T_q, 2H); query_mask: (B, T_q) 0/1; words: (B, U, T_u, A),
    bank words already through ``transform_bank``; token_mask: (B, U, T_u)
    0/1.  Both masks must be prefixes of ones; a bank slot takes part in
    level 2 exactly when it holds a valid word.
    Returns (B, T_q, 2H + A) and, when asked, one AttentionTrace per batch
    element.  The node's inputs are hq1, words, w_r, b_r, w_k2 and b_k2.

    Only the N valid query rows are computed, packed along the query axis
    in batch order: the query transform, the summary transform and level 2
    run on (N, A) / (U, N, A) arrays, and level 1 runs per example on its
    (U, n, t) scores, t being its longest valid bank question.  Padded
    query rows get an exactly zero side vector and zero trace rows, so
    the contents of hq1 there reach only the passed-through 2H columns.
    Masked bank slots get exactly zero weight, so PAD positions of bank
    questions leave the output bit-for-bit unchanged.  The backward keeps
    the query transform, the level-1 and level-2 softmax parts, the
    attended and summary arrays; it regathers the valid query rows of
    hq1 rather than keeping them.
    """
    hq1, words = astensor(hq1), astensor(words)
    b_sz, t_q, width = hq1.shape
    n_banks, t_u, attn_dim = words.shape[1], words.shape[2], p.dim
    q_len = prefix_lengths(query_mask, hq1.shape[:2], "query_mask")
    bank_len = prefix_lengths(token_mask, words.shape[:3], "token_mask")
    token_mask = np.asarray(token_mask)
    inputs = (hq1, words, p.w_r, p.b_r, p.w_k2, p.b_k2)
    h, k, w_r, b_r, w_k2, b_k2 = (t.data for t in inputs)
    at_query = np.arange(t_q) < q_len[:, None]                           # (B, T_q)
    ends = np.cumsum(q_len)
    t_bank = bank_len.max(axis=1, initial=0)  # each example's longest valid bank question
    # (example, its packed rows, t_bank); examples without query rows or
    # bank words keep zero level-1 weights.
    spans = [(i, slice(ends[i] - q_len[i], ends[i]), int(t_bank[i]))
             for i in range(b_sz) if q_len[i] and t_bank[i]]

    with np.errstate(over="ignore", invalid="ignore"):
        h_p = h[at_query]                                                 # (N, 2H)
        query = np.tanh(h_p @ w_r.T + b_r)                                # (N, A)
        attended = np.zeros((n_banks, len(query), attn_dim), dtype=query.dtype)
        level1 = []
        for i, rows, t_b in spans:
            k_i = k[i, :, :t_b]                                           # (U, t, A)
            parts = softmax_parts(query[rows] @ np.swapaxes(k_i, -1, -2), axis=-1,
                                  valid=token_mask[i, :, None, :t_b] > 0)
            attended[:, rows] = parts[0] @ k_i                            # (U, n, A)
            level1.append(parts)
        summary = np.tanh((attended.reshape(-1, attn_dim) @ w_k2.T + b_k2)
                          .reshape(attended.shape))                       # (U, N, A)
        row_valid = (bank_len > 0)[np.repeat(np.arange(b_sz), q_len)].T
        weights2, e2, z2 = softmax_parts((summary * query).sum(axis=-1), axis=0,
                                         valid=row_valid)                 # (U, N)
        side = (weights2[..., None] * summary).sum(axis=0)                # (N, A)
    side_full = np.zeros((b_sz, t_q, attn_dim), dtype=side.dtype)
    side_full[at_query] = side

    def backward(g):
        g_side = g[..., width:][at_query]
        g_w2 = (g_side * summary).sum(axis=-1)
        g_s2 = softmax_grad(g_w2, e2, z2, axis=0)[..., None]
        g_query = (g_s2 * summary).sum(axis=0)
        g_pre2 = (g_side * weights2[..., None] + g_s2 * query) * (1.0 - summary * summary)
        g2 = g_pre2.reshape(-1, attn_dim)
        g_att = (g2 @ w_k2).reshape(g_pre2.shape)
        g_words = np.zeros_like(k)
        for (i, rows, t_b), (weights1, e1, z1) in zip(spans, level1):
            k_i, g_att_i = k[i, :, :t_b], g_att[:, rows]
            g_s1 = softmax_grad(g_att_i @ np.swapaxes(k_i, -1, -2), e1, z1, axis=-1)
            g_query[rows] += (g_s1 @ k_i).sum(axis=0)
            g_words[i, :, :t_b] = (np.swapaxes(weights1, -1, -2) @ g_att_i
                                   + np.swapaxes(query[rows].T @ g_s1, -1, -2))
        g_pre1 = g_query * (1.0 - query * query)
        g_hq1 = g[..., :width].copy()
        g_hq1[at_query] += g_pre1 @ w_r
        return (g_hq1, g_words, g_pre1.T @ h[at_query], g_pre1.sum(axis=0),
                g2.T @ attended.reshape(-1, attn_dim), g2.sum(axis=0))
    out = record(Tensor(np.concatenate([h, side_full], axis=-1)), inputs, backward)

    if not want_trace:
        return out, None
    level1_weights = np.zeros((b_sz, t_q, n_banks, t_u), dtype=side.dtype)
    for (i, rows, t_b), (weights1, _, _) in zip(spans, level1):
        level1_weights[i, :q_len[i], :, :t_b] = np.swapaxes(weights1, 0, 1)
    level1_attended = np.zeros((b_sz, t_q, n_banks, attn_dim), dtype=side.dtype)
    level1_attended[at_query] = np.swapaxes(attended, 0, 1)
    level2_weights = np.zeros((b_sz, t_q, n_banks), dtype=side.dtype)
    level2_weights[at_query] = weights2.T
    return out, [AttentionTrace(level1_weights[i], level1_attended[i], level2_weights[i],
                                side_full[i]) for i in range(b_sz)]
