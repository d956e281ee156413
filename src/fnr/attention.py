"""Two-level attention of labeled-question tokens over the unlabeled bank.

Level 1: every token of the labeled question attends over the words of
each unlabeled question (dot products of tanh-transformed vectors, masked
softmax, weighted sum of the transformed bank words).  Level 2: the same
token then attends over the per-question summaries, producing its side
vector, which is concatenated onto the token's BLSTM representation.

Both levels read packed rows: one per valid query token and one per
valid bank word, each in the row-major order that ``a[mask > 0]`` gives
for its mask.  ``transform_bank`` is one tape node that runs
tanh(W_k h + b_k) on bank word rows; training calls it on the bank
BLSTM's rows and the eval bank memo on the rows it lacks.  ``bank_attend_batch`` then computes
the query transform, both levels and the concat for a whole batch as one
tape node with a hand-written backward, returning each query row with its
side vector.  Level 1 runs per example on its query rows against the
(U, t, A) block of its bank words, t being its longest valid bank
question, built from the packed words (zero at PAD); the summary
transform and level 2 run once on the query rows of the whole batch.
Traces alone come out padded, zero at padded query positions.  The taped
node keeps no (U, N, A) array: its backward rebuilds them with the
forward's own expressions, so its gradients are the same bits.

Scores are plain unscaled dot products.  PAD positions inside bank
questions are excluded from the level-1 softmax; banks that are entirely
PAD (or an empty bank) are excluded at level 2, and a fully empty bank
degrades gracefully to a zero side vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, check_finite, record, softmax, softmax_grad
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


def transform_bank(bank_h: Tensor, p: AttentionParams) -> Tensor:
    """tanh(W_k h + b_k) on bank word rows, as one tape node.

    bank_h: (n, 2H), one row per valid bank word; returns (n, A).  The
    node's inputs are bank_h, w_k and b_k.  Its backward reads the tanh
    from the output.
    """
    if bank_h.ndim != 2:
        raise ValueError(f"bank_h shape {bank_h.shape}: expected one row per bank word")
    inputs = (bank_h, p.w_k, p.b_k)
    h, w_k, b_k = (t.data for t in inputs)
    with np.errstate(over="ignore", invalid="ignore"):
        pre = h @ w_k.T + b_k
    check_finite(pre, "bank transform pre-activation")
    words = np.tanh(pre)

    def backward(g):
        g_pre = g * (1.0 - words * words)
        return g_pre @ w_k, g_pre.T @ h, g_pre.sum(axis=0)
    return record(Tensor(words), inputs, backward)


def _bank_block(rows: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """One example's (U, t, ·) block of bank word rows: ``rows`` at the
    valid positions of ``valid`` (U, t), row-major, zero elsewhere."""
    block = np.zeros(valid.shape + rows.shape[1:], dtype=rows.dtype)
    block[valid] = rows
    return block


def bank_attend_batch(hq1: Tensor, query_mask: np.ndarray, words: Tensor,
                      token_mask: np.ndarray, p: AttentionParams,
                      want_trace: bool = False) -> tuple[Tensor, list[AttentionTrace] | None]:
    """Both attention levels and the final concat, as one tape node.

    query_mask: (B, T_q) 0/1; hq1: (N, 2H), one row per valid query
    token; token_mask: (B, U, T_u) 0/1; words: (M, A), one row per valid
    bank word, already through ``transform_bank``.  Rows follow the
    row-major order of their mask's valid positions (``a[mask > 0]``).
    Both masks must be prefixes of ones; a bank slot takes part in level 2
    exactly when it holds a valid word.  Returns (N, 2H + A), each query
    row with its side vector, and, when asked, one AttentionTrace per
    batch element.  The node's inputs are hq1, words, w_r, b_r, w_k2 and
    b_k2.

    The query transform, the summary transform and level 2 run on (N, A)
    / (U, N, A) arrays; level 1 runs per example on its (U, n, t) scores,
    t being its longest valid bank question, against the (U, t, A) block
    of its bank words, zero at PAD.  Masked bank slots get exactly zero
    weight, so PAD positions of bank questions leave the output
    bit-for-bit unchanged.  The backward keeps the query transform, each
    example's level-1 weights and the level-2 weights.  It rebuilds each
    example's bank block from ``words``, and the attended and summary
    arrays from those, twice for attended: no more than three (U, N, A)
    arrays are alive at once.
    """
    query_mask, token_mask = np.asarray(query_mask), np.asarray(token_mask)
    b_sz, t_q = query_mask.shape
    n_banks, t_u = token_mask.shape[1:]
    attn_dim = p.dim
    q_len = prefix_lengths(query_mask, query_mask.shape, "query_mask")
    if hq1.ndim != 2 or hq1.shape[0] != q_len.sum():
        raise ValueError(f"query_mask shape {query_mask.shape} holds {q_len.sum()} valid "
                         f"positions; hq1 {hq1.shape} needs one row for each")
    bank_len = prefix_lengths(token_mask, (b_sz, n_banks, t_u), "token_mask")
    if words.shape != (bank_len.sum(), attn_dim):
        raise ValueError(f"token_mask shape {token_mask.shape} holds {bank_len.sum()} valid "
                         f"positions; words {words.shape} needs one (A,) row for each")
    inputs = (hq1, words, p.w_r, p.b_r, p.w_k2, p.b_k2)
    h, k, w_r, b_r, w_k2, b_k2 = (t.data for t in inputs)
    width = h.shape[1]
    ends = np.cumsum(q_len)
    word_ends = np.cumsum(bank_len.sum(axis=1))
    t_bank = bank_len.max(axis=1, initial=0)  # each example's longest valid bank question
    # (its query rows, its bank word rows, the valid positions of its bank
    # block) per example; examples without query rows or bank words keep
    # zero level-1 weights.
    spans = [(i, slice(ends[i] - q_len[i], ends[i]),
              slice(word_ends[i] - bank_len[i].sum(), word_ends[i]),
              token_mask[i, :, :t_bank[i]] > 0)
             for i in range(b_sz) if q_len[i] and t_bank[i]]

    def summarize(attended):
        pre = attended.reshape(-1, attn_dim) @ w_k2.T
        pre += b_k2
        return np.tanh(pre, out=pre).reshape(attended.shape)

    with np.errstate(over="ignore", invalid="ignore"):
        query = np.tanh(h @ w_r.T + b_r)                                  # (N, A)
        attended = np.zeros((n_banks, len(query), attn_dim), dtype=query.dtype)
        level1 = []   # each example's level-1 weights
        for i, rows, bank_rows, valid in spans:
            k_i = _bank_block(k[bank_rows], valid)                        # (U, t, A)
            level1.append(softmax(query[rows] @ np.swapaxes(k_i, -1, -2),
                                  axis=-1, valid=valid[:, None, :]))      # (U, n, t)
            attended[:, rows] = level1[-1] @ k_i                          # (U, n, A)
        summary = summarize(attended)                                     # (U, N, A)
        row_valid = (bank_len > 0)[np.repeat(np.arange(b_sz), q_len)].T
        weights2 = softmax((summary * query).sum(axis=-1), axis=0, valid=row_valid)  # (U, N)
        side = (weights2[..., None] * summary).sum(axis=0)                # (N, A)

    def rebuild_attended():
        # The forward's attended, rebuilt from the level-1 weights.
        attended = np.zeros((n_banks, len(query), attn_dim), dtype=query.dtype)
        for (_, rows, bank_rows, valid), weights1 in zip(spans, level1):
            attended[:, rows] = weights1 @ _bank_block(k[bank_rows], valid)
        return attended

    def backward(g):
        g_side = g[:, width:]
        summary = summarize(rebuild_attended())
        buf = g_side * summary
        g_s2 = softmax_grad(buf.sum(axis=-1), weights2, axis=0)[..., None]
        g_query = np.multiply(g_s2, summary, out=buf).sum(axis=0)
        np.multiply(g_side, weights2[..., None], out=buf)
        buf += g_s2 * query
        np.multiply(summary, summary, out=summary)
        buf *= np.subtract(1.0, summary, out=summary)
        summary = None
        g2 = buf.reshape(-1, attn_dim)                                    # g_pre2
        # Rebuilt a second time: held across the g_pre2 chain, attended
        # would be a fourth (U, N, A) array at the node's peak.
        d_w_k2 = g2.T @ rebuild_attended().reshape(-1, attn_dim)
        d_b_k2 = g2.sum(axis=0)
        g_att = (g2 @ w_k2).reshape(buf.shape)
        buf = g2 = None
        g_words = np.zeros_like(k)
        for (i, rows, bank_rows, valid), weights1 in zip(spans, level1):
            k_i, g_att_i = _bank_block(k[bank_rows], valid), g_att[:, rows]
            g_s1 = softmax_grad(g_att_i @ np.swapaxes(k_i, -1, -2), weights1, axis=-1)
            g_query[rows] += (g_s1 @ k_i).sum(axis=0)
            g_words[bank_rows] = (np.swapaxes(weights1, -1, -2) @ g_att_i
                                  + np.swapaxes(query[rows].T @ g_s1, -1, -2))[valid]
        g_att = g_att_i = None
        g_pre1 = g_query * (1.0 - query * query)
        g_hq1 = g[:, :width] + g_pre1 @ w_r
        return g_hq1, g_words, g_pre1.T @ h, g_pre1.sum(axis=0), d_w_k2, d_b_k2
    out = record(Tensor(np.concatenate([h, side], axis=-1)), inputs, backward)

    if not want_trace:
        return out, None
    at_query = np.arange(t_q) < q_len[:, None]                           # (B, T_q)
    level1_weights = np.zeros((b_sz, t_q, n_banks, t_u), dtype=side.dtype)
    for (i, _, _, valid), weights1 in zip(spans, level1):
        level1_weights[i, :q_len[i], :, :valid.shape[1]] = np.swapaxes(weights1, 0, 1)
    level1_attended = np.zeros((b_sz, t_q, n_banks, attn_dim), dtype=side.dtype)
    level1_attended[at_query] = np.swapaxes(attended, 0, 1)
    level2_weights = np.zeros((b_sz, t_q, n_banks), dtype=side.dtype)
    level2_weights[at_query] = weights2.T
    side_full = np.zeros((b_sz, t_q, attn_dim), dtype=side.dtype)
    side_full[at_query] = side
    return out, [AttentionTrace(level1_weights[i], level1_attended[i], level2_weights[i],
                                side_full[i]) for i in range(b_sz)]
