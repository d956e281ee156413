"""Brute-force BM25 bank retrieval, kept in the benchmark as the reference
that ``fnr build-bank`` output is checked against.

It scores every same-category unlabeled pool question with k1=1.2,
b=0.75 and idf floored at 0, ranks by score with ties kept in pool order,
and skips any candidate whose case-folded tokens (EOS removed) equal the
query's.  Terms are summed in query order, repeats included, so equal
inputs give the same floating-point sums and the same ties.
"""

from __future__ import annotations

import math

K1 = 1.2
B = 0.75
EOS = "EOS"


def _terms(tokens) -> list[str]:
    return [t.lower() for t in tokens if t != EOS]


def bank_lines(query, pool, top_k: int) -> list[int]:
    """Pool line numbers of the query record's bank."""
    docs = [_terms(r.question_tokens) for r in pool
            if r.tags is None and r.category == query.category]
    lines = [r.line_no for r in pool if r.tags is None and r.category == query.category]
    if not docs:
        return []
    n = len(docs)
    avgdl = sum(map(len, docs)) / n
    df: dict[str, int] = {}
    for d in docs:
        for term in set(d):
            df[term] = df.get(term, 0) + 1
    q = _terms(query.question_tokens)
    scores = []
    for d in docs:
        norm = K1 * (1.0 - B + B * len(d) / avgdl)
        s = 0.0
        for term in q:
            f = d.count(term)
            if f:
                idf = max(0.0, math.log((n - df[term] + 0.5) / (df[term] + 0.5)))
                s += idf * f * (K1 + 1.0) / (f + norm)
        scores.append(s)
    ranked = sorted(range(n), key=lambda i: (-scores[i], i))
    return [lines[i] for i in ranked if docs[i] != q][:top_k]
