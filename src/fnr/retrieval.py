"""BM25 retrieval of similar unlabeled questions, per product category.

Stands in for a search-engine dependency: banks are built once, offline,
by scoring the labeled question's tokens against every unlabeled question
in the same category (k1=1.2, b=0.75, idf floored at 0) and keeping the
top matches.

Each category is indexed as postings lists in CSR form: for every term,
the ascending indices of the documents holding it and its frequency in
each, plus one array of per-document length norms.  Scoring walks the
query's terms in query order, repeats included, and adds each term's
contribution to the documents of its posting with numpy.  A document
therefore sums its terms in the same order, from the same 0.0 start and
with the same per-term arithmetic as a loop over every document would, so
scores are bit-identical to that loop; documents outside every posting
keep 0.0.  Ranking is a stable argsort of the negated scores, so ties
break on the document order of the pool.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .data import QaRecord
from .vocab import EOS_TOKEN


def _match_tokens(tokens: Iterable[str]) -> list[str]:
    """Case-folded tokens used for scoring; EOS separators do not match."""
    return [t.lower() for t in tokens if t != EOS_TOKEN]


@dataclass
class _CategoryIndex:
    """Postings of one category: term ``terms[t]``'s documents are
    ``post_docs[offsets[t]:offsets[t + 1]]`` (ascending) with frequencies
    ``post_tfs`` at the same positions."""
    docs: list[QaRecord]
    terms: dict[str, int]
    offsets: np.ndarray
    post_docs: np.ndarray
    post_tfs: np.ndarray
    norm: np.ndarray


def _index_category(docs: list[QaRecord], k1: float, b: float) -> _CategoryIndex:
    terms: dict[str, int] = {}
    token_ids: list[int] = []
    lens: list[int] = []
    for rec in docs:
        tokens = _match_tokens(rec.question_tokens)
        token_ids.extend([terms.setdefault(t, len(terms)) for t in tokens])
        lens.append(len(tokens))
    n = len(docs)
    dl = np.asarray(lens, dtype=np.int64)
    # One key per (term, document) occurrence; unique keys sort by term,
    # then document, and their counts are the term frequencies.
    keys = np.asarray(token_ids, dtype=np.int64) * n + np.repeat(np.arange(n), dl)
    keys, tfs = np.unique(keys, return_counts=True)
    offsets = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=len(terms)), out=offsets[1:])
    avgdl = sum(lens) / n
    # Written as the scalar formula k1 * (1 - b + b * dl / avgdl), in the
    # same operation order, so each element is the same double.
    norm = k1 * (1.0 - b + b * dl / avgdl) if avgdl else np.full(n, k1 * (1.0 - b))
    return _CategoryIndex(docs, terms, offsets, keys % n, tfs, norm)


class Bm25Index:
    """Per-category postings lists over an unlabeled question pool."""

    def __init__(self, pool: Sequence[QaRecord], k1: float = 1.2, b: float = 0.75):
        self.k1 = k1
        self.b = b
        by_category: dict[str, list[QaRecord]] = {}
        for rec in pool:
            if not rec.labeled:
                by_category.setdefault(rec.category, []).append(rec)
        self._categories = {cat: _index_category(docs, k1, b)
                            for cat, docs in by_category.items()}

    def pool_size(self, category: str) -> int:
        cat = self._categories.get(category)
        return len(cat.docs) if cat else 0

    def score(self, query_tokens: Sequence[str], category: str) -> list[float]:
        """BM25 score of the query against every pool document of the
        category, in pool order."""
        cat = self._categories.get(category)
        if cat is None:
            return []
        n_docs = len(cat.docs)
        scores = np.zeros(n_docs)
        for term in _match_tokens(query_tokens):
            t = cat.terms.get(term)
            if t is None:
                continue
            lo, hi = cat.offsets[t], cat.offsets[t + 1]
            rows, tf = cat.post_docs[lo:hi], cat.post_tfs[lo:hi]
            df = int(hi - lo)
            idf = max(0.0, math.log((n_docs - df + 0.5) / (df + 0.5)))
            # Rows within one posting are distinct, so += adds once per row.
            scores[rows] += idf * tf * (self.k1 + 1.0) / (tf + cat.norm[rows])
        return scores.tolist()

    def query(self, query_tokens: Sequence[str], category: str, top_k: int) -> list[QaRecord]:
        """Top-k pool questions by score (ties by pool order), excluding any
        candidate whose token sequence equals the query's.  A ``top_k`` of 0
        gives no candidates; a negative one is an error."""
        if top_k < 0:
            raise ValueError(f"top_k must be >= 0, got {top_k}")
        cat = self._categories.get(category)
        if cat is None or top_k == 0:
            return []
        query_norm = _match_tokens(query_tokens)
        scores = np.asarray(self.score(query_tokens, category))
        out = []
        for i in np.argsort(-scores, kind="stable"):
            if _match_tokens(cat.docs[i].question_tokens) == query_norm:
                continue
            out.append(cat.docs[i])
            if len(out) == top_k:
                break
        return out


def build_bank(labeled: QaRecord, index: Bm25Index, u_max: int = 5) -> list[QaRecord]:
    """The up-to-``u_max`` most similar same-category unlabeled questions.
    A pool smaller than ``u_max`` yields all available candidates; an empty
    pool yields an empty bank."""
    return index.query(labeled.question_tokens, labeled.category, u_max)


def save_bank_cache(path, entries: Iterable[tuple[int, list[int]]]) -> None:
    """Bank cache JSON-Lines: {"query_line": int, "bank_lines": [int]},
    line numbers 1-based into the labeled and pool corpora."""
    with open(path, "w", encoding="utf-8") as fh:
        for query_line, bank_lines in entries:
            fh.write(json.dumps({"query_line": query_line,
                                 "bank_lines": list(bank_lines)}) + "\n")


def load_bank_cache(path) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                query_line = int(obj["query_line"])
                bank_lines = [int(v) for v in obj["bank_lines"]]
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
                raise ValueError(f"{path}:{line_no}: malformed bank cache entry") from err
            out[query_line] = bank_lines
    return out
