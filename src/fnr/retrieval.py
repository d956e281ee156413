"""BM25 retrieval of similar unlabeled questions, per product category.

Stands in for a search-engine dependency: banks are built once, offline,
by scoring the labeled question's tokens against every unlabeled question
in the same category (idf floored at 0) and keeping the top matches.
``K1`` and ``B`` are the usual BM25 settings given by Robertson & Zaragoza
2009, *The Probabilistic Relevance Framework: BM25 and Beyond*.

Each category is indexed as postings lists in CSR form: for every term,
the ascending indices of the documents holding it and, at the same
positions, the term's precomputed BM25 contribution to each (its
impact), plus one array of per-document match lengths (tokens other than
EOS).  The index is built per distinct raw token, not per token: every
token is mapped to the number of its raw spelling in one pass, each
distinct spelling is lowercased and checked against EOS once, and one
gather turns the raw numbers into term numbers.  A category of ~360k
tokens has only a few thousand distinct spellings, so lowering and the
EOS test run a few thousand times instead of once per token.  The
(term, document) pairs and their counts come from ``np.unique`` over one
integer key per pair.

Impacts are exact.  Each term's floored idf is computed by the scalar
``math.log`` expression from its document frequency, once per distinct
frequency; each posting's impact is then ``idf * tf * (K1 + 1) / (tf + norm)`` with
``norm = K1 * (1 - B + B * dl / avgdl)``, elementwise in that operation
order, so every element is the double that evaluating the formula for
that (term, document) pair at query time would give.  Scoring walks the
query's terms in query order, repeats included, and adds each term's
impacts to the documents of its posting with one indexed add.  A
document therefore sums the same terms in the same order from the same
0.0 start as a loop over every document would, so scores are
bit-identical to that loop; documents outside every posting keep 0.0.
A term whose floored idf is 0.0 (one held by at least half the
documents) is skipped, exactly: with K1 > 0 and 0 <= B <= 1 each of its
impacts is 0.0 * tf * (K1 + 1) / (tf + norm) = +0.0, and x + 0.0 == x
bit for bit for every score x, since a score starts at +0.0 and a sum of
non-negative terms is never -0.0.  Its first impact tells it apart: a
positive idf gives every impact of the term a positive value.  On a
crawl such common terms hold most of the posting entries a query
touches.

A bank is the first ``top_k`` documents of the stable descending order of
the scores (ties in pool order) that are not identical to the query: the
same case-folded tokens, EOS separators left out.  The
ranking never sorts the whole category.  ``np.partition`` finds the m-th
largest score, m = top_k + 1, in linear time; the m-prefix of the stable
order is every score above it plus the earliest of the scores equal to
it, and a stable sort of just those m indices gives the same order as the
full stable sort.  If the identity rule leaves fewer than ``top_k`` of the
m, m doubles (up to the category size) and the selection repeats, so the
result always equals the prefix of the full order.  Only a candidate
whose match length equals the query's can be identical to it, so only
those have their tokens case-folded and compared.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count
from typing import Iterable, Sequence

import numpy as np

from .data import QaRecord
from .vocab import EOS_TOKEN, normalize

K1, B = 1.2, 0.75


def _match_tokens(tokens: Iterable[str]) -> list[str]:
    """Case-folded tokens used for scoring; EOS separators do not match."""
    return [normalize(t) for t in tokens if t != EOS_TOKEN]


@dataclass
class _CategoryIndex:
    """Postings of one category: term ``terms[t]``'s documents are
    ``post_docs[offsets[t]:offsets[t + 1]]`` (ascending) with its BM25
    contributions ``impact`` at the same positions; ``dl[i]`` is document
    i's match length."""
    docs: list[QaRecord]
    terms: dict[str, int]
    offsets: np.ndarray
    post_docs: np.ndarray
    impact: np.ndarray
    dl: np.ndarray


def _index_category(docs: list[QaRecord]) -> _CategoryIndex:
    n = len(docs)
    lens = np.fromiter(map(len, (rec.question_tokens for rec in docs)),
                       dtype=np.int64, count=n)
    # Raw spellings are numbered in first-seen order as the tokens are
    # mapped, so terms, numbered in the order of their first spelling, are
    # in their own first-seen order.  EOS maps to -1 and is dropped.
    raw_ids: defaultdict[str, int] = defaultdict(count().__next__)
    token_raw = np.fromiter(
        map(raw_ids.__getitem__, chain.from_iterable(rec.question_tokens for rec in docs)),
        dtype=np.int64, count=int(lens.sum()))
    terms: dict[str, int] = {}
    raw_term = np.fromiter(
        (-1 if raw == EOS_TOKEN else terms.setdefault(normalize(raw), len(terms))
         for raw in raw_ids), dtype=np.int64, count=len(raw_ids))
    keys = np.take(raw_term, token_raw)
    del token_raw
    doc = np.repeat(np.arange(n), lens)
    kept = keys >= 0
    keys, doc = keys[kept], doc[kept]
    dl = np.bincount(doc, minlength=n)
    # One key per (term, document) occurrence; unique keys sort by term,
    # then document, and their counts are the term frequencies.
    keys *= n
    keys += doc
    keys, tfs = np.unique(keys, return_counts=True)
    offsets = np.searchsorted(keys, np.arange(len(terms) + 1) * n)
    post_docs = keys % n
    del keys
    dfs = np.diff(offsets)
    # Terms share a few hundred distinct document frequencies, so the idf
    # is computed once per frequency and gathered per term.
    df_values, df_of_term = np.unique(dfs, return_inverse=True)
    idf = np.array([max(0.0, math.log((n - df + 0.5) / (df + 0.5)))
                    for df in df_values.tolist()])[df_of_term]
    avgdl = int(dl.sum()) / n
    # Written as the scalar formulas, in the same operation order, so each
    # element is the same double.  Without a token to match there is no
    # posting and the norm is never read.
    norm = K1 * (1.0 - B + B * dl / avgdl) if avgdl else np.zeros(n)
    impact = np.repeat(idf, dfs) * tfs * (K1 + 1.0) / (tfs + norm[post_docs])
    return _CategoryIndex(docs, terms, offsets, post_docs, impact, dl)


def _ranked_prefix(scores: np.ndarray, m: int) -> np.ndarray:
    """The first ``m`` (1 <= m <= len) indices of the stable descending
    order of ``scores``; fewer than m scores lie above the m-th largest."""
    n = len(scores)
    kth = np.partition(scores, n - m)[n - m]
    above = np.flatnonzero(scores > kth)
    tied = np.flatnonzero(scores == kth)[: m - len(above)]
    prefix = np.concatenate([above, tied])
    return prefix[np.argsort(-scores[prefix], kind="stable")]


class Bm25Index:
    """Per-category postings lists over an unlabeled question pool."""

    def __init__(self, pool: Sequence[QaRecord]):
        by_category: dict[str, list[QaRecord]] = {}
        for rec in pool:
            if not rec.labeled:
                by_category.setdefault(rec.category, []).append(rec)
        self._categories = {cat: _index_category(docs) for cat, docs in by_category.items()}

    def score(self, query_tokens: Sequence[str], category: str) -> np.ndarray:
        """BM25 score of the query against every pool document of the
        category, in pool order: a float64 array, empty for an unknown category."""
        cat = self._categories.get(category)
        if cat is None:
            return np.zeros(0)
        scores = np.zeros(len(cat.docs))
        for term in _match_tokens(query_tokens):
            t = cat.terms.get(term)
            if t is None:
                continue
            lo, hi = cat.offsets[t], cat.offsets[t + 1]
            if cat.impact[lo] == 0.0:   # idf 0: every impact is +0.0
                continue
            # Rows within one posting are distinct, so += adds once per row.
            scores[cat.post_docs[lo:hi]] += cat.impact[lo:hi]
        return scores

    def query(self, query_tokens: Sequence[str], category: str, top_k: int) -> list[QaRecord]:
        """Top-k pool questions by score (ties by pool order), excluding any
        candidate whose token sequence equals the query's.  A ``top_k`` of 0
        gives no candidates; a negative one is an error."""
        if top_k < 0:
            raise ValueError(f"top_k must be >= 0, got {top_k}")
        cat = self._categories.get(category)
        if cat is None or top_k == 0:
            return []
        terms = _match_tokens(query_tokens)
        scores = self.score(terms, category)   # folding is idempotent
        m = min(top_k + 1, len(scores))
        while True:
            out = []
            for i in _ranked_prefix(scores, m):
                doc = cat.docs[i]
                if cat.dl[i] == len(terms) and _match_tokens(doc.question_tokens) == terms:
                    continue
                out.append(doc)
                if len(out) == top_k:
                    return out
            if m == len(scores):
                return out
            m = min(2 * m, len(scores))


def build_bank(labeled: QaRecord, index: Bm25Index, u_max: int) -> list[QaRecord]:
    """The up-to-``u_max`` most similar same-category unlabeled questions.
    A pool smaller than ``u_max`` yields all available candidates; an empty
    pool yields an empty bank."""
    return index.query(labeled.question_tokens, labeled.category, u_max)


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def save_bank_cache(path, entries: Iterable[tuple[int, list[int]]],
                    digests: dict[str, str] | None = None) -> None:
    """Bank cache JSON-Lines: {"query_line": int, "bank_lines": [int]},
    line numbers 1-based into the labeled and pool corpora.  ``digests``
    maps a role ("labeled", "pool") to the ``file_sha256`` of the corpus
    file the line numbers index, taken before that file was read; it goes
    first, as {"sha256": {role: hex}}."""
    with open(path, "w", encoding="utf-8") as fh:
        if digests is not None:
            fh.write(json.dumps({"sha256": digests}) + "\n")
        for query_line, bank_lines in entries:
            fh.write(json.dumps({"query_line": query_line,
                                 "bank_lines": list(bank_lines)}) + "\n")


def _line_number(value, where: str, key: str) -> int:
    if type(value) is not int or value < 1:
        raise ValueError(f"{where}: {key} must be an integer >= 1, got {value!r}")
    return value


def load_bank_cache(path, sources: dict[str, str] | None = None) -> dict[int, list[int]]:
    """Bank lines per query line.  Line numbers must be JSON integers >= 1
    and each query line may appear once.  With ``sources``, a role ->
    corpus file mapping, the cache must carry the digest header and every
    source file must still hash as recorded."""
    header = None
    out: dict[int, list[int]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            where = f"{path}:{line_no}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(f"{where}: malformed bank cache entry ({err.msg})") from err
            if header is None and not out and isinstance(obj, dict) and "sha256" in obj:
                header = obj["sha256"]
                if not (isinstance(header, dict)
                        and all(isinstance(v, str) for v in header.values())):
                    raise ValueError(f"{where}: malformed bank cache header")
                continue
            if (not isinstance(obj, dict) or "query_line" not in obj
                    or not isinstance(obj.get("bank_lines"), list)):
                raise ValueError(f"{where}: malformed bank cache entry")
            query_line = _line_number(obj["query_line"], where, "query_line")
            if query_line in out:
                raise ValueError(f"{where}: repeated query_line {query_line}")
            out[query_line] = [_line_number(v, where, "bank_lines entry")
                               for v in obj["bank_lines"]]
    if sources is not None:
        if header is None:
            raise ValueError(f"{path}: bank cache has no sha256 header; "
                             "rebuild it with fnr build-bank")
        for role, source in sources.items():
            if header.get(role) != file_sha256(source):
                raise ValueError(f"{path}: {role} corpus {source} changed since the "
                                 "bank cache was built; rebuild it with fnr build-bank")
    return out
