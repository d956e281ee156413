"""Seeded generator of synthetic QA crawls for the benchmark.

Everything a workload feeds to ``fnr`` comes from here and depends only on
the seed and the requested sizes.  The generated text has the properties
the program's cost depends on:

- tokens follow a Zipf law over a shared head (``?``, ``it``, ``does`` ...)
  and a per-category tail, so common tokens occur in most pool questions
  and BM25 scores many documents for every query;
- sentence lengths are lognormal, with a tail past the model's 40-token
  limit that preprocessing truncates;
- lengths and shares are drawn stratified, so they differ little from
  seed to seed while token choices differ fully;
- some questions hold two sentences joined by ``EOS``;
- labeled questions carry ``F`` tags on an inserted function phrase (a
  verb and one to three objects drawn from the category's phrase list),
  so the tagger has something to learn;
- a labeled question may come from a category that has no pool at all,
  which gives it an empty bank.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

HEAD = ("?", "it", "does", "this", "the", "with", "can", "i", "is", "a", "to",
        "will", "for", "work", "my", "you", "on", "and", "of", "have", "do",
        "in", "be", "use", "if", "or", "how", "what", "fit", "there")
GLOBAL_WORDS = 1500
CATEGORY_WORDS = 400
CATEGORY_SHARE = 0.3
ZIPF_S = 1.1
FUNCTION_VERBS = 60
FUNCTION_OBJECTS = 240
PHRASES_PER_CATEGORY = 40
PHRASE_SHARE = 0.7
MULTI_SENTENCE_SHARE = 0.25
LENGTH_MEDIAN = 10.0
LENGTH_SIGMA = 0.6
PRODUCTS_PER_CATEGORY = 8
EOS = "EOS"
_NORMAL = NormalDist()


def _stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniforms, one in each of ``n`` equal strata, in random order.
    Shares and length quantiles then barely vary with the seed, so a run's
    cost does not either."""
    return (rng.permutation(n) + rng.random(n)) / n


def _exact_share(rng: np.random.Generator, n: int, share: float) -> np.ndarray:
    return _stratified(rng, n) < share


def _zipf_probs(n: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** ZIPF_S
    return weights / weights.sum()


@dataclass
class Record:
    """One generated question with its F/O tags."""
    category: str
    product_id: str
    tokens: list[str]
    tags: list[str]


class CrawlGenerator:
    """Draws questions for any number of categories from one seed."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.global_words = list(HEAD) + [f"w{k}" for k in range(GLOBAL_WORDS - len(HEAD))]
        self.global_p = _zipf_probs(len(self.global_words))
        self.category_p = _zipf_probs(CATEGORY_WORDS)
        self._phrases: dict[str, list[list[str]]] = {}

    def phrases(self, category: str) -> list[list[str]]:
        if category not in self._phrases:
            rng = self.rng
            out = []
            for _ in range(PHRASES_PER_CATEGORY):
                verb = f"fv{rng.integers(FUNCTION_VERBS)}"
                objs = [f"fo{k}" for k in rng.integers(FUNCTION_OBJECTS, size=rng.integers(1, 4))]
                out.append([verb] + objs)
            self._phrases[category] = out
        return self._phrases[category]

    def questions(self, category: str, n: int) -> list[Record]:
        """``n`` questions of one or two sentences with aligned F/O tags."""
        rng = self.rng
        phrases = self.phrases(category)
        cat_words = np.array([f"{category}_{k}" for k in range(CATEGORY_WORDS)], dtype=object)
        glob_words = np.array(self.global_words, dtype=object)
        n_sent = np.where(_exact_share(rng, n, MULTI_SENTENCE_SHARE), 2, 1)
        total = int(n_sent.sum())
        z = np.array([_NORMAL.inv_cdf(u) for u in _stratified(rng, total)])
        lengths = np.maximum(2, np.rint(LENGTH_MEDIAN * np.exp(LENGTH_SIGMA * z)).astype(int))
        with_phrase = _exact_share(rng, total, PHRASE_SHARE)
        phrase_ids = rng.integers(len(phrases), size=total)
        insert_at = (rng.random(total) * lengths).astype(int)
        words = int(lengths.sum())
        from_cat = rng.random(words) < CATEGORY_SHARE
        glob = rng.choice(len(glob_words), size=words, p=self.global_p)
        cat = rng.choice(CATEGORY_WORDS, size=words, p=self.category_p)
        flat = np.where(from_cat, cat_words[cat], glob_words[glob]).tolist()
        bounds = np.concatenate(([0], np.cumsum(lengths)))

        out = []
        s = 0
        for q in range(n):
            tokens: list[str] = []
            tags: list[str] = []
            for k in range(n_sent[q]):
                if k:
                    tokens.append(EOS)
                    tags.append("O")
                sent = flat[bounds[s]:bounds[s + 1]]
                sent_tags = ["O"] * len(sent)
                if with_phrase[s]:
                    phrase = phrases[phrase_ids[s]]
                    at = insert_at[s]
                    sent[at:at] = phrase
                    sent_tags[at:at] = ["F"] * len(phrase)
                tokens += sent
                tags += sent_tags
                s += 1
            out.append(Record(category, f"{category}-p{q % PRODUCTS_PER_CATEGORY}", tokens, tags))
        return out


def input_properties(records: list[Record], max_len: int) -> dict:
    """Shares that later ratios are taken against: truncated questions and
    multi-sentence questions."""
    n = max(len(records), 1)
    return {
        "truncated_share": sum(len(r.tokens) > max_len for r in records) / n,
        "multi_sentence_share": sum(EOS in r.tokens for r in records) / n,
    }
