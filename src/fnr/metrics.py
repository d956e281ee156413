"""Span-level and token-level precision/recall/F1 for the F class.

A predicted span counts as a true positive only when its (start, end)
boundaries exactly match a gold span.  Token-level counts are per-token
over the F class.  Both run over valid positions only, so gold spans past
a question's ``max_len`` cut are not scored; ``truncated_gold_spans``
counts them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .data import F_TAG
from .model import extract_spans


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


@dataclass
class Metrics:
    span_precision: float
    span_recall: float
    span_f1: float
    token_precision: float
    token_recall: float
    token_f1: float
    span_tp: int
    span_fp: int
    span_fn: int
    token_tp: int
    token_fp: int
    token_fn: int

    @classmethod
    def from_counts(cls, span_tp: int, span_fp: int, span_fn: int,
                    token_tp: int, token_fp: int, token_fn: int) -> "Metrics":
        sp, sr, sf = _prf(span_tp, span_fp, span_fn)
        tp_, tr, tf = _prf(token_tp, token_fp, token_fn)
        return cls(sp, sr, sf, tp_, tr, tf,
                   span_tp, span_fp, span_fn, token_tp, token_fp, token_fn)

    def to_dict(self) -> dict:
        return {
            "span": {"precision": self.span_precision, "recall": self.span_recall,
                     "f1": self.span_f1, "tp": self.span_tp, "fp": self.span_fp,
                     "fn": self.span_fn},
            "token": {"precision": self.token_precision, "recall": self.token_recall,
                      "f1": self.token_f1, "tp": self.token_tp, "fp": self.token_fp,
                      "fn": self.token_fn},
        }


def span_boundaries(tags: Sequence[str], tokens: Sequence[str]) -> set[tuple[int, int]]:
    return {(s.start, s.end) for s in extract_spans(list(tags), list(tokens))}


def score_predictions(items: Sequence[tuple[Sequence[str], Sequence[str], Sequence[str]]]) -> Metrics:
    """Aggregate metrics over (predicted_tags, gold_tags, tokens) triples."""
    span_tp = span_fp = span_fn = 0
    token_tp = token_fp = token_fn = 0
    for pred, gold, tokens in items:
        if len(pred) != len(gold) or len(pred) != len(tokens):
            raise ValueError("predicted tags, gold tags and tokens must align")
        pred_spans = span_boundaries(pred, tokens)
        gold_spans = span_boundaries(gold, tokens)
        span_tp += len(pred_spans & gold_spans)
        span_fp += len(pred_spans - gold_spans)
        span_fn += len(gold_spans - pred_spans)
        for p, g in zip(pred, gold):
            if p == F_TAG and g == F_TAG:
                token_tp += 1
            elif p == F_TAG:
                token_fp += 1
            elif g == F_TAG:
                token_fn += 1
    return Metrics.from_counts(span_tp, span_fp, span_fn, token_tp, token_fp, token_fn)


def truncated_gold_spans(records, max_len: int) -> int:
    """Gold F spans of full labeled records that truncation to ``max_len``
    cuts short or drops."""
    return sum(end >= max_len for rec in records
               for _, end in span_boundaries(rec.tags, rec.question_tokens))
