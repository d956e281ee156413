"""Corpus I/O, example assembly into fixed-length id rows, batching,
dataset splitting, and per-product statistics.

The corpus is JSON-Lines, one QA record per line:

    {"product_id": "p1", "category": "laptop",
     "question_tokens": ["Works", "with", "iphone", "?"],
     "answer_text": "yes it does",            # optional, never consumed
     "tags": ["F", "F", "F", "O"]}            # optional; absent = unlabeled

Questions are padded/truncated to a fixed length (``MAX_LEN`` by
default) with suffix-only padding; multi-sentence questions carry an EOS
token between sentences, and EOS is always tagged O.
"""

from __future__ import annotations

import gc
import json
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .vocab import EOS_TOKEN, PAD_ID, Vocabulary

log = logging.getLogger(__name__)

LABELS = ("F", "O")
F_TAG = LABELS[0]
F_INDEX, O_INDEX = 0, 1
MAX_LEN, BANK_SIZE = 40, 5   # default shapes, SanConfig's included


# The scanner ``json.loads`` runs, built once as json's own
# ``_default_decoder`` is, and the whitespace its decoder skips.
_scan_once = json.JSONDecoder().scan_once
_JSON_WHITESPACE = " \t\n\r"


class CorpusError(ValueError):
    """Malformed corpus content; messages carry the offending line number."""


@dataclass(slots=True)
class QaRecord:
    """One QA pair.  ``tags`` aligned to ``question_tokens`` marks a labeled
    record; ``answer_text`` is stored but never consumed by the model.

    The class is slotted, and a crawl of ~1M questions is held as these
    records.  ``load_corpus`` fills ``question_tokens``, ``product_id`` and
    ``category`` from its string table, so equal strings of one load are
    one object; ``tags`` is the list the JSON decoder returned."""
    product_id: str
    category: str
    question_tokens: list[str]
    answer_text: str | None = None
    tags: list[str] | None = None
    line_no: int | None = None

    @property
    def labeled(self) -> bool:
        return self.tags is not None

    def to_dict(self) -> dict:
        out = {"product_id": self.product_id, "category": self.category,
               "question_tokens": self.question_tokens}
        if self.answer_text is not None:
            out["answer_text"] = self.answer_text
        if self.tags is not None:
            out["tags"] = self.tags
        return out


class _StringTable(dict):
    """Each distinct string mapped to the first object seen with its value.
    Looking up a string not yet held stores and returns it; looking up
    anything but an exact ``str`` raises ``TypeError``, so one pass both
    checks and shares a token list."""
    __slots__ = ()

    def __missing__(self, key):
        if type(key) is not str:
            raise TypeError(f"not a string: {key!r}")
        self[key] = key
        return key


def _parse_record(obj: dict, line_no: int, table: _StringTable) -> QaRecord:
    """Check one decoded line and share its strings through ``table``.  The
    checks run at C level where they can, and a message is formatted only
    when one fails."""
    if not isinstance(obj, dict):
        raise CorpusError(f"line {line_no}: record must be a JSON object")
    for key in ("product_id", "category"):
        if not isinstance(obj.get(key), str):
            raise CorpusError(f"line {line_no}: missing or non-string {key!r}")
    tokens = obj.get("question_tokens")
    try:
        tokens = list(map(table.__getitem__, tokens)) if isinstance(tokens, list) else None
    except TypeError:   # a token that is not a string, unhashable ones included
        tokens = None
    if not tokens:
        raise CorpusError(
            f"line {line_no}: question_tokens must be a non-empty list of strings")
    answer = obj.get("answer_text")
    if answer is not None and not isinstance(answer, str):
        raise CorpusError(f"line {line_no}: answer_text must be a string")
    tags = obj.get("tags")
    if tags is not None:
        if not isinstance(tags, list) or len(tags) != len(tokens):
            raise CorpusError(
                f"line {line_no}: tags length {len(tags) if isinstance(tags, list) else '?'} "
                f"does not match {len(tokens)} question tokens")
        if not all(map(LABELS.__contains__, tags)):
            bad = next(t for t in tags if t not in LABELS)
            raise CorpusError(f"line {line_no}: unknown tag symbol {bad!r}")
    return QaRecord(table[obj["product_id"]], table[obj["category"]], tokens, answer, tags,
                    line_no)


def load_corpus(path) -> list[QaRecord]:
    """Read and validate a JSON-Lines corpus; every error names its line.

    Each call keeps one string table (``_StringTable``, local to the call,
    so concurrent loads share nothing).  Every token, product id and
    category of the returned records is the table's object for its value,
    and the decoded copies are dropped line by line: in a generated
    40k-question pool, 634k token objects become 2.5k.  Answers
    (near-unique) and tags (one-character strings CPython already
    shares) are kept as decoded.

    The cyclic garbage collector is paused while the file is read.  Each
    kept record adds two tracked containers (the record and its token
    list), so with the collector on a 40k-line pool triggers about a
    hundred young-generation scans and can trigger a full collection over
    every live object: up to a third of the load time.  The pause is safe: records form no
    reference cycles, and every other object made here (the decoded dicts)
    is freed by reference counting, so nothing collectable is kept alive.
    The pause only defers the young-generation scan of the new records
    (about 40 ms per 40k records) to the next allocating call.  The
    collector is re-enabled on every exit, errors included, only if it was
    enabled on entry: overlapping loads in several threads can lose the
    speed-up but never leave it off.

    Each line is decoded by one call of the C scanner that ``json.loads``
    itself calls, which saves its Python wrapper (about 30 ms per 40k
    lines).  The scanner's value is taken only when it starts at column 0
    and the rest of the line is JSON whitespace (``" \\t\\n\\r"``).  For
    those lines ``json.loads`` returns the same object: it runs the same
    scan from column 0 and then skips the same whitespace.  Every other line
    (leading whitespace, a BOM, extra data, any scanner error) is decoded
    again by ``json.loads``, so the accepted values and every error
    message are those of ``json.loads``."""
    records = []
    table = _StringTable()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if line.isspace():
                    continue
                try:
                    obj, end = _scan_once(line, 0)
                    exact = not line[end:].strip(_JSON_WHITESPACE)
                except (StopIteration, ValueError):   # JSONDecodeError is a ValueError
                    exact = False
                if not exact:
                    try:
                        obj = json.loads(line)
                    except json.JSONDecodeError as err:
                        raise CorpusError(f"line {line_no}: invalid JSON ({err.msg})") from err
                records.append(_parse_record(obj, line_no, table))
    finally:
        if was_enabled:
            gc.enable()
    return records


def save_corpus(path, records: Iterable[QaRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")


@dataclass
class Example:
    """A labeled question paired with its (possibly empty) question bank,
    already padded to the model's fixed shapes."""
    record: QaRecord
    bank: list[QaRecord]
    ids: np.ndarray            # (T,)
    mask: np.ndarray           # (T,)
    tag_ids: np.ndarray | None  # (T,)
    bank_ids: np.ndarray       # (U, T)
    bank_mask: np.ndarray      # (U, T)

    @property
    def length(self) -> int:
        return int(self.mask.sum())

    @property
    def tokens(self) -> list[str]:
        return self.record.question_tokens[: self.length]

    def gold_tags(self) -> list[str]:
        if self.tag_ids is None:
            raise ValueError("example is unlabeled")
        return [LABELS[i] for i in self.tag_ids[: self.length]]


def make_example(record: QaRecord, bank_records: Sequence[QaRecord],
                 vocab: Vocabulary, max_len: int = MAX_LEN,
                 bank_size: int = BANK_SIZE) -> Example:
    """Assemble one example; the bank is capped at ``bank_size`` and must be
    same-category unlabeled questions other than the record itself.

    The question and its bank questions become rows 0 and 1.. of one id
    block and one mask block, each truncated to ``max_len`` ids with
    suffix-only padding.  Multi-sentence questions arrive already joined
    with EOS (``vocab.join_sentences``); EOS tokens are forced to tag O.
    """
    bank_records = list(bank_records)[:bank_size]
    ids = np.full((1 + bank_size, max_len), PAD_ID, dtype=np.int64)
    mask = np.zeros(ids.shape)
    for row, rec in enumerate([record, *bank_records]):
        if row and rec is record:
            raise ValueError("bank must not contain the labeled question itself")
        if rec.category != record.category:
            raise ValueError(f"bank question category {rec.category!r} != {record.category!r}")
        tokens = rec.question_tokens[:max_len]
        if not tokens:
            raise CorpusError("cannot encode an empty token list")
        ids[row, :len(tokens)] = vocab.encode(tokens)
        mask[row, :len(tokens)] = 1.0
    tag_ids, tags = None, record.tags
    if tags is not None:
        tag_ids = np.full(max_len, O_INDEX, dtype=np.int64)
        tokens = record.question_tokens[:max_len]
        tag_ids[:len(tokens)] = [O_INDEX if tok == EOS_TOKEN else LABELS.index(tags[t])
                                 for t, tok in enumerate(tokens)]
    return Example(record=record, bank=bank_records, ids=ids[0], mask=mask[0],
                   tag_ids=tag_ids, bank_ids=ids[1:], bank_mask=mask[1:])


@dataclass
class Batch:
    ids: np.ndarray          # (B, T)
    mask: np.ndarray         # (B, T)
    gold: np.ndarray | None  # (B, T) int64 tag ids, O at padding
    bank_ids: np.ndarray     # (B, U, T)
    bank_mask: np.ndarray    # (B, U, T)
    examples: list[Example]

    def __len__(self) -> int:
        return len(self.examples)


def collate(examples: Sequence[Example]) -> Batch:
    """Stack the examples' rows; ``gold`` stacks their ``tag_ids`` if all have them."""
    gold = None
    if all(e.tag_ids is not None for e in examples):
        gold = np.stack([e.tag_ids for e in examples])
    return Batch(ids=np.stack([e.ids for e in examples]),
                 mask=np.stack([e.mask for e in examples]), gold=gold,
                 bank_ids=np.stack([e.bank_ids for e in examples]),
                 bank_mask=np.stack([e.bank_mask for e in examples]),
                 examples=list(examples))


@dataclass
class CorpusSplit:
    train: list
    validation: list
    test: list


def split(examples: Sequence, seed: int) -> CorpusSplit:
    """Seeded uniform shuffle, then a contiguous 70/10/20 cut.

    Cut indices are ceil(0.7 n) and ceil(0.8 n), which keeps each part
    within one element of its exact share (9 examples -> 7/1/1).
    """
    n = len(examples)
    if n < 10:
        log.warning("splitting only %d examples; proportions are rounded", n)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    shuffled = [examples[i] for i in order]
    c1 = math.ceil(0.7 * n)
    c2 = math.ceil(0.8 * n)
    return CorpusSplit(train=shuffled[:c1], validation=shuffled[c1:c2], test=shuffled[c2:])


@dataclass
class ProductRow:
    product: str
    qa_count: int
    with_function_pct: float


@dataclass
class CorpusStats:
    rows: list[ProductRow]
    total_qa: int
    total_pct: float


def corpus_stats(records: Iterable[QaRecord]) -> CorpusStats:
    """Per-product QA counts and the share of QAs containing at least one
    F tag, plus the totals row.  Products appear in first-seen order."""
    order: list[str] = []
    counts: dict[str, list[int]] = {}
    for rec in records:
        if not rec.labeled:
            continue
        if rec.product_id not in counts:
            order.append(rec.product_id)
            counts[rec.product_id] = [0, 0]
        counts[rec.product_id][0] += 1
        if F_TAG in rec.tags:
            counts[rec.product_id][1] += 1
    if not order:
        raise CorpusError("no labeled records to summarize")
    rows = [ProductRow(p, counts[p][0], 100.0 * counts[p][1] / counts[p][0])
            for p in order]
    total = sum(r.qa_count for r in rows)
    with_f = sum(counts[p][1] for p in order)
    return CorpusStats(rows=rows, total_qa=total, total_pct=100.0 * with_f / total)


def format_stats(stats: CorpusStats) -> str:
    width = max([len("Product")] + [len(r.product) for r in stats.rows])
    lines = [f"{'Product':<{width}}  {'QA':>6}  % of QAs with Functions"]
    for r in stats.rows:
        lines.append(f"{r.product:<{width}}  {r.qa_count:>6}  {r.with_function_pct:.2f}")
    lines.append(f"{'Total':<{width}}  {stats.total_qa:>6}  {stats.total_pct:.2f}")
    return "\n".join(lines)
