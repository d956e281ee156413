"""The benchmark's workloads.  Each drives the public functions of ``fnr``
in a closed loop from one process, on inputs from ``gen``, and checks the
program's outputs afterwards.

A workload has ``setup()`` (repeatable; the runner times each repetition),
``loop(tr, seconds, min_ops)`` (the measured closed loop, timed per op),
``check()`` (output checks, returns failure messages), ``patches(tr)``
(program functions to wrap in a traced run) and ``props`` (input
properties of the generated data).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from fnr import model as fmodel
from fnr.autodiff import NonFiniteError, Tape
from fnr.data import QaRecord, collate, load_corpus, make_example, save_corpus
from fnr.embeddings import SgnsConfig, load_embeddings, save_embeddings, train_skipgram
from fnr.metrics import score_predictions
from fnr.model import (SanConfig, SanParams, batch_loss, extract_spans,
                       forward_batch, predict_tags)
from fnr.optim import adam_step
from fnr.retrieval import Bm25Index, build_bank, load_bank_cache, save_bank_cache
from fnr.training import DivergenceError
from fnr.vocab import EOS_TOKEN, build_vocab

import bm25_ref
import gen
from spans import NullTracer

# An op that raises one of these counts as failed, not as a crash.
OP_FAILURES = (NonFiniteError, DivergenceError, MemoryError)


@dataclass
class OpStats:
    """Per-op wall times and items, plus failure accounting."""
    times: list[float] = field(default_factory=list)
    items: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def add(self, seconds: float, items: int) -> None:
        self.times.append(seconds)
        self.items.append(items)

    def rate(self) -> float:
        """Items per second over the whole measured window.  A shared
        machine runs in fast and slow phases lasting seconds; a ratio of
        sums averages over them, where a median of per-op rates jumps
        between them."""
        return sum(self.items) / sum(self.times)


def _running(started: float, seconds: float, done: int, min_ops: int) -> bool:
    return done < min_ops or time.perf_counter() - started < seconds


def _qa(rec: gen.Record, line_no: int, labeled: bool) -> QaRecord:
    return QaRecord(product_id=rec.product_id, category=rec.category,
                    question_tokens=list(rec.tokens),
                    tags=list(rec.tags) if labeled else None, line_no=line_no)


def _bank_counts(tr, batch, seen: set) -> None:
    """Bank-row sharing and padding, taken on the batch the BLSTMs see.
    ``seen`` collects the distinct bank rows of the whole run."""
    rows = batch.bank_ids.reshape(-1, batch.bank_ids.shape[-1])
    distinct = np.unique(rows, axis=0)
    tr.count("lstm.bank_rows", len(rows))
    tr.count("lstm.bank_distinct_ratio", len(distinct) / len(rows))
    seen.update(r.tobytes() for r in distinct)
    tr.count("lstm.bank_distinct_run", len(seen))
    # two question BLSTMs (blstm1, blstm2) and the bank BLSTM
    real = 2 * batch.mask.sum() + batch.bank_mask.sum()
    positions = 2 * batch.mask.size + batch.bank_mask.size
    tr.count("lstm.valid_token_ratio", real / positions)


def _model_patches(tr, params: SanParams) -> list:
    encoders = {id(params.blstm1): "lstm.blstm1", id(params.bank_blstm): "lstm.bank",
                id(params.blstm2): "lstm.blstm2"}
    blstm_name = lambda x, mask, p, *a, **k: encoders[id(p)]  # noqa: E731
    return [(fmodel, "gather_rows", tr.spanning("model.embed")),
            (fmodel, "blstm_forward", tr.spanning(blstm_name)),
            (fmodel, "bank_attend_batch", tr.spanning("attention.bank_attend")),
            (fmodel, "linear", tr.spanning("model.head")),
            (fmodel, "softmax", tr.spanning("model.head"))]


def _bank_props(questions, banks, max_len: int, bank_size: int = 5) -> dict:
    """Empty-bank share, distinct bank questions per bank slot over the
    whole input, and the share of BLSTM positions holding a real token."""
    def real(rec):
        return min(len(rec.question_tokens), max_len)
    members = [b for bank in banks for b in bank]
    slots = len(questions) * bank_size
    has_padding_row = len(members) < slots
    positions = (2 * len(questions) + slots) * max_len
    return {"empty_bank_share": sum(not b for b in banks) / max(len(banks), 1),
            "bank_distinct_ratio_all": (len({id(b) for b in members}) + has_padding_row) / slots,
            "valid_token_ratio": (2 * sum(map(real, questions)) + sum(map(real, members)))
                                 / positions}


# ----------------------------------------------------------------- train

@dataclass
class TrainSizes:
    categories: int = 18
    empty_categories: int = 2
    pool_per_category: int = 300
    labeled_per_category: int = 32
    batch: int = 64
    dims: int = 100
    max_len: int = 40
    warmup_steps: int = 2
    loss_window: int = 3


class TrainWorkload:
    """Steady-state SAN training steps through the calls
    ``fnr.training.train`` makes, with its variable lifetimes."""
    op_name = "train step"
    item_name = "labeled examples"

    def __init__(self, seed: int, sizes: TrainSizes, workdir: str):
        self.seed = seed
        self.sz = sizes

    def setup(self) -> None:
        sz = self.sz
        g = gen.CrawlGenerator(self.seed)
        pool: list[QaRecord] = []
        labeled_gen: list[gen.Record] = []
        for c in range(sz.categories + sz.empty_categories):
            cat = f"c{c}"
            labeled_gen += g.questions(cat, sz.labeled_per_category)
            if c < sz.categories:
                pool += [_qa(r, len(pool) + 1, False)
                         for r in g.questions(cat, sz.pool_per_category)]
        labeled = [_qa(r, i + 1, True) for i, r in enumerate(labeled_gen)]
        index = Bm25Index(pool)
        banks = [build_bank(rec, index, u_max=5) for rec in labeled]
        seqs = [r.question_tokens for r in labeled] + [b.question_tokens
                                                      for bank in banks for b in bank]
        vocab = build_vocab(seqs)
        self.cfg = SanConfig(embedding_dim=sz.dims, hidden_size=sz.dims,
                             attention_dim=sz.dims, max_len=sz.max_len, dropout=0.2,
                             seed=self.seed)
        self.examples = [make_example(rec, bank, vocab, max_len=sz.max_len)
                         for rec, bank in zip(labeled, banks)]
        self.params = SanParams.build(self.cfg, len(vocab),
                                      np.random.default_rng(self.cfg.seed))
        self.rng = np.random.default_rng(self.seed)
        self.order: np.ndarray = np.zeros(0, dtype=int)
        self.pos = 0
        self.losses: list[float] = []
        self.seen_rows: set = set()
        self.props = dict(gen.input_properties(labeled_gen, sz.max_len),
                          **_bank_props(labeled, banks, sz.max_len),
                          pool_per_category=sz.pool_per_category,
                          categories=sz.categories, empty_categories=sz.empty_categories,
                          labeled=len(labeled), batch=sz.batch)
        self.loop(None, 0.0, sz.warmup_steps)

    def patches(self, tr) -> list:
        return _model_patches(tr, self.params)

    def _next_members(self) -> list:
        if self.pos >= len(self.order):
            self.order = self.rng.permutation(len(self.examples))
            self.pos = 0
        members = [self.examples[i] for i in self.order[self.pos:self.pos + self.sz.batch]]
        self.pos += self.sz.batch
        return members

    def loop(self, tr, seconds: float, min_ops: int) -> OpStats:
        tr = tr or NullTracer()
        stats = OpStats()
        started = time.perf_counter()
        # Mirrors the body of fnr.training.train: probs, loss and grads of
        # one step stay bound while the next step runs, as they do there.
        while _running(started, seconds, stats.attempted, min_ops):
            stats.attempted += 1
            t0 = time.perf_counter()
            batch = tr.call("data.collate", collate, self._next_members())
            try:
                with Tape() as tape:
                    probs, _ = tr.call("model.forward", forward_batch, batch, self.params,
                                       self.cfg, training=True, rng=self.rng)
                    loss = tr.call("model.loss", batch_loss, probs, batch.gold, batch.mask)
                if tr.enabled:
                    tr.count("autodiff.tape_nodes", len(tape))
                grads = tr.call("autodiff.backward", tape.gradients, loss)
                tr.call("optim.adam", adam_step, self.params.group, grads, lr=1e-3)
            except OP_FAILURES:
                stats.failed += 1
                continue
            stats.add(time.perf_counter() - t0, len(batch))
            self.losses.append(loss.item() / batch.mask.sum())
            if tr.enabled:
                _bank_counts(tr, batch, self.seen_rows)
        if tr.enabled and self.losses:
            tr.count("training.loss_end", self.loss_end())
        return stats

    def loss_end(self) -> float:
        return float(np.mean(self.losses[-self.sz.loss_window:]))

    def check(self) -> list[str]:
        w = self.sz.loss_window
        if not all(math.isfinite(v) for v in self.losses):
            return ["train: a step loss is not finite"]
        if len(self.losses) < 2 * w:
            return [f"train: only {len(self.losses)} steps, need {2 * w} to compare loss"]
        first = float(np.mean(self.losses[:w]))
        if not self.loss_end() < first:
            return [f"train: loss did not fall ({first:.4f} -> {self.loss_end():.4f})"]
        return []


# ------------------------------------------------------------------- tag

@dataclass
class TagSizes:
    categories: int = 2
    pool_per_category: int = 500
    stream_per_category: int = 320
    batch: int = 64
    dims: int = 100
    max_len: int = 40
    single_checks: int = 8


class TagWorkload:
    """Eval-mode tagging of a category's pool questions, in pool order,
    through the ``evaluate`` path with banks cached at set-up."""
    op_name = "tag batch"
    item_name = "questions"

    def __init__(self, seed: int, sizes: TagSizes, workdir: str):
        self.seed = seed
        self.sz = sizes

    def setup(self) -> None:
        sz = self.sz
        g = gen.CrawlGenerator(self.seed)
        pool: list[QaRecord] = []
        stream: list[QaRecord] = []
        stream_gen: list[gen.Record] = []
        for c in range(sz.categories):
            generated = g.questions(f"c{c}", sz.pool_per_category)
            start = len(pool)
            pool += [_qa(r, start + i + 1, False) for i, r in enumerate(generated)]
            stream_gen += generated[:sz.stream_per_category]
            stream += [_qa(r, start + i + 1, True)
                       for i, r in enumerate(generated[:sz.stream_per_category])]
        index = Bm25Index(pool)
        self.banks = [build_bank(rec, index, u_max=5) for rec in stream]
        self.vocab = build_vocab([r.question_tokens for r in pool])
        self.cfg = SanConfig(embedding_dim=sz.dims, hidden_size=sz.dims,
                             attention_dim=sz.dims, max_len=sz.max_len, seed=self.seed)
        self.params = SanParams.build(self.cfg, len(self.vocab),
                                      np.random.default_rng(self.cfg.seed))
        self.stream = stream
        self.pos = 0
        self.last: list = []
        self.errors: list[str] = []
        self.seen_rows: set = set()
        self.props = dict(gen.input_properties(stream_gen, sz.max_len),
                          **_bank_props(stream, self.banks, sz.max_len),
                          pool_per_category=sz.pool_per_category,
                          categories=sz.categories, stream=len(stream), batch=sz.batch)
        self.loop(None, 0.0, 1)

    def patches(self, tr) -> list:
        return _model_patches(tr, self.params)

    def loop(self, tr, seconds: float, min_ops: int) -> OpStats:
        tr = tr or NullTracer()
        stats = OpStats()
        started = time.perf_counter()
        while _running(started, seconds, stats.attempted, min_ops):
            stats.attempted += 1
            lo = self.pos
            self.pos = (self.pos + self.sz.batch) % len(self.stream)
            chunk = range(lo, min(lo + self.sz.batch, len(self.stream)))
            t0 = time.perf_counter()
            try:
                examples = [tr.call("data.make_example", make_example, self.stream[i],
                                    self.banks[i], self.vocab, max_len=self.sz.max_len)
                            for i in chunk]
                batch = tr.call("data.collate", collate, examples)
                probs, _ = tr.call("model.forward", forward_batch, batch, self.params,
                                   self.cfg, training=False)
                tagged = []
                for i, ex in enumerate(batch.examples):
                    tags = tr.call("model.decode", predict_tags, probs.data[i], ex.mask)
                    spans = tr.call("model.decode", extract_spans, tags, ex.tokens)
                    tagged.append((ex, tags, spans))
                tr.call("metrics.score", score_predictions,
                        [(tags, ex.gold_tags(), ex.tokens) for ex, tags, _ in tagged])
            except OP_FAILURES:
                stats.failed += 1
                continue
            stats.add(time.perf_counter() - t0, len(examples))
            self._check_batch(tagged)
            self.last = [(ex, tags, probs.data[i]) for i, (ex, tags, _) in enumerate(tagged)]
            if tr.enabled:
                _bank_counts(tr, batch, self.seen_rows)
        return stats

    def _check_batch(self, tagged) -> None:
        for ex, tags, spans in tagged:
            if len(tags) != ex.length:
                self.errors.append(f"tag: {len(tags)} tags for a {ex.length}-token question")
            for s in spans:
                if EOS_TOKEN in ex.tokens[s.start:s.end + 1]:
                    self.errors.append(f"tag: span {s.text!r} contains EOS")

    def check(self) -> list[str]:
        """Every batch's tags and spans were checked as it was tagged; here
        the last batch's first questions, tagged alone (B=1), must equal
        their batched tags wherever the F/O margin is above rounding."""
        errors = self.errors[:5]
        for ex, tags, batched in self.last[:self.sz.single_checks]:
            probs, _ = forward_batch(collate([ex]), self.params, self.cfg, training=False)
            alone = probs.data[0]
            n = ex.length
            if not np.allclose(alone[:n], batched[:n], rtol=0.0, atol=1e-9):
                errors.append("tag: B=1 probabilities differ from batched ones")
            margin = np.abs(alone[:n, 0] - alone[:n, 1]) > 1e-9
            single = predict_tags(alone, ex.mask)
            if [a for a, m in zip(single, margin) if m] != [b for b, m in zip(tags, margin) if m]:
                errors.append("tag: B=1 tags differ from batched tags")
        return errors


# --------------------------------------------------------------- prepare

@dataclass
class PrepareSizes:
    categories: int = 2
    pool_per_category: int = 20000
    labeled_per_category: int = 16
    empty_category_labeled: int = 2
    top_k: int = 5
    ref_checks: int = 4
    raw_questions: int = 160
    dim: int = 100
    epochs: int = 2


class BuildBankStep:
    """``fnr build-bank`` on a generated crawl: load both files, index the
    pool, one BM25 bank per labeled question, write the cache."""

    def __init__(self, seed: int, sizes: PrepareSizes, workdir: str):
        self.seed = seed
        self.sz = sizes
        self.labeled_path = os.path.join(workdir, "labeled.jsonl")
        self.pool_path = os.path.join(workdir, "pool.jsonl")
        self.cache_path = os.path.join(workdir, "banks.jsonl")

    def setup(self) -> dict:
        sz = self.sz
        g = gen.CrawlGenerator(self.seed)
        pool_gen: list[gen.Record] = []
        labeled_gen: list[gen.Record] = []
        for c in range(sz.categories):
            pool_gen += g.questions(f"c{c}", sz.pool_per_category)
            labeled_gen += g.questions(f"c{c}", sz.labeled_per_category)
        labeled_gen += g.questions("no-pool", sz.empty_category_labeled)
        save_corpus(self.pool_path, [_qa(r, 0, False) for r in pool_gen])
        save_corpus(self.labeled_path, [_qa(r, 0, True) for r in labeled_gen])
        return dict(gen.input_properties(labeled_gen, 40),
                    empty_bank_share=sz.empty_category_labeled / len(labeled_gen),
                    pool_per_category=sz.pool_per_category,
                    categories=sz.categories, queries=len(labeled_gen))

    def patches(self, tr) -> list:
        def counting(score):
            def wrapper(index, query_tokens, category):
                scores = score(index, query_tokens, category)
                tr.count("retrieval.docs_scored", len(scores))
                tr.count("retrieval.matched", sum(s != 0.0 for s in scores))
                return scores
            return wrapper
        return [(Bm25Index, "score", counting)]

    def run_pass(self, tr, stats: OpStats) -> None:
        labeled = [r for r in tr.call("data.load_corpus", load_corpus, self.labeled_path)
                   if r.labeled]
        pool = tr.call("data.load_corpus", load_corpus, self.pool_path)
        index = tr.call("retrieval.index", Bm25Index, pool)
        entries = []
        for rec in labeled:
            stats.attempted += 1
            try:
                bank = tr.call("retrieval.query", build_bank, rec, index, u_max=self.sz.top_k)
            except OP_FAILURES:
                stats.failed += 1
                continue
            entries.append((rec.line_no, [b.line_no for b in bank]))
        tr.call("retrieval.cache_write", save_bank_cache, self.cache_path, entries)
        self.labeled, self.pool, self.entries = labeled, pool, entries

    def check(self) -> list[str]:
        errors = []
        if load_bank_cache(self.cache_path) != dict(self.entries):
            errors.append("build-bank: the written bank cache does not reload equal")
        got = dict(self.entries)
        step = max(1, len(self.labeled) // self.sz.ref_checks)
        sample = self.labeled[::step][:self.sz.ref_checks - 1] + self.labeled[-1:]
        for rec in sample:
            want = bm25_ref.bank_lines(rec, self.pool, self.sz.top_k)
            if got.get(rec.line_no) != want:
                errors.append(f"build-bank: bank of labeled line {rec.line_no} is "
                              f"{got.get(rec.line_no)}, reference gives {want}")
        return errors


class PretrainStep:
    """``fnr pretrain-embeddings``: skip-gram on raw question text, then
    the text-format embedding file."""

    def __init__(self, seed: int, sizes: PrepareSizes, workdir: str):
        self.seed = seed
        self.sz = sizes
        self.out_path = os.path.join(workdir, "vectors.txt")

    def setup(self) -> dict:
        g = gen.CrawlGenerator(self.seed + 1)
        records = []
        for c in range(4):
            records += g.questions(f"c{c}", self.sz.raw_questions // 4)
        self.corpus = [r.tokens for r in records]
        self.cfg = SgnsConfig(dim=self.sz.dim, epochs=self.sz.epochs)
        self.tokens = sum(len(s) for s in self.corpus)
        self.runs = 0
        return {"raw_questions": len(records), "raw_tokens": self.tokens,
                "raw_multi_sentence_share": gen.input_properties(records, 40)[
                    "multi_sentence_share"]}

    def patches(self, tr) -> list:
        return []

    def _pairs(self) -> int:
        w = self.cfg.window
        per_epoch = sum(min(n, i + w + 1) - max(0, i - w) - 1
                        for n in map(len, self.corpus) for i in range(n))
        return per_epoch * self.cfg.epochs

    def run_pass(self, tr, stats: OpStats) -> None:
        stats.attempted += self.cfg.epochs
        try:
            matrix = tr.call("embeddings.skipgram", train_skipgram, self.corpus, self.cfg,
                             np.random.default_rng(self.seed + self.runs))
        except OP_FAILURES:
            stats.failed += self.cfg.epochs
            return
        tr.call("embeddings.save", save_embeddings, matrix, self.out_path)
        if tr.enabled:
            tr.count("embeddings.pairs", self._pairs())
        self.matrix = matrix
        self.runs += 1

    def check(self) -> list[str]:
        errors = []
        hist = self.matrix.loss_history
        if not all(math.isfinite(v) for v in hist):
            errors.append("pretrain-embeddings: objective is not finite")
        elif not hist[-1] < hist[0]:
            errors.append(f"pretrain-embeddings: objective did not fall ({hist})")
        back = load_embeddings(self.out_path)
        if (back.vocab.id_to_token != self.matrix.vocab.id_to_token
                or not np.array_equal(back.vectors, self.matrix.vectors)):
            errors.append("pretrain-embeddings: embedding file does not reload bit-exactly")
        return errors


class PrepareWorkload:
    """The two offline CLI steps on one crawl slice: ``build-bank``, then
    ``pretrain-embeddings``.  One op is one pass of both, so its rate is
    slices prepared per second; the per-layer spans split the time."""
    op_name = "prepare pass"
    item_name = "crawl slices"

    def __init__(self, seed: int, sizes: PrepareSizes, workdir: str):
        self.steps = (BuildBankStep(seed, sizes, workdir), PretrainStep(seed, sizes, workdir))

    def setup(self) -> None:
        self.props = {}
        for step in self.steps:
            self.props.update(step.setup())

    def patches(self, tr) -> list:
        return [p for step in self.steps for p in step.patches(tr)]

    def loop(self, tr, seconds: float, min_ops: int) -> OpStats:
        tr = tr or NullTracer()
        stats = OpStats()
        started = time.perf_counter()
        while _running(started, seconds, len(stats.times), min_ops):
            t0 = time.perf_counter()
            for step in self.steps:
                step.run_pass(tr, stats)
            stats.add(time.perf_counter() - t0, 1)
        return stats

    def check(self) -> list[str]:
        return [e for step in self.steps for e in step.check()]


WORKLOADS = {
    "train": (TrainWorkload, TrainSizes),
    "tag": (TagWorkload, TagSizes),
    "prepare": (PrepareWorkload, PrepareSizes),
}

# Smoke-test sizes (``run.py --tiny``): every workload, check and traced
# span in a few seconds.
TINY = {
    "train": dict(categories=3, empty_categories=1, pool_per_category=20,
                  labeled_per_category=8, batch=8, dims=8, max_len=12),
    "tag": dict(pool_per_category=30, stream_per_category=16, batch=8, dims=8,
                max_len=12, single_checks=2),
    "prepare": dict(pool_per_category=200, labeled_per_category=4,
                    empty_category_labeled=1, raw_questions=40, dim=8),
}
