"""Command-line entry point for batch runs.

Subcommands: pretrain-embeddings, build-bank, train, evaluate, extract,
stats.  Settings merge a config file (JSON or key=value lines) with
command-line overrides, overrides winning; unknown keys are rejected.
All randomness flows from one seed: --seed beats the config file, which
beats the default (13).  Output paths are checked before any data is read.

Exit codes: 0 success, 2 I/O error (and argparse's usage errors), 3
config/validation error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import tempfile
import time

import numpy as np

from .autodiff import NonFiniteError
from .data import (QaRecord, collate, corpus_stats, format_stats, load_corpus,
                   make_example, split)
from .embeddings import SgnsConfig, load_embeddings, save_embeddings, train_skipgram
from .metrics import truncated_gold_spans
from .model import (SanConfig, extract_spans, forward_batch, json_type_ok, load_model,
                    predict_tags, save_model)
from .retrieval import (Bm25Index, build_bank, file_sha256, load_bank_cache,
                        save_bank_cache)
from .training import DivergenceError, TrainConfig, evaluate, train
from .vocab import build_vocab, join_sentences, tokenize

log = logging.getLogger("fnr")


class ConfigError(ValueError):
    """Bad run configuration: unknown key, bad value, or missing setting."""


_PATH_KEYS = ("corpus", "pool", "bank_cache", "embeddings", "checkpoint", "epoch_log")
_FIELD_TYPES = {**{f.name: f.type for cls in (SanConfig, TrainConfig)
                   for f in dataclasses.fields(cls)},
                **dict.fromkeys(_PATH_KEYS, "str | None")}


def _config(cls, values: dict):
    """``cls`` built from the keys of ``values`` that are its fields and
    not None; its own defaults fill in the rest."""
    names = {f.name for f in dataclasses.fields(cls)}
    try:
        return cls(**{k: v for k, v in values.items() if k in names and v is not None})
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _coerce(key: str, value) -> object:
    """Parse text for the field's type; check any other value's type.
    The one ``str`` key, ``variant``, is case-folded."""
    kind = _FIELD_TYPES[key]
    if isinstance(value, str):
        text = value.strip()
        try:
            if kind == "int":
                return int(text)
            if kind == "float":
                return float(text)
        except ValueError as err:
            raise ConfigError(f"{key}: cannot parse {text!r}") from err
        return text.lower() if kind == "str" else text
    if not json_type_ok(kind, value):
        raise ConfigError(f"{key}: expected {kind}, got {value!r}")
    return value


def _apply(cfg: dict, updates: dict) -> None:
    for key, value in updates.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = _coerce(key, value)


def _key_values(lines) -> dict:
    """The text settings of (where, line) pairs, by the ``key=value`` rule
    of config files and ``--set``: blank and ``#`` lines are skipped, and
    keys and values are stripped."""
    values = {}
    for where, line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def load_run_config(path: str | None, overrides: dict) -> dict:
    """The settings that were set, by key: config file values first, then
    overrides on top.  A file whose text starts with ``{`` is a JSON
    object, which is all that such text can decode to."""
    cfg: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if text.lstrip().startswith("{"):
            try:
                _apply(cfg, json.loads(text))
            except json.JSONDecodeError as err:
                raise ConfigError(f"{path}: invalid JSON config ({err.msg})") from err
        else:
            _apply(cfg, _key_values((f"{path}:{n}", line)
                                   for n, line in enumerate(text.splitlines(), start=1)))
    _apply(cfg, overrides)
    return cfg


def cmd_pretrain_embeddings(args) -> int:
    _check_writable(args.out)
    records = load_corpus(args.corpus)
    if not records:
        raise ConfigError(f"{args.corpus}: corpus is empty")
    matrix = train_skipgram([rec.question_tokens for rec in records],
                            _config(SgnsConfig, vars(args)),
                            np.random.default_rng(args.seed))
    save_embeddings(matrix, args.out)
    final = matrix.loss_history[-1] if matrix.loss_history else float("nan")
    print(f"vocabulary size: {len(matrix.vocab)}")
    print(f"final mean objective: {final:.6f}")
    return 0


def cmd_build_bank(args) -> int:
    if args.top_k < 0:
        raise ConfigError(f"--top-k must be >= 0, got {args.top_k}")
    _check_writable(args.out)
    start = time.perf_counter()
    # Hashed before reading: a corpus edited during the build then fails
    # the check at load time instead of passing with stale banks.
    digests = {"labeled": file_sha256(args.labeled), "pool": file_sha256(args.pool)}
    labeled = [r for r in load_corpus(args.labeled) if r.labeled]
    if not labeled:
        raise ConfigError(f"{args.labeled}: no labeled records")
    pool = load_corpus(args.pool)
    loaded = time.perf_counter()
    index = Bm25Index(pool)
    indexed = time.perf_counter()
    entries = []
    sizes = []
    for rec in labeled:
        bank = build_bank(rec, index, u_max=args.top_k)
        entries.append((rec.line_no, [b.line_no for b in bank]))
        sizes.append(len(bank))
    queried = time.perf_counter()
    log.info("build-bank: loading %.3f s (hashing included), indexing %.3f s, "
             "querying %.3f s (%.0f queries/s)", loaded - start, indexed - loaded,
             queried - indexed, len(labeled) / (queried - indexed))
    save_bank_cache(args.out, entries, digests)
    mean_size = sum(sizes) / len(sizes)
    if mean_size == 0:
        log.warning("question pool produced only empty banks")
    print(f"banks written: {len(entries)}")
    print(f"mean bank size: {mean_size:.2f}")
    return 0


def _bank_size(san_cfg: SanConfig) -> int:
    """The bank questions a model reads per example: none without a bank."""
    return san_cfg.bank_size if san_cfg.has_bank else 0


def _resolve_banks(labeled, labeled_path: str, pool_path: str | None,
                   cache_path: str | None, bank_size: int) -> dict[int, list[QaRecord]]:
    """Up to ``bank_size`` bank records per labeled line number: from the
    cache when given, else by BM25 over the pool, else empty.  A cache is
    refused unless both corpora hash as when it was built and it gives
    every labeled record an entry naming only unlabeled pool lines."""
    if cache_path and not pool_path:
        raise ConfigError("bank_cache needs pool: the cache names pool lines by number")
    banks: dict[int, list[QaRecord]] = {rec.line_no: [] for rec in labeled}
    if bank_size == 0:
        return banks
    pool = load_corpus(pool_path) if pool_path else []
    if cache_path:
        pool_by_line = {rec.line_no: rec for rec in pool}
        cache = load_bank_cache(cache_path,
                                sources={"labeled": labeled_path, "pool": pool_path})
        for rec in labeled:
            lines = cache.get(rec.line_no)
            if lines is None:
                raise ConfigError(f"bank cache {cache_path} has no entry for labeled line "
                                  f"{rec.line_no}; rebuild it with fnr build-bank")
            bad = [i for i in lines if i not in pool_by_line or pool_by_line[i].labeled]
            if bad:
                what = "labeled" if bad[0] in pool_by_line else f"not present in {pool_path}"
                raise ConfigError(f"bank cache {cache_path} gives labeled line {rec.line_no} "
                                  f"pool line {bad[0]}, which is {what}")
            banks[rec.line_no] = [pool_by_line[i] for i in lines][:bank_size]
    elif pool:
        index = Bm25Index(pool)
        for rec in labeled:
            banks[rec.line_no] = build_bank(rec, index, u_max=bank_size)
    else:
        log.warning("no pool or bank cache configured; training with empty banks")
    return banks


def _check_writable(path: str | None) -> None:
    """Raise now, naming ``path``, the OSError that writing it would raise
    later; the file system is left as it was.  No path is no check."""
    if not path:
        return
    try:
        if os.path.exists(path):
            open(path, "ab").close()
        else:
            tempfile.TemporaryFile(dir=os.path.dirname(path) or ".").close()
    except OSError as err:
        raise OSError(err.errno, err.strerror, path) from err


def cmd_train(args) -> int:
    flags = {k: v for k, v in vars(args).items() if k in _FIELD_TYPES and v is not None}
    sets = _key_values(("--set", line) for line in args.set or [])
    cfg = load_run_config(args.config, {**sets, **flags})
    corpus, checkpoint, epoch_log = map(cfg.get, ("corpus", "checkpoint", "epoch_log"))
    if corpus is None:
        raise ConfigError("no corpus configured (corpus=PATH or --corpus)")
    if checkpoint is None:
        raise ConfigError("no checkpoint output configured (checkpoint=PATH or --out)")
    san_cfg = _config(SanConfig, cfg)
    tcfg = _config(TrainConfig, cfg)
    _check_writable(checkpoint)
    _check_writable(epoch_log)

    records = load_corpus(corpus)
    labeled = [r for r in records if r.labeled]
    if not labeled:
        raise ConfigError(f"{corpus}: no labeled records to train on")
    if len(labeled) < len(records):
        log.info("ignoring %d unlabeled records in %s", len(records) - len(labeled), corpus)

    banks = _resolve_banks(labeled, corpus, cfg.get("pool"), cfg.get("bank_cache"),
                           _bank_size(san_cfg))
    if cfg.get("embeddings"):
        pretrained = load_embeddings(cfg["embeddings"])
        vocab = pretrained.vocab
        if pretrained.dim != san_cfg.embedding_dim:
            log.info("embedding file is %d-dimensional; overriding embedding_dim %d",
                     pretrained.dim, san_cfg.embedding_dim)
            san_cfg = dataclasses.replace(san_cfg, embedding_dim=pretrained.dim)
    else:
        log.warning("no pretrained embeddings configured; using random initialization")
        pretrained = None
        vocab = build_vocab([rec.question_tokens for rec in labeled]
                            + [rec.question_tokens for bank in banks.values() for rec in bank])

    examples = [make_example(rec, banks[rec.line_no], vocab,
                             max_len=san_cfg.max_len, bank_size=san_cfg.bank_size)
                for rec in labeled]
    data_split = split(examples, seed=san_cfg.seed)
    log.info("split sizes: train=%d validation=%d test=%d",
             len(data_split.train), len(data_split.validation), len(data_split.test))

    log_fh = open(epoch_log, "w", encoding="utf-8") if epoch_log else None
    try:
        def sink(entry):
            line = entry.to_json()
            print(line)
            if log_fh is not None:
                log_fh.write(line + "\n")
            log.info("epoch %d: loss=%.4f val_span_f1=%.4f (%.2fs)",
                     entry.epoch, entry.train_loss, entry.val_metrics.span_f1,
                     entry.wall_time)

        params, logs = train(san_cfg, tcfg, data_split, vocab, pretrained,
                             epoch_sink=sink)
    finally:
        if log_fh is not None:
            log_fh.close()
    save_model(checkpoint, params, san_cfg, vocab)
    best = max((entry.val_metrics.span_f1 for entry in logs), default=0.0)
    log.info("checkpoint written to %s (best validation span-F1 %.4f)",
             checkpoint, best)
    if data_split.test:
        final = evaluate(params, san_cfg, data_split.test)
        print(json.dumps({"test": final.to_dict()}, sort_keys=True))
    return 0


def cmd_evaluate(args) -> int:
    _check_writable(args.report)
    records = [r for r in load_corpus(args.data) if r.labeled]
    if not records:
        raise ConfigError(f"{args.data}: no labeled records to evaluate")
    rows = []
    banks_by_size: dict[int, dict[int, list[QaRecord]]] = {}
    for path in args.model:
        params, san_cfg, vocab = load_model(path)
        size = _bank_size(san_cfg)
        if size not in banks_by_size:
            banks_by_size[size] = _resolve_banks(records, args.data, args.pool,
                                                 args.bank_cache, size)
        banks = banks_by_size[size]
        examples = [make_example(rec, banks[rec.line_no], vocab,
                                 max_len=san_cfg.max_len, bank_size=san_cfg.bank_size)
                    for rec in records]
        metrics = evaluate(params, san_cfg, examples)
        rows.append({"path": path, "variant": san_cfg.variant,
                     "metrics": metrics.to_dict(),
                     "truncated_gold_spans": truncated_gold_spans(records, san_cfg.max_len)})
    report = {"data": args.data, "models": rows}
    width = max(len(r["variant"]) for r in rows) + 2
    print(f"{'Method':<{width}}  {'P':>6}  {'R':>6}  {'F1':>6}")
    for row in rows:
        span = row["metrics"]["span"]
        print(f"{row['variant']:<{width}}  {span['precision']:>6.3f}  "
              f"{span['recall']:>6.3f}  {span['f1']:>6.3f}")
    if len(rows) == 1:
        token = rows[0]["metrics"]["token"]
        print(f"token-level: P={token['precision']:.3f} R={token['recall']:.3f} "
              f"F1={token['f1']:.3f}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0


def cmd_extract(args) -> int:
    _check_writable(args.trace)
    params, san_cfg, vocab = load_model(args.model)
    sentences = tokenize(args.question)
    if not sentences:
        raise ConfigError("question is empty after tokenization")
    tokens = join_sentences(sentences)

    category, index, bank_size = args.category, None, _bank_size(san_cfg)
    if args.bank and not bank_size:
        log.info("the %s model reads no bank; ignoring --bank", san_cfg.variant)
    elif args.bank:
        pool = load_corpus(args.bank)
        categories = sorted({r.category for r in pool if not r.labeled})
        if category is None:
            if len(categories) != 1:
                raise ConfigError(
                    f"pool spans categories {categories}; pick one with --category")
            category = categories[0]
        elif category not in categories:
            raise ConfigError(f"pool holds no unlabeled question of category {category!r}; "
                              f"its categories are {categories}")
        index = Bm25Index([r for r in pool if r.category == category])
    record = QaRecord(product_id="query", category=category or "query", question_tokens=tokens)
    bank_records = build_bank(record, index, u_max=bank_size) if index is not None else []
    example = make_example(record, bank_records, vocab,
                           max_len=san_cfg.max_len, bank_size=san_cfg.bank_size)
    probs, traces = forward_batch(collate([example]), params, san_cfg,
                                  want_trace=args.trace is not None)
    tags = predict_tags(probs.data[0], example.mask)
    for span in extract_spans(tags, example.tokens):
        print(span.text)
    if args.trace:
        payload = {"question_tokens": example.tokens,
                   "tags": tags,
                   "bank_questions": [b.question_tokens for b in bank_records]}
        if traces is not None:
            payload.update(traces[0].to_dict())
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0


def cmd_stats(args) -> int:
    records = load_corpus(args.corpus)
    stats = corpus_stats(records)
    print(format_stats(stats))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fnr",
        description="Recognize function-need spans in product questions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain-embeddings",
                       help="train skip-gram embeddings on a raw question corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    for f in dataclasses.fields(SgnsConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=None)
    p.add_argument("--seed", type=int, default=SanConfig.seed)
    p.set_defaults(func=cmd_pretrain_embeddings)

    p = sub.add_parser("build-bank",
                       help="retrieve similar unlabeled questions for each labeled one")
    p.add_argument("--labeled", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--top-k", type=int, default=SanConfig.bank_size)
    p.set_defaults(func=cmd_build_bank)

    p = sub.add_parser("train", help="train a tagger variant")
    p.add_argument("--config", default=None)
    p.add_argument("--variant", default=None)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--out", dest="checkpoint", metavar="OUT", default=None)
    p.add_argument("--corpus", default=None)
    p.add_argument("--pool", default=None)
    p.add_argument("--bank-cache", dest="bank_cache", default=None)
    p.add_argument("--epoch-log", dest="epoch_log", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override any config key")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score checkpoints on a labeled corpus")
    p.add_argument("--model", action="append", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--pool", default=None)
    p.add_argument("--bank-cache", dest="bank_cache", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("extract", help="extract function spans from one question")
    p.add_argument("--model", required=True)
    p.add_argument("--question", required=True)
    p.add_argument("--bank", default=None,
                   help="unlabeled pool to retrieve the question bank from")
    p.add_argument("--category", default=None)
    p.add_argument("--trace", default=None,
                   help="write the attention trace JSON here")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("stats", help="per-product corpus statistics")
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DivergenceError, NonFiniteError) as err:
        log.error("numeric failure: %s", err)
        return 4
    except OSError as err:
        log.error("%s", err)
        return 2
    except ValueError as err:   # ConfigError, CorpusError and CheckpointError among them
        log.error("%s", err)
        return 3


if __name__ == "__main__":
    sys.exit(main())
