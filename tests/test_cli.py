import argparse
import base64
import copy
import dataclasses
import hashlib
import json
import logging
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fnr import cli, training
from fnr.cli import ConfigError, load_run_config, main
from fnr.data import (CorpusError, QaRecord, _parse_record, _StringTable, load_corpus,
                      save_corpus)
from fnr.embeddings import EmbeddingMatrix, SgnsConfig, load_embeddings, save_embeddings
from fnr.model import SanConfig, SanParams, forward_batch, load_model, save_model
from fnr.retrieval import load_bank_cache
from fnr.training import TrainConfig
from fnr.vocab import RESERVED, Vocabulary
from checkpoint_files import read_checkpoint, rewrite_checkpoint, write_checkpoint


WORDS = ["works", "with", "iphone", "?", "does", "it", "play", "video",
         "calls", "games", "support", "bluetooth"]


def labeled_records():
    rng = np.random.default_rng(0)
    records = [QaRecord("fig", "laptop", ["Works", "with", "iphone", "?"],
                        tags=["F", "F", "F", "O"])]
    for i in range(7):
        n = int(rng.integers(3, 6))
        toks = [WORDS[j] for j in rng.choice(len(WORDS), size=n, replace=False)]
        tags = ["F" if rng.random() < 0.4 else "O" for _ in toks]
        records.append(QaRecord(f"p{i}", "laptop", toks, tags=tags))
    return records


def pool_records():
    rng = np.random.default_rng(1)
    out = []
    for i in range(6):
        n = int(rng.integers(2, 6))
        toks = [WORDS[j] for j in rng.choice(len(WORDS), size=n, replace=False)]
        out.append(QaRecord(f"u{i}", "laptop", toks))
    return out


@pytest.fixture
def corpus_path(tmp_path):
    path = tmp_path / "labeled.jsonl"
    save_corpus(path, labeled_records())
    return path


@pytest.fixture
def pool_path(tmp_path):
    path = tmp_path / "pool.jsonl"
    save_corpus(path, pool_records())
    return path


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def train_args(corpus, out, **extra):
    args = ["train", "--corpus", str(corpus), "--out", str(out), "--seed", "3",
            "--set", "embedding_dim=8", "--set", "hidden_size=6",
            "--set", "attention_dim=6", "--set", "max_len=8",
            "--set", "bank_size=2", "--set", "dropout=0.0",
            "--set", "lr=0.02", "--set", "batch_size=8",
            "--set", "max_epochs=3", "--set", "patience=2"]
    for key, value in extra.items():
        args += ["--set", f"{key}={value}"]
    return args


def assert_exit_2_before_reading(monkeypatch, caplog, argv, out):
    """``main(argv)`` exits 2 naming ``out`` without reading any corpus."""
    monkeypatch.setattr(cli, "load_corpus", lambda path: pytest.fail(f"read {path}"))
    assert main(argv) == 2
    assert str(out) in caplog.text


def subcommand(name):
    """The parser of one ``fnr`` subcommand."""
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[name]


def flag_dests(parser):
    return {a.dest for a in parser._actions if a.dest != "help"}


UNWRITABLE = pytest.mark.parametrize("out", ["no/such/dir/x.txt", "."],
                                     ids=["missing_dir", "a_dir"])


class TestPretrainEmbeddings:
    def test_default_dim_header(self, tmp_path, corpus_path, capsys):
        out = tmp_path / "emb.txt"
        code = main(["pretrain-embeddings", "--corpus", str(corpus_path),
                     "--out", str(out), "--epochs", "1", "--seed", "1"])
        assert code == 0
        header = out.read_text().splitlines()[0].split()
        assert header[1] == "100"
        printed = capsys.readouterr().out
        assert "vocabulary size" in printed
        assert "final mean objective" in printed

    def test_empty_corpus_exit_3_no_file(self, tmp_path, caplog):
        corpus, out = tmp_path / "empty.jsonl", tmp_path / "emb.txt"
        corpus.write_text("\n")
        assert main(["pretrain-embeddings", "--corpus", str(corpus), "--out", str(out)]) == 3
        assert f"{corpus}: corpus is empty" in caplog.text
        assert not out.exists()

    def test_defaults_are_the_config_classes_defaults(self, tmp_path, corpus_path,
                                                      monkeypatch):
        seen = []

        def spy(corpus, cfg, rng):
            seen.append((cfg, rng.bit_generator.state))
            return real(corpus, cfg, rng)

        real = cli.train_skipgram
        monkeypatch.setattr(cli, "train_skipgram", spy)
        out = tmp_path / "emb.txt"
        assert main(["pretrain-embeddings", "--corpus", str(corpus_path),
                     "--out", str(out)]) == 0
        seed_state = np.random.default_rng(SanConfig().seed).bit_generator.state
        assert seen == [(SgnsConfig(), seed_state)]

    def test_flags_are_sgns_config_fields(self):
        parser = subcommand("pretrain-embeddings")
        fields = dataclasses.fields(SgnsConfig)
        assert flag_dests(parser) == {f.name for f in fields} | {"corpus", "out", "seed"}
        for f in fields:
            flag = "--" + f.name.replace("_", "-")
            (action,) = [a for a in parser._actions if flag in a.option_strings]
            assert action.dest == f.name and action.type is type(f.default)
            assert action.default is None

    def test_dim_flag(self, tmp_path, corpus_path):
        out = tmp_path / "emb.txt"
        main(["pretrain-embeddings", "--corpus", str(corpus_path), "--out", str(out),
              "--dim", "50", "--epochs", "1", "--seed", "1"])
        assert out.read_text().splitlines()[0].split()[1] == "50"

    def test_same_seed_byte_identical(self, tmp_path, corpus_path):
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            main(["pretrain-embeddings", "--corpus", str(corpus_path), "--out", str(out),
                  "--dim", "16", "--epochs", "2", "--seed", "9"])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("flags", [["--lr", "nan"], ["--lr", "inf"],
                                       ["--min-freq", "0"]])
    def test_bad_lr_or_min_freq_exit_3_no_file(self, tmp_path, corpus_path, flags):
        out = tmp_path / "emb.txt"
        code = main(["pretrain-embeddings", "--corpus", str(corpus_path), "--out", str(out),
                     "--epochs", "1", "--seed", "1"] + flags)
        assert code == 3
        assert not out.exists()

    @UNWRITABLE
    def test_unwritable_out_exit_2_before_reading(self, tmp_path, corpus_path,
                                                  monkeypatch, caplog, out):
        out = tmp_path / out
        assert_exit_2_before_reading(monkeypatch, caplog, [
            "pretrain-embeddings", "--corpus", str(corpus_path), "--out", str(out),
            "--epochs", "3"], out)

    @pytest.mark.parametrize("token", ["", "usb c"], ids=["empty", "space"])
    def test_unwritable_token_exit_3_no_file(self, tmp_path, caplog, token):
        # load_corpus accepts any string token, but the vector file cannot
        # hold one that is empty or holds whitespace.
        corpus = tmp_path / "raw.jsonl"
        save_corpus(corpus, [QaRecord("p1", "c", ["works", token, "with", "it"]),
                             QaRecord("p2", "c", ["does", "it", "work", "?"])])
        out = tmp_path / "emb.txt"
        code = main(["pretrain-embeddings", "--corpus", str(corpus), "--out", str(out),
                     "--dim", "4", "--negatives", "2", "--epochs", "1", "--seed", "1"])
        assert code == 3
        assert f"token {token!r} is empty or holds whitespace" in caplog.text
        assert not out.exists()

    def test_diverging_lr_exit_4_no_file(self, tmp_path, corpus_path):
        out = tmp_path / "emb.txt"
        code = main(["pretrain-embeddings", "--corpus", str(corpus_path), "--out", str(out),
                     "--dim", "8", "--epochs", "2", "--seed", "1", "--lr", "1e300"])
        assert code == 4
        assert not out.exists()


class TestBuildBank:
    def test_default_top_k_and_coverage(self, tmp_path, corpus_path, pool_path, capsys):
        out = tmp_path / "bank.jsonl"
        code = main(["build-bank", "--labeled", str(corpus_path),
                     "--pool", str(pool_path), "--out", str(out)])
        assert code == 0
        header, *entries = [json.loads(line) for line in out.read_text().splitlines()]
        assert header == {"sha256": {"labeled": sha256_of(corpus_path),
                                     "pool": sha256_of(pool_path)}}
        assert len(entries) == 8
        assert all(len(e["bank_lines"]) <= 5 for e in entries)
        assert "mean bank size" in capsys.readouterr().out

    def test_empty_pool_warns(self, tmp_path, corpus_path, caplog):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "bank.jsonl"
        code = main(["build-bank", "--labeled", str(corpus_path),
                     "--pool", str(empty), "--out", str(out)])
        assert code == 0
        assert "empty banks" in caplog.text

    def test_top_k_zero_writes_empty_banks(self, tmp_path, corpus_path, pool_path):
        out = tmp_path / "bank.jsonl"
        code = main(["build-bank", "--labeled", str(corpus_path),
                     "--pool", str(pool_path), "--out", str(out), "--top-k", "0"])
        assert code == 0
        header, *entries = [json.loads(line) for line in out.read_text().splitlines()]
        assert set(header) == {"sha256"}
        assert len(entries) == 8
        assert all(e["bank_lines"] == [] for e in entries)

    def test_no_labeled_record_exit_3_no_file(self, tmp_path, pool_path, caplog):
        out = tmp_path / "bank.jsonl"
        assert main(["build-bank", "--labeled", str(pool_path), "--pool", str(pool_path),
                     "--out", str(out)]) == 3
        assert f"{pool_path}: no labeled records" in caplog.text
        assert not out.exists()

    def test_negative_top_k_exit_3(self, tmp_path, corpus_path, pool_path):
        out = tmp_path / "bank.jsonl"
        code = main(["build-bank", "--labeled", str(corpus_path),
                     "--pool", str(pool_path), "--out", str(out), "--top-k", "-1"])
        assert code == 3
        assert not out.exists()

    def test_negative_top_k_exit_3_before_reading(self, tmp_path, corpus_path, pool_path,
                                                 monkeypatch, caplog):
        monkeypatch.setattr(cli, "file_sha256", lambda path: pytest.fail(f"hashed {path}"))
        monkeypatch.setattr(cli, "load_corpus", lambda path: pytest.fail(f"read {path}"))
        out = tmp_path / "bank.jsonl"
        assert main(["build-bank", "--labeled", str(corpus_path), "--pool", str(pool_path),
                     "--out", str(out), "--top-k", "-2"]) == 3
        assert "--top-k must be >= 0, got -2" in caplog.text
        assert not out.exists()

    def test_logs_where_its_time_went(self, tmp_path, corpus_path, pool_path, capsys,
                                      caplog):
        caplog.set_level(logging.INFO, logger="fnr")
        out = tmp_path / "bank.jsonl"
        assert main(["build-bank", "--labeled", str(corpus_path),
                     "--pool", str(pool_path), "--out", str(out)]) == 0
        (line,) = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert re.fullmatch(r"build-bank: loading \d+\.\d{3} s \(hashing included\), "
                            r"indexing \d+\.\d{3} s, querying \d+\.\d{3} s "
                            r"\(\d+ queries/s\)", line)
        # The timings go to the log only; stdout is the two summary lines.
        assert re.fullmatch(r"banks written: 8\nmean bank size: \d\.\d\d\n",
                            capsys.readouterr().out)

    @UNWRITABLE
    def test_unwritable_out_exit_2_before_reading(self, tmp_path, corpus_path, pool_path,
                                                  monkeypatch, caplog, out):
        out = tmp_path / out
        assert_exit_2_before_reading(monkeypatch, caplog, [
            "build-bank", "--labeled", str(corpus_path), "--pool", str(pool_path),
            "--out", str(out)], out)

    def test_deterministic(self, tmp_path, corpus_path, pool_path):
        blobs = []
        for name in ("x.jsonl", "y.jsonl"):
            out = tmp_path / name
            main(["build-bank", "--labeled", str(corpus_path),
                  "--pool", str(pool_path), "--out", str(out), "--top-k", "3"])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestBankCacheFreshness:
    """``build-bank`` records the sha256 of both corpora; training with the
    cache refuses it once either file has changed."""

    def build(self, tmp_path, corpus_path, pool_path):
        cache = tmp_path / "bank.jsonl"
        assert main(["build-bank", "--labeled", str(corpus_path), "--pool", str(pool_path),
                     "--out", str(cache)]) == 0
        return cache

    def test_fresh_cache_trains_like_bm25(self, tmp_path, corpus_path, pool_path):
        cache = self.build(tmp_path, corpus_path, pool_path)
        with_cache, without = tmp_path / "a.npz", tmp_path / "b.npz"
        assert main(train_args(corpus_path, with_cache)
                    + ["--pool", str(pool_path), "--bank-cache", str(cache)]) == 0
        assert main(train_args(corpus_path, without) + ["--pool", str(pool_path)]) == 0
        assert with_cache.read_bytes() == without.read_bytes()

    @pytest.mark.parametrize("edited", ["pool", "labeled"])
    def test_edited_corpus_exit_3(self, tmp_path, corpus_path, pool_path, caplog, edited):
        cache = self.build(tmp_path, corpus_path, pool_path)
        changed = {"pool": pool_path, "labeled": corpus_path}[edited]
        # One token edited, lines and categories kept: without the digests
        # the stale banks would be used silently.
        changed.write_text(changed.read_text().replace(
            '"question_tokens": ["', '"question_tokens": ["edited-', 1))
        out = tmp_path / "model.npz"
        code = main(train_args(corpus_path, out)
                    + ["--pool", str(pool_path), "--bank-cache", str(cache)])
        assert code == 3
        assert f"{edited} corpus {changed} changed" in caplog.text
        assert not out.exists()

    def test_pool_edited_during_build_exit_3(self, tmp_path, corpus_path, pool_path,
                                             monkeypatch, caplog):
        # The pool gains a line right after build-bank has read it.  The
        # banks come from the old content, so the cache must not carry the
        # digest of the edited file.
        def load_then_append(path):
            records = load_corpus(path)
            if path == str(pool_path):
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(QaRecord("late", "laptop", ["late", "question"])
                                        .to_dict()) + "\n")
            return records
        monkeypatch.setattr(cli, "load_corpus", load_then_append)
        cache = self.build(tmp_path, corpus_path, pool_path)
        monkeypatch.undo()
        out = tmp_path / "model.npz"
        code = main(train_args(corpus_path, out)
                    + ["--pool", str(pool_path), "--bank-cache", str(cache)])
        assert code == 3
        assert f"pool corpus {pool_path} changed" in caplog.text
        assert not out.exists()

    def test_cache_without_header_exit_3(self, tmp_path, corpus_path, pool_path, caplog):
        cache = self.build(tmp_path, corpus_path, pool_path)
        cache.write_text("".join(cache.read_text().splitlines(keepends=True)[1:]))
        code = main(train_args(corpus_path, tmp_path / "model.npz")
                    + ["--pool", str(pool_path), "--bank-cache", str(cache)])
        assert code == 3
        assert "no sha256 header" in caplog.text

    def test_cache_without_an_entry_exit_3(self, tmp_path, corpus_path, pool_path, caplog):
        # A blank line in place of labeled line 2's entry: read as no
        # entry, its question would otherwise train with an empty bank.
        cache = self.build(tmp_path, corpus_path, pool_path)
        lines = cache.read_text().splitlines(keepends=True)
        assert json.loads(lines[2])["query_line"] == 2
        cache.write_text("".join(lines[:2] + ["\n"] + lines[3:]))
        code = main(train_args(corpus_path, tmp_path / "model.npz")
                    + ["--pool", str(pool_path), "--bank-cache", str(cache)])
        assert code == 3
        assert "no entry for labeled line 2" in caplog.text

    def test_cache_naming_a_labeled_pool_line_exit_3(self, tmp_path, corpus_path, caplog):
        # build-bank indexes only the pool's unlabeled lines, so a cache
        # entry naming pool line 7, a labeled question, was not written by
        # it; the header's digests cannot tell, since they cover only the
        # corpora.
        pool = tmp_path / "mixed_pool.jsonl"
        save_corpus(pool, pool_records() + labeled_records()[1:2])
        cache = self.build(tmp_path, corpus_path, pool)
        header, entry, *rest = cache.read_text().splitlines(keepends=True)
        first = json.loads(entry)
        assert first["query_line"] == 1 and 7 not in first["bank_lines"]
        first["bank_lines"].insert(0, 7)
        cache.write_text("".join([header, json.dumps(first) + "\n", *rest]))
        out = tmp_path / "model.npz"
        code = main(train_args(corpus_path, out)
                    + ["--pool", str(pool), "--bank-cache", str(cache)])
        assert code == 3
        assert "labeled line 1 pool line 7, which is labeled" in caplog.text
        assert not out.exists()


class TestRunConfig:
    PATH_KEYS = {"corpus", "pool", "bank_cache", "embeddings", "checkpoint", "epoch_log"}

    def test_keys_are_model_train_and_path_fields(self):
        model = {f.name: getattr(SanConfig(), f.name)
                 for f in dataclasses.fields(SanConfig)}
        training = {f.name: getattr(TrainConfig(), f.name)
                    for f in dataclasses.fields(TrainConfig)}
        keys = set(model) | set(training) | self.PATH_KEYS
        assert set(cli._FIELD_TYPES) == keys
        assert len(keys) == 18
        for key in keys:
            value = {**model, **training}.get(key, "path")
            load_run_config(None, {key: str(value)})
        for key in ("labels", "report", "settings", "bogus"):
            with pytest.raises(ConfigError, match="unknown config key"):
                load_run_config(None, {key: "x"})

    @pytest.mark.parametrize("key, value", [("hidden_size", 6.5), ("variant", 3),
                                            ("dropout", True)])
    def test_json_value_of_wrong_type_rejected(self, tmp_path, key, value):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ConfigError, match=key):
            load_run_config(str(path), {})

    def test_json_value_types(self, tmp_path):
        def load(values):
            path = tmp_path / "run.json"
            path.write_text(json.dumps(values))
            return load_run_config(str(path), {})

        cfg = load({"lr": 1, "dropout": 0.5, "max_len": 7,
                    "variant": "sblstm", "pool": None, "corpus": "c.jsonl"})
        assert cfg["lr"] == 1 and cfg["pool"] is None and cfg["corpus"] == "c.jsonl"
        for bad in ({"max_len": True}, {"seed": None},
                    {"variant": None}, {"corpus": 5}, {"lr": "fast"}):
            with pytest.raises(ConfigError):
                load(bad)

    @pytest.mark.parametrize("text", ['[{"seed": 1}]', '"seed=1"', "\x0c{}"],
                             ids=["array", "string", "form_feed_object"])
    def test_config_that_is_not_a_json_object_rejected(self, tmp_path, text):
        # Text starting with "{" decodes to an object or not at all; any
        # other text is key=value lines.
        path = tmp_path / "run.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_run_config(str(path), {})

    def test_defaults_are_the_config_classes_defaults(self):
        cfg = load_run_config(None, {})
        assert cli._config(SanConfig, cfg) == SanConfig()
        assert cli._config(TrainConfig, cfg) == TrainConfig()


class TestTrain:
    def test_flags_are_config_keys(self):
        assert flag_dests(subcommand("train")) - {"config", "set"} <= set(cli._FIELD_TYPES)

    def test_out_flag_lands_in_checkpoint(self, tmp_path, corpus_path):
        args = cli.build_parser().parse_args(["train", "--out", "m.npz"])
        assert args.checkpoint == "m.npz"
        ckpt, other = tmp_path / "model.npz", tmp_path / "other.npz"
        assert main(train_args(corpus_path, ckpt, checkpoint=other)) == 0
        assert ckpt.exists() and not other.exists()

    def test_variant_flag_sblstm(self, tmp_path, corpus_path):
        ckpt = tmp_path / "model.npz"
        code = main(train_args(corpus_path, ckpt) + ["--variant", "sblstm"])
        assert code == 0
        _, cfg, _ = load_model(ckpt)
        assert cfg.variant == "sblstm"

    @pytest.mark.parametrize("name, variant", [("SAN", "san"), ("sblstm", "sblstm"),
                                               ("San-NoBLSTM2", "san-noblstm2")])
    def test_documented_variant_names_load(self, name, variant):
        assert cli._config(SanConfig, load_run_config(None, {"variant": name})).variant == variant

    @pytest.mark.parametrize("name", ["s-blstm", "san-minus-blstm2", "san_noblstm2"])
    def test_undocumented_variant_alias_exit_3(self, tmp_path, corpus_path, name):
        ckpt = tmp_path / "model.npz"
        assert main(train_args(corpus_path, ckpt) + ["--variant", name]) == 3
        assert not ckpt.exists()

    def test_missing_embeddings_warns_random_init(self, tmp_path, corpus_path, caplog):
        ckpt = tmp_path / "model.npz"
        assert main(train_args(corpus_path, ckpt)) == 0
        assert "random initialization" in caplog.text

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_embedding_value_exit_3(self, tmp_path, corpus_path, caplog, bad):
        emb = tmp_path / "emb.txt"
        rows = [f"{w} " + " ".join(["0.25"] * 8) for w in WORDS[:3]]
        rows[1] = rows[1].rsplit(" ", 1)[0] + f" {bad}"
        emb.write_text("3 8\n" + "\n".join(rows) + "\n")
        code = main(train_args(corpus_path, tmp_path / "model.npz")
                    + ["--embeddings", str(emb)])
        assert code == 3
        assert f"{emb}:3:" in caplog.text

    def test_embedding_tokens_folding_together_exit_3(self, tmp_path, corpus_path, caplog):
        emb = tmp_path / "emb.txt"
        emb.write_text("3 2\niPhone 0.25 0.25\nworks 0.5 0.5\niphone 1.0 1.0\n")
        code = main(train_args(corpus_path, tmp_path / "model.npz")
                    + ["--embeddings", str(emb)])
        assert code == 3
        assert "lines 2 and 4" in caplog.text

    @pytest.mark.parametrize("token", ["", "\t"], ids=["empty", "tab"])
    def test_empty_embedding_token_exit_3(self, tmp_path, corpus_path, caplog, token):
        # A row no lookup can reach: the tokenizer never yields such a token.
        emb = tmp_path / "emb.txt"
        emb.write_text(f"3 2\nworks 0.25 0.25\n{token} 0.5 0.5\niphone 1.0 1.0\n")
        code = main(train_args(corpus_path, tmp_path / "model.npz")
                    + ["--embeddings", str(emb)])
        assert code == 3
        assert f"{emb}:3:" in caplog.text

    def test_no_labeled_record_exit_3(self, tmp_path, pool_path, caplog):
        ckpt = tmp_path / "model.npz"
        assert main(train_args(pool_path, ckpt)) == 3
        assert f"{pool_path}: no labeled records to train on" in caplog.text
        assert not ckpt.exists()

    def test_vector_file_width_overrides_embedding_dim(self, tmp_path, corpus_path, caplog):
        emb, ckpt = tmp_path / "emb.txt", tmp_path / "model.npz"
        vocab = Vocabulary(list(RESERVED) + [w.lower() for w in WORDS])
        vectors = np.random.default_rng(0).normal(size=(len(vocab), 5))
        save_embeddings(EmbeddingMatrix(vocab, vectors), emb)
        caplog.set_level("INFO", logger="fnr")
        assert main(train_args(corpus_path, ckpt) + ["--embeddings", str(emb)]) == 0
        assert "embedding file is 5-dimensional; overriding embedding_dim 8" in caplog.text
        params, cfg, _ = load_model(ckpt)
        assert cfg.embedding_dim == 5 and params.embedding.shape == (len(vocab), 5)

    def test_bank_cache_without_pool_rejected(self, tmp_path, corpus_path, pool_path, caplog):
        cache = tmp_path / "bank.jsonl"
        assert main(["build-bank", "--labeled", str(corpus_path), "--pool", str(pool_path),
                     "--out", str(cache)]) == 0
        code = main(train_args(corpus_path, tmp_path / "model.npz")
                    + ["--bank-cache", str(cache)])
        assert code == 3
        assert "bank_cache needs pool" in caplog.text

    def test_deterministic_checkpoints_and_logs(self, tmp_path, corpus_path, pool_path):
        blobs = []
        for tag in ("a", "b"):
            ckpt = tmp_path / f"{tag}.npz"
            log = tmp_path / f"{tag}.log.jsonl"
            code = main(train_args(corpus_path, ckpt)
                        + ["--pool", str(pool_path), "--epoch-log", str(log)])
            assert code == 0
            blobs.append((ckpt.read_bytes(), log.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_config_file_with_cli_override(self, tmp_path, corpus_path):
        ckpt = tmp_path / "model.npz"
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "seed=1\nembedding_dim=8\nhidden_size=6\nattention_dim=6\nmax_len=8\n"
            "bank_size=2\ndropout=0.0\nlr=0.02\nbatch_size=8\nmax_epochs=2\npatience=1\n"
            f"corpus={corpus_path}\ncheckpoint={ckpt}\n")
        assert main(["train", "--config", str(cfg_file), "--seed", "2"]) == 0
        _, cfg, _ = load_model(ckpt)
        assert cfg.seed == 2

    def test_json_config_accepted(self, tmp_path, corpus_path):
        ckpt = tmp_path / "model.npz"
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({
            "seed": 4, "embedding_dim": 8, "hidden_size": 6, "attention_dim": 6,
            "max_len": 8, "bank_size": 2, "dropout": 0.0, "lr": 0.02,
            "batch_size": 8, "max_epochs": 2, "patience": 1,
            "corpus": str(corpus_path), "checkpoint": str(ckpt)}))
        assert main(["train", "--config", str(cfg_file)]) == 0

    @pytest.mark.parametrize("value", ["77", "x"])
    def test_environment_does_not_set_seed(self, tmp_path, corpus_path, monkeypatch, value):
        ckpt = tmp_path / "model.npz"
        monkeypatch.setenv("SAN_SEED", value)
        args = train_args(corpus_path, ckpt)
        args.remove("--seed")
        args.remove("3")
        assert main(args) == 0
        _, cfg, _ = load_model(ckpt)
        assert cfg.seed == SanConfig.seed == 13

    def test_unknown_config_key_exit_3(self, tmp_path, corpus_path):
        ckpt = tmp_path / "model.npz"
        code = main(train_args(corpus_path, ckpt) + ["--set", "bogus=1"])
        assert code == 3

    @pytest.mark.parametrize("key, value", [("hidden_size", 6.5), ("variant", 3)])
    def test_json_value_of_wrong_type_exit_3(self, tmp_path, corpus_path, key, value):
        ckpt = tmp_path / "model.npz"
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({key: value, "corpus": str(corpus_path),
                                        "checkpoint": str(ckpt)}))
        assert main(["train", "--config", str(cfg_file)]) == 3
        assert not ckpt.exists()

    def test_set_without_equals_exit_3_as_in_a_config_file(self, tmp_path, corpus_path,
                                                          caplog):
        # --set lines follow the config file's key=value rule, and break it
        # with the same exit code.
        ckpt, cfg_file = tmp_path / "model.npz", tmp_path / "run.cfg"
        cfg_file.write_text("novalue\n")
        assert main(train_args(corpus_path, ckpt) + ["--config", str(cfg_file)]) == 3
        assert f"{cfg_file}:1: expected key=value" in caplog.text
        assert main(train_args(corpus_path, ckpt) + ["--set", "novalue"]) == 3
        assert "--set: expected key=value, got 'novalue'" in caplog.text
        assert not ckpt.exists()

    @pytest.mark.parametrize("argv", [["train", "--bogus"], ["train", "--seed"],
                                      ["evaluate", "--data", "x.jsonl"]],
                             ids=["unknown_flag", "flag_without_value", "missing_required"])
    def test_usage_errors_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_report_key_exit_3(self, tmp_path, corpus_path):
        ckpt = tmp_path / "model.npz"
        assert main(train_args(corpus_path, ckpt) + ["--set", "report=x"]) == 3

    def test_share_bank_encoder_key_exit_3(self, tmp_path, corpus_path, caplog):
        # The bank encoder is always separate; the old switch is no key.
        ckpt = tmp_path / "model.npz"
        assert main(train_args(corpus_path, ckpt, share_bank_encoder="false")) == 3
        assert "unknown config key 'share_bank_encoder'" in caplog.text
        assert not ckpt.exists()

    def test_missing_corpus_exit_2(self, tmp_path):
        code = main(["train", "--corpus", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "m.npz")])
        assert code == 2

    @pytest.mark.parametrize("out", ["no/such/dir/m.npz", "."], ids=["missing_dir", "a_dir"])
    def test_unwritable_checkpoint_exit_2_before_training(self, tmp_path, corpus_path,
                                                          monkeypatch, capsys, caplog, out):
        reads = []
        monkeypatch.setattr(cli, "load_corpus", lambda path: reads.append(path) or load_corpus(path))
        ckpt = tmp_path / out
        before = sorted(tmp_path.rglob("*"))
        assert main(train_args(corpus_path, ckpt)) == 2
        assert reads == [] and "epoch" not in capsys.readouterr().out
        assert str(ckpt) in caplog.text
        assert sorted(tmp_path.rglob("*")) == before

    @UNWRITABLE
    def test_unwritable_epoch_log_exit_2_before_reading(self, tmp_path, corpus_path,
                                                        monkeypatch, caplog, out):
        epoch_log = tmp_path / out
        assert_exit_2_before_reading(monkeypatch, caplog, train_args(
            corpus_path, tmp_path / "m.npz") + ["--epoch-log", str(epoch_log)], epoch_log)

    def test_empty_validation_split_exit_3(self, tmp_path):
        # split() cuts 3 records 3/0/0.
        corpus = tmp_path / "three.jsonl"
        save_corpus(corpus, labeled_records()[:3])
        ckpt = tmp_path / "model.npz"
        assert main(train_args(corpus, ckpt)) == 3
        assert not ckpt.exists()

    def test_divergence_exit_4(self, tmp_path, corpus_path):
        ckpt = tmp_path / "model.npz"
        code = main(train_args(corpus_path, ckpt, lr="1e200"))
        assert code == 4

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_exit_3_before_any_step(self, tmp_path, corpus_path, monkeypatch, lr):
        steps = []

        def spy(*args, **kwargs):
            steps.append(kwargs)
            return real(*args, **kwargs)

        real = training.adam_step
        monkeypatch.setattr(training, "adam_step", spy)
        ckpt = tmp_path / "model.npz"
        assert main(train_args(corpus_path, ckpt, lr=lr)) == 3
        assert steps == [] and not ckpt.exists()

    def test_epoch_log_stream_on_stdout(self, tmp_path, corpus_path, capsys):
        ckpt = tmp_path / "model.npz"
        assert main(train_args(corpus_path, ckpt)) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("{")]
        epochs = [json.loads(l) for l in lines if "epoch" in json.loads(l)]
        assert epochs and epochs[0]["epoch"] == 1
        assert "val" in epochs[0]

    def test_one_epoch_run_logs_one_epoch(self, tmp_path, corpus_path):
        epoch_log = tmp_path / "epochs.jsonl"
        assert main(train_args(corpus_path, tmp_path / "model.npz", max_epochs=1)
                    + ["--epoch-log", str(epoch_log)]) == 0
        assert [json.loads(l)["epoch"] for l in epoch_log.read_text().splitlines()] == [1]


@pytest.fixture(scope="module")
def overfit_ckpt(tmp_path_factory):
    """A micro model overfit on the labeled fixture, banks empty.

    Records are replicated so the internal 70/10/20 split leaves a copy of
    every distinct question in the training part; with the fixed seed the
    model then memorizes the whole corpus.
    """
    root = tmp_path_factory.mktemp("overfit")
    corpus = root / "labeled.jsonl"
    save_corpus(corpus, labeled_records() * 4)
    ckpt = root / "model.npz"
    args = ["train", "--corpus", str(corpus), "--out", str(ckpt), "--seed", "5",
            "--set", "embedding_dim=12", "--set", "hidden_size=10",
            "--set", "attention_dim=10", "--set", "max_len=8",
            "--set", "bank_size=2", "--set", "dropout=0.0",
            "--set", "lr=0.02", "--set", "batch_size=8",
            "--set", "max_epochs=150", "--set", "patience=149"]
    assert main(args) == 0
    return corpus, ckpt


class TestEvaluate:
    def test_overfit_model_scores_one(self, tmp_path, overfit_ckpt, capsys):
        corpus, ckpt = overfit_ckpt
        report = tmp_path / "report.json"
        code = main(["evaluate", "--model", str(ckpt), "--data", str(corpus),
                     "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        metrics = payload["models"][0]["metrics"]
        assert metrics["span"]["f1"] == 1.0
        assert metrics["token"]["f1"] == 1.0

    @UNWRITABLE
    def test_unwritable_report_exit_2_before_reading(self, tmp_path, overfit_ckpt,
                                                     monkeypatch, caplog, out):
        corpus, ckpt = overfit_ckpt
        report = tmp_path / out
        assert_exit_2_before_reading(monkeypatch, caplog, [
            "evaluate", "--model", str(ckpt), "--data", str(corpus),
            "--report", str(report)], report)

    def test_no_labeled_record_exit_3_before_reading_a_model(self, tmp_path, pool_path,
                                                              caplog):
        assert main(["evaluate", "--model", str(tmp_path / "none.npz"),
                     "--data", str(pool_path)]) == 3
        assert f"{pool_path}: no labeled records to evaluate" in caplog.text

    def test_report_schema(self, tmp_path, overfit_ckpt):
        corpus, ckpt = overfit_ckpt
        report = tmp_path / "report.json"
        main(["evaluate", "--model", str(ckpt), "--data", str(corpus),
              "--report", str(report)])
        payload = json.loads(report.read_text())
        assert set(payload) == {"data", "models"}
        row = payload["models"][0]
        assert set(row) == {"path", "variant", "metrics", "truncated_gold_spans"}
        assert row["truncated_gold_spans"] == 0
        for level in ("span", "token"):
            assert set(row["metrics"][level]) == {"precision", "recall", "f1",
                                                  "tp", "fp", "fn"}

    def test_truncated_gold_spans_reported(self, tmp_path, overfit_ckpt):
        # max_len is 8: the span at 6..8 is cut short and the one at 10 dropped.
        _, ckpt = overfit_ckpt
        long = QaRecord("long", "laptop", WORDS[:11],
                        tags=["F", "O", "O", "F", "F", "O", "F", "F", "F", "O", "F"])
        data = tmp_path / "long.jsonl"
        save_corpus(data, labeled_records() + [long])
        report = tmp_path / "report.json"
        assert main(["evaluate", "--model", str(ckpt), "--data", str(data),
                     "--report", str(report)]) == 0
        row = json.loads(report.read_text())["models"][0]
        assert row["truncated_gold_spans"] == 2
        assert "truncated_gold_spans" not in json.dumps(row["metrics"])

    @pytest.mark.parametrize("case, named", [
        ("config_value_of_wrong_type", "hidden_size"),
        ("legacy_shared_encoder", "share_bank_encoder"),
        ("legacy_shared_encoder_as_text", "share_bank_encoder"),
        ("top_level_array", "not a JSON object"),
        ("config_array", "not a JSON object"),
        ("format_version_1", "format_version"),
        ("unknown_variant", "crf"),
        ("unnormalised_vocab_token", "iPhone"),
        ("float32_tensor", "proj.w"),
        ("no_meta_entry", "bad.npz"),
        ("truncated_half", "bad.npz"),
        ("bare_npy", "bad.npz"),
        ("format_version_2_json", "bad.npz")])
    def test_malformed_checkpoint_exit_3(self, tmp_path, overfit_ckpt, caplog, case, named):
        corpus, ckpt = overfit_ckpt
        bad = tmp_path / "bad.npz"

        def edit(meta, arrays):
            if case == "config_value_of_wrong_type":
                meta["config"]["hidden_size"] = "10"
            elif case == "legacy_shared_encoder":
                meta["config"]["share_bank_encoder"] = True
            elif case == "legacy_shared_encoder_as_text":
                meta["config"]["share_bank_encoder"] = "no"
            elif case == "top_level_array":
                return [meta]
            elif case == "config_array":
                meta["config"] = [meta["config"]]
            elif case == "format_version_1":
                meta["format_version"] = 1
            elif case == "unknown_variant":
                meta["config"]["variant"] = "crf"
            elif case == "unnormalised_vocab_token":
                vocab = meta["config"]["vocab"]
                vocab[vocab.index("iphone")] = "iPhone"
            elif case == "float32_tensor":
                arrays["proj.w"] = arrays["proj.w"].astype(np.float32)
            elif case == "no_meta_entry":
                return None
            return meta

        if case == "truncated_half":
            blob = ckpt.read_bytes()
            bad.write_bytes(blob[:len(blob) // 2])
        elif case == "bare_npy":
            with bad.open("wb") as fh:
                np.save(fh, read_checkpoint(ckpt)[1]["proj.w"])
        elif case == "format_version_2_json":
            meta, arrays = read_checkpoint(ckpt)
            tensors = {name: {"shape": list(a.shape),
                              "data": base64.b64encode(a.tobytes()).decode("ascii")}
                       for name, a in arrays.items()}
            bad.write_text(json.dumps({**meta, "format_version": 2, "tensors": tensors}))
        else:
            rewrite_checkpoint(ckpt, bad, edit)
        assert main(["evaluate", "--model", str(bad), "--data", str(corpus)]) == 3
        assert named in caplog.text

    def test_legacy_separate_encoder_key_loads(self, tmp_path, overfit_ckpt, monkeypatch):
        # Format-3 files from before the bank encoder was always separate
        # carry share_bank_encoder=false and load as the same model.
        corpus, ckpt = overfit_ckpt
        legacy = tmp_path / "legacy.npz"

        def edit(meta, arrays):
            meta["config"]["share_bank_encoder"] = False
            return meta
        rewrite_checkpoint(ckpt, legacy, edit)

        def evaluate_probs(path):
            seen = []

            def recording(*args, **kwargs):
                seen.append(forward_batch(*args, **kwargs))
                return seen[-1]
            monkeypatch.setattr(training, "forward_batch", recording)
            assert main(["evaluate", "--model", str(path), "--data", str(corpus)]) == 0
            return [probs.data for probs, _ in seen]

        want, got = evaluate_probs(ckpt), evaluate_probs(legacy)
        assert len(got) == len(want) > 0 and all(map(np.array_equal, got, want))

    @pytest.mark.parametrize("labels", [5, None, "FO", ["F", 0]],
                             ids=["int", "null", "string", "non_string_item"])
    def test_checkpoint_labels_not_strings_exit_3(self, tmp_path, overfit_ckpt, caplog, labels):
        corpus, ckpt = overfit_ckpt
        bad = tmp_path / "bad.npz"

        def edit(meta, arrays):
            meta["config"]["labels"] = labels
            return meta
        rewrite_checkpoint(ckpt, bad, edit)
        assert main(["evaluate", "--model", str(bad), "--data", str(corpus)]) == 3
        assert "'labels'" in caplog.text

    def test_multi_model_table(self, tmp_path, overfit_ckpt, capsys):
        corpus, ckpt = overfit_ckpt
        code = main(["evaluate", "--model", str(ckpt), "--model", str(ckpt),
                     "--data", str(corpus)])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].split() == ["Method", "P", "R", "F1"]
        assert len([l for l in out if l.strip().startswith("san")]) == 2

    def test_pool_loaded_once_per_bank_setting(self, tmp_path, overfit_ckpt, pool_path,
                                               monkeypatch):
        corpus, ckpt = overfit_ckpt
        vocab = Vocabulary(list(RESERVED) + WORDS)
        cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4, max_len=8,
                        bank_size=2, dropout=0.0, variant="sblstm", seed=1)
        sblstm = tmp_path / "sblstm.npz"
        save_model(sblstm, SanParams.build(cfg, len(vocab), np.random.default_rng(0)),
                   cfg, vocab)
        loads, indexed = [], []

        def counting_load(path):
            loads.append(str(path))
            return real_load(path)

        class SpyIndex(cli.Bm25Index):
            def __init__(self, pool):
                indexed.append(len(pool))
                super().__init__(pool)

        real_load = cli.load_corpus
        monkeypatch.setattr(cli, "load_corpus", counting_load)
        monkeypatch.setattr(cli, "Bm25Index", SpyIndex)
        assert main(["evaluate", "--model", str(ckpt), "--model", str(sblstm),
                     "--model", str(ckpt), "--data", str(corpus),
                     "--pool", str(pool_path)]) == 0
        assert loads.count(str(pool_path)) == 1
        assert indexed == [len(pool_records())]


# JSON values of each type, for retyping a meta key to a type it is not.
JSON_VALUES = {type(None): st.none(), bool: st.booleans(), int: st.integers(-3, 200),
               float: st.floats(), str: st.text(max_size=4),
               list: st.lists(st.integers(0, 3), max_size=3),
               dict: st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)}


class TestDamagedCheckpoint:
    """``evaluate`` on a damaged checkpoint exits 0, 2, 3 or 4, never with
    a traceback, and exits 0 only if the model it reads is the original."""

    @pytest.fixture(scope="class")
    def original(self, overfit_ckpt, tmp_path_factory):
        """A one-question corpus, and the overfit checkpoint's bytes, meta,
        arrays and loaded model, read once for every example."""
        corpus = tmp_path_factory.mktemp("damaged") / "one.jsonl"
        save_corpus(corpus, labeled_records()[:1])
        _, ckpt = overfit_ckpt
        return corpus, ckpt.read_bytes(), *read_checkpoint(ckpt), load_model(ckpt)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_evaluate_exit_code_total(self, original, data):
        corpus, blob, meta, arrays, (orig, orig_cfg, orig_vocab) = original
        meta, arrays = copy.deepcopy(meta), dict(arrays)
        bad = corpus.with_name("damaged.npz")
        kind = data.draw(st.sampled_from(["truncate", "flip", "drop_key", "retype_key",
                                          "retype_tensor", "non_finite_tensor"]))
        if kind == "truncate":
            bad.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
        elif kind == "flip":
            damaged = bytearray(blob)
            damaged[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
            bad.write_bytes(damaged)
        else:
            if kind in ("drop_key", "retype_key"):
                keys = [(meta, k) for k in meta] + [(meta["config"], k) for k in meta["config"]]
                owner, key = data.draw(st.sampled_from(keys))
                if kind == "drop_key":
                    del owner[key]
                else:
                    kinds = [t for t in JSON_VALUES if t is not type(owner[key])]
                    owner[key] = data.draw(JSON_VALUES[data.draw(st.sampled_from(kinds))])
            else:
                name = data.draw(st.sampled_from(sorted(arrays)))
                if kind == "retype_tensor":
                    dtype = data.draw(st.sampled_from(["<f4", ">f8", "<i8", "<f2", "<c16", "|b1"]))
                    arrays[name] = arrays[name].astype(dtype)
                else:
                    arrays[name] = arrays[name].copy()
                    arrays[name].flat[data.draw(st.integers(0, arrays[name].size - 1))] = \
                        data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
            write_checkpoint(bad, meta, arrays)
        code = main(["evaluate", "--model", str(bad), "--data", str(corpus)])
        assert code in (0, 2, 3, 4)
        if code == 0:
            params, cfg, vocab = load_model(bad)
            assert cfg == orig_cfg and vocab.id_to_token == orig_vocab.id_to_token
            assert params.group.names() == orig.group.names()
            for name, t in orig.group.items():
                assert np.array_equal(params.group[name].data, t.data)


class TestDamagedBankCache:
    """``evaluate --pool --bank-cache`` on a damaged ``build-bank`` cache
    exits 0, 2, 3 or 4, never with a traceback, and exits 0 only if the
    cache parses to the original banks."""

    @pytest.fixture(scope="class")
    def original(self, overfit_ckpt, tmp_path_factory):
        """Corpus, pool, the cache's header and entries as JSON objects,
        and the banks it loads to, built once for every example."""
        root = tmp_path_factory.mktemp("damaged_cache")
        corpus, pool, cache = root / "labeled.jsonl", root / "pool.jsonl", root / "banks.jsonl"
        save_corpus(corpus, labeled_records()[:3])
        save_corpus(pool, pool_records())
        assert main(["build-bank", "--labeled", str(corpus), "--pool", str(pool),
                     "--out", str(cache)]) == 0
        header, *entries = map(json.loads, cache.read_text(encoding="utf-8").splitlines())
        sources = {"labeled": str(corpus), "pool": str(pool)}
        return overfit_ckpt[1], sources, header, entries, load_bank_cache(cache, sources)

    @staticmethod
    def damage(data, header, entries) -> list[str]:
        """The cache's lines with one drawn mutation."""
        kind = data.draw(st.sampled_from(["drop_key", "retype_key", "line_number", "repeat",
                                          "header_malformed", "header_misplaced",
                                          "header_stale", "truncate"]))
        entry = entries[data.draw(st.integers(0, len(entries) - 1))]
        if kind in ("drop_key", "retype_key"):
            key = data.draw(st.sampled_from(["query_line", "bank_lines"]))
            if kind == "drop_key":
                del entry[key]
            else:
                kinds = [t for t in JSON_VALUES if t is not type(entry[key])]
                entry[key] = data.draw(JSON_VALUES[data.draw(st.sampled_from(kinds))])
        elif kind == "line_number":
            value = data.draw(st.sampled_from([0, -1, 1.5, True, "1"]))
            lines = entry["bank_lines"]
            if lines and data.draw(st.booleans()):
                lines[data.draw(st.integers(0, len(lines) - 1))] = value
            else:
                entry["query_line"] = value
        elif kind == "repeat":
            entries.insert(data.draw(st.integers(0, len(entries))), dict(entry))
        elif kind == "header_malformed":
            if data.draw(st.booleans()):
                header["sha256"] = data.draw(JSON_VALUES[data.draw(st.sampled_from(
                    [t for t in JSON_VALUES if t is not dict]))])
            else:
                header["sha256"][data.draw(st.sampled_from(["labeled", "pool"]))] = 5
        elif kind == "header_stale":
            role = data.draw(st.sampled_from(["labeled", "pool"]))
            if data.draw(st.booleans()):
                del header["sha256"][role]
            else:
                header["sha256"][role] = hashlib.sha256(b"stale").hexdigest()
        lines = [json.dumps(header)] + [json.dumps(e) for e in entries]
        if kind == "header_misplaced":
            lines.insert(data.draw(st.integers(1, len(lines) - 1)), lines.pop(0))
        elif kind == "truncate":
            i = data.draw(st.integers(0, len(lines) - 1))
            lines[i] = lines[i][:data.draw(st.integers(0, len(lines[i]) - 1))]
        return lines

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_evaluate_exit_code_total(self, original, data):
        ckpt, sources, header, entries, banks = original
        lines = self.damage(data, copy.deepcopy(header), copy.deepcopy(entries))
        bad = ckpt.with_name("damaged_banks.jsonl")
        bad.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        code = main(["evaluate", "--model", str(ckpt), "--data", sources["labeled"],
                     "--pool", sources["pool"], "--bank-cache", str(bad)])
        assert code in (0, 2, 3, 4)
        if code == 0:
            assert load_bank_cache(bad, sources) == banks


GOOD_LINE = {"product_id": "p1", "category": "laptop",
             "question_tokens": ["works", "with", "iphone", "?"],
             "answer_text": "yes it does", "tags": ["F", "F", "F", "O"]}


def well_formed(obj) -> bool:
    """The corpus-line rules, restated apart from ``load_corpus``."""
    if not isinstance(obj, dict):
        return False
    tokens, answer, tags = obj.get("question_tokens"), obj.get("answer_text"), obj.get("tags")
    return (type(obj.get("product_id")) is str and type(obj.get("category")) is str
            and type(tokens) is list and len(tokens) > 0
            and all(type(t) is str for t in tokens)
            and (answer is None or type(answer) is str)
            and (tags is None or (type(tags) is list and len(tags) == len(tokens)
                                  and all(t in ("F", "O") for t in tags))))


@st.composite
def damaged_line(draw) -> str:
    """``GOOD_LINE`` with one mutation, as the text of one corpus line with
    its line end.  Record kinds change a value; text kinds change the
    framing around the JSON or its spelling."""
    obj = copy.deepcopy(GOOD_LINE)
    kind = draw(st.sampled_from(["drop_key", "retype_key", "retype_token", "empty_tokens",
                                 "tags_length", "unknown_tag", "truncate", "lead_space",
                                 "trail_space", "bom", "two_objects", "trailing_x",
                                 "top_level", "nan_token", "duplicate_key", "escaped_tokens",
                                 "no_newline"]))
    if kind == "drop_key":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif kind == "retype_key":
        key = draw(st.sampled_from(sorted(obj)))
        kinds = [t for t in JSON_VALUES if t is not type(obj[key])]
        obj[key] = draw(JSON_VALUES[draw(st.sampled_from(kinds))])
    elif kind == "retype_token":
        kind_of = draw(st.sampled_from([int, bool, type(None), list, dict]))
        obj["question_tokens"][draw(st.integers(0, 3))] = draw(JSON_VALUES[kind_of])
    elif kind == "empty_tokens":
        obj["question_tokens"] = []
    elif kind == "tags_length":
        obj["tags"] = (obj["tags"] * 2)[:draw(st.sampled_from([0, 1, 3, 5, 8]))]
    elif kind == "unknown_tag":
        obj["tags"][draw(st.integers(0, 3))] = draw(
            st.text(max_size=2).filter(lambda t: t not in ("F", "O")))
    elif kind == "nan_token":   # json.dumps writes the NaN / Infinity tokens
        obj["question_tokens"][draw(st.integers(0, 3))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "escaped_tokens":   # \uXXXX escapes, astral ones as surrogate pairs
        obj["question_tokens"][draw(st.integers(0, 3))] = draw(
            st.text(st.characters(min_codepoint=0x80), min_size=1, max_size=3))
    text, end = json.dumps(obj), "\n"
    if kind == "truncate":
        text = text[:draw(st.integers(1, len(text) - 1))]
    elif kind == "lead_space":
        text = draw(st.sampled_from([" ", "  ", "\t", " \t"])) + text
    elif kind == "trail_space":
        # The last two are whitespace to str.strip() but not to JSON.
        end = draw(st.sampled_from(["\r\n", "\t\n", " \n", " \t ", "\x0c\n", "\u00a0\n"]))
    elif kind == "bom":
        text = "\ufeff" + text
    elif kind == "two_objects":
        text += draw(st.sampled_from(["", " "])) + json.dumps(GOOD_LINE)
    elif kind == "trailing_x":
        text += "x"
    elif kind == "top_level":
        text = draw(st.sampled_from([json.dumps([GOOD_LINE]), "[]", "7", "-0.5", '"p1"']))
    elif kind == "duplicate_key":
        key = draw(st.sampled_from(sorted(GOOD_LINE)))
        value = draw(st.sampled_from([GOOD_LINE[key], "p2", 3, None]))
        text = text[:-1] + f", {json.dumps(key)}: {json.dumps(value)}}}"
    elif kind == "no_newline":
        end = ""
    return text + end


class TestDamagedCorpusLine:
    """A corpus whose second line is ``GOOD_LINE`` with one mutation."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("damaged_corpus")

    @staticmethod
    def write(workdir, line):
        path = workdir / "corpus.jsonl"
        path.write_text(json.dumps(GOOD_LINE) + "\n" + line, encoding="utf-8")
        try:
            return path, json.loads(line)
        except json.JSONDecodeError:
            return path, None

    @given(line=damaged_line())
    @settings(max_examples=150, deadline=None)
    def test_load_raises_naming_the_line_or_returns_the_record(self, workdir, line):
        path, obj = self.write(workdir, line)
        if not well_formed(obj):
            with pytest.raises(CorpusError, match=r"^line 2: "):
                load_corpus(path)
            return
        records = load_corpus(path)
        assert records[1] == QaRecord(obj["product_id"], obj["category"],
                                      obj["question_tokens"], obj.get("answer_text"),
                                      obj.get("tags"), line_no=2)

    @given(line=damaged_line())
    @settings(max_examples=200, deadline=None)
    def test_load_decodes_as_json_loads_does(self, workdir, line):
        """Whatever the line's framing (whitespace, BOM, extra data, escapes,
        line end), ``load_corpus`` returns the record of ``json.loads(line)``
        or raises exactly the message that decode or its record check gives."""
        path, _ = self.write(workdir, line)
        try:
            want = _parse_record(json.loads(line), 2, _StringTable())
        except json.JSONDecodeError as err:
            want = f"line 2: invalid JSON ({err.msg})"
        except CorpusError as err:
            want = str(err)
        try:
            got = load_corpus(path)[1]
        except CorpusError as err:
            got = str(err)
        assert got == want

    @given(line=damaged_line())
    @settings(max_examples=100, deadline=None)
    def test_build_bank_exits_0_or_3(self, workdir, line):
        path, obj = self.write(workdir, line)
        code = main(["build-bank", "--labeled", str(path), "--pool", str(path),
                     "--out", str(workdir / "banks.jsonl")])
        assert code == (0 if well_formed(obj) else 3)

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_train_and_evaluate_exit_3_naming_the_line(self, workdir, overfit_ckpt, caplog,
                                                       command):
        path, _ = self.write(workdir, "{not json\n")
        if command == "train":
            args = train_args(path, workdir / "model.npz")
        else:
            args = ["evaluate", "--model", str(overfit_ckpt[1]), "--data", str(path)]
        assert main(args) == 3
        assert "line 2" in caplog.text


FLOAT_TEXT = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
INT_TEXT = re.compile(r"[+-]?\d+")


def read_embedding_text(text):
    """The embedding-file rules, restated apart from ``load_embeddings``:
    the (tokens, vectors) a well-formed file loads to, else None.

    The header is two integers, the row count and the dimension.  Every
    non-blank line after it is a token, which holds no whitespace, and
    ``dim`` finite decimal values, one space apart.  Tokens other than the
    reserved ones are lowercased and must stay distinct; reserved rows
    the file lacks, and the PAD row always, read as zeros."""
    header, *lines = text.split("\n")
    head = header.split()
    if len(head) != 2 or not all(INT_TEXT.fullmatch(h) for h in head):
        return None
    n_rows, dim = map(int, head)
    rows = {}
    for line in lines:
        if not line.strip():
            continue
        token, *values = line.split(" ")
        if token.split() != [token] or len(values) != dim:
            return None
        if not all(FLOAT_TEXT.fullmatch(v) and math.isfinite(float(v)) for v in values):
            return None
        token = token if token in RESERVED else token.lower()
        if token in rows:
            return None
        rows[token] = [float(v) for v in values]
    if len(rows) != n_rows:
        return None
    rows[RESERVED[0]] = [0.0] * dim
    tokens = list(RESERVED) + [t for t in rows if t not in RESERVED]
    return tokens, np.array([rows.get(t, [0.0] * dim) for t in tokens]).reshape(-1, dim)


class TestDamagedEmbeddingFile:
    """``train --embeddings`` on a damaged ``save_embeddings`` file exits 3
    exactly when ``read_embedding_text`` rejects the file, and otherwise
    exits 0 having loaded what that restatement reads."""

    @pytest.fixture(scope="class")
    def original(self, tmp_path_factory):
        """A corpus and the lines of an embedding file over its words."""
        root = tmp_path_factory.mktemp("damaged_embeddings")
        corpus, emb = root / "labeled.jsonl", root / "emb.txt"
        save_corpus(corpus, labeled_records())
        vocab = Vocabulary(list(RESERVED) + WORDS)
        vectors = np.random.default_rng(7).normal(size=(len(vocab), 8))
        save_embeddings(EmbeddingMatrix(vocab, vectors), emb)
        return corpus, emb.read_text(encoding="utf-8").splitlines()

    @staticmethod
    def damage(data, lines) -> list[str]:
        """The file's lines with one drawn mutation."""
        kind = data.draw(st.sampled_from(["header_count", "header_dim", "short_row",
                                          "long_row", "non_finite", "non_numeric",
                                          "empty_token", "fold", "truncate"]))
        n_rows, dim = map(int, lines[0].split())
        row = data.draw(st.integers(1, len(lines) - 1))
        token, *values = lines[row].split(" ")
        if kind in ("header_count", "header_dim"):
            head = [str(n_rows), str(dim)]
            j = 0 if kind == "header_count" else 1
            head[j] = data.draw(st.sampled_from(
                [str(int(head[j]) + d) for d in (-1, 1, 7)] + ["0", "-1", "x", "3.0", ""]))
            lines[0] = " ".join(head)
        elif kind == "short_row":
            lines[row] = " ".join([token] + values[:data.draw(st.integers(0, dim - 1))])
        elif kind == "long_row":
            lines[row] += " 0.5" * data.draw(st.integers(1, 3))
        elif kind in ("non_finite", "non_numeric"):
            values[data.draw(st.integers(0, dim - 1))] = data.draw(st.sampled_from(
                ["nan", "inf", "-inf", "NaN", "1e999"] if kind == "non_finite"
                else ["abc", "", "0x1A", "1..5", "--1", "1,5", "e3", "."]))
            lines[row] = " ".join([token] + values)
        elif kind == "empty_token":
            lines[row] = " ".join([data.draw(st.sampled_from(["", "\t"]))] + values)
        elif kind == "fold":
            # Its own or another word's token, as written or with its case
            # changed: only its own folds to no other row's token.
            other = row if data.draw(st.booleans()) else data.draw(
                st.integers(4, len(lines) - 1).filter(lambda i: i != row))
            twin = lines[other].split(" ")[0]
            lines[row] = " ".join([data.draw(st.sampled_from([twin, twin.upper(),
                                                              twin.title()]))] + values)
        else:
            row = data.draw(st.integers(0, len(lines) - 1))
            lines[row] = lines[row][:data.draw(st.integers(0, len(lines[row]) - 1))]
            if data.draw(st.booleans()):
                del lines[row + 1:]
        return lines

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_train_exit_code_total(self, original, data):
        corpus, lines = original
        text = "".join(line + "\n" for line in self.damage(data, list(lines)))
        bad = corpus.with_name("damaged_emb.txt")
        bad.write_text(text, encoding="utf-8")
        code = main(train_args(corpus, corpus.with_name("model.npz"), max_epochs=2, patience=1)
                    + ["--embeddings", str(bad)])
        expected = read_embedding_text(text)
        assert code == (3 if expected is None else 0)
        if code == 0:
            matrix = load_embeddings(bad)
            assert matrix.vocab.id_to_token == expected[0]
            assert np.array_equal(matrix.vectors, expected[1])


MODEL_KEYS = {f.name: f.type for f in dataclasses.fields(SanConfig)}
TRAIN_KEYS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
CONFIG_KINDS = {**MODEL_KEYS, **TRAIN_KEYS, "corpus": "path", "checkpoint": "path"}
JSON_KINDS = {"int": (int,), "float": (int, float), "str": (str,), "path": (str, type(None))}


def read_config_text(text):
    """The run-config rules, restated apart from ``load_run_config``: the
    (SanConfig, corpus, checkpoint) a well-formed config file gives, else
    None.

    A file whose first non-blank character is ``{`` is a JSON object;
    anything else is ``key=value`` lines, blank and ``#`` lines skipped.
    Keys are the fields of SanConfig and TrainConfig plus the paths; a
    JSON value has its field's type (an int for a float too), a text
    value parses as it.  Both paths are required, and the two classes
    must accept their values."""
    if text.lstrip().startswith("{"):
        try:
            values = json.loads(text)
        except json.JSONDecodeError:
            return None
        if type(values) is not dict or not all(
                key in CONFIG_KINDS and type(value) in JSON_KINDS[CONFIG_KINDS[key]]
                for key, value in values.items()):
            return None
    else:
        values = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                return None
            key, _, value = (part.strip() for part in line.partition("="))
            kind = CONFIG_KINDS.get(key)
            if kind == "int" and INT_TEXT.fullmatch(value):
                values[key] = int(value)
            elif kind == "float" and (FLOAT_TEXT.fullmatch(value)
                                      or value in ("nan", "inf", "-inf")):
                values[key] = float(value)
            elif kind in ("str", "path"):
                values[key] = value
            else:
                return None
    corpus, checkpoint = values.pop("corpus", None), values.pop("checkpoint", None)
    if corpus is None or checkpoint is None:
        return None
    try:
        TrainConfig(**{k: v for k, v in values.items() if k in TRAIN_KEYS})
        model = SanConfig(**{k: v for k, v in values.items() if k in MODEL_KEYS})
    except ValueError:
        return None
    return model, corpus, checkpoint


class TestDamagedRunConfig:
    """``train --config`` on a damaged config file, JSON or ``key=value``,
    exits 3 exactly when ``read_config_text`` rejects the file, 2 when
    the corpus path it names is not the corpus, and otherwise 0 (4 if the
    values it reads diverge), training the model the file describes."""

    @pytest.fixture(scope="class")
    def original(self, tmp_path_factory):
        """A corpus and a run config over it.  The checkpoint and epoch
        limits come first, so that a file cut short before the corpus
        line names no corpus and writes nothing."""
        root = tmp_path_factory.mktemp("damaged_config")
        corpus = root / "labeled.jsonl"
        save_corpus(corpus, labeled_records())
        return {"checkpoint": str(root / "model.npz"), "max_epochs": 2, "patience": 1,
                "corpus": str(corpus), "seed": 3, "embedding_dim": 8, "hidden_size": 6,
                "attention_dim": 6, "max_len": 8, "bank_size": 2, "dropout": 0.0,
                "lr": 0.02, "batch_size": 8}

    @staticmethod
    def damage(data, values) -> str:
        """The config's text, as JSON or ``key=value`` lines, with one
        drawn mutation."""
        as_json = data.draw(st.booleans())
        kind = data.draw(st.sampled_from(["drop_key", "retype_key", "unknown_key",
                                          "non_finite", "truncate"]))
        settings_keys = [k for k in values if k not in ("corpus", "checkpoint")]
        if kind == "drop_key":
            del values[data.draw(st.sampled_from(sorted(values)))]
        elif kind == "retype_key":
            key = data.draw(st.sampled_from(sorted(values) if as_json else settings_keys))
            if as_json:
                kinds = [t for t in JSON_VALUES if t is not type(values[key])]
                values[key] = data.draw(JSON_VALUES[data.draw(st.sampled_from(kinds))])
            else:
                values[key] = data.draw(st.sampled_from(["6.5", "true", "abc", "", "[1]",
                                                         "null", "7"]))
        elif kind == "unknown_key":
            values[data.draw(st.sampled_from(["bogus", "labels", "hiden_size", "report"]))] = 1
        elif kind == "non_finite":
            values[data.draw(st.sampled_from(settings_keys))] = data.draw(
                st.sampled_from([math.nan, math.inf, -math.inf]))
        if as_json:
            text = json.dumps(values)
        else:
            text = "".join(f"{k}={v}\n" for k, v in values.items())
        if kind == "truncate":
            text = text[:data.draw(st.integers(0, len(text) - 1))]
        return text

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_train_exit_code_total(self, original, data):
        text = self.damage(data, dict(original))
        bad = Path(original["corpus"]).with_name("damaged_run.cfg")
        bad.write_text(text, encoding="utf-8")
        ckpt = Path(original["checkpoint"])
        ckpt.unlink(missing_ok=True)
        code = main(["train", "--config", str(bad)])
        expected = read_config_text(text)
        if expected is None:
            assert code == 3
        elif expected[1] != original["corpus"]:
            assert code == 2
        else:
            assert code in (0, 4)
        if code == 0:
            assert expected[2] == original["checkpoint"]
            assert load_model(ckpt)[1] == expected[0]


class TestExtract:
    def test_fig_question_span(self, overfit_ckpt, capsys):
        _, ckpt = overfit_ckpt
        code = main(["extract", "--model", str(ckpt),
                     "--question", "Works with iphone ?"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "Works with iphone"

    def test_all_o_model_empty_output(self, tmp_path, capsys):
        vocab = Vocabulary(list(RESERVED) + WORDS)
        cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4,
                        max_len=8, bank_size=2, dropout=0.0, variant="san", seed=1)
        params = SanParams.build(cfg, len(vocab), np.random.default_rng(0))
        params.group.assign("proj.w", ..., 0.0)
        params.group.assign("proj.b", ..., [-5.0, 5.0])  # always O
        ckpt = tmp_path / "allo.npz"
        save_model(ckpt, params, cfg, vocab)
        code = main(["extract", "--model", str(ckpt), "--question", "Works with iphone ?"])
        assert code == 0
        assert capsys.readouterr().out.strip() == ""

    def test_trace_written_valid_json(self, tmp_path, overfit_ckpt, pool_path):
        _, ckpt = overfit_ckpt
        trace = tmp_path / "trace.json"
        code = main(["extract", "--model", str(ckpt),
                     "--question", "does it play video ?",
                     "--bank", str(pool_path), "--trace", str(trace)])
        assert code == 0
        payload = json.loads(trace.read_text())
        assert payload["question_tokens"][0] == "does"
        assert "level1_weights" in payload
        assert "level2_weights" in payload
        assert len(payload["bank_questions"]) <= 2  # bank_size of the checkpoint

    @UNWRITABLE
    def test_unwritable_trace_exit_2_before_reading(self, tmp_path, overfit_ckpt,
                                                    monkeypatch, capsys, caplog, out):
        _, ckpt = overfit_ckpt
        monkeypatch.setattr(cli, "load_model", lambda path: pytest.fail(f"read {path}"))
        trace = tmp_path / out
        assert main(["extract", "--model", str(ckpt), "--question", "works ?",
                     "--trace", str(trace)]) == 2
        assert str(trace) in caplog.text and capsys.readouterr().out == ""

    def test_category_indexes_only_that_category(self, tmp_path, overfit_ckpt,
                                                 monkeypatch, capsys):
        _, ckpt = overfit_ckpt
        laptop = pool_records()
        phone = [dataclasses.replace(r, product_id=f"x{i}", category="phone")
                 for i, r in enumerate(laptop)]
        indexed = []

        class SpyIndex(cli.Bm25Index):
            def __init__(self, pool):
                indexed.append([r.category for r in pool])
                super().__init__(pool)

        monkeypatch.setattr(cli, "Bm25Index", SpyIndex)
        runs = []
        for name, pool in (("one", laptop), ("two", phone + laptop)):
            path, trace = tmp_path / f"{name}.jsonl", tmp_path / f"{name}-trace.json"
            save_corpus(path, pool)
            assert main(["extract", "--model", str(ckpt), "--question", "does it play video ?",
                         "--bank", str(path), "--category", "laptop",
                         "--trace", str(trace)]) == 0
            runs.append((capsys.readouterr().out, trace.read_bytes()))
        assert runs[0] == runs[1]
        assert json.loads(runs[1][1])["bank_questions"]
        assert indexed == [["laptop"] * len(laptop)] * 2

    def test_bankless_variant_reads_no_pool(self, tmp_path, caplog):
        # A two-category pool and no --category would stop a model that
        # reads a bank; an sblstm model reads none, so it never loads the
        # pool and its trace names no bank question.
        vocab = Vocabulary(list(RESERVED) + WORDS)
        cfg = SanConfig(embedding_dim=4, hidden_size=4, attention_dim=4,
                        max_len=8, bank_size=2, dropout=0.0, variant="sblstm", seed=1)
        ckpt, pool, trace = tmp_path / "sb.npz", tmp_path / "pool.jsonl", tmp_path / "t.json"
        save_model(ckpt, SanParams.build(cfg, len(vocab), np.random.default_rng(0)), cfg, vocab)
        laptop = pool_records()
        save_corpus(pool, laptop + [dataclasses.replace(r, category="phone") for r in laptop])
        caplog.set_level("INFO", logger="fnr")
        assert main(["extract", "--model", str(ckpt), "--question", "does it play video ?",
                     "--bank", str(pool), "--trace", str(trace)]) == 0
        assert json.loads(trace.read_text())["bank_questions"] == []
        assert "ignoring --bank" in caplog.text

    def test_unknown_category_exit_3(self, overfit_ckpt, pool_path, caplog):
        _, ckpt = overfit_ckpt
        assert main(["extract", "--model", str(ckpt), "--question", "does it play video ?",
                     "--bank", str(pool_path), "--category", "lptop"]) == 3
        assert "'lptop'" in caplog.text and "['laptop']" in caplog.text

    @pytest.mark.parametrize("question", ["", "  \t "])
    def test_question_empty_after_tokenizing_exit_3(self, overfit_ckpt, caplog, question):
        _, ckpt = overfit_ckpt
        assert main(["extract", "--model", str(ckpt), "--question", question]) == 3
        assert "question is empty after tokenization" in caplog.text

    def test_pool_of_several_categories_needs_category_exit_3(self, tmp_path, overfit_ckpt,
                                                               caplog):
        _, ckpt = overfit_ckpt
        pool = tmp_path / "pool.jsonl"
        laptop = pool_records()
        save_corpus(pool, laptop + [dataclasses.replace(r, category="phone") for r in laptop])
        assert main(["extract", "--model", str(ckpt), "--question", "does it play video ?",
                     "--bank", str(pool)]) == 3
        assert "pool spans categories ['laptop', 'phone']; pick one with --category" \
            in caplog.text

    def test_missing_model_exit_2(self, tmp_path):
        code = main(["extract", "--model", str(tmp_path / "none.npz"),
                     "--question", "works ?"])
        assert code == 2


class TestStats:
    def test_two_record_fixture(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        save_corpus(path, [QaRecord("p", "c", ["a"], tags=["F"]),
                           QaRecord("p", "c", ["a"], tags=["O"])])
        assert main(["stats", "--corpus", str(path)]) == 0
        out = capsys.readouterr().out
        assert "50.00" in out
        assert out.splitlines()[-1].startswith("Total")

    def test_empty_corpus_exit_3(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        assert main(["stats", "--corpus", str(path)]) == 3

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["stats", "--corpus", str(tmp_path / "none.jsonl")]) == 2
