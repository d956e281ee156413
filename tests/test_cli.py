import dataclasses
import json

import numpy as np
import pytest

from fnr import cli
from fnr.cli import ConfigError, load_run_config, main
from fnr.data import QaRecord, save_corpus
from fnr.model import SanConfig, SanParams, load_model, save_model
from fnr.training import TrainConfig
from fnr.vocab import RESERVED, Vocabulary


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
        entries = [json.loads(line) for line in out.read_text().splitlines()]
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
        entries = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(entries) == 8
        assert all(e["bank_lines"] == [] for e in entries)

    def test_negative_top_k_exit_3(self, tmp_path, corpus_path, pool_path):
        out = tmp_path / "bank.jsonl"
        code = main(["build-bank", "--labeled", str(corpus_path),
                     "--pool", str(pool_path), "--out", str(out), "--top-k", "-1"])
        assert code == 3
        assert not out.exists()

    def test_deterministic(self, tmp_path, corpus_path, pool_path):
        blobs = []
        for name in ("x.jsonl", "y.jsonl"):
            out = tmp_path / name
            main(["build-bank", "--labeled", str(corpus_path),
                  "--pool", str(pool_path), "--out", str(out), "--top-k", "3"])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestRunConfig:
    PATH_KEYS = {"corpus", "pool", "bank_cache", "embeddings", "checkpoint", "epoch_log"}

    def test_keys_are_model_train_and_path_fields(self):
        model = {f.name: getattr(SanConfig(), f.name)
                 for f in dataclasses.fields(SanConfig) if f.name != "labels"}
        training = {f.name: getattr(TrainConfig(), f.name)
                    for f in dataclasses.fields(TrainConfig)}
        keys = set(model) | set(training) | self.PATH_KEYS
        assert set(cli._FIELD_TYPES) == keys
        assert len(keys) == 19
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

        cfg = load({"lr": 1, "dropout": 0.5, "max_len": 7, "share_bank_encoder": True,
                    "variant": "sblstm", "pool": None, "corpus": "c.jsonl"})
        assert cfg.settings["lr"] == 1 and cfg.pool is None and cfg.corpus == "c.jsonl"
        for bad in ({"max_len": True}, {"share_bank_encoder": 1}, {"seed": None},
                    {"variant": None}, {"corpus": 5}, {"lr": "fast"}):
            with pytest.raises(ConfigError):
                load(bad)

    def test_defaults_are_the_config_classes_defaults(self, monkeypatch):
        monkeypatch.delenv("SAN_SEED", raising=False)
        cfg = load_run_config(None, {})
        assert cfg.san_config() == SanConfig()
        assert cfg.train_config() == TrainConfig()


class TestTrain:
    def test_variant_flag_sblstm(self, tmp_path, corpus_path):
        ckpt = tmp_path / "model.json"
        code = main(train_args(corpus_path, ckpt) + ["--variant", "sblstm"])
        assert code == 0
        _, cfg, _ = load_model(ckpt)
        assert cfg.variant == "sblstm"

    def test_missing_embeddings_warns_random_init(self, tmp_path, corpus_path, caplog):
        ckpt = tmp_path / "model.json"
        assert main(train_args(corpus_path, ckpt)) == 0
        assert "random initialization" in caplog.text

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_embedding_value_exit_3(self, tmp_path, corpus_path, caplog, bad):
        emb = tmp_path / "emb.txt"
        rows = [f"{w} " + " ".join(["0.25"] * 8) for w in WORDS[:3]]
        rows[1] = rows[1].rsplit(" ", 1)[0] + f" {bad}"
        emb.write_text("3 8\n" + "\n".join(rows) + "\n")
        code = main(train_args(corpus_path, tmp_path / "model.json")
                    + ["--embeddings", str(emb)])
        assert code == 3
        assert f"{emb}:3:" in caplog.text

    def test_bank_cache_without_pool_rejected(self, tmp_path, corpus_path, pool_path, caplog):
        cache = tmp_path / "bank.jsonl"
        assert main(["build-bank", "--labeled", str(corpus_path), "--pool", str(pool_path),
                     "--out", str(cache)]) == 0
        code = main(train_args(corpus_path, tmp_path / "model.json")
                    + ["--bank-cache", str(cache)])
        assert code == 3
        assert "bank_cache needs pool" in caplog.text

    def test_deterministic_checkpoints_and_logs(self, tmp_path, corpus_path, pool_path):
        blobs = []
        for tag in ("a", "b"):
            ckpt = tmp_path / f"{tag}.json"
            log = tmp_path / f"{tag}.log.jsonl"
            code = main(train_args(corpus_path, ckpt)
                        + ["--pool", str(pool_path), "--epoch-log", str(log)])
            assert code == 0
            blobs.append((ckpt.read_bytes(), log.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_config_file_with_cli_override(self, tmp_path, corpus_path):
        ckpt = tmp_path / "model.json"
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "seed=1\nembedding_dim=8\nhidden_size=6\nattention_dim=6\nmax_len=8\n"
            "bank_size=2\ndropout=0.0\nlr=0.02\nbatch_size=8\nmax_epochs=2\npatience=1\n"
            f"corpus={corpus_path}\ncheckpoint={ckpt}\n")
        assert main(["train", "--config", str(cfg_file), "--seed", "2"]) == 0
        _, cfg, _ = load_model(ckpt)
        assert cfg.seed == 2

    def test_json_config_accepted(self, tmp_path, corpus_path):
        ckpt = tmp_path / "model.json"
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({
            "seed": 4, "embedding_dim": 8, "hidden_size": 6, "attention_dim": 6,
            "max_len": 8, "bank_size": 2, "dropout": 0.0, "lr": 0.02,
            "batch_size": 8, "max_epochs": 2, "patience": 1,
            "corpus": str(corpus_path), "checkpoint": str(ckpt)}))
        assert main(["train", "--config", str(cfg_file)]) == 0

    def test_env_seed_fallback(self, tmp_path, corpus_path, monkeypatch):
        ckpt = tmp_path / "model.json"
        monkeypatch.setenv("SAN_SEED", "77")
        args = train_args(corpus_path, ckpt)
        args.remove("--seed")
        args.remove("3")
        assert main(args) == 0
        _, cfg, _ = load_model(ckpt)
        assert cfg.seed == 77

    def test_unknown_config_key_exit_3(self, tmp_path, corpus_path):
        ckpt = tmp_path / "model.json"
        code = main(train_args(corpus_path, ckpt) + ["--set", "bogus=1"])
        assert code == 3

    @pytest.mark.parametrize("key, value", [("hidden_size", 6.5), ("variant", 3)])
    def test_json_value_of_wrong_type_exit_3(self, tmp_path, corpus_path, key, value):
        ckpt = tmp_path / "model.json"
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({key: value, "corpus": str(corpus_path),
                                        "checkpoint": str(ckpt)}))
        assert main(["train", "--config", str(cfg_file)]) == 3
        assert not ckpt.exists()

    def test_report_key_exit_3(self, tmp_path, corpus_path):
        ckpt = tmp_path / "model.json"
        assert main(train_args(corpus_path, ckpt) + ["--set", "report=x"]) == 3

    def test_missing_corpus_exit_2(self, tmp_path):
        code = main(["train", "--corpus", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "m.json")])
        assert code == 2

    def test_empty_validation_split_exit_3(self, tmp_path):
        # split() cuts 3 records 3/0/0.
        corpus = tmp_path / "three.jsonl"
        save_corpus(corpus, labeled_records()[:3])
        ckpt = tmp_path / "model.json"
        assert main(train_args(corpus, ckpt)) == 3
        assert not ckpt.exists()

    def test_divergence_exit_4(self, tmp_path, corpus_path):
        ckpt = tmp_path / "model.json"
        code = main(train_args(corpus_path, ckpt, lr="1e200"))
        assert code == 4

    def test_epoch_log_stream_on_stdout(self, tmp_path, corpus_path, capsys):
        ckpt = tmp_path / "model.json"
        assert main(train_args(corpus_path, ckpt)) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("{")]
        epochs = [json.loads(l) for l in lines if "epoch" in json.loads(l)]
        assert epochs and epochs[0]["epoch"] == 1
        assert "val" in epochs[0]


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
    ckpt = root / "model.json"
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
        ("bool_config_as_text", "share_bank_encoder"),
        ("top_level_array", "not a JSON object"),
        ("config_array", "not a JSON object"),
        ("tensor_without_shape", "shape")])
    def test_malformed_checkpoint_exit_3(self, tmp_path, overfit_ckpt, caplog, case, named):
        corpus, ckpt = overfit_ckpt
        payload = json.loads(ckpt.read_text())
        if case == "config_value_of_wrong_type":
            payload["config"]["hidden_size"] = "10"
        elif case == "bool_config_as_text":
            payload["config"]["share_bank_encoder"] = "no"
        elif case == "top_level_array":
            payload = [payload]
        elif case == "config_array":
            payload["config"] = [payload["config"]]
        else:
            del payload["tensors"]["proj.w"]["shape"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["evaluate", "--model", str(bad), "--data", str(corpus)]) == 3
        assert named in caplog.text

    @pytest.mark.parametrize("labels", [5, None, "FO", ["F", 0]],
                             ids=["int", "null", "string", "non_string_item"])
    def test_checkpoint_labels_not_strings_exit_3(self, tmp_path, overfit_ckpt, caplog, labels):
        corpus, ckpt = overfit_ckpt
        payload = json.loads(ckpt.read_text())
        payload["config"]["labels"] = labels
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
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
        params.proj_w.data[...] = 0.0
        params.proj_b.data[...] = [-5.0, 5.0]  # always O
        ckpt = tmp_path / "allo.json"
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

    def test_missing_model_exit_2(self, tmp_path):
        code = main(["extract", "--model", str(tmp_path / "none.json"),
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
