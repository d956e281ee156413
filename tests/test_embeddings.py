import logging

import numpy as np
import pytest

from fnr import embeddings
from fnr.autodiff import Tape, Tensor, gather_rows, reduce_sum
from fnr.embeddings import (EmbeddingMatrix, SgnsConfig, load_embeddings,
                            save_embeddings, train_skipgram)
from fnr.vocab import PAD_ID, PAD_TOKEN, RESERVED, Vocabulary, build_vocab


def small_matrix():
    vocab = Vocabulary(list(RESERVED) + ["a", "b"])
    vecs = np.arange(10, dtype=float).reshape(5, 2)
    return EmbeddingMatrix(vocab, vecs)


class TestEmbedSequence:
    def test_all_pad_rows_zero(self):
        m = small_matrix()
        out = gather_rows(Tensor(m.vectors), np.array([PAD_ID, PAD_ID]))
        assert np.array_equal(out.data, np.zeros((2, 2)))

    def test_repeated_id_identical_rows(self):
        m = small_matrix()
        out = gather_rows(Tensor(m.vectors), np.array([3, 3]))
        assert np.array_equal(out.data[0], out.data[1])

    def test_gradient_accumulates_per_use(self):
        m = small_matrix()
        table = Tensor(m.vectors)
        with Tape() as tape:
            out = reduce_sum(gather_rows(table, np.array([3, 3])))
        g = tape.gradients(out)[table]
        assert np.array_equal(g[3], [2.0, 2.0])
        assert np.array_equal(g[4], [0.0, 0.0])

    def test_out_of_range_id(self):
        m = small_matrix()
        with pytest.raises(IndexError):
            gather_rows(Tensor(m.vectors), np.array([99]))


def toy_corpus(rng, n_tokens=3000):
    """Two disjoint co-occurrence clusters."""
    a = [f"a{i}" for i in range(4)]
    b = [f"b{i}" for i in range(4)]
    seqs = []
    for _ in range(n_tokens // 12):
        seqs.append([a[i] for i in rng.integers(0, 4, size=6)])
        seqs.append([b[i] for i in rng.integers(0, 4, size=6)])
    return seqs


class TestTrainSkipgram:
    def test_shape_contract(self):
        rng = np.random.default_rng(0)
        cfg = SgnsConfig(dim=8, window=2, negatives=2, epochs=1)
        m = train_skipgram(toy_corpus(rng, 600), cfg, rng)
        assert m.vectors.shape == (len(m.vocab), 8)

    def test_objective_decreases(self):
        rng = np.random.default_rng(1)
        cfg = SgnsConfig(dim=16, window=2, negatives=3, epochs=3)
        m = train_skipgram(toy_corpus(rng, 3000), cfg, rng)
        assert m.loss_history[-1] < m.loss_history[0]

    def test_clusters_separate(self):
        rng = np.random.default_rng(2)
        cfg = SgnsConfig(dim=16, window=3, negatives=4, epochs=4)
        m = train_skipgram(toy_corpus(rng, 4000), cfg, rng)

        def vec(tok):
            v = m.vectors[m.vocab.lookup(tok)]
            return v / np.linalg.norm(v)

        a = [vec(f"a{i}") for i in range(4)]
        b = [vec(f"b{i}") for i in range(4)]
        intra = [float(x @ y) for grp in (a, b) for i, x in enumerate(grp)
                 for j, y in enumerate(grp) if i < j]
        inter = [float(x @ y) for x in a for y in b]
        assert np.mean(intra) > np.mean(inter)

    def test_vocab_smaller_than_negatives_rejected(self):
        rng = np.random.default_rng(3)
        cfg = SgnsConfig(dim=4, window=1, negatives=10, epochs=1)
        with pytest.raises(ValueError):
            train_skipgram([["x", "y"]], cfg, rng)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_skipgram([], SgnsConfig(dim=4), np.random.default_rng(0))

    def test_pad_row_stays_zero(self):
        rng = np.random.default_rng(4)
        m = train_skipgram(toy_corpus(rng, 600), SgnsConfig(dim=8, epochs=1), rng)
        assert np.array_equal(m.vectors[PAD_ID], np.zeros(8))

    def test_pair_count_matches_enumeration(self):
        for window in (1, 2, 5):
            for length in range(14):
                pairs = [(i, j) for i in range(length) for j in range(length)
                         if i != j and abs(i - j) <= window]
                assert embeddings._pair_count(length, window) == len(pairs)

    def test_learning_rate_reaches_floor_at_last_pair(self, monkeypatch):
        # Sentences of 1..10 tokens: most are shorter than 2 * window + 1,
        # so edges cut many windows.
        rng = np.random.default_rng(5)
        corpus = [[f"t{j}" for j in rng.integers(0, 20, size=n)]
                  for n in rng.integers(1, 11, size=40)]
        cfg = SgnsConfig(dim=4, window=3, negatives=2, epochs=2, lr=0.05)
        schedule = embeddings._learning_rate
        alphas = []

        def recording(lr, seen, total_pairs):
            alphas.append(schedule(lr, seen, total_pairs))
            return alphas[-1]

        monkeypatch.setattr(embeddings, "_learning_rate", recording)
        train_skipgram(corpus, cfg, rng)
        pairs = sum(1 for s in corpus for i in range(len(s)) for j in range(len(s))
                    if i != j and abs(i - j) <= cfg.window)
        assert len(alphas) == pairs * cfg.epochs
        assert alphas[-1] == cfg.lr * 1e-4
        assert alphas[-2] > cfg.lr * 1e-4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SgnsConfig(window=0)
        with pytest.raises(ValueError):
            SgnsConfig(negatives=0)


class TestEmbeddingIO:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        vocab = build_vocab([["alpha", "beta", "gamma"]])
        m = EmbeddingMatrix(vocab, rng.normal(size=(len(vocab), 3)))
        path = tmp_path / "emb.txt"
        save_embeddings(m, path)
        loaded = load_embeddings(path)
        assert loaded.vocab.id_to_token == vocab.id_to_token
        assert np.array_equal(loaded.vectors, m.vectors)

    def test_header_body_mismatch(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("3 2\nw1 0.0 0.0\nw2 0.0 0.0\nw3 0.0 0.0\nw4 0.0 0.0\n")
        with pytest.raises(ValueError, match="rows"):
            load_embeddings(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("not a header\nw 0.0\n")
        with pytest.raises(ValueError, match="header"):
            load_embeddings(path)

    def test_dimension_mismatch_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 3\nw 0.0 0.0\n")
        with pytest.raises(ValueError, match="expected 3 values"):
            load_embeddings(path)

    def test_missing_pad_synthesized_with_warning(self, tmp_path, caplog):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\nhello 1.0 2.0\nworld 3.0 4.0\n")
        with caplog.at_level(logging.WARNING):
            m = load_embeddings(path)
        assert PAD_TOKEN in caplog.text
        assert np.array_equal(m.vectors[PAD_ID], [0.0, 0.0])
        assert m.vocab.lookup("hello") >= 3
        assert np.array_equal(m.vectors[m.vocab.lookup("hello")], [1.0, 2.0])

    def test_random_embeddings_pad_zero(self):
        vocab = build_vocab([["a", "b"]])
        m = EmbeddingMatrix(vocab, np.random.default_rng(0).random((len(vocab), 4)))
        assert np.array_equal(m.vectors[PAD_ID], np.zeros(4))
