import logging
import warnings

import numpy as np
import pytest

from fnr import embeddings
from fnr.autodiff import NonFiniteError, Tape, Tensor, gather_rows, reduce_sum
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


def reference_sgns(corpus, cfg, seed):
    """Plain-loop transcription of the batched skip-gram update: pair by
    pair, with every gradient of a sentence step taken from the vectors
    as they were at its start and the sum applied at its end.  Returns
    the vocabulary, the input vectors (PAD row zeroed), the per-epoch
    mean objective and, per sentence step, each input row's list of
    per-pair updates."""
    rng = np.random.default_rng(seed)
    vocab = build_vocab(corpus)
    sentences = [vocab.encode(s) for s in corpus]
    n_vocab, dim = len(vocab), cfg.dim
    w_in = (rng.random((n_vocab, dim)) - 0.5) / dim
    w_out = np.zeros((n_vocab, dim))
    counts = np.bincount([t for s in sentences for t in s], minlength=n_vocab)
    cum = np.cumsum(counts ** 0.75)
    cum /= cum[-1]
    total = sum(1 for s in sentences for i in range(len(s)) for j in range(len(s))
                if i != j and abs(i - j) <= cfg.window) * cfg.epochs
    seen, history, deltas = 0, [], []
    for _ in range(cfg.epochs):
        loss, n_pairs = 0.0, 0
        for ids in sentences:
            negs = np.searchsorted(cum, rng.random((len(ids), cfg.negatives)), side="right")
            d_in, d_out = np.zeros_like(w_in), np.zeros_like(w_out)
            step = {}
            for i in range(len(ids)):
                targets = [(ids[i], 1.0)] + [(t, 0.0) for t in negs[i] if t != ids[i]]
                for j in range(len(ids)):
                    if j == i or abs(i - j) > cfg.window:
                        continue
                    seen += 1
                    n_pairs += 1
                    alpha = max(cfg.lr * (1.0 - seen / total), cfg.lr * 1e-4)
                    v = w_in[ids[j]]
                    g_v = np.zeros(dim)
                    for t, label in targets:
                        score = float(w_out[t] @ v)
                        loss += np.log1p(np.exp(-score if label else score))
                        err = alpha * (1.0 / (1.0 + np.exp(-score)) - label)
                        g_v -= err * w_out[t]
                        d_out[t] -= err * v
                    d_in[ids[j]] += g_v
                    step.setdefault(ids[j], []).append(g_v)
            w_in += d_in
            w_out += d_out
            deltas.append(step)
        history.append(loss / n_pairs)
    w_in[PAD_ID] = 0.0
    return vocab, w_in, history, deltas


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
            rates = schedule(lr, seen, total_pairs)
            alphas.extend(np.atleast_1d(rates))  # one call per sentence step
            return rates

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

    @pytest.mark.parametrize("kwargs", [
        {"lr": float("nan")}, {"lr": float("inf")}, {"lr": -float("inf")}, {"lr": 0.0},
        {"min_freq": 0}, {"min_freq": -1}])
    def test_config_rejects_bad_lr_and_min_freq(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SgnsConfig(**kwargs)

    def test_same_seed_identical(self):
        cfg = SgnsConfig(dim=8, window=2, negatives=3, epochs=2)
        runs = [train_skipgram(toy_corpus(np.random.default_rng(6), 600), cfg,
                               np.random.default_rng(7)) for _ in range(2)]
        assert np.array_equal(runs[0].vectors, runs[1].vectors)
        assert runs[0].loss_history == runs[1].loss_history

    def test_matches_reference_transcription(self):
        # w_out starts at zero, so the first step leaves the input vectors
        # where they were; a second epoch makes them move.
        sentence = ["q", "w", "e", "r", "t", "y", "u"]
        for epochs in (1, 2):
            cfg = SgnsConfig(dim=5, window=2, negatives=3, epochs=epochs, lr=0.5)
            got = train_skipgram([sentence], cfg, np.random.default_rng(8))
            vocab, want, history, deltas = reference_sgns([sentence], cfg, seed=8)
            assert got.vocab.id_to_token == vocab.id_to_token
            assert np.allclose(got.vectors, want, atol=1e-12, rtol=0)
            assert np.allclose(got.loss_history, history, atol=1e-12, rtol=0)
        assert any(np.abs(d).max() > 1e-6 for ds in deltas[-1].values() for d in ds)

    def test_repeated_word_updates_summed(self):
        # Window 1 over "a b a": "a" is the context of center "b" twice
        # per step, and both of those pairs move its input vector.
        cfg = SgnsConfig(dim=4, window=1, negatives=2, epochs=2, lr=0.5)
        got = train_skipgram([["a", "b", "a"]], cfg, np.random.default_rng(9))
        vocab, want, _, deltas = reference_sgns([["a", "b", "a"]], cfg, seed=9)
        a = vocab.lookup("a")
        last = deltas[-1][a]
        assert len(last) == 2 and all(np.abs(d).max() > 1e-6 for d in last)
        assert np.allclose(got.vectors, want, atol=1e-12, rtol=0)
        assert not np.allclose(got.vectors[a], want[a] - last[0], atol=1e-9, rtol=0)

    def test_divergence_raises_nonfinite(self):
        # A finite but huge rate overflows the vectors in the first epoch.
        rng = np.random.default_rng(12)
        cfg = SgnsConfig(dim=8, window=2, negatives=2, epochs=2, lr=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="epoch 1"):
                train_skipgram(toy_corpus(rng, 600), cfg, rng)

    def test_epoch_log_lines(self, caplog):
        rng = np.random.default_rng(10)
        corpus = toy_corpus(rng, 240)
        cfg = SgnsConfig(dim=4, window=2, negatives=2, epochs=3)
        with caplog.at_level(logging.INFO, logger="fnr.embeddings"):
            m = train_skipgram(corpus, cfg, rng)
        lines = [r.getMessage() for r in caplog.records if r.name == "fnr.embeddings"]
        pairs = sum(embeddings._pair_count(len(s), cfg.window) for s in corpus)
        assert len(lines) == cfg.epochs
        for epoch, (line, mean) in enumerate(zip(lines, m.loss_history), start=1):
            assert line.startswith(f"skip-gram epoch {epoch}/{cfg.epochs}: ")
            assert f"mean objective {mean:.6f} over {pairs} pairs" in line
            assert line.endswith(" tokens/s")


class TestNegativeSampler:
    def test_edge_uniforms_give_valid_ids(self):
        # PAD, an unseen EOS, two words, then two unseen ids.
        counts = np.array([0, 0, 3, 5, 0, 0])
        cum = embeddings._negative_table(counts)
        assert cum[-1] == 1.0
        ids = embeddings._draw_negatives(cum, np.array([0.0, np.nextafter(1.0, 0.0)]))
        assert ids.tolist() == [2, 3]

    def test_random_counts_stay_in_range(self):
        rng = np.random.default_rng(11)
        edges = np.array([0.0, np.nextafter(1.0, 0.0)])
        for _ in range(200):
            counts = rng.integers(0, 50, size=rng.integers(2, 40))
            counts[rng.integers(1, len(counts))] += 1  # at least one token
            cum = embeddings._negative_table(counts)
            assert cum[-1] == 1.0
            ids = embeddings._draw_negatives(cum, np.concatenate([edges, rng.random(50)]))
            assert np.all(ids > PAD_ID) and np.all(ids < len(counts))
            assert np.all(counts[ids] > 0)


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
