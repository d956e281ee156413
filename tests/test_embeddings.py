import logging
import warnings

import numpy as np
import pytest

from fnr import embeddings
from fnr.autodiff import NonFiniteError, Tape, Tensor, gather_rows, scatter_add
from fnr.embeddings import (EmbeddingMatrix, SgnsConfig, load_embeddings,
                            save_embeddings, train_skipgram)
from fnr.vocab import PAD_ID, PAD_TOKEN, RESERVED, UNK_ID, Vocabulary, build_vocab


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
            out = gather_rows(table, np.array([3, 3]))
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
    pair, every output update of a sentence step from the vectors as they
    were at its start and summed into the output vectors first, then every
    input update from errors recomputed against those updated output
    vectors.  Returns the vocabulary, the input vectors (PAD row zeroed),
    the per-epoch mean objective and, per sentence step, each input row's
    list of per-pair updates."""
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
            pairs = []
            for i in range(len(ids)):
                targets = [(ids[i], 1.0)] + [(t, 0.0) for t in negs[i] if t != ids[i]]
                for j in range(len(ids)):
                    if j == i or abs(i - j) > cfg.window:
                        continue
                    seen += 1
                    n_pairs += 1
                    alpha = max(cfg.lr * (1.0 - seen / total), cfg.lr * 1e-4)
                    v = w_in[ids[j]]
                    for t, label in targets:
                        score = float(w_out[t] @ v)
                        loss += np.log1p(np.exp(-score if label else score))
                        err = alpha * (1.0 / (1.0 + np.exp(-score)) - label)
                        d_out[t] -= err * v
                    pairs.append((ids[j], alpha, targets))
            w_out += d_out
            step = {}
            for context, alpha, targets in pairs:
                v = w_in[context]
                g_v = np.zeros(dim)
                for t, label in targets:
                    score = float(w_out[t] @ v)
                    g_v -= alpha * (1.0 / (1.0 + np.exp(-score)) - label) * w_out[t]
                d_in[context] += g_v
                step.setdefault(context, []).append(g_v)
            w_in += d_in
            deltas.append(step)
        history.append(loss / n_pairs)
    w_in[PAD_ID] = 0.0
    return vocab, w_in, history, deltas


def per_sentence_sgns(raw_corpus, cfg, rng):
    """``train_skipgram``'s update as one numpy step per sentence, each
    building its own windows, learning rates and negatives: the loop the
    block set-up replaced, kept as its bit-for-bit reference.  Returns the
    input vectors (PAD row zeroed) and the per-epoch mean objective."""
    sequences = [list(seq) for seq in raw_corpus]
    vocab = build_vocab(sequences, min_freq=cfg.min_freq)
    encoded = [np.asarray(vocab.encode(seq), dtype=np.int64) for seq in sequences if seq]
    counts = np.zeros(len(vocab), dtype=np.int64)
    for ids in encoded:
        np.add.at(counts, ids, 1)
    cum = embeddings._negative_table(counts)
    w_in = (rng.random((len(vocab), cfg.dim)) - 0.5) / cfg.dim
    w_out = np.zeros((len(vocab), cfg.dim))
    total_pairs = sum(embeddings._pair_count(len(ids), cfg.window) for ids in encoded)
    total_pairs = max(total_pairs * cfg.epochs, 1)
    offsets = np.concatenate([np.arange(-cfg.window, 0), np.arange(1, cfg.window + 1)])
    sign = np.ones(cfg.negatives + 1)
    sign[0] = -1.0
    seen, history = 0, []
    for _ in range(cfg.epochs):
        loss_sum, loss_n = 0.0, 0
        for ids in encoded:
            n = len(ids)
            if n < 2:
                continue
            pos = np.arange(n)[:, None] + offsets
            valid = (pos >= 0) & (pos < n)
            ctx = ids[np.clip(pos, 0, n - 1)]
            m = int(valid.sum())
            alpha = np.zeros(valid.shape)
            alpha[valid] = embeddings._learning_rate(cfg.lr, seen + np.arange(1, m + 1),
                                                     total_pairs)
            seen += m
            negs = embeddings._draw_negatives(cum, rng.random((n, cfg.negatives)))
            targets = np.concatenate([ids[:, None], negs], axis=1)
            keep = np.ones(targets.shape, dtype=bool)
            keep[:, 1:] = negs != ids[:, None]
            mask = valid[:, :, None] & keep[:, None, :]
            scale = mask * alpha[:, :, None]
            x = w_in[ctx]
            z, grad = embeddings._pair_terms(x, w_out[targets], sign)
            loss_sum += float(np.log1p(np.exp(z))[mask].sum())
            loss_n += m
            scatter_add(w_out, targets, -((grad * scale).transpose(0, 2, 1) @ x))
            y = w_out[targets]
            _, grad = embeddings._pair_terms(x, y, sign)
            scatter_add(w_in, ctx[valid], -((grad * scale) @ y)[valid])
        history.append(loss_sum / max(loss_n, 1))
    w_in[PAD_ID] = 0.0
    return w_in, history


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
        sentence = ["q", "w", "e", "r", "t", "y", "u"]
        for epochs in (1, 2):
            cfg = SgnsConfig(dim=5, window=2, negatives=3, epochs=epochs, lr=0.5)
            got = train_skipgram([sentence], cfg, np.random.default_rng(8))
            vocab, want, history, deltas = reference_sgns([sentence], cfg, seed=8)
            assert got.vocab.id_to_token == vocab.id_to_token
            assert np.allclose(got.vectors, want, atol=1e-12, rtol=0)
            assert np.allclose(got.loss_history, history, atol=1e-12, rtol=0)
        assert any(np.abs(d).max() > 1e-6 for ds in deltas[-1].values() for d in ds)

    def test_matches_reference_over_sentences(self):
        # Words shared across sentences carry each step's updates into the
        # next one, in both the input and the output vectors.
        corpus = toy_corpus(np.random.default_rng(10), 48)
        cfg = SgnsConfig(dim=4, window=2, negatives=2, epochs=2, lr=0.1)
        got = train_skipgram(corpus, cfg, np.random.default_rng(11))
        vocab, want, history, _ = reference_sgns(corpus, cfg, seed=11)
        assert got.vocab.id_to_token == vocab.id_to_token
        assert np.allclose(got.vectors, want, atol=1e-12, rtol=0)
        assert np.allclose(got.loss_history, history, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("epochs", [1, 2])
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_block_set_up_matches_per_sentence_steps_bit_for_bit(self, seed, epochs):
        # Sentences of 0, 1 and 2 tokens and longer than the window span
        # (2w + 1), rare words that min_freq turns into UNK, and more
        # centers than one block holds.
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(2000)]
        weights = 1.0 / np.arange(1, len(words) + 1)
        corpus = [[], ["w0"], ["w1", "w2"]]
        while sum(map(len, corpus)) < 2.5 * embeddings._BLOCK_CENTERS:
            n = int(rng.integers(0, 14))
            corpus.append(list(rng.choice(words, size=n, p=weights / weights.sum())))
        cfg = SgnsConfig(dim=6, window=2, negatives=3, epochs=epochs, lr=0.05, min_freq=2)
        lengths = [len(s) for s in corpus if len(s) >= 2]
        assert len(embeddings._sentence_blocks(lengths)) >= 3
        got = train_skipgram(corpus, cfg, np.random.default_rng(seed))
        want, history = per_sentence_sgns(corpus, cfg, np.random.default_rng(seed))
        assert UNK_ID in got.vocab.encode([t for s in corpus for t in s])
        assert np.array_equal(got.vectors, want)
        assert got.loss_history == history

    def test_sentence_blocks_cap_centers(self, monkeypatch):
        monkeypatch.setattr(embeddings, "_BLOCK_CENTERS", 10)
        assert embeddings._sentence_blocks([4, 6, 3, 12, 2, 2]) == [(0, 2), (2, 3), (3, 4),
                                                                    (4, 6)]
        assert embeddings._sentence_blocks([]) == []

    def test_first_step_moves_input_vectors(self):
        # w_out starts at zero; the input update reads the output vectors
        # after the step's own output update, so one sentence of unseen
        # words already moves every one of their input vectors.
        sentence = ["q", "w", "e", "r", "t"]
        cfg = SgnsConfig(dim=5, window=2, negatives=3, epochs=1, lr=0.5)
        got = train_skipgram([sentence], cfg, np.random.default_rng(8))
        start = (np.random.default_rng(8).random(got.vectors.shape) - 0.5) / cfg.dim
        for token in sentence:
            row = got.vocab.lookup(token)
            assert np.abs(got.vectors[row] - start[row]).max() > 1e-6

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

    def test_no_drawable_token_rejected(self):
        # Only PAD counted.  train_skipgram cannot get here: it refuses an
        # empty corpus, and no token encodes to PAD.
        with pytest.raises(ValueError, match="no tokens available"):
            embeddings._negative_table(np.array([4, 0, 0]))

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

    def test_bytes_equal_per_value_reference(self, tmp_path):
        special = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                   0.1, 1 / 3]
        vocab = build_vocab([["alpha", "beta", "gamma"]])
        vecs = np.random.default_rng(5).normal(size=(len(vocab), len(special)))
        vecs[-1] = special
        vecs[-2] = special[::-1]
        m = EmbeddingMatrix(vocab, vecs)
        path = tmp_path / "emb.txt"
        save_embeddings(m, path)
        want = f"{len(vocab)} {len(special)}\n" + "".join(
            f"{token} " + " ".join(f"{v:.17g}" for v in row) + "\n"
            for token, row in zip(vocab.id_to_token, m.vectors))
        assert path.read_bytes() == want.encode("utf-8")
        assert "-0 4.9406564584124654e-324 1.7976931348623157e+308" in want

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

    def test_mixed_case_token_reachable_by_lookup(self, tmp_path):
        # A file trained elsewhere may keep case; its row must be the one
        # lookup finds, since lookup lowercases every token but EOS.
        path = tmp_path / "emb.txt"
        path.write_text("3 2\nEOS 0.5 0.5\niPhone 1.0 2.0\nworks 3.0 4.0\n")
        m = load_embeddings(path)
        assert m.vocab.id_to_token == list(RESERVED) + ["iphone", "works"]
        for spelling in ("iPhone", "iphone"):
            assert np.array_equal(m.vectors[m.vocab.lookup(spelling)], [1.0, 2.0])
        assert np.array_equal(m.vectors[m.vocab.lookup("EOS")], [0.5, 0.5])

    @pytest.mark.parametrize("second", ["IPHONE", "iPhone"], ids=["folded", "repeated"])
    def test_tokens_folding_together_name_both_lines(self, tmp_path, second):
        path = tmp_path / "emb.txt"
        path.write_text(f"3 1\niPhone 1.0\nworks 2.0\n{second} 3.0\n")
        with pytest.raises(ValueError, match=r"lines 2 and 4 .*'iphone'"):
            load_embeddings(path)

    def test_random_embeddings_pad_zero(self):
        vocab = build_vocab([["a", "b"]])
        m = EmbeddingMatrix(vocab, np.random.default_rng(0).random((len(vocab), 4)))
        assert np.array_equal(m.vectors[PAD_ID], np.zeros(4))
