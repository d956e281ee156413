import gc
import json
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fnr.data import (F_INDEX, LABELS, O_INDEX, CorpusError, QaRecord, collate, corpus_stats,
                      format_stats, load_corpus, make_example, save_corpus, split)
from fnr.model import predict_tags
from fnr.vocab import EOS_TOKEN, PAD_ID, build_vocab, join_sentences


FIG_LINE = ('{"product_id":"p1","category":"laptop",'
            '"question_tokens":["Works","with","iphone","?"],"tags":["F","F","F","O"]}')


def write_lines(tmp_path, lines, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadCorpus:
    def test_labeled_record(self, tmp_path):
        records = load_corpus(write_lines(tmp_path, [FIG_LINE]))
        assert len(records) == 1
        rec = records[0]
        assert rec.labeled
        assert rec.question_tokens == ["Works", "with", "iphone", "?"]
        assert rec.tags == ["F", "F", "F", "O"]
        assert rec.line_no == 1

    def test_unlabeled_record(self, tmp_path):
        line = '{"product_id":"p2","category":"laptop","question_tokens":["any","good"]}'
        records = load_corpus(write_lines(tmp_path, [line]))
        assert not records[0].labeled

    def test_tag_length_mismatch_names_line(self, tmp_path):
        bad = '{"product_id":"p","category":"c","question_tokens":["a","b","c","d"],"tags":["F","F","F"]}'
        path = write_lines(tmp_path, [FIG_LINE, bad])
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)

    def test_unknown_tag_symbol(self, tmp_path):
        bad = '{"product_id":"p","category":"c","question_tokens":["a"],"tags":["B"]}'
        with pytest.raises(CorpusError, match="unknown tag"):
            load_corpus(write_lines(tmp_path, [bad]))

    def test_malformed_json_names_line(self, tmp_path):
        with pytest.raises(CorpusError, match="line 1"):
            load_corpus(write_lines(tmp_path, ["{not json"]))

    def test_missing_required_field(self, tmp_path):
        with pytest.raises(CorpusError, match="product_id"):
            load_corpus(write_lines(tmp_path, ['{"category":"c","question_tokens":["a"]}']))

    @pytest.mark.parametrize("line, message", [
        ('[1, 2]', "record must be a JSON object"),
        ('"text"', "record must be a JSON object"),
        ('{"category":"c","question_tokens":["a"]}', "missing or non-string 'product_id'"),
        ('{"product_id":1,"category":"c","question_tokens":["a"]}',
         "missing or non-string 'product_id'"),
        ('{"product_id":"p","question_tokens":["a"]}', "missing or non-string 'category'"),
        ('{"product_id":"p","category":null,"question_tokens":["a"]}',
         "missing or non-string 'category'"),
        ('{"product_id":"p","category":"c"}',
         "question_tokens must be a non-empty list of strings"),
        ('{"product_id":"p","category":"c","question_tokens":[]}',
         "question_tokens must be a non-empty list of strings"),
        ('{"product_id":"p","category":"c","question_tokens":"a b"}',
         "question_tokens must be a non-empty list of strings"),
        ('{"product_id":"p","category":"c","question_tokens":["a",1]}',
         "question_tokens must be a non-empty list of strings"),
        ('{"product_id":"p","category":"c","question_tokens":["a",["b"]]}',
         "question_tokens must be a non-empty list of strings"),
        ('{"product_id":"p","category":"c","question_tokens":["a"],"answer_text":5}',
         "answer_text must be a string"),
        ('{"product_id":"p","category":"c","question_tokens":["a","b"],"tags":["F"]}',
         "tags length 1 does not match 2 question tokens"),
        ('{"product_id":"p","category":"c","question_tokens":["a","b"],"tags":"FO"}',
         "tags length ? does not match 2 question tokens"),
        ('{"product_id":"p","category":"c","question_tokens":["a","b"],"tags":["F","B"]}',
         "unknown tag symbol 'B'"),
        ('{"product_id":"p","category":"c","question_tokens":["a","b"],"tags":[1,"F"]}',
         "unknown tag symbol 1"),
        ('{"product_id":"p","category":"c","question_tokens":["a"],"tags":[["F"]]}',
         "unknown tag symbol ['F']"),
        ('{not json', "invalid JSON (Expecting property name enclosed in double quotes)"),
        ('{"product_id":"p"', "invalid JSON (Expecting ',' delimiter)"),
        ("\ufeff" + FIG_LINE, "invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
    ])
    def test_malformed_line_message(self, tmp_path, line, message):
        path = write_lines(tmp_path, [FIG_LINE, " ", line, FIG_LINE])
        with pytest.raises(CorpusError) as err:
            load_corpus(path)
        assert str(err.value) == f"line 3: {message}"

    def test_records_hold_the_decoded_values(self, tmp_path):
        line = ('{"product_id":"p","category":"c","question_tokens":["a","b"],'
                '"answer_text":"yes","tags":["F","O"]}')
        records = load_corpus(write_lines(tmp_path, ["", FIG_LINE, "\t", line]))
        assert records == [
            QaRecord("p1", "laptop", ["Works", "with", "iphone", "?"],
                     tags=["F", "F", "F", "O"], line_no=2),
            QaRecord("p", "c", ["a", "b"], answer_text="yes", tags=["F", "O"], line_no=4)]
        assert not hasattr(records[0], "__dict__")

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("malformed", [False, True])
    def test_collector_state_restored(self, tmp_path, enabled, malformed):
        # load_corpus pauses the cyclic collector while it reads; it must
        # leave it as it found it, also when a line mid-file is malformed.
        lines = [FIG_LINE, "{not json" if malformed else FIG_LINE, FIG_LINE]
        path = write_lines(tmp_path, lines)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if malformed:
                with pytest.raises(CorpusError, match="line 2"):
                    load_corpus(path)
            else:
                assert len(load_corpus(path)) == 3
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_round_trip(self, tmp_path):
        path = write_lines(tmp_path, [FIG_LINE])
        records = load_corpus(path)
        out = tmp_path / "copy.jsonl"
        save_corpus(out, records)
        assert load_corpus(out)[0].question_tokens == records[0].question_tokens


def spelling_corpus(tmp_path, questions=2_000, spellings=200, seed=0):
    """A generated corpus: ``questions`` unlabeled questions of 5-15 tokens
    over ``spellings`` multi-character spellings, 20 products, 2 categories."""
    rng = np.random.default_rng(seed)
    lines = [json.dumps({"product_id": f"prod{i % 20}", "category": f"cat{i % 2}",
                         "question_tokens": [f"tok{j:03d}" for j in
                                             rng.integers(0, spellings, rng.integers(5, 16))]})
             for i in range(questions)]
    return write_lines(tmp_path, lines)


class TestStringTable:
    """``load_corpus`` holds each distinct string of one load once."""

    def test_equal_strings_of_one_load_are_one_object(self, tmp_path):
        lines = [FIG_LINE,
                 '{"product_id":"p1","category":"laptop","question_tokens":["iphone","laptop"]}',
                 '{"product_id":"p2","category":"laptop","question_tokens":["with","iphone"],'
                 '"tags":["O","F"]}']
        a, b, c = load_corpus(write_lines(tmp_path, lines))
        assert b.question_tokens[0] is a.question_tokens[2] is c.question_tokens[1]
        assert c.question_tokens[0] is a.question_tokens[1]
        assert a.category is b.category is c.category is b.question_tokens[1]
        assert a.product_id is b.product_id

    def test_loads_share_no_table(self, tmp_path):
        path = spelling_corpus(tmp_path, questions=50)
        first = load_corpus(path)
        second = load_corpus(path)
        assert first == second
        held = {id(s) for rec in first for s in [rec.product_id, rec.category,
                                                   *rec.question_tokens]}
        assert not any(id(s) in held for rec in second
                       for s in [rec.product_id, rec.category, *rec.question_tokens])

    def test_concurrent_loads_equal(self, tmp_path):
        path = spelling_corpus(tmp_path)
        want = load_corpus(path)
        start = threading.Barrier(2)
        got = [None, None]

        def load(i):
            start.wait()
            got[i] = load_corpus(path)

        threads = [threading.Thread(target=load, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert got[0] == want and got[1] == want

    def test_held_bytes_per_token(self, tmp_path):
        # 2,000 questions over 200 spellings: a token costs its list slot
        # plus a share of its record, about 28 bytes.  Were every token its
        # own string object, it would cost about 93.
        path = spelling_corpus(tmp_path)
        tracemalloc.start()
        try:
            records = load_corpus(path)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tokens = sum(len(rec.question_tokens) for rec in records)
        assert held / tokens < 40


class TestPreprocess:
    """Padding, truncation and tags of the rows ``make_example`` writes:
    the question's ``ids``/``mask``/``tag_ids`` and each bank row."""

    def test_pad_to_length(self, tmp_path):
        vocab = build_vocab([["works", "with", "iphone", "?"]])
        rec = QaRecord("p", "c", ["Works", "with", "iphone", "?"], tags=["F", "F", "F", "O"])
        ex = make_example(rec, [], vocab, max_len=40)
        assert ex.ids.shape == (40,)
        assert np.all(ex.ids[4:] == PAD_ID)
        assert np.array_equal(ex.mask[:4], np.ones(4))
        assert np.array_equal(ex.mask[4:], np.zeros(36))

    def test_truncation(self):
        tokens = [f"t{i}" for i in range(45)]
        vocab = build_vocab([tokens])
        ex = make_example(QaRecord("p", "c", tokens), [], vocab, max_len=40)
        assert ex.mask.sum() == 40
        assert ex.ids[39] == vocab.lookup("t39")

    def test_bank_row_truncation(self):
        tokens = [f"t{i}" for i in range(45)]
        vocab = build_vocab([tokens])
        ex = make_example(QaRecord("p", "c", ["t0"]), [QaRecord("q", "c", tokens)], vocab,
                          max_len=40, bank_size=2)
        assert ex.bank_mask.sum(axis=1).tolist() == [40.0, 0.0]
        assert ex.bank_ids[0].tolist() == vocab.encode(tokens[:40])

    def test_sentence_join_inserts_eos(self):
        vocab = build_vocab([["a", "b", "c"]])
        ex = make_example(QaRecord("p", "c", join_sentences([["a", "b"], ["c"]])), [], vocab,
                          max_len=6)
        assert list(ex.ids[:4]) == vocab.encode(["a", "b", EOS_TOKEN, "c"])

    def test_empty_rejected(self):
        vocab = build_vocab([["a"]])
        with pytest.raises(CorpusError):
            make_example(QaRecord("p", "c", []), [], vocab)

    def test_empty_bank_question_rejected(self):
        vocab = build_vocab([["a"]])
        bank = [QaRecord("q", "c", ["a"]), QaRecord("r", "c", [])]
        with pytest.raises(CorpusError):
            make_example(QaRecord("p", "c", ["a"]), bank, vocab)

    def test_idempotent_on_full_length_input(self):
        tokens = [f"t{i}" for i in range(6)]
        vocab = build_vocab([tokens])
        first = make_example(QaRecord("p", "c", tokens), [], vocab, max_len=6)
        second = make_example(QaRecord("p", "c", tokens), [], vocab, max_len=6)
        assert np.array_equal(first.ids, second.ids)
        assert np.array_equal(first.mask, np.ones(6))

    def test_eos_forced_to_o(self):
        vocab = build_vocab([["a", "b"]])
        rec = QaRecord("p", "c", ["a", EOS_TOKEN, "b"], tags=["F", "F", "F"])
        ex = make_example(rec, [], vocab, max_len=4)
        assert list(ex.tag_ids[:3]) == [0, 1, 0]  # F, O(forced), F


def reference_rows(record, bank, vocab, max_len, bank_size):
    """The five example arrays as built one question at a time, each row
    padded on its own, with the per-token tag loop and the row copies."""
    def one(rec):
        tokens = rec.question_tokens[:max_len]
        ids = np.full(max_len, PAD_ID, dtype=np.int64)
        ids[:len(tokens)] = [vocab.lookup(t) for t in tokens]
        mask = np.zeros(max_len)
        mask[:len(tokens)] = 1.0
        tag_ids = None
        if rec.tags is not None:
            tag_ids = np.full(max_len, O_INDEX, dtype=np.int64)
            for t in range(len(tokens)):
                if tokens[t] == EOS_TOKEN:
                    tag_ids[t] = O_INDEX
                else:
                    tag_ids[t] = LABELS.index(rec.tags[t])
        return ids, mask, tag_ids
    ids, mask, tag_ids = one(record)
    bank_ids = np.full((bank_size, max_len), PAD_ID, dtype=np.int64)
    bank_mask = np.zeros((bank_size, max_len))
    for n, b in enumerate(bank[:bank_size]):
        bank_ids[n], bank_mask[n], _ = one(b)
    return ids, mask, tag_ids, bank_ids, bank_mask


class TestRowsGoldAndTags:
    """``make_example``, ``collate``'s gold and ``predict_tags`` against
    their one-question, one-example and one-position references."""
    T, U = 8, 3

    def records(self):
        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(12)] + ["Mixed", "?"]

        def rec(n, labeled, name):
            tokens = [words[i] for i in rng.integers(0, len(words), size=n)]
            tags = [("F", "O")[i] for i in rng.integers(0, 2, size=n)] if labeled else None
            return QaRecord(name, "c", tokens, tags=tags)
        questions = [rec(n, labeled, f"q{n}{labeled}")
                     for n in (1, self.T - 1, self.T, self.T + 5) for labeled in (True, False)]
        joined = join_sentences([["w1", "w2"], ["w3", "unseen"], ["Mixed"]])
        questions.append(QaRecord("eos", "c", joined, tags=["F", "F", "F", "F", "F", "O", "F"]))
        long_bank = [rec(self.T + 5, False, "long")] + [rec(3, False, f"b{i}") for i in range(4)]
        banks = [[], long_bank[:2], long_bank[:self.U], long_bank]
        vocab = build_vocab([words[:10]])
        return vocab, [(q, banks[i % len(banks)]) for i, q in enumerate(questions)]

    def test_make_example_matches_reference(self):
        vocab, cases = self.records()
        for rec, bank in cases:
            ex = make_example(rec, bank, vocab, max_len=self.T, bank_size=self.U)
            want = reference_rows(rec, bank, vocab, self.T, self.U)
            got = (ex.ids, ex.mask, ex.tag_ids, ex.bank_ids, ex.bank_mask)
            for g, w in zip(got, want):
                if w is None:
                    assert g is None
                    continue
                assert g.dtype == w.dtype and g.shape == w.shape
                assert np.array_equal(g, w)

    def test_collate_gold_matches_per_example_loop(self):
        vocab, cases = self.records()
        examples = [make_example(rec, bank, vocab, max_len=self.T, bank_size=self.U)
                    for rec, bank in cases if rec.labeled]
        gold = collate(examples).gold
        want = np.zeros((len(examples), self.T, len(LABELS)))
        for i, e in enumerate(examples):
            valid = int(e.mask.sum())
            want[i, np.arange(valid), e.tag_ids[:valid]] = 1.0
        assert gold.dtype == want.dtype
        assert np.array_equal(gold, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_predict_tags_matches_per_position_loop(self, dtype):
        rng = np.random.default_rng(2)
        probs = rng.random((self.T, 2)).astype(dtype)
        probs[1] = [0.5, 0.5]          # exact tie: O
        probs[2] = [0.9, 0.1]          # masked F
        valid = np.ones(self.T)
        valid[2] = 0.0
        want = [LABELS[F_INDEX] if probs[t, F_INDEX] > probs[t, O_INDEX] else LABELS[O_INDEX]
                for t in range(self.T) if valid[t] > 0]
        got = predict_tags(probs, valid)
        assert got == want and len(got) == self.T - 1 and got[1] == "O"


class TestMakeExample:
    def test_category_mismatch_rejected(self):
        vocab = build_vocab([["a"]])
        rec = QaRecord("p", "laptop", ["a"], tags=["O"])
        with pytest.raises(ValueError, match="category"):
            make_example(rec, [QaRecord("p2", "phone", ["a"])], vocab)

    def test_bank_never_contains_the_record_itself(self):
        vocab = build_vocab([["a"]])
        rec = QaRecord("p", "c", ["a"], tags=["O"])
        with pytest.raises(ValueError, match="itself"):
            make_example(rec, [rec], vocab)

    def test_bank_capped_at_bank_size(self):
        vocab = build_vocab([["a", "b"]])
        rec = QaRecord("p", "c", ["a"], tags=["O"])
        bank = [QaRecord(f"b{i}", "c", ["b"]) for i in range(7)]
        ex = make_example(rec, bank, vocab, max_len=4, bank_size=5)
        assert len(ex.bank) == 5
        assert ex.bank_mask.any(axis=1).sum() == 5

    def test_collate_shapes(self, tiny_vocab, fig_example):
        batch = collate([fig_example, fig_example])
        assert batch.ids.shape == (2, 6)
        assert batch.gold.shape == (2, 6, 2)
        assert batch.bank_ids.shape == (2, 2, 6)
        # one-hot exactly at valid rows, zero rows at padding
        assert np.array_equal(batch.gold[0, :4].sum(axis=-1), np.ones(4))
        assert np.array_equal(batch.gold[0, 4:], np.zeros((2, 2)))


class TestSplit:
    def test_100_gives_70_10_20(self):
        s = split(list(range(100)), seed=0)
        assert (len(s.train), len(s.validation), len(s.test)) == (70, 10, 20)

    def test_deterministic(self):
        a = split(list(range(50)), seed=3)
        b = split(list(range(50)), seed=3)
        assert a.train == b.train and a.validation == b.validation and a.test == b.test

    def test_nine_examples_rounding(self):
        s = split(list(range(9)), seed=1)
        assert (len(s.train), len(s.validation), len(s.test)) == (7, 1, 1)

    def test_small_corpus_warns(self, caplog):
        import logging
        with caplog.at_level(logging.WARNING):
            split(list(range(5)), seed=0)
        assert "5 examples" in caplog.text

    def test_parts_disjoint_cover(self):
        items = list(range(37))
        s = split(items, seed=9)
        combined = sorted(s.train + s.validation + s.test)
        assert combined == items

    @given(st.integers(min_value=10, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_proportions_within_one(self, n):
        s = split(list(range(n)), seed=0)
        assert abs(len(s.train) - 0.7 * n) <= 1
        assert abs(len(s.validation) - 0.1 * n) <= 1
        assert abs(len(s.test) - 0.2 * n) <= 1


class TestCorpusStats:
    def test_half_with_functions(self):
        records = [QaRecord("p", "c", ["a"], tags=["F"]),
                   QaRecord("p", "c", ["a"], tags=["O"])]
        stats = corpus_stats(records)
        assert stats.total_qa == 2
        assert stats.total_pct == 50.0

    def test_all_o(self):
        records = [QaRecord("p", "c", ["a"], tags=["O"])]
        assert corpus_stats(records).total_pct == 0.0

    def test_products_in_first_seen_order(self):
        records = [QaRecord("zeta", "c", ["a"], tags=["F"]),
                   QaRecord("alpha", "c", ["a"], tags=["O"]),
                   QaRecord("zeta", "c", ["a"], tags=["O"])]
        stats = corpus_stats(records)
        assert [r.product for r in stats.rows] == ["zeta", "alpha"]
        assert stats.rows[0].qa_count == 2
        assert stats.rows[0].with_function_pct == 50.0

    def test_unlabeled_ignored_and_empty_rejected(self):
        unlabeled = QaRecord("p", "c", ["a"])
        with pytest.raises(CorpusError):
            corpus_stats([unlabeled])

    def test_format_two_decimals(self):
        records = [QaRecord("p", "c", ["a"], tags=["F"]),
                   QaRecord("p", "c", ["a"], tags=["O"]),
                   QaRecord("p", "c", ["a"], tags=["O"])]
        text = format_stats(corpus_stats(records))
        assert "33.33" in text
        assert text.splitlines()[-1].startswith("Total")
