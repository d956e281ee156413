import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fnr.data import QaRecord
from fnr.retrieval import (Bm25Index, build_bank, file_sha256, load_bank_cache,
                           save_bank_cache)
from fnr.vocab import EOS_TOKEN


def rec(tokens, category="c", labeled=False, line_no=None):
    return QaRecord("p", category, list(tokens),
                    tags=["O"] * len(tokens) if labeled else None, line_no=line_no)


def reference_bm25(query, docs, k1=1.2, b=0.75):
    """Hand transcription of the scoring formula, idf floored at 0."""
    n = len(docs)
    avgdl = sum(len(d) for d in docs) / n
    df = {}
    for d in docs:
        for t in set(d):
            df[t] = df.get(t, 0) + 1
    scores = []
    for d in docs:
        s = 0.0
        for t in query:
            f = d.count(t)
            if not f:
                continue
            idf = max(0.0, math.log((n - df[t] + 0.5) / (df[t] + 0.5)))
            s += idf * f * (k1 + 1) / (f + k1 * (1 - b + b * len(d) / avgdl))
        scores.append(s)
    return scores


class TestScoring:
    def test_matches_reference_formula(self):
        docs = [["use", "for", "video", "editing"],
                ["make", "video", "calls", "to", "friends"],
                ["run", "games", "fast"]]
        index = Bm25Index([rec(d) for d in docs])
        query = ["video", "calls", "?"]
        got = index.score(query, "c")
        assert np.allclose(got, reference_bm25(query, docs), atol=1e-12)

    def test_no_overlap_scores_zero(self):
        index = Bm25Index([rec(["alpha", "beta"]), rec(["gamma"])])
        assert index.score(["delta"], "c").tolist() == [0.0, 0.0]

    def test_adding_matching_occurrence_never_decreases(self):
        # Documents whose only query term is the one being repeated.
        query = ["video"]
        prev = None
        for reps in range(1, 6):
            docs = [["video"] * reps + ["filler", "words"],
                    ["other", "stuff", "entirely"],
                    ["more", "unrelated", "padding", "tokens"]]
            index = Bm25Index([rec(d) for d in docs])
            score = index.score(query, "c")[0]
            if prev is not None:
                assert score >= prev
            prev = score

    def test_case_folding(self):
        index = Bm25Index([rec(["Video", "Calls"]), rec(["other", "words"]),
                           rec(["more", "filler"])])
        assert index.score(["video"], "c")[0] > 0.0

    def test_categories_isolated(self):
        index = Bm25Index([rec(["video"], category="laptop"),
                           rec(["video"], category="phone")])
        assert len(index.score(["video"], "laptop")) == 1
        unknown = index.score(["video"], "tablet")
        assert unknown.dtype == np.float64 and unknown.shape == (0,)


class TestQueryAndBuildBank:
    def test_pool_of_one(self):
        index = Bm25Index([rec(["works", "with", "mac"])])
        labeled = rec(["works", "with", "iphone"], labeled=True)
        assert len(build_bank(labeled, index, u_max=5)) == 1

    def test_identical_candidate_excluded(self):
        index = Bm25Index([rec(["works", "with", "iphone"]),
                           rec(["works", "with", "mac"])])
        labeled = rec(["works", "with", "iphone"], labeled=True)
        bank = build_bank(labeled, index, u_max=5)
        assert [b.question_tokens for b in bank] == [["works", "with", "mac"]]

    def test_exact_ranking_from_reference(self):
        docs = [["use", "video", "editing"],
                ["video", "video", "calls"],
                ["unrelated", "words", "here"]]
        index = Bm25Index([rec(d, line_no=i + 1) for i, d in enumerate(docs)])
        labeled = rec(["video", "calls"], labeled=True)
        ref = reference_bm25(["video", "calls"], docs)
        expect = sorted(range(3), key=lambda i: (-ref[i], i))
        bank = build_bank(labeled, index, u_max=3)
        assert [b.line_no - 1 for b in bank] == expect

    def test_ties_broken_by_stable_order(self):
        docs = [["same", "words"], ["same", "words"], ["same", "words"]]
        index = Bm25Index([rec(d, line_no=i + 1) for i, d in enumerate(docs)])
        labeled = rec(["same"], labeled=True)
        bank = build_bank(labeled, index, u_max=2)
        assert [b.line_no for b in bank] == [1, 2]

    def test_labeled_pool_records_never_indexed(self):
        index = Bm25Index([rec(["video"], labeled=True), rec(["video", "calls"])])
        labeled = rec(["video"], labeled=True)
        bank = build_bank(labeled, index, u_max=5)
        assert [b.question_tokens for b in bank] == [["video", "calls"]]

    def test_empty_pool_empty_bank(self):
        index = Bm25Index([])
        assert build_bank(rec(["a"], labeled=True), index, u_max=5) == []

    def test_unknown_category_empty_bank(self):
        index = Bm25Index([rec(["a"], category="laptop")])
        assert build_bank(rec(["a"], category="phone", labeled=True), index, u_max=5) == []

    def test_eos_never_matches(self):
        index = Bm25Index([rec(["EOS", "word"])])
        assert index.score(["EOS"], "c").tolist() == [0.0]

    def test_pool_of_eos_only_questions(self):
        # Every document has length 0, so avgdl is 0.
        index = Bm25Index([rec(["EOS"]), rec(["EOS", "EOS"])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert index.score(["word", "EOS"], "c").tolist() == [0.0, 0.0]
            assert len(build_bank(rec(["word"], labeled=True), index, u_max=5)) == 2

    def test_u_max_zero_gives_empty_bank(self):
        index = Bm25Index([rec(["video", f"w{i}"], line_no=i + 1) for i in range(6)])
        assert build_bank(rec(["video"], labeled=True), index, u_max=0) == []

    def test_negative_u_max_rejected(self):
        index = Bm25Index([rec(["video", f"w{i}"], line_no=i + 1) for i in range(6)])
        with pytest.raises(ValueError, match="top_k"):
            build_bank(rec(["video"], labeled=True), index, u_max=-1)

    def test_deterministic(self):
        docs = [rec(["video", "calls"], line_no=1), rec(["video"], line_no=2)]
        labeled = rec(["video"], labeled=True)
        a = build_bank(labeled, Bm25Index(docs), u_max=2)
        b = build_bank(labeled, Bm25Index(docs), u_max=2)
        assert [x.line_no for x in a] == [x.line_no for x in b]


def random_pool():
    """Seeded two-category pool over a small vocabulary: mixed case, EOS
    separators, exact duplicates, and one term ("the") in every document."""
    rng = np.random.default_rng(11)
    words = ["video", "Video", "calls", "games", "Mac", "mac", "battery",
             "screen", "iphone", "fast", "quiet", "keyboard", "usb", "?"]
    pool = []
    for i in range(300):
        n = int(rng.integers(1, 9))
        toks = ["the"] + [words[j] for j in rng.integers(0, len(words), size=n)]
        if rng.random() < 0.3:
            toks.insert(int(rng.integers(1, len(toks) + 1)), EOS_TOKEN)
        category = "laptop" if i % 3 else "phone"
        pool.append(rec(toks, category=category, line_no=len(pool) + 1))
        if rng.random() < 0.1:
            pool.append(rec(toks, category=category, line_no=len(pool) + 1))
    return pool


def match_terms(tokens):
    return [t.lower() for t in tokens if t != EOS_TOKEN]


class TestExactBm25:
    """Scores and banks must equal the reference formula exactly, not
    within a tolerance: banks are rankings, and a last-bit change in a
    score can reorder ties."""

    QUERIES = [["video", "calls", "?"],
               ["Video", "video", "VIDEO", "mac"],
               ["the", "battery", "the", EOS_TOKEN, "screen"],
               ["the"],
               ["nothing", "matches", "here"],
               [EOS_TOKEN],
               []]

    def cases(self):
        pool = random_pool()
        for category in ("laptop", "phone"):
            members = [r for r in pool if r.category == category]
            docs = [match_terms(r.question_tokens) for r in members]
            queries = self.QUERIES + [members[i].question_tokens for i in (0, 7, 42)]
            for query in queries:
                yield category, members, docs, query

    def test_scores_equal_reference(self):
        index = Bm25Index(random_pool())
        for category, _, docs, query in self.cases():
            got = index.score(query, category)
            assert got.dtype == np.float64
            assert got.tolist() == reference_bm25(match_terms(query), docs)

    def test_banks_equal_reference_ranking(self):
        index = Bm25Index(random_pool())
        for category, members, docs, query in self.cases():
            ref = reference_bm25(match_terms(query), docs)
            ranked = sorted(range(len(docs)), key=lambda i: (-ref[i], i))
            ranked = [i for i in ranked if docs[i] != match_terms(query)]
            labeled = rec(query, category=category, labeled=True)
            for u_max in (1, 5, len(docs)):
                bank = build_bank(labeled, index, u_max=u_max)
                assert [b.line_no for b in bank] == [members[i].line_no
                                                     for i in ranked[:u_max]]


class TestIndexExactness:
    """The postings built from distinct raw tokens hold, for every term,
    the documents containing it and its exact BM25 contribution to each,
    and ``score`` equals the reference formula exactly, including for a
    term that every token-bearing document holds (idf 0) and for
    documents that are only EOS separators."""

    WORDS = [EOS_TOKEN, "eos", "Eos", "a", "A", "b", "Video", "video"]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_postings_and_scores(self, data):
        words = st.sampled_from(self.WORDS)
        docs = [["every"] + d for d in data.draw(
            st.lists(st.lists(words, max_size=5), min_size=1, max_size=12))]
        # EOS-only documents, never more than the others, so "every" is
        # in at least half the documents and its idf is floored to 0.
        for _ in range(data.draw(st.integers(0, len(docs)))):
            docs.insert(data.draw(st.integers(0, len(docs))),
                        [EOS_TOKEN] * data.draw(st.integers(1, 3)))
        index = Bm25Index([rec(d) for d in docs])
        cat = index._categories["c"]
        terms = [match_terms(d) for d in docs]
        assert set(cat.terms) == {t for d in terms for t in d}
        assert cat.dl.tolist() == [len(d) for d in terms]
        n, k1, b = len(terms), 1.2, 0.75
        avgdl = sum(map(len, terms)) / n
        for term, t in cat.terms.items():
            lo, hi = cat.offsets[t], cat.offsets[t + 1]
            holding = [i for i, d in enumerate(terms) if term in d]
            assert cat.post_docs[lo:hi].tolist() == holding
            df = len(holding)
            idf = max(0.0, math.log((n - df + 0.5) / (df + 0.5)))
            impacts = []
            for i in holding:
                f = terms[i].count(term)
                impacts.append(idf * f * (k1 + 1) / (f + k1 * (1 - b + b * len(terms[i]) / avgdl)))
            assert cat.impact[lo:hi].tolist() == impacts
        for query in data.draw(st.lists(st.lists(st.sampled_from(
                self.WORDS + ["every", "missing"]), max_size=5), min_size=1, max_size=4)):
            assert index.score(query, "c").tolist() == reference_bm25(match_terms(query), terms)


class TestPartialRanking:
    """``query`` selects a prefix of the ranking without sorting the whole
    category and compares tokens only for candidates of the query's match
    length; it must equal the stable full sort of ``score``, with the
    documents identical to the query removed, exactly."""

    WORDS = ["a", "b", "c", "A", EOS_TOKEN]

    def near_copy(self, data, query):
        """An exact copy of ``query``, or its match terms recased, with EOS
        separators put anywhere, and, in a "differs" copy, one term
        replaced so that the match length stays but the terms differ."""
        kind = data.draw(st.sampled_from(["exact", "same", "differs"]))
        if kind == "exact":
            return list(query)
        copy = match_terms(query)
        if kind == "differs" and copy:
            j = data.draw(st.integers(0, len(copy) - 1))
            copy[j] = data.draw(st.sampled_from([w for w in "abc" if w != copy[j]]))
        copy = [data.draw(st.sampled_from([t, t.upper()])) for t in copy]
        for _ in range(data.draw(st.integers(0, 2))):
            copy.insert(data.draw(st.integers(0, len(copy))), EOS_TOKEN)
        return copy

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_full_stable_sort(self, data):
        words = st.sampled_from(self.WORDS)
        docs = data.draw(st.lists(st.lists(words, max_size=4), min_size=1, max_size=25))
        query = data.draw(st.lists(words, max_size=4))
        # Near copies of the query, possibly more than top_k + 1 of them.
        for _ in range(data.draw(st.integers(0, 8))):
            docs.insert(data.draw(st.integers(0, len(docs))), self.near_copy(data, query))
        index = Bm25Index([rec(d, line_no=i + 1) for i, d in enumerate(docs)])
        scores = index.score(query, "c")
        ranked = sorted(range(len(docs)), key=lambda i: -scores[i])
        want = [i + 1 for i in ranked if match_terms(docs[i]) != match_terms(query)]
        for top_k in range(len(docs) + 1):
            got = index.query(query, "c", top_k)
            assert [r.line_no for r in got] == want[:top_k]

    def test_more_query_copies_than_top_k_plus_one(self):
        # Lines 1-7 equal the query and score highest; lines 8 and 10 tie
        # next; every other line scores 0 and follows in pool order.
        docs = [["video"]] * 7 + [["video", "calls"], ["calls"], ["video", "calls"]]
        docs += [["other"]] * 10
        index = Bm25Index([rec(d, line_no=i + 1) for i, d in enumerate(docs)])
        assert [r.line_no for r in index.query(["video"], "c", 2)] == [8, 10]
        assert [r.line_no for r in index.query(["video"], "c", 4)] == [8, 10, 9, 11]


class TestBankCache:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        save_bank_cache(path, [(1, [3, 5]), (2, [])])
        assert load_bank_cache(path) == {1: [3, 5], 2: []}

    def test_malformed_entry(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        path.write_text('{"query_line": 1}\n')
        with pytest.raises(ValueError, match="malformed"):
            load_bank_cache(path)

    def test_coerced_and_repeated_entries_rejected(self, tmp_path):
        # Were loaded as {2: [5]}: int() truncated the floats, took true
        # as 1 and "4" as 4, and the second line replaced the first.
        path = tmp_path / "bank.jsonl"
        path.write_text('{"query_line": 2.7, "bank_lines": [1.9, true, "4"]}\n'
                        '{"query_line": 2, "bank_lines": [5]}\n')
        with pytest.raises(ValueError, match=f"^{path}:1: query_line must be an integer"):
            load_bank_cache(path)

    @pytest.mark.parametrize("entry, message", [
        ('{"query_line": 2.0, "bank_lines": []}', "query_line must be an integer >= 1, got 2.0"),
        ('{"query_line": true, "bank_lines": []}', "query_line must be an integer >= 1, got True"),
        ('{"query_line": "2", "bank_lines": []}', "query_line must be an integer >= 1, got '2'"),
        ('{"query_line": 0, "bank_lines": []}', "query_line must be an integer >= 1, got 0"),
        ('{"query_line": 2, "bank_lines": [1.9]}', "bank_lines entry must be an integer >= 1"),
        ('{"query_line": 2, "bank_lines": [false]}', "bank_lines entry must be an integer >= 1"),
        ('{"query_line": 2, "bank_lines": ["4"]}', "bank_lines entry must be an integer >= 1"),
        ('{"query_line": 2, "bank_lines": [-1]}', "bank_lines entry must be an integer >= 1"),
        ('{"query_line": 2, "bank_lines": 5}', "malformed bank cache entry"),
        ('[2, [5]]', "malformed bank cache entry"),
        ('{"query_line": 1, "bank_lines": [3]}', "repeated query_line 1"),
    ])
    def test_bad_entry_names_its_line(self, tmp_path, entry, message):
        path = tmp_path / "bank.jsonl"
        path.write_text('{"query_line": 1, "bank_lines": [3]}\n\n' + entry + "\n")
        with pytest.raises(ValueError) as err:
            load_bank_cache(path)
        assert str(err.value).startswith(f"{path}:3: {message}")

    def test_source_digests(self, tmp_path):
        labeled, pool = tmp_path / "labeled.jsonl", tmp_path / "pool.jsonl"
        labeled.write_text("labeled\n")
        pool.write_text("pool\n")
        sources = {"labeled": str(labeled), "pool": str(pool)}
        path = tmp_path / "bank.jsonl"
        save_bank_cache(path, [(1, [3, 5]), (2, [])],
                        {role: file_sha256(source) for role, source in sources.items()})
        header = path.read_text().splitlines()[0]
        assert header == ('{"sha256": {"labeled": "%s", "pool": "%s"}}'
                          % (file_sha256(labeled), file_sha256(pool)))
        assert load_bank_cache(path) == {1: [3, 5], 2: []}
        assert load_bank_cache(path, sources=sources) == {1: [3, 5], 2: []}
        pool.write_text("pool, edited\n")
        with pytest.raises(ValueError, match=f"pool corpus {pool} changed"):
            load_bank_cache(path, sources=sources)

    def test_missing_or_misplaced_header(self, tmp_path):
        path = tmp_path / "bank.jsonl"
        save_bank_cache(path, [(1, [3])])
        with pytest.raises(ValueError, match="no sha256 header"):
            load_bank_cache(path, sources={"pool": str(path)})
        path.write_text('{"query_line": 1, "bank_lines": [3]}\n{"sha256": {}}\n')
        with pytest.raises(ValueError, match=":2: malformed bank cache entry"):
            load_bank_cache(path)
