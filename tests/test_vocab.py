from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fnr.vocab import (EOS_ID, EOS_TOKEN, PAD_ID, PAD_TOKEN, RESERVED, UNK_ID, UNK_TOKEN,
                       Vocabulary, build_vocab, join_sentences, normalize, tokenize)


class TestBuildVocab:
    def test_construction_rule(self):
        v = build_vocab([["a", "a", "b"]], min_freq=1)
        assert v.lookup("a") == 3
        assert v.lookup("b") == 4
        assert v.token_to_id[PAD_TOKEN] == PAD_ID
        assert v.token_to_id[EOS_TOKEN] == EOS_ID
        assert v.token_to_id[UNK_TOKEN] == UNK_ID

    def test_min_freq_cutoff(self):
        v = build_vocab([["a", "a", "b"]], min_freq=2)
        assert "b" not in v
        assert v.lookup("b") == UNK_ID

    def test_frequency_then_lexicographic(self):
        v = build_vocab([["z", "z", "m", "q", "m", "q"]])
        # m and q tie at 2, z also 2: all tie -> lexicographic m, q, z
        assert [v.id_to_token[i] for i in (3, 4, 5)] == ["m", "q", "z"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([])

    def test_lowercasing(self):
        v = build_vocab([["Works", "WORKS", "works"]])
        assert v.lookup("WoRkS") == 3

    def test_eos_keeps_case_and_reserved_id(self):
        v = build_vocab([["a", EOS_TOKEN, "b"]])
        assert v.lookup(EOS_TOKEN) == EOS_ID
        assert v.lookup("eos") == UNK_ID  # ordinary unseen word

    @given(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_pure_function_of_multiset(self, tokens):
        import random
        shuffled = tokens[:]
        random.Random(7).shuffle(shuffled)
        a = build_vocab([tokens])
        b = build_vocab([shuffled[:15], shuffled[15:]] if len(shuffled) > 15 else [shuffled])
        assert a.id_to_token == b.id_to_token

    def test_unknown_token_maps_to_unk(self):
        v = build_vocab([["a"]])
        assert v.lookup("never-seen") == UNK_ID

    @given(st.lists(st.lists(st.sampled_from(["a", "A", "b", "B", "Bb", "bB", EOS_TOKEN,
                                               "eos", "Eos", "EOs"]), max_size=8),
                    min_size=1, max_size=6),
           st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_equals_per_token_reference(self, corpus, min_freq):
        # The rule written out token by token: fold every occurrence, count.
        counts = Counter(normalize(t) for seq in corpus for t in seq)
        del counts[EOS_TOKEN]
        kept = sorted((t for t, c in counts.items() if c >= min_freq),
                      key=lambda t: (-counts[t], t))
        assert build_vocab(corpus, min_freq).id_to_token == list(RESERVED) + kept


class TestTokenize:
    def test_single_sentence_with_question_mark(self):
        assert tokenize("Works with iphone ?") == [["Works", "with", "iphone", "?"]]

    def test_two_sentences(self):
        sents = tokenize("Is it good? Works with iphone ?")
        assert sents == [["Is", "it", "good", "?"], ["Works", "with", "iphone", "?"]]

    def test_punctuation_split(self):
        assert tokenize("mac-book, yes") == [["mac", "-", "book", ",", "yes"]]

    def test_join_sentences_inserts_eos(self):
        assert join_sentences([["a", "b"], ["c"]]) == ["a", "b", EOS_TOKEN, "c"]


class TestVocabulary:
    def test_must_start_with_reserved(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "b", "c"])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary([PAD_TOKEN, EOS_TOKEN, UNK_TOKEN, "a", "a"])

    def test_unnormalised_token_rejected(self):
        # lookup lowercases, so a row stored as "iPhone" could never be read.
        with pytest.raises(ValueError, match="'iPhone' is not normalised"):
            Vocabulary([PAD_TOKEN, EOS_TOKEN, UNK_TOKEN, "a", "iPhone"])

    def test_encode(self):
        v = Vocabulary([PAD_TOKEN, EOS_TOKEN, UNK_TOKEN, "a", "b"])
        assert v.encode(["a", "b", "zzz"]) == [3, 4, UNK_ID]
