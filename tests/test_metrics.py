import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fnr.metrics import Metrics, score_predictions


class TestCounts:
    def test_perfect_predictions(self):
        items = [(["F", "F", "O"], ["F", "F", "O"], ["a", "b", "c"])]
        m = score_predictions(items)
        assert m.span_precision == m.span_recall == m.span_f1 == 1.0
        assert m.token_precision == m.token_recall == m.token_f1 == 1.0

    def test_hand_counted_case(self):
        # 2 predicted spans, 1 matching; 2 gold spans.
        pred = ["F", "O", "F", "O"]
        gold = ["F", "O", "O", "F"]
        m = score_predictions([(pred, gold, ["a", "b", "c", "d"])])
        assert m.span_tp == 1 and m.span_fp == 1 and m.span_fn == 1
        assert m.span_precision == 0.5 and m.span_recall == 0.5 and m.span_f1 == 0.5

    def test_boundary_mismatch_not_a_match(self):
        pred = ["F", "F", "O"]
        gold = ["F", "O", "O"]
        m = score_predictions([(pred, gold, ["a", "b", "c"])])
        assert m.span_tp == 0

    def test_f1_zero_when_no_predictions_and_no_gold(self):
        m = score_predictions([(["O"], ["O"], ["a"])])
        assert m.span_f1 == 0.0 and m.token_f1 == 0.0

    def test_token_counts(self):
        pred = ["F", "F", "O", "O"]
        gold = ["F", "O", "F", "O"]
        m = score_predictions([(pred, gold, list("abcd"))])
        assert (m.token_tp, m.token_fp, m.token_fn) == (1, 1, 1)

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            score_predictions([(["F"], ["F", "O"], ["a", "b"])])


class TestProperties:
    def test_permutation_invariance(self):
        items = [(["F", "O"], ["F", "F"], ["a", "b"]),
                 (["O", "O", "F"], ["O", "F", "F"], ["c", "d", "e"]),
                 (["F"], ["F"], ["f"])]
        a = score_predictions(items)
        b = score_predictions(items[::-1])
        assert a == b

    @given(st.lists(
        st.tuples(st.lists(st.sampled_from(["F", "O"]), min_size=1, max_size=8),
                  st.integers(0, 10**9)),
        min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_span_tp_never_exceeds_token_tp(self, cases):
        items = []
        for gold, seed in cases:
            rng = np.random.default_rng(seed)
            pred = ["F" if rng.random() < 0.5 else "O" for _ in gold]
            tokens = [f"t{i}" for i in range(len(gold))]
            items.append((pred, gold, tokens))
        m = score_predictions(items)
        assert m.span_tp <= m.token_tp
        assert 0.0 <= m.span_f1 <= 1.0
        assert 0.0 <= m.token_f1 <= 1.0

    def test_to_dict_values(self):
        m = Metrics.from_counts(3, 1, 2, 10, 4, 5)
        assert m.to_dict() == {
            "span": {"precision": 0.75, "recall": 0.6, "f1": m.span_f1,
                     "tp": 3, "fp": 1, "fn": 2},
            "token": {"precision": 10 / 14, "recall": 10 / 15, "f1": m.token_f1,
                      "tp": 10, "fp": 4, "fn": 5},
        }
        assert m.span_f1 == 2 * 0.75 * 0.6 / (0.75 + 0.6)
