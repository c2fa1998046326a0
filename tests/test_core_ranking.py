"""Tests for result merging and the greedy disjoint-cover ranking."""

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.keys import Key
from repro.core.ranking import RankedDocument, merge_and_rank, \
    rank_with_margin
from repro.ir.postings import Posting, PostingList


def _lists(mapping):
    return {key: PostingList(postings)
            for key, postings in mapping.items()}


class TestMergeAndRank:
    def test_paper_example_bc_plus_a(self):
        """Query abc answered from keys bc and a: a document in both gets
        score(bc) + score(a) — the exact decomposition of Figure 1."""
        retrieved = _lists({
            Key(["b", "c"]): [Posting(1, 2.0), Posting(2, 1.5)],
            Key(["a"]): [Posting(1, 0.7), Posting(3, 0.4)],
        })
        ranked = merge_and_rank(retrieved, Key(["a", "b", "c"]), k=10)
        scores = {doc.doc_id: doc.score for doc in ranked}
        assert scores[1] == pytest.approx(2.7)
        assert scores[2] == pytest.approx(1.5)
        assert scores[3] == pytest.approx(0.4)
        assert [doc.doc_id for doc in ranked] == [1, 2, 3]

    def test_overlapping_keys_not_double_counted(self):
        # Keys ab and b overlap on term b: only the better one counts.
        retrieved = _lists({
            Key(["a", "b"]): [Posting(1, 3.0)],
            Key(["b"]): [Posting(1, 1.0)],
        })
        ranked = merge_and_rank(retrieved, Key(["a", "b"]), k=10)
        assert ranked[0].score == pytest.approx(3.0)
        assert ranked[0].covering_keys == (Key(["a", "b"]),)

    def test_disjoint_singles_sum(self):
        retrieved = _lists({
            Key(["a"]): [Posting(1, 1.0)],
            Key(["b"]): [Posting(1, 2.0)],
            Key(["c"]): [Posting(1, 0.5)],
        })
        ranked = merge_and_rank(retrieved, Key(["a", "b", "c"]), k=10)
        assert ranked[0].score == pytest.approx(3.5)
        assert set(ranked[0].covering_keys) == {Key(["a"]), Key(["b"]),
                                                Key(["c"])}

    def test_greedy_prefers_high_score_key(self):
        # ab scores 5; a and b score 1 each: greedy takes ab (5 > 2).
        retrieved = _lists({
            Key(["a", "b"]): [Posting(1, 5.0)],
            Key(["a"]): [Posting(1, 1.0)],
            Key(["b"]): [Posting(1, 1.0)],
        })
        ranked = merge_and_rank(retrieved, Key(["a", "b"]), k=10)
        assert ranked[0].score == pytest.approx(5.0)

    def test_k_limits_results(self):
        retrieved = _lists({
            Key(["a"]): [Posting(index, float(10 - index))
                         for index in range(10)],
        })
        ranked = merge_and_rank(retrieved, Key(["a"]), k=3)
        assert len(ranked) == 3
        assert [doc.doc_id for doc in ranked] == [0, 1, 2]

    def test_tie_broken_by_doc_id(self):
        retrieved = _lists({
            Key(["a"]): [Posting(5, 1.0), Posting(2, 1.0)],
        })
        ranked = merge_and_rank(retrieved, Key(["a"]), k=10)
        assert [doc.doc_id for doc in ranked] == [2, 5]

    def test_empty_retrieval(self):
        assert merge_and_rank({}, Key(["a"]), k=5) == []

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            merge_and_rank({}, Key(["a"]), k=0)

    def test_terms_covered_property(self):
        retrieved = _lists({
            Key(["a", "b"]): [Posting(1, 2.0)],
            Key(["c"]): [Posting(1, 1.0)],
        })
        ranked = merge_and_rank(retrieved, Key(["a", "b", "c"]), k=1)
        assert ranked[0].terms_covered == frozenset({"a", "b", "c"})

    def test_deterministic_across_dict_orders(self):
        lists_a = _lists({
            Key(["a"]): [Posting(1, 1.0)],
            Key(["b"]): [Posting(1, 1.0)],
        })
        lists_b = dict(reversed(list(lists_a.items())))
        ranked_a = merge_and_rank(lists_a, Key(["a", "b"]), k=5)
        ranked_b = merge_and_rank(lists_b, Key(["a", "b"]), k=5)
        assert [(doc.doc_id, doc.score) for doc in ranked_a] == \
            [(doc.doc_id, doc.score) for doc in ranked_b]


def _reference_rank_all(retrieved, k) -> List[RankedDocument]:
    """The original full ranking (every candidate built and sorted),
    kept as the oracle for the top-k-only implementation."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    per_document: Dict[int, List[Tuple[float, Key]]] = {}
    for key, postings in retrieved.items():
        for posting in postings:
            per_document.setdefault(posting.doc_id, []).append(
                (posting.score, key))
    ranked: List[RankedDocument] = []
    for doc_id, contributions in per_document.items():
        contributions.sort(key=lambda pair: (-pair[0], len(pair[1]),
                                             pair[1].terms))
        chosen: List[Key] = []
        covered: frozenset = frozenset()
        total = 0.0
        for score, key in contributions:
            if covered & key.term_set:
                continue
            chosen.append(key)
            covered |= key.term_set
            total += score
        ranked.append(RankedDocument(doc_id=doc_id, score=total,
                                     covering_keys=tuple(chosen)))
    ranked.sort(key=lambda document: (-document.score, document.doc_id))
    return ranked


_QUERY = Key(["a", "b", "c", "d"])

#: Multi-term keys over four terms, so covers overlap and conflict.
_keys = st.lists(st.sets(st.sampled_from("abcd"), min_size=1),
                 min_size=1, max_size=6).map(
                     lambda term_sets: list({Key(terms): None
                                             for terms in term_sets}))

#: Few distinct scores (ties across and within documents), including
#: both zeros and negative scores, plus arbitrary finite floats.
_scores = st.one_of(st.sampled_from([-0.5, -0.0, 0.0, 0.5, 1.0, 2.0]),
                    st.floats(min_value=-5.0, max_value=5.0,
                              allow_nan=False))


@st.composite
def _retrieved(draw):
    lists = {}
    for key in draw(_keys):
        doc_ids = draw(st.lists(st.integers(0, 24), max_size=12,
                                unique=True))
        lists[key] = PostingList([Posting(doc_id, draw(_scores))
                                  for doc_id in doc_ids])
    return lists


def _rows(documents):
    # float.hex compares scores bit for bit (it tells -0.0 from 0.0).
    return [(document.doc_id, document.score.hex(), document.covering_keys)
            for document in documents]


class TestRankingMatchesFullSort:
    """Ranking only the top k gives exactly the full ranking's prefix."""

    @given(_retrieved(), st.integers(min_value=1, max_value=40))
    @settings(max_examples=300, deadline=None)
    def test_merge_and_rank(self, retrieved, k):
        expected = _reference_rank_all(retrieved, k)[:k]
        assert _rows(merge_and_rank(retrieved, _QUERY, k)) == \
            _rows(expected)

    @given(_retrieved(), st.integers(min_value=1, max_value=40))
    @settings(max_examples=300, deadline=None)
    def test_rank_with_margin(self, retrieved, k):
        ranked = _reference_rank_all(retrieved, k)
        top, kth, runner_up = rank_with_margin(retrieved, _QUERY, k)
        assert _rows(top) == _rows(ranked[:k])
        assert kth.hex() == (ranked[k - 1].score if len(ranked) >= k
                             else 0.0).hex()
        assert runner_up.hex() == (ranked[k].score if len(ranked) > k
                                   else 0.0).hex()
