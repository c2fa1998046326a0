"""Result merging and distributed ranking (Layer 4).

"Once the lattice exploration process terminates and all available posting
lists relevant to the original query have been retrieved, the querying
peer produces their union, ranks all the documents w.r.t the original
query, and presents the top-ranked results to the user."

Each retrieved posting carries the BM25 score of its document *for that
key's terms*, computed against global collection statistics at publish
time.  To rank a document with respect to the full query, the merger
combines scores from a **greedy disjoint cover** of the query terms:
score contributions are only summed across keys that share no terms, so no
query term is counted twice.  For the paper's canonical example (query
``abc`` answered from keys ``bc`` and ``a``) this reproduces the exact
BM25 decomposition score(abc) = score(bc) + score(a).

The optional second step ("refinement") re-scores the first-step
candidates exactly at the peers that hold the documents; see
:mod:`repro.core.retrieval`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.keys import Key
from repro.ir.postings import PostingList

__all__ = ["RankedDocument", "merge_and_rank", "rank_with_margin"]


@dataclass
class RankedDocument:
    """A merged candidate with its combined score and provenance."""

    doc_id: int
    score: float
    covering_keys: Tuple[Key, ...]

    @property
    def terms_covered(self) -> frozenset:
        covered: frozenset = frozenset()
        for key in self.covering_keys:
            covered |= key.term_set
        return covered


def merge_and_rank(retrieved: Mapping[Key, PostingList],
                   query: Key, k: int) -> List[RankedDocument]:
    """Union the retrieved lists and rank documents for the query.

    For every document, the available (key, score) pairs are combined
    greedily: keys are considered in descending score order and a key's
    score is added only when it is term-disjoint from every key already
    counted for that document.  Documents are then ranked by combined
    score (ties broken by doc id for determinism) and the top ``k``
    returned.

    For the query engine's top-k early termination, use
    :func:`rank_with_margin`, which additionally exposes the threshold
    scores the termination test needs.
    """
    return _rank_top(retrieved, k, k)


def rank_with_margin(retrieved: Mapping[Key, PostingList],
                     query: Key, k: int
                     ) -> Tuple[List[RankedDocument], float, float]:
    """Rank like :func:`merge_and_rank`, exposing the top-k margin.

    Returns ``(top_k, kth_score, runner_up_score)`` where ``kth_score``
    is the score of the k-th ranked document (0.0 when fewer than ``k``
    candidates exist) and ``runner_up_score`` is the best score *outside*
    the top k (0.0 when none).  Early termination is sound when no
    unprobed key can lift a runner-up (or an unseen document, whose
    current score is 0) above ``kth_score``.
    """
    ranked = _rank_top(retrieved, k, k + 1)
    top = ranked[:k]
    kth = top[-1].score if len(top) == k else 0.0
    runner_up = ranked[k].score if len(ranked) > k else 0.0
    return top, kth, runner_up


def _rank_top(retrieved: Mapping[Key, PostingList], k: int,
              count: int) -> List[RankedDocument]:
    """The greedy-disjoint-cover ranking, cut to the best ``count``.

    Every candidate is scored, but :class:`RankedDocument` objects are
    built only for the ``count`` returned.  A document with a single
    contribution needs no cover: its score is that contribution's.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    per_document: Dict[int, List[Tuple[float, Key]]] = {}
    found = per_document.get
    for key, postings in retrieved.items():
        for posting in postings:
            contributions = found(posting.doc_id)
            if contributions is None:
                per_document[posting.doc_id] = [(posting.score, key)]
            else:
                contributions.append((posting.score, key))
    covers: Dict[int, Tuple[Key, ...]] = {}
    order: List[Tuple[float, int]] = []
    for doc_id, contributions in per_document.items():
        if len(contributions) == 1:
            # 0.0 + score: the float the greedy sum below would give.
            order.append((-(0.0 + contributions[0][0]), doc_id))
            continue
        # Deterministic greedy order: best score first, then smaller keys
        # (a high-scoring large key should win over its own sub-keys).
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
        covers[doc_id] = tuple(chosen)
        order.append((-total, doc_id))
    # Doc ids are unique, so (-score, doc_id) orders totally.
    order.sort()
    return [RankedDocument(
                doc_id=doc_id, score=-negated,
                covering_keys=(covers[doc_id] if doc_id in covers
                               else (per_document[doc_id][0][1],)))
            for negated, doc_id in order[:count]]
