"""Seeded input generation for the benchmark workloads.

The benchmark owns its inputs: the corpus, the query pool and the query
streams are generated here from the workload seed, so a change to the
program's own corpus or workload generators never changes what the
benchmark feeds it.  The program only sees ``Document`` objects and
query strings.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from typing import List, Sequence, Tuple

_ONSETS = "bdfgklmnprstvz"
_VOWELS = "aeiou"

#: Mean document length in tokens (lengths vary by a third either way).
DOC_LENGTH = 120


def rng_for(seed: int, *labels: object) -> random.Random:
    """An independent stream per (seed, label path)."""
    text = "/".join([str(seed)] + [str(label) for label in labels])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def word(rank: int) -> str:
    """A distinct pronounceable word per rank; the trailing ``x`` keeps
    stemming and stopword removal from merging two ranks."""
    syllables = []
    value = rank
    while True:
        value, digit = divmod(value, len(_ONSETS) * len(_VOWELS))
        syllables.append(_ONSETS[digit // len(_VOWELS)]
                         + _VOWELS[digit % len(_VOWELS)])
        if value == 0:
            break
    return "".join(syllables) + "x"


class Zipf:
    """Ranks ``0..n-1`` drawn with probability proportional to
    ``1 / (rank + 1) ** exponent`` (``exponent`` 0 is uniform)."""

    def __init__(self, n: int, exponent: float):
        weights = [1.0 / (rank + 1) ** exponent for rank in range(n)]
        total = sum(weights)
        self._cdf = list(itertools.accumulate(w / total for w in weights))
        self._cdf[-1] = 1.0

    def draw(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cdf, rng.random())


def corpus(seed: int, num_docs: int, vocabulary: int,
           topics: int) -> List[Tuple[str, str]]:
    """``num_docs`` (title, text) pairs: each document mixes a Zipf
    background over the whole vocabulary with a Zipf draw from its
    topic's own slice of mid-frequency words."""
    topic_size = max(1, vocabulary // 4)
    topic_words = [rng_for(seed, "topic", topic).sample(
        range(vocabulary // 50, vocabulary), topic_size)
        for topic in range(topics)]
    background = Zipf(vocabulary, 1.0)
    within_topic = Zipf(topic_size, 0.8)
    documents = []
    for index in range(num_docs):
        rng = rng_for(seed, "doc", index)
        ranks = topic_words[rng.randrange(topics)]
        length = DOC_LENGTH + rng.randint(-DOC_LENGTH // 3,
                                          DOC_LENGTH // 3)
        tokens = [word(ranks[within_topic.draw(rng)])
                  if rng.random() < 0.6 else word(background.draw(rng))
                  for _ in range(length)]
        documents.append((" ".join(tokens[:5]), " ".join(tokens)))
    return documents


def query_pool(seed: int, documents: Sequence[Tuple[str, str]],
               size: int) -> List[str]:
    """``size`` distinct queries, each of words drawn from one
    document, so every query has at least one conjunctive match.

    Query length alternates with pool position (2 words, then 3), so
    every popularity rank of a Zipf stream over the pool has the same
    length for every seed: lattice size, which sets most of a query's
    cost, does not vary between seeds, while the words do.
    """
    rng = rng_for(seed, "pool")
    pool: List[str] = []
    seen = set()
    while len(pool) < size:
        words = sorted(set(documents[rng.randrange(len(documents))][1]
                           .split()))
        query = " ".join(sorted(rng.sample(words, 2 + len(pool) % 2)))
        if query not in seen:
            seen.add(query)
            pool.append(query)
    return pool


def stream(seed: int, label: str, pool: Sequence[str], count: int,
           exponent: float) -> List[str]:
    """``count`` queries drawn from ``pool`` by Zipf(``exponent``) rank."""
    rng = rng_for(seed, "stream", label)
    ranks = Zipf(len(pool), exponent)
    return [pool[ranks.draw(rng)] for _ in range(count)]
