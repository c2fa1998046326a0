"""Metrics registry: named counters and histograms.

The AlvisP2P evaluation surface is almost entirely metric-shaped (bytes per
query, hops per lookup, postings stored per peer), so the kernel ships a
small registry that every layer writes into.  Metric names are hierarchical
strings like ``"net.bytes.sent.QueryRequest"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from repro.util.process import peak_rss_kb
from repro.util.stats import summarize

__all__ = ["Counter", "Histogram", "MetricsRegistry"]


@dataclass
class Counter:
    """A monotonically increasing counter."""

    name: str
    value: float = 0.0

    def increment(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


@dataclass
class Histogram:
    """Stores raw samples; summarized on demand.

    Experiments are laptop-scale (at most a few million samples), so keeping
    raw values is affordable and lets the harness compute any percentile.
    """

    name: str
    samples: List[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.samples.append(value)

    def summary(self) -> Dict[str, float]:
        """Return mean/percentiles; raises if no samples were recorded."""
        return summarize(self.samples)

    def __len__(self) -> int:
        return len(self.samples)


class MetricsRegistry:
    """Lazily creates counters and histograms by name."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: prefix -> the counters under it, in creation order; dropped
        #: whenever a counter is created, so a view never misses one.
        self._prefix_views: Dict[str, List[Counter]] = {}
        #: Bumped on :meth:`reset` so callers holding direct ``Counter``
        #: references (the transport's accounting fast path) can detect
        #: that their cached objects were dropped from the registry.
        self.generation = 0

    def counter(self, name: str) -> Counter:
        """Return (creating if needed) the counter called ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
            self._prefix_views.clear()
        return counter

    def histogram(self, name: str) -> Histogram:
        """Return (creating if needed) the histogram called ``name``."""
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def counter_value(self, name: str, default: float = 0.0) -> float:
        """Current value of a counter, or ``default`` if never written."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else default

    def counters_with_prefix(self, prefix: str) -> Mapping[str, float]:
        """Return ``{name: value}`` for all counters under ``prefix``.

        The matching counters are found once per prefix and reused until
        the next counter is created, so repeated snapshots (two per
        synchronous query) do not scan the whole registry.
        """
        view = self._prefix_views.get(prefix)
        if view is None:
            view = self._prefix_views[prefix] = [
                counter for name, counter in self._counters.items()
                if name.startswith(prefix)]
        return {counter.name: counter.value for counter in view}

    def total_with_prefix(self, prefix: str) -> float:
        """Sum of all counters whose name starts with ``prefix``."""
        return sum(self.counters_with_prefix(prefix).values())

    def reset(self) -> None:
        """Drop all recorded metrics (used between experiment phases)."""
        self._counters.clear()
        self._histograms.clear()
        self._prefix_views.clear()
        self.generation += 1

    def snapshot(self, include_process: bool = False) -> Dict[str, float]:
        """A flat copy of every counter value (for experiment reports).

        With ``include_process`` the snapshot additionally reports
        ``process.peak_rss_kb`` — benchmark artifacts record memory
        next to throughput.
        """
        flat = {name: counter.value
                for name, counter in self._counters.items()}
        if include_process:
            flat["process.peak_rss_kb"] = float(peak_rss_kb())
        return flat
