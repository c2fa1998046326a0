"""The per-layer view: which public functions the traced run wraps,
and the per-layer metrics it reports.

Layers are named after the program's modules.  Each wrapped function
yields ``<span>.calls`` and ``<span>.self_s``; the remaining metrics
are counts the layers already keep, read once the run is over.
"""

from __future__ import annotations

from typing import Dict, Tuple

from tracer import Tracer

from repro.core.faults import FaultInjector
from repro.core.hdk import HDKIndexer
from repro.core.network import AlvisNetwork
from repro.core.peer import AlvisPeer
from repro.core.runtime import AsyncQueryRuntime
from repro.dht.churn import ChurnProcess
from repro.dht.ring import DHTRing
from repro.ir import postings as ir_postings
from repro.ir.analysis import Analyzer
from repro.ir.search import LocalSearchEngine
from repro.net import wire
from repro.net.message import Message
from repro.net.transport import SimTransport
from repro.sim.events import Simulator

#: Spans installed before set-up: (owner, attribute, span name).
SPANS = [
    (Simulator, "run", "sim.run"),
    (Simulator, "run_until", "sim.run"),
    (DHTRing, "lookup", "dht.lookup"),
    (DHTRing, "lookup_many", "dht.lookup_many"),
    (Message, "size_bytes", "net.size_bytes"),
    (LocalSearchEngine, "top_k_for_key", "ir.top_k_for_key"),
    (LocalSearchEngine, "score_documents", "ir.score_documents"),
    (ir_postings, "pack_postings", "ir.pack_postings"),
    (wire, "pack_postings", "ir.pack_postings"),
    (Analyzer, "analyze", "ir.analyze"),
    (AlvisNetwork, "run_statistics_phase", "core.statistics_phase"),
    (HDKIndexer, "build", "core.hdk.build"),
    (AlvisPeer, "on_message", "core.peer.on_message"),
]

#: Spans installed once set-up is over, so the ring built by set-up
#: does not count as membership change.
MEMBERSHIP_SPANS = [
    (DHTRing, "add_node", "dht.membership"),
    (DHTRing, "remove_node", "dht.membership"),
    (ChurnProcess, "join", "core.faults.join"),
    (FaultInjector, "crash", "core.faults.crash"),
    (FaultInjector, "graceful_depart", "core.faults.graceful_depart"),
    (AlvisNetwork, "publish_incremental", "core.write.publish"),
    (AlvisNetwork, "unpublish", "core.write.unpublish"),
]

#: Message kinds whose modelled bytes are reported per kind.
KINDS = ("LookupHop", "CollectionPublish", "CollectionGet",
         "CollectionReply", "DfPublish", "DfGet", "DfReply", "PublishKey",
         "PublishAck", "ExpandNotify", "ProbeKey", "ProbeReply",
         "ProbeBatch", "ProbeBatchReply", "RetractDoc", "IndexHandover")

_TIMED = ["sim.run", "dht.lookup", "dht.lookup_many",
          "dht.lookup_many_async", "dht.membership", "net.size_bytes",
          "net.request", "net.request_async", "ir.top_k_for_key",
          "ir.score_documents", "ir.pack_postings", "ir.analyze",
          "core.peer.on_message", "core.query", "core.faults.join",
          "core.faults.crash", "core.faults.graceful_depart",
          "core.write.publish", "core.write.unpublish"]

#: Every per-layer metric: name -> (unit, better direction).  Work
#: done, time, traffic and failures are better lower; useful-outcome
#: ratios, throughput and work avoided are better higher.
METRICS: Dict[str, Tuple[str, str]] = {}
for _span in _TIMED:
    METRICS[f"{_span}.calls"] = ("count", "lower")
    METRICS[f"{_span}.self_s"] = ("s", "lower")
METRICS.update({
    "sim.events": ("count", "lower"),
    "sim.events_per_s": ("1/s", "higher"),
    "dht.hops": ("count", "lower"),
    "net.msgs": ("count", "lower"),
    "net.queue.drops": ("count", "lower"),
    "net.retransmissions": ("count", "lower"),
    "net.delivered_ratio": ("ratio", "higher"),
    "core.statistics_phase.self_s": ("s", "lower"),
    "core.hdk.build.self_s": ("s", "lower"),
    "core.hdk.rounds": ("count", "lower"),
    "core.hdk.keys_published": ("count", "lower"),
    "core.lattice.probed": ("count", "lower"),
    "core.lattice.skipped": ("count", "higher"),
    "core.lattice.pruned": ("count", "higher"),
    "core.cache.hit_ratio": ("ratio", "higher"),
    "core.runtime.submit.calls": ("count", "lower"),
    "core.runtime.peak_active": ("count", "lower"),
    "core.runtime.coalesced_probe_keys": ("count", "higher"),
    "core.runtime.retransmissions": ("count", "lower"),
    "core.runtime.probe_ok_ratio": ("ratio", "higher"),
    "core.handover.bytes": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
})
for _kind in KINDS:
    METRICS[f"net.bytes.{_kind}"] = ("B", "lower")


class LayerTracer(Tracer):
    """The :class:`Tracer` wired to this program's layers."""

    def __init__(self):
        super().__init__()
        self._ok = 0            # requests that delivered their reply
        self._queries = 0

    def install(self) -> None:
        for owner, attr, name in SPANS:
            self.wrap(owner, attr, name)
        self.wrap_generator(DHTRing, "lookup_many_async",
                            "dht.lookup_many_async")
        self.wrap(SimTransport, "request", "net.request",
                  on_result=self._sync_ok)
        self.wrap(SimTransport, "request_async", "net.request_async",
                  on_result=self._async_ok)
        self.wrap(AlvisNetwork, "query", "core.query",
                  query_of=self._next_query)
        self.wrap(AsyncQueryRuntime, "submit", "core.runtime.submit",
                  query_of=self._next_query)

    def wrap_membership(self) -> None:
        for owner, attr, name in MEMBERSHIP_SPANS:
            self.wrap(owner, attr, name)

    def _next_query(self, *_args) -> int:
        self._queries += 1
        return self._queries

    def _sync_ok(self, _result) -> None:
        self._ok += 1       # a failed sync request raises instead

    def _async_ok(self, future) -> None:
        def count(done) -> None:
            self._ok += done.value.ok
        future.add_done_callback(count)

    def collect(self, run) -> Dict[str, float]:
        """Every metric of :data:`METRICS` for a finished run."""
        network, record = run.network, run.record
        lattice = record["lattice"]
        values: Dict[str, float] = {}
        for span in _TIMED:
            values[f"{span}.calls"] = self.calls(span)
            values[f"{span}.self_s"] = self.self_s(span)
        requests = self.calls("net.request") + self.calls(
            "net.request_async")
        events = network.simulator.events_processed
        run_s = self.total_s("sim.run")
        lookups = lattice["cache_hits"] + lattice["cache_misses"]
        by_kind = record["bytes_by_kind"]
        is_async = network.config.async_queries
        values.update({
            "sim.events": events,
            "sim.events_per_s": events / run_s if run_s else 0.0,
            "dht.hops": network.simulator.metrics.counter_value(
                "net.msgs.sent.LookupHop"),
            "net.msgs": network.messages_sent_total(),
            "net.queue.drops": network.transport.queue_drops_total(),
            "net.retransmissions": lattice["retransmissions"],
            "net.delivered_ratio": self._ok / requests if requests
            else 0.0,
            "core.statistics_phase.self_s":
                self.self_s("core.statistics_phase"),
            "core.hdk.build.self_s": self.self_s("core.hdk.build"),
            "core.hdk.rounds": record["hdk_rounds"],
            "core.hdk.keys_published": record["keys_published"],
            "core.lattice.probed": lattice["probed"],
            "core.lattice.skipped": lattice["skipped"],
            "core.lattice.pruned": lattice["pruned"],
            "core.cache.hit_ratio": lattice["cache_hits"] / lookups
            if lookups else 0.0,
            "core.runtime.submit.calls": self.calls("core.runtime.submit"),
            "core.runtime.peak_active": network.runtime.peak_active,
            "core.runtime.coalesced_probe_keys":
                network.runtime.coalesced_probe_keys(),
            "core.runtime.retransmissions": network.runtime.retransmissions(),
            "core.runtime.probe_ok_ratio": lattice["ok"] / lattice["probed"]
            if is_async and lattice["probed"] else 0.0,
            "core.handover.bytes": by_kind.get("IndexHandover", 0.0),
            "trace.spans": len(self.spans) + self.spans_dropped,
        })
        for kind in KINDS:
            values[f"net.bytes.{kind}"] = by_kind.get(kind, 0.0)
        return values
