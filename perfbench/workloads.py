"""The benchmark workloads, run in this process; the record goes to
standard output as one JSON line.

Usage (``run.py`` does this, one fresh process per run)::

    PYTHONPATH=src python3 perfbench/workloads.py --workload hdk_build \\
        --seed 1 --seconds 5 [--part setup] [--trace-out spans.jsonl]

``--part setup`` only builds the network (a repeated set-up sample),
``--part core`` skips open_serve's rate ladder (the traced pair of
runs), and ``--trace-out`` installs the span tracer and writes its
spans there.

The program is reached only through its public API and runs as
shipped: ``AlvisConfig()`` defaults and ``kernel_profile="fast"``, plus
only the settings a workload's shape requires (``async_queries`` and
the per-peer service model).  Optional
optimisations stay at their defaults, and ``batch_index_lookups`` stays
off: its ring-global owner cache would model indexing traffic no real
peer could achieve.

A run has three phases: set-up (timed), the measured phase (indexing
and/or queries), and the assessment: a quality pass of
synchronous queries scored against a centralized engine, and the digest
of everything modelled.  open_serve then climbs its rate ladder, after
the peak RSS is read.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional

import inputs

from repro import AlvisConfig, AlvisNetwork
from repro.baselines.centralized import CentralizedEngine
from repro.core.workload import (PoissonArrivals, RoundRobinOrigins,
                                 UniformOrigins, Workload)
from repro.eval.quality import overlap_at_k
from repro.ir.documents import Document
from repro.util.stats import percentile

#: Workload shapes.  ``queries_per_s`` sizes the measured query phase
#: from ``--seconds`` (calibrated on a 2-core x86 host so the phase
#: takes about that long); the count is a pure function of the
#: arguments, so the modelled and virtual metrics of one seed never
#: depend on machine speed.  ``quality`` is the size of the quality
#: pass (the stream's pool plus further queries of the same kind).
SIZES = {
    "full": {
        "hdk_build": dict(peers=10_000, docs=1000, vocabulary=1200,
                          topics=8, pool=200, quality=2000,
                          queries_per_s=2100),
        "open_serve": dict(peers=10_000, docs=400, vocabulary=1200,
                           topics=8, pool=200, quality=800,
                           queries_per_s=440, rate=25.0,
                           ladder=(25.0, 50.0, 75.0, 100.0, 150.0, 200.0),
                           ladder_queries=1000),
        "churn_mixed": dict(peers=1000, docs=400, vocabulary=1200,
                            topics=8, pool=200, quality=800,
                            queries_per_s=250, rate=50.0, clients=64),
    },
    # The selftest's smoke size: every code path, in seconds.
    "tiny": {
        "hdk_build": dict(peers=64, docs=80, vocabulary=300, topics=4,
                          pool=20, quality=30, queries=40),
        "open_serve": dict(peers=64, docs=60, vocabulary=300, topics=4,
                           pool=20, quality=30, queries=40, rate=25.0,
                           ladder=(25.0, 50.0), ladder_queries=40),
        "churn_mixed": dict(peers=48, docs=60, vocabulary=300, topics=4,
                            pool=20, quality=30, queries=60, rate=50.0,
                            clients=8),
    },
}

#: Settings each workload's shape requires; everything else is default.
CONFIGS = {
    "hdk_build": {},
    # The E15 service model: 40 msgs/s per peer, 6 queue slots.
    "open_serve": dict(async_queries=True, service_rate=40.0,
                       queue_capacity=6),
    "churn_mixed": dict(async_queries=True),
}

#: Timed blocks of the closed loop; its wall-clock latency percentiles
#: are the median over blocks.
BLOCKS = 10

#: open_serve's latency limit for ``slo_qps`` (virtual seconds, p99).
SLO_P99_S = 2.0

#: churn_mixed operations per query: joins, crashes, graceful
#: departures, incremental publishes and unpublishes.
CHURN_OPS_PER_QUERY = {"join": 0.025, "crash": 0.025, "graceful": 0.025,
                       "publish": 0.05, "unpublish": 0.05}

#: Probe outcomes that delivered an answer (indexed or not).
OK_STATUSES = ("untruncated", "truncated", "missing")


class Run:
    """One workload execution: inputs, network, measured phases."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 size: str):
        self.name = workload
        self.seed = seed
        self.shape = SIZES[size][workload]
        self.queries = self.shape.get(
            "queries", int(self.shape.get("queries_per_s", 0) * seconds))
        self.record: Dict[str, object] = {"workload": workload,
                                          "seed": seed, "size": size}
        self.texts = inputs.corpus(seed, self.shape["docs"],
                                   self.shape["vocabulary"],
                                   self.shape["topics"])
        self.pool = inputs.query_pool(seed, self.texts, self.shape["pool"])
        self.network: Optional[AlvisNetwork] = None
        self.digest = hashlib.sha256()

    # ------------------------------------------------------------------
    # Set-up and indexing
    # ------------------------------------------------------------------

    def setup(self) -> None:
        """Build the network; the timed interval excludes input
        generation.  Serving workloads also build the index here."""
        documents = [Document(doc_id=0, title=title, text=text,
                              url=f"bench://{self.seed}/{index}")
                     for index, (title, text) in enumerate(self.texts)]
        started = time.perf_counter()
        network = AlvisNetwork(self.shape["peers"],
                               AlvisConfig(**CONFIGS[self.name]),
                               seed=self.seed, kernel_profile="fast")
        network.distribute_documents(documents)
        if self.name != "hdk_build":
            self.index(network)
        self.record["setup_s"] = time.perf_counter() - started
        self.network = network
        self.record["setup_digest"] = hashlib.sha256(json.dumps([
            network.peer_ids(), network.total_documents(),
            sorted(network.bytes_by_kind().items()),
            network.total_keys()]).encode()).hexdigest()

    def index(self, network: AlvisNetwork) -> None:
        """Statistics phase plus the HDK build, timed and costed."""
        bytes_before = network.bytes_sent_total()
        started = time.perf_counter()
        network.run_statistics_phase()
        stats = network.build_index("hdk")
        self.record["index_s"] = time.perf_counter() - started
        storage = network.per_peer_index_storage()
        self.record.update(
            index_bytes=network.bytes_sent_total() - bytes_before,
            keys_published=stats.keys_published,
            hdk_rounds=stats.rounds,
            storage_kb_per_peer=sum(storage.values()) / len(storage)
            / 1024.0)

    # ------------------------------------------------------------------
    # The measured phase
    # ------------------------------------------------------------------

    def measure(self) -> None:
        """Indexing (hdk_build) and the query phase, then the byte
        totals the output checks compare."""
        if self.name == "hdk_build":
            self.index(self.network)
            self.closed_loop()
        elif self.name == "open_serve":
            self.serve()
        else:
            self.churn()
        network = self.network
        by_kind = network.bytes_by_kind()
        # Only churn_mixed sends other traffic (maintenance and writes)
        # inside its query window.
        self.record.update(
            sent_total=network.bytes_sent_total(),
            by_kind_total=sum(by_kind.values()), bytes_by_kind=by_kind,
            bytes_equal_expected=self.name != "churn_mixed")

    def summarize(self, offered: int, outcomes, latencies: List[float],
                  virtual: bool, blocks: List[List[float]],
                  bytes_window: float, msgs_window: float) -> None:
        """Fold one query phase into the record.

        ``offered`` is the length of the generated query stream and
        ``outcomes`` holds ``(done, results, trace)`` per submitted
        query in submission order; ``blocks`` holds ``[queries
        completed, wall s, CPU s]`` per timed block (one block for an
        open loop).  Virtual latencies are summarized over all queries; wall-clock ones per
        block of ``blocks``, then the median block is reported, so a
        burst of machine noise in one block does not set the tail.
        """
        answered = completed = query_bytes = query_msgs = 0
        lattice = dict(probed=0, skipped=0, pruned=0, ok=0,
                       cache_hits=0, cache_misses=0, retransmissions=0)
        for (done, results, trace), latency in zip(outcomes, latencies):
            completed += done
            answered += done and trace.dropped_count == 0
            query_bytes += trace.bytes_sent
            query_msgs += trace.request_messages
            lattice["probed"] += trace.probed_count
            lattice["skipped"] += trace.skipped_count
            lattice["pruned"] += trace.pruned_count
            lattice["ok"] += sum(1 for _key, status in trace.probes
                                 if status.value in OK_STATUSES)
            lattice["cache_hits"] += trace.cache_hits
            lattice["cache_misses"] += trace.cache_misses
            lattice["retransmissions"] += trace.retransmissions
            self.digest.update(json.dumps(
                [[document.doc_id for document in results or ()],
                 trace.bytes_sent, trace.request_messages,
                 repr(latency) if virtual else None]).encode())
        count = len(outcomes)
        self.record.update(
            offered=offered, submitted=count, completed=completed,
            answered=answered, failed=count - answered, blocks=blocks,
            query_wall_s=sum(block[1] for block in blocks),
            query_cpu_s=sum(block[2] for block in blocks),
            window_bytes=bytes_window, query_bytes=query_bytes,
            window_msgs=msgs_window, query_msgs=query_msgs,
            latency_p50_ms=self.latency(latencies, 50, virtual, blocks),
            latency_p99_ms=self.latency(latencies, 99, virtual, blocks),
            latency_samples=len(latencies),
            latency_kind="virtual" if virtual else "wall",
            lattice=lattice)

    @staticmethod
    def latency(latencies: List[float], q: float, virtual: bool,
                blocks: List[List[float]]) -> float:
        """The ``q``-th percentile latency in ms (see :meth:`summarize`)."""
        if virtual:
            return percentile(latencies, q) * 1000.0
        per_block, start = [], 0
        for count, _wall, _cpu in blocks:
            per_block.append(percentile(latencies[start:start + count], q))
            start += count
        return statistics.median(per_block) * 1000.0

    def closed_loop(self) -> None:
        """hdk_build: one client, synchronous queries, uniform origins,
        timed in ``BLOCKS`` consecutive blocks.  Latency is each call's
        wall time: no virtual time passes on the synchronous path, and
        its modelled estimate (``rtt_estimate``) only counts lattice
        levels, so it reads the same for every seed."""
        network = self.network
        stream = inputs.stream(self.seed, "closed", self.pool,
                               self.queries, 1.0)
        origins = inputs.rng_for(self.seed, "origins")
        peer_ids = network.peer_ids()
        outcomes, latencies, blocks = [], [], []
        bytes_before = network.bytes_sent_total()
        msgs_before = network.messages_sent_total()
        gc.collect()
        for block in range(BLOCKS):
            part = stream[block * len(stream) // BLOCKS:
                          (block + 1) * len(stream) // BLOCKS]
            wall, cpu = time.perf_counter(), time.process_time()
            for query in part:
                origin = origins.choice(peer_ids)
                started = time.perf_counter()
                results, trace = network.query(origin, query)
                latencies.append(time.perf_counter() - started)
                outcomes.append((True, results, trace))
            blocks.append([len(part), time.perf_counter() - wall,
                           time.process_time() - cpu])
        self.summarize(len(stream), outcomes, latencies, False, blocks,
                       network.bytes_sent_total() - bytes_before,
                       network.messages_sent_total() - msgs_before)

    def open_loop(self, stream: List[str], rate: float, origins):
        """Submit ``stream`` as Poisson arrivals at ``rate`` (virtual
        q/s) and run the simulator to completion.  Returns the jobs and
        ``[completed, wall s, CPU s]`` of the run."""
        network = self.network
        workload = Workload(queries=tuple(stream),
                            arrival=PoissonArrivals(rate), origins=origins)
        gc.collect()
        wall, cpu = time.perf_counter(), time.process_time()
        jobs = network.submit_workload(workload)
        network.simulator.run()
        block = [sum(1 for job in jobs if job.done),
                 time.perf_counter() - wall, time.process_time() - cpu]
        return jobs, block

    def timed_open_loop(self, stream: List[str], rate: float,
                        origins) -> None:
        network = self.network
        bytes_before = network.bytes_sent_total()
        msgs_before = network.messages_sent_total()
        completed_before = network.runtime.completed
        jobs, block = self.open_loop(stream, rate, origins)
        self.summarize(len(stream),
                       [(job.done, job.results, job.trace) for job in jobs],
                       [job.trace.latency for job in jobs], True, [block],
                       network.bytes_sent_total() - bytes_before,
                       network.messages_sent_total() - msgs_before)
        self.record["runtime_completed"] = (network.runtime.completed
                                            - completed_before)

    def serve(self) -> None:
        """open_serve: Zipf queries at the nominal rate."""
        stream = inputs.stream(self.seed, "nominal", self.pool,
                               self.queries, 1.0)
        self.timed_open_loop(stream, self.shape["rate"], UniformOrigins())

    def climb_ladder(self) -> None:
        """open_serve's rate ladder, lowest rate first, up to the first
        rate that misses the p99 limit or fails a query: ``slo_qps`` is
        the highest rate met before it."""
        shape = self.shape
        ladder, slo_qps = [], 0.0
        for rate in shape["ladder"]:
            jobs, _block = self.open_loop(
                inputs.stream(self.seed, f"ladder-{rate}", self.pool,
                              shape["ladder_queries"], 1.0),
                rate, UniformOrigins())
            p99 = percentile([job.trace.latency for job in jobs], 99)
            failed = sum(1 for job in jobs
                         if not job.done or job.trace.dropped_count)
            ladder.append({"rate": rate, "p99_s": p99, "failed": failed,
                           "queries": len(jobs)})
            if p99 > SLO_P99_S or failed:
                break
            slo_qps = rate
        self.record.update(slo_qps=slo_qps, slo_p99_s=SLO_P99_S,
                           ladder=ladder)

    def churn(self) -> None:
        """churn_mixed: uniform open queries from a client set that
        never leaves, beside joins, crashes, graceful departures,
        incremental publishes and unpublishes spread over the window."""
        network, shape, seed = self.network, self.shape, self.seed
        rng = inputs.rng_for(seed, "churn-ops")
        clients = set(rng.sample(network.peer_ids(), shape["clients"]))
        kinds = [kind for kind, per_query in CHURN_OPS_PER_QUERY.items()
                 for _ in range(max(1, round(per_query * self.queries)))]
        rng.shuffle(kinds)
        fresh = inputs.corpus(seed + 1, kinds.count("publish"),
                              shape["vocabulary"], shape["topics"])
        doc_ids = sorted(document.doc_id for peer in network.peers()
                         for document in peer.engine.store)
        churner = network.faults.churn()
        maint = {"ops": 0, "bytes": 0.0}

        def non_client() -> int:
            return rng.choice([peer for peer in network.peer_ids()
                               if peer not in clients])

        def operate(kind: str) -> None:
            before = network.bytes_sent_total()
            if kind == "join":
                churner.join()
            elif kind == "crash":
                network.faults.crash(non_client())
            elif kind == "graceful":
                network.faults.graceful_depart(non_client())
            elif kind == "publish":
                title, text = fresh.pop()
                network.publish_incremental(non_client(), Document(
                    doc_id=0, title=title, text=text))
            else:
                live = [doc for doc in doc_ids
                        if network.doc_owner(doc) is not None]
                doc_id = live[rng.randrange(len(live))]
                doc_ids.remove(doc_id)
                network.unpublish(network.doc_owner(doc_id), doc_id)
            maint["ops"] += 1
            maint["bytes"] += network.bytes_sent_total() - before

        window = self.queries / shape["rate"]
        times = sorted(rng.uniform(0.0, window) for _ in kinds)
        for at, kind in zip(times, kinds):
            network.simulator.schedule(at, lambda kind=kind: operate(kind))
        stream = inputs.stream(seed, "uniform", self.pool, self.queries,
                               0.0)
        self.timed_open_loop(stream, shape["rate"],
                             RoundRobinOrigins(tuple(sorted(clients))))
        self.record.update(
            maint_ops=maint["ops"], maint_bytes=maint["bytes"],
            maint_bytes_per_op=maint["bytes"] / maint["ops"],
            ops_by_kind={kind: kinds.count(kind)
                         for kind in CHURN_OPS_PER_QUERY})

    # ------------------------------------------------------------------
    # Assessment
    # ------------------------------------------------------------------

    def assess(self) -> None:
        """The quality pass and the digest.

        ``overlap_at_10`` is the E4 method: each query of the quality
        set is answered once by the synchronous ``network.query`` from a
        uniform origin and compared with centralized conjunctive BM25
        over the peers' own stores, as they are after the measured
        phase; the mean is over queries with a centralized answer.
        """
        network = self.network
        documents = []
        for peer in network.peers():
            documents.extend(peer.engine.store)
        reference = CentralizedEngine(documents, analyzer=network.analyzer)
        origins = inputs.rng_for(self.seed, "quality-origins")
        peer_ids = network.peer_ids()
        overlaps = []
        for query in inputs.query_pool(self.seed, self.texts,
                                       self.shape["quality"]):
            results, _trace = network.query(origins.choice(peer_ids), query)
            doc_ids = [document.doc_id for document in results]
            self.digest.update(json.dumps(doc_ids).encode())
            truth = reference.conjunctive_doc_ids(
                network.analyzer.analyze_query(query), k=10)
            if truth:
                overlaps.append(overlap_at_k(doc_ids, truth, 10))
        self.record.update(
            reference_docs=reference.num_documents,
            network_docs=network.total_documents(),
            overlap_at_10=sum(overlaps) / len(overlaps) if overlaps
            else 0.0,
            overlap_samples=len(overlaps))
        record = self.record
        self.digest.update(json.dumps([
            record["index_bytes"], record["keys_published"],
            repr(record["storage_kb_per_peer"]),
            sorted(record["bytes_by_kind"].items())]).encode())
        record["digest"] = self.digest.hexdigest()


def stamps(network: AlvisNetwork, seed: int) -> Dict[str, object]:
    """What a record must carry to be compared with another."""
    from repro.util.npcompat import HAVE_NUMPY
    return {"python": platform.python_version(),
            "numpy": bool(HAVE_NUMPY), "nproc": os.cpu_count(),
            "seed": seed, "config": dataclasses.asdict(network.config)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=CONFIGS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--part", choices=("all", "core", "setup"),
                        default="all")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace_out:
        import layers
        tracer = layers.LayerTracer()
        tracer.install()
    started = time.perf_counter()
    run = Run(args.workload, args.seed, args.seconds, args.size)
    record = run.record
    run.setup()
    if args.part != "setup":
        if tracer is not None:
            tracer.wrap_membership()
        run.measure()
        record["wall_s"] = time.perf_counter() - started
        if tracer is not None:
            record["layers"] = tracer.collect(run)
            tracer.restore()
            tracer.write(args.trace_out)
        run.assess()
    record["stamps"] = stamps(run.network, args.seed)
    # Read before the rate ladder: how far the ladder climbs varies.
    record["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.part == "all" and args.workload == "open_serve":
        run.climb_ladder()
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
