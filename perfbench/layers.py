"""Per-layer split for the traced run, timed from outside each layer.

Every probe calls a layer's public functions over this seed's inputs.
Where one call fuses layers (the push scan drives the machines'
callbacks), the split is a cumulative ablation over the same chunks:
the tokenizer alone, then the full pass.  Each metric has one
definition whichever workload's traced run reports it:

* ``tokenizer.*``, ``compile.*``, ``machine.*`` and ``compile.build_s``
  come from the figure 7 queries over their corpora, split per dataset;
* ``multiq.*``, ``router.*`` and ``xpath.compile_s`` from the 1000
  standing queries over the XMark text;
* ``codec.*``, ``log.*``, ``replay.*`` and ``index.*`` from the XMark
  text and the four store queries.

Every probe runs inside a tracer span named after its layer.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path
from statistics import median

from harness import chunked
from workloads import STORE_QUERIES, fig7_queries, log_bytes, multiq_queries

from repro.core.processor import XPathStream
from repro.multiq.engine import MultiQueryEngine
from repro.obs.metrics import MetricsRegistry
from repro.store import EventLogReader, EventLogWriter, ReplayStats, ingest, replay
from repro.stream.codec import decode_event, encode_event
from repro.stream.events import CountingHandler
from repro.stream.tokenizer import XmlTokenizer, parse_string
from repro.xpath.querytree import compile_query

#: ``(name, unit)`` of every per-layer metric, in report order.
LAYER_METRICS = (
    ("tokenizer.s", "s"),
    ("tokenizer.share", "ratio"),
    ("tokenizer.events", "count"),
    ("compile.speedup.book", "x"),
    ("compile.speedup.xmark", "x"),
    ("compile.speedup.protein", "x"),
    ("compile.dfa_states", "count"),
    ("compile.fallbacks", "count"),
    ("machine.share.book", "ratio"),
    ("machine.share.xmark", "ratio"),
    ("machine.share.protein", "ratio"),
    ("machine.peak_stack_entries", "count"),
    ("machine.peak_buffered_candidates", "count"),
    ("multiq.dispatch_s", "s"),
    ("router.dispatched", "count"),
    ("router.reduction", "x"),
    ("multiq.units", "count"),
    ("xpath.compile_s", "s"),
    ("multiq.register_s", "s"),
    ("compile.build_s", "s"),
    ("results.count", "count"),
    ("codec.encode_s", "s"),
    ("codec.decode_s", "s"),
    ("codec.bytes", "bytes"),
    ("log.append_s", "s"),
    ("log.checkpoint_s", "s"),
    ("log.checkpoint_bytes", "bytes"),
    ("log.bytes", "bytes"),
    ("log.amplification", "x"),
    ("log.segments", "count"),
    ("log.checkpoints", "count"),
    ("log.read_s", "s"),
    ("replay.restore_s", "s"),
    ("index.skip_ratio", "ratio"),
    ("index.events_decoded", "count"),
    ("trace.overhead", "ratio"),
)

#: Counts that must repeat exactly from run to run on the same seed.
DETERMINISTIC = (
    "tokenizer.events",
    "results.count",
    "router.dispatched",
    "log.bytes",
    "log.checkpoints",
    "index.events_decoded",
)

#: Repetitions of the cheap probes; their median is reported.
REPEATS = 3


class LayerProbe:
    """Runs every probe and collects metrics, counts and errors."""

    def __init__(self, texts: dict[str, str], seed: int, workdir: Path, tracer,
                 multiq_count: int = 1000):
        self.texts = texts
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.multiq_count = multiq_count
        self.metrics: dict[str, float] = {}
        self.errors: list[str] = []

    def run(self) -> dict[str, float]:
        self.fig7_split()
        self.multiq_split()
        self.store_split()
        return self.metrics

    def _same(self, what: str, values: list) -> None:
        """Record an error unless repeated measurements agree exactly."""
        if any(value != values[0] for value in values):
            self.errors.append(f"{what} differs between repetitions: {values}")

    # -- scan, machines and compiled tier ---------------------------------

    def fig7_split(self) -> None:
        """Per query, back to back over the same chunks: the tokenizer
        alone, the interpreted push pass (``machine.share`` is the part
        the tokenizer does not explain) and the warmed compiled pass
        (``compile.speedup``).  Measuring each query's three passes
        together keeps the host's speed changes out of the ratios.
        Stack entries and buffered candidates of TwigM machines are
        sampled between chunks of the compiled passes."""
        registry = MetricsRegistry()
        peaks = {"entries": 0, "candidates": 0}
        scanned = interpreted_total = 0.0
        events_total = 0
        for dataset, queries in fig7_queries().items():
            chunks = chunked(self.texts[dataset])
            scan = interpreted = compiled = 0.0
            events = []
            for qid, xpath in queries.items():
                with self.tracer.span("tokenizer", dataset=dataset, query=qid):
                    scan_s, count = _tokenizer_alone(chunks)
                with self.tracer.span("core", dataset=dataset, query=qid):
                    plain_s, plain_ids = _timed_pass(XPathStream(xpath), chunks)
                with self.tracer.span("compile", dataset=dataset, query=qid):
                    fast = XPathStream(xpath, compiled=True)
                    _timed_pass(fast, chunks)  # fills the lazy DFA
                    fast_s, fast_ids = _timed_pass(fast, chunks, peaks)
                    metered = XPathStream(xpath, compiled=True, metrics=registry)
                    _timed_pass(metered, chunks)
                if plain_ids != fast_ids:
                    self.errors.append(
                        f"{dataset}/{qid}: compiled results differ from interpreted"
                    )
                events.append(count)
                scan += scan_s
                interpreted += plain_s
                compiled += fast_s
            self._same(f"tokenizer.events of {dataset}", events)
            self.metrics[f"machine.share.{dataset}"] = 1.0 - scan / interpreted
            self.metrics[f"compile.speedup.{dataset}"] = interpreted / compiled
            scanned += scan
            events_total += sum(events)
            interpreted_total += interpreted
        registry.collect()
        self.metrics["tokenizer.s"] = scanned
        self.metrics["tokenizer.share"] = scanned / interpreted_total
        self.metrics["tokenizer.events"] = events_total
        self.metrics["compile.dfa_states"] = registry.get(
            "repro_compile_dfa_states").get(engine="dfa")
        self.metrics["compile.fallbacks"] = registry.get(
            "repro_compile_fallbacks_total").get(engine="dfa")
        self.metrics["machine.peak_stack_entries"] = peaks["entries"]
        self.metrics["machine.peak_buffered_candidates"] = peaks["candidates"]
        with self.tracer.span("compile.build"):
            trees = [compile_query(xpath) for queries in fig7_queries().values()
                     for xpath in queries.values()]
            self.metrics["compile.build_s"] = median([
                _seconds(lambda: [XPathStream(tree, compiled=True) for tree in trees])
                for _ in range(REPEATS)
            ])

    # -- multi-query engine and router ------------------------------------

    def multiq_split(self) -> None:
        queries = multiq_queries(self.seed, self.multiq_count)
        events = list(parse_string(self.texts["xmark"]))
        with self.tracer.span("xpath"):
            self.metrics["xpath.compile_s"] = median([
                _seconds(lambda: [compile_query(q) for q in queries.values()])
                for _ in range(REPEATS)
            ])
        trees = {name: compile_query(query) for name, query in queries.items()}
        with self.tracer.span("multiq.register"):
            self.metrics["multiq.register_s"] = median([
                _seconds(lambda: MultiQueryEngine(trees)) for _ in range(REPEATS)
            ])
        engine = MultiQueryEngine(queries)
        times, dispatched = [], []
        with self.tracer.span("multiq.dispatch"):
            engine.feed_events(events)  # warm
            for _ in range(REPEATS):
                engine.reset()
                times.append(_seconds(lambda: engine.feed_events(events)))
                dispatched.append(engine.dispatch_stats().machine_events_dispatched)
        self._same("router.dispatched", dispatched)
        stats = engine.dispatch_stats()
        self.metrics["multiq.dispatch_s"] = median(times)
        self.metrics["router.dispatched"] = stats.machine_events_dispatched
        self.metrics["router.reduction"] = stats.reduction
        self.metrics["multiq.units"] = engine.unit_count()

    # -- codec, log writer and reader, replay -----------------------------

    def store_split(self) -> None:
        text = self.texts["xmark"]
        events = list(parse_string(text))
        with self.tracer.span("codec.encode"):
            started = time.perf_counter()
            encoded = [encode_event(event) for event in events]
            self.metrics["codec.encode_s"] = time.perf_counter() - started
        with self.tracer.span("codec.decode"):
            started = time.perf_counter()
            decoded = [decode_event(record) for record in encoded]
            self.metrics["codec.decode_s"] = time.perf_counter() - started
        if decoded != events:
            self.errors.append("codec: decoded events differ from the encoded ones")
        self.metrics["codec.bytes"] = sum(len(record) for record in encoded)

        with self.tracer.span("log.append"):
            path = self._fresh("append")
            started = time.perf_counter()
            writer = EventLogWriter(str(path), sync="none")
            writer.extend(events)
            writer.close()
            self.metrics["log.append_s"] = time.perf_counter() - started
        with self.tracer.span("log.checkpoint"):
            self._checkpoints(events)

        path = self._fresh("ingest")
        with self.tracer.span("store.ingest"):
            recorded = ingest(text, str(path), queries=STORE_QUERIES, sync="none")
        size = log_bytes(path)
        self.metrics["log.bytes"] = size
        self.metrics["log.amplification"] = size / len(text.encode("utf-8"))
        self.metrics["log.segments"] = recorded.segments
        self.metrics["log.checkpoints"] = len(recorded.checkpoints)

        with self.tracer.span("log.read"):
            started = time.perf_counter()
            drained = sum(1 for _ in EventLogReader(str(path)).events())
            self.metrics["log.read_s"] = time.perf_counter() - started
        if drained != len(events):
            self.errors.append(f"log.read: {drained} events, recorded {len(events)}")
        reader = EventLogReader(str(path))
        checkpoints = reader.checkpoints()
        with self.tracer.span("replay.restore"):
            started = time.perf_counter()
            for info in checkpoints:
                MultiQueryEngine.restore(reader.load_checkpoint(info.id)["engine"])
            self.metrics["replay.restore_s"] = time.perf_counter() - started
        stats = ReplayStats()
        with self.tracer.span("index.replay"):
            for info in checkpoints:
                results = replay(None, str(path), from_checkpoint=info.id, stats=stats)
                if results != recorded.results:
                    self.errors.append(
                        f"replay from checkpoint {info.id} differs from ingest"
                    )
        self.metrics["index.skip_ratio"] = stats.skip_ratio
        self.metrics["index.events_decoded"] = stats.events_emitted
        shutil.rmtree(path, ignore_errors=True)

    def _checkpoints(self, events: list) -> None:
        """Checkpoint time and bytes with an engine attached, as ingest does.

        The engine consumes each block of events before the writer
        appends it, then the writer checkpoints; only ``checkpoint()``
        is timed, and its bytes are the growth of the store it causes.
        """
        path = self._fresh("checkpoint")
        engine = MultiQueryEngine(STORE_QUERIES)
        writer = EventLogWriter(str(path), sync="none")
        writer.attach(engine)
        seconds = 0.0
        grown = 0
        interval = 1024
        for start in range(0, len(events), interval):
            block = events[start:start + interval]
            engine.feed_events(block)
            writer.extend(block)
            writer.flush()
            before = _store_bytes(path)
            started = time.perf_counter()
            writer.checkpoint()
            seconds += time.perf_counter() - started
            grown += _store_bytes(path) - before
        writer.close()
        shutil.rmtree(path, ignore_errors=True)
        self.metrics["log.checkpoint_s"] = seconds
        self.metrics["log.checkpoint_bytes"] = grown

    def _fresh(self, name: str) -> Path:
        path = self.workdir / f"layer-{name}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def counts(self) -> dict[str, int]:
        return {
            name: self.metrics[name]
            for name in DETERMINISTIC
            if name in self.metrics
        }


def _seconds(call) -> float:
    started = time.perf_counter()
    call()
    return time.perf_counter() - started


def _store_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.iterdir())


def _tokenizer_alone(chunks: list[str]) -> "tuple[float, int]":
    """One scan of ``chunks`` into a counting handler: (seconds, events)."""
    tokenizer = XmlTokenizer()
    handler = CountingHandler()
    started = time.perf_counter()
    for chunk in chunks:
        tokenizer.feed_into(chunk, handler)
    tokenizer.close_into(handler)
    return time.perf_counter() - started, handler.total


def _timed_pass(stream: XPathStream, chunks: list[str],
                peaks: "dict | None" = None) -> "tuple[float, list[int]]":
    """One push pass over ``chunks``; returns (seconds, result ids).

    With ``peaks``, the machine's live stack entries and buffered
    candidates are sampled between chunks, off the clock.
    """
    stream.reset()
    engine = stream.engine
    sample = peaks is not None and hasattr(engine, "total_stack_entries")
    elapsed = 0.0
    for chunk in chunks:
        started = time.perf_counter()
        stream.feed_text_push(chunk)
        elapsed += time.perf_counter() - started
        if sample:
            peaks["entries"] = max(peaks["entries"], engine.total_stack_entries())
            peaks["candidates"] = max(peaks["candidates"],
                                      engine.buffered_candidates())
    started = time.perf_counter()
    ids = stream.close()
    elapsed += time.perf_counter() - started
    return elapsed, list(ids)
