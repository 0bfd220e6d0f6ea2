"""The four workloads: what each builds, checks against, and times.

Each workload offers the same four steps to the runner:

* ``reference()`` — untimed, and run in a process of its own (see
  :func:`compute_reference`): the results every timed pass must equal,
  and the deterministic counts it must repeat;
* ``prepare(reference)`` — untimed: adopt the reference (and record the
  store ``store-replay`` reads);
* ``setup(keep)`` — build what a user builds before the first byte and
  return the seconds that took; with ``keep`` the built objects serve
  the timed passes (the runner repeats it through the run and reports
  the interquartile mean as ``setup_s``);
* ``round()`` — the passes of one round, as :class:`PassSpec` objects;
  runs are made of whole rounds;
* ``describe()`` — the inputs, for the run's record.

Load is one thread in a closed loop: each op starts when the previous
one has finished.
"""

from __future__ import annotations

import functools
import os
import shutil
import time
from pathlib import Path

from harness import DATASETS, PassSpec, chunked

from repro.bench.multiq import DEFAULT_SEED as MULTIQ_DEFAULT_SEED
from repro.bench.multiq import multiq_workload
from repro.bench.queries import QUERY_SETS
from repro.core.processor import XPathStream
from repro.multiq.engine import MultiQueryEngine
from repro.store import EventLogReader, ReplayStats, ingest, replay
from repro.stream.tokenizer import parse_string

#: Dataset name used here -> key of ``repro.bench.queries.QUERY_SETS``.
QUERY_SET_KEYS = {"book": "book", "xmark": "benchmark", "protein": "protein"}

#: The standing queries ``ci/store_smoke.py`` attaches to its recordings.
STORE_QUERIES = {
    "names": "//item/name",
    "bids": "//open_auction//bidder/increase",
    "people": "//person[name]/emailaddress",
    "cats": "//category/name",
}

#: Standing queries of ``multiq-1000``.
MULTIQ_COUNT = 1000


def fig7_queries() -> dict[str, dict[str, str]]:
    """The 30 queries of figure 6: dataset -> query id -> XPath."""
    return {
        dataset: {spec.qid: spec.xpath for spec in QUERY_SETS[QUERY_SET_KEYS[dataset]]}
        for dataset in DATASETS
    }


def multiq_queries(seed: int, count: int = MULTIQ_COUNT) -> dict[str, str]:
    """The standing-query mix for ``seed`` (seed 0 is the repo default)."""
    return multiq_workload(count, MULTIQ_DEFAULT_SEED + seed)


def result_count(results) -> int:
    """Result ids in a list, or summed over a name -> list mapping."""
    if isinstance(results, dict):
        return sum(len(ids) for ids in results.values())
    return len(results)


def log_bytes(path: "str | Path") -> int:
    """Bytes in a store's segment files."""
    return sum(
        entry.stat().st_size
        for entry in os.scandir(path)
        if entry.name.endswith(".log")
    )


class Fig7Single:
    """Figure 7: each figure-6 query alone over its corpus, compiled tier.

    Every query has its own ``XPathStream(q, compiled=True)``.  A pass
    takes one corpus through the ten streams of its dataset: the op is
    one 16 KiB chunk fed to each of the ten in turn, or their ten
    ``close()`` calls.  A round is one pass per dataset.

    Grouping the ten feeds of a chunk into one op keeps the median off a
    cliff: per stream, a chunk costs about 1 ms on the queries the turbo
    scanner skips and 2-4 ms on the others, in proportions that put the
    median of single feeds at the edge between the two.
    """

    name = "fig7-single"

    def __init__(self, texts: dict[str, str], seed: int, workdir: Path,
                 multiq_count: int = MULTIQ_COUNT):
        self.texts = texts
        self.chunks = {dataset: chunked(texts[dataset]) for dataset in DATASETS}
        self.queries = fig7_queries()
        self.streams: dict = {}
        self.expected: dict = {}

    def reference(self) -> "tuple[dict, dict]":
        """Pull pipeline: each corpus parsed once, then every query's
        interpreted machine run over its events."""
        results = {}
        for dataset, queries in self.queries.items():
            events = list(parse_string(self.texts[dataset]))
            results[dataset] = {
                qid: list(XPathStream(xpath).evaluate(events))
                for qid, xpath in queries.items()
            }
        return results, {}

    def prepare(self, reference) -> None:
        self.expected = reference[0]

    def setup(self, keep: bool) -> float:
        started = time.perf_counter()
        streams = {
            dataset: {qid: XPathStream(xpath, compiled=True)
                      for qid, xpath in queries.items()}
            for dataset, queries in self.queries.items()
        }
        elapsed = time.perf_counter() - started
        if keep:
            self.streams = streams
        return elapsed

    def round(self) -> list[PassSpec]:
        return [
            PassSpec(
                key=dataset,
                chars=len(self.texts[dataset]) * len(self.queries[dataset]),
                run=functools.partial(self._pass, dataset),
                expected_results=self.expected[dataset],
            )
            for dataset in DATASETS
        ]

    def _pass(self, dataset: str, clock) -> "tuple[dict, dict]":
        streams = self.streams[dataset]
        for stream in streams.values():
            stream.reset()
        feeds = [stream.feed_text_push for stream in streams.values()]
        for chunk in self.chunks[dataset]:
            clock.begin()
            for feed in feeds:
                feed(chunk)
            clock.end()
        clock.begin()
        closed = {qid: stream.close() for qid, stream in streams.items()}
        clock.end()
        results = {qid: list(ids) for qid, ids in closed.items()}
        return results, {"results.count": result_count(results)}

    def describe(self) -> dict:
        return {"queries": sum(len(queries) for queries in self.queries.values())}


class MultiQ1000:
    """1000 standing XMark queries on one default ``MultiQueryEngine``.

    The op is one 16 KiB ``feed_text_push`` or the closing ``close()``;
    a round is one pass over the XMark text.

    Not among the workloads of ``BENCHMARK.json``: the seed draws a new
    query mix, whose cost varies, and with the host's speed states the
    spread over ten seeds reached the benchmark's bounds.  The router
    and machines it exercises are measured by the per-layer probes
    (``multiq.*``, ``router.*``).
    """

    name = "multiq-1000"

    def __init__(self, texts: dict[str, str], seed: int, workdir: Path,
                 multiq_count: int = MULTIQ_COUNT):
        self.text = texts["xmark"]
        self.chunks = chunked(self.text)
        self.queries = multiq_queries(seed, multiq_count)
        self.engine: "MultiQueryEngine | None" = None
        self.expected = None
        self.expected_counts: dict = {}

    def reference(self) -> "tuple[dict, dict]":
        """The pull pipeline of the same engine, and its dispatch count."""
        engine = MultiQueryEngine(self.queries)
        results = engine.evaluate(self.text)
        return results, {
            "router.dispatched": engine.dispatch_stats().machine_events_dispatched,
        }

    def prepare(self, reference) -> None:
        self.expected, self.expected_counts = reference

    def setup(self, keep: bool) -> float:
        started = time.perf_counter()
        engine = MultiQueryEngine(self.queries)
        elapsed = time.perf_counter() - started
        if keep:
            self.engine = engine
        return elapsed

    def round(self) -> list[PassSpec]:
        return [PassSpec(
            key="xmark",
            chars=len(self.text),
            run=self._pass,
            expected_results=self.expected,
            expected_counts=self.expected_counts,
        )]

    def _pass(self, clock) -> "tuple[dict, dict]":
        engine = self.engine
        engine.reset()
        feed = engine.feed_text_push
        for chunk in self.chunks:
            clock.begin()
            feed(chunk)
            clock.end()
        clock.begin()
        results = engine.close()
        clock.end()
        return results, {
            "router.dispatched": engine.dispatch_stats().machine_events_dispatched,
            "results.count": result_count(results),
        }

    def describe(self) -> dict:
        return {"queries": len(self.queries)}


class _Ready(Exception):
    """Raised by a source at its first pull, carrying the pull's time."""


class StoreIngest:
    """``repro.store.ingest`` of the XMark text into a fresh log.

    The four store-smoke queries are attached; ``sync="none"`` keeps the
    disk out of the measurement.  The op is one chunk, from when
    ``ingest`` pulls it from the source until it asks for the next, or
    the close after the last chunk (final checkpoint and writer close).
    """

    name = "store-ingest"

    def __init__(self, texts: dict[str, str], seed: int, workdir: Path,
                 multiq_count: int = MULTIQ_COUNT):
        self.text = texts["xmark"]
        self.chunks = chunked(self.text)
        self.workdir = workdir
        self.expected = None

    def reference(self) -> "tuple[dict, dict]":
        return store_reference(self.text)

    def prepare(self, reference) -> None:
        self.expected = reference[0]

    def setup(self, keep: bool) -> float:
        """Time from calling ``ingest`` to its first pull of the source."""
        path = self.workdir / "setup"
        shutil.rmtree(path, ignore_errors=True)

        def source():
            raise _Ready(time.perf_counter())
            yield  # pragma: no cover - makes this a generator

        started = time.perf_counter()
        try:
            ingest(source(), str(path), queries=STORE_QUERIES, sync="none")
        except _Ready as ready:
            return ready.args[0] - started
        finally:
            shutil.rmtree(path, ignore_errors=True)
        raise RuntimeError("ingest returned without reading its source")

    def round(self) -> list[PassSpec]:
        return [PassSpec(
            key="xmark",
            chars=len(self.text),
            run=self._pass,
            expected_results=self.expected,
        )]

    def _pass(self, clock) -> "tuple[dict, dict]":
        path = self.workdir / "ingest"
        shutil.rmtree(path, ignore_errors=True)

        def source():
            for chunk in self.chunks:
                clock.begin()
                yield chunk
                clock.end()
            clock.begin()  # the close op ends when ingest returns

        recorded = ingest(source(), str(path), queries=STORE_QUERIES, sync="none")
        clock.end()
        return recorded.results, {
            "log.bytes": log_bytes(path),
            "log.checkpoints": len(recorded.checkpoints),
            "results.count": result_count(recorded.results),
        }

    def describe(self) -> dict:
        return {"queries": len(STORE_QUERIES)}


class StoreReplay:
    """Replay of a recorded log, resumed from every embedded checkpoint.

    The log is recorded untimed in ``prepare``.  The op is one
    ``replay(None, path, from_checkpoint=c)``; a round cycles through
    every checkpoint.  Throughput counts the share of the document each
    replay covers, apportioned by events.

    Not among the workloads of ``BENCHMARK.json``: an op's cost follows
    the document's size and where the index can skip segments, both of
    which vary with the seed more than the benchmark's bounds allow.
    """

    name = "store-replay"

    def __init__(self, texts: dict[str, str], seed: int, workdir: Path,
                 multiq_count: int = MULTIQ_COUNT):
        self.text = texts["xmark"]
        self.workdir = workdir
        self.expected = None
        self.checkpoints: list = []
        self.events = 0

    @property
    def path(self) -> Path:
        return self.workdir / "replay"

    def reference(self) -> "tuple[dict, dict]":
        return store_reference(self.text)

    def prepare(self, reference) -> None:
        self.expected = reference[0]
        shutil.rmtree(self.path, ignore_errors=True)
        recorded = ingest(self.text, str(self.path), queries=STORE_QUERIES,
                          sync="none")
        self.events = recorded.events
        self.checkpoints = EventLogReader(str(self.path)).checkpoints()

    def setup(self, keep: bool) -> float:
        """Time to open the store and list its checkpoints."""
        started = time.perf_counter()
        EventLogReader(str(self.path)).checkpoints()
        return time.perf_counter() - started

    def round(self) -> list[PassSpec]:
        return [
            PassSpec(
                key=f"checkpoint-{info.id}",
                chars=len(self.text) * (self.events - info.event) / self.events,
                run=functools.partial(self._pass, info.id),
                expected_results=self.expected,
            )
            for info in self.checkpoints
        ]

    def _pass(self, checkpoint_id: int, clock) -> "tuple[dict, dict]":
        stats = ReplayStats()
        clock.begin()
        results = replay(None, str(self.path), from_checkpoint=checkpoint_id,
                         stats=stats)
        clock.end()
        return results, {
            "index.events_decoded": stats.events_emitted,
            "results.count": result_count(results),
        }

    def describe(self) -> dict:
        return {"queries": len(STORE_QUERIES), "checkpoints": len(self.checkpoints),
                "events": self.events}


WORKLOADS = {cls.name: cls for cls in (Fig7Single, MultiQ1000, StoreIngest, StoreReplay)}


def store_reference(text: str) -> "tuple[dict, dict]":
    """Live push evaluation of the store queries over the whole document."""
    return MultiQueryEngine(STORE_QUERIES).evaluate_push(text), {}


def compute_reference(name: str, texts: dict[str, str], seed: int) -> "tuple[object, dict]":
    """A workload's reference, computed where its memory does not count.

    The runner calls this in a separate process, so that the measured
    process's peak RSS is that of the workload alone.
    """
    return WORKLOADS[name](texts, seed, Path()).reference()
