""":class:`PushPipeline` — one query bound to the fused fast path.

A thin, reusable binding over :class:`~repro.core.processor.XPathStream`
for workloads that evaluate the same query over many documents (the
benchmark harness, long-running feed consumers): the query is compiled
and the machine's per-tag dispatch plans are built once, then each
:meth:`PushPipeline.run` resets the machine and streams one document
through :meth:`~repro.stream.tokenizer.XmlTokenizer.feed_into`.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.core.processor import XPathStream
from repro.stream.recovery import RecoveryPolicy, ResourceLimits, StreamDiagnostic
from repro.stream.tokenizer import DEFAULT_CHUNK_SIZE, XmlTokenizer, iter_text_chunks
from repro.xpath.querytree import QueryTree


class PushPipeline:
    """One query, compiled once, evaluated push-mode per document.

    Parameters mirror :class:`~repro.core.processor.XPathStream`
    (including ``compiled=``, which selects the :mod:`repro.compile`
    lazy DFA *and* lets eligible runs use the query-aware turbo scanner);
    the extra ``chunk_size`` sets how much text each scanner call sees
    when the source is a file (bigger chunks amortise the regex scan's
    per-call overhead; the default matches the tokenizer's).

    Observability is opt-in: pass ``metrics=`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) to publish a per-chunk
    latency histogram (``repro_push_chunk_seconds``), a chunk counter
    (``repro_push_chunks_total``) and a throughput gauge
    (``repro_push_mb_per_s``, MB of text per wall second over the last
    :meth:`run`), and/or ``tracer=`` (a :class:`~repro.obs.trace.Tracer`)
    to record one span per chunk.  When both are ``None`` :meth:`run`
    executes the original untimed loop — the fast path pays nothing.

    Example::

        pipeline = PushPipeline("//book[price < 30]//title")
        for path in documents:
            ids = pipeline.run(path)
    """

    def __init__(
        self,
        query: "str | QueryTree",
        on_match: Callable[[int], None] | None = None,
        engine: str | None = None,
        *,
        policy: "str | RecoveryPolicy" = RecoveryPolicy.STRICT,
        on_diagnostic: Callable[[StreamDiagnostic], None] | None = None,
        limits: ResourceLimits | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        metrics=None,
        tracer=None,
        compiled: bool = False,
        state_cap: int | None = None,
        emission: str = "default",
    ):
        self.stream = XPathStream(
            query,
            on_match=on_match,
            engine=engine,
            policy=policy,
            on_diagnostic=on_diagnostic,
            limits=limits,
            metrics=metrics,
            compiled=compiled,
            state_cap=state_cap,
            emission=emission,
        )
        self._policy = RecoveryPolicy.coerce(policy)
        self._on_diagnostic = on_diagnostic
        self._limits = limits
        self.chunk_size = chunk_size
        self._bind_observability(metrics, tracer)

    def _bind_observability(self, metrics, tracer) -> None:
        self._metrics = metrics
        self._tracer = tracer
        if metrics is not None:
            self._m_chunk_seconds = metrics.histogram(
                "repro_push_chunk_seconds",
                "Wall-clock seconds spent scanning+evaluating one text chunk.",
            )
            self._m_chunks = metrics.counter(
                "repro_push_chunks_total",
                "Text chunks fed through the fused push path.",
            )
            self._m_mb_per_s = metrics.gauge(
                "repro_push_mb_per_s",
                "Push-path throughput over the most recent run "
                "(1e6 characters of XML text per wall second).",
            )

    @property
    def engine_name(self) -> str:
        """Which machine evaluates this query: pathm, branchm or twigm."""
        return self.stream.engine_name

    def run(self, source) -> list[int]:
        """Evaluate one document; return its solution ids.

        The machine is reset first, so runs are independent.  ``source``
        is anything text-bearing (XML text, a path, a file object, text
        chunks); pre-built event streams have no text to scan — use
        :meth:`XPathStream.evaluate` for those.
        """
        stream = self.stream
        stream.reset()
        handler = stream.push_handler()
        tokenizer = XmlTokenizer(
            policy=self._policy,
            on_diagnostic=self._on_diagnostic,
            limits=self._limits,
            metrics=self._metrics,
        )
        if self._metrics is None and self._tracer is None:
            turbo = stream._turbo_for(tokenizer, handler)
            if turbo is not None:
                for chunk in iter_text_chunks(source, self.chunk_size):
                    turbo(tokenizer, chunk, handler)
            else:
                for chunk in iter_text_chunks(source, self.chunk_size):
                    tokenizer.feed_into(chunk, handler)
            tokenizer.close_into(handler)
        else:
            self._run_observed(source, tokenizer, handler)
        try:
            return list(stream.results)
        except AttributeError:  # on_match mode: delivered incrementally
            return []

    # -- incremental (serving) API --------------------------------------

    def feed(self, chunk: str) -> None:
        """Incrementally feed one text chunk through the fused path.

        The long-running-session face of the pipeline: unlike
        :meth:`run` the machine is *not* reset, so chunks accumulate
        into one logical document across calls — this is what a serving
        session drives, checkpointing between chunks.  Don't mix with
        :meth:`run` mid-document (``run`` resets the machine).
        """
        if self._metrics is None and self._tracer is None:
            self.stream.feed_text_push(chunk)
            return
        if self._tracer is not None:
            self._tracer.begin("push_chunk", size=len(chunk))
        started = time.perf_counter()
        self.stream.feed_text_push(chunk)
        elapsed = time.perf_counter() - started
        if self._tracer is not None:
            self._tracer.end()
        if self._metrics is not None:
            self._m_chunk_seconds.observe(elapsed)
            self._m_chunks.inc()
            self._metrics.tick()

    def finish(self) -> list[int]:
        """Close an incremental feed; return the collected solution ids."""
        return self.stream.close()

    def snapshot(self) -> dict:
        """Checkpoint the in-flight incremental evaluation.

        Delegates to :meth:`XPathStream.snapshot` — machine stacks,
        sink state, and the mid-parse tokenizer all ride along, so a
        pipeline restored with :meth:`restore` resumes bit-exactly.
        """
        return self.stream.snapshot()

    @classmethod
    def restore(
        cls,
        snapshot: dict,
        on_match: Callable[[int], None] | None = None,
        on_diagnostic: Callable[[StreamDiagnostic], None] | None = None,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        metrics=None,
        tracer=None,
    ) -> "PushPipeline":
        """Rebuild a pipeline mid-document from a :meth:`snapshot`."""
        stream = XPathStream.restore(
            snapshot, on_match=on_match, on_diagnostic=on_diagnostic, metrics=metrics
        )
        pipeline = cls.__new__(cls)
        pipeline.stream = stream
        pipeline._policy = stream._policy
        pipeline._on_diagnostic = on_diagnostic
        pipeline._limits = stream._limits
        pipeline.chunk_size = chunk_size
        pipeline._bind_observability(metrics, tracer)
        return pipeline

    def _run_observed(self, source, tokenizer, handler) -> None:
        """Timed variant of the chunk loop; only used when observing."""
        metrics, tracer = self._metrics, self._tracer
        chars = 0
        busy = 0.0
        index = 0
        for chunk in iter_text_chunks(source, self.chunk_size):
            if tracer is not None:
                tracer.begin("push_chunk", index=index, size=len(chunk))
            started = time.perf_counter()
            tokenizer.feed_into(chunk, handler)
            elapsed = time.perf_counter() - started
            if tracer is not None:
                tracer.end()
            chars += len(chunk)
            busy += elapsed
            index += 1
            if metrics is not None:
                self._m_chunk_seconds.observe(elapsed)
                self._m_chunks.inc()
                metrics.tick()
        tokenizer.close_into(handler)
        if metrics is not None:
            self._m_mb_per_s.set(chars / busy / 1e6 if busy else 0.0)
            metrics.tick()
