"""The public front door: :class:`XPathStream` and :func:`evaluate`.

``XPathStream`` parses a query, classifies its fragment, and instantiates
the cheapest machine that handles it, as the paper's system does:

* XP{/,//,*} (no predicates)      → :class:`~repro.core.pathm.PathM`
* XP{/,[]}   (no '//' and no '*') → :class:`~repro.core.branchm.BranchM`
* XP{/,//,*,[]} (everything)      → :class:`~repro.core.twigm.TwigM`

The evaluator is fed from any event source accepted by
:func:`repro.stream.tokenizer.events_from` — an XML string, a file path,
an open file, chunk iterables, or pre-built event streams — so the same
object serves one-shot evaluation and long-running pipelines.

For always-on deployments the stream carries the resilience options of
:mod:`repro.stream.recovery` (a recovery ``policy``, an
``on_diagnostic`` callback, and ``limits``) and supports
**checkpoint/resume**: :meth:`XPathStream.snapshot` captures the machine
stacks, result buffers, and mid-parse tokenizer state as a versioned,
JSON-serializable dict, and :meth:`XPathStream.restore` resumes
bit-exactly — a stream suspended at any event boundary produces the same
matches in the same order as an uninterrupted run.

Example::

    from repro import XPathStream

    stream = XPathStream("//book[price < 30]//title")
    ids = stream.evaluate("catalog.xml")

    # or push-style, emitting matches as they are confirmed:
    stream = XPathStream("//alert[severity = 'high']//source",
                         on_match=print)
    for chunk in network_chunks:
        stream.feed_text(chunk)
        persist(stream.snapshot())   # crash-safe: resume from the capture
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.core.branchm import BranchM
from repro.core.pathm import PathM
from repro.core.results import CallbackSink, CollectingSink, ResultSink
from repro.core.twigm import TwigM
from repro.errors import CheckpointError
from repro.stream.events import Event
from repro.stream.recovery import RecoveryPolicy, ResourceLimits, StreamDiagnostic
from repro.stream.tokenizer import XmlTokenizer, events_from, iter_text_chunks
from repro.xpath.querytree import QueryTree, compile_query

#: The engine classes by fragment, in dispatch order.
_FRAGMENT_ENGINES = {
    "XP{/,//,*}": PathM,
    "XP{/,[]}": BranchM,
    "XP{/,//,*,[]}": TwigM,
}

_ENGINES_BY_NAME = {"pathm": PathM, "branchm": BranchM, "twigm": TwigM}

#: Version of the snapshot schema :meth:`XPathStream.snapshot` writes.
SNAPSHOT_VERSION = 1


def _engine_class_by_name(name: str):
    """Resolve an engine name, including the lazily-imported ``dfa``."""
    if name == "dfa":
        from repro.compile.dfa import DfaPathM

        return DfaPathM
    try:
        return _ENGINES_BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown engine {name!r}") from None


def select_engine_class(query: QueryTree):
    """The cheapest machine class for ``query``'s fragment.

    Queries using the boolean-connective extension (or/not) always run
    on TwigM, whose entries carry the general condition state.
    """
    if query.has_boolean_connectives():
        return TwigM
    return _FRAGMENT_ENGINES[query.fragment()]


def select_compiled_engine_class(engine_class, explicit: bool):
    """The engine class ``compiled=True`` runs for an interpreted choice.

    Automatically-selected PathM upgrades to the lazy-DFA front-end
    (:class:`~repro.compile.dfa.DfaPathM`; its state cap guarantees
    PathM behaviour in the worst case).  Every other choice — including
    an *explicitly* requested ``engine="pathm"``, whose snapshot engine
    name is honoured — runs unchanged.
    """
    if engine_class is PathM and not explicit:
        from repro.compile.dfa import DfaPathM

        return DfaPathM
    return engine_class


class XPathStream:
    """A streaming XPath processor bound to one query.

    Parameters
    ----------
    query:
        An XPath string or a compiled :class:`QueryTree` in
        XP{/,//,*,[]} (+ attributes and value tests).
    on_match:
        Optional callback invoked with each confirmed solution id as soon
        as it is known.  Without it, ids are collected and returned.
    engine:
        Force a specific machine: ``"pathm"``, ``"branchm"``, ``"twigm"``,
        or ``None`` (automatic; the default).
    policy:
        Malformed-input handling for text feeds: ``"strict"`` (default),
        ``"skip"``, or ``"repair"`` — see
        :class:`~repro.stream.recovery.RecoveryPolicy`.
    on_diagnostic:
        Callback receiving each
        :class:`~repro.stream.recovery.StreamDiagnostic` a lenient policy
        produces.
    limits:
        Optional :class:`~repro.stream.recovery.ResourceLimits`, enforced
        by both the tokenizer and the machine.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  When set,
        the machine publishes its operation counters
        (:mod:`repro.core.counts`) as the ``repro_machine_*`` families and
        the tokenizers publish ``repro_tokenizer_*``.  When ``None`` (the
        default) nothing is published and the push handler is the bare
        engine — no per-event metrics code runs.  The lazy-DFA engine
        (``compiled=True`` on a predicate-free query) publishes the
        ``repro_compile_*`` family instead.
    compiled:
        Run automatically-selected PathM queries on the lazy-DFA
        front-end (:mod:`repro.compile`, ``engine_name`` ``"dfa"``),
        whose push pipeline also engages the turbo scanner.  Every
        other query runs the same engine as with ``compiled=False``.
        Matches, order, errors, limits and snapshots are identical to
        the interpreted engines.
    state_cap:
        Optional override for the lazy DFA's materialised-state ceiling
        (default :data:`repro.compile.DEFAULT_STATE_CAP`); past it the
        engine falls back to interpreted PathM mid-stream.
    emission:
        ``"default"`` (the paper's buffering) or ``"earliest"`` — flush
        each result at the first event where it is provable (same result
        set, earlier and possibly reordered emissions; see
        docs/LATENCY.md).  Predicate-free queries on PathM/DFA engines
        already emit at the earliest point, so the mode is a no-op for
        them.
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
        metrics=None,
        compiled: bool = False,
        state_cap: int | None = None,
        emission: str = "default",
    ):
        if isinstance(query, str):
            query = compile_query(query)
        self.query = query
        self._policy = RecoveryPolicy.coerce(policy)
        self._on_diagnostic = on_diagnostic
        self._limits = limits
        self._metrics = metrics
        self._compiled = bool(compiled) or engine == "dfa"
        self._state_cap = state_cap
        if emission not in ("default", "earliest"):
            raise ValueError(
                f"emission must be 'default' or 'earliest', got {emission!r}"
            )
        self._emission = emission
        if on_match is None:
            sink: ResultSink = CollectingSink()
        else:
            sink = CallbackSink(on_match)
        if engine is None:
            engine_class = select_engine_class(query)
        else:
            engine_class = _engine_class_by_name(engine)
        if self._compiled:
            engine_class = select_compiled_engine_class(
                engine_class, explicit=engine is not None
            )
        # Path engines emit at the return node's start tag — already the
        # earliest point — and take no emission parameter.
        kwargs = {}
        if emission != "default" and engine_class.machine_name in ("twigm", "branchm"):
            kwargs["emission"] = emission
        if engine_class.machine_name == "dfa" and state_cap is not None:
            kwargs["state_cap"] = state_cap
        self.engine = engine_class(query, sink=sink, limits=limits,
                                   metrics=metrics, **kwargs)
        self._sink = sink
        self._tokenizer: XmlTokenizer | None = None
        self._push_handler = None
        self._turbo = None

    @property
    def engine_name(self) -> str:
        """Which machine evaluates this query: pathm, branchm, twigm or dfa."""
        return self.engine.machine_name

    @property
    def results(self) -> list[int]:
        """Solutions confirmed so far (collecting mode only)."""
        if isinstance(self._sink, CollectingSink):
            return self._sink.results
        raise AttributeError("results are not collected when on_match is set")

    @property
    def diagnostics(self) -> list[StreamDiagnostic]:
        """Recovery diagnostics from the incremental text feed (if any)."""
        if self._tokenizer is None:
            return []
        return self._tokenizer.diagnostics

    # -- one-shot -----------------------------------------------------------

    def evaluate(self, source) -> list[int]:
        """Evaluate the query over ``source``; return solution ids.

        ``source`` may be XML text, a path, a file object, chunk
        iterables, or an event stream.
        """
        self.engine.feed(
            events_from(
                source,
                policy=self._policy,
                on_diagnostic=self._on_diagnostic,
                limits=self._limits,
                metrics=self._metrics,
            )
        )
        if isinstance(self._sink, CollectingSink):
            return self._sink.results
        return []

    def evaluate_push(self, source) -> list[int]:
        """Evaluate through the fused push pipeline; return solution ids.

        Equivalent to :meth:`evaluate` — same matches, same order, same
        errors, diagnostics and limit enforcement — but the tokenizer
        drives the machine's transition callbacks directly
        (:meth:`~repro.stream.tokenizer.XmlTokenizer.feed_into`), with no
        event objects or generator hops on the hot path.  ``source`` may
        be XML text, a path, a file object, or an iterable of text chunks
        (pre-built event streams have no text to scan; use
        :meth:`evaluate`).
        """
        handler = self.push_handler()
        tokenizer = XmlTokenizer(
            policy=self._policy,
            on_diagnostic=self._on_diagnostic,
            limits=self._limits,
            metrics=self._metrics,
        )
        turbo = self._turbo_for(tokenizer, handler)
        if turbo is not None:
            for chunk in iter_text_chunks(source):
                turbo(tokenizer, chunk, handler)
        else:
            for chunk in iter_text_chunks(source):
                tokenizer.feed_into(chunk, handler)
        tokenizer.close_into(handler)
        if isinstance(self._sink, CollectingSink):
            return self._sink.results
        return []

    def _turbo_for(self, tokenizer: XmlTokenizer, handler):
        """:func:`repro.compile.scan.turbo_feed` when this (tokenizer,
        handler) binding qualifies for the turbo scanner, else None."""
        if not getattr(handler, "turbo_scan_safe", False):
            return None
        from repro.compile.scan import turbo_eligible, turbo_feed

        if turbo_eligible(tokenizer, handler):
            return turbo_feed
        return None

    # -- push-style ---------------------------------------------------------

    def push_handler(self):
        """The engine as an :class:`~repro.stream.events.EventHandler`.

        Feed it from :meth:`XmlTokenizer.feed_into`, or call the
        callbacks from any parser.  Cached: repeated calls return the
        same handler.
        """
        if self._push_handler is None:
            self._push_handler = self.engine.as_handler()
        return self._push_handler

    def feed_events(self, events: Iterable[Event]) -> None:
        """Push pre-parsed modified-SAX events through the engine."""
        self.engine.feed(events)

    def feed_text(self, chunk: str) -> None:
        """Push a chunk of raw XML text (incremental parsing)."""
        if self._tokenizer is None:
            self._tokenizer = XmlTokenizer(
                policy=self._policy,
                on_diagnostic=self._on_diagnostic,
                limits=self._limits,
                metrics=self._metrics,
            )
        self.engine.feed(self._tokenizer.feed(chunk))

    def feed_text_push(self, chunk: str) -> None:
        """Push-pipeline :meth:`feed_text`: fused scan → callbacks.

        Shares the incremental tokenizer with :meth:`feed_text` (the two
        may be mixed chunk-by-chunk) and is captured by :meth:`snapshot`
        mid-document exactly the same way.
        """
        if self._tokenizer is None:
            self._tokenizer = XmlTokenizer(
                policy=self._policy,
                on_diagnostic=self._on_diagnostic,
                limits=self._limits,
                metrics=self._metrics,
            )
        if self._turbo is None:
            # Eligibility depends only on construction-time configuration
            # (policy/limits/metrics) and the handler, so the tri-state
            # cache (None = unknown, False = ineligible, else the feed
            # function) survives tokenizer recreation.
            self._turbo = (
                self._turbo_for(self._tokenizer, self.push_handler()) or False
            )
        if self._turbo:
            self._turbo(self._tokenizer, chunk, self.push_handler())
        else:
            self._tokenizer.feed_into(chunk, self.push_handler())

    def close(self) -> list[int]:
        """Finish an incremental text feed; return collected ids (if any).

        Under a lenient policy the tokenizer may synthesize end events for
        a truncated document here; they are fed through the engine so a
        match pending only on missing end tags is still confirmed.
        """
        if self._tokenizer is not None:
            final_events = self._tokenizer.close()
            if final_events:
                self.engine.feed(final_events)
            self._tokenizer = None
        if isinstance(self._sink, CollectingSink):
            return self._sink.results
        return []

    def reset(self) -> None:
        """Prepare for a fresh document (keeps the compiled machine)."""
        self.engine.reset()
        self._tokenizer = None
        if isinstance(self._sink, CollectingSink):
            self._sink.results.clear()
            self._sink._seen.clear()

    # -- checkpoint / resume ------------------------------------------------

    def snapshot(self) -> dict:
        """Capture the full evaluation state as a versioned, serializable dict.

        The capture spans the machine stacks, the candidate/result
        buffers, the emitted-id set, and — mid-document — the incremental
        tokenizer (pending buffer, open-element stack, cursor, pre-order
        counter), so ``restore`` resumes bit-exactly.  Everything in it is
        JSON-serializable; persist it however suits the deployment.
        """
        return {
            "version": SNAPSHOT_VERSION,
            "query": self.query.source,
            "engine": self.engine_name,
            "compiled": self._compiled,
            "emission": self._emission,
            "policy": self._policy.value,
            "limits": self._limits.to_dict() if self._limits is not None else None,
            "tokenizer": self._tokenizer.snapshot() if self._tokenizer is not None else None,
            "machine": self.engine.snapshot_state(),
            "sink": self._sink.snapshot_state(),
        }

    @classmethod
    def restore(
        cls,
        snapshot: dict,
        on_match: Callable[[int], None] | None = None,
        on_diagnostic: Callable[[StreamDiagnostic], None] | None = None,
        metrics=None,
    ) -> "XPathStream":
        """Rebuild a stream from a :meth:`snapshot` capture.

        Callbacks are not serializable, so ``on_match``/``on_diagnostic``
        are supplied anew; ids emitted before the checkpoint are
        remembered and will not fire ``on_match`` again.  Passing
        ``metrics`` resumes publishing: cumulative counters carried in
        the snapshot are re-published, so the registry of a resumed
        stream reports the same totals as an uninterrupted run.
        """
        version = snapshot.get("version")
        if version != SNAPSHOT_VERSION:
            raise CheckpointError(
                f"unsupported snapshot version {version!r} (expected {SNAPSHOT_VERSION})"
            )
        try:
            stream = cls(
                snapshot["query"],
                on_match=on_match,
                engine=snapshot["engine"],
                policy=snapshot["policy"],
                on_diagnostic=on_diagnostic,
                limits=ResourceLimits.from_dict(snapshot.get("limits")),
                metrics=metrics,
                compiled=bool(snapshot.get("compiled")),
                emission=snapshot.get("emission", "default"),
            )
            stream.engine.restore_state(snapshot["machine"])
            stream._sink.restore_state(snapshot["sink"])
            if snapshot.get("tokenizer") is not None:
                stream._tokenizer = XmlTokenizer.restore(
                    snapshot["tokenizer"],
                    on_diagnostic=on_diagnostic,
                    limits=stream._limits,
                    metrics=metrics,
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed snapshot: {exc}") from exc
        return stream


def evaluate(query: "str | QueryTree", source) -> list[int]:
    """One-shot convenience: evaluate ``query`` over ``source``.

    Returns the distinct solution node ids (pre-order positions) in
    confirmation order.
    """
    return XPathStream(query).evaluate(source)


def evaluate_push(query: "str | QueryTree", source) -> list[int]:
    """One-shot convenience over the fused push pipeline.

    Same results as :func:`evaluate`; ``source`` must be text-bearing
    (XML text, a path, a file object, or text chunks).
    """
    return XPathStream(query).evaluate_push(source)
