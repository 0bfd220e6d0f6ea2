"""Push-mode adapters for the machine layer.

The engines (:class:`~repro.core.twigm.TwigM`,
:class:`~repro.core.pathm.PathM`, :class:`~repro.core.branchm.BranchM`)
implement the :class:`~repro.stream.events.EventHandler` protocol
natively — their transition methods *are* the callbacks — so
``engine.as_handler()`` usually returns the engine itself and the fused
pipeline (:meth:`~repro.stream.tokenizer.XmlTokenizer.feed_into`) drives
δs/δe with zero indirection.

The engines' pull driver (``feed``) does two things *around* the
transitions, once per event: it counts element events into
``engine.counts.events`` (:mod:`repro.core.counts`), and it accounts
every event against :class:`~repro.stream.recovery.ResourceLimits`
(``max_total_events``).  When an engine carries limits or publishes
metrics, :class:`AccountingHandler` restores exactly that accounting in
push mode, so counters and limit enforcement are bit-identical between
the two pipelines.
"""

from __future__ import annotations

from repro.stream.events import EventHandler


class AccountingHandler(EventHandler):
    """Wrap an engine to count its events, as its ``feed`` does.

    Element events are added to ``engine.counts.events`` (engines
    without operation counters, such as the lazy DFA, skip this); with
    limits set, every event kind — including ``Characters`` the engine
    then skips — is counted and ``max_total_events`` checked *before*
    the transition runs.
    """

    __slots__ = ("_engine", "_limits", "_counts")

    def __init__(self, engine) -> None:
        self._engine = engine
        self._limits = engine._limits
        self._counts = getattr(engine, "counts", None)

    def start_element(self, tag, level, node_id, attributes) -> None:
        engine = self._engine
        if self._limits is not None:
            engine._event_count += 1
            self._limits.check("max_total_events", engine._event_count)
        if self._counts is not None:
            self._counts.events += 1
        engine.start_element(tag, level, node_id, attributes)

    def characters(self, text, level) -> None:
        engine = self._engine
        if self._limits is not None:
            engine._event_count += 1
            self._limits.check("max_total_events", engine._event_count)
        engine.characters(text, level)

    def end_element(self, tag, level) -> None:
        engine = self._engine
        if self._limits is not None:
            engine._event_count += 1
            self._limits.check("max_total_events", engine._event_count)
        if self._counts is not None:
            self._counts.events += 1
        engine.end_element(tag, level)
