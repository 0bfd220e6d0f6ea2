"""repro.obs — observability for the whole pipeline (layer 5).

A pay-nothing-when-off metrics and tracing subsystem threaded through
every layer of the system:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with counters,
  gauges, and fixed-bucket histograms; stdlib-only, snapshot-able as
  plain dicts, rendered as Prometheus text (:meth:`render_prometheus`)
  or JSON (:meth:`render_json`).
* :mod:`repro.obs.trace` — :class:`Tracer`, a lightweight span recorder
  (monotonic timestamps) dumpable as Chrome ``trace_event`` JSON for
  ``about:tracing`` / Perfetto.
* :mod:`repro.obs.machines` — :class:`ObsPathM` / :class:`ObsBranchM` /
  :class:`ObsTwigM`, the production engines with per-operation counters
  (pushes, pops, edge checks, peak live stack entries — the operations
  Theorem 4.4 bounds).
* :mod:`repro.obs.stats` — the ``python -m repro stats`` runner: one
  evaluation with every metric family populated, plus per-chunk
  parse → route+dispatch → emit trace spans.

The cardinal design rule is that **instrumentation is opt-in by
construction, not by branching**: passing ``metrics=`` to
:class:`~repro.core.processor.XPathStream`,
:class:`~repro.multiq.engine.MultiQueryEngine`,
:class:`~repro.stream.tokenizer.XmlTokenizer`, or
:class:`~repro.perf.pipeline.PushPipeline` swaps in the instrumented
machine subclasses; without it the plain classes run and the hot loops
contain no metrics checks at all.  ``ci/obs_smoke.py`` gates that the
disabled path stays within 5% of the recorded push-throughput baseline.

Example::

    from repro import XPathStream
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    stream = XPathStream("//book[price < 30]//title", metrics=registry)
    stream.evaluate_push("catalog.xml")
    print(registry.render_prometheus())
"""

from repro.obs.machines import (
    ObsBranchM,
    ObsPathM,
    ObsTwigM,
    OperationCounts,
)
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.trace import Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "ObsBranchM",
    "ObsPathM",
    "ObsTwigM",
    "OperationCounts",
    "Tracer",
]
