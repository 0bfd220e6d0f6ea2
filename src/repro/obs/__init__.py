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
* :mod:`repro.obs.machines` — the publisher that syncs the machines'
  own operation counters (:mod:`repro.core.counts`: pushes, pops, edge
  checks, peak live stack entries — the operations Theorem 4.4 bounds)
  into the ``repro_machine_*`` families at scrape time.
* :mod:`repro.obs.stats` — the ``python -m repro stats`` runner: one
  evaluation with every metric family populated, plus per-chunk
  parse → route+dispatch → emit trace spans.

The cardinal design rule is that **publishing is opt-in and read at
scrape time**: the machines' counters are plain integer increments that
are always on, and passing ``metrics=`` to
:class:`~repro.core.processor.XPathStream`,
:class:`~repro.multiq.engine.MultiQueryEngine`,
:class:`~repro.stream.tokenizer.XmlTokenizer`, or
:class:`~repro.perf.pipeline.PushPipeline` attaches the publishers;
without it the push handler is the bare engine and no per-event metrics
code runs.  ``ci/obs_smoke.py`` gates that the disabled path stays
within 5% of the recorded push-throughput baseline.

Example::

    from repro import XPathStream
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    stream = XPathStream("//book[price < 30]//title", metrics=registry)
    stream.evaluate_push("catalog.xml")
    print(registry.render_prometheus())
"""

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
    "Tracer",
]
