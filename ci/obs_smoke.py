"""CI smoke: observability must be free when off and truthful when on.

Gates the acceptance properties of the ``repro.obs`` layer:

1. **Structurally free when disabled** — without ``metrics=`` the push
   handler of every stream, and of every multi-query unit, must be the
   bare engine: no counting wrapper, so no per-event metrics code runs
   (the machines' own counters are plain increments inside δs/δe,
   covered by the throughput gate below).
2. **Throughput unchanged** — the instrumented-but-disabled push path
   must stay within ``MAX_OVERHEAD`` (5%) of the recorded
   ``BENCH_core.json`` push throughput on every XMark benchmark query
   (best of ``REPEATS`` runs; the baseline is re-recorded by
   ``ci/perf_smoke.py`` on the same machine each commit).
3. **Identical results either way** — enabling metrics must not change
   any solution id, through pull, push, and multi-query dispatch.
4. **Cumulative truth across checkpoints** — metrics carried through
   ``snapshot()``/``restore()`` must make a resumed stream's registry
   report exactly what an uninterrupted run reports.  The lazy DFA's
   transition-cache families are the exception: a snapshot carries the
   NFA configuration, not the cache, which a resumed run rebuilds.
5. **Exposition round-trips** — the Prometheus text parses back into
   the same samples the snapshot reports, and the JSON rendering loads.
6. **Compiled tier reports in** — a ``compiled=True`` run with metrics
   populates the ``repro_compile_*`` families (DFA cache size, hit
   ratio, fallbacks), returns unchanged solution ids, and a compiled
   run *without* metrics must not touch the obs layer at all.

Run from the repo root::

    PYTHONPATH=src python ci/obs_smoke.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.bench.corpora import benchmark_corpus
from repro.bench.hotpath import XMARK_QUERIES
from repro.core.processor import XPathStream
from repro.multiq.engine import MultiQueryEngine
from repro.obs.metrics import MetricsRegistry

MAX_OVERHEAD = 0.05
REPEATS = 5
BASELINE = "BENCH_core.json"


def check_structurally_free() -> list[str]:
    """Disabled mode must hand the tokenizer the bare engines."""
    failures = []
    # The XMark queries run PathM and TwigM; the last one runs BranchM.
    queries = [q for q, _why in XMARK_QUERIES]
    queries.append("/site/people/person[name]/emailaddress")
    for query in queries:
        stream = XPathStream(query)
        if stream.push_handler() is not stream.engine:
            failures.append(
                f"disabled XPathStream({query!r}) wraps its engine in "
                f"{type(stream.push_handler()).__name__}"
            )
    engine = MultiQueryEngine({f"q{i}": q for i, q in enumerate(queries)})
    for unit in engine._registry.units():
        if unit.handler is not unit.engine:
            failures.append(
                f"disabled MultiQueryEngine unit {unit.tree.source!r} wraps "
                f"its engine in {type(unit.handler).__name__}"
            )
    return failures


def check_throughput(corpus) -> list[str]:
    """Push mb/s (metrics off) vs the recorded baseline, per query."""
    baseline_path = Path(BASELINE)
    if not baseline_path.exists():
        print(f"  {BASELINE} missing — run ci/perf_smoke.py first; skipping "
              "throughput gate")
        return []
    baseline = json.loads(baseline_path.read_text())
    if baseline.get("profile") != corpus.name.split("-")[-1]:
        print(f"  baseline profile {baseline.get('profile')!r} != corpus "
              f"{corpus.name!r}; skipping throughput gate")
        return []
    size_mb = corpus.size_bytes() / 1e6
    rows = baseline["corpora"]["xmark"]["queries"]
    failures = []
    for query, _why in XMARK_QUERIES:
        recorded = rows[query]["push"]["mb_per_s"]
        best = 0.0
        for _ in range(REPEATS):
            stream = XPathStream(query)
            started = time.perf_counter()
            stream.evaluate_push(corpus.path)
            seconds = time.perf_counter() - started
            best = max(best, size_mb / seconds)
        ratio = best / recorded
        print(f"  {query}: {best:.2f} MB/s vs baseline {recorded} "
              f"({ratio:.2f}x)")
        if ratio < 1.0 - MAX_OVERHEAD:
            failures.append(
                f"disabled-mode push is {best:.2f} MB/s for {query!r}, "
                f"more than {MAX_OVERHEAD:.0%} below baseline {recorded}"
            )
    return failures


def check_result_parity(corpus) -> list[str]:
    """Metrics on vs off: identical ids through every pipeline."""
    failures = []
    text = corpus.path.read_text(encoding="utf-8")
    for query, _why in XMARK_QUERIES:
        plain_pull = XPathStream(query).evaluate(corpus.path)
        plain_push = XPathStream(query).evaluate_push(corpus.path)
        registry = MetricsRegistry()
        obs_pull = XPathStream(query, metrics=registry).evaluate(corpus.path)
        obs_push = XPathStream(query, metrics=registry).evaluate_push(corpus.path)
        if not plain_pull == obs_pull == plain_push == obs_push:
            failures.append(f"metrics changed results for {query!r}")
    queries = {f"q{i}": q for i, (q, _why) in enumerate(XMARK_QUERIES)}
    plain = MultiQueryEngine(queries).evaluate(text)
    observed = MultiQueryEngine(queries, metrics=MetricsRegistry()).evaluate(text)
    if plain != observed:
        failures.append("metrics changed multi-query dispatch results")
    return failures


def _families(registry: MetricsRegistry) -> dict:
    """Snapshot reduced to {family: {label-tuple: value}} for comparison.

    Histograms snapshot as bucket maps rather than labelled samples and
    are compared by their (count, sum) pair instead.
    """
    flat = {}
    for name, family in registry.snapshot().items():
        if "values" in family:
            flat[name] = {
                tuple(sorted(value["labels"].items())): value["value"]
                for value in family["values"]
            }
        else:
            flat[name] = {(): (family["count"], family["sum"])}
    return flat


#: Families describing the multi-query path tier's DFA transition cache,
#: which snapshots leave out (it is reconstructible state).
DFA_CACHE_FAMILIES = {
    "repro_compile_dfa_states",
    "repro_compile_dfa_transitions",
    "repro_compile_dfa_misses_total",
    "repro_compile_hit_ratio",
}


def check_checkpoint_continuity(corpus) -> list[str]:
    """Resumed-run registry totals == uninterrupted-run registry totals."""
    text = corpus.path.read_text(encoding="utf-8")
    mid = len(text) // 2
    queries = {f"q{i}": q for i, (q, _why) in enumerate(XMARK_QUERIES)}

    whole_registry = MetricsRegistry()
    whole = MultiQueryEngine(queries, metrics=whole_registry)
    whole.feed_text(text)
    whole_results = whole.close()

    first = MultiQueryEngine(queries, metrics=MetricsRegistry())
    first.feed_text(text[:mid])
    resumed_registry = MetricsRegistry()
    resumed = MultiQueryEngine.restore(first.snapshot(),
                                       metrics=resumed_registry)
    resumed.feed_text(text[mid:])
    resumed_results = resumed.close()

    failures = []
    if whole_results != resumed_results:
        failures.append("checkpoint resume changed results")
    whole_flat, resumed_flat = _families(whole_registry), _families(resumed_registry)
    for family, values in whole_flat.items():
        if family == "repro_machine_peak_entries":
            continue  # high-water marks are path-dependent by definition
        if family in DFA_CACHE_FAMILIES:
            continue  # the cache is rebuilt after restore, by design
        if resumed_flat.get(family) != values:
            failures.append(
                f"{family}: resumed registry reports "
                f"{resumed_flat.get(family)} != uninterrupted {values}"
            )
    return failures


def _parse_prometheus(text: str) -> dict:
    """Parse exposition text back to {family: {label-tuple: value}}."""
    parsed: dict = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        metric, _, raw = line.rpartition(" ")
        labels = ()
        if "{" in metric:
            metric, _, body = metric.partition("{")
            items = []
            for pair in body.rstrip("}").split('",'):
                key, _, value = pair.partition("=")
                items.append((key.strip(), value.strip().strip('"')))
            labels = tuple(sorted(items))
        value = float(raw)
        parsed.setdefault(metric, {})[labels] = value
    return parsed


def check_exposition(corpus) -> list[str]:
    """Prometheus text and JSON renderings agree with the snapshot."""
    registry = MetricsRegistry()
    stream = XPathStream(XMARK_QUERIES[0][0], metrics=registry)
    stream.evaluate_push(corpus.path)
    failures = []

    parsed = _parse_prometheus(registry.render_prometheus())
    for family, values in _families(registry).items():
        for labels, value in values.items():
            buckets_and_parts = parsed.get(family, {})
            seen = buckets_and_parts.get(labels)
            if family in parsed and seen is not None and float(seen) != float(value):
                failures.append(
                    f"prometheus round-trip mismatch for {family}{labels}: "
                    f"{seen} != {value}"
                )
    loaded = json.loads(registry.render_json())
    for want in ("repro_machine_events_total", "repro_tokenizer_bytes_total"):
        if want not in loaded:
            failures.append(f"{want} absent from JSON rendering")
    return failures


def check_compiled_metrics(corpus) -> list[str]:
    """Compiled runs must publish repro_compile_* — and only when asked."""
    failures = []
    query = XMARK_QUERIES[0][0]  # predicate-free: exercises the DFA tier
    plain = XPathStream(query, compiled=True).evaluate_push(corpus.path)

    registry = MetricsRegistry()
    observed = XPathStream(query, compiled=True, metrics=registry)
    ids = observed.evaluate_push(corpus.path)
    if ids != plain:
        failures.append("metrics changed compiled-tier results")
    rendered = registry.render_prometheus()
    for family in (
        "repro_compile_dfa_states",
        "repro_compile_dfa_transitions",
        "repro_compile_dfa_starts_total",
        "repro_compile_dfa_misses_total",
        "repro_compile_hit_ratio",
        "repro_compile_fallbacks_total",
    ):
        if family not in rendered:
            failures.append(f"{family} absent after a compiled run")
    publisher_attr = "_compile_publisher"
    if not hasattr(registry, publisher_attr):
        failures.append("compiled run with metrics never bound a publisher")

    # Zero-cost-when-off: no publisher, no obs imports on the machine.
    bare = XPathStream(query, compiled=True)
    bare.evaluate_push(corpus.path)
    if hasattr(bare.push_handler(), "registry"):
        failures.append("compiled run without metrics bound a registry")
    return failures


def main() -> int:
    corpus = benchmark_corpus()
    print(f"obs smoke: {corpus.name} ({corpus.size_bytes()} bytes)")
    failures: list[str] = []
    print("  structural zero-overhead check")
    failures += check_structurally_free()
    failures += check_throughput(corpus)
    print("  result parity (metrics on == off)")
    failures += check_result_parity(corpus)
    print("  checkpoint metric continuity")
    failures += check_checkpoint_continuity(corpus)
    print("  exposition round-trip")
    failures += check_exposition(corpus)
    print("  compiled-tier metric families")
    failures += check_compiled_metrics(corpus)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("obs smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
