"""Ablation — multi-tag deep recursion (Treebank-style corpus).

The Book corpus recurses through one tag; parse trees recurse through
five at once and run deeper.  This is where engines that enumerate or
explicitly store pattern matches hurt most, and where TwigM's bounds
must still hold: stack population ≤ depth × |Q|, work within the
Theorem 4.4 envelope.
"""

import pytest

from benchmarks._grid import ENGINES
from repro.datasets.stats import collect_stats
from repro.datasets.treebank import treebank_events
from repro.core.twigm import TwigM

QUERIES = {
    "path": "//S//VP//NN",
    "pred": "//NP[PP]//NN",
    "twig": "//S[NP[JJ]]//VP[SBAR]//NN",
}


@pytest.fixture(scope="module")
def corpus_events():
    return list(treebank_events(250))


@pytest.fixture(scope="module")
def corpus_stats(corpus_events):
    return collect_stats(iter(corpus_events))


@pytest.mark.benchmark(group="ablation-treebank")
@pytest.mark.parametrize("kind", list(QUERIES))
@pytest.mark.parametrize("engine_name", ["TwigM", "Galax*", "XMLTaskForce*"])
def test_treebank_cell(benchmark, kind, engine_name, corpus_events):
    query = QUERIES[kind]
    engine = ENGINES[engine_name]
    if not engine.supports(query):
        pytest.skip(f"{engine_name} does not support {query!r}")
    results = benchmark(lambda: engine.run(query, iter(corpus_events)))
    benchmark.extra_info.update(query=query, results=len(results))
    reference = ENGINES["XMLTaskForce*"].run(query, iter(corpus_events))
    assert sorted(results) == sorted(reference)


@pytest.mark.benchmark(group="ablation-treebank")
def test_treebank_stack_bound(benchmark, corpus_events, corpus_stats):
    """Stack population stays ≤ depth × |Q| even under five-way recursion."""
    from repro.xpath.querytree import compile_query

    query = QUERIES["twig"]

    def run():
        machine = TwigM(query)
        machine.feed(iter(corpus_events))
        return machine

    machine = benchmark(run)
    bound = corpus_stats.max_depth * compile_query(query).size()
    benchmark.extra_info.update(
        peak_entries=machine.counts.peak_entries,
        bound=bound,
        depth=corpus_stats.max_depth,
    )
    assert machine.counts.peak_entries <= bound
