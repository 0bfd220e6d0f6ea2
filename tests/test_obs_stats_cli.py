"""The ``python -m repro stats`` front end and its runner."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.obs.stats import run_stats

XML = (
    "<site><regions>"
    "<item><name>a</name><quantity>1</quantity></item>"
    "<item><name>b</name><quantity>3</quantity></item>"
    "</regions></site>"
)


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text(XML, encoding="utf-8")
    return path


def test_run_stats_populates_every_family(corpus):
    run = run_stats("//item/name", corpus, chunk_size=16)
    snapshot = run.registry.snapshot()
    for family in (
        "repro_tokenizer_bytes_total",
        "repro_tokenizer_events_total",
        "repro_compile_dfa_starts_total",  # a path query: the DFA tier
        "repro_multiq_events_total",
        "repro_multiq_dispatched_total",
        "repro_multiq_router_hit_ratio",
        "repro_multiq_emitted_total",
        "repro_stats_chunks_total",
    ):
        assert family in snapshot, family
    assert run.results == {"query": [4, 7]}
    assert run.chunks > 1


def test_run_stats_traces_every_stage(corpus):
    run = run_stats("//item/name", corpus, chunk_size=16)
    names = {event["name"] for event in run.tracer.events}
    assert {"chunk", "parse", "dispatch", "emit", "close"} <= names
    assert not run.tracer.open_spans
    assert len(run.tracer.durations("chunk")) == run.chunks


def test_run_stats_results_match_unobserved(corpus):
    from repro import evaluate

    run = run_stats("//item[quantity < 2]/name", corpus)
    assert run.results["query"] == evaluate("//item[quantity < 2]/name", corpus)


def test_cli_prometheus_output(corpus, capsys):
    assert cli_main(["stats", "//item/name", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert "# TYPE repro_compile_dfa_starts_total counter" in out
    assert 'repro_multiq_emitted_total{query="query"} 2' in out


def test_cli_json_output(corpus, capsys):
    assert cli_main(["stats", "//item/name", str(corpus),
                     "--format", "json"]) == 0
    loaded = json.loads(capsys.readouterr().out)
    assert loaded["repro_multiq_queries"]["values"][0]["value"] == 1


def test_cli_trace_output(corpus, capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    assert cli_main(["stats", "//item/name", str(corpus),
                     "--trace", str(trace_path)]) == 0
    payload = json.loads(trace_path.read_text())
    assert payload["traceEvents"]
    for event in payload["traceEvents"]:
        assert set(event) >= {"name", "cat", "ph", "ts", "pid", "tid"}


def test_cli_queries_file(corpus, capsys, tmp_path):
    queries = tmp_path / "queries.tsv"
    queries.write_text("names\t//item/name\ncheap\t//item[quantity < 2]/name\n",
                       encoding="utf-8")
    assert cli_main(["stats", "--queries", str(queries), str(corpus)]) == 0
    out = capsys.readouterr().out
    assert 'repro_multiq_emitted_total{query="names"} 2' in out
    assert 'repro_multiq_emitted_total{query="cheap"} 1' in out


def test_cli_bad_query_is_reported(corpus, capsys):
    assert cli_main(["stats", "//item[", str(corpus)]) == 2
    assert "twigm:" in capsys.readouterr().err
