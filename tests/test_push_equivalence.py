"""Differential suite: the push pipeline must be byte-identical to pull.

The pull pipeline (event objects from a generator) is the reference
implementation; the fused push pipeline (regex scan → direct machine
callbacks) is the optimisation.  Every behaviour — emitted events,
solution ids, recovery diagnostics, resource-limit errors, checkpoint
round-trips — is compared across the two over the seed corpora and a
few hundred seeded random documents.
"""

from __future__ import annotations

import random

import pytest

from repro import MultiQueryEngine, XPathStream, evaluate_push
from repro.errors import ResourceLimitError, XmlSyntaxError
from repro.stream.events import EventCollector
from repro.stream.faults import byte_split_chunks, corrupt_text
from repro.stream.recovery import ResourceLimits
from repro.stream.tokenizer import XmlTokenizer

from tests.conftest import chain_xml

#: Queries covering all three machines, wildcards, value tests and '//'.
QUERIES = (
    "//a//b",
    "/catalog/book/title",
    "//book[price < 30]//title",
    "//section[title]/p",
    "//*[price]",
    "//book[author/last = 'Chen']/title",
)

VOCAB = ("a", "b", "book", "title", "price", "author", "last", "section", "p")


def random_document(seed: int) -> str:
    """A seeded, well-formed document over the query vocabulary."""
    rng = random.Random(seed)
    parts = ["<catalog>"]
    depth = 1

    def emit(budget: int) -> None:
        nonlocal depth
        for _ in range(budget):
            roll = rng.random()
            tag = rng.choice(VOCAB)
            if roll < 0.45 and depth < 12:
                attrs = ""
                if rng.random() < 0.3:
                    attrs = f" id='n{rng.randrange(100)}'"
                parts.append(f"<{tag}{attrs}>")
                depth += 1
                emit(rng.randrange(0, 4))
                depth -= 1
                parts.append(f"</{tag}>")
            elif roll < 0.6:
                parts.append(f"<{tag}/>")
            elif roll < 0.8:
                parts.append(str(rng.randrange(0, 100)))
            elif roll < 0.9:
                parts.append(f"<!-- c{rng.randrange(10)} -->")
            else:
                parts.append(f"text &amp; {rng.randrange(10)}")

    emit(rng.randrange(3, 10))
    parts.append("</catalog>")
    return "".join(parts)


def pull_events(text: str, chunks=None, **options) -> list:
    tokenizer = XmlTokenizer(**options)
    events = []
    for chunk in chunks if chunks is not None else [text]:
        events.extend(tokenizer.feed(chunk))
    events.extend(tokenizer.close())
    return events, tokenizer.diagnostics


def push_events(text: str, chunks=None, **options) -> list:
    tokenizer = XmlTokenizer(**options)
    collector = EventCollector()
    for chunk in chunks if chunks is not None else [text]:
        tokenizer.feed_into(chunk, collector)
    tokenizer.close_into(collector)
    return collector.events, tokenizer.diagnostics


class TestTokenizerEquivalence:
    def test_seed_corpora(self, book_catalog_xml, figure1_xml):
        for text in (book_catalog_xml, figure1_xml, chain_xml(7)):
            assert push_events(text) == pull_events(text)

    @pytest.mark.parametrize("seed", range(200))
    def test_random_documents(self, seed):
        text = random_document(seed)
        assert push_events(text) == pull_events(text)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_chunkings(self, seed):
        text = random_document(seed)
        chunks = byte_split_chunks(text, seed=seed, max_chunk=7)
        assert push_events(text, chunks) == pull_events(text, chunks)

    @pytest.mark.parametrize("policy", ["skip", "repair"])
    @pytest.mark.parametrize("seed", range(30))
    def test_lenient_policies_on_corrupt_input(self, policy, seed):
        text, _faults = corrupt_text(random_document(seed), seed=seed, faults=3)
        chunks = byte_split_chunks(text, seed=seed, max_chunk=11)
        assert push_events(text, chunks, policy=policy) == pull_events(
            text, chunks, policy=policy
        )

    def test_strict_policy_raises_identically(self):
        text = "<root><a><b></a></root>"
        with pytest.raises(XmlSyntaxError) as pull_error:
            pull_events(text)
        with pytest.raises(XmlSyntaxError) as push_error:
            push_events(text)
        assert str(push_error.value) == str(pull_error.value)

    def test_skip_whitespace_option(self):
        text = "<root>\n  <a>x</a>\n  <b/>\n</root>"
        assert push_events(text, skip_whitespace=True) == pull_events(
            text, skip_whitespace=True
        )
        assert push_events(text, skip_whitespace=False) == pull_events(
            text, skip_whitespace=False
        )


class TestEngineEquivalence:
    @pytest.mark.parametrize("query", QUERIES)
    def test_seed_corpus(self, query, book_catalog_xml):
        assert evaluate_push(query, book_catalog_xml) == XPathStream(query).evaluate(
            book_catalog_xml
        )

    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("seed", range(25))
    def test_random_documents(self, query, seed):
        text = random_document(seed)
        assert evaluate_push(query, text) == XPathStream(query).evaluate(text)

    @pytest.mark.parametrize("engine", ["pathm", "twigm"])
    def test_forced_engines(self, engine, figure1_xml):
        pull = XPathStream("//a//b", engine=engine).evaluate(figure1_xml)
        push = XPathStream("//a//b", engine=engine).evaluate_push(figure1_xml)
        assert push == pull

    def test_on_match_streaming_order(self, book_catalog_xml):
        pull_order, push_order = [], []
        XPathStream("//title", on_match=pull_order.append).evaluate(book_catalog_xml)
        XPathStream("//title", on_match=push_order.append).evaluate_push(
            book_catalog_xml
        )
        assert push_order == pull_order and push_order

    def test_file_source(self, tmp_path, book_catalog_xml):
        path = tmp_path / "catalog.xml"
        path.write_text(book_catalog_xml, encoding="utf-8")
        assert evaluate_push("//book//title", path) == XPathStream(
            "//book//title"
        ).evaluate(str(path))

    def test_mixed_pull_push_chunks(self, book_catalog_xml):
        expected = XPathStream("//book//title").evaluate(book_catalog_xml)
        stream = XPathStream("//book//title")
        for index, chunk in enumerate(
            byte_split_chunks(book_catalog_xml, seed=5, max_chunk=9)
        ):
            if index % 2:
                stream.feed_text(chunk)
            else:
                stream.feed_text_push(chunk)
        assert stream.close() == expected


class TestLimitsParity:
    def _limited(self, push: bool, text: str, limits: ResourceLimits):
        stream = XPathStream("//a//b", limits=limits)
        if push:
            return stream.evaluate_push(text)
        return stream.evaluate(text)

    @pytest.mark.parametrize(
        "limits",
        [
            ResourceLimits(max_depth=5),
            ResourceLimits(max_total_events=10),
            ResourceLimits(max_attributes=1),
            ResourceLimits(max_attribute_length=3),
        ],
    )
    def test_limit_errors_identical(self, limits, figure1_xml):
        text = figure1_xml.replace("<a>", "<a x='long value' y='2'>", 1)
        pull_error = push_error = None
        try:
            pull_result = self._limited(False, text, limits)
        except ResourceLimitError as exc:
            pull_error = str(exc)
        try:
            push_result = self._limited(True, text, limits)
        except ResourceLimitError as exc:
            push_error = str(exc)
        assert push_error == pull_error
        if pull_error is None:
            assert push_result == pull_result

    def test_generous_limits_do_not_change_results(self, book_catalog_xml):
        limits = ResourceLimits(max_depth=100, max_total_events=100_000)
        assert self._limited(True, book_catalog_xml, limits) == self._limited(
            False, book_catalog_xml, limits
        )


class TestCheckpointMidPush:
    def test_snapshot_restore_between_push_chunks(self, book_catalog_xml):
        expected = XPathStream("//book[price < 30]//title").evaluate(book_catalog_xml)
        chunks = byte_split_chunks(book_catalog_xml, seed=9, max_chunk=13)
        stream = XPathStream("//book[price < 30]//title")
        half = len(chunks) // 2
        for chunk in chunks[:half]:
            stream.feed_text_push(chunk)
        resumed = XPathStream.restore(stream.snapshot())
        for chunk in chunks[half:]:
            resumed.feed_text_push(chunk)
        assert resumed.close() == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_snapshot_every_boundary_random_docs(self, seed):
        text = random_document(seed)
        expected = XPathStream("//a//b").evaluate(text)
        chunks = byte_split_chunks(text, seed=seed, max_chunk=31)
        for cut in range(len(chunks) + 1):
            stream = XPathStream("//a//b")
            for chunk in chunks[:cut]:
                stream.feed_text_push(chunk)
            resumed = XPathStream.restore(stream.snapshot())
            for chunk in chunks[cut:]:
                resumed.feed_text_push(chunk)
            assert resumed.close() == expected, f"cut at chunk {cut}"


class TestMultiQueryAndFilterParity:
    QUERY_SET = {
        "titles": "//title",
        "cheap": "//book[price < 30]/title",
        "chains": "//a//b",
        "wild": "//book//*",
    }

    def test_multiq_engine(self, book_catalog_xml):
        pull = MultiQueryEngine(self.QUERY_SET)
        pull.feed_text(book_catalog_xml)
        pull_results = pull.close()
        push = MultiQueryEngine(self.QUERY_SET)
        push_results = push.evaluate_push(book_catalog_xml)
        assert push_results == pull_results
        assert push.dispatch_stats().events == pull.dispatch_stats().events

    def test_filter_set(self, book_catalog_xml):
        # A path-only set runs entirely on the shared path tier, and its
        # push pass goes through the turbo scanner.
        paths = {name: query for name, query in self.QUERY_SET.items()
                 if "[" not in query}
        pull = MultiQueryEngine(paths).evaluate(book_catalog_xml)
        push = MultiQueryEngine(paths)
        assert push.as_handler().turbo_scan_safe
        assert push.evaluate_push(book_catalog_xml) == pull

    @pytest.mark.parametrize("seed", range(10))
    def test_multiq_random_documents(self, seed):
        text = random_document(seed)
        pull = MultiQueryEngine(self.QUERY_SET)
        pull.feed_text(text)
        push = MultiQueryEngine(self.QUERY_SET)
        push_results = push.evaluate_push(text)
        assert push_results == pull.close()
