"""Tests for the Treebank-style stress corpus and the datasets CLI."""

import pytest

from repro.baselines.navigational import NavigationalDomEngine
from repro.core.processor import XPathStream
from repro.datasets.cli import main as datasets_main
from repro.datasets.stats import collect_stats
from repro.datasets.treebank import treebank_events
from repro.stream.events import StartElement, validate_events


@pytest.fixture(scope="module")
def stats():
    return collect_stats(validate_events(treebank_events(150)))


class TestTreebankCorpus:
    def test_multi_tag_recursion(self, stats):
        """Several tags recurse — deeper stress than Book's one tag."""
        assert {"S", "NP", "VP"} <= stats.recursive_tags

    def test_depth_exceeds_book(self, stats):
        assert stats.max_depth >= 20

    def test_depth_capped_by_config(self, stats):
        assert stats.max_depth <= 36

    def test_pos_vocabulary(self):
        tags = {
            event.tag
            for event in treebank_events(20)
            if isinstance(event, StartElement)
        }
        assert {"corpus", "S", "NP", "VP", "NN", "VB"} <= tags

    def test_deterministic(self):
        assert list(treebank_events(5)) == list(treebank_events(5))

    def test_queries_agree_with_oracle(self):
        events = list(treebank_events(40))
        oracle = NavigationalDomEngine()
        for query in ("//S//NP//NN", "//VP[SBAR]//NN", "//NP[PP]/NN",
                      "//S//S//S", "//NP[not(JJ)]/NN"):
            expected = sorted(oracle.run(query, iter(events)))
            actual = sorted(XPathStream(query).evaluate(iter(events)))
            assert actual == expected, query

    def test_multimatch_pressure(self):
        """A node under k nested S's participates in ~k //S//NN matches —
        the corpus really does generate heavy multi-match load."""
        from repro.core.twigm import TwigM

        events = list(treebank_events(60))
        machine = TwigM("//S[NP]//VP//NN")
        machine.feed(iter(events))
        assert machine.counts.peak_entries > 10
        assert machine.results


class TestDatasetsCli:
    def test_generate_and_stats(self, tmp_path, capsys):
        out = tmp_path / "tb.xml"
        code = datasets_main(
            ["generate", "treebank", "--records", "10", "-o", str(out), "--stats"]
        )
        assert code == 0
        assert out.exists()
        assert "recursive=yes" in capsys.readouterr().out

    @pytest.mark.parametrize("dataset", ["book", "xmark", "protein"])
    def test_generate_each_dataset(self, dataset, tmp_path):
        out = tmp_path / f"{dataset}.xml"
        args = ["generate", dataset, "-o", str(out)]
        if dataset == "xmark":
            args += ["--scale", "0.25"]
        else:
            args += ["--records", "5"]
        assert datasets_main(args) == 0
        assert out.stat().st_size > 0

    def test_seed_override_changes_content(self, tmp_path):
        a = tmp_path / "a.xml"
        b = tmp_path / "b.xml"
        datasets_main(["generate", "book", "--records", "3", "--seed", "1", "-o", str(a)])
        datasets_main(["generate", "book", "--records", "3", "--seed", "2", "-o", str(b)])
        assert a.read_text() != b.read_text()

    def test_stats_subcommand(self, tmp_path, capsys):
        out = tmp_path / "p.xml"
        datasets_main(["generate", "protein", "--records", "4", "-o", str(out)])
        capsys.readouterr()
        assert datasets_main(["stats", str(out)]) == 0
        assert "recursive=no" in capsys.readouterr().out

    def test_missing_file_errors(self, capsys):
        assert datasets_main(["stats", "/nope/missing.xml"]) == 2
        assert "repro.datasets:" in capsys.readouterr().err
