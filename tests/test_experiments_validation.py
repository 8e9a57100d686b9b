"""Tests for the paper-fidelity scorecard."""

import pytest

from repro.experiments import (
    ANCHORS,
    ValidationRow,
    generate,
    render_scorecard,
    run_validation,
    write_markdown_report,
)
from repro.experiments.validation import Anchor
from repro.orchestrator import Orchestrator


class TestAnchorCatalog:
    def test_anchor_count_is_substantial(self):
        assert len(ANCHORS) >= 30

    def test_anchors_reference_known_reports(self):
        from repro.experiments import report_keys

        known = set(report_keys())
        assert {a.report_key for a in ANCHORS} <= known

    def test_anchor_locate(self):
        from repro.experiments import Report

        anchor = Anchor("x", "d", (("setup", "a"),), "sps", 1.0, 0.1)
        report = Report("x", "t", rows=[{"setup": "a", "sps": 42.0},
                                        {"setup": "b", "sps": 7.0}])
        assert anchor.locate(report) == 42.0
        missing = Anchor("x", "d", (("setup", "zz"),), "sps", 1.0, 0.1)
        assert missing.locate(report) is None


class TestValidationRow:
    def _row(self, paper, measured, tol=0.1):
        anchor = Anchor("x", "d", (), "c", paper, tol)
        return ValidationRow(anchor=anchor, measured=measured)

    def test_deviation_and_ok(self):
        row = self._row(100.0, 105.0)
        assert row.deviation == pytest.approx(0.05)
        assert row.ok

    def test_out_of_tolerance(self):
        row = self._row(100.0, 150.0)
        assert not row.ok

    def test_missing_measured_fails(self):
        row = self._row(100.0, None)
        assert row.deviation is None
        assert not row.ok


class TestScorecard:
    def test_fast_subset_passes(self):
        """The cheapest reports' anchors must all hold."""
        rows = run_validation(epochs=2, report_keys=["fig01", "fig07"])
        assert rows, "no anchors evaluated"
        assert all(row.ok for row in rows), render_scorecard(rows)

    def test_render_scorecard(self):
        rows = run_validation(epochs=2, report_keys=["fig01"])
        text = render_scorecard(rows)
        assert "paper" in text
        assert "anchors within tolerance" in text
        assert "DGX-2" in text


class TestSharedRuns:
    """Reports regenerated together simulate each distinct point once."""

    @pytest.fixture
    def simulations(self, monkeypatch):
        import repro.experiments.runner as runner

        calls = []
        original = runner.run_hivemind

        def counted(config):
            calls.append(config)
            return original(config)

        monkeypatch.setattr(runner, "run_hivemind", counted)
        return calls

    @staticmethod
    def _distinct(keys, simulations):
        orchestrator = Orchestrator()
        for key in keys:
            generate(key, epochs=2, orchestrator=orchestrator)
        count = len(simulations)
        simulations.clear()
        return count

    def test_validation_simulates_each_point_once(self, simulations):
        keys = ["fig01", "fig07"]
        distinct = self._distinct(keys, simulations)
        run_validation(epochs=2, report_keys=keys)
        assert len(simulations) == distinct

    def test_markdown_report_simulates_each_point_once(self, simulations,
                                                       tmp_path):
        keys = ["fig10", "fig11"]
        distinct = self._distinct(keys, simulations)
        write_markdown_report(tmp_path / "r.md", keys=keys, epochs=2,
                              include_scorecard=False)
        assert len(simulations) == distinct


def test_cli_formats(tmp_path, capsys):
    from repro.cli import main

    assert main(["run", "table1", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("item,GC,AWS,Azure")

    assert main(["run", "table1", "--format", "json"]) == 0
    import json

    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["key"] == "table1"
    assert len(payload["rows"]) == 9

    target = tmp_path / "out.csv"
    assert main(["run", "table1", "--format", "csv",
                 "--output", str(target)]) == 0
    assert target.exists()
    assert "T4 Spot" in target.read_text()


class TestMarkdownReport:
    def test_write_markdown_report(self, tmp_path):
        from repro.experiments import write_markdown_report

        path = write_markdown_report(tmp_path / "r.md",
                                     keys=["table1", "table2"],
                                     epochs=2, include_scorecard=False)
        text = path.read_text()
        assert "# Simulated evaluation report" in text
        assert "## table1" in text
        assert "| T4 Spot ($/h) | 0.18 |" in text
        assert "scorecard" not in text

    def test_unknown_report_key_rejected(self, tmp_path):
        from repro.experiments import write_markdown_report

        import pytest as _pytest

        with _pytest.raises(KeyError):
            write_markdown_report(tmp_path / "r.md", keys=["fig99"])

    def test_report_to_markdown_handles_none_cells(self):
        from repro.experiments import Report, report_to_markdown

        text = report_to_markdown(
            Report("x", "t", rows=[{"a": None, "b": 1.5}], notes=["n"])
        )
        assert "—" in text
        assert "> n" in text


def test_cli_report(tmp_path, capsys):
    from repro.cli import main

    target = tmp_path / "results.md"
    assert main(["report", "--output", str(target),
                 "--reports", "table1", "--no-scorecard"]) == 0
    assert target.exists()
