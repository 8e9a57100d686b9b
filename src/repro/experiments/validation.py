"""Paper-fidelity scorecard: measured vs. published, per anchor.

Every quantitative claim the paper makes that our simulation should
reproduce is registered here as an :class:`Anchor` — which report it
lives in, how to find the row, the paper's value and the tolerance.
``repro validate`` runs the reports and prints the scorecard; the test
suite asserts the pass rate stays high. This is the machine-checkable
version of EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..orchestrator import current_orchestrator, use_orchestrator
from .figures import Report, generate

__all__ = ["Anchor", "ANCHORS", "ValidationRow", "run_validation",
           "render_scorecard"]


@dataclass(frozen=True)
class Anchor:
    """One paper number and where to find its measured counterpart."""

    report_key: str
    description: str
    match: tuple[tuple[str, object], ...]  # row selector: (column, value)
    column: str
    paper_value: float
    rel_tolerance: float

    def locate(self, report: Report) -> Optional[float]:
        for row in report.rows:
            if all(row.get(col) == val for col, val in self.match):
                value = row.get(self.column)
                return float(value) if value is not None else None
        return None


def _a(report, description, match, column, paper, tol):
    return Anchor(report, description, tuple(match.items()), column, paper,
                  tol)


ANCHORS: list[Anchor] = [
    # Figure 1 — cost/throughput CV.
    _a("fig01", "DGX-2 CONV throughput", {"setup": "DGX-2"}, "sps",
       413.0, 0.01),
    _a("fig01", "DGX-2 CONV $/1M", {"setup": "DGX-2"}, "usd_per_1m",
       4.24, 0.02),
    _a("fig01", "1xT4 CONV $/1M", {"setup": "1xT4"}, "usd_per_1m",
       0.62, 0.02),
    _a("fig01", "1xA10 CONV $/1M", {"setup": "1xA10"}, "usd_per_1m",
       0.90, 0.02),
    _a("fig01", "8xT4 CONV throughput", {"setup": "A-8"}, "sps",
       261.9, 0.20),
    _a("fig01", "8xA10 CONV throughput", {"setup": "A10-8"}, "sps",
       620.6, 0.20),
    # Figure 2 — Hivemind penalty bounds.
    _a("fig02", "CONV local penalty", {"model": "ConvNextLarge"},
       "local/baseline", 0.48, 0.08),
    _a("fig02", "RN152 local penalty", {"model": "ResNet152"},
       "local/baseline", 0.78, 0.08),
    # Figure 4 — granularity anchors at TBS 32K on 2xA10.
    _a("fig04", "CONV granularity @32K 2xA10",
       {"model": "conv", "tbs": 32768}, "granularity", 21.6, 0.35),
    _a("fig04", "RXLM granularity @32K 2xA10",
       {"model": "rxlm", "tbs": 32768}, "granularity", 4.2, 0.40),
    # Figure 7 — intra-zone.
    _a("fig07", "A-2 CV throughput", {"task": "CV", "experiment": "A-2"},
       "sps", 70.1, 0.15),
    _a("fig07", "A-4 CV throughput", {"task": "CV", "experiment": "A-4"},
       "sps", 140.4, 0.15),
    _a("fig07", "A-8 CV speedup", {"task": "CV", "experiment": "A-8"},
       "speedup", 3.2, 0.20),
    _a("fig07", "A-2 NLP throughput", {"task": "NLP", "experiment": "A-2"},
       "sps", 211.4, 0.15),
    _a("fig07", "A-8 NLP speedup", {"task": "NLP", "experiment": "A-8"},
       "speedup", 2.75, 0.20),
    _a("fig07", "A-8 NLP granularity", {"task": "NLP", "experiment": "A-8"},
       "granularity", 1.15, 0.35),
    # Figure 8 — transatlantic.
    _a("fig08", "B-2 CV throughput", {"task": "CV", "experiment": "B-2"},
       "sps", 68.4, 0.15),
    _a("fig08", "B-2 NLP throughput", {"task": "NLP", "experiment": "B-2"},
       "sps", 177.3, 0.15),
    _a("fig08", "B-4 CV throughput", {"task": "CV", "experiment": "B-4"},
       "sps", 135.8, 0.15),
    # Figure 9 — intercontinental.
    _a("fig09", "C-8 CV speedup", {"task": "CV", "experiment": "C-8"},
       "speedup", 3.02, 0.20),
    _a("fig09", "C-8 NLP granularity", {"task": "NLP", "experiment": "C-8"},
       "granularity", 0.4, 0.60),
    # Table 6 — hybrid vs cloud-only.
    _a("table6", "RTX8000 CONV baseline", {"model": "CONV"}, "RTX8000",
       194.8, 0.01),
    _a("table6", "E-A-8 CONV", {"model": "CONV"}, "E-A-8", 316.8, 0.25),
    _a("table6", "E-B-8 CONV", {"model": "CONV"}, "E-B-8", 283.5, 0.25),
    _a("table6", "E-C-8 CONV", {"model": "CONV"}, "E-C-8", 429.3, 0.35),
    _a("table6", "RTX8000 RXLM baseline", {"model": "RXLM"}, "RTX8000",
       431.8, 0.01),
    _a("table6", "E-A-8 RXLM", {"model": "RXLM"}, "E-A-8", 556.7, 0.25),
    _a("table6", "E-B-8 RXLM", {"model": "RXLM"}, "E-B-8", 330.6, 0.30),
    _a("table6", "8xT4 RXLM", {"model": "RXLM"}, "8xT4", 575.1, 0.15),
    _a("table6", "8xA10 RXLM", {"model": "RXLM"}, "8xA10", 1059.9, 0.15),
    # Figure 16 — Whisper.
    _a("fig16", "WhisperSmall 8xT4 @1024 throughput",
       {"tbs": 1024, "gpus": 8}, "sps", 28.0, 0.35),
    _a("fig16", "WhisperSmall 8xT4 @1024 speedup",
       {"tbs": 1024, "gpus": 8}, "speedup", 2.2, 0.35),
    # Figure 17 — Whisper economics.
    _a("fig17", "A100 Whisper $/1M", {"setup": "A100"}, "usd_per_1m",
       12.19, 0.02),
    _a("fig17", "4xT4 DDP Whisper $/1M", {"setup": "4xT4-DDP"},
       "usd_per_1m", 8.41, 0.02),
]


@dataclass
class ValidationRow:
    anchor: Anchor
    measured: Optional[float]

    @property
    def deviation(self) -> Optional[float]:
        if self.measured is None or self.anchor.paper_value == 0:
            return None
        return (self.measured - self.anchor.paper_value) / abs(
            self.anchor.paper_value
        )

    @property
    def ok(self) -> bool:
        deviation = self.deviation
        return deviation is not None and abs(deviation) <= self.anchor.rel_tolerance


def run_validation(
    epochs: int = 3, report_keys: Optional[list[str]] = None
) -> list[ValidationRow]:
    """Evaluate every anchor; reports are generated once each, under
    one orchestrator, so a point two reports share is simulated once."""
    wanted = {a.report_key for a in ANCHORS}
    if report_keys is not None:
        wanted &= set(report_keys)
    with use_orchestrator(current_orchestrator()):
        reports = {key: generate(key, epochs=epochs)
                   for key in sorted(wanted)}
    rows = []
    for anchor in ANCHORS:
        if anchor.report_key not in reports:
            continue
        measured = anchor.locate(reports[anchor.report_key])
        rows.append(ValidationRow(anchor=anchor, measured=measured))
    return rows


def render_scorecard(rows: list[ValidationRow]) -> str:
    lines = ["== paper-fidelity scorecard =="]
    passed = sum(1 for row in rows if row.ok)
    width = max(len(row.anchor.description) for row in rows)
    for row in rows:
        measured = "missing" if row.measured is None else f"{row.measured:g}"
        deviation = ("-" if row.deviation is None
                     else f"{row.deviation:+.1%}")
        verdict = "ok" if row.ok else "DEVIATES"
        lines.append(
            f"{row.anchor.description:<{width}}  paper "
            f"{row.anchor.paper_value:>8g}  measured {measured:>8}  "
            f"{deviation:>7}  {verdict}"
        )
    lines.append(f"{passed}/{len(rows)} anchors within tolerance")
    return "\n".join(lines)
