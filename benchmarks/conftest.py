"""Shared infrastructure for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures.  The
``report`` fixture collects the reproduced rows and prints them
(visible with ``pytest -s``).  With ``REPRO_BENCH_WRITE=1`` set it also
writes them to ``benchmarks/results/<test>.txt`` so the artifacts
survive the run; without it a test run leaves the tracked result files
untouched.  Benchmarks that publish machine-readable numbers call
:meth:`Report.metric`; the metrics land next to the text report as
``BENCH_<group>.json`` so CI (and trend tooling) can diff them without
parsing tables.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


class Report:
    """Accumulates the reproduced table for one benchmark."""

    def __init__(self, name: str, metrics_group: "str | None" = None) -> None:
        self.name = name
        self.lines: list[str] = []
        self.metrics_group = metrics_group
        self.metrics: dict[str, object] = {}

    def line(self, text: str = "") -> None:
        self.lines.append(text)
        print(text)

    def table(self, header: str, rows: list[str]) -> None:
        self.line(header)
        self.line("-" * len(header))
        for row in rows:
            self.line(row)

    def metric(self, name: str, value: object) -> None:
        """Record one machine-readable number for ``BENCH_<group>.json``."""
        self.metrics[name] = value

    def flush(self) -> None:
        """Write the report and metrics under ``REPRO_BENCH_WRITE=1``."""
        if os.environ.get("REPRO_BENCH_WRITE") != "1":
            return
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{self.name}.txt"
        path.write_text("\n".join(self.lines) + "\n", encoding="utf-8")
        if self.metrics and self.metrics_group is not None:
            metrics_path = RESULTS_DIR / f"BENCH_{self.metrics_group}.json"
            merged: dict[str, object] = {}
            if metrics_path.exists():
                merged = json.loads(metrics_path.read_text(encoding="utf-8"))
            # Replace this benchmark's entry wholesale: stale keys from a
            # renamed metric must not survive a re-run.  Other benchmarks
            # sharing the group keep their entries.
            merged[self.name] = dict(self.metrics)
            metrics_path.write_text(
                json.dumps(merged, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )


@pytest.fixture
def report(request):
    group = getattr(request.node.get_closest_marker("metrics") or None, "args", None)
    rep = Report(
        request.node.name.replace("/", "_"),
        metrics_group=group[0] if group else None,
    )
    rep.line(f"== {request.node.nodeid} ==")
    yield rep
    rep.flush()


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "metrics(group): flush Report.metric() values to BENCH_<group>.json",
    )
