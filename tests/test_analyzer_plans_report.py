"""Tests for captured plans flowing into the analyzer's view/report."""

import math

import pytest

from repro.core import monitor as monitor_module
from repro.core.analyzer import Analyzer
from repro.core.analyzer.workload_view import (
    view_from_monitor,
    view_from_workload_db,
)
from repro.setups import daemon_setup
from repro.workloads import NrefScale, load_nref


@pytest.fixture
def capturing_setup(monkeypatch):
    monkeypatch.setattr(monitor_module, "PLAN_CAPTURE_MIN_COST", 5.0)
    setup = daemon_setup("db")
    load_nref(setup.engine.database("db"), NrefScale(proteins=200),
              main_pages=2)
    session = setup.engine.connect("db")
    session.execute("select count(*) from protein where tax_id = 1")
    session.execute(
        "select p.name from protein p join organism o "
        "on p.nref_id = o.nref_id")
    return setup, session


class TestPlansInViews:
    def test_monitor_view_carries_plans(self, capturing_setup):
        setup, _session = capturing_setup
        view = view_from_monitor(setup.monitor,
                                 setup.engine.database("db"))
        assert view.plans
        assert any("Scan" in plan for plan in view.plans.values())

    def test_workload_db_view_carries_plans(self, capturing_setup):
        setup, _session = capturing_setup
        setup.daemon.poll_once()
        setup.daemon.flush()
        view = view_from_workload_db(setup.workload_db)
        assert view.plans
        # plans join up with statement profiles
        assert set(view.plans) & set(view.statements)

    def test_report_renders_captured_plans(self, capturing_setup):
        setup, _session = capturing_setup
        setup.daemon.poll_once()
        setup.daemon.flush()
        analyzer = Analyzer(setup.engine.database("db"))
        report = analyzer.analyze_workload_db(setup.workload_db)
        text = report.render_text()
        assert "CAPTURED PLANS" in text
        assert "SeqScan" in text or "Join" in text

    def test_no_plans_section_when_capture_disabled(self, monkeypatch):
        monkeypatch.setattr(monitor_module, "PLAN_CAPTURE_MIN_COST", math.inf)
        setup = daemon_setup("db2")
        load_nref(setup.engine.database("db2"), NrefScale(proteins=100))
        session = setup.engine.connect("db2")
        session.execute("select count(*) from protein")
        setup.daemon.poll_once()
        setup.daemon.flush()
        report = Analyzer(setup.engine.database("db2")) \
            .analyze_workload_db(setup.workload_db)
        assert "CAPTURED PLANS" not in report.render_text()
