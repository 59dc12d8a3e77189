"""Self-tests of the benchmark (not of the program).

    PYTHONPATH=src python -m pytest perf/tests -q

Sizes are passed through the Python API; the command line has no size
options.
"""

from __future__ import annotations

import json
import random
import re
from types import SimpleNamespace

import pytest

from perf import compare, definition, harness, trace, workloads

TINY = {
    "trivial_flood": workloads.Size(60, 40, 10, 20, 1.0),
    "distinct_joins": workloads.Size(60, 40, 10, 20, 1.0),
    "complex_joins": workloads.Size(200, 12, 2, 6, 1.0),
    "mixed_dml": workloads.Size(60, 40, 20, 20, 1.0),
}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def tiny_run(name: str, trace_run: bool, seed: int = 1) -> dict:
    return harness.run(name, seed, rounds=4, size=TINY[name],
                       trace=trace_run)


# -- BENCHMARK.json --------------------------------------------------------

def test_definition_meets_the_contract():
    doc = definition.load()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["perf"]
    assert [w["name"] for w in doc["workloads"]] == \
        list(workloads.WORKLOAD_NAMES)
    names = [entry["name"] for kind in ("workloads", "end_to_end",
                                        "per_layer") for entry in doc[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    for entry in doc["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    setup = definition.metrics("end_to_end")["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in doc["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_runs_report_exactly_the_defined_metrics(name):
    untraced = tiny_run(name, trace_run=False)
    traced = tiny_run(name, trace_run=True)
    assert set(untraced["metrics"]) == set(definition.metrics("end_to_end"))
    assert set(traced["metrics"]) == set(definition.metrics("per_layer"))
    for result in (untraced, traced):
        assert result["correct"], result["failures"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        json.dumps(result)
    assert all(metric["value"] for metric in untraced["metrics"].values()), \
        "an end-to-end metric may never read 0"
    assert traced["missing_hooks"] == []
    assert all(metric["value"] is not None
               for metric in traced["metrics"].values())
    assert untraced["result_digest"] == traced["result_digest"]


# -- correctness gate ------------------------------------------------------

def test_tampered_result_row_changes_the_digest():
    text = "select id, score from t"
    rows = [(1, 0.1 + 0.2), (2, 7.0)]
    honest = harness.result_digest([(text, SimpleNamespace(rows=rows))])
    reordered = harness.result_digest(
        [(text, SimpleNamespace(rows=rows[::-1]))])
    rounding = harness.result_digest(
        [(text, SimpleNamespace(rows=[(1, 0.3), (2, 7.0)]))])
    tampered = harness.result_digest(
        [(text, SimpleNamespace(rows=[(1, 0.3), (2, 7.5)]))])
    assert honest == reordered == rounding
    assert tampered != honest
    assert harness.digest_mismatches(
        {"original": honest, "monitoring": rounding, "daemon": tampered}) \
        == ["daemon"]


def test_wrong_answer_fails_the_run(monkeypatch):
    real = harness.Arm.execute_all

    def lying(self, statements):
        results = real(self, statements)
        if self.name == "monitoring" and statements:
            text, result = results[-1]
            results[-1] = (text, SimpleNamespace(rows=[("tampered",)]))
        return results

    monkeypatch.setattr(harness.Arm, "execute_all", lying)
    result = tiny_run("trivial_flood", trace_run=False)
    assert not result["correct"] and result["failed"] >= 1
    assert any("digest" in failure for failure in result["failures"])


# -- workload fingerprint --------------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_same_seed_same_stream_other_seed_other_stream(name):
    first = workloads.build(name, 1, 3, TINY[name])
    again = workloads.build(name, 1, 3, TINY[name])
    other = workloads.build(name, 2, 3, TINY[name])
    assert first.stream_sha256 == again.stream_sha256
    assert first.stream_sha256 != other.stream_sha256
    assert [len(chunk) for chunk in first.chunks] == \
        [TINY[name].warmup] + [TINY[name].chunk] * 3


def test_distinct_joins_texts_are_pairwise_distinct():
    size = workloads.SIZES["distinct_joins"]
    texts = workloads.distinct_join_texts(random.Random(5), size.proteins)
    assert len(texts) == len(set(texts)) == workloads.DISTINCT_TEXTS
    assert len({len(text) for text in texts}) == 1
    rounds = workloads.DISTINCT_TEXTS // size.chunk
    stream = [text for chunk in
              workloads.build("distinct_joins", 5, rounds).chunks[1:]
              for text in chunk]
    assert len(set(stream)) == len(stream)


def test_compare_refuses_other_work_and_flags_regressions(tmp_path, capsys):
    def run_file(path, seed, value, stream="s1"):
        runs = [{
            "workload": "trivial_flood", "seed": seed, "trace": 0,
            "failed": 0, "result_digest": "d",
            "workload_fingerprint": {"stream_sha256": stream,
                                     "table_rows": {"protein": 1}},
            "metrics": {"p50_us.original": {"value": value + jitter,
                                            "unit": "us", "samples": 1}},
        } for jitter in (0.0, 0.1, 0.2)]
        path.write_text(json.dumps({"runs": runs}))
        return str(path)

    parent = run_file(tmp_path / "a.json", 1, 100.0)
    assert compare.main([parent, run_file(tmp_path / "b.json", 1, 101.0)]) == 0
    assert " ok " in capsys.readouterr().out
    assert compare.main([parent, run_file(tmp_path / "c.json", 1, 150.0)]) == 1
    assert "WORSE" in capsys.readouterr().out
    assert compare.main([parent, run_file(tmp_path / "d.json", 1, 50.0)]) == 0
    assert "better" in capsys.readouterr().out
    assert compare.main(
        [parent, run_file(tmp_path / "e.json", 1, 100.0, stream="s2")]) == 2
    assert "refusing" in capsys.readouterr().err


# -- spans and hooks -------------------------------------------------------

def test_self_time_is_duration_minus_what_children_cover():
    spans = [
        ("stmt", 0, 100, -1, 0),       # children cover 10..40 and 50..70
        ("parse", 10, 40, 0, 0),       # its child covers 15..25
        ("lex", 15, 25, 1, 0),
        ("execute", 50, 70, 0, 0),
        ("overlap", 60, 80, 0, 0),     # only 70..80 is new cover
        ("poll", 200, 260, -1, -1),    # no children
    ]
    assert trace.self_times(spans) == [40, 20, 10, 20, 20, 60]


def test_tracer_nests_spans_and_tags_statements():
    tracer = trace.Tracer()
    inner = tracer.wrap("inner", lambda: 7)
    outer = tracer.wrap("outer", inner)
    root = tracer.open_statement(tracer.intern("stmt"))
    assert outer() == 7
    tracer.close_statement(root)
    with tracer.span("poll"):
        inner()
    names = [(name, parent, stmt) for name, _s, _e, parent, stmt
             in tracer.spans()]
    assert names == [("stmt", -1, 0), ("outer", 0, 0), ("inner", 1, 0),
                     ("poll", -1, -1), ("inner", 3, -1)]


def _stub_roots():
    class Optimizer:
        def optimize_select(self, statement):
            return f"plan({statement})"

    return {"session": SimpleNamespace(optimizer=Optimizer(),
                                       executor=SimpleNamespace()),
            "engine": SimpleNamespace()}


def test_a_removed_hook_target_is_reported_and_nothing_else_changes():
    hooks = {"optimizer.optimize": ("session", "optimizer.optimize_select"),
             "execution.execute": ("session", "executor.execute"),
             "gone.module": ("no_such_module_anywhere", "function")}
    roots = _stub_roots()
    tracer = trace.Tracer()
    installed = trace.install_hooks(roots, tracer, hooks)
    try:
        assert sorted(installed.missing) == sorted(
            ["execution.execute", "gone.module"]
            + [f"core.sensors.{call}" for call in trace.SENSOR_CALLS])
        assert roots["session"].optimizer.optimize_select("q") == "plan(q)"
        assert [span[0] for span in tracer.spans()] == ["optimizer.optimize"]
    finally:
        installed.restore()
    assert "optimize_select" not in vars(roots["session"].optimizer)
    roots["session"].optimizer.optimize_select("q")
    assert len(tracer.spans()) == 1


def test_a_missing_hook_nulls_only_its_metrics(monkeypatch):
    monkeypatch.setitem(trace.HOOKS, "optimizer.optimize",
                        ("session", "optimizer.no_longer_there"))
    result = tiny_run("distinct_joins", trace_run=True)
    assert result["correct"], result["failures"]
    assert result["missing_hooks"] == ["optimizer.optimize"]
    nulls = {name for name, metric in result["metrics"].items()
             if metric["value"] is None}
    assert nulls == {"optimizer.optimize_us", "optimizer.calls_per_stmt"}


def test_hooks_are_restored_after_a_traced_run():
    import repro.engine.session as session_module
    import repro.sql.parser as parser_module
    before = (session_module.parse_statement, parser_module.tokenize)
    tiny_run("trivial_flood", trace_run=True)
    assert (session_module.parse_statement, parser_module.tokenize) == before
