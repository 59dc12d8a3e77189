"""Tests for the integer-domain phase: the lattice algebra, producer
and name seeding, modulo/floordiv conversions, tuple unpacking through
``decode_seq``, the ``domain(...)``/``mixeddomain(<witness>)``
annotation grammar, the DOM001–DOM004 rules over the fixture pair,
the domain-map artifact and its CLI, coverage of the sharded-monitor
surfaces, and ``--changed`` invalidation for domain-directive edits."""

from __future__ import annotations

import json
from pathlib import Path

from repro.staticcheck import (
    StaticcheckConfig,
    analyze_project,
    build_project,
    compute_domain_map,
)
from repro.staticcheck.cli import main as lint_main
from repro.staticcheck.domains import (
    UNKNOWN_DOM,
    compatible,
    compute_domains,
    join,
    scalar,
)
from repro.staticcheck.driver import ModuleContext
from repro.staticcheck.lockflow import DeepContext, LockFlow

FIXTURES = Path(__file__).parent / "staticcheck_fixtures"

DOM_CONFIG = StaticcheckConfig(
    domain_scope_paths=("*domains_violation.py",
                        "*domains_clean.py",
                        "*demo_dom.py"),
)


def dom_findings(path: Path, config: StaticcheckConfig = DOM_CONFIG):
    findings = analyze_project([path], config)
    return [f for f in findings if f.rule_id.startswith("DOM")]


def domains_of(*sources: tuple[str, str],
               config: StaticcheckConfig = DOM_CONFIG):
    modules = [ModuleContext.from_source(path, text)
               for path, text in sources]
    project = build_project(modules)
    deep = DeepContext(project=project,
                       lockflow=LockFlow(project, config).analyze())
    return project, compute_domains(deep, config)


class TestLattice:
    def test_join_unknown_is_the_identity(self):
        assert join(UNKNOWN_DOM, ("shard_id",)) == ("shard_id",)
        assert join(("src_seq",), UNKNOWN_DOM) == ("src_seq",)

    def test_join_of_conflicting_scalars_is_unknown(self):
        assert join(("local_seq",), ("src_seq",)) == UNKNOWN_DOM
        assert join(("session_id",), ("shard_id",)) == UNKNOWN_DOM

    def test_join_tuples_element_wise(self):
        assert join(("local_seq", "unknown"),
                    ("unknown", "shard_id")) == ("local_seq", "shard_id")

    def test_join_of_mismatched_arity_is_unknown(self):
        assert join(("local_seq", "shard_id"),
                    ("encoded_seq",)) == UNKNOWN_DOM

    def test_compatible_pairs(self):
        assert compatible("encoded_seq", "src_seq")
        assert compatible("shard_id", "shard_index")
        assert compatible("unknown", "local_seq")
        assert not compatible("local_seq", "src_seq")
        assert not compatible("session_id", "shard_id")

    def test_scalar_of_tuple_valued_dom_is_unknown(self):
        assert scalar(("shard_id",)) == "shard_id"
        assert scalar(("local_seq", "shard_id")) == "unknown"


DEMO = """
from repro.core.sharding import decode_seq, encode_seq


class Router:
    def __init__(self, shard_count):
        self.shard_count = shard_count

    def make(self, local_seq, shard_id):
        return encode_seq(local_seq, shard_id)

    def index_of(self, session_id):
        return session_id % self.shard_count

    def shard_of(self, merged_seq):
        return merged_seq % self.shard_count

    def local_of(self, merged_seq):
        return merged_seq // self.shard_count

    def rehydrate(self, merged_seq):
        local_seq, shard_id = decode_seq(merged_seq)
        return shard_id
"""


class TestSeeding:
    def test_producer_call_seeds_the_return(self):
        _, result = domains_of(("src/repro/demo_dom.py", DEMO))
        assert result.return_domain("repro.demo_dom.Router.make") == \
            ("encoded_seq",)

    def test_params_pick_up_name_seeds(self):
        _, result = domains_of(("src/repro/demo_dom.py", DEMO))
        qualname = "repro.demo_dom.Router.make"
        assert result.param_domain(qualname, "local_seq") == "local_seq"
        assert result.param_domain(qualname, "shard_id") == "shard_id"

    def test_session_modulo_count_is_a_shard_index(self):
        _, result = domains_of(("src/repro/demo_dom.py", DEMO))
        assert result.return_domain("repro.demo_dom.Router.index_of") == \
            ("shard_index",)

    def test_encoded_modulo_count_is_a_shard_id(self):
        _, result = domains_of(("src/repro/demo_dom.py", DEMO))
        assert result.return_domain("repro.demo_dom.Router.shard_of") == \
            ("shard_id",)

    def test_encoded_floordiv_is_a_local_seq(self):
        _, result = domains_of(("src/repro/demo_dom.py", DEMO))
        assert result.return_domain("repro.demo_dom.Router.local_of") == \
            ("local_seq",)

    def test_decode_seq_unpacks_into_both_domains(self):
        _, result = domains_of(("src/repro/demo_dom.py", DEMO))
        assert result.return_domain("repro.demo_dom.Router.rehydrate") == \
            ("shard_id",)


ANNOTATED = """
class Ledger:
    def __init__(self):
        self.high = 0  # staticcheck: domain(encoded_seq)

    # staticcheck: domain(seqs=src_seq)
    def persist(self, seqs):
        return len(seqs)

    # staticcheck: domain(encoded_seq)
    def merged(self, value):
        return value

    def forced(self, row):
        seq = row[3]  # staticcheck: domain(src_seq)
        return seq
"""


class TestAnnotations:
    def test_declared_param_domain(self):
        _, result = domains_of(("src/repro/demo_dom.py", ANNOTATED))
        assert result.param_domain(
            "repro.demo_dom.Ledger.persist", "seqs") == "src_seq"

    def test_declared_return_domain_wins(self):
        _, result = domains_of(("src/repro/demo_dom.py", ANNOTATED))
        assert result.return_domain("repro.demo_dom.Ledger.merged") == \
            ("encoded_seq",)

    def test_field_annotation_types_the_attribute(self):
        _, result = domains_of(("src/repro/demo_dom.py", ANNOTATED))
        assert result.fields.get("repro.demo_dom.Ledger.high") == \
            ("encoded_seq",)

    def test_forced_local_annotation_types_the_return(self):
        _, result = domains_of(("src/repro/demo_dom.py", ANNOTATED))
        assert result.return_domain("repro.demo_dom.Ledger.forced") == \
            ("src_seq",)

    def test_invalid_domain_name_becomes_a_directive_site(self):
        source = ("# staticcheck: domain(bogus_domain)\n"
                  "def broken(value):\n"
                  "    return value\n")
        _, result = domains_of(("src/repro/demo_dom.py", source))
        kinds = {site.kind for site in result.sites}
        assert "directive" in kinds


class TestFixturePair:
    def test_violation_fixture_fires_every_rule_at_pinned_lines(self):
        findings = dom_findings(FIXTURES / "domains_violation.py")
        assert {(f.rule_id, f.line) for f in findings} == {
            ("DOM001", 29), ("DOM001", 33), ("DOM002", 36),
            ("DOM003", 39), ("DOM004", 41),
        }

    def test_findings_carry_evidence_traces(self):
        findings = dom_findings(FIXTURES / "domains_violation.py")
        dom002 = next(f for f in findings if f.rule_id == "DOM002")
        assert "local_seq" in dom002.message
        assert "src_seq" in dom002.message

    def test_clean_fixture_is_silent(self):
        assert dom_findings(FIXTURES / "domains_clean.py") == []

    def test_bare_mixeddomain_does_not_waive(self, tmp_path):
        target = tmp_path / "demo_dom.py"
        target.write_text(
            "# staticcheck: domain(other_seq=encoded_seq)\n"
            "def high_water(merged_seq, other_seq):\n"
            "    # staticcheck: mixeddomain\n"
            "    return max(merged_seq, other_seq)\n")
        findings = dom_findings(target)
        assert [f.rule_id for f in findings] == ["DOM001"]

    def test_witnessed_mixeddomain_waives_dom001(self, tmp_path):
        target = tmp_path / "demo_dom.py"
        target.write_text(
            "# staticcheck: domain(other_seq=encoded_seq)\n"
            "def high_water(merged_seq, other_seq):\n"
            "    # staticcheck: mixeddomain(audit-report-only)\n"
            "    return max(merged_seq, other_seq)\n")
        assert dom_findings(target) == []

    def test_dom004_cannot_be_waived(self, tmp_path):
        target = tmp_path / "demo_dom.py"
        target.write_text(
            "# staticcheck: mixeddomain(no-dice)\n"
            "# staticcheck: domain(encoded_seq)\n"
            "def declared_wrong(local_seq):\n"
            "    return local_seq\n")
        findings = dom_findings(target)
        assert [f.rule_id for f in findings] == ["DOM004"]


class TestDomainMap:
    def test_map_covers_the_sharded_monitor_surfaces(self):
        result = compute_domain_map(paths=["src/repro"])
        assert result.param_domain(
            "repro.core.sharding.encode_seq", "local_seq") == "local_seq"
        assert result.param_domain(
            "repro.core.sharding.encode_seq", "shard_id") == "shard_id"
        assert result.return_domain("repro.core.sharding.encode_seq") == \
            ("encoded_seq",)
        assert result.return_domain("repro.core.sharding.decode_seq") == \
            ("local_seq", "shard_id")
        assert result.return_domain("repro.core.sharding.shard_of_seq") \
            == ("shard_id",)

    def test_every_session_and_seq_param_resolves(self):
        # The PR-8 surfaces: any parameter named after a domain on the
        # sharded monitor, the daemon's collector and the workload DB
        # must type to something other than unknown.
        result = compute_domain_map(paths=["src/repro"])
        for qualname, param, expected in (
            ("repro.core.sharding.ShardedMonitor.shard_id_for",
             "session_id", "session_id"),
            ("repro.core.sharding.ShardedMonitor.shard_for",
             "session_id", "session_id"),
            ("repro.core.sharding.ShardedMonitorSensors.for_session",
             "session_id", "session_id"),
            ("repro.core.daemon.StorageDaemon._collect",
             "high_water", "encoded_seq"),
            ("repro.core.workload_db.WorkloadDatabase.append",
             "seqs", "src_seq"),
        ):
            assert result.param_domain(qualname, param) == expected, \
                (qualname, param)
        assert result.return_domain(
            "repro.core.sharding.ShardedMonitor.shard_id_for") == \
            ("shard_index",)
        assert result.return_domain(
            "repro.core.workload_db.WorkloadDatabase"
            ".load_high_water_vector") == ("src_seq",)

    def test_the_one_real_mix_site_is_the_waived_high_water(self):
        # The scalar max in WorkloadDatabase.load_high_water is the
        # documented DOM001 finding on the real tree; it is waived
        # in-source with mixeddomain(whole-table-inspection-only), so
        # the site exists in the map but the lint stays clean.
        result = compute_domain_map(paths=["src/repro"])
        orders = [site for site in result.sites if site.kind == "order"]
        assert len(orders) == 1
        assert orders[0].path.endswith("workload_db.py")
        source = Path(orders[0].path).read_text().splitlines()
        assert "mixeddomain(whole-table-inspection-only)" in \
            source[orders[0].line - 1]

    def test_artifact_schema(self):
        result = compute_domain_map(
            paths=[str(FIXTURES / "domains_clean.py")])
        payload = result.to_json()
        assert payload["version"] == 1
        assert payload["lattice"][0] == "local_seq"
        assert "repro.core.sharding.encode_seq=encoded_seq" in \
            {f"{q}={d}" for q, d in payload["seeds"]["returns"].items()}
        assert payload["seeds"]["names"]["session_id"] == "session_id"


class TestCli:
    def test_domain_map_to_stdout(self, capsys):
        code = lint_main(
            ["--domain-map", str(FIXTURES / "domains_violation.py")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 6
        assert "domains_violation.ShardTable.persist" in \
            payload["domains"]["functions"]

    def test_domain_map_to_file(self, tmp_path, capsys):
        target = tmp_path / "map.json"
        code = lint_main([str(FIXTURES / "domains_clean.py"),
                          "--domain-map", str(target)])
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["domains"]["lattice"]
        assert "written to" in capsys.readouterr().out

    def test_list_rules_documents_dom_rules_and_grammar(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DOM001", "DOM002", "DOM003", "DOM004"):
            assert rule_id in out
        assert "mixeddomain" in out
        assert "domain(" in out


class TestChangedInvalidation:
    def test_domain_directive_edit_seeds_forward_dependents(
            self, tmp_path, monkeypatch):
        """Editing only a ``domain(...)`` annotation must re-analyze
        the files the annotated module calls into: domains flow caller
        -> callee, so a callee's argflow verdict can change while its
        own content does not."""
        src = tmp_path / "proj"
        src.mkdir()
        caller = src / "caller.py"
        callee = src / "callee.py"
        caller.write_text(
            "from callee import persist\n"
            "# staticcheck: domain(encoded_seq)\n"
            "def publish(merged_seq):\n"
            "    return persist(merged_seq)\n")
        callee.write_text("def persist(seq):\n"
                          "    return seq\n")
        import repro.staticcheck.cli as cli_module
        monkeypatch.setattr(cli_module, "git_changed_files",
                            lambda: {str(caller)})
        from repro.staticcheck.cli import _changed_targets
        targets = _changed_targets([str(src)])
        assert str(caller) in targets
        assert str(callee) in targets

    def test_mixeddomain_edit_seeds_forward_dependents(
            self, tmp_path, monkeypatch):
        src = tmp_path / "proj"
        src.mkdir()
        caller = src / "caller.py"
        callee = src / "callee.py"
        caller.write_text(
            "from callee import persist\n"
            "def publish(merged_seq, other_seq):\n"
            "    # staticcheck: mixeddomain(audit-only)\n"
            "    return persist(max(merged_seq, other_seq))\n")
        callee.write_text("def persist(seq):\n"
                          "    return seq\n")
        import repro.staticcheck.cli as cli_module
        monkeypatch.setattr(cli_module, "git_changed_files",
                            lambda: {str(caller)})
        from repro.staticcheck.cli import _changed_targets
        targets = _changed_targets([str(src)])
        assert str(callee) in targets

    def test_plain_edit_does_not_drag_callees_in(
            self, tmp_path, monkeypatch):
        src = tmp_path / "proj"
        src.mkdir()
        caller = src / "caller.py"
        callee = src / "callee.py"
        caller.write_text("from callee import persist\n"
                          "def publish(value):\n"
                          "    return persist(value)\n")
        callee.write_text("def persist(seq):\n"
                          "    return seq\n")
        import repro.staticcheck.cli as cli_module
        monkeypatch.setattr(cli_module, "git_changed_files",
                            lambda: {str(caller)})
        from repro.staticcheck.cli import _changed_targets
        targets = _changed_targets([str(src)])
        assert str(caller) in targets
        assert str(callee) not in targets
