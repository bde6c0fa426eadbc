"""Audit-driver tests: orchestration, artifacts, SARIF, registry discipline."""

import json
from pathlib import Path

import pytest

from repro.analysis.audit import AUDIT_SIZES, main, run_audit
from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.registry import FAMILIES, RULES, is_registered, rules_for_family
from repro.analysis.sarif import SARIF_VERSION, to_sarif

#: Probe sections (they build clusters/engines) — skipped in the fast
#: filesystem-focused tests; their behaviour is covered per-family.
PROBE_SECTIONS = ("schedule", "mapping", "cch", "flt", "prc")


@pytest.fixture()
def dirty_tree(tmp_path):
    pkg = tmp_path / "repro" / "bench"
    pkg.mkdir(parents=True)
    (pkg / "dirty.py").write_text(
        "import random\n"                        # REP001
        "for x in {1, 2}:\n    pass\n"           # DET002
        "path.write_text(data)\n"                # PAR002
    )
    return tmp_path


class TestRunAudit:
    def test_ast_sections_catch_seeded_findings(self, dirty_tree):
        result = run_audit(paths=[str(dirty_tree)], skip=PROBE_SECTIONS)
        assert not result.ok()
        assert result.sections["lint"].has("REP001")
        assert result.sections["det"].has("DET002")
        assert result.sections["par"].has("PAR002")

    def test_skip_by_family_prefix(self, dirty_tree):
        result = run_audit(paths=[str(dirty_tree)], skip=PROBE_SECTIONS + ("DET",))
        assert "det" not in result.sections

    def test_ignore_globs_filter_every_section(self, dirty_tree):
        result = run_audit(
            paths=[str(dirty_tree)],
            skip=PROBE_SECTIONS,
            ignore=("REP", "DET002", "PAR002"),
        )
        assert result.ok() and result.diagnostics == []

    def test_clean_tree_is_ok(self, tmp_path):
        (tmp_path / "fine.py").write_text("x = 1\n")
        result = run_audit(paths=[str(tmp_path)], skip=PROBE_SECTIONS)
        assert result.ok()

    def test_probe_sections_pass_on_repo(self):
        result = run_audit(paths=[], skip=("lint", "det", "par"))
        assert [str(d) for d in result.diagnostics] == []
        assert set(result.sections) == set(PROBE_SECTIONS)


class TestArtifacts:
    def test_bad_fault_plan_artifact_flagged(self, tmp_path):
        (tmp_path / "beyond.json").write_text(
            json.dumps({"events": [{"kind": "hca-retrain", "node": 0,
                                    "factor": 2.0, "onset_stage": 10_000}]})
        )
        result = run_audit(
            paths=[],
            artifacts=str(tmp_path),
            skip=("schedule", "mapping", "lint", "det", "par", "cch", "prc"),
        )
        assert result.sections["flt"].has("FLT001")
        assert any("beyond.json" in (d.path or "") for d in result.diagnostics)

    def test_unloadable_artifact_flagged(self, tmp_path):
        (tmp_path / "torn.json").write_text('{"events": [')
        result = run_audit(
            paths=[],
            artifacts=str(tmp_path),
            skip=("schedule", "mapping", "lint", "det", "par", "cch", "prc"),
        )
        assert result.sections["flt"].has("FLT002")

    def test_good_artifact_clean(self, tmp_path):
        from repro.faults.plan import hca_retrain

        plan = hca_retrain(0, factor=2.0, onset_stage=1)
        (tmp_path / "good.json").write_text(json.dumps(plan.to_dict()))
        result = run_audit(
            paths=[],
            artifacts=str(tmp_path),
            skip=("schedule", "mapping", "lint", "det", "par", "cch", "prc"),
        )
        assert result.ok()


class TestReports:
    def test_json_shape(self, dirty_tree):
        payload = run_audit(paths=[str(dirty_tree)], skip=PROBE_SECTIONS).to_json()
        assert payload["ok"] is False and payload["errors"] >= 3
        assert set(payload["sections"]) == {"lint", "det", "par"}
        assert all("code" in d and "message" in d for d in payload["diagnostics"])

    def test_sarif_shape(self, dirty_tree):
        doc = run_audit(paths=[str(dirty_tree)], skip=PROBE_SECTIONS).to_sarif()
        assert doc["version"] == SARIF_VERSION
        run = doc["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert set(RULES) <= rule_ids  # full catalogue published
        results = run["results"]
        assert results
        for res in results:
            assert res["ruleId"] in rule_ids
            loc = res["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uri"].endswith("dirty.py")
            assert loc["region"]["startLine"] >= 1

    def test_sarif_logical_location_for_object_findings(self):
        report = DiagnosticReport()
        report.add("FLT001", "never activates", message_index=2)
        doc = to_sarif(report.diagnostics)
        loc = doc["runs"][0]["results"][0]["locations"][0]
        assert "physicalLocation" not in loc
        assert loc["logicalLocations"][0]["fullyQualifiedName"] == "msg 2"

    def test_format_lists_sections(self, dirty_tree):
        text = run_audit(paths=[str(dirty_tree)], skip=PROBE_SECTIONS).format()
        assert "[lint]" in text and "[det]" in text and "[par]" in text
        assert "audit:" in text


class TestMain:
    def test_exit_one_on_findings_and_writes_reports(self, dirty_tree):
        json_out = dirty_tree / "audit.json"
        sarif_out = dirty_tree / "audit.sarif"
        code = main(
            [str(dirty_tree / "repro"),
             "--skip-family", "schedule", "--skip-family", "mapping",
             "--skip-family", "cch", "--skip-family", "flt",
             "--skip-family", "prc",
             "--json", str(json_out), "--sarif", str(sarif_out)]
        )
        assert code == 1
        assert json.loads(json_out.read_text())["ok"] is False
        assert json.loads(sarif_out.read_text())["version"] == SARIF_VERSION

    def test_exit_zero_on_clean_tree(self, tmp_path):
        (tmp_path / "fine.py").write_text("x = 1\n")
        args = [str(tmp_path)]
        for section in PROBE_SECTIONS:
            args += ["--skip-family", section]
        assert main(args) == 0


class TestRegistryDiscipline:
    def test_every_family_has_rules(self):
        for family in FAMILIES:
            assert rules_for_family(family), family

    def test_rule_codes_match_family_prefix(self):
        for code, rule in RULES.items():
            assert code.startswith(rule.family)

    def test_is_registered(self):
        assert is_registered("DET004") and not is_registered("XXX999")

    def test_unregistered_code_reported(self, monkeypatch):
        bogus = DiagnosticReport()
        bogus.add("ZZZ001", "made up")
        monkeypatch.setattr(
            "repro.analysis.audit._audit_mappings", lambda nodes: bogus
        )
        result = run_audit(
            paths=[], skip=("schedule", "lint", "det", "par", "cch", "flt", "prc")
        )
        assert "registry" in result.sections
        assert result.sections["registry"].has("REP000")

    def test_docs_catalogue_in_sync(self):
        text = Path("docs/static_analysis.md").read_text()
        missing = [code for code in RULES if code not in text]
        assert missing == [], f"codes missing from docs: {missing}"

    def test_audit_sizes_are_modest(self):
        assert max(AUDIT_SIZES) <= 32  # keep the default audit fast
