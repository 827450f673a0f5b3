"""Framework behavior: fixtures, suppression, selection, ordering."""

from pathlib import Path

import pytest

from repro.lint import lint_file, lint_paths, lint_source, resolve_rules
from repro.lint.engine import LintError

FIXTURES = Path(__file__).parent / "fixtures"

# What the linter must find in each fixture file (one per rule).
EXPECTED_FIXTURE_RULES = {
    "det001_random_import.py": {"DET001"},
    "sim/wall_clock.py": {"DET002"},
    "det003_numpy_global.py": {"DET003"},
    "det004_ungoverned_generator.py": {"DET004"},
    "det005_stream_collision.py": {"DET005"},
    "sim/ord001_set_iteration.py": {"ORD001"},
    "par001_lambda_to_pool.py": {"PAR001"},
    "err001_broad_except.py": {"ERR001"},
    "api001_all_mismatch.py": {"API001"},
    "bench/ben001_timed_body.py": {"BEN001"},
    "flt001_direct_mutation.py": {"FLT001"},
}

# Multi-file fixtures: each file is clean in isolation — the violation
# only exists in the whole-program view (see test_project_rules.py).
CLEAN_IN_ISOLATION = (
    "helpers_clock.py",
    "sim/det006_transitive.py",
    "cycle_a.py",
    "cycle_b.py",
)


class TestFixtures:
    @pytest.mark.parametrize(
        "relpath,expected", sorted(EXPECTED_FIXTURE_RULES.items())
    )
    def test_each_fixture_trips_exactly_its_rule(self, relpath, expected):
        findings = lint_file(str(FIXTURES / relpath))
        assert {f.rule_id for f in findings} == expected

    def test_clean_fixture_has_no_findings(self):
        assert lint_file(str(FIXTURES / "clean.py")) == []

    def test_rng_location_fixture_is_exempt_from_det001(self):
        assert lint_file(str(FIXTURES / "sim" / "rng.py")) == []

    @pytest.mark.parametrize("relpath", CLEAN_IN_ISOLATION)
    def test_project_fixtures_are_clean_per_file(self, relpath):
        assert lint_file(str(FIXTURES / relpath)) == []

    def test_directory_walk_finds_every_fixture_violation(self):
        findings = lint_paths([str(FIXTURES)])
        found_rules = {f.rule_id for f in findings}
        assert found_rules == {
            "DET001", "DET002", "DET003", "DET004", "DET005", "DET006",
            "ORD001", "IMP001", "PAR001", "ERR001", "API001", "FLT001",
            "BEN001",
        }

    def test_findings_sorted_by_path_then_line(self):
        findings = lint_paths([str(FIXTURES)])
        keys = [f.sort_key() for f in findings]
        assert keys == sorted(keys)

    def test_overlapping_paths_report_each_finding_once(self):
        once = lint_paths([str(FIXTURES)])
        twice = lint_paths([str(FIXTURES), str(FIXTURES / "sim"),
                            str(FIXTURES / "det001_random_import.py")])
        assert twice == once


class TestSuppression:
    def test_named_noqa_suppresses_that_rule(self):
        src = "import random  # repro: noqa[DET001]\n"
        assert lint_source(src) == []

    def test_named_noqa_does_not_suppress_other_rules(self):
        src = "import random  # repro: noqa[ERR001]\n"
        assert [f.rule_id for f in lint_source(src)] == ["DET001"]

    def test_bare_noqa_suppresses_everything_on_the_line(self):
        src = "import random  # repro: noqa\n"
        assert lint_source(src) == []

    def test_comma_list(self):
        src = "import random  # repro: noqa[ERR001, DET001]\n"
        assert lint_source(src) == []

    def test_noqa_on_other_line_does_not_suppress(self):
        src = "# repro: noqa[DET001]\nimport random\n"
        assert [f.rule_id for f in lint_source(src)] == ["DET001"]

    def test_suppressed_fixture_is_clean(self):
        assert lint_file(str(FIXTURES / "suppressed.py")) == []

    def test_marker_inside_string_literal_does_not_suppress(self):
        # The marker text is data, not a comment: tokenize-based
        # suppression must not treat it as a noqa directive.
        src = 'import random; MSG = "use # repro: noqa sparingly"\n'
        assert [f.rule_id for f in lint_source(src)] == ["DET001"]

    def test_real_comment_after_marker_like_string_still_suppresses(self):
        src = 'import random; M = "# repro: noqa[X]"  # repro: noqa[DET001]\n'
        assert lint_source(src) == []


class TestSelection:
    def test_rule_subset_runs_only_those_rules(self):
        rules = resolve_rules(["DET001"])
        src = "import random\n__all__ = ['phantom']\n"
        findings = lint_source(src, rules=rules)
        assert [f.rule_id for f in findings] == ["DET001"]

    def test_selection_is_case_insensitive(self):
        assert [r.rule_id for r in resolve_rules(["det001"])] == ["DET001"]

    def test_unknown_rule_rejected(self):
        with pytest.raises(LintError):
            resolve_rules(["NOPE999"])

    def test_unreadable_path_rejected(self):
        with pytest.raises(LintError):
            lint_paths([str(FIXTURES / "does_not_exist.py")])


class TestSyntaxErrors:
    def test_unparseable_source_reports_syntax_finding(self):
        findings = lint_source("def broken(:\n", path="broken.py")
        assert [f.rule_id for f in findings] == ["SYNTAX"]
        assert findings[0].path == "broken.py"
