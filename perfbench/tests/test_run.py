import json

import run


def _record(results, work=None, counts=None, violations=()):
    record = {"results": results, "work": work or {"sim.events": 10},
              "violations": list(violations)}
    if counts is not None:
        record["counts"] = counts
    return record


def test_results_matching_the_reference_pass():
    checker = run.Checker({"availability": 1.0})
    assert checker.problems(_record({"availability": 1.0})) == []


def test_a_run_checked_against_a_wrong_reference_fails():
    checker = run.Checker({"availability": 0.5})
    problems = checker.problems(_record({"availability": 1.0}))
    assert len(problems) == 1 and "seed-commit reference" in problems[0]


def test_without_a_reference_the_first_run_is_the_reference():
    checker = run.Checker(None)
    assert checker.problems(_record({"n": 1})) == []
    assert checker.problems(_record({"n": 1})) == []
    assert "run 1" in checker.problems(_record({"n": 2}))[0]


def test_drifting_work_or_layer_counts_fail_the_run():
    checker = run.Checker(None)
    assert checker.problems(_record({}, {"sim.events": 10}, {"a": 1})) == []
    assert checker.problems(_record({}, {"sim.events": 11}))[0].startswith(
        "work counts drifted")
    assert checker.problems(_record({}, {"sim.events": 10}, {"a": 2})) == [
        "per-layer counts drifted between traced runs"]


def test_broken_invariants_fail_the_run():
    checker = run.Checker(None)
    assert checker.problems(_record({}, violations=["2 divergent keys"])) == [
        "invariant: 2 divergent keys"]


def test_references_cover_every_workload_for_at_least_two_seeds():
    with open(run.REFERENCES) as handle:
        references = json.load(handle)
    for name in run.NAMES:
        assert len(references[name]) >= 2, name
    assert run.load_reference(run.REFERENCES, "fed_steady", 10**9) is None


def test_benchmark_json_names_what_run_reports():
    with open(run.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        run.per_layer_units())


def test_each_run_is_scaled_by_its_own_calibration():
    runs = [{"wall_s": w, "calibration_s": c}
            for w, c in ((2.0, 0.020), (3.0, 0.010), (2.2, 0.030))]
    # at 10 ms per calibration: 1.0 s, 3.0 s and 0.733 s; the median is 1.0 s
    expected = 2.0 * run.REFERENCE_CALIBRATION_S / 0.020
    assert run.at_reference_speed(runs, "wall_s") == expected


def _main_with_references(monkeypatch, capsys, references):
    """``run.main`` on ``fed_writes`` seed 7, each run returning the results
    recorded for that seed, checked against ``references``."""
    with open(run.REFERENCES) as handle:
        recorded = json.load(handle)["fed_writes"]["7"]
    record = {"calibration_s": 0.01, "import_s": 0.2, "build_s": 0.1,
              "setup_s": 0.3, "wall_s": 1.5, "peak_rss_mb": 50.0,
              "results": recorded, "work": {"sim.events": 10},
              "violations": []}
    monkeypatch.setattr(run, "REFERENCES", references)
    monkeypatch.setattr(run, "host_fingerprint", lambda: {})
    monkeypatch.setattr(run, "run_child",
                        lambda workload, seed, traced: (dict(record), ""))
    run.main(["--workload", "fed_writes", "--seed", "7", "--seconds", "0"])
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_main_passes_runs_that_match_the_recorded_reference(monkeypatch, capsys):
    result = _main_with_references(monkeypatch, capsys, run.REFERENCES)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + run.MIN_RUNS


def test_main_fails_every_run_against_a_wrong_reference(monkeypatch, capsys,
                                                        tmp_path):
    with open(run.REFERENCES) as handle:
        references = json.load(handle)
    references["fed_writes"]["7"]["writes"] += 1
    wrong = tmp_path / "references.json"
    wrong.write_text(json.dumps(references))
    result = _main_with_references(monkeypatch, capsys, wrong)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
