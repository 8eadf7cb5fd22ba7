"""Tests for the benchmark's failure classifier, output comparator and
seeded model files. Run with ``python3 -m pytest perfbench/tests``."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import workloads  # noqa: E402

TRACEBACK = ("Traceback (most recent call last):\n"
             '  File "x.py", line 1, in <module>\n'
             "TypeError: Object of type bool is not JSON serializable\n")


class TestClassifyFailure:
    def test_clean_exits_are_not_failures(self):
        assert compare.classify_failure(0, "") is None
        assert compare.classify_failure(1, "seqscreen: error: no\n") is None

    def test_exit_one_with_traceback_fails(self):
        why = compare.classify_failure(1, TRACEBACK)
        assert why is not None and why.startswith("traceback (exit 1)")
        assert "TypeError" in why

    def test_traceback_fails_whatever_the_exit_code(self):
        assert compare.classify_failure(0, TRACEBACK) is not None

    def test_exit_two_fails(self):
        why = compare.classify_failure(2, "seqscreen: error: bad file\n")
        assert why == "exit 2: seqscreen: error: bad file"

    def test_exit_outside_contract_fails(self):
        assert compare.classify_failure(3, "") == "exit 3"
        assert compare.classify_failure(-9, "") == "exit -9"

    def test_timeout_fails(self):
        assert compare.classify_failure(None, "", timed_out=True) == "timeout"


REPORT = {
    "classic_regular": False,
    "checks": {"A1": {"passed": False, "n_violations": 2,
                      "worst_violation": 0.25,
                      "witnesses": [{"v": 1.0, "V_lo": 0.1, "violation": 0.25},
                                    {"v": 1.5, "V_lo": 0.2, "violation": 0.1}]}},
    "verdict": "discrepancy",
}


def _copy(obj):
    return json.loads(json.dumps(obj))


class TestDiff:
    def test_identical_reports_agree(self):
        assert compare.diff(REPORT, _copy(REPORT)) == []

    def test_numbers_within_tolerance_agree(self):
        got = _copy(REPORT)
        got["checks"]["A1"]["worst_violation"] = 0.25 * (1 + 1e-12)
        assert compare.diff(REPORT, got) == []

    def test_numbers_beyond_tolerance_differ(self):
        got = _copy(REPORT)
        got["checks"]["A1"]["worst_violation"] = 0.25 * (1 + 1e-8)
        assert compare.diff(REPORT, got) == [
            ".checks.A1.worst_violation: 0.25 != 0.2500000025"]

    def test_roundoff_around_zero_agrees(self):
        assert compare.diff({"x": 0.0}, {"x": 2e-16}) == []
        assert compare.diff({"x": 0.0}, {"x": 1e-12}) != []

    def test_witness_coordinate_differs(self):
        got = _copy(REPORT)
        got["checks"]["A1"]["witnesses"][1]["v"] = 1.25
        assert compare.diff(REPORT, got) == [
            ".checks.A1.witnesses[1].v: 1.5 != 1.25"]

    def test_witness_count_differs(self):
        got = _copy(REPORT)
        got["checks"]["A1"]["witnesses"].pop()
        assert compare.diff(REPORT, got) == [
            ".checks.A1.witnesses: length 2 != 1"]

    def test_counts_compare_exactly(self):
        got = _copy(REPORT)
        got["checks"]["A1"]["n_violations"] = 3
        assert compare.diff(REPORT, got) != []

    def test_verdict_and_passed_flags(self):
        got = _copy(REPORT)
        got["verdict"] = "consistent"
        got["checks"]["A1"]["passed"] = True
        assert len(compare.diff(REPORT, got)) == 2

    def test_nan_matches_only_nan(self):
        assert compare.diff([float("nan")], [float("nan")]) == []
        assert compare.diff([float("nan")], [1.0]) != []

    def test_loose_mode_ignores_numbers_and_lists(self):
        got = _copy(REPORT)
        got["checks"]["A1"]["worst_violation"] = 0.5
        got["checks"]["A1"]["n_violations"] = 7
        got["checks"]["A1"]["witnesses"] = []
        assert compare.diff(REPORT, got, exact=False) == []

    def test_loose_mode_still_compares_verdicts(self):
        got = _copy(REPORT)
        got["checks"]["A1"]["passed"] = True
        got["verdict"] = "consistent"
        assert len(compare.diff(REPORT, got, exact=False)) == 2


def _entry(rc=0, failure=None, summary=None):
    return {"rc": rc, "failure": failure, "summary": summary}


class TestJudge:
    def test_agreement(self):
        assert compare.judge(_entry(1, None, REPORT),
                             _entry(1, None, _copy(REPORT)), True) is None

    def test_exit_code_change_is_a_mismatch(self):
        why = compare.judge(_entry(1, None, REPORT),
                            _entry(0, None, REPORT), True)
        assert why == "mismatch: exit 0, reference 1"

    def test_new_failure_is_unexpected(self):
        why = compare.judge(_entry(0, None, REPORT),
                            _entry(1, "traceback (exit 1): E", None), True)
        assert why.startswith("unexpected failure")

    def test_reference_failure_is_scored_by_failures_only(self):
        ref = _entry(2, "exit 2: seqscreen: error: bad", None)
        assert compare.judge(ref, _entry(2, "exit 2: other", None),
                             True) is None
        # a later fix that makes the command pass is not a mismatch
        assert compare.judge(ref, _entry(0, None, REPORT), True) is None


class TestSummaries:
    def test_grid_csv(self):
        text = "v,V,value\n0.1,0.2,1.5\n0.1,0.3,nan\n0.2,0.2,2.5\n"
        s = compare.summarize("grid", text)
        assert s["header"] == "v,V,value"
        assert s["rows"] == 3 and s["nan"] == 1
        assert s["sums"] == [0.4, 0.7, 4.0]
        assert [row[0] for row in s["samples"]] == [0, 1, 2]

    def test_model_text_with_continuations(self):
        text = ("[signal]\nfamily = uniform\nsupport = 0.0 1.0\n\n"
                "[transform]\nkind = mean\nphi_table =\n"
                "    0.0:0.5:1.0 0.5:0.75:1.0\n    1.0:1.0:1.0\n")
        s = compare.summarize("transform", text)
        assert s["signal"] == {"family": ["uniform"], "support": [0.0, 1.0]}
        assert s["transform"]["phi_table"] == [[0.0, 0.5, 1.0],
                                               [0.5, 0.75, 1.0],
                                               [1.0, 1.0, 1.0]]

    def test_reports_are_parsed_json(self):
        assert compare.summarize("check", '{"a": 1}\n') == {"a": 1}
        assert compare.summarize("verify", "") is None


class TestWorkloads:
    def test_default_seed_uses_stored_files(self):
        for name in ("logistic", "power", "stress_beta0502"):
            stored = (workloads.MODELS_DIR / f"{name}.model").read_text()
            assert workloads.render_model(name, 0) == stored

    def test_other_seeds_vary_within_range_and_repeat(self):
        text = workloads.render_model("logistic", 5)
        assert text == workloads.render_model("logistic", 5)
        lines = dict(ln.split(" = ") for ln in text.splitlines()
                     if " = " in ln and not ln.startswith("#"))
        lo, hi = map(float, lines["support"].split())
        assert abs(hi - lo - 1.0) < 1e-12 and -0.05 <= lo <= 0.05
        assert 0.97 <= float(lines["noise.scale"]) <= 1.03

    def test_table_nodes_stay_put(self):
        text = workloads.render_model("tablesig", 3)
        params = [ln for ln in text.splitlines()
                  if ln.startswith("params")][0]
        nodes = [tok.split(":")[0] for tok in params.split()[2:]]
        assert nodes == ["0.0", "0.2", "0.4", "0.6", "0.8", "1.0"]

    def test_edge_models_are_fixed(self):
        assert not workloads.is_varied("edge")
        for name in workloads.model_names("edge"):
            assert workloads.render_model(name, 11) == \
                workloads.render_model(name, 0)

    def test_every_model_says_why_it_is_in_the_set(self):
        for path in workloads.MODELS_DIR.glob("*.model"):
            assert path.read_text().startswith("# why:"), path.name

    def test_references_match_the_command_lists(self):
        for name, cmds in workloads.WORKLOADS.items():
            ref = json.loads((BENCH / "references" / f"{name}.json")
                             .read_text())
            assert [c["cmd"] for c in ref["commands"]] == cmds
