"""tools/report_digests.py: digests of the benchmark jobs' normalised reports."""
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "report_digests", ROOT / "tools" / "report_digests.py")
    module = sys.modules["report_digests"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_job_gets_a_digest_of_its_normalised_report():
    got = _tool().report_digests(ROOT, seeds=(1,), workloads=("sufficient_check",))
    assert len(got) == 29
    assert all(k.startswith("sufficient_check:1:") for k in got)
    assert all(sorted(v) == ["decision", "exit_code", "kappa_bounds", "report", "verdict"]
               for v in got.values())
    assert all(len(v[h]) == 64 and int(v[h], 16) >= 0
               for v in got.values() for h in ("decision", "report"))
    assert all(v["exit_code"] in (0, 1, 2) and isinstance(v["kappa_bounds"], dict)
               for v in got.values())
    # a second run in the same process gives the same bytes
    again = _tool().report_digests(ROOT, seeds=(1,), workloads=("sufficient_check",))
    assert again == got


def test_the_decision_digest_ignores_diagnostics():
    tool = _tool()
    report = {"verdict": "certified", "exit_code": 0, "kappa_bounds": {"certified": 0.5},
              "witnesses": [], "cq_status": {}, "diagnostics": ["a"]}
    reworded = json.dumps({**report, "diagnostics": ["b"]}, indent=1).encode()
    assert tool.decision_bytes(json.dumps(report).encode()) == tool.decision_bytes(reworded)
    refuted = json.dumps({**report, "verdict": "violated"}).encode()
    assert tool.decision_bytes(refuted) != tool.decision_bytes(reworded)


def test_compare_lists_changed_and_one_sided_keys(tmp_path, capsys):
    tool = _tool()

    def digests(report, decision, verdict="satisfied", code=0,
                bounds=(("max_admissible", 1),)):
        return {"report": report, "decision": decision, "verdict": verdict,
                "exit_code": code, "kappa_bounds": dict(bounds)}

    base = {"w:1:a": digests("00", "0"), "w:1:b": digests("11", "1"),
            "w:1:c": digests("22", "2"), "w:1:e": digests("44", "4")}
    head = {"w:1:a": digests("00", "0"), "w:1:b": digests("12", "1"),
            "w:1:d": digests("33", "3"),
            "w:1:e": digests("45", "5", "hypotheses-not-met", 2, {})}
    assert tool.differing_keys(base, head) == ["w:1:b", "w:1:c", "w:1:d", "w:1:e"]
    assert tool.differing_keys(base, head, "decision") == ["w:1:c", "w:1:d", "w:1:e"]
    for name, doc in (("base.json", base), ("head.json", head)):
        (tmp_path / name).write_text(json.dumps(doc))
    assert tool.main(["--compare", str(tmp_path / "base.json"),
                      str(tmp_path / "head.json")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "4 of 5 report digests differ",
        "3 of them differ in verdict, exit_code, kappa_bounds, witnesses, cq_status",
        "  w:1:b",
        '  w:1:c (decision): satisfied, exit 0, {"max_admissible":1} -> absent',
        '  w:1:d (decision): absent -> satisfied, exit 0, {"max_admissible":1}',
        '  w:1:e (decision): satisfied, exit 0, {"max_admissible":1} -> '
        'hypotheses-not-met, exit 2, {}']
