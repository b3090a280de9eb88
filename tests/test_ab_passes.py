"""tools/ab_passes.py: alternating in-process passes on two trees."""
import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("ab_passes", ROOT / "tools" / "ab_passes.py")
    module = sys.modules["ab_passes"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_tree_against_itself_over_one_pair(capsys):
    tool = _tool()
    assert tool.main([str(ROOT), str(ROOT), "--pairs", "1",
                      "--workload", "sufficient_check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sufficient_check, seed 1: 1 pairs, 29 jobs, process CPU seconds per pass"
    assert lines[1].startswith("  base: median ") and " p25 " in lines[1]
    # 29 checks in one timed pass: the tail is the 19th, ten samples below the top
    assert lines[2].startswith("  base per check: median ")
    assert lines[2].endswith(" ms  (29 checks)") and " ms, p65.5 " in lines[2]
    assert lines[4].startswith("  head: median ") and " p25 " in lines[4]
    assert " p75 " in lines[1] and " p75 " in lines[4]
    assert lines[5].startswith("  head per check: median ")
    assert lines[5].endswith(" ms  (29 checks)") and " ms, p65.5 " in lines[5]
    # the 11 samples from the tail up (more on a tie), from one pass: as
    # many jobs, once each
    for line, side in ((lines[3], "base"), (lines[6], "head")):
        assert line.startswith(f"  {side} jobs at or above p65.5: ")
        tops = line.split(": ", 1)[1].split(", ")
        assert len(tops) >= 11 and all(re.fullmatch(r"\S+/\S+ 1", t) for t in tops)
    assert lines[7].startswith("  head/base: median per-pair ratio ")
    assert lines[8] == "  normalised reports identical in all 29 jobs"
    assert re.fullmatch(r"  head below base: per-check median in [01] of 1 pairs, "
                        r"pass in [01] of 1 pairs", lines[9])
    # the benchmark's acceptance numbers: one pass per tree has no spread
    assert re.fullmatch(r"  median gap \(base - head\) [+-]\d+\.\d{4} s, "
                        r"base IQR 0\.0000 s, head wins [01] of 1 pairs", lines[10])
    assert len(lines) == 11
    # the two trees are separate packages, neither of them the installed one
    base, head = (sys.modules[f"_ab_{side}_sharpcheck.cli"] for side in ("base", "head"))
    assert base is not head and base.main is not head.main



def test_every_workload_is_warmed_before_the_first_timed_pass(monkeypatch, capsys):
    tool = _tool()
    calls = []

    def record(cli, jobs, paths, normalized):
        calls.append((cli.__name__, jobs))
        return [1e-3] * len(jobs), [b""] * len(jobs)

    monkeypatch.setattr(tool, "run_pass", record)
    assert tool.main([str(ROOT), str(ROOT), "--pairs", "1", "--workload", "necessary_sweep",
                      "--workload", "sufficient_check"]) == 0
    capsys.readouterr()
    sweep, check = calls[0][1], calls[2][1]
    assert sweep is not check
    base, head = "_ab_base_sharpcheck.cli", "_ab_head_sharpcheck.cli"
    # both trees' warm-ups of both workloads, then one timed pair each
    assert [(name, jobs is sweep) for name, jobs in calls] == [
        (base, True), (head, True), (base, False), (head, False),
        (base, True), (head, True), (base, False), (head, False)]
