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
    assert all(len(v) == 64 and int(v, 16) >= 0 for v in got.values())
    # a second run in the same process gives the same bytes
    again = _tool().report_digests(ROOT, seeds=(1,), workloads=("sufficient_check",))
    assert again == got


def test_compare_lists_changed_and_one_sided_keys(tmp_path, capsys):
    tool = _tool()
    base = {"w:1:a": "00", "w:1:b": "11", "w:1:c": "22"}
    head = {"w:1:a": "00", "w:1:b": "12", "w:1:d": "33"}
    assert tool.differing_keys(base, head) == ["w:1:b", "w:1:c", "w:1:d"]
    for name, doc in (("base.json", base), ("head.json", head)):
        (tmp_path / name).write_text(json.dumps(doc))
    assert tool.main(["--compare", str(tmp_path / "base.json"),
                      str(tmp_path / "head.json")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "3 of 4 report digests differ", "  w:1:b", "  w:1:c", "  w:1:d"]
