"""tools/memo_hits.py: hits and builds of each memo kind over one warm pass."""
import importlib.util
import re
import sys
from pathlib import Path

from sharpcheck import lp

ROOT = Path(__file__).resolve().parent.parent

# the memo kinds of the lp module docstring
KINDS = {"lp", "dd", "face_complex", "lower_gen_support", "_jet_data",
         "multiplier_affine_set", "sigma_hat_nonpositive", "asymptotic_preimage",
         "directional_multipliers", "constraint_qualification", "tangent_cone",
         "second_tangent", "directional_normal"}


def test_kinds_agree_with_the_lp_docstring():
    assert len(KINDS) == 13
    assert "That is thirteen kinds." in " ".join(lp.__doc__.split())


def _tool():
    spec = importlib.util.spec_from_file_location("memo_hits", ROOT / "tools" / "memo_hits.py")
    module = sys.modules["memo_hits"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_warm_pass_of_the_sufficient_checks(capsys):
    wrapped = lp._reused, lp._content_key, lp._read_only
    assert _tool().main(["sufficient_check"]) == 0
    # the wrappers are gone after the pass
    assert (lp._reused, lp._content_key, lp._read_only) == wrapped
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sufficient_check, seed 1: 29 jobs, one warm pass"
    assert lines[1].split() == ["kind", "hits", "builds", "build_s", "key_s", "freeze_s"]
    rows = {}
    for line in lines[2:]:
        assert re.fullmatch(r"  \S+ +\d+ +\d+( +\d+\.\d{4}){3}", line), line
        kind, hits, builds, *seconds = line.split()
        rows[kind] = (int(hits), int(builds), *map(float, seconds))
    assert set(rows) <= KINDS
    # every check builds the jets at xbar once and reads them again
    hits, builds, *_ = rows["_jet_data"]
    assert builds > 0 and hits > builds
    assert rows["lp"][1] > 0
    seconds = [row[2] for row in rows.values()]
    assert seconds == sorted(seconds, reverse=True)


def test_key_and_freeze_seconds_are_charged_to_their_kind():
    # a fake pass of one lp call twice in a scope: one key each, one freeze
    tool = _tool()
    from sharpcheck.lp import maximize, reuse_scope

    class Cli:
        pass

    def job_reports(cli, jobs, paths):
        with reuse_scope():
            for _ in range(2):
                maximize([1.0], [[1.0]], [1.0])
        lp._content_key((1,))   # outside _reused: not counted
        yield from ()

    saved = tool.digests.job_reports
    tool.digests.job_reports = job_reports
    try:
        counts = tool.count_pass(Cli(), lp, [], {})
    finally:
        tool.digests.job_reports = saved
    assert set(counts) == {"lp"}
    hits, builds, build_s, key_s, freeze_s = counts["lp"]
    assert (hits, builds) == (1, 1)
    assert key_s > 0.0 and freeze_s > 0.0
    assert lp._content_key.__module__ == "sharpcheck.lp"
