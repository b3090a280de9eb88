"""tools/memo_hits.py: hits and builds of each memo kind over one warm pass."""
import importlib.util
import re
import sys
from pathlib import Path

from sharpcheck import lp

ROOT = Path(__file__).resolve().parent.parent

# the memo kinds of the lp module docstring
KINDS = {"lp", "dd", "polar_cone", "face_complex", "lower_gen_support", "_jet_data",
         "multiplier_affine_set", "sigma_hat_nonpositive", "asymptotic_preimage",
         "directional_multipliers", "constraint_qualification", "tangent_cone",
         "second_tangent", "directional_normal"}


def _tool():
    spec = importlib.util.spec_from_file_location("memo_hits", ROOT / "tools" / "memo_hits.py")
    module = sys.modules["memo_hits"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_warm_pass_of_the_sufficient_checks(capsys):
    reused = lp._reused
    assert _tool().main(["sufficient_check"]) == 0
    assert lp._reused is reused   # the wrapper is gone after the pass
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sufficient_check, seed 1: 29 jobs, one warm pass"
    assert lines[1].split() == ["kind", "hits", "builds", "build_s"]
    rows = {}
    for line in lines[2:]:
        assert re.fullmatch(r"  \S+ +\d+ +\d+ +\d+\.\d{4}", line), line
        kind, hits, builds, seconds = line.split()
        rows[kind] = int(hits), int(builds), float(seconds)
    assert set(rows) <= KINDS
    # every check builds the jets at xbar once and reads them again
    hits, builds, _ = rows["_jet_data"]
    assert builds > 0 and hits > builds
    assert rows["lp"][1] > 0
    seconds = [s for _, _, s in rows.values()]
    assert seconds == sorted(seconds, reverse=True)
