"""Command-line contract: golden machine reports for the fixtures, exit
codes for library failures, and the ``python -m`` entry points.

The goldens under tests/golden/ hold each report's machine bytes with the
two time members blanked.  After an intended report change, regenerate
them from the repository root with ``PYTHONPATH=src python tests/test_cli.py``
and review the diff.
"""
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sharpcheck
from sharpcheck import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DIRECTIONS = {"first_example": "0,1", "parabola": "1,0", "second_example": "1"}
_VOLATILE = re.compile(rb'"(runtime_seconds|generated_at)":("[^"]*"|[^,}]*)')


def _cases():
    out = []
    for name, d in DIRECTIONS.items():
        path = f"fixtures/{name}.json"
        out += [(f"{name}-check-cq", ["check-cq", path, "--kind", "foscms",
                                      "--direction", d]),
                (f"{name}-necessary-implicit", ["check-necessary", path,
                                                "--direction", d]),
                (f"{name}-sufficient-point", ["check-sufficient", path, "--mode",
                                              "point", "--kappa", "0.25"]),
                (f"{name}-sufficient-isolated", ["check-sufficient", path,
                                                 "--mode", "isolated"])]
        if name != "first_example":
            out += [(f"{name}-sweep-{form}", ["check-necessary", path, "--form", form])
                    for form in ("explicit", "clarke")]
    # n >= 3 pins the Fibonacci (n = 3) and random (n = 4) direction meshes;
    # isolated mode is left out there because its critical mesh misses
    # lower-dimensional critical cones (ROADMAP item 1)
    for name in ("halfspace_n4", "lifted_n3"):
        out.append((f"{name}-sufficient-point", ["check-sufficient", f"fixtures/{name}.json",
                                                 "--mode", "point", "--kappa", "0.25"]))
    out.append(("halfspace_n4-sweep-explicit",
                ["check-necessary", "fixtures/halfspace_n4.json", "--form", "explicit"]))
    # the sweeps share one CheckContext across their (x, d) pairs
    for name in (*DIRECTIONS, "halfspace_n4"):
        for tag, mode in (("proximal", "proximal"), ("tangent", "tangent-distance")):
            out.append((f"{name}-sweep-implicit-{tag}",
                        ["check-necessary", f"fixtures/{name}.json", "--form",
                         "implicit", "--mode", mode]))
    out += [(f"first_example-sweep-{form}",
             ["check-necessary", "fixtures/first_example.json", "--form", form])
            for form in ("explicit", "clarke")]
    out.append(("halfspace_n4-sweep-clarke",
                ["check-necessary", "fixtures/halfspace_n4.json", "--form", "clarke"]))
    # eps > 0 measures each direction's distance to the proximal normal cone
    # of S instead of testing membership
    out += [(f"first_example-sweep-{form}-eps0.2",
             ["check-necessary", "fixtures/first_example.json", "--form", form,
              "--eps", "0.2"])
            for form in ("explicit", "clarke")]
    # the sampling oracles print the growth witness, kappa_hat, the first 50
    # feasible samples and the MSCQ modulus at full precision
    for name, d in {**DIRECTIONS, "lifted_n3": "1,0,0",
                    "halfspace_n4": "1,0,0,0"}.items():
        path = f"fixtures/{name}.json"
        out += [(f"{name}-verify-growth", ["verify-growth", path, "--count", "2000",
                                           "--kappa", "0.5"]),
                (f"{name}-oracle-feasible", ["oracle", path, "--op", "feasible",
                                             "--count", "1000", "--limit", "50"]),
                (f"{name}-oracle-mscq", ["oracle", path, "--op", "mscq", "--count",
                                         "200", "--direction", d])]
    return out


CASES = _cases()


def _run(argv):
    """(exit code, machine report bytes with the time members blanked)."""
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", newline="")
    saved = sys.stdout
    sys.stdout = out
    try:
        code = cli.main(["--format", "machine", *argv])
    finally:
        out.flush()
        out.detach()
        sys.stdout = saved
    return code, _VOLATILE.sub(rb'"\1":null', buf.getvalue())


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_machine_report_matches_golden(name, argv, monkeypatch):
    monkeypatch.chdir(ROOT)   # reports echo the document path
    code, report = _run(argv)
    assert report == (GOLDEN / f"{name}.json").read_bytes()
    doc = json.loads(report)
    assert doc["exit_code"] == code
    assert doc["format_version"] == 2
    assert "threads" not in doc


def test_library_failure_is_inconclusive_without_traceback(tmp_path, capsys):
    # nine variables exceed the double-description cap of the implicit form
    n = 9
    doc = {"n": n, "m": 1,
           "objective": " + ".join(f"x{i}^2" for i in range(1, n + 1)),
           "constraints": ["x1"],
           "K": {"kind": "interval", "lo": "-inf", "hi": 0.0},
           "S": {"kind": "point", "at": [0.0] * n},
           "xbar": [0.0] * n}
    path = tmp_path / "halfspace9.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["check-necessary", str(path), "--form", "implicit",
                     "--direction", "0,1,0,0,0,0,0,0,0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("sharpcheck: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_sufficient_point_without_boundary_points(tmp_path):
    # xbar is interior to the box S, so the boundary mesh near it is empty
    doc = {"n": 2, "m": 1, "objective": "0*x1", "constraints": ["x1"],
           "K": {"kind": "interval", "lo": "-inf", "hi": 0.0},
           "S": {"kind": "box", "intervals": [[-1.0, 0.0], [-1.0, 1.0]]},
           "xbar": [-0.5, 0.0], "options": {"delta": 0.05}}
    path = tmp_path / "interior.json"
    path.write_text(json.dumps(doc))
    code, report = _run(["check-sufficient", str(path), "--mode", "point",
                         "--kappa", "0.5"])
    assert code == 0
    assert "direction mesh: 0 admissible, 0 critical" in json.loads(report)["diagnostics"]


@pytest.mark.parametrize("argv", [
    ["verify-growth", "--count", "0"],
    ["verify-growth", "--count=-5"],
    ["oracle", "--op", "feasible", "--count=-5"],
    ["oracle", "--op", "mscq", "--direction", "1,0", "--count=0"],
    ["oracle", "--op", "mscq", "--direction", "1,0", "--count=-5"],
    ["oracle", "--op", "feasible", "--limit=-1"],
], ids=["growth-zero", "growth-negative", "feasible-negative", "mscq-zero",
        "mscq-negative", "feasible-limit"])
def test_sample_count_and_limit_are_input_errors(argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = cli.main([argv[0], "fixtures/parabola.json", *argv[1:]])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("sharpcheck: ") and captured.err.count("\n") == 1


_BAD_DOCUMENTS = {
    "malformed-power": ({"objective": "x1^^2"}, []),
    "negative-n": ({"n": -1}, []),
    "negative-seed": ({"options": {"seed": -5}}, []),
    "negative-seed-flag": ({}, ["--seed", "-5"]),
    # set constructors go through cli._build_set, the one set codec
    "unknown-set-kind": ({"K": {"kind": "klein-bottle"}}, []),
    "non-numeric-bound": ({"K": {"kind": "interval", "lo": "wide", "hi": 0.0}}, []),
    "set-as-list": ({"S": [1, 2, 3]}, []),
    "point-written-with-x": ({"S": {"kind": "point", "x": [0.0, 0.0]}}, []),
    # options must be finite, whether given by flag or in the document
    "delta-nan-flag": ({}, ["--delta", "nan"]),
    "delta-inf-flag": ({}, ["--delta", "inf"]),
    "kappa-nan-flag": ({}, ["--kappa", "nan"]),
    "kappa-inf-flag": ({}, ["--kappa", "inf"]),
    "rho-nan-flag": ({}, ["--rho", "nan"]),
    "delta-nan-document": ({"options": {"delta": math.nan}}, []),
    "kappa-inf-document": ({"options": {"kappa": math.inf}}, []),
}


@pytest.mark.parametrize("command", ["check-sufficient", "check-necessary",
                                     "verify-growth"])
@pytest.mark.parametrize("case", list(_BAD_DOCUMENTS))
def test_parse_errors_and_negative_seeds_are_input_errors(case, command, tmp_path,
                                                          capsys):
    changes, flags = _BAD_DOCUMENTS[case]
    doc = json.loads((ROOT / "fixtures" / "parabola.json").read_text())
    doc.update(changes)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = cli.main([command, str(path), *flags])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("sharpcheck: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["check-cq", "--kind", "foscms", "--direction", "nan,1"],
    ["check-necessary", "--direction", "nan,0"],
    ["check-necessary", "--direction", "1,-inf"],
    ["oracle", "--op", "membership", "--w", "nan"],
    ["oracle", "--op", "membership", "--w", "inf"],
], ids=["cq-direction-nan", "necessary-direction-nan", "necessary-direction-inf",
        "membership-w-nan", "membership-w-inf"])
def test_non_finite_vectors_are_input_errors(argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = cli.main([argv[0], "fixtures/parabola.json", *argv[1:]])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("sharpcheck: ") and captured.err.count("\n") == 1
    assert "must be finite" in captured.err


@pytest.mark.parametrize("direction", [[], ["--direction", "1,0"]],
                         ids=["sweep", "direction"])
@pytest.mark.parametrize("form", ["explicit", "clarke", "nondegenerate"])
def test_tangent_distance_mode_needs_the_implicit_form(form, direction, capsys,
                                                       monkeypatch):
    monkeypatch.chdir(ROOT)
    code = cli.main(["check-necessary", "fixtures/parabola.json", "--form", form,
                     "--mode", "tangent-distance", *direction])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("sharpcheck: ") and captured.err.count("\n") == 1
    assert "tangent-distance" in captured.err


def test_membership_oracle_ignores_count_and_limit(monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = ["oracle", "fixtures/parabola.json", "--op", "membership", "--w", "-1"]
    code, report = _run(argv)
    code_flags, report_flags = _run([*argv, "--count", "0", "--limit=-1"])
    doc, doc_flags = json.loads(report), json.loads(report_flags)
    assert code == code_flags == 0
    assert doc["oracle"] == doc_flags["oracle"]
    assert doc["verdict"] == doc_flags["verdict"] == "confirmed"


@pytest.mark.parametrize("module", ["sharpcheck", "sharpcheck.cli"])
def test_python_m_entry_points(module):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", module, "--format", "machine", "check-necessary",
         "fixtures/second_example.json", "--direction", "1"],
        cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "violated" and doc["exit_code"] == 1


def test_every_exported_name_resolves():
    missing = [name for name in sharpcheck.__all__ if not hasattr(sharpcheck, name)]
    assert missing == []


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for case, args in CASES:
        (GOLDEN / f"{case}.json").write_bytes(_run(args)[1])
