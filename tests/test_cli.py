"""Command-line contract: golden machine reports for the fixtures, exit
codes for library failures, and the ``python -m`` entry points.

The goldens under tests/golden/ hold each report's machine bytes with the
two time members blanked.  After an intended report change, regenerate
them from the repository root with ``PYTHONPATH=src python tests/test_cli.py``
and review the diff.
"""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import sharpcheck
from sharpcheck import cli
from sharpcheck.polyexpr import ModelError, ProblemInstance

from helpers import (
    VOLATILE,
    reference_point_problem,
    reference_point_warnings,
    reference_set_violation,
    run_machine,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DIRECTIONS = {"first_example": "0,1", "parabola": "1,0", "second_example": "1"}


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
    # the sweeps run all their (x, d) pairs in one reuse scope
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


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_machine_report_matches_golden(name, argv, monkeypatch):
    monkeypatch.chdir(ROOT)   # reports echo the document path
    code, report = run_machine(argv)
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
    code, report = run_machine(["check-sufficient", str(path), "--mode", "point",
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
    # above cli.MAX_COUNT: rejected before any sample array is allocated
    ["verify-growth", f"--count={10**30}"],
    ["verify-growth", f"--count={10**15}"],
    ["oracle", "--op", "feasible", f"--count={10**30}"],
    ["oracle", "--op", "mscq", "--direction", "1,0", f"--count={10**30}"],
    ["oracle", "--op", "growth", f"--count={cli.MAX_COUNT + 1}"],
], ids=["growth-zero", "growth-negative", "feasible-negative", "mscq-zero",
        "mscq-negative", "feasible-limit", "growth-huge", "growth-memory",
        "feasible-huge", "mscq-huge", "oracle-growth-above-cap"])
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
    # JSON integers beyond the float range, in a number and in a vector
    "delta-huge-integer": ({"options": {"delta": 10**400}}, []),
    "xbar-huge-integer": ({"xbar": [10**400, 0]}, []),
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
    code, report = run_machine(argv)
    code_flags, report_flags = run_machine([*argv, "--count", "0", "--limit=-1"])
    doc, doc_flags = json.loads(report), json.loads(report_flags)
    assert code == code_flags == 0
    assert doc["oracle"] == doc_flags["oracle"]
    assert doc["verdict"] == doc_flags["verdict"] == "confirmed"


def _reference_point_outcome(kw):
    """("error", ModelError text), ("warning", lines) or ("clean", ())."""
    try:
        inst = ProblemInstance(**kw)
    except ModelError as ex:
        return "error", str(ex)
    warnings = cli._reference_warnings(inst)
    assert warnings == reference_point_warnings(inst)
    return ("warning" if warnings else "clean"), warnings


@pytest.mark.parametrize("seed,kind", [(2, "error"), (13, "warning"), (0, "clean")])
def test_reference_point_problems_reach_each_outcome(seed, kind):
    assert _reference_point_outcome(reference_point_problem(seed))[0] == kind


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1))
@example(2)
@example(13)
def test_reference_points_are_tested_as_the_scalar_loops_test_them(seed):
    # the same first violating point, in the same message, as one scalar
    # g_value and K.contains per sampled point of S
    kw = reference_point_problem(seed)
    kind, got = _reference_point_outcome(kw)
    want = reference_set_violation(**kw)
    if kind == "error":
        assert got == want
    else:
        assert want is None


def _interval_document(hi, seed):
    # S = [-1, 1] around xbar = 0 is sampled on its whole width; the draws
    # above hi leave K = (-inf, hi]
    return {"n": 1, "m": 1, "objective": "x1^2", "constraints": ["x1"],
            "K": {"kind": "interval", "lo": "-inf", "hi": hi},
            "S": {"kind": "interval", "lo": -1.0, "hi": 1.0},
            "xbar": [0.0], "options": {"seed": seed}}


def test_reference_set_leaving_the_feasible_set_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "half.json"
    path.write_text(json.dumps(_interval_document(0.0, 0)))
    code = cli.main(["verify-growth", str(path), "--count", "200"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("sharpcheck: ") and captured.err.count("\n") == 1
    assert ("reference set is not contained in the feasible set (violation at ["
            in captured.err)


def test_reference_point_leaving_the_feasible_set_is_a_diagnostic(tmp_path):
    # seed 0: the 25 points the instance tests stay below 0.9, one of the
    # 100 points the loader tests does not
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(_interval_document(0.9, 0)))
    code, report = run_machine(["verify-growth", str(path), "--count", "200"])
    assert code in (0, 1, 2)
    assert json.loads(report)["diagnostics"][-1] == (
        "warning: a sampled reference point leaves the feasible set near [0.945879]")


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


def test_one_parser_serves_every_call_in_a_process(capsys, monkeypatch):
    # errors and --help first, then valid checks whose reports must equal
    # those of a fresh process: no call may leave state in the parser
    monkeypatch.chdir(ROOT)
    cli._build_parser.cache_clear()
    assert cli.main(["--help"]) == 0
    assert cli.main(["verify-growth", "fixtures/parabola.json", "--no-such-flag"]) == 3
    assert cli.main(["check-cq", "fixtures/parabola.json"]) == 3
    capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in (["verify-growth", "fixtures/parabola.json", "--count", "500",
                  "--kappa", "0.5"],
                 ["check-necessary", "fixtures/second_example.json", "--direction", "1"]):
        code, report = run_machine(argv)
        proc = subprocess.run([sys.executable, "-m", "sharpcheck", "--format", "machine",
                               *argv], cwd=ROOT, env=env, capture_output=True, timeout=120)
        assert code == proc.returncode, proc.stderr
        assert report == VOLATILE.sub(rb'"\1":null', proc.stdout)
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 4)


def test_every_exported_name_resolves():
    missing = [name for name in sharpcheck.__all__ if not hasattr(sharpcheck, name)]
    assert missing == []


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for case, args in CASES:
        (GOLDEN / f"{case}.json").write_bytes(run_machine(args)[1])
