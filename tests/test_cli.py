"""Command-line contract: golden machine reports for the fixtures, exit
codes for library failures, and the ``python -m`` entry points.

The goldens under tests/golden/ hold each report's machine bytes with the
two time members blanked.  After an intended report change, regenerate
them from the repository root with ``PYTHONPATH=src python tests/test_cli.py``,
which prints the name of each golden whose bytes changed, and review the
diff.
"""
import ast
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sharpcheck
from sharpcheck import certify, cli, sets
from sharpcheck.polyexpr import ModelError, ProblemInstance

from helpers import (
    VOLATILE,
    canonical_bytes_reference,
    reference_point_problem,
    reference_point_warnings,
    reference_set_violation,
    run_machine,
    with_options,
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
    # n >= 3 pins the Fibonacci (n = 3) and random (n = 4) direction meshes
    for name in ("halfspace_n4", "lifted_n3"):
        out.append((f"{name}-sufficient-point", ["check-sufficient", f"fixtures/{name}.json",
                                                 "--mode", "point", "--kappa", "0.25"]))
    # the mesh misses the critical ray of the lifted parabola, so isolated
    # mode certifies the request that the growth oracle replays
    out.append(("lifted_n3-sufficient-isolated",
                ["check-sufficient", "fixtures/lifted_n3.json", "--mode", "isolated",
                 "--kappa", "0.5"]))
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
    # the catalog kinds the fixtures above never reach: a union of boxes
    # with a finite S, a product with a ball factor with a polyhedron S, and
    # a polyhedral product with a halfspace factor with a product S
    for name in ("boxes_finite", "ball_product", "halfspace_product"):
        path = f"fixtures/{name}.json"
        out += [(f"{name}-sweep-{tag}", ["check-necessary", path, "--form", form,
                                         "--mode", mode])
                for tag, form, mode in (("implicit-proximal", "implicit", "proximal"),
                                        ("implicit-tangent", "implicit", "tangent-distance"),
                                        ("explicit", "explicit", "proximal"),
                                        ("clarke", "clarke", "proximal"))]
        out += [(f"{name}-nondegenerate", ["check-necessary", path, "--form",
                                           "nondegenerate", "--direction", "0,1"]),
                (f"{name}-sufficient-point", ["check-sufficient", path, "--mode",
                                              "point", "--kappa", "0.25"]),
                (f"{name}-sufficient-isolated", ["check-sufficient", path,
                                                 "--mode", "isolated"]),
                (f"{name}-check-cq-nondeg", ["check-cq", path, "--kind", "nondeg",
                                             "--direction", "0,1"])]
        if name != "ball_product":   # SOSCMS needs a polyhedral-union K
            out.append((f"{name}-check-cq-soscms", ["check-cq", path, "--kind",
                                                    "soscms", "--direction", "0,1"]))
    # Dg(x) has three rows in R^2, so every CQ of these sweeps meets a
    # nontrivial ker Dg(x)^T
    path = "fixtures/rank_deficient.json"
    out += [(f"rank_deficient-sweep-{tag}", ["check-necessary", path, "--form", form,
                                             "--mode", mode])
            for tag, form, mode in (("implicit-proximal", "implicit", "proximal"),
                                    ("implicit-tangent", "implicit", "tangent-distance"),
                                    ("explicit", "explicit", "proximal"),
                                    ("clarke", "clarke", "proximal"))]
    # grad f(0) = (1, 0) leaves the range of Dg(0)^T = (0, 1)^T, so no
    # multiplier exists and every form must reject the non-minimiser
    path = "fixtures/nonstationary.json"
    out += [(f"nonstationary-sweep-{tag}", ["check-necessary", path, "--form", form,
                                            "--mode", mode])
            for tag, form, mode in (("implicit-proximal", "implicit", "proximal"),
                                    ("implicit-tangent", "implicit", "tangent-distance"),
                                    ("explicit", "explicit", "proximal"),
                                    ("clarke", "clarke", "proximal"))]
    # two equal constraints: the failing CQs' witness lies off the axes
    out += [(f"twin_constraints-check-cq-{kind}",
             ["check-cq", "fixtures/twin_constraints.json", "--kind", kind,
              "--direction", "1"]) for kind in ("foscms", "soscms", "dirrcq")]
    return out


CASES = _cases()


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_machine_report_matches_golden(name, argv, monkeypatch):
    monkeypatch.chdir(ROOT)   # reports echo the document path
    code, report = run_machine(argv)
    assert report == (GOLDEN / f"{name}.json").read_bytes()
    doc = json.loads(report)
    assert doc["exit_code"] == code
    assert doc["format_version"] == 3
    assert "threads" not in doc


def test_library_failure_is_inconclusive_without_traceback(tmp_path, capsys):
    # nine variables exceed the double-description cap of the implicit
    # form's proximal screen, which polarizes the tangent cone of S, here a
    # segment (the polar of a point's tangent cone {0} needs none)
    n = 9
    doc = {"n": n, "m": 1,
           "objective": " + ".join(f"x{i}^2" for i in range(1, n + 1)),
           "constraints": ["x1"],
           "K": {"kind": "interval", "lo": "-inf", "hi": 0.0},
           "S": {"kind": "box", "intervals": [[0.0, 0.0]] * (n - 1) + [[0.0, 0.5]]},
           "xbar": [0.0] * n}
    path = tmp_path / "halfspace9.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["check-necessary", str(path), "--form", "implicit",
                     "--direction", "0,1,0,0,0,0,0,0,0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("sharpcheck: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["check-necessary", "verify-growth"])
def test_an_overflow_is_inconclusive_without_warnings(command, capsys, monkeypatch):
    # a delta just inside the input bound overflows in the sampled checks
    monkeypatch.chdir(ROOT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command, "fixtures/first_example.json", "--delta", "4e307"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("sharpcheck: FloatingPointError: overflow")
    assert captured.err.count("\n") == 1


def test_sufficient_point_without_boundary_points(tmp_path):
    # xbar is interior to the box S, so N_S(xbar) = {0} admits no direction
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


def test_sufficient_checks_on_a_feasible_set_of_one_point(tmp_path, capsys):
    # g = x1^2 <= 0 holds at x1 = 0 alone: at d = 1 the outer second-order
    # preimage is empty and the asymptotic one is {0}
    doc = {"n": 1, "m": 1, "objective": "x1^2", "constraints": ["x1^2"],
           "K": {"kind": "interval", "lo": "-inf", "hi": 0.0},
           "S": {"kind": "point", "at": [0.0]}, "xbar": [0.0]}
    path = tmp_path / "one_point.json"
    path.write_text(json.dumps(doc))
    code, report = run_machine(["check-sufficient", str(path), "--mode", "point",
                                "--kappa", "0.5"])
    rep = json.loads(report)
    assert code == rep["exit_code"] == 2
    assert rep["verdict"] == "inconclusive"
    assert rep["diagnostics"][-1] == "both second-order objects are degenerate at d = [1.0]"
    capsys.readouterr()
    # isolated mode has no degeneracy stop and reaches the growth oracle's
    # replay, which samples no feasible point other than xbar
    assert cli.main(["check-sufficient", str(path), "--mode", "isolated"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sharpcheck: OracleError: thin feasible set")
    assert err.count("\n") == 1 and "Traceback" not in err


# n <= 3: from n = 4 on the direction mesh itself is drawn from the seed
@pytest.mark.parametrize("name", ["first_example", "parabola", "second_example",
                                  "lifted_n3"])
def test_sufficient_point_diagnostics_do_not_depend_on_the_seed(name, monkeypatch):
    # every object of the point check is built at xbar; only the growth
    # oracle's replay samples
    monkeypatch.chdir(ROOT)
    seen = set()
    for seed in ("1", "2", "3"):
        _, report = run_machine(["check-sufficient", f"fixtures/{name}.json", "--mode",
                                 "point", "--kappa", "0.25", "--seed", seed])
        seen.add(tuple(line for line in json.loads(report)["diagnostics"]
                       if not line.startswith("growth oracle replay")))
    assert len(seen) == 1


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
    # JSON true is a Python int; it is not a dimension
    "n-boolean": ({"n": True}, []),
    "m-boolean": ({"m": True}, []),
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
    # the reader takes "inf" for every number, but only interval and box
    # endpoints may be infinite
    "polyhedron-inf-rhs": ({"K": {"kind": "polyhedron",
                                  "rows": [[[1], 0], [[1], "inf"]]}}, []),
    "halfspace-inf-offset": ({"K": {"kind": "halfspace", "normal": [1],
                                    "offset": "-inf"}}, []),
    "ball-inf-radius": ({"K": {"kind": "ball", "center": [0], "radius": "inf"}}, []),
    "point-inf": ({"S": {"kind": "point", "at": [0, "inf"]}}, []),
    "finite-inf": ({"S": {"kind": "finite", "points": [[0, 0], [1, "inf"]]}}, []),
    # a finite set is the union of its points: at least one, of one dimension
    "finite-empty": ({"S": {"kind": "finite", "points": []}}, []),
    "finite-mixed-dimensions": ({"S": {"kind": "finite", "points": [[0, 0], [1]]}}, []),
    "xbar-inf": ({"xbar": [0, "inf"]}, []),
    # polyhedron rows and equalities are [a, b] pairs, and dim an integer
    "polyhedron-long-row": ({"K": {"kind": "polyhedron",
                                   "rows": [[[1.0], 0.0, 5]]}}, []),
    "polyhedron-short-row": ({"K": {"kind": "polyhedron", "rows": [[[1.0]]]}}, []),
    "polyhedron-long-equality": ({"K": {"kind": "polyhedron",
                                        "equalities": [[[1.0], 0.0, 5]]}}, []),
    "polyhedron-dim-string": ({"K": {"kind": "polyhedron", "dim": "x"}}, []),
    "polyhedron-dim-float": ({"K": {"kind": "polyhedron", "rows": [[[1.0], 0.0]],
                                    "dim": 1.7}}, []),
    "polyhedron-dim-bool": ({"K": {"kind": "polyhedron", "rows": [[[1.0], 0.0]],
                                   "dim": True}}, []),
    # coefficients must be finite after normalization
    "coefficient-inf": ({"objective": "1e999*x1"}, []),
    "coefficient-nan": ({"objective": "x2 + 1e999 - 1e999"}, []),
    "coefficient-overflow": ({"objective": "1e200*1e200*x2"}, []),
    # the reference checks sample within 2 delta of xbar
    "delta-too-large-document": ({"options": {"delta": 1e308}}, []),
    "delta-too-large-flag": ({}, ["--delta", "1e308"]),
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


def test_a_union_member_error_is_prefixed_once(tmp_path, capsys):
    doc = json.loads((ROOT / "fixtures" / "parabola.json").read_text())
    doc["K"] = {"kind": "union", "members": [
        {"kind": "interval", "lo": "-inf", "hi": 0.0},
        {"kind": "polyhedron", "rows": [[[1.0]]]}]}
    path = tmp_path / "member.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check-necessary", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.count(": K:") == 1 and err.count("\n") == 1, err


def test_growth_witnesses_on_the_cubic_document_are_feasible(tmp_path):
    # the feasible set is {0} = S, so every kappa holds
    doc = {"n": 2, "m": 2, "objective": "x2^2 - 2*x1",
           "constraints": ["x1^3", "x2^2 - x1"],
           "K": {"kind": "box", "intervals": [["-inf", 0.0], ["-inf", 0.0]]},
           "S": {"kind": "point", "at": [0.0, 0.0]}, "xbar": [0.0, 0.0]}
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(doc))
    code, report = run_machine(["verify-growth", str(path), "--kappa=1"])
    rep = json.loads(report) if report else {"witnesses": []}
    assert code != 1
    p = cli.load_problem(path)
    for w in rep["witnesses"]:
        assert p.K.contains(p.g_value(w["x"]), tol=0.0), w


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


NECESSARY_FORMS = {
    "implicit-proximal": ["--form", "implicit", "--mode", "proximal"],
    "implicit-tangent": ["--form", "implicit", "--mode", "tangent-distance"],
    "explicit": ["--form", "explicit"],
    "clarke": ["--form", "clarke"],
    "nondegenerate": ["--form", "nondegenerate"],
}
SCALE_CASES = [(name, unit, form, want)
               for name, unit, want in (("parabola", (1, 0), ("satisfied", 1)),
                                        ("first_example", (0, 1), ("satisfied", 1)))
               for form in NECESSARY_FORMS]
SCALE_CASES += [("second_example", (1,), form, ("violated", -0.5))
                for form in ("implicit-proximal", "implicit-tangent")]


@pytest.mark.parametrize("name,unit,form,want", SCALE_CASES,
                         ids=[f"{c[0]}-{c[2]}" for c in SCALE_CASES])
def test_necessary_bounds_do_not_depend_on_the_direction_scale(name, unit, form, want,
                                                               monkeypatch):
    # both sides of every kappa quotient are homogeneous of degree 2 in d
    monkeypatch.chdir(ROOT)
    for scale in ("1", "1e-3", "1e-5", "1e-7"):
        direction = ",".join(scale if u else "0" for u in unit)
        code, report = run_machine(["check-necessary", f"fixtures/{name}.json",
                                    *NECESSARY_FORMS[form], "--direction", direction])
        doc = json.loads(report)
        assert (doc["verdict"], doc["kappa_bounds"]["max_admissible"]) == want, scale
        assert code == doc["exit_code"]


@pytest.mark.parametrize("form", ["implicit-proximal", "implicit-tangent", "explicit",
                                  "clarke"])
def test_a_direction_leaving_the_steep_tangent_cone_misses_the_hypotheses(form, tmp_path):
    # Dg = (100, 0): d = (1e-8, 1) lies within 1e-7 of the critical cone in
    # d-space, but Dg d = 1e-6 leaves T_K(0) = (-inf, 0] by more than 1e-7
    doc = {"n": 2, "m": 1, "objective": "x1^2 + x2^2", "constraints": ["100*x1"],
           "K": {"kind": "interval", "lo": "-inf", "hi": 0.0},
           "S": {"kind": "point", "at": [0.0, 0.0]}, "xbar": [0.0, 0.0]}
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(doc))
    for direction, want in (("0,1", ("satisfied", 1)),
                            ("1e-8,1", ("hypotheses-not-met", None)),
                            ("5e-8,1", ("hypotheses-not-met", None))):
        code, report = run_machine(["check-necessary", str(path), *NECESSARY_FORMS[form],
                                    "--direction", direction])
        rep = json.loads(report)
        assert (rep["verdict"], rep["kappa_bounds"].get("max_admissible")) == want
        assert code == rep["exit_code"] == (0 if want[1] else 2)
        if not want[1]:
            assert rep["diagnostics"] == ["direction is not in the critical cone"]


@pytest.mark.parametrize("form", ["implicit-proximal", "implicit-tangent", "explicit",
                                  "clarke"])
def test_sweeps_screen_out_directions_leaving_the_steep_tangent_cone(form, tmp_path):
    # Dg = (100, 5e-6): the mesh direction d = (0, 1) lies in the critical
    # cone to 1e-7 in d-space, but Dg d = 5e-6 leaves T_K(0) = (-inf, 0], so
    # the sweep's screen drops it before any checker runs
    doc = {"n": 2, "m": 1, "objective": "x1^2 + x2^2",
           "constraints": ["100*x1 + 0.000005*x2"],
           "K": {"kind": "interval", "lo": "-inf", "hi": 0.0},
           "S": {"kind": "point", "at": [0.0, 0.0]}, "xbar": [0.0, 0.0],
           "options": {"delta": 0.05}}
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(doc))
    code, report = run_machine(["check-necessary", str(path), *NECESSARY_FORMS[form]])
    rep = json.loads(report)
    assert code == rep["exit_code"] == 0
    assert (rep["verdict"], rep["kappa_bounds"]["max_admissible"]) == ("satisfied", 1)
    assert rep["diagnostics"][0].startswith("sweep over 1 base points, 52 (x, d) pairs;")
    assert not any("did not meet the form's hypotheses" in line
                   for line in rep["diagnostics"])


@pytest.mark.parametrize("mode,count", [("point", "direction mesh: 360 admissible"),
                                        ("isolated", "critical mesh directions: 360")])
def test_sufficient_mesh_directions_leaving_the_steep_tangent_cone_are_dropped(
        mode, count, tmp_path):
    # Dg = (100, 5e-6): the mesh direction d = (0, 1) lies in the critical
    # cone to 1e-7 in d-space, but Dg d = 5e-6 leaves T_K(0) = (-inf, 0]
    doc = {"n": 2, "m": 1, "objective": "x1^2 + x2^2",
           "constraints": ["100*x1 + 0.000005*x2"],
           "K": {"kind": "interval", "lo": "-inf", "hi": 0.0},
           "S": {"kind": "point", "at": [0.0, 0.0]}, "xbar": [0.0, 0.0],
           "options": {"delta": 0.05}}
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(doc))
    code, report = run_machine(["check-sufficient", str(path), "--mode", mode,
                                "--kappa", "0.5"])
    rep = json.loads(report)
    assert code == rep["exit_code"] == 2
    assert rep["verdict"] == "hypotheses-not-met"
    assert rep["diagnostics"][0].startswith(count)
    assert not any("degenerate" in line for line in rep["diagnostics"])


def test_check_cq_with_k_above_the_dimension_cap_is_inconclusive(tmp_path, capsys):
    # K is a union of two halfspaces of R^9, one more dimension than the
    # double description enumerates; check-necessary stops there too
    m = 9
    normals = np.eye(m)[:2].tolist()
    doc = {"n": 1, "m": m, "objective": "x1^2",
           "constraints": ["x1", "-1*x1"] + ["0*x1"] * (m - 2),
           "K": {"kind": "union", "members": [
               {"kind": "halfspace", "normal": a, "offset": 0.0} for a in normals]},
           "S": {"kind": "point", "at": [0.0]}, "xbar": [0.0]}
    path = tmp_path / "halfspaces9.json"
    path.write_text(json.dumps(doc))
    for argv in (["check-cq", str(path), "--kind", "foscms", "--direction", "1"],
                 ["check-necessary", str(path), "--form", "explicit", "--direction", "1"]):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("sharpcheck: DimensionCapError: ")
        assert captured.err.count("\n") == 1


def test_one_sided_preimages_withhold_the_rejection(tmp_path):
    # g = x1^5 is flat at xbar: no qualification certifies the tangent
    # preimages, so a negative bound is reported without a rejection
    doc = {"n": 1, "m": 1, "objective": "-1*x1^2", "constraints": ["x1^5"],
           "K": {"kind": "interval", "lo": "-inf", "hi": 0.0},
           "S": {"kind": "point", "at": [0.0]}, "xbar": [0.0]}
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    code, report = run_machine(["check-necessary", str(path), "--direction", "1"])
    rep = json.loads(report)
    assert code == rep["exit_code"] == 2
    assert rep["verdict"] == "inconclusive"
    assert rep["kappa_bounds"] == {"max_admissible": -1}
    assert rep["cq_status"] == {"mscq": "unverified"}
    assert ("rejection withheld: tangent preimages are one-sided without a "
            "constraint qualification") in rep["diagnostics"]


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


@pytest.mark.parametrize("seed,kind", [(2, "error"), (36, "warning"), (0, "clean")])
def test_reference_point_problems_reach_each_outcome(seed, kind):
    assert _reference_point_outcome(reference_point_problem(seed))[0] == kind


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1))
@example(2)
@example(36)
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


def test_tolerance_option_is_an_unknown_member(tmp_path, capsys):
    # no check reads a tolerance, so report format 3 dropped the option
    doc = _interval_document(1.0, 0)
    doc["options"]["tolerance"] = 1e-9
    path = tmp_path / "tol.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["verify-growth", str(path), "--count", "200"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "options: unknown member(s) ['tolerance']" in captured.err


def test_reference_point_leaving_the_feasible_set_is_a_diagnostic(tmp_path):
    # seed 6: the 25 points the instance tests stay below 0.9, one of the
    # 100 points the loader tests does not
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(_interval_document(0.9, 6)))
    code, report = run_machine(["verify-growth", str(path), "--count", "200"])
    assert code in (0, 1, 2)
    assert json.loads(report)["diagnostics"][-1] == (
        "warning: a sampled reference point leaves the feasible set near [0.922981]")


def test_reference_probes_use_the_seed_flag(tmp_path):
    # the document's seed 0 fails the instance's probe; the run's seed 6
    # passes it, and the run is probed only under its own options
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(_interval_document(0.9, 0)))
    code, report = run_machine(["verify-growth", str(path), "--count", "200",
                                "--seed", "6"])
    assert code in (0, 1, 2)
    assert json.loads(report)["diagnostics"][-1] == (
        "warning: a sampled reference point leaves the feasible set near [0.922981]")


def test_a_reference_probe_failing_under_the_seed_flag_names_the_document(tmp_path,
                                                                          capsys):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(_interval_document(0.9, 6)))
    code = cli.main(["verify-growth", str(path), "--count", "200", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith(f"sharpcheck: {path}: reference set is not "
                                   "contained in the feasible set")
    assert captured.err.count("\n") == 1


_SINGLETON_COMMANDS = (
    *(["check-necessary", "--form", "implicit", "--mode", mode]
      for mode in ("proximal", "tangent-distance")),
    ["check-necessary", "--form", "explicit"],
    ["check-necessary", "--form", "clarke"],
    ["check-sufficient", "--mode", "point", "--kappa", "0.25"],
    ["check-sufficient", "--mode", "isolated"],
    ["verify-growth", "--count", "200", "--kappa", "0.5"],
)


def test_point_sampler_reports_match_the_generic_sampler(tmp_path, monkeypatch):
    # a singleton S returns its point once without drawing; every caller
    # (load-time checks, sweeps, point and isolated checks) must report the
    # same bytes as with the generic sampler's repeated draws.  The offset
    # point sits inside the 1e-7 membership tolerance of xbar, so the
    # isolated check sees it, and beyond a delta of 1e-8, so the sweeps drop it
    monkeypatch.chdir(ROOT)
    offset = json.loads((ROOT / "fixtures" / "parabola.json").read_text())
    offset["S"]["at"] = [3e-8, 4e-8]
    (tmp_path / "offset.json").write_text(json.dumps(offset))
    documents = [["fixtures/parabola.json"], ["fixtures/lifted_n3.json"],
                 [str(tmp_path / "offset.json")],
                 [str(tmp_path / "offset.json"), "--delta", "1e-8"]]
    runs = [[cmd[0], doc[0], *cmd[1:], *doc[1:]]
            for doc in documents for cmd in _SINGLETON_COMMANDS]
    fast = [run_machine(argv) for argv in runs]
    monkeypatch.setattr(sets.PointSet, "sample_near", sets.BaseSet.sample_near)
    for argv, got in zip(runs, fast):
        assert got == run_machine(argv), argv


def test_singleton_reference_set_builds_no_generator(monkeypatch):
    # the load-time checks, the sweeps and both sufficient checks hand S a
    # stream's seed, and a singleton S draws nothing.  kappa 100 on the
    # parabola and the isolated check of lifted_n3 without a request stop
    # before the growth oracle, which always draws
    monkeypatch.chdir(ROOT)

    def refuse(*args, **kwargs):
        raise AssertionError("np.random.default_rng called")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    parabola = cli.load_problem("fixtures/parabola.json")
    lifted = cli.load_problem("fixtures/lifted_n3.json")
    for mode in ("implicit-proximal", "implicit-tangent", "explicit", "clarke"):
        assert certify.sweep_necessary(parabola, mode=mode).verdict == "satisfied"
    assert certify.sufficient_point_check(
        with_options(parabola, kappa=100.0)).verdict == "hypotheses-not-met"
    assert certify.sufficient_isolated_check(lifted).verdict == "inconclusive"


def test_explicit_bounds_on_second_example_do_not_depend_on_the_direction_scale(
        monkeypatch):
    monkeypatch.chdir(ROOT)
    got = {}
    for scale in ("1", "1e-3", "1e-5", "1e-7"):
        code, report = run_machine(["check-necessary", "fixtures/second_example.json",
                                    "--form", "explicit", "--direction", scale])
        doc = json.loads(report)
        assert code == doc["exit_code"]
        got[scale] = (doc["verdict"], doc["kappa_bounds"]["max_admissible"])
    assert len(set(got.values())) == 1, got


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


_TEXT = st.text(max_size=8) | st.sampled_from(["\u00e9t\u00e9", "\x00\x1f\x7f", "\u2028\ud7ff",
                                               '"\\/\b\f\n\r\t', "\U0001f600"])
_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | _TEXT
           | st.floats().map(np.float64) | st.lists(st.floats(), max_size=3).map(np.array))


@settings(max_examples=200, deadline=None)
@given(st.recursive(_LEAVES, lambda kids: st.lists(kids, max_size=4)
                    | st.lists(kids, max_size=3).map(tuple)
                    | st.dictionaries(_TEXT, kids, max_size=4), max_leaves=24))
@example({"K\u00e9y\x01": ["\u00fc\n", float("nan"), float("inf"), -float("inf")],
          "a": {"\x1f": "\u2028", "": [None, True, 1, -0.0]}})
def test_canonical_bytes_match_the_reference_writer(doc):
    assert cli.canonical_bytes(doc) == canonical_bytes_reference(doc)


def test_every_exported_name_resolves():
    missing = [name for name in sharpcheck.__all__ if not hasattr(sharpcheck, name)]
    assert missing == []


def _unused_imports(path: Path) -> list[str]:
    """The names a module imports at its top level and never reads: not as
    a name, not as the base of an attribute and not through ``__all__``."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    src = Path(sharpcheck.__file__).resolve().parent
    assert [u for path in sorted(src.glob("*.py")) for u in _unused_imports(path)] == []


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for case, args in CASES:
        path = GOLDEN / f"{case}.json"
        report = run_machine(args)[1]
        if not path.exists() or path.read_bytes() != report:
            path.write_bytes(report)
            print(case)
