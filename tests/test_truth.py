"""Ground truth under rotation: three instance families whose best growth
constant kappa* is known in closed form, after a random orthogonal change
of variables y = Q x.

* the rotated lifted parabola: f = y_n, g = sum_{i<n} a_i y_i^2 - y_n <= 0,
  kappa* = min a_i;
* the rotated half-space quadratic: f = sum c_i y_i^2, y_1 <= 0,
  kappa* = min c_i;
* the rotated subspace: f = sum_{i>k} c_i y_i^2, y_n <= 0, with S the
  subspace {y_i = 0, i > k} written as a polyhedron with equalities,
  kappa* = min c_i.

The first two have S = {0}; all three have xbar = 0.  The documents are
written as expanded polynomials, so no checker sees the axes the instance
was built on.  A constant counts as above or below the truth when it
misses kappa* by more than 0.1 * max(1, kappa*), the margin that covers the
finite sampling radius.

The tests check soundness: no sufficient mode certifies above kappa*, no
necessary sweep refutes kappa*, and the growth oracle never refutes half of
it.  The direction meshes miss the lower-dimensional critical cone of the
lifted family.  Isolated mode then certifies only the requested constant,
after the growth oracle replays it, so it stays sound there; the lifted
sweeps hold vacuously, and their tightness test is a strict xfail until
exact critical directions land (ROADMAP item 1).  On the subspace family
the mesh finds no critical direction either: the proximal sweeps read
unbounded and isolated mode does not apply, since xbar is not isolated in
S, so its tightness test is a strict xfail naming item 1 too.  Item 1
closes these 7 strict xfails.  The tangent-distance sweep must not refute
the truth there either: at base points of S other than xbar, grad f is a
rounding residue, and the multiplier it leaves must be zero, not a ~1e-18
multiplier that meets an unbounded outer second-order set.

A fourth family has no closed form: the generic stationary programs of
``helpers.generic_stationary_document`` (ROADMAP item 14).  xbar is
stationary by construction but not always a minimiser, and there a
necessary sweep must not exit 0.  The mesh misses their critical cones
too, so that test is a strict xfail naming item 1 as well.
"""
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sharpcheck.cli import load_problem

from helpers import generic_stationary_document, run_machine

DELTA = 0.05
SWEEPS = (("implicit", "proximal"), ("implicit", "tangent-distance"),
          ("explicit", "proximal"), ("clarke", "proximal"))
# each example makes up to four CLI calls
FEW = settings(derandomize=True, deadline=None, max_examples=4)
ITEM_1 = ("ROADMAP item 1: the direction mesh misses the lower-dimensional "
          "critical cone of the lifted family")
ITEM_1_SUBSPACE = ("ROADMAP item 1: the direction mesh finds no critical direction "
                   "of the subspace-S family, so the sweeps hold vacuously")
ITEM_1_GENERIC = ("ROADMAP item 1: the direction mesh misses the critical cone of "
                  "the generic program, so the sweeps hold vacuously")
# an item 14 program whose xbar is not a local minimiser (n = 3, m = 1)
NON_MINIMISER_SEED = 8
# (n, k): the dimension and that of the subspace S
SUBSPACES = ((2, 1), (3, 1), (4, 2))


def _linear(v) -> list[str]:
    return [f"{float(c)!r}*x{j + 1}" for j, c in enumerate(v)]


def _quadratic(M) -> list[str]:
    """The terms of x' M x for a symmetric M."""
    n = len(M)
    return [f"{float(M[j, k] if j == k else 2.0 * M[j, k])!r}*x{j + 1}*x{k + 1}"
            for j in range(n) for k in range(j, n)]


def rotated_document(family: str, curv, seed: int, k: int = 0) -> tuple[dict, float]:
    """(problem document, kappa*) of the instance of ``family`` with the
    curvatures curv, rotated by the Q factor of a seeded normal matrix.  The
    subspace family has dimension k + len(curv) and an S of dimension k."""
    curv = np.asarray(curv, dtype=float)
    n = {"lifted": curv.size + 1, "subspace": k + curv.size}.get(family, curv.size)
    Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    S = {"kind": "point", "at": [0.0] * n}
    if family == "lifted":
        f = _linear(Q[-1])
        g = _quadratic(Q.T @ np.diag([*curv, 0.0]) @ Q) + _linear(-Q[-1])
    elif family == "subspace":
        f = _quadratic(Q.T @ np.diag([0.0] * k + [*curv]) @ Q)
        g = _linear(Q[-1])
        S = {"kind": "polyhedron", "dim": n,
             "equalities": [[Q[i].tolist(), 0.0] for i in range(k, n)]}
    else:
        f = _quadratic(Q.T @ np.diag(curv) @ Q)
        g = _linear(Q[0])
    doc = {"n": n, "m": 1, "objective": " + ".join(f),
           "constraints": [" + ".join(g)],
           "K": {"kind": "interval", "lo": "-inf", "hi": 0.0},
           "S": S, "xbar": [0.0] * n,
           "options": {"delta": DELTA, "seed": 7}}
    return doc, float(curv.min())


@st.composite
def rotated(draw, family):
    """A rotated instance of ``family``: at n = 2..8, or at one of the
    SUBSPACES for the subspace family."""
    if family == "subspace":
        n, k = draw(st.sampled_from(SUBSPACES))
    else:
        n, k = draw(st.integers(2, 8)), 0
    size = {"lifted": n - 1, "subspace": n - k}.get(family, n)
    curv = draw(st.lists(st.floats(0.5, 2.0), min_size=size, max_size=size))
    return rotated_document(family, curv, draw(st.integers(0, 2**32 - 1)), k)


def lifted_case(n: int) -> tuple[dict, float]:
    """A fixed rotated lifted parabola at dimension n."""
    rng = np.random.default_rng(n)
    return rotated_document("lifted", rng.uniform(0.5, 2.0, size=n - 1), n)


def subspace_case(n: int, k: int) -> tuple[dict, float]:
    """A fixed rotated subspace-S instance with curvatures in [0.6, 1.4]."""
    return rotated_document("subspace", np.linspace(0.6, 1.4, n - k), n, k)


def _tol(truth: float) -> float:
    return 0.1 * max(1.0, truth)


def _kappa(report: dict, member: str) -> float:
    v = report["kappa_bounds"][member]
    return {"unbounded": math.inf, "-unbounded": -math.inf}.get(v, v)


def _check(doc: dict, *argv: str) -> dict:
    """The machine report of one CLI call on the document, which must not
    exit 3 (an input error)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rotated.json"
        path.write_text(json.dumps(doc))
        code, report = run_machine([argv[0], str(path), *argv[1:]])
    assert code in (0, 1, 2), argv
    return json.loads(report)


def _assert_sufficient_sound(doc, truth, mode):
    for k in (0.5 * truth, 2.0 * truth):
        report = _check(doc, "check-sufficient", "--mode", mode, f"--kappa={k!r}")
        if report["verdict"] == "certified":
            assert _kappa(report, "certified") <= truth + _tol(truth), (mode, k)


def _sweep(doc, form, mode) -> dict:
    return _check(doc, "check-necessary", "--form", form, "--mode", mode)


@pytest.mark.parametrize("family", ["lifted", "halfspace", "subspace"])
@FEW
@given(data=st.data())
def test_point_mode_never_certifies_above_the_truth(family, data):
    doc, truth = data.draw(rotated(family))
    _assert_sufficient_sound(doc, truth, "point")


@FEW
@given(rotated("halfspace"))
def test_isolated_mode_never_certifies_above_the_truth_on_halfspaces(case):
    _assert_sufficient_sound(*case, "isolated")


@FEW
@given(rotated("subspace"))
def test_isolated_mode_never_certifies_above_the_truth_on_subspaces(case):
    _assert_sufficient_sound(*case, "isolated")


# fixed instances: the empty critical mesh certifies only a replayed request
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_isolated_mode_never_certifies_above_the_truth_on_lifted(n):
    _assert_sufficient_sound(*lifted_case(n), "isolated")


@pytest.mark.parametrize("family", ["lifted", "halfspace"])
@FEW
@given(data=st.data())
def test_sweeps_never_refute_the_truth(family, data):
    doc, truth = data.draw(rotated(family))
    for form, mode in SWEEPS:
        _assert_sweep_sound(doc, truth, form, mode)


def _assert_sweep_sound(doc, truth, form, mode):
    report = _sweep(doc, form, mode)
    assert report["verdict"] != "violated", (form, mode)
    assert _kappa(report, "max_admissible") >= truth - _tol(truth), (form, mode)


@pytest.mark.parametrize("form,mode", [s for s in SWEEPS if s[1] != "tangent-distance"])
@FEW
@given(case=rotated("subspace"))
def test_sweeps_never_refute_the_truth_on_subspaces(form, mode, case):
    _assert_sweep_sound(*case, form, mode)


# fixed instances: a failing example would make hypothesis shrink it
@pytest.mark.parametrize("n,k", SUBSPACES)
def test_tangent_distance_sweep_never_refutes_the_truth_on_subspaces(n, k):
    _assert_sweep_sound(*subspace_case(n, k), "implicit", "tangent-distance")


# a strict xfail on fixed instances expects every case to fail
@pytest.mark.xfail(strict=True, reason=ITEM_1)
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_lifted_sweeps_are_tight(n):
    doc, truth = lifted_case(n)
    for form, mode in SWEEPS:
        report = _sweep(doc, form, mode)
        assert _kappa(report, "max_admissible") <= truth + _tol(truth), (form, mode)


@pytest.mark.parametrize("family", ["lifted", "halfspace"])
@FEW
@given(data=st.data())
def test_growth_oracle_never_refutes_half_the_truth(family, data):
    doc, truth = data.draw(rotated(family))
    report = _check(doc, "verify-growth", f"--kappa={0.5 * truth!r}")
    assert report["verdict"] != "violated"


@pytest.mark.xfail(strict=True, reason=ITEM_1_SUBSPACE)
@pytest.mark.parametrize("n,k", SUBSPACES)
def test_subspace_sweeps_are_tight(n, k):
    doc, truth = subspace_case(n, k)
    for form, mode in SWEEPS:
        report = _sweep(doc, form, mode)
        assert _kappa(report, "max_admissible") <= truth + _tol(truth), (form, mode)


@FEW
@given(rotated("subspace"))
def test_growth_oracle_reads_the_subspace_truth(case):
    doc, truth = case
    report = _check(doc, "verify-growth", f"--kappa={0.5 * truth!r}")
    assert report["verdict"] != "violated"
    assert _kappa(report, "kappa_hat") >= truth - _tol(truth)


def test_growth_oracle_accepts_the_exact_subspace_truth():
    # kappa_hat reads 0.59999999992792397 here: rounding in f / dist(x, S)^2
    doc, truth = subspace_case(2, 1)
    report = _check(doc, "verify-growth", f"--kappa={truth!r}")
    assert truth == 0.6 and report["verdict"] == "satisfied"
    assert report["exit_code"] == 0


@pytest.mark.parametrize("seed", [0, 1, 2, 3, NON_MINIMISER_SEED])
def test_generic_programs_load_with_a_stationary_xbar(seed, tmp_path):
    doc, lam = generic_stationary_document(seed)
    path = tmp_path / "generic.json"
    path.write_text(json.dumps(doc))
    p = load_problem(path)
    assert (p.n, p.m) == (doc["n"], doc["m"]) and (p.n, p.m) in {(2, 1), (2, 2),
                                                                (3, 1), (3, 2)}
    # grad f(xbar) + Dg(xbar)' lam = 0 with lam >= 0 in N_K(g(xbar)) at g = 0
    assert np.all(lam >= 0.0) and np.all(p.g_value(p.xbar) == 0.0)
    residual = p.f_jet(p.xbar).gradient + p.g_jet(p.xbar).jacobian.T @ lam
    assert np.allclose(residual, 0.0, atol=1e-12)


def test_the_pinned_generic_program_is_not_a_minimiser():
    doc, _ = generic_stationary_document(NON_MINIMISER_SEED)
    report = _check(doc, "verify-growth")
    assert report["verdict"] == "violated"
    assert _kappa(report, "kappa_hat") < 0.0


@pytest.mark.xfail(strict=True, reason=ITEM_1_GENERIC)
def test_no_sweep_exits_0_on_a_generic_non_minimiser():
    doc, _ = generic_stationary_document(NON_MINIMISER_SEED)
    for form, mode in SWEEPS:
        assert _sweep(doc, form, mode)["exit_code"] != 0, (form, mode)
