"""Ground truth under rotation: two instance families whose best growth
constant kappa* is known in closed form, after a random orthogonal change
of variables y = Q x.

* the rotated lifted parabola: f = y_n, g = sum_{i<n} a_i y_i^2 - y_n <= 0,
  kappa* = min a_i;
* the rotated half-space quadratic: f = sum c_i y_i^2, y_1 <= 0,
  kappa* = min c_i.

Both have S = {0} and xbar = 0.  The documents are written as expanded
polynomials, so no checker sees the axes the instance was built on.  A
constant counts as above or below the truth when it misses kappa* by more
than 0.1 * max(1, kappa*), the margin that covers the finite sampling
radius.

The tests check soundness: no sufficient mode certifies above kappa*, no
necessary sweep refutes kappa*, and the growth oracle never refutes half of
it.  The direction meshes miss the lower-dimensional critical cone of the
lifted family, so isolated mode certifies an unbounded constant there and
the lifted sweeps hold vacuously; those two tests are strict xfails until
exact critical directions land (ROADMAP item 2).
"""
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import run_machine

DELTA = 0.05
SWEEPS = (("implicit", "proximal"), ("implicit", "tangent-distance"),
          ("explicit", "proximal"), ("clarke", "proximal"))
# each example makes up to four CLI calls
FEW = settings(derandomize=True, deadline=None, max_examples=4)
ITEM_2 = ("ROADMAP item 2: the direction mesh misses the lower-dimensional "
          "critical cone of the lifted family")


def _linear(v) -> list[str]:
    return [f"{float(c)!r}*x{j + 1}" for j, c in enumerate(v)]


def _quadratic(M) -> list[str]:
    """The terms of x' M x for a symmetric M."""
    n = len(M)
    return [f"{float(M[j, k] if j == k else 2.0 * M[j, k])!r}*x{j + 1}*x{k + 1}"
            for j in range(n) for k in range(j, n)]


def rotated_document(family: str, curv, seed: int) -> tuple[dict, float]:
    """(problem document, kappa*) of the instance of ``family`` with the
    curvatures curv, rotated by the Q factor of a seeded normal matrix."""
    curv = np.asarray(curv, dtype=float)
    n = curv.size + 1 if family == "lifted" else curv.size
    Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    if family == "lifted":
        f = _linear(Q[-1])
        g = _quadratic(Q.T @ np.diag([*curv, 0.0]) @ Q) + _linear(-Q[-1])
    else:
        f = _quadratic(Q.T @ np.diag(curv) @ Q)
        g = _linear(Q[0])
    doc = {"n": n, "m": 1, "objective": " + ".join(f),
           "constraints": [" + ".join(g)],
           "K": {"kind": "interval", "lo": "-inf", "hi": 0.0},
           "S": {"kind": "point", "at": [0.0] * n}, "xbar": [0.0] * n,
           "options": {"delta": DELTA, "seed": 7}}
    return doc, float(curv.min())


@st.composite
def rotated(draw, family):
    """A rotated instance of ``family`` at n = 2..8."""
    n = draw(st.integers(2, 8))
    size = n - 1 if family == "lifted" else n
    curv = draw(st.lists(st.floats(0.5, 2.0), min_size=size, max_size=size))
    return rotated_document(family, curv, draw(st.integers(0, 2**32 - 1)))


def lifted_case(n: int) -> tuple[dict, float]:
    """A fixed rotated lifted parabola at dimension n."""
    rng = np.random.default_rng(n)
    return rotated_document("lifted", rng.uniform(0.5, 2.0, size=n - 1), n)


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


@pytest.mark.parametrize("family", ["lifted", "halfspace"])
@FEW
@given(data=st.data())
def test_point_mode_never_certifies_above_the_truth(family, data):
    doc, truth = data.draw(rotated(family))
    _assert_sufficient_sound(doc, truth, "point")


@FEW
@given(rotated("halfspace"))
def test_isolated_mode_never_certifies_above_the_truth_on_halfspaces(case):
    _assert_sufficient_sound(*case, "isolated")


# the xfails run fixed instances: a strict xfail expects every case to fail
@pytest.mark.xfail(strict=True, reason=ITEM_2)
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_isolated_mode_never_certifies_above_the_truth_on_lifted(n):
    _assert_sufficient_sound(*lifted_case(n), "isolated")


@pytest.mark.parametrize("family", ["lifted", "halfspace"])
@FEW
@given(data=st.data())
def test_sweeps_never_refute_the_truth(family, data):
    doc, truth = data.draw(rotated(family))
    for form, mode in SWEEPS:
        report = _sweep(doc, form, mode)
        assert report["verdict"] != "violated", (form, mode)
        assert _kappa(report, "max_admissible") >= truth - _tol(truth), (form, mode)


@pytest.mark.xfail(strict=True, reason=ITEM_2)
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
