"""Certification pipeline: critical cones, multiplier regions, constraint
qualifications, the necessary and sufficient condition checks, and the LP
duality / linearization cross-validations against the sampling oracles.
"""
import collections
import dataclasses
import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sharpcheck import certify, lp, tangents
from sharpcheck.certify import (
    DUALITY_TOL,
    _conic_primal,
    _dual_lp_max,
    _generators_of,
    _jet_data,
    certify_mscq,
    constraint_qualification_check,
    critical_cone,
    directional_multipliers,
    linearized_phi_tangents,
    multiplier_affine_set,
    necessary_clarke_check,
    necessary_explicit_check,
    necessary_implicit_check,
    sufficient_isolated_check,
    sufficient_point_check,
    sweep_necessary,
)
from sharpcheck.cli import canonical_bytes, load_problem
from sharpcheck.lp import maximize, reuse_scope
from sharpcheck.oracles import growth_constant_estimate, membership_by_definition
from sharpcheck.polyexpr import ProblemInstance, parse_expression
from sharpcheck.regions import PolyCell, Region, _content, region_subset
from sharpcheck.sets import Box, Interval, PointSet, UnionSet
from sharpcheck.tangents import (TangentError, directional_clarke_tangent, normal_cone,
                                 second_tangent, tangent_cone)

from helpers import (
    duality_instance,
    first_example,
    generic_stationary_document,
    linearization_instance,
    lp_nontrivial_point,
    parabola_example,
    parabola_family,
    random_catalog_instance,
    reference_implicit_parts,
    _solve_multiplier_lp,
    _strict_rows_for_direction,
    reference_multiplier_margin,
    region_compare,
    region_equal,
    second_example,
    with_options,
)


def cone_region(A=None, b=None, E=None, f=None, dim=2):
    return Region.from_cell(PolyCell(A, b, E, f, dim=dim))


def witness(report, part):
    for w in report.witnesses:
        if w.get("part") == part:
            return w
    raise AssertionError(f"no part-{part} witness in {report.witnesses}")


def degenerate_problem():
    # constraint identically zero against K = {0}: every x is feasible but
    # the Jacobian has a nontrivial left kernel
    return ProblemInstance(1, 1, parse_expression("x1", 1),
                           (parse_expression("0*x1", 1),),
                           Interval(0.0, 0.0), PointSet([0.0]), [0.0])


# ---------------------------------------------------------------- structure


def test_critical_cone_first_example():
    cc = critical_cone(first_example())
    want = cone_region(A=[[-1.0, 0.0]], b=[0.0])
    assert region_compare(cc, want).relation == "equal"


def test_critical_cone_parabola_is_a_line():
    cc = critical_cone(parabola_example())
    want = cone_region(E=[[0.0, 1.0]], f=[0.0])
    assert region_compare(cc, want).relation == "equal"


def test_multiplier_affine_set_second_example():
    # Dg(0) = (0, 1)^T and grad f(0) = 0: the multipliers are the line lam2 = 0
    aff = multiplier_affine_set(second_example())
    assert not aff.empty
    assert np.allclose(aff.lam0, [0.0, 0.0], atol=1e-9)
    line = cone_region(E=[[0.0, 1.0]], f=[0.0])
    assert region_compare(Region.from_cell(aff.as_cell()), line).relation == "equal"


def test_multiplier_affine_set_detects_unmatchable_gradient():
    aff = multiplier_affine_set(degenerate_problem())
    assert aff.empty


def test_directional_multipliers_second_example():
    p = second_example()
    axis = cone_region(E=[[0.0, 1.0]], f=[0.0])
    for kind in ("M", "C"):
        reg = directional_multipliers(p, None, [1.0], kind)
        assert region_compare(reg, axis).relation == "equal", kind
    m = directional_multipliers(p, None, [1.0], "M")
    c = directional_multipliers(p, None, [1.0], "C")
    assert region_subset(m, c)[0]


# ------------------------------------------------- constraint qualifications


def test_cq_first_example_all_kinds_hold():
    p = first_example()
    for kind in ("FOSCMS", "SOSCMS", "DirRCQ", "NONDEG"):
        res = constraint_qualification_check(p, None, [0.0, 1.0], kind)
        assert res.kind == kind.upper()
        assert res.holds, kind
        assert res.witness is None


def test_cq_degenerate_jacobian_fails_with_witness():
    res = constraint_qualification_check(degenerate_problem(), None, [1.0],
                                         "FOSCMS")
    assert not res.holds
    assert res.witness is not None
    assert np.linalg.norm(res.witness) > 1e-9


def _cq_instance(seed, sigma_min):
    """g(x) = J x + c x1^2 into a union of two orthant boxes, xbar = 0, with
    J an (m, 3) matrix of singular values from 1 down to sigma_min; and a
    direction d with J d pointing into the first box where J allows."""
    rng = np.random.default_rng(seed)
    n, m = 3, int(rng.integers(1, 3))
    U, _ = np.linalg.qr(rng.normal(size=(m, m)))
    V, _ = np.linalg.qr(rng.normal(size=(n, n)))
    J = U @ np.diag(np.geomspace(1.0, sigma_min, m)) @ V[:m]
    c = rng.uniform(-1.0, 1.0, size=m)
    g = [parse_expression(" + ".join(f"{J[i, j]:.17g}*x{j + 1}" for j in range(n))
                          + f" + {c[i]:.17g}*x1^2", n) for i in range(m)]
    K = UnionSet([Box([(-1.0, 0.0)] * m), Box([(0.0, 1.0)] * m)])
    p = ProblemInstance(n, m, parse_expression("x1", n), g, K, PointSet(np.zeros(n)),
                        np.zeros(n))
    d = np.linalg.pinv(J) @ -np.abs(rng.normal(size=m)) if rng.random() < 0.8 else np.zeros(n)
    return p, J, d


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(-12.0, 0.0))
@example(0, -12.0)
@example(1, -5.0)
@example(2, 0.0)
@example(4, -12.0)   # a near-singular Dg: the probe poses its numerical kernel
@example(20, -12.0)
@example(22, -1.0)    # phase 1 moves an artificial off its own row's position
def test_full_rank_cq_shortcut_matches_the_generator_probe(seed, log_sigma):
    p, J, d = _cq_instance(seed, 10.0 ** log_sigma)
    probes = []

    def results():
        return [constraint_qualification_check(p, None, d, kind)
                for kind in ("FOSCMS", "SOSCMS", "DirRCQ")]

    # one reuse scope per side: the qualifications are memoised per point
    with pytest.MonkeyPatch.context() as mp:
        probe = certify._nontrivial_point
        mp.setattr(certify, "_nontrivial_point", lambda r: probes.append(r) or probe(r))
        with reuse_scope():
            fast = results()
        if log_sigma >= -5.5:
            assert probes == []
        mp.setattr(certify, "_full_row_rank", lambda J_: False)
        with reuse_scope():
            slow = results()
    assert len(probes) >= 3
    for a, b in zip(fast, slow):
        assert (a.kind, a.holds, a.notes) == (b.kind, b.holds, b.notes)
        assert (a.witness is None) == (b.witness is None)
        if a.witness is not None:
            assert a.witness.tobytes() == b.witness.tobytes()


def _random_cone_region(seed, dim, cells):
    """A union of homogeneous cells in R^dim: random rows, with some pairs of
    nearly opposite rows (thin wedges about a hyperplane) and some cells cut
    by the orthonormal equality rows of a numerical kernel, as
    ``constraint_qualification_check`` cuts its cones."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(cells):
        A = rng.normal(size=(int(rng.integers(0, dim + 2)), dim))
        if rng.random() < 0.5:
            a = rng.normal(size=dim)
            tilt = 10.0 ** rng.uniform(-9, -2) * rng.normal(size=dim)
            A = np.vstack([A, a, -a + tilt])
        E = np.zeros((0, dim))
        if rng.random() < 0.4:
            _, _, vh = np.linalg.svd(rng.normal(size=(dim, dim)))
            E = vh[:int(rng.integers(1, dim + 1))]
        out.append(PolyCell(A, np.zeros(A.shape[0]), E, np.zeros(E.shape[0]), dim=dim))
    return Region(out, dim=dim)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 5), st.integers(1, 3))
@example(0, 1, 1)
@example(3, 5, 3)
def test_generator_probe_agrees_with_the_lp_probe(seed, dim, cells):
    region = _random_cone_region(seed, dim, cells)
    point = certify._nontrivial_point(region)
    try:
        ref = lp_nontrivial_point(region)
    except lp.LpNumericalError:
        # the reference's simplex meets a singular basis on about a third
        # of the cells with rows opposite to within about 3e-6; it decides
        # nothing there
        ref = None
    else:
        assert (point is None) == (ref is None)
    for w in (point, ref):
        if w is not None:
            assert np.linalg.norm(w) > 1e-7
            assert region.contains(w, tol=1e-7)


def test_cq_on_a_box_union_poses_few_margin_lps(monkeypatch):
    """K is a polyhedral union, so its limiting normal cones come from the
    strata active at g(xbar); the face complex of the whole union posed 759
    margin programs for these three checks."""
    p, _, d = _cq_instance(0, 1e-3)
    margin = lp.max_margin
    posed = []
    monkeypatch.setattr(lp, "max_margin",
                        lambda *args, **kw: posed.append(1) or margin(*args, **kw))
    for kind in ("FOSCMS", "SOSCMS", "DirRCQ"):
        assert constraint_qualification_check(p, None, d, kind).holds, kind
    assert len(posed) <= 100


def test_mscq_cascade_methods():
    p1, pp = first_example(), parabola_example()
    ok, method, _ = certify_mscq(p1, p1.xbar, [0.0, 1.0])
    assert ok and method == "FOSCMS"
    ok, method, _ = certify_mscq(pp, pp.xbar, [1.0, 0.0])
    assert ok and method == "FOSCMS"
    p, _, d = linearization_instance(0)
    ok, method, _ = certify_mscq(p, p.xbar, d)
    assert ok and method == "polyhedral"


def test_mscq_shortcut_needs_affine_constraints():
    # g = x1^3 has a zero Hessian at xbar = 0, yet dist(x, Phi) / dist(g(x), K)
    # = 1/x1^2 is unbounded there: only a constraint map of degree one into
    # a polyhedral K is subregular without a check
    p = ProblemInstance(1, 1, parse_expression("x1^2", 1),
                        (parse_expression("x1^3", 1),), Interval(-math.inf, 0.0),
                        PointSet([0.0]), [0.0])
    ok, method, _ = certify_mscq(p, p.xbar, [1.0])
    assert method == "sampled (not a proof)"
    report = necessary_implicit_check(p, d=[1.0])
    assert report.cq_status == {"mscq": "sampled (not a proof)"}


def test_mscq_does_not_depend_on_earlier_instances():
    # a dropped instance's id() is often reused by the next one built, so
    # any result keyed by object identity would leak across them
    def instance(constraint):
        return ProblemInstance(2, 1, parse_expression("x2", 2),
                               (parse_expression(constraint, 2),),
                               Interval(-math.inf, 0.0), PointSet([0.0, 0.0]),
                               [0.0, 0.0])

    for _ in range(200):
        affine = instance("x1 - x2")
        assert certify_mscq(affine, np.zeros(2), (1.0, 0.0))[1] == "polyhedral"
        del affine
        curved = instance("x1^2 - x2")
        assert certify_mscq(curved, np.zeros(2), (1.0, 0.0))[1] == "FOSCMS"


# ------------------------------------------------------- linearized tangents


def test_linearized_tangents_first_example():
    p = first_example()
    outer = linearized_phi_tangents(p, None, [0.0, 1.0], "outer2")
    asym = linearized_phi_tangents(p, None, [0.0, 1.0], "asymp2")
    assert region_compare(outer, cone_region(A=[[-1.0, 0.0]], b=[-1.0])).relation == "equal"
    assert region_compare(asym, cone_region(A=[[-1.0, 0.0]], b=[0.0])).relation == "equal"
    assert any("exact under FOSCMS" in n for n in outer.notes)
    assert region_compare(outer, asym).relation == "strict_subset"


# ----------------------------------------------------------- necessary side


def test_necessary_implicit_first_example():
    r = necessary_implicit_check(first_example(), d=[0.0, 1.0])
    assert r.verdict == "satisfied"
    assert r.kappa_bounds["max_admissible"] == pytest.approx(1.0, abs=1e-6)
    assert witness(r, "i")["sigma_theta"] == pytest.approx(0.0, abs=1e-9)
    assert witness(r, "ii")["achieved"] == pytest.approx(2.0, abs=1e-9)


def test_necessary_implicit_tangent_distance_mode():
    r = necessary_implicit_check(first_example(), d=[1.0, 1.0],
                                 mode="tangent_distance")
    assert r.verdict == "satisfied"
    assert r.kappa_bounds["max_admissible"] == pytest.approx(1.0, abs=1e-6)
    # the check runs on d/|d| = (1, 1)/sqrt(2)
    assert any("dist(d, T_S(x)) = 0.707106781187" in dgn for dgn in r.diagnostics)


def test_necessary_implicit_second_example_rejects():
    r = necessary_implicit_check(second_example(), d=[1.0])
    assert r.verdict == "violated"
    assert r.kappa_bounds["max_admissible"] == pytest.approx(-0.5, abs=1e-9)
    wi, wii = witness(r, "i"), witness(r, "ii")
    assert np.allclose(wi["lam"], [0.0, 0.0], atol=1e-9)
    assert wi["sigma_theta"] == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(wii["lam"], [0.0, 0.0], atol=1e-9)
    assert wii["achieved"] == pytest.approx(-1.0, abs=1e-9)


def test_necessary_implicit_witness_replays():
    # the reported part-ii value must reproduce from the reported multiplier:
    # d' D2f d + sum_i lam_i d' D2g_i d - support of the outer second tangent
    for p, d in ((first_example(), [0.0, 1.0]), (second_example(), [1.0])):
        r = necessary_implicit_check(p, d=d)
        w = witness(r, "ii")
        dv = np.asarray(w["d"], dtype=float)
        lam = np.asarray(w["lam"], dtype=float)
        _, J, qfn, qgn = _jet_data(p, p.xbar)
        t2 = second_tangent(p.K, p.g_value(p.xbar), J @ dv, "outer")
        sigma = t2.support(lam)
        assert math.isfinite(sigma)
        value = qfn(dv) + float(lam @ qgn(dv)) - sigma
        assert value == pytest.approx(w["achieved"], abs=1e-7)


def _first_constraint_repeated(doc):
    """doc with its first constraint and K factor stated twice, so that
    Dg(x) has a repeated row and ker Dg(x)^T is nontrivial."""
    ray = {"kind": "interval", "lo": "-inf", "hi": 0.0}
    factors = doc["K"]["factors"] if doc["K"]["kind"] == "product" else [doc["K"]]
    assert all(f == ray for f in factors)
    return {**doc, "m": doc["m"] + 1,
            "constraints": [doc["constraints"][0], *doc["constraints"]],
            "K": {"kind": "product", "factors": [ray] * (doc["m"] + 1)}}


# f = x1 over x1 <= 0: its multiplier -1 is no normal, so part (i) fails
DESCENT = {"n": 1, "m": 1, "objective": "x1", "constraints": ["x1"],
           "K": {"kind": "interval", "lo": "-inf", "hi": 0.0},
           "S": {"kind": "point", "at": [0.0]}, "xbar": [0.0]}
# generic programs whose critical cones, first constraint repeated, are not {0}
RANK_DEFICIENT = ["second_example", "twin_constraints", "rank_deficient",
                  "halfspace_product", "ball_product", "descent",
                  *(f"generic-{s}" for s in (0, 2, 6, 8, 9, 10, 11, 20, 21, 28))]


def _critical_directions(p):
    """Critical directions at xbar: the critical mesh directions, thinned to
    about 12, and the critical cone's unit generators, which the mesh
    misses on most generic programs."""
    mesh = certify._unit_mesh(p.n, p.options.seed)
    mesh = mesh[certify._critical_rows(p, p.xbar, mesh)]
    gens = np.reshape([g for _, rays, lines in critical_cone(p).cell_generators()
                       for g in (*rays, *lines, *(-line for line in lines))], (-1, p.n))
    return np.vstack([mesh[::max(1, len(mesh) // 12)],
                      gens[certify._critical_rows(p, p.xbar, gens)]])


@pytest.mark.parametrize("name", RANK_DEFICIENT)
def test_implicit_parts_equal_the_scan_over_the_multiplier_set(name, tmp_path):
    # Dg(x)^T lam = -grad f(x) on the whole affine multiplier set, so the
    # values at lam0 equal the exhaustive scan's along ker Dg(x)^T
    if name == "descent" or name.startswith("generic-"):
        doc = DESCENT if name == "descent" else \
            generic_stationary_document(int(name.split("-")[1]))[0]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_first_constraint_repeated(doc)))
    else:
        path = FIXTURES / f"{name}.json"
    p = load_problem(path)
    assert not multiplier_affine_set(p).empty
    dirs = _critical_directions(p)
    assert len(dirs)
    for raw in dirs:
        _, d = certify._pair(p, p.xbar, raw)
        holds, sigma, achieved = reference_implicit_parts(p, p.xbar, d)
        r = necessary_implicit_check(p, p.xbar, raw, mode="tangent_distance")
        assert r.verdict != "hypotheses-not-met", r.diagnostics
        assert witness(r, "i")["sigma_theta"] == sigma
        parts = [w["part"] for w in r.witnesses]
        assert parts == (["i", "ii"] if holds else ["i"])
        if holds:
            assert witness(r, "ii")["achieved"] == achieved


def test_necessary_explicit_second_example_is_weaker():
    r = necessary_explicit_check(second_example(), None, [1.0])
    assert r.verdict == "satisfied"
    assert math.isinf(r.kappa_bounds["max_admissible"])
    wii = witness(r, "ii")
    assert np.allclose(wii["lam"], [1.0, 0.0], atol=1e-9)
    assert wii["achieved"] == pytest.approx(2.0, abs=1e-9)
    assert any("explicit form is weaker than the implicit form" in dgn
               for dgn in r.diagnostics)
    # same point and direction, stronger form: rejected
    assert necessary_implicit_check(second_example(), d=[1.0]).verdict == "violated"


def test_necessary_clarke_first_example_all_modes():
    p = first_example()
    for mode in ("elementwise", "nondegenerate"):
        r = necessary_clarke_check(p, None, [0.0, 1.0], mode=mode)
        assert r.verdict == "satisfied", mode
        assert r.kappa_bounds["max_admissible"] == pytest.approx(1.0, abs=1e-6)


def test_necessary_clarke_second_example_needs_dirrcq():
    r = necessary_clarke_check(second_example(), None, [1.0])
    assert r.verdict == "hypotheses-not-met"
    assert any("directional Robinson qualification fails" in dgn
               for dgn in r.diagnostics)


def test_sweep_first_example():
    r = sweep_necessary(first_example())
    assert r.verdict == "satisfied"
    assert r.kappa_bounds["max_admissible"] == pytest.approx(1.0, abs=1e-6)
    assert any("sweep over 24 base points" in dgn for dgn in r.diagnostics)


def test_sweep_second_example():
    r = sweep_necessary(second_example())
    assert r.verdict == "violated"
    assert r.kappa_bounds["max_admissible"] == pytest.approx(-0.5, abs=1e-9)


# ------------------------------------------------------------ reuse scope

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _reuse_open():
    # an LP outcome is stored, and so made read-only, only inside a scope
    return not maximize([1.0], [[1.0]], [1.0]).point.flags.writeable


def test_sweep_runs_every_pair_inside_one_open_scope(monkeypatch):
    seen = []
    original = certify._explicit_value

    def spy(p, x, *args):
        seen.append((_reuse_open(), _jet_data(p, x)))
        return original(p, x, *args)

    monkeypatch.setattr(certify, "_explicit_value", spy)
    assert not _reuse_open()
    sweep_necessary(parabola_example(), mode="explicit")
    # both pairs sit at xbar, so they see the one set of jets built there
    assert len(seen) == 2 and all(is_open for is_open, _ in seen)
    assert seen[0][1] is seen[1][1]
    assert not _reuse_open()


def test_sweep_closes_its_context_when_a_check_raises(monkeypatch):
    p = load_problem(FIXTURES / "halfspace_n4.json")
    original = certify._clarke_value
    calls = []

    def fails_midway(*args, **kwargs):
        calls.append(1)
        if len(calls) == 10:
            raise TangentError("injected")
        return original(*args, **kwargs)

    monkeypatch.setattr(certify, "_clarke_value", fails_midway)
    with pytest.raises(TangentError, match="injected"):
        sweep_necessary(p, mode="clarke")
    assert len(calls) == 10
    assert not _reuse_open()


def test_nested_context_shares_the_outer_memo():
    args = ([1.0, 0.0], [[1.0, 1.0]], [2.0])
    p = parabola_example()
    with reuse_scope():
        first = maximize(*args)
        jets = _jet_data(p)
        with reuse_scope():
            assert maximize(*args) is first
            assert _jet_data(p, [0.0, 0.0]) is jets
        assert maximize(*args) is first
    assert not _reuse_open()
    assert maximize(*args) is not first
    assert _jet_data(p) is not jets


PER_POINT = ("_jet_data", "multiplier_affine_set")


def test_two_instances_never_share_a_per_point_object():
    # the same n and the same point x = 0, different objectives
    a = parabola_example()
    b = dataclasses.replace(a, f=parse_expression("x1 + x2", 2))
    x = np.zeros(2)
    with reuse_scope(), reuse_scope():
        for name in PER_POINT:
            build = getattr(certify, name)
            assert build(a, x) is build(a, x.copy())
            assert build(b, x) is not build(a, x)
        assert _jet_data(b, x)[0].tolist() == [1.0, 1.0]
        assert _jet_data(a, x)[0].tolist() == [0.0, 1.0]
        assert multiplier_affine_set(b, x).empty
        assert not multiplier_affine_set(a, x).empty


def test_context_builds_each_base_point_object_once(monkeypatch):
    p = first_example()
    builds = []
    reused = lp._reused

    def counting(kind, parts, compute):
        def build():
            if kind in PER_POINT:
                builds.append((kind, id(parts[0]), parts[1].tobytes()))
            return compute()
        return reused(kind, parts, build)

    monkeypatch.setattr(lp, "_reused", counting)
    x = [0.25, 0.0]
    with reuse_scope():
        for d in ([0.0, 1.0], [0.0, -1.0]):
            necessary_explicit_check(p, x, d)
            necessary_implicit_check(p, x, d, mode="tangent_distance")
        assert _jet_data(p, np.array(x)) is _jet_data(p, x)
    assert sorted(kind for kind, _, _ in builds) == sorted(PER_POINT)
    assert len(set(builds)) == len(builds)


@pytest.mark.parametrize("mode", ["explicit", "clarke", "implicit-proximal"])
def test_sweep_builds_the_k_side_cones_once_per_base_point(mode, monkeypatch):
    p = first_example()
    calls, builds, k_cones, polars = [], [], set(), []
    reused = lp._reused

    def counting(kind, parts, compute):
        if kind == "polar_cone":
            return reused(kind, parts, lambda: polars.append(lp._content_key(parts))
                          or compute())
        if kind != "tangent_cone" or parts[0] is not p.K:
            return reused(kind, parts, compute)
        calls.append(parts[1].tobytes())

        def build():
            builds.append(calls[-1])
            cone = compute()
            k_cones.add(lp._content_key(_content(cone)))
            return cone
        return reused(kind, parts, build)

    monkeypatch.setattr(lp, "_reused", counting)
    sweep_necessary(p, mode=mode)
    # T_K(g(x)) once per base point, and N_K(g(x)), its polar for this
    # convex K, once per distinct T_K(g(x))
    assert sorted(builds) == sorted(set(calls))
    k_polars = [key for key in polars if key in k_cones]
    assert 0 < len(k_polars) <= len(k_cones)
    assert len(calls) > 2 * len(builds)


@pytest.mark.parametrize("mode", ["explicit", "clarke", "implicit-proximal",
                                  "implicit-tangent"])
def test_sweep_builds_the_critical_cone_once_per_base_point(mode, monkeypatch):
    # the reason the critical cone needs no memo kind of its own
    p = first_example()
    points = []
    build = certify.critical_cone
    monkeypatch.setattr(certify, "critical_cone",
                        lambda p_, x=None: points.append(np.asarray(x).tobytes())
                        or build(p_, x))
    r = sweep_necessary(p, mode=mode)
    n_points = int(r.diagnostics[0].split()[2])
    assert n_points > 1
    assert len(points) == len(set(points)) == n_points


def test_sweep_builds_the_k_side_objects_once_per_face(monkeypatch):
    # every critical direction of this sweep has Dg(0) d = d1 < 0: one face
    # of T_K(0) = (-inf, 0], so one anchor for all 48 pairs
    p = load_problem(FIXTURES / "halfspace_n4.json")
    builds = []
    for name in ("_directional_normal", "_second_tangent"):
        build = getattr(tangents, name)
        monkeypatch.setattr(tangents, name, lambda s, y, u, kind, build=build, name=name:
                            builds.append((name, kind)) or build(s, y, u, kind))
    r = sweep_necessary(p, mode="clarke")
    assert r.diagnostics[0].startswith("sweep over 1 base points, 48 (x, d) pairs;")
    assert sorted(builds) == [("_directional_normal", "clarke"),
                              ("_second_tangent", "asymptotic"),
                              ("_second_tangent", "outer")]


@pytest.mark.parametrize("check,kappa", [(sufficient_point_check, 0.5),
                                         (sufficient_isolated_check, None)],
                         ids=["point", "isolated"])
def test_sufficient_check_builds_the_k_side_cone_once(check, kappa, monkeypatch):
    p = parabola_example(kappa=kappa)
    calls, builds = [], []
    reused = lp._reused

    def counting(kind, parts, compute):
        if kind != "tangent_cone" or parts[0] is not p.K:
            return reused(kind, parts, compute)
        calls.append(parts[1].tobytes())

        def build():
            builds.append(calls[-1])
            return compute()
        return reused(kind, parts, build)

    monkeypatch.setattr(lp, "_reused", counting)
    assert check(p).verdict == "certified"
    # T_K(g(xbar)), which every second-order object at xbar starts from
    assert builds == [p.g_value(p.xbar).tobytes()]
    assert len(calls) > 1


@pytest.mark.parametrize("example", [first_example, second_example])
def test_k_side_cones_are_built_afresh_outside_a_scope(example):
    # the union of two disks is not convex: its limiting cone comes from
    # strata, and only T_K and its polar are kept
    p = example()
    y = p.g_value(p.xbar)
    kinds = ("frechet", "limiting") if p.K.is_convex() else ("frechet",)
    for build in (lambda: tangent_cone(p.K, y),
                  *[lambda kind=kind: normal_cone(p.K, y, kind) for kind in kinds]):
        a, b = build(), build()
        assert a is not b and region_equal(a, b)
        with reuse_scope():
            c = build()
            assert build() is c and region_equal(c, a)


def test_sweep_bytes_do_not_depend_on_earlier_sweeps():
    # the sufficient checkers open a reuse scope of their own as well
    checks = {"point": sufficient_point_check, "isolated": sufficient_isolated_check}

    def report_bytes(p, mode):
        if mode in checks:
            report = checks[mode](with_options(p, kappa=0.5))
        else:
            report = sweep_necessary(p, mode=mode)
        return json.dumps(report.to_json(), sort_keys=True)

    half = load_problem(FIXTURES / "halfspace_n4.json")
    for mode in ("explicit", "clarke", "implicit-proximal", "implicit-tangent",
                 *checks):
        alone = report_bytes(parabola_example(), mode)
        report_bytes(half, mode)
        assert report_bytes(parabola_example(), mode) == alone
        # first_example is the fixture whose proximal screen drops pairs
        alone = report_bytes(load_problem(FIXTURES / "first_example.json"), mode)
        report_bytes(half, mode)
        assert report_bytes(load_problem(FIXTURES / "first_example.json"), mode) == alone


NECESSARY_CHECKS = {
    "implicit-proximal": functools.partial(necessary_implicit_check, mode="proximal"),
    "implicit-tangent": functools.partial(necessary_implicit_check,
                                          mode="tangent_distance"),
    "explicit": necessary_explicit_check,
    "clarke": functools.partial(necessary_clarke_check, mode="elementwise"),
    "nondegenerate": functools.partial(necessary_clarke_check, mode="nondegenerate"),
}
SCALED_DIRECTIONS = [("first_example", (-1.0, 0.3)), ("first_example", (0.0, 1.0)),
                     ("parabola", (1.0, 0.0)), ("second_example", (1.0,)),
                     ("lifted_n3", (1.0, 0.5, 0.0)),
                     ("halfspace_n4", (-0.5, 0.2, 0.3, 0.1))]


@pytest.mark.parametrize("name,d", SCALED_DIRECTIONS,
                         ids=[f"{n}-{','.join(map(str, d))}" for n, d in SCALED_DIRECTIONS])
@pytest.mark.parametrize("form", list(NECESSARY_CHECKS))
def test_necessary_reports_do_not_depend_on_the_direction_scale(form, name, d):
    # every necessary form is homogeneous of degree 2 in d, and each check
    # runs on d/|d|
    p = load_problem(FIXTURES / f"{name}.json")
    check = NECESSARY_CHECKS[form]
    d = np.asarray(d)
    ref = check(p, d=d)
    ref_bytes = canonical_bytes(ref.to_json())
    for k in (-20, -10, 0, 10):
        # a power of two scales |d| exactly, so d/|d| does not move
        assert canonical_bytes(check(p, d=2.0 ** k * d).to_json()) == ref_bytes, k
    want = ref.kappa_bounds.get("max_admissible")
    for s in (1e-5, 1e-3):
        # a decimal scale rounds d/|d| in the last bit
        got = check(p, d=s * d)
        assert got.verdict == ref.verdict, s
        bound = got.kappa_bounds.get("max_admissible")
        if want is not None and math.isfinite(want):
            assert bound == pytest.approx(want, rel=1e-12, abs=0.0), s
        else:   # None, an infinite bound or nan: the same value
            assert repr(bound) == repr(want), s


@pytest.mark.parametrize("eps", [0.0, 0.2])
@pytest.mark.parametrize("mode", ["implicit-proximal", "explicit", "clarke"])
@pytest.mark.parametrize("name", sorted(f.stem for f in FIXTURES.glob("*.json")))
def test_sweep_checks_the_strided_output_of_one_proximal_screen(name, mode, eps,
                                                                monkeypatch):
    p = with_options(load_problem(FIXTURES / f"{name}.json"), epsilon=eps)
    attr = f"_{mode.split('-')[0]}_value"
    checker, screen = getattr(certify, attr), certify.eps_proximal_filter
    screened, ran = [], []

    def spy_screen(S, x, vs, eps_):
        kept = screen(S, x, vs, eps_)
        screened.append((x.copy(), np.array(vs), kept))
        return kept

    def spy_check(p_, x, d, *args):
        ran.append((x.tobytes(), d.tobytes()))
        return checker(p_, x, d, *args)

    monkeypatch.setattr(certify, "eps_proximal_filter", spy_screen)
    monkeypatch.setattr(certify, attr, spy_check)
    report = sweep_necessary(p, mode=mode)
    monkeypatch.undo()

    # one screen per base point, of the mesh points in the critical cone
    mesh = certify._unit_mesh(p.n, p.options.seed)
    assert screened[0][0].tobytes() == p.xbar.tobytes()
    for x, vs, _ in screened:
        admissible = mesh[certify._critical_rows(p, x, mesh)]
        assert vs.tobytes() == admissible.tobytes()
    # the form is evaluated on exactly the stride of each screen's output,
    # each direction scaled as a single check scales it
    strided = [(x.tobytes(), certify._pair(p, x, d)[1].tobytes()) for x, _, kept in screened
               for d in kept[::max(1, len(kept) // 48)]]
    assert ran == strided
    assert report.diagnostics[0].startswith(
        f"sweep over {len(screened)} base points, {len(ran)} (x, d) pairs;")
    # xbar is checked whenever the screen keeps a direction there
    if len(screened[0][2]):
        assert ran[0][0] == p.xbar.tobytes()


# K the union of the boxes [-1, 0] x [-1, 1] and [-1, 1] x [-1, 0], and
# g = (x1^2, 2e-7 x2): Dg(0) d = (0, 2e-7 d2) lies on the face y1 = 0 of
# the first box's tangent cone, and within the tangency tolerance 1e-7 of
# the second box's exactly when d2 <= 1/2.  The outer second-order set is
# the plane when both boxes are tangent and {w1 <= 0} otherwise, whose
# preimage under the shift (2 d1^2, 0) is empty off d1 = 0.
NEAR_TANGENT_BOXES = {
    "n": 2, "m": 2, "objective": "x1^2 + x2^2", "constraints": ["x1^2", "2e-07*x2"],
    "K": {"kind": "union", "members": [
        {"kind": "box", "intervals": [[-1.0, 0.0], [-1.0, 1.0]]},
        {"kind": "box", "intervals": [[-1.0, 1.0], [-1.0, 0.0]]}]},
    "S": {"kind": "point", "at": [0.0, 0.0]}, "xbar": [0.0, 0.0]}
FACE_ANCHOR_DOCUMENTS = ["halfspace_product", "rank_deficient", "twin_constraints",
                         "nonstationary", "boxes_finite", "near-tangent-boxes",
                         *(f"generic-{s}" for s in range(20))]


@pytest.mark.parametrize("name", FACE_ANCHOR_DOCUMENTS)
def test_sweep_pairs_read_at_face_anchors_match_single_checks(name, tmp_path):
    # a sweep reads each pair's K-side objects at the anchor of its face; a
    # single check reads them at its own (g(x), Dg(x) d)
    if name == "near-tangent-boxes" or name.startswith("generic-"):
        doc = NEAR_TANGENT_BOXES if name == "near-tangent-boxes" else \
            generic_stationary_document(int(name.split("-")[1]))[0]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
    else:
        path = FIXTURES / f"{name}.json"
    p = load_problem(path)
    assert p.K.as_region() is not None
    for mode, check in NECESSARY_CHECKS.items():
        if mode == "nondegenerate":
            continue
        attr = f"_{mode.split('-')[0]}_value"
        original, pairs = getattr(certify, attr), []

        def spy(p_, x, d, *args):
            report = original(p_, x, d, *args)
            pairs.append((x, d, report))
            return report

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(certify, attr, spy)
            sweep_necessary(p, mode=mode)
        with reuse_scope():   # each single check keys its objects on its own d
            for x, d, got in pairs:
                want = check(p, x, d)
                # the verdict fixes the exit code
                assert got.verdict == want.verdict, (mode, x, d)
                assert got.cq_status == want.cq_status, (mode, x, d)
                bound = want.kappa_bounds.get("max_admissible")
                if bound is not None and math.isfinite(bound):
                    assert got.kappa_bounds["max_admissible"] == \
                        pytest.approx(bound, rel=1e-12, abs=0.0), (mode, x, d)
                else:
                    assert repr(got.kappa_bounds.get("max_admissible")) == repr(bound)


def test_sweep_reads_hypotheses_not_met_when_no_pair_meets_them():
    # the directional Robinson qualification fails at both pairs of the
    # second example, whose kappa* is -1/2: the clarke form bounds nothing
    r = sweep_necessary(second_example(), mode="clarke")
    assert r.verdict == "hypotheses-not-met"
    assert r.kappa_bounds == {} and r.witnesses == ()
    assert r.cq_status == {"dirrcq": "fails"}
    assert r.diagnostics == (
        "sweep over 1 base points, 2 (x, d) pairs; 0 points had no admissible direction",
        "no (x, d) pair met the hypotheses of the clarke form",
        "directional Robinson qualification fails; the multiplier set may be unbounded")


def test_sweep_counts_the_checks_that_missed_their_hypotheses(monkeypatch):
    p = first_example()
    original = certify._explicit_value

    def off_xbar_misses(p_, x, d, anchor):
        if np.array_equal(x, p_.xbar):
            return original(p_, x, d, anchor)
        return certify._report("hypotheses-not-met", diags=["injected"])

    monkeypatch.setattr(certify, "_explicit_value", off_xbar_misses)
    r = sweep_necessary(p, mode="explicit")
    assert r.verdict == "satisfied"
    assert r.kappa_bounds["max_admissible"] == pytest.approx(1.0, abs=1e-6)
    assert r.diagnostics[0].startswith("sweep over 24 base points, 48 (x, d) pairs;")
    assert r.diagnostics[-1] == "46 checks did not meet the form's hypotheses"


# ---------------------------------------------------------- sufficient side


def test_sufficient_point_parabola_certifies():
    r = sufficient_point_check(parabola_example(kappa=0.9))
    assert r.verdict == "certified"
    assert r.kappa_bounds["certified"] == pytest.approx(0.9)
    assert r.kappa_bounds["margin"] == pytest.approx(0.2, abs=1e-9)
    assert all(np.allclose(w["lam"], [1.0], atol=1e-9) for w in r.witnesses)
    assert any("direction mesh: 361 admissible, 2 critical" in dgn
               for dgn in r.diagnostics)


def test_sufficient_point_threshold_uses_squared_distance():
    # kappa above the curvature bound: no multiplier satisfies the corrected
    # threshold, so the check declines rather than certifying
    r = sufficient_point_check(parabola_example(kappa=1.5))
    assert r.verdict == "hypotheses-not-met"
    assert any("multiplier search failed at d = [1.0, 0.0]" in dgn
               for dgn in r.diagnostics)


def test_growth_gate_refutes_a_constant_above_the_truth():
    # kappa* = 1 on the parabola; the samples refute 1.5 and keep 0.9
    diags = []
    assert not certify._growth_gate(parabola_example(), 1.5, diags)
    assert certify._growth_gate(parabola_example(), 0.9, diags)
    assert diags == ["growth oracle replay: kappa_hat = 0.946279 on 2004 "
                     "samples at radius 0.25"] * 2


def test_sufficient_isolated_parabola():
    r = sufficient_isolated_check(parabola_example())
    assert r.verdict == "certified"
    assert r.kappa_bounds["certified"] == pytest.approx(1.0, abs=1e-9)
    assert r.kappa_bounds["margin"] == pytest.approx(1.0, abs=1e-9)
    # a request above the certified constant is declined, not refuted
    r = sufficient_isolated_check(parabola_example(kappa=1.5))
    assert r.verdict == "inconclusive"
    assert r.kappa_bounds["requested"] == 1.5
    assert r.diagnostics[-1] == "requested constant exceeds the certified maximum"


def _margin_documents(tmp_path):
    """Problem instances for the direction margins: every fixture, the
    generic programs of seeds 0-59, and the same
    programs with K = [0, inf)^m, whose multipliers leave N_K(g(xbar)) so
    that rays and lines of the outer preimage rule every multiplier out."""
    for path in sorted(FIXTURES.glob("*.json")):
        yield path.stem, load_problem(path)
    wrong = {"kind": "interval", "lo": 0.0, "hi": "inf"}
    for seed in range(60):
        doc = generic_stationary_document(seed)[0]
        K = wrong if doc["m"] == 1 else {"kind": "product", "factors": [wrong] * doc["m"]}
        for name, variant in ((f"generic-{seed}", doc),
                              (f"wrong-sign-{seed}", dict(doc, K=K))):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(variant))
            yield name, load_problem(path)


def _margin_outcome(name, got, out):
    """The decision both readings agree on, or an assertion error: the
    closed form's margin got (None on a line of the asymptotic preimage,
    -inf when no multiplier is admissible) against the multiplier LP's
    result out (None, or (lam, margin) with lam None when infeasible)."""
    if out is None or got is None:
        assert out is None and got is None, (name, got, out)
        return "line"
    lam, margin = out
    if lam is None:
        assert got == -math.inf, (name, got)
        return "infeasible"
    assert abs(got - margin) <= 1e-12 * max(1.0, abs(margin)), (name, got, margin)
    return "certifies" if margin > certify.STRICT_TOL else "fails"


def _compare_margins(name, p, seen):
    """Read the margin of each of p's ``_critical_directions`` both ways
    and count the outcomes in seen."""
    x = p.xbar
    grad, J, qfn, _ = certify._jet_data(p, x)
    dirs = _critical_directions(p)
    kappa = p.options.kappa or 0.25
    margins = []
    for d in dirs:
        thresh = 2.0 * kappa * float(d @ d)
        Tpp, T2 = certify._second_order_preimages(p, x, d)
        got = certify._direction_margin(Tpp, T2, grad, J, thresh, qfn(d))
        seen["point", _margin_outcome(
            name, got, reference_multiplier_margin(p, [d], [thresh]))] += 1
        margins.append(certify._direction_margin(Tpp, T2, grad, J, 0.0, qfn(d)))
    if len(dirs):
        got = None if None in margins else min(margins)
        seen["isolated", _margin_outcome(
            name, got, reference_multiplier_margin(p, dirs, [0.0] * len(dirs)))] += 1


# Dg(x) = diag(2, 1) and grad f(x) = (1, 0.5): the one stationary
# multiplier is (-0.5, -0.5), and each region pair exercises one rule
_J, _GRAD = np.diag([2.0, 1.0]), np.array([1.0, 0.5])
_ORIGIN = cone_region(E=np.eye(2), f=np.zeros(2))
_AXIS = cone_region(E=[[0.0, 1.0]], f=[0.0])


@pytest.mark.parametrize("Tpp,T2,outcome,margin", [
    (_AXIS, _ORIGIN, "line", None),
    (_ORIGIN, _AXIS, "infeasible", -math.inf),
    (_ORIGIN, cone_region([[1.0, 0.0]], [0.0], [[0.0, 1.0]], [0.0]), "infeasible", -math.inf),
    (_ORIGIN, cone_region([[-1.0, 0.0]], [0.0], [[0.0, 1.0]], [0.0]), "certifies", 0.75),
    (cone_region([[-1.0, 0.0]], [0.0], [[0.0, 1.0]], [0.0]), _ORIGIN, "certifies", 0.5),
    (_ORIGIN, cone_region(E=np.eye(2), f=[-1.0, 0.0]), "fails", -0.25),
], ids=["asymptotic-line", "outer-line", "outer-ray", "outer-ray-admissible",
        "weighted-generator", "outer-vertex"])
def test_direction_margin_rules_on_hand_built_preimages(Tpp, T2, outcome, margin):
    # qf_d - thresh = 0.75: a vertex v bounds the margin by 0.75 + grad.v,
    # a generator r of the asymptotic preimage by grad.r / |Dg(x) r|
    aff = certify.MultiplierAffineSet(np.array([-0.5, -0.5]), False, _J.T, _GRAD)
    got = certify._direction_margin(Tpp, T2, _GRAD, _J, 0.25, 1.0)
    block = _strict_rows_for_direction(Tpp, T2, _J, 0.25, 1.0)
    out = None if block is None else _solve_multiplier_lp(aff, [block])
    assert _margin_outcome(outcome, got, out) == outcome
    assert got == margin


def test_direction_margins_equal_the_multiplier_lp(tmp_path):
    # every stationary lam has Dg(x)^T lam = -grad f(x), so the closed form
    # decides and measures each direction as the LP over the affine set did,
    # per direction at the point check's threshold and stacked over the
    # directions at the isolated check's threshold 0
    seen = collections.Counter()
    for name, p in _margin_documents(tmp_path):
        if not multiplier_affine_set(p).empty:
            with reuse_scope():
                _compare_margins(name, p, seen)
    # every outcome occurs, so a reading that loses a rule shows
    assert set(seen) == {(mode, outcome) for mode in ("point", "isolated")
                         for outcome in ("line", "certifies", "fails")} | {
        ("point", "infeasible")}


@pytest.mark.parametrize("kappa,verdict", [(0.5, "certified"), (2.0, "violated"),
                                           (None, "inconclusive")])
def test_isolated_mode_replays_the_request_on_an_empty_critical_mesh(kappa, verdict):
    # kappa* = 1; the critical cone of the lifted parabola is a ray, which
    # the direction mesh misses
    r = sufficient_isolated_check(with_options(load_problem(FIXTURES / "lifted_n3.json"),
                                               kappa=kappa))
    assert r.verdict == verdict
    assert "critical mesh directions: 0" in r.diagnostics
    if verdict == "certified":
        assert r.kappa_bounds == {"certified": 0.5, "requested": 0.5}
    if verdict == "violated":
        assert r.kappa_bounds == {"certified": None}


@pytest.mark.parametrize("check,name,kappa", [
    (sufficient_point_check, "parabola", 0.9),
    (sufficient_point_check, "lifted_n3", 0.5),
    (sufficient_isolated_check, "parabola", None),
    (sufficient_isolated_check, "parabola", 0.5),
    (sufficient_isolated_check, "lifted_n3", 0.5),
], ids=["point-parabola", "point-lifted", "isolated-parabola",
        "isolated-parabola-requested", "isolated-lifted-empty-mesh"])
def test_no_certificate_skips_the_growth_gate(check, name, kappa, monkeypatch):
    p = with_options(load_problem(FIXTURES / f"{name}.json"), kappa=kappa)
    assert check(p).verdict == "certified"
    gated = []

    def refuting(p_, k, diags, delta=None):
        gated.append(k)
        return False

    # a gate that refutes everything leaves no certificate standing
    monkeypatch.setattr(certify, "_growth_gate", refuting)
    assert check(p).verdict == "violated"
    assert len(gated) == 1


def test_isolated_mode_never_runs_the_mscq_cascade(monkeypatch):
    # the linearized descent test reads only the tangent preimage; on
    # second_example the cascade would end in a 600-sample estimate
    def cascade(*args):
        raise AssertionError("certify_mscq called")

    monkeypatch.setattr(certify, "certify_mscq", cascade)
    for p in (parabola_example(), second_example(), first_example()):
        sufficient_isolated_check(p)


def test_report_json_shape():
    r = sufficient_point_check(parabola_example(kappa=0.9))
    doc = r.to_json()
    assert doc["verdict"] == "certified"
    assert set(doc) >= {"verdict", "kappa_bounds", "witnesses", "cq_status",
                        "diagnostics"}
    assert json.dumps(doc, sort_keys=True) == json.dumps(r.to_json(),
                                                         sort_keys=True)


# ------------------------------------------------------- cross validations


def test_conic_primal_matches_multiplier_dual():
    kept = pairs = 0
    for seed in range(30):
        inst = duality_instance(seed)
        if inst is None:
            continue
        p, d, u = inst
        if not constraint_qualification_check(p, None, d, "DirRCQ").holds:
            continue
        kept += 1
        grad, J, _, _ = _jet_data(p, p.xbar)
        lamreg = directional_multipliers(p, p.xbar, d, "C")
        assert not lamreg.is_empty()
        tcell = directional_clarke_tangent(p.K, p.g_value(p.xbar), u).nonempty_cells()[0]
        verts, rays = _generators_of(second_tangent(p.K, p.g_value(p.xbar), u,
                                                    "asymptotic"))
        for v in verts + rays:
            if np.linalg.norm(v) <= 1e-9:
                continue
            dual, _ = _dual_lp_max(lamreg, -v)
            primal = _conic_primal(grad, J, v, tcell)
            assert math.isfinite(dual) and math.isfinite(primal), seed
            gap = abs(dual - primal) / (1.0 + abs(dual))
            assert gap <= DUALITY_TOL, (seed, gap)
            pairs += 1
    assert kept >= 20
    assert pairs >= 20


def test_linearized_tangents_match_oracle_on_affine_instances():
    checked = 0
    for seed in range(12):
        p, phi, d = linearization_instance(seed)
        ok, method, _ = certify_mscq(p, p.xbar, d)
        assert ok and method == "polyhedral"
        rng = np.random.default_rng([seed, 7])
        for kind in ("outer2", "asymp2"):
            reg = linearized_phi_tangents(p, None, d, kind)
            for _ in range(10):
                w = rng.normal(0.0, 1.5, size=2)
                verdict = membership_by_definition(phi, p.xbar, d, w, kind)
                if verdict == "boundary-inconclusive":
                    continue
                assert (verdict == "confirmed") == reg.contains(w), (seed, kind, w)
                checked += 1
    assert checked >= 150


def test_growth_ordering_chain():
    # certified growth <= sampled growth <= largest constant the necessary
    # side admits, with sampling slack
    for a in (0.5, 1.0, 2.0, 3.0):
        p = parabola_family(a)
        suf = sufficient_point_check(with_options(p, kappa=0.9 * a))
        assert suf.verdict == "certified", a
        k_suf = suf.kappa_bounds["certified"]
        k_hat = growth_constant_estimate(p, 0.05, 3000, 42).kappa_hat
        nec = sweep_necessary(p)
        assert nec.verdict == "satisfied", a
        k_nec = nec.kappa_bounds["max_admissible"]
        assert k_suf <= k_hat + 0.05, a
        assert k_hat + 0.05 <= k_nec + 0.10, a
    for p, delta in ((first_example(), 0.1), (second_example(), 0.1)):
        k_hat = growth_constant_estimate(p, delta, 2000, 42).kappa_hat
        k_nec = sweep_necessary(p).kappa_bounds["max_admissible"]
        assert k_hat + 0.05 <= k_nec + 0.10
