"""Certification pipeline: critical cones, multiplier regions, constraint
qualifications, the necessary and sufficient condition checks, and the LP
duality / linearization cross-validations against the sampling oracles.
"""
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from sharpcheck import certify, lp
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
from sharpcheck.cli import load_problem
from sharpcheck.lp import maximize, reuse_scope
from sharpcheck.oracles import growth_constant_estimate, membership_by_definition
from sharpcheck.polyexpr import Options, ProblemInstance, parse_expression
from sharpcheck.regions import PolyCell, Region, region_compare, region_subset
from sharpcheck.sets import Box, Interval, PointSet, UnionSet
from sharpcheck.tangents import TangentError, directional_clarke_tangent, second_tangent

from helpers import (
    duality_instance,
    first_example,
    linearization_instance,
    parabola_example,
    parabola_family,
    second_example,
)


def cone_region(A=None, b=None, E=None, f=None, dim=2):
    return Region.from_cell(PolyCell(A, b, E, f, dim=dim), cone=True)


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
    aff = multiplier_affine_set(second_example())
    assert not aff.empty
    assert np.allclose(aff.lam0, [0.0, 0.0], atol=1e-9)
    basis = np.atleast_2d(aff.basis)
    assert basis.shape == (1, 2)
    assert abs(basis[0, 1]) < 1e-9 and abs(basis[0, 0]) > 0.9


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


def test_mscq_cascade_methods():
    p1, pp = first_example(), parabola_example()
    ok, method, _ = certify_mscq(p1, p1.xbar, [0.0, 1.0])
    assert ok and method == "FOSCMS"
    ok, method, _ = certify_mscq(pp, pp.xbar, [1.0, 0.0])
    assert ok and method == "FOSCMS"
    p, _, d = linearization_instance(0)
    ok, method, _ = certify_mscq(p, p.xbar, d)
    assert ok and method == "polyhedral"


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
    assert any("dist(d, T_S(x)) = 1" in dgn for dgn in r.diagnostics)


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
        assert sigma.is_finite
        value = qfn(dv) + float(lam @ qgn(dv)) - float(sigma)
        assert value == pytest.approx(w["achieved"], abs=1e-7)


def test_necessary_explicit_second_example_is_weaker():
    r = necessary_explicit_check(second_example(), None, [1.0], None)
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
        r = necessary_clarke_check(p, None, [0.0, 1.0], None, mode=mode)
        assert r.verdict == "satisfied", mode
        assert r.kappa_bounds["max_admissible"] == pytest.approx(1.0, abs=1e-6)


def test_necessary_clarke_second_example_needs_dirrcq():
    r = necessary_clarke_check(second_example(), None, [1.0], None)
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
    original = certify.necessary_explicit_check

    def spy(p, x, *args):
        seen.append((_reuse_open(), critical_cone(p, x)))
        return original(p, x, *args)

    monkeypatch.setattr(certify, "necessary_explicit_check", spy)
    assert not _reuse_open()
    sweep_necessary(parabola_example(), mode="explicit")
    # both pairs sit at xbar, so they see the one critical cone built there
    assert len(seen) == 2 and all(is_open for is_open, _ in seen)
    assert seen[0][1] is seen[1][1]
    assert not _reuse_open()


def test_sweep_closes_its_context_when_a_check_raises(monkeypatch):
    p = load_problem(FIXTURES / "halfspace_n4.json")
    original = certify.necessary_clarke_check
    calls = []

    def fails_midway(*args, **kwargs):
        calls.append(1)
        if len(calls) == 10:
            raise TangentError("injected")
        return original(*args, **kwargs)

    monkeypatch.setattr(certify, "necessary_clarke_check", fails_midway)
    with pytest.raises(TangentError, match="injected"):
        sweep_necessary(p, mode="clarke")
    assert len(calls) == 10
    assert not _reuse_open()


def test_nested_context_shares_the_outer_memo():
    args = ([1.0, 0.0], [[1.0, 1.0]], [2.0])
    p = parabola_example()
    with reuse_scope():
        first = maximize(*args)
        cone = critical_cone(p)
        with reuse_scope():
            assert maximize(*args) is first
            assert critical_cone(p, [0.0, 0.0]) is cone
        assert maximize(*args) is first
    assert not _reuse_open()
    assert maximize(*args) is not first
    assert critical_cone(p) is not cone


PER_POINT = ("_jet_data", "critical_cone", "multiplier_affine_set",
             "_reference_tangent")


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
        assert critical_cone(p, np.array(x)) is critical_cone(p, x)
    assert sorted(kind for kind, _, _ in builds) == sorted(PER_POINT)
    assert len(set(builds)) == len(builds)


def test_sweep_bytes_do_not_depend_on_earlier_sweeps():
    def report_bytes(p, mode):
        return json.dumps(sweep_necessary(p, mode=mode).to_json(), sort_keys=True)

    half = load_problem(FIXTURES / "halfspace_n4.json")
    for mode in ("explicit", "clarke", "implicit-proximal", "implicit-tangent"):
        alone = report_bytes(parabola_example(), mode)
        report_bytes(half, mode)
        assert report_bytes(parabola_example(), mode) == alone
        # first_example is the fixture whose proximal screen drops pairs
        alone = report_bytes(load_problem(FIXTURES / "first_example.json"), mode)
        report_bytes(half, mode)
        assert report_bytes(load_problem(FIXTURES / "first_example.json"), mode) == alone


@pytest.mark.parametrize("eps", [0.0, 0.2])
@pytest.mark.parametrize("mode", ["explicit", "clarke"])
@pytest.mark.parametrize("name", ["first_example", "parabola", "second_example",
                                  "halfspace_n4"])
def test_sweep_runs_exactly_the_pairs_the_proximal_screen_keeps(name, mode, eps,
                                                                 monkeypatch):
    p = load_problem(FIXTURES / f"{name}.json")
    attr = f"necessary_{mode}_check"
    checker, screen = getattr(certify, attr), certify.eps_proximal_filter
    chosen, ran = [], []

    def spy_screen(S, x, vs, eps_, cell=None):
        chosen.extend((x.tobytes(), np.asarray(v).tobytes()) for v in vs)
        return screen(S, x, vs, eps_, cell)

    def spy_check(p_, x, d, eps_, **kwargs):
        ran.append((x.tobytes(), d.tobytes()))
        return checker(p_, x, d, eps_, **kwargs)

    monkeypatch.setattr(certify, "eps_proximal_filter", spy_screen)
    monkeypatch.setattr(certify, attr, spy_check)
    report = sweep_necessary(p, eps=eps, mode=mode)
    monkeypatch.undo()

    # the same pairs through the checker itself, which tests every hypothesis
    with reuse_scope():
        kept = [(xb, db) for xb, db in chosen
                if not any("not an eps-proximal normal" in line for line in
                           checker(p, np.frombuffer(xb), np.frombuffer(db),
                                   eps).diagnostics)]
    assert ran == kept
    assert f", {len(chosen)} (x, d) pairs;" in report.diagnostics[0]
    if name == "first_example":
        assert 0 < len(ran) < len(chosen)


# ------------------------------------------------------------ boundary mesh


def _boundary_mesh_by_point(p, radius, count=1000):
    # the loop _boundary_mesh replaced: one boundary test per sample
    pts = p.S.sample_near(p.xbar, radius, certify._rng(p, 11), count)
    out = [x for x in pts if certify._is_boundary_point(p.S, x)]
    if certify._is_boundary_point(p.S, p.xbar):
        out.append(p.xbar)
    return out


def _union_example():
    S = UnionSet([Box([(0.0, 1.0), (0.0, 0.0)]), Box([(0.0, 0.0), (0.0, 1.0)])])
    return ProblemInstance(2, 1, parse_expression("x1^2 + x2^2", 2),
                           (parse_expression("x1 + x2", 2),), Interval(-10.0, 10.0),
                           S, [0.0, 0.0], options=Options(delta=0.5))


@pytest.mark.parametrize("build", [parabola_example, first_example, _union_example],
                         ids=["point", "box", "union"])
def test_boundary_mesh_matches_the_per_sample_loop(build):
    p = build()
    radius = 0.1 * p.options.delta
    got = certify._boundary_mesh(p, radius)
    want = _boundary_mesh_by_point(p, radius)
    assert len(got) == len(want) > 0
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_boundary_mesh_tests_a_point_set_once(monkeypatch):
    calls = []
    original = certify._is_boundary_point
    monkeypatch.setattr(certify, "_is_boundary_point",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    assert len(certify._boundary_mesh(parabola_example(), 0.1)) == 1001
    assert len(calls) == 1


# ---------------------------------------------------------- sufficient side


def test_sufficient_point_parabola_certifies():
    r = sufficient_point_check(parabola_example(), kappa=0.9)
    assert r.verdict == "certified"
    assert r.kappa_bounds["certified"] == pytest.approx(0.9)
    assert r.kappa_bounds["margin"] == pytest.approx(0.2, abs=1e-9)
    assert all(np.allclose(w["lam"], [1.0], atol=1e-9) for w in r.witnesses)
    assert any("direction mesh: 361 admissible, 2 critical" in dgn
               for dgn in r.diagnostics)


def test_sufficient_point_threshold_uses_squared_distance():
    # kappa above the curvature bound: no multiplier satisfies the corrected
    # threshold, so the check declines rather than certifying
    r = sufficient_point_check(parabola_example(), kappa=1.5)
    assert r.verdict == "hypotheses-not-met"
    assert any("multiplier search failed at d = [1.0, 0.0]" in dgn
               for dgn in r.diagnostics)


def test_growth_gate_refutes_a_constant_above_the_truth():
    # kappa* = 1 on the parabola; the samples refute 1.5 and keep 0.9
    diags = []
    assert not certify._growth_gate(parabola_example(), 1.5, diags)
    assert certify._growth_gate(parabola_example(), 0.9, diags)
    assert diags == ["growth oracle replay: kappa_hat = 0.946949 on 2902 "
                     "samples at radius 0.25"] * 2


def test_sufficient_isolated_parabola():
    r = sufficient_isolated_check(parabola_example())
    assert r.verdict == "certified"
    assert r.kappa_bounds["certified"] == pytest.approx(1.0, abs=1e-9)
    assert r.kappa_bounds["margin"] == pytest.approx(1.0, abs=1e-9)


def test_report_json_shape():
    r = sufficient_point_check(parabola_example(), kappa=0.9)
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
            assert dual.is_finite and primal.is_finite, seed
            gap = abs(float(dual) - float(primal)) / (1.0 + abs(float(dual)))
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
        suf = sufficient_point_check(p, kappa=0.9 * a)
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
