"""Sampling oracles: membership by definition, feasible sampling, growth
and subregularity estimates, proximal distance."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sharpcheck import oracles
from sharpcheck.oracles import (
    STEPS,
    OracleError,
    growth_constant_estimate,
    membership_by_definition,
    mscq_modulus_estimate,
    proximal_distance_check,
    sample_feasible,
)
from sharpcheck.polyexpr import ProblemInstance, parse_expression
from sharpcheck.sets import Ball, Box, Interval, PointSet, ProductSet, UnionSet

import helpers as reference   # the scalar oracles of the parent commit
from helpers import random_catalog_instance, tangent_direction


def first_example():
    f = parse_expression("x2^2", 2)
    g = (parse_expression("x1^2 - 2*x1 + x2^2", 2),)
    return ProblemInstance(2, 1, f, g, Interval(-0.75, 0.0),
                           Box([(0.0, 0.5), (0.0, 0.0)]), [0.0, 0.0])


def second_example():
    f = parse_expression("-0.5*x1^2", 1)
    g = (parse_expression("x1^2", 1), parse_expression("x1", 1))
    K = UnionSet([Ball([1.0, 0.0], 1.0), Ball([-1.0, 0.0], 1.0)])
    return ProblemInstance(1, 2, f, g, K, PointSet([0.0]), [0.0])


def square_objective():
    # unconstrained x^2 with the reference set pinned at the origin
    f = parse_expression("x1^2", 1)
    g = (parse_expression("x1", 1),)
    return ProblemInstance(1, 1, f, g, Interval(-math.inf, math.inf),
                           PointSet([0.0]), [0.0])


# -- membership by definition ------------------------------------------


def test_membership_ball_outer2():
    ball = Ball([0.0, 1.0], 1.0)
    y, d = [0.0, 0.0], [1.0, 0.0]   # boundary point, tangent direction
    # outer second-order set is {w : w2 >= |d|^2}
    assert membership_by_definition(ball, y, d, [0.0, 2.0], "outer2") == "confirmed"
    assert membership_by_definition(ball, y, d, [0.0, 0.5], "outer2") == "rejected"


def test_membership_ball_asymp2():
    ball = Ball([0.0, 1.0], 1.0)
    y, d = [0.0, 0.0], [1.0, 0.0]
    assert membership_by_definition(ball, y, d, [0.0, 0.3], "asymp2") == "confirmed"
    assert membership_by_definition(ball, y, d, [0.0, -1.0], "asymp2") == "rejected"


def test_membership_zero_direction_reduces_to_tangent():
    ball = Ball([0.0, 1.0], 1.0)
    out = membership_by_definition(ball, [0.0, 0.0], [0.0, 0.0], [1.0, 0.5], "outer2")
    assert out == "confirmed"
    assert out == membership_by_definition(ball, [0.0, 0.0], None, [1.0, 0.5], "tangent")
    out = membership_by_definition(ball, [0.0, 0.0], None, [0.0, -1.0], "tangent")
    assert out == "rejected"


def test_membership_union_of_disks():
    two = UnionSet([Ball([1.0, 0.0], 1.0), Ball([-1.0, 0.0], 1.0)])
    y, d = [0.0, 0.0], [0.0, 1.0]
    # outer set at the contact point is {w1 >= 1} u {w1 <= -1}
    assert membership_by_definition(two, y, d, [1.5, 0.0], "outer2") == "confirmed"
    assert membership_by_definition(two, y, d, [-1.5, 0.0], "outer2") == "confirmed"
    assert membership_by_definition(two, y, d, [0.0, 0.0], "outer2") == "rejected"
    # the asymptotic set is everything
    assert membership_by_definition(two, y, d, [0.3, -0.7], "asymp2") == "confirmed"


# catalog sets with a boundary point each (an endpoint, a sphere point, the
# contact point of two disks, a corner of a product) and tangent directions
# along the boundary there, where the second-order sets are proper
_MEMBERSHIP_SETS = [
    (Interval(-0.75, 0.0), [0.0], [[-1.0]]),
    (Ball([0.0, 1.0], 1.0), [0.0, 0.0], [[1.0, 0.0], [-1.0, 0.0]]),
    (UnionSet([Ball([1.0, 0.0], 1.0), Ball([-1.0, 0.0], 1.0)]), [0.0, 0.0],
     [[0.0, 1.0], [0.0, -1.0]]),
    (ProductSet([Interval(0.0, 1.0), Ball([0.0, 1.0], 1.0)]), [1.0, 0.0, 0.0],
     [[0.0, 1.0, 0.0], [-1.0, -1.0, 0.0]]),
]


@pytest.mark.parametrize("s, y, edges", _MEMBERSHIP_SETS,
                         ids=[s.kind for s, _, _ in _MEMBERSHIP_SETS])
def test_membership_matches_the_scalar_probe_loop(s, y, edges):
    rng = np.random.default_rng(7)
    verdicts = set()
    for kind in ("tangent", "outer2", "asymp2"):
        for i in range(40):
            d = edges[i % len(edges)] if i % 2 else tangent_direction(s, y, rng)
            w = 2.0 * rng.normal(size=s.dim)
            got = membership_by_definition(s, y, d, w, kind)
            assert got == reference.membership_pointwise(s, y, d, w, kind), (kind, d, w)
            verdicts.add(got)
    assert len(verdicts) > 1, verdicts


def test_membership_validates_input():
    ball = Ball([0.0, 1.0], 1.0)
    with pytest.raises(OracleError):
        membership_by_definition(ball, [5.0, 5.0], None, [1.0, 0.0], "tangent")
    with pytest.raises(OracleError):
        membership_by_definition(ball, [0.0, 0.0], None, [1.0, 0.0], "nope")


# -- feasible sampling ---------------------------------------------------


def test_sample_feasible_first_example():
    p = first_example()
    pts = sample_feasible(p, 0.1, 400, 42)
    assert len(pts) >= 4
    for x in pts:
        assert np.linalg.norm(x - p.xbar) <= 0.1 + 1e-12
        assert -0.75 - 1e-9 <= p.g_value(x)[0] <= 1e-9


def test_sample_feasible_second_example():
    p = second_example()
    pts = sample_feasible(p, 0.1, 400, 42)
    assert len(pts) >= 4
    assert all(abs(float(x[0])) <= 1.0 + 1e-9 for x in pts)


def test_sample_feasible_rejects_bad_delta():
    with pytest.raises(OracleError):
        sample_feasible(first_example(), 0.0, 10, 42)


def test_sample_feasible_deterministic():
    p = first_example()
    a = sample_feasible(p, 0.1, 200, 7)
    b = sample_feasible(p, 0.1, 200, 7)
    assert len(a) == len(b)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


# -- growth constant -----------------------------------------------------


def test_growth_first_example():
    est = growth_constant_estimate(first_example(), 0.1, 10_000, 42)
    assert 0.80 <= est.kappa_hat <= 1.05
    assert est.witness is not None and est.sample_count > 100


def test_growth_second_example_negative():
    est = growth_constant_estimate(second_example(), 0.1, 10_000, 42)
    assert -0.55 <= est.kappa_hat <= -0.45


def test_growth_square_objective():
    est = growth_constant_estimate(square_objective(), 0.1, 4000, 42)
    assert est.kappa_hat == pytest.approx(1.0, abs=1e-6)


def test_growth_antitone_in_delta():
    p = first_example()
    wide = growth_constant_estimate(p, 0.25, 6000, 42)
    narrow = growth_constant_estimate(p, 0.05, 6000, 42)
    assert wide.kappa_hat <= narrow.kappa_hat + 0.05


def test_growth_deterministic():
    p = second_example()
    a = growth_constant_estimate(p, 0.1, 2000, 11)
    b = growth_constant_estimate(p, 0.1, 2000, 11)
    assert a.kappa_hat == b.kappa_hat
    assert np.array_equal(a.witness, b.witness)


# -- metric subregularity modulus ----------------------------------------


def identity_halfline():
    f = parse_expression("x1^2", 1)
    g = (parse_expression("x1", 1),)
    return ProblemInstance(1, 1, f, g, Interval(-math.inf, 0.0),
                           PointSet([0.0]), [0.0])


def test_mscq_identity_modulus_near_one():
    est = mscq_modulus_estimate(identity_halfline(), [0.0], [1.0],
                                rho=2.5, delta=0.1, count=2000, seed=42)
    assert not est.diverged
    assert est.kappa_hat == pytest.approx(1.0, abs=1e-6)


def test_mscq_square_diverges():
    # dist(x, {0}) / dist(g(x), {0}) = 1e4 / |x| blows up toward the base;
    # the weak coefficient keeps the blowup visible above the solver floors
    f = parse_expression("x1^2", 1)
    g = (parse_expression("0.0001*x1^2", 1),)
    p = ProblemInstance(1, 1, f, g, Interval(0.0, 0.0), PointSet([0.0]), [0.0])
    est = mscq_modulus_estimate(p, [0.0], [1.0], rho=2.5, delta=0.1,
                                count=2000, seed=42)
    assert est.diverged and est.witness is not None
    assert est.kappa_hat is None


def test_mscq_first_example_finite():
    est = mscq_modulus_estimate(first_example(), [0.0, 0.0], [0.0, 1.0],
                                rho=0.5, delta=0.1, count=1000, seed=42)
    assert not est.diverged
    assert est.kappa_hat is not None and est.kappa_hat < 50.0


def test_mscq_rejects_infeasible_base():
    with pytest.raises(OracleError):
        mscq_modulus_estimate(first_example(), [9.0, 9.0], [1.0, 0.0],
                              rho=0.5, delta=0.1, count=10, seed=42)


# -- proximal distance inequality ----------------------------------------


def test_proximal_distance_on_segment():
    S = Box([(0.0, 0.5), (0.0, 0.0)])
    ok, t = proximal_distance_check(S, [0.0, 0.0], [-1.0, 0.0], 0.0)
    assert ok and t is None
    ok, t = proximal_distance_check(S, [0.25, 0.0], [0.0, 1.0], 0.0)
    assert ok


def test_proximal_distance_requires_proximal_direction():
    S = Box([(0.0, 0.5), (0.0, 0.0)])
    with pytest.raises(OracleError):
        proximal_distance_check(S, [0.0, 0.0], [1.0, 0.0], 0.0)


def test_proximal_distance_with_positive_eps():
    S = Box([(0.0, 0.5), (0.0, 0.0)])
    d = [-0.05, 1.0]  # slightly off the proximal cone at an interior point
    ok, _ = proximal_distance_check(S, [0.25, 0.0], d, 0.1)
    assert ok


def test_schedule_shapes():
    ts = STEPS.tolist()
    assert len(ts) == 20 and ts[0] == 0.1
    assert all(t1 == 0.5 * t0 for t0, t1 in zip(ts, ts[1:]))
    # the paired rate r = t^(2/3) dominates t on the unit scale, shrinking slower
    assert all(t ** (2.0 / 3.0) > t for t in ts)


# -- the row-batched oracles against the point-by-point references ---------


def _bits(v):
    return None if v is None else np.asarray(v, dtype=float).tobytes()


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except OracleError as ex:
        return f"OracleError: {ex}"


def _assert_same(got, want):
    """Bit-for-bit equality of two oracle outcomes (sample arrays, growth
    or MSCQ estimates, or the message of the OracleError raised)."""
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    elif isinstance(want, np.ndarray):
        assert type(got) is np.ndarray and got.shape == want.shape
        assert _bits(got) == _bits(want)
    else:
        assert type(got) is type(want)
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if b is None or isinstance(b, (np.ndarray, float)):
                assert _bits(a) == _bits(b), field.name
            else:
                assert a == b, field.name


_CATALOG_KINDS = ("interval", "box", "ball", "halfspace", "polyhedron", "union-ball",
                  "union-box", "product", "finite")


def _kind_name(s):
    """The document kind of a random_catalog_instance set: a union of
    points is a finite set, and other unions are named by their members."""
    if s.kind != "union":
        return s.kind
    return "finite" if s.members[0].kind == "point" else f"union-{s.members[0].kind}"


def _kind_seeds():
    """The first of the seeds 0..999 of random_catalog_instance for each
    catalog kind."""
    out = {}
    for seed in range(1000):
        out.setdefault(_kind_name(random_catalog_instance(seed)[0]), seed)
        if out.keys() >= set(_CATALOG_KINDS):
            break
    missing = [kind for kind in _CATALOG_KINDS if kind not in out]
    assert not missing, f"random_catalog_instance never drew {missing}"
    return {kind: out[kind] for kind in _CATALOG_KINDS}


_KIND_SEEDS = {**_kind_seeds(), "point": None}


def _random_instance(kind_seed, seed):
    """A small polynomial program whose K is a catalog set: g(x) = y + A x
    + quadratic terms with y a point of K, xbar = 0 and S = {0}."""
    rng = np.random.default_rng([seed, 41])
    if kind_seed is None:
        y = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 3)))
        K = PointSet(y)
    else:
        K, y, _, _ = random_catalog_instance(kind_seed)
    y = np.asarray(y, dtype=float)
    n = int(rng.integers(1, 4))
    num = lambda: f"{rng.uniform(-1.5, 1.5):.17g}"
    g = []
    for i in range(K.dim):
        text = f"{y[i]:.17g}" + "".join(
            f" + {num()}*x{j} + {num()}*x{j}^2" for j in range(1, n + 1))
        g.append(parse_expression(text + f" + {num()}*x1*x{n}", n))
    f = parse_expression(" + ".join(f"{num()}*x{j} + {rng.uniform(0.1, 1.5):.17g}*x{j}^2"
                                    for j in range(1, n + 1)), n)
    return ProblemInstance(n, K.dim, f, g, K, PointSet(np.zeros(n)), np.zeros(n))


@pytest.mark.parametrize("kind", list(_KIND_SEEDS))
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_batched_oracles_match_the_scalar_references(kind, seed):
    p = _random_instance(_KIND_SEEDS[kind], seed)
    rng = np.random.default_rng([seed, 43])
    delta = float(rng.choice([0.05, 0.25, 0.5]))
    # the MSCQ samples follow d: take the trial direction leaving K the most
    trials = rng.normal(size=(8, p.n))
    leave, _ = p.K.project_rows(p.g_value_rows(0.01 * trials))
    d = trials[int(np.argmax(leave))]
    _assert_same(_outcome(sample_feasible, p, delta, 120, seed),
                 _outcome(reference.sample_feasible, p, delta, 120, seed))
    _assert_same(_outcome(growth_constant_estimate, p, delta, 120, seed),
                 _outcome(reference.growth_constant_estimate, p, delta, 120, seed))
    _assert_same(_outcome(mscq_modulus_estimate, p, p.xbar, d, 0.5, delta, 30, seed),
                 _outcome(reference.mscq_modulus_estimate, p, p.xbar, d, 0.5, delta,
                          30, seed))


@pytest.mark.parametrize("make", [first_example, second_example, square_objective,
                                  identity_halfline])
def test_batched_oracles_match_the_scalar_references_on_examples(make):
    p = make()
    d = np.ones(p.n)
    _assert_same(growth_constant_estimate(p, 0.1, 600, 3),
                 reference.growth_constant_estimate(p, 0.1, 600, 3))
    _assert_same(mscq_modulus_estimate(p, p.xbar, d, 0.5, 0.1, 60, 3),
                 reference.mscq_modulus_estimate(p, p.xbar, d, 0.5, 0.1, 60, 3))


def _diverging_square():
    f = parse_expression("x1^2", 1)
    g = (parse_expression("0.0001*x1^2", 1),)
    return ProblemInstance(1, 1, f, g, PointSet([0.0]), PointSet([0.0]), [0.0])


def test_diverging_mscq_matches_the_scalar_reference():
    # the block holding the early return also pulls the candidates after it
    p = _diverging_square()
    got = mscq_modulus_estimate(p, [0.0], [1.0], rho=2.5, delta=0.1, count=400, seed=42)
    want = reference.mscq_modulus_estimate(p, [0.0], [1.0], rho=2.5, delta=0.1,
                                           count=400, seed=42)
    assert got.diverged and got.sample_count < 400
    _assert_same(got, want)


@pytest.mark.parametrize("block", [1, 2, 5])
def test_mscq_blocks_match_the_scalar_reference(block, monkeypatch):
    # small blocks put the early return and the witness past the first block;
    # on seed 11 the square diverges at its tenth used sample
    monkeypatch.setattr(oracles, "_MSCQ_BLOCK", block)
    p = _diverging_square()
    got = mscq_modulus_estimate(p, [0.0], [1.0], rho=2.5, delta=0.1, count=400, seed=11)
    assert got.diverged and got.sample_count > block
    _assert_same(got, reference.mscq_modulus_estimate(p, [0.0], [1.0], rho=2.5,
                                                      delta=0.1, count=400, seed=11))
    p, d = first_example(), np.array([0.0, 1.0])
    got = mscq_modulus_estimate(p, p.xbar, d, 0.5, 0.1, 60, 42)
    assert not got.diverged and got.sample_count > block
    _assert_same(got, reference.mscq_modulus_estimate(p, p.xbar, d, 0.5, 0.1, 60, 42))


def _pinv_steps(J, R):
    return (np.linalg.pinv(J, rcond=1e-10) @ R[:, :, None])[:, :, 0]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_one_row_step_is_the_pseudoinverse_step(seed):
    rng = np.random.default_rng([seed, 53])
    n = int(rng.integers(1, 6))
    J = rng.normal(size=(16, 1, n)) * 10.0 ** rng.uniform(-4.0, 4.0, size=(16, 1, 1))
    R = rng.normal(size=(16, 1))
    want = _pinv_steps(J, R)
    got = oracles._gauss_newton_step(J, R)
    assert np.all(np.abs(got - want) <= 1e-12 * np.linalg.norm(want, axis=1)[:, None])


def test_zero_row_step_is_zero():
    J = np.array([[[0.0, 0.0]], [[0.0, 2.0]]])
    with np.errstate(all="raise"):
        step = oracles._gauss_newton_step(J, np.array([[-1.0], [-1.0]]))
    assert np.array_equal(step, [[0.0, 0.0], [0.0, -0.5]])


def test_two_row_pullback_keeps_the_stacked_pinv(monkeypatch):
    p = second_example()
    X = np.random.default_rng(59).uniform(-2.0, 2.0, size=(40, 1))
    got = [oracles._gauss_newton_rows(p, X, iters)[0] for iters in (1, 25)]
    monkeypatch.setattr(oracles, "_gauss_newton_step", _pinv_steps)
    for iters, Y in zip((1, 25), got):
        assert _bits(Y) == _bits(oracles._gauss_newton_rows(p, X, iters)[0])


@pytest.mark.parametrize("iters", [0, 1, 25])
@pytest.mark.parametrize("kind", list(_KIND_SEEDS) + ["second_example"])
def test_pullback_returns_g_at_its_rows_bit_for_bit(kind, iters):
    # the rows are the point-by-point pullback's, and the values handed
    # back are g at them, for one row and for many
    for seed in range(3):
        p = second_example() if kind == "second_example" else \
            _random_instance(_KIND_SEEDS[kind], seed)
        X = np.random.default_rng([seed, 61]).uniform(-0.6, 0.6, size=(25, p.n))
        for rows in (X, X[:1]):
            with np.errstate(over="ignore"):   # some pulls diverge
                Y, G = oracles._gauss_newton_rows(p, rows, iters)
                want = [reference._gauss_newton_feasible(p, x, iters) for x in rows]
            assert _bits(Y) == _bits(want)
            assert G.shape == (rows.shape[0], p.m)
            assert _bits(G) == _bits(p.g_value_rows(Y))


def test_pullback_covers_one_and_several_constraints():
    ms = {_random_instance(_KIND_SEEDS[kind], 0).m for kind in _KIND_SEEDS}
    assert 1 in ms and max(ms) >= 2 and second_example().m == 2


def _directional_probes(rng, n, d, rho, delta):
    """Rows z at 0, on the delta sphere, inside and outside it, and, for
    n >= 2 and rho <= 2, on the cone boundary || |d| z - |z| d || =
    rho |z| |d|: the unit vector at angle arccos(1 - rho^2 / 2) from d."""
    U = rng.normal(size=(6, n))
    U /= np.linalg.norm(U, axis=1)[:, None]
    rows = [np.zeros(n), *(delta * U), *(rng.uniform(0.0, 2.0 * delta, size=(6, 1)) * U)]
    nd = np.linalg.norm(d)
    if n >= 2 and nd > 0.0 and rho <= 2.0:
        e = U[0] - (U[0] @ d) / (nd * nd) * d
        e /= np.linalg.norm(e)
        c = 1.0 - 0.5 * rho * rho
        edge = c * d / nd + math.sqrt(1.0 - c * c) * e
        rows += [r * edge for r in (delta, 0.5 * delta, rng.uniform(0.0, delta))]
    return np.array(rows)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), rho=st.sampled_from([0.1, 0.5, 1.0, 1.9, 2.5]),
       delta=st.sampled_from([0.05, 0.1, 1.0]))
def test_directional_rows_match_the_scalar_test(seed, rho, delta):
    rng = np.random.default_rng([seed, 47])
    n = int(rng.integers(1, 5))
    u = rng.normal(size=n)
    u /= np.linalg.norm(u)
    # d = 0, |d| at and just above the 1e-12 cut, and a generic d
    for d in (np.zeros(n), 1e-12 * u, np.nextafter(1e-12, 1.0) * u, rng.normal(size=n)):
        Z = _directional_probes(rng, n, d, rho, delta)
        want = [reference._in_directional_neighborhood(z, d, rho, delta) for z in Z]
        assert oracles._in_directional_rows(Z, d, rho, delta).tolist() == want


@pytest.mark.parametrize("count", [0, -5])
def test_oracles_reject_counts_below_one(count):
    p = first_example()
    with pytest.raises(OracleError, match="count"):
        sample_feasible(p, 0.1, count, 42)
    with pytest.raises(OracleError, match="count"):
        growth_constant_estimate(p, 0.1, count, 42)
    with pytest.raises(OracleError, match="count"):
        mscq_modulus_estimate(p, [0.0, 0.0], [0.0, 1.0], 0.5, 0.1, count, 42)
