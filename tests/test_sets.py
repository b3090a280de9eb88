"""Catalog sets: membership, exact distance, samplers."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import contains_pointwise, distance_pointwise, random_catalog_instance

from sharpcheck.polyexpr import rng_for, seed_for
from sharpcheck.sets import (
    Ball,
    BaseSet,
    Box,
    Halfspace,
    Interval,
    PointSet,
    Polyhedron,
    ProductSet,
    SetError,
    UnionSet,
    _row_products,
    flatten_union,
)


def two_disks():
    return UnionSet([Ball([1.0, 0.0], 1.0), Ball([-1.0, 0.0], 1.0)])


def vertical_strips():
    return UnionSet([Polyhedron(rows=[([-1.0, 0.0], -1.0)]),
                     Polyhedron(rows=[([1.0, 0.0], -1.0)])])


def test_membership_examples():
    assert Interval(-0.75, 0.0).contains([0.0])
    assert not two_disks().contains([0.0, 0.1])
    assert Ball([0.0, 0.0], 1.0).contains([1.0, 0.0])


def test_distance_examples():
    d, p = Interval(-0.75, 0.0).distance([0.5])
    assert d == pytest.approx(0.5) and p == pytest.approx([0.0])
    d, p = Polyhedron(rows=[([-1.0, 0.0], -1.0)]).distance([0.0, 0.0])
    assert d == pytest.approx(1.0) and p == pytest.approx([1.0, 0.0])
    d, p = vertical_strips().distance([0.2, 0.0])
    assert d == pytest.approx(0.8) and p == pytest.approx([1.0, 0.0])


def test_union_distance_ties_report_the_first_projection():
    # equidistant from both strips: the first member's projection, and
    # the other strip's once the members are swapped
    d, p = vertical_strips().distance([0.0, 2.0])
    assert d == 1.0 and p.tolist() == [1.0, 2.0]
    swapped = UnionSet(vertical_strips().members[::-1])
    assert swapped.distance([0.0, 2.0])[1].tolist() == [-1.0, 2.0]


def test_ball_distance():
    b = Ball([0.0, 0.0], 1.0)
    d, p = b.distance([2.0, 0.0])
    assert d == pytest.approx(1.0) and p == pytest.approx([1.0, 0.0])
    d, p = b.distance([0.3, 0.1])
    assert d == 0.0 and p == pytest.approx([0.3, 0.1])


def test_product_distance_combines():
    s = ProductSet([Interval(0.0, 0.5), PointSet([0.0])])
    d, p = s.distance([1.0, 2.0])
    assert d == pytest.approx(math.hypot(0.5, 2.0))
    assert p == pytest.approx([0.5, 0.0])
    assert s.contains([0.25, 0.0]) and not s.contains([0.25, 0.1])


def finite_set(points):
    """A finite set, as a problem document's kind "finite" builds it."""
    return UnionSet([PointSet(p) for p in points])


def test_finite_set_multiple_minimizers():
    # two nearest points: the first one listed is the projection
    s = finite_set([[1.0, 0.0], [-1.0, 0.0], [0.0, 5.0]])
    d, p = s.distance([0.0, 0.0])
    assert d == 1.0 and p.tolist() == [1.0, 0.0]
    D, P = s.project_rows(np.array([[0.0, 0.0], [-0.5, 0.0], [0.0, 4.0]]))
    assert D.tolist() == [1.0, 0.5, 1.0]
    assert P.tolist() == [[1.0, 0.0], [-1.0, 0.0], [0.0, 5.0]]


def test_box_with_infinite_endpoints():
    k = Box([Interval(-math.inf, 0.0)])
    assert k.contains([-100.0]) and not k.contains([0.1])
    d, _ = k.distance([2.0])
    assert d == pytest.approx(2.0)
    reg = k.as_region()
    assert reg.contains([-5.0]) and not reg.contains([0.5])


def test_nonempty_validation():
    with pytest.raises(SetError):
        Polyhedron(rows=[([1.0], -1.0), ([-1.0], -1.0)])
    with pytest.raises(SetError):
        Ball([0.0], 0.0)
    with pytest.raises(SetError):
        Interval(1.0, 0.0)
    with pytest.raises(SetError):
        UnionSet([])


def test_as_region_matches_membership():
    rng = np.random.default_rng(9)
    s = UnionSet([Polyhedron(rows=[([-1.0, 0.0], -1.0)]),
                  Box([Interval(-0.5, 0.0), Interval(0.0, 1.0)])])
    reg = s.as_region()
    for _ in range(200):
        y = rng.uniform(-2, 2, size=2)
        assert s.contains(y) == reg.contains(y)
    assert two_disks().as_region() is None


def test_flatten_union():
    nested = UnionSet([UnionSet([PointSet([0.0]), PointSet([1.0])]), PointSet([2.0])])
    assert len(flatten_union(nested)) == 3
    assert len(flatten_union(PointSet([0.0]))) == 1


def test_sampler_returns_members_within_delta():
    rng = np.random.default_rng(77)
    for s in [two_disks(), vertical_strips(),
              ProductSet([Interval(0.0, 0.5), PointSet([0.0])])]:
        x = np.zeros(s.dim)
        if not s.contains(x):
            x = s.distance(x)[1]
        pts = s.sample_near(x, 0.5, rng, 40)
        assert len(pts) >= 10
        for p in pts:
            assert s.contains(p, tol=1e-7)
            assert np.linalg.norm(p - x) <= 0.5 + 1e-9


# -- row membership and projection ------------------------------------------


def _composites():
    """Catalog sets beyond random_catalog_instance: higher-dimensional
    halfspaces, balls and points, polyhedra with equalities, tie windows,
    and unions and products nested in each other."""
    strips = vertical_strips()
    return [
        Halfspace([0.3, -1.2, 0.7], 0.4),
        Ball([0.2, -0.1, 0.5, 0.0], 0.8),
        PointSet([0.1, -0.3, 0.2]),
        Polyhedron(rows=[([1.0, 1.0], 1.0)], equalities=[([1.0, -2.0], 0.25)]),
        strips,
        UnionSet([Halfspace([1.0, 1.0], -1.0), PointSet([0.5, 0.5]),
                  Ball([2.0, 0.0], 0.5)]),
        ProductSet([strips, Interval(-0.5, 0.5), Ball([0.0, 1.0], 1.0)]),
        UnionSet([ProductSet([Interval(0.0, 1.0), PointSet([0.0])]),
                  ProductSet([PointSet([0.0]), Interval(0.0, 1.0)])]),
        finite_set([[0.0, 1.0], [1.0, 0.0], [-1.0, -1.0]]),
    ]


_COMPOSITE_IDS = ("halfspace", "ball", "point", "polyhedron", "union0", "union1",
                  "product", "union2", "finite")


def _probe_rows(s, y, rng):
    """Points around y at several scales, on the boundary (projections and
    exact ties) and just inside and outside the membership tolerances."""
    y = np.asarray(y, dtype=float)
    pts = [y, np.zeros(s.dim)]
    for scale in (1e-10, 1e-8, 1e-3, 0.3, 2.0):
        pts += list(y + scale * rng.normal(size=(4, s.dim)))
    for q in list(pts):
        proj = s.distance(q)[1]
        out = q - proj
        pts += [proj, proj + 5e-10 * out, proj + 5e-9 * out, proj - 5e-10 * out]
    return np.array(pts)


def _check_rows(s, Y):
    for tol in (1e-10, 1e-9, 1e-7):
        want = [contains_pointwise(s, y, tol) for y in Y]
        assert s.contains_rows(Y, tol).tolist() == want
        assert [s.contains(y, tol) for y in Y] == want
    D, P = s.project_rows(Y)
    want = [distance_pointwise(s, y) for y in Y]
    assert D.tobytes() == np.array([d for d, _ in want], dtype=float).tobytes()
    assert P.tobytes() == np.array([p for _, p in want]).tobytes()
    pairs = [s.distance(y) for y in Y]
    assert D.tobytes() == np.array([d for d, _ in pairs], dtype=float).tobytes()
    assert P.tobytes() == np.array([p for _, p in pairs]).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_row_methods_match_pointwise_on_random_catalog_sets(seed):
    s, y, _, _ = random_catalog_instance(seed)
    _check_rows(s, _probe_rows(s, y, np.random.default_rng(seed)))


@pytest.mark.parametrize("s", _composites(), ids=_COMPOSITE_IDS)
def test_row_methods_match_pointwise_on_composite_sets(s):
    rng = np.random.default_rng(5)
    y = s.distance(rng.normal(size=s.dim))[1]
    _check_rows(s, _probe_rows(s, y, rng))


def test_project_rows_keeps_the_first_projection_of_a_tie():
    # equidistant from both strips: the first member's projection wins
    Y = np.array([[0.0, 2.0], [0.0, -1.0]])
    _check_rows(vertical_strips(), Y)
    assert vertical_strips().project_rows(Y)[1].tolist() == [[1.0, 2.0], [1.0, -1.0]]


def _sample_near_pointwise(s, x, delta, rng, count):
    """sample_near one draw and one scalar projection at a time."""
    x = np.asarray(x, dtype=float)
    out = []
    for _ in range(count):
        p = s.distance(x + rng.uniform(-delta, delta, size=s.dim))[1]
        if np.linalg.norm(p - x) <= delta + 1e-12:
            out.append(p)
    return out


_SAMPLE_CASES = ((1e-3, 7), (0.5, 60), (2.0, 25), (0.5, 0))


def _check_point_sample_near(s, x, seed, cases=_SAMPLE_CASES):
    """A point set returns the first point of the pointwise sampler, whose
    points are all its one point, and leaves the caller's generator unused."""
    for delta, count in cases:
        rng = np.random.default_rng(seed)
        got = s.sample_near(x, delta, rng, count)
        want = _sample_near_pointwise(s, x, delta, np.random.default_rng(seed), count)[:1]
        assert len(got) == len(want) <= 1
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert rng.random() == np.random.default_rng(seed).random()


def _check_sample_near(s, x, seed):
    if s.kind == "point":
        _check_point_sample_near(s, x, seed)
        return
    for delta, count in _SAMPLE_CASES:
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = s.sample_near(x, delta, rng, count)
        want = _sample_near_pointwise(s, x, delta, ref_rng, count)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        # the caller's generator is left where the pointwise draws leave it
        assert rng.random() == ref_rng.random()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_sample_near_matches_pointwise_on_random_catalog_sets(seed):
    s, y, _, _ = random_catalog_instance(seed)
    _check_sample_near(s, y, seed)


@pytest.mark.parametrize("s", _composites(), ids=_COMPOSITE_IDS)
def test_sample_near_matches_pointwise_on_composite_sets(s):
    y = s.distance(np.random.default_rng(9).normal(size=s.dim))[1]
    _check_sample_near(s, y, 9)


def _check_seed_sample_near(s, x, seed):
    """sample_near from a stream's seed returns the bytes it returns from
    the stream's generator, on every case of _check_sample_near."""
    for tag in (13, 0x5F5F):
        for delta, count in _SAMPLE_CASES:
            got = s.sample_near(x, delta, seed_for(seed, tag), count)
            want = s.sample_near(x, delta, rng_for(seed, tag), count)
            assert np.array(got).tobytes() == np.array(want).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_sample_near_from_a_seed_matches_the_generator_on_random_catalog_sets(seed):
    s, y, _, _ = random_catalog_instance(seed)
    _check_seed_sample_near(s, y, seed)


@pytest.mark.parametrize("s", _composites(), ids=_COMPOSITE_IDS)
def test_sample_near_from_a_seed_matches_the_generator_on_composite_sets(s):
    y = s.distance(np.random.default_rng(9).normal(size=s.dim))[1]
    _check_seed_sample_near(s, y, 9)


def test_point_sample_near_keeps_its_point_up_to_delta_plus_1e_12():
    s, delta = PointSet(np.zeros(3)), 0.5
    edge = delta + 1e-12
    for i in range(3):
        for t, kept in ((edge, True), (-edge, True), (np.nextafter(edge, 1.0), False)):
            x = np.zeros(3)
            x[i] = t
            _check_point_sample_near(s, x, 4, ((delta, 5),))
            assert len(s.sample_near(x, delta, np.random.default_rng(4), 5)) == kept
    assert s.sample_near(np.zeros(3), delta, np.random.default_rng(4), 0) == []


class _FixedOffsets(np.random.Generator):
    """A generator whose uniform draws all equal one offset."""

    def __init__(self, offset):
        super().__init__(np.random.PCG64(0))
        self.offset = np.asarray(offset, dtype=float)

    def uniform(self, low, high, size):
        return np.broadcast_to(self.offset, size).copy()


def test_sample_near_keeps_a_tied_draw_by_its_first_projection():
    # every draw is (0, 0), equidistant from both strips; its projection is
    # the first member's, and only the second strip's (-1, 0) lies within
    # 0.6 of x
    x = [-0.5, 0.0]
    strips = vertical_strips()
    for s, kept in ((strips, []), (UnionSet(strips.members[::-1]), [[-1.0, 0.0]] * 3)):
        got = s.sample_near(x, 0.6, _FixedOffsets([0.5, 0.0]), 3)
        want = _sample_near_pointwise(s, x, 0.6, _FixedOffsets([0.5, 0.0]), 3)
        assert [p.tolist() for p in got] == [p.tolist() for p in want] == kept


def test_row_products_match_one_row_products_bit_for_bit():
    # a blocked Y @ M sums some rows in another order on common BLAS builds
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        for m in (1, 3, 8):
            Y, M = rng.normal(size=(300, n)), rng.normal(size=(m, n)).T
            want = np.array([(y[None] @ M)[0] for y in Y])
            assert _row_products(Y, M).tobytes() == want.tobytes()


def test_every_kind_has_one_membership_implementation():
    kinds = BaseSet.__subclasses__()
    assert len(kinds) == 8
    for cls in kinds:
        assert "contains_rows" in vars(cls) and "contains" not in vars(cls), cls.__name__
        assert "project_rows" in vars(cls) and "distance" not in vars(cls), cls.__name__


def test_every_kind_defines_a_projection():
    # a kind that lacks either row method cannot be built
    assert BaseSet.__abstractmethods__ == {"contains_rows", "project_rows"}


def test_row_methods_check_shapes():
    for s in (Interval(0.0, 1.0), Ball([0.0, 0.0], 1.0), finite_set([[0.0, 1.0]]),
              *_composites()):
        assert s.contains_rows(np.zeros((0, s.dim))).shape == (0,)
        D, P = s.project_rows(np.zeros((0, s.dim)))
        assert D.shape == (0,) and P.shape == (0, s.dim)
        for bad in (np.zeros(s.dim), np.zeros((2, s.dim + 1))):
            with pytest.raises(SetError):
                s.contains_rows(bad)
            with pytest.raises(SetError):
                s.project_rows(bad)


# -- non-finite data ----------------------------------------------------------


@pytest.mark.parametrize("build", [
    lambda: Halfspace([1.0, math.inf], 0.0),
    lambda: Halfspace([1.0, 0.0], math.nan),
    lambda: Polyhedron(rows=[([1.0], 0.0), ([1.0], math.inf)]),
    lambda: Polyhedron(equalities=[([math.nan, 1.0], 0.0)]),
    lambda: Ball([0.0, -math.inf], 1.0),
    lambda: Ball([0.0, 0.0], math.inf),
    lambda: PointSet([0.0, math.inf]),
    lambda: finite_set([[0.0, 0.0], [1.0, math.inf]]),
], ids=["halfspace-normal", "halfspace-offset", "polyhedron-rhs",
        "polyhedron-equality", "ball-center", "ball-radius", "point", "finite"])
def test_non_finite_set_data_is_rejected(build):
    with pytest.raises(SetError, match="non-finite entry"):
        build()

