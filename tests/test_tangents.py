"""First- and second-order tangent objects, normal cone families, and the
randomized invariant battery over the set catalog."""

import math

import numpy as np
import pytest

from sharpcheck import lp as _lp, tangents
from sharpcheck.sets import (Ball, BaseSet, Box, Halfspace, Interval,
                             PointSet, Polyhedron, ProductSet, UnionSet)
from sharpcheck.tangents import (TangentError, directional_clarke_tangent,
                                 directional_normal, eps_proximal_filter,
                                 eps_proximal_membership, face_labels, normal_cone,
                                 second_tangent, tangent_cone)
from sharpcheck.regions import (PolyCell, Region, RegionError, lower_gen_support_detail,
                                polar_cone, region_subset, region_tangent_cone)

from helpers import (invariant_battery, is_cone, limiting_normal_region, minkowski_sum,
                     oracle_agreement, random_catalog_instance, reference_proximal_cell,
                     region_bytes, region_compare, region_equal, tangent_direction)


def halfspace(normal, offset=0.0, dim=2):
    return Region.from_cell(PolyCell([normal], [offset], dim=dim))


def two_disks():
    return UnionSet([Ball([1.0, 0.0], 1.0), Ball([-1.0, 0.0], 1.0)])


# -- tangent cones -------------------------------------------------------


def test_box_corner_tangent_cone():
    box = Box([(0.0, 1.0), (0.0, 1.0)])
    t = tangent_cone(box, [0.0, 0.0])
    orthant = Region.from_cell(PolyCell([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0], dim=2))
    assert region_compare(t, orthant).relation == "equal"
    # interior points see the whole space
    assert region_compare(tangent_cone(box, [0.5, 0.5]), Region.all_space(2)).relation == "equal"


def test_ball_tangent_cone_is_supporting_halfspace():
    ball = Ball([0.0, 1.0], 1.0)
    t = tangent_cone(ball, [0.0, 0.0])
    assert region_compare(t, halfspace([0.0, -1.0])).relation == "equal"
    assert region_compare(tangent_cone(ball, [0.0, 1.0]), Region.all_space(2)).relation == "equal"


def test_isolated_points_have_trivial_tangents():
    assert region_compare(tangent_cone(PointSet([0.0, 0.0]), [0.0, 0.0]),
                          Region.origin(2)).relation == "equal"
    f = UnionSet([PointSet([0.0, 0.0]), PointSet([1.0, 0.0])])
    assert region_compare(tangent_cone(f, [1.0, 0.0]), Region.origin(2)).relation == "equal"


def test_union_tangent_cone_with_contact_note():
    t = tangent_cone(two_disks(), [0.0, 0.0])
    assert region_compare(t, Region.all_space(2)).relation == "equal"
    assert any("tangential member contact" in n for n in t.notes)


def test_contact_note_reads_members_that_are_products():
    # [-1, 1] x [-1, 1] split at x1 = 0, written as boxes and as products
    # of intervals: the members touch along x1 = 0 either way
    boxes = UnionSet([Box([(-1.0, 0.0), (-1.0, 1.0)]), Box([(0.0, 1.0), (-1.0, 1.0)])])
    products = UnionSet([ProductSet([Interval(-1.0, 0.0), Interval(-1.0, 1.0)]),
                         ProductSet([Interval(0.0, 1.0), Interval(-1.0, 1.0)])])
    notes = ("tangential member contact at base point; verify by oracle",)
    for y in ([0.0, 0.5], [0.0, 1.0]):
        assert tangent_cone(boxes, y).notes == tangent_cone(products, y).notes == notes
    # away from the seam only one member holds y
    y = [0.5, 0.5]
    assert tangent_cone(boxes, y).notes == tangent_cone(products, y).notes == ()


def test_product_tangent_cone():
    p = ProductSet([Interval(-1.0, 0.0), Ball([0.0, 1.0], 1.0)])
    t = tangent_cone(p, [0.0, 0.0, 0.0])
    exp = Region.from_cell(PolyCell([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0]], [0.0, 0.0], dim=3))
    assert region_compare(t, exp).relation == "equal"


# -- second-order tangent sets -------------------------------------------


def test_ball_second_tangents():
    ball = Ball([0.0, 1.0], 1.0)
    outer = second_tangent(ball, [0.0, 0.0], [1.0, 0.0], "outer")
    asym = second_tangent(ball, [0.0, 0.0], [1.0, 0.0], "asymptotic")
    assert region_compare(outer, halfspace([0.0, -1.0], -1.0)).relation == "equal"
    assert region_compare(asym, halfspace([0.0, -1.0])).relation == "equal"
    # curvature pushes the outer set strictly inside the asymptotic cone
    assert region_compare(outer, asym).relation == "strict_subset"


def test_two_disks_outer_second_tangent_splits():
    outer = second_tangent(two_disks(), [0.0, 0.0], [0.0, 1.0], "outer")
    exp = halfspace([-1.0, 0.0], -1.0).union(halfspace([1.0, 0.0], -1.0))
    assert region_compare(outer, exp).relation == "equal"
    asym = second_tangent(two_disks(), [0.0, 0.0], [0.0, 1.0], "asymptotic")
    assert region_compare(asym, Region.all_space(2)).relation == "equal"


def test_second_tangent_zero_direction_reduction():
    for s, y in [(Ball([0.0, 1.0], 1.0), [0.0, 0.0]),
                 (Box([(0.0, 1.0), (0.0, 1.0)]), [0.0, 0.0]),
                 (two_disks(), [0.0, 0.0])]:
        t = tangent_cone(s, y)
        for kind in ("outer", "asymptotic"):
            assert region_compare(second_tangent(s, y, [0.0, 0.0], kind), t).relation == "equal"


def test_non_tangent_direction_reports_note():
    ball = Ball([0.0, 1.0], 1.0)
    out = second_tangent(ball, [0.0, 0.0], [0.0, -1.0], "outer")
    assert out.is_empty()
    assert "direction not tangent" in out.notes
    dn = directional_normal(ball, [0.0, 0.0], [0.0, -1.0], "limiting")
    assert dn.is_empty()
    assert "direction not tangent" in dn.notes
    with pytest.raises(TangentError):
        directional_clarke_tangent(ball, [0.0, 0.0], [0.0, -1.0])


def test_second_tangent_validates_kind():
    with pytest.raises(TangentError):
        second_tangent(Ball([0.0, 1.0], 1.0), [0.0, 0.0], [1.0, 0.0], "inner")


def test_polyhedral_convex_identity():
    # convex polyhedral data: the asymptotic set equals the tangent cone of
    # the tangent cone at the direction, and the outer set matches it
    box = Box([(0.0, 1.0), (0.0, 1.0)])
    y, d = [0.0, 0.0], [1.0, 0.0]
    t = tangent_cone(box, y)
    outer = second_tangent(box, y, d, "outer")
    asym = second_tangent(box, y, d, "asymptotic")
    assert region_compare(asym, region_tangent_cone(t, d)).relation == "equal"
    assert region_compare(outer, asym).relation == "equal"
    assert region_compare(outer, halfspace([0.0, -1.0])).relation == "equal"


def test_second_tangent_sum_stability():
    # adding the directional Clarke tangent cone leaves both second-order
    # sets unchanged on polyhedral data
    box = Box([(0.0, 1.0), (0.0, 1.0)])
    y, d = [0.0, 0.0], [1.0, 0.0]
    clarke = directional_clarke_tangent(box, y, d)
    for kind in ("outer", "asymptotic"):
        reg = second_tangent(box, y, d, kind)
        assert region_compare(minkowski_sum(reg, clarke), reg).relation == "equal"


# -- normal cone families -------------------------------------------------


def test_box_corner_normal_cones_coincide():
    box = Box([(0.0, 1.0), (0.0, 1.0)])
    neg = Region.from_cell(PolyCell([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], dim=2))
    for kind in ("proximal", "frechet", "limiting"):
        assert region_compare(normal_cone(box, [0.0, 0.0], kind), neg).relation == "equal"


def test_normal_cone_polarity():
    for seed in (3, 11):
        s, y, _, _ = random_catalog_instance(seed)
        fre = normal_cone(s, y, "frechet")
        assert region_compare(fre, polar_cone(tangent_cone(s, y))).relation == "equal"


def test_two_disks_normal_cones():
    lim = normal_cone(two_disks(), [0.0, 0.0], "limiting")
    axis = Region.from_cell(PolyCell(None, None, [[0.0, 1.0]], [0.0], dim=2))
    assert region_compare(lim, axis).relation == "equal"
    fre = normal_cone(two_disks(), [0.0, 0.0], "frechet")
    assert region_compare(fre, Region.origin(2)).relation == "equal"
    with pytest.raises(TangentError):
        normal_cone(two_disks(), [0.0, 0.0], "nope")


def test_directional_normal_ball():
    ball = Ball([0.0, 1.0], 1.0)
    dn = directional_normal(ball, [0.0, 0.0], [1.0, 0.0], "limiting")
    ray = Region.from_cell(PolyCell([[0.0, 1.0]], [0.0], [[1.0, 0.0]], [0.0], dim=2))
    assert region_compare(dn, ray).relation == "equal"
    # the Clarke hull of a convex cone is the cone itself
    cl = directional_normal(ball, [0.0, 0.0], [1.0, 0.0], "clarke")
    assert region_compare(cl, ray).relation == "equal"
    # zero direction reduces to the plain limiting cone
    dz = directional_normal(ball, [0.0, 0.0], [0.0, 0.0], "limiting")
    assert region_compare(dz, normal_cone(ball, [0.0, 0.0], "limiting")).relation == "equal"


def test_directional_normal_union_stays_inside_limiting():
    dn = directional_normal(two_disks(), [0.0, 0.0], [0.0, 1.0], "limiting")
    assert is_cone(dn)
    included, _ = region_subset(dn, normal_cone(two_disks(), [0.0, 0.0], "limiting"))
    assert included


def _directional_cases():
    """Every catalog kind at a boundary point, with a tangent direction, the
    zero direction and a random direction."""
    # one seed for each kind random_catalog_instance draws
    sets = [random_catalog_instance(seed)[:2] for seed in (0, 1, 2, 3, 9, 10, 15, 22)]
    sets += [(PointSet([0.5, -1.0]), [0.5, -1.0]),
             (ProductSet([two_disks(), Interval(0.0, 1.0)]), [0.0, 0.0, 1.0])]
    for i, (s, y) in enumerate(sets):
        rng = np.random.default_rng([i, 53])
        for u in (tangent_direction(s, y, rng), np.zeros(s.dim), rng.normal(size=s.dim)):
            yield s, y, u


def _directional_bytes(s, y, u):
    return [region_bytes(directional_normal(s, y, u, kind)) for kind in ("limiting", "clarke")]


def test_directional_normal_matches_the_two_cone_route(monkeypatch):
    # the tangency test's T_s(y) gives the normal cone of a convex set; the
    # route it replaces built that cone a second time
    cases = list(_directional_cases())
    assert {s.kind for s, _, _ in cases} == {k.kind for k in BaseSet.__subclasses__()}
    one_cone = [_directional_bytes(*case) for case in cases]
    with _lp.reuse_scope():
        one_cone_scoped = [_directional_bytes(*case) for case in cases]
    built = []
    tangent = tangents._tangent_cone
    monkeypatch.setattr(tangents, "_tangent_cone",
                        lambda s, y: built.append(s) or tangent(s, y))
    for s, y, u in cases:   # outside a scope: one T_s(y) per call
        built.clear()
        directional_normal(s, y, u, "limiting")
        assert sum(b is s for b in built) == 1
    frechet = tangents._frechet_normal
    monkeypatch.setattr(tangents, "_frechet_normal", lambda s, y, tc=None: frechet(s, y))
    two_cone = [_directional_bytes(*case) for case in cases]
    with _lp.reuse_scope():
        two_cone_scoped = [_directional_bytes(*case) for case in cases]
    assert one_cone == two_cone and one_cone_scoped == two_cone_scoped == two_cone


# one value in each band a face label tells apart, along each coordinate
BAND_VALUES = (-1.0, -2e-8, -5e-9, -5e-10, 0.0, 5e-10, 5e-9, 5e-8, 2e-7)
BOXES = UnionSet([Box([(-1.0, 0.0), (-1.0, 1.0)]), Box([(-1.0, 1.0), (-1.0, 0.0)])])


@pytest.mark.parametrize("s", [
    Box([(-1.0, 0.0), (-1.0, 0.0)]),
    Polyhedron([([1.0, 0.0], 0.0)], [([1.0, -1.0], 0.0)]),
    ProductSet([Interval(-1.0, 0.0), Interval(-1.0, 0.0)]),
    ProductSet([UnionSet([Interval(-1.0, 0.0), Interval(0.5, 1.0)]),
                Interval(-1.0, 0.0)]),
    BOXES,
    UnionSet([Polyhedron([([1.0, 0.0], 0.0)], [([0.0, 1.0], 0.0)]),
              Box([(-1.0, 1.0), (-1.0, 0.0)])]),
    UnionSet([Polyhedron([([1.0, 0.0], 0.0)], [([0.0, 1.0], 0.0)]),
              Polyhedron([([-1.0, 0.0], 0.0)], [([0.0, 1.0], 0.0)])]),
], ids=["box-corner", "polyhedron-with-equality", "interval-product", "union-by-interval",
        "boxes", "union-with-equality", "two-half-lines"])
def test_equal_face_labels_give_equal_directional_objects(s):
    # a polyhedral set's second-order sets and directional normal cones at
    # u depend on u only through the face label
    y = np.zeros(2)
    U = np.array([(a, b) for a in BAND_VALUES for b in BAND_VALUES])
    groups = {}
    for u, label in zip(U, face_labels(s, y, U)):
        groups.setdefault(label, []).append(u)
    for us in groups.values():
        first, *rest = us
        for kind in ("outer", "asymptotic"):
            want = region_bytes(second_tangent(s, y, first, kind))
            assert all(region_bytes(second_tangent(s, y, u, kind)) == want for u in rest), \
                (kind, first)
        want = directional_normal(s, y, first, "limiting")
        assert all(region_equal(directional_normal(s, y, u, "limiting"), want)
                   for u in rest), first


def test_directional_clarke_tangent_builds_the_tangent_cone_once(monkeypatch):
    # the tangency test's T_s(y) is the one the Clarke cone starts from.
    # The cone is no memo kind: each call builds T_s(y) once, and a scope
    # around the calls shares only the objects it is built from
    cases = [(s, y, u) for s, y, u in _directional_cases()
             if tangent_cone(s, y).contains(u, tol=1e-7)]
    fresh = [region_bytes(directional_clarke_tangent(*case)) for case in cases]
    built = []
    tangent = tangents._tangent_cone
    monkeypatch.setattr(tangents, "_tangent_cone",
                        lambda s, y: built.append(s) or tangent(s, y))
    for (s, y, u), want in zip(cases, fresh):
        built.clear()
        directional_normal(s, y, u, "clarke")
        alone = len(built)
        built.clear()
        assert region_bytes(directional_clarke_tangent(s, y, u)) == want
        # outside a scope: no more builds than the Clarke cone's own
        assert sum(b is s for b in built) == 1 and len(built) <= alone
        with _lp.reuse_scope():
            built.clear()
            first = directional_clarke_tangent(s, y, u)
            assert sum(b is s for b in built) == 1
            second = directional_clarke_tangent(s, y, u)
            assert sum(b is s for b in built) == 1
        assert region_bytes(first) == region_bytes(second) == want
    with pytest.raises(TangentError):
        directional_clarke_tangent(Ball([0.0, 1.0], 1.0), [0.0, 0.0], [0.0, -1.0])


@pytest.mark.parametrize("halfspaces", [
    [([1.0, 0.0], 0.0), ([0.0, 1.0], 0.0)],
    [([1.0, 0.0], 0.0), ([-1.0, 0.0], 0.0)],
    [([1.0, 0.0], 0.0), ([-1.0, 1.0], 0.0)],
], ids=["quadrant-union", "two-sides", "wedge-union"])
def test_polyhedral_strata_match_the_face_complex(halfspaces):
    """A ball far from y keeps a polyhedral union off ``as_region()``, yet
    its limiting and directional normal cones at y, decided by the exact
    stratum LPs alone, must equal the face-complex cones of the same union
    without the ball, and no stratum is dropped unvalidated.  Dropping the
    rows that violate an avoided member breaks the two-sides case; flipping
    the sign of the strict rows breaks none of these cases."""
    members = [Halfspace(a, beta) for a, beta in halfspaces]
    plain = UnionSet(members)
    curved = UnionSet([*members, Ball([5.0, 5.0], 1.0)])
    assert curved.as_region() is None
    y = [0.0, 0.0]
    cones = [(normal_cone(curved, y, "limiting"),
              limiting_normal_region(plain.as_region(), y))]
    for u in ([1.0, 0.0], [0.0, -1.0], [-1.0, -1.0], [0.0, 1.0]):
        cones.append((directional_normal(curved, y, u, "limiting"),
                      limiting_normal_region(plain.as_region(), y, np.array(u))))
    for got, want in cones:
        assert region_equal(got, want)
        assert not any("dropped" in n for n in got.notes)


def _rays(*rays):
    """The union of the rays through each of rays, or {0} for none."""
    cells = [PolyCell.cone([r], None, 2) for r in rays]
    return Region(cells or [PolyCell.from_point(np.zeros(2))], dim=2)


@pytest.mark.parametrize("s,cones", [
    # the box's edges at 0 run inside the open disk, so only the sphere
    # outside the box carries normals: along (1, -1) the disk's, along the
    # edge (1, 0) none
    (UnionSet([Ball(np.array([1.0, 1.0]) / math.sqrt(2.0), 1.0),
               Box([(0.0, 1.0), (0.0, 1.0)])]),
     {None: [(-1.0, -1.0)], (1.0, -1.0): [(-1.0, -1.0)], (1.0, 0.0): []}),
    # the line y2 = 0 left of the disk carries (0, 1), the sphere above the
    # halfspace (-1, 0)
    (UnionSet([Ball([1.0, 0.0], 1.0), Halfspace([0.0, 1.0], 0.0)]),
     {None: [(-1.0, 0.0), (0.0, 1.0)], (-1.0, 0.0): [(0.0, 1.0)],
      (0.0, 1.0): [(-1.0, 0.0)]}),
], ids=["disk-and-box", "disk-and-halfspace"])
def test_ball_and_polyhedron_unions_have_hand_derived_normal_cones(s, cones):
    # the strata mixing a sphere with polyhedral rows are validated by the
    # sampler: affine surfaces, their projection, the row tests of a
    # configuration and the polyhedral normals
    y = [0.0, 0.0]
    for u, rays in cones.items():
        got = (normal_cone(s, y, "limiting") if u is None
               else directional_normal(s, y, u, "limiting"))
        assert region_equal(got, _rays(*rays)), u


def _reference_cases():
    """(id, nonconvex polyhedral set, base point) for the face-complex
    reference comparison."""
    boxes = [UnionSet([Box([(-1.0, 0.0)] * m), Box([(0.0, 1.0)] * m)]) for m in (2, 3)]
    wedge = UnionSet([Halfspace([1.0, 0.0], 0.0), Halfspace([-1.0, 1.0], 0.0)])
    fan = UnionSet([Halfspace([np.cos(t), np.sin(t)], 0.0) for t in (0.0, 2.0, 4.0)])
    triangle = Polyhedron(rows=[([-1.0, 0.0], 0.0), ([0.0, -1.0], 0.0), ([1.0, 1.0], 2.0)])
    product = ProductSet([UnionSet([Interval(-1.0, 0.0), Interval(0.0, 1.0)]),
                          Interval(0.0, 1.0)])
    points = UnionSet([PointSet(p) for p in ([0.0, 0.0], [1.0, 1.0], [2.0, 0.0])])
    return [
        ("boxes-r2", boxes[0], [0.0, 0.0]),
        ("boxes-r2-edge", boxes[0], [0.0, -0.5]),
        ("boxes-r3", boxes[1], [0.0, 0.0, 0.0]),
        ("halfspaces-wedge", wedge, [0.0, 0.0]),
        ("halfspaces-fan", fan, [0.0, 0.0]),
        ("polyhedron-halfspace", UnionSet([triangle, Halfspace([1.0, -1.0], 0.0)]), [0.0, 0.0]),
        ("product-member", UnionSet([product, Halfspace([1.0, 1.0], 0.0)]), [0.0, 0.0]),
        ("nested-union-member", UnionSet([wedge, Box([(0.0, 1.0), (-1.0, 0.0)])]), [0.0, 0.0]),
        ("finite-member", UnionSet([Halfspace([1.0, 0.0], 0.0), points]), [0.0, 0.0]),
        ("finite-member-isolated", UnionSet([Halfspace([1.0, 0.0], 0.0), points]), [1.0, 1.0]),
        ("finite", points, [1.0, 1.0]),
    ]


def _reference_directions(s, y):
    """The zero direction, every ray and line (both ways) of every cell of
    T_s(y) and one sum per cell, and the coordinate directions both ways,
    tangent or not; each direction once."""
    out = [np.zeros(s.dim)]
    for cell in tangent_cone(s, y).nonempty_cells():
        _, rays, lines = cell.generators()
        out += [*rays, *lines, *(-l for l in lines)]
        if len(rays) + len(lines) > 1:
            out.append(np.sum([*rays, *lines], axis=0))
    out += [sgn * e for e in np.eye(s.dim) for sgn in (1.0, -1.0)]
    units = [u / max(np.linalg.norm(u), 1.0) for u in out]
    return [u for i, u in enumerate(units)
            if not any(np.allclose(u, v) for v in units[:i])]


@pytest.mark.parametrize("case", _reference_cases(), ids=lambda case: case[0])
def test_limiting_normals_match_the_face_complex_reference(case):
    """Every nonconvex set takes the strata route; on polyhedral sets its
    plain and directional limiting normal cones equal the reference built
    from the face complex of the whole region."""
    _, s, y = case
    dirs = _reference_directions(s, y)
    tangent = [u for u in dirs if u.any() and tangent_cone(s, y).contains(u)]
    assert len(tangent) >= 4 or region_equal(tangent_cone(s, y), Region.origin(s.dim))
    got = [normal_cone(s, y, "limiting")]
    got += [directional_normal(s, y, u, "limiting") for u in dirs]
    with _lp.reuse_scope():   # one face complex per region
        reg = s.as_region()
        want = [limiting_normal_region(reg, y)]
        want += [limiting_normal_region(reg, y, u if u.any() else None) for u in dirs]
    for g, w, u in zip(got, want, [None, *dirs]):
        assert region_equal(g, w), (u, g, w)


def test_finite_set_limiting_cone_poses_no_lp(monkeypatch):
    s, y, _, _ = random_catalog_instance(9)   # a union of three points
    assert len(s.members) == 3 and all(isinstance(m, PointSet) for m in s.members)

    def refuse(*args, **kwargs):
        raise AssertionError("a finite set's limiting normal cone posed a margin LP")

    with monkeypatch.context() as mp:
        mp.setattr(_lp, "max_margin", refuse)
        cones = [normal_cone(s, y, "limiting"),
                 directional_normal(s, y, np.zeros(2), "limiting")]
    for cone in cones:
        assert region_equal(cone, Region.all_space(2))


def test_directional_clarke_tangent_ball():
    ct = directional_clarke_tangent(Ball([0.0, 1.0], 1.0), [0.0, 0.0], [1.0, 0.0])
    assert region_compare(ct, halfspace([0.0, -1.0])).relation == "equal"


def test_region_tangent_cone_at_vertex():
    box = Region.from_cell(PolyCell([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                                    [1.0, 1.0, 0.0, 0.0], dim=2))
    t = region_tangent_cone(box, [0.0, 0.0])
    orthant = Region.from_cell(PolyCell([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0], dim=2))
    assert region_compare(t, orthant).relation == "equal"
    with pytest.raises(RegionError):
        region_tangent_cone(box, [2.0, 2.0])


# -- epsilon-proximal membership ------------------------------------------


def test_eps_proximal_membership_ball():
    ball = Ball([0.0, 1.0], 1.0)
    y = [0.0, 0.0]
    assert eps_proximal_membership(ball, y, [0.0, -2.0], 0.0)
    assert not eps_proximal_membership(ball, y, [0.0, 2.0], 0.0)
    # v = (0.1, -2) sits 0.1 off the downward ray; |v| ~ 2.0025
    assert eps_proximal_membership(ball, y, [0.1, -2.0], 0.06)
    assert not eps_proximal_membership(ball, y, [0.1, -2.0], 0.04)
    assert eps_proximal_membership(ball, y, [0.0, 0.0], 0.0)


def test_eps_proximal_filter_matches_singles():
    ball = Ball([0.0, 1.0], 1.0)
    y = [0.0, 0.0]
    vs = [[0.0, -2.0], [0.1, -2.0], [1.0, 1.0], [0.0, 0.0]]
    for eps in (0.0, 0.04, 0.06, 0.5):
        kept = eps_proximal_filter(ball, y, vs, eps)
        singles = [v for v in vs if eps_proximal_membership(ball, y, v, eps)]
        assert [list(k) for k in kept] == [list(np.asarray(v, dtype=float)) for v in singles]


def test_eps_proximal_filter_takes_row_arrays():
    box = Box([(0.0, 1.0), (0.0, 1.0)])
    ang = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    V = np.column_stack([np.cos(ang), np.sin(ang)])
    kept = eps_proximal_filter(box, [0.0, 0.0], V, 0.0)
    # the proximal normal cone at the corner is the closed negative orthant
    assert [list(k) for k in kept] == [list(v) for v in V if max(v) <= 1e-9]
    with pytest.raises(TangentError):
        eps_proximal_filter(box, [0.0, 0.0], np.zeros((2, 3)), 0.0)


def test_eps_proximal_filter_builds_the_cell_once_per_batch(monkeypatch):
    s = UnionSet([Box([(0.0, 1.0), (0.0, 1.0)]), Ball([-1.0, 0.0], 1.0)])
    y = [0.0, 0.0]
    ang = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    V = np.column_stack([np.cos(ang), np.sin(ang)])
    builds = []

    frechet = tangents._frechet_normal

    def counting(s_, x, tc=None):
        builds.append(x)
        return frechet(s_, x, tc)

    monkeypatch.setattr(tangents, "_frechet_normal", counting)
    for eps in (0.0, 0.2, 0.6):
        builds.clear()
        kept = eps_proximal_filter(s, y, V, eps)
        assert len(builds) == 1
        assert [eps_proximal_membership(s, y, v, eps) for v in V] == \
            [any(np.array_equal(v, k) for k in kept) for v in V]
    with pytest.raises(TangentError):
        eps_proximal_filter(s, [3.0, 3.0], V, 0.2)


def _proximal_identity_cases():
    for seed in range(400):
        s, y, _, _ = random_catalog_instance(seed)
        yield s, y
    yield two_disks(), [0.0, 0.0]
    yield UnionSet([Box([(0.0, 1.0), (0.0, 1.0)]), Ball([-1.0, 0.0], 1.0)]), [0.0, 0.0]
    yield UnionSet([PointSet([0.0, 0.0]), PointSet([1.0, 0.0]), PointSet([0.0, 2.0])]), \
        [0.0, 0.0]
    yield ProductSet([two_disks(), Interval(0.0, 1.0)]), [0.0, 0.0, 0.0]
    yield PointSet([0.0, 0.0, 0.0]), [0.0, 0.0, 0.0]


def test_proximal_normal_cone_is_the_frechet_cone_on_the_catalog():
    # the eps-proximal screen and normal_cone(..., "proximal") read the
    # Frechet cone; the reference builds the proximal cone kind by kind
    failures = []
    for i, (s, y) in enumerate(_proximal_identity_cases()):
        reference = Region.from_cell(reference_proximal_cell(s, y))
        relation = region_compare(reference, normal_cone(s, y, "frechet")).relation
        if relation != "equal":
            failures.append(f"case {i} ({s.kind} at {y}): {relation}")
    assert not failures, "\n".join(failures)


def test_eps_proximal_validates_eps():
    ball = Ball([0.0, 1.0], 1.0)
    for eps in (-0.1, 1.0, 2.0):
        with pytest.raises(TangentError):
            eps_proximal_membership(ball, [0.0, 0.0], [0.0, -1.0], eps)


# -- support functions ----------------------------------------------------


def test_lower_support_equals_support_on_convex():
    outer = second_tangent(Ball([0.0, 1.0], 1.0), [0.0, 0.0], [1.0, 0.0], "outer")
    lam = [0.0, -1.0]
    sigma = outer.support(lam)
    sighat = lower_gen_support_detail(outer, lam)[0]
    assert sigma == pytest.approx(-1.0)
    assert sighat == pytest.approx(sigma)


def test_lower_support_strictly_below_on_union():
    outer = second_tangent(two_disks(), [0.0, 0.0], [0.0, 1.0], "outer")
    for lam in ([1.0, 0.0], [-1.0, 0.0]):
        assert outer.support(lam) == math.inf
        assert lower_gen_support_detail(outer, lam)[0] == pytest.approx(-1.0)


# -- randomized battery ----------------------------------------------------


def test_invariant_battery_over_catalog():
    failures = []
    for seed in range(55):
        s, y, _, _ = random_catalog_instance(seed)
        failures.extend(f"seed {seed}: {msg}" for msg in invariant_battery(s, y, seed))
    assert not failures, "\n".join(failures)


def test_oracle_agreement_smoke():
    cases = [
        (two_disks(), [0.0, 0.0], [0.0, 1.0]),
        (Ball([0.0, 1.0], 1.0), [0.0, 0.0], [1.0, 0.0]),
        (Box([(0.0, 1.0), (0.0, 1.0)]), [0.0, 0.0], [1.0, 0.0]),
        (Polyhedron(rows=[([-1.0, 0.0], 0.0), ([0.0, -1.0], 0.0), ([1.0, 1.0], 2.0)]),
         [0.0, 0.0], [1.0, 0.0]),
    ]
    for s, y, d in cases:
        agree, decided, offband = oracle_agreement(s, y, d, 150, 42)
        assert offband == 0
        assert decided >= 120
        assert agree >= 0.99 * decided
