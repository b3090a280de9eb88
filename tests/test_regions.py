"""Region algebra: comparison, support, polarity, faces, lower support."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sharpcheck import lp, regions
from sharpcheck.lp import maximize, reuse_scope
from sharpcheck.regions import (
    PolyCell,
    Region,
    RegionError,
    cone_hull,
    face_complex,
    lower_gen_support_detail,
    polar_cone,
    region_subset,
)
from sharpcheck.sets import Halfspace, UnionSet
from sharpcheck.tangents import normal_cone

from helpers import cell_bytes, minkowski_sum, region_bytes, region_compare, region_equal


def halfplane(a, beta):
    return Region.halfspace(np.asarray(a, dtype=float), beta)


def _union_fixture():
    # {w1 >= 1} union {w1 <= -1}
    return halfplane([-1.0, 0.0], -1.0).union(halfplane([1.0, 0.0], -1.0))


# -- cells ------------------------------------------------------------------


def test_cell_membership_and_normalization():
    c = PolyCell([[2.0, 0.0]], [2.0], dim=2)  # 2 w1 <= 2, normalized to w1 <= 1
    assert c.contains([1.0, 5.0])
    assert c.contains([1.0 + 5e-10, 0.0])  # tolerance band
    assert not c.contains([1.1, 0.0])
    assert np.allclose(c.A, [[1.0, 0.0]]) and np.allclose(c.b, [1.0])


def test_contains_rows_rejects_non_row_arrays():
    cell = PolyCell([[1.0, 0.0]], [0.0], dim=2)
    for obj in (cell, Region.from_cell(cell), Region.empty(2)):
        assert obj.contains_rows(np.zeros((3, 2))).shape == (3,)
        # a length-4 vector is not two points of R^2
        for bad in (np.zeros(4), np.zeros(2), np.zeros((2, 3)), np.zeros((1, 2, 2))):
            with pytest.raises(RegionError):
                obj.contains_rows(bad)
        with pytest.raises(RegionError):
            obj.contains([0.0, 0.0, 0.0])


def _loop_contains(cell, x, tol):
    """Membership of one point, computed row by row as a reference."""
    x = np.asarray(x, dtype=float)
    ok = bool(np.all(cell.A @ x <= cell.b + tol)) if cell.A.shape[0] else True
    if ok and cell.E.shape[0]:
        ok = bool(np.all(np.abs(cell.E @ x - cell.f) <= tol))
    return ok


_COEF = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
# offsets of a row's right-hand side from an anchor point, in units of tol:
# on the row, inside and outside the tolerance band, and far away
_SHIFTS = st.sampled_from([0.0, 0.5, -0.5, 2.0, -2.0, 1e3, -1e3])


@st.composite
def _cell(draw, dim, anchor, tol):
    if draw(st.integers(0, 5)) == 0:
        return PolyCell.empty_marker(dim)

    def rows(most):
        mat = draw(hnp.arrays(float, (draw(st.integers(0, most)), dim), elements=_COEF))
        return mat[np.linalg.norm(mat, axis=1) > 1e-3]

    A, E = rows(4), rows(2)
    A, E = (m / np.linalg.norm(m, axis=1, keepdims=True) for m in (A, E))
    b = A @ anchor + tol * np.array([draw(_SHIFTS) for _ in range(A.shape[0])])
    f = E @ anchor + tol * np.array([draw(_SHIFTS) for _ in range(E.shape[0])])
    return PolyCell(A, b, E, f, dim=dim)


@st.composite
def _region_and_points(draw):
    dim = draw(st.integers(1, 4))
    tol = draw(st.sampled_from([1e-7, 1e-9]))
    X = draw(hnp.arrays(float, (draw(st.integers(1, 12)), dim), elements=_COEF))
    cells = [draw(_cell(dim, X[draw(st.integers(0, len(X) - 1))], tol))
             for _ in range(draw(st.integers(0, 3)))]
    return Region(cells, dim=dim), X, tol


@settings(max_examples=300, deadline=None)
@given(_region_and_points())
def test_contains_rows_matches_pointwise_membership(case):
    region, X, tol = case
    for cell in region.cells:
        assert cell.contains_rows(X, tol).tolist() == [_loop_contains(cell, x, tol) for x in X]
    expected = [any(_loop_contains(c, x, tol) for c in region.cells) for x in X]
    assert region.contains_rows(X, tol).tolist() == expected
    assert [region.contains(x, tol) for x in X] == expected


def test_cell_zero_rows():
    vac = PolyCell([[0.0, 0.0]], [0.5], dim=2)
    assert vac.A.shape[0] == 0 and not vac.is_empty()
    bad = PolyCell([[0.0, 0.0]], [-0.5], dim=2)
    assert bad.is_empty()


def test_cell_projection_exactness():
    # projection onto the triangle conv{0, e1, e2}
    tri = PolyCell([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0], dim=2)
    d, y = tri.project([1.0, 1.0])
    assert d == pytest.approx(np.sqrt(2) / 2, abs=1e-9)
    assert y == pytest.approx([0.5, 0.5], abs=1e-9)
    d, y = tri.project([-1.0, 0.5])
    assert d == pytest.approx(1.0, abs=1e-9)
    assert y == pytest.approx([0.0, 0.5], abs=1e-9)
    d, y = tri.project([0.2, 0.3])  # interior
    assert d == pytest.approx(0.0, abs=1e-12)


def test_cell_relint_point():
    c = PolyCell([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [1.0, 1.0, 0.0], dim=2)
    x, margin = c.relint_point()
    assert margin > 0.4
    assert c.contains(x)
    # a cell with an implicit equality still gets a relative-interior point
    c2 = PolyCell([[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0], dim=2)
    x2, m2 = c2.relint_point()
    assert abs(x2[0]) <= 1e-9
    assert m2 > 1e-6 or c2.A.shape[0] == 0


# -- distance on unions -----------------------------------------------------


def test_region_distance_union():
    r = _union_fixture()
    d, pt = r.distance([0.2, 0.0])
    assert float(d) == pytest.approx(0.8, abs=1e-9)
    assert pt == pytest.approx([1.0, 0.0], abs=1e-9)
    # equidistant: the first cell's projection, and the other cell's once
    # the cells are swapped
    d0, pt0 = r.distance([0.0, 3.0])
    assert float(d0) == pytest.approx(1.0, abs=1e-9)
    assert pt0 == pytest.approx([1.0, 3.0], abs=1e-9)
    swapped = Region(r.cells[::-1], dim=2)
    assert swapped.distance([0.0, 3.0])[1] == pytest.approx([-1.0, 3.0], abs=1e-9)


def test_empty_region_distance():
    r = Region.empty(2)
    d, pt = r.distance([0.0, 0.0])
    assert d == math.inf and pt is None


# -- support ----------------------------------------------------------------


def test_support_examples():
    r = halfplane([-1.0, 0.0], -1.0)  # {w1 >= 1}
    assert r.support([-1.0, 0.0]) == -1.0
    assert Region.empty(2).support([1.0, 1.0]) == -math.inf
    assert _union_fixture().support([1.0, 0.0]) == math.inf


# -- comparison -------------------------------------------------------------


def test_region_compare_examples():
    r1 = halfplane([-1.0, 0.0], -1.0)  # w1 >= 1
    r2 = halfplane([-1.0, 0.0], 0.0)   # w1 >= 0
    res = region_compare(r1, r2)
    assert res.relation == "strict_subset"
    assert res.only_in_r2 is not None and res.only_in_r2[0] < 1.0 - 1e-7
    assert region_compare(Region.empty(3), Region.empty(3)).relation == "equal"


def test_region_compare_union_covering():
    # two halfplanes covering the plane vs all-space
    cover = halfplane([1.0, 0.0], 0.5).union(halfplane([-1.0, 0.0], 0.0))
    assert region_equal(cover, Region.all_space(2))
    # remove the overlap: strict gap appears
    gap = halfplane([1.0, 0.0], -0.5).union(halfplane([-1.0, 0.0], -0.5))
    res = region_compare(gap, Region.all_space(2))
    assert res.relation == "strict_subset"
    w = res.only_in_r2
    assert abs(w[0]) < 0.5 + 1e-7


def test_region_subset_witness_is_genuine():
    rng = np.random.default_rng(19)
    for _ in range(20):
        a = rng.normal(size=2)
        r1 = halfplane(a, float(rng.uniform(-1, 1)))
        r2 = halfplane(rng.normal(size=2), float(rng.uniform(-1, 1)))
        ok, wit = region_subset(r1, r2)
        if not ok:
            assert r1.contains(wit, tol=1e-6)
            assert not r2.contains(wit, tol=1e-9)


# -- transforms -------------------------------------------------------------


def test_affine_preimage_fixture():
    # {v <= 0} on the line pulled back through v = -2 w1 + 2 gives {w1 >= 1}
    line = Region.from_cell(PolyCell([[1.0]], [0.0], dim=1))
    got = line.affine_preimage(np.array([[-2.0, 0.0]]), np.array([2.0]))
    want = halfplane([-1.0, 0.0], -1.0)
    assert region_equal(got, want)


def test_intersect_orthocomplement():
    got = Region.all_space(3).intersect_orthocomplement([1.0, 0.0, 0.0])
    want = Region.from_cell(PolyCell(eq_mat=[[1.0, 0.0, 0.0]], eq_rhs=[0.0], dim=3))
    assert region_equal(got, want)
    assert region_equal(Region.empty(2).intersect_orthocomplement([1.0, 0.0]), Region.empty(2))


def test_minkowski_sum_of_boxes():
    box = Region.from_cell(PolyCell(np.vstack([np.eye(2), -np.eye(2)]),
                                    [1.0, 1.0, 0.0, 0.0], dim=2))
    seg = Region.from_cell(PolyCell(np.vstack([np.eye(2), -np.eye(2)]),
                                    [0.0, 1.0, 0.0, 0.0], dim=2))
    summed = minkowski_sum(box, seg)
    want = Region.from_cell(PolyCell(np.vstack([np.eye(2), -np.eye(2)]),
                                     [1.0, 2.0, 0.0, 0.0], dim=2))
    assert region_equal(summed, want)


def test_minkowski_with_ray_absorbs():
    r = halfplane([-1.0, 0.0], -1.0)                      # w1 >= 1
    ray = Region.from_cell(PolyCell([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                                    [0.0, 0.0, 0.0], dim=2))  # ray e1
    assert region_equal(minkowski_sum(r, ray), r)


# -- cones ------------------------------------------------------------------


def test_polar_cone_examples():
    quad = Region.from_cell(PolyCell(-np.eye(2), np.zeros(2), dim=2))
    third = polar_cone(quad)
    want = Region.from_cell(PolyCell(np.eye(2), np.zeros(2), dim=2))
    assert region_equal(third, want)
    assert region_equal(polar_cone(Region.all_space(2)), Region.origin(2))
    # union of the two rays +-e1 polarizes to the vertical axis
    raypos = Region.from_cell(PolyCell([[-1.0, 0.0]], [0.0],
                                       eq_mat=[[0.0, 1.0]], eq_rhs=[0.0], dim=2))
    rayneg = Region.from_cell(PolyCell([[1.0, 0.0]], [0.0],
                                       eq_mat=[[0.0, 1.0]], eq_rhs=[0.0], dim=2))
    got = polar_cone(raypos.union(rayneg))
    want = Region.from_cell(PolyCell(eq_mat=[[1.0, 0.0]], eq_rhs=[0.0], dim=2))
    assert region_equal(got, want)


def _polar_by_double_description(region):
    """The polar as the double description of each cell gives it: the rays
    of every nonempty cell as rows, its lines as equalities."""
    gens = [lp.cell_generators_arrays(c.A, c.b, c.E, c.f) for c in region.nonempty_cells()]
    A = np.vstack([rays for _, rays, _ in gens])
    E = np.vstack([lines for _, _, lines in gens])
    return Region.from_cell(PolyCell(A, np.zeros(len(A)), E, np.zeros(len(E)), dim=region.dim))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_polar_of_the_origin_needs_no_double_description(n):
    origin = Region.origin(n)
    # the ray along e1, as a cone cell beside the origin
    ray = Region.from_cell(PolyCell(-np.eye(n)[:1], [0.0], np.eye(n)[1:], np.zeros(n - 1),
                                    dim=n))
    with_ray = origin.union(ray)
    want = [region_bytes(_polar_by_double_description(r)) for r in (origin, with_ray)]
    assert want[0] == region_bytes(Region.all_space(n))
    enumerate_cell = lp.cell_generators_arrays
    with mock.patch.object(lp, "cell_generators_arrays",
                           side_effect=enumerate_cell) as dd:
        assert region_bytes(regions._polar_cone(origin)) == want[0]
        assert dd.call_count == 0
        assert region_bytes(regions._polar_cone(with_ray)) == want[1]
        assert dd.call_count == 1   # the ray's cell alone


def test_double_polar_identity():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(2, 4))
        A = rng.normal(size=(int(rng.integers(1, 4)), n))
        cone = Region.from_cell(PolyCell(A, np.zeros(A.shape[0]), dim=n))
        assert region_equal(polar_cone(polar_cone(cone)), cone)


def test_cone_hull_examples():
    e1ray = Region.from_cell(PolyCell([[-1.0, 0.0]], [0.0],
                                      eq_mat=[[0.0, 1.0]], eq_rhs=[0.0], dim=2))
    e2ray = Region.from_cell(PolyCell([[0.0, -1.0]], [0.0],
                                      eq_mat=[[1.0, 0.0]], eq_rhs=[0.0], dim=2))
    got = cone_hull([e1ray, e2ray])
    first_quadrant = Region.from_cell(PolyCell(-np.eye(2), np.zeros(2), dim=2))
    assert region_equal(got, first_quadrant)
    opp = Region.from_cell(PolyCell([[1.0, 0.0]], [0.0],
                                    eq_mat=[[0.0, 1.0]], eq_rhs=[0.0], dim=2))
    axis = cone_hull([e1ray, opp])
    want = Region.from_cell(PolyCell(eq_mat=[[0.0, 1.0]], eq_rhs=[0.0], dim=2))
    assert region_equal(axis, want)
    assert region_equal(cone_hull(first_quadrant), first_quadrant)


def test_cone_flag_scaling_law():
    # sampled members of cone regions stay members under scaling
    regions = [
        Region.from_cell(PolyCell(-np.eye(3), np.zeros(3), dim=3)),
        cone_hull([halfplane([0.0, -1.0], 0.0)]),
        Region.origin(2),
    ]
    rng = np.random.default_rng(3)
    for reg in regions:
        for cell in reg.nonempty_cells():
            gens = cell.generators()
            V, R, L = gens
            for _ in range(10):
                w = sum((rng.uniform(0, 1) * r for r in R), np.zeros(reg.dim))
                w += sum((rng.normal() * l for l in L), np.zeros(reg.dim))
                assert reg.contains(w, tol=1e-7)
                for alpha in (0.0, 0.5, 2.0, 10.0):
                    assert reg.contains(alpha * w, tol=1e-7)


# -- face complex and limiting normals --------------------------------------


def test_face_complex_of_union():
    faces = face_complex(_union_fixture())
    # two boundary lines plus two open sides
    assert len(faces) == 4
    dims = sorted(f.cell.E.shape[0] for f in faces)
    assert dims == [0, 0, 1, 1]


def test_limiting_normal_of_union_absorbed_overlap():
    # {x1 >= 0} union {x1 <= 0.5} covers the plane: normals collapse to {0}
    s = UnionSet([Halfspace([-1.0, 0.0], 0.0), Halfspace([1.0, 0.0], 0.5)])
    n = normal_cone(s, [0.0, 0.0], "limiting")
    assert region_equal(n, Region.origin(2))


def test_limiting_normal_of_union_boundary():
    s = UnionSet([Halfspace([-1.0, 0.0], -1.0), Halfspace([1.0, 0.0], -1.0)])
    n = normal_cone(s, [1.0, 0.0], "limiting")
    want = Region.from_cell(PolyCell([[1.0, 0.0]], [0.0],
                                     eq_mat=[[0.0, 1.0]], eq_rhs=[0.0], dim=2))
    assert region_equal(n, want)  # the ray spanned by -e1


def test_limiting_normal_three_quadrant_union():
    s = UnionSet([Halfspace([1.0, 0.0], 0.0), Halfspace([0.0, 1.0], 0.0)])
    n0 = normal_cone(s, [0.0, 0.0], "limiting")
    # at the reentrant corner the limiting cone is the two outward rays
    assert n0.contains([1.0, 0.0]) and n0.contains([0.0, 1.0])
    assert not n0.contains([1.0, 1.0])
    assert not n0.contains([-1.0, 0.0])


# -- lower generalized support ----------------------------------------------


def test_lower_gen_support_union_fixture():
    val, notes = lower_gen_support_detail(_union_fixture(), [1.0, 0.0])
    assert val == -1.0
    assert notes == ()
    # strictly below the plain support, which is +inf here
    assert _union_fixture().support([1.0, 0.0]) == math.inf


def test_lower_gen_support_empty_and_origin():
    assert lower_gen_support_detail(Region.empty(2), [1.0, 0.0])[0] == -math.inf
    assert lower_gen_support_detail(Region.all_space(2), [0.0, 0.0])[0] == 0.0


def test_lower_gen_support_no_normal_direction():
    # lam is nowhere a normal: the infimum runs over the empty set
    assert lower_gen_support_detail(_union_fixture(), [1.0, 1.0])[0] == math.inf


def test_lower_gen_support_matches_support_on_convex():
    rng = np.random.default_rng(31)
    hits = 0
    for _ in range(25):
        n = 2
        A = rng.normal(size=(int(rng.integers(1, 4)), n))
        b = rng.uniform(0.2, 1.5, size=A.shape[0])
        reg = Region.from_cell(PolyCell(A, b, dim=n))
        if reg.is_empty():
            continue
        lam = rng.normal(size=n)
        sup = reg.support(lam)
        if not math.isfinite(sup):
            continue
        hits += 1
        low = lower_gen_support_detail(reg, lam)[0]
        assert math.isfinite(low)
        assert low == pytest.approx(sup, abs=1e-6)
    assert hits >= 5


def test_lower_gen_support_below_support_everywhere():
    rng = np.random.default_rng(37)
    for _ in range(15):
        r = halfplane(rng.normal(size=2), float(rng.uniform(-1, 1))).union(
            halfplane(rng.normal(size=2), float(rng.uniform(-1, 1))))
        lam = rng.normal(size=2)
        assert lower_gen_support_detail(r, lam)[0] <= r.support(lam)


def test_lower_gen_support_nonconvex_reentrant():
    # three-quadrant union: sigma-hat at e1 sees only the face {x1=0, x2>=0}
    r = halfplane([1.0, 0.0], 0.0).union(halfplane([0.0, 1.0], 0.0))
    val = lower_gen_support_detail(r, [1.0, 0.0])[0]
    assert val == 0.0
    assert r.support([1.0, 0.0]) == math.inf


def test_lower_gen_support_rejects_bad_dims():
    with pytest.raises(RegionError):
        lower_gen_support_detail(_union_fixture(), [1.0, 0.0, 0.0])[0]


# -- reuse inside a check context -------------------------------------------


def _face_bytes(faces):
    return [(cell_bytes(f.cell), cell_bytes(f.normal_cell), f.sample.tobytes(), f.signs)
            for f in faces]


def test_equal_regions_share_face_complex_and_lower_support_in_a_context(monkeypatch):
    lam, other_lam = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
    want_faces = face_complex(_union_fixture())
    want = lower_gen_support_detail(_union_fixture(), lam)
    calls = {"faces": 0, "support": 0}
    faces_impl = regions._face_complex
    support_impl = regions._lower_gen_support_detail

    def count_faces(region):
        calls["faces"] += 1
        return faces_impl(region)

    def count_support(region, lam):
        calls["support"] += 1
        return support_impl(region, lam)

    monkeypatch.setattr(regions, "_face_complex", count_faces)
    monkeypatch.setattr(regions, "_lower_gen_support_detail", count_support)
    with reuse_scope():
        r1, r2 = _union_fixture(), _union_fixture()
        assert r1 is not r2
        faces = face_complex(r1)
        assert face_complex(r2) is faces
        got = lower_gen_support_detail(r1, lam)
        assert lower_gen_support_detail(r2, lam.copy()) is got
        assert calls == {"faces": 1, "support": 1}
        # lam is part of the key
        lower_gen_support_detail(r2, other_lam)
        assert calls == {"faces": 1, "support": 2}
        assert isinstance(faces, tuple)
        assert not faces[0].sample.flags.writeable
        assert not faces[0].cell.A.flags.writeable
    assert _face_bytes(faces) == _face_bytes(want_faces)
    assert got == want
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    # nothing survives the scope
    assert face_complex(r1) is not faces
    assert lower_gen_support_detail(r1, lam) is not got
    assert calls == {"faces": 3, "support": 3}


# -- reuse of the cone operations -------------------------------------------


def _cone_ops(r1, r2):
    """Every memoized cone operation on one pair of cone regions, as bytes."""
    included, witness = region_subset(r1, r2)
    return (region_bytes(polar_cone(r1)), region_bytes(cone_hull(r1)),
            region_bytes(cone_hull([r1, r2])),
            included, None if witness is None else witness.tobytes())


def _ray(a, e):
    return Region.from_cell(PolyCell([a], [0.0], eq_mat=[e], eq_rhs=[0.0], dim=2))


def _fixture_cones():
    quadrant = Region.from_cell(PolyCell(-np.eye(2), np.zeros(2), dim=2))
    axis = _ray([-1.0, 0.0], [0.0, 1.0]).union(_ray([1.0, 0.0], [0.0, 1.0]))
    three = halfplane([1.0, 0.0], 0.0).union(halfplane([0.0, 1.0], 0.0))
    return [quadrant, axis, three, Region.all_space(2), Region.origin(2)]


_SMALL = st.integers(-2, 2).map(float)


@st.composite
def _cone_pairs(draw):
    """Two unions of one or two homogeneous cells in R^2 or R^3."""
    dim = draw(st.integers(2, 3))

    def region():
        cells = []
        for _ in range(draw(st.integers(1, 2))):
            A = draw(hnp.arrays(float, (draw(st.integers(0, 3)), dim), elements=_SMALL))
            E = draw(hnp.arrays(float, (draw(st.integers(0, 1)), dim), elements=_SMALL))
            cells.append(PolyCell(A, np.zeros(len(A)), E, np.zeros(len(E)), dim=dim))
        return Region(cells, dim=dim)
    return region(), region()


def _copy(region):
    """An equal region of new cells with the same row bytes (building them
    from the rows would normalize the rows again)."""
    cells = []
    for c in region.cells:
        cell = PolyCell(dim=c.dim)
        cell.A, cell.b, cell.E, cell.f = (v.copy() for v in (c.A, c.b, c.E, c.f))
        cells.append(cell)
    return Region(cells, dim=region.dim)


def _assert_scope_changes_nothing(r1, r2):
    fresh = _cone_ops(r1, r2)
    with reuse_scope():
        first = _cone_ops(r1, r2)
        again = _cone_ops(_copy(r1), _copy(r2))   # answered from the memo
    assert first == fresh and again == fresh


@pytest.mark.parametrize("r1", _fixture_cones())
@pytest.mark.parametrize("r2", _fixture_cones())
def test_cone_operations_in_a_scope_match_fresh_ones_on_fixtures(r1, r2):
    _assert_scope_changes_nothing(r1, r2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_cone_pairs())
def test_cone_operations_in_a_scope_match_fresh_ones(pair):
    _assert_scope_changes_nothing(*pair)


def test_reused_cone_results_are_read_only_and_end_with_their_scope():
    quadrant, axis = _fixture_cones()[:2]
    with reuse_scope():
        polar = polar_cone(quadrant)
        hull = cone_hull([quadrant, axis])
        subset = region_subset(axis, quadrant)
        assert polar_cone(_copy(quadrant)) is polar
        assert cone_hull([_copy(quadrant), _copy(axis)]) is hull
        assert region_subset(_copy(axis), _copy(quadrant)) is subset
        assert not subset[0] and not subset[1].flags.writeable
        for region in (polar, hull):
            assert not region.cells[0].A.flags.writeable
            assert not region.cells[0].E.flags.writeable
    with reuse_scope():
        assert polar_cone(quadrant) is not polar
        assert cone_hull([quadrant, axis]) is not hull
        assert region_subset(axis, quadrant) is not subset


def test_cone_operations_raise_before_the_memo():
    flat = Region.from_cell(PolyCell(-np.eye(2), np.zeros(2), dim=2))
    shifted = Region.from_cell(PolyCell(-np.eye(2), -np.ones(2), dim=2))   # x >= (1, 1)
    with reuse_scope():
        polar_cone(flat)
        for _ in range(2):   # a refused region leaves nothing in the memo
            with pytest.raises(RegionError):
                polar_cone(shifted)   # a nonempty cell that is not homogeneous
        with pytest.raises(RegionError):
            cone_hull([flat, Region.origin(3)])
        with pytest.raises(RegionError):
            region_subset(flat, Region.origin(3))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    hnp.arrays(float, (4, n), elements=_SMALL), st.integers(0, 4),
    hnp.arrays(float, (2, n), elements=_SMALL), st.integers(0, 2))))
def test_homogeneous_cells_are_nonempty_without_an_lp(case):
    A, k, E, l = case
    A, E = A[:k], E[:l]
    n = A.shape[1]
    status = maximize(np.zeros(n), A, np.zeros(k), E, np.zeros(l)).status
    cell = PolyCell(A, np.zeros(k), E, np.zeros(l), dim=n)
    with mock.patch.object(regions._lp, "maximize", side_effect=AssertionError):
        assert cell.is_empty() is False
    assert status != "infeasible"
