"""Region algebra: comparison, support, polarity, faces, lower support."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sharpcheck import regions
from sharpcheck.extreal import ExtReal
from sharpcheck.lp import reuse_scope
from sharpcheck.regions import (
    PolyCell,
    Region,
    RegionError,
    cone_hull,
    face_complex,
    limiting_normal_region,
    lower_gen_support,
    lower_gen_support_detail,
    polar_cone,
    region_compare,
    region_equal,
    region_subset,
)


def halfplane(a, beta, cone=None):
    return Region.halfspace(np.asarray(a, dtype=float), beta, cone=cone)


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
    d, pts = r.distance([0.2, 0.0])
    assert float(d) == pytest.approx(0.8, abs=1e-9)
    assert len(pts) == 1
    assert pts[0] == pytest.approx([1.0, 0.0], abs=1e-9)
    d0, pts0 = r.distance([0.0, 3.0])  # equidistant: both projections reported
    assert float(d0) == pytest.approx(1.0, abs=1e-9)
    assert len(pts0) == 2


def test_empty_region_distance():
    r = Region.empty(2)
    d, pts = r.distance([0.0, 0.0])
    assert d.is_plus_inf and pts == []


# -- support ----------------------------------------------------------------


def test_support_examples():
    r = halfplane([-1.0, 0.0], -1.0)  # {w1 >= 1}
    assert r.support([-1.0, 0.0]) == ExtReal.of(-1.0)
    assert Region.empty(2).support([1.0, 1.0]).is_minus_inf
    assert _union_fixture().support([1.0, 0.0]).is_plus_inf


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
    assert region_equal(cover, Region.all_space(2, cone=False))
    # remove the overlap: strict gap appears
    gap = halfplane([1.0, 0.0], -0.5).union(halfplane([-1.0, 0.0], -0.5))
    res = region_compare(gap, Region.all_space(2, cone=False))
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
    want = Region.from_cell(PolyCell(eq_mat=[[1.0, 0.0, 0.0]], eq_rhs=[0.0], dim=3), cone=True)
    assert region_equal(got, want)
    assert region_equal(Region.empty(2).intersect_orthocomplement([1.0, 0.0]), Region.empty(2))


def test_translate_and_minkowski():
    box = Region.from_cell(PolyCell(np.vstack([np.eye(2), -np.eye(2)]),
                                    [1.0, 1.0, 0.0, 0.0], dim=2))
    shifted = box.translate([2.0, 0.0])
    assert shifted.contains([2.5, 0.5]) and not shifted.contains([0.5, 0.5])
    seg = Region.from_cell(PolyCell(np.vstack([np.eye(2), -np.eye(2)]),
                                    [0.0, 1.0, 0.0, 0.0], dim=2))
    summed = box.minkowski_sum(seg)
    want = Region.from_cell(PolyCell(np.vstack([np.eye(2), -np.eye(2)]),
                                     [1.0, 2.0, 0.0, 0.0], dim=2))
    assert region_equal(summed, want)


def test_minkowski_with_ray_absorbs():
    r = halfplane([-1.0, 0.0], -1.0)                      # w1 >= 1
    ray = Region.from_cell(PolyCell([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                                    [0.0, 0.0, 0.0], dim=2), cone=True)  # ray e1
    assert region_equal(r.minkowski_sum(ray), r)


# -- cones ------------------------------------------------------------------


def test_polar_cone_examples():
    quad = Region.from_cell(PolyCell(-np.eye(2), np.zeros(2), dim=2), cone=True)
    third = polar_cone(quad)
    want = Region.from_cell(PolyCell(np.eye(2), np.zeros(2), dim=2), cone=True)
    assert region_equal(third, want)
    assert region_equal(polar_cone(Region.all_space(2)), Region.origin(2))
    # union of the two rays +-e1 polarizes to the vertical axis
    raypos = Region.from_cell(PolyCell([[-1.0, 0.0]], [0.0],
                                       eq_mat=[[0.0, 1.0]], eq_rhs=[0.0], dim=2), cone=True)
    rayneg = Region.from_cell(PolyCell([[1.0, 0.0]], [0.0],
                                       eq_mat=[[0.0, 1.0]], eq_rhs=[0.0], dim=2), cone=True)
    got = polar_cone(raypos.union(rayneg))
    want = Region.from_cell(PolyCell(eq_mat=[[1.0, 0.0]], eq_rhs=[0.0], dim=2), cone=True)
    assert region_equal(got, want)


def test_double_polar_identity():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(2, 4))
        A = rng.normal(size=(int(rng.integers(1, 4)), n))
        cone = Region.from_cell(PolyCell(A, np.zeros(A.shape[0]), dim=n), cone=True)
        assert region_equal(polar_cone(polar_cone(cone)), cone)


def test_cone_hull_examples():
    e1ray = Region.from_cell(PolyCell([[-1.0, 0.0]], [0.0],
                                      eq_mat=[[0.0, 1.0]], eq_rhs=[0.0], dim=2), cone=True)
    e2ray = Region.from_cell(PolyCell([[0.0, -1.0]], [0.0],
                                      eq_mat=[[1.0, 0.0]], eq_rhs=[0.0], dim=2), cone=True)
    got = cone_hull([e1ray, e2ray])
    first_quadrant = Region.from_cell(PolyCell(-np.eye(2), np.zeros(2), dim=2), cone=True)
    assert region_equal(got, first_quadrant)
    opp = Region.from_cell(PolyCell([[1.0, 0.0]], [0.0],
                                    eq_mat=[[0.0, 1.0]], eq_rhs=[0.0], dim=2), cone=True)
    axis = cone_hull([e1ray, opp])
    want = Region.from_cell(PolyCell(eq_mat=[[0.0, 1.0]], eq_rhs=[0.0], dim=2), cone=True)
    assert region_equal(axis, want)
    assert region_equal(cone_hull(first_quadrant), first_quadrant)


def test_cone_flag_scaling_law():
    # sampled members of cone-flagged regions stay members under scaling
    regions = [
        Region.from_cell(PolyCell(-np.eye(3), np.zeros(3), dim=3), cone=True),
        cone_hull([halfplane([0.0, -1.0], 0.0, cone=True)]),
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
    r = halfplane([-1.0, 0.0], 0.0).union(halfplane([1.0, 0.0], 0.5))
    n = limiting_normal_region(r, [0.0, 0.0])
    assert region_equal(n, Region.origin(2))


def test_limiting_normal_of_union_boundary():
    r = _union_fixture()
    n = limiting_normal_region(r, [1.0, 0.0])
    want = Region.from_cell(PolyCell([[1.0, 0.0]], [0.0],
                                     eq_mat=[[0.0, 1.0]], eq_rhs=[0.0], dim=2), cone=True)
    assert region_equal(n, want)  # the ray spanned by -e1


def test_limiting_normal_three_quadrant_union():
    r = halfplane([1.0, 0.0], 0.0, cone=True).union(halfplane([0.0, 1.0], 0.0, cone=True))
    n0 = limiting_normal_region(r, [0.0, 0.0])
    # at the reentrant corner the limiting cone is the two outward rays
    assert n0.contains([1.0, 0.0]) and n0.contains([0.0, 1.0])
    assert not n0.contains([1.0, 1.0])
    assert not n0.contains([-1.0, 0.0])


# -- lower generalized support ----------------------------------------------


def test_lower_gen_support_union_fixture():
    val, notes = lower_gen_support_detail(_union_fixture(), [1.0, 0.0])
    assert val == ExtReal.of(-1.0)
    assert notes == ()
    # strictly below the plain support, which is +inf here
    assert _union_fixture().support([1.0, 0.0]).is_plus_inf


def test_lower_gen_support_empty_and_origin():
    assert lower_gen_support(Region.empty(2), [1.0, 0.0]).is_minus_inf
    assert lower_gen_support(Region.all_space(2), [0.0, 0.0]) == ExtReal.of(0.0)


def test_lower_gen_support_no_normal_direction():
    # lam is nowhere a normal: the infimum runs over the empty set
    assert lower_gen_support(_union_fixture(), [1.0, 1.0]).is_plus_inf


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
        if not sup.is_finite:
            continue
        hits += 1
        low = lower_gen_support(reg, lam)
        assert low.is_finite
        assert float(low) == pytest.approx(float(sup), abs=1e-6)
    assert hits >= 5


def test_lower_gen_support_below_support_everywhere():
    rng = np.random.default_rng(37)
    for _ in range(15):
        r = halfplane(rng.normal(size=2), float(rng.uniform(-1, 1))).union(
            halfplane(rng.normal(size=2), float(rng.uniform(-1, 1))))
        lam = rng.normal(size=2)
        assert lower_gen_support(r, lam) <= r.support(lam)


def test_lower_gen_support_window_monotone():
    r = _union_fixture()
    lam = np.array([1.0, 0.0])
    big = lower_gen_support(r, lam)  # window = all-space
    box = Region.from_cell(PolyCell(np.vstack([np.eye(2), -np.eye(2)]),
                                    [2.0, 2.0, 2.0, 2.0], dim=2))
    small = lower_gen_support(r, lam, window=box)
    # larger window means inf over more points: value can only drop
    assert big <= small


def test_lower_gen_support_nonconvex_reentrant():
    # three-quadrant union: sigma-hat at e1 sees only the face {x1=0, x2>=0}
    r = halfplane([1.0, 0.0], 0.0, cone=True).union(halfplane([0.0, 1.0], 0.0, cone=True))
    val = lower_gen_support(r, [1.0, 0.0])
    assert val == ExtReal.of(0.0)
    assert r.support([1.0, 0.0]).is_plus_inf


def test_lower_gen_support_rejects_bad_dims():
    with pytest.raises(RegionError):
        lower_gen_support(_union_fixture(), [1.0, 0.0, 0.0])


# -- reuse inside a check context -------------------------------------------


def _cell_bytes(cell):
    return [a.tobytes() for a in (cell.A, cell.b, cell.E, cell.f)]


def _face_bytes(faces):
    return [(_cell_bytes(f.cell), _cell_bytes(f.normal_cell), f.sample.tobytes(), f.signs)
            for f in faces]


def test_equal_regions_share_face_complex_and_lower_support_in_a_context(monkeypatch):
    lam, other_lam = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
    window = Region.from_cell(PolyCell(dim=2))
    want_faces = face_complex(_union_fixture())
    want = lower_gen_support_detail(_union_fixture(), lam)
    want_windowed = lower_gen_support_detail(_union_fixture(), lam, window)
    calls = {"faces": 0, "support": 0}
    faces_impl = regions._face_complex
    support_impl = regions._lower_gen_support_detail

    def count_faces(region):
        calls["faces"] += 1
        return faces_impl(region)

    def count_support(region, lam, window):
        calls["support"] += 1
        return support_impl(region, lam, window)

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
        # lam and the window are part of the key
        lower_gen_support_detail(r2, other_lam)
        windowed = lower_gen_support_detail(r2, lam, window)
        assert calls == {"faces": 1, "support": 3}
        assert isinstance(faces, tuple)
        assert not faces[0].sample.flags.writeable
        assert not faces[0].cell.A.flags.writeable
    assert _face_bytes(faces) == _face_bytes(want_faces)
    assert got == want and windowed == want_windowed
    assert np.float64(got[0].value).tobytes() == np.float64(want[0].value).tobytes()
    # nothing survives the scope
    assert face_complex(r1) is not faces
    assert lower_gen_support_detail(r1, lam) is not got
    assert calls == {"faces": 3, "support": 4}
