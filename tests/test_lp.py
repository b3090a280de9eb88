"""Solver trichotomy, duality, and double-description round trips.

The simplex here is the load-bearing primitive for everything else, so it is
cross-checked two independent ways: against scipy's solver on randomized
bounded problems, and against weak/strong duality identities that hold
regardless of implementation.
"""
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sharpcheck import cli, lp
from sharpcheck.lp import (
    DIM_CAP,
    DimensionCapError,
    LpError,
    LpNumericalError,
    LpOutcome,
    cell_from_generators_arrays,
    cell_generators_arrays,
    cone_from_generators,
    dd_cone,
    make_lp,
    max_margin,
    maximize,
    reuse_scope,
    solve_lp,
)
from sharpcheck import certify
from sharpcheck.regions import PolyCell, Region
from sharpcheck.sets import Ball, Box, UnionSet
from sharpcheck.tangents import directional_normal, normal_cone

from helpers import cell_bytes, random_catalog_instance, region_bytes, tangent_direction

try:
    from scipy.optimize import linprog as scipy_linprog

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover
    HAVE_SCIPY = False


def test_bounded_optimum():
    out = maximize([1.0], ineq_mat=[[1.0]], ineq_rhs=[1.0])
    assert out.status == "optimal"
    assert out.value == pytest.approx(1.0, abs=1e-9)
    assert out.point[0] == pytest.approx(1.0, abs=1e-9)


def test_unbounded_with_certificate_ray():
    out = maximize([1.0], ineq_mat=[[-1.0]], ineq_rhs=[0.0])
    assert out.status == "unbounded"
    # the ray must be feasible for the homogeneous system and improve c
    assert out.ray is not None
    assert -out.ray[0] <= 1e-9
    assert out.ray[0] > 1e-9


def test_infeasible():
    out = maximize([0.0], ineq_mat=[[1.0], [-1.0]], ineq_rhs=[-1.0, -1.0])
    assert out.status == "infeasible"


def test_equality_rows():
    # max x1 + x2 s.t. x1 + x2 = 1, x1 <= 0.3
    out = maximize([1.0, 1.0], ineq_mat=[[1.0, 0.0]], ineq_rhs=[0.3],
                   eq_mat=[[1.0, 1.0]], eq_rhs=[1.0])
    assert out.status == "optimal"
    assert out.value == pytest.approx(1.0, abs=1e-9)


def test_no_constraints():
    assert maximize([0.0, 0.0]).value == pytest.approx(0.0)
    out = maximize([2.0, -1.0])
    assert out.status == "unbounded"
    assert out.ray @ np.array([2.0, -1.0]) > 0


def test_degenerate_vertex_no_cycle():
    # many redundant rows through the optimum
    A = [[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, -1.0], [0.0, 1.0], [0.0, -1.0]]
    b = [1.0, 1.0, 1.0, 1.0, 0.0, 0.0]
    out = maximize([1.0, 0.0], ineq_mat=A, ineq_rhs=b)
    assert out.status == "optimal"
    assert out.value == pytest.approx(1.0, abs=1e-9)
    assert abs(out.point[1]) <= 1e-9


def test_redundant_equalities_after_an_artificial_changes_position():
    # x = 0 pinned by the identity, then the same point's rotated rows; in
    # phase 1 the artificial of row 1 ends in basis position 0, so purging
    # by position dropped the wrong row and left a singular basis
    E = [[1.0, 0.0], [0.0, 1.0],
         [-0.8882411724533096, -0.45937742604395576],
         [-0.45937742604395576, 0.8882411724533096]]
    A = [[0.6904736390383152, -0.7233575559798809]]
    out = maximize([0.0, 0.0], ineq_mat=A, ineq_rhs=[0.0], eq_mat=E, eq_rhs=[0.0] * 4)
    assert out.status == "optimal"
    assert np.abs(out.point).max() <= 1e-9
    for c in ([1.0, 0.0], [0.0, -1.0]):
        out = maximize(c, ineq_mat=A, ineq_rhs=[0.0], eq_mat=E, eq_rhs=[0.0] * 4)
        assert out.status == "optimal"
        assert out.value == pytest.approx(0.0, abs=1e-9)


def test_duality_identity_on_fixed_problem():
    # max 3x1 + 2x2  s.t. x1 + x2 <= 4, x1 <= 2, x2 <= 3, -x1 <= 0, -x2 <= 0
    A = [[1, 1], [1, 0], [0, 1], [-1, 0], [0, -1]]
    b = [4, 2, 3, 0, 0]
    out = maximize([3, 2], ineq_mat=A, ineq_rhs=b)
    assert out.status == "optimal"
    assert out.value == pytest.approx(10.0, abs=1e-9)
    # the one optimal vertex
    assert out.point == pytest.approx([2.0, 2.0], abs=1e-9)
    assert out.ray is None


@pytest.mark.skipif(not HAVE_SCIPY, reason="scipy is a test-only cross-check")
def test_random_cross_check_against_scipy():
    rng = np.random.default_rng(42)
    agreed = 0
    for _ in range(60):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n, 2 * n + 3))
        A = rng.normal(size=(m, n))
        x0 = rng.normal(size=n)
        b = A @ x0 + rng.uniform(0.1, 1.0, size=m)  # strictly feasible at x0
        # bound the problem with a box so both solvers report optimal
        A = np.vstack([A, np.eye(n), -np.eye(n)])
        b = np.concatenate([b, np.full(2 * n, 10.0 + np.abs(x0).max())])
        c = rng.normal(size=n)
        ours = maximize(c, ineq_mat=A, ineq_rhs=b)
        ref = scipy_linprog(-c, A_ub=A, b_ub=b, bounds=[(None, None)] * n,
                            method="highs")
        assert ours.status == "optimal"
        assert ref.status == 0
        assert ours.value == pytest.approx(-ref.fun, abs=1e-7, rel=1e-7)
        agreed += 1
    assert agreed == 60


@pytest.mark.skipif(not HAVE_SCIPY, reason="scipy is a test-only cross-check")
def test_random_equality_cross_check_against_scipy():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(3, 6))
        A = np.vstack([np.eye(n), -np.eye(n)])
        b = np.full(2 * n, 5.0)
        E = rng.normal(size=(1, n))
        x0 = rng.uniform(-1, 1, size=n)
        f = E @ x0
        c = rng.normal(size=n)
        ours = maximize(c, ineq_mat=A, ineq_rhs=b, eq_mat=E, eq_rhs=f)
        ref = scipy_linprog(-c, A_ub=A, b_ub=b, A_eq=E, b_eq=f,
                            bounds=[(None, None)] * n, method="highs")
        assert ours.status == "optimal" and ref.status == 0
        assert ours.value == pytest.approx(-ref.fun, abs=1e-7, rel=1e-7)


def test_unbounded_detection_matches_recession_analysis():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, n + 2))
        A = rng.normal(size=(m, n))
        b = rng.uniform(0.5, 2.0, size=m)  # 0 is strictly feasible
        c = rng.normal(size=n)
        out = maximize(c, ineq_mat=A, ineq_rhs=b)
        if out.status == "unbounded":
            r = out.ray
            assert np.all(A @ r <= 1e-7 * max(1.0, np.linalg.norm(r)))
            assert c @ r > 1e-9
            assert np.all(A @ out.point <= b + 1e-7)
        else:
            assert out.status == "optimal"
            # no feasible improving ray may exist: check via scipy on the
            # homogeneous cone if available
            if HAVE_SCIPY:
                ref = scipy_linprog(-c, A_ub=A, b_ub=b,
                                    bounds=[(None, None)] * n, method="highs")
                assert ref.status == 0
                assert out.value == pytest.approx(-ref.fun, abs=1e-7, rel=1e-7)


# ---------------------------------------------------------------------------
# double description
# ---------------------------------------------------------------------------


def _span_equal(got: np.ndarray, want: list[list[float]]) -> bool:
    got = np.asarray(got, dtype=float)
    want_arr = np.array(want, dtype=float).reshape(-1, got.shape[1] if got.size else len(want[0]))
    if got.shape[0] != want_arr.shape[0]:
        return False
    if got.shape[0] == 0:
        return True
    rank = np.linalg.matrix_rank(np.vstack([got, want_arr]), tol=1e-7)
    return rank == np.linalg.matrix_rank(got, tol=1e-7) == np.linalg.matrix_rank(want_arr, tol=1e-7)


def _ray_sets_match(got: np.ndarray, want: list[list[float]]) -> bool:
    want_arr = [np.asarray(w, dtype=float) for w in want]
    want_arr = [w / np.linalg.norm(w) for w in want_arr]
    if got.shape[0] != len(want_arr):
        return False
    used = set()
    for g in got:
        hit = None
        for i, w in enumerate(want_arr):
            if i not in used and np.linalg.norm(g - w) < 1e-7:
                hit = i
                break
        if hit is None:
            return False
        used.add(hit)
    return True


def test_dd_halfplane():
    rays, lines = dd_cone(np.array([[0.0, -1.0]]))  # x2 >= 0
    assert _span_equal(lines, [[1.0, 0.0]])
    assert _ray_sets_match(rays, [[0.0, 1.0]])


def test_dd_orthant():
    rays, lines = dd_cone(-np.eye(3))
    assert lines.shape[0] == 0
    assert _ray_sets_match(rays, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_dd_equality_then_inequality():
    # {x : x1 + x2 = 0, x1 >= 0} -- a single ray
    rays, lines = dd_cone(np.array([[-1.0, 0.0]]), eq=np.array([[1.0, 1.0]]))
    assert lines.shape[0] == 0
    assert _ray_sets_match(rays, [[1.0, -1.0]])


def test_dd_trivial_cone():
    rays, lines = dd_cone(np.vstack([np.eye(2), -np.eye(2)]))
    assert rays.shape[0] == 0 and lines.shape[0] == 0


def test_dd_full_space():
    rays, lines = dd_cone(np.zeros((0, 3)))
    assert rays.shape[0] == 0
    assert lines.shape[0] == 3


def test_dd_square_pyramid():
    # {x3 >= |x1|, x3 >= |x2|}: four extreme rays
    ineq = np.array([
        [1.0, 0.0, -1.0],
        [-1.0, 0.0, -1.0],
        [0.0, 1.0, -1.0],
        [0.0, -1.0, -1.0],
    ])
    rays, lines = dd_cone(ineq)
    assert lines.shape[0] == 0
    want = [[1, 1, 1], [1, -1, 1], [-1, 1, 1], [-1, -1, 1]]
    assert _ray_sets_match(rays, [list(np.array(w) / np.linalg.norm(w)) for w in want])


def test_dd_membership_round_trip_random():
    # H -> V -> H must describe the same cone: check by sampling memberships
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 2 * n))
        A = rng.normal(size=(m, n))
        rays, lines = dd_cone(A)
        A2, E2 = cone_from_generators(rays, lines, n)
        for _ in range(40):
            x = rng.normal(size=n)
            in1 = np.all(A @ x <= 1e-7)
            in2 = (np.all(A2 @ x <= 1e-7) if A2.size else True) and \
                  (np.all(np.abs(E2 @ x) <= 1e-7) if E2.size else True)
            if in1 != in2:
                # disagreement is only tolerable within the tolerance band
                margin1 = np.max(A @ x) if A.size else 0.0
                assert abs(margin1) < 1e-6
    # generators themselves must satisfy the original system
        for r in rays:
            assert np.all(A @ r <= 1e-7)
        for ln in lines:
            assert np.all(np.abs(A @ ln) <= 1e-7)


def test_cell_generators_box():
    res = cell_generators_arrays(np.vstack([np.eye(2), -np.eye(2)]),
                                 np.array([1.0, 1.0, 0.0, 0.0]),
                                 np.zeros((0, 2)), np.zeros(0))
    assert res is not None
    verts, rays, lines = res
    assert rays.shape[0] == 0 and lines.shape[0] == 0
    got = sorted(tuple(np.round(v, 9)) for v in verts)
    assert got == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


def test_cell_generators_empty():
    res = cell_generators_arrays(np.array([[1.0], [-1.0]]),
                                 np.array([-1.0, -1.0]),
                                 np.zeros((0, 1)), np.zeros(0))
    assert res is None


def test_cell_generators_unbounded_strip():
    # {0 <= x1 <= 1} in the plane: two vertices, a line along x2
    res = cell_generators_arrays(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                                 np.array([1.0, 0.0]),
                                 np.zeros((0, 2)), np.zeros(0))
    verts, rays, lines = res
    assert verts.shape[0] == 2
    assert rays.shape[0] == 0
    assert _span_equal(lines, [[0.0, 1.0]])


def test_cell_round_trip_simplex():
    A = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    b = np.array([0.0, 0.0, 1.0])
    verts, rays, lines = cell_generators_arrays(A, b, np.zeros((0, 2)), np.zeros(0))
    A2, b2, E2, f2 = cell_from_generators_arrays(verts, rays, lines, 2)
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = rng.uniform(-0.5, 1.5, size=2)
        in1 = np.all(A @ x <= b + 1e-9)
        in2 = np.all(A2 @ x <= b2 + 1e-9) and (not E2.size or np.all(np.abs(E2 @ x - f2) <= 1e-9))
        if in1 != in2:
            assert abs(np.max(A @ x - b)) < 1e-6


def test_empty_cell_marker():
    A, b, E, f = cell_from_generators_arrays(np.zeros((0, 2)), np.zeros((0, 2)),
                                             np.zeros((0, 2)), 2)
    out = maximize([0.0, 0.0], ineq_mat=A, ineq_rhs=b, eq_mat=E, eq_rhs=f)
    assert out.status == "infeasible"


def test_dimension_cap():
    with pytest.raises(DimensionCapError):
        dd_cone(np.zeros((1, DIM_CAP + 1)))


def test_lp_shape_validation():
    from sharpcheck.lp import LpError
    with pytest.raises(LpError):
        make_lp([1.0], ineq_mat=[[1.0]], ineq_rhs=[1.0, 2.0])


# ------------------------------------------------------------- max margin


@st.composite
def margin_programs(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, 4))
    l = draw(st.integers(0, 2))
    def arr(*shape):
        return draw(hnp.arrays(float, shape, elements=_entries))
    return arr(k, n), arr(k), arr(k), arr(l, n), arr(l)


def _solved(solve):
    try:
        return solve()
    except LpError as exc:
        return type(exc)


@settings(max_examples=120, deadline=None)
@given(margin_programs())
def test_max_margin_is_the_stacked_program_with_the_cap_last(args):
    A, b, w, E, f = args
    n = A.shape[1]
    unit_t = np.concatenate([np.zeros(n), [1.0]])
    rows = [np.concatenate([a, [wi]]) for a, wi in zip(A, w)] + [unit_t]
    eq = [np.concatenate([e, [0.0]]) for e in E]
    explicit = _solved(lambda: maximize(unit_t, np.array(rows), np.array([*b, 1.0]),
                                        np.array(eq) if eq else None,
                                        f if eq else None))
    got = _solved(lambda: max_margin(A, b, w, E, f))
    if isinstance(explicit, type):
        assert got is explicit
    elif explicit.status == "infeasible":
        assert got is None
    else:
        assert explicit.status == "optimal"
        t, x = got
        assert np.float64(t).tobytes() == np.float64(explicit.value).tobytes()
        assert x.tobytes() == explicit.point[:n].tobytes()
        assert t <= 1.0 + 1e-9   # the cap, up to the simplex's rounding


def test_max_margin_of_a_strict_interval():
    # 0 <= x <= 2 with margin t on both rows: x = 1, t = 1 (the cap)
    t, x = max_margin([[1.0], [-1.0]], [2.0, 0.0], [1.0, 1.0], np.zeros((0, 1)), [])
    assert t == pytest.approx(1.0, abs=1e-12) and x[0] == pytest.approx(1.0, abs=1e-9)
    # x <= 0 and x >= 0 strictly cannot both hold: the margin is 0
    t, _ = max_margin([[1.0], [-1.0]], [0.0, 0.0], [1.0, 1.0], np.zeros((0, 1)), [])
    assert t == pytest.approx(0.0, abs=1e-12)
    # x = 1 against x <= 0 with weight zero: infeasible
    assert max_margin([[1.0]], [0.0], [0.0], [[1.0]], [1.0]) is None


# ------------------------------------------------------------- reuse scope


def _outcome_bytes(args):
    """Status, value, point and ray of maximize(*args), as bytes."""
    try:
        out = maximize(*args)
    except LpError as exc:
        return ("raised", type(exc).__name__)
    return tuple(None if v is None else np.asarray(v, dtype=float).tobytes()
                 for v in (out.value, out.point, out.ray)) + (out.status,)


_entries = st.integers(-3, 3).map(float)


@st.composite
def small_lps(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, 4))
    l = draw(st.integers(0, 2))
    def mat(rows):
        return draw(hnp.arrays(float, (rows, n), elements=_entries))
    def vec(size):
        return draw(hnp.arrays(float, (size,), elements=_entries))
    return vec(n), mat(k), vec(k), mat(l), vec(l)


@settings(max_examples=80, deadline=None)
@given(small_lps())
def test_reuse_scope_returns_the_outcome_a_fresh_solve_gives(args):
    fresh = _outcome_bytes(args)
    with reuse_scope():
        first = _outcome_bytes(args)
        second = _outcome_bytes(args)   # a hit on the stored outcome
    assert first == fresh and second == fresh


def test_reuse_scope_hands_back_one_stored_outcome():
    args = ([1.0, 0.0], [[1.0, 1.0]], [2.0], [[1.0, -1.0]], [0.0])
    with reuse_scope():
        assert maximize(*args) is maximize(*args)
    assert maximize(*args) is not maximize(*args)


def test_reuse_keys_keep_inequalities_and_equalities_apart():
    # the same row and right-hand side, once as x1 <= 1, once as x1 = 1
    row, rhs = [[1.0, 0.0]], [1.0]
    with reuse_scope():
        assert maximize([-1.0, 0.0], row, rhs).status == "unbounded"
        out = maximize([-1.0, 0.0], None, None, row, rhs)
        assert out.status == "optimal"
        assert out.value == pytest.approx(-1.0, abs=1e-12)
        assert maximize([-1.0, 0.0], row, rhs).status == "unbounded"


def test_reused_outcome_is_read_only():
    with reuse_scope():
        maximize([1.0], [[1.0]], [1.0])
        out = maximize([1.0], [[1.0]], [1.0])
        with pytest.raises(ValueError):
            out.point[0] = 5.0
    assert maximize([1.0], [[1.0]], [1.0]).point[0] == pytest.approx(1.0, abs=1e-12)


def test_content_keys_keep_equal_bytes_apart_by_dtype_and_shape():
    key = lp._content_key
    zeros = np.zeros(4)
    # the same 32 bytes as float64 and int64, and as shapes (4,), (2, 2), (1, 4)
    assert zeros.tobytes() == np.zeros(4, dtype=np.int64).tobytes()
    assert key(zeros) != key(np.zeros(4, dtype=np.int64))
    assert key(zeros) != key(zeros.reshape(2, 2)) != key(zeros.reshape(1, 4))
    assert key(zeros) == key(np.zeros(4)) and hash(key(zeros)) == hash(key(np.zeros(4)))
    # a strided view keys by its content, not by its buffer
    assert key(np.arange(8.0)[::2]) == key(np.array([0.0, 2.0, 4.0, 6.0]))
    # tuples nest, and a hashable part other than an array is its own key
    marker = object()
    parts = (marker, (zeros, np.ones((1, 2))), "kind", 3)
    assert key(parts) == key((marker, (np.zeros(4), np.ones((1, 2))), "kind", 3))
    assert key(parts) != key((object(), (zeros, np.ones((1, 2))), "kind", 3))
    assert key(parts) != key((marker, (zeros, np.ones((2, 1))), "kind", 3))
    assert isinstance(hash(key(parts)), int)


def test_read_only_freezes_arrays_in_tuples_fields_and_slots_but_not_lists():
    listed = [np.zeros(2)]
    inner = np.ones(3)
    outcome = LpOutcome("unbounded", None, np.zeros(2), np.ones(2))
    cell = PolyCell([[1.0, 0.0]], [1.0], dim=2)
    value = (np.zeros(1), (inner, listed), outcome, cell)
    assert lp._read_only(value) is value
    assert not value[0].flags.writeable and not inner.flags.writeable
    assert not outcome.point.flags.writeable and not outcome.ray.flags.writeable
    assert not any(a.flags.writeable for a in (cell.A, cell.b, cell.E, cell.f))
    # a list is not walked
    assert listed[0].flags.writeable
    # a region reaches its cells, and a cell its generators once built
    region = Region.from_cell(PolyCell([[0.0, 1.0]], [0.0], dim=2))
    gens = region.cells[0].generators()
    lp._read_only(region)
    assert not region.cells[0].A.flags.writeable
    assert not any(a.flags.writeable for a in gens)


def test_a_memo_hit_returns_the_stored_object():
    calls = []

    def build():
        calls.append(1)
        return (np.zeros(2), [np.ones(1)])

    with reuse_scope():
        first = lp._reused("probe", (np.zeros(3), "x"), build)
        again = lp._reused("probe", (np.zeros(3), "x"), build)
        other = lp._reused("probe", (np.zeros(3), "y"), build)
        kind = lp._reused("other probe", (np.zeros(3), "x"), build)
    assert again is first and other is not first and kind is not first
    assert len(calls) == 3
    assert not first[0].flags.writeable and first[1][0].flags.writeable
    # outside a scope every call builds
    assert lp._reused("probe", (np.zeros(3), "x"), build) is not first
    assert len(calls) == 4


def test_reuse_scope_shares_double_descriptions():
    ineq = np.array([[1.0, 0.0, -1.0], [-1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])
    fresh = dd_cone(ineq)
    with reuse_scope():
        first = dd_cone(ineq)
        second = dd_cone(ineq)
        assert all(a is b for a, b in zip(first, second))
        assert not first[0].flags.writeable and not first[1].flags.writeable
    assert all(np.array_equal(a, b) and a.shape == b.shape
               for a, b in zip(first, fresh))


# ------------------------------- normal cones and sigma-hat searches reused


def _tangent_ops(s, y, u):
    """Every memoized tangent-layer object at (y, u), as bytes."""
    return ([region_bytes(directional_normal(s, y, u, kind)) for kind in ("limiting", "clarke")],
            region_bytes(normal_cone(s, y, "frechet")))


def _tangent_cases():
    yield Ball([0.0, 1.0], 1.0), [0.0, 0.0], np.array([1.0, 0.0])
    yield (UnionSet([Ball([1.0, 0.0], 1.0), Ball([-1.0, 0.0], 1.0)]), [0.0, 0.0],
           np.array([0.0, 1.0]))
    yield Box([(0.0, 1.0), (0.0, 1.0)]), [0.0, 0.0], np.array([1.0, 0.0])
    for seed in range(12):   # derandomized catalog sets at boundary points
        s, y, _, _ = random_catalog_instance(seed)
        yield s, y, tangent_direction(s, y, np.random.default_rng(seed))


@pytest.mark.parametrize("s,y,u", list(_tangent_cases()))
def test_tangent_memos_in_a_scope_match_fresh_results(s, y, u):
    fresh = _tangent_ops(s, y, u)
    with reuse_scope():
        first = _tangent_ops(s, y, u)
        again = _tangent_ops(s, np.array(y, dtype=float), u.copy())   # memo hits
    assert first == fresh and again == fresh


def _cone(A, E=(), dim=2):
    A, E = np.reshape(A, (-1, dim)), np.reshape(E, (-1, dim))
    return Region.from_cell(PolyCell(A, np.zeros(len(A)), E, np.zeros(len(E)), dim=dim))


def _search_cases():
    three = _cone([1.0, 0.0]).union(_cone([0.0, 1.0]))
    quadrant, plane = _cone(-np.eye(2)), _cone(np.zeros((0, 2)))
    ray = _cone([0.0, -1.0], [1.0, 0.0])
    # multiplier regions with and without the origin
    shifted = [Region.from_cell(PolyCell([a], [-1.0], dim=2)) for a in ([1.0, 1.0], [-1.0, 0.0])]
    for lamreg in (plane, ray, *shifted):
        for target in (three, quadrant, ray, Region.empty(2)):
            yield lamreg, target


def _search_bytes(lamreg, target):
    lam, value, notes = certify._search_sigma_hat_nonpositive(lamreg, target)
    return None if lam is None else lam.tobytes(), value, notes


@pytest.mark.parametrize("lamreg,target", list(_search_cases()))
def test_sigma_hat_search_in_a_scope_matches_a_fresh_one(lamreg, target):
    fresh = _search_bytes(lamreg, target)
    with reuse_scope():
        first = _search_bytes(lamreg, target)
        again = _search_bytes(Region(lamreg.cells, dim=2), Region(target.cells, dim=2))
    assert first == fresh and again == fresh


def test_tangent_and_search_memos_are_read_only_and_scoped():
    ball, y, u = Ball([0.0, 1.0], 1.0), [0.0, 0.0], [1.0, 0.0]
    lamreg, target = next(_search_cases())
    with reuse_scope():
        normal = directional_normal(ball, y, u, "clarke")
        cell = normal_cone(ball, y, "frechet").cells[0]
        found = certify._search_sigma_hat_nonpositive(lamreg, target)
        assert directional_normal(ball, np.zeros(2), np.array(u), "clarke") is normal
        assert directional_normal(ball, y, u, "limiting") is not normal   # kind is keyed
        # the Frechet cone is the polar of the memoized tangent cone, built
        # at each call
        again = normal_cone(ball, np.zeros(2), "frechet").cells[0]
        assert again is not cell and cell_bytes(again) == cell_bytes(cell)
        assert certify._search_sigma_hat_nonpositive(
            Region(lamreg.cells, dim=2), Region(target.cells, dim=2)) is found
        assert not normal.cells[0].A.flags.writeable and not found[0].flags.writeable
    with reuse_scope():
        assert directional_normal(ball, y, u, "clarke") is not normal
        assert cell_bytes(normal_cone(ball, y, "frechet").cells[0]) == cell_bytes(cell)
        assert certify._search_sigma_hat_nonpositive(lamreg, target) is not found


# -- non-finite optima --------------------------------------------------------


def _nan_phase_two(monkeypatch):
    """Make every phase-2 simplex solve hand back a NaN basic solution."""
    simplex = lp._simplex

    def nan_basis(M, rhs, c, basis, blocked):
        status, basis, xB, extra = simplex(M, rhs, c, basis, blocked)
        if blocked:   # only phase 2 blocks the artificial columns
            xB = np.full_like(xB, np.nan)
        return status, basis, xB, extra

    monkeypatch.setattr(lp, "_simplex", nan_basis)


def test_non_finite_optimum_is_a_numerical_error(monkeypatch):
    _nan_phase_two(monkeypatch)
    with pytest.raises(LpNumericalError, match="non-finite optimal value"):
        maximize([1.0, 0.0], [[1.0, 0.0]], [1.0])
    with pytest.raises(LpNumericalError):
        PolyCell([[1.0, 0.0]], [1.0], dim=2).support([1.0, 0.0])


def test_non_finite_optimum_is_inconclusive_on_the_command_line(monkeypatch, capsys):
    _nan_phase_two(monkeypatch)
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    code = cli.main(["check-necessary", "fixtures/parabola.json",
                     "--direction", "1,0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("sharpcheck: LpNumericalError: ")
    assert "Traceback" not in captured.err


# -- singular bases ------------------------------------------------------------


@pytest.mark.xfail(strict=True, raises=LpNumericalError,
                   reason="the simplex stops on a singular basis on a wedge whose two "
                          "rows are opposite to within about 3e-6; the fix is left to a "
                          "later change (see the FOUND line on it in CHANGES.md)")
def test_support_of_a_nearly_flat_wedge_is_unbounded():
    # the two rows are opposite up to a tilt of about 1e-9, so the wedge
    # is a thin slab around the plane a x = 0, and e1 is not in the cone
    # the rows span: scipy.optimize.linprog reports the support unbounded
    wedge = PolyCell([[-0.2588911056838698, 0.017165677610344075, -0.965753972246535],
                      [0.25889110405068055, -0.017165678570229034, 0.9657539715330988]],
                     [0.0, 0.0], dim=3)
    assert wedge.support([1.0, 0.0, 0.0]) == math.inf
