"""Shared builders for the randomized catalog suites.

Seeded instance generation, tangent-direction sampling, the invariant
battery run per instance, oracle agreement counting, the reference
implementations the library is checked against (the scalar sampling
oracles, set membership and distance, the membership-by-definition probe
loop, the proximal normal cone, the face-complex limiting normal cones, the
implicit necessary form's scan over the multiplier set, the sufficient
checks' multiplier LP and a finite-difference jet check), and an in-process
CLI runner.  Kept out of the test modules so the acceptance suite can reuse
the exact same generators.
"""
import dataclasses
import io
import json
import math
import re
import sys

import numpy as np

from sharpcheck import certify, cli
from sharpcheck import lp as _lp
from sharpcheck.oracles import (
    GrowthEstimate,
    MscqEstimate,
    OracleError,
    membership_by_definition,
)
from sharpcheck.regions import (
    PolyCell,
    Region,
    RegionError,
    face_complex,
    lower_gen_support_detail,
    polar_cone,
    region_subset,
)
from sharpcheck.sets import (
    TOL,
    Ball,
    Box,
    Halfspace,
    Interval,
    PointSet,
    Polyhedron,
    ProductSet,
    UnionSet,
)
from sharpcheck.tangents import (
    directional_clarke_tangent,
    directional_normal,
    normal_cone,
    region_tangent_cone,
    second_tangent,
    tangent_cone,
)
from sharpcheck.polyexpr import (
    Jet2,
    Options,
    ProblemInstance,
    evaluate_jet,
    parse_expression,
    rng_for,
)

# the report members that may change between runs of the same command
VOLATILE = re.compile(rb'"(runtime_seconds|generated_at)":("[^"]*"|[^,}]*)')


def run_machine(argv):
    """(exit code, machine report bytes with the time members blanked) of
    one in-process ``cli.main`` call."""
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", newline="")
    saved = sys.stdout
    sys.stdout = out
    try:
        code = cli.main(["--format", "machine", *argv])
    finally:
        out.flush()
        out.detach()
        sys.stdout = saved
    return code, VOLATILE.sub(rb'"\1":null', buf.getvalue())


def cell_bytes(cell) -> list[bytes]:
    """The row arrays of a PolyCell, as bytes."""
    return [a.tobytes() for a in (cell.A, cell.b, cell.E, cell.f)]


def region_bytes(region) -> tuple:
    """Everything a Region holds, its cells as bytes."""
    return region.dim, region.notes, [cell_bytes(c) for c in region.cells]


def is_cone(region) -> bool:
    """Whether every nonempty cell of the region has homogeneous rows, the
    precondition ``polar_cone`` checks (tolerance 1e-7)."""
    return all(c.is_homogeneous(tol=1e-7) for c in region.nonempty_cells())


# ---------------------------------------------------------------------------
# region oracles: two-way comparison and Minkowski sums, built on the
# library's one-way inclusion and double description
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CompareResult:
    relation: str  # "equal" | "strict_subset" | "strict_superset" | "incomparable"
    r1_empty: bool
    r2_empty: bool
    only_in_r1: np.ndarray | None = None
    only_in_r2: np.ndarray | None = None


def region_compare(r1: Region, r2: Region) -> CompareResult:
    sub12, w12 = region_subset(r1, r2)
    sub21, w21 = region_subset(r2, r1)
    if sub12 and sub21:
        rel = "equal"
    elif sub12:
        rel = "strict_subset"
    elif sub21:
        rel = "strict_superset"
    else:
        rel = "incomparable"
    return CompareResult(rel, r1.is_empty(), r2.is_empty(),
                         only_in_r1=w12, only_in_r2=w21)


def region_equal(r1: Region, r2: Region) -> bool:
    return region_compare(r1, r2).relation == "equal"


def lp_nontrivial_point(region: Region) -> np.ndarray | None:
    """Reference nonzero point of a cone region, or None when the region is
    {0}: each cell, cut to the unit box, is probed by an LP along each of
    the 2 dim signed axes, and a point counts once its coordinate clears
    1e-7."""
    eye = np.eye(region.dim)
    box = PolyCell(np.vstack([eye, -eye]), np.ones(2 * region.dim), dim=region.dim)
    for cell in region.nonempty_cells():
        probe = cell.intersect(box)
        for i in range(region.dim):
            for sgn in (1.0, -1.0):
                out = _lp.maximize(sgn * eye[i], probe.A, probe.b, probe.E, probe.f)
                if out.status == "optimal" and out.value > 1e-7:
                    return out.point
    return None


def limiting_normal_region(region: Region, x, u=None) -> Region:
    """Reference limiting normal cone of a polyhedral-union region at x
    from its whole face complex: the union of the Frechet values of the
    faces whose closure holds x.  With a direction u, only the faces whose
    tangent cone at x holds u count (the directional cone)."""
    x = np.asarray(x, dtype=float).ravel()
    if not region.contains(x, tol=1e-8):
        raise RegionError("limiting normal requested at a point outside the region")
    pieces = []
    for face in face_complex(region):
        cell = face.cell
        if not cell.contains(x, tol=1e-8):
            continue
        if u is not None:
            act = [i for i in range(cell.A.shape[0])
                   if abs(float(cell.A[i] @ x) - cell.b[i]) <= 1e-8]
            if any(float(cell.A[i] @ u) > 1e-8 for i in act) or (
                    cell.E.shape[0] and np.max(np.abs(cell.E @ u)) > 1e-8):
                continue
        pieces.append(face.normal_cell)
    return Region(pieces, dim=region.dim)


def reference_proximal_cell(s, y) -> PolyCell:
    """Reference proximal normal cone of the catalog set s at its member y,
    as one convex cell, built kind by kind from the set's rows instead of
    as the polar of a tangent cone.

    For a union, y must project back onto itself from y + tv for small t
    simultaneously for every member containing y, so the union's cone is the
    intersection of the member cones.  Members not containing y are farther
    away than O(t) and never interfere."""
    y = np.asarray(y, dtype=float).ravel()
    if isinstance(s, (Interval, Box, Halfspace, Polyhedron)):
        cell = s.as_region().cells[0]
        act = [i for i in range(cell.A.shape[0])
               if abs(float(cell.A[i] @ y) - cell.b[i]) <= 1e-8]
        return PolyCell.cone(cell.A[act], cell.E, s.dim)
    if isinstance(s, Ball):
        on_sphere = abs(float(np.linalg.norm(y - s.center)) - s.radius) <= 1e-7
        return PolyCell.cone(y - s.center if on_sphere else None, None, s.dim)
    if isinstance(s, PointSet):
        return PolyCell.all_space(s.dim)
    if isinstance(s, UnionSet):
        out = PolyCell.all_space(s.dim)
        for m in s.members:
            if m.contains(y, tol=1e-7):
                out = out.intersect(reference_proximal_cell(m, y))
        return out
    if isinstance(s, ProductSet):
        out = PolyCell.all_space(s.dim)
        for f, part, lo in zip(s.factors, s.split(y), s.offsets[:-1]):
            out = out.intersect(reference_proximal_cell(f, part).lift(s.dim, int(lo)))
        return out
    raise TypeError(f"no proximal normal reference for {type(s).__name__}")


def minkowski_sum(r1: Region, r2: Region) -> Region:
    """Cellwise Minkowski sum through generator representations."""
    if r2.dim != r1.dim:
        raise RegionError("dimension mismatch in Minkowski sum")
    out = []
    for c1 in r1.nonempty_cells():
        g1 = c1.generators()
        if g1 is None:
            continue
        for c2 in r2.nonempty_cells():
            g2 = c2.generators()
            if g2 is None:
                continue
            V = np.array([v1 + v2 for v1 in g1[0] for v2 in g2[0]])
            R = np.vstack([g1[1], g2[1]])
            L = np.vstack([g1[2], g2[2]])
            A, b, E, f = _lp.cell_from_generators_arrays(V, R, L, r1.dim)
            out.append(PolyCell(A, b, E, f, dim=r1.dim))
    return Region(out, dim=r1.dim)


def canonical_bytes_reference(obj) -> bytes:
    """The canonical JSON writer as first written, with ``json.dumps`` per
    string: ``cli.canonical_bytes`` must produce the same bytes."""
    def num(x: float) -> str:
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format(x, ".17g")

    def canon(obj, out):
        if obj is None or isinstance(obj, bool):
            out.append("null" if obj is None else ("true" if obj else "false"))
        elif isinstance(obj, (int, np.integer)):
            out.append(str(int(obj)))
        elif isinstance(obj, (float, np.floating)):
            out.append(num(float(obj)))
        elif isinstance(obj, str):
            out.append(json.dumps(obj, ensure_ascii=False))
        elif isinstance(obj, (list, tuple)):
            out.append("[")
            for i, v in enumerate(obj):
                if i:
                    out.append(",")
                canon(v, out)
            out.append("]")
        elif isinstance(obj, np.ndarray):
            canon(obj.tolist(), out)
        elif isinstance(obj, dict):
            out.append("{")
            for i, k in enumerate(sorted(obj)):
                if i:
                    out.append(",")
                out.append(json.dumps(str(k), ensure_ascii=False))
                out.append(":")
                canon(obj[k], out)
            out.append("}")
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")

    out = []
    canon(obj, out)
    out.append("\n")
    return "".join(out).encode("utf-8")


def with_options(p: ProblemInstance, **changes) -> ProblemInstance:
    """p rebuilt with the given members of its options changed: the checkers
    read eps and kappa from the instance's options only."""
    return dataclasses.replace(p, options=dataclasses.replace(p.options, **changes))


def first_example(**opts):
    """Quadratic objective against a parabolic constraint band, with a
    segment of sharp minimizers along the x1 axis."""
    f = parse_expression("x2^2", 2)
    g = (parse_expression("x1^2 - 2*x1 + x2^2", 2),)
    return ProblemInstance(2, 1, f, g, Interval(-0.75, 0.0),
                           Box([(0.0, 0.5), (0.0, 0.0)]), [0.0, 0.0],
                           options=Options(**opts))


def second_example(S=None, **opts):
    """Concave objective on the union of two tangent disks; the origin is
    stationary but not a sharp minimizer."""
    f = parse_expression("-0.5*x1^2", 1)
    g = (parse_expression("x1^2", 1), parse_expression("x1", 1))
    K = UnionSet([Ball([1.0, 0.0], 1.0), Ball([-1.0, 0.0], 1.0)])
    return ProblemInstance(1, 2, f, g, K, S or PointSet([0.0]), [0.0],
                           options=Options(**opts))


def parabola_example(**opts):
    """Linear objective over the epigraph side of a parabola, pinned at the
    vertex."""
    f = parse_expression("x2", 2)
    g = (parse_expression("x1^2 - x2", 2),)
    return ProblemInstance(2, 1, f, g, Interval(-math.inf, 0.0),
                           PointSet([0.0, 0.0]), [0.0, 0.0],
                           options=Options(**opts))


def parabola_family(a, **opts):
    """parabola_example with curvature a; the best growth constant at the
    vertex equals a.  Small default radius keeps the finite-ball constant
    close to the limiting one."""
    opts.setdefault("delta", 0.05)
    f = parse_expression("x2", 2)
    g = (parse_expression(f"{a:.17g}*x1^2 - x2", 2),)
    return ProblemInstance(2, 1, f, g, Interval(-math.inf, 0.0),
                           PointSet([0.0, 0.0]), [0.0, 0.0],
                           options=Options(**opts))


_AFFINE_TARGETS = (
    Box([(0.0, 1.0), (0.0, 1.0)]),
    Polyhedron(rows=[([-1.0, 0.0], 0.0), ([0.0, -1.0], 0.0), ([1.0, 1.0], 2.0)]),
    UnionSet([Box([(0.0, 1.0), (0.0, 1.0)]), Box([(-1.0, 0.0), (-1.0, 0.0)])]),
)


def _branch_rows(s):
    # inequality rows per convex branch, as (normal, offset) pairs
    if isinstance(s, Box):
        rows = []
        for i, iv in enumerate(s.intervals):
            e = np.zeros(s.dim)
            e[i] = 1.0
            if np.isfinite(iv.lo):
                rows.append((-e, -iv.lo))
            if np.isfinite(iv.hi):
                rows.append((e, iv.hi))
        return [rows]
    if isinstance(s, Polyhedron):
        c = s.cell
        return [[(c.A[i].copy(), float(c.b[i])) for i in range(len(c.b))]]
    return [r for part in s.members for r in _branch_rows(part)]


def _affine_map_instance(seed, salt, f_text):
    """Random invertible linear g into a polyhedral target, base point at
    the origin of every piece.  Returns (p, A, K, tangent ray pool)."""
    rng = np.random.default_rng([seed & 0x7FFFFFFF, salt])
    while True:
        A = rng.uniform(-2.0, 2.0, size=(2, 2))
        if abs(np.linalg.det(A)) > 0.4:
            break
    K = _AFFINE_TARGETS[int(rng.integers(0, len(_AFFINE_TARGETS)))]
    rays = []
    for cell in tangent_cone(K, np.zeros(2)).nonempty_cells():
        gens = cell.generators()
        if gens is not None:
            rays.extend(list(gens[1]) + list(gens[2]))
    if not rays:
        rays = [np.array([1.0, 0.0])]
    u = rays[int(rng.integers(0, len(rays)))]
    u = u / np.linalg.norm(u)
    g = (parse_expression(f"{A[0, 0]:.17g}*x1 + {A[0, 1]:.17g}*x2", 2),
         parse_expression(f"{A[1, 0]:.17g}*x1 + {A[1, 1]:.17g}*x2", 2))
    p = ProblemInstance(2, 2, parse_expression(f_text, 2), g, K,
                        PointSet([0.0, 0.0]), [0.0, 0.0])
    return p, A, K, u, rng


def duality_instance(seed):
    """Instance whose multiplier region at the picked direction is a known
    single point drawn from the directional Clarke normal cone, so both LP
    sides of the pairing are finite.  Returns (p, d, u) or None when the
    sampled cone has no usable nonzero relative interior point."""
    p0, A, K, u, rng = _affine_map_instance(seed, 103, "x1^2 + x2^2")
    lam_pick = None
    for cell in directional_normal(K, np.zeros(2), u, "clarke").nonempty_cells():
        rp = cell.relint_point()
        if rp is not None and np.linalg.norm(rp[0]) > 1e-6:
            lam_pick = rp[0]
            break
    if lam_pick is None:
        return None
    lam_pick = lam_pick * float(rng.uniform(0.5, 2.0))
    grad = -(A.T @ lam_pick)
    f = parse_expression(
        f"{grad[0]:.17g}*x1 + {grad[1]:.17g}*x2 + x1^2 + x2^2", 2)
    p = ProblemInstance(2, 2, f, p0.g, K, PointSet([0.0, 0.0]), [0.0, 0.0])
    return p, np.linalg.solve(A, u), u


def linearization_instance(seed):
    """Affine constraint into a polyhedral target, with the feasible set
    also built explicitly by pushing each branch through the map.  Returns
    (p, phi, d)."""
    p, A, K, u, _ = _affine_map_instance(seed, 211, "x1^2 + x2^2")
    branches = [Polyhedron(rows=[(A.T @ np.asarray(nrm), off) for nrm, off in rows], dim=2)
                for rows in _branch_rows(K)]
    phi = branches[0] if len(branches) == 1 else UnionSet(branches)
    return p, phi, np.linalg.solve(A, u)


def _unit(rng, dim):
    u = rng.normal(size=dim)
    return u / max(np.linalg.norm(u), 1e-12)


def random_catalog_instance(seed):
    """One seeded catalog set with a boundary base point.

    Returns (set, y, polyhedral, convex).  Shapes are kept at desk scale
    (coordinates below 3, radii in [0.5, 2]) so the default membership
    schedules resolve the curvature.
    """
    rng = np.random.default_rng([seed & 0x7FFFFFFF, 23])
    kind = int(rng.integers(9))
    if kind == 0:
        a = float(rng.uniform(-2.0, 0.0))
        b = float(rng.uniform(0.5, 2.0))
        s = Interval(a, b)
        y = [a if rng.random() < 0.5 else b]
        return s, y, True, True
    if kind == 1:
        lo = rng.uniform(-2.0, -0.5, size=2)
        hi = rng.uniform(0.5, 2.0, size=2)
        s = Box([(lo[0], hi[0]), (lo[1], hi[1])])
        corner = [lo[i] if rng.random() < 0.5 else hi[i] for i in range(2)]
        if rng.random() < 0.4:
            i = int(rng.integers(2))
            corner[i] = float(rng.uniform(lo[i] + 0.1, hi[i] - 0.1))
        return s, corner, True, True
    if kind == 2:
        c = rng.uniform(-1.0, 1.0, size=2)
        r = float(rng.uniform(0.5, 2.0))
        s = Ball(c, r)
        return s, c + r * _unit(rng, 2), False, True
    if kind == 3:
        n = _unit(rng, 2)
        off = float(rng.uniform(-1.0, 1.0))
        s = Halfspace(n, off)
        y = off * n + float(rng.uniform(-1.0, 1.0)) * np.array([-n[1], n[0]])
        return s, y, True, True
    if kind == 4:
        yhat = rng.uniform(-1.0, 1.0, size=2)
        rows = []
        for _ in range(3):
            a = _unit(rng, 2)
            rows.append((a, float(a @ yhat)))
        s = Polyhedron(rows=rows)
        return s, yhat, True, True
    if kind == 5:
        # two balls meeting at the origin, tangentially or at an angle
        r1 = float(rng.uniform(0.5, 1.5))
        r2 = float(rng.uniform(0.5, 1.5))
        u = _unit(rng, 2)
        if rng.random() < 0.5:
            v = -u          # tangential contact
        else:
            v = _unit(rng, 2)
            if abs(float(u @ v)) > 0.95:
                v = np.array([-u[1], u[0]])
        s = UnionSet([Ball(r1 * u, r1), Ball(r2 * v, r2)])
        return s, [0.0, 0.0], False, False
    if kind == 6:
        # two boxes sharing the origin corner
        a = float(rng.uniform(0.5, 2.0))
        b = float(rng.uniform(0.5, 2.0))
        s = UnionSet([Box([(0.0, a), (0.0, a)]), Box([(-b, 0.0), (-b, 0.0)])])
        return s, [0.0, 0.0], True, False
    if kind == 7:
        a = float(rng.uniform(-2.0, -0.5))
        c = rng.uniform(-1.0, 1.0, size=2)
        r = float(rng.uniform(0.5, 1.5))
        s = ProductSet([Interval(a, 0.0), Ball(c, r)])
        y = np.concatenate([[0.0 if rng.random() < 0.5 else a], c + r * _unit(rng, 2)])
        return s, y, False, True
    pts = rng.uniform(-1.5, 1.5, size=(3, 2))
    s = UnionSet([PointSet(p) for p in pts])   # a finite set
    return s, pts[rng.integers(3)], True, False


def tangent_direction(s, y, rng):
    """A unit direction drawn from the tangent cone at y (zero if trivial)."""
    cells = tangent_cone(s, y).nonempty_cells()
    if not cells:
        return np.zeros(s.dim)
    cell = cells[int(rng.integers(len(cells)))]
    gen = cell.generators()
    if gen is not None:
        verts, rays, lines = gen
        d = np.zeros(s.dim)
        if len(verts):
            d = d + np.asarray(verts[int(rng.integers(len(verts)))], dtype=float)
        for r in rays:
            d = d + float(rng.random()) * np.asarray(r, dtype=float)
        for l in lines:
            d = d + float(rng.normal()) * np.asarray(l, dtype=float)
        nd = float(np.linalg.norm(d))
        if nd > 1e-9:
            return d / nd
    res = cell.relint_point()
    if res is not None:
        p = np.asarray(res[0], dtype=float)
        nd = float(np.linalg.norm(p))
        if nd > 1e-9:
            return p / nd
    return np.zeros(s.dim)


def _cone_samples(region, rng, per_cell=1):
    pts = []
    for cell in region.nonempty_cells()[:3]:
        res = cell.relint_point()
        if res is not None:
            pts.append(np.asarray(res[0], dtype=float))
        gen = cell.generators()
        if gen is not None:
            for r in gen[1][:per_cell]:
                pts.append(np.asarray(r, dtype=float))
    return pts


def _check_cone(region, rng, label, failures):
    if not is_cone(region):
        failures.append(f"{label}: a nonempty cell is not homogeneous")
        return
    if region.is_empty():
        return
    if not region.contains(np.zeros(region.dim), tol=1e-7):
        failures.append(f"{label}: cone does not contain the origin")
    for w in _cone_samples(region, rng):
        for t in (0.3, 2.5):
            if not region.contains(t * w, tol=1e-7):
                failures.append(f"{label}: not scaling-stable at {w} * {t}")
                return


def invariant_battery(s, y, seed):
    """Region-kernel invariants on one catalog instance; returns failures."""
    rng = np.random.default_rng([seed & 0x7FFFFFFF, 29])
    failures = []
    y = np.asarray(y, dtype=float).ravel()
    zero = np.zeros(s.dim)

    tcone = tangent_cone(s, y)
    frechet = normal_cone(s, y, "frechet")
    limiting = normal_cone(s, y, "limiting")
    proximal = normal_cone(s, y, "proximal")

    if region_compare(frechet, polar_cone(tcone)).relation != "equal":
        failures.append("polarity: frechet normal is not the polar of the tangent cone")
    for label, reg in (("tangent", tcone), ("frechet", frechet),
                       ("limiting", limiting), ("proximal", proximal)):
        _check_cone(reg, rng, label, failures)
    reference = Region.from_cell(reference_proximal_cell(s, y))
    if region_compare(proximal, reference).relation != "equal":
        failures.append("proximal normal is not the reference proximal cone")
    ok, wit = region_subset(frechet, limiting)
    if not ok:
        failures.append(f"frechet normal not inside limiting normal at {wit}")

    if region_compare(second_tangent(s, y, zero, "outer"), tcone).relation != "equal":
        failures.append("d=0 reduction failed for the outer second-order set")
    if region_compare(directional_normal(s, y, zero, "limiting"), limiting).relation != "equal":
        failures.append("d=0 reduction failed for the directional limiting normal")

    d = tangent_direction(s, y, rng)
    if float(np.linalg.norm(d)) <= 1e-9:
        return failures
    outer = second_tangent(s, y, d, "outer")
    asym = second_tangent(s, y, d, "asymptotic")
    _check_cone(asym, rng, "asymptotic", failures)

    if outer.is_empty():
        nontrivial = False
        for c in asym.nonempty_cells():
            res = c.relint_point()
            if res is not None and float(np.linalg.norm(res[0])) > 1e-9:
                nontrivial = True
            gen = c.generators()
            if gen is not None and (len(gen[1]) or len(gen[2])):
                nontrivial = True
        if not nontrivial:
            failures.append("both second-order tangent objects trivial for a tangent direction")

    clarke_t = directional_clarke_tangent(s, y, d)
    regular = polar_cone(limiting)
    ok, wit = region_subset(regular, clarke_t)
    if not ok:
        failures.append(f"regular tangent cone escapes the directional Clarke tangent at {wit}")

    is_poly = not any(isinstance(m, Ball) for m in _leaves(s))
    if is_poly:
        for label, reg in (("outer", outer), ("asymptotic", asym)):
            if reg.is_empty() or clarke_t.is_empty():
                continue
            summed = minkowski_sum(reg, clarke_t)
            if region_compare(summed, reg).relation != "equal":
                failures.append(f"{label} second-order set not stable under "
                                "adding the directional Clarke tangent")

    if s.is_convex():
        if region_compare(asym, region_tangent_cone(tcone, d)).relation != "equal":
            failures.append("convex identity failed: asymptotic cone is not the "
                            "tangent cone of the tangent cone")
        if not outer.is_empty():
            ok, wit = region_subset(outer, asym)
            if not ok:
                failures.append(f"convex identity failed: outer set escapes the "
                                f"asymptotic cone at {wit}")
        wanted = limiting.intersect_orthocomplement(d)
        if region_compare(directional_normal(s, y, d, "limiting"), wanted).relation != "equal":
            failures.append("convex identity failed: directional normal is not N cap {d}-perp")

    for reg in (tcone, outer):
        if reg.is_empty():
            continue
        for _ in range(2):
            lam = rng.normal(size=s.dim)
            low, _notes = lower_gen_support_detail(reg, lam)
            sup = reg.support(lam)
            if low > sup + 1e-7:
                failures.append(f"lower generalized support exceeds the support at {lam}")
            if s.is_convex() and len(reg.nonempty_cells()) == 1 and math.isfinite(sup):
                if abs(low - sup) > 1e-7:
                    failures.append(f"support gap on a convex region at {lam}")
    return failures


def _leaves(s):
    if isinstance(s, UnionSet):
        return [m for part in s.members for m in _leaves(part)]
    if isinstance(s, ProductSet):
        return [m for part in s.factors for m in _leaves(part)]
    return [s]


def boundary_band_gap(region, w):
    """Distance from w to the nearest constraint surface of any cell."""
    w = np.asarray(w, dtype=float).ravel()
    best = math.inf
    for cell in region.nonempty_cells():
        if cell.A.shape[0]:
            best = min(best, float(np.min(np.abs(cell.b - cell.A @ w))))
        if cell.E.shape[0]:
            best = min(best, float(np.min(np.abs(cell.f - cell.E @ w))))
    return best


def oracle_agreement(s, y, d, count, seed, spread=2.0):
    """Compare analytic regions against the membership oracle.

    Samples `count` (kind, w) trials across the tangent cone and both
    second-order objects at (y, d); returns (agree, decided, offband) where
    offband counts disagreements farther than 1e-7 from every cell surface.
    """
    rng = np.random.default_rng([seed & 0x7FFFFFFF, 31])
    y = np.asarray(y, dtype=float).ravel()
    d = np.asarray(d, dtype=float).ravel()
    table = [
        ("tangent", tangent_cone(s, y), None),
        ("outer2", second_tangent(s, y, d, "outer"), d),
        ("asymp2", second_tangent(s, y, d, "asymptotic"), d),
    ]
    agree = decided = offband = 0
    for _ in range(count):
        kind, region, dd = table[int(rng.integers(len(table)))]
        w = spread * rng.normal(size=s.dim)
        verdict = membership_by_definition(s, y, dd, w, kind)
        if verdict == "boundary-inconclusive":
            continue
        decided += 1
        analytic = region.contains(w, tol=1e-9)
        if analytic == (verdict == "confirmed"):
            agree += 1
        elif boundary_band_gap(region, w) > 1e-7:
            offband += 1
    return agree, decided, offband


# ---------------------------------------------------------------------------
# scalar references for the sampling oracles: the point-by-point versions
# of sample_feasible, growth_constant_estimate and mscq_modulus_estimate.
# They take the oracles' bulk draws from the same streams and then build,
# pull back and test one point at a time, so the row-batched oracles can be
# compared against them bit for bit
# ---------------------------------------------------------------------------


def _normalized(u: np.ndarray) -> np.ndarray:
    return u / max(np.linalg.norm(u), 1e-12)


def _ball_point(u: np.ndarray, r: float, center: np.ndarray, radius: float) -> np.ndarray:
    """The point of the ball about center in the direction of the normal
    draw u, at the distance radius * r^(1/n) for the uniform draw r."""
    return center + radius * float(r) ** (1.0 / center.size) * _normalized(u)


def _in_directional_neighborhood(z: np.ndarray, d: np.ndarray, rho: float,
                                 delta: float) -> bool:
    """The two-branch membership test for V_{rho,delta}(d): a plain
    delta-ball when d = 0, otherwise additionally || |d| z - |z| d || <=
    rho |z| |d| (the displacement stays directionally aligned with d)."""
    nz = float(np.linalg.norm(z))
    if nz > delta:
        return False
    nd = float(np.linalg.norm(d))
    if nd <= 1e-12:
        return True
    return float(np.linalg.norm(nd * z - nz * d)) <= rho * nz * nd + 1e-12


def _gauss_newton_feasible(p: ProblemInstance, x0: np.ndarray, iters: int = 25) -> np.ndarray:
    """Pull a point toward the feasible set by correcting the constraint
    residual g(x) - proj_K(g(x)) along the Jacobian pseudoinverse, which
    for one constraint row j is j / (j @ j), and zero for a zero row."""
    x = x0.copy()
    for _ in range(iters):
        gx = p.g_value(x)
        if p.K.contains(gx, tol=1e-10):
            break
        resid = gx - distance_pointwise(p.K, gx)[1]
        J = p.g_jet(x).jacobian
        if J.shape[0] == 1:
            j = J[0]
            jj = j @ j
            step = j * (resid[0] / jj) if jj != 0.0 else np.zeros_like(j)
        else:
            step = np.linalg.pinv(J, rcond=1e-10) @ resid
        if not np.all(np.isfinite(step)):
            break
        x = x - step
    return x


def sample_feasible(p: ProblemInstance, delta: float, count: int, seed: int) -> np.ndarray:
    """Deterministic points of the feasible set within delta of xbar, as
    the rows of a (hits, n) array, by rejection sampling plus
    boundary-biased Gauss-Newton proposals."""
    if delta <= 0:
        raise OracleError("delta must be positive")
    rng = rng_for(seed, 1)
    U = rng.standard_normal((count, p.n))
    R = rng.random(count)
    hits: list[np.ndarray] = []
    for trial in range(count):
        x = _ball_point(U[trial], R[trial], p.xbar, delta)
        if trial % 2 == 1:
            x = _gauss_newton_feasible(p, x)
            if np.linalg.norm(x - p.xbar) > delta:
                continue
        if p.K.contains(p.g_value(x), tol=0.0):
            hits.append(x)
    if len(hits) < max(1, count // 100):
        raise OracleError("thin feasible set: "
                          f"{len(hits)} hits out of {count} proposals")
    return np.reshape(hits, (-1, p.n))


def growth_constant_estimate(p: ProblemInstance, delta: float, count: int,
                             seed: int) -> GrowthEstimate:
    """Smallest observed (f(x) - f(xbar)) / dist(x, S)^2 over feasible
    samples at positive distance from S.  A negative value is a numeric
    certificate against second-order weak sharpness on this neighborhood."""
    samples = sample_feasible(p, delta, count, seed)
    fbar = p.f(p.xbar)
    best = math.inf
    witness = None
    used = 0
    for x in samples:
        dist, _ = distance_pointwise(p.S, x)
        if dist <= 1e-6:
            continue
        used += 1
        ratio = (p.f(x) - fbar) / (dist * dist)
        if ratio < best:
            best = ratio
            witness = x
    return GrowthEstimate(best, witness, used, delta)


def _feasible_distance(p: ProblemInstance, x: np.ndarray) -> float:
    """Upper estimate of dist(x, g^{-1}(K)) by Gauss-Newton pullback,
    refined by shrinking line search back toward x."""
    y = _gauss_newton_feasible(p, x, iters=50)
    if not p.K.contains(p.g_value(y), tol=1e-9):
        return math.inf
    best = float(np.linalg.norm(y - x))
    for frac in np.linspace(0.0, 1.0, 21):
        z = x + frac * (y - x)
        z = _gauss_newton_feasible(p, z, iters=15)
        if p.K.contains(p.g_value(z), tol=1e-9):
            best = min(best, float(np.linalg.norm(z - x)))
    return best


def mscq_modulus_estimate(p: ProblemInstance, x, d, rho: float, delta: float,
                          count: int, seed: int) -> MscqEstimate:
    """Max observed dist(x', Phi) / dist(g(x'), K) over x' in the
    directional neighborhood x + V_{rho,delta}(d); flags divergence when the
    ratios blow past 1e6 as the samples approach x."""
    x = np.asarray(x, dtype=float).ravel()
    d = np.asarray(d, dtype=float).ravel()
    if not p.K.contains(p.g_value(x), tol=1e-7):
        raise OracleError("base point is infeasible")
    rng = rng_for(seed, 2)
    scale = delta * rng.random(count) ** 2  # bias toward x, where blowups live
    branch = rng.random(count)
    U = rng.standard_normal((count, x.size))
    radius, shrink = rng.random(count), rng.random(count)
    best = 0.0
    witness = None
    used = 0
    nd = float(np.linalg.norm(d))
    for i in range(count):
        if nd > 1e-12 and branch[i] < 0.8:
            z = scale[i] * (d / nd + 0.45 * rho * _normalized(U[i]))
        else:
            z = _ball_point(U[i], radius[i], np.zeros(x.size), delta) * shrink[i]
        if not _in_directional_neighborhood(z, d, rho, delta):
            continue
        xp = x + z
        resid, _ = distance_pointwise(p.K, p.g_value(xp))
        if resid <= 1e-12:
            continue
        fdist = _feasible_distance(p, xp)
        if not math.isfinite(fdist):
            continue  # pullback failed; no distance estimate for this sample
        used += 1
        ratio = fdist / resid
        if ratio > best:
            best = ratio
            witness = xp
        if ratio > 1e6:
            return MscqEstimate(None, True, xp, used)
    return MscqEstimate(best, False, witness, used)


# ---------------------------------------------------------------------------
# scalar references for set membership and distance: each catalog kind's
# test and projection of one point, written without the row methods
# ---------------------------------------------------------------------------


def contains_pointwise(s, y, tol: float) -> bool:
    """Membership of the one point y in the catalog set s, kind by kind."""
    y = np.asarray(y, dtype=float).ravel()
    if isinstance(s, Interval):
        return bool(s.lo - tol <= y[0] <= s.hi + tol)
    if isinstance(s, Box):
        return all(contains_pointwise(iv, [v], tol) for iv, v in zip(s.intervals, y))
    if isinstance(s, Halfspace):
        return float(s.normal @ y) <= s.offset + tol * np.linalg.norm(s.normal)
    if isinstance(s, Polyhedron):
        # PolyCell.contains: the point as one (1, dim) row
        c, row = s.cell, y[None]
        return bool(np.all(row @ c.A.T <= c.b + tol)
                    and np.all(np.abs(row @ c.E.T - c.f) <= tol))
    if isinstance(s, Ball):
        return float(np.linalg.norm(y - s.center)) <= s.radius + tol
    if isinstance(s, PointSet):
        return float(np.linalg.norm(y - s.x)) <= tol
    if isinstance(s, UnionSet):
        return any(contains_pointwise(m, y, tol) for m in s.members)
    if isinstance(s, ProductSet):
        return all(contains_pointwise(f, part, tol)
                   for f, part in zip(s.factors, s.split(y)))
    raise TypeError(f"no scalar membership reference for {type(s).__name__}")


def distance_pointwise(s, y) -> tuple[float, np.ndarray]:
    """Distance from the one point y to the catalog set s and its first
    projection, kind by kind, in closed form where the kind has one."""
    y = np.asarray(y, dtype=float).ravel()
    if isinstance(s, Interval):
        v = float(y[0])
        p = min(max(v, s.lo), s.hi)
        return abs(v - p), np.array([p])
    if isinstance(s, Box):
        p = np.array([min(max(v, iv.lo), iv.hi) for iv, v in zip(s.intervals, y)])
        return float(np.linalg.norm(y - p)), p
    if isinstance(s, Halfspace):
        slack = float(s.normal @ y) - s.offset
        nr2 = float(s.normal @ s.normal)
        if slack <= 0:
            return 0.0, y.copy()
        return slack / math.sqrt(nr2), y - (slack / nr2) * s.normal
    if isinstance(s, Polyhedron):
        return s.cell.project(y)
    if isinstance(s, Ball):
        gap = float(np.linalg.norm(y - s.center))
        if gap <= s.radius:
            return 0.0, y.copy()
        return gap - s.radius, s.center + (s.radius / gap) * (y - s.center)
    if isinstance(s, PointSet):
        return float(np.linalg.norm(y - s.x)), s.x.copy()
    if isinstance(s, UnionSet):
        results = [distance_pointwise(m, y) for m in s.members]
        best = min(d for d, _ in results)
        # the first member inside the tie window
        return best, next(p for d, p in results if d <= best + TOL)
    if isinstance(s, ProductSet):
        total2, parts = 0.0, []
        for f, part in zip(s.factors, s.split(y)):
            d, p = distance_pointwise(f, part)
            total2 += d * d
            parts.append(p)
        return math.sqrt(total2), np.concatenate(parts)
    raise TypeError(f"no scalar distance reference for {type(s).__name__}")


# ---------------------------------------------------------------------------
# scalar reference for membership_by_definition: its probe loop, one step
# and one distance at a time
# ---------------------------------------------------------------------------


def membership_pointwise(s, y, d, w, kind: str) -> str:
    """membership_by_definition written as a loop over the 20 steps, each
    probe measured by distance_pointwise."""
    y = np.asarray(y, dtype=float).ravel()
    w = np.asarray(w, dtype=float).ravel()
    d = np.zeros(y.size) if d is None else np.asarray(d, dtype=float).ravel()
    if kind != "tangent" and float(np.linalg.norm(d)) <= 1e-12:
        kind = "tangent"
    anchor = 3 if kind == "tangent" else 2
    decay = 0.85 if kind == "asymp2" else 0.6
    all_success = True
    inside_from_anchor = True
    informative = []
    for k, t in enumerate((0.1 * 0.5 ** np.arange(20)).tolist()):
        r = t ** (2.0 / 3.0)
        if kind == "tangent":
            x = y + t * w
            scale = t
        elif kind == "outer2":
            x = y + t * d + 0.5 * t * t * w
            scale = 0.5 * t * t
        else:
            x = y + t * d + 0.5 * t * r * w
            scale = 0.5 * t * r
        dist, _ = distance_pointwise(s, x)
        res = 8e-12 * (1.0 + float(np.linalg.norm(x)))
        radius = max(0.5 * (1.0 + float(np.linalg.norm(w))) * decay ** k, 1e-6)
        ub = (dist + res) / scale
        lb = max(dist - res, 0.0) / scale
        if ub <= radius:
            informative.append((lb, False))
            if k >= anchor and dist > res:
                inside_from_anchor = False
        elif lb > radius:
            informative.append((lb, True))
            all_success = False
    if len(informative) < 4:
        return "boundary-inconclusive"
    if all_success and inside_from_anchor:
        return "confirmed"
    tail = informative[-5:]
    if all(hard for _, hard in tail):
        if min(lb for lb, _ in tail) <= 1e-6:
            return "boundary-inconclusive"
        return "rejected"
    return "boundary-inconclusive"


# ---------------------------------------------------------------------------
# scalar references for the reference-point checks: the point-by-point loops
# of ProblemInstance.__post_init__ and cli._load, on the same streams, so the
# row versions can be compared against them message for message
# ---------------------------------------------------------------------------


def reference_set_violation(n, m, f, g, K, S, xbar, options) -> str | None:
    """The ModelError text ProblemInstance raises when one of 25 sampled
    points of S near xbar leaves the feasible set, or None."""
    xbar = np.asarray(xbar, dtype=float).ravel()
    rng = rng_for(options.seed, 0x5F5F)
    for p in S.sample_near(xbar, max(2.0 * options.delta, 1.0), rng, 25):
        if not K.contains(np.array([gi(p) for gi in g]), tol=1e-6):
            return ("reference set is not contained in the feasible set "
                    f"(violation at {np.round(p, 6).tolist()})")
    return None


def reference_point_warnings(inst: ProblemInstance) -> tuple:
    """The warning cli._load adds when one of 100 sampled points of S near
    xbar leaves the feasible set."""
    warnings = []
    options = inst.options
    rng = rng_for(options.seed, 0x2E5D)
    for pt in inst.S.sample_near(inst.xbar, max(2.0 * options.delta, 1.0), rng, 100):
        if not inst.K.contains(inst.g_value(pt), tol=1e-6):
            warnings.append("warning: a sampled reference point leaves the "
                            f"feasible set near {np.round(pt, 6).tolist()}")
            break
    return tuple(warnings)


def _poly_text(lin, quad) -> str:
    """lin . x + x' quad x for a symmetric quad, as document text; each
    coefficient is written with repr(float(c)), which the parser reads
    back exactly."""
    n = len(lin)
    terms = [f"{float(c)!r}*x{j + 1}" for j, c in enumerate(lin)]
    terms += [f"{float(quad[j, k] if j == k else 2.0 * quad[j, k])!r}*x{j + 1}*x{k + 1}"
              for j in range(n) for k in range(j, n)]
    return " + ".join(terms)


def generic_stationary_document(seed: int) -> tuple[dict, np.ndarray]:
    """(problem document, multiplier) of a generic program with xbar = 0
    stationary by construction: f = -(J' lam) . x + x' A x / 2 and
    g_i = J_i x + x' B_i x into K = (-inf, 0]^m, with S = {0}.

    Everything is drawn from default_rng(seed) in this order: n in {2, 3}
    and m in {1, 2}; J ~ N(0, 1)^(m x n); lam_i ~ U(0, 1.5), each zeroed
    with probability 0.2; A = sym(N(0, 1)) + U(0.5, 2.5) I, where
    sym(M) = (M + M')/2; B_i = sym(0.5 N(0, 1)).  Nothing makes xbar a
    local minimiser, so some seeds give a stationary point that is not
    one."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.choice([2, 3])), int(rng.choice([1, 2]))

    def sym(M):
        return 0.5 * (M + M.T)

    J = rng.normal(size=(m, n))
    lam = rng.uniform(0.0, 1.5, size=m)
    lam[rng.uniform(size=m) < 0.2] = 0.0
    A = sym(rng.normal(size=(n, n))) + rng.uniform(0.5, 2.5) * np.eye(n)
    B = [sym(0.5 * rng.normal(size=(n, n))) for _ in range(m)]
    ray = {"kind": "interval", "lo": "-inf", "hi": 0.0}
    doc = {"n": n, "m": m, "objective": _poly_text(-J.T @ lam, 0.5 * A),
           "constraints": [_poly_text(J[i], B[i]) for i in range(m)],
           "K": ray if m == 1 else {"kind": "product", "factors": [ray] * m},
           "S": {"kind": "point", "at": [0.0] * n}, "xbar": [0.0] * n,
           "options": {"delta": 0.05, "seed": 7}}
    return doc, lam


def reference_point_problem(seed):
    """Keyword arguments of a ProblemInstance whose S and K are catalog
    sets, with g_i(x) = y_i + sum_j A_ij (x_j - s_j)^8 for the catalog
    points s of S and y of K, so xbar = s is feasible.  The scale of A
    around the 1e-6 tolerance of the reference-point checks and the eighth
    powers make sampled points of S leave K often, rarely or never."""
    rng = np.random.default_rng([seed & 0x7FFFFFFF, 59])
    S, s, _, _ = random_catalog_instance(int(rng.integers(2**31)))
    K, y, _, _ = random_catalog_instance(int(rng.integers(2**31)))
    s, y = np.asarray(s, dtype=float), np.asarray(y, dtype=float)
    n, m = S.dim, K.dim
    A = 10.0 ** rng.uniform(-6.0, -3.0) * rng.normal(size=(m, n))
    g = tuple(parse_expression(f"{y[i]:.17g}" + "".join(
        f" + {A[i, j]:.17g}*(x{j + 1} - {s[j]:.17g})^8" for j in range(n)), n)
        for i in range(m))
    f = parse_expression(" + ".join(f"x{j + 1}^2" for j in range(n)), n)
    options = Options(seed=int(rng.integers(2**16)),
                      delta=float(rng.choice([0.05, 0.25, 0.75])))
    return dict(n=n, m=m, f=f, g=g, K=K, S=S, xbar=s, options=options)


# ---------------------------------------------------------------------------
# the implicit necessary form, scanned over the affine multiplier set
# ---------------------------------------------------------------------------


def _line_constancy(region: Region, c0: np.ndarray, c1: np.ndarray):
    """Behavior of sup_w (c0 + t c1) . w over the region as t runs over R.

    Returns "constant" when the support value does not depend on t, or
    "unbounded" when it tends to +infinity.  These are the only
    possibilities for a convex piecewise-linear map that is finite at some
    t, which is exactly what makes a probe along each nullspace direction
    an exhaustive scan of the multiplier affine set."""
    slope_hi, slope_lo = -math.inf, math.inf
    for verts, rays, lines in region.cell_generators():
        for r in list(rays) + list(lines) + [-l for l in lines]:
            if abs(float(c1 @ r)) > certify.TOL or float(c0 @ r) > certify.TOL:
                return "unbounded"
        for v in verts:
            s = float(c1 @ v)
            slope_hi = max(slope_hi, s)
            slope_lo = min(slope_lo, s)
    if slope_hi > certify.TOL or slope_lo < -certify.TOL:
        return "unbounded"
    return "constant"


def reference_implicit_parts(p: ProblemInstance, x, d) -> tuple[bool, float, float]:
    """(part (i) holds, sigma_theta, achieved) of the implicit necessary
    form at (x, d), read over the whole affine multiplier set
    lam0 + ker Dg(x)^T, which must be nonempty; d is used as given.

    Part (i) is the inclusion of the set in the preimage under Dg(x)^T of
    the polar of the asymptotic preimage T''; sigma_theta is the support
    of T'' at Dg(x)^T lam0.  achieved is the infimum over the set of
    qf - sigma_{T2}(Dg(x)^T lam), T2 being the outer preimage: the map is
    concave, so it is constant on the set when it is constant along each
    basis direction of ker Dg(x)^T and -inf otherwise."""
    x = np.asarray(x, dtype=float).ravel()
    d = np.asarray(d, dtype=float).ravel()
    aff = certify.multiplier_affine_set(p, x)
    assert not aff.empty
    _, J, qfn, _ = certify._jet_data(p, x)
    Jt = J.T
    Tpp = certify._point_phi_tangents(p, x, d, "asymp2")
    T2 = certify._point_phi_tangents(p, x, d, "outer2")
    pre_polar = polar_cone(Tpp).affine_preimage(Jt, np.zeros(p.n))
    included, _ = region_subset(Region.from_cell(aff.as_cell()), pre_polar)
    c0 = Jt @ aff.lam0
    sigma_theta = Tpp.support(c0)
    _, sv, vh = np.linalg.svd(Jt) if min(Jt.shape) else (None, np.zeros(0), np.eye(p.m))
    rank = int(np.sum(sv > 1e-10 * max(1.0, sv[0] if sv.size else 1.0)))
    sup0 = T2.support(c0)
    if sup0 == math.inf or any(_line_constancy(T2, c0, Jt @ nvec) == "unbounded"
                               for nvec in vh[rank:]):
        return included, sigma_theta, -math.inf
    return included, sigma_theta, qfn(d) - sup0


# ---------------------------------------------------------------------------
# the sufficient checks' multiplier LP, posed over the affine multiplier set
# ---------------------------------------------------------------------------


def _strict_rows_for_direction(Tpp_n: Region, T2_n: Region, J, thresh: float,
                               qf_d: float):
    """LP rows over lam encoding strict negativity on the image of the
    asymptotic cone and the curvature threshold over the outer set.

    Returns (rows, rhs, margins, eq_rows): the rows are m-dimensional, and
    margins holds the coefficient of the common margin s in each row
    (rows @ lam + margins * s <= rhs, eq_rows @ lam = 0).  Returns None
    when a line of the asymptotic cone has a nonzero image (no multiplier
    can be strictly negative on both signs)."""
    rows, rhs, margins, eqs = [], [], [], []
    for verts, rays, lines in Tpp_n.cell_generators():
        for l in lines:
            img = J @ l
            if np.linalg.norm(img) > 1e-9:
                return None
        gens = [v for v in list(verts) + list(rays) if np.linalg.norm(v) > 1e-9]
        for r in gens:
            img = J @ r
            nrm = float(np.linalg.norm(img))
            if nrm <= 1e-9:
                continue   # kernel directions carry no constraint
            rows.append(img)
            rhs.append(0.0)
            margins.append(nrm)
    for verts, rays, lines in T2_n.cell_generators():
        for l in lines:
            img = J @ l
            if np.linalg.norm(img) > 1e-9:
                eqs.append(img)
        for r in rays:
            img = J @ r
            if np.linalg.norm(img) > 1e-9:
                rows.append(img)
                rhs.append(0.0)
                margins.append(0.0)
        for v in verts:
            rows.append(J @ v)
            rhs.append(qf_d - thresh)
            margins.append(1.0)
    return rows, rhs, margins, eqs


def _solve_multiplier_lp(aff, blocks):
    """Maximize the common margin s over the affine multiplier set subject
    to the stacked per-direction blocks."""
    m = aff.jacobian_t.shape[1]
    rows, rhs, margins, eqs = ([item for part in parts for item in part]
                               for parts in zip(*blocks))
    out = _lp.max_margin(np.reshape(rows, (-1, m)), rhs, margins,
                         [*eqs, *aff.jacobian_t],
                         np.concatenate([np.zeros(len(eqs)), -aff.grad_f]))
    if out is None:
        return None, None
    margin, lam = out
    return lam, margin


def reference_multiplier_margin(p: ProblemInstance, dirs, thresholds):
    """(lam, margin) of the multiplier LP the sufficient checks posed
    before they read the margin in closed form: one block per direction d
    of dirs with its threshold, stacked into one program over the affine
    multiplier set, which must be nonempty.  None when some direction's
    asymptotic preimage holds a line with a nonzero image; (None, None)
    when the program is infeasible."""
    x = p.xbar
    _, J, qfn, _ = certify._jet_data(p, x)
    blocks = []
    for d, thresh in zip(dirs, thresholds):
        Tpp, T2 = certify._second_order_preimages(p, x, d)
        block = _strict_rows_for_direction(Tpp, T2, J, thresh, qfn(d))
        if block is None:
            return None
        blocks.append(block)
    return _solve_multiplier_lp(certify.multiplier_affine_set(p, x), blocks)


# ---------------------------------------------------------------------------
# finite-difference reference for the analytic jets
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DerivativeReport:
    passed: bool
    max_rel_error: float
    location: str
    failures: tuple = ()


def derivative_check(e, x, tolerance: float = 1e-6, jet: Jet2 | None = None) -> DerivativeReport:
    """Central finite differences (step 1e-5) against the analytic jet.
    Passing an explicit jet lets callers audit externally supplied data."""
    exprs = list(e) if isinstance(e, (list, tuple)) else [e]
    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    if jet is None:
        jet = evaluate_jet(exprs, x)
    h = 1e-5
    worst = 0.0
    where = "ok"
    failures = []

    def record(err, loc):
        nonlocal worst, where
        if err > worst:
            worst, where = err, loc
        if err > tolerance:
            failures.append((loc, err))

    for ci, ex in enumerate(exprs):
        for j in range(n):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd = (ex(xp) - ex(xm)) / (2 * h)
            an = float(jet.jacobian[ci, j])
            record(abs(fd - an) / max(1.0, abs(an)), f"jacobian[{ci},{j}]")
            gp = evaluate_jet(ex, xp).gradient
            gm = evaluate_jet(ex, xm).gradient
            fdh = (gp - gm) / (2 * h)
            for k in range(n):
                an2 = float(jet.hessians[ci][j, k])
                record(abs(float(fdh[k]) - an2) / max(1.0, abs(an2)),
                       f"hessian[{ci}][{j},{k}]")
    return DerivativeReport(not failures, worst, where, tuple(failures))
