"""Shared builders for the randomized catalog suites.

Seeded instance generation, tangent-direction sampling, the invariant
battery run per instance, oracle agreement counting, the reference
implementations the library is checked against (the scalar sampling
oracles and a finite-difference jet check), and an in-process CLI
runner.  Kept out of the test modules so the acceptance suite can reuse
the exact same generators.
"""
import dataclasses
import io
import math
import re
import sys

import numpy as np

from sharpcheck import cli
from sharpcheck.oracles import (
    GrowthEstimate,
    MscqEstimate,
    OracleError,
    _rng_for,
    membership_by_definition,
)
from sharpcheck.regions import (
    Region,
    lower_gen_support_detail,
    polar_cone,
    region_compare,
    region_subset,
)
from sharpcheck.sets import (
    Ball,
    Box,
    FiniteSet,
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
    s = FiniteSet(pts)
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
    if not region.cone:
        failures.append(f"{label}: cone flag missing")
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
    ok, wit = region_subset(proximal, frechet)
    if not ok:
        failures.append(f"proximal normal not inside frechet normal at {wit}")
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
            summed = reg.minkowski_sum(clarke_t)
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
        wanted = limiting.intersect_orthocomplement(d).with_cone_flag(True)
        if region_compare(directional_normal(s, y, d, "limiting"), wanted).relation != "equal":
            failures.append("convex identity failed: directional normal is not N cap {d}-perp")

    for reg in (tcone, outer):
        if reg.is_empty():
            continue
        for _ in range(2):
            lam = rng.normal(size=s.dim)
            low, _notes = lower_gen_support_detail(reg, lam)
            sup = reg.support(lam)
            if float(low) > float(sup) + 1e-7:
                failures.append(f"lower generalized support exceeds the support at {lam}")
            if s.is_convex() and len(reg.nonempty_cells()) == 1 and sup.is_finite:
                if abs(float(low) - float(sup)) > 1e-7:
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
# of sample_feasible, growth_constant_estimate and mscq_modulus_estimate,
# kept unchanged so the row-batched oracles can be compared against them
# bit for bit
# ---------------------------------------------------------------------------


def _ball_point(rng: np.random.Generator, center: np.ndarray, radius: float) -> np.ndarray:
    n = center.size
    u = rng.normal(size=n)
    u /= max(np.linalg.norm(u), 1e-12)
    return center + radius * rng.random() ** (1.0 / n) * u


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
    residual g(x) - proj_K(g(x)) along the Jacobian pseudoinverse."""
    x = x0.copy()
    for _ in range(iters):
        gx = p.g_value(x)
        if p.K.contains(gx, tol=1e-10):
            break
        _, projs = p.K.distance(gx)
        resid = gx - projs[0]
        J = p.g_jet(x).jacobian
        step = np.linalg.pinv(J, rcond=1e-10) @ resid
        if not np.all(np.isfinite(step)):
            break
        x = x - step
    return x


def sample_feasible(p: ProblemInstance, delta: float, count: int, seed: int) -> list[np.ndarray]:
    """Deterministic points of the feasible set within delta of xbar, by
    rejection sampling plus boundary-biased Gauss-Newton proposals."""
    if delta <= 0:
        raise OracleError("delta must be positive")
    rng = _rng_for(seed, 1)
    hits: list[np.ndarray] = []
    for trial in range(count):
        x = _ball_point(rng, p.xbar, delta)
        if trial % 2 == 1:
            x = _gauss_newton_feasible(p, x)
            if np.linalg.norm(x - p.xbar) > delta:
                continue
        if p.K.contains(p.g_value(x), tol=1e-9):
            hits.append(x)
    if len(hits) < max(1, count // 100):
        raise OracleError("thin feasible set: "
                          f"{len(hits)} hits out of {count} proposals")
    return hits


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
        dist, _ = p.S.distance(x)
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
    rng = _rng_for(seed, 2)
    best = 0.0
    witness = None
    used = 0
    nd = float(np.linalg.norm(d))
    for _ in range(count):
        scale = delta * rng.random() ** 2  # bias toward x, where blowups live
        if nd > 1e-12 and rng.random() < 0.8:
            tilt = rng.normal(size=x.size)
            tilt /= max(np.linalg.norm(tilt), 1e-12)
            z = scale * (d / nd + 0.45 * rho * tilt)
        else:
            z = _ball_point(rng, np.zeros(x.size), delta) * rng.random()
        if not _in_directional_neighborhood(z, d, rho, delta):
            continue
        xp = x + z
        resid, _ = p.K.distance(p.g_value(xp))
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
# scalar references for the reference-point checks: the point-by-point loops
# of ProblemInstance.__post_init__ and cli._load, kept unchanged so the row
# versions can be compared against them message for message
# ---------------------------------------------------------------------------


def reference_set_violation(n, m, f, g, K, S, xbar, options) -> str | None:
    """The ModelError text ProblemInstance raises when one of 25 sampled
    points of S near xbar leaves the feasible set, or None."""
    xbar = np.asarray(xbar, dtype=float).ravel()
    rng = np.random.default_rng(options.seed ^ 0x5F5F)
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
    rng = np.random.default_rng(options.seed ^ 0x2E5D)
    for pt in inst.S.sample_near(inst.xbar, max(2.0 * options.delta, 1.0), rng, 100):
        if not inst.K.contains(inst.g_value(pt), tol=1e-6):
            warnings.append("warning: a sampled reference point leaves the "
                            f"feasible set near {np.round(pt, 6).tolist()}")
            break
    return tuple(warnings)


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
