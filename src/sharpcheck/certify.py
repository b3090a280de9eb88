"""Checkers for second-order weak sharp minimality.

Given a problem instance (minimize f over g(x) in K, reference set S,
candidate xbar), this module evaluates necessary conditions that every
local quadratic-growth constant must satisfy, and sufficient conditions
that certify one.  All geometric objects are polyhedral Regions produced
by the tangent machinery; multiplier searches reduce to small dense LPs.

Verdict vocabulary, shared by every checker:

* ``certified``   - a sufficient condition holds at the requested kappa;
* ``satisfied``   - a necessary condition holds (no refutation);
* ``violated``    - the condition fails, with a replayable witness;
* ``inconclusive``- numerics prevented a sound call;
* ``hypotheses-not-met`` - a precondition of the theorem being checked
  could not be verified; reported, never raised.

Necessary checks report the largest admissible growth constant, sufficient
checks report the certified one.  Every sufficient certificate is replayed
through the sampling growth oracle before it is issued.

Each necessary checker, and ``sweep_necessary`` around all of its pairs,
runs inside an ``lp.reuse_scope``.  There the jets, critical cone,
multiplier affine set and T_S at a base point are built once per instance
and point, and every LP, double description, face complex and lower generalized
support once per distinct input.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import lp as _lp
from . import oracles
from .extreal import ExtReal
from .polyexpr import ModelError, ProblemInstance
from .regions import (PolyCell, Region, face_complex, lower_gen_support_detail,
                      polar_cone, region_subset)
from .sets import (Ball, BaseSet, Box, FiniteSet, Halfspace, Interval, PointSet,
                   Polyhedron, ProductSet, UnionSet)
from .tangents import (TangentError, directional_clarke_tangent, directional_normal,
                       eps_proximal_filter, eps_proximal_membership, normal_cone,
                       second_tangent, tangent_cone)

TOL = 1e-9
STRICT_TOL = 1e-7      # margin below which a strict inequality is not trusted
REPLAY_TOL = 1e-7      # witness replay agreement
DUALITY_TOL = 1e-6     # conic primal / multiplier dual agreement
KAPPA_FLOOR = 1e-4     # a max_admissible below this refutes the growth constant
INCLUSION_ONLY = "inclusion-only: constraint qualification unverified"


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CertificationReport:
    """Outcome of one checker invocation."""

    verdict: str
    kappa_bounds: dict
    witnesses: tuple = ()
    cq_status: dict = dataclasses.field(default_factory=dict)
    diagnostics: tuple = ()

    def __post_init__(self):
        allowed = {"certified", "satisfied", "violated", "inconclusive",
                   "hypotheses-not-met"}
        if self.verdict not in allowed:
            raise ModelError(f"unknown verdict {self.verdict!r}")
        object.__setattr__(self, "witnesses", tuple(self.witnesses))
        object.__setattr__(self, "diagnostics", tuple(self.diagnostics))

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "kappa_bounds": {k: _json_num(v) for k, v in self.kappa_bounds.items()},
            "witnesses": [_json_obj(w) for w in self.witnesses],
            "cq_status": dict(self.cq_status),
            "diagnostics": list(self.diagnostics),
        }


def _json_num(v):
    if isinstance(v, float):
        if math.isinf(v):
            return "unbounded" if v > 0 else "-unbounded"
        if math.isnan(v):
            return "undefined"
    return v


def _json_obj(obj):
    if isinstance(obj, dict):
        return {k: _json_obj(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_obj(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [float(v) for v in obj.ravel()]
    if isinstance(obj, (np.floating, np.integer)):
        return _json_num(float(obj))
    if isinstance(obj, float):
        return _json_num(obj)
    return obj


def _wit(**kw) -> dict:
    return {k: (np.asarray(v, dtype=float)
                if isinstance(v, (list, tuple, np.ndarray)) else v)
            for k, v in kw.items() if v is not None}


def _report(verdict, kappa=None, witnesses=(), cq=None, diags=()):
    bounds = {} if kappa is None else dict(kappa)
    return CertificationReport(verdict, bounds, tuple(witnesses),
                               dict(cq or {}), tuple(diags))


# ---------------------------------------------------------------------------
# jets and multipliers
# ---------------------------------------------------------------------------


def _per_point(build):
    """build(p, x) at x (xbar when omitted).  Inside an open
    ``lp.reuse_scope`` the object is built once per instance and point: the
    memo key holds the instance itself, so two instances never share one."""

    @functools.wraps(build)
    def once(p: ProblemInstance, x=None):
        x = p.xbar if x is None else np.asarray(x, dtype=float).ravel()
        return _lp._reused(build.__name__, (p, x), lambda: build(p, x))

    return once


@_per_point
def _jet_data(p: ProblemInstance, x):
    """(grad f, Jacobian of g, f quadratic d'Hf d evaluator, q vector map)."""
    fj = p.f_jet(x)
    gj = p.g_jet(x)

    def qf(d):
        d = np.asarray(d, dtype=float).ravel()
        return float(d @ fj.hessian @ d)

    def qg(d):
        d = np.asarray(d, dtype=float).ravel()
        return np.array([float(d @ H @ d) for H in gj.hessians])

    return fj.gradient, gj.jacobian, qf, qg


@dataclasses.dataclass(frozen=True)
class MultiplierAffineSet:
    """Solution set of grad f(x) + Dg(x)^T lam = 0, as lam0 + span(basis)."""

    lam0: np.ndarray | None
    basis: np.ndarray      # (p, m) rows spanning ker Dg(x)^T
    empty: bool
    jacobian_t: np.ndarray  # (n, m), kept for the defining equalities
    grad_f: np.ndarray

    def as_cell(self) -> PolyCell:
        if self.empty:
            return PolyCell.empty_marker(self.basis.shape[1])
        return PolyCell(eq_mat=self.jacobian_t, eq_rhs=-self.grad_f,
                        dim=self.basis.shape[1])

    def as_region(self) -> Region:
        return Region.from_cell(self.as_cell())


@_per_point
def multiplier_affine_set(p: ProblemInstance, x) -> MultiplierAffineSet:
    grad, J, _, _ = _jet_data(p, x)
    Jt = J.T  # (n, m)
    lam0, *_ = np.linalg.lstsq(Jt, -grad, rcond=None)
    resid = float(np.linalg.norm(Jt @ lam0 + grad))
    _, sv, vh = np.linalg.svd(Jt) if min(Jt.shape) else (None, np.zeros(0), np.eye(p.m))
    rank = int(np.sum(sv > 1e-10 * max(1.0, sv[0] if sv.size else 1.0)))
    basis = vh[rank:] if vh.shape[0] > rank else np.zeros((0, p.m))
    if resid > 1e-9:
        return MultiplierAffineSet(None, basis, True, Jt, grad)
    return MultiplierAffineSet(lam0, basis, False, Jt, grad)


# ---------------------------------------------------------------------------
# critical cone and directional multipliers
# ---------------------------------------------------------------------------


@_per_point
def critical_cone(p: ProblemInstance, x) -> Region:
    """Linearized feasible directions with nonincreasing objective: the
    preimage {d : Dg(x) d in T_K(g(x))} intersected with the descent
    halfspace of grad f(x)."""
    grad, J, _, _ = _jet_data(p, x)
    tk = tangent_cone(p.K, p.g_value(x))
    reg = tk.affine_preimage(J, np.zeros(p.m))
    reg = reg.intersect(Region.halfspace(grad, 0.0))
    return reg.with_cone_flag(True)


def directional_multipliers(p: ProblemInstance, x, d, kind: str = "M") -> Region:
    """Stationary multipliers lying in the directional normal cone of K at
    g(x) in direction Dg(x) d; kind M uses the limiting cone, C the Clarke
    cone.  The M set is always contained in the C set."""
    if kind not in ("M", "C"):
        raise ModelError(f"unknown multiplier kind {kind!r}")
    x = p.xbar if x is None else np.asarray(x, dtype=float).ravel()
    d = np.asarray(d, dtype=float).ravel()
    aff = multiplier_affine_set(p, x)
    if aff.empty:
        return Region.empty(p.m, notes=("stationarity equation has no solution",))
    _, J, _, _ = _jet_data(p, x)
    cone_kind = "limiting" if kind == "M" else "clarke"
    N = directional_normal(p.K, p.g_value(x), J @ d, cone_kind)
    cells = [c.intersect(aff.as_cell()) for c in N.cells]
    return Region(cells, cone=False, notes=N.notes, dim=p.m)


# ---------------------------------------------------------------------------
# constraint qualifications
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CqResult:
    kind: str
    holds: bool
    witness: np.ndarray | None = None
    notes: tuple = ()


def _nontrivial_point(region: Region) -> np.ndarray | None:
    """A nonzero point of a cone region, or None when the region is {0}."""
    for cell in region.nonempty_cells():
        for i in range(region.dim):
            for sgn in (1.0, -1.0):
                obj = sgn * np.eye(region.dim)[i]
                box = np.vstack([np.eye(region.dim), -np.eye(region.dim)])
                probe = cell.intersect(PolyCell(box, np.ones(2 * region.dim),
                                                dim=region.dim))
                out = _lp.maximize(obj, probe.A, probe.b, probe.E, probe.f)
                if out.status == "optimal" and out.value > STRICT_TOL:
                    return out.point
    return None


def constraint_qualification_check(p: ProblemInstance, x=None, d=None,
                                   kind: str = "FOSCMS") -> CqResult:
    """Directional constraint qualifications at (x, d).

    FOSCMS:  ker Dg(x)^T meets the directional limiting normal cone of K
             only at 0.
    SOSCMS:  same test after adding the curvature halfspace
             d' D^2(lam' g) d >= 0; requires a polyhedral-union K.
    DirRCQ:  the Clarke variant of FOSCMS.
    NONDEG:  span of the directional limiting cone meets ker Dg(x)^T only
             at 0 (rank test); forces a unique multiplier.
    """
    kind_u = kind.upper().replace("-", "")
    if kind_u not in ("FOSCMS", "SOSCMS", "DIRRCQ", "NONDEG"):
        raise ModelError(f"unknown constraint qualification {kind!r}")
    x = p.xbar if x is None else np.asarray(x, dtype=float).ravel()
    d = np.zeros(p.n) if d is None else np.asarray(d, dtype=float).ravel()
    _, J, _, qg = _jet_data(p, x)
    y = p.g_value(x)
    u = J @ d
    notes = ()
    if kind_u == "NONDEG":
        N = directional_normal(p.K, y, u, "limiting")
        gens = []
        for cell in N.nonempty_cells():
            g = cell.generators()
            if g is None:
                continue
            gens.extend(list(g[0]) + list(g[1]) + list(g[2]))
        G = np.array([v for v in gens if np.linalg.norm(v) > TOL])
        if G.size == 0:
            return CqResult("NONDEG", True, notes=N.notes)
        _, sv, vh = np.linalg.svd(G)
        r = int(np.sum(sv > 1e-10 * sv[0]))
        B = vh[:r].T                     # (m, r) basis of span N
        M = J.T @ B                      # (n, r)
        _, sv2, vh2 = np.linalg.svd(M) if min(M.shape) else (None, np.zeros(0), np.eye(r))
        rank2 = int(np.sum(sv2 > 1e-10 * max(1.0, sv2[0] if sv2.size else 1.0)))
        if rank2 == r:
            return CqResult("NONDEG", True, notes=N.notes)
        z = vh2[rank2]
        return CqResult("NONDEG", False, witness=B @ z, notes=N.notes)

    if kind_u == "DIRRCQ":
        N = directional_normal(p.K, y, u, "clarke")
    else:
        N = directional_normal(p.K, y, u, "limiting")
    if kind_u == "SOSCMS":
        if p.K.as_region() is None:
            raise ModelError("SOSCMS requires a polyhedral-union K")
        # keep only multipliers with nonnegative constraint curvature along d
        N = N.intersect(Region.halfspace(-qg(d), 0.0))
        notes = ("curvature halfspace d' D2(lam g) d >= 0 added",)
    kercell = PolyCell(eq_mat=J.T, eq_rhs=np.zeros(p.n), dim=p.m)
    meet = Region([c.intersect(kercell) for c in N.cells], cone=True, dim=p.m)
    wit = _nontrivial_point(meet)
    return CqResult(kind_u, wit is None, witness=wit, notes=notes + N.notes)


def certify_mscq(p: ProblemInstance, x, d) -> tuple[bool, str, tuple]:
    """Metric subregularity of the constraint map at (x, d), by cascade:
    affine g into a polyhedral-union K holds automatically; otherwise
    FOSCMS, then SOSCMS, then a sampling probe that is flagged as evidence
    rather than proof.  Computed fresh on each call; callers that need the
    result more than once keep it."""
    x = np.asarray(x, dtype=float).ravel()
    d = np.asarray(d, dtype=float).ravel()
    gj = p.g_jet(x)
    affine = all(np.max(np.abs(H)) <= TOL for H in gj.hessians)
    if affine and p.K.as_region() is not None:
        return True, "polyhedral", ()
    res = constraint_qualification_check(p, x, d, "FOSCMS")
    if res.holds:
        return True, "FOSCMS", res.notes
    if p.K.as_region() is not None:
        res2 = constraint_qualification_check(p, x, d, "SOSCMS")
        if res2.holds:
            return True, "SOSCMS", res2.notes
    est = oracles.mscq_modulus_estimate(p, x, d, rho=p.options.rho,
                                        delta=min(p.options.delta, 0.1),
                                        count=600, seed=p.options.seed)
    if not est.diverged:
        return True, "sampled (not a proof)", \
            (f"subregularity modulus estimated at {est.kappa_hat:.3g} by sampling",)
    return False, "none", ("sampled modulus diverged",)


# ---------------------------------------------------------------------------
# reference-set geometry helpers
# ---------------------------------------------------------------------------


def _extreme_points(s: BaseSet) -> list[np.ndarray] | None:
    """Vertices of a bounded polyhedral leaf or finite set; None otherwise."""
    if isinstance(s, (PointSet, FiniteSet)):
        return [np.asarray(pt, dtype=float) for pt in
                (s.points if isinstance(s, FiniteSet) else [s.x])]
    if isinstance(s, (Interval, Box, Halfspace, Polyhedron)):
        cell = s.as_region().cells[0]
        g = cell.generators()
        if g is None:
            return []
        verts, rays, lines = g
        if len(rays) or len(lines):
            return None
        return list(verts)
    return None


def _pair_max_dist(a: BaseSet, b: BaseSet) -> float:
    if isinstance(a, Ball) and isinstance(b, Ball):
        return float(np.linalg.norm(a.center - b.center)) + a.radius + b.radius
    if isinstance(a, Ball):
        pts = _extreme_points(b)
        if pts is None:
            return math.inf
        return max((float(np.linalg.norm(v - a.center)) + a.radius for v in pts),
                   default=0.0)
    if isinstance(b, Ball):
        return _pair_max_dist(b, a)
    pa, pb = _extreme_points(a), _extreme_points(b)
    if pa is None or pb is None:
        return math.inf
    return max((float(np.linalg.norm(v - w)) for v in pa for w in pb), default=0.0)


def set_diameter(s: BaseSet) -> float:
    """Exact diameter of a catalog set (inf when unbounded)."""
    if isinstance(s, ProductSet):
        parts = [set_diameter(f) for f in s.factors]
        if any(math.isinf(v) for v in parts):
            return math.inf
        return math.sqrt(sum(v * v for v in parts))
    members = [s] if not isinstance(s, UnionSet) else None
    if members is None:
        from .sets import flatten_union
        members = flatten_union(s)
    best = 0.0
    for i, a in enumerate(members):
        for b in members[i:]:
            best = max(best, _pair_max_dist(a, b))
            if math.isinf(best):
                return best
    return best


def _rng(p: ProblemInstance, tag: int) -> np.random.Generator:
    return np.random.default_rng([p.options.seed & 0x7FFFFFFF, tag])


def _is_boundary_point(s: BaseSet, x: np.ndarray, h: float = 1e-6) -> bool:
    for i in range(s.dim):
        e = np.eye(s.dim)[i]
        if not (s.contains(x + h * e, tol=1e-12) and s.contains(x - h * e, tol=1e-12)):
            return True
    return False


def _boundary_mesh(p: ProblemInstance, radius: float, count: int = 1000):
    """Boundary points of S within radius of xbar (always includes xbar
    itself when it is one).  A point S yields one copy of xbar per sample;
    callers that need distinct points deduplicate them.  The boundary test
    runs once per distinct point."""
    on_boundary: dict[bytes, bool] = {}

    def boundary(x):
        key = x.tobytes()
        if key not in on_boundary:
            on_boundary[key] = _is_boundary_point(p.S, x)
        return on_boundary[key]

    out = [x for x in p.S.sample_near(p.xbar, radius, _rng(p, 11), count)
           if boundary(x)]
    if boundary(p.xbar):
        out.append(p.xbar)
    return out


# ---------------------------------------------------------------------------
# level-set tangent objects on the K side
# ---------------------------------------------------------------------------


def _point_object_K(p, kind: str, y: np.ndarray, u: np.ndarray | None) -> Region:
    if kind == "tangent":
        return tangent_cone(p.K, y)
    if kind == "outer2":
        return second_tangent(p.K, y, u, "outer")
    if kind == "asymp2":
        return second_tangent(p.K, y, u, "asymptotic")
    raise ModelError(f"unknown tangent kind {kind!r}")


def _level_tangent_K(p: ProblemInstance, kind: str, u: np.ndarray | None) -> Region:
    """Tangent object of K whose base point runs through the image of the
    reference set.  Exact for a singleton S; a union over sampled base
    points (an upper approximation) otherwise."""
    ybar = p.g_value(p.xbar)
    diam = set_diameter(p.S)
    heur = "level-set object: sound for necessary use, heuristic for sufficient use"
    if diam <= 1e-12:
        return _point_object_K(p, kind, ybar, u).with_notes(
            "reference set is a singleton; level object equals the point object")
    if not math.isfinite(diam):
        return Region.all_space(p.m).with_notes(
            heur, "unbounded reference set; level object relaxed to all of R^m")
    rng = _rng(p, 9)
    bases: list[np.ndarray] = []
    for r in (0.1 * p.options.delta, 0.01 * p.options.delta):
        for s in p.S.sample_near(p.xbar, r, rng, 12):
            y = p.g_value(s)
            if all(np.linalg.norm(y - b) > 1e-9 for b in bases):
                bases.append(y)
    out = _point_object_K(p, kind, ybar, u)
    used = 0
    for y in bases[:24]:
        if np.linalg.norm(y - ybar) <= 1e-12:
            continue
        piece = _point_object_K(p, kind, y, u)
        if not piece.is_empty():
            out = out.union(Region(piece.cells, cone=piece.cone, dim=p.m))
            used += 1
    return out.with_notes(heur, f"level object sampled at {used} extra base points")


def linearized_phi_tangents(p: ProblemInstance, x=None, d=None,
                            kind: str = "tangent", level: str = "point") -> Region:
    """Tangent objects of the feasible set pulled back through the
    constraint linearization.

    kind: ``tangent`` {w : Dg w in T_K}, ``outer2`` {w : Dg w + D2g(d,d) in
    T2_K}, ``asymp2`` the two-rate cone preimage.  Point mode is exact when
    a constraint qualification certifies metric subregularity and is
    flagged inclusion-only otherwise; level mode moves the base point
    through g(S) and is always an upper bound.
    """
    if kind not in ("tangent", "outer2", "asymp2"):
        raise ModelError(f"unknown tangent kind {kind!r}")
    x = p.xbar if x is None else np.asarray(x, dtype=float).ravel()
    if kind != "tangent" and d is None:
        raise ModelError("a direction is required for second-order objects")
    d = None if d is None else np.asarray(d, dtype=float).ravel()

    if level == "point":
        reg = _point_phi_tangents(p, x, d, kind)
        ok, method, notes = certify_mscq(p, x, d if d is not None else np.zeros(p.n))
        if ok:
            return reg.with_notes(f"exact under {method}", *notes)
        return reg.with_notes(INCLUSION_ONLY, *notes)
    if level != "level_set":
        raise ModelError(f"unknown level mode {level!r}")
    _, J, _, qg = _jet_data(p, x)
    u = None if d is None else J @ d
    shift = qg(d) if kind == "outer2" else np.zeros(p.m)
    return _level_tangent_K(p, kind, u).affine_preimage(J, shift)


def _point_phi_tangents(p: ProblemInstance, x: np.ndarray, d: np.ndarray | None,
                        kind: str) -> Region:
    """Point-mode preimage of the K-side object of ``kind`` at g(x) under the
    constraint linearization at x, without constraint-qualification notes;
    whether it is exact is the caller's MSCQ result to report."""
    _, J, _, qg = _jet_data(p, x)
    u = None if d is None else J @ d
    shift = qg(d) if kind == "outer2" else np.zeros(p.m)
    return _point_object_K(p, kind, p.g_value(x), u).affine_preimage(J, shift)


# ---------------------------------------------------------------------------
# support values along affine multiplier sets
# ---------------------------------------------------------------------------


def _line_constancy(region: Region, c0: np.ndarray, c1: np.ndarray):
    """Behavior of sup_w (c0 + t c1) . w over the region as t runs over R.

    Returns "constant" when the support value does not depend on t, or
    ("unbounded", t_sign) when it tends to +infinity.  These are the only
    possibilities for a convex piecewise-linear map that is finite at some
    t, which is exactly what makes a probe along each nullspace direction
    an exhaustive scan of the multiplier affine set."""
    slope_hi, slope_lo = -math.inf, math.inf
    for cell in region.nonempty_cells():
        g = cell.generators()
        if g is None:
            continue
        verts, rays, lines = g
        for r in list(rays) + list(lines) + [-l for l in lines]:
            cr1, cr0 = float(c1 @ r), float(c0 @ r)
            if cr1 > TOL:
                return ("unbounded", +1)
            if cr1 < -TOL:
                return ("unbounded", -1)
            if cr0 > TOL:
                return ("unbounded", 0)   # support is +inf for every t
        for v in verts:
            s = float(c1 @ v)
            slope_hi = max(slope_hi, s)
            slope_lo = min(slope_lo, s)
    if slope_hi > TOL:
        return ("unbounded", +1)
    if slope_lo < -TOL:
        return ("unbounded", -1)
    return ("constant", 0)


def _min_value_over_affine(region: Region, aff: MultiplierAffineSet,
                           Jt: np.ndarray, qf: float):
    """Exact infimum of lam -> qf - sup_{w in region} (Jt lam) . w over the
    affine multiplier set, with a finite witness when the infimum is -inf.

    The map is concave; if it is constant along every nullspace direction
    it is constant on the whole set, otherwise it diverges along one of
    them, so checking each basis direction is exhaustive."""
    lam0 = aff.lam0
    c0 = Jt @ lam0 if Jt.size else np.zeros(region.dim)
    sup0 = region.support(c0)
    if sup0.is_plus_inf:
        return ExtReal.minus_inf(), lam0, ("support is +inf at the base multiplier",)
    base = ExtReal.of(qf - float(sup0))
    for nvec in aff.basis:
        c1 = Jt @ nvec
        verdictt, side = _line_constancy(region, c0, c1)
        if verdictt == "unbounded":
            # walk out until the value visibly drops, for a concrete witness
            for t in (1.0, 1e1, 1e2, 1e3, 1e6):
                lam = lam0 + (side if side != 0 else 1) * t * nvec
                s = region.support(Jt @ lam)
                val = ExtReal.minus_inf() if s.is_plus_inf else ExtReal.of(qf - float(s))
                if val.is_minus_inf or (base.is_finite and float(val) < float(base) - 1e-6):
                    return ExtReal.minus_inf(), lam, \
                        ("value is unbounded below along the multiplier set",)
            return ExtReal.minus_inf(), lam0 + nvec, \
                ("value is unbounded below along the multiplier set",)
    return base, lam0, ()


# ---------------------------------------------------------------------------
# implicit necessary condition
# ---------------------------------------------------------------------------


@_lp.reuse_scope()
def necessary_implicit_check(p: ProblemInstance, x=None, d=None,
                             eps: float | None = None,
                             mode: str = "proximal") -> CertificationReport:
    """Necessary conditions phrased on the feasible set itself.

    For every stationary multiplier lam: (i) the support of the image of
    the asymptotic second-order cone must be nonpositive at lam, and (ii)
    the Lagrangian curvature minus the support over the image of the outer
    second-order set bounds 2 kappa (1-2 eps)^2 |d|^2 from above (proximal
    mode) or 2 kappa dist(d, T_S(x))^2 (tangent_distance mode).  Both parts
    are evaluated exactly; the report carries the largest admissible kappa.

    The check runs inside an ``lp.reuse_scope``: a sweep that calls it
    in its own scope builds the jets, critical cone, multiplier set and
    T_S at each base point once, and solves each distinct LP once.
    """
    if mode not in ("proximal", "tangent_distance"):
        raise ModelError(f"unknown implicit mode {mode!r}")
    x = p.xbar if x is None else np.asarray(x, dtype=float).ravel()
    if d is None:
        raise ModelError("a direction is required")
    d = np.asarray(d, dtype=float).ravel()
    eps = p.options.epsilon if eps is None else float(eps)
    diags: list[str] = []

    pre = _implicit_hypotheses(p, x, d, eps, mode)
    if pre is not None:
        return pre

    exact, method, notes = certify_mscq(p, x, d)
    cq = {"mscq": method if exact else "unverified"}
    Tpp = _point_phi_tangents(p, x, d, "asymp2")
    T2 = _point_phi_tangents(p, x, d, "outer2")
    diags.extend(notes + Tpp.notes + T2.notes)
    if not exact:
        diags.append(INCLUSION_ONLY)

    aff = multiplier_affine_set(p, x)
    grad, J, qfn, _ = _jet_data(p, x)
    if aff.empty:
        return _report("satisfied", {"max_admissible": math.inf},
                       cq=cq, diags=diags + [
                           "no multiplier satisfies the stationarity equation; "
                           "both conditions hold vacuously"])

    # part (i): sigma over Dg(T'') <= 0 for every lam, i.e. the affine set
    # sits inside the preimage of the polar cone under Dg^T
    polar = polar_cone(Tpp)
    pre_polar = polar.affine_preimage(J.T, np.zeros(p.n))
    included, bad = region_subset(aff.as_region(), pre_polar)
    wits = []
    sigma0 = Tpp.support(J.T @ aff.lam0)
    wits.append(_wit(part="i", x=x, d=d, lam=aff.lam0, sigma_theta=float(sigma0)))
    if not included:
        sval = Tpp.support(J.T @ bad)
        wits.append(_wit(part="i", x=x, d=d, lam=bad, sigma_theta=float(sval)))
        verdict = "violated" if exact else "inconclusive"
        if not exact:
            diags.append("rejection withheld: tangent preimages are one-sided "
                         "without a constraint qualification")
        return _report(verdict, {"max_admissible": -math.inf}, wits, cq, diags)

    # part (ii): the Lagrangian-vs-support value; the multiplier dependence
    # of D2g(d,d) cancels against the shift of the outer set, leaving
    # qf - sigma_{T2}(Dg^T lam)
    qf = qfn(d)
    inf_val, lam_star, notes2 = _min_value_over_affine(T2, aff, J.T, qf)
    diags.extend(notes2)

    denom, dnote = _implicit_denominator(p, x, d, eps, mode)
    if dnote:
        diags.append(dnote)
    if inf_val.is_minus_inf:
        kmax = -math.inf
    elif denom <= TOL:
        kmax = math.inf if float(inf_val) >= -TOL else -math.inf
    else:
        kmax = float(inf_val) / denom
    wits.append(_wit(part="ii", x=x, d=d, lam=lam_star, achieved=float(inf_val)))

    if kmax < KAPPA_FLOOR:
        verdict = "violated" if exact else "inconclusive"
        if not exact:
            diags.append("rejection withheld: tangent preimages are one-sided "
                         "without a constraint qualification")
        return _report(verdict, {"max_admissible": kmax}, wits, cq, diags)
    return _report("satisfied", {"max_admissible": kmax}, wits, cq, diags)


def _implicit_hypotheses(p: ProblemInstance, x, d, eps, mode):
    """None when all preconditions hold, else a hypotheses-not-met report."""
    if np.linalg.norm(d) <= TOL:
        return _report("hypotheses-not-met", diags=["zero direction"])
    if not p.S.contains(x, tol=1e-7):
        return _report("hypotheses-not-met",
                       diags=["base point does not belong to the reference set"])
    if np.linalg.norm(x - p.xbar) > p.options.delta + 1e-9:
        return _report("hypotheses-not-met",
                       diags=["base point lies outside the delta ball"])
    if not critical_cone(p, x).contains(d, tol=1e-7):
        return _report("hypotheses-not-met",
                       diags=["direction is not in the critical cone"])
    if mode == "proximal" and not eps_proximal_membership(p.S, x, d, eps):
        return _report("hypotheses-not-met",
                       diags=["direction is not an eps-proximal normal "
                              "to the reference set"])
    return None


@_per_point
def _reference_tangent(p: ProblemInstance, x) -> Region:
    """T_S(x), the tangent cone of the reference set."""
    return tangent_cone(p.S, x)


def _implicit_denominator(p: ProblemInstance, x, d, eps, mode):
    if mode == "proximal":
        return 2.0 * (1.0 - 2.0 * eps) ** 2 * float(d @ d), ""
    dist, _ = _reference_tangent(p, x).distance(d)
    dv = float(dist) if dist.is_finite else math.inf
    return 2.0 * dv * dv, f"dist(d, T_S(x)) = {dv:.12g}"


# ---------------------------------------------------------------------------
# explicit necessary condition
# ---------------------------------------------------------------------------


def _sigma_hat(region: Region, lam: np.ndarray):
    return lower_gen_support_detail(region, lam)


@_lp.reuse_scope()
def necessary_explicit_check(p: ProblemInstance, x=None, d=None,
                             eps: float | None = None) -> CertificationReport:
    """Necessary conditions phrased on K through the lower generalized
    support function.

    (i) some directional multiplier lam has sigma-hat over the asymptotic
    second-order cone of K nonpositive; (ii) some directional multiplier
    makes the Lagrangian curvature minus sigma-hat over the outer
    second-order set at least 2 kappa (1-2 eps)^2 |d|^2.  The multiplier
    search enumerates one LP per (multiplier cell, face, vertex) triple,
    which is exhaustive on polyhedral data; winners are replayed through a
    direct sigma-hat evaluation.  Objects are reused as in
    ``necessary_implicit_check``.
    """
    x = p.xbar if x is None else np.asarray(x, dtype=float).ravel()
    if d is None:
        raise ModelError("a direction is required")
    d = np.asarray(d, dtype=float).ravel()
    eps = p.options.epsilon if eps is None else float(eps)
    diags = ["explicit form is weaker than the implicit form: a satisfied "
             "verdict here does not preclude an implicit rejection"]

    pre = _implicit_hypotheses(p, x, d, eps, "proximal")
    if pre is not None:
        return pre
    ok, method, notes = certify_mscq(p, x, d)
    if not ok:
        return _report("hypotheses-not-met", cq={"mscq": "unverified"},
                       diags=diags + list(notes) +
                       ["metric subregularity could not be certified"])
    cq = {"mscq": method}
    diags.extend(notes)

    grad, J, qfn, qgn = _jet_data(p, x)
    ybar = p.g_value(x)
    u = J @ d
    Tpp = second_tangent(p.K, ybar, u, "asymptotic")
    T2 = second_tangent(p.K, ybar, u, "outer")
    diags.extend(Tpp.notes + T2.notes)
    lamreg = directional_multipliers(p, x, d, "M")
    if lamreg.is_empty():
        return _report("violated", {"max_admissible": -math.inf}, cq=cq,
                       diags=diags + ["no directional multiplier exists"])

    # part (i)
    wit_i, sig_i, notes_i = _search_sigma_hat_nonpositive(lamreg, Tpp)
    diags.extend(notes_i)
    wits = []
    if wit_i is None:
        return _report("violated", {"max_admissible": -math.inf}, wits, cq,
                       diags + ["no multiplier gives a nonpositive lower "
                                "generalized support over the asymptotic cone "
                                "(exhaustive over the face complex)"])
    wits.append(_wit(part="i", x=x, d=d, lam=wit_i, sigma_hat=sig_i))

    # part (ii)
    qf, q = qfn(d), qgn(d)
    if T2.is_empty():
        diags.append("outer second-order set is empty; condition (ii) is vacuous")
        return _report("satisfied", {"max_admissible": math.inf}, wits, cq, diags)
    best, lam2, notes2 = _max_explicit_value(lamreg, T2, qf, q)
    diags.extend(notes2)
    if any("boundary-inconclusive" in n for n in notes2):
        return _report("inconclusive", {"max_admissible": math.nan}, wits, cq, diags)
    denom = 2.0 * (1.0 - 2.0 * eps) ** 2 * float(d @ d)
    kmax = math.inf if best.is_plus_inf else float(best) / denom
    if lam2 is not None:
        # record a directly replayable value for the witness multiplier
        sh2, _ = _sigma_hat(T2, lam2)
        direct = (qf + float(q @ lam2) - float(sh2)) if sh2.is_finite else \
            (math.inf if sh2.is_minus_inf else -math.inf)
        wits.append(_wit(part="ii", x=x, d=d, lam=lam2, achieved=direct))
    if kmax < KAPPA_FLOOR:
        return _report("violated", {"max_admissible": kmax}, wits, cq, diags)
    return _report("satisfied", {"max_admissible": kmax}, wits, cq, diags)


def _search_sigma_hat_nonpositive(lamreg: Region, target: Region):
    """A multiplier with sigma-hat(target) <= 0, or None; every candidate
    is confirmed by direct evaluation."""
    if target.is_empty():
        # sigma-hat over an empty set is -inf, so any multiplier works
        for cell in lamreg.nonempty_cells():
            rp = cell.relint_point()
            if rp is not None:
                return rp[0], -math.inf, \
                    ("asymptotic cone is empty; condition (i) holds vacuously",)
        return None, None, ("multiplier region has no relative interior point",)
    notes: list[str] = []
    cands: list[np.ndarray] = []
    m = lamreg.dim
    if lamreg.contains(np.zeros(m)):
        cands.append(np.zeros(m))
    for cell in lamreg.nonempty_cells():
        rp = cell.relint_point()
        if rp is not None:
            cands.append(rp[0])
    faces = face_complex(target)
    for cell in lamreg.nonempty_cells():
        for face in faces:
            g = face.cell.generators()
            if g is None:
                continue
            for v in g[0]:
                probe = cell.intersect(face.normal_cell)
                probe = PolyCell(np.vstack([probe.A, v.reshape(1, -1)]),
                                 np.concatenate([probe.b, [0.0]]),
                                 probe.E, probe.f, dim=m)
                out = _lp.maximize(np.zeros(m), probe.A, probe.b, probe.E, probe.f)
                if out.status == "optimal":
                    cands.append(out.point)
    seen = []
    for lam in cands:
        if any(np.linalg.norm(lam - s) <= 1e-9 for s in seen):
            continue
        seen.append(lam)
        val, vnotes = _sigma_hat(target, lam)
        notes.extend(vnotes)
        if (val.is_finite and float(val) <= TOL) or val.is_minus_inf:
            return lam, (float(val) if val.is_finite else -math.inf), tuple(notes)
    return None, None, tuple(notes)


def _max_explicit_value(lamreg: Region, T2: Region, qf: float, q: np.ndarray):
    """sup over directional multipliers of qf + lam.q - sigma-hat_{T2}(lam),
    exactly, via one LP per (multiplier cell, face, vertex)."""
    notes: list[str] = []
    best = ExtReal.minus_inf()
    best_lam = None
    m = lamreg.dim
    faces = face_complex(T2)
    for cell in lamreg.nonempty_cells():
        for face in faces:
            g = face.cell.generators()
            if g is None:
                continue
            for v in g[0]:
                probe = cell.intersect(face.normal_cell)
                out = _lp.maximize(q - v, probe.A, probe.b, probe.E, probe.f)
                if out.status == "unbounded":
                    # any prescribed value is reachable along the ray; hand
                    # back a finite point on it as the replayable witness
                    lam_wit = (out.point if out.point is not None else
                               np.zeros(m)) + out.ray
                    return ExtReal.plus_inf(), lam_wit, tuple(
                        notes + ["condition (ii) value is unbounded above; "
                                 "no finite growth constant is rejected"])
                if out.status != "optimal":
                    continue
                val = ExtReal.of(qf + float(q @ out.point) -
                                 float(out.point @ v))
                if val > best:
                    best, best_lam = val, out.point
    # confirm the winner by a direct evaluation
    if best_lam is not None:
        sh, vnotes = _sigma_hat(T2, best_lam)
        notes.extend(vnotes)
        if sh.is_finite:
            direct = qf + float(q @ best_lam) - float(sh)
            if abs(direct - float(best)) > REPLAY_TOL * (1.0 + abs(direct)):
                # another face lowered sigma-hat; the direct value is the truth
                best = ExtReal.of(max(float(best), direct))
    else:
        # fall back to probing relative-interior points
        for cell in lamreg.nonempty_cells():
            rp = cell.relint_point()
            if rp is None:
                continue
            sh, vnotes = _sigma_hat(T2, rp[0])
            notes.extend(vnotes)
            if sh.is_finite:
                val = ExtReal.of(qf + float(q @ rp[0]) - float(sh))
                if val > best:
                    best, best_lam = val, rp[0]
    return best, best_lam, tuple(notes)


# ---------------------------------------------------------------------------
# Clarke-multiplier necessary condition
# ---------------------------------------------------------------------------


@_lp.reuse_scope()
def necessary_clarke_check(p: ProblemInstance, x=None, d=None,
                           eps: float | None = None,
                           mode: str = "elementwise") -> CertificationReport:
    """Necessary conditions over the Clarke multiplier set, under the
    directional Robinson qualification.

    elementwise: for every generator v of the asymptotic cone some
    multiplier has lam.v <= 0 (checked by a dual LP over the multiplier
    region and replayed through the primal conic program; the two values
    must agree); for every cell of the outer set, a vertex LP with the
    cell's recession rays constrains kappa.  nondegenerate: the
    unique multiplier is evaluated directly.  Objects are reused as in
    ``necessary_implicit_check``.
    """
    if mode not in ("elementwise", "nondegenerate"):
        raise ModelError(f"unknown clarke mode {mode!r}")
    x = p.xbar if x is None else np.asarray(x, dtype=float).ravel()
    if d is None:
        raise ModelError("a direction is required")
    d = np.asarray(d, dtype=float).ravel()
    eps = p.options.epsilon if eps is None else float(eps)
    diags: list[str] = []

    pre = _implicit_hypotheses(p, x, d, eps, "proximal")
    if pre is not None:
        return pre
    rcq = constraint_qualification_check(p, x, d, "DirRCQ")
    if not rcq.holds:
        return _report("hypotheses-not-met", cq={"dirrcq": "fails"},
                       diags=diags + ["directional Robinson qualification fails; "
                                      "the multiplier set may be unbounded"])
    cq = {"dirrcq": "holds"}
    if mode == "nondegenerate":
        nd = constraint_qualification_check(p, x, d, "NONDEG")
        if not nd.holds:
            return _report("hypotheses-not-met", cq={**cq, "nondeg": "fails"},
                           diags=diags + ["directional nondegeneracy fails"])
        cq["nondeg"] = "holds"

    grad, J, qfn, qgn = _jet_data(p, x)
    ybar = p.g_value(x)
    u = J @ d
    Tpp = second_tangent(p.K, ybar, u, "asymptotic")
    T2 = second_tangent(p.K, ybar, u, "outer")
    diags.extend(Tpp.notes + T2.notes)
    lamreg = directional_multipliers(p, x, d, "C")
    if lamreg.is_empty():
        return _report("violated", {"max_admissible": -math.inf}, cq=cq,
                       diags=diags + ["no Clarke multiplier exists"])
    try:
        that = directional_clarke_tangent(p.K, ybar, u)
    except TangentError as exc:
        return _report("hypotheses-not-met", cq=cq, diags=diags + [str(exc)])
    qf, q = qfn(d), qgn(d)
    denom = 2.0 * (1.0 - 2.0 * eps) ** 2 * float(d @ d)

    if mode == "nondegenerate":
        return _clarke_nondegenerate(x, d, lamreg, Tpp, T2, qf, q, denom, cq,
                                     diags)
    return _clarke_elementwise(p, x, d, grad, J, that, lamreg, Tpp, T2, qf, q,
                               denom, cq, diags)


def _dual_lp_max(lamreg: Region, c: np.ndarray):
    """max of c.lam over the multiplier region; (-inf, None) when empty."""
    best, arg = ExtReal.minus_inf(), None
    for cell in lamreg.nonempty_cells():
        out = _lp.maximize(c, cell.A, cell.b, cell.E, cell.f)
        if out.status == "unbounded":
            return ExtReal.plus_inf(), out.ray
        if out.status == "optimal" and ExtReal.of(out.value) > best:
            best, arg = ExtReal.of(out.value), out.point
    return best, arg


def _conic_primal(grad, J, v, tangent_cell: PolyCell):
    """min grad.w subject to J w in v + tangent cone; ExtReal value."""
    A = tangent_cell.A @ J if tangent_cell.A.size else np.zeros((0, J.shape[1]))
    b = tangent_cell.b + (tangent_cell.A @ v if tangent_cell.A.size else np.zeros(0))
    E = tangent_cell.E @ J if tangent_cell.E.size else np.zeros((0, J.shape[1]))
    f = tangent_cell.f + (tangent_cell.E @ v if tangent_cell.E.size else np.zeros(0))
    out = _lp.maximize(-grad, A, b, E, f)
    if out.status == "infeasible":
        return ExtReal.plus_inf()
    if out.status == "unbounded":
        return ExtReal.minus_inf()
    return ExtReal.of(-out.value)


def _generators_of(region: Region, want_vertices=True, want_rays=True):
    verts, rays = [], []
    for cell in region.nonempty_cells():
        g = cell.generators()
        if g is None:
            continue
        v0, r0, l0 = g
        if want_vertices:
            verts.extend(list(v0))
        if want_rays:
            rays.extend(list(r0) + list(l0) + [-l for l in l0])
    def dedupe(arr):
        out = []
        for a in arr:
            if not any(np.linalg.norm(a - b) <= 1e-9 for b in out):
                out.append(a)
        return out
    return dedupe(verts), dedupe(rays)


def _clarke_elementwise(p, x, d, grad, J, that, lamreg, Tpp, T2, qf, q, denom,
                        cq, diags):
    wits = []
    tangent_cell = that.nonempty_cells()[0] if that.nonempty_cells() else \
        PolyCell.empty_marker(p.m)
    # part (i): the asymptotic cone is a cone, so vertices and rays are
    # themselves members
    verts, rays = _generators_of(Tpp)
    gap_flagged = False
    for v in verts + rays:
        if np.linalg.norm(v) <= TOL:
            continue
        dual, lam_v = _dual_lp_max(lamreg, -v)
        primal = _conic_primal(grad, J, v, tangent_cell)
        if dual.is_plus_inf and primal.is_plus_inf:
            return _report("inconclusive", {}, wits, cq, diags + [
                "unbounded dual with infeasible primal: modeling error"])
        if dual.is_finite and primal.is_finite and \
                abs(float(dual) - float(primal)) > DUALITY_TOL * (1 + abs(float(dual))):
            gap_flagged = True
            diags.append(f"duality gap {float(primal) - float(dual):.3g} "
                         f"at generator {np.round(v, 6).tolist()}")
        passed = dual.is_plus_inf or (dual.is_finite and float(dual) >= -TOL)
        if not passed:
            wits.append(_wit(part="i", x=x, d=d, w=v, lam=lam_v,
                             achieved=float(dual)))
            return _report("violated", {"max_admissible": -math.inf}, wits, cq,
                           diags + ["a generator of the asymptotic cone "
                                    "separates every Clarke multiplier"])
        wits.append(_wit(part="i", x=x, d=d, w=v, lam=lam_v,
                         achieved=(float(dual) if dual.is_finite else math.inf)))
    if gap_flagged:
        return _report("inconclusive", {}, wits, cq, diags)

    # part (ii): per cell, a vertex LP with ray constraints covers every
    # member of the cell at once
    kmax = math.inf
    for cell in T2.nonempty_cells():
        g = cell.generators()
        if g is None:
            continue
        cverts, crays, clines = g
        ray_rows = list(crays) + list(clines) + [-l for l in clines]
        for v in cverts:
            best = ExtReal.minus_inf()
            best_lam = None
            for lcell in lamreg.nonempty_cells():
                probe = lcell
                for r in ray_rows:
                    probe = PolyCell(np.vstack([probe.A, r.reshape(1, -1)]),
                                     np.concatenate([probe.b, [0.0]]),
                                     probe.E, probe.f, dim=lamreg.dim)
                out = _lp.maximize(q - v, probe.A, probe.b, probe.E, probe.f)
                if out.status == "unbounded":
                    best = ExtReal.plus_inf()
                    break
                if out.status == "optimal" and ExtReal.of(out.value) > best:
                    best, best_lam = ExtReal.of(out.value), out.point
            if best.is_minus_inf:
                wits.append(_wit(part="ii", x=x, d=d, w=v, achieved=-math.inf))
                return _report("violated", {"max_admissible": -math.inf}, wits,
                               cq, diags + ["no multiplier is admissible for a "
                                            "vertex of the outer set"])
            val = math.inf if best.is_plus_inf else qf + float(best)
            if denom > TOL:
                kmax = min(kmax, val / denom)
            elif val < -TOL:
                kmax = -math.inf
            wits.append(_wit(part="ii", x=x, d=d, w=v, lam=best_lam,
                             achieved=val))
    if not T2.nonempty_cells():
        diags.append("outer second-order set is empty; condition (ii) is vacuous")
    verdict = "violated" if kmax < KAPPA_FLOOR else "satisfied"
    return _report(verdict, {"max_admissible": kmax}, wits[:12], cq, diags)


def _clarke_nondegenerate(x, d, lamreg, Tpp, T2, qf, q, denom, cq, diags):
    pts = []
    for cell in lamreg.nonempty_cells():
        rp = cell.relint_point()
        if rp is not None and not any(np.linalg.norm(rp[0] - s) <= 1e-7 for s in pts):
            pts.append(rp[0])
    if len(pts) != 1:
        return _report("inconclusive", {}, cq=cq,
                       diags=diags + ["multiplier is not numerically unique "
                                      "despite nondegeneracy"])
    lam0 = pts[0]
    sig = Tpp.support(lam0)
    if not (sig.is_finite and abs(float(sig)) <= STRICT_TOL):
        return _report("violated", {"max_admissible": -math.inf},
                       [_wit(part="i", x=x, d=d, lam=lam0,
                             achieved=(float(sig) if sig.is_finite else math.inf))],
                       cq, diags + ["support over the asymptotic cone is not "
                                    "zero at the unique multiplier"])
    wits = [_wit(part="i", x=x, d=d, lam=lam0, achieved=float(sig))]
    sig2 = T2.support(lam0)
    if T2.is_empty():
        diags.append("outer second-order set is empty; condition (ii) is vacuous")
        return _report("satisfied", {"max_admissible": math.inf}, wits, cq, diags)
    if sig2.is_plus_inf:
        kmax = -math.inf
        val = -math.inf
    else:
        val = qf + float(q @ lam0) - float(sig2)
        kmax = val / denom if denom > TOL else \
            (math.inf if val >= -TOL else -math.inf)
    wits.append(_wit(part="ii", x=x, d=d, lam=lam0, achieved=val))
    verdict = "violated" if kmax < KAPPA_FLOOR else "satisfied"
    return _report(verdict, {"max_admissible": kmax}, wits, cq, diags)


# ---------------------------------------------------------------------------
# direction meshes
# ---------------------------------------------------------------------------


def _unit_mesh(dim: int, seed: int) -> np.ndarray:
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if dim == 3:
        # Fibonacci sphere
        k = np.arange(2000) + 0.5
        phi = np.arccos(1.0 - 2.0 * k / 2000)
        theta = np.pi * (1.0 + math.sqrt(5.0)) * k
        return np.column_stack([np.cos(theta) * np.sin(phi),
                                np.sin(theta) * np.sin(phi), np.cos(phi)])
    rng = np.random.default_rng([seed & 0x7FFFFFFF, 77])
    raw = rng.normal(size=(10000, dim))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# sufficient conditions
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
    for cell in Tpp_n.nonempty_cells():
        g = cell.generators()
        if g is None:
            continue
        verts, rays, lines = g
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
    for cell in T2_n.nonempty_cells():
        g = cell.generators()
        if g is None:
            continue
        verts, rays, lines = g
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


def _solve_multiplier_lp(aff: MultiplierAffineSet, blocks):
    """Maximize the common margin s over the affine multiplier set subject
    to the stacked per-direction blocks."""
    m = aff.basis.shape[1]
    rows, rhs, margins, eqs = ([item for part in parts for item in part]
                               for parts in zip(*blocks))
    out = _lp.max_margin(np.reshape(rows, (-1, m)), rhs, margins,
                         [*eqs, *aff.jacobian_t],
                         np.concatenate([np.zeros(len(eqs)), -aff.grad_f]))
    if out is None:
        return None, None
    margin, lam = out
    return lam, margin


def _growth_gate(p: ProblemInstance, kappa: float, diags: list[str],
                 delta: float | None = None) -> bool:
    """Replay a certificate through the sampling growth oracle; a sampled
    constant visibly below the certified one refutes the certificate.
    Asymptotic certificates (valid for small enough delta) pass a shrunken
    radius so the finite-radius correction does not mask them."""
    delta = p.options.delta if delta is None else delta
    est = oracles.growth_constant_estimate(p, delta, 4000, p.options.seed)
    diags.append(f"growth oracle replay: kappa_hat = {est.kappa_hat:.6g} "
                 f"on {est.sample_count} samples at radius {delta:g}")
    return not (math.isfinite(est.kappa_hat) and est.kappa_hat < kappa - 0.05)


def sufficient_point_check(p: ProblemInstance,
                           kappa: float | None = None) -> CertificationReport:
    """Certify a growth constant from per-direction multiplier conditions.

    Directions run over the unit sphere inside the level-set tangent cone
    of the feasible set intersected with the limiting normal cone of S,
    restricted to those critical against sampled boundary gradients.  Per
    direction, a multiplier must be strictly negative on the image of the
    asymptotic cone orthogonal to d and must beat the curvature threshold
    over the outer set.  The threshold is 2 kappa |d|^2, not the stated
    form kappa |d|^2: the factor two is what the limiting argument in the
    growth proof divides out to.  The supports are evaluated on the
    preimages of the level objects.  Certificates are replayed through the
    growth oracle before issue.
    """
    kappa = p.options.kappa if kappa is None else float(kappa)
    if kappa is None or kappa <= 0.0:
        raise ModelError("a positive kappa is required")
    diags: list[str] = []
    x = p.xbar

    fx = p.f(x)
    for s in p.S.sample_near(x, p.options.delta, _rng(p, 13), 200):
        if abs(p.f(s) - fx) > 1e-7:
            return _report("hypotheses-not-met",
                           diags=["objective is not constant on the reference set"])

    NS = normal_cone(p.S, x, "limiting")
    Tlev = linearized_phi_tangents(p, x, None, "tangent", "level_set")
    diags.extend(Tlev.notes)
    mesh = _unit_mesh(p.n, p.options.seed)
    dirs = mesh[NS.contains_rows(mesh, 1e-7) & Tlev.contains_rows(mesh, 1e-7)]
    # one jet per distinct boundary point, one product over distinct gradients
    bd = {tuple(xb) for xb in _boundary_mesh(p, 0.1 * p.options.delta)}
    G = np.array(list({tuple(p.f_jet(xb).gradient) for xb in bd}))
    critical = dirs[np.all(np.abs(dirs @ G.reshape(-1, p.n).T) <= 1e-7, axis=1)]
    diags.append(f"direction mesh: {len(dirs)} admissible, "
                 f"{len(critical)} critical")
    aff = multiplier_affine_set(p, x)
    if aff.empty:
        return _report("hypotheses-not-met", diags=diags + [
            "stationarity equation has no solution"])

    _, J, qfn, _ = _jet_data(p, x)
    wits = []
    worst = math.inf
    for dd in critical:
        Tpp = linearized_phi_tangents(p, x, dd, "asymp2",
                                      "level_set").intersect_orthocomplement(dd)
        T2 = linearized_phi_tangents(p, x, dd, "outer2",
                                     "level_set").intersect_orthocomplement(dd)
        if T2.is_empty() and region_subset(Tpp, Region.origin(p.n))[0]:
            return _report("inconclusive", diags=diags + [
                "both second-order objects are degenerate at "
                f"d = {np.round(dd, 6).tolist()}"])
        thresh = 2.0 * kappa * float(dd @ dd)
        block = _strict_rows_for_direction(Tpp, T2, J, thresh, qfn(dd))
        if block is None:
            return _report("hypotheses-not-met", diags=diags + [
                "a line of the asymptotic cone has a nonzero image at "
                f"d = {np.round(dd, 6).tolist()}; no strict multiplier exists"])
        lam, margin = _solve_multiplier_lp(aff, [block])
        if lam is None or margin <= STRICT_TOL:
            got = "infeasible" if lam is None else f"margin {margin:.3g}"
            return _report("hypotheses-not-met", diags=diags + [
                f"multiplier search failed at d = {np.round(dd, 6).tolist()} "
                f"({got})"])
        worst = min(worst, margin)
        if len(wits) < 6:
            wits.append(_wit(x=x, d=dd, lam=lam, achieved=margin))
    if len(critical) == 0:
        diags.append("no admissible critical directions; growth holds vacuously "
                     "near the reference set")
    if not _growth_gate(p, kappa, diags):
        return _report("violated", {"certified": None}, wits, {}, diags + [
            "growth oracle found samples below the requested constant; "
            "certificate withdrawn"])
    return _report("certified", {"certified": kappa, "margin": worst},
                   wits, {}, diags)


def sufficient_isolated_check(p: ProblemInstance) -> CertificationReport:
    """Certify that xbar is an isolated second-order sharp minimizer.

    Requires xbar isolated in S and no linearized descent direction; then
    one multiplier, fixed before the direction, must pass the strict
    negativity and positivity conditions for every mesh direction of the
    critical cone simultaneously.  The common search is a single LP because
    both conditions are linear in the multiplier once the per-direction
    generators are enumerated.
    """
    x = p.xbar
    diags: list[str] = []
    for s in p.S.sample_near(x, 1e-3, _rng(p, 15), 60):
        if np.linalg.norm(s - x) > 1e-9:
            return _report("hypotheses-not-met",
                           diags=["xbar is not isolated in the reference set"])
    grad, J, qfn, _ = _jet_data(p, x)
    tphi = linearized_phi_tangents(p, x, None, "tangent")
    sig = tphi.support(-grad)
    if not (sig.is_finite and float(sig) <= STRICT_TOL) and not sig.is_minus_inf:
        return _report("hypotheses-not-met", diags=diags + [
            "a linearized feasible direction strictly decreases the objective"])

    cc = critical_cone(p, x)
    mesh = _unit_mesh(p.n, p.options.seed)
    dirs = mesh[cc.contains_rows(mesh, 1e-7)]
    diags.append(f"critical mesh directions: {len(dirs)}")
    aff = multiplier_affine_set(p, x)
    if aff.empty:
        return _report("hypotheses-not-met",
                       diags=diags + ["stationarity equation has no solution"])
    blocks = []
    per_dir = []
    for dd in dirs:
        Tpp = _point_phi_tangents(p, x, dd, "asymp2").intersect_orthocomplement(dd)
        T2 = _point_phi_tangents(p, x, dd, "outer2").intersect_orthocomplement(dd)
        block = _strict_rows_for_direction(Tpp, T2, J, 0.0, qfn(dd))
        if block is None:
            return _report("hypotheses-not-met", diags=diags + [
                "a line of the asymptotic cone has a nonzero image at "
                f"d = {np.round(dd, 6).tolist()}"])
        blocks.append(block)
        per_dir.append((dd, T2))
    if len(dirs) == 0:
        diags.append("critical cone meets the unit sphere nowhere; "
                     "minimality holds vacuously")
        lam0 = aff.lam0
        return _report("certified", {"certified": math.inf}, [_wit(lam=lam0)],
                       {}, diags)
    lam, margin = _solve_multiplier_lp(aff, blocks)
    if lam is None or margin <= STRICT_TOL:
        got = "infeasible" if lam is None else f"margin {margin:.3g}"
        return _report("hypotheses-not-met", diags=diags + [
            f"no single multiplier passes every direction ({got})"])
    # the certified growth constant is the worst value over directions
    kcert = math.inf
    for dd, T2 in per_dir:
        img_sup = ExtReal.minus_inf()
        for cell in T2.nonempty_cells():
            v, _w = cell.support(J.T @ lam)
            if v > img_sup:
                img_sup = v
        if img_sup.is_minus_inf:
            continue   # empty outer set: this direction imposes no bound
        if img_sup.is_plus_inf:
            kcert = -math.inf
            break
        val = qfn(dd) - float(img_sup)
        kcert = min(kcert, val / (2.0 * float(dd @ dd)))
    if not _growth_gate(p, max(kcert, 1e-6) if math.isfinite(kcert) else 1e-6,
                        diags, delta=0.25 * p.options.delta):
        return _report("violated", {"certified": None}, [], {}, diags + [
            "growth oracle found samples below the certified constant"])
    return _report("certified", {"certified": kcert, "margin": margin},
                   [_wit(lam=lam, achieved=margin)], {}, diags)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@_lp.reuse_scope()
def sweep_necessary(p: ProblemInstance, eps: float | None = None,
                    mode: str = "implicit-proximal") -> CertificationReport:
    """Run a necessary checker over mesh points of S near xbar and all
    admissible mesh directions, and aggregate.

    Aggregation: any violation wins (with its witnesses); otherwise any
    inconclusive; otherwise satisfied with the smallest per-check kappa
    bound.  Points contributing no admissible directions are counted and
    reported, never silently dropped.

    The whole sweep runs in one ``lp.reuse_scope``, which the per-pair
    checkers join, so the jets, critical cone, multiplier set and T_S at
    each base point are built once, and each distinct LP, double description,
    face complex and lower generalized support is solved once per sweep.

    The explicit and clarke forms require d to be an eps-proximal normal
    to S at x.  The sweep screens the directions chosen at each x with one
    ``eps_proximal_filter`` call and runs the checker on those that pass
    only: on the others it would return ``hypotheses-not-met`` without
    bounds or witnesses, which the aggregation ignores.  The reported pair
    count includes the screened pairs.
    """
    kinds = ("implicit-proximal", "implicit-tangent", "explicit", "clarke")
    if mode not in kinds:
        raise ModelError(f"unknown sweep mode {mode!r}")
    eps = p.options.epsilon if eps is None else float(eps)
    xs = [p.xbar]
    for s in p.S.sample_near(p.xbar, p.options.delta, _rng(p, 17), 120):
        if all(np.linalg.norm(s - x0) > 1e-7 for x0 in xs):
            xs.append(s)
        if len(xs) >= 24:
            break
    mesh = _unit_mesh(p.n, p.options.seed)

    def run(x, dd):
        if mode == "implicit-proximal":
            return necessary_implicit_check(p, x, dd, eps, "proximal")
        if mode == "implicit-tangent":
            return necessary_implicit_check(p, x, dd, eps, "tangent_distance")
        if mode == "explicit":
            return necessary_explicit_check(p, x, dd, eps)
        return necessary_clarke_check(p, x, dd, eps)

    tasks = []
    pairs = 0
    vacuous = 0
    for x in xs:
        admissible = mesh[critical_cone(p, x).contains_rows(mesh, 1e-7)]
        if mode == "implicit-proximal":
            admissible = eps_proximal_filter(p.S, x, admissible, eps)
        if len(admissible) == 0:
            vacuous += 1
            continue
        step = max(1, len(admissible) // 48)
        chosen = admissible[::step]
        pairs += len(chosen)
        if mode in ("explicit", "clarke"):
            chosen = eps_proximal_filter(p.S, x, chosen, eps)
        tasks.extend((x, dd) for dd in chosen)
    reports = [run(x, dd) for x, dd in tasks]
    diags = [f"sweep over {len(xs)} base points, {pairs} (x, d) pairs; "
             f"{vacuous} points had no admissible direction"]
    if not pairs:
        return _report("satisfied", {"max_admissible": math.inf}, cq={},
                       diags=diags + ["conditions hold vacuously"])
    kmax = math.inf
    wits = []
    worst = None
    n_inconclusive = 0
    for rep in reports:
        if rep.verdict == "violated" and worst is None:
            worst = rep
        if rep.verdict == "inconclusive":
            n_inconclusive += 1
        b = rep.kappa_bounds.get("max_admissible")
        if isinstance(b, (int, float)) and not (isinstance(b, float) and math.isnan(b)):
            kmax = min(kmax, float(b))
        wits.extend(rep.witnesses[:1])
    if worst is not None:
        return _report("violated", {"max_admissible": kmax},
                       worst.witnesses, worst.cq_status,
                       diags + list(worst.diagnostics))
    if n_inconclusive:
        return _report("inconclusive", {"max_admissible": kmax}, wits[:6], {},
                       diags + [f"{n_inconclusive} checks were inconclusive"])
    return _report("satisfied", {"max_admissible": kmax}, wits[:6], {}, diags)
