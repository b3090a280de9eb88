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

Each necessary and sufficient checker, and ``sweep_necessary`` around all
of its pairs, runs inside an ``lp.reuse_scope``, which builds each object
of the memo kinds listed in the ``lp`` module docstring once per distinct
input.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import lp as _lp
from . import oracles
from .polyexpr import ModelError, ProblemInstance, rng_for, seed_for
from .regions import (PolyCell, Region, _content, face_complex,
                      lower_gen_support_detail)
from .sets import _row_norms
from .tangents import (TangentError, directional_clarke_tangent, directional_normal,
                       eps_proximal_filter, eps_proximal_membership, face_labels,
                       normal_cone, second_tangent, tangent_cone)

TOL = 1e-9
STRICT_TOL = 1e-7      # margin below which a strict inequality is not trusted
REPLAY_TOL = 1e-7      # witness replay agreement
DUALITY_TOL = 1e-6     # conic primal / multiplier dual agreement
KAPPA_FLOOR = 1e-4     # a max_admissible below this refutes the growth constant
INCLUSION_ONLY = "inclusion-only: constraint qualification unverified"
_UNBOUNDED_ABOVE = ("condition (ii) value is unbounded above; no finite growth "
                    "constant is rejected")


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


def _kappa_bound(value: float, denom: float) -> float:
    """value / denom, the largest kappa with kappa * denom <= value: every
    necessary form bounds kappa by this quotient of a curvature-minus-support
    value and the denominator of ``_kappa_denominator``.  Both are taken at
    a unit direction (see ``_pair``), so both are compared against TOL: a
    vanishing denominator bounds nothing unless the value is negative."""
    if denom > TOL:
        return value / denom
    return math.inf if value >= -TOL else -math.inf


def _kappa_verdict(kmax: float, wits, cq, diags, exact: bool = True):
    """A necessary check's report for a pair admitting kappa up to kmax: a
    bound below KAPPA_FLOOR refutes the growth constant when the tangent
    preimages are exact, and is reported without rejection otherwise."""
    bounds = {"max_admissible": kmax}
    if not kmax < KAPPA_FLOOR:
        return _report("satisfied", bounds, wits, cq, diags)
    if exact:
        return _report("violated", bounds, wits, cq, diags)
    return _report("inconclusive", bounds, wits, cq, list(diags) + [
        "rejection withheld: tangent preimages are one-sided without a "
        "constraint qualification"])


def _vacuous_outer(wits, cq, diags):
    """The report of a pair whose outer second-order set is empty."""
    return _report("satisfied", {"max_admissible": math.inf}, wits, cq, list(diags) + [
        "outer second-order set is empty; condition (ii) is vacuous"])


def _dedupe_points(pts, tol: float = 1e-7):
    """The points of pts, in order, less each within tol of an earlier kept one."""
    out = []
    for p in pts:
        if not any(np.linalg.norm(p - q) <= tol for q in out):
            out.append(p)
    return out


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
    """Solution set of grad f(x) + Dg(x)^T lam = 0: its least-squares point
    lam0 and its defining equalities.  Every lam of the set has
    Dg(x)^T lam = -grad f(x), so a value that reads lam only through
    Dg(x)^T lam is the same at every point of it."""

    lam0: np.ndarray | None
    empty: bool
    jacobian_t: np.ndarray  # (n, m), kept for the defining equalities
    grad_f: np.ndarray

    def as_cell(self) -> PolyCell:
        m = self.jacobian_t.shape[1]
        if self.empty:
            return PolyCell.empty_marker(m)
        return PolyCell(eq_mat=self.jacobian_t, eq_rhs=-self.grad_f, dim=m)


@_per_point
def multiplier_affine_set(p: ProblemInstance, x) -> MultiplierAffineSet:
    grad, J, _, _ = _jet_data(p, x)
    Jt = J.T  # (n, m)
    gnorm = float(np.linalg.norm(grad))
    if 0.0 < gnorm <= 1e-12 * max(1.0, float(np.linalg.norm(J))):
        # a rounding residue of exact stationarity: its least-squares
        # multiplier (~1e-18) would meet sets unbounded along its direction.
        # An exactly zero gradient keeps lstsq, which signs its zeros.
        lam0 = np.zeros(p.m)
    else:
        lam0, *_ = np.linalg.lstsq(Jt, -grad, rcond=None)
    if float(np.linalg.norm(Jt @ lam0 + grad)) > 1e-9:
        return MultiplierAffineSet(None, True, Jt, grad)
    return MultiplierAffineSet(lam0, False, Jt, grad)


# ---------------------------------------------------------------------------
# critical cone and directional multipliers
# ---------------------------------------------------------------------------


def critical_cone(p: ProblemInstance, x=None) -> Region:
    """Linearized feasible directions with nonincreasing objective at x
    (xbar when omitted): the preimage {d : Dg(x) d in T_K(g(x))} intersected
    with the descent halfspace of grad f(x).  It is built on each call; a
    sweep builds it once per base point."""
    x = p.xbar if x is None else np.asarray(x, dtype=float).ravel()
    grad, J, _, _ = _jet_data(p, x)
    tk = tangent_cone(p.K, p.g_value(x))
    reg = tk.affine_preimage(J, np.zeros(p.m))
    return reg.intersect(Region.halfspace(grad, 0.0))


def _critical_rows(p: ProblemInstance, x, D: np.ndarray) -> np.ndarray:
    """Whether each row d of D is a critical direction at x, as bool[k]:
    d lies in the critical cone, whose rows are unit in d-space, and
    Dg(x) d lies in T_K(g(x)), tested in y-space, both to 1e-7."""
    J = _jet_data(p, x)[1]
    return (critical_cone(p, x).contains_rows(D, 1e-7)
            & tangent_cone(p.K, p.g_value(x)).contains_rows(D @ J.T, 1e-7))


def _own_anchor(p: ProblemInstance, x, d):
    """(g(x), Dg(x) d): the anchor (y, u) at which a check of the one pair
    (x, d) reads its K-side objects.  A sweep reads them at the anchor of
    the pair's face instead (see ``sweep_necessary``)."""
    return p.g_value(x), _jet_data(p, x)[1] @ d


def directional_multipliers(p: ProblemInstance, x, d, kind: str = "M", *,
                            anchor=None) -> Region:
    """Stationary multipliers lying in the directional normal cone of K at
    g(x) in direction Dg(x) d, or at the anchor (y, u) when one is given;
    kind M uses the limiting cone, C the Clarke cone.  The M set is always
    contained in the C set.  Inside an open ``lp.reuse_scope`` the set is
    built once per point, anchor and kind."""
    if kind not in ("M", "C"):
        raise ModelError(f"unknown multiplier kind {kind!r}")
    x = p.xbar if x is None else np.asarray(x, dtype=float).ravel()
    y, u = anchor or _own_anchor(p, x, np.asarray(d, dtype=float).ravel())
    return _lp._reused("directional_multipliers", (p, x, y, u, kind),
                       lambda: _directional_multipliers(p, x, y, u, kind))


def _directional_multipliers(p: ProblemInstance, x, y, u, kind: str) -> Region:
    aff = multiplier_affine_set(p, x)
    if aff.empty:
        return Region.empty(p.m, notes=("stationarity equation has no solution",))
    N = directional_normal(p.K, y, u, "limiting" if kind == "M" else "clarke")
    cells = [c.intersect(aff.as_cell()) for c in N.cells]
    return Region(cells, N.notes, p.m)


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
    """A nonzero point of a cone region, or None when the region is {0}: a
    nonempty cone cell is the origin plus the cone of its rays and the span
    of its lines, so the region is {0} exactly when no cell has either, and
    the point returned is the first unit ray or line."""
    gens = (g for _, rays, lines in region.cell_generators() for g in (*rays, *lines))
    return next(gens, None)


def _full_row_rank(J: np.ndarray) -> bool:
    """Conservatively, whether Dg(x) has full row rank, so that
    ker Dg(x)^T = {0}: its least singular value clears 1e-6 max(1, largest)."""
    if J.shape[0] > J.shape[1]:
        return False
    sv = np.linalg.svd(J, compute_uv=False)
    return bool(sv[-1] >= 1e-6 * max(1.0, sv[0]))


def constraint_qualification_check(p: ProblemInstance, x=None, d=None,
                                   kind: str = "FOSCMS", *, anchor=None) -> CqResult:
    """Directional constraint qualifications at (x, d).

    FOSCMS:  ker Dg(x)^T meets the directional limiting normal cone of K
             only at 0.
    SOSCMS:  same test after adding the curvature halfspace
             d' D^2(lam' g) d >= 0; requires a polyhedral-union K.
    DirRCQ:  the Clarke variant of FOSCMS.
    NONDEG:  span of the directional limiting cone meets ker Dg(x)^T only
             at 0 (rank test); forces a unique multiplier.

    The cone of K is read at g(x) in direction Dg(x) d, or at the anchor
    (y, u) when one is given.  Inside an open ``lp.reuse_scope`` every kind
    but SOSCMS, the one that reads d itself, is decided once per point,
    anchor and kind.
    """
    kind_u = kind.upper().replace("-", "")
    if kind_u not in ("FOSCMS", "SOSCMS", "DIRRCQ", "NONDEG"):
        raise ModelError(f"unknown constraint qualification {kind!r}")
    x = p.xbar if x is None else np.asarray(x, dtype=float).ravel()
    d = np.zeros(p.n) if d is None else np.asarray(d, dtype=float).ravel()
    # the jets at hand serve the anchor too: outside a reuse scope a second
    # _jet_data call would evaluate them again
    _, J, _, qg = _jet_data(p, x)
    y, u = anchor or (p.g_value(x), J @ d)
    if kind_u == "SOSCMS":
        return _cq(p, x, J, qg(d), y, u, kind_u)
    return _lp._reused("constraint_qualification", (p, x, y, u, kind_u),
                       lambda: _cq(p, x, J, None, y, u, kind_u))


def _cq(p: ProblemInstance, x, J, curvature, y, u, kind_u: str) -> CqResult:
    """The qualification of ``constraint_qualification_check`` at x, with
    the cone of K read at (y, u); curvature, for SOSCMS only, is
    D^2 g(x)(d, d)."""
    notes = ()
    if kind_u == "NONDEG":
        N = directional_normal(p.K, y, u, "limiting")
        G = np.array([v for g in N.cell_generators() for part in g for v in part
                      if np.linalg.norm(v) > TOL])
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
        N = N.intersect(Region.halfspace(-curvature, 0.0))
        notes = ("curvature halfspace d' D2(lam g) d >= 0 added",)
    if _full_row_rank(J):
        # ker Dg(x)^T = {0} meets N only at 0, in every direction (Gfrerer 2013)
        return CqResult(kind_u, True, notes=notes + N.notes)
    # the numerical kernel of Dg(x)^T: orthogonal to the leading right
    # singular vectors, at the rank threshold of _full_row_rank
    _, sv, vh = np.linalg.svd(J.T)
    rank = int(np.sum(sv >= 1e-6 * max(1.0, sv[0])))
    kercell = PolyCell(eq_mat=vh[:rank], eq_rhs=np.zeros(rank), dim=p.m)
    meet = Region([c.intersect(kercell) for c in N.cells], dim=p.m)
    wit = _nontrivial_point(meet)
    return CqResult(kind_u, wit is None, witness=wit, notes=notes + N.notes)


def certify_mscq(p: ProblemInstance, x, d, *, anchor=None) -> tuple[bool, str, tuple]:
    """Metric subregularity of the constraint map at (x, d), by cascade:
    affine g into a polyhedral-union K holds automatically; otherwise
    FOSCMS, then SOSCMS, then a sampling probe that is flagged as evidence
    rather than proof.  The qualifications read K at the anchor (y, u) when
    one is given.  The cascade runs on each call; inside an open
    ``lp.reuse_scope`` the jets, K-side cones, FOSCMS results and LPs it
    poses are shared with every other check at the same point and anchor."""
    x = np.asarray(x, dtype=float).ravel()
    d = np.asarray(d, dtype=float).ravel()
    affine = all(sum(e for _, e in mono) <= 1 for gi in p.g for mono in gi.terms)
    if affine and p.K.as_region() is not None:
        return True, "polyhedral", ()
    res = constraint_qualification_check(p, x, d, "FOSCMS", anchor=anchor)
    if res.holds:
        return True, "FOSCMS", res.notes
    if p.K.as_region() is not None:
        res2 = constraint_qualification_check(p, x, d, "SOSCMS", anchor=anchor)
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
# tangent objects of K pulled back through the linearization
# ---------------------------------------------------------------------------


def _point_object_K(p, kind: str, y: np.ndarray, u: np.ndarray | None) -> Region:
    if kind == "tangent":
        return tangent_cone(p.K, y)
    if kind == "outer2":
        return second_tangent(p.K, y, u, "outer")
    if kind == "asymp2":
        return second_tangent(p.K, y, u, "asymptotic")
    raise ModelError(f"unknown tangent kind {kind!r}")


def linearized_phi_tangents(p: ProblemInstance, x=None, d=None,
                            kind: str = "tangent") -> Region:
    """Tangent objects of the feasible set at x (default xbar) pulled back
    through the constraint linearization at x.

    kind: ``tangent`` {w : Dg w in T_K(g(x))}, ``outer2`` {w : Dg w +
    D2g(d,d) in T2_K(g(x); Dg d)}, ``asymp2`` the two-rate cone preimage;
    the second-order kinds need the direction d.  The result is exact when
    a constraint qualification certifies metric subregularity at (x, d)
    and is flagged inclusion-only otherwise; its notes say which.
    """
    if kind not in ("tangent", "outer2", "asymp2"):
        raise ModelError(f"unknown tangent kind {kind!r}")
    x = p.xbar if x is None else np.asarray(x, dtype=float).ravel()
    if kind != "tangent" and d is None:
        raise ModelError("a direction is required for second-order objects")
    d = None if d is None else np.asarray(d, dtype=float).ravel()
    reg = _point_phi_tangents(p, x, d, kind)
    ok, method, notes = certify_mscq(p, x, d if d is not None else np.zeros(p.n))
    if ok:
        return reg.with_notes(f"exact under {method}", *notes)
    return reg.with_notes(INCLUSION_ONLY, *notes)


def _point_phi_tangents(p: ProblemInstance, x: np.ndarray, d: np.ndarray | None,
                        kind: str, anchor=None) -> Region:
    """Point-mode preimage of the K-side object of ``kind`` at g(x) under the
    constraint linearization at x, without constraint-qualification notes;
    whether it is exact is the caller's MSCQ result to report.  The object
    is read at the anchor (y, u) when one is given."""
    _, J, _, qg = _jet_data(p, x)
    y, u = anchor or (p.g_value(x), None if d is None else J @ d)
    shift = qg(d) if kind == "outer2" else np.zeros(p.m)
    return _point_object_K(p, kind, y, u).affine_preimage(J, shift)


def _asymptotic_preimage(p: ProblemInstance, x: np.ndarray, anchor) -> Region:
    """The asymptotic preimage at x read at anchor; it has no shift, so
    inside an open ``lp.reuse_scope`` it is built once per point and
    anchor."""
    return _lp._reused("asymptotic_preimage", (p, x, *anchor),
                       lambda: _point_phi_tangents(p, x, None, "asymp2", anchor))


# ---------------------------------------------------------------------------
# implicit necessary condition
# ---------------------------------------------------------------------------


@_lp.reuse_scope()
def necessary_implicit_check(p: ProblemInstance, x=None, d=None,
                             mode: str = "proximal") -> CertificationReport:
    """Necessary conditions phrased on the feasible set itself.

    With T'' the asymptotic second-order cone and T2 the outer second-order
    set of the feasible set at x in direction d: (i) the support of T'' at
    -grad f(x) must be nonpositive, and (ii) d' D2f(x) d minus the support
    of T2 at -grad f(x) bounds 2 kappa (1-2 eps)^2 |d|^2 from above
    (proximal mode) or 2 kappa dist(d, T_S(x))^2 (tangent_distance mode).
    Both parts are evaluated exactly; the report carries the largest
    admissible kappa.

    Both sets are read through their preimages under the constraint
    linearization at x, where a stationary multiplier lam enters only as
    the support vector Dg(x)^T lam; the shift D2g(x)(d, d) of the outer
    preimage cancels the multiplier's curvature term lam' D2g(x)(d, d).  On
    the affine multiplier set grad f(x) + Dg(x)^T lam = 0, Dg(x)^T lam
    = -grad f(x) for every lam, so no part depends on which multiplier is
    taken and no scan along ker Dg(x)^T is needed.  Both supports are read
    at c = Dg(x)^T lam0, lam0 being the set's least-squares point, which
    keeps the rounding of every report bit; when no multiplier solves the
    equation they are read at c = -grad f(x) and the witnesses carry no
    multiplier.

    The check tests the form's hypotheses, then evaluates it with the
    K-side objects read at (g(x), Dg(x) d), inside an ``lp.reuse_scope``.
    ``sweep_necessary`` calls the evaluation alone.
    """
    if mode not in ("proximal", "tangent_distance"):
        raise ModelError(f"unknown implicit mode {mode!r}")
    x, d = _pair(p, x, d)
    pre = _implicit_hypotheses(p, x, d, mode)
    if pre is not None:
        return pre
    return _implicit_value(p, x, d, _own_anchor(p, x, d), mode)


def _implicit_value(p: ProblemInstance, x, d, anchor, mode: str) -> CertificationReport:
    """The implicit form at a unit pair (x, d) that meets its hypotheses,
    with the K-side objects read at anchor."""
    diags: list[str] = []
    exact, method, notes = certify_mscq(p, x, d, anchor=anchor)
    cq = {"mscq": method if exact else "unverified"}
    Tpp = _asymptotic_preimage(p, x, anchor)
    T2 = _point_phi_tangents(p, x, d, "outer2", anchor)
    diags.extend(notes + Tpp.notes + T2.notes)
    if not exact:
        diags.append(INCLUSION_ONLY)

    aff = multiplier_affine_set(p, x)
    grad, J, qfn, _ = _jet_data(p, x)
    c = -grad if aff.empty else J.T @ aff.lam0

    # part (i): sigma over T'' at c is nonpositive
    sigma0 = Tpp.support(c)
    wits = [_wit(part="i", x=x, d=d, lam=aff.lam0, sigma_theta=sigma0)]
    if sigma0 > TOL:
        return _kappa_verdict(-math.inf, wits, cq, diags, exact)

    # part (ii): the curvature of f less sigma over T2 at c
    sigma2 = T2.support(c)
    if sigma2 == math.inf:
        value = -math.inf
        diags.append("support is +inf at the base multiplier")
    else:
        value = qfn(d) - sigma2

    denom, dnote = _kappa_denominator(p, x, d, mode)
    if dnote:
        diags.append(dnote)
    wits.append(_wit(part="ii", x=x, d=d, lam=aff.lam0, achieved=value))
    return _kappa_verdict(_kappa_bound(value, denom), wits, cq, diags, exact)


def _pair(p: ProblemInstance, x, d):
    """(x, d) of one necessary check: x defaults to xbar, and the direction
    is required.  A direction longer than TOL is scaled to unit length,
    since every form is homogeneous of degree 2 in d but the tolerances of
    the layers below are absolute."""
    x = p.xbar if x is None else np.asarray(x, dtype=float).ravel()
    if d is None:
        raise ModelError("a direction is required")
    d = np.asarray(d, dtype=float).ravel()
    norm = float(np.linalg.norm(d))
    return x, (d / norm if norm > TOL else d)


def _implicit_hypotheses(p: ProblemInstance, x, d, mode):
    """None when all preconditions hold, else a hypotheses-not-met report;
    proximal mode reads eps from the instance's options."""
    if np.linalg.norm(d) <= TOL:
        return _report("hypotheses-not-met", diags=["zero direction"])
    pre = _point_hypotheses(p, x)
    if pre is not None:
        return pre
    if not _critical_rows(p, x, d[None])[0]:
        return _report("hypotheses-not-met",
                       diags=["direction is not in the critical cone"])
    if mode == "proximal" and not eps_proximal_membership(p.S, x, d, p.options.epsilon):
        return _report("hypotheses-not-met",
                       diags=["direction is not an eps-proximal normal "
                              "to the reference set"])
    return None


def _point_hypotheses(p: ProblemInstance, x):
    """The preconditions on the base point alone: None when x lies in S
    and in the delta ball about xbar, else a hypotheses-not-met report."""
    if not p.S.contains(x, tol=1e-7):
        return _report("hypotheses-not-met",
                       diags=["base point does not belong to the reference set"])
    if np.linalg.norm(x - p.xbar) > p.options.delta + 1e-9:
        return _report("hypotheses-not-met",
                       diags=["base point lies outside the delta ball"])
    return None


def _kappa_denominator(p: ProblemInstance, x, d, mode):
    """The denominator of the kappa quotient, with a note on how it was read:
    2 (1-2 eps)^2 |d|^2 in proximal mode, eps being the instance's epsilon,
    and 2 dist(d, T_S(x))^2 otherwise."""
    if mode == "proximal":
        return 2.0 * (1.0 - 2.0 * p.options.epsilon) ** 2 * float(d @ d), ""
    dv, _ = tangent_cone(p.S, x).distance(d)
    return 2.0 * dv * dv, f"dist(d, T_S(x)) = {dv:.12g}"


# ---------------------------------------------------------------------------
# explicit necessary condition
# ---------------------------------------------------------------------------


@_lp.reuse_scope()
def necessary_explicit_check(p: ProblemInstance, x=None, d=None) -> CertificationReport:
    """Necessary conditions phrased on K through the lower generalized
    support function.

    (i) some directional multiplier lam has sigma-hat over the asymptotic
    second-order cone of K nonpositive; (ii) some directional multiplier
    makes the Lagrangian curvature minus sigma-hat over the outer
    second-order set at least 2 kappa (1-2 eps)^2 |d|^2.  On convex
    polyhedral K part (ii) is one LP per pair (see ``_explicit_value``).
    Otherwise the multiplier search enumerates one LP per (multiplier cell,
    face, vertex) triple, which is exhaustive on polyhedral data; winners
    are replayed through a direct sigma-hat evaluation.  Objects are reused
    as in ``necessary_implicit_check``.

    On ``fixtures/second_example.json`` (f = -x^2/2, g = (x^2, x), K the
    union of the unit disks about (+-1, 0), S = {xbar} = {0}) and d = 1,
    u = Dg(0) d = (0, 1) is tangent to both disks, so the outer set is
    {w1 >= 1} u {w1 <= -1}.  Its Frechet normals are 0 inside and (s, 0)
    with s <= 0 on w1 = 1, s >= 0 on w1 = -1, so sigma-hat, the lower
    limit of inf{lam.w : w in T2, lam in N^_T2(w)}, is -|lam1| at
    (lam1, 0) and +inf elsewhere.  The directional multipliers are
    {(lam1, 0) : lam1 real} (Dg(0)^T lam = lam2 = -grad f(0) = 0, one sign
    per disk), unbounded as the first row of Dg(0) vanishes.  Part (i)
    holds at lam = 0; part (ii) asks sup of -1 + 2 lam1 + |lam1| >= 2 kappa,
    and the sup is +inf as lam1 -> +inf.  So ``satisfied``, max_admissible
    unbounded, is this form's true value at every scale of d (all terms
    scale by t^2): it bounds no kappa here, while the implicit form reaches
    the true -1/2.  Unscaled, d = 1e-5 puts the half-planes 2e-10 apart,
    where the face complex's absolute margins lose a face (violated -1/2).
    """
    x, d = _pair(p, x, d)
    pre = _implicit_hypotheses(p, x, d, "proximal")
    if pre is not None:
        return pre
    return _explicit_value(p, x, d, _own_anchor(p, x, d))


def _explicit_value(p: ProblemInstance, x, d, anchor) -> CertificationReport:
    """The explicit form at a unit pair (x, d) that meets its hypotheses,
    with the K-side objects read at anchor.

    On convex polyhedral K both second-order sets at (y, u) = anchor are
    the cone C = T_{T_K(y)}(u), and the directional multipliers Lambda lie
    in its polar C^o (``tangents`` module docstring).  The Frechet normal
    cone of C at w is C^o cut to w^perp, so lam.w = 0 wherever lam is a
    Frechet normal of C, and sigma-hat_C(lam) = 0 for every lam in C^o.
    Part (i) therefore holds whenever a multiplier exists, and part (ii)
    is qf(d) + max{lam.q(d) : lam in Lambda}, q(d) = D2g(x)(d, d): the
    classical second-order condition max over lam of d' D2xx L(x, lam) d
    (Ben-Tal 1980; Bonnans & Shapiro 2000, 3.2), one LP per pair
    (``_lagrangian_max``).  Both witnesses carry the maximiser; along a
    recession ray with positive image the value is +inf, and the witness
    is a point on the ray.  For the Clarke form every generator v of C
    gives max{-v.lam : lam in Lambda_C} >= 0, so its part (i) holds too,
    and the ray rows of its vertex LP are implied by lam in C^o."""
    diags = ["explicit form is weaker than the implicit form: a satisfied "
             "verdict here does not preclude an implicit rejection"]
    ok, method, notes = certify_mscq(p, x, d, anchor=anchor)
    if not ok:
        return _report("hypotheses-not-met", cq={"mscq": "unverified"},
                       diags=diags + list(notes) +
                       ["metric subregularity could not be certified"])
    cq = {"mscq": method}
    diags.extend(notes)
    if p.K.is_convex() and p.K.as_region() is not None:
        value, lam = _lagrangian_max(p, x, d, anchor, "M")
        if lam is None:
            return _kappa_verdict(-math.inf, (), cq,
                                  diags + ["no directional multiplier exists"])
        _, _, qfn, qgn = _jet_data(p, x)
        if value == math.inf:
            diags.append(_UNBOUNDED_ABOVE)
        wits = [_wit(part="i", x=x, d=d, lam=lam, sigma_hat=0.0),
                _wit(part="ii", x=x, d=d, lam=lam, achieved=qfn(d) + float(qgn(d) @ lam))]
        denom, _ = _kappa_denominator(p, x, d, "proximal")
        return _kappa_verdict(_kappa_bound(value, denom), wits, cq, diags)
    return _explicit_sigma_hat(p, x, d, *_k_side(p, x, anchor, "M", diags), cq, diags)


def _explicit_sigma_hat(p: ProblemInstance, x, d, Tpp: Region, T2: Region,
                        lamreg: Region, cq: dict, diags: list[str]) -> CertificationReport:
    """The explicit form at (x, d) from the asymptotic and outer
    second-order sets of K and the directional multipliers, through the
    lower generalized support: the route for K that is not convex
    polyhedral."""
    if lamreg.is_empty():
        return _kappa_verdict(-math.inf, (), cq,
                              diags + ["no directional multiplier exists"])

    # part (i)
    wit_i, sig_i, notes_i = _search_sigma_hat_nonpositive(lamreg, Tpp)
    diags.extend(notes_i)
    if wit_i is None:
        return _kappa_verdict(-math.inf, (), cq, diags + [
            "no multiplier gives a nonpositive lower generalized support over "
            "the asymptotic cone (exhaustive over the face complex)"])
    wits = [_wit(part="i", x=x, d=d, lam=wit_i, sigma_hat=sig_i)]

    # part (ii)
    if T2.is_empty():
        return _vacuous_outer(wits, cq, diags)
    _, _, qfn, qgn = _jet_data(p, x)
    qf, q = qfn(d), qgn(d)
    best, lam2, notes2 = _max_explicit_value(lamreg, T2, qf, q)
    diags.extend(notes2)
    if any("boundary-inconclusive" in n for n in notes2):
        return _report("inconclusive", {"max_admissible": math.nan}, wits, cq, diags)
    denom, _ = _kappa_denominator(p, x, d, "proximal")
    if lam2 is not None:
        # record a directly replayable value for the witness multiplier
        sh2, _ = lower_gen_support_detail(T2, lam2)
        direct = qf + float(q @ lam2) - sh2
        wits.append(_wit(part="ii", x=x, d=d, lam=lam2, achieved=direct))
    return _kappa_verdict(_kappa_bound(best, denom), wits, cq, diags)


def _lagrangian_max(p: ProblemInstance, x, d, anchor, kind: str):
    """(qf(d) + max{lam.q(d) : lam in the directional multipliers of kind
    (M or C) at x and anchor}, the maximising lam), q(d) = D2g(x)(d, d):
    part (ii) of the explicit and Clarke forms on convex polyhedral K (see
    ``_explicit_value``).  The value is +inf along a recession ray with
    positive image, lam then being a point on the ray, and -inf, with lam
    None, when the set is empty."""
    _, _, qfn, qgn = _jet_data(p, x)
    best, lam = _dual_lp_max(directional_multipliers(p, x, None, kind, anchor=anchor),
                             qgn(d))
    return qfn(d) + best, lam


def _k_side(p: ProblemInstance, x, anchor, kind: str, diags: list[str]):
    """(Tpp, T2, multipliers): the asymptotic and outer second-order sets of
    K at the anchor (y, u), whose notes go to diags, and the directional
    multipliers of ``kind`` (M or C) at x and the anchor."""
    Tpp = second_tangent(p.K, *anchor, "asymptotic")
    T2 = second_tangent(p.K, *anchor, "outer")
    diags.extend(Tpp.notes + T2.notes)
    return Tpp, T2, directional_multipliers(p, x, None, kind, anchor=anchor)


def _search_sigma_hat_nonpositive(lamreg: Region, target: Region):
    """A multiplier with sigma-hat(target) <= 0, or None; every candidate
    is confirmed by direct evaluation.  Inside ``lp.reuse_scope`` pairs of
    regions with equal cells share one search."""
    return _lp._reused("sigma_hat_nonpositive", (_content(lamreg), _content(target)),
                       lambda: _sigma_hat_nonpositive(lamreg, target))


def _sigma_hat_nonpositive(lamreg: Region, target: Region):
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
    for probe, v in _face_vertex_probes(lamreg, target):
        probe = PolyCell(np.vstack([probe.A, v.reshape(1, -1)]),
                         np.concatenate([probe.b, [0.0]]), probe.E, probe.f, dim=m)
        out = _lp.maximize(np.zeros(m), probe.A, probe.b, probe.E, probe.f)
        if out.status == "optimal":
            cands.append(out.point)
    for lam in _dedupe_points(cands, 1e-9):
        val, vnotes = lower_gen_support_detail(target, lam)
        notes.extend(vnotes)
        if val <= TOL:
            return lam, val, tuple(notes)
    return None, None, tuple(notes)


def _face_vertex_probes(lamreg: Region, region: Region):
    """(probe, v) per (multiplier cell, face of the region, vertex v of the
    face), the probe being the cell cut to the face's Frechet normal value;
    one LP per triple makes a sigma-hat search exhaustive on polyhedral
    data."""
    faces = face_complex(region)
    for cell in lamreg.nonempty_cells():
        for face in faces:
            g = face.cell.generators()
            if g is None:
                continue
            for v in g[0]:
                yield cell.intersect(face.normal_cell), v


def _max_explicit_value(lamreg: Region, T2: Region, qf: float, q: np.ndarray):
    """sup over directional multipliers of qf + lam.q - sigma-hat_{T2}(lam),
    exactly, via one LP per (multiplier cell, face, vertex)."""
    notes: list[str] = []
    best = -math.inf
    best_lam = None
    for probe, v in _face_vertex_probes(lamreg, T2):
        out = _lp.maximize(q - v, probe.A, probe.b, probe.E, probe.f)
        if out.status == "unbounded":
            # any prescribed value is reachable along the ray; hand back a
            # finite point on it as the replayable witness
            lam_wit = (out.point if out.point is not None else
                       np.zeros(lamreg.dim)) + out.ray
            return math.inf, lam_wit, tuple(notes + [_UNBOUNDED_ABOVE])
        if out.status != "optimal":
            continue
        val = qf + float(q @ out.point) - float(out.point @ v)
        if val > best:
            best, best_lam = val, out.point
    # confirm the winner by a direct evaluation
    if best_lam is not None:
        sh, vnotes = lower_gen_support_detail(T2, best_lam)
        notes.extend(vnotes)
        if math.isfinite(sh):
            direct = qf + float(q @ best_lam) - sh
            if abs(direct - best) > REPLAY_TOL * (1.0 + abs(direct)):
                # another face lowered sigma-hat; the direct value is the truth
                best = max(best, direct)
    else:
        # fall back to probing relative-interior points
        for cell in lamreg.nonempty_cells():
            rp = cell.relint_point()
            if rp is None:
                continue
            sh, vnotes = lower_gen_support_detail(T2, rp[0])
            notes.extend(vnotes)
            if math.isfinite(sh):
                val = qf + float(q @ rp[0]) - sh
                if val > best:
                    best, best_lam = val, rp[0]
    return best, best_lam, tuple(notes)


# ---------------------------------------------------------------------------
# Clarke-multiplier necessary condition
# ---------------------------------------------------------------------------


@_lp.reuse_scope()
def necessary_clarke_check(p: ProblemInstance, x=None, d=None,
                           mode: str = "elementwise") -> CertificationReport:
    """Necessary conditions over the Clarke multiplier set, under the
    directional Robinson qualification.

    elementwise: for every generator v of the asymptotic cone some
    multiplier has lam.v <= 0 (checked by a dual LP over the multiplier
    region and replayed through the primal conic program; the two values
    must agree); for every cell of the outer set, a vertex LP with the
    cell's recession rays constrains kappa.  On convex polyhedral K part
    (i) holds whenever a multiplier exists and part (ii) is one LP per
    pair, whose maximiser the witness carries (see ``_explicit_value``).
    nondegenerate: the unique multiplier is evaluated directly.  Objects
    are reused as in ``necessary_implicit_check``.
    """
    if mode not in ("elementwise", "nondegenerate"):
        raise ModelError(f"unknown clarke mode {mode!r}")
    x, d = _pair(p, x, d)
    pre = _implicit_hypotheses(p, x, d, "proximal")
    if pre is not None:
        return pre
    return _clarke_value(p, x, d, _own_anchor(p, x, d), mode)


def _clarke_value(p: ProblemInstance, x, d, anchor, mode: str) -> CertificationReport:
    """The Clarke form at a unit pair (x, d) that meets its hypotheses,
    with the K-side objects read at anchor."""
    diags: list[str] = []
    rcq = constraint_qualification_check(p, x, d, "DirRCQ", anchor=anchor)
    if not rcq.holds:
        return _report("hypotheses-not-met", cq={"dirrcq": "fails"},
                       diags=diags + ["directional Robinson qualification fails; "
                                      "the multiplier set may be unbounded"])
    cq = {"dirrcq": "holds"}
    if mode == "nondegenerate":
        nd = constraint_qualification_check(p, x, d, "NONDEG", anchor=anchor)
        if not nd.holds:
            return _report("hypotheses-not-met", cq={**cq, "nondeg": "fails"},
                           diags=diags + ["directional nondegeneracy fails"])
        cq["nondeg"] = "holds"
    elif p.K.is_convex() and p.K.as_region() is not None:
        value, lam = _lagrangian_max(p, x, d, anchor, "C")
        if lam is None:
            return _kappa_verdict(-math.inf, (), cq, diags + ["no Clarke multiplier exists"])
        denom, _ = _kappa_denominator(p, x, d, "proximal")
        return _kappa_verdict(_kappa_bound(value, denom),
                              [_wit(part="ii", x=x, d=d, lam=lam, achieved=value)], cq, diags)

    Tpp, T2, lamreg = _k_side(p, x, anchor, "C", diags)
    if lamreg.is_empty():
        return _kappa_verdict(-math.inf, (), cq, diags + ["no Clarke multiplier exists"])
    grad, J, qfn, qgn = _jet_data(p, x)
    try:
        that = directional_clarke_tangent(p.K, *anchor)
    except TangentError as exc:
        return _report("hypotheses-not-met", cq=cq, diags=diags + [str(exc)])
    qf, q = qfn(d), qgn(d)
    denom, _ = _kappa_denominator(p, x, d, "proximal")

    if mode == "nondegenerate":
        return _clarke_nondegenerate(x, d, lamreg, Tpp, T2, qf, q, denom, cq,
                                     diags)
    return _clarke_elementwise(p, x, d, grad, J, that, lamreg, Tpp, T2, qf, q,
                               denom, cq, diags)


def _dual_lp_max(lamreg: Region, c: np.ndarray):
    """(max of c.lam over the multiplier region, a maximiser); (inf, a
    point plus an improving ray) when unbounded and (-inf, None) when
    empty."""
    best, arg = -math.inf, None
    for cell in lamreg.nonempty_cells():
        out = _lp.maximize(c, cell.A, cell.b, cell.E, cell.f)
        if out.status == "unbounded":
            return math.inf, out.point + out.ray
        if out.status == "optimal" and out.value > best:
            best, arg = out.value, out.point
    return best, arg


def _conic_primal(grad, J, v, tangent_cell: PolyCell):
    """min grad.w subject to J w in v + tangent cone: +inf when infeasible,
    -inf when unbounded below."""
    A = tangent_cell.A @ J if tangent_cell.A.size else np.zeros((0, J.shape[1]))
    b = tangent_cell.b + (tangent_cell.A @ v if tangent_cell.A.size else np.zeros(0))
    E = tangent_cell.E @ J if tangent_cell.E.size else np.zeros((0, J.shape[1]))
    f = tangent_cell.f + (tangent_cell.E @ v if tangent_cell.E.size else np.zeros(0))
    out = _lp.maximize(-grad, A, b, E, f)
    if out.status == "infeasible":
        return math.inf
    if out.status == "unbounded":
        return -math.inf
    return -out.value


def _generators_of(region: Region):
    verts, rays = [], []
    for v0, r0, l0 in region.cell_generators():
        verts.extend(list(v0))
        rays.extend(list(r0) + list(l0) + [-l for l in l0])
    return _dedupe_points(verts, 1e-9), _dedupe_points(rays, 1e-9)


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
        if dual == math.inf and primal == math.inf:
            return _report("inconclusive", {}, wits, cq, diags + [
                "unbounded dual with infeasible primal: modeling error"])
        if math.isfinite(dual) and math.isfinite(primal) and \
                abs(dual - primal) > DUALITY_TOL * (1 + abs(dual)):
            gap_flagged = True
            diags.append(f"duality gap {primal - dual:.3g} "
                         f"at generator {np.round(v, 6).tolist()}")
        wits.append(_wit(part="i", x=x, d=d, w=v, lam=lam_v, achieved=dual))
        if dual < -TOL:
            return _kappa_verdict(-math.inf, wits, cq, diags + [
                "a generator of the asymptotic cone separates every Clarke multiplier"])
    if gap_flagged:
        return _report("inconclusive", {}, wits, cq, diags)
    if not T2.nonempty_cells():
        return _vacuous_outer(wits[:12], cq, diags)

    # part (ii): per cell, a vertex LP with ray constraints covers every
    # member of the cell at once
    kmax = math.inf
    for cverts, crays, clines in T2.cell_generators():
        ray_rows = list(crays) + list(clines) + [-l for l in clines]
        for v in cverts:
            best = -math.inf
            best_lam = None
            for lcell in lamreg.nonempty_cells():
                probe = PolyCell(np.vstack([lcell.A, *ray_rows]),
                                 np.concatenate([lcell.b, np.zeros(len(ray_rows))]),
                                 lcell.E, lcell.f, dim=lamreg.dim)
                out = _lp.maximize(q - v, probe.A, probe.b, probe.E, probe.f)
                if out.status == "unbounded":
                    best = math.inf
                    break
                if out.status == "optimal" and out.value > best:
                    best, best_lam = out.value, out.point
            if best == -math.inf:
                wits.append(_wit(part="ii", x=x, d=d, w=v, achieved=-math.inf))
                return _kappa_verdict(-math.inf, wits, cq, diags + [
                    "no multiplier is admissible for a vertex of the outer set"])
            val = qf + best
            kmax = min(kmax, _kappa_bound(val, denom))
            wits.append(_wit(part="ii", x=x, d=d, w=v, lam=best_lam,
                             achieved=val))
    return _kappa_verdict(kmax, wits[:12], cq, diags)


def _clarke_nondegenerate(x, d, lamreg, Tpp, T2, qf, q, denom, cq, diags):
    rps = (cell.relint_point() for cell in lamreg.nonempty_cells())
    pts = _dedupe_points([rp[0] for rp in rps if rp is not None])
    if len(pts) != 1:
        return _report("inconclusive", {}, cq=cq,
                       diags=diags + ["multiplier is not numerically unique "
                                      "despite nondegeneracy"])
    lam0 = pts[0]
    sig = Tpp.support(lam0)
    if abs(sig) > STRICT_TOL:
        wit = _wit(part="i", x=x, d=d, lam=lam0,
                   achieved=(sig if math.isfinite(sig) else math.inf))
        return _kappa_verdict(-math.inf, [wit], cq, diags + [
            "support over the asymptotic cone is not zero at the unique multiplier"])
    wits = [_wit(part="i", x=x, d=d, lam=lam0, achieved=sig)]
    if T2.is_empty():
        return _vacuous_outer(wits, cq, diags)
    val = qf + float(q @ lam0) - T2.support(lam0)
    wits.append(_wit(part="ii", x=x, d=d, lam=lam0, achieved=val))
    return _kappa_verdict(_kappa_bound(val, denom), wits, cq, diags)


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
    raw = rng_for(seed, 77).normal(size=(10000, dim))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# sufficient conditions
# ---------------------------------------------------------------------------


def _direction_margin(Tpp_n: Region, T2_n: Region, grad, J, thresh: float,
                      qf_d: float) -> float | None:
    """The common margin, capped at 1, by which every stationary multiplier
    meets the sufficient conditions at one direction d.

    Tpp_n and T2_n are the asymptotic and outer second-order preimages cut
    to d^perp, qf_d is d' Hf d and thresh the curvature threshold.  A
    multiplier lam enters each condition only through (Dg(x) r).lam =
    r.Dg(x)^T lam, and Dg(x)^T lam = -grad f(x) at every lam of the affine
    set, so each bound is one number:

    * a generator r of Tpp_n with Dg(x) r != 0 asks lam.(Dg(x) r) < 0 with
      margin s weighted by |Dg(x) r|, so s <= grad.r / |Dg(x) r|;
    * a vertex v of T2_n asks qf_d - lam.(Dg(x) v) >= thresh + s, so
      s <= qf_d - thresh + grad.v;
    * a ray r of T2_n asks lam.(Dg(x) r) <= 0, that is grad.r >= 0, and a
      line l asks grad.l = 0; each holds for every lam or for none, to TOL.

    Returns None when a line of Tpp_n has a nonzero image (no multiplier
    is strictly negative on both of its signs), and -inf when a ray or line
    of T2_n rules out every multiplier."""
    margin = 1.0
    for verts, rays, lines in Tpp_n.cell_generators():
        if any(np.linalg.norm(J @ l) > 1e-9 for l in lines):
            return None
        for r in (*verts, *rays):
            img = float(np.linalg.norm(J @ r))
            if np.linalg.norm(r) > 1e-9 and img > 1e-9:   # the kernel bounds nothing
                margin = min(margin, float(grad @ r) / img)
    for verts, rays, lines in T2_n.cell_generators():
        if any(grad @ r < -TOL for r in rays) or any(abs(grad @ l) > TOL for l in lines):
            return -math.inf
        for v in verts:
            margin = min(margin, qf_d - thresh + float(grad @ v))
    return margin


def _second_order_preimages(p: ProblemInstance, x, d):
    """The asymptotic and outer second-order preimages at (x, d), each cut
    to the orthogonal complement of d."""
    return tuple(_point_phi_tangents(p, x, d, kind).intersect_orthocomplement(d)
                 for kind in ("asymp2", "outer2"))


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


@_lp.reuse_scope()
def sufficient_point_check(p: ProblemInstance) -> CertificationReport:
    """Certify a growth constant from per-direction multiplier conditions.

    Every object is built at xbar, with no uniform approximation of the
    critical cones over S.  Directions run over the unit sphere inside
    N_S(xbar) & T(xbar) & grad f(xbar)^perp, where N_S is the limiting
    normal cone of S and T(xbar) = {d : Dg(xbar) d in T_K(g(xbar))} is the
    linearized tangent cone of the feasible set.  Per direction, a
    multiplier must be strictly negative on the image of the asymptotic
    cone orthogonal to d and must beat the curvature threshold over the
    outer set, both pulled back through the linearization at xbar.  The
    threshold is 2 kappa |d|^2, not the stated form kappa |d|^2: the factor
    two is what the limiting argument in the growth proof divides out to.
    The hypothesis that f is constant on S near xbar is tested on one row
    batch of samples.  Every certificate is replayed through the growth
    oracle before it is returned.  The constant is ``p.options.kappa``,
    which must be set.

    Both conditions read a multiplier lam only through (Dg(xbar) r).lam =
    r.Dg(xbar)^T lam for points r of the preimages, and every lam of the
    affine set grad f(xbar) + Dg(xbar)^T lam = 0 has Dg(xbar)^T lam =
    -grad f(xbar).  So every stationary multiplier meets them with the same
    margin, which ``_direction_margin`` reads with no multiplier search.
    The witnesses carry the least-squares stationary multiplier lam0; the
    conditions do not test whether it lies in N_K(g(xbar)).
    """
    kappa = p.options.kappa
    if kappa is None:
        raise ModelError("a positive kappa is required")
    diags: list[str] = []
    x = p.xbar

    near = np.reshape(p.S.sample_near(x, p.options.delta, seed_for(p.options.seed, 13), 200),
                      (-1, p.n))
    if np.any(np.abs(p.f.eval_rows(near) - p.f(x)) > 1e-7):
        return _report("hypotheses-not-met",
                       diags=["objective is not constant on the reference set"])

    grad, J, qfn, _ = _jet_data(p, x)
    NS = normal_cone(p.S, x, "limiting")
    tphi = _point_phi_tangents(p, x, None, "tangent")
    diags.extend(tphi.notes)
    mesh = _unit_mesh(p.n, p.options.seed)
    # tphi's rows are unit in d-space; the K side tests Dg d in y-space
    dirs = mesh[NS.contains_rows(mesh, 1e-7) & tphi.contains_rows(mesh, 1e-7)
                & tangent_cone(p.K, p.g_value(x)).contains_rows(mesh @ J.T, 1e-7)]
    critical = dirs[np.abs(dirs @ grad) <= 1e-7]
    diags.append(f"direction mesh: {len(dirs)} admissible, "
                 f"{len(critical)} critical")
    aff = multiplier_affine_set(p, x)
    if aff.empty:
        return _report("hypotheses-not-met", diags=diags + [
            "stationarity equation has no solution"])

    wits = []
    worst = math.inf
    for dd in critical:
        Tpp, T2 = _second_order_preimages(p, x, dd)
        if T2.is_empty() and _nontrivial_point(Tpp) is None:
            return _report("inconclusive", diags=diags + [
                "both second-order objects are degenerate at "
                f"d = {np.round(dd, 6).tolist()}"])
        thresh = 2.0 * kappa * float(dd @ dd)
        margin = _direction_margin(Tpp, T2, grad, J, thresh, qfn(dd))
        if margin is None:
            return _report("hypotheses-not-met", diags=diags + [
                "a line of the asymptotic cone has a nonzero image at "
                f"d = {np.round(dd, 6).tolist()}; no strict multiplier exists"])
        if margin <= STRICT_TOL:
            got = "infeasible" if margin == -math.inf else f"margin {margin:.3g}"
            return _report("hypotheses-not-met", diags=diags + [
                f"multiplier search failed at d = {np.round(dd, 6).tolist()} "
                f"({got})"])
        worst = min(worst, margin)
        if len(wits) < 6:
            wits.append(_wit(x=x, d=dd, lam=aff.lam0, achieved=margin))
    if len(critical) == 0:
        diags.append("no admissible critical directions; growth holds vacuously "
                     "near the reference set")
    if not _growth_gate(p, kappa, diags):
        return _report("violated", {"certified": None}, wits, {}, diags + [
            "growth oracle found samples below the requested constant; "
            "certificate withdrawn"])
    return _report("certified", {"certified": kappa, "margin": worst},
                   wits, {}, diags)


@_lp.reuse_scope()
def sufficient_isolated_check(p: ProblemInstance) -> CertificationReport:
    """Certify that xbar is an isolated second-order sharp minimizer.

    Requires xbar isolated in S and no linearized descent direction; then
    one multiplier, fixed before the direction, must pass the strict
    negativity and positivity conditions for every mesh direction of the
    critical cone simultaneously.  Per direction both conditions read a
    multiplier lam only through r.Dg(xbar)^T lam, which is -grad f(xbar).r
    at every lam of the affine set grad f(xbar) + Dg(xbar)^T lam = 0, so
    each stationary multiplier meets a direction with the same margin
    (``_direction_margin``), and one multiplier passes every direction
    exactly when the least of those margins is positive.  The certified
    constant is the least over the directions of
    (d' Hf d - sigma_T2(-grad f(xbar))) / (2 |d|^2), T2 being the outer
    preimage at d, the same value at every stationary lam.  The witness
    carries the least-squares stationary multiplier lam0; the conditions do
    not test whether it lies in N_K(g(xbar)).

    The requested constant ``p.options.kappa``, when set, goes into
    ``kappa_bounds``, and a request above the certified constant makes
    the report inconclusive.  The mesh can miss a critical cone of lower
    dimension, so an empty critical mesh certifies the requested constant
    only, and nothing without a request.
    """
    requested = p.options.kappa
    x = p.xbar
    diags: list[str] = []
    for s in p.S.sample_near(x, 1e-3, seed_for(p.options.seed, 15), 60):
        if np.linalg.norm(s - x) > 1e-9:
            return _report("hypotheses-not-met",
                           diags=["xbar is not isolated in the reference set"])
    grad, J, qfn, _ = _jet_data(p, x)
    tphi = _point_phi_tangents(p, x, None, "tangent")
    if tphi.support(-grad) > STRICT_TOL:
        return _report("hypotheses-not-met", diags=diags + [
            "a linearized feasible direction strictly decreases the objective"])

    mesh = _unit_mesh(p.n, p.options.seed)
    dirs = mesh[_critical_rows(p, x, mesh)]
    diags.append(f"critical mesh directions: {len(dirs)}")
    aff = multiplier_affine_set(p, x)
    if aff.empty:
        return _report("hypotheses-not-met",
                       diags=diags + ["stationarity equation has no solution"])
    per_dir = []
    margin = math.inf
    for dd in dirs:
        Tpp, T2 = _second_order_preimages(p, x, dd)
        dmargin = _direction_margin(Tpp, T2, grad, J, 0.0, qfn(dd))
        if dmargin is None:
            return _report("hypotheses-not-met", diags=diags + [
                "a line of the asymptotic cone has a nonzero image at "
                f"d = {np.round(dd, 6).tolist()}"])
        margin = min(margin, dmargin)
        per_dir.append((dd, T2))
    if len(dirs) == 0:
        diags.append("no critical mesh direction bounds the constant; only a "
                     "requested one can be certified")
        if requested is None:
            return _report("inconclusive", diags=diags)
        margin = None
    elif margin <= STRICT_TOL:
        got = "infeasible" if margin == -math.inf else f"margin {margin:.3g}"
        return _report("hypotheses-not-met", diags=diags + [
            f"no single multiplier passes every direction ({got})"])
    # the worst value over directions, or the request when none bounds it;
    # an empty outer set (support -inf) bounds nothing
    kcert = min(((qfn(dd) - T2.support(-grad)) / (2.0 * float(dd @ dd))
                 for dd, T2 in per_dir), default=requested)
    if not _growth_gate(p, max(kcert, 1e-6) if math.isfinite(kcert) else 1e-6,
                        diags, delta=0.25 * p.options.delta):
        return _report("violated", {"certified": None}, [], {}, diags + [
            "growth oracle found samples below the certified constant"])
    bounds = {"certified": kcert, "margin": margin, "requested": requested}
    bounds = {k: v for k, v in bounds.items() if v is not None}
    wits = [_wit(lam=aff.lam0, achieved=margin)]
    if requested is not None and requested > kcert:
        return _report("inconclusive", bounds, wits, {}, diags + [
            "requested constant exceeds the certified maximum"])
    return _report("certified", bounds, wits, {}, diags)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _face_anchors(p: ProblemInstance, x, dirs, faces: dict) -> list:
    """The anchor of each pair (x, d), d in dirs.  For a polyhedral K,
    faces maps (rows of T_K(g(x)), label of the face holding Dg(x) d; see
    ``tangents.face_labels``) to the anchor of the first pair that had
    them, and a pair with a new key enters its own (g(x), Dg(x) d).  Any
    other K anchors each pair at its own."""
    y = p.g_value(x)
    J = _jet_data(p, x)[1]
    own = [(y, J @ d) for d in dirs]
    if p.K.as_region() is None:
        return own
    rows = _lp._content_key(_content(tangent_cone(p.K, y)))
    labels = face_labels(p.K, y, np.asarray(dirs) @ J.T)
    return [faces.setdefault((rows, label), anchor) for label, anchor in zip(labels, own)]


@_lp.reuse_scope()
def sweep_necessary(p: ProblemInstance,
                    mode: str = "implicit-proximal") -> CertificationReport:
    """Run a necessary checker over mesh points of S near xbar and all
    admissible mesh directions, and aggregate.

    At each base point x the admissible directions are the critical mesh
    points, by the test of ``_critical_rows`` that every checker's
    hypotheses apply.  Every form but implicit-tangent requires d to be an
    eps-proximal normal to S at x (eps = ``p.options.epsilon``), so those
    forms screen the admissible directions with one ``eps_proximal_filter``
    call first.  The sweep then strides what is left, with step
    max(1, count // 48), and evaluates the form on each direction it keeps,
    scaled to unit length as a single check scales it.  The screen has
    proved the direction's hypotheses and ``_point_hypotheses`` tests the
    base point's once, so the sweep calls the form's evaluation alone.  A
    point left with no direction is counted as having none admissible, and
    the reported pair count is the number of checks run.

    For a polyhedral K a pair reads its K-side objects (the second-order
    sets, directional normal cones and their polars, multipliers,
    asymptotic preimage and the FOSCMS, DirRCQ and NONDEG results) at the
    anchor of its face: the first pair of the sweep with the same rows of
    T_K(g(x)) and the same face label of Dg(x) d (see ``_face_anchors``
    and the ``tangents`` module docstring), so they are built once per
    face, also across base points.  The quadratic forms, the shift
    D2g(x)(d, d) of the outer preimage, SOSCMS, the sampled MSCQ probe, the
    denominators, the part-(ii) programs and the witnesses stay per pair.
    On convex polyhedral K the explicit and clarke modes read part (ii) as
    one LP per pair over the face's multipliers and build no second-order
    set (see ``_explicit_value``).  Any other K anchors each pair at its
    own (g(x), Dg(x) d), as a single check does.

    Aggregation: any violation wins (with its witnesses); otherwise any
    inconclusive; otherwise hypotheses-not-met when no check met the form's
    hypotheses, with the first such check's CQ status and diagnostics;
    otherwise satisfied with the smallest per-check kappa bound, saying how
    many checks missed their hypotheses.

    The whole sweep runs in one ``lp.reuse_scope``, so each object of the
    memo kinds listed in the ``lp`` module docstring is built once per
    sweep: the per-point objects once per base point x, and the K-side
    objects once per anchor.  A constraint qualification at a point where
    Dg(x) has full row rank holds without an LP.  The base points are
    deduplicated by one row-norm call per sample against all points kept
    so far.
    """
    evaluate = {
        "implicit-proximal": lambda x, d, a: _implicit_value(p, x, d, a, "proximal"),
        "implicit-tangent": lambda x, d, a: _implicit_value(p, x, d, a, "tangent_distance"),
        "explicit": lambda x, d, a: _explicit_value(p, x, d, a),
        "clarke": lambda x, d, a: _clarke_value(p, x, d, a, "elementwise"),
    }.get(mode)
    if evaluate is None:
        raise ModelError(f"unknown sweep mode {mode!r}")
    xs = [p.xbar]
    for s in p.S.sample_near(p.xbar, p.options.delta, seed_for(p.options.seed, 17), 120):
        if (_row_norms(s - np.asarray(xs)) > 1e-7).all():
            xs.append(s)
        if len(xs) >= 24:
            break
    mesh = _unit_mesh(p.n, p.options.seed)

    reports = []
    vacuous = 0
    faces: dict = {}
    for x in xs:
        admissible = mesh[_critical_rows(p, x, mesh)]
        if mode != "implicit-tangent":
            admissible = eps_proximal_filter(p.S, x, admissible, p.options.epsilon)
        if len(admissible) == 0:
            vacuous += 1
            continue
        dirs = [_pair(p, x, dd)[1] for dd in admissible[::max(1, len(admissible) // 48)]]
        pre = _point_hypotheses(p, x)
        if pre is not None:
            reports.extend(pre for _ in dirs)
            continue
        reports.extend(evaluate(x, d, anchor)
                       for d, anchor in zip(dirs, _face_anchors(p, x, dirs, faces)))
    diags = [f"sweep over {len(xs)} base points, {len(reports)} (x, d) pairs; "
             f"{vacuous} points had no admissible direction"]
    if not reports:
        return _report("satisfied", {"max_admissible": math.inf}, cq={},
                       diags=diags + ["conditions hold vacuously"])
    verdicts = [rep.verdict for rep in reports]
    bounds = [rep.kappa_bounds.get("max_admissible") for rep in reports]
    kmax = min((float(b) for b in bounds
                if isinstance(b, (int, float)) and not math.isnan(b)), default=math.inf)
    wits = [w for rep in reports for w in rep.witnesses[:1]][:6]
    if "violated" in verdicts:
        worst = reports[verdicts.index("violated")]
        return _report("violated", {"max_admissible": kmax},
                       worst.witnesses, worst.cq_status,
                       diags + list(worst.diagnostics))
    unsure = verdicts.count("inconclusive")
    if unsure:
        return _report("inconclusive", {"max_admissible": kmax}, wits, {},
                       diags + [f"{unsure} checks were inconclusive"])
    missed = verdicts.count("hypotheses-not-met")
    if missed == len(reports):
        return _report("hypotheses-not-met", cq=reports[0].cq_status,
                       diags=diags + [f"no (x, d) pair met the hypotheses of the "
                                      f"{mode} form"] + list(reports[0].diagnostics))
    if missed:
        diags.append(f"{missed} checks did not meet the form's hypotheses")
    return _report("satisfied", {"max_admissible": kmax}, wits, {}, diags)
