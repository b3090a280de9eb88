"""Dense linear programming and polyhedral cone duality.

Two deliberately self-contained primitives live here:

* a two-phase dense simplex solver with Bland's anti-cycling rule, used for
  every feasibility, support, inclusion and margin query in the package.  The
  revised form (basis refactorized every pivot) keeps the numerics honest at
  desk scale and makes runs bit-reproducible: no external solver, no
  randomized pivoting.  ``max_margin`` poses the one program shape that the
  relative-interior and realizability questions share: the largest common
  margin t <= 1 over a system of rows.

* an incremental double-description kernel: generator representations
  (vertices / rays / lines) of polyhedral cones and cells, with conversion in
  both directions through the polar cone.  Cells are homogenized with an
  extra coordinate.  The dimension is capped; these enumerations are meant
  for small verification geometry, not large-scale polyhedral computation.

``reuse_scope()`` is the package's one reuse mechanism; every necessary
and sufficient checker of ``certify``, and the necessary sweep, runs in
one.  Inside the block these are built once per distinct input:

* both primitives;
* the region operations ``regions.polar_cone``, ``face_complex`` and
  ``lower_gen_support_detail``, keyed on everything about each region
  except its notes, that is its dimension and the rows of its cells (and
  lam, for the lower generalized support);
* the per-point objects of ``certify`` (the jets and the multiplier affine
  set at a base point), and its search for a multiplier with nonpositive
  lower generalized support, keyed on the cells of both regions;
* the objects of ``certify`` at a base point x and a K-side anchor (y, u)
  (see ``certify.sweep_necessary``): the asymptotic preimage, the
  directional multipliers of each kind, and the FOSCMS, DirRCQ and NONDEG
  results;
* the set-side objects of ``tangents``: the tangent cone of a set at a
  point (its polar, the Frechet normal cone, is a ``polar_cone``), and the
  directional normal cone and the second-order tangent set at a point,
  direction and kind.

That is fourteen kinds.  An object that its callers build once per use
(the critical cone, the full-row-rank test of Dg, the directional Clarke
tangent cone) or that wraps memoized calls (the Frechet normal cone, the
conic hull) is not a kind of its own.

The outcome is stored under the input's content, with its arrays made
read-only, and handed back to every later caller that poses the same
input.  A per-point key holds the problem instance itself, so two
instances never share a per-point object; a ``tangents`` key holds the
set itself.  In a scope or outside one, ``regions.PolyCell.is_empty``
answers a homogeneous cell (right-hand sides all zero, so it holds the
origin) without an LP.
"""
from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

VALUE_TOL = 1e-9
PIVOT_TOL = 1e-11
ZERO_TOL = 1e-10
DIM_CAP = 8
MAX_PIVOTS = 20000


# memo of the open reuse_scope (nested scopes share the outermost one),
# keyed by input bytes; None outside every scope
_REUSE: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "sharpcheck_lp_reuse", default=None)


@contextlib.contextmanager
def reuse_scope():
    """Within the block each memo kind listed in the module docstring
    returns one stored result per distinct input.  A nested scope shares
    the memo of the one around it; the outermost drops the memo on exit,
    also on error.  Usable as a decorator, which opens a scope for each
    call."""
    if _REUSE.get() is not None:
        yield
        return
    token = _REUSE.set({})
    try:
        yield
    finally:
        _REUSE.reset(token)


def _reused(kind: str, parts, compute):
    """compute(), or the result stored for the same kind and input parts in
    the open reuse scope.  A part is an array, a tuple of parts, or a
    hashable value (such as a problem instance or a set, hashed by
    identity); arrays are keyed by dtype, shape and bytes."""
    memo = _REUSE.get()
    if memo is None:
        return compute()
    key = (kind, _content_key(parts))
    if key not in memo:
        memo[key] = _read_only(compute())
    return memo[key]


def _content_key(part):
    if isinstance(part, np.ndarray):
        return part.dtype.str, part.shape, part.tobytes()
    if isinstance(part, tuple):
        return tuple(_content_key(item) for item in part)
    return part


def _read_only(value):
    """value with its arrays frozen: directly, in a tuple, or in the fields
    of a dataclass (an outcome, a region face) or of a slotted object (a
    region cell)."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    elif is_dataclass(value):
        for field in fields(value):
            _read_only(getattr(value, field.name))
    elif hasattr(type(value), "__slots__"):
        for name in type(value).__slots__:
            _read_only(getattr(value, name, None))
    return value


class LpError(Exception):
    pass


class LpNumericalError(LpError):
    """Singular or hopelessly ill-conditioned basis after scaling."""


class DimensionCapError(LpError):
    """Generator enumeration requested above the supported dimension."""


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective @ x  subject to  ineq_mat @ x <= ineq_rhs,
    eq_mat @ x == eq_rhs, x free."""

    objective: np.ndarray
    ineq_mat: np.ndarray
    ineq_rhs: np.ndarray
    eq_mat: np.ndarray
    eq_rhs: np.ndarray


@dataclass(frozen=True)
class LpOutcome:
    status: str  # "optimal" | "unbounded" | "infeasible"
    value: float | None = None
    point: np.ndarray | None = None
    ray: np.ndarray | None = None
    dual_ineq: np.ndarray | None = None
    dual_eq: np.ndarray | None = None


def _as_matrix(mat, n: int) -> np.ndarray:
    if mat is None:
        return np.zeros((0, n))
    out = np.asarray(mat, dtype=float)
    if out.size == 0:
        return np.zeros((0, n))
    return out.reshape(-1, n)


def make_lp(objective, ineq_mat=None, ineq_rhs=None, eq_mat=None, eq_rhs=None) -> LinearProgram:
    c = np.asarray(objective, dtype=float).ravel()
    n = c.size
    A = _as_matrix(ineq_mat, n)
    b = np.zeros(0) if ineq_rhs is None else np.asarray(ineq_rhs, dtype=float).ravel()
    E = _as_matrix(eq_mat, n)
    f = np.zeros(0) if eq_rhs is None else np.asarray(eq_rhs, dtype=float).ravel()
    if A.shape[0] != b.size or E.shape[0] != f.size:
        raise LpError("row/rhs shape mismatch")
    return LinearProgram(c, A, b, E, f)


def solve_lp(lp: LinearProgram) -> LpOutcome:
    c = lp.objective
    n = c.size
    A, b = lp.ineq_mat.copy(), lp.ineq_rhs.copy()
    E, f = lp.eq_mat.copy(), lp.eq_rhs.copy()

    # Row equilibration.  Pure row scaling leaves the feasible set and the
    # objective untouched, so nothing needs unscaling afterwards.
    for M, r in ((A, b), (E, f)):
        for i in range(M.shape[0]):
            s = np.max(np.abs(M[i]))
            s = max(s, abs(r[i]) if s == 0.0 else 0.0)
            if s > 0.0:
                M[i] /= s
                r[i] /= s

    k, l = A.shape[0], E.shape[0]
    m = k + l
    if m == 0:
        if float(np.linalg.norm(c)) > 0.0:
            return LpOutcome(status="unbounded", point=np.zeros(n), ray=c.copy())
        return LpOutcome(status="optimal", value=0.0, point=np.zeros(n),
                         dual_ineq=np.zeros(0), dual_eq=np.zeros(0))
    # standard-form columns: x+ (n), x- (n), slack (k)
    nfree = 2 * n
    ncols = nfree + k
    M = np.zeros((m, ncols))
    rhs = np.zeros(m)
    if k:
        M[:k, :n] = A
        M[:k, n:nfree] = -A
        M[:k, nfree:] = np.eye(k)
        rhs[:k] = b
    if l:
        M[k:, :n] = E
        M[k:, n:nfree] = -E
        rhs[k:] = f
    neg = rhs < 0
    M[neg] *= -1.0
    rhs[neg] *= -1.0
    row_sign = np.where(neg, -1.0, 1.0)

    # Phase 1 with one artificial per row.
    Mext = np.hstack([M, np.eye(m)])
    c1 = np.zeros(ncols + m)
    c1[ncols:] = -1.0
    basis = list(range(ncols, ncols + m))
    status, basis, xB, _ = _simplex(Mext, rhs, c1, basis, blocked=())
    if status != "optimal":  # pragma: no cover - phase 1 is always bounded
        raise LpNumericalError("phase 1 did not terminate at an optimum")
    art_sum = float(np.sum(xB[np.asarray(basis, dtype=int) >= ncols]))
    if art_sum > 1e-7:
        return LpOutcome(status="infeasible")

    # Drive remaining artificials out of the basis; drop redundant rows.
    Mext, rhs, basis, keep = _purge_artificials(Mext, rhs, basis, ncols)
    blocked = frozenset(range(ncols, ncols + m))

    c2 = np.zeros(ncols + m)
    c2[:n] = c
    c2[n:nfree] = -c
    status, basis, xB, extra = _simplex(Mext, rhs, c2, basis, blocked=blocked)
    zpt = np.zeros(ncols + m)
    zpt[basis] = xB
    x = zpt[:n] - zpt[n:nfree]
    if status == "unbounded":
        return LpOutcome(status="unbounded", point=x, ray=extra[:n] - extra[n:nfree])

    value = float(c @ x)
    if not math.isfinite(value):
        raise LpNumericalError(f"non-finite optimal value {value}")

    # Duals from the final basis, mapped back through row drops and flips.
    dual_ineq = np.zeros(k)
    dual_eq = np.zeros(l)
    for pos, orig in enumerate(keep):
        yv = row_sign[orig] * extra[pos]
        if orig < k:
            dual_ineq[orig] = yv
        else:
            dual_eq[orig - k] = yv

    _check_primal(lp, x)
    return LpOutcome(status="optimal", value=value, point=x,
                     dual_ineq=dual_ineq, dual_eq=dual_eq)


def _purge_artificials(Mext, rhs, basis, ncols):
    """After phase 1, pivot artificials out of the basis; rows whose
    artificial cannot leave are redundant and get dropped.  Returns the new
    system plus the surviving original row indices.

    Phase 1 may move an artificial to another basis position, so the row
    made redundant is the artificial's own row, not the position's index:
    with w = B^-T e_i and the artificial of row r at position i, w' M = 0
    off the artificials and w_r = 1, so row r is a combination of the rest.
    Dropping row r with position i keeps the basis nonsingular."""
    m = Mext.shape[0]
    drop_rows, drop_pos = set(), set()
    for i in range(m):
        if basis[i] < ncols:
            continue
        B = Mext[:, basis]
        try:
            binv_row = np.linalg.solve(B.T, np.eye(m)[i])
        except np.linalg.LinAlgError as exc:
            raise LpNumericalError(f"singular basis while purging artificials: {exc}") from exc
        row = binv_row @ Mext[:, :ncols]
        cand = [j for j in range(ncols) if j not in basis and abs(row[j]) > 1e-9]
        if cand:
            basis[i] = cand[0]
        else:
            drop_rows.add(basis[i] - ncols)
            drop_pos.add(i)
    keep = [r for r in range(m) if r not in drop_rows]
    new_basis = [b for i, b in enumerate(basis) if i not in drop_pos]
    return Mext[keep], rhs[keep], new_basis, keep


def _simplex(M, rhs, c, basis, blocked):
    """Maximize c @ z over {z >= 0 : M z = rhs} starting from the given basis.
    Returns (status, basis, xB, ray_or_y): the ray when unbounded, else the
    duals y with B^T y = c_B at the optimal basis B.  Bland's rule
    throughout."""
    m = M.shape[0]
    if m == 0:
        return "optimal", basis, np.zeros(0), np.zeros(0)
    basis = list(basis)
    for _ in range(MAX_PIVOTS):
        B = M[:, basis]
        try:
            xB = np.linalg.solve(B, rhs)
            y = np.linalg.solve(B.T, c[np.asarray(basis, dtype=int)])
        except np.linalg.LinAlgError as exc:
            raise LpNumericalError(f"singular simplex basis: {exc}") from exc
        reduced = c - M.T @ y
        entering = -1
        for j in range(M.shape[1]):
            if j in blocked or j in basis:
                continue
            if reduced[j] > VALUE_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal", basis, xB, y
        d = np.linalg.solve(B, M[:, entering])
        pos = d > PIVOT_TOL
        if not np.any(pos):
            ray = np.zeros(M.shape[1])
            ray[entering] = 1.0
            for i, bi in enumerate(basis):
                ray[bi] = -d[i]
            return "unbounded", basis, xB, ray
        ratios = np.full(m, np.inf)
        ratios[pos] = np.maximum(xB[pos], 0.0) / d[pos]
        rmin = np.min(ratios)
        leave_pos = min(
            (i for i in range(m) if ratios[i] <= rmin + 1e-12),
            key=lambda i: basis[i],
        )
        basis[leave_pos] = entering
    raise LpNumericalError("pivot limit exceeded (cycling or conditioning)")


def _check_primal(lp: LinearProgram, x: np.ndarray) -> None:
    scale = 1.0 + float(np.max(np.abs(x))) if x.size else 1.0
    if lp.ineq_mat.shape[0]:
        resid = lp.ineq_mat @ x - lp.ineq_rhs
        if np.max(resid) > 1e-6 * scale:
            raise LpNumericalError(f"primal infeasibility {np.max(resid):.3e} in reported optimum")
    if lp.eq_mat.shape[0]:
        resid = np.abs(lp.eq_mat @ x - lp.eq_rhs)
        if np.max(resid) > 1e-6 * scale:
            raise LpNumericalError(f"equality violation {np.max(resid):.3e} in reported optimum")


def maximize(objective, ineq_mat=None, ineq_rhs=None, eq_mat=None, eq_rhs=None) -> LpOutcome:
    lp = make_lp(objective, ineq_mat, ineq_rhs, eq_mat, eq_rhs)
    return _reused("lp", (lp.objective, lp.ineq_mat, lp.ineq_rhs, lp.eq_mat, lp.eq_rhs),
                   lambda: solve_lp(lp))


def max_margin(A, b, w, E, f) -> tuple[float, np.ndarray] | None:
    """maximize t over (x, t)  subject to  A x + w t <= b, t <= 1, E x == f.

    The common margin t by which x meets the rows of A, each row weighted
    by its entry of w, capped at 1.  Returns (t, x) at the optimum, or None
    when the program is infeasible; the cap rules out unbounded.  The cap
    row comes after the rows of A, and the equalities get a zero t column."""
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    E = np.asarray(E, dtype=float).reshape(-1, n)
    unit_t = np.eye(1, n + 1, n)
    out = maximize(unit_t[0],
                   np.vstack([np.column_stack([A, w]), unit_t]), np.append(b, 1.0),
                   np.column_stack([E, np.zeros(E.shape[0])]), f)
    if out.status != "optimal":
        return None
    return out.value, out.point[:n]


# ---------------------------------------------------------------------------
# Double description
# ---------------------------------------------------------------------------


class _Ray:
    __slots__ = ("vec", "active")

    def __init__(self, vec: np.ndarray, active: set[int]):
        self.vec = vec
        self.active = active


def _normalize(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    return v / n if n > 0 else v


def _dd_cone_impl(ineq: np.ndarray, eq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return _reused("dd", (ineq, eq), lambda: _dd_cone(ineq, eq))


def _dd_cone(ineq: np.ndarray, eq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = ineq.shape[1] if ineq.size else eq.shape[1]
    lines: list[np.ndarray] = [np.eye(n)[i] for i in range(n)]
    rays: list[_Ray] = []
    constraints: list[tuple[np.ndarray, bool]] = []
    for row in eq:
        constraints.append((row, True))
    for row in ineq:
        constraints.append((row, False))

    for idx, (row, is_eq) in enumerate(constraints):
        nr = float(np.linalg.norm(row))
        if nr <= ZERO_TOL:
            continue
        a = row / nr
        dl = np.array([a @ l for l in lines]) if lines else np.zeros(0)
        if dl.size and np.max(np.abs(dl)) > ZERO_TOL:
            i0 = int(np.argmax(np.abs(dl)))
            l0 = lines.pop(i0)
            d0 = float(a @ l0)
            lines = [_normalize(l - (float(a @ l) / d0) * l0) for l in lines]
            for r in rays:
                r.vec = _normalize(r.vec - (float(a @ r.vec) / d0) * l0)
                r.active.add(idx)
            if not is_eq:
                r0 = _normalize(-np.sign(d0) * l0)
                rays.append(_Ray(r0, set(range(idx))))
            continue
        vals = np.array([a @ r.vec for r in rays]) if rays else np.zeros(0)
        zer = [r for r, v in zip(rays, vals) if abs(v) <= ZERO_TOL]
        neg = [(r, v) for r, v in zip(rays, vals) if v < -ZERO_TOL]
        pos = [(r, v) for r, v in zip(rays, vals) if v > ZERO_TOL]
        for r in zer:
            r.active.add(idx)
        combos: list[_Ray] = []
        for p, vp in pos:
            for q, vq in neg:
                shared = p.active & q.active
                if any(
                    (s is not p and s is not q and shared <= s.active)
                    for s in rays
                ):
                    continue
                w = _normalize(vp * q.vec - vq * p.vec)
                if np.linalg.norm(w) <= ZERO_TOL:
                    continue
                combos.append(_Ray(w, shared | {idx}))
        survivors = zer + ([r for r, _ in neg] if not is_eq else [])
        seen = {tuple(np.round(r.vec, 9)) for r in survivors}
        for r in combos:
            key = tuple(np.round(r.vec, 9))
            if key not in seen:
                seen.add(key)
                survivors.append(r)
        rays = survivors

    # Canonicalize: orthogonalize rays against the lineality space.  The
    # lineality directions satisfy every processed constraint with equality,
    # so residuals are unaffected.
    if lines:
        L = np.array(lines)
        Q, _ = np.linalg.qr(L.T)
        proj = Q @ Q.T
        out_rays = []
        seen = set()
        for r in rays:
            v = _normalize(r.vec - proj @ r.vec)
            if np.linalg.norm(v) <= 1e-7:
                continue
            key = tuple(np.round(v, 9))
            if key not in seen:
                seen.add(key)
                out_rays.append(v)
        rays_arr = np.array(out_rays) if out_rays else np.zeros((0, n))
        lines_arr = Q.T
    else:
        out, seen = [], set()
        for r in rays:
            key = tuple(np.round(r.vec, 9))
            if key not in seen:
                seen.add(key)
                out.append(r.vec)
        rays_arr = np.array(out) if out else np.zeros((0, n))
        lines_arr = np.zeros((0, n))
    return rays_arr, lines_arr


def dd_cone(ineq, eq=None) -> tuple[np.ndarray, np.ndarray]:
    """Generators (rays, lines) of the cone {x : ineq @ x <= 0, eq @ x = 0}."""
    ineq = np.asarray(ineq, dtype=float)
    if ineq.ndim == 1:
        ineq = ineq.reshape(1, -1)
    if ineq.ndim == 2 and ineq.shape[1] > 0:
        n = ineq.shape[1]
    elif eq is not None and np.asarray(eq).ndim == 2:
        n = np.asarray(eq).shape[1]
    else:
        raise LpError("cannot infer the ambient dimension")
    ineq = ineq.reshape(-1, n)
    eqm = _as_matrix(eq, n)
    if n > DIM_CAP:
        raise DimensionCapError(f"double description capped at dimension {DIM_CAP}, got {n}")
    return _dd_cone_impl(ineq, eqm)


def cell_generators_arrays(A, b, E, f):
    """Vertices, rays and lines of {x : A x <= b, E x = f} via homogenization.
    Returns None when the cell is empty."""
    A = np.asarray(A, dtype=float)
    n = A.shape[1] if A.size else np.asarray(E, dtype=float).shape[1]
    A = A.reshape(-1, n)
    b = np.asarray(b, dtype=float).ravel()
    E = _as_matrix(E, n)
    f = np.asarray(f, dtype=float).ravel() if f is not None else np.zeros(0)
    if n > DIM_CAP:
        raise DimensionCapError(f"double description capped at dimension {DIM_CAP}, got {n}")
    hom_ineq = np.hstack([A, -b.reshape(-1, 1)]) if A.shape[0] else np.zeros((0, n + 1))
    tpos = np.zeros((1, n + 1))
    tpos[0, n] = -1.0  # -t <= 0
    hom_ineq = np.vstack([hom_ineq, tpos])
    hom_eq = np.hstack([E, -f.reshape(-1, 1)]) if E.shape[0] else np.zeros((0, n + 1))
    rays, lines = _dd_cone_impl(hom_ineq, hom_eq)
    verts, recs, lins = [], [], []
    for l in lines:
        if abs(l[n]) > 1e-7:
            raise LpNumericalError("homogenization produced a line crossing t=0")
        lins.append(_normalize(l[:n]))
    for r in rays:
        t = r[n]
        if t > 1e-9:
            verts.append(r[:n] / t)
        else:
            v = r[:n]
            if np.linalg.norm(v) > 1e-9:
                recs.append(_normalize(v))
    if not verts:
        return None
    to_arr = lambda rows, d: (np.array(rows) if rows else np.zeros((0, d)))
    return to_arr(verts, n), to_arr(recs, n), to_arr(lins, n)


def cone_from_generators(rays, lines, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """H-representation of cone(rays) + span(lines) via the double polar."""
    rays = _as_matrix(rays, dim)
    lines = _as_matrix(lines, dim)
    pr, pl = _dd_cone_impl(rays, lines)  # generators of the polar
    return pr, pl


def cell_from_generators_arrays(verts, rays, lines, dim: int):
    """H-representation (A, b, E, f) of conv(verts) + cone(rays) + span(lines).

    An empty vertex list denotes the empty cell and yields the canonical
    infeasible marker row 0 @ x <= -1."""
    verts = _as_matrix(verts, dim)
    rays = _as_matrix(rays, dim)
    lines = _as_matrix(lines, dim)
    if verts.shape[0] == 0:
        return (np.zeros((1, dim)), np.array([-1.0]),
                np.zeros((0, dim)), np.zeros(0))
    hom_rays = np.vstack([
        np.hstack([verts, np.ones((verts.shape[0], 1))]),
        np.hstack([rays, np.zeros((rays.shape[0], 1))]),
    ])
    hom_lines = np.hstack([lines, np.zeros((lines.shape[0], 1))])
    pr, pl = _dd_cone_impl(hom_rays, hom_lines)
    Arows, brhs, Erows, frhs = [], [], [], []
    for rho in pr:
        a, beta = rho[:dim], -rho[dim]
        if np.linalg.norm(a) <= 1e-9:
            continue  # the freed t >= 0 face
        Arows.append(a)
        brhs.append(beta)
    for lam in pl:
        e, phi = lam[:dim], -lam[dim]
        if np.linalg.norm(e) <= 1e-9:
            continue
        Erows.append(e)
        frhs.append(phi)
    to_arr = lambda rows, d: (np.array(rows) if rows else np.zeros((0, d)))
    return (to_arr(Arows, dim), np.array(brhs) if brhs else np.zeros(0),
            to_arr(Erows, dim), np.array(frhs) if frhs else np.zeros(0))
