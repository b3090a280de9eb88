"""First- and second-order tangent and normal objects for catalog sets.

Every result is a Region.  Exactness strategy, by constructor:

* polyhedral sets (``as_region()`` not None: every leaf but a ball, and
  unions and products of such): T_s(y) is ``region_tangent_cone`` of the
  set's region, and every directional object is read from T_s(y) (below);
* balls: supporting halfspace at first order, curvature-shifted halfspace
  at second order, exact;
* unions holding a ball: union rules over the members containing the base
  point (for second-order objects only members to which the direction is
  tangent contribute);
* products holding a ball: blockwise combination.  Every catalog member
  admits membership curves for entire small-parameter ranges, so factor
  curves share schedules and the product rules hold with equality.

The Frechet normal cone is the polar of the tangent cone, for sets here as
for regions in ``regions``.  On this catalog it is also the proximal normal
cone (Rockafellar & Wets 1998, Variational Analysis, ch. 6), so the
eps-proximal screen reads it too; ``_frechet_normal`` says why, kind by kind.

The limiting and directional normal cones of every nonconvex set that is
not a product (a union, a finite set included) come from enumerating the
strata of the rows active at the base point: purely polyhedral strata are
decided exactly by margin LPs, and strata involving spheres are validated
by radius-schedule samplers with exact projections onto the constraint
surfaces.

Strata that fail sampler validation are dropped and the result carries a
note, never a silent claim.

For a polyhedral set the directional objects at y in a direction u depend
on u only through the face F of T_s(y) whose relative interior holds u,
and on y only through T_s(y): N_s(y; u) = N_{T_s(y)}(u), and the outer
second-order set and the asymptotic second-order cone are both
T_{T_s(y)}(u) (the reduction lemma; Dontchev & Rockafellar 2014, Implicit
Functions and Solution Mappings, 2E; Bonnans & Shapiro 2000, 3.4).  The
builders read u only through ``face_labels``' bins: each inequality row a
of T_s(y) binned at a.u = -1e-8, 1e-8 and 1e-7 (a strict row, an active
row, a row within the tangency tolerance), each equality row e at |e.u| =
1e-8 and 1e-7, and whether |u| <= 1e-9 on each block of coordinates whose
norm a builder tests (the set's own, and each product factor's and union
member's, recursively).  So directions with one label get byte-equal
second-order sets and equal directional normal cones from every builder
here, and ``certify.sweep_necessary`` reads every directional object of a
face at one anchor (y_F, u_F), the first pair it meets with that tangent
cone and label.
"""
from __future__ import annotations

import itertools

import numpy as np

from . import lp as _lp
from .regions import (
    PolyCell,
    Region,
    _active_rows,
    cone_hull,
    polar_cone,
    region_tangent_cone,
)
from .sets import (
    Ball,
    BaseSet,
    Box,
    Halfspace,
    Interval,
    Polyhedron,
    ProductSet,
    UnionSet,
    _row_products,
    flatten_union,
)

TOL = 1e-9
MEMBER_TOL = 1e-7


class TangentError(Exception):
    pass


def _vec(x, dim) -> np.ndarray:
    out = np.asarray(x, dtype=float).ravel()
    if out.size != dim:
        raise TangentError(f"dimension mismatch: {out.size} vs {dim}")
    return out


def _require_member(s: BaseSet, y) -> np.ndarray:
    y = _vec(y, s.dim)
    if not s.contains(y, tol=MEMBER_TOL):
        raise TangentError("base point does not belong to the set")
    return y


def _leaf_cell(s: BaseSet) -> PolyCell:
    return s.as_region().cells[0]


def _is_polyhedral_leaf(s: BaseSet) -> bool:
    return isinstance(s, (Interval, Box, Halfspace, Polyhedron))


def _on_sphere(s: Ball, y: np.ndarray) -> bool:
    return abs(float(np.linalg.norm(y - s.center)) - s.radius) <= MEMBER_TOL


def _tangential_contact_note(members: list[BaseSet], y: np.ndarray) -> tuple[str, ...]:
    """Flag boundary normals shared (up to sign) by distinct members at y;
    touching members can make union formulas overcount.  A ball gives its
    sphere's normal, and a member with ``as_region()`` the active rows and
    equalities of each cell of its region that holds y."""
    normals: list[tuple[int, np.ndarray]] = []
    for idx, m in enumerate(members):
        if not m.contains(y, tol=MEMBER_TOL):
            continue
        if isinstance(m, Ball):
            if _on_sphere(m, y):
                h = y - m.center
                normals.append((idx, h / np.linalg.norm(h)))
            continue
        region = m.as_region()
        for cell in () if region is None else region.cells:
            if cell.contains(y, tol=MEMBER_TOL):
                normals.extend((idx, a) for a in (*cell.A[_active_rows(cell, y)], *cell.E))
    for (i1, n1), (i2, n2) in itertools.combinations(normals, 2):
        if i1 != i2 and abs(abs(float(n1 @ n2)) - 1.0) <= 1e-9:
            return ("tangential member contact at base point; verify by oracle",)
    return ()


# ---------------------------------------------------------------------------
# tangent cone
# ---------------------------------------------------------------------------


def tangent_cone(s: BaseSet, y) -> Region:
    """T_s(y).  Inside an open ``lp.reuse_scope`` the cone is built once per
    set and point: the memo key holds the set itself and y by bytes, so the
    per-direction objects at one base point all start from one cone."""
    y = _vec(y, s.dim)
    return _lp._reused("tangent_cone", (s, y), lambda: _tangent_cone(s, y))


def _frechet_normal(s: BaseSet, y: np.ndarray, tc: Region | None = None) -> Region:
    """The polar of T_s(y); tc, when given, is T_s(y) already built.
    ``tangent_cone`` is memoized, so inside a reuse scope T_s(y) is built
    once per set and point; its polar is built at each call.  It is also
    the proximal cone: a convex leaf's normal cone, a union's member cones
    at y intersected, a product's factor cones."""
    return polar_cone(tangent_cone(s, y) if tc is None else tc)


def _tangent_cone(s: BaseSet, y) -> Region:
    y = _require_member(s, y)
    notes = _tangential_contact_note(s.members, y) if isinstance(s, UnionSet) else ()
    region = s.as_region()
    if region is not None:
        return region_tangent_cone(region, y).with_notes(*notes)
    if isinstance(s, Ball):
        if not _on_sphere(s, y):
            return Region.all_space(s.dim)
        h = y - s.center
        return Region.from_cell(PolyCell(h.reshape(1, -1), [0.0], dim=s.dim))
    if isinstance(s, UnionSet):
        pieces = [tangent_cone(m, y) for m in s.members if m.contains(y, tol=MEMBER_TOL)]
        return pieces[0].union(*pieces[1:]).with_notes(*notes)
    if isinstance(s, ProductSet):
        return Region.product(tangent_cone(f, part)
                              for f, part in zip(s.factors, s.split(y)))
    raise TangentError(f"unsupported set kind {s.kind!r}")


# ---------------------------------------------------------------------------
# second-order tangent sets
# ---------------------------------------------------------------------------


def second_tangent(s: BaseSet, y, d, kind: str) -> Region:
    """Outer second-order tangent set or asymptotic second-order tangent
    cone at y in direction d.  A non-tangent d yields the empty Region with
    a diagnostic note rather than an error.  Inside an open
    ``lp.reuse_scope`` it is built once per set, point, direction and kind,
    keyed like ``directional_normal``."""
    if kind not in ("outer", "asymptotic"):
        raise TangentError(f"unknown second-order kind {kind!r}")
    y = _vec(y, s.dim)
    d = _vec(d, s.dim)
    return _lp._reused("second_tangent", (s, y, d, kind),
                       lambda: _second_tangent(s, y, d, kind))


def _second_tangent(s: BaseSet, y: np.ndarray, d: np.ndarray, kind: str) -> Region:
    y = _require_member(s, y)
    tcone = tangent_cone(s, y)
    if not tcone.contains(d, tol=MEMBER_TOL):
        return Region.empty(s.dim, ("direction not tangent",))
    if float(np.linalg.norm(d)) <= TOL:
        return tcone  # the defining sequences reduce to plain tangency
    return _second_tangent_inner(s, y, d, kind, tcone)


def _second_tangent_inner(s: BaseSet, y, d, kind: str, tcone: Region) -> Region:
    """The set at y in the nonzero tangent direction d; tcone is T_s(y)."""
    if s.as_region() is not None:
        # both sets are T_{T_s(y)}(d) (reduction lemma, module docstring)
        return region_tangent_cone(tcone, d).with_notes(*tcone.notes)
    if isinstance(s, Ball):
        h = y - s.center
        if not _on_sphere(s, y) or float(h @ d) < -1e-8:
            return Region.all_space(s.dim)
        shift = -float(d @ d) if kind == "outer" else 0.0
        return Region.from_cell(PolyCell(h.reshape(1, -1), [shift], dim=s.dim))
    if isinstance(s, UnionSet):
        pieces = []
        for m in s.members:
            if not m.contains(y, tol=MEMBER_TOL):
                continue
            mcone = tangent_cone(m, y)
            if mcone.contains(d, tol=MEMBER_TOL):
                pieces.append(_second_tangent_inner(m, y, d, kind, mcone))
        # some member's cone holds d, since their union tcone does
        return pieces[0].union(*pieces[1:]).with_notes(
            *_tangential_contact_note(s.members, y))
    if isinstance(s, ProductSet):
        return Region.product(second_tangent(f, yp, dp, kind)
                              for f, yp, dp in zip(s.factors, s.split(y), s.split(d)))
    raise TangentError(f"unsupported set kind {s.kind!r}")


# ---------------------------------------------------------------------------
# limiting and directional normal cones
# ---------------------------------------------------------------------------


def _short_circuit_interior(members_at: list[BaseSet], y: np.ndarray) -> bool:
    """If some member holds y in its interior, every nearby point of the
    union is a member of it with full-space tangent, so all Frechet cones
    near y collapse to the origin."""
    for m in members_at:
        if isinstance(m, Ball) and not _on_sphere(m, y):
            return True
        if _is_polyhedral_leaf(m):
            cell = _leaf_cell(m)
            if not _active_rows(cell, y) and cell.E.shape[0] == 0:
                return True
    return False


def _stratum_piece(specs: dict[int, tuple], members: list[BaseSet], y: np.ndarray,
                   dim: int) -> PolyCell:
    """Limit of the Frechet cones along the stratum: intersection over the
    selected members of the polars of their face tangents."""
    out = PolyCell.all_space(dim)
    for idx, spec in specs.items():
        m = members[idx]
        if spec[0] == "poly":
            cell = _leaf_cell(m)
            piece = PolyCell.cone(cell.A[list(spec[1])], cell.E, dim)
        else:  # sphere
            piece = PolyCell.cone(y - m.center, None, dim)
        out = out.intersect(piece)
    return out


def _surfaces_of(specs: dict[int, tuple], members: list[BaseSet], y: np.ndarray):
    surf = []
    for idx, spec in specs.items():
        m = members[idx]
        if spec[0] == "sphere":
            surf.append(("sphere", m.center, m.radius))
        else:
            cell = _leaf_cell(m)
            rows = list(spec[1])
            if rows or cell.E.shape[0]:
                A = np.vstack([cell.A[rows], cell.E]) if rows else cell.E
                b = np.concatenate([cell.b[rows], cell.f]) if rows else cell.f
                surf.append(("affine", A, b))
    return surf


def _project_surfaces(x: np.ndarray, surfaces) -> np.ndarray:
    for _ in range(80):
        worst = 0.0
        for kind, *data in surfaces:
            if kind == "sphere":
                c, r = data
                gap = np.linalg.norm(x - c)
                if gap <= 1e-14:
                    return x  # cannot project from the center
                x = c + (r / gap) * (x - c)
            else:
                A, b = data
                resid = A @ x - b
                x = x - A.T @ np.linalg.pinv(A @ A.T, rcond=1e-12) @ resid
        for kind, *data in surfaces:
            if kind == "sphere":
                c, r = data
                worst = max(worst, abs(float(np.linalg.norm(x - c)) - r))
            else:
                A, b = data
                if A.shape[0]:
                    worst = max(worst, float(np.max(np.abs(A @ x - b))))
        if worst <= 1e-13:
            break
    return x


def _config_matches(x: np.ndarray, specs, avoid, members, y) -> bool:
    for idx, spec in specs.items():
        m = members[idx]
        if spec[0] == "sphere":
            if abs(float(np.linalg.norm(x - m.center)) - m.radius) > 1e-10:
                return False
        else:
            cell = _leaf_cell(m)
            if not cell.contains(x, tol=1e-9):
                return False
            for i in _active_rows(cell, y):
                resid = float(cell.A[i] @ x) - cell.b[i]
                if i in spec[1]:
                    if abs(resid) > 1e-10:
                        return False
                elif resid > -1e-9:
                    return False  # should be strictly slack on this stratum
    for idx in avoid:
        dist, _ = members[idx].distance(x)
        if dist <= 1e-10:
            return False
    return True


def _null_space(rows: np.ndarray, dim: int) -> np.ndarray:
    if rows.shape[0] == 0:
        return np.eye(dim)
    _, sv, vt = np.linalg.svd(rows, full_matrices=True)
    rank = int(np.sum(sv > 1e-10))
    return vt[rank:]


def _stratum_realizable_sampled(specs, avoid, members, y, u, dim) -> bool:
    """Radius-schedule validation for strata that involve spheres.  Points
    y + t*dir are projected exactly onto the stratum's surfaces; curvature
    slack grows like t^2 and clears the tolerance bands on this schedule."""
    normals = []
    for idx, spec in specs.items():
        m = members[idx]
        if spec[0] == "sphere":
            normals.append((y - m.center) / np.linalg.norm(y - m.center))
        else:
            cell = _leaf_cell(m)
            for i in spec[1]:
                normals.append(cell.A[i])
            for j in range(cell.E.shape[0]):
                normals.append(cell.E[j])
    N = np.array(normals) if normals else np.zeros((0, dim))
    basis = _null_space(N, dim)
    if basis.shape[0] == 0:
        return False  # only y itself sits on all surfaces
    if u is not None:
        if N.shape[0] and np.max(np.abs(N @ u)) > 1e-8:
            return False
        cands = [u / np.linalg.norm(u)]
    else:
        cands = [sgn * b for b in basis for sgn in (1.0, -1.0)]
        cands += [(b1 + s * b2) / np.linalg.norm(b1 + s * b2)
                  for b1, b2 in itertools.combinations(basis, 2) for s in (1.0, -1.0)]
    surfaces = _surfaces_of(specs, members, y)
    schedule = np.logspace(-1, -2.5, 8)
    for cand in cands:
        ok = True
        for t in schedule:
            x = _project_surfaces(y + t * cand, surfaces)
            if np.linalg.norm(x - y) < 0.25 * t or np.linalg.norm(x - y) > 4.0 * t:
                ok = False
                break
            # drift must vanish with t for the sequence directions to converge
            if np.linalg.norm((x - y) / t - cand) > 2.0 * t + 1e-6:
                ok = False
                break
            if not _config_matches(x, specs, avoid, members, y):
                ok = False
                break
        if ok:
            return True
    return False


def _stratum_realizable_poly(specs, avoid, members, y, u, dim) -> bool:
    """Exact margin-LP realizability for purely polyhedral strata.  All
    constraints in play pass through y, so local and conic feasibility
    coincide and the closure of the open stratum cone is its weak form."""
    eq_rows, strict_rows = [], []
    for idx, spec in specs.items():
        cell = _leaf_cell(members[idx])
        act = _active_rows(cell, y)
        for i in act:
            (eq_rows if i in spec[1] else strict_rows).append(cell.A[i])
        for j in range(cell.E.shape[0]):
            eq_rows.append(cell.E[j])
    violation_options = []
    for idx in avoid:
        cell = _leaf_cell(members[idx])
        act = _active_rows(cell, y)
        opts = [cell.A[i] for i in act]
        for j in range(cell.E.shape[0]):
            opts.append(cell.E[j])
            opts.append(-cell.E[j])
        if not opts:
            return False  # the avoided member holds y in its interior
        violation_options.append(opts)
    for choice in itertools.product(*violation_options) if violation_options else [()]:
        A = np.reshape([*strict_rows, *[-a for a in choice]], (-1, dim))
        out = _lp.max_margin(A, np.zeros(len(A)), np.ones(len(A)),
                             eq_rows, np.zeros(len(eq_rows)))
        if out is None or out[0] <= 1e-7:
            continue
        if u is None:
            return True
        ok = all(abs(float(a @ u)) <= 1e-8 for a in eq_rows)
        ok = ok and all(float(a @ u) <= 1e-8 for a in strict_rows)
        ok = ok and all(float(a @ u) >= -1e-8 for a in choice)
        if ok:
            return True
    return False


def _member_face_options(m: BaseSet, y: np.ndarray):
    """Face specs a nearby stratum can select for this member; none for an
    isolated point, which can only be avoided."""
    if isinstance(m, Ball):
        return [("sphere",)] if _on_sphere(m, y) else []
    if _is_polyhedral_leaf(m):
        cell = _leaf_cell(m)
        act = _active_rows(cell, y)
        return [("poly", frozenset(J)) for r in range(len(act) + 1)
                for J in itertools.combinations(act, r)]
    return []


def _strata_members(s: BaseSet) -> list[BaseSet]:
    """The members of s as leaves, balls and points: a product with a region
    gives one polyhedron per cell."""
    out: list[BaseSet] = []
    for m in flatten_union(s):
        if isinstance(m, ProductSet):
            reg = m.as_region()
            if reg is None:
                raise TangentError("products with a ball inside a union are out of scope")
            out.extend(Polyhedron(zip(c.A, c.b), zip(c.E, c.f), dim=m.dim)
                       for c in reg.nonempty_cells())
        else:
            out.append(m)
    return out


def _limiting_by_strata(s: BaseSet, y: np.ndarray, u: np.ndarray | None,
                        tc: Region | None) -> Region:
    """Limiting (u=None) or directional limiting normal cone of a nonconvex
    set that is not a product, by validated stratum enumeration; tc, when
    given, is T_s(y)."""
    members = _strata_members(s)
    dim = s.dim
    members_at = [i for i, m in enumerate(members) if m.contains(y, tol=MEMBER_TOL)]
    notes: tuple[str, ...] = _tangential_contact_note(members, y)
    if _short_circuit_interior([members[i] for i in members_at], y):
        return Region.origin(dim).with_notes(*notes)
    pieces: list[PolyCell] = []
    dropped = 0
    option_lists = {i: _member_face_options(members[i], y) for i in members_at}
    for r in range(1, len(members_at) + 1):
        for T in itertools.combinations(members_at, r):
            if any(not option_lists[i] for i in T):
                continue
            avoid = [i for i in members_at if i not in T]
            for combo in itertools.product(*[option_lists[i] for i in T]):
                specs = dict(zip(T, combo))
                curved = any(spec[0] == "sphere" for spec in combo) or any(
                    isinstance(members[i], Ball) for i in avoid)
                if curved:
                    ok = _stratum_realizable_sampled(specs, avoid, members, y, u, dim)
                    dropped += not ok
                else:
                    ok = _stratum_realizable_poly(specs, avoid, members, y, u, dim)
                if ok:
                    pieces.append(_stratum_piece(specs, members, y, dim))
    if dropped:
        notes += (f"strata dropped without validation: {dropped}",)
    if u is None:
        # the constant sequence x_k = y contributes the Frechet cone itself
        pieces.append(_frechet_normal(s, y, tc).cells[0])
    if not pieces:
        pieces = [PolyCell.from_point(np.zeros(dim))]
        notes += ("no stratum validated; kept the trivial piece",)
    return Region(pieces, notes, dim)


def _limiting(s: BaseSet, y: np.ndarray, u: np.ndarray | None,
              tc: Region | None = None) -> Region:
    """The limiting normal cone of s at y (u=None), or its directional cone
    in the nonzero tangent direction u; tc is T_s(y), given whenever u is.
    A convex set's directional cone is the polar of T_{T_s(y)}(u): its
    normal cone cut to u-perp, with u read at the bins of ``face_labels``."""
    if s.is_convex():
        return _frechet_normal(s, y, tc) if u is None else polar_cone(region_tangent_cone(tc, u))
    if isinstance(s, ProductSet):
        if u is None:
            parts = [normal_cone(f, yp, "limiting") for f, yp in zip(s.factors, s.split(y))]
        else:
            parts = [directional_normal(f, yp, up, "limiting")
                     for f, yp, up in zip(s.factors, s.split(y), s.split(u))]
        return Region.product(parts)
    return _limiting_by_strata(s, y, u, tc)


def normal_cone(s: BaseSet, y, kind: str) -> Region:
    """Proximal, Frechet or limiting normal cone of s at y.  The proximal
    and Frechet cones are one region on this catalog (see
    ``_frechet_normal``), the polar of T_s(y); for a polyhedral set T_s(y)
    is ``region_tangent_cone`` of its region.  The limiting cone of a
    nonconvex set that is not a product (a union) comes from the strata of
    the rows active at y."""
    y = _require_member(s, y)
    if kind in ("frechet", "proximal"):
        return _frechet_normal(s, y)
    if kind != "limiting":
        raise TangentError(f"unknown normal cone kind {kind!r}")
    return _limiting(s, y, None)


def directional_normal(s: BaseSet, y, u, kind: str) -> Region:
    """Directional limiting normal cone, or its Clarke hull; a zero u gives
    the plain limiting cone.  A convex set's cone is the polar of
    T_{T_s(y)}(u), and a nonconvex set that is not a product takes the
    strata route of ``normal_cone``; on a polyhedral set either reads u only
    through its face label.  Inside an open ``lp.reuse_scope`` it is built
    once per set, point, direction and kind, keyed like ``tangent_cone``.
    Outside one, the T_s(y) of the tangency test is the only one built."""
    if kind not in ("limiting", "clarke"):
        raise TangentError(f"unknown directional normal kind {kind!r}")
    y = _vec(y, s.dim)
    u = _vec(u, s.dim)
    return _lp._reused("directional_normal", (s, y, u, kind),
                       lambda: _directional_normal(s, y, u, kind))


def _directional_normal(s: BaseSet, y: np.ndarray, u: np.ndarray, kind: str) -> Region:
    y = _require_member(s, y)
    tc = tangent_cone(s, y)
    if not tc.contains(u, tol=MEMBER_TOL):
        return Region.empty(s.dim, ("direction not tangent",))
    lim = _limiting(s, y, u if float(np.linalg.norm(u)) > TOL else None, tc)
    if kind == "limiting":
        return lim
    hull = cone_hull(lim)
    return hull.with_notes(*lim.notes) if lim.notes else hull


@_lp.reuse_scope()
def directional_clarke_tangent(s: BaseSet, y, u) -> Region:
    """Polar of the directional Clarke normal cone.  It runs in an
    ``lp.reuse_scope``, so the Clarke cone starts from the T_s(y) of the
    tangency test instead of building it again."""
    y = _require_member(s, y)
    u = _vec(u, s.dim)
    if not tangent_cone(s, y).contains(u, tol=MEMBER_TOL):
        raise TangentError("direction not tangent")
    clarke = directional_normal(s, y, u, "clarke")
    out = polar_cone(clarke)
    return out.with_notes(*clarke.notes) if clarke.notes else out


def _norm_blocks(s: BaseSet, lo: int = 0):
    """(lo, hi) of s and, recursively, of each product factor and union
    member of it: the coordinate blocks whose norm a builder here tests."""
    yield lo, lo + s.dim
    if isinstance(s, ProductSet):
        for f, off in zip(s.factors, s.offsets):
            yield from _norm_blocks(f, lo + int(off))
    elif isinstance(s, UnionSet):
        for m in s.members:
            yield from _norm_blocks(m, lo)


def face_labels(s: BaseSet, y, U) -> list[bytes]:
    """The label of the face of T_s(y) holding each row u of the (k, dim)
    array U, as bytes: the bins of the module docstring, from one product
    of U with the rows of T_s(y).  Rows with equal labels get the same
    directional objects from every builder here when s is polyhedral."""
    y = _vec(y, s.dim)
    U = np.asarray(U, dtype=float).reshape(-1, s.dim)
    cells = tangent_cone(s, y).cells
    va = U @ np.vstack([c.A for c in cells]).T
    ve = np.abs(U @ np.vstack([c.E for c in cells]).T)
    blocks = sorted(set(_norm_blocks(s)))
    small = np.column_stack([np.linalg.norm(U[:, lo:hi], axis=1) <= TOL
                             for lo, hi in blocks])
    bins = np.hstack([va >= -1e-8, va > 1e-8, va > MEMBER_TOL,
                      ve > 1e-8, ve > MEMBER_TOL, small])
    return [row.tobytes() for row in bins]


# ---------------------------------------------------------------------------
# epsilon-proximal membership
# ---------------------------------------------------------------------------


def eps_proximal_membership(s: BaseSet, x, v, eps: float) -> bool:
    """True iff dist(v, proximal normal cone at x) <= eps * |v|."""
    return len(eps_proximal_filter(s, x, [v], eps)) == 1


def eps_proximal_filter(s: BaseSet, x, vs, eps: float) -> np.ndarray:
    """The members of vs within relative distance eps of the proximal
    normal cone at x, which on this catalog is the Frechet cone
    ``_frechet_normal``, as the rows of one (k, dim) array in the order of
    vs: the rows that ``eps_proximal_mask`` keeps."""
    keep = eps_proximal_mask(s, x, vs, eps)
    return _vectors(s, vs)[keep]


def eps_proximal_mask(s: BaseSet, x, vs, eps: float) -> np.ndarray:
    """Whether each member v of vs lies within eps |v| of the proximal
    normal cone at x, as bool[k].  The cone is built once for the whole
    batch, and a row's result reads only that row and the cone: its norm
    is a reduction along the row and its products with the cell's rows are
    one-row products (``sets._row_products``; a whole-batch product can
    differ in the last bit with the other rows of the batch)."""
    if not 0.0 <= eps < 1.0:
        raise TangentError("eps must lie in [0, 1)")
    cell = _frechet_normal(s, _vec(x, s.dim)).cells[0]
    V = _vectors(s, vs)
    if eps <= 0.0:
        # distance at most 1e-9 degenerates to membership of the cone cell
        inside = (_row_products(V, cell.A.T) <= cell.b + 1e-9).all(axis=1)
        if cell.E.shape[0]:
            inside &= (np.abs(_row_products(V, cell.E.T) - cell.f) <= 1e-9).all(axis=1)
        return (np.linalg.norm(V, axis=1) <= TOL) | inside
    keep = np.zeros(V.shape[0], dtype=bool)
    for k, v in enumerate(V):
        nv = float(np.linalg.norm(v))
        res = None if nv <= TOL else cell.project(v)
        keep[k] = nv <= TOL or (res is not None and res[0] <= eps * nv + 1e-9)
    return keep


def _vectors(s: BaseSet, vs) -> np.ndarray:
    try:
        return np.asarray(vs, dtype=float).reshape(len(vs), s.dim)
    except ValueError:
        raise TangentError(f"expected vectors of dimension {s.dim}") from None
