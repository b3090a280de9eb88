"""Polyhedral region algebra: finite unions of closed convex cells.

Every derived first- and second-order variational object in this package is
represented as a Region: a finite union of closed convex polyhedral cells,
each an intersection of linear inequalities and equalities.  A region is
its dimension, its cells and its notes, nothing more; a cone is a region
whose nonempty cells have homogeneous rows (all right-hand sides zero), by
Minkowski-Weyl.  This module is the exact calculus on that representation:
membership, inclusion testing, distance and projection, support functions,
unions and products, the generators of each cell, polarity, tangent cones,
the face complex of a union with the Frechet normal value of each face (the
polar of its tangent cone), and the lower generalized support function
evaluated through the face complex with a perturbation-schedule cross
check.  Support values and distances are floats; -math.inf is the support
of an empty region and +math.inf a support or distance without a finite
bound.

Design constraints worth knowing before reading on:

* all rows are unit-normalized at construction, so one absolute tolerance
  (1e-9 on residuals) means the same thing everywhere;
* a cell detected as structurally infeasible is stored as the canonical
  marker row 0 @ x <= -1;
* inclusion queries are decided by enumerating, per covering cell, which of
  its rows is violated, and maximizing the joint violation margin by LP.  A
  positive margin is a certified non-inclusion witness; if every assignment
  has nonpositive margin the inclusion holds up to the tolerance band.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import lp as _lp

MEMBER_TOL = 1e-9
MARGIN_TOL = 1e-7
FACE_CAP = 12
ROW_CAP = 18


class RegionError(Exception):
    pass


def _rows(mat, dim):
    if mat is None:
        return np.zeros((0, dim))
    out = np.asarray(mat, dtype=float)
    if out.size == 0:
        return np.zeros((0, dim))
    # contiguous rows: a strided a @ a takes another BLAS kernel than the
    # contiguous one np.linalg.norm uses, and can differ in the last bit
    return np.ascontiguousarray(out.reshape(-1, dim))


def _check_rows(X, dim) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != dim:
        raise RegionError(f"expected a (k, {dim}) array of points, got shape {X.shape}")
    return X


class PolyCell:
    """One closed convex cell {x : A x <= b, E x = f} with normalized rows."""

    __slots__ = ("dim", "A", "b", "E", "f", "_empty", "_gens", "_forced_empty")

    def __init__(self, ineq_mat=None, ineq_rhs=None, eq_mat=None, eq_rhs=None, dim=None):
        if dim is None:
            for m in (ineq_mat, eq_mat):
                if m is not None and np.asarray(m).ndim == 2:
                    dim = np.asarray(m).shape[1]
                    break
            else:
                raise RegionError("cell dimension cannot be inferred")
        self.dim = int(dim)
        A = _rows(ineq_mat, self.dim)
        b = np.asarray(ineq_rhs, dtype=float).ravel() if ineq_rhs is not None else np.zeros(0)
        E = _rows(eq_mat, self.dim)
        f = np.asarray(eq_rhs, dtype=float).ravel() if eq_rhs is not None else np.zeros(0)
        if A.shape[0] != b.size or E.shape[0] != f.size:
            raise RegionError("row/rhs shape mismatch")
        forced_empty = False
        keepA, keepb = [], []
        for a, beta in zip(A, b):
            nr = math.sqrt(a @ a)
            if nr <= MEMBER_TOL:
                if beta < -MEMBER_TOL:
                    forced_empty = True
                continue  # 0 <= beta: vacuous
            keepA.append(a / nr)
            keepb.append(beta / nr)
        keepE, keepf = [], []
        for e, phi in zip(E, f):
            nr = math.sqrt(e @ e)
            if nr <= MEMBER_TOL:
                if abs(phi) > MEMBER_TOL:
                    forced_empty = True
                continue
            keepE.append(e / nr)
            keepf.append(phi / nr)
        if forced_empty:
            self.A = np.zeros((1, self.dim))
            self.b = np.array([-1.0])
            self.E = np.zeros((0, self.dim))
            self.f = np.zeros(0)
        else:
            self.A = np.array(keepA) if keepA else np.zeros((0, self.dim))
            self.b = np.array(keepb) if keepb else np.zeros(0)
            self.E = np.array(keepE) if keepE else np.zeros((0, self.dim))
            self.f = np.array(keepf) if keepf else np.zeros(0)
        self._forced_empty = forced_empty
        self._empty = True if forced_empty else None
        self._gens = None

    # -- constructors -------------------------------------------------
    @classmethod
    def all_space(cls, dim: int) -> "PolyCell":
        return cls(dim=dim)

    @classmethod
    def empty_marker(cls, dim: int) -> "PolyCell":
        return cls(np.zeros((1, dim)), [-1.0], dim=dim)

    @classmethod
    def from_point(cls, x) -> "PolyCell":
        x = np.asarray(x, dtype=float).ravel()
        return cls(eq_mat=np.eye(x.size), eq_rhs=x, dim=x.size)

    @classmethod
    def cone(cls, rays, lines, dim: int) -> "PolyCell":
        """The cell cone(rays) + span(lines), through the double polar."""
        ineq, eq = _lp.cone_from_generators(rays, lines, dim)
        return cls(ineq, np.zeros(ineq.shape[0]), eq, np.zeros(eq.shape[0]), dim=dim)

    # -- basic queries ------------------------------------------------
    def contains(self, x, tol: float = MEMBER_TOL) -> bool:
        return bool(self.contains_rows(np.reshape(x, (1, -1)), tol)[0])

    def contains_rows(self, X, tol: float = MEMBER_TOL) -> np.ndarray:
        """Membership of each row of the (k, dim) array X, as bool[k]."""
        X = _check_rows(X, self.dim)
        if self._forced_empty:
            return np.zeros(X.shape[0], dtype=bool)
        ok = np.ones(X.shape[0], dtype=bool)
        if self.A.shape[0]:
            ok = (X @ self.A.T <= self.b + tol).all(axis=1)
        if self.E.shape[0] and ok.any():
            ok &= (np.abs(X @ self.E.T - self.f) <= tol).all(axis=1)
        return ok

    def is_empty(self) -> bool:
        """Whether no point meets the rows.  A homogeneous cell (b and f all
        zero) holds the origin, so it is decided without an LP."""
        if self._empty is None:
            if not self.b.any() and not self.f.any():
                self._empty = False
            else:
                out = _lp.maximize(np.zeros(self.dim), self.A, self.b, self.E, self.f)
                self._empty = out.status == "infeasible"
        return self._empty

    def generators(self):
        """(vertices, rays, lines), or None when the cell is empty."""
        if self._forced_empty:
            return None
        if self._gens is None:
            self._gens = _lp.cell_generators_arrays(self.A, self.b, self.E, self.f)
            if self._gens is None:
                self._empty = True
        return self._gens

    def support(self, lam) -> float:
        """sup of lam @ x over the cell: -inf when the cell is empty, +inf
        when lam @ x has no upper bound on it."""
        lam = np.asarray(lam, dtype=float).ravel()
        out = _lp.maximize(lam, self.A, self.b, self.E, self.f)
        if out.status == "infeasible":
            return -math.inf
        if out.status == "unbounded":
            return math.inf
        return out.value

    # -- algebra ------------------------------------------------------
    def intersect(self, other: "PolyCell") -> "PolyCell":
        if other.dim != self.dim:
            raise RegionError("dimension mismatch in intersection")
        return PolyCell(np.vstack([self.A, other.A]), np.concatenate([self.b, other.b]),
                        np.vstack([self.E, other.E]), np.concatenate([self.f, other.f]),
                        dim=self.dim)

    def lift(self, total: int, lo: int) -> "PolyCell":
        """The cell as a block of R^total: its rows read coordinates lo to
        lo + dim, and the other coordinates are free."""
        A = np.zeros((self.A.shape[0], total))
        A[:, lo:lo + self.dim] = self.A
        E = np.zeros((self.E.shape[0], total))
        E[:, lo:lo + self.dim] = self.E
        return PolyCell(A, self.b, E, self.f, dim=total)

    def affine_preimage(self, M, c) -> "PolyCell":
        """{w : M w + c in cell}."""
        M = np.asarray(M, dtype=float)
        c = np.asarray(c, dtype=float).ravel()
        if M.shape[0] != self.dim or c.size != self.dim:
            raise RegionError("affine map shape mismatch")
        wdim = M.shape[1]
        if self._forced_empty:
            return PolyCell.empty_marker(wdim)
        A2 = self.A @ M if self.A.size else np.zeros((0, wdim))
        b2 = self.b - (self.A @ c if self.A.size else np.zeros(0))
        E2 = self.E @ M if self.E.size else np.zeros((0, wdim))
        f2 = self.f - (self.E @ c if self.E.size else np.zeros(0))
        return PolyCell(A2, b2, E2, f2, dim=wdim)

    def with_equality(self, a, beta: float) -> "PolyCell":
        a = np.asarray(a, dtype=float).ravel()
        return PolyCell(self.A, self.b,
                        np.vstack([self.E, a.reshape(1, -1)]),
                        np.concatenate([self.f, [beta]]), dim=self.dim)

    def is_homogeneous(self, tol: float = 1e-9) -> bool:
        okb = not self.b.size or np.max(np.abs(self.b)) <= tol
        okf = not self.f.size or np.max(np.abs(self.f)) <= tol
        return okb and okf

    # -- metric -------------------------------------------------------
    def project(self, x) -> tuple[float, np.ndarray] | None:
        """Exact Euclidean projection via active-subset enumeration.

        The projection of x onto the cell coincides with the projection onto
        the affine hull of its active rows, so scanning row subsets of size
        up to dim (plus all equalities) and keeping feasible candidates is
        exhaustive."""
        x = np.asarray(x, dtype=float).ravel()
        if self.is_empty():
            return None
        m = self.A.shape[0]
        if m > ROW_CAP:
            raise RegionError(f"projection row cap exceeded: {m} > {ROW_CAP}")
        # candidate feasibility first at float resolution, so distances stay
        # exact down to ~1e-12, relaxing only for ill-conditioned active sets
        tight = 1e-12 * (1.0 + float(np.linalg.norm(x)))
        for tol in (tight, 1e-7):
            best = None
            for size in range(0, min(m, self.dim) + 1):
                for T in itertools.combinations(range(m), size):
                    W = np.vstack([self.A[list(T)], self.E]) if (T or self.E.size) else np.zeros((0, self.dim))
                    h = np.concatenate([self.b[list(T)], self.f]) if (T or self.f.size) else np.zeros(0)
                    if W.shape[0] == 0:
                        y = x.copy()
                    else:
                        # projection of x onto {W y = h}
                        resid = W @ x - h
                        y = x - W.T @ np.linalg.pinv(W @ W.T, rcond=1e-12) @ resid
                    if not self.contains(y, tol=tol):
                        continue
                    d = float(np.linalg.norm(y - x))
                    if best is None or d < best[0] - 1e-12:
                        best = (d, y)
            if best is not None:
                return best
        raise RegionError("projection enumeration found no feasible candidate")

    def implicit_equalities(self) -> list[int]:
        """Indices of inequality rows that hold with equality on the cell."""
        out = []
        for i in range(self.A.shape[0]):
            low = _lp.maximize(-self.A[i], self.A, self.b, self.E, self.f)
            if low.status == "optimal" and -low.value >= self.b[i] - 1e-9:
                out.append(i)
        return out

    def relint_point(self) -> tuple[np.ndarray, float] | None:
        """A point in the relative interior plus its margin on strict rows."""
        if self.is_empty():
            return None
        impl = set(self.implicit_equalities())
        strict = [i for i in range(self.A.shape[0]) if i not in impl]
        eq = list(impl)
        out = _lp.max_margin(self.A[strict], self.b[strict], np.ones(len(strict)),
                             np.vstack([self.A[eq], self.E]),
                             np.concatenate([self.b[eq], self.f]))
        if out is None:
            return None
        t, x = out
        return x, t

    def __repr__(self):
        return f"PolyCell(dim={self.dim}, ineq={self.A.shape[0]}, eq={self.E.shape[0]})"


class Region:
    """A finite union of PolyCells: its dimension, its cells and the notes
    that travel with it.  A region is a cone when its nonempty cells have
    homogeneous rows; ``polar_cone`` reads that from the cells."""

    __slots__ = ("dim", "cells", "notes", "_nonempty")

    def __init__(self, cells, notes: tuple[str, ...] = (), dim=None):
        cells = tuple(cells)
        if dim is None:
            if not cells:
                raise RegionError("empty cell list needs an explicit dimension")
            dim = cells[0].dim
        for c in cells:
            if c.dim != dim:
                raise RegionError("mixed cell dimensions in region")
        self.dim = int(dim)
        self.cells = cells
        self.notes = tuple(notes)
        self._nonempty = None

    # -- constructors -------------------------------------------------
    @classmethod
    def empty(cls, dim: int, notes=()) -> "Region":
        return cls((), notes, dim)

    @classmethod
    def all_space(cls, dim: int) -> "Region":
        return cls((PolyCell.all_space(dim),), dim=dim)

    @classmethod
    def from_cell(cls, cell: PolyCell, notes=()) -> "Region":
        return cls((cell,), notes)

    @classmethod
    def from_point(cls, x) -> "Region":
        return cls.from_cell(PolyCell.from_point(x))

    @classmethod
    def origin(cls, dim: int) -> "Region":
        return cls.from_point(np.zeros(dim))

    @classmethod
    def halfspace(cls, normal, offset: float) -> "Region":
        normal = np.asarray(normal, dtype=float).ravel()
        return cls.from_cell(PolyCell(normal.reshape(1, -1), [offset], dim=normal.size))

    @classmethod
    def product(cls, parts) -> "Region":
        """The cartesian product of the regions in parts, factor blocks in
        order: one cell per choice of a nonempty cell of each factor, the
        last factor varying fastest, and the notes of all factors.  An empty
        factor gives the empty region."""
        parts = list(parts)
        total = sum(r.dim for r in parts)
        notes: tuple[str, ...] = ()
        cells = [PolyCell.all_space(total)]
        lo = 0
        for reg in parts:
            notes += reg.notes
            live = reg.nonempty_cells()
            if not live:
                return cls.empty(total, notes + ("empty factor",))
            cells = [base.intersect(c.lift(total, lo)) for base in cells for c in live]
            lo += reg.dim
        return cls(cells, notes, total)

    # -- structure ----------------------------------------------------
    def nonempty_cells(self) -> tuple[PolyCell, ...]:
        if self._nonempty is None:
            self._nonempty = tuple(c for c in self.cells if not c.is_empty())
        return self._nonempty

    def is_empty(self) -> bool:
        return len(self.nonempty_cells()) == 0

    def cell_generators(self):
        """(vertices, rays, lines) of each nonempty cell, in cell order."""
        for c in self.nonempty_cells():
            gens = c.generators()
            if gens is not None:
                yield gens

    def contains(self, x, tol: float = MEMBER_TOL) -> bool:
        return bool(self.contains_rows(np.reshape(x, (1, -1)), tol)[0])

    def contains_rows(self, X, tol: float = MEMBER_TOL) -> np.ndarray:
        """Membership of each row of the (k, dim) array X in the union of
        the cells, as bool[k]."""
        X = _check_rows(X, self.dim)
        ok = np.zeros(X.shape[0], dtype=bool)
        for c in self.cells:
            if ok.all():
                break
            ok |= c.contains_rows(X, tol)
        return ok

    def with_notes(self, *extra: str) -> "Region":
        return Region(self.cells, self.notes + tuple(extra), self.dim)

    def union(self, *others: "Region") -> "Region":
        """The union with each of others: the cells and the notes of all,
        in order."""
        if any(o.dim != self.dim for o in others):
            raise RegionError("dimension mismatch in union")
        return Region(self.cells + tuple(c for o in others for c in o.cells),
                      self.notes + tuple(n for o in others for n in o.notes), self.dim)

    # -- pointwise ops ------------------------------------------------
    def support(self, lam) -> float:
        best = -math.inf
        for c in self.nonempty_cells():
            best = max(best, c.support(lam))
            if best == math.inf:
                break
        return best

    def distance(self, x) -> tuple[float, np.ndarray | None]:
        """Exact distance and one nearest point, scanning the cells in order:
        a later cell replaces the kept projection only when it is nearer by
        more than 1e-9.  (inf, None) for the empty region."""
        best, pt = math.inf, None
        for c in self.nonempty_cells():
            res = c.project(x)
            if res is not None and (pt is None or res[0] < best - 1e-9):
                best, pt = res
        return best, pt

    # -- transforms ---------------------------------------------------
    def affine_preimage(self, M, c) -> "Region":
        M = np.asarray(M, dtype=float)
        cells = [cell.affine_preimage(M, c) for cell in self.cells]
        return Region(cells, self.notes, M.shape[1])

    def intersect_orthocomplement(self, d) -> "Region":
        d = np.asarray(d, dtype=float).ravel()
        cells = [c.with_equality(d, 0.0) for c in self.cells]
        return Region(cells, self.notes, self.dim)

    def intersect(self, other: "Region") -> "Region":
        if other.dim != self.dim:
            raise RegionError("dimension mismatch in intersection")
        cells = [c1.intersect(c2) for c1 in self.cells for c2 in other.cells]
        return Region(cells, self.notes + other.notes, self.dim)

    def __repr__(self):
        return f"Region(dim={self.dim}, cells={len(self.cells)})"


# ---------------------------------------------------------------------------
# cone operations
# ---------------------------------------------------------------------------


def polar_cone(region: Region) -> Region:
    """Polar of a cone region.  Precondition: every nonempty cell of the
    region is homogeneous (right-hand sides within 1e-7 of zero); otherwise
    RegionError.  The polar of a union is the intersection of the member
    polars, a single convex cell, and the polar of the empty region is the
    whole space.  It is built afresh at every call; inside
    ``lp.reuse_scope`` the double description of each cell is shared."""
    cells = region.nonempty_cells()
    if not all(c.is_homogeneous(tol=1e-7) for c in cells):
        raise RegionError("polar_cone given a non-homogeneous cell")
    ineq_rows, eq_rows = [], []
    for cell in cells:
        # a cell whose equalities span the space is {0}, whose polar is the
        # whole space: it adds no row, and needs no double description
        if cell.E.shape[0] >= region.dim and np.linalg.matrix_rank(cell.E) == region.dim:
            continue
        gens = cell.generators()
        if gens is None:
            continue
        verts, rays, lines = gens
        if any(np.linalg.norm(v) > 1e-7 for v in verts):  # pragma: no cover - homogeneous cells
            raise RegionError("cone cell has a nonzero vertex")
        if rays.size:
            ineq_rows.append(rays)
        if lines.size:
            eq_rows.append(lines)
    A = np.vstack(ineq_rows) if ineq_rows else np.zeros((0, region.dim))
    E = np.vstack(eq_rows) if eq_rows else np.zeros((0, region.dim))
    return Region.from_cell(PolyCell(A, np.zeros(A.shape[0]), E, np.zeros(E.shape[0]),
                                     dim=region.dim))


def cone_hull(regions) -> Region:
    """Closed convex conic hull of one region or a list of cone regions.
    Inside ``lp.reuse_scope`` the double description of each cell is
    shared."""
    if isinstance(regions, Region):
        regions = [regions]
    regions = list(regions)
    if not regions:
        raise RegionError("cone_hull of nothing")
    dim = regions[0].dim
    if any(r.dim != dim for r in regions):
        raise RegionError("mixed dimensions in cone_hull")
    gens = [g for r in regions for g in r.cell_generators()]
    if not gens:
        return Region.empty(dim)
    rays, lines = [], []
    for V, R, L in gens:
        rays.extend(v for v in V if np.linalg.norm(v) > 1e-9)
        rays.extend(R)
        lines.extend(L)
    return Region.from_cell(PolyCell.cone(rays, lines, dim))


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def _cell_inside_cell(cell: PolyCell, other: PolyCell) -> bool:
    """True when every point of cell satisfies all rows of other."""
    for i in range(other.A.shape[0]):
        if cell.support(other.A[i]) > float(other.b[i]) + MARGIN_TOL:
            return False
    for j in range(other.E.shape[0]):
        for sgn in (1.0, -1.0):
            if cell.support(sgn * other.E[j]) > sgn * float(other.f[j]) + MARGIN_TOL:
                return False
    return True


def _cell_subset_of_union(cell: PolyCell, cover: tuple[PolyCell, ...]):
    """None when cell is covered by the union; otherwise a witness point.

    Enumerates one violated row per covering cell (equalities contribute
    their two one-sided violations), maximizing the joint margin by a
    depth-first search that prunes any partial choice already infeasible."""
    if cell.is_empty():
        return None
    relint = cell.relint_point()
    # cheap exits: the relint point escapes every cover, or one cover absorbs
    if relint is not None and all(not D.contains(relint[0], tol=MARGIN_TOL)
                                  for D in cover):
        return relint[0]
    pruned, seen = [], set()
    for D in cover:
        if D.is_empty() or cell.intersect(D).is_empty():
            continue  # nothing of cell to cover; no row needs violating
        key = (D.A.tobytes(), D.b.tobytes(), D.E.tobytes(), D.f.tobytes())
        if key in seen:
            continue
        seen.add(key)
        if _cell_inside_cell(cell, D):
            return None
        pruned.append(D)
    if not pruned:
        return cell.relint_point()[0]
    options = []
    for D in pruned:
        opts = [(D.A[i], D.b[i]) for i in range(D.A.shape[0])]
        for j in range(D.E.shape[0]):
            opts.append((D.E[j], D.f[j]))
            opts.append((-D.E[j], -D.f[j]))
        if not opts:
            return None  # an all-space cell covers everything
        options.append(opts)
    k = cell.A.shape[0]

    def search(idx, chosen):
        # x in cell with a x - beta >= t > 0 on every chosen (a, beta)
        out = _lp.max_margin(
            np.vstack([cell.A, *[-a for a, _ in chosen]]),
            np.concatenate([cell.b, [-float(beta) for _, beta in chosen]]),
            np.concatenate([np.zeros(k), np.ones(len(chosen))]), cell.E, cell.f)
        if out is None or out[0] <= MARGIN_TOL:
            return None  # the partial system is already covered; prune
        if idx == len(options):
            return out[1]
        for choice in options[idx]:
            hit = search(idx + 1, chosen + [choice])
            if hit is not None:
                return hit
        return None

    return search(0, [])


def region_subset(r1: Region, r2: Region):
    """(included, witness): witness is a point of r1 outside r2 if any."""
    if r1.dim != r2.dim:
        raise RegionError("dimension mismatch in region comparison")
    cover = r2.nonempty_cells()
    for cell in r1.nonempty_cells():
        w = _cell_subset_of_union(cell, cover)
        if w is not None:
            return False, w
    return True, None


# ---------------------------------------------------------------------------
# face complex and normal values of a polyhedral region
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionFace:
    """One closed face of the arrangement refinement of a region, with the
    constant Frechet normal value taken on its relative interior."""
    cell: PolyCell
    normal_cell: PolyCell
    sample: np.ndarray
    signs: tuple[int, ...]


def _hyperplanes_of(region: Region) -> list[tuple[np.ndarray, float]]:
    seen = {}
    for c in region.nonempty_cells():
        for a, beta in itertools.chain(zip(c.A, c.b), zip(c.E, c.f)):
            v = np.concatenate([a, [beta]])
            # canonical orientation: first significant entry positive
            for comp in v:
                if abs(comp) > 1e-12:
                    if comp < 0:
                        v = -v
                    break
            key = tuple(np.round(v, 9))
            seen.setdefault(key, (v[:-1], float(v[-1])))
    return list(seen.values())


def _sign_system(hyperplanes, signs, dim):
    """(A, b, E, f) of the cell on which each hyperplane a x = beta, paired
    with a sign, holds as a x <= beta (sign < 0), a x >= beta (sign > 0) or
    a x = beta (sign 0)."""
    rows, rhs, eq, eqr = [], [], [], []
    for (a, beta), s in zip(hyperplanes, signs):
        if s == 0:
            eq.append(a)
            eqr.append(beta)
        elif s < 0:
            rows.append(a)
            rhs.append(beta)
        else:
            rows.append(-a)
            rhs.append(-beta)
    return (np.reshape(rows, (-1, dim)), np.array(rhs, dtype=float),
            np.reshape(eq, (-1, dim)), np.array(eqr, dtype=float))


def _active_rows(cell: PolyCell, x: np.ndarray) -> list[int]:
    return [i for i in range(cell.A.shape[0]) if abs(float(cell.A[i] @ x) - cell.b[i]) <= 1e-8]


def region_face(region: Region, x) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """x's face of the region: for each nonempty cell holding x (to 1e-7),
    its index among ``region.nonempty_cells()`` and its inequality rows
    active at x (to 1e-8).  Empty when x lies outside the region.

    ``region_tangent_cone`` reads x only through this tuple, and from it
    takes rows of the region's own cells, so two points of one region with
    equal faces get bit-equal tangent cones, and so bit-equal polars and
    eps-proximal screens."""
    x = np.asarray(x, dtype=float).ravel()
    return tuple((k, tuple(_active_rows(cell, x)))
                 for k, cell in enumerate(region.nonempty_cells())
                 if cell.contains(x, tol=1e-7))


def region_tangent_cone(region: Region, x) -> Region:
    """Tangent cone of a polyhedral region at one of its points: per cell
    of x's face (``region_face``), its active inequality rows homogenized
    together with all its equalities."""
    face = region_face(region, x)
    if not face:
        raise RegionError("base point lies outside the region")
    cells = region.nonempty_cells()
    pieces = [PolyCell(cells[k].A[list(act)], np.zeros(len(act)), cells[k].E,
                       np.zeros(cells[k].E.shape[0]), dim=region.dim)
              for k, act in face]
    return Region(pieces, dim=region.dim)


def _frechet_value_at(region: Region, x: np.ndarray) -> PolyCell:
    """Frechet normal cone of the region at x, the polar of its tangent
    cone there, as one convex cone cell (the polar of a union of cells is
    the intersection of their polars)."""
    return polar_cone(region_tangent_cone(region, x)).cells[0]


def _content(region: Region):
    """The region as a reuse key: its dimension and the rows of its cells,
    all that the region operations read of it, never its notes or identity."""
    return region.dim, tuple((c.A, c.b, c.E, c.f) for c in region.cells)


def face_complex(region: Region) -> tuple[RegionFace, ...]:
    """All closed faces of the arrangement refinement that lie inside the
    region, each with its relative-interior sample and Frechet normal value.
    Its callers are the K-side region operations: ``lower_gen_support_detail``
    and the explicit-form probes in ``certify``.  Inside ``lp.reuse_scope``
    regions with equal cells share one result."""
    return _lp._reused("face_complex", _content(region),
                       lambda: _face_complex(region))


def _face_complex(region: Region) -> tuple[RegionFace, ...]:
    cells = region.nonempty_cells()
    if not cells:
        return ()
    dim = region.dim
    hps = _hyperplanes_of(region)
    if len(hps) > FACE_CAP:
        raise RegionError(f"face complex cap exceeded: {len(hps)} hyperplanes > {FACE_CAP}")
    faces: list[RegionFace] = []

    def rec(signs: list[int]):
        # max-margin relative-interior LP for the partial sign assignment
        A, b, E, f = _sign_system(hps, signs, dim)
        out = _lp.max_margin(A, b, np.ones(b.size), E, f)
        if out is None or out[0] <= 1e-7:
            return
        if len(signs) == len(hps):
            x = out[1]
            if not any(c.contains(x, tol=1e-9) for c in cells):
                return
            face = PolyCell(A, b, E, f, dim=dim)
            faces.append(RegionFace(face, _frechet_value_at(region, x), x, tuple(signs)))
            return
        for s in (0, -1, 1):
            signs.append(s)
            rec(signs)
            signs.pop()

    rec([])
    return tuple(faces)


# ---------------------------------------------------------------------------
# lower generalized support function
# ---------------------------------------------------------------------------


def _piece_contribution(face: RegionFace, lam: np.ndarray):
    """Contribution of one face to the lower limit, or None when the face
    is empty.  Returns (value, tilt_direction|None)."""
    gens = face.cell.generators()
    if gens is None:
        return None
    V, R, L = gens
    dirs = [r for r in R] + [l for l in L] + [-l for l in L]
    for r in dirs:
        s = float(lam @ r)
        if s < -1e-9:
            return -math.inf, None
    # tilt analysis: a recession direction with lam @ r == 0 forces the value
    # to -inf whenever lam can move inside the normal value against r
    N = face.normal_cell
    act = [i for i in range(N.A.shape[0]) if abs(N.A[i] @ lam) <= 1e-9]
    for r in dirs:
        if abs(float(lam @ r)) > 1e-9:
            continue
        # mu on N's active rows and equalities with r@mu + t <= 0, i.e. t <= -r@mu
        out = _lp.max_margin(np.vstack([N.A[act], r]), np.zeros(len(act) + 1),
                             np.append(np.zeros(len(act)), 1.0),
                             N.E, np.zeros(N.E.shape[0]))
        if out is not None and out[0] > 1e-8:
            return -math.inf, out[1]
    return min(float(lam @ v) for v in V), None


def _value_at(faces, lam: np.ndarray) -> float:
    """inf{<lam, u> : lam is a Frechet normal at u}: the direct (no lower
    limit) evaluation used by the perturbation cross-check."""
    best = math.inf
    for face in faces:
        if not face.normal_cell.contains(lam, tol=1e-9):
            continue
        v = -face.cell.support(-lam)
        if v == -math.inf:
            return v
        best = min(best, v)
    return best


def lower_gen_support_detail(region: Region, lam):
    """Lower generalized support of a polyhedral region at lam, as
    (value, notes): a float, -inf for an empty region and +inf when lam is
    a Frechet normal nowhere on it.

    Face-complex evaluation of the lower limit, including the lam-tilt
    effects on unbounded faces, cross-checked by direct evaluation along a
    shrinking perturbation schedule around lam.  Inside ``lp.reuse_scope``
    equal cells and lam share one result."""
    lam = np.asarray(lam, dtype=float).ravel()
    return _lp._reused("lower_gen_support", (_content(region), lam),
                       lambda: _lower_gen_support_detail(region, lam))


def _lower_gen_support_detail(region: Region, lam: np.ndarray):
    if lam.size != region.dim:
        raise RegionError("lam dimension mismatch")
    if region.is_empty():
        return -math.inf, ()
    faces = face_complex(region)
    value = math.inf
    tilt_dirs: list[np.ndarray] = []
    for face in faces:
        if not face.normal_cell.contains(lam, tol=1e-9):
            continue
        res = _piece_contribution(face, lam)
        if res is None:
            continue
        v, tilt = res
        if tilt is not None:
            tilt_dirs.append(tilt)
        value = min(value, v)

    # Perturbation-schedule cross check.  A -inf reading on any shell is a
    # genuine signal (on polyhedral data it persists as the radius shrinks);
    # finite readings are compared on the smallest shell only, since a shell
    # of radius r may be off by O(r) from the lower limit.
    notes: tuple[str, ...] = ()
    dirs = [np.eye(region.dim)[i] * s for i in range(region.dim) for s in (1.0, -1.0)]
    dirs += [d / np.linalg.norm(d) for d in tilt_dirs if np.linalg.norm(d) > 1e-12]
    center = _value_at(faces, lam)
    minus_inf_seen = center == -math.inf
    last_shell = math.inf
    for k in (4, 5, 6):
        radius = 10.0 ** (-k)
        last_shell = min((_value_at(faces, lam + radius * d) for d in dirs),
                         default=math.inf)
        if last_shell == -math.inf:
            minus_inf_seen = True
    est = -math.inf if minus_inf_seen else min(center, last_shell)
    if math.isfinite(value) and math.isfinite(est):
        agree = abs(value - est) <= 1e-4 * (1.0 + abs(value))
    else:
        agree = value == est
    if not agree:
        notes = (f"boundary-inconclusive: face-complex value {value!r} vs "
                 f"perturbation estimate {est!r}",)
    return value, notes
