"""Catalog of closed sets: constructive descriptions with exact distance.

The toolkit restricts K and S to a fixed catalog (intervals, boxes,
halfspaces, polyhedra, balls, points, unions, products) so that every
derived tangent/normal object is exactly representable; a finite set is
the union of its points.  Each kind has one membership test,
``contains_rows``, and one exact Euclidean projection, ``project_rows``,
which returns the distance and the first nearest point of each row:
unions take minima over members, products combine coordinatewise.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from .regions import PolyCell, Region

TOL = 1e-9
_UNBUILT = object()   # as_region not called yet; None is a valid region


class SetError(Exception):
    pass


def _vec(x, dim=None) -> np.ndarray:
    out = np.asarray(x, dtype=float).ravel()
    if dim is not None and out.size != dim:
        raise SetError(f"dimension mismatch: expected {dim}, got {out.size}")
    return out


def _check_finite(what: str, *parts) -> None:
    """Reject an infinite or NaN entry in a set's defining data; only
    interval and box endpoints may be infinite."""
    if not all(np.isfinite(part).all() for part in parts):
        raise SetError(f"non-finite entry in the {what} data")


def _rows(Y, dim) -> np.ndarray:
    Y = np.ascontiguousarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != dim:
        raise SetError(f"expected a (k, {dim}) array of points, got shape {Y.shape}")
    return Y


def _row_norms(Y) -> np.ndarray:
    """``np.linalg.norm(y)`` for each row y of Y, bit for bit.  The stacked
    (1, n) @ (n, 1) products go through the same BLAS dot as the 1-D
    ``y @ y``; ``(Y * Y).sum(axis=1)`` and ``np.linalg.norm(Y, axis=1)``
    sum in another order and can differ in the last bit."""
    return np.sqrt((Y[:, None, :] @ Y[..., None])[:, 0, 0])


def _row_products(Y, M) -> np.ndarray:
    """``y @ M`` for each row y of Y, bit for bit, as a (k, M.shape[1])
    array.  Each stacked (1, n) @ (n, m) product is the BLAS call of the
    one-row ``y[None] @ M``; the whole ``Y @ M`` is a blocked product that
    can differ in the last bit."""
    return (Y[:, None, :] @ M)[:, 0, :]


class BaseSet(ABC):
    """A nonempty closed subset of R^dim from the catalog.

    Every kind defines ``contains_rows`` and ``project_rows``; ``contains``
    and ``distance`` are their one-row cases."""

    dim: int
    kind: str
    _region = _UNBUILT

    def distance(self, y) -> tuple[float, np.ndarray]:
        """Exact distance and the first nearest point."""
        D, P = self.project_rows(_vec(y, self.dim)[None])
        return float(D[0]), P[0]

    def contains(self, y, tol: float = TOL) -> bool:
        return bool(self.contains_rows(_vec(y, self.dim)[None], tol)[0])

    @abstractmethod
    def contains_rows(self, Y, tol: float = TOL) -> np.ndarray:
        """Membership of each row of the (k, dim) array Y, as bool[k]; a
        row's result does not depend on the other rows."""

    @abstractmethod
    def project_rows(self, Y) -> tuple[np.ndarray, np.ndarray]:
        """Distances (k,) and first nearest points (k, dim) of each row of
        the (k, dim) array Y; a row's result does not depend on the other
        rows."""

    def is_convex(self) -> bool:
        return True

    def as_region(self) -> Region | None:
        """Polyhedral Region equal to the set, or None if a ball leaf
        prevents an exact polyhedral description.  Built on the first call
        and kept, since a catalog set does not change after construction."""
        if self._region is _UNBUILT:
            self._region = self._build_region()
        return self._region

    def _build_region(self) -> Region | None:
        return None

    def sample_near(self, x, delta: float, seed, count: int) -> list[np.ndarray]:
        """Members within delta of x: the first projections of count ambient
        draws, in one ``project_rows`` call, that lie within delta of x.

        Multiplicity: one entry per kept draw, so a point may repeat, except
        that a PointSet returns its point at most once.
        Seed: the draws come from ``np.random.default_rng(seed)``, built only
        when the set draws, so a PointSet builds no generator.  A Generator
        passes through unchanged; a caller must not rely on its position
        afterwards."""
        x = _vec(x, self.dim)
        # one bulk draw takes the same doubles, in the same order, as one
        # draw per point
        Z = x + np.random.default_rng(seed).uniform(-delta, delta, size=(count, self.dim))
        _, P = self.project_rows(Z)
        return list(P[_row_norms(P - x) <= delta + 1e-12])

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class Interval(BaseSet):
    kind = "interval"

    def __init__(self, lo: float, hi: float):
        lo, hi = float(lo), float(hi)
        if math.isnan(lo) or math.isnan(hi) or lo > hi:
            raise SetError(f"bad interval [{lo}, {hi}]")
        if math.isinf(lo) and lo > 0 or math.isinf(hi) and hi < 0:
            raise SetError("interval endpoints out of order")
        self.lo, self.hi = lo, hi
        self.dim = 1

    def contains_rows(self, Y, tol=TOL):
        v = _rows(Y, 1)[:, 0]
        return (self.lo - tol <= v) & (v <= self.hi + tol)

    def project_rows(self, Y):
        v = _rows(Y, 1)[:, 0]
        # the builtin max and min keep their first argument on ties
        p = np.where(self.lo > v, self.lo, v)
        p = np.where(self.hi < p, self.hi, p)
        return np.abs(v - p), p[:, None]

    def _build_region(self):
        rows, rhs = [], []
        if not math.isinf(self.hi):
            rows.append([1.0])
            rhs.append(self.hi)
        if not math.isinf(self.lo):
            rows.append([-1.0])
            rhs.append(-self.lo)
        return Region.from_cell(PolyCell(rows or None, rhs or None, dim=1))


class Box(BaseSet):
    kind = "box"

    def __init__(self, intervals):
        self.intervals = [iv if isinstance(iv, Interval) else Interval(*iv) for iv in intervals]
        if not self.intervals:
            raise SetError("box needs at least one coordinate interval")
        self.dim = len(self.intervals)
        self.lo = np.array([iv.lo for iv in self.intervals])
        self.hi = np.array([iv.hi for iv in self.intervals])

    def contains_rows(self, Y, tol=TOL):
        # Interval.contains_rows in every column
        Y = _rows(Y, self.dim)
        return ((self.lo - tol <= Y) & (Y <= self.hi + tol)).all(axis=1)

    def project_rows(self, Y):
        Y = _rows(Y, self.dim)
        P = np.hstack([iv.project_rows(Y[:, j:j + 1])[1]
                       for j, iv in enumerate(self.intervals)])
        return _row_norms(Y - P), P

    def _build_region(self):
        rows, rhs = [], []
        for i, iv in enumerate(self.intervals):
            e = np.zeros(self.dim)
            e[i] = 1.0
            if not math.isinf(iv.hi):
                rows.append(e.copy())
                rhs.append(iv.hi)
            if not math.isinf(iv.lo):
                rows.append(-e)
                rhs.append(-iv.lo)
        return Region.from_cell(PolyCell(np.array(rows) if rows else None,
                                         np.array(rhs) if rhs else None, dim=self.dim))


class Halfspace(BaseSet):
    kind = "halfspace"

    def __init__(self, normal, offset: float):
        self.normal = _vec(normal)
        self.offset = float(offset)
        _check_finite("halfspace", self.normal, self.offset)
        nr = float(np.linalg.norm(self.normal))
        if nr <= TOL:
            raise SetError("halfspace normal must be nonzero")
        self.dim = self.normal.size

    def contains_rows(self, Y, tol=TOL):
        slack = _row_products(_rows(Y, self.dim), self.normal[:, None])[:, 0]
        return slack <= self.offset + tol * np.linalg.norm(self.normal)

    def project_rows(self, Y):
        Y = _rows(Y, self.dim)
        slack = _row_products(Y, self.normal[:, None])[:, 0] - self.offset
        nr2 = float(self.normal @ self.normal)
        inside = slack <= 0
        P = Y.copy()
        out = ~inside
        P[out] = Y[out] - (slack[out] / nr2)[:, None] * self.normal
        return np.where(inside, 0.0, slack / math.sqrt(nr2)), P

    def _build_region(self):
        return Region.from_cell(PolyCell(self.normal.reshape(1, -1), [self.offset], dim=self.dim))


class Polyhedron(BaseSet):
    kind = "polyhedron"

    def __init__(self, rows=None, equalities=None, dim=None):
        rows = list(rows or [])
        equalities = list(equalities or [])
        if dim is None:
            src = rows or equalities
            if not src:
                raise SetError("polyhedron needs rows or an explicit dimension")
            dim = len(_vec(src[0][0]))
        self.dim = int(dim)
        self.rows = [(_vec(a, self.dim), float(b)) for a, b in rows]
        self.equalities = [(_vec(a, self.dim), float(b)) for a, b in equalities]
        _check_finite("polyhedron", *(part for row in self.rows + self.equalities
                                      for part in row))
        self.cell = PolyCell(
            np.array([a for a, _ in self.rows]) if rows else None,
            np.array([b for _, b in self.rows]) if rows else None,
            np.array([a for a, _ in self.equalities]) if equalities else None,
            np.array([b for _, b in self.equalities]) if equalities else None,
            dim=self.dim)
        if self.cell.is_empty():
            raise SetError("polyhedron is empty; catalog sets must be nonempty")

    def contains_rows(self, Y, tol=TOL):
        # PolyCell.contains_rows on one-row products, so that no row's bits
        # depend on the batch it came in
        Y = _rows(Y, self.dim)
        c = self.cell
        ok = (_row_products(Y, c.A.T) <= c.b + tol).all(axis=1)
        if c.E.shape[0]:
            ok &= (np.abs(_row_products(Y, c.E.T) - c.f) <= tol).all(axis=1)
        return ok

    def project_rows(self, Y):
        Y = _rows(Y, self.dim)
        D = np.empty(Y.shape[0])
        P = np.empty(Y.shape)
        for i, y in enumerate(Y):
            D[i], P[i] = self.cell.project(y)
        return D, P

    def _build_region(self):
        return Region.from_cell(self.cell)


class Ball(BaseSet):
    kind = "ball"

    def __init__(self, center, radius: float):
        self.center = _vec(center)
        self.radius = float(radius)
        _check_finite("ball", self.center, self.radius)
        if self.radius <= 0:
            raise SetError("ball radius must be positive")
        self.dim = self.center.size

    def contains_rows(self, Y, tol=TOL):
        return _row_norms(_rows(Y, self.dim) - self.center) <= self.radius + tol

    def project_rows(self, Y):
        Y = _rows(Y, self.dim)
        off = Y - self.center
        gap = _row_norms(off)
        inside = gap <= self.radius
        P = Y.copy()
        out = ~inside
        P[out] = self.center + (self.radius / gap[out])[:, None] * off[out]
        return np.where(inside, 0.0, gap - self.radius), P


class PointSet(BaseSet):
    """The singleton {x}.  sample_near returns [x], and builds no generator,
    when x lies within delta of the query point, else [], where the generic
    sampler returns x once per draw under the same test."""

    kind = "point"

    def __init__(self, x):
        self.x = _vec(x)
        _check_finite("point", self.x)
        self.dim = self.x.size

    def contains_rows(self, Y, tol=TOL):
        return _row_norms(_rows(Y, self.dim) - self.x) <= tol

    def project_rows(self, Y):
        Y = _rows(Y, self.dim)
        return _row_norms(Y - self.x), np.tile(self.x, (Y.shape[0], 1))

    def sample_near(self, x, delta, seed, count):
        x = _vec(x, self.dim)
        if count < 1 or not _row_norms((self.x - x)[None])[0] <= delta + 1e-12:
            return []
        return [self.x.copy()]

    def _build_region(self):
        return Region.from_point(self.x)


class UnionSet(BaseSet):
    kind = "union"

    def __init__(self, members):
        members = list(members)
        if not members:
            raise SetError("union needs at least one member")
        dim = members[0].dim
        for s in members:
            if s.dim != dim:
                raise SetError("union members must share a dimension")
        self.members = members
        self.dim = dim

    def contains_rows(self, Y, tol=TOL):
        Y = _rows(Y, self.dim)
        ok = np.zeros(Y.shape[0], dtype=bool)
        for s in self.members:
            ok |= s.contains_rows(Y, tol)
        return ok

    def project_rows(self, Y):
        Y = _rows(Y, self.dim)
        parts = [s.project_rows(Y) for s in self.members]
        best = parts[0][0]
        for d, _ in parts[1:]:
            best = np.where(d < best, d, best)   # the builtin min, NaN included
        # the first projection of the first member inside the tie window
        P = np.full(Y.shape, np.nan)
        open_ = np.ones(Y.shape[0], dtype=bool)
        for d, ps in parts:
            take = open_ & (d <= best + TOL)
            P[take] = ps[take]
            open_ &= ~take
        return best, P

    def is_convex(self):
        return len(self.members) == 1 and self.members[0].is_convex()

    def _build_region(self):
        regions = [s.as_region() for s in self.members]
        if any(r is None for r in regions):
            return None
        return regions[0].union(*regions[1:])


class ProductSet(BaseSet):
    kind = "product"

    def __init__(self, factors):
        factors = list(factors)
        if not factors:
            raise SetError("product needs at least one factor")
        self.factors = factors
        self.dim = sum(s.dim for s in factors)
        self.offsets = np.cumsum([0] + [s.dim for s in factors])

    def split(self, y) -> list[np.ndarray]:
        y = _vec(y, self.dim)
        return [y[self.offsets[i]:self.offsets[i + 1]] for i in range(len(self.factors))]

    def contains_rows(self, Y, tol=TOL):
        Y = _rows(Y, self.dim)
        ok = np.ones(Y.shape[0], dtype=bool)
        for i, s in enumerate(self.factors):
            ok &= s.contains_rows(Y[:, self.offsets[i]:self.offsets[i + 1]], tol)
        return ok

    def project_rows(self, Y):
        Y = _rows(Y, self.dim)
        total2 = np.zeros(Y.shape[0])
        parts = []
        for i, s in enumerate(self.factors):
            d, p = s.project_rows(Y[:, self.offsets[i]:self.offsets[i + 1]])
            total2 += d * d   # summed in factor order
            parts.append(p)
        return np.sqrt(total2), np.hstack(parts)

    def is_convex(self):
        return all(s.is_convex() for s in self.factors)

    def _build_region(self):
        regs = [s.as_region() for s in self.factors]
        if any(r is None for r in regs):
            return None
        return Region.product(regs)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def flatten_union(s: BaseSet) -> list[BaseSet]:
    """Member list of a set viewed as a finite union (non-unions are
    singleton lists; nested unions are flattened)."""
    if isinstance(s, UnionSet):
        out = []
        for m in s.members:
            out.extend(flatten_union(m))
        return out
    return [s]
