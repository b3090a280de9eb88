"""Polynomial problem data: parsing, exact second-order jets, instances.

Grammar (division deliberately omitted, polynomials only):

    expr   := term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := base ("^" nonneg-integer)?
    base   := real | identifier | "(" expr ")" | "-" base

Identifiers are x1..xn.  Note the precedence consequence: in "-x1^2" the
leading minus binds inside the base, so the factor is (-x1)^2, not -(x1^2).

Expressions are normalized to a monomial-coefficient map, an exact
representation of the tree's arithmetic reading, so differentiation is exact
polynomial algebra with no truncation beyond float rounding.
"""
from __future__ import annotations

import dataclasses
import math
import re

import numpy as np

from .sets import BaseSet


class ParseError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


class ModelError(Exception):
    pass


# -- tokenizer --------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
                       r"|\d+(?:[eE][+-]?\d+)?)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()/]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
        if m.group(1) is not None:
            tokens.append(("num", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# -- monomial algebra -------------------------------------------------------
# a polynomial is {monomial: coefficient}; a monomial is a sorted tuple of
# (variable index, exponent) pairs with positive exponents

_ZERO = ()


def _p_const(c: float) -> dict:
    return {_ZERO: float(c)} if c != 0.0 else {}


def _p_var(i: int) -> dict:
    return {((i, 1),): 1.0}


def _p_add(p: dict, q: dict, sign: float = 1.0) -> dict:
    out = dict(p)
    for mono, c in q.items():
        out[mono] = out.get(mono, 0.0) + sign * c
        if out[mono] == 0.0:
            del out[mono]
    return out


def _m_mul(m1: tuple, m2: tuple) -> tuple:
    exps: dict[int, int] = {}
    for i, e in m1 + m2:
        exps[i] = exps.get(i, 0) + e
    return tuple(sorted(exps.items()))


def _p_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = _m_mul(m1, m2)
            out[mono] = out.get(mono, 0.0) + c1 * c2
    return {m: c for m, c in out.items() if c != 0.0}


def _p_pow(p: dict, k: int) -> dict:
    out = _p_const(1.0)
    for _ in range(k):
        out = _p_mul(out, p)
    return out


# -- parser -----------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> dict:
        out = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            out = _p_add(out, self.term(), 1.0 if op == "+" else -1.0)
        return out

    def term(self) -> dict:
        out = self.factor()
        while self.peek()[:2] == ("op", "*"):
            self.take()
            out = _p_mul(out, self.factor())
        return out

    def factor(self) -> dict:
        out = self.base()
        if self.peek()[:2] == ("op", "^"):
            self.take()
            kind, val, pos = self.peek()
            if kind != "num" or not val.isdigit():
                raise ParseError("exponent must be a nonnegative integer; "
                                 "fractional and negative powers are not polynomials", pos)
            self.take()
            out = _p_pow(out, int(val))
        return out

    def base(self) -> dict:
        kind, val, pos = self.take()
        if kind == "num":
            return _p_const(float(val))
        if kind == "name":
            m = re.fullmatch(r"x([1-9][0-9]*)", val)
            if m is None:
                raise ParseError(f"unknown identifier {val!r} (variables are x1, x2, ...)", pos)
            return _p_var(int(m.group(1)))
        if kind == "op" and val == "-":
            return _p_add({}, self.base(), -1.0)
        if kind == "op" and val == "(":
            out = self.expr()
            kind2, val2, pos2 = self.take()
            if (kind2, val2) != ("op", ")"):
                raise ParseError("expected ')'", pos2)
            return out
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)


class PolyExpr:
    """A polynomial over x1..xn in exact monomial form."""

    __slots__ = ("nvars", "terms", "text")

    def __init__(self, terms: dict, nvars: int, text: str = ""):
        self.terms = dict(terms)
        self.nvars = int(nvars)
        self.text = text

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float).ravel()
        total = 0.0
        for mono, c in self.terms.items():
            v = c
            for i, e in mono:
                v *= x[i - 1] ** e
            total += v
        return float(total)

    def eval_rows(self, X) -> np.ndarray:
        """Values at each row of the (k, nvars) array X, bit for bit the
        values of ``self(x)`` row by row."""
        X = _point_rows(X, self.nvars)
        total = np.zeros(X.shape[0])
        powers: dict = {}
        for mono, c in self.terms.items():
            total += _mono_rows(mono, c, X, powers)
        return total

    def __repr__(self):
        return f"PolyExpr({self.text!r})" if self.text else f"PolyExpr(<{len(self.terms)} terms>)"


def parse_expression(text: str, nvars: int | None = None) -> PolyExpr:
    parser = _Parser(text)
    terms = parser.expr()
    kind, val, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {val!r}", pos)
    seen = max((i for m in terms for i, _ in m), default=0)
    if nvars is None:
        nvars = max(seen, 1)
    elif seen > nvars:
        raise ParseError(f"variable x{seen} exceeds the declared dimension {nvars}", 0)
    return PolyExpr(terms, nvars, text)


# -- jets -------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Jet2:
    """Values, Jacobian and per-component Hessians at a point."""
    values: np.ndarray        # (m,)
    jacobian: np.ndarray      # (m, n)
    hessians: tuple           # m symmetric (n, n) arrays

    def __post_init__(self):
        for H in self.hessians:
            if float(np.max(np.abs(H - H.T))) > 1e-12:
                raise ModelError("Hessian is not symmetric")

    @property
    def value(self) -> float:
        return float(self.values[0])

    @property
    def gradient(self) -> np.ndarray:
        return self.jacobian[0]

    @property
    def hessian(self) -> np.ndarray:
        return self.hessians[0]


def _mono_eval(mono, c, x):
    v = c
    for i, e in mono:
        v *= x[i - 1] ** e
    return v


def _mono_rows(mono, c, X, powers):
    """_mono_eval on each row of X.  np.float_power calls the same libm pow
    as the scalar ``x ** e``; the array ``**`` takes faster paths that
    differ in the last bit.  ``powers`` shares the column powers of one
    evaluation across monomials."""
    v = np.full(X.shape[0], c)
    for i, e in mono:
        pw = powers.get((i, e))
        if pw is None:
            pw = powers[(i, e)] = np.float_power(X[:, i - 1], e)
        v *= pw
    return v


def _d_mono(mono, i):
    """The monomial left after differentiating mono once in x_i."""
    dm = tuple((j, (ej - 1 if j == i else ej)) for j, ej in mono)
    return tuple((j, ej) for j, ej in dm if ej > 0)


def _point_rows(X, n):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < n:
        raise ModelError(f"expected a (k, n) array of points with n >= {n}, "
                         f"got shape {X.shape}")
    return X


def _jet_one(e: PolyExpr, x: np.ndarray, n: int):
    val = 0.0
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    for mono, c in e.terms.items():
        val += _mono_eval(mono, c, x)
        for i, ei in mono:
            grad[i - 1] += _mono_eval(_d_mono(mono, i), c * ei, x)
            for j, ej in mono:
                factor = ei * (ei - 1) if j == i else ei * ej
                if factor == 0:
                    continue
                dd: dict[int, int] = {k: ek for k, ek in mono}
                dd[i] -= 1
                dd[j] -= 1
                ddm = tuple(sorted((k, ek) for k, ek in dd.items() if ek > 0))
                hess[i - 1, j - 1] += _mono_eval(ddm, c * factor, x)
    hess = 0.5 * (hess + hess.T)  # scrub float asymmetry from mixed terms
    return val, grad, hess


def evaluate_jet(e, x) -> Jet2:
    """Exact value/Jacobian/Hessians of a PolyExpr or a list of them."""
    exprs = list(e) if isinstance(e, (list, tuple)) else [e]
    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    for ex in exprs:
        if ex.nvars > n:
            raise ModelError(f"expression uses x{ex.nvars} but the point has dimension {n}")
    vals, grads, hesses = [], [], []
    for ex in exprs:
        v, gr, H = _jet_one(ex, x, n)
        vals.append(v)
        grads.append(gr)
        hesses.append(H)
    return Jet2(np.array(vals), np.array(grads), tuple(hesses))


def value_gradient_rows(e: PolyExpr, X) -> tuple[np.ndarray, np.ndarray]:
    """Values (k,) and gradients (k, n) at each row of the (k, n) array X,
    bit for bit the value and gradient of ``evaluate_jet(e, x)`` row by
    row; no Hessians."""
    X = _point_rows(X, e.nvars)
    vals = np.zeros(X.shape[0])
    grads = np.zeros(X.shape)
    powers: dict = {}
    for mono, c in e.terms.items():
        vals += _mono_rows(mono, c, X, powers)
        for i, ei in mono:
            grads[:, i - 1] += _mono_rows(_d_mono(mono, i), c * ei, X, powers)
    return vals, grads


# -- problem container ------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Options:
    epsilon: float = 0.0
    delta: float = 0.25
    kappa: float | None = None
    seed: int = 42
    tolerance: float = 1e-9
    rho: float = 0.5

    def __post_init__(self):
        for name in ("epsilon", "delta", "rho", "kappa"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ModelError(f"{name} must be finite, got {value}")
        if not 0.0 <= self.epsilon < 0.5:
            raise ModelError("epsilon must lie in [0, 1/2)")
        if self.delta <= 0.0:
            raise ModelError("delta must be positive")
        if self.rho <= 0.0:
            raise ModelError("rho must be positive")
        if self.kappa is not None and self.kappa <= 0.0:
            raise ModelError("kappa must be positive when given")
        if self.seed < 0:
            raise ModelError("seed must be nonnegative")


# compared and hashed by identity: per-point memo keys hold the instance
@dataclasses.dataclass(frozen=True, eq=False)
class ProblemInstance:
    n: int
    m: int
    f: PolyExpr
    g: tuple
    K: BaseSet
    S: BaseSet
    xbar: np.ndarray
    options: Options = Options()

    def __post_init__(self):
        object.__setattr__(self, "g", tuple(self.g))
        object.__setattr__(self, "xbar", np.asarray(self.xbar, dtype=float).ravel())
        if self.n < 1 or self.m < 1:
            raise ModelError("n and m must be positive")
        if len(self.g) != self.m:
            raise ModelError(f"expected {self.m} constraint components, got {len(self.g)}")
        if self.K.dim != self.m or self.S.dim != self.n:
            raise ModelError("K/S dimensions do not match m/n")
        if self.xbar.size != self.n:
            raise ModelError("xbar dimension does not match n")
        gx = self.g_value(self.xbar)
        if not self.K.contains(gx, tol=1e-7):
            raise ModelError("xbar is infeasible: g(xbar) lies outside K")
        if not self.S.contains(self.xbar, tol=1e-7):
            raise ModelError("xbar does not belong to S")
        rng = np.random.default_rng(self.options.seed ^ 0x5F5F)
        bad = self.first_infeasible(
            self.S.sample_near(self.xbar, max(2.0 * self.options.delta, 1.0), rng, 25),
            tol=1e-6)
        if bad is not None:
            raise ModelError("reference set is not contained in the feasible set "
                             f"(violation at {np.round(bad, 6).tolist()})")

    def first_infeasible(self, points, tol: float) -> np.ndarray | None:
        """The first of the n-vectors in points whose g value lies outside
        K (tol), or None.  The points are tested as one row batch, with
        the result of testing them one at a time."""
        P = np.reshape(points, (-1, self.n))
        out = np.flatnonzero(~self.K.contains_rows(self.g_value_rows(P), tol=tol))
        return P[out[0]] if out.size else None

    def g_value(self, x) -> np.ndarray:
        return np.array([gi(x) for gi in self.g])

    def g_value_rows(self, X) -> np.ndarray:
        """g at each row of the (k, n) array X, as a (k, m) array."""
        return np.stack([gi.eval_rows(X) for gi in self.g], axis=1)

    def g_jet_rows(self, X) -> tuple[np.ndarray, np.ndarray]:
        """g and its Jacobian at each row of the (k, n) array X, as (k, m)
        and (k, m, n) arrays; no Hessians."""
        parts = [value_gradient_rows(gi, X) for gi in self.g]
        return (np.stack([v for v, _ in parts], axis=1),
                np.stack([G for _, G in parts], axis=1))

    def f_jet(self, x) -> Jet2:
        return evaluate_jet(self.f, np.asarray(x, dtype=float))

    def g_jet(self, x) -> Jet2:
        return evaluate_jet(list(self.g), np.asarray(x, dtype=float))
