"""Definition-based numeric ground truth.

Everything here works from raw membership and distance evaluations, never
from the closed-form cone algebra, so it can arbitrate the analytic modules.
Sampling is deterministic under the caller's seed: every operation always
draws, so it derives its generator from polyexpr.rng_for (the stream
polyexpr.seed_for names, under a fixed per-operation tag) and draws each of
its random quantities once, as one array over all trials.
The proposals built from those draws, the Gauss-Newton pullback and the
membership and distance tests run on row batches, each row stopping on
its own criteria, so every result equals the one a point-by-point loop
over the same draws would give.  Sampled points are handed on as the rows
of one (k, n) array.  The pullback hands back g at the rows it returns,
bit for bit ``ProblemInstance.g_value_rows`` of them, so its callers never
evaluate g again at a pulled row.  A feasible sample has g(x) in K at
tolerance 0, so a growth ratio it refutes rests on a point of the feasible
set, not on a constraint slack.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .sets import BaseSet, _row_norms
from .polyexpr import ProblemInstance, rng_for
from . import tangents as _tangents


class OracleError(Exception):
    pass


# the geometric steps t_k = 0.1 * 0.5^k, k = 0..19, of the sequence probes,
# and the slower rates r_k = t_k^(2/3); np.float_power is the libm pow of
# the scalar ``t ** (2 / 3)`` (the array ** is not)
STEPS = 0.1 * 0.5 ** np.arange(20)
RATES = np.float_power(STEPS, 2.0 / 3.0)


# ---------------------------------------------------------------------------
# membership by definition
# ---------------------------------------------------------------------------


def membership_by_definition(s: BaseSet, y, d, w, kind: str) -> str:
    """Test w against the sequence definition of a tangent object at y.

    The steps t_k are ``STEPS``, t_k = 0.1 * 0.5^k for k = 0..19, each
    paired with the slower rate r_k = t_k^(2/3), so that t_k / r_k -> 0.
    kind 'tangent' probes y + t_k w; 'outer2' probes y + t_k d + t_k^2/2 w;
    'asymp2' probes y + t_k d + t_k r_k / 2 w.  The 20 probes are one row
    batch, measured by one ``project_rows`` call.  The w_k -> w quantifier lets
    each probe be corrected by a shrinking multiple radius_k of the step
    scale, so the test compares dist(probe, set)/scale against radius_k.
    Distances carry a trust interval of about 1e-12 around the probe, and
    every comparison is made on that interval: 'confirmed' needs the probes
    to land inside the set at float resolution from the anchor term on
    (earlier terms may still lean on the correction allowance), 'rejected'
    needs the distance ratio to provably exceed the allowance on the tail,
    and anything the intervals cannot separate is 'boundary-inconclusive'.
    """
    if kind not in ("tangent", "outer2", "asymp2"):
        raise OracleError(f"unknown membership kind {kind!r}")
    y = np.asarray(y, dtype=float).ravel()
    w = np.asarray(w, dtype=float).ravel()
    d = np.zeros(y.size) if d is None else np.asarray(d, dtype=float).ravel()
    if not s.contains(y, tol=1e-7):
        raise OracleError("base point does not belong to the set")
    if kind != "tangent" and float(np.linalg.norm(d)) <= 1e-12:
        kind = "tangent"  # the defining sequences reduce to plain tangency
    anchor = 3 if kind == "tangent" else 2
    # a member's residual offset per unit scale shrinks like t for the tangent
    # and outer probes but only like t^(1/3) under the asymptotic pairing, so
    # the correction allowance must decay more slowly in that case
    decay = 0.85 if kind == "asymp2" else 0.6
    if kind == "tangent":
        scales = STEPS
        X = y + scales[:, None] * w
    else:
        scales = 0.5 * STEPS * (STEPS if kind == "outer2" else RATES)
        X = y + STEPS[:, None] * d + scales[:, None] * w
    dist, _ = s.project_rows(X)
    res = 8e-12 * (1.0 + _row_norms(X))
    radius = np.maximum(0.5 * (1.0 + float(np.linalg.norm(w)))
                        * np.float_power(decay, np.arange(STEPS.size)), 1e-6)
    ub = (dist + res) / scales
    lb = np.maximum(dist - res, 0.0) / scales
    # terms whose trust interval straddles the allowance are dropped
    within = ub <= radius
    beyond = ~within & (lb > radius)
    informative = np.flatnonzero(within | beyond)
    if informative.size < 4:
        return "boundary-inconclusive"
    if not beyond.any() and not (within & (dist > res))[anchor:].any():
        return "confirmed"
    tail = informative[-5:]
    if beyond[tail].all() and lb[tail].min() > 1e-6:
        return "rejected"
    return "boundary-inconclusive"


# ---------------------------------------------------------------------------
# feasible-set sampling
# ---------------------------------------------------------------------------


def _unit_rows(U: np.ndarray) -> np.ndarray:
    """Each row u of U as u / max(|u|, 1e-12), bit for bit the scalar
    form: _row_norms is the BLAS dot of np.linalg.norm."""
    return U / np.maximum(_row_norms(U), 1e-12)[:, None]


def _ball_rows(center: np.ndarray, radius: float, U: np.ndarray,
               R: np.ndarray) -> np.ndarray:
    """Points of the ball about center, one per unit row of U and entry
    of the uniform draws R, at the distance radius * R[i]^(1/n).  Each row
    equals, bit for bit, the one point computed from its draws alone:
    np.float_power is the libm pow of the scalar ** (the array ** is
    not)."""
    return center + (radius * np.float_power(R, 1.0 / center.size))[:, None] * U


def _check_count(count: int) -> None:
    if count < 1:
        raise OracleError(f"count must be at least 1, got {count}")


def _gauss_newton_step(J: np.ndarray, R: np.ndarray) -> np.ndarray:
    """The step pinv(J) r for each (m, n) Jacobian of the (k, m, n) array J
    and residual row r of the (k, m) array R, as a (k, n) array.  With one
    constraint the pseudoinverse of the row j is j^T / |j|^2, so the step
    is j (r / |j|^2), and zero where |j|^2 = 0 as pinv gives for a zero
    row; |j|^2 is the stacked one-row product, the BLAS dot of the scalar
    ``j @ j``.  With m >= 2 it is the stacked ``np.linalg.pinv(J,
    rcond=1e-10) @ r``."""
    if J.shape[1] == 1:
        j = J[:, 0, :]
        jj = (j[:, None, :] @ j[..., None])[:, 0, 0]
        return j * np.divide(R[:, 0], jj, out=np.zeros(jj.size), where=jj != 0.0)[:, None]
    return (np.linalg.pinv(J, rcond=1e-10) @ R[:, :, None])[:, :, 0]


def _gauss_newton_rows(p: ProblemInstance, X: np.ndarray,
                       iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Pull each row of X toward the feasible set by correcting the
    constraint residual g(x) - proj_K(g(x)) along the Jacobian
    pseudoinverse (``_gauss_newton_step``).  A row stops once g(x) lies in
    K (tol 1e-10) or its step is not finite; the others go on, up to iters
    steps, in one working array, and each row is written back when it
    stops.  Returns the rows and g at them: a stopped row's values are
    those of its last jet, and a row still moving after iters steps is
    evaluated once more, so G equals ``p.g_value_rows`` of the rows bit
    for bit."""
    X = np.array(X, dtype=float)
    G = np.empty((X.shape[0], p.m))
    active, W = np.arange(X.shape[0]), X
    for _ in range(iters):
        GW, J = p.g_jet_rows(W)
        go = ~p.K.contains_rows(GW, tol=1e-10)
        if go.any():
            _, proj = p.K.project_rows(GW[go])
            step = _gauss_newton_step(J[go], GW[go] - proj)
            # column by column: a row reduction over a few columns costs
            # more than the columns themselves
            finite = np.logical_and.reduce([np.isfinite(c) for c in step.T])
            go[go] = finite
        stop = ~go
        X[active[stop]], G[active[stop]] = W[stop], GW[stop]
        if not go.any():
            return X, G
        active, W = active[go], W[go] - step[finite]
    X[active], G[active] = W, p.g_value_rows(W)
    return X, G


def sample_feasible(p: ProblemInstance, delta: float, count: int, seed: int) -> np.ndarray:
    """Deterministic points of the feasible set within delta of xbar, as
    the rows of a (hits, n) array in trial order, by rejection sampling
    plus boundary-biased Gauss-Newton proposals (every odd trial is pulled
    toward the feasible set).  The trials' normal n-vectors are drawn
    first, then their uniforms.  A trial is kept only if g(x) lies in K at
    tolerance 0: the pullback stops within 1e-10 of K, and a pulled trial
    that stops outside K is dropped.  g is evaluated only at the unpulled
    trials; a pulled trial is tested on the values the pullback hands back,
    which equal g at it bit for bit."""
    if delta <= 0:
        raise OracleError("delta must be positive")
    _check_count(count)
    rng = rng_for(seed, 1)
    U = rng.standard_normal((count, p.n))
    X = _ball_rows(p.xbar, delta, _unit_rows(U), rng.random(count))
    G = np.empty((count, p.m))
    G[0::2] = p.g_value_rows(X[0::2])
    X[1::2], G[1::2] = _gauss_newton_rows(p, X[1::2], 25)
    keep = np.ones(count, dtype=bool)
    keep[1::2] = ~(_row_norms(X[1::2] - p.xbar) > delta)
    keep[keep] = p.K.contains_rows(G[keep], tol=0.0)
    hits = X[keep]
    if hits.shape[0] < max(1, count // 100):
        raise OracleError("thin feasible set: "
                          f"{hits.shape[0]} hits out of {count} proposals")
    return hits


# ---------------------------------------------------------------------------
# growth constant
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class GrowthEstimate:
    kappa_hat: float
    witness: np.ndarray | None
    sample_count: int
    delta: float


def growth_constant_estimate(p: ProblemInstance, delta: float, count: int,
                             seed: int) -> GrowthEstimate:
    """Smallest observed (f(x) - f(xbar)) / dist(x, S)^2 over feasible
    samples at positive distance from S.  A negative value is a numeric
    certificate against second-order weak sharpness on this neighborhood."""
    X = sample_feasible(p, delta, count, seed)
    dist, _ = p.S.project_rows(X)
    far = ~(dist <= 1e-6)
    X, dist = X[far], dist[far]
    ratio = (p.f.eval_rows(X) - p.f(p.xbar)) / (dist * dist)
    # the first strict minimum in sample order; NaN and +inf never win
    wins = ratio < math.inf
    if not wins.any():
        return GrowthEstimate(math.inf, None, X.shape[0], delta)
    first = int(np.flatnonzero(wins & (ratio == ratio[wins].min()))[0])
    return GrowthEstimate(float(ratio[first]), X[first], X.shape[0], delta)


# ---------------------------------------------------------------------------
# metric subregularity modulus
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class MscqEstimate:
    kappa_hat: float | None
    diverged: bool
    witness: np.ndarray | None
    sample_count: int


def _in_directional_rows(Z: np.ndarray, d: np.ndarray, rho: float,
                         delta: float) -> np.ndarray:
    """The two-branch membership test for V_{rho,delta}(d) on each row z
    of Z, as bool[k]: a plain delta-ball when d = 0, otherwise additionally
    || |d| z - |z| d || <= rho |z| |d| (the displacement stays
    directionally aligned with d)."""
    nz = _row_norms(Z)
    inside = ~(nz > delta)
    nd = float(np.linalg.norm(d))
    if nd <= 1e-12:
        return inside
    return inside & (_row_norms(nd * Z - nz[:, None] * d) <= rho * nz * nd + 1e-12)


_MSCQ_BLOCK = 128


def _feasible_distances(p: ProblemInstance, X: np.ndarray) -> np.ndarray:
    """Upper estimates of dist(x, g^{-1}(K)) for each row x of X, by
    Gauss-Newton pullback refined by a line search back toward x: each of
    21 evenly spaced points between x and its pullback is pulled again,
    and the shortest pull that lands in K wins.  Both pulls are tested on
    the g values they hand back.  Rows whose first pullback fails get
    inf."""
    Y, GY = _gauss_newton_rows(p, X, 50)
    best = np.full(X.shape[0], math.inf)
    ok = p.K.contains_rows(GY, tol=1e-9)
    X, Y = X[ok], Y[ok]
    fracs = np.linspace(0.0, 1.0, 21)
    Z = X[:, None, :] + fracs[None, :, None] * (Y - X)[:, None, :]
    Z, GZ = _gauss_newton_rows(p, Z.reshape(-1, X.shape[1]), 15)
    hit = p.K.contains_rows(GZ, tol=1e-9).reshape(-1, fracs.size)
    dz = _row_norms(Z - np.repeat(X, fracs.size, axis=0)).reshape(-1, fracs.size)
    # the shortest hit; a min is exact, so this is the line search's own
    best[ok] = np.minimum(_row_norms(Y - X), np.where(hit, dz, math.inf).min(axis=1))
    return best


def mscq_modulus_estimate(p: ProblemInstance, x, d, rho: float, delta: float,
                          count: int, seed: int) -> MscqEstimate:
    """Max observed dist(x', Phi) / dist(g(x'), K) over x' in the
    directional neighborhood x + V_{rho,delta}(d); flags divergence when the
    ratios blow past 1e6 as the samples approach x.  Every candidate
    draws a scale, a branch, a normal n-vector (its tilt, or its ball
    point's direction), a radius and a shrink; each quantity is drawn for
    all candidates at once, in that order."""
    x = np.asarray(x, dtype=float).ravel()
    d = np.asarray(d, dtype=float).ravel()
    _check_count(count)
    if not p.K.contains(p.g_value(x), tol=1e-7):
        raise OracleError("base point is infeasible")
    rng = rng_for(seed, 2)
    nd = float(np.linalg.norm(d))
    scale = delta * rng.random(count) ** 2  # bias toward x, where blowups live
    tilted = (rng.random(count) < 0.8) & (nd > 1e-12)
    U = _unit_rows(rng.standard_normal((count, x.size)))
    radius, shrink = rng.random(count), rng.random(count)
    Z = np.empty((count, x.size))
    if tilted.any():
        Z[tilted] = scale[tilted, None] * (d / nd + 0.45 * rho * U[tilted])
    ball = ~tilted
    Z[ball] = (_ball_rows(np.zeros(x.size), delta, U[ball], radius[ball])
               * shrink[ball, None])
    XP = x + Z[_in_directional_rows(Z, d, rho, delta)]
    resid, _ = p.K.project_rows(p.g_value_rows(XP))
    outside = ~(resid <= 1e-12)
    XP, resid = XP[outside], resid[outside]
    best = 0.0
    witness = None
    used = 0
    # blocks in draw order bound the line-search stack (21 rows a sample)
    # and stop the pullbacks at the first block that diverges
    for lo in range(0, XP.shape[0], _MSCQ_BLOCK):
        block = slice(lo, lo + _MSCQ_BLOCK)
        for xp, fd, r in zip(XP[block], _feasible_distances(p, XP[block]), resid[block]):
            if not math.isfinite(fd):
                continue  # pullback failed; no distance estimate for this sample
            used += 1
            ratio = float(fd / r)
            if ratio > best:
                best = ratio
                witness = xp
            if ratio > 1e6:
                return MscqEstimate(None, True, xp, used)
    return MscqEstimate(best, False, witness, used)


# ---------------------------------------------------------------------------
# proximal distance inequality
# ---------------------------------------------------------------------------


def proximal_distance_check(S: BaseSet, x, d, eps: float):
    """Verify dist(x + t d, S) >= t (1 - 2 eps) ||d|| along the schedule.
    Requires d to be an eps-proximal normal at x; returns (passed,
    violating_t or None)."""
    x = np.asarray(x, dtype=float).ravel()
    d = np.asarray(d, dtype=float).ravel()
    if not _tangents.eps_proximal_membership(S, x, d, eps):
        raise OracleError("d is not an eps-proximal normal direction at x")
    nd = float(np.linalg.norm(d))
    dists, _ = S.project_rows(x + STEPS[:, None] * d)
    short = np.flatnonzero(dists < STEPS * (1.0 - 2.0 * eps) * nd - 1e-9)
    return (True, None) if not short.size else (False, float(STEPS[short[0]]))
