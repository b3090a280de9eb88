"""Seeded problem documents, their closed-form ground truth, and job lists.

Every instance is a polynomial program (min f s.t. g(x) in K, reference set
S = {xbar}) whose growth constant

    kappa* = inf (f(x) - f(xbar)) / dist(x, S)^2   over feasible x near xbar

is known in closed form:

* the three paper fixtures (first_example 1, parabola 1, second_example -0.5);
* the lifted parabola f = x_n, g = sum a_i x_i^2 - x_n <= 0, kappa* = min a_i;
* the quadratic f = sum c_i x_i^2 over the half-space x_1 <= 0,
  kappa* = min c_i.

The seed draws the curvatures a_i, c_i, the requested constants, the probe
directions and the program's own sampling seed.  The shape of every job list
(which instances, dimensions, subcommands and flags) is fixed, so two seeds
do the same kind and amount of work and their timings are comparable.
"""
from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("necessary_sweep", "sufficient_check", "oracle_sampling")

#: A second seed, kept out of tuning, for held-out confirmation of a claim.
HELD_OUT_SEED = 20250717

FAMILY_DIMS = (2, 3, 4)
FAMILY_DELTA = 0.05       # sampling radius of the generated family documents
CURVATURE_RANGE = (0.5, 2.0)
KAPPA_BELOW = (0.3, 0.7)  # requested constant as a share of the truth
KAPPA_ABOVE = (1.5, 2.5)

ORACLE_COUNT = 1000       # verify-growth and oracle --op feasible
MSCQ_COUNT = 100          # oracle --op mscq

NECESSARY_FORMS = (("implicit", "proximal"), ("implicit", "tangent-distance"),
                   ("explicit", None), ("clarke", None))
CQ_KINDS = ("foscms", "soscms", "dirrcq", "nondeg")


@dataclasses.dataclass(frozen=True)
class Instance:
    """One generated problem document with its ground truth."""

    name: str
    doc: dict
    truth: float                                # limiting growth constant kappa*
    g: Callable[[np.ndarray], np.ndarray]       # closed form, not the program's
    in_k: Callable[[np.ndarray], bool]
    outward: tuple                              # unit direction out of the feasible set

    @property
    def n(self) -> int:
        return self.doc["n"]

    @property
    def delta(self) -> float:
        return self.doc["options"]["delta"]

    def feasible(self, x) -> bool:
        return self.in_k(self.g(np.asarray(x, dtype=float)))


_TOL = 1e-7
_HALF_LINE = {"kind": "interval", "lo": "-inf", "hi": 0.0}


def _in_half_line(y) -> bool:
    return y[0] <= _TOL


def _in_disks(y) -> bool:
    return min(math.hypot(y[0] - 1.0, y[1]), math.hypot(y[0] + 1.0, y[1])) <= 1.0 + _TOL


def _doc(n, m, objective, constraints, K, delta, seed, S=None):
    return {"n": n, "m": m, "objective": objective, "constraints": constraints,
            "K": K, "S": S or {"kind": "point", "at": [0.0] * n}, "xbar": [0.0] * n,
            "options": {"delta": delta, "seed": seed}}


def instances(rng: np.random.Generator) -> list[Instance]:
    """The nine instances every workload draws its jobs from, in fixed order."""
    prog_seed = lambda: int(rng.integers(1, 2**31 - 1))
    out = [
        Instance("first_example",
                 _doc(2, 1, "x2^2", ["x1^2 - 2*x1 + x2^2"],
                      {"kind": "interval", "lo": -0.75, "hi": 0.0}, 0.25, prog_seed(),
                      S={"kind": "box", "intervals": [[0.0, 0.5], [0.0, 0.0]]}),
                 1.0, lambda x: np.array([x[0] ** 2 - 2.0 * x[0] + x[1] ** 2]),
                 lambda y: -0.75 - _TOL <= y[0] <= _TOL, (-1.0, 0.0)),
        Instance("parabola", _doc(2, 1, "x2", ["x1^2 - x2"], _HALF_LINE, 0.25, prog_seed()),
                 1.0, lambda x: np.array([x[0] ** 2 - x[1]]), _in_half_line, (0.0, -1.0)),
        Instance("second_example",
                 _doc(1, 2, "-0.5*x1^2", ["x1^2", "x1"],
                      {"kind": "union", "members": [
                          {"kind": "ball", "center": [1.0, 0.0], "radius": 1.0},
                          {"kind": "ball", "center": [-1.0, 0.0], "radius": 1.0}]},
                      0.25, prog_seed()),
                 # every point near xbar is feasible: no direction leaves the set
                 -0.5, lambda x: np.array([x[0] ** 2, x[0]]), _in_disks, (1.0,)),
    ]
    lo, hi = CURVATURE_RANGE
    for n in FAMILY_DIMS:
        a = np.round(rng.uniform(lo, hi, size=n - 1), 4)
        g = " + ".join(f"{float(ai)!r}*x{i + 1}^2" for i, ai in enumerate(a)) + f" - x{n}"
        out.append(Instance(
            f"lifted_n{n}", _doc(n, 1, f"x{n}", [g], _HALF_LINE, FAMILY_DELTA, prog_seed()),
            float(a.min()), lambda x, a=a: np.array([a @ x[:-1] ** 2 - x[-1]]),
            _in_half_line, (0.0,) * (n - 1) + (-1.0,)))
    for n in FAMILY_DIMS:
        c = np.round(rng.uniform(lo, hi, size=n), 4)
        f = " + ".join(f"{float(ci)!r}*x{i + 1}^2" for i, ci in enumerate(c))
        out.append(Instance(
            f"halfspace_n{n}", _doc(n, 1, f, ["x1"], _HALF_LINE, FAMILY_DELTA, prog_seed()),
            float(c.min()), lambda x: x[:1], _in_half_line, (1.0,) + (0.0,) * (n - 1)))
    return out


@dataclasses.dataclass(frozen=True)
class Job:
    """One CLI invocation and what the judge needs to grade its report."""

    key: str              # unique within a workload, stable across seeds
    instance: Instance
    kind: str             # necessary | sufficient | growth | feasible | mscq | membership | cq
    args: tuple           # subcommand and flags after the document path
    kappa: float | None = None
    expect: str | None = None   # membership: confirmed | rejected

    def argv(self, path: str) -> list[str]:
        return ["--format", "machine", self.args[0], path, *self.args[1:]]


def _vec(v) -> str:
    return ",".join(f"{x:.6g}" for x in v)


def _unit(rng, n) -> np.ndarray:
    v = rng.normal(size=n)
    return np.round(v / np.linalg.norm(v), 6)


def _kappa(rng, inst, side) -> float:
    lo, hi = KAPPA_BELOW if side == "below" else KAPPA_ABOVE
    # second_example has a negative truth; any positive request is above it
    scale = inst.truth if inst.truth > 0 else 1.0
    return round(float(rng.uniform(lo, hi)) * scale, 6)


def _necessary_jobs(rng, insts):
    jobs = []
    for inst in insts:
        if inst.name in ("halfspace_n2", "halfspace_n3"):
            # the n = 4 half-space sweeps the same cones in the most
            # dimensions; the smaller two would lengthen a pass by a quarter
            continue
        for form, mode in NECESSARY_FORMS:
            if inst.name == "first_example" and mode == "tangent-distance":
                # 6-10 s for this one sweep, as long as the rest of the pass;
                # the other three modes still sweep this instance
                continue
            args = ("check-necessary", "--form", form) + (("--mode", mode) if mode else ())
            jobs.append(Job(f"{inst.name}/{form}-{mode or 'sweep'}", inst, "necessary", args))
    return jobs


def _sufficient_jobs(rng, insts):
    jobs = []
    for inst in insts:
        for mode in ("point", "isolated"):
            sides = ("below", "above")
            if mode == "point" and inst.name in ("lifted_n4", "halfspace_n3", "halfspace_n4"):
                # the direction filter alone costs 0.6 s, 2 s and 6-10 s here
                # (ROADMAP item 4a); the point checks at n = 2 and 3 run it too
                continue
            if mode == "point" and inst.name.startswith("halfspace"):
                # the filter does not depend on kappa: one request suffices
                sides = ("below",)
            for side in sides:
                k = _kappa(rng, inst, side)
                jobs.append(Job(f"{inst.name}/{mode}-{side}", inst, "sufficient",
                                ("check-sufficient", "--mode", mode, f"--kappa={k!r}"), k))
    return jobs


def _oracle_jobs(rng, insts):
    jobs = []
    for inst in insts:
        n = inst.n
        below, above = _kappa(rng, inst, "below"), _kappa(rng, inst, "above")
        for side, k in (("below", below), ("above", above)):
            jobs.append(Job(f"{inst.name}/growth-{side}", inst, "growth",
                            ("verify-growth", f"--count={ORACLE_COUNT}", f"--kappa={k!r}"), k))
        jobs.append(Job(f"{inst.name}/feasible", inst, "feasible",
                        ("oracle", "--op", "feasible", f"--count={ORACLE_COUNT}")))
        # sampling does its full work only where the constraint is violated,
        # so the direction leans out of the feasible set on every seed
        d = np.asarray(inst.outward) + 0.5 * _unit(rng, n)
        d = np.round(d / np.linalg.norm(d), 6)
        jobs.append(Job(f"{inst.name}/mscq", inst, "mscq",
                        ("oracle", "--op", "mscq", f"--count={MSCQ_COUNT}",
                         f"--direction={_vec(d)}")))
        if inst.doc["K"]["kind"] == "union":
            # tangent cone of the two disks at the origin is the whole plane
            w = [float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0)),
                 float(rng.uniform(-1.0, 1.0))]
            jobs.append(Job(f"{inst.name}/membership-tangent", inst, "membership",
                            ("oracle", "--op", "membership", "--kind", "tangent",
                             f"--w={_vec(w)}"), expect="confirmed"))
        else:
            # K is an interval with g(xbar) = 0 on its upper end
            w_in, w_out = -rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)
            d_in, w2 = -rng.uniform(0.2, 1.0), rng.uniform(-1.0, 1.0)
            jobs += [
                Job(f"{inst.name}/membership-tangent-in", inst, "membership",
                    ("oracle", "--op", "membership", "--kind", "tangent",
                     f"--w={_vec([w_in])}"), expect="confirmed"),
                Job(f"{inst.name}/membership-tangent-out", inst, "membership",
                    ("oracle", "--op", "membership", "--kind", "tangent",
                     f"--w={_vec([w_out])}"), expect="rejected"),
                Job(f"{inst.name}/membership-outer2", inst, "membership",
                    ("oracle", "--op", "membership", "--kind", "outer2",
                     f"--direction={_vec([d_in])}", f"--w={_vec([w2])}"),
                    expect="confirmed"),
            ]
            # every constraint here has a nonzero gradient at xbar, so each
            # constraint qualification holds in every direction
            for kind in CQ_KINDS:
                jobs.append(Job(f"{inst.name}/cq-{kind}", inst, "cq",
                                ("check-cq", "--kind", kind,
                                 f"--direction={_vec(_unit(rng, n))}")))
    return jobs


_JOB_LISTS = {"necessary_sweep": _necessary_jobs,
              "sufficient_check": _sufficient_jobs,
              "oracle_sampling": _oracle_jobs}


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list for this seed; same seed, same jobs."""
    rng = np.random.default_rng([seed & 0x7FFFFFFF, WORKLOADS.index(workload)])
    return _JOB_LISTS[workload](rng, instances(rng))


def write_documents(jobs: list[Job], directory: Path) -> dict[str, str]:
    """Write each instance document once; returns instance name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for job in jobs:
        inst = job.instance
        if inst.name not in paths:
            path = directory / f"{inst.name}.json"
            path.write_text(json.dumps(inst.doc, indent=1, sort_keys=True) + "\n")
            paths[inst.name] = str(path)
    return paths
