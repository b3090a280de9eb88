"""Grading one CLI report against the instance's closed-form ground truth.

A constant counts as above the truth when it exceeds kappa* by more than
``kappa_tol(kappa*) = 0.1 * max(1, |kappa*|)``, and below it when it falls
short by as much.  The margin covers the gap between the limiting constant
and the constant on the finite sampling ball: a/(1 + a^2 delta^2) differs
from a by at most 2% on the families (delta = 0.05, a <= 2) and by 6% on the
parabola fixture (delta = 0.25).  Requested constants are drawn at 0.3-0.7
or 1.5-2.5 times the truth, so no verdict sits on the margin.
"""
from __future__ import annotations

import json
import math
import re

EXIT_CODES = (0, 1, 2, 3)

# members of a machine report that are allowed to change between runs
_VOLATILE = re.compile(rb'"(?:runtime_seconds|generated_at)":(?:"[^"]*"|[^,}]*)')


def normalized(report: bytes) -> bytes:
    """Report bytes with the two time members blanked."""
    return _VOLATILE.sub(b'"-":null', report)


def kappa_tol(truth: float) -> float:
    return 0.1 * max(1.0, abs(truth))


def _above(k: float, truth: float) -> bool:
    return k > truth + kappa_tol(truth)


def _below(k: float, truth: float) -> bool:
    return k < truth - kappa_tol(truth)


def _num(v):
    """A kappa member of a report as a float; None when absent or null."""
    if v is None or isinstance(v, bool):
        return None
    if isinstance(v, (int, float)):
        return float(v)
    return {"unbounded": math.inf, "-unbounded": -math.inf}.get(v, math.nan)


AGREE, UNDECIDED, CONTRADICTS = "agree", "undecided", "contradicts"


def judge(job, code: int, report: dict | None) -> tuple[str, str]:
    """(outcome, reason) for one report; outcome is AGREE, UNDECIDED or
    CONTRADICTS.  Exit 2 and 3 carry no claim and are UNDECIDED unless a
    constant in the report contradicts the truth on its own."""
    if report is None:
        return UNDECIDED, f"exit {code} without a report"
    truth = job.instance.truth
    verdict = report["verdict"]
    bounds = report.get("kappa_bounds", {})
    grade = _GRADERS[job.kind]
    return grade(job, truth, verdict, bounds, report)


def _necessary(job, truth, verdict, bounds, report):
    kmax = _num(bounds.get("max_admissible"))
    if kmax is not None and _below(kmax, truth):
        return CONTRADICTS, f"max_admissible {kmax:.6g} below kappa* {truth:.6g}"
    if verdict == "violated":
        if truth > 0:
            return CONTRADICTS, f"violated although kappa* = {truth:.6g} > 0"
        return AGREE, ""
    if verdict == "satisfied" and truth > 0:
        return AGREE, ""
    return UNDECIDED, ""


def _sufficient(job, truth, verdict, bounds, report):
    cert = _num(bounds.get("certified"))
    if cert is not None and _above(cert, truth):
        return CONTRADICTS, (f"certified {cert:.6g} above kappa* {truth:.6g} "
                             f"(requested {job.kappa:.6g})")
    if verdict == "certified":
        if _above(job.kappa, truth):
            return CONTRADICTS, (f"accepted kappa {job.kappa:.6g} above "
                                 f"kappa* {truth:.6g}")
        return AGREE, ""
    if verdict == "violated":
        if truth > 0 and _below(job.kappa, truth):
            return CONTRADICTS, (f"refuted kappa {job.kappa:.6g} below "
                                 f"kappa* {truth:.6g}")
        return (AGREE, "") if job.kappa > truth else (UNDECIDED, "")
    return UNDECIDED, ""


def _growth(job, truth, verdict, bounds, report):
    khat = _num(bounds.get("kappa_hat"))
    if khat is not None and _below(khat, truth):
        return CONTRADICTS, (f"sampled constant {khat:.6g} below the infimum "
                             f"kappa* {truth:.6g}")
    holds = job.kappa <= truth
    if verdict == "satisfied":
        if _above(job.kappa, truth):
            return CONTRADICTS, f"accepted kappa {job.kappa:.6g} above kappa* {truth:.6g}"
        return (AGREE, "") if holds else (UNDECIDED, "")
    if verdict == "violated":
        if _below(job.kappa, truth):
            return CONTRADICTS, f"refuted kappa {job.kappa:.6g} below kappa* {truth:.6g}"
        return (AGREE, "") if not holds else (UNDECIDED, "")
    return UNDECIDED, ""


def _feasible(job, truth, verdict, bounds, report):
    inst = job.instance
    oracle = report.get("oracle", {})
    for x in oracle.get("head", []):
        dist = math.dist(x, inst.doc["xbar"])
        if not inst.feasible(x) or dist > inst.delta + 1e-9:
            return CONTRADICTS, f"sample {x} is infeasible or outside the ball"
    if verdict == "satisfied":
        return AGREE, ""
    return UNDECIDED, ""


def _holds(job, truth, verdict, bounds, report):
    # metric subregularity and the constraint qualifications hold on every
    # instance these jobs use (nonzero constraint gradient, or a feasible set
    # that is a neighbourhood of xbar)
    if verdict == "violated":
        return CONTRADICTS, f"{job.args[0]} reports violated where the condition holds"
    return (AGREE, "") if verdict == "satisfied" else (UNDECIDED, "")


def _membership(job, truth, verdict, bounds, report):
    if verdict == job.expect:
        return AGREE, ""
    if verdict in ("confirmed", "rejected"):
        return CONTRADICTS, f"membership {verdict}, closed form says {job.expect}"
    return UNDECIDED, ""


_GRADERS = {"necessary": _necessary, "sufficient": _sufficient, "growth": _growth,
            "feasible": _feasible, "mscq": _holds, "cq": _holds,
            "membership": _membership}


def parse_report(raw: bytes) -> dict | None:
    if not raw:
        return None
    return json.loads(raw)
