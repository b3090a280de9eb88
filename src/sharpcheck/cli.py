"""Command line front end: problem documents in, bit-stable reports out.

A problem document is a strict JSON file with members n, m, objective,
constraints, K, S, xbar and an optional options block; unknown members are
rejected so typos fail loudly instead of silently changing defaults.  Five
subcommands map onto the library checkers:

  verify-growth     sampling estimate of the growth constant
  check-necessary   implicit / explicit / clarke / nondegenerate forms
  check-sufficient  point or isolated-minimizer certificates
  check-cq          FOSCMS / SOSCMS / DirRCQ / nondegeneracy probes
  oracle            raw sampling oracles (membership, growth, mscq, feasible)

From a source checkout, run ``PYTHONPATH=src python -m sharpcheck ...``;
an installed package also provides the ``sharpcheck`` script.

Exit codes: 0 certified or satisfied, 1 violated or rejected, 2
inconclusive or hypotheses-not-met, 3 input error.  check-necessary takes
a --direction d as d/|d|, which its witnesses carry: every necessary form
is homogeneous of degree 2 in d.  A numerical or capacity failure inside
the library (LP, region, tangent or oracle error, such as a problem above
the dimension cap, or a floating-point overflow) is reported on stderr
and exits 2, since it decides nothing.  Machine reports
(format 3) are canonical JSON (sorted members, 17-significant-digit floats,
LF endings); reruns with the same seed match byte for byte outside the two
time members runtime_seconds and generated_at.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
import time
from datetime import datetime, timezone
from json.encoder import encode_basestring

import numpy as np

from .certify import (
    _json_num,
    _json_obj,
    constraint_qualification_check,
    necessary_clarke_check,
    necessary_explicit_check,
    necessary_implicit_check,
    sufficient_isolated_check,
    sufficient_point_check,
    sweep_necessary,
)
from .lp import LpError
from .oracles import (
    OracleError,
    growth_constant_estimate,
    membership_by_definition,
    mscq_modulus_estimate,
    sample_feasible,
)
from .polyexpr import (ModelError, Options, ParseError, ProblemInstance, parse_expression,
                       seed_for)
from .regions import RegionError
from .sets import (
    Ball,
    Box,
    Halfspace,
    Interval,
    PointSet,
    Polyhedron,
    ProductSet,
    SetError,
    UnionSet,
)
from .tangents import TangentError

FORMAT_VERSION = 3

# largest accepted --count; the sampling oracles allocate count-by-n arrays
MAX_COUNT = 10**6

EXIT_BY_VERDICT = {
    "certified": 0,
    "satisfied": 0,
    "confirmed": 0,
    "violated": 1,
    "rejected": 1,
    "inconclusive": 2,
    "hypotheses-not-met": 2,
    "boundary-inconclusive": 2,
}

CQ_KIND = {"foscms": "FOSCMS", "soscms": "SOSCMS",
           "dirrcq": "DirRCQ", "nondeg": "NONDEG"}

SWEEP_MODE = {("implicit", "proximal"): "implicit-proximal",
              ("implicit", "tangent-distance"): "implicit-tangent",
              ("explicit", "proximal"): "explicit",
              ("clarke", "proximal"): "clarke"}


class DocumentError(ValueError):
    """Malformed problem document or unusable command input."""


# ---------------------------------------------------------------------------
# problem documents
# ---------------------------------------------------------------------------


def _num(v, where):
    if isinstance(v, bool):
        raise DocumentError(f"{where}: expected a number, got a boolean")
    if isinstance(v, (int, float)):
        try:
            out = float(v)
        except OverflowError:   # a JSON integer beyond the float range
            raise DocumentError(f"{where}: integer too large for a float") from None
        if math.isnan(out):
            raise DocumentError(f"{where}: expected a number, got NaN")
        return out
    if isinstance(v, str):
        s = v.strip().lower()
        if s in ("inf", "+inf"):
            return math.inf
        if s == "-inf":
            return -math.inf
        raise DocumentError(f"{where}: bad numeric string {v!r}")
    raise DocumentError(f"{where}: expected a number, got {type(v).__name__}")


def _vecf(v, where):
    if not isinstance(v, (list, tuple)):
        raise DocumentError(f"{where}: expected a list of numbers")
    return [_num(x, where) for x in v]


def _reject_unknown(obj, allowed, where):
    extra = set(obj) - set(allowed)
    if extra:
        raise DocumentError(f"{where}: unknown member(s) {sorted(extra)}")


def _build_set(ctor, where):
    if not isinstance(ctor, dict) or "kind" not in ctor:
        raise DocumentError(f"{where}: a set constructor needs a 'kind' member")
    kind = ctor["kind"]
    try:
        if kind == "interval":
            _reject_unknown(ctor, ("kind", "lo", "hi"), where)
            return Interval(_num(ctor["lo"], where), _num(ctor["hi"], where))
        if kind == "box":
            _reject_unknown(ctor, ("kind", "intervals"), where)
            return Box([tuple(_vecf(iv, where)) for iv in ctor["intervals"]])
        if kind == "halfspace":
            _reject_unknown(ctor, ("kind", "normal", "offset"), where)
            return Halfspace(_vecf(ctor["normal"], where), _num(ctor["offset"], where))
        if kind == "polyhedron":
            _reject_unknown(ctor, ("kind", "rows", "equalities", "dim"), where)
            rows = [(_vecf(a, where), _num(b, where)) for a, b in ctor.get("rows", [])]
            eqs = [(_vecf(a, where), _num(b, where)) for a, b in ctor.get("equalities", [])]
            dim = ctor.get("dim")
            if dim is not None and (not isinstance(dim, int) or isinstance(dim, bool)):
                raise DocumentError(f"{where}: polyhedron dim must be an integer")
            return Polyhedron(rows=rows, equalities=eqs, dim=dim)
        if kind == "ball":
            _reject_unknown(ctor, ("kind", "center", "radius"), where)
            return Ball(_vecf(ctor["center"], where), _num(ctor["radius"], where))
        if kind == "point":
            _reject_unknown(ctor, ("kind", "at"), where)
            return PointSet(_vecf(ctor["at"], where))
        if kind == "finite":   # the union of its points
            _reject_unknown(ctor, ("kind", "points"), where)
            if not ctor["points"]:
                raise DocumentError(f"{where}: a finite set needs at least one point")
            return UnionSet([PointSet(_vecf(pt, where)) for pt in ctor["points"]])
        if kind == "union":
            _reject_unknown(ctor, ("kind", "members"), where)
            return UnionSet([_build_set(m, where) for m in ctor["members"]])
        if kind == "product":
            _reject_unknown(ctor, ("kind", "factors"), where)
            return ProductSet([_build_set(m, where) for m in ctor["factors"]])
    except KeyError as ex:
        raise DocumentError(f"{where}: missing member {ex.args[0]!r} "
                            f"for kind {kind!r}") from None
    except DocumentError:
        raise   # a member's own message, already prefixed
    except (SetError, TypeError, ValueError) as ex:   # e.g. a row that is not [a, b]
        raise DocumentError(f"{where}: {ex}") from None
    raise DocumentError(f"{where}: unknown set kind {kind!r}")


def _build_options(obj, flags):
    if not isinstance(obj, dict):
        raise DocumentError("options: expected an object")
    _reject_unknown(obj, ("epsilon", "delta", "rho", "seed", "kappa"), "options")
    kw = {}
    for key in ("epsilon", "delta", "rho", "kappa"):
        if key in obj and obj[key] is not None:
            kw[key] = _num(obj[key], f"options.{key}")
    if "seed" in obj:
        if not isinstance(obj["seed"], int) or isinstance(obj["seed"], bool):
            raise DocumentError("options.seed: expected an integer")
        kw["seed"] = obj["seed"]
    for key in ("epsilon", "delta", "rho", "kappa", "seed"):
        if getattr(flags, key, None) is not None:
            kw[key] = getattr(flags, key)
    try:
        return Options(**kw)
    except ModelError as ex:
        raise DocumentError(f"options: {ex}") from None


@dataclasses.dataclass(frozen=True)
class LoadedProblem:
    instance: ProblemInstance
    digest: str
    warnings: tuple


def _load(path, flags=None) -> LoadedProblem:
    """The document's instance, under its options as the flags override them."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as ex:
        raise DocumentError(f"cannot read {path}: {ex}") from None
    except json.JSONDecodeError as ex:
        raise DocumentError(f"{path}: JSON parse error at line {ex.lineno}, "
                            f"column {ex.colno}: {ex.msg}") from None
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: the top level must be an object")
    _reject_unknown(doc, ("n", "m", "objective", "constraints", "K", "S",
                          "xbar", "options"), path)
    for key in ("n", "m", "objective", "constraints", "K", "S", "xbar"):
        if key not in doc:
            raise DocumentError(f"{path}: missing member {key!r}")
    n, m = doc["n"], doc["m"]
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (n, m)):
        raise DocumentError(f"{path}: n and m must be integers")
    if not isinstance(doc["constraints"], list) or len(doc["constraints"]) != m:
        raise DocumentError(f"{path}: constraints must list exactly m = {m} "
                            "expression strings")
    if not isinstance(doc["objective"], str) or not all(
            isinstance(src, str) for src in doc["constraints"]):
        raise DocumentError(f"{path}: objective and constraints must be "
                            "expression strings")
    try:
        f = parse_expression(doc["objective"], n)
        g = tuple(parse_expression(src, n) for src in doc["constraints"])
    except (ModelError, ParseError) as ex:
        raise DocumentError(f"{path}: {ex}") from None
    K = _build_set(doc["K"], f"{path}: K")
    S = _build_set(doc["S"], f"{path}: S")
    options = _build_options(doc.get("options", {}), flags)
    try:
        inst = ProblemInstance(n, m, f, g, K, S, _vecf(doc["xbar"], "xbar"),
                               options=options)
    except ModelError as ex:
        if "infeasible" in str(ex):
            raise DocumentError(f"{path}: candidate infeasible: {ex}") from None
        raise DocumentError(f"{path}: {ex}") from None
    digest = "sha256:" + hashlib.sha256(canonical_bytes(doc)).hexdigest()
    return LoadedProblem(inst, digest, _reference_warnings(inst))


def _reference_warnings(inst: ProblemInstance) -> tuple:
    """A diagnostic line for the first of 100 sampled points of S near
    xbar whose g value leaves K, if any."""
    options = inst.options
    pt = inst.first_infeasible(
        inst.S.sample_near(inst.xbar, max(2.0 * options.delta, 1.0),
                           seed_for(options.seed, 0x2E5D), 100), tol=1e-6)
    if pt is None:
        return ()
    return ("warning: a sampled reference point leaves the feasible set near "
            f"{np.round(pt, 6).tolist()}",)


def load_problem(path) -> ProblemInstance:
    """Parse and fully validate a problem document."""
    return _load(path).instance


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------


def _canon_num(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _canon(obj, out):
    if obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else ("true" if obj else "false"))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_canon_num(float(obj)))
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _canon(v, out)
        out.append("]")
    elif isinstance(obj, np.ndarray):
        _canon(obj.tolist(), out)
    elif isinstance(obj, dict):
        out.append("{")
        for i, k in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(encode_basestring(str(k)))
            out.append(":")
            _canon(obj[k], out)
        out.append("}")
    else:
        raise DocumentError(f"cannot serialize {type(obj).__name__}")


def canonical_bytes(obj) -> bytes:
    """Canonical JSON: sorted members, 17-significant-digit floats, LF."""
    out = []
    _canon(obj, out)
    out.append("\n")
    return "".join(out).encode("utf-8")


def _render_value(v) -> str:
    if isinstance(v, float):
        return _canon_num(v).strip('"')
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_render_value(x) for x in v) + "]"
    return str(v)


def _render_text(doc) -> str:
    lines = [f"sharpcheck report (format {doc['format_version']})",
             "command:   " + " ".join(doc["command"]),
             "problem:   " + doc["problem_digest"],
             f"verdict:   {doc['verdict']}  [exit {doc['exit_code']}]"]
    if doc["kappa_bounds"]:
        lines.append("kappa bounds:")
        for k in sorted(doc["kappa_bounds"]):
            lines.append(f"  {k} = {_render_value(doc['kappa_bounds'][k])}")
    if doc["witnesses"]:
        lines.append("witness replay:")
        for w in doc["witnesses"]:
            parts = ", ".join(f"{k} = {_render_value(w[k])}" for k in sorted(w))
            lines.append(f"  - {parts}")
    if doc["cq_status"]:
        lines.append("cq status:")
        for k in sorted(doc["cq_status"]):
            lines.append(f"  {k}: {doc['cq_status'][k]}")
    if doc.get("oracle"):
        lines.append("oracle:")
        for k in sorted(doc["oracle"]):
            lines.append(f"  {k} = {_render_value(doc['oracle'][k])}")
    if doc["diagnostics"]:
        lines.append("diagnostics:")
        for d in doc["diagnostics"]:
            lines.append(f"  - {d}")
    lines.append(f"seed:      {doc['seed']}")
    lines.append(f"runtime:   {_render_value(doc['runtime_seconds'])} s")
    lines.append(f"generated: {doc['generated_at']}")
    return "\n".join(lines) + "\n"


def emit_report(doc, format: str = "machine") -> bytes:
    """Serialize a report document; both renderings carry the same numbers."""
    if format == "machine":
        return canonical_bytes(doc)
    if format == "text":
        return _render_text(doc).encode("utf-8")
    raise DocumentError(f"unknown report format {format!r}")


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _parse_vec(text, n, name):
    if text is None:
        return None
    try:
        vals = [float(tok) for tok in text.strip().strip("[]").replace(",", " ").split()]
    except ValueError:
        raise DocumentError(f"{name}: expected comma-separated numbers, "
                            f"got {text!r}") from None
    if len(vals) != n:
        raise DocumentError(f"{name}: expected {n} components, got {len(vals)}")
    if not all(math.isfinite(v) for v in vals):
        raise DocumentError(f"{name}: components must be finite, got {text!r}")
    return vals


def _from_report(report):
    doc = report.to_json()
    return doc, EXIT_BY_VERDICT[report.verdict]


def _count(flags) -> int:
    count = flags.count if flags.count is not None else 10000
    if count < 1:
        raise DocumentError(f"--count must be at least 1, got {count}")
    if count > MAX_COUNT:
        raise DocumentError(f"--count must be at most {MAX_COUNT}, got {count}")
    return count


def _run_verify_growth(p, flags):
    est = growth_constant_estimate(p, p.options.delta, _count(flags), p.options.seed)
    target = p.options.kappa
    if est.sample_count == 0:
        verdict = "inconclusive"
    elif target is not None:
        # f / dist(x, S)^2 carries rounding, so a sample that reads the
        # true constant can miss it in the last digits
        ok = est.kappa_hat >= target - 1e-9 * max(1.0, abs(target))
        verdict = "satisfied" if ok else "violated"
    else:
        verdict = "satisfied" if est.kappa_hat > 0.0 else "violated"
    doc = {"verdict": verdict,
           "kappa_bounds": {"kappa_hat": _json_num(est.kappa_hat),
                            **({} if target is None else {"requested": target})},
           "witnesses": [] if est.witness is None else [_json_obj({"x": est.witness})],
           "cq_status": {},
           "diagnostics": [f"growth estimate over {est.sample_count} feasible "
                           f"samples at radius {_render_value(est.delta)}"]}
    return doc, EXIT_BY_VERDICT[verdict]


def _run_check_necessary(p, flags):
    if flags.mode == "tangent-distance" and flags.form != "implicit":
        raise DocumentError("--mode tangent-distance applies only to "
                            "--form implicit")
    d = _parse_vec(flags.direction, p.n, "--direction")
    if d is None:
        mode = SWEEP_MODE.get((flags.form, flags.mode))
        if mode is None:
            raise DocumentError("the nondegenerate form needs an explicit "
                                "--direction")
        return _from_report(sweep_necessary(p, mode=mode))
    if flags.form == "implicit":
        mode = "tangent_distance" if flags.mode == "tangent-distance" else "proximal"
        return _from_report(necessary_implicit_check(p, d=d, mode=mode))
    if flags.form == "explicit":
        return _from_report(necessary_explicit_check(p, d=d))
    mode = "nondegenerate" if flags.form == "nondegenerate" else "elementwise"
    return _from_report(necessary_clarke_check(p, d=d, mode=mode))


def _run_check_sufficient(p, flags):
    check = sufficient_point_check if flags.mode == "point" else sufficient_isolated_check
    return _from_report(check(p))


def _run_check_cq(p, flags):
    if flags.direction is None:
        raise DocumentError("check-cq needs --direction")
    d = _parse_vec(flags.direction, p.n, "--direction")
    res = constraint_qualification_check(p, None, d, CQ_KIND[flags.kind])
    verdict = "satisfied" if res.holds else "violated"
    doc = {"verdict": verdict,
           "kappa_bounds": {},
           "witnesses": [] if res.witness is None else [_json_obj({"lam": res.witness})],
           "cq_status": {res.kind: "holds" if res.holds else "fails"},
           "diagnostics": list(res.notes)}
    return doc, EXIT_BY_VERDICT[verdict]


def _run_oracle(p, flags):
    seed, delta = p.options.seed, p.options.delta
    if flags.op == "membership":
        w = _parse_vec(flags.w, p.m, "--w")
        if w is None:
            raise DocumentError("oracle --op membership needs --w")
        d = _parse_vec(flags.direction, p.m, "--direction")
        verdict = membership_by_definition(p.K, p.g_value(p.xbar), d, w, flags.kind)
        doc = {"verdict": verdict, "kappa_bounds": {}, "witnesses": [],
               "cq_status": {},
               "diagnostics": [f"membership of {w} in the {flags.kind} object "
                               "of K at g(xbar)"],
               "oracle": {"kind": flags.kind, "w": w,
                          "d": d if d is not None else []}}
        return doc, EXIT_BY_VERDICT[verdict]
    if flags.op == "growth":
        return _run_verify_growth(p, flags)
    if flags.op == "mscq":
        d = _parse_vec(flags.direction, p.n, "--direction")
        if d is None:
            raise DocumentError("oracle --op mscq needs --direction")
        est = mscq_modulus_estimate(p, p.xbar, d, p.options.rho, delta,
                                    _count(flags), seed)
        verdict = "violated" if est.diverged else (
            "satisfied" if est.kappa_hat is not None else "inconclusive")
        doc = {"verdict": verdict, "kappa_bounds": {}, "witnesses": [],
               "cq_status": {},
               "diagnostics": [f"modulus sampling over {est.sample_count} points"],
               "oracle": {"modulus": _json_num(est.kappa_hat)
                          if est.kappa_hat is not None else None,
                          "diverged": est.diverged}}
        return doc, EXIT_BY_VERDICT[verdict]
    # feasible sampling: echo the first few draws so runs are replayable
    count = _count(flags)
    if flags.limit < 0:
        raise DocumentError(f"--limit must be nonnegative, got {flags.limit}")
    samples = sample_feasible(p, delta, count, seed)
    hits = len(samples)
    head = [list(map(float, x)) for x in samples[:flags.limit]]
    doc = {"verdict": "satisfied" if hits else "inconclusive",
           "kappa_bounds": {}, "witnesses": [], "cq_status": {},
           "diagnostics": [f"{hits} feasible samples at radius "
                           f"{_render_value(delta)}"],
           "oracle": {"sample_count": hits, "head": head}}
    return doc, EXIT_BY_VERDICT[doc["verdict"]]


DISPATCH = {"verify-growth": _run_verify_growth,
            "check-necessary": _run_check_necessary,
            "check-sufficient": _run_check_sufficient,
            "check-cq": _run_check_cq,
            "oracle": _run_oracle}


def run_command(instance: ProblemInstance, command: str, flags,
                digest: str = "", echo=(), warnings=()):
    """Dispatch one subcommand and assemble the report document."""
    start = time.perf_counter()
    core, code = DISPATCH[command](instance, flags)
    core.setdefault("oracle", {})
    core["diagnostics"] = list(core["diagnostics"]) + list(warnings)
    opts = instance.options
    doc = {"format_version": FORMAT_VERSION,
           "command": list(echo) or [command],
           "problem_digest": digest,
           "exit_code": code,
           "seed": opts.seed,
           "options": {"epsilon": opts.epsilon, "delta": opts.delta,
                       "rho": opts.rho, "kappa": opts.kappa},
           "runtime_seconds": time.perf_counter() - start,
           "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
           **core}
    return doc, code


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and shared by every
    later one (parse_args leaves it unchanged); not at import, which would
    charge its cost to callers that never parse."""
    ap = argparse.ArgumentParser(
        prog="sharpcheck",
        description="verify second-order weak sharp minimality certificates")
    ap.add_argument("--format", choices=("text", "machine"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("problem", help="problem document (JSON)")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--delta", type=float, default=None)
        sp.add_argument("--eps", dest="epsilon", type=float, default=None)
        sp.add_argument("--rho", type=float, default=None)
        sp.add_argument("--kappa", type=float, default=None)

    count_help = f"number of samples, 1 to {MAX_COUNT} (default 10000)"

    sp = sub.add_parser("verify-growth", help="sampling growth estimate")
    common(sp)
    sp.add_argument("--count", type=int, default=None, help=count_help)

    sp = sub.add_parser("check-necessary", help="necessary condition checks")
    common(sp)
    sp.add_argument("--form", choices=("implicit", "explicit", "clarke",
                                       "nondegenerate"), default="implicit")
    sp.add_argument("--mode", choices=("proximal", "tangent-distance"),
                    default="proximal")
    sp.add_argument("--direction", default=None,
                    help="direction d, comma-separated; checked and reported "
                         "in the witnesses as d/|d| (default: a sweep)")

    sp = sub.add_parser("check-sufficient", help="sufficient condition checks")
    common(sp)
    sp.add_argument("--mode", choices=("point", "isolated"), default="point")

    sp = sub.add_parser("check-cq", help="constraint qualification probes")
    common(sp)
    sp.add_argument("--kind", choices=tuple(CQ_KIND), required=True)
    sp.add_argument("--direction", default=None)

    sp = sub.add_parser("oracle", help="raw sampling oracles")
    common(sp)
    sp.add_argument("--op", choices=("membership", "growth", "mscq", "feasible"),
                    required=True)
    sp.add_argument("--w", default=None)
    sp.add_argument("--direction", default=None)
    sp.add_argument("--kind", choices=("tangent", "outer2", "asymp2"),
                    default="tangent")
    sp.add_argument("--count", type=int, default=None, help=count_help)
    sp.add_argument("--limit", type=int, default=5)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 0 if ex.code == 0 else 3
    try:
        # an overflow would otherwise warn and carry inf into the verdict
        with np.errstate(over="raise"):
            loaded = _load(args.problem, args)
            doc, code = run_command(loaded.instance, args.command, args,
                                    digest=loaded.digest, echo=argv,
                                    warnings=loaded.warnings)
    except (DocumentError, ModelError, SetError) as ex:
        sys.stderr.write(f"sharpcheck: {ex}\n")
        return 3
    except (LpError, RegionError, TangentError, OracleError, FloatingPointError) as ex:
        # numerical and capacity failures decide nothing: inconclusive
        sys.stderr.write(f"sharpcheck: {type(ex).__name__}: {ex}\n")
        return EXIT_BY_VERDICT["inconclusive"]
    sys.stdout.buffer.write(emit_report(doc, args.format))
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
