"""Span tracing of sharpcheck's layers, installed from outside the package.

Each traced public function is replaced, by module attribute, in every
sharpcheck module that binds it (``certify`` imports ``region_subset``,
``face_complex``, ``lower_gen_support_detail`` and the tangent functions by
name).  A wrapper records a span (name, start, end, parent); a span's
self time is its duration minus the durations of its direct children.
``Tracer.install`` returns an undo function that restores every original.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function, span name).  Span names double as layer prefixes.
FUNCTION_SPANS = (
    ("lp", "solve_lp", "lp.solve"),
    ("lp", "dd_cone", "lp.dd"),
    ("lp", "cell_generators_arrays", "lp.dd"),
    ("lp", "cone_from_generators", "lp.dd"),
    ("lp", "cell_from_generators_arrays", "lp.dd"),
    ("regions", "region_subset", "regions.subset"),
    ("regions", "face_complex", "regions.face_complex"),
    ("regions", "lower_gen_support_detail", "regions.lower_gen_support"),
    ("tangents", "tangent_cone", "tangents.tangent_cone"),
    ("tangents", "second_tangent", "tangents.second_tangent"),
    ("tangents", "normal_cone", "tangents.normal_cone"),
    ("tangents", "directional_normal", "tangents.directional_normal"),
    ("tangents", "directional_clarke_tangent", "tangents.directional_clarke_tangent"),
    ("tangents", "region_tangent_cone", "tangents.region_tangent_cone"),
    ("tangents", "eps_proximal_membership", "tangents.proximal_membership"),
    ("tangents", "eps_proximal_filter", "tangents.proximal_filter"),
    ("certify", "critical_cone", "certify.critical_cone"),
    ("certify", "certify_mscq", "certify.mscq"),
    ("certify", "linearized_phi_tangents", "certify.phi_tangents"),
    ("certify", "multiplier_affine_set", "certify.multiplier_affine_set"),
    ("certify", "directional_multipliers", "certify.directional_multipliers"),
    ("certify", "constraint_qualification_check", "certify.cq"),
    ("certify", "necessary_implicit_check", "certify.necessary"),
    ("certify", "necessary_explicit_check", "certify.necessary"),
    ("certify", "necessary_clarke_check", "certify.necessary"),
    ("certify", "sufficient_point_check", "certify.sufficient"),
    ("certify", "sufficient_isolated_check", "certify.sufficient"),
    ("certify", "sweep_necessary", "certify.sweep"),
    ("oracles", "sample_feasible", "oracles.sample_feasible"),
    ("oracles", "growth_constant_estimate", "oracles.growth"),
    ("oracles", "mscq_modulus_estimate", "oracles.mscq"),
    ("oracles", "membership_by_definition", "oracles.membership"),
    ("oracles", "proximal_distance_check", "oracles.proximal_distance"),
    ("polyexpr", "evaluate_jet", "polyexpr.jet"),
    ("cli", "main", "cli.main"),
    ("cli", "run_command", "cli.run_command"),
    ("cli", "emit_report", "cli.emit"),
)

# (module, class, method, span name); subclasses overriding the method are
# wrapped too.
METHOD_SPANS = (
    ("regions", "PolyCell", "generators", "regions.generators"),
    ("sets", "BaseSet", "sample_near", "sets.sample_near"),
    ("sets", "BaseSet", "distance", "sets.distance"),
)

# Counted, not timed: called per polynomial evaluation, where a span would
# cost more than the call.
COUNTED_METHODS = (("polyexpr", "PolyExpr", "__call__", "polyexpr.eval"),)


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self.lp_rows = 0
        self.samples_requested = 0
        self.samples_returned = 0
        self.generator_hits = 0
        self._stack: list[int] = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            before = len(spans)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, out, spans, before)
            return out

        return traced

    def _count(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap every traced name; returns a function undoing the wrapping."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "sharpcheck" or name.startswith("sharpcheck.")}
        undo = []

        def replace(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        for home, attr, span in FUNCTION_SPANS:
            original = getattr(mods[f"sharpcheck.{home}"], attr)
            wrapped = self._wrap(original, span)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        replace(mod, key, wrapped)
        for table, make in ((METHOD_SPANS, self._wrap), (COUNTED_METHODS, self._count)):
            for home, cls_name, meth, span in table:
                base = getattr(mods[f"sharpcheck.{home}"], cls_name)
                for cls in (base, *_subclasses(base)):
                    if meth in cls.__dict__ and not getattr(
                            cls.__dict__[meth], "__isabstractmethod__", False):
                        replace(cls, meth, make(cls.__dict__[meth], span))

        def uninstall():
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)
        return uninstall

    def self_times(self) -> list[float]:
        out = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                out[rec[3]] -= rec[2] - rec[1]
        return out


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _lp_rows(tracer, args, kwargs, out, spans, before):
    lp = args[0] if args else kwargs["lp"]
    tracer.lp_rows += lp.ineq_mat.shape[0] + lp.eq_mat.shape[0]


def _sampled(tracer, args, kwargs, out, spans, before):
    count = args[2] if len(args) > 2 else kwargs["count"]
    tracer.samples_requested += int(count)
    tracer.samples_returned += len(out)


def _generators(tracer, args, kwargs, out, spans, before):
    # a hit reuses the cell's stored generators: no double-description call
    if not any(rec[0] == "lp.dd" for rec in spans[before:]):
        tracer.generator_hits += 1


_HOOKS = {"lp.solve": _lp_rows, "oracles.sample_feasible": _sampled,
          "regions.generators": _generators}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit), from the recorded spans."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for rec, st in zip(tracer.spans, tracer.self_times()):
        calls[rec[0]] += 1
        self_s[rec[0]] += st

    def total(prefix, table):
        return sum(v for k, v in table.items()
                   if k == prefix or k.startswith(prefix + "."))

    def share(num, den):
        return num / den if den else 0.0

    out = {
        "lp.solve.calls": (calls["lp.solve"], "count"),
        "lp.solve.self_s": (self_s["lp.solve"], "s"),
        "lp.solve.rows_mean": (share(tracer.lp_rows, calls["lp.solve"]), "rows"),
        "lp.dd.calls": (calls["lp.dd"], "count"),
        "lp.dd.self_s": (self_s["lp.dd"], "s"),
    }
    for layer in ("regions.subset", "regions.face_complex", "regions.lower_gen_support"):
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    out["regions.generators.calls"] = (calls["regions.generators"], "count")
    out["regions.generators.hit_share"] = (
        share(tracer.generator_hits, calls["regions.generators"]), "ratio")
    out["tangents.calls"] = (total("tangents", calls), "count")
    out["tangents.self_s"] = (total("tangents", self_s), "s")
    out["tangents.proximal_filter.calls"] = (calls["tangents.proximal_filter"], "count")
    out["tangents.proximal_filter.self_s"] = (self_s["tangents.proximal_filter"], "s")
    out["certify.self_s"] = (total("certify", self_s), "s")
    out["certify.critical_cone.calls"] = (calls["certify.critical_cone"], "count")
    out["certify.mscq.calls"] = (calls["certify.mscq"], "count")
    out["certify.phi_tangents.calls"] = (calls["certify.phi_tangents"], "count")
    out["certify.phi_tangents.self_s"] = (self_s["certify.phi_tangents"], "s")
    out["oracles.samples_requested"] = (tracer.samples_requested, "count")
    out["oracles.feasible_share"] = (
        share(tracer.samples_returned, tracer.samples_requested), "ratio")
    out["oracles.sample_feasible.self_s"] = (self_s["oracles.sample_feasible"], "s")
    out["oracles.mscq.self_s"] = (self_s["oracles.mscq"], "s")
    out["oracles.membership.calls"] = (calls["oracles.membership"], "count")
    out["sets.calls"] = (total("sets", calls), "count")
    out["sets.self_s"] = (total("sets", self_s), "s")
    out["polyexpr.jet.calls"] = (calls["polyexpr.jet"], "count")
    out["polyexpr.jet.self_s"] = (self_s["polyexpr.jet"], "s")
    out["polyexpr.eval.calls"] = (tracer.counts["polyexpr.eval"], "count")
    out["cli.self_s"] = (total("cli", self_s), "s")
    out["cli.emit.self_s"] = (self_s["cli.emit"], "s")
    return out
