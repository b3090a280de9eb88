"""Alternating in-process passes of the benchmark's workloads on two trees.

    python3 tools/ab_passes.py BASE HEAD [--pairs N] [--seed S] [--workload W]...

Loads ``sharpcheck`` from BASE/src and from HEAD/src into this one process,
as two packages under separate names, so both sides share the interpreter,
its imports and its allocator.  For each workload of
``perfbench/workloads.py`` (of the tree holding this script; the perfbench
modules are only read) the documents are written once, under a temporary
directory at the relative paths ``perfbench/run.py`` echoes in its reports.
First each tree runs one untimed warm-up pass of every selected workload;
then, workload by workload, N pairs of passes follow, one pass per tree,
with the order flipped every pair.  A pass runs the workload's job list
once through ``cli.main`` and is timed in process CPU seconds, which a
shared host's scheduling disturbs less than the wall clock.

For each workload it prints each tree's median, 25th- and 75th-percentile
CPU seconds per pass; each tree's median and tail CPU milliseconds per
check over all timed passes, the tail being ``perfbench/run.py``'s (the
highest percentile with ten samples beyond it), and the keys of the jobs
whose samples lie at or above that tail, with their sample counts, so a tail
claim shows which jobs moved; the median over the pairs of HEAD's pass over
BASE's; whether every job's normalised report
(``runtime_seconds`` and ``generated_at`` blanked) is the same on both
trees in every pass; in how many pairs HEAD's per-check median and
HEAD's pass fell below BASE's, a tie counting for neither; and last the
three numbers the benchmark's acceptance rule compares for a claimed gain
(better in at least 9 of 10 pairs, by a median gap above BASE's
interquartile range): BASE's median pass minus HEAD's, BASE's p75 minus
p25, and HEAD's pass wins.  It exits 0 whatever it finds, like
``report_digests.py --compare``.

The noise floor: an A/A control, a tree against a copy of itself, on a
shared 2-vCPU host read HEAD/BASE medians of x1.021, x1.024 and x0.991 on
``necessary_sweep`` (10 pairs each, seeds 1, 1 and 20250717).  A ratio
inside that spread is no evidence of a change.
"""
from __future__ import annotations

import argparse
import collections
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))   # the sibling tools
import report_digests as digests  # noqa: E402


def load_cli(root: Path, name: str):
    """``sharpcheck.cli`` of root/src, imported as the package ``name``, so
    that several trees can live in one process."""
    init = (Path(root) / "src" / "sharpcheck" / "__init__.py").resolve()
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def quartiles(t: list[float]) -> tuple[float, float]:
    """The 25th and 75th percentiles of t (inclusive method); a single
    value is both."""
    if len(t) < 2:
        return t[0], t[0]
    q = statistics.quantiles(t, n=4, method="inclusive")
    return q[0], q[2]


def run_pass(cli, jobs, paths, normalized) -> tuple[list[float], list[bytes]]:
    """(process CPU seconds of each job, normalised reports) of one pass
    over jobs."""
    seconds, reports = [], []
    for job in jobs:
        start = time.process_time()
        reports.append(digests._report(cli, job.argv(paths[job.instance.name])))
        seconds.append(time.process_time() - start)
    return seconds, [normalized(r) for r in reports]


class Workload:
    """One workload's jobs and documents on both trees, with the reports
    and CPU seconds its passes have seen."""

    def __init__(self, clis, workload: str, seed: int, wl, verify):
        self.clis, self.normalized = clis, verify.normalized
        self.jobs, self.paths = digests.write_workload(wl, workload, seed)
        self.seen = [set() for _ in self.jobs], [set() for _ in self.jobs]   # per tree and job
        self.times, self.checks = ([], []), ([], [])

    def run(self, side: int, timed: bool) -> None:
        seconds, reports = run_pass(self.clis[side], self.jobs, self.paths, self.normalized)
        for got, report in zip(self.seen[side], reports):
            got.add(report)
        if timed:
            self.times[side].append(sum(seconds))
            self.checks[side].append(seconds)

    def warm_up(self) -> None:
        self.run(0, False)
        self.run(1, False)

    def tail_jobs(self, side: int, value: float) -> list[tuple[str, int]]:
        """(job key, samples) of each job with timed samples at or above
        value on one tree, the most samples first."""
        return collections.Counter(job.key for seconds in self.checks[side]
                                   for job, t in zip(self.jobs, seconds)
                                   if t >= value).most_common()

    def compare(self, pairs: int) -> dict:
        """Times pairs of passes, the order flipped every pair; returns the
        CPU seconds per timed pass and per check of each tree, the per-pair
        HEAD/BASE ratios, the pairs HEAD won and the keys of the jobs whose
        reports differ between trees."""
        for i in range(pairs):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                self.run(side, True)
        times, checks = self.times, self.checks
        return {"jobs": len(self.jobs), "base": times[0], "head": times[1],
                "base_checks": [t for p in checks[0] for t in p],
                "head_checks": [t for p in checks[1] for t in p],
                "ratios": [h / b for b, h in zip(*times) if b > 0.0],
                "differ": [job.key for job, b, h in zip(self.jobs, *self.seen) if b != h],
                "check_wins": sum(statistics.median(h) < statistics.median(b)
                                  for b, h in zip(*checks)),
                "pass_wins": sum(h < b for b, h in zip(*times))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path, help="tree whose src/ is the baseline")
    ap.add_argument("head", type=Path, help="tree whose src/ is compared with it")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    bench = HERE.parent / "perfbench"
    wl = digests._load(bench / "workloads.py", "_ab_workloads")
    verify = digests._load(bench / "verify.py", "_ab_verify")
    tail = digests._load(bench / "run.py", "_ab_run").tail
    for name in args.workload or ():
        if name not in wl.WORKLOADS:
            ap.error(f"unknown workload {name!r}; choose from {', '.join(wl.WORKLOADS)}")
    clis = (load_cli(args.base, "_ab_base_sharpcheck"),
            load_cli(args.head, "_ab_head_sharpcheck"))
    with digests.temporary_cwd():
        names = args.workload or wl.WORKLOADS
        runs = [Workload(clis, name, args.seed, wl, verify) for name in names]
        for run in runs:   # a process's first passes run slow, whatever the workload
            run.warm_up()
        for workload, run in zip(names, runs):
            got = run.compare(args.pairs)
            print(f"{workload}, seed {args.seed}: {args.pairs} pairs, "
                  f"{got['jobs']} jobs, process CPU seconds per pass")
            for i, (side, root) in enumerate((("base", args.base), ("head", args.head))):
                t = got[side]
                p25, p75 = quartiles(t)
                print(f"  {side}: median {statistics.median(t):.4f} s, "
                      f"p25 {p25:.4f} s, p75 {p75:.4f} s  ({root})")
                c = got[f"{side}_checks"]
                value, pct = tail(c)
                print(f"  {side} per check: median {1e3 * statistics.median(c):.3f} ms, "
                      f"p{pct:.1f} {1e3 * value:.3f} ms  ({len(c)} checks)")
                print(f"  {side} jobs at or above p{pct:.1f}: " + ", ".join(
                    f"{key} {n}" for key, n in run.tail_jobs(i, value)))
            ratio = statistics.median(got["ratios"]) if got["ratios"] else float("nan")
            print(f"  head/base: median per-pair ratio {ratio:.3f}")
            if got["differ"]:
                print(f"  normalised reports differ in {len(got['differ'])} "
                      f"of {got['jobs']} jobs: {', '.join(got['differ'])}")
            else:
                print(f"  normalised reports identical in all {got['jobs']} jobs")
            print(f"  head below base: per-check median in {got['check_wins']} of "
                  f"{args.pairs} pairs, pass in {got['pass_wins']} of {args.pairs} pairs")
            gap = statistics.median(got["base"]) - statistics.median(got["head"])
            p25, p75 = quartiles(got["base"])
            print(f"  median gap (base - head) {gap:+.4f} s, base IQR {p75 - p25:.4f} s, "
                  f"head wins {got['pass_wins']} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
