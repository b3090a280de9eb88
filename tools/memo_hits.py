"""Hits, builds and build seconds of each memo kind over one warm pass.

    python3 tools/memo_hits.py WORKLOAD [--seed S]

Runs the job list of WORKLOAD (``perfbench/workloads.py`` of the tree
holding this script; the perfbench modules are only read) twice in this
process through ``sharpcheck.cli.main`` of that tree's src/: one untimed
warm-up pass, then one counted pass.  Each document is written under a
temporary directory at the relative path ``perfbench/run.py`` echoes in
its reports.

For the counted pass ``sharpcheck.lp._reused``, the one entry of every
memo kind listed in the ``lp`` module docstring, is replaced from outside,
as ``perfbench/spans.py`` wraps functions.  Inside an open
``lp.reuse_scope`` a call that the memo answers is a hit and a call that
computes its result is a build.  A build's seconds are process CPU seconds
and include the builds it sets off, so the column does not sum to a pass.
Calls outside every scope are not counted; a workload that opens no scope
prints no kind.  Kinds are listed by build seconds, largest first.  It
exits 0 whatever it finds.
"""
from __future__ import annotations

import argparse
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))   # the sibling tools
import report_digests as digests  # noqa: E402


def count_pass(cli, lp, jobs, paths) -> dict[str, list]:
    """kind -> [hits, builds, build seconds] over one pass of jobs, with
    lp._reused wrapped for the pass and restored after it."""
    counts: dict[str, list] = defaultdict(lambda: [0, 0, 0.0])
    reused = lp._reused

    def counting(kind, parts, compute):
        if lp._REUSE.get() is None:
            return reused(kind, parts, compute)
        built = []

        def build():
            start = time.process_time()
            value = compute()
            built.append(time.process_time() - start)
            return value
        value = reused(kind, parts, build)
        row = counts[kind]
        if built:
            row[1] += 1
            row[2] += built[0]
        else:
            row[0] += 1
        return value

    lp._reused = counting
    try:
        list(digests.job_reports(cli, jobs, paths))
    finally:
        lp._reused = reused
    return dict(counts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    wl = digests._load(HERE.parent / "perfbench" / "workloads.py", "_memo_workloads")
    if args.workload not in wl.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(wl.WORKLOADS)}")
    cli = digests._import_cli(HERE.parent)
    from sharpcheck import lp   # of the same src/ as cli
    with digests.temporary_cwd():
        jobs, paths = digests.write_workload(wl, args.workload, args.seed)
        list(digests.job_reports(cli, jobs, paths))   # warm-up: a process's first pass runs slow
        counts = count_pass(cli, lp, jobs, paths)
    print(f"{args.workload}, seed {args.seed}: {len(jobs)} jobs, one warm pass")
    print(f"  {'kind':<28}{'hits':>8}{'builds':>8}{'build_s':>10}")
    for kind, (hits, builds, seconds) in sorted(counts.items(), key=lambda kv: -kv[1][2]):
        print(f"  {kind:<28}{hits:>8}{builds:>8}{seconds:>10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
