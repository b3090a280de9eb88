"""Closed-loop benchmark of the sharpcheck command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process calls ``sharpcheck.cli.main(argv)`` with stdout
captured, each check after the previous one returns, on problem documents
generated from ``--seed`` (see workloads.py).  A pass runs the workload's
job list once.  Every report is graded against the instance's closed-form
growth constant (verify.py) and compared byte for byte, outside
``runtime_seconds`` and ``generated_at``, across the passes of a run and
with any earlier run of the same seed on the same source tree.

``--trace 0`` runs ``max(2, round(S / PASS_SECONDS))`` passes, a count that
does not depend on how fast the program is, and reports the end-to-end
metrics.  ``--trace 1`` runs one warm-up pass, then TRACE_PAIRS pairs of an
untraced and a traced pass, and reports the per-layer metrics of spans.py
plus the tracing overhead.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts the checks in the job list and ``failed`` those that
raised, exited outside {0, 1, 2, 3}, changed their report bytes, or
contradicted the ground truth in any pass.  ``correct`` is false when a
check raised, used an undocumented exit code or changed its report bytes;
a verdict that contradicts the ground truth counts in ``failed`` and is
listed by name, and leaves ``correct`` alone.
"""
from __future__ import annotations

import time

START = time.perf_counter()   # setup_s runs from here to the first check

import argparse
import dataclasses
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench_state"
# Nominal length of one pass at the parent commit on a 2-vCPU host; it sets
# the pass count, so every commit is measured with the same estimator.
PASS_SECONDS = 6.0
MIN_PASSES = 2
TRACE_PAIRS = 2
TAIL_BEYOND = 10

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, no sharpcheck sources)."""


def import_cli():
    """sharpcheck.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "sharpcheck" / "cli.py").is_file():
        raise BenchError(f"no sharpcheck sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from sharpcheck import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"sharpcheck was imported from {cli.__file__}, not {SRC}")
    return cli


@dataclasses.dataclass
class Outcome:
    seconds: float
    code: int | None
    report: bytes
    error: str | None


def invoke(cli, argv: list[str]) -> Outcome:
    """One check through cli.main with stdout and stderr captured."""
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", newline="")
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:
        error = traceback.format_exc(limit=4)
    finally:
        seconds = time.perf_counter() - start
        out.flush()
        out.detach()
        sys.stdout, sys.stderr = saved
    return Outcome(seconds, code, buf.getvalue(), error)


def run_pass(cli, jobs, paths) -> tuple[float, list[Outcome]]:
    start = time.perf_counter()
    results = [invoke(cli, job.argv(paths[job.instance.name])) for job in jobs]
    return time.perf_counter() - start, results


@dataclasses.dataclass
class Grade:
    failures: dict           # job key -> reason
    broken: int              # failures that make the run incorrect
    decided: int
    digests: dict            # job key -> sha256 of the normalized report


def grade(jobs, passes: list[list[Outcome]], earlier: dict | None) -> Grade:
    """Grade each job over all passes; ``earlier`` holds digests from a
    previous run of the same seed and source tree."""
    failures, broken, decided, digests = {}, 0, 0, {}
    for i, job in enumerate(jobs):
        outs = [results[i] for results in passes]
        first = outs[0]
        norm = {verify.normalized(o.report) for o in outs}
        digest = hashlib.sha256(verify.normalized(first.report)).hexdigest()
        digests[job.key] = digest
        reason = None
        if any(o.error for o in outs):
            reason = "raised: " + next(o.error for o in outs if o.error).strip().splitlines()[-1]
        elif any(o.code not in verify.EXIT_CODES for o in outs):
            reason = f"exit code {[o.code for o in outs]} outside {verify.EXIT_CODES}"
        elif len(norm) > 1:
            reason = "report bytes differ between passes"
        elif earlier and earlier.get(job.key, digest) != digest:
            reason = "report bytes differ from an earlier run with this seed"
        if reason is not None:
            failures[job.key] = reason
            broken += 1
            continue
        try:
            report = verify.parse_report(first.report)
        except ValueError as ex:
            failures[job.key] = f"unparseable report: {ex}"
            broken += 1
            continue
        if report is not None and report.get("exit_code") != first.code:
            failures[job.key] = f"exit {first.code} but report says {report.get('exit_code')}"
            broken += 1
            continue
        outcome, why = verify.judge(job, first.code, report)
        if outcome == verify.CONTRADICTS:
            failures[job.key] = "unsound: " + why
        elif outcome == verify.AGREE and first.code in (0, 1):
            decided += 1
    return Grade(failures, broken, decided, digests)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*(SRC / "sharpcheck").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def earlier_digests(workload: str, seed: int):
    """(digests of an earlier run with this seed or None, path to store ours)."""
    path = STATE / "digests" / source_digest() / f"{workload}-s{seed}.json"
    if path.is_file():
        return json.loads(path.read_text()), path
    return None, path


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least TAIL_BEYOND
    values beyond it; the maximum when the sample is smaller than that."""
    ordered = sorted(values)
    idx = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def end_to_end(walls, passes, setup_s, decided_share):
    # every check of every pass is one latency sample
    latencies = [o.seconds for results in passes for o in results]
    tail_value, pct = tail(latencies)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "check_s_p50": (statistics.median(latencies), "s"),
        "check_s_tail": (tail_value, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "decided_share": (decided_share, "ratio"),
    }
    notes = [f"wall_s is the median of {len(walls)} pass walls: "
             + ", ".join(f"{w:.3f}" for w in walls) + " s",
             f"check latencies: {len(latencies)} samples, {len(passes[0])} checks "
             f"in each of {len(passes)} passes; check_s_tail is p{pct:.1f}"]
    return metrics, notes


def traced_passes(cli, jobs, paths):
    """A warm-up pass fills the program's in-process caches, then TRACE_PAIRS
    pairs of an untraced and a traced pass follow, alternating which runs
    first.  The layer metrics come from the faster traced pass; the overhead
    is the median traced pass wall minus the median untraced one."""
    passes = [run_pass(cli, jobs, paths)[1]]
    plain, traced = [], []

    def traced_pass():
        tracer = spans.Tracer()
        uninstall = tracer.install()
        try:
            traced.append((*run_pass(cli, jobs, paths), tracer))
        finally:
            uninstall()

    for i in range(TRACE_PAIRS):
        if i % 2:
            traced_pass()
        plain.append(run_pass(cli, jobs, paths))
        if not i % 2:
            traced_pass()
    wall, _, tracer = min(traced, key=lambda t: t[0])
    metrics = spans.layer_metrics(tracer)
    plain_s = statistics.median(w for w, _ in plain)
    traced_s = statistics.median(w for w, _, _ in traced)
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    passes += [r for _, r in plain] + [r for _, r, _ in traced]
    notes = [f"after a warm-up pass, {TRACE_PAIRS} untraced and {TRACE_PAIRS} traced "
             f"passes; median pass wall {plain_s:.3f} s untraced, "
             f"{traced_s:.3f} s traced; layer metrics from the traced pass of "
             f"{wall:.3f} s, {len(tracer.spans)} spans",
             f"lp.solve.rows_mean over {metrics['lp.solve.calls'][0]} solves; "
             f"regions.generators.hit_share over {metrics['regions.generators.calls'][0]} "
             f"calls; oracles.feasible_share over "
             f"{metrics['oracles.samples_requested'][0]} requested samples"]
    return passes, metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True,
                    help=f"workload seed; {workloads.HELD_OUT_SEED} is held out "
                         "for confirming claims")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.environ.pop("SHARPCHECK_THREADS", None)
    try:
        cli = import_cli()
    except BenchError as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 2
    os.chdir(ROOT)   # reports echo the document path; keep it relative
    jobs = workloads.build_jobs(args.workload, args.seed)
    docs = STATE / "docs" / f"{args.workload}-s{args.seed}"
    shutil.rmtree(docs, ignore_errors=True)
    paths = {name: os.path.relpath(p, ROOT)
             for name, p in workloads.write_documents(jobs, docs).items()}
    setup_s = time.perf_counter() - START
    try:
        if args.trace:
            passes, metrics, notes = traced_passes(cli, jobs, paths)
        else:
            count = max(MIN_PASSES, round(args.seconds / PASS_SECONDS))
            walls, passes = zip(*(run_pass(cli, jobs, paths) for _ in range(count)))
    finally:
        shutil.rmtree(docs, ignore_errors=True)
    earlier, store = earlier_digests(args.workload, args.seed)
    result = grade(jobs, passes, earlier)
    if earlier is None:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(result.digests, sort_keys=True, indent=0))
    if not args.trace:
        metrics, notes = end_to_end(walls, passes, setup_s, result.decided / len(jobs))

    attempted, failed = len(jobs), len(result.failures)
    print(f"workload {args.workload}, seed {args.seed}, {attempted} checks, "
          f"{len(passes)} passes, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    print(f"  {'failed_share':<34} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted})")
    print(f"  {'decided':<34} {result.decided:>14} of {attempted} checks "
          "(exit 0 or 1 and agreeing with the ground truth)")
    for note in notes:
        print("  " + note)
    for key, reason in result.failures.items():
        print(f"  FAILED {key}: {reason}")
    print(json.dumps({
        "correct": result.broken == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
