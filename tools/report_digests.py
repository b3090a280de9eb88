"""Digests of the normalised machine reports of the benchmark's jobs.

    python3 tools/report_digests.py [--root DIR] [--out FILE]
    python3 tools/report_digests.py --compare BASE.json HEAD.json

The first form runs every job of the job lists in ``perfbench/workloads.py``
once on seeds 1 and 20250717, in this process, through
``sharpcheck.cli.main`` of the tree at ``--root`` (default: the tree holding
this script).  It writes a JSON object mapping ``<workload>:<seed>:<job
key>`` to the sha256 of the job's machine report with ``runtime_seconds``
and ``generated_at`` blanked (``perfbench/verify.normalized``).  The perfbench modules are only read.
Each document is written under a temporary directory at the relative path
``perfbench/run.py`` echoes in its reports, so the digests do not depend on
where the tree lives and equal the ones ``run.py`` stores.  Next to that
``report`` digest each job gets a ``decision`` digest: the sha256 of the
report's verdict, exit code, kappa bounds, witnesses and CQ status alone,
so a change that only rewords diagnostics leaves it alone.  The job's
verdict, exit code and kappa bounds themselves are stored next to the two
digests.

The second form prints the keys whose report digests differ, or that only
one of the two files holds, marks those whose decision digests differ too
and prints their verdict, exit code and kappa bounds as base -> head, and
exits 0 whatever it finds.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEEDS = (1, 20250717)
DECISION = ("verdict", "exit_code", "kappa_bounds", "witnesses", "cq_status")
# the decision members stored verbatim next to the digests
SHOWN = ("verdict", "exit_code", "kappa_bounds")


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _import_cli(root: Path):
    """sharpcheck.cli from root/src, never from elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    from sharpcheck import cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"sharpcheck was imported from {cli.__file__}, not {src}")
    return cli


def _report(cli, argv: list[str]) -> bytes:
    """The bytes cli.main writes to stdout for argv."""
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", newline="")
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, io.StringIO()
    try:
        cli.main(argv)
    finally:
        out.flush()
        out.detach()
        sys.stdout, sys.stderr = saved
    return buf.getvalue()


@contextmanager
def temporary_cwd():
    """Runs the block in a new temporary directory: reports echo the
    document path, and the benchmark's paths are relative."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


def write_workload(wl, workload: str, seed: int) -> tuple[list, dict[str, str]]:
    """(jobs, instance name -> document path) of one workload and seed of
    the perfbench module wl, the documents written under the cwd at the
    relative paths ``perfbench/run.py`` echoes in its reports."""
    jobs = wl.build_jobs(workload, seed)
    docs = Path(".perfbench_state") / "docs" / f"{workload}-s{seed}"
    return jobs, {name: os.path.relpath(p)
                  for name, p in wl.write_documents(jobs, docs).items()}


def job_reports(cli, jobs, paths):
    """(job, its report bytes) for each of jobs, run one at a time."""
    for job in jobs:
        yield job, _report(cli, job.argv(paths[job.instance.name]))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def decision_bytes(report: bytes) -> bytes:
    """The DECISION members of a machine report, as canonical JSON."""
    doc = json.loads(report)
    return json.dumps({k: doc[k] for k in DECISION}, sort_keys=True,
                      separators=(",", ":")).encode()


def report_digests(root: Path = DEFAULT_ROOT, seeds=DEFAULT_SEEDS,
                   workloads: tuple | None = None) -> dict[str, dict]:
    """``<workload>:<seed>:<job key>`` -> {"report": sha256 of the
    normalised report, "decision": sha256 of its decision members, and its
    SHOWN members}, for every job of the named workloads (all of them by
    default)."""
    root = Path(root).resolve()
    wl = _load(root / "perfbench" / "workloads.py", "_digest_workloads")
    verify = _load(root / "perfbench" / "verify.py", "_digest_verify")
    cli = _import_cli(root)
    out = {}
    with temporary_cwd():
        for workload in workloads or wl.WORKLOADS:
            for seed in seeds:
                for job, report in job_reports(cli, *write_workload(wl, workload, seed)):
                    doc = json.loads(report)
                    out[f"{workload}:{seed}:{job.key}"] = {
                        "report": _sha256(verify.normalized(report)),
                        "decision": _sha256(decision_bytes(report)),
                        **{k: doc[k] for k in SHOWN}}
    return out


def differing_keys(base: dict, head: dict, member: str = "report") -> list[str]:
    """Keys whose ``member`` digests differ or that only one side holds,
    sorted."""
    def get(side, k):
        return side[k][member] if k in side else None
    return sorted(k for k in base.keys() | head.keys() if get(base, k) != get(head, k))


def shown(side: dict, key: str) -> str:
    """The SHOWN members of one side's entry for key, on one line."""
    if key not in side:
        return "absent"
    entry = side[key]
    bounds = json.dumps(entry["kappa_bounds"], sort_keys=True, separators=(",", ":"))
    return f"{entry['verdict']}, exit {entry['exit_code']}, {bounds}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=DEFAULT_ROOT,
                    help="tree whose src/ and perfbench/ are run")
    ap.add_argument("--out", type=Path, help="write the digests here, not to stdout")
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("BASE", "HEAD"))
    args = ap.parse_args(argv)
    if args.compare:
        base, head = (json.loads(p.read_text()) for p in args.compare)
        keys = differing_keys(base, head)
        decided = set(differing_keys(base, head, "decision"))
        print(f"{len(keys)} of {len(base.keys() | head.keys())} report digests differ")
        print(f"{len(decided)} of them differ in {', '.join(DECISION)}")
        for key in keys:
            print(f"  {key}" + (f" (decision): {shown(base, key)} -> {shown(head, key)}"
                                if key in decided else ""))
        return 0
    text = json.dumps(report_digests(args.root), indent=0, sort_keys=True)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
