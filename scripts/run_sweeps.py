#!/usr/bin/env python3
"""Run the desk-scale surveys and collect their JSON reports.

Four questions, four sweeps:

* ``question-path``: does every tree admit a friendly numbering?  Every
  shape up to the size bound is numbered, by construction when one
  applies and by exhaustive search otherwise.
* ``d4``: the diameter-at-most-four family, surveyed by search.
* ``odd``: trees with all degrees odd and a vertex equally far from
  every leaf, surveyed by search.  This family contains the smallest
  trunkless tree, so the searches here are the interesting ones.
* ``cb``: the double-star criterion over every tree of matching size,
  with criterion failures double-checked by exhaustive search.

A symmetry audit of small bijections rounds the set out.  Each report
lands in the output directory as JSON; findings (anything that is not a
plain "found") are printed as they appear.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from tree_amity import (
    sweep_cb_universal,
    sweep_hypothesis,
    sweep_question_path,
    symmetry_audit,
)
from tree_amity.cli import report_text


def save(out_dir: Path, name: str, command: str, report) -> Path:
    path = out_dir / f"{name}.json"
    path.write_text(report_text(command, report.to_json_dict()), encoding="utf-8")
    return path


def run_sweep(out_dir: Path, name: str, make_report, jobs: int) -> None:
    started = time.monotonic()
    report = make_report(jobs)
    elapsed = time.monotonic() - started
    path = save(out_dir, name, "sweep", report)
    counts = ", ".join(f"{k}={v}" for k, v in report.counts().items()) or "empty"
    print(f"{name}: {len(report.records)} trees ({counts}) "
          f"in {elapsed:.1f}s -> {path}")
    for rec in report.findings:
        print(f"  finding [{rec.outcome}] {rec.code}: "
              f"{rec.tree_text.strip().replace(chr(10), ' / ')}"
              + (f" ({rec.detail})" if rec.detail else ""))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="results",
                    help="directory for the JSON reports (default: results)")
    ap.add_argument("--jobs", type=int, default=1,
                    help="worker processes per sweep (default 1)")
    ap.add_argument("--question-edges", type=int, default=8,
                    help="size bound for the numberability survey")
    ap.add_argument("--d4-edges", type=int, default=8,
                    help="size bound for the diameter-four family")
    ap.add_argument("--odd-edges", type=int, default=9,
                    help="size bound for the all-odd-degree family")
    ap.add_argument("--cb", nargs=2, type=int, action="append",
                    metavar=("N1", "N2"), default=None,
                    help="double-star split to survey (repeatable; "
                         "default: 4 4, 5 4, 5 5)")
    ap.add_argument("--audit-edges", type=int, default=5,
                    help="size bound for the bijection symmetry audit")
    args = ap.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    splits = args.cb if args.cb is not None else [(4, 4), (5, 4), (5, 5)]

    run_sweep(out_dir, f"question-path-{args.question_edges}",
              lambda jobs: sweep_question_path(args.question_edges, jobs=jobs),
              args.jobs)
    run_sweep(out_dir, f"d4-{args.d4_edges}",
              lambda jobs: sweep_hypothesis(args.d4_edges, "d4", jobs=jobs),
              args.jobs)
    run_sweep(out_dir, f"odd-{args.odd_edges}",
              lambda jobs: sweep_hypothesis(args.odd_edges, "odd", jobs=jobs),
              args.jobs)
    for n1, n2 in splits:
        run_sweep(out_dir, f"cb-{n1}-{n2}",
                  lambda jobs, a=n1, b=n2: sweep_cb_universal(
                      a, b, jobs=jobs, confirm=True),
                  args.jobs)

    started = time.monotonic()
    audit = symmetry_audit(args.audit_edges, jobs=args.jobs)
    path = save(out_dir, f"audit-{args.audit_edges}", "audit-symmetry", audit)
    print(f"audit-{args.audit_edges}: {len(audit.records)} pairs, "
          f"{audit.total_friendly} friendly, "
          f"{audit.total_failures} inverse failures "
          f"in {time.monotonic() - started:.1f}s -> {path}")
    return 0 if audit.total_failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
