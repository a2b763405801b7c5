#!/usr/bin/env python3
"""Run the desk-scale surveys and collect their JSON reports.

Four questions, four sweeps:

* ``question-path``: does every tree admit a friendly numbering?  Every
  shape up to the size bound is numbered, by construction when one
  applies and by exhaustive search otherwise.
* ``d4``, the diameter-at-most-four family, and ``odd``, trees with all
  degrees odd and a vertex equally far from every leaf: the same survey
  over the family alone.  The odd family contains the smallest trunkless
  tree, so its searches are the interesting ones.
* ``cb``: the double-star criterion over every tree of matching size,
  with criterion failures double-checked by exhaustive search.

A symmetry audit of small bijections rounds the set out.  Each survey
runs through the ``tree-amity`` command, which writes its JSON report
into the output directory and prints its summary and findings (anything
that is not a plain "found") on stderr.  The script prints one line per
survey on stdout: exit code, wall time, report path and report size in
bytes.  The exit code is the worst of the surveys' exit codes.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from tree_amity import cli


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
    surveys = [
        (f"question-path-{args.question_edges}",
         f"sweep --kind question-path -m {args.question_edges}"),
        (f"d4-{args.d4_edges}", f"sweep --kind d4 -m {args.d4_edges}"),
        (f"odd-{args.odd_edges}", f"sweep --kind odd -m {args.odd_edges}"),
        *((f"cb-{n1}-{n2}", f"sweep --kind cb --n1 {n1} --n2 {n2} --confirm")
          for n1, n2 in splits),
        (f"audit-{args.audit_edges}", f"audit-symmetry -m {args.audit_edges}"),
    ]
    worst = 0
    for name, command in surveys:
        path = out_dir / f"{name}.json"
        path.unlink(missing_ok=True)
        started = time.monotonic()
        code = cli.main([*command.split(), "--jobs", str(args.jobs), "--out", str(path)])
        elapsed = time.monotonic() - started
        size = f"{path.stat().st_size} bytes" if path.exists() else "no report"
        print(f"{name}: exit {code} in {elapsed:.1f}s -> {path} ({size})")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
