"""Run a change against its parent and judge it, metric by metric.

    # ten alternating pairs per workload; writes one result set per side
    python3 perfbench/compare.py pairs --parent ../parent --change . \\
        --out-parent parent.json --out-change change.json

    # the verdict table, one row per workload and metric
    python3 perfbench/compare.py compare parent.json change.json

Each run is ``python3 perfbench/run.py`` inside the given checkout, so both
sides use their own copy of the benchmark; give them identical copies.
``pairs`` runs every workload of the parent's BENCHMARK.json for its
``run_seconds``: pair ``i`` (0 to 9) runs both sides with seed ``i + 1``
and swaps which side goes first on every other pair.

A workload where either side lacks a result for one of the ten seeds, or
has a run with a failed operation, gets one ``FAILED`` row in place of its
verdicts, and the command exits non-zero; so no gain is ever reported for a
change that fails more operations than its parent.  Otherwise each
end-to-end metric gets a verdict, with the bounds of BENCHMARK.json:

* ``gain``: the change wins at least nine of every ten pairs (ties count
  for neither side) and the medians differ by more than the parent's
  interquartile range;
* ``unresolved``: no gain, and the spread of either side (interquartile
  range over median) exceeds the bound, unless every change run reads better
  than every parent run;
* ``regression``: the change's median is worse than the parent's by more
  than the bound; the command exits non-zero;
* ``no worse``: none of the above.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
SEEDS = range(1, PAIRS + 1)
GAIN_SHARE = 0.9


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    got = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    record = {"workload": workload, "seed": seed, "exit_code": got.returncode}
    lines = got.stdout.strip().splitlines()
    if got.returncode != 0 or len(lines) < 2:
        record["error"] = got.stderr.strip().splitlines()[-1:] or ["no output"]
        return record
    record["environment"] = json.loads(lines[-2])["environment"]
    record["result"] = json.loads(lines[-1])
    return record


def summary_line(side: str, record: dict) -> str:
    if "result" not in record:
        return f"{side} {record['workload']} seed {record['seed']}: FAILED {record['error']}"
    metrics = record["result"]["metrics"]
    shown = ", ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items())
    return (f"{side} {record['workload']} seed {record['seed']}: "
            f"correct={record['result']['correct']} {shown}")


def cmd_pairs(args) -> int:
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((sides["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs: dict[str, list] = {"parent": [], "change": []}
    for i, seed in enumerate(SEEDS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in (w["name"] for w in bench["workloads"]):
            for side in order:
                record = run_once(sides[side], workload, seed, bench["run_seconds"])
                record["pair"] = i
                record["first"] = side == order[0]
                print(summary_line(side, record), flush=True)
                runs[side].append(record)
    write_set(args.out_parent, sides["parent"], bench, runs["parent"])
    write_set(args.out_change, sides["change"], bench, runs["change"])
    return 0


def write_set(path: Path, checkout: Path, bench: dict, runs: list) -> None:
    doc = {"checkout": checkout.name, "benchmark": bench, "runs": runs,
           "summary": summarize(runs)}
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def series(runs: list) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = {}
    for record in runs:
        if "result" not in record:
            continue
        for name, metric in record["result"]["metrics"].items():
            out.setdefault((record["workload"], name), []).append(metric["value"])
    return out


def summarize(runs: list) -> dict:
    out: dict = {}
    for (workload, name), values in series(runs).items():
        q1, median, q3 = quartiles(values)
        out.setdefault(workload, {})[name] = {
            "median": median, "q1": q1, "q3": q3, "runs": len(values),
            "spread": (q3 - q1) / median if median else 0.0,
        }
    for workload in out:
        failed = [r for r in runs if r["workload"] == workload
                  and ("result" not in r or not r["result"]["correct"])]
        out[workload]["incorrect_runs"] = len(failed)
    return out


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int]:
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    if wins >= GAIN_SHARE * len(parent) and sign * (pmed - cmed) > pq3 - pq1:
        return "gain", wins
    spread = max((pq3 - pq1) / pmed if pmed else 0.0, (cq3 - cq1) / cmed if cmed else 0.0)
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if spread > bound and not all_better:
        return "unresolved", wins
    if sign * (cmed - pmed) > bound * abs(pmed):
        return "regression", wins
    return "no worse", wins


def problems(side: str, records: dict[int, dict]) -> list[str]:
    """Why one side's runs of a workload cannot be judged; empty when they can."""
    out = []
    for seed in SEEDS:
        record = records.get(seed)
        if record is None:
            out.append(f"{side} seed {seed} missing")
        elif "result" not in record:
            out.append(f"{side} seed {seed} gave no result")
        elif not record["result"]["correct"] or record["result"]["failed"]:
            out.append(f"{side} seed {seed}: {record['result']['failed']} failed operations")
    return out


def cmd_compare(args) -> int:
    docs = {side: json.loads(path.read_text(encoding="utf-8"))
            for side, path in (("parent", args.parent), ("change", args.change))}
    bench = docs["parent"]["benchmark"]
    header = f"{'workload':<10} {'metric':<12} {'parent median [q1,q3]':<30} " \
             f"{'change median [q1,q3]':<30} {'wins':>6} {'bound':>6}  verdict"
    print(header)
    print("-" * len(header))
    bad = 0
    for workload in (w["name"] for w in bench["workloads"]):
        records = {side: {r["seed"]: r for r in doc["runs"] if r["workload"] == workload}
                   for side, doc in docs.items()}
        why = [p for side in docs for p in problems(side, records[side])]
        if why:
            bad += 1
            print(f"{workload:<10} {'-':<12} FAILED: {'; '.join(why)}")
            continue
        for meta in bench["end_to_end"]:
            name = meta["name"]
            parent, change = ([records[side][seed]["result"]["metrics"][name]["value"]
                               for seed in SEEDS] for side in ("parent", "change"))
            result, wins = verdict(parent, change, meta["better"], meta["bound"])
            bad += result == "regression"
            pq1, pmed, pq3 = quartiles(parent)
            cq1, cmed, cq3 = quartiles(change)
            print(f"{workload:<10} {name:<12} {pmed:>10.4g} [{pq1:.4g},{pq3:.4g}]".ljust(55)
                  + f"{cmed:>10.4g} [{cq1:.4g},{cq3:.4g}]".ljust(31)
                  + f"{wins:>3}/{PAIRS:<3}{meta['bound']:>6}  {result}")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pairs", help="alternating runs of a parent and a change")
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--out-parent", type=Path, required=True)
    p.add_argument("--out-change", type=Path, required=True)
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("compare", help="verdict table for two result sets")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.set_defaults(func=cmd_compare)

    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
