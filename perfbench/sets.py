#!/usr/bin/env python3
"""Run a set of seeds per workload and summarize each end-to-end metric.

    python3 perfbench/sets.py --label A --seeds 1-10
    python3 perfbench/sets.py --label B --seeds 11-20 --against A

Runs run.py once per (workload, seed), one at a time, for the run length
in BENCHMARK.json, appends each result line to
perfbench/out/sets-<label>.jsonl and prints, per workload and metric, the
median, the quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median; with --against, also the change of the median against
an earlier set.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load(label: str) -> dict:
    """{workload: {metric: [values]}} and failure shares from a set file."""
    data: dict = {}
    for line in (OUT / f"sets-{label}.jsonl").read_text().splitlines():
        row = json.loads(line)
        per = data.setdefault(row["workload"], {})
        per.setdefault("failed_share", []).append(row["failed"] / row["attempted"])
        for name, m in row["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return data


def summarize(label: str, against: str | None) -> None:
    data = load(label)
    base = load(against) if against else {}
    for workload, metrics in data.items():
        print(f"{workload} ({len(metrics['failed_share'])} runs, "
              f"failed shares {sorted(set(metrics['failed_share']))})")
        for name, values in metrics.items():
            if name == "failed_share":
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            line = (f"  {name:14s} median {med:10.4f}  Q1 {q1:10.4f}  Q3 {q3:10.4f}"
                    f"  spread {(q3 - q1) / med:6.1%}")
            if name in base.get(workload, {}):
                line += f"  vs {against} {med / statistics.median(base[workload][name]) - 1:+6.1%}"
            print(line)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--against")
    args = ap.parse_args()
    OUT.mkdir(exist_ok=True)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    with open(OUT / f"sets-{args.label}.jsonl", "a") as fh:
        for workload in ("sweep", "enumerate", "large"):
            for seed in seeds_of(args.seeds):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", "0"], capture_output=True, text=True)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return 1
                row = json.loads(proc.stdout.strip().splitlines()[-1])
                fh.write(json.dumps(dict(row, workload=workload, seed=seed)) + "\n")
                fh.flush()
    summarize(args.label, args.against)
    return 0


if __name__ == "__main__":
    sys.exit(main())
