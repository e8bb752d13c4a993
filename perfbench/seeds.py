"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/seeds.py --workload river-cli --seeds 0-9 --out river.json

Each seed is one run of ``run.py`` with ``--trace 0``, one after another.
For every end-to-end metric the script reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance between
the quartiles as a share of the median.  With ``--trace-seed S`` it also
makes one traced run on seed S and keeps its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".perfbench_work"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run; the result line plus the record's calibration and result quality."""
    record = WORK / f"record-{os.getpid()}.json"
    record.parent.mkdir(exist_ok=True)
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--out", str(record)]
    proc = subprocess.run(argv, cwd=HERE.parent, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"seed {seed}: no result\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(proc.stderr[-3000:], file=sys.stderr)
    detail = json.loads(record.read_text())
    record.unlink()
    keep = ("machine", "calibration", "host_steal_frac", "setup_s", "modes_cpu_s", "quality",
            "output_digests")
    walls = {k: [it[k] for it in detail["iterations"] if not it["traced"]]
             for k in ("total_s", "explain_s")}
    return {**result, "record": {**{k: detail.get(k) for k in keep}, **walls}}


def spread_table(runs: list[dict]) -> dict:
    table = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        table[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median,
            "values": values,
        }
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,5,7")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", help="write the runs and the spreads to this JSON file")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    runs = []
    for seed in seeds:
        result = run_once(args.workload, seed, args.seconds, 0)
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    doc = {"workload": args.workload, "seconds": args.seconds, "runs": runs}
    if len(runs) >= 2:
        doc["spread"] = spread_table(runs)
        for name, row in doc["spread"].items():
            print(f"{name:12s} median {row['median']:.4g} {row['unit']}  "
                  f"quartiles {row['q1']:.4g}..{row['q3']:.4g}  spread {row['spread']:.3f}")
    if args.trace_seed is not None:
        doc["traced"] = {"seed": args.trace_seed,
                         **run_once(args.workload, args.trace_seed, args.seconds, 1)}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
