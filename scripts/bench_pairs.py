"""Time a base commit against a change in interleaved pairs.

Usage:

    python3 scripts/bench_pairs.py BASE [--change REV] \
        [--workloads trimodal-mean-gbt trimodal-mode-linear] \
        [--seed 3] [--out FILE.json]

BASE and CHANGE (default ``HEAD``) are git revisions; each is exported with
``git archive`` into its own temporary directory (under ``$TMPDIR`` when it
is set), so both sides run their committed files.  Two kinds of pair,
``PAIRS`` of each:

- ``fit_gbt``: in a fresh interpreter per side, ``fit_gbt`` on the
  trimodal-mean-gbt training rows (``synth --preset trimodal --n 2000
  --seed 3``, the 0.8 train split of ``fit --seed 3``: 1,600 rows), 300
  trees of depth 3.  One untimed fit, then the CPU time of one fit.
- ``tree_map``: in a fresh interpreter per side, ``explain --mode 0
  --index 0 --k-max 4 --seed 3`` run in process against a 300-tree GBT
  of depth 3 fitted (``fit --seed 3``) to the same data; the CPU time of
  its MAP search (``direct_search_map``, 423 starts).
- ``shapley``: in a fresh interpreter per side and per d, ``shapley_values(
  model, bg, x)`` of one row of a random linear model over 200 random
  background rows at d = 12 and d = 14: the best CPU time of 3 calls, each
  predicting its 2^d pinned batches, and the interpreter's peak RSS
  (``ru_maxrss``), so a d = 14 peak cannot mask the d = 12 one.
- ``em``: in a fresh interpreter per side, with one BLAS thread as each
  CLI command runs, the CPU time of the mixture fits of a mode-linear
  ``explain --k-max 4 --seed 3`` on the same 2,000 rows (``fit_priors``
  and the label ``select_k``, 16 ``fit_gmm`` calls), and of
  ``select_k(labels, 6, 3)`` on the labels of the 10,000 seed-3 trimodal
  rows; then, in a second, untimed pass, the restart-steps of each: the
  E-steps summed over restarts, counted at ``_em_map``.
- ``perfbench``: ``perfbench/run.py --workload W --seed SEED --trace 0``
  from each side's checkout, at the run length it configures; its
  end-to-end metrics.

Odd pairs run the base first, even pairs the change first.  For each
number the record keeps every pair, both medians, the base's quartiles
(inclusive interpolation) and the pairs where the change is strictly lower;
and each pair's difference (change - base), their median and quartiles, and
a two-sided sign-test p-value over the pairs that differ.  ``summary`` makes
that record from two lists alone, so an older record is summarised again by
calling it on the lists the record stores.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DATA_SEED = "3"  # the trimodal data seed of perfbench, and its fit split seed
PAIRS = 10  # the fewest pairs that can show a gain: the change must win 9 of 10
FIT = """
import sys, time
from devexplain.dataset import load_csv, split
from devexplain.models import GbtParams, fit_gbt
train, _ = split(load_csv(sys.argv[1], "y"), 0.8, 3)
params = GbtParams(n_trees=300, max_depth=3)
fit_gbt(train, params)
start = time.process_time()
fit_gbt(train, params)
print(train.n, time.process_time() - start)
"""

TREE_MAP = """
import sys, time
from devexplain import attribution, cli
spent = []
search = attribution.direct_search_map
def timed(*args, **kwargs):
    start = time.process_time()
    result = search(*args, **kwargs)
    spent.append(time.process_time() - start)
    return result
attribution.direct_search_map = timed
data, model, out = sys.argv[1:]
code = cli.main(["explain", "--data", data, "--model", model, "--mode", "0", "--index", "0",
                 "--k-max", "4", "--seed", "3", "--out", out])
print(code, *spent)
"""

SHAPLEY = """
import resource, sys, time
import numpy as np
from devexplain.anova import BackgroundSample
from devexplain.attribution import shapley_values
from devexplain.models import LinearModel
d = int(sys.argv[1])
rng = np.random.default_rng(d)
model = LinearModel(float(rng.normal()), rng.normal(size=d))
bg = BackgroundSample(rng.normal(size=(200, d)))
x = rng.normal(size=d)
best = []
for _ in range(3):
    start = time.process_time()
    shapley_values(model, bg, x)
    best.append(time.process_time() - start)
print(min(best), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""
SHAPLEY_DIMS = (12, 14)

EM = """
import sys, time
import devexplain.cli  # one BLAS thread, as each CLI command runs
from devexplain import mixtures
from devexplain.dataset import generate_synthetic, load_csv, trimodal_benchmark_spec
data = load_csv(sys.argv[1], "y")
labels = generate_synthetic(trimodal_benchmark_spec(), 10000, 3).labels
priors_seed, _, label_seed = mixtures._command_seeds(3)
def mode_linear():
    mixtures.fit_priors(data, 4, priors_seed)
    mixtures.select_k(data.labels, 4, label_seed)
def select_k_10k():
    mixtures.select_k(labels, 6, 3)
seconds = []
for fits in (mode_linear, select_k_10k):
    start = time.process_time()
    fits()
    seconds.append(time.process_time() - start)
em_map, steps = mixtures._em_map, []
def counted(theta, *args):
    steps[-1] += len(theta)
    return em_map(theta, *args)
mixtures._em_map = counted
for fits in (mode_linear, select_k_10k):
    steps.append(0)
    fits()
print(*seconds, *steps)
"""


def export(rev: str, into: Path) -> Path:
    """The committed files of ``rev``, unpacked under ``into``."""
    into.mkdir()
    tar = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tempfile.TemporaryFile() as fh:
        fh.write(tar)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as archive:
            archive.extractall(into, filter="data")
    return into


def python(tree: Path, *args: str, cwd: Path) -> str:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def sign_test_p(differences: list[float]) -> float:
    """Two-sided sign-test p-value of ``differences``, ties (zeros) dropped."""
    above = sum(d > 0 for d in differences)
    below = sum(d < 0 for d in differences)
    n = above + below
    tail = sum(math.comb(n, i) for i in range(min(above, below) + 1))
    return min(1.0, 2 * tail / 2**n)


def summary(base: list[float], change: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
    differences = [c - b for b, c in zip(base, change)]
    d1, _, d3 = statistics.quantiles(differences, n=4, method="inclusive")
    return {
        "base": base,
        "change": change,
        "base_median": statistics.median(base),
        "change_median": statistics.median(change),
        "base_iqr": q3 - q1,
        "change_lower_in": sum(c < b for b, c in zip(base, change)),
        "pairs": len(base),
        "differences": differences,
        "difference_median": statistics.median(differences),
        "difference_quartiles": [d1, d3],
        "sign_test_p": sign_test_p(differences),
    }


def interleave(sides: dict, measure) -> dict:
    """``measure(tree)`` on both sides, alternating which goes first."""
    values = {name: [] for name in sides}
    for i in range(PAIRS):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for name in order:
            values[name].append(measure(sides[name]))
            print(f"pair {i + 1} {name}: {values[name][-1]}", file=sys.stderr)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--workloads", nargs="*", default=[],
                        help="perfbench workloads to pair after the fits")
    parser.add_argument("--seed", default="3", help="the perfbench workload seed")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    record = {
        "command": "python3 scripts/bench_pairs.py " + " ".join(argv or sys.argv[1:]),
        "revisions": {
            side: subprocess.run(["git", "-C", str(REPO), "rev-parse", rev], check=True,
                                 capture_output=True, text=True).stdout.strip()
            for side, rev in (("base", args.base), ("change", args.change))
        },
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
    }
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sides = {"base": export(args.base, tmp / "base"),
                 "change": export(args.change, tmp / "change")}
        record["machine"]["numpy"] = python(
            sides["base"], "-c", "import numpy; print(numpy.__version__)", cwd=tmp).strip()
        python(sides["change"], "-m", "devexplain.cli", "synth", "--preset", "trimodal",
               "--n", "2000", "--seed", DATA_SEED, "--out", str(tmp / "data"), cwd=tmp)
        csv = str(tmp / "data" / "synthetic.csv")

        def fit_seconds(tree):
            n, seconds = python(tree, "-c", FIT, csv, cwd=tmp).split()
            if n != "1600":
                raise SystemExit(f"expected 1,600 training rows, got {n}")
            return float(seconds)

        fit = summary(*interleave(sides, fit_seconds).values())
        fit["ratios"] = [c / b for b, c in zip(fit["base"], fit["change"])]
        fit["median_ratio"] = statistics.median(fit["ratios"])
        record["fit_gbt_cpu_s"] = fit
        python(sides["change"], "-m", "devexplain.cli", "fit", "--data", csv, "--kind", "gbt",
               "--trees", "300", "--depth", "3", "--seed", DATA_SEED,
               "--out", str(tmp / "gbt"), cwd=tmp)

        def map_seconds(tree):
            code, seconds = python(tree, "-c", TREE_MAP, csv, str(tmp / "gbt" / "model.json"),
                                   str(tmp / "map"), cwd=tmp).split()[-2:]
            if code != "0":
                raise SystemExit(f"the tree MAP explain exited {code}")
            return float(seconds)

        record["tree_map_cpu_s"] = summary(*interleave(sides, map_seconds).values())

        def shapley_run(tree):
            """Per d: (CPU seconds, peak RSS in MB) of its own interpreter."""
            return {d: tuple(map(float, python(tree, "-c", SHAPLEY, str(d), cwd=tmp).split()))
                    for d in SHAPLEY_DIMS}

        runs = interleave(sides, shapley_run)
        for key, at in (("shapley_cpu_s", 0), ("shapley_peak_rss_mb", 1)):
            record[key] = {
                f"d{d}": summary(*([r[d][at] for r in runs[side]] for side in sides))
                for d in SHAPLEY_DIMS
            }

        runs = interleave(sides, lambda tree: tuple(
            map(float, python(tree, "-c", EM, csv, cwd=tmp).split())))
        for key, at in (("em_mode_linear_cpu_s", 0), ("em_select_k_10k_cpu_s", 1),
                        ("em_mode_linear_restart_steps", 2),
                        ("em_select_k_10k_restart_steps", 3)):
            record[key] = summary(*([r[at] for r in runs[side]] for side in sides))
        for workload in args.workloads:

            def run(tree):
                out = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", workload,
                     "--seed", args.seed, "--trace", "0"],
                    cwd=tree, capture_output=True, text=True)
                result = json.loads(out.stdout.splitlines()[-1])
                metrics = {k: m["value"] for k, m in result["metrics"].items()}
                return {**metrics, "correct": result["correct"], "failed": result["failed"]}

            runs = interleave(sides, run)
            record[workload] = {
                "runs_correct": all(r["correct"] for side in runs.values() for r in side),
                "failed": sum(r["failed"] for side in runs.values() for r in side),
                **{key: summary(*([r[key] for r in runs[side]] for side in sides))
                   for key in runs["base"][0] if key not in ("correct", "failed")},
            }
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
