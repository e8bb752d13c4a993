"""List the CLI output files that differ between a base commit and the working tree.

Usage: python3 scripts/compare_outputs.py BASE

BASE is any git revision (a commit, a branch, ``HEAD~1``).  The script
checks BASE out with ``git worktree`` into a temporary directory (under
``$TMPDIR`` when it is set), runs the same seed-3 CLI matrix once with the
base tree's ``src`` and once with the working tree's, and compares every
file the commands write, byte for byte.  ``run.log`` holds timings and is
left out.  The matrix:

- trimodal data (2,000 rows, seed 3): ``modes --k-max 4``; a linear model
  with ``explain --mode 0 --index-range 0:4 --k-max 4``; a 300-tree GBT
  with ``explain --mean --order 2 --np 2000`` under the exact priors;
- the river fixture: ``modes --k-max 6``; a linear model with
  ``explain --mode 0 --index-range 0:20 --svg``; a GBT with
  ``explain --mode 0 --index 19``;
- six copies of one 3-component feature (``synth --spec``, 2,000 rows): a
  linear model with ``explain --mode 0 --index 0 --budget-runs 2000`` under
  the exact priors, a MAP search with hundreds of optima.

Exit status 0 when every output file is identical, 1 when some differ or
exist on one side only, 2 when a command fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RIVER = Path("src") / "devexplain" / "data" / "river_fixture.csv"
SEED = ["--seed", "3"]
# one feature of weights 0.3/0.3/0.4, means 0/4/8 and stds 1/1/0.75
FEATURE = {"weights": [0.3, 0.3, 0.4], "means": [0.0, 4.0, 8.0], "stds": [1.0, 1.0, 0.75]}


def run_matrix(src: Path, out: Path) -> None:
    """Run the CLI matrix with ``src`` on the path, writing under ``out``."""
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src)}

    def cli(*args):
        cmd = [sys.executable, "-m", "devexplain.cli", *map(str, args)]
        done = subprocess.run(cmd, cwd=out, env=env, capture_output=True, text=True)
        if done.returncode:
            print(f"{' '.join(cmd[3:])} failed in {out}:\n{done.stderr}", file=sys.stderr)
            raise SystemExit(2)

    # relative paths, so no output can differ by the directory it ran in
    shutil.copy(REPO / RIVER, out / "river.csv")
    cli("synth", "--preset", "trimodal", "--n", 2000, *SEED, "--out", "t")
    config = json.loads((out / "t" / "synth_config.json").read_text())
    (out / "t" / "spec.json").write_text(json.dumps(config["spec"]))
    trimodal = ["--data", "t/synthetic.csv"]
    cli("modes", *trimodal, "--k-max", 4, *SEED, "--out", "t/modes")
    cli("fit", *trimodal, "--kind", "linear", *SEED, "--out", "t/linear")
    cli("explain", *trimodal, "--model", "t/linear/model.json", "--mode", 0,
        "--index-range", "0:4", "--k-max", 4, *SEED, "--out", "t/linear/explain")
    cli("fit", *trimodal, "--kind", "gbt", "--trees", 300, "--depth", 3, *SEED, "--out", "t/gbt")
    cli("explain", *trimodal, "--model", "t/gbt/model.json", "--mean", "--order", 2,
        "--np", 2000, "--priors", "t/spec.json", "--index-range", "0:2", *SEED,
        "--out", "t/gbt/explain")
    river = ["--data", "river.csv", "--label", "njr"]
    cli("modes", *river, "--k-max", 6, *SEED, "--out", "r/modes")
    for kind in ("linear", "gbt"):
        cli("fit", *river, "--kind", kind, "--split", 1, *SEED, "--out", f"r/{kind}")
    cli("explain", *river, "--model", "r/linear/model.json", "--mode", 0,
        "--index-range", "0:20", "--svg", *SEED, "--out", "r/linear/explain")
    cli("explain", *river, "--model", "r/gbt/model.json", "--mode", 0, "--index", 19,
        *SEED, "--out", "r/gbt/explain")
    (out / "spec6.json").write_text(json.dumps({"features": [FEATURE] * 6, "noise_std": 0.1}))
    cli("synth", "--spec", "spec6.json", "--n", 2000, *SEED, "--out", "s6")
    six = ["--data", "s6/synthetic.csv"]
    cli("fit", *six, "--kind", "linear", *SEED, "--out", "s6/linear")
    cli("explain", *six, "--model", "s6/linear/model.json", "--mode", 0, "--index", 0,
        "--budget-runs", 2000, "--priors", "spec6.json", *SEED, "--out", "s6/linear/explain")


def outputs(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != "run.log"
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    base = argv[0]
    scratch = Path(tempfile.mkdtemp(prefix="compare-outputs-"))
    tree = scratch / "base"
    git = ["git", "-C", str(REPO)]
    try:
        added = subprocess.run([*git, "worktree", "add", "--detach", str(tree), base],
                               capture_output=True, text=True)
        if added.returncode:
            print(added.stderr, file=sys.stderr)
            return 2
        try:
            run_matrix(tree / "src", scratch / "out-base")
            run_matrix(REPO / "src", scratch / "out-work")
            old, new = outputs(scratch / "out-base"), outputs(scratch / "out-work")
        finally:
            subprocess.run([*git, "worktree", "remove", "--force", str(tree)], check=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    names = old.keys() | new.keys()
    differ = sorted(name for name in names if old.get(name) != new.get(name))
    for name in differ:
        if name not in new:
            name += " (base only)"
        elif name not in old:
            name += " (working tree only)"
        print(f"differs: {name}")
    print(f"{len(names) - len(differ)} identical, {len(differ)} differ ({base} vs working tree)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
