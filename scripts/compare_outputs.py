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
  with ``explain --mean --order 2 --np 2000`` under the exact priors, over
  resampled rows and over prior draws (``--bg prior``), and with
  ``explain --mode 0 --index 0 --k-max 4``, a tree MAP search; ``compare``
  over the linear model's four reports;
- the river fixture: ``modes --k-max 6``; a linear model with
  ``explain --mode 0 --index-range 0:20 --svg``; a GBT with
  ``explain --mode 0 --index 19``; ``compare`` over those 21 reports;
- six copies of one 3-component feature (``synth --spec``, 2,000 rows): a
  linear model with ``explain --mode 0 --index 0 --budget-runs 2000`` under
  the exact priors, a MAP search with hundreds of optima.

For each ``.json`` or ``.csv`` file that differs, the script prints the
largest absolute change over its float values and where it occurs (a JSON
path, or a CSV line and column).  A file is marked "non-float change" when
anything else differs: keys, lengths, strings, ints, bools, nulls, a
non-finite float, a cell that does not parse as a float, or any other file
type.

Exit status 0 when every output file is identical, 1 when some differ or
exist on one side only, 2 when a command fails.
"""

from __future__ import annotations

import csv
import io
import json
import math
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
    cli("explain", *trimodal, "--model", "t/gbt/model.json", "--mean", "--order", 2,
        "--bg", "prior", "--np", 2000, "--priors", "t/spec.json", "--index-range", "0:2",
        *SEED, "--out", "t/gbt/explain-prior")
    cli("explain", *trimodal, "--model", "t/gbt/model.json", "--mode", 0, "--index", 0,
        "--k-max", 4, *SEED, "--out", "t/gbt/explain-mode")
    cli("compare", *(f"t/linear/explain/report_{i}.json" for i in range(4)),
        "--out", "t/compare")
    river = ["--data", "river.csv", "--label", "njr"]
    cli("modes", *river, "--k-max", 6, *SEED, "--out", "r/modes")
    for kind in ("linear", "gbt"):
        cli("fit", *river, "--kind", kind, "--split", 1, *SEED, "--out", f"r/{kind}")
    cli("explain", *river, "--model", "r/linear/model.json", "--mode", 0,
        "--index-range", "0:20", "--svg", *SEED, "--out", "r/linear/explain")
    cli("explain", *river, "--model", "r/gbt/model.json", "--mode", 0, "--index", 19,
        *SEED, "--out", "r/gbt/explain")
    cli("compare", *(f"r/linear/explain/report_{i}.json" for i in range(20)),
        "r/gbt/explain/report_19.json", "--out", "r/compare")
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


class NonFloatChange(Exception):
    """Two versions differ in something other than a finite float value."""


def _float_gap(a: float, b: float, where: str) -> tuple[float, str]:
    """|b - a| of two floats at ``where``; equal NaNs count as no change."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, where
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NonFloatChange
    return abs(b - a), where


def _largest(gaps, where: str) -> tuple[float, str]:
    return max(gaps, key=lambda gap: gap[0], default=(0.0, where))


def _json_gap(a, b, where: str = "$") -> tuple[float, str]:
    """The largest float change between two parsed JSON values, and its path."""
    if type(a) is not type(b):
        raise NonFloatChange
    if isinstance(a, float):
        return _float_gap(a, b, where)
    if isinstance(a, dict) and list(a) == list(b):
        return _largest((_json_gap(a[k], b[k], f"{where}.{k}") for k in a), where)
    if isinstance(a, list) and len(a) == len(b):
        pairs = enumerate(zip(a, b))
        return _largest((_json_gap(x, y, f"{where}[{i}]") for i, (x, y) in pairs), where)
    if isinstance(a, (dict, list)) or a != b:
        raise NonFloatChange
    return 0.0, where


def _csv_float(cell: str) -> float:
    """A cell's float value; an int, a string or an empty cell is no float."""
    if cell.lstrip("+-").isdigit():
        raise NonFloatChange
    return float(cell)  # its ValueError, too, marks a non-float change


def _csv_gap(a: str, b: str) -> tuple[float, str]:
    """The largest float change between two CSV texts, and its line and column."""
    old, new = (list(csv.reader(io.StringIO(text))) for text in (a, b))
    header = new[0] if new else []
    if len(old) != len(new) or {len(row) for row in old + new} - {len(header)}:
        raise NonFloatChange
    return _largest(
        (
            _float_gap(_csv_float(x), _csv_float(y), f"line {r}, column {header[c]}")
            for r, (old_row, new_row) in enumerate(zip(old, new), start=1)
            for c, (x, y) in enumerate(zip(old_row, new_row))
            if x != y
        ),
        "",
    )


def change(name: str, old: bytes, new: bytes) -> str:
    """How far a file that differs moved: its largest float change and where,
    or "non-float change"."""
    try:
        if name.endswith(".json"):
            gap, where = _json_gap(json.loads(old), json.loads(new))
        elif name.endswith(".csv"):
            gap, where = _csv_gap(old.decode(), new.decode())
        else:
            raise NonFloatChange
    except (NonFloatChange, ValueError):
        return "non-float change"
    return f"max |change| {gap:.2g} at {where}"


def report(old: dict[str, bytes], new: dict[str, bytes], label: str) -> int:
    """Print what differs between two output sets; the exit status."""
    names = old.keys() | new.keys()
    differ = sorted(name for name in names if old.get(name) != new.get(name))
    for name in differ:
        if name not in new:
            print(f"differs: {name} (base only)")
        elif name not in old:
            print(f"differs: {name} (working tree only)")
        else:
            print(f"differs: {name}: {change(name, old[name], new[name])}")
    print(f"{len(names) - len(differ)} identical, {len(differ)} differ ({label})")
    return 1 if differ else 0


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
    return report(old, new, f"{base} vs working tree")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
