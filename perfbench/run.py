"""devexplain benchmark: three CLI workloads, timed end to end, with a gate.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload trimodal-mode-linear --seed 3 \
        --seconds 25 --trace 0

One client issues devexplain CLI commands one after another (a closed
loop).  Each run sets the workload up three times (timed as ``setup_s``),
repeats the workload's command sequence until ``--seconds`` have passed,
always at least once, and reports medians over the repetitions.  With
``--trace 1`` the repetitions alternate between plain commands and commands
run through ``traced_cli.py``, and the run reports per-layer numbers instead.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A summary (machine
information, calibration, every check, the metrics) goes to standard error;
the full record, with every command, goes to ``--out FILE`` when given.

See perfbench/README.md for the workloads, the metrics and the gate.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib.metadata
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from traced_cli import COUNTER_NAMES, METRIC_UNITS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 3  # the acceptance seed of the test suite
RUN_LIMIT_S = 170.0  # a run never outlasts this, set-up included
SETUP_REPEATS = 3

TRIMODAL_N = 2000
# The trimodal data is always the acceptance data set; the workload seed
# drives every stochastic stage instead (train split, EM restarts, MAP
# starts, background rows).  A data seed would add up to 20 % of
# seed-to-seed cost spread: BIC picks k = 1..5 on different draws.
TRIMODAL_DATA_SEED = DEFAULT_SEED
# The trimodal preset: every feature is 0.3 N(0,1) + 0.3 N(4,1) + 0.4 N(8,s^2)
# with s = 0.5, 0.75, 1, and the label is the plain feature sum.
TRIMODAL_FEATURES = tuple(((0.3, 0.0, 1.0), (0.3, 4.0, 1.0), (0.4, 8.0, s)) for s in (0.5, 0.75, 1.0))
RIVER = SRC / "devexplain" / "data" / "river_fixture.csv"
RIVER_LOW_CLUSTER = (11.85, 12.55)  # label range of the 16-row low cluster


def _trimodal_label_mixture():
    """The label's exact density: one normal per choice of feature component."""
    comps = []
    for choice in itertools.product(*TRIMODAL_FEATURES):
        weight = math.prod(c[0] for c in choice)
        mean = sum(c[1] for c in choice)
        var = sum(c[2] ** 2 for c in choice)
        comps.append((weight, mean, var))
    return comps


def _log_density(comps, y: float) -> float:
    terms = [
        math.log(w) - 0.5 * (math.log(2.0 * math.pi * v) + (y - m) ** 2 / v)
        for w, m, v in comps
    ]
    peak = max(terms)
    return peak + math.log(math.fsum(math.exp(t - peak) for t in terms))


def _mixture_from_modes_doc(doc) -> list[tuple[float, float, float]]:
    mix = doc["mixture"]
    return [(w, m, s * s) for w, m, s in zip(mix["weights"], mix["means"], mix["stds"])]


# ---------------------------------------------------------------- machine


def calibrate() -> dict:
    """Time a fixed pure-Python loop and a fixed numpy loop (recorded only)."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i
    python_s = time.perf_counter() - start
    a = np.linspace(0.0, 1.0, 1_000_000)
    start = time.perf_counter()
    total = 0.0
    for _ in range(40):
        total += float(np.sqrt(a * a + 1.0).sum())
    numpy_s = time.perf_counter() - start
    return {"python_loop_s": python_s, "numpy_loop_s": numpy_s}


def host_cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) ticks of all CPUs so far, from /proc/stat on Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def machine_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # older numpy: the BLAS name is informational only
        blas = None

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": blas,
        "blas_threads": {
            key: os.environ.get(key)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


# ---------------------------------------------------------------- commands


class Runner:
    """Starts CLI commands one at a time and records what each one cost."""

    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "DEVEXPLAIN_SEED"}
        self.env["PYTHONPATH"] = str(SRC)
        self.records: list[dict] = []
        self.serial = 0

    def cli(self, kind: str, args: list, traced: bool = False) -> dict:
        self.serial += 1
        log = self.run_dir / f"cmd{self.serial:03d}"
        args = [str(a) for a in args]
        if traced:
            trace = f"{log}.trace.json"
            argv = [sys.executable, str(HERE / "traced_cli.py"), trace, *args]
        else:
            trace = None
            argv = [sys.executable, "-m", "devexplain.cli", *args]
        timeout = self.deadline - time.monotonic()
        rec = {"kind": kind, "args": args, "traced": traced, "trace": trace}
        if timeout <= 0:
            rec.update(rc=None, wall_s=0.0, cpu_s=0.0, rss_mb=0.0, error="run deadline reached")
            self.records.append(rec)
            return rec
        with open(f"{log}.out", "w") as out, open(f"{log}.err", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.run_dir, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        rec.update(
            rc=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
        )
        if proc.returncode != 0:
            rec["error"] = Path(f"{log}.err").read_text()[-2000:]
            if proc.returncode == -signal.SIGKILL:
                rec["error"] = "killed at the run deadline\n" + rec["error"]
        self.records.append(rec)
        return rec


def digest(directory: Path, patterns=("modes.json", "report_*.json", "chart_*.svg", "*.csv")) -> str:
    """Hash of the command outputs under a directory (config echoes and logs excluded)."""
    files = sorted({p for pat in patterns for p in directory.rglob(pat)})
    h = hashlib.sha256()
    for path in files:
        h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def read_labels(path: Path, label: str) -> list[float]:
    with open(path, newline="") as fh:
        return [float(row[label]) for row in csv.DictReader(fh)]


# ---------------------------------------------------------------- checks


class Gate:
    def __init__(self):
        self.results: dict[str, dict] = {}

    def check(self, name: str, ok: bool, detail) -> None:
        entry = self.results.setdefault(name, {"passed": 0, "failed": 0, "detail": []})
        entry["passed" if ok else "failed"] += 1
        if not ok:
            entry["detail"].append(detail)

    @property
    def attempted(self) -> int:
        return sum(e["passed"] + e["failed"] for e in self.results.values())

    @property
    def failed(self) -> int:
        return sum(e["failed"] for e in self.results.values())


def check_reports(gate: Gate, directory: Path) -> list[dict]:
    """Closure of every non-degenerate report: scores + residual share = 1."""
    docs = []
    for path in sorted(directory.glob("report_*.json")):
        doc = json.loads(path.read_text())
        docs.append(doc)
        scores = doc["scores"]
        if scores["degenerate"]:
            continue
        total = math.fsum(scores["first_order"]) + scores["residual_share"]
        if scores["second_order"] is not None:
            total += math.fsum(v for row in scores["second_order"] for v in row)
        gate.check("score_closure", abs(total - 1.0) <= 1e-9, f"{path.name}: sum {total!r}")
    gate.check("reports_written", bool(docs), f"no report in {directory.name}")
    return docs


def check_modes(gate: Gate, modes_path: Path, labels: list[float]) -> tuple[dict, float]:
    """The dominant mode is the fitted density's global maximum; returns the
    modes document and the mixture's mean log-likelihood on the labels."""
    doc = json.loads(modes_path.read_text())
    comps = _mixture_from_modes_doc(doc)
    dens = [m["density"] for m in doc["modes"]]
    gate.check("modes_sorted", dens == sorted(dens, reverse=True), dens)
    top = doc["modes"][0]["location"]
    lo, hi = min(labels), max(labels)
    grid_max = max(_log_density(comps, lo + (hi - lo) * i / 2000) for i in range(2001))
    gate.check(
        "dominant_mode_is_global_max",
        _log_density(comps, top) >= grid_max - 1e-9,
        f"mode {top} below the density's grid maximum",
    )
    loglik = math.fsum(_log_density(comps, y) for y in labels) / len(labels)
    return doc, loglik


# ---------------------------------------------------------------- workloads


class Workload:
    """A set-up and a command sequence; subclasses fill in both and the checks."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, run: Runner, d: str, traced: bool) -> None:
        raise NotImplementedError

    def iteration(self, run: Runner, s: str, d: str, traced: bool) -> None:
        raise NotImplementedError

    def check_setup(self, gate: Gate, s: Path) -> None:
        pass

    def check_iteration(self, gate: Gate, s: Path, d: Path) -> dict:
        raise NotImplementedError


class TrimodalWorkload(Workload):
    def setup_data(self, run: Runner, d: str, traced: bool) -> None:
        run.cli("setup", ["synth", "--preset", "trimodal", "--n", TRIMODAL_N,
                          "--seed", TRIMODAL_DATA_SEED, "--out", d], traced)

    def check_setup(self, gate: Gate, s: Path) -> None:
        labels = read_labels(s / "synthetic.csv", "y")
        comps = _trimodal_label_mixture()
        mean = math.fsum(w * m for w, m, _ in comps)
        std = math.sqrt(math.fsum(w * (v + m * m) for w, m, v in comps) - mean * mean)
        got = math.fsum(labels) / len(labels)
        # four standard errors: a correct generator fails this about once in 16,000 seeds
        gate.check("label_mean", abs(got - mean) <= 4 * std / math.sqrt(len(labels)),
                   f"label mean {got} vs {mean}")
        self.labels = labels

    def check_trimodal_mode(self, gate: Gate, modes_doc: dict) -> None:
        comps = _trimodal_label_mixture()
        peak = max(_log_density(comps, i / 100) for i in range(3001))
        top = modes_doc["modes"][0]["location"]
        gate.check(
            "dominant_mode_in_generator_bulk",
            _log_density(comps, top) >= peak - math.log(2.0),
            f"mode {top} where the generating density is below half its peak",
        )


class ModeLinear(TrimodalWorkload):
    name = "trimodal-mode-linear"
    rows = 4
    k_max = 4  # the features have three components each, so the priors keep K = 27

    def setup(self, run, d, traced):
        self.setup_data(run, d, traced)
        run.cli("setup", ["fit", "--data", f"{d}/synthetic.csv", "--kind", "linear",
                          "--seed", self.seed, "--out", d], traced)

    def iteration(self, run, s, d, traced):
        run.cli("modes", ["modes", "--data", f"{s}/synthetic.csv", "--k-max", self.k_max,
                          "--seed", self.seed, "--out", d], traced)
        run.cli("explain", ["explain", "--data", f"{s}/synthetic.csv", "--model", f"{s}/model.json",
                            "--mode", 0, "--index-range", f"0:{self.rows}", "--k-max", self.k_max,
                            "--seed", self.seed, "--out", f"{d}/explain"], traced)

    def check_iteration(self, gate, s, d):
        modes_doc, loglik = check_modes(gate, d / "modes.json", self.labels)
        self.check_trimodal_mode(gate, modes_doc)
        docs = check_reports(gate, d / "explain")
        gate.check("report_count", len(docs) == self.rows, len(docs))
        return {"label_loglik": loglik, "map_logpost": docs[0]["map_result"]["map_log_posterior"]}


class MeanGbt(TrimodalWorkload):
    name = "trimodal-mean-gbt"
    rows = 2

    def setup(self, run, d, traced):
        self.setup_data(run, d, traced)
        run.cli("setup", ["fit", "--data", f"{d}/synthetic.csv", "--kind", "gbt", "--trees", 300,
                          "--depth", 3, "--seed", self.seed, "--out", d], traced)
        # the exact generator spec, as the synth command echoed it
        config = json.loads((run.run_dir / d / "synth_config.json").read_text())
        (run.run_dir / d / "spec.json").write_text(json.dumps(config["spec"]))

    def iteration(self, run, s, d, traced):
        run.cli("explain", ["explain", "--data", f"{s}/synthetic.csv", "--model", f"{s}/model.json",
                            "--mean", "--order", 2, "--np", 2000, "--priors", f"{s}/spec.json",
                            "--index-range", f"0:{self.rows}", "--seed", self.seed,
                            "--out", f"{d}/explain"], traced)

    def check_iteration(self, gate, s, d):
        docs = check_reports(gate, d / "explain")
        gate.check("report_count", len(docs) == self.rows, len(docs))
        gate.check("order_2_terms", all(doc["scores"]["second_order"] is not None
                                        or doc["scores"]["degenerate"] for doc in docs), "")
        return {}


class RiverCli(Workload):
    name = "river-cli"

    def setup(self, run, d, traced):
        for kind in ("linear", "gbt"):
            run.cli("setup", ["fit", "--data", RIVER, "--label", "njr", "--kind", kind,
                              "--split", 1, "--seed", self.seed, "--out", f"{d}/{kind}"], traced)

    def iteration(self, run, s, d, traced):
        common = ["--data", RIVER, "--label", "njr"]
        run.cli("modes", ["modes", *common, "--k-max", 6, "--seed", self.seed, "--out", d], traced)
        run.cli("explain", ["explain", *common, "--model", f"{s}/linear/model.json", "--mode", 0,
                            "--index-range", "0:20", "--svg", "--seed", self.seed,
                            "--out", f"{d}/linear"], traced)
        run.cli("explain", ["explain", *common, "--model", f"{s}/gbt/model.json", "--mode", 0,
                            "--index", 19, "--seed", self.seed, "--out", f"{d}/gbt"], traced)
        reports = sorted((run.run_dir / d / "linear").glob("report_*.json"))
        run.cli("compare", ["compare", *[p.relative_to(run.run_dir) for p in reports],
                            f"{d}/gbt/report_19.json", "--out", d], traced)

    def check_iteration(self, gate, s, d):
        labels = read_labels(RIVER, "njr")
        modes_doc, loglik = check_modes(gate, d / "modes.json", labels)
        top = modes_doc["modes"][0]["location"]
        gate.check("dominant_mode_in_low_cluster",
                   RIVER_LOW_CLUSTER[0] <= top <= RIVER_LOW_CLUSTER[1], top)
        logposts = []
        for kind, count in (("linear", 20), ("gbt", 1)):
            docs = check_reports(gate, d / kind)
            gate.check("report_count", len(docs) == count, f"{kind}: {len(docs)}")
            row19 = json.loads((d / kind / "report_19.json").read_text())
            gate.check("row19_not_degenerate_vs_mode", not row19["scores"]["degenerate"], kind)
            logposts.append(row19["map_result"]["map_log_posterior"])
        # the charts draw the mean-reference companion only when it is not degenerate
        chart19 = (d / "linear" / "chart_19.svg").read_text()
        chart14 = (d / "linear" / "chart_14.svg").read_text()
        gate.check("row19_degenerate_vs_mean",
                   "mode score" in chart19 and "mean score" not in chart19, "chart_19.svg")
        gate.check("row14_not_degenerate_vs_mean", "mean score" in chart14, "chart_14.svg")
        with open(d / "compare.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        gate.check("compare_rows", len(rows) == 21 * 3, len(rows))
        return {"label_loglik": loglik, "map_logpost": statistics.fmean(logposts)}


WORKLOADS = {cls.name: cls for cls in (ModeLinear, MeanGbt, RiverCli)}


# ---------------------------------------------------------------- metrics

# Times are CPU seconds (user + sys) of the child processes.  On a shared
# virtual machine the hypervisor can stop a guest for a quarter of the wall
# clock; wall times then spread twice as wide as CPU times across runs.
# Wall times stay in the record.
END_TO_END = {
    "cpu_s": "s",
    "explain_cpu_s": "s",
    "peak_rss_mb": "MB",
}


def iteration_summary(records: list[dict]) -> dict:
    return {
        "cpu_s": math.fsum(r["cpu_s"] for r in records),
        "explain_cpu_s": math.fsum(r["cpu_s"] for r in records if r["kind"] == "explain"),
        "modes_cpu_s": math.fsum(r["cpu_s"] for r in records if r["kind"] == "modes"),
        "total_s": math.fsum(r["wall_s"] for r in records),
        "explain_s": math.fsum(r["wall_s"] for r in records if r["kind"] == "explain"),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "commands": [
            {k: r[k] for k in ("kind", "wall_s", "cpu_s", "rss_mb", "rc")} for r in records
        ],
    }


@contextlib.contextmanager
def outputs_checked(gate: Gate):
    """A missing or malformed output file fails the gate instead of the run."""
    try:
        yield
    except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
        gate.check("outputs_readable", False, repr(exc))


def run_workload(args) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload](args.seed)
    run_dir = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(run_dir, time.monotonic() + RUN_LIMIT_S)
    gate = Gate()
    ticks_at_start = host_cpu_ticks()
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "calibration": calibrate(),
    }
    setup_times, setup_digests, setup_trace, iterations, outputs = [], [], [], [], []

    def set_up() -> None:
        i = len(setup_times)
        first = len(runner.records)
        workload.setup(runner, f"setup{i}", traced=bool(args.trace) and i == 0)
        recs = runner.records[first:]
        setup_times.append({"cpu_s": math.fsum(r["cpu_s"] for r in recs),
                            "wall_s": math.fsum(r["wall_s"] for r in recs)})
        if any(r["rc"] != 0 for r in recs):
            raise RuntimeError("set-up failed")
        setup_digests.append(digest(run_dir / f"setup{i}", ("*.csv", "model.json", "spec.json")))
        setup_trace.extend(r["trace"] for r in recs if r["traced"])

    try:
        # The first set-up feeds the timed commands, and is the one traced in
        # a traced run.  The other copies run between repetitions, so that
        # the median of the set-up times samples the host at several moments.
        set_up()
        with outputs_checked(gate):
            workload.check_setup(gate, run_dir / "setup0")

        # the closed loop: a traced run alternates plain and traced
        # repetitions, starting plain, traced, traced
        loop_start = time.monotonic()
        n = 0
        while True:
            if args.trace:
                traced = n in (1, 2) or (n > 2 and n % 2 == 1)
                minimum = 3
            else:
                traced, minimum = False, 1
            if n >= minimum:
                elapsed = time.monotonic() - loop_start
                remaining = runner.deadline - time.monotonic()
                if elapsed >= args.seconds or remaining < 1.5 * iterations[-1]["total_s"] + 5.0:
                    break
            d = f"it{n}"
            first = len(runner.records)
            workload.iteration(runner, "setup0", d, traced)
            recs = runner.records[first:]
            summary = iteration_summary(recs)
            summary["traced"] = traced
            summary["traces"] = [r["trace"] for r in recs]
            iterations.append(summary)
            if any(r["rc"] != 0 for r in recs):
                raise RuntimeError("a timed command failed")
            summary["quality"] = {}
            with outputs_checked(gate):
                summary["quality"] = workload.check_iteration(gate, run_dir / "setup0", run_dir / d)
            outputs.append(digest(run_dir / d))
            n += 1
            if len(setup_times) < SETUP_REPEATS:
                set_up()
        while len(setup_times) < SETUP_REPEATS:
            set_up()
        gate.check("setup_repeatable", len(set(setup_digests)) == 1, setup_digests)
        gate.check("reports_repeatable", len(set(outputs)) == 1, outputs)
    except RuntimeError as exc:
        gate.check("completed", False, str(exc))
    for rec in runner.records:
        gate.check("exit_code", rec["rc"] == 0, {k: rec.get(k) for k in ("args", "rc", "error")})
    ticks_at_end = host_cpu_ticks()
    if ticks_at_start and ticks_at_end and ticks_at_end[1] > ticks_at_start[1]:
        # share of the machine's CPU time that the hypervisor gave to other guests
        detail["host_steal_frac"] = (ticks_at_end[0] - ticks_at_start[0]) / (
            ticks_at_end[1] - ticks_at_start[1])
    detail["setup_s"] = setup_times
    detail["iterations"] = iterations
    detail["output_digests"] = outputs

    metrics = {}
    if gate.failed == 0:
        plain = [it for it in iterations if not it["traced"]]
        if args.trace:
            traced = [it for it in iterations if it["traced"]]
            per_iteration, module_files = [], set()
            for it in traced:
                layer, files = layer_metrics(it["traces"], setup_trace)
                per_iteration.append(layer)
                module_files |= files
            counts = [{k: v for k, v in m.items() if k in COUNTER_NAMES} for m in per_iteration]
            gate.check("trace_counters_repeat", all(c == counts[0] for c in counts), counts)
            gate.check("trace_module_path", all(f.startswith(str(SRC)) for f in module_files),
                       sorted(module_files))
            for key, unit in METRIC_UNITS.items():
                middle = statistics.median_low if key in COUNTER_NAMES else statistics.median
                metrics[key] = {"value": middle(m[key] for m in per_iteration), "unit": unit}
            overhead = statistics.median(it["cpu_s"] for it in traced) / statistics.median(
                it["cpu_s"] for it in plain) - 1.0
            metrics["trace.overhead_frac"] = {"value": overhead, "unit": "fraction"}
            for key in ("label_loglik", "map_logpost"):
                metrics[f"quality.{key}"] = {"value": plain[0]["quality"].get(key, 0.0),
                                             "unit": "nats"}
        else:
            metrics["setup_s"] = {"value": statistics.median(t["cpu_s"] for t in setup_times),
                                  "unit": "s"}
            for key, unit in END_TO_END.items():
                metrics[key] = {"value": statistics.median(it[key] for it in plain), "unit": unit}
        # result quality and the modes command's time, for the record
        detail["modes_cpu_s"] = [it["modes_cpu_s"] for it in plain]
        detail["quality"] = plain[0]["quality"]
    detail["gate"] = gate.results
    detail["metrics"] = metrics
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    shutil.rmtree(run_dir, ignore_errors=True)
    return result, detail


def print_summary(detail: dict, fh) -> None:
    print(f"workload {detail['workload']} seed {detail['seed']}: "
          f"{len(detail['iterations'])} repetition(s)", file=fh)
    print(f"machine {json.dumps(detail['machine'])}", file=fh)
    print(f"calibration {json.dumps(detail['calibration'])}, "
          f"host steal {detail.get('host_steal_frac')}", file=fh)
    for name, entry in detail["gate"].items():
        status = "FAILED" if entry["failed"] else "ok"
        print(f"check {name}: {status} ({entry['passed']} passed, {entry['failed']} failed)",
              file=fh)
        for item in entry["detail"]:
            print(f"  {json.dumps(item)[:2000]}", file=fh)
    for name, metric in detail["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}", file=fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record to this JSON file")
    args = parser.parse_args(argv)
    if not (SRC / "devexplain" / "cli.py").is_file():
        print(f"error: no devexplain sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    result, detail = run_workload(args)
    if args.out:
        Path(args.out).write_text(json.dumps(detail, indent=1) + "\n")
    print_summary(detail, sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
