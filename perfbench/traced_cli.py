"""Run one devexplain CLI command with its library calls traced.

Usage: python3 perfbench/traced_cli.py TRACE_JSON <devexplain arguments...>

The package itself is unchanged: this script wraps, from outside, every
public function of the library modules (dataset, models, mixtures, inverse,
anova, attribution, svgchart) in a span, and counts the model prediction
methods instead of recording each call.  It then runs ``devexplain.cli.main``
and writes the spans to TRACE_JSON.  The command's exit code is passed on.

A span is [id, parent id, name, start, end, counts, extra]:
- counts holds the prediction calls and rows made while the span was open,
  so every span's counts include those of its children;
- extra holds facts read from the return value of a few functions
  (EM iterations of a mixture fit, restarts and optima of a MAP search).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import math
import sys
import time

LAYERS = ("dataset", "models", "mixtures", "inverse", "anova", "attribution", "svgchart")
# Module-level models.predict / models.predict_batch only dispatch to the
# model methods, which are counted; wrapping them too would count twice.
SKIP = {"models.predict", "models.predict_batch"}


def _digest(array) -> bytes:
    data = array.tobytes() if hasattr(array, "tobytes") else repr(array).encode()
    return hashlib.blake2b(
        data + repr(getattr(array, "shape", None)).encode(), digest_size=16
    ).digest()


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.hot: dict[str, dict] = {}
        self.seen_batches: set = set()
        self.seen_fits: set = set()
        self.em_cap = None
        self._fit_gmm_signature = None

    def span(self, name, fn, inspect_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else None
            # finished + open spans = spans opened so far, so ids follow opening order
            rec = [len(self.spans) + len(self.stack), parent, name, 0.0, 0.0, {}, {}]
            self.stack.append(rec)
            rec[3] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = self.clock()
                self.stack.pop()
                self.spans.append(rec)
            if inspect_result is not None:
                rec[6] = inspect_result(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name, method, batch):
        stats = self.hot.setdefault(
            name, {"calls": 0, "rows": 0, "s": 0.0, "repeat_rows": 0}
        )
        calls_key, rows_key = name + ".calls", name + ".rows"

        @functools.wraps(method)
        def wrapper(model, x):
            start = self.clock()
            out = method(model, x)
            stats["s"] += self.clock() - start
            rows = x.shape[0] if batch else 1
            stats["calls"] += 1
            stats["rows"] += rows
            if batch:
                key = (id(model), _digest(x))
                if key in self.seen_batches:
                    stats["repeat_rows"] += rows
                self.seen_batches.add(key)
            for rec in self.stack:
                counts = rec[5]
                counts[calls_key] = counts.get(calls_key, 0) + 1
                counts[rows_key] = counts.get(rows_key, 0) + rows
            return out

        return wrapper

    def _fit_gmm_facts(self, args, kwargs, gmm):
        bound = self._fit_gmm_signature.bind(*args, **kwargs)
        key = (_digest(bound.arguments["samples"]), bound.arguments["k"], bound.arguments["seed"])
        refit = key in self.seen_fits
        self.seen_fits.add(key)
        iters = len(gmm.history)
        return {"refit": int(refit), "em_iters": iters, "em_capped": int(iters >= self.em_cap)}

    @staticmethod
    def _map_facts(args, kwargs, result):
        budget = args[2] if len(args) > 2 else kwargs["budget"]
        hits = [o.hit_count for o in result.local_optima]
        return {
            "restarts": result.n_runs_executed,
            "converged": result.n_converged,
            "optima": len(hits),
            "min_basin_frac": min(hits) / result.n_converged,
            "min_basin_prob": budget.min_basin_prob,
        }

    def install(self) -> None:
        package = importlib.import_module("devexplain")
        cli = importlib.import_module("devexplain.cli")
        modules = {layer: importlib.import_module(f"devexplain.{layer}") for layer in LAYERS}
        mixtures, models = modules["mixtures"], modules["models"]
        self._fit_gmm_signature = inspect.signature(mixtures.fit_gmm)
        # the EM iteration cap is private to mixtures; 500 when it was written
        self.em_cap = getattr(mixtures, "_EM_MAX_ITERS", 500)
        facts = {
            "mixtures.fit_gmm": self._fit_gmm_facts,
            "inverse.direct_search_map": self._map_facts,
        }
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in SKIP
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                wrapped[obj] = self.span(name, obj, facts.get(name))
        # rebind every reference, including names imported into other modules
        for module in (package, cli, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])
        for cls in (models.LinearModel, models.GbtModel):
            cls.predict_batch = self.counted("models.predict_batch", cls.predict_batch, True)
            cls.predict_one = self.counted("models.predict_one", cls.predict_one, False)

    def dump(self, path: str, **header) -> None:
        self.spans.sort(key=lambda rec: rec[0])
        with open(path, "w") as fh:
            json.dump({**header, "hot": self.hot, "spans": self.spans}, fh)


# ---------------------------------------------------------------- reduction

# per-layer metrics of one repetition of a workload, with their units
METRIC_UNITS = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "dataset.load_csv_s": "s",
    "dataset.load_csv.calls": "count",
    "mixtures.select_k_s": "s",
    "mixtures.fit_gmm_s": "s",
    "mixtures.fit_gmm.calls": "count",
    "mixtures.fit_priors_s": "s",
    "mixtures.em_iters": "count",
    "mixtures.em_capped": "count",
    "mixtures.refits": "count",
    "inverse.map_s": "s",
    "inverse.restarts": "count",
    "inverse.converged": "count",
    "inverse.converged_frac": "fraction",
    "inverse.optima": "count",
    "inverse.restart_s.p50": "s",
    "inverse.restart_s.p97": "s",
    "inverse.evals_per_restart": "count/restart",
    "inverse.min_basin_frac": "fraction",
    "inverse.min_basin_prob": "fraction",
    "models.fit_gbt_s": "s",
    "models.predict_batch.calls": "count",
    "models.predict_batch.rows": "count",
    "models.predict_batch_s": "s",
    "models.predict_batch.repeat_rows": "count",
    "models.predict_one.calls": "count",
    "models.predict_one_s": "s",
    "anova.draw_background_s": "s",
    "anova.decompose_s": "s",
    "anova.decompose.predict_rows": "count",
    "attribution.shapley_s": "s",
    "attribution.shapley.predict_rows": "count",
    "attribution.explain_many_s": "s",
}
# exact counts: a second traced repetition must reproduce them
COUNTER_NAMES = frozenset(k for k, unit in METRIC_UNITS.items() if unit.startswith("count"))
# span name -> metric holding the total time of those spans (children included)
SPAN_TIME = {
    "dataset.load_csv": "dataset.load_csv_s",
    "mixtures.select_k": "mixtures.select_k_s",
    "mixtures.fit_gmm": "mixtures.fit_gmm_s",
    "mixtures.fit_priors": "mixtures.fit_priors_s",
    "inverse.direct_search_map": "inverse.map_s",
    "anova.draw_background": "anova.draw_background_s",
    "anova.decompose_deviation": "anova.decompose_s",
    "attribution.shapley_values": "attribution.shapley_s",
    "attribution.explain_many": "attribution.explain_many_s",
}
# span name -> (metric, count inside the span) for prediction work per layer
SPAN_ROWS = {
    "anova.decompose_deviation": "anova.decompose.predict_rows",
    "attribution.shapley_values": "attribution.shapley.predict_rows",
}


def _nearest_rank(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(trace_paths: list[str], setup_paths: list[str]) -> tuple[dict, set]:
    """Per-layer metrics of one repetition: sums over its commands' traces.

    ``models.fit_gbt_s`` comes from the traced set-up; everything else from
    the timed commands.  Layers a workload does not use read 0.  Also
    returns the package files the traced commands imported.
    """
    m = {key: 0 if unit.startswith("count") else 0.0 for key, unit in METRIC_UNITS.items()}
    restart_times, basin_fracs, basin_probs = [], [], []
    evals = 0
    for path in setup_paths:
        with open(path) as fh:
            doc = json.load(fh)
        m["models.fit_gbt_s"] += sum(s[4] - s[3] for s in doc["spans"] if s[2] == "models.fit_gbt")
    module_files = set()
    for path in trace_paths:
        with open(path) as fh:
            doc = json.load(fh)
        module_files.add(doc["module_file"])
        m["cli.import_s"] += doc["import_s"]
        spans = doc["spans"]
        root = next(s for s in spans if s[2] == "cli.main")
        covered = math.fsum(s[4] - s[3] for s in spans if s[1] == root[0])
        m["cli.self_s"] += (root[4] - root[3]) - covered
        for _, _, name, start, end, counts, extra in spans:
            if name in SPAN_TIME:
                m[SPAN_TIME[name]] += end - start
            if name in SPAN_ROWS:
                m[SPAN_ROWS[name]] += counts.get("models.predict_batch.rows", 0)
            if name == "dataset.load_csv":
                m["dataset.load_csv.calls"] += 1
            elif name == "mixtures.fit_gmm":
                m["mixtures.fit_gmm.calls"] += 1
                for key in ("em_iters", "em_capped"):
                    m[f"mixtures.{key}"] += extra[key]
                m["mixtures.refits"] += extra["refit"]
            elif name == "inverse.direct_search_map":
                for key in ("restarts", "converged", "optima"):
                    m[f"inverse.{key}"] += extra[key]
                basin_fracs.append(extra["min_basin_frac"])
                basin_probs.append(extra["min_basin_prob"])
            elif name == "inverse.local_maximize":
                restart_times.append(end - start)
                evals += counts.get("models.predict_one.calls", 0)
        for name, stats in doc["hot"].items():
            m[f"{name}.calls"] += stats["calls"]
            m[f"{name}_s"] += stats["s"]
            if name == "models.predict_batch":
                m["models.predict_batch.rows"] += stats["rows"]
                m["models.predict_batch.repeat_rows"] += stats["repeat_rows"]
    if m["inverse.restarts"]:
        m["inverse.converged_frac"] = m["inverse.converged"] / m["inverse.restarts"]
    if restart_times:
        m["inverse.evals_per_restart"] = evals / len(restart_times)
    m["inverse.restart_s.p50"] = _nearest_rank(restart_times, 0.50)
    m["inverse.restart_s.p97"] = _nearest_rank(restart_times, 0.97)
    m["inverse.min_basin_frac"] = min(basin_fracs, default=0.0)
    m["inverse.min_basin_prob"] = min(basin_probs, default=0.0)
    return m, module_files


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    start = tracer.clock()
    cli = importlib.import_module("devexplain.cli")
    import_s = tracer.clock() - start
    tracer.install()
    rc = tracer.span("cli.main", cli.main)(cli_args)
    tracer.dump(
        trace_path,
        import_s=import_s,
        rc=rc,
        module_file=importlib.import_module("devexplain").__file__,
    )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
