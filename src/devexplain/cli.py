"""Command-line pipeline: synth, fit, modes, explain, compare.

Every command runs in one frame, ``_run``: it makes the --out directory,
resolves the seed, calls the command, and, when the command succeeds, writes
the config echo (<command>_config.json) from the parameters the command
returns.  Re-running with the same inputs reproduces the outputs
byte-for-byte.  Timestamps never enter report files, only the run.log
sidecar.

Exit codes: 0 success, otherwise the ``exit_code`` of the package error
raised (2 validation, 3 ingestion, 4 numerical failure, 5 other), and 5 for
any other exception.

Importing this module loads the command frame only (``cli``, ``dataset``,
``errors``), and each command imports the stages it runs: ``synth``
``mixtures`` (for the generator spec), ``fit`` ``models``, ``modes``
``mixtures``, ``explain`` ``attribution``, ``anova``, ``inverse``,
``mixtures`` and ``models`` (``svgchart`` only with --svg), and ``compare``
nothing more: the report format lives in ``dataset``.
"""

from __future__ import annotations

import argparse
import datetime
import os
import sys
import time
from pathlib import Path

# The BLAS libraries' own thread-count variables.  The package's matrix
# products are small, so extra BLAS threads gain nothing, while OpenBLAS's
# idle worker spins on a second core; each CLI process runs one thread unless
# the user set a count.  The libraries read these once, when numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

# The package modules load numpy, so they come after the thread count.  Each
# command imports the stages it runs: only `explain` loads the whole pipeline.
from . import __version__
from .dataset import (
    _json_doc,
    _write_json,
    generate_synthetic,
    load_csv,
    load_synthetic_spec,
    read_report,
    report_to_json,
    trimodal_benchmark_spec,
    split,
    synthetic_spec_to_json,
    write_report_csv,
)
from .errors import DevexplainError, ValidationError, _stage


def _resolve_seed(value: int | None) -> int:
    if value is None:
        env = os.environ.get("DEVEXPLAIN_SEED")
        if env is None:
            return 0
        try:
            value = int(env)
        except ValueError:
            raise ValidationError(
                f"DEVEXPLAIN_SEED must be an integer, got {env!r}"
            ) from None
    if value < 0:
        raise ValidationError(f"the seed must be non-negative, got {value}")
    return value


def _check_name(name: str) -> None:
    """Refuse a --name that is not one file name inside --out."""
    if name in ("", ".", "..") or any(sep and sep in name for sep in (os.sep, os.altsep)):
        raise ValidationError(f"--name {name!r}: must be a file name without a directory")


def _echo(value):
    """``value`` with each string as the UTF-8 text of its command-line bytes,
    so the config echo does not depend on the locale that decoded them."""
    if isinstance(value, dict):
        return {key: _echo(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_echo(item) for item in value]
    if isinstance(value, str):
        try:
            return os.fsencode(value).decode("utf-8", "surrogateescape")
        except UnicodeEncodeError:  # not text this locale decoded from bytes
            return value
    return value


def _log_run(args, argv: list[str], code: int, elapsed: float) -> None:
    """Append one line for this invocation to run.log under --out."""
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    try:
        with open(Path(args.out) / "run.log", "a", encoding="utf-8") as fh:
            fh.write(f"{stamp} {args.cmd} {argv} exit={code} elapsed={elapsed:.3f}s\n")
    except OSError as exc:
        print(f"warning: cannot append to run.log: {exc}", file=sys.stderr)


def cmd_synth(args, out: Path) -> dict:
    if args.preset:
        spec = trimodal_benchmark_spec()
    else:
        spec = load_synthetic_spec(args.spec)
    data = generate_synthetic(spec, args.n, args.seed)
    data.save_csv(out / args.name)
    # zero rows have no label statistics
    stats = (
        f", label mean {data.labels.mean():.4f}, std {data.labels.std():.4f}"
        if data.n
        else ""
    )
    print(f"wrote {out / args.name}: {data.n} rows, {data.d_x} features{stats}")
    return {
        "spec": synthetic_spec_to_json(spec),
        "n": args.n,
        "seed": args.seed,
        "name": args.name,
    }


def cmd_fit(args, out: Path) -> dict:
    from .models import GbtParams, fit_gbt, fit_linear, model_to_json, residual_stats
    data = load_csv(args.data, args.label)
    if not 0 < args.split <= 1:
        raise ValidationError("--split must be in (0, 1]")
    if args.split < 1:
        train, test = split(data, args.split, args.seed)
    else:
        train, test = data, None
    if args.kind == "linear":
        model = fit_linear(train)
    else:
        params = GbtParams(
            n_trees=args.trees,
            max_depth=args.depth,
            learning_rate=args.lr,
            min_samples_leaf=args.min_leaf,
        )
        model = fit_gbt(train, params)
    stats = residual_stats(model, train, test)
    _write_json(out / "model.json", model_to_json(model))
    metrics = {
        "kind": args.kind,
        "n_train": train.n,
        "n_test": 0 if test is None else test.n,
        "sigma_e_squared": stats.sigma_e_squared,
        "r_squared_train": stats.r_squared_train,
        "r_squared_test": stats.r_squared_test,
    }
    if args.kind == "linear":
        metrics["intercept"] = model.intercept
        metrics["coefficients"] = model.coefficients.tolist()
    _write_json(out / "metrics.json", metrics)
    test_part = (
        "" if stats.r_squared_test is None else f", test R^2 {stats.r_squared_test:.4f}"
    )
    print(
        f"fitted {args.kind} on {train.n} rows: train R^2 "
        f"{stats.r_squared_train:.4f}{test_part}, sigma_e^2 {stats.sigma_e_squared:.6g}"
    )
    return {
        "data": args.data,
        "label": args.label,
        "kind": args.kind,
        "split": args.split,
        "seed": args.seed,
        "trees": args.trees,
        "depth": args.depth,
        "lr": args.lr,
        "min_leaf": args.min_leaf,
    }


def cmd_modes(args, out: Path) -> dict:
    from .mixtures import _command_seeds, mixture_to_json, modes, select_k
    data = load_csv(args.data, args.label)
    with _stage(f"label {args.label!r}"):
        gmm = select_k(data.labels, args.k_max, _command_seeds(args.seed)[2])
    mode_list = modes(gmm)
    doc = {"k": gmm.k, "mixture": mixture_to_json(gmm), "modes": _json_doc(mode_list)}
    _write_json(out / "modes.json", doc)
    stop = "converged" if gmm.converged else "stopped at the cap"
    print(f"fitted k={gmm.k} mixture (EM: {gmm.n_iter} E-steps, {stop}); {len(mode_list)} mode(s):")
    for i, m in enumerate(mode_list):
        print(f"  mode {i}: location {m.location:.4f}, sigma_m {m.sigma_m:.4f}")
    return {"data": args.data, "label": args.label, "k_max": args.k_max, "seed": args.seed}


def _parse_index_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ValidationError(
            f"--index-range expects START:STOP, got {text!r}"
        ) from None
    if hi <= lo:
        raise ValidationError("--index-range STOP must exceed START")
    return lo, hi


def _chart_for_report(report, mean_report) -> str | None:
    """Bars of the report's scores, its mean-reference companion's scores
    (``mean_report``, None for a mean report) and its normalized SHAP values;
    None when all three are degenerate."""
    from .svgchart import grouped_bar_svg
    series = []
    if not report.scores.degenerate:
        series.append(
            (f"{report.reference_kind} score", [float(v) for v in report.scores.first_order])
        )
    if mean_report is not None and not mean_report.scores.degenerate:
        series.append(
            ("mean score", [float(v) for v in mean_report.scores.first_order])
        )
    shap_total = float(report.shap.values.sum())
    if shap_total != 0:
        series.append(("SHAP (normalized)", [float(v) / shap_total for v in report.shap.values]))
    if not series:
        return None
    ref = (
        "mean"
        if report.reference_kind == "mean"
        else f"mode {report.mode_index} (y*={report.y_ref:.3f})"
    )
    return grouped_bar_svg(
        f"Observation {report.observation_index} vs {ref}",
        list(report.feature_names),
        series,
    )


def cmd_explain(args, out: Path) -> dict:
    from .attribution import ExplainSettings, _check_inputs, explain_many
    from .mixtures import FeaturePriors, _command_seeds, fit_priors
    from .models import load_model
    data = load_csv(args.data, args.label)
    model = load_model(args.model)
    if args.index is not None:
        indices = [args.index]
    else:
        lo, hi = _parse_index_range(args.index_range)
        indices = list(range(lo, hi))
    reference = "mean" if args.mean else ("mode", args.mode)

    priors_seed, explain_seed, _ = _command_seeds(args.seed)
    settings = ExplainSettings(
        seed=explain_seed,
        np_count=args.np,
        order=args.order,
        k_max=args.k_max,
        budget_runs=args.budget_runs,
        degeneracy_tau=args.tau,
        bg_source=args.bg,
    )
    # checked first, so bad input is refused before any prior is fitted
    np_count = _check_inputs(model, data, indices, settings)
    if args.priors:
        priors = FeaturePriors(load_synthetic_spec(args.priors).feature_specs)
        priors_source = args.priors
    elif args.mean and args.bg == "resample":  # nothing reads them; echoed as null
        priors = priors_source = None
    else:
        priors = fit_priors(data, args.k_max, priors_seed)
        priors_source = "fitted"

    references = [reference, "mean"] if args.svg and not args.mean else [reference]
    reports, *companions = explain_many(model, priors, data, indices, references, settings)
    mean_reports = companions[0] if companions else [None] * len(indices)

    docs = []
    for report, mean_report in zip(reports, mean_reports):
        index = report.observation_index
        docs.append(report_to_json(report))
        _write_json(out / f"report_{index}.json", docs[-1])
        if args.svg:
            chart = _chart_for_report(report, mean_report)
            if chart is not None:
                (out / f"chart_{index}.svg").write_text(chart, encoding="utf-8")
        if report.scores.degenerate:
            print(
                f"index {index}: degenerate ({report.reference_kind} reference, "
                f"|delta|={abs(report.decomposition.total_delta):.4f})"
            )
        else:
            score_text = ", ".join(
                f"{name}={s:.3f}"
                for name, s in zip(report.feature_names, report.scores.first_order)
            )
            print(f"index {index}: {report.reference_kind} scores {score_text}")
    if len(indices) > 1:
        count = write_report_csv(out / "reports.csv", docs)
        print(f"wrote {out / 'reports.csv'} ({count} rows)")
    return {
        "data": args.data,
        "label": args.label,
        "model": args.model,
        "indices": indices,
        "reference": "mean" if args.mean else f"mode:{args.mode}",
        "np": np_count,
        "order": args.order,
        "k_max": args.k_max,
        "bg": args.bg,
        "tau": args.tau,
        "seed": args.seed,
        "priors": priors_source,
        "budget_runs": args.budget_runs,
        "svg": bool(args.svg),
    }


def cmd_compare(args, out: Path) -> dict:
    count = write_report_csv(out / args.name, [read_report(path) for path in args.reports])
    print(f"wrote {out / args.name} ({count} rows from {len(args.reports)} reports)")
    return {"reports": list(args.reports), "name": args.name}


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Each option's help ends with its default, except where the default is
    None: there the help says what happens when the option is left out."""

    def _get_help_string(self, action):
        if action.default is None:
            return action.help
        return super()._get_help_string(action)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="devexplain",
        description="Explain label deviations from a mean or mode reference.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    # options shared by several commands, declared once
    out_opt = argparse.ArgumentParser(add_help=False)
    out_opt.add_argument(
        "--out", default=".", help="output directory, made if missing; run.log is appended here"
    )
    seed_opt = argparse.ArgumentParser(add_help=False)
    seed_opt.add_argument(
        "--seed",
        type=int,
        default=None,
        help="random seed, a non-negative integer (default: $DEVEXPLAIN_SEED, else 0)",
    )
    data_opts = argparse.ArgumentParser(add_help=False)
    data_opts.add_argument("--data", required=True, help="numeric CSV with one header row")
    data_opts.add_argument(
        "--label", default="y", help="label column; every other column is a feature"
    )
    data_run = [data_opts, seed_opt, out_opt]  # fit, modes, explain

    def command(name, parents, summary):
        return sub.add_parser(name, parents=parents, help=summary, formatter_class=_HelpFormatter)

    p = command("synth", [seed_opt, out_opt], "generate a synthetic dataset")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", help="JSON generator spec (features + noise_std)")
    src.add_argument(
        "--preset",
        choices=["trimodal"],
        help="built-in three-feature trimodal additive benchmark",
    )
    p.add_argument("--n", type=int, required=True, help="number of observations")
    p.add_argument("--name", default="synthetic.csv", help="output file name inside --out")
    p.set_defaults(func=cmd_synth)

    p = command("fit", data_run, "fit a forward model")
    p.add_argument(
        "--kind",
        choices=["linear", "gbt"],
        default="linear",
        help="least squares, or gradient-boosted regression trees",
    )
    p.add_argument(
        "--split",
        type=float,
        default=0.8,
        help="train fraction, drawn with --seed; 1 = no test split",
    )
    p.add_argument("--trees", type=int, default=300, help="gbt: number of trees")
    p.add_argument("--depth", type=int, default=3, help="gbt: maximum tree depth")
    p.add_argument("--lr", type=float, default=0.1, help="gbt: learning rate, positive and finite")
    p.add_argument("--min-leaf", type=int, default=1, help="gbt: fewest training rows in a leaf")
    p.set_defaults(func=cmd_fit)

    p = command("modes", data_run, "fit a label mixture and list its modes")
    p.add_argument(
        "--k-max", type=int, default=6, help="most mixture components tried; BIC picks the count"
    )
    p.set_defaults(func=cmd_modes)

    p = command("explain", data_run, "explain one or more observations")
    p.add_argument("--model", required=True, help="model JSON from `fit`")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--index", type=int, help="observation index")
    which.add_argument("--index-range", help="START:STOP observation range")
    ref = p.add_mutually_exclusive_group(required=True)
    ref.add_argument("--mean", action="store_true", help="mean reference")
    ref.add_argument("--mode", type=int, help="mode reference (0 = dominant)")
    p.add_argument(
        "--np", type=int, default=None, help="background size, at least 2 (default: min(N, 2000))"
    )
    p.add_argument(
        "--order",
        type=int,
        choices=[1, 2],
        default=1,
        help="highest ANOVA term order; 2 adds the pairwise terms",
    )
    p.add_argument(
        "--k-max",
        type=int,
        default=6,
        help="most mixture components of the label mixture and of fitted feature priors",
    )
    p.add_argument(
        "--bg",
        choices=["resample", "prior"],
        default="resample",
        help="background rows: resampled from the data, or drawn from the feature priors",
    )
    p.add_argument(
        "--priors", help="exact priors from a generator-spec JSON (default: fit from data)"
    )
    p.add_argument(
        "--tau",
        type=float,
        default=0.05,
        help="degeneracy threshold (fraction of label std), positive and finite",
    )
    p.add_argument(
        "--budget-runs",
        type=int,
        default=None,
        help="MAP restart count, at least 1 (default: from the priors' component counts)",
    )
    p.add_argument("--svg", action="store_true", help="emit grouped bar charts")
    p.set_defaults(func=cmd_explain)

    p = command("compare", [out_opt], "tabulate reports into one CSV")
    p.add_argument("reports", nargs="*", help="report JSON files")
    p.add_argument("--name", default="compare.csv", help="output file name inside --out")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    code = _run(args)
    _log_run(args, argv, code, time.perf_counter() - start)
    return code


def _run(args) -> int:
    """Run one command in the frame every command shares: make --out,
    resolve the seed, check --name, call the command and echo the config it
    returns; map an error to its exit code."""
    if hasattr(sys.stdout, "reconfigure"):
        # a name the stdout encoding cannot hold is printed escaped, not an error
        sys.stdout.reconfigure(errors="backslashreplace")
    try:
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError(
                f"--out {args.out}: cannot be a directory ({exc.strerror})"
            ) from None
        if "seed" in args:  # compare takes no seed
            args.seed = _resolve_seed(args.seed)
        if "name" in args:  # synth and compare write one file into --out
            _check_name(args.name)
        config = args.func(args, out)
        _write_json(out / f"{args.cmd}_config.json", {"command": args.cmd, **_echo(config)})
        return 0
    except DevexplainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # last-resort guard so scripts get a stable code
        print(f"internal error: {exc}", file=sys.stderr)
        return 5


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
