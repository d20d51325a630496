"""Command-line entry point.

Subcommands: `ingest` (edge stream -> archive), `select` (one selector, one
windowing), `sweep` (per-size quality curves), `evaluate` (declarative run
config -> report files), `analyze` (curve reports -> cross-task matrix,
rank-correlation table, stability table, plot CSVs), `report` (human-readable
summary of report files).

Exit codes: 0 success, 1 validation failure (all problems enumerated before
any compute), 2 runtime failure. Every output file embeds the config hash
and seed; outputs are byte-identical across reruns of the same invocation.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

from .attrpred import KernelParams
from .harness import (
    OFFLINE_SELECTORS,
    ONLINE_SELECTORS,
    TASKS,
    CurveSet,
    EvalParams,
    ExperimentReport,
    _as_count,
    _jsonable,
    choose_test_windowing,
    cross_task_matrix,
    hyperparam_sweep,
    run_suite,
    score_curves,
    spearman_table,
    split_intervals,
    stability_curve,
    stability_diff,
)
from .linkpred import KatzParams
from .temporal import (
    DataFormatError,
    bin_initial,
    load_archive,
    load_attributes,
    load_change_points,
    parse_edge_stream,
    save_archive,
)

__all__ = ["main", "build_parser"]


class ValidationFailure(Exception):
    """Carries every validation problem found before compute started."""

    def __init__(self, errors: list[str]) -> None:
        super().__init__("; ".join(errors))
        self.errors = errors


def _config_hash(payload: dict) -> str:
    canonical = json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write_json(path: str | Path, obj: dict) -> None:
    text = json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _write_csv(path: str | Path, header: str, rows: list[str]) -> None:
    Path(path).write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def _args_payload(args: argparse.Namespace) -> dict:
    skip = {"func", "jobs"}
    out = {}
    for key, value in vars(args).items():
        if key in skip:
            continue
        out[key] = str(value) if isinstance(value, Path) else value
    return out


def _default_jobs() -> int:
    return os.cpu_count() or 1


def _load_truth(args, arch, errors):
    """Shared loader for attribute and change-point sidecars."""
    attrs = None
    cp_truth = None
    if getattr(args, "attributes", None):
        if not args.target:
            errors.append("--attributes requires --target")
        else:
            attrs = load_attributes(Path(args.attributes), args.target, arch.labels)
    if getattr(args, "changepoints", None):
        cp_truth = load_change_points(Path(args.changepoints), arch.sequence.length)
    return attrs, cp_truth


# --------------------------------------------------------------------------
# ingest


def cmd_ingest(args: argparse.Namespace) -> int:
    errors = []
    if not Path(args.stream).exists():
        errors.append(f"input stream {args.stream} does not exist")
    if args.resolution < 1:
        errors.append(f"--resolution must be >= 1, got {args.resolution}")
    if errors:
        raise ValidationFailure(errors)
    parsed = parse_edge_stream(
        Path(args.stream),
        delimiter=args.delimiter,
        on_self_loop="drop" if args.drop_self_loops else "error",
    )
    if not parsed.events:
        raise DataFormatError(f"{args.stream} holds no edge events")
    seq = bin_initial(parsed.events, args.resolution, n=parsed.n, origin=args.origin)
    dataset_id = save_archive(seq, parsed.labels, args.out)
    summary = {
        "n": seq.n,
        "length": seq.length,
        "resolution": seq.resolution,
        "edge_totals": [g.edge_count for g in seq.graphs],
        "dataset_id": dataset_id,
        "config_hash": _config_hash(_args_payload(args)),
        "seed": args.seed,
    }
    _write_json(Path(args.out) / "summary.json", summary)
    print(json.dumps(_jsonable(summary), sort_keys=True))
    return 0


# --------------------------------------------------------------------------
# select


def cmd_select(args: argparse.Namespace) -> int:
    errors = []
    if not Path(args.archive).exists():
        errors.append(f"archive {args.archive} does not exist")
    if args.selector not in OFFLINE_SELECTORS:
        errors.append(
            f"unknown selector {args.selector!r}; valid: {', '.join(OFFLINE_SELECTORS)}"
        )
    if args.selector == "supervised":
        if args.task not in ("attribute", "changepoint"):
            errors.append("supervised selection needs --task attribute or changepoint")
        if not args.train_span:
            errors.append("supervised selection needs --train-span")
        if args.task == "attribute" and not args.attributes:
            errors.append("--task attribute needs --attributes and --target")
        if args.task == "changepoint" and not args.changepoints:
            errors.append("--task changepoint needs --changepoints")
    if args.attributes and not args.target:
        errors.append("--attributes requires --target")
    for name in ("attributes", "changepoints"):
        value = getattr(args, name)
        if value and not Path(value).exists():
            errors.append(f"--{name} file {value} does not exist")
    if errors:
        raise ValidationFailure(errors)
    arch = load_archive(args.archive)
    seq = arch.sequence
    attrs, cp_truth = _load_truth(args, arch, errors)
    test_span = tuple(args.test_span) if args.test_span else (1, seq.length)
    test = seq.slice_steps(*test_span)
    if args.train_span:
        train_span = tuple(args.train_span)
        train = seq.slice_steps(*train_span)
        train_cp = cp_truth.restrict(*train_span) if cp_truth is not None else None
    else:
        train_span = None
        train = test  # unsupervised selectors ignore it
        train_cp = None
    windowing = choose_test_windowing(
        args.selector,
        train,
        test,
        task=args.task,
        train_cp=train_cp,
        attrs=attrs,
        params=EvalParams(
            kernel=KernelParams(args.theta),
            batch_size=args.batch_size,
            tau=args.tau,
            adage_tol=args.adage_tol,
            adage_patience=args.adage_patience,
        ),
        seed=args.seed,
    )
    sizes = windowing.sizes()
    uniform = len(set(sizes[:-1])) <= 1
    out = {
        "selector": args.selector,
        "task": args.task,
        "train_span": list(train_span) if train_span else None,
        "test_span": list(test_span),
        "length": windowing.length,
        "cuts": list(windowing.cuts),
        "sizes": list(sizes),
        "chosen_size": sizes[0] if uniform else None,
        "dataset_id": arch.dataset_id,
        "config_hash": _config_hash(_args_payload(args)),
        "seed": args.seed,
    }
    if args.out:
        _write_json(args.out, out)
    else:
        print(json.dumps(_jsonable(out), sort_keys=True, indent=2))
    return 0


# --------------------------------------------------------------------------
# sweep


def cmd_sweep(args: argparse.Namespace) -> int:
    errors = []
    tasks = [t.strip() for t in args.tasks.split(",") if t.strip()]
    if not Path(args.archive).exists():
        errors.append(f"archive {args.archive} does not exist")
    for t in tasks:
        if t not in TASKS:
            errors.append(f"unknown task {t!r}; valid: {', '.join(TASKS)}")
    if not tasks:
        errors.append("--tasks must name at least one task")
    if len(set(tasks)) != len(tasks):
        errors.append("--tasks has duplicates")
    if "attribute" in tasks and not args.attributes:
        errors.append("task attribute needs --attributes and --target")
    if "changepoint" in tasks and not args.changepoints:
        errors.append("task changepoint needs --changepoints")
    if args.attributes and not args.target:
        errors.append("--attributes requires --target")
    for name in ("attributes", "changepoints"):
        value = getattr(args, name)
        if value and not Path(value).exists():
            errors.append(f"--{name} file {value} does not exist")
    if errors:
        raise ValidationFailure(errors)
    arch = load_archive(args.archive)
    seq = arch.sequence
    attrs, cp_truth = _load_truth(args, arch, errors)
    intervals = args.intervals
    if intervals is None:
        intervals = 5 if "changepoint" in tasks else 6
    plan = split_intervals(seq.length, intervals)
    curves = score_curves(
        seq,
        plan,
        tasks,
        attrs=attrs,
        cp_truth=cp_truth,
        params=EvalParams(
            katz=KatzParams(args.beta),
            kernel=KernelParams(args.theta),
            batch_size=args.batch_size,
        ),
        dataset_id=arch.dataset_id,
        jobs=args.jobs,
    )
    metadata = {
        "mode": "sweep",
        "tasks": tasks,
        "seed": args.seed,
        "intervals": [list(s) for s in plan.spans],
        "dataset_id": arch.dataset_id,
        "config_hash": _config_hash(_args_payload(args)),
    }
    report = ExperimentReport(metadata, [], {}, curves)
    report.write_json(args.out)
    return 0


# --------------------------------------------------------------------------
# evaluate

_CONFIG_KEYS = {
    "archive",
    "mode",
    "task",
    "selectors",
    "intervals",
    "seed",
    "output",
    "attributes",
    "target",
    "changepoints",
    "params",
    "hyperparams",
}

def _validate_config(config: dict, config_path: str) -> list[str]:
    errors = []
    unknown = sorted(set(config) - _CONFIG_KEYS)
    if unknown:
        errors.append(f"{config_path}: unknown config keys {unknown}")
    for key in ("archive", "mode", "task", "selectors", "output"):
        if key not in config:
            errors.append(f"{config_path}: missing required key {key!r}")
    mode = config.get("mode")
    task = config.get("task")
    if mode not in ("offline", "online", None):
        errors.append(f"{config_path}: mode must be 'offline' or 'online', got {mode!r}")
    valid = ONLINE_SELECTORS if mode == "online" else OFFLINE_SELECTORS
    for name in config.get("selectors", []):
        if name not in valid:
            errors.append(
                f"{config_path}: unknown selector {name!r} for mode {mode}; "
                f"valid: {', '.join(valid)}"
            )
    if mode == "online" and task not in ("linkpred", None):
        errors.append(f"{config_path}: online mode evaluates task 'linkpred', got {task!r}")
    if mode == "offline":
        if task not in ("attribute", "changepoint"):
            errors.append(
                f"{config_path}: offline mode needs task 'attribute' or 'changepoint', got {task!r}"
            )
        if task == "attribute" and not config.get("attributes"):
            errors.append(f"{config_path}: task attribute needs 'attributes' and 'target'")
        if task == "attribute" and config.get("attributes") and not config.get("target"):
            errors.append(f"{config_path}: 'attributes' needs 'target'")
        if task == "changepoint" and not config.get("changepoints"):
            errors.append(f"{config_path}: task changepoint needs 'changepoints'")
    if "archive" in config and not Path(config["archive"]).exists():
        errors.append(f"{config_path}: archive {config['archive']} does not exist")
    for key in ("attributes", "changepoints"):
        if config.get(key) and not Path(config[key]).exists():
            errors.append(f"{config_path}: {key} file {config[key]} does not exist")
    params = config.get("params", {})
    if not isinstance(params, dict):
        errors.append(f"{config_path}: 'params' must be an object")
    else:
        try:
            EvalParams.from_flat(params)
        except ValueError as exc:
            errors.append(f"{config_path}: {exc}")
    intervals = config.get("intervals")
    if intervals is not None and (not isinstance(intervals, int) or intervals < 2):
        errors.append(f"{config_path}: intervals must be an integer >= 2")
    hyper = config.get("hyperparams")
    if hyper is not None:
        if not isinstance(hyper, dict):
            errors.append(f"{config_path}: 'hyperparams' must be an object")
        else:
            unknown = sorted(
                set(hyper) - {"min_tests_values", "top_count_values", "fixed", "selector"}
            )
            if unknown:
                errors.append(f"{config_path}: unknown hyperparams keys {unknown}")
            hsel = hyper.get("selector", "online")
            if hsel not in ONLINE_SELECTORS:
                errors.append(
                    f"{config_path}: unknown hyperparams selector {hsel!r}; "
                    f"valid: {', '.join(ONLINE_SELECTORS)}"
                )
    return errors


def cmd_evaluate(args: argparse.Namespace) -> int:
    if not Path(args.config).exists():
        raise ValidationFailure([f"config {args.config} does not exist"])
    try:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationFailure([f"{args.config}: invalid JSON ({exc})"]) from None
    if not isinstance(config, dict):
        raise ValidationFailure([f"{args.config}: config must be a JSON object"])
    errors = _validate_config(config, args.config)
    if errors:
        raise ValidationFailure(errors)
    arch = load_archive(config["archive"])
    seq = arch.sequence
    seed = int(config.get("seed", 0))
    mode = config["mode"]
    task = config["task"]
    params = EvalParams.from_flat(config.get("params", {}))
    attrs = None
    cp_truth = None
    if config.get("attributes"):
        attrs = load_attributes(Path(config["attributes"]), config["target"], arch.labels)
    if config.get("changepoints"):
        cp_truth = load_change_points(Path(config["changepoints"]), seq.length)
    intervals = config.get("intervals")
    if intervals is None:
        intervals = 5 if task == "changepoint" else 6
    plan = split_intervals(seq.length, intervals)
    report = run_suite(
        seq,
        plan,
        mode,
        config["selectors"],
        task,
        attrs=attrs,
        cp_truth=cp_truth,
        params=params,
        seed=seed,
        jobs=args.jobs,
    )
    config_hash = _config_hash(config)
    report.metadata["dataset_id"] = arch.dataset_id
    report.metadata["config_hash"] = config_hash
    prefix = Path(config["output"])
    prefix.parent.mkdir(parents=True, exist_ok=True)
    report.write_json(prefix.with_suffix(".json"))
    report.write_csv(prefix.with_suffix(".csv"))
    hyper = config.get("hyperparams")
    if hyper:
        grid = hyperparam_sweep(
            seq,
            plan,
            min_tests_values=[_as_count(v) for v in hyper.get("min_tests_values", [])],
            top_count_values=[_as_count(v) for v in hyper.get("top_count_values", [])],
            fixed=_as_count(hyper.get("fixed", 10)),
            selector=hyper.get("selector", "online"),
            params=params,
            seed=seed,
            jobs=args.jobs,
        )
        sweep_out = {
            "grid": grid,
            "config_hash": config_hash,
            "seed": seed,
            "dataset_id": arch.dataset_id,
        }
        _write_json(Path(str(prefix) + "_sweep.json"), sweep_out)
        rows = [
            f"{rec['axis']},{_csv_num(rec['value'])},{_csv_num(rec['fixed'])},{_csv_num(rec['score'])}"
            for rec in grid
        ]
        _write_csv(Path(str(prefix) + "_sweep.csv"), "axis,value,fixed,score", rows)
    return 0


def _csv_num(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return repr(value) if isinstance(value, float) else str(value)


# --------------------------------------------------------------------------
# analyze


def _load_curve_report(path: str) -> tuple[CurveSet, dict]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or not data.get("curves"):
        raise ValidationFailure([f"{path}: no score curves in this report"])
    return CurveSet.from_dict(data["curves"]), data.get("metadata", {})


def cmd_analyze(args: argparse.Namespace) -> int:
    errors = [f"report {p} does not exist" for p in args.reports if not Path(p).exists()]
    if errors:
        raise ValidationFailure(errors)
    loaded = []
    for path in args.reports:
        curves, metadata = _load_curve_report(path)
        loaded.append((path, curves, metadata))
    first_path, first, _ = loaded[0]
    for path, curves, _ in loaded[1:]:
        if curves.dataset_id != first.dataset_id:
            raise ValidationFailure(
                [f"dataset id mismatch between {first_path} and {path}"]
            )
        if len(curves.intervals) != len(first.intervals):
            raise ValidationFailure(
                [f"interval count mismatch between {first_path} and {path}"]
            )
        if curves.sizes != first.sizes:
            raise ValidationFailure(
                [f"window size range mismatch between {first_path} and {path}"]
            )
    # merge into one collection; duplicate task names get a #index suffix
    seen: dict[str, int] = {}
    names: list[str] = []
    values: dict[str, tuple] = {}
    for index, (path, curves, _) in enumerate(loaded):
        for task in curves.tasks:
            name = task if task not in seen else f"{task}#{index}"
            seen.setdefault(task, index)
            names.append(name)
            values[name] = curves.values[task]
    merged = CurveSet(tuple(names), first.sizes, first.intervals, values, first.dataset_id)
    matrix = cross_task_matrix(merged)
    correlations = spearman_table(merged) if len(names) >= 2 else {}
    stability = stability_diff(merged) if len(merged.intervals) >= 2 else {}
    stab_curves = stability_curve(merged) if len(merged.intervals) >= 2 else {}
    payload = _args_payload(args)
    out = {
        "cross_task": matrix,
        "spearman": correlations,
        "stability": stability,
        "metadata": {
            "sources": list(args.reports),
            "dataset_id": first.dataset_id,
            "config_hash": _config_hash(payload),
            "seed": args.seed,
        },
    }
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    _write_json(Path(str(prefix) + ".json"), out)
    header = "chooser," + ",".join(names)
    rows = [
        name + "," + ",".join(_csv_num(matrix["entries"][name][other]) for other in names)
        for name in names
    ]
    _write_csv(Path(str(prefix) + "_table1.csv"), header, rows)
    rows = []
    for a in names:
        for b, (rho, pval) in sorted(correlations.get(a, {}).items()):
            rows.append(f"{a},{b},{_csv_num(rho)},{_csv_num(pval)}")
    _write_csv(Path(str(prefix) + "_table2.csv"), "series_a,series_b,rho,p", rows)
    rows = [
        f"{name},{i},{merged.sizes[j]},{_csv_num(merged.curve(name, i)[j])}"
        for name in names
        for i in range(len(merged.intervals))
        for j in range(len(merged.sizes))
    ]
    _write_csv(Path(str(prefix) + "_curves.csv"), "series,interval,size,score", rows)
    rows = [
        f"{name},{merged.sizes[j]},{_csv_num(stab_curves[name][j])}"
        for name in names
        if name in stab_curves
        for j in range(len(merged.sizes))
    ]
    _write_csv(Path(str(prefix) + "_stability.csv"), "series,size,mean_abs_diff", rows)
    return 0


# --------------------------------------------------------------------------
# report


def cmd_report(args: argparse.Namespace) -> int:
    errors = [f"report {p} does not exist" for p in args.reports if not Path(p).exists()]
    if errors:
        raise ValidationFailure(errors)
    lines: list[str] = []
    for path in args.reports:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        meta = data.get("metadata", {})
        lines.append(f"## {Path(path).name}")
        lines.append("")
        for key in ("mode", "task", "dataset_id", "config_hash", "seed"):
            if key in meta:
                lines.append(f"- {key}: {meta[key]}")
        lines.append("")
        aggregates = data.get("aggregates", {})
        if aggregates:
            lines.append("| selector | task | score | method |")
            lines.append("| --- | --- | --- | --- |")
            for selector in sorted(aggregates):
                for task in sorted(aggregates[selector]):
                    entry = aggregates[selector][task]
                    score = entry.get("score")
                    shown = "skipped" if score is None else f"{score:.6f}"
                    lines.append(f"| {selector} | {task} | {shown} | {entry.get('method')} |")
            lines.append("")
        cells = data.get("cells", [])
        if cells:
            lines.append("| selector | task | pair | test span | score |")
            lines.append("| --- | --- | --- | --- | --- |")
            for c in cells:
                score = c.get("score")
                shown = "skipped" if score is None else f"{score:.6f}"
                span = "-".join(str(x) for x in c.get("test_span", []))
                lines.append(
                    f"| {c['selector']} | {c['task']} | {c['pair_index']} | {span} | {shown} |"
                )
            lines.append("")
    text = "\n".join(lines).rstrip() + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    defaults = EvalParams()
    parser = argparse.ArgumentParser(
        prog="graphwin",
        description="Window dynamic-network streams and pick window sizes by task quality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse an edge stream and write an archive")
    p.add_argument("stream", help="delimited src,dst,timestamp file")
    p.add_argument("--out", required=True, help="archive directory to create")
    p.add_argument("--resolution", type=int, default=1, help="raw time units per step")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--origin", type=int, default=None, help="bin origin timestamp")
    p.add_argument("--drop-self-loops", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("select", help="run one selector and print its windowing")
    p.add_argument("archive")
    p.add_argument("--selector", required=True)
    p.add_argument("--task", default=None, choices=("attribute", "changepoint"))
    p.add_argument("--train-span", type=int, nargs=2, default=None, metavar=("A", "B"))
    p.add_argument("--test-span", type=int, nargs=2, default=None, metavar=("A", "B"))
    p.add_argument("--attributes", default=None)
    p.add_argument("--target", default=None)
    p.add_argument("--changepoints", default=None)
    p.add_argument("--theta", type=float, default=defaults.kernel.theta)
    p.add_argument("--batch-size", type=int, default=defaults.batch_size)
    p.add_argument("--tau", type=float, default=defaults.tau)
    p.add_argument("--adage-tol", type=float, default=defaults.adage_tol)
    p.add_argument("--adage-patience", type=int, default=defaults.adage_patience)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("sweep", help="score every uniform size per task and interval")
    p.add_argument("archive")
    p.add_argument("--tasks", required=True, help="comma list from: " + ",".join(TASKS))
    p.add_argument("--intervals", type=int, default=None)
    p.add_argument("--attributes", default=None)
    p.add_argument("--target", default=None)
    p.add_argument("--changepoints", default=None)
    p.add_argument("--beta", type=float, default=defaults.katz.beta)
    p.add_argument("--theta", type=float, default=defaults.kernel.theta)
    p.add_argument("--batch-size", type=int, default=defaults.batch_size)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=_default_jobs())
    p.add_argument("--out", required=True, help="curve report JSON path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("evaluate", help="run a declarative config and write reports")
    p.add_argument("config", help="JSON run configuration")
    p.add_argument("--jobs", type=int, default=_default_jobs())
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze", help="cross-task and stability analyses of curve reports")
    p.add_argument("reports", nargs="+")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("report", help="render report files as markdown")
    p.add_argument("reports", nargs="+")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage problems; usage problems
        # are validation failures here
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except ValidationFailure as exc:
        for err in exc.errors:
            print(f"error: {err}", file=sys.stderr)
        return 1
    except (DataFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failure boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
