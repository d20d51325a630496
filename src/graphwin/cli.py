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
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .harness import (
    LEDGER_SELECTORS,
    OFFLINE_SELECTORS,
    ONLINE_SELECTORS,
    TASKS,
    CurveSet,
    EvalParams,
    ExperimentReport,
    IntervalPlan,
    QualityTable,
    _jsonable,
    _write_json,
    cross_task_matrix,
    hyperparam_sweep,
    run_suite,
    score_curves,
    spearman_table,
    split_intervals,
    stability_curve,
    stability_diff,
)
from .temporal import (
    DataFormatError,
    LoadedArchive,
    bin_initial,
    load_archive,
    load_attributes,
    load_change_points,
    parse_edge_stream,
    save_archive,
)
from .windows import uniform_windowing

__all__ = ["main", "build_parser"]


class ValidationFailure(Exception):
    """Carries every validation problem found before compute started."""

    def __init__(self, errors: list[str]) -> None:
        super().__init__("; ".join(errors))
        self.errors = errors


def _config_hash(payload: dict) -> str:
    canonical = json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write_csv(path: str | Path, header: str, rows: list[str]) -> None:
    Path(path).write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def _args_payload(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("func", "jobs")}


def _interval_plan(length: int, intervals: int | None, tasks: list[str]) -> IntervalPlan:
    """`intervals` consecutive intervals; by default 5 when change points
    are scored, else 6."""
    if intervals is None:
        intervals = 5 if "changepoint" in tasks else 6
    return split_intervals(length, intervals)


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
    if len(parsed.events) == 0:
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
# the input boundary of select, sweep and evaluate


def _flag(key: str) -> str:
    """A parsed-argument key as its command-line flag."""
    return "--" + key.replace("_", "-")


def _load_inputs(
    source: Mapping, tasks: Sequence, errors: list[str], config: str | None = None
) -> tuple[LoadedArchive, QualityTable]:
    """The archive that `source` (parsed arguments, or the run config read
    from path `config`) names, and the stage's one quality table of its
    sequence, sidecars and params. First checks the files, the attributes'
    target, the sidecars `tasks` need, and the tuning values (the flags
    named after the flat params keys, or the config's `params`); raises
    ValidationFailure listing these problems and the caller's `errors`,
    each naming its key as `--flag` or as `'key'`."""
    name = repr if config else _flag
    if config:
        flat = source.get("params", {})
        if not isinstance(flat, dict):
            errors.append("'params' must be an object")
            flat = {}
        source = {key: value for key, value in source.items() if isinstance(value, str)}
    else:
        keys = {f.name for f in fields(EvalParams)}
        flat = {k: v for k, v in source.items() if k in keys and v is not None}
    if source.get("archive") and not Path(source["archive"]).exists():
        errors.append(f"archive {source['archive']} does not exist")
    if "attribute" in tasks and not source.get("attributes"):
        errors.append(f"task attribute needs {name('attributes')} and {name('target')}")
    if "changepoint" in tasks and not source.get("changepoints"):
        errors.append(f"task changepoint needs {name('changepoints')}")
    if source.get("attributes") and not source.get("target"):
        errors.append(f"{name('attributes')} requires {name('target')}")
    for key in ("attributes", "changepoints"):
        if source.get(key) and not Path(source[key]).exists():
            errors.append(f"{name(key)} file {source[key]} does not exist")
    try:
        params = EvalParams.from_flat(flat, "params.{}".format if config else _flag)
    except ValueError as exc:
        errors.append(str(exc))
    if errors:
        raise ValidationFailure([f"{config}: {e}" for e in errors] if config else errors)
    arch = load_archive(source["archive"])
    attrs = cp_truth = None
    if source.get("attributes"):
        attrs = load_attributes(Path(source["attributes"]), source["target"], arch.labels)
    if source.get("changepoints"):
        cp_truth = load_change_points(Path(source["changepoints"]), arch.sequence.length)
    return arch, QualityTable(arch.sequence, attrs, cp_truth, params)


# --------------------------------------------------------------------------
# select


def cmd_select(args: argparse.Namespace) -> int:
    errors = []
    if args.selector not in OFFLINE_SELECTORS:
        errors.append(f"unknown selector {args.selector!r}; valid: {', '.join(OFFLINE_SELECTORS)}")
    supervised = args.selector == "supervised"
    if supervised:
        if args.task not in ("attribute", "changepoint"):
            errors.append("supervised selection needs --task attribute or changepoint")
        if not args.train_span:
            errors.append("supervised selection needs --train-span")
    # a cell seed, as `derive_seed` makes them
    if args.seed < 0:
        errors.append(f"--seed must be >= 0, got {args.seed}")
    arch, table = _load_inputs(vars(args), [args.task] if supervised else [], errors)
    seq = arch.sequence
    test_span = tuple(args.test_span) if args.test_span else (1, seq.length)
    train_span = tuple(args.train_span) if args.train_span else None
    # every selector refuses a bad span, the test span's first, and a
    # training span that shares a step with the test span, whose ground
    # truth selection must not see
    for span in filter(None, (test_span, train_span)):
        seq.slice_steps(*span)
    if train_span and train_span[0] <= test_span[1] and test_span[0] <= train_span[1]:
        (a, b), (c, d) = train_span, test_span
        test = "--test-span" if args.test_span else "the default test span"
        raise ValidationFailure([f"--train-span {a} {b} overlaps {test} {c} {d}"])
    windowing = table.test_windowing(args.selector, args.task, train_span, test_span, args.seed)
    sizes = windowing.sizes()
    uniform = windowing == uniform_windowing(windowing.length, sizes[0])
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
    tasks = [t.strip() for t in args.tasks.split(",") if t.strip()]
    errors = [f"unknown task {t!r}; valid: {', '.join(TASKS)}" for t in tasks if t not in TASKS]
    if not tasks:
        errors.append("--tasks must name at least one task")
    if len(set(tasks)) != len(tasks):
        errors.append("--tasks has duplicates")
    if args.intervals is not None and args.intervals < 1:
        errors.append(f"--intervals must be >= 1, got {args.intervals}")
    arch, table = _load_inputs(vars(args), tasks, errors)
    plan = _interval_plan(arch.sequence.length, args.intervals, tasks)
    curves = score_curves(table, plan, tasks, dataset_id=arch.dataset_id)
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

_STR_KEYS = ("archive", "output", "attributes", "target", "changepoints")
_CONFIG_KEYS = {*_STR_KEYS, "mode", "task", "selectors", "intervals", "seed", "params", "hyperparams"}


def _read_config(path: str) -> tuple[dict, dict | None, list[str]]:
    """A run config, its hyperparameter grid (see `_hyper_grid`), and its
    problems bar those `_load_inputs` checks."""
    if not Path(path).exists():
        raise ValidationFailure([f"config {path} does not exist"])
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationFailure([f"{path}: invalid JSON ({exc})"]) from None
    if not isinstance(config, dict):
        raise ValidationFailure([f"{path}: config must be a JSON object"])
    errors = []
    unknown = sorted(set(config) - _CONFIG_KEYS)
    if unknown:
        errors.append(f"unknown config keys {unknown}")
    for key in ("archive", "mode", "task", "selectors", "output"):
        if config.get(key) is None:
            errors.append(f"missing required key {key!r}")
    for key in _STR_KEYS:
        if config.get(key) is not None and not isinstance(config[key], str):
            errors.append(f"{key!r} must be a string, got {config[key]!r}")
    mode = config.get("mode")
    task = config.get("task")
    if mode not in ("offline", "online", None):
        errors.append(f"mode must be 'offline' or 'online', got {mode!r}")
    selectors = config.get("selectors")
    if selectors is not None and not (
        isinstance(selectors, list) and all(isinstance(s, str) for s in selectors)
    ):
        errors.append(f"'selectors' must be a list of strings, got {selectors!r}")
    elif selectors is not None:
        if not selectors:
            errors.append("'selectors' must name at least one selector")
        repeated = sorted({name for name in selectors if selectors.count(name) > 1})
        if repeated:
            errors.append(f"'selectors' repeats {repeated}")
        if mode in ("offline", "online"):
            valid = ONLINE_SELECTORS if mode == "online" else OFFLINE_SELECTORS
            errors += [
                f"unknown selector {name!r} for mode {mode}; valid: {', '.join(valid)}"
                for name in selectors
                if name not in valid
            ]
    if mode == "online" and task not in ("linkpred", None):
        errors.append(f"online mode evaluates task 'linkpred', got {task!r}")
    if mode == "offline" and task not in ("attribute", "changepoint"):
        errors.append(f"offline mode needs task 'attribute' or 'changepoint', got {task!r}")
    if type(config.get("seed", 0)) is not int:
        errors.append(f"'seed' must be an integer, got {config['seed']!r}")
    intervals = config.get("intervals")
    if intervals is not None and (type(intervals) is not int or intervals < 2):
        errors.append("intervals must be an integer >= 2")
    return config, _hyper_grid(config.get("hyperparams"), mode, errors), errors


def _hyper_grid(hyper: object, mode: object, errors: list[str]) -> dict | None:
    """A config's `hyperparams` as keyword arguments of `hyperparam_sweep`,
    None without a grid; adds its problems to `errors`. A grid belongs to an
    online run, varies at least one retest budget, and runs a selector those
    budgets steer; each budget takes the values `params.min_tests` takes."""
    if hyper is None:
        return None
    if not isinstance(hyper, dict):
        errors.append("'hyperparams' must be an object")
        return None
    if mode == "offline":
        errors.append("'hyperparams' grids an online run, but mode is offline")
    unknown = sorted(set(hyper) - {"min_tests_values", "top_count_values", "fixed", "selector"})
    if unknown:
        errors.append(f"unknown hyperparams keys {unknown}")
    selector = hyper.get("selector", "online")
    if selector not in LEDGER_SELECTORS:
        steered = ", ".join(LEDGER_SELECTORS)
        errors.append(
            f"hyperparams.selector must be one the retest budgets steer ({steered}),"
            f" got {selector!r}"
        )
    if not (hyper.get("min_tests_values") or hyper.get("top_count_values")):
        errors.append("'hyperparams' needs a non-empty min_tests_values or top_count_values")

    def budget(name: str, value: object) -> object:
        try:
            params = EvalParams.from_flat({"min_tests": value}, lambda _: f"hyperparams.{name}")
            return params.min_tests
        except ValueError as exc:
            errors.append(str(exc))

    grid = {"selector": selector, "fixed": budget("fixed", hyper.get("fixed", 10))}
    for key in ("min_tests_values", "top_count_values"):
        values = hyper.get(key, [])
        if isinstance(values, list):
            grid[key] = [budget(f"{key}[{i}]", v) for i, v in enumerate(values)]
        else:
            errors.append(f"hyperparams.{key} must be a list, got {values!r}")
    return grid


def cmd_evaluate(args: argparse.Namespace) -> int:
    config, hyper, errors = _read_config(args.config)
    task = config.get("task")
    tasks = [task] if config.get("mode") == "offline" else []
    arch, table = _load_inputs(config, tasks, errors, args.config)
    seed = config.get("seed", 0)
    plan = _interval_plan(arch.sequence.length, config.get("intervals"), [task])
    report = run_suite(table, plan, config["mode"], config["selectors"], task, seed=seed)
    config_hash = _config_hash(config)
    report.metadata["dataset_id"] = arch.dataset_id
    report.metadata["config_hash"] = config_hash
    prefix = Path(config["output"])
    prefix.parent.mkdir(parents=True, exist_ok=True)
    report.write_json(prefix.with_suffix(".json"))
    report.write_csv(prefix.with_suffix(".csv"))
    if hyper:
        grid = hyperparam_sweep(table, plan, **hyper, seed=seed)
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
# the input boundary of analyze and report


def _read_reports(paths: Sequence[str], read: Callable[[str, dict], object]) -> list:
    """`read(path, report)` of the JSON object in each report file of
    `paths`. Raises ValidationFailure naming the file, and the key where one
    is missing, when a file is absent, is not a JSON object, or lacks a key
    or holds a value of a type that `read` needs."""
    errors = [f"report {p} does not exist" for p in paths if not Path(p).exists()]
    if errors:
        raise ValidationFailure(errors)
    out = []
    for path in paths:
        try:
            report = json.loads(Path(path).read_text(encoding="utf-8"))
            if not isinstance(report, dict):
                raise TypeError(f"a report is a JSON object, not a {type(report).__name__}")
            out.append(read(path, report))
        except json.JSONDecodeError as exc:
            raise ValidationFailure([f"{path}: invalid JSON ({exc})"]) from None
        except KeyError as exc:
            raise ValidationFailure([f"{path}: missing key {exc}"]) from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValidationFailure([f"{path}: malformed report ({exc})"]) from None
    return out


# --------------------------------------------------------------------------
# analyze


def _curves(path: str, report: dict) -> CurveSet:
    if not report.get("curves"):
        raise ValidationFailure([f"{path}: no score curves in this report"])
    return CurveSet.from_dict(report["curves"])


def cmd_analyze(args: argparse.Namespace) -> int:
    loaded = list(zip(args.reports, _read_reports(args.reports, _curves)))
    first_path, first = loaded[0]
    for path, curves in loaded[1:]:
        for what, key in [
            ("dataset id", lambda c: c.dataset_id),
            ("interval count", lambda c: len(c.intervals)),
            ("window size range", lambda c: c.sizes),
        ]:
            if key(curves) != key(first):
                raise ValidationFailure([f"{what} mismatch between {first_path} and {path}"])
    for path, curves in loaded:
        shape = (len(curves.intervals), len(curves.sizes))
        for task, rows in curves.values.items():
            if len(rows) != shape[0] or any(len(c) != shape[1] for c in rows):
                raise ValidationFailure(
                    [f"{path}: {task} curves are not {shape[0]} intervals by {shape[1]} sizes"]
                )
    # merge into one collection; duplicate task names get a #index suffix
    seen: dict[str, int] = {}
    names: list[str] = []
    values: dict[str, tuple] = {}
    for index, (_, curves) in enumerate(loaded):
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


def _report_lines(path: str, data: dict) -> list[str]:
    """One report file rendered as markdown lines."""
    meta = data.get("metadata", {})
    lines = [f"## {Path(path).name}", ""]
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
    return lines


def cmd_report(args: argparse.Namespace) -> int:
    blocks = _read_reports(args.reports, _report_lines)
    text = "\n".join(line for lines in blocks for line in lines).rstrip() + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


# --------------------------------------------------------------------------
# parser


# measured at n <= 150, a worker pool never made a stage faster; the flag
# stays so that existing scripts keep running
_IGNORED = "accepted and ignored: every stage runs in this one process"


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
    p.add_argument("--theta", type=float, default=defaults.theta)
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
    p.add_argument("--beta", type=float, default=defaults.beta)
    p.add_argument("--theta", type=float, default=defaults.theta)
    p.add_argument("--batch-size", type=int, default=defaults.batch_size)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help=_IGNORED)
    p.add_argument("--out", required=True, help="curve report JSON path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("evaluate", help="run a declarative config and write reports")
    p.add_argument("config", help="JSON run configuration")
    p.add_argument("--jobs", type=int, default=1, help=_IGNORED)
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
