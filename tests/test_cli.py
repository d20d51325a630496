"""Command-line interface, exercised through main(argv)."""
from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from graphwin import (
    EvalParams,
    QualityTable,
    harness,
    run_suite,
    split_intervals,
)
from graphwin.cli import main
from graphwin.harness import OFFLINE_SELECTORS, derive_seed
from graphwin.temporal import load_archive


EVENS = [0, 2, 4, 6]
ODDS = [1, 3, 5, 7]


def stream_text() -> str:
    """12-step stream on 8 vertices: rotating within-class edges for two
    vertex classes plus a periodic cross-class edge."""
    lines = []
    for t in range(12):
        edges = [
            (EVENS[t % 4], EVENS[(t + 1) % 4]),
            (ODDS[t % 4], ODDS[(t + 2) % 4]),
        ]
        if t % 3 == 0:
            edges.append((EVENS[t % 4], ODDS[(t + 1) % 4]))
        for u, v in edges:
            lines.append(f"v{u},v{v},{t}")
    return "\n".join(lines) + "\n"


def tie_rich_stream_text() -> str:
    """12-step stream on 150 vertices: each step is five copies of one
    random 30-vertex graph (edge probability 0.08), so many Katz scores tie
    exactly and their order rests on how BLAS rounds them."""
    rng = np.random.default_rng(0)
    lines = []
    for t in range(12):
        block = [(u, v) for u in range(30) for v in range(u + 1, 30) if rng.random() < 0.08]
        lines += [f"v{u + 30 * c},v{v + 30 * c},{t}" for c in range(5) for u, v in block]
    return "\n".join(lines) + "\n"


@pytest.fixture()
def dataset(tmp_path):
    stream = tmp_path / "stream.csv"
    stream.write_text(stream_text())
    archive = tmp_path / "arch"
    assert main(["ingest", str(stream), "--out", str(archive)]) == 0
    cps = tmp_path / "cps.txt"
    cps.write_text("4\n9\n")
    attrs = tmp_path / "attrs.csv"
    rows = "\n".join(f"v{i},{'a' if i % 2 == 0 else 'b'}" for i in range(8))
    attrs.write_text("vertex,y\n#types: categorical\n" + rows + "\n")
    return {"stream": stream, "archive": archive, "cps": cps, "attrs": attrs,
            "tmp": tmp_path}


# --------------------------------------------------------------------------
# ingest


def test_ingest_summary_and_reproducibility(dataset, capsys):
    archive = dataset["archive"]
    assert sorted(p.name for p in archive.iterdir()) == [
        "manifest.json", "steps.csv", "summary.json",
    ]
    summary = json.loads((archive / "summary.json").read_text())
    assert summary["n"] == 8
    assert summary["length"] == 12
    assert summary["resolution"] == 1
    assert summary["edge_totals"] == [3, 2, 2, 3, 2, 2, 3, 2, 2, 3, 2, 2]
    assert len(summary["dataset_id"]) == 64
    assert summary["seed"] == 0

    before = {name: (archive / name).read_bytes()
              for name in ("manifest.json", "steps.csv", "summary.json")}
    capsys.readouterr()
    assert main(["ingest", str(dataset["stream"]), "--out", str(archive)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == summary
    for name, blob in before.items():
        assert (archive / name).read_bytes() == blob


def test_ingest_missing_stream(tmp_path, capsys):
    rc = main(["ingest", str(tmp_path / "ghost.csv"), "--out", str(tmp_path / "a")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "ghost.csv does not exist" in err


def test_ingest_self_loop_policy(tmp_path, capsys):
    loops = tmp_path / "loops.csv"
    loops.write_text("a,b,0\nc,c,1\nb,a,2\n")
    rc = main(["ingest", str(loops), "--out", str(tmp_path / "strict")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "self-loop" in err and "line 2" in err

    rc = main(["ingest", str(loops), "--out", str(tmp_path / "lax"), "--drop-self-loops"])
    out = capsys.readouterr().out
    assert rc == 0
    summary = json.loads(out)
    assert summary["n"] == 3  # dropped loop's vertex stays in the label table
    assert summary["length"] == 3


def test_ingest_refuses_an_empty_delimiter(tmp_path, capsys):
    stream = tmp_path / "stream.csv"
    stream.write_text("a,b,0\n")
    rc = main(["ingest", str(stream), "--out", str(tmp_path / "a"), "--delimiter", ""])
    assert rc == 1
    assert capsys.readouterr().err == "error: delimiter '' must not be empty\n"


# --------------------------------------------------------------------------
# select


def test_select_fixed_baselines(dataset, capsys):
    rc = main(["select", str(dataset["archive"]), "--selector", "hand-picked"])
    out = capsys.readouterr().out
    assert rc == 0
    sel = json.loads(out)
    assert sel["chosen_size"] == 1
    assert sel["test_span"] == [1, 12]
    assert sel["sizes"] == [1] * 12
    assert sel["cuts"] == list(range(1, 12))
    assert len(sel["dataset_id"]) == 64

    target = dataset["tmp"] / "sel.json"
    rc = main(["select", str(dataset["archive"]), "--selector", "no-time",
               "--out", str(target)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == ""  # written to the file instead
    sel = json.loads(target.read_text())
    assert sel["chosen_size"] == 12
    assert sel["sizes"] == [12]


def test_select_supervised_changepoint(dataset, capsys):
    rc = main(["select", str(dataset["archive"]), "--selector", "supervised",
               "--task", "changepoint", "--train-span", "1", "6",
               "--test-span", "7", "12", "--changepoints", str(dataset["cps"])])
    out = capsys.readouterr().out
    assert rc == 0
    sel = json.loads(out)
    assert sel["chosen_size"] == 1
    assert sel["train_span"] == [1, 6]
    assert sel["test_span"] == [7, 12]
    assert sel["length"] == 6


def test_select_supervised_attribute(dataset, capsys):
    rc = main(["select", str(dataset["archive"]), "--selector", "supervised",
               "--task", "attribute", "--train-span", "1", "6",
               "--test-span", "7", "12", "--attributes", str(dataset["attrs"]),
               "--target", "y", "--batch-size", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["chosen_size"] == 2


def test_select_validation_enumerates_problems(dataset, capsys):
    rc = main(["select", str(dataset["archive"]), "--selector", "supervised"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: supervised selection needs --task attribute or changepoint" in err
    assert "error: supervised selection needs --train-span" in err

    rc = main(["select", str(dataset["archive"]), "--selector", "mystery"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "unknown selector 'mystery'" in err
    assert "valid:" in err and "fourier" in err


@pytest.mark.parametrize(
    "seed, sizes, chosen",
    [(79, [2, 10], None), (327, [5, 5, 2], 5), (7, [12], 12)],
)
def test_select_reports_a_chosen_size_only_for_a_uniform_windowing(
    dataset, capsys, seed, sizes, chosen
):
    """A longer last segment is not a uniform windowing: at size 2 one cuts
    at 2, 4, 6, 8 and 10."""
    rc = main(["select", str(dataset["archive"]), "--selector", "random",
               "--seed", str(seed)])
    sel = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert sel["sizes"] == sizes
    assert sel["chosen_size"] == chosen


@pytest.mark.parametrize("selector", OFFLINE_SELECTORS)
def test_select_refuses_a_bad_span_for_every_selector(dataset, capsys, selector):
    base = ["select", str(dataset["archive"]), "--selector", selector,
            "--task", "changepoint", "--changepoints", str(dataset["cps"])]
    rc = main([*base, "--train-span", "0", "6", "--test-span", "7", "12"])
    assert rc == 1
    assert capsys.readouterr().err == "error: bad span [0, 6] for length 12\n"
    # the test span is checked first
    rc = main([*base, "--train-span", "0", "6", "--test-span", "7", "13"])
    assert rc == 1
    assert capsys.readouterr().err == "error: bad span [7, 13] for length 12\n"
    # a training span shares no step with the test span, given or defaulted,
    # so supervised selection never reads the test span's ground truth
    out = dataset["tmp"] / f"{selector}.json"
    for spans, message in [
        (["1", "6"], "--train-span 1 6 overlaps the default test span 1 12"),
        (["1", "6", "--test-span", "6", "12"], "--train-span 1 6 overlaps --test-span 6 12"),
        (["4", "9", "--test-span", "1", "5"], "--train-span 4 9 overlaps --test-span 1 5"),
    ]:
        rc = main([*base, "--train-span", *spans, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
    rc = main([*base, "--train-span", "7", "12", "--test-span", "1", "6", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["test_span"] == [1, 6]


def test_select_writes_the_windowing_evaluate_scores(dataset, capsys):
    """Every offline selector, on both tasks and both interval pairs:
    `select` with a cell's spans and seed writes that cell's windowing."""
    tmp = dataset["tmp"]
    inputs = {"attributes": str(dataset["attrs"]), "target": "y",
              "changepoints": str(dataset["cps"])}
    for task in ("attribute", "changepoint"):
        cfg = {"archive": str(dataset["archive"]), "mode": "offline", "task": task,
               "selectors": list(OFFLINE_SELECTORS), "intervals": 3, "seed": 5,
               "output": str(tmp / task), **inputs}
        (tmp / "cfg.json").write_text(json.dumps(cfg))
        assert main(["evaluate", str(tmp / "cfg.json")]) == 0
        cells = json.loads((tmp / f"{task}.json").read_text())["cells"]
        assert len(cells) == 2 * len(OFFLINE_SELECTORS)
        for cell in cells:
            name, idx = cell["selector"], cell["pair_index"]
            rc = main([
                "select", str(dataset["archive"]), "--selector", name, "--task", task,
                "--attributes", inputs["attributes"], "--target", "y",
                "--changepoints", inputs["changepoints"],
                "--train-span", *map(str, cell["train_span"]),
                "--test-span", *map(str, cell["test_span"]),
                "--seed", str(derive_seed(5, name, task, idx)),
            ])
            assert rc == 0
            assert json.loads(capsys.readouterr().out)["cuts"] == cell["detail"]["windowing"]


# --------------------------------------------------------------------------
# sweep


def test_sweep_defaults_and_determinism(dataset, capsys):
    out_path = dataset["tmp"] / "curves.json"
    rc = main(["sweep", str(dataset["archive"]), "--tasks", "linkpred",
               "--out", str(out_path)])
    assert rc == 0
    data = json.loads(out_path.read_text())
    assert data["metadata"]["mode"] == "sweep"
    assert len(data["metadata"]["intervals"]) == 6  # default without changepoint
    assert data["curves"]["sizes"] == [1, 2]
    first = out_path.read_bytes()
    rc = main(["sweep", str(dataset["archive"]), "--tasks", "linkpred",
               "--out", str(out_path)])
    assert rc == 0
    assert out_path.read_bytes() == first

    cp_path = dataset["tmp"] / "curves_cp.json"
    rc = main(["sweep", str(dataset["archive"]), "--tasks", "linkpred,changepoint",
               "--changepoints", str(dataset["cps"]), "--out", str(cp_path)])
    assert rc == 0
    data = json.loads(cp_path.read_text())
    assert len(data["metadata"]["intervals"]) == 5  # changepoint default
    assert data["curves"]["tasks"] == ["linkpred", "changepoint"]


def test_sweep_validation(dataset, capsys):
    rc = main(["sweep", str(dataset["archive"]), "--tasks", "attribute,mystery",
               "--out", str(dataset["tmp"] / "x.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "unknown task 'mystery'" in err
    assert "task attribute needs --attributes" in err


def test_each_stage_builds_one_quality_table(dataset, monkeypatch):
    """`select`, `sweep` and `evaluate` (with a `hyperparams` grid) each
    build the one quality table that every step of the stage reads."""
    built = []
    init = harness.QualityTable.__init__

    def recorded(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(harness.QualityTable, "__init__", recorded)
    tmp, archive, cps = dataset["tmp"], str(dataset["archive"]), str(dataset["cps"])
    cfg = online_config(dataset, tmp / "out" / "run")
    cfg["hyperparams"] = {"min_tests_values": [1, 2], "top_count_values": [1], "fixed": 2}
    (tmp / "run.json").write_text(json.dumps(cfg))
    stages = [
        ["select", archive, "--selector", "supervised", "--task", "changepoint",
         "--train-span", "1", "6", "--test-span", "7", "12", "--changepoints", cps,
         "--out", str(tmp / "select.json")],
        ["sweep", archive, "--tasks", "linkpred,changepoint", "--changepoints", cps,
         "--intervals", "3", "--out", str(tmp / "curves.json")],
        ["evaluate", str(tmp / "run.json")],
    ]
    for argv in stages:
        built.clear()
        assert main(argv) == 0, argv[0]
        assert len(built) == 1, argv[0]
    assert (tmp / "out" / "run_sweep.json").exists()


def test_sweep_rejects_a_types_line_without_colon(dataset, capsys):
    attrs = dataset["tmp"] / "nocolon.csv"
    attrs.write_text(dataset["attrs"].read_text().replace("#types:", "#types"))
    out = dataset["tmp"] / "x.json"
    rc = main(["sweep", str(dataset["archive"]), "--tasks", "attribute",
               "--attributes", str(attrs), "--target", "y", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "line 2: '#types categorical' needs a ':'" in err
    assert not out.exists()


# --------------------------------------------------------------------------
# evaluate


def online_config(dataset, output) -> dict:
    return {
        "archive": str(dataset["archive"]),
        "mode": "online",
        "task": "linkpred",
        "selectors": ["online", "hand-picked"],
        "intervals": 3,
        "seed": 3,
        "output": str(output),
        "params": {"min_tests": 2, "top_count": 2, "alpha": 1.0},
    }


def test_evaluate_is_a_thin_wrapper_over_the_library(dataset):
    prefix = dataset["tmp"] / "out" / "run"
    cfg_path = dataset["tmp"] / "run.json"
    cfg_path.write_text(json.dumps(online_config(dataset, prefix)))
    assert main(["evaluate", str(cfg_path)]) == 0

    report = json.loads(prefix.with_suffix(".json").read_text())
    arch = load_archive(dataset["archive"])
    params = EvalParams(beta=0.005, min_tests=2, top_count=2, alpha=1.0)
    direct = run_suite(
        QualityTable(arch.sequence, None, None, params),
        split_intervals(12, 3),
        "online",
        ["online", "hand-picked"],
        "linkpred",
        seed=3,
    ).to_dict()
    assert report["aggregates"] == direct["aggregates"]
    assert report["cells"] == direct["cells"]
    assert report["metadata"]["dataset_id"] == arch.dataset_id
    assert "config_hash" in report["metadata"]

    csv_lines = prefix.with_suffix(".csv").read_text().splitlines()
    assert csv_lines[0] == "selector,task,pair,train_start,train_end,test_start,test_end,score"
    assert len(csv_lines) == 1 + len(report["cells"])


def _reruns_agree(cfg: dict, cfg_path) -> None:
    prefix = Path(cfg["output"])
    cfg_path.write_text(json.dumps(cfg))
    assert main(["evaluate", str(cfg_path)]) == 0
    blobs = (prefix.with_suffix(".json").read_bytes(), prefix.with_suffix(".csv").read_bytes())
    assert main(["evaluate", str(cfg_path)]) == 0
    assert prefix.with_suffix(".json").read_bytes() == blobs[0]
    assert prefix.with_suffix(".csv").read_bytes() == blobs[1]


def test_evaluate_reruns_are_byte_identical(dataset):
    tmp = dataset["tmp"]
    _reruns_agree(online_config(dataset, tmp / "out" / "run"), tmp / "run.json")
    # a tie-rich n = 150 stream, large enough for BLAS to use its threads
    (tmp / "tied.csv").write_text(tie_rich_stream_text())
    assert main(["ingest", str(tmp / "tied.csv"), "--out", str(tmp / "tied")]) == 0
    tied = {
        **online_config(dataset, tmp / "out" / "tied"),
        "archive": str(tmp / "tied"),
        "selectors": ["online"],
        "params": {"min_tests": 2, "top_count": 4},
    }
    _reruns_agree(tied, tmp / "tied.json")


def test_online_weighted_runs_an_interval_pair_longer_than_the_decay_underflows(tmp_path):
    """1,100 steps at alpha = 0.5: a size tested only early falls more than
    1,075 steps behind, where a weight read from the current step is 0."""
    rng = np.random.default_rng(0)
    pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    lines = [f"v{u},v{v},{t}" for t in range(1100) for u, v in pairs if rng.random() < 0.3]
    (tmp_path / "long.csv").write_text("\n".join(lines) + "\n")
    assert main(["ingest", str(tmp_path / "long.csv"), "--out", str(tmp_path / "long")]) == 0
    cfg = {
        "archive": str(tmp_path / "long"),
        "mode": "online",
        "task": "linkpred",
        "selectors": ["online-weighted"],
        "intervals": 2,
        "seed": 0,
        "output": str(tmp_path / "out" / "long"),
        "params": {"min_tests": 1, "top_count": 1, "alpha": 0.5},
    }
    (tmp_path / "long.json").write_text(json.dumps(cfg))
    assert main(["evaluate", str(tmp_path / "long.json")]) == 0
    report = json.loads((tmp_path / "out" / "long.json").read_text())
    assert report["cells"][0]["score"] is not None


def test_jobs_flag_is_ignored(dataset):
    """`--jobs` is parsed for old scripts and changes no output byte, the
    config hash included."""
    tmp = dataset["tmp"]
    cfg = online_config(dataset, tmp / "out" / "run")
    cfg["hyperparams"] = {"min_tests_values": [1], "top_count_values": [2], "fixed": 2}
    cfg_path = tmp / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    sweep = ["sweep", str(dataset["archive"]), "--tasks", "linkpred,changepoint",
             "--changepoints", str(dataset["cps"]), "--out", str(tmp / "out" / "curves.json")]
    outputs = {}
    for extra in ([], ["--jobs", "2"]):
        assert main(["evaluate", str(cfg_path), *extra]) == 0
        assert main([*sweep, *extra]) == 0
        outputs[tuple(extra)] = {p.name: p.read_bytes() for p in sorted((tmp / "out").iterdir())}
    assert len(outputs[()]) == 5
    assert outputs[("--jobs", "2")] == outputs[()]


def test_evaluate_config_validation(dataset, capsys):
    cfg = online_config(dataset, dataset["tmp"] / "x")
    cfg["selectors"] = ["mystery"]
    cfg["frobnicate"] = 1
    cfg_path = dataset["tmp"] / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["evaluate", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "unknown config keys ['frobnicate']" in err
    assert "unknown selector 'mystery' for mode online" in err
    assert "valid: online, online-weighted, training-only" in err

    rc = main(["evaluate", str(dataset["tmp"] / "nosuch.json")])
    err = capsys.readouterr().err
    assert rc == 1 and "does not exist" in err

    broken = dataset["tmp"] / "notjson.json"
    broken.write_text("{oops")
    rc = main(["evaluate", str(broken)])
    err = capsys.readouterr().err
    assert rc == 1 and "invalid JSON" in err


def test_evaluate_rejects_bad_param_values_before_compute(dataset, capsys):
    prefix = dataset["tmp"] / "out" / "attr"
    cfg = {
        "archive": str(dataset["archive"]),
        "mode": "offline",
        "task": "attribute",
        "selectors": ["hand-picked"],
        "attributes": str(dataset["attrs"]),
        "target": "y",
        "intervals": 2,
        "output": str(prefix),
    }
    cfg_path = dataset["tmp"] / "params.json"
    online = {"mode": "online", "task": "linkpred", "selectors": ["online"]}
    number = "must be a number, got"
    budget = 'must be a number >= 1 or "inf", got'
    cases = [
        ({"params": {"carry_ledger": False}}, ["unknown params keys ['carry_ledger']"]),
        ({"params": {"batch_size": "x"}}, ["params.batch_size must be an integer >= 1, got 'x'"]),
        ({"params": {"batch_size": 0}}, ["params.batch_size must be an integer >= 1, got 0"]),
        ({"params": {"batch_size": True}},
         ["params.batch_size must be an integer >= 1, got True"]),
        (
            {"params": {"batch_size": 1.5, "adage_patience": 0}},
            [
                "params.batch_size must be an integer >= 1, got 1.5",
                "params.adage_patience must be an integer >= 1, got 0",
            ],
        ),
        ({"params": {"min_tests": None}}, [f"params.min_tests {budget} None"]),
        ({"params": {"beta": [1]}}, [f"params.beta {number} [1]"]),
        ({"params": {"alpha": None}}, [f"params.alpha {number} None"]),
        ({"params": {"tau": None}}, [f"params.tau {number} None"]),
        ({"params": {"tau": math.nan, "adage_tol": math.inf}}, [
            "params.tau must be a finite number >= 0, got nan",
            "params.adage_tol must be a finite number > 0, got inf",
        ]),
        ({"params": {"tau": -1, "adage_tol": 0}}, [
            "params.tau must be a finite number >= 0, got -1",
            "params.adage_tol must be a finite number > 0, got 0",
        ]),
        ({"params": {"adage_tol": -1}}, ["params.adage_tol must be a finite number > 0, got -1"]),
        ({"params": {"alpha": True}}, [f"params.alpha {number} True"]),
        ({"params": {"alpha": 2, "theta": 1}}, [
            "params.alpha must lie in (0, 1], got 2",
            "params.theta must lie in (0, 1), got 1",
        ]),
        ({"params": {"adage_patience": 2.0, "top_count": 0.5}}, [
            "params.adage_patience must be an integer >= 1, got 2.0",
            "params.top_count must be >= 1, got 0.5",
        ]),
        ({"seed": None}, ["'seed' must be an integer, got None"]),
        ({"selectors": None}, ["missing required key 'selectors'"]),
        ({"selectors": "hand-picked"}, ["'selectors' must be a list of strings, got 'hand-picked'"]),
        ({"selectors": []}, ["'selectors' must name at least one selector"]),
        ({"selectors": ["random", "jaccard", "random", "mystery"], "seed": 1.5}, [
            "'selectors' repeats ['random']",
            "unknown selector 'mystery' for mode offline",
            "'seed' must be an integer, got 1.5",
        ]),
        ({"output": 3}, ["'output' must be a string, got 3"]),
        ({"target": None, "changepoints": "nosuch.txt"}, [
            "'attributes' requires 'target'",
            "'changepoints' file nosuch.txt does not exist",
        ]),
        ({"hyperparams": {"fixed": "abc"}}, [f"hyperparams.fixed {budget} 'abc'"]),
        ({"hyperparams": {"top_count_values": [None]}},
         [f"hyperparams.top_count_values[0] {budget} None"]),
        ({"hyperparams": {"min_tests_values": [2, False], "fixed": "inf"}},
         [f"hyperparams.min_tests_values[1] {budget} False"]),
        ({"hyperparams": {"min_tests_values": 2}}, ["hyperparams.min_tests_values must be a list"]),
        ({"hyperparams": {"min_tests_values": [1, 2], "fixed": 10}},
         ["'hyperparams' grids an online run, but mode is offline"]),
        ({**online, "hyperparams": {"min_tests_values": [1, 2], "selector": "random"}},
         ["hyperparams.selector must be one the retest budgets steer"
          " (online, online-weighted, training-only), got 'random'"]),
        ({**online, "hyperparams": {"fixed": 10}},
         ["'hyperparams' needs a non-empty min_tests_values or top_count_values"]),
        (
            {"seed": 1.5, "params": {"beta": True}, "hyperparams": {"fixed": 0}},
            [
                "'seed' must be an integer, got 1.5",
                f"params.beta {number} True",
                "hyperparams.fixed must be >= 1, got 0",
            ],
        ),
    ]
    outputs = [prefix.with_suffix(".json"), prefix.with_suffix(".csv"),
               prefix.parent / "attr_sweep.json"]
    for override, messages in cases:
        cfg_path.write_text(json.dumps({**cfg, **override}))
        rc = main(["evaluate", str(cfg_path)])
        err = capsys.readouterr().err
        assert rc == 1, override
        assert "runtime error" not in err
        for message in messages:
            assert message in err, (override, err)
        assert not any(path.exists() for path in outputs), override
    cfg_path.write_text(json.dumps({**cfg, "params": {"batch_size": 1, "adage_patience": 3}}))
    assert main(["evaluate", str(cfg_path)]) == 0
    assert prefix.with_suffix(".json").exists()


def test_evaluate_refuses_a_continuous_value_too_large_for_the_gaussian_model(dataset, capsys):
    # it used to fail inside the Gaussian model: runtime error, exit 2
    attrs = dataset["tmp"] / "big.csv"
    rows = "\n".join(f"v{i},{'ab'[i % 2]},{'1e300' if i == 0 else i}" for i in range(8))
    attrs.write_text("vertex,y,z\n#types: categorical, continuous\n" + rows + "\n")
    cfg = {
        "archive": str(dataset["archive"]),
        "mode": "offline",
        "task": "attribute",
        "selectors": ["hand-picked"],
        "attributes": str(attrs),
        "target": "y",
        "intervals": 2,
        "output": str(dataset["tmp"] / "out" / "attr"),
    }
    cfg_path = dataset["tmp"] / "big.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["evaluate", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "line 3: vertex 'v0': out-of-range value '1e300' in continuous column 'z'" in err
    assert not (dataset["tmp"] / "out").exists()


def test_tuning_flags_are_validated_before_compute(dataset, capsys, monkeypatch):
    def no_compute(path):
        pytest.fail("the archive was loaded despite a validation failure")

    monkeypatch.setattr("graphwin.cli.load_archive", no_compute)
    rc = main(["sweep", str(dataset["archive"]), "--tasks", "linkpred,changepoint",
               "--batch-size", "0", "--beta", "1", "--out", str(dataset["tmp"] / "c.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: task changepoint needs --changepoints" in err
    assert "--batch-size must be an integer >= 1, got 0" in err
    assert "--beta must lie in (0, 1), got 1.0" in err
    assert not (dataset["tmp"] / "c.json").exists()

    for tasks, intervals, messages in [
        ("linkpred,bogus", "0", ["unknown task 'bogus'", "--intervals must be >= 1, got 0"]),
        ("linkpred", "-2", ["--intervals must be >= 1, got -2"]),
    ]:
        rc = main(["sweep", str(dataset["archive"]), "--tasks", tasks, "--intervals", intervals,
                   "--out", str(dataset["tmp"] / "c.json")])
        err = capsys.readouterr().err
        assert rc == 1
        for message in messages:
            assert f"error: {message}" in err, (message, err)
    assert not (dataset["tmp"] / "c.json").exists()

    rc = main(["select", str(dataset["archive"]), "--selector", "jaccard", "--theta", "2",
               "--adage-patience", "0", "--attributes", str(dataset["attrs"])])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: --attributes requires --target" in err
    assert "--theta must lie in (0, 1), got 2.0" in err
    assert "--adage-patience must be an integer >= 1, got 0" in err
    assert "runtime error" not in err

    rc = main(["select", str(dataset["archive"]), "--selector", "jaccard", "--tau", "nan"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "--tau must be a finite number >= 0, got nan" in err

    # a select seed is a cell seed, which derive_seed makes non-negative
    for selector in ("random", "hand-picked"):
        rc = main(["select", str(dataset["archive"]), "--selector", selector, "--seed", "-1",
                   "--tau", "-1"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --seed must be >= 0, got -1\n"
            "error: --tau must be a finite number >= 0, got -1.0\n"
        )


def test_evaluate_hyperparameter_grid(dataset):
    prefix = dataset["tmp"] / "out" / "h"
    cfg = online_config(dataset, prefix)
    cfg["selectors"] = ["online"]
    cfg["params"] = {"alpha": 1.0}
    cfg["hyperparams"] = {
        "min_tests_values": [1, "inf"],
        "top_count_values": [2],
        "fixed": 2,
    }
    cfg_path = dataset["tmp"] / "hyper.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["evaluate", str(cfg_path)]) == 0

    csv_lines = (dataset["tmp"] / "out" / "h_sweep.csv").read_text().splitlines()
    assert csv_lines[0] == "axis,value,fixed,score"
    assert [l.split(",")[:3] for l in csv_lines[1:]] == [
        ["min_tests", "1.0", "2.0"],
        ["min_tests", "inf", "2.0"],  # unbounded retesting serializes as inf
        ["top_count", "2.0", "2.0"],
    ]
    grid = json.loads((dataset["tmp"] / "out" / "h_sweep.json").read_text())["grid"]
    assert [g["value"] for g in grid] == [1.0, "inf", 2.0]
    assert all(isinstance(g["score"], float) for g in grid)


# --------------------------------------------------------------------------
# analyze


def test_analyze_single_report(dataset):
    curves = dataset["tmp"] / "curves2t.json"
    assert main(["sweep", str(dataset["archive"]), "--tasks", "linkpred,changepoint",
                 "--changepoints", str(dataset["cps"]), "--out", str(curves)]) == 0
    prefix = dataset["tmp"] / "an" / "a"
    assert main(["analyze", str(curves), "--out-prefix", str(prefix)]) == 0
    names = ["linkpred", "changepoint"]
    out = json.loads((dataset["tmp"] / "an" / "a.json").read_text())
    assert sorted(out["cross_task"]["entries"]) == sorted(names)
    entries = out["cross_task"]["entries"]
    for scored in names:
        for chooser in names:
            assert entries[scored][scored] >= entries[chooser][scored]
    table1 = (dataset["tmp"] / "an" / "a_table1.csv").read_text().splitlines()
    assert table1[0] == "chooser,linkpred,changepoint"
    assert len(table1) == 3
    curves_rows = (dataset["tmp"] / "an" / "a_curves.csv").read_text().splitlines()
    assert curves_rows[0] == "series,interval,size,score"
    assert len(curves_rows) == 1 + 2 * 5 * 2  # tasks x intervals x sizes
    stab_rows = (dataset["tmp"] / "an" / "a_stability.csv").read_text().splitlines()
    assert stab_rows[0] == "series,size,mean_abs_diff"
    assert len(stab_rows) == 1 + 2 * 2


def test_analyze_merges_reports_with_duplicate_tasks(dataset):
    a = dataset["tmp"] / "a.json"
    b = dataset["tmp"] / "b.json"
    assert main(["sweep", str(dataset["archive"]), "--tasks", "linkpred",
                 "--out", str(a)]) == 0
    shutil.copyfile(a, b)
    prefix = dataset["tmp"] / "an" / "dup"
    assert main(["analyze", str(a), str(b), "--out-prefix", str(prefix)]) == 0
    out = json.loads((dataset["tmp"] / "an" / "dup.json").read_text())
    assert sorted(out["cross_task"]["entries"]) == ["linkpred", "linkpred#1"]
    rho, p = out["spearman"]["linkpred"]["linkpred#1"]
    assert rho == pytest.approx(1.0, abs=1e-12)  # identical curves
    assert 0.0 <= p < 1e-6
    table2 = (dataset["tmp"] / "an" / "dup_table2.csv").read_text().splitlines()
    assert table2[0] == "series_a,series_b,rho,p"
    fields = table2[1].split(",")
    assert fields[:2] == ["linkpred", "linkpred#1"]
    assert float(fields[2]) == pytest.approx(1.0, abs=1e-12)


def test_analyze_refuses_mismatched_reports(dataset, capsys):
    base = dataset["tmp"] / "base.json"
    assert main(["sweep", str(dataset["archive"]), "--tasks", "linkpred",
                 "--out", str(base)]) == 0

    other_intervals = dataset["tmp"] / "i4.json"
    assert main(["sweep", str(dataset["archive"]), "--tasks", "linkpred",
                 "--intervals", "4", "--out", str(other_intervals)]) == 0
    rc = main(["analyze", str(base), str(other_intervals),
               "--out-prefix", str(dataset["tmp"] / "x")])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"interval count mismatch between {base} and {other_intervals}" in err

    resized = dataset["tmp"] / "resized.json"
    data = json.loads(base.read_text())
    data["curves"]["sizes"] = [1]
    resized.write_text(json.dumps(data))
    rc = main(["analyze", str(base), str(resized),
               "--out-prefix", str(dataset["tmp"] / "x")])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"window size range mismatch between {base} and {resized}" in err

    stream2 = dataset["tmp"] / "stream2.csv"
    stream2.write_text(stream_text() + "v0,v3,11\n")
    arch2 = dataset["tmp"] / "arch2"
    assert main(["ingest", str(stream2), "--out", str(arch2)]) == 0
    foreign = dataset["tmp"] / "foreign.json"
    assert main(["sweep", str(arch2), "--tasks", "linkpred", "--out", str(foreign)]) == 0
    rc = main(["analyze", str(base), str(foreign),
               "--out-prefix", str(dataset["tmp"] / "x")])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"dataset id mismatch between {base} and {foreign}" in err


@pytest.mark.parametrize("cut", ["short-curve", "missing-interval"])
def test_analyze_refuses_curves_that_do_not_fit_their_sizes(dataset, capsys, cut):
    base = dataset["tmp"] / "base.json"
    assert main(["sweep", str(dataset["archive"]), "--tasks", "linkpred",
                 "--intervals", "3", "--out", str(base)]) == 0
    data = json.loads(base.read_text())
    curves = data["curves"]["values"]["linkpred"]
    assert len(curves) == 3 and len(data["curves"]["sizes"]) > 1
    if cut == "short-curve":
        curves[1] = curves[1][:1]
    else:
        del curves[2]
    bad = dataset["tmp"] / "bad.json"
    bad.write_text(json.dumps(data))
    out = dataset["tmp"] / "out"
    out.mkdir()
    for reports in ([bad], [base, bad]):
        assert main(["analyze", *map(str, reports), "--out-prefix", str(out / "x")]) == 1
        err = capsys.readouterr().err
        assert f"error: {bad}: linkpred curves are not 3 intervals by" in err
    assert list(out.iterdir()) == []


def test_analyze_needs_curves(dataset, capsys):
    prefix = dataset["tmp"] / "out" / "run"
    cfg_path = dataset["tmp"] / "run.json"
    cfg_path.write_text(json.dumps(online_config(dataset, prefix)))
    assert main(["evaluate", str(cfg_path)]) == 0
    rc = main(["analyze", str(prefix.with_suffix(".json")),
               "--out-prefix", str(dataset["tmp"] / "x")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "no score curves in this report" in err


# --------------------------------------------------------------------------
# report rendering


def test_report_renders_markdown(dataset, capsys):
    prefix = dataset["tmp"] / "out" / "run"
    cfg_path = dataset["tmp"] / "run.json"
    cfg_path.write_text(json.dumps(online_config(dataset, prefix)))
    assert main(["evaluate", str(cfg_path)]) == 0
    report_json = prefix.with_suffix(".json")
    md_path = dataset["tmp"] / "run.md"
    capsys.readouterr()
    assert main(["report", str(report_json), "--out", str(md_path)]) == 0
    text = md_path.read_text()
    assert text.startswith("## run.json")
    assert "- mode: online" in text
    assert "| selector | task | score | method |" in text
    assert "| online | linkpred |" in text
    assert main(["report", str(report_json)]) == 0
    assert capsys.readouterr().out == text


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("analyze", "[1, 2]", "a report is a JSON object, not a list"),
        ("report", "[1, 2]", "a report is a JSON object, not a list"),
        ("report", '{"cells": [{"score": 1}]}', "missing key 'selector'"),
        ("analyze", '{"curves": {"tasks": ["x"]}}', "missing key 'sizes'"),
        ("analyze", "not json", "invalid JSON"),
        ("report", "not json", "invalid JSON"),
    ],
    ids=["analyze-list", "report-list", "report-cell-key", "analyze-curves-key",
         "analyze-text", "report-text"],
)
def test_malformed_report_exits_one_naming_the_file(tmp_path, capsys, command, text, message):
    bad = tmp_path / "x.json"
    bad.write_text(text)
    out = tmp_path / "out"
    out.mkdir()
    flag = ["--out-prefix", str(out / "o")] if command == "analyze" else ["--out", str(out / "o.md")]
    assert main([command, str(bad), *flag]) == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: " in err and message in err
    assert list(out.iterdir()) == []


# --------------------------------------------------------------------------
# failure boundaries


def test_unexpected_failure_exits_two(dataset, capsys):
    broken = dataset["tmp"] / "broken"
    shutil.copytree(dataset["archive"], broken)
    (broken / "steps.csv").unlink()
    (broken / "steps.csv").mkdir()  # an I/O failure, not a format defect
    rc = main(["select", str(broken), "--selector", "hand-picked"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("runtime error:")


def test_malformed_archive_exits_one_naming_the_line_or_key(dataset, capsys):
    def bad_row(arch):
        (arch / "steps.csv").write_text((arch / "steps.csv").read_text() + "1,3,2\n")

    def no_n(arch):
        manifest = json.loads((arch / "manifest.json").read_text())
        del manifest["n"]
        (arch / "manifest.json").write_text(json.dumps(manifest))

    out = dataset["tmp"] / "sel.json"
    for index, (defect, expected) in enumerate([
        (bad_row, "steps.csv line 30: edge (3, 2) not canonical"),
        (lambda arch: (arch / "steps.csv").unlink(), "is not an archive (missing steps.csv)"),
        (no_n, "manifest.json: 'n' must be an integer >= 1, not None"),
    ]):
        broken = dataset["tmp"] / f"broken{index}"
        shutil.copytree(dataset["archive"], broken)
        defect(broken)
        rc = main(["select", str(broken), "--selector", "hand-picked", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: ") and expected in err, err
        assert not out.exists()


def test_argparse_exit_codes(capsys):
    assert main(["--help"]) == 0  # argparse's SystemExit is absorbed
    assert "usage" in capsys.readouterr().out
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    capsys.readouterr()
