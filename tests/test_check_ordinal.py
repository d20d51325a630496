"""The ordinal gate's summary line and exit code (`scripts/check_ordinal.py`,
loaded by path)."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_ordinal.py"


def load_script():
    spec = importlib.util.spec_from_file_location("check_ordinal", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_report(path: Path, aggregates: dict) -> str:
    path.write_text(json.dumps({"aggregates": aggregates}), encoding="utf-8")
    return str(path)


def test_summary_counts_each_comparison_once(tmp_path, capsys):
    report = write_report(
        tmp_path / "report.json",
        {
            "random": {"linkpred": {"score": 0.5}},
            "online": {"linkpred": {"score": 0.4}},
            "training-only": {"linkpred": {"score": 0.6}},
        },
    )
    assert load_script().main([report]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:2]] == ["FAIL", "PASS"]
    assert lines[-1] == "1 failing comparison(s) out of 2 checked"


def test_summary_counts_unusable_reports_apart(tmp_path, capsys):
    check = load_script()
    missing = str(tmp_path / "missing.json")
    assert check.main([missing]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(f"FAIL {missing}: unreadable report")
    assert out[-1] == "0 failing comparison(s) out of 0 checked; 1 report(s) unreadable or without a comparison"
    passing = write_report(
        tmp_path / "pass.json",
        {"random": {"attribute": {"score": 0.5}}, "supervised": {"attribute": {"score": 0.7}}},
    )
    empty = write_report(tmp_path / "empty.json", {"random": {"attribute": {"score": 0.5}}})
    assert check.main([passing, missing, empty]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "0 failing comparison(s) out of 1 checked; 2 report(s) unreadable or without a comparison"
    )
    assert check.main([passing]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all 1 comparison(s) hold: supervised >= random"
