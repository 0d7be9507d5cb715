"""Tests for the ``python -m repro`` scenario-survey entry point."""

from __future__ import annotations

import pytest

from repro.__main__ import build_parser, main
from repro.scenarios import scenario_names


def test_list_scenarios_prints_catalogue(capsys):
    assert main(["run", "--list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out


def test_unknown_scenario_is_a_usage_error(capsys):
    assert main(["run", "--scenario", "definitely-not-registered"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_survey_run_prints_summary_tables(capsys):
    code = main(
        [
            "run",
            "--scenario", "bursty-loss",
            "--hosts", "4",
            "--shards", "2",
            "--seed", "3",
            "--rounds", "1",
            "--samples", "4",
            "--executor", "serial",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Host eligibility by technique" in out
    assert "Scenario comparison" in out
    assert "scenario=bursty-loss hosts=4" in out


def test_survey_output_is_deterministic(capsys):
    argv = [
        "run",
        "--scenario", "route-flap",
        "--hosts", "4",
        "--seed", "9",
        "--rounds", "1",
        "--samples", "4",
        "--executor", "serial",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_parser_defaults_match_documented_surface():
    args = build_parser().parse_args([])
    assert args.scenario == "imc2002-survey"
    assert args.shards == 1
    assert args.seed == 7


def test_every_invocation_names_its_subcommand(capsys):
    assert main(["--scenario", "bursty-loss", "--executor", "serial"]) == 2
    err = capsys.readouterr().err
    assert "unknown command '--scenario'" in err
    assert "{run,resume,report,workers,lint}" in err
    assert main([]) == 2
    assert "a command is required" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert "usage: python -m repro" in capsys.readouterr().out


def test_run_with_store_then_report_and_resume(tmp_path, capsys):
    store = str(tmp_path / "campaign")
    argv = [
        "run",
        "--scenario", "imc2002-survey",
        "--hosts", "4",
        "--seed", "11",
        "--rounds", "1",
        "--samples", "4",
        "--shards", "2",
        "--executor", "serial",
        "--store", store,
    ]
    assert main(argv) == 0
    run_out = capsys.readouterr().out
    digest = [l for l in run_out.splitlines() if l.startswith("result-digest=")][0]

    assert main(["report", "--store", store]) == 0
    report_out = capsys.readouterr().out
    assert "shards=2/2 (complete)" in report_out
    assert digest in report_out
    assert "Host eligibility by technique" in report_out

    # Resuming a complete store re-executes nothing and reprints the digest.
    assert main(["resume", "--store", store, "--executor", "serial"]) == 0
    resume_out = capsys.readouterr().out
    assert "2/2 shard(s) already durable" in resume_out
    assert digest in resume_out


def test_resume_without_store_is_an_error(tmp_path, capsys):
    assert main(["resume", "--store", str(tmp_path / "missing")]) == 1
    assert "store error" in capsys.readouterr().err


def test_crash_flag_requires_store(capsys):
    assert main(["run", "--crash-after-shards", "1"]) == 2
    assert "--crash-after-shards requires --store" in capsys.readouterr().err
