"""Command-line surface: subcommands, flags, exit codes, and outputs."""

import json

import pytest

from sesopf.casemodel import builtin_case, save_case
from sesopf.cli import cli_main


def test_solve_builtin_writes_json(tmp_path, capsys):
    out = tmp_path / "solve.json"
    code = cli_main(["solve", "builtin:five_bus", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["case"] == "five_bus"
    assert doc["status"] == "converged"
    assert len(doc["aggregators"]) == 7


def test_solve_prints_json_by_default(capsys):
    code = cli_main(["solve", "builtin:five_bus"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "converged"


def test_solve_case_file(tmp_path):
    path = tmp_path / "case.json"
    save_case(builtin_case("five_bus"), path)
    out = tmp_path / "out.json"
    assert cli_main(["solve", str(path), "--output", str(out)]) == 0


def test_solve_missing_file_exits_2(capsys):
    assert cli_main(["solve", "no-such-file.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_builtin_exits_2(capsys):
    assert cli_main(["solve", "builtin:nine_bus"]) == 2


def test_bad_flag_exits_2(capsys):
    assert cli_main(["solve", "builtin:five_bus", "--frobnicate"]) == 2


def test_sweep_range_flags(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli_main(["sweep", "builtin:five_bus", "--from", "100",
                     "--to", "104", "--step", "2", "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4  # header + 3 scale points
    assert lines[0].startswith("scale_pct,status,iterations")


def test_sweep_prints_the_rows_it_writes(tmp_path, capsys):
    args = ["sweep", "builtin:five_bus", "--from", "100", "--to", "102"]
    out = tmp_path / "sweep.csv"
    assert cli_main(args + ["--output", str(out)]) == 0
    capsys.readouterr()
    assert cli_main(args) == 0
    printed = capsys.readouterr().out
    written = out.read_bytes().decode()
    assert "\r" not in printed
    assert written.count("\r\n") == 3  # header + 2 scale points, csv line ends
    assert printed == written.replace("\r\n", "\n")


def test_sweep_invalid_range_exits_2(capsys):
    assert cli_main(["sweep", "builtin:five_bus", "--from", "100",
                     "--to", "50"]) == 2


def test_sweep_nonconverged_exits_1(capsys):
    code = cli_main(["sweep", "builtin:five_bus", "--from", "100",
                     "--to", "100", "--max-iter", "2"])
    assert code == 1


def test_check_subcommand(capsys):
    assert cli_main(["check", "builtin:five_bus"]) == 0
    out = capsys.readouterr().out
    assert "validation: ok" in out
    assert "pass" in out


def test_oracle_subcommand(tmp_path):
    out = tmp_path / "oracle.json"
    assert cli_main(["oracle", "builtin:five_bus", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "oracle_objective" in doc and "relative_gap" in doc
    assert doc["solver_status"] == "converged"
