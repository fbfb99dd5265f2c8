"""Command-line surface: subcommands, flags, exit codes, and outputs."""

import csv
import io
import json
import re

import pytest

from sesopf.casemodel import builtin_case, case_to_dict, save_case
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


def _line_without_r(doc):
    del doc["lines"][0]["r"]
    return doc


def _bus_with_unknown_key(doc):
    doc["buses"][1]["colour"] = "red"
    return doc


def _string_voltage_limit(doc):
    doc["buses"][0]["v_min"] = "0.9"
    return doc


def _top_level_list(doc):
    return [doc]


@pytest.mark.parametrize("corrupt", [
    _line_without_r, _bus_with_unknown_key, _string_voltage_limit, _top_level_list])
def test_malformed_case_file_exits_2(tmp_path, capsys, corrupt):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(corrupt(case_to_dict(builtin_case("five_bus")))))
    assert cli_main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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


def test_format_applies_on_stdout(tmp_path, capsys):
    """--format picks what is printed as well as what is written."""
    solve = ["solve", "builtin:five_bus", "--format", "csv"]
    sweep = ["sweep", "builtin:five_bus", "--from", "100", "--to", "102", "--format", "json"]
    for args, parse in ((solve, lambda text: list(csv.reader(io.StringIO(text)))),
                        (sweep, json.loads)):
        out = tmp_path / "out"
        assert cli_main(args + ["--output", str(out)]) == 0
        capsys.readouterr()
        assert cli_main(args) == 0
        printed = capsys.readouterr().out
        assert parse(printed) == parse(out.read_bytes().decode())
        assert "\r" not in printed


def test_solve_trace_has_one_row_per_iteration(tmp_path, capsys):
    out, trace = tmp_path / "solve.json", tmp_path / "solve.jsonl"
    assert cli_main(["solve", "builtin:five_bus", "--output", str(out),
                     "--trace", str(trace)]) == 0
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    iterations = json.loads(out.read_text())["iterations"]
    assert [row["iter"] for row in rows] == list(range(1, iterations + 1))
    assert {"mu", "inf_pr", "inf_du", "alpha_p", "alpha_d", "delta_w", "backtracks",
            "fallback"} <= set(rows[0])


def test_sweep_trace_is_reproducible_and_leaves_outputs_alone(tmp_path, capsys):
    args = ["sweep", "builtin:five_bus", "--from", "100", "--to", "104"]
    assert cli_main(args) == 0
    plain = capsys.readouterr().out
    outputs = []
    for k in range(2):
        out, trace = tmp_path / f"sweep{k}.csv", tmp_path / f"sweep{k}.jsonl"
        assert cli_main(args + ["--trace", str(trace)]) == 0
        assert capsys.readouterr().out == plain
        assert cli_main(args + ["--output", str(out), "--trace", str(trace)]) == 0
        outputs.append((out.read_bytes(), trace.read_bytes()))
    assert outputs[0] == outputs[1]
    csv_bytes, trace_bytes = outputs[0]
    assert csv_bytes.decode().replace("\r\n", "\n") == plain
    records = list(csv.DictReader(io.StringIO(plain)))
    rows = [json.loads(line) for line in trace_bytes.decode().splitlines()]
    assert len(rows) == sum(int(r["iterations"]) for r in records)
    assert sorted({row["scale_pct"] for row in rows}) == [100.0, 102.0, 104.0]
    for r in records:
        point = [row["iter"] for row in rows if row["scale_pct"] == float(r["scale_pct"])]
        assert point == list(range(1, int(r["iterations"]) + 1))


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_unwritable_trace_exits_2(tmp_path, capsys, command):
    args = [command, "builtin:five_bus", "--trace", str(tmp_path / "missing" / "t.jsonl")]
    if command == "sweep":
        args += ["--from", "100", "--to", "100"]
    assert cli_main(args) == 2
    assert "error" in capsys.readouterr().err


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
    audit = out.splitlines()[1]
    assert re.fullmatch(r"derivative audit: max relative error \d\.\d{3}e-\d\d at "
                        r"(gradient\[\d+\]|(eq|ineq)_jacobian\[\d+, \d+\]) \(pass\)",
                        audit), audit


def test_oracle_subcommand(tmp_path):
    out = tmp_path / "oracle.json"
    assert cli_main(["oracle", "builtin:five_bus", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "oracle_objective" in doc and "relative_gap" in doc
    assert doc["solver_status"] == "converged"
