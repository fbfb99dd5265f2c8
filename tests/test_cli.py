"""Command-line surface: subcommands, flags, exit codes, and outputs."""

import csv
import errno
import inspect
import io
import json
import math
import os
import pathlib
import re
import sys

import numpy as np
import pytest

from sesopf import cli, formulation, harness
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


def _string_slack_flag(doc):
    """A truthy string on bus 3, false on every other bus."""
    for bus in doc["buses"]:
        bus["is_slack"] = False
    doc["buses"][2]["is_slack"] = "false"
    return doc


def _nan_line_limit(doc):
    doc["lines"][0]["s_max"] = math.nan
    return doc


def _nan_cost_coefficient(doc):
    doc["generators"][2]["a"] = math.nan
    return doc


def _nan_s_base(doc):
    doc["s_base"] = math.nan
    return doc


def _infinite_sigma(doc):
    doc["aggregators"][4]["sigma"] = math.inf
    return doc


_NON_FINITE = {_nan_line_limit: "line 1-2: s_max", _nan_cost_coefficient: "generator 2 at bus 3: a",
               _nan_s_base: "s_base", _infinite_sigma: "aggregator 4 at bus 4: sigma"}


@pytest.mark.parametrize("corrupt", [
    _line_without_r, _bus_with_unknown_key, _string_voltage_limit, _top_level_list,
    _string_slack_flag, *_NON_FINITE])
def test_malformed_case_file_exits_2(tmp_path, capsys, corrupt):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(corrupt(case_to_dict(builtin_case("five_bus")))))
    assert cli_main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("corrupt", list(_NON_FINITE))
def test_non_finite_case_field_is_named(tmp_path, capsys, corrupt):
    """JSON's NaN and Infinity pass the type checks of case_from_dict;
    validation names the field, and check and solve both exit 2."""
    path = tmp_path / "case.json"
    path.write_text(json.dumps(corrupt(case_to_dict(builtin_case("five_bus")))))
    message = f"{_NON_FINITE[corrupt]} must be finite"
    assert cli_main(["check", str(path)]) == 2
    assert f"violation: {message}" in capsys.readouterr().err
    assert cli_main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid case: ") and message in err


def _zero_mu(doc):
    doc["aggregators"][0]["mu"] = 0
    return doc


def _zero_normal_demand(doc):
    doc["aggregators"][0]["p_c"] = doc["aggregators"][0]["p_n"] = 0
    return doc


def _self_loop(doc):
    doc["lines"][0]["to_bus"] = 1
    return doc


@pytest.mark.parametrize("corrupt, message", [
    (_zero_mu, "aggregator 0 at bus 2: gamma and mu must be positive"),
    (_zero_normal_demand, "aggregator 0 at bus 2: normal demand must be positive"),
    (_self_loop, "line 1-1: self loop")])
@pytest.mark.parametrize("command", ["check", "solve", "sweep", "oracle"])
def test_invalid_case_exits_2_before_any_solve(tmp_path, capsys, corrupt, message, command):
    """Every subcommand validates the case before it solves or runs the
    oracle, and exits 2 naming the violation, without writing output;
    check prints one violation line per message."""
    path = tmp_path / "case.json"
    path.write_text(json.dumps(corrupt(case_to_dict(builtin_case("five_bus")))))
    output = [] if command == "check" else ["--output", str(tmp_path / "out")]
    assert cli_main([command, str(path), *output]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    if command == "check":
        assert err == f"violation: {message}\n"
    assert not (tmp_path / "out").exists()


# the options each subcommand reads, besides --help
OPTIONS = {"solve": {"--tol", "--max-iter", "--output", "--format", "--trace"},
           "sweep": {"--tol", "--max-iter", "--output", "--format", "--from", "--to",
                     "--step", "--trace"},
           "check": {"--seed"},
           "oracle": {"--tol", "--max-iter", "--output", "--format"}}


@pytest.mark.parametrize("command", OPTIONS)
def test_help_lists_only_the_options_read(command, capsys):
    assert cli_main([command, "--help"]) == 0
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == OPTIONS[command] | {"--help"}


@pytest.mark.parametrize("command", OPTIONS)
def test_an_option_not_read_exits_2(command, tmp_path, capsys):
    """Every option of another subcommand is an input error, not ignored;
    nothing is written."""
    out = tmp_path / "out"
    values = {"--output": str(out), "--format": "json", "--trace": str(out), "--seed": "99"}
    for option in set().union(*OPTIONS.values()) - OPTIONS[command]:
        assert cli_main([command, "builtin:five_bus", option, values.get(option, "1")]) == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err
        assert not out.exists()


# every subcommand, bare and with each of its options
_ARGVS = (
    ["solve", "builtin:five_bus"],
    ["solve", "case.json", "--tol", "1e-7", "--max-iter", "50", "--output", "out.json",
     "--format", "csv", "--trace", "trace.jsonl"],
    ["sweep", "builtin:five_bus"],
    ["sweep", "case.json", "--from", "20", "--to", "40", "--step", "5", "--tol", "1e-5",
     "--max-iter", "9", "--output", "sweep.csv", "--format", "json", "--trace", "t.jsonl"],
    ["check", "builtin:rts24"],
    ["check", "builtin:rts24", "--seed", "7"],
    ["oracle", "builtin:five_bus"],
    ["oracle", "case.json", "--tol", "1e-8", "--max-iter", "30", "--output", "o.csv",
     "--format", "csv"],
)


def test_one_parser_parses_like_fresh_ones_in_any_order(capsys):
    """The parser is built once per process. Parsing leaves no state in it:
    in any order, and after a rejected command line, each command line
    parses to the namespace a parser built for it alone gives."""
    parser = cli._parser()
    assert cli._parser() is parser
    expected = [vars(cli._parser.__wrapped__().parse_args(argv)) for argv in _ARGVS]
    rng = np.random.default_rng(19)
    orders = [list(range(len(_ARGVS))), list(range(len(_ARGVS)))[::-1],
              *(rng.permutation(len(_ARGVS)).tolist() for _ in range(4))]
    for order in orders:
        for k in order:
            assert vars(parser.parse_args(_ARGVS[k])) == expected[k]
        with pytest.raises(SystemExit):
            parser.parse_args(["check", "builtin:rts24", "--tol", "1e-6"])
    capsys.readouterr()


@pytest.mark.parametrize("command", ["check", "sweep", "oracle"])
def test_missing_case_file_exits_2(command, capsys):
    """As test_solve_missing_file_exits_2, for the other subcommands."""
    assert cli_main([command, "no-such-file.json"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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


def test_sweep_range_defaults_are_the_library_ones(capsys):
    args = cli._parser().parse_args(["sweep", "builtin:five_bus"])
    defaults = inspect.signature(harness.ses_sweep).parameters
    for name in ("from_pct", "to_pct", "step_pct"):
        assert getattr(args, name) == defaults[name].default
    assert cli_main(["sweep", "builtin:five_bus"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 1 + 71
    assert (rows[1][0], rows[-1][0]) == ("10", "150")


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    Its descriptor is ``fd``."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def fileno(self):
        return self.fd


def test_closed_stdout_pipe_keeps_the_exit_code(tmp_path, capsys, monkeypatch):
    """A reader that closes the pipe early (``sesopf ... | head``) ends the
    output quietly: the command keeps its exit code and prints no error."""
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        assert cli_main(["solve", "builtin:five_bus", "--format", "csv"]) == 0
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""


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


def test_sweep_invalid_range_exits_2(tmp_path, capsys):
    """A range or solver option that cannot end or means nothing is an
    input error, reported before any point is solved or the trace file is
    created."""
    trace = tmp_path / "trace.jsonl"
    for extra in (["--to", "50"], ["--to", "inf"], ["--step", "nan"], ["--step", "1e-300"],
                  ["--max-iter", "-3"], ["--tol", "nan"]):
        assert cli_main(["sweep", "builtin:five_bus", "--from", "100", "--trace", str(trace),
                         *extra]) == 2
        assert "error:" in capsys.readouterr().err
        assert not trace.exists()


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


def test_check_validates_the_case_once(monkeypatch, capsys):
    """``check`` reports the validation itself and builds the problem
    without validating it a second time."""
    calls = []
    for module in (cli, formulation):
        original = module.validate_case
        monkeypatch.setattr(module, "validate_case",
                            lambda case, original=original: calls.append(case) or original(case))
    assert cli_main(["check", "builtin:five_bus", "--seed", "2"]) == 0
    assert len(calls) == 1


def test_check_negative_seed_is_an_input_error(capsys):
    assert cli_main(["check", "builtin:five_bus", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be a nonnegative integer, got -1\n"


CHECK_LINES = pathlib.Path(__file__).parent / "data" / "check_lines.txt"


@pytest.mark.parametrize("seed, worst", [
    (0, "1.639e-08 at gradient[24]"), (15, "2.059e-08 at eq_jacobian[41, 186]"),
    (28, "1.761e-08 at eq_jacobian[44, 186]"), (93, "1.678e-08 at eq_jacobian[41, 186]")])
def test_check_rts24_lines_are_pinned(seed, worst, capsys):
    """The audit's printed error and worst entry on rts24 for seeds whose
    worst entry is a gradient or an equality Jacobian entry, as written
    here and as data/check_lines.txt holds them. A change to any evaluator
    bit, to the audit's points or to its tie order moves these lines."""
    line = f"derivative audit: max relative error {worst} (pass)"
    assert f"rts24 {seed} {line}" in CHECK_LINES.read_text().splitlines()
    assert cli_main(["check", "builtin:rts24", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == f"validation: ok\n{line}\n"


def test_check_lines_are_pinned(capsys):
    """The audit line that ``sesopf check builtin:<case> --seed <s>`` prints
    for seeds 0-99 on five_bus and rts24, one ``<case> <seed> <line>`` per
    line of data/check_lines.txt. A change to any evaluator bit, to the
    audit's points, to its differencing or to its tie order moves these
    lines."""
    pinned = CHECK_LINES.read_text()
    printed = []
    for case, seed, _ in (line.split(" ", 2) for line in pinned.splitlines()):
        assert cli_main(["check", f"builtin:{case}", "--seed", seed]) == 0
        head, line = capsys.readouterr().out.splitlines()
        assert head == "validation: ok"
        printed.append(f"{case} {seed} {line}")
    assert len(printed) == 200
    assert printed == pinned.splitlines()


def test_oracle_subcommand(tmp_path):
    out = tmp_path / "oracle.json"
    assert cli_main(["oracle", "builtin:five_bus", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "oracle_objective" in doc and "relative_gap" in doc
    assert doc["solver_status"] == "converged"
