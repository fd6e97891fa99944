import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest

import ssbroyden
from ssbroyden import (EvaluationError, SolverConfig, UpdateVariant, make_pinn1d,
                       make_quadratic, make_rosenbrock, solve)
from ssbroyden import cli
from ssbroyden.cli import (
    SOLVER_NAMES,
    SUMMARY_COLUMNS,
    TRACE_COLUMNS,
    TRACE_SCHEMA,
    build_parser,
    build_problem,
    emit_trace,
    main,
)
from ssbroyden.solver import ConvergenceTrace, Counters, IterationRecord

CSV_HEADER = "iter,f,gnorm_inf,gnorm_2,alpha,theta,tau,ls_evals,skipped,tau_fallback,reset"

# The JSON trace format, written out: cli.TRACE_SCHEMA is built from the
# record and counter fields and must stay equal to it.
REFERENCE_SCHEMA = {
    "type": "object",
    "required": ["records", "summary"],
    "properties": {
        "records": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["iter", "f", "gnorm_inf", "gnorm_2", "alpha", "theta",
                             "tau", "ls_evals", "skipped", "tau_fallback", "reset"],
                "properties": {
                    "iter": {"type": "integer"},
                    "f": {"type": "number"},
                    "gnorm_inf": {"type": "number"},
                    "gnorm_2": {"type": "number"},
                    "alpha": {"type": "number"},
                    "theta": {"type": "number"},
                    "tau": {"type": "number"},
                    "ls_evals": {"type": "integer"},
                    "skipped": {"type": "boolean"},
                    "tau_fallback": {"type": "boolean"},
                    "reset": {"type": "boolean"},
                },
            },
        },
        "summary": {
            "type": "object",
            "required": ["solver", "problem", "status", "qn_iters", "f_evals",
                         "g_evals", "ls_steps", "update_skips", "tau_fallbacks",
                         "final_f", "final_gnorm_inf"],
            "properties": {
                "solver": {"type": "string"},
                "problem": {"type": "string"},
                "status": {"type": "string"},
                "qn_iters": {"type": "integer"},
                "f_evals": {"type": "integer"},
                "g_evals": {"type": "integer"},
                "ls_steps": {"type": "integer"},
                "update_skips": {"type": "integer"},
                "tau_fallbacks": {"type": "integer"},
                "final_f": {"type": "number"},
                "final_gnorm_inf": {"type": "number"},
            },
        },
    },
}


def one_iteration_trace():
    quad = make_quadratic(2)
    trace, state, counters = solve(quad, np.array([1.0, 1.0]),
                                   SolverConfig(variant="bfgs", max_iters=1))
    return trace


# ------------------------------------------------------------ emit_trace

def test_emit_csv_header_and_shape(tmp_path):
    trace = one_iteration_trace()
    out = tmp_path / "t.csv"
    emit_trace(trace, "csv", out)
    lines = out.read_text().split("\n")
    assert lines[0] == CSV_HEADER
    assert CSV_HEADER == ",".join(TRACE_COLUMNS)
    assert len(lines) == 3  # header, one record, trailing newline
    assert lines[-1] == ""
    row = lines[1].split(",")
    assert len(row) == len(TRACE_COLUMNS)
    assert row[0] == "1"
    assert all(cell in ("0", "1") for cell in row[8:])


def test_emit_csv_floats_round_trip_bitwise(tmp_path):
    trace = one_iteration_trace()
    out = tmp_path / "t.csv"
    emit_trace(trace, "csv", out)
    row = out.read_text().split("\n")[1].split(",")
    rec = trace.records[0]
    assert float(row[1]) == rec.f
    assert float(row[2]) == rec.gnorm_inf
    assert float(row[3]) == rec.gnorm_2
    assert float(row[4]) == rec.alpha


def test_emit_json_validates_schema(tmp_path):
    trace = one_iteration_trace()
    out = tmp_path / "t.json"
    summary = {"solver": "bfgs", "problem": "quadratic", "status": trace.status,
               "qn_iters": 1, "f_evals": 2, "g_evals": 2, "ls_steps": 1,
               "update_skips": 0, "tau_fallbacks": 0,
               "final_f": trace.records[-1].f,
               "final_gnorm_inf": trace.records[-1].gnorm_inf}
    emit_trace(trace, "json", out, summary=summary)
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, TRACE_SCHEMA)
    assert payload["records"][0]["iter"] == 1
    assert payload["records"][0]["f"] == trace.records[0].f


def test_trace_schema_matches_reference():
    assert TRACE_SCHEMA == REFERENCE_SCHEMA
    assert json.dumps(TRACE_SCHEMA) == json.dumps(REFERENCE_SCHEMA)


def test_record_fields_are_the_iteration_record():
    # one column per record field, in field order, k written as iter,
    # each JSON type the one its annotation maps to
    kinds = {bool: "boolean", int: "integer", float: "number"}
    assert cli.RECORD_FIELDS == tuple(
        ("iter" if f.name == "k" else f.name, f.name, kinds[f.type])
        for f in dataclasses.fields(IterationRecord))
    assert TRACE_COLUMNS[0] == "iter" and TRACE_COLUMNS[-1] == "reset"


def test_reset_is_written_as_one_and_true(tmp_path):
    record = dataclasses.replace(one_iteration_trace().records[0], reset=True)
    trace = ConvergenceTrace(records=[record], status="max_iters")
    emit_trace(trace, "csv", tmp_path / "t.csv")
    header, row = tmp_path.joinpath("t.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["reset"] == "1"
    summary = cli.run_summary("bfgs", "quadratic", trace.status)
    emit_trace(trace, "json", tmp_path / "t.json", summary=summary)
    payload = json.loads(tmp_path.joinpath("t.json").read_text())
    assert payload["records"][0]["reset"] is True
    jsonschema.validate(payload, TRACE_SCHEMA)


def test_run_summary_of_a_failed_solve():
    # no state: zero counters and NaN final values, under the schema's keys
    summary = cli.run_summary("dfp", "quadratic", "error(EvaluationError)")
    assert list(summary) == TRACE_SCHEMA["properties"]["summary"]["required"]
    jsonschema.validate(summary, TRACE_SCHEMA["properties"]["summary"])
    assert [summary[f.name] for f in dataclasses.fields(Counters)] == [0] * 6
    assert math.isnan(summary["final_f"]) and math.isnan(summary["final_gnorm_inf"])


def test_emit_json_requires_summary(tmp_path):
    # a summary-less JSON trace would fail TRACE_SCHEMA
    out = tmp_path / "t.json"
    with pytest.raises(ValueError):
        emit_trace(one_iteration_trace(), "json", out)
    assert not out.exists()


def test_emit_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        emit_trace(one_iteration_trace(), "xml", tmp_path / "t.xml")


def run_summary(trace, final_f, final_gnorm_inf):
    # a stand-in for the solver state: run_summary reads only f and g
    state = SimpleNamespace(f=final_f, g=np.array([final_gnorm_inf]))
    return cli.run_summary("ssbroyden", "pinn1d", trace.status,
                           Counters.of(trace.records, 0), state)


def dumps_oracle(trace, summary):
    """The JSON trace as one ``json.dumps`` call writes it."""
    records = [{column: getattr(r, attr) for column, attr, _ in cli.RECORD_FIELDS}
               for r in trace.records]
    return json.dumps({"records": records, "summary": summary},
                      indent=2, sort_keys=True) + "\n"


_CSV_ORACLE_CELL = {"integer": str, "number": lambda v: f"{v:.17g}",
                    "boolean": lambda v: str(int(v))}


def join_oracle(trace):
    """The CSV trace as its lines joined into one string."""
    lines = [",".join(TRACE_COLUMNS)]
    for r in trace.records:
        lines.append(",".join(_CSV_ORACLE_CELL[kind](getattr(r, attr))
                              for _, attr, kind in cli.RECORD_FIELDS))
    return "\n".join(lines) + "\n"


def pinn_trace():
    pinn = make_pinn1d(m=8, n_interior=32)
    trace, _, _ = solve(pinn, pinn.default_start(),
                        SolverConfig(variant="ssbroyden", max_iters=50))
    assert len(trace.records) == 50
    return trace


def non_finite_trace():
    base = IterationRecord(k=1, f=math.nan, gnorm_inf=math.inf, gnorm_2=-math.inf,
                           alpha=0.1, theta=-0.0, tau=5e-324, ls_evals=3,
                           skipped=True, tau_fallback=False, reset=False)
    return ConvergenceTrace(
        records=[base, dataclasses.replace(base, k=2, f=-math.inf, gnorm_inf=math.nan,
                                           gnorm_2=1e308, alpha=1.0, theta=1 / 3,
                                           skipped=False, tau_fallback=True)],
        status="line_search_failure")


@pytest.mark.parametrize("make_trace", [pinn_trace, non_finite_trace,
                                        lambda: ConvergenceTrace(status="max_iters")],
                         ids=["pinn1d", "non_finite", "no_records"])
def test_emit_json_matches_dumps(make_trace, tmp_path):
    # the streamed trace is byte for byte the one-call json.dumps form,
    # NaN and infinities written as json writes them
    trace = make_trace()
    summary = run_summary(trace, math.nan, 2.5e-9)
    out = tmp_path / "t.json"
    emit_trace(trace, "json", out, summary=summary)
    assert out.read_text() == dumps_oracle(trace, summary)


def test_emit_json_streams_records(tmp_path):
    # a 1000-record trace (240 KB of JSON, 42 KB of CSV) is written
    # without building the whole trace as one string, which costs
    # json.dumps about 2 MiB and a join of the CSV lines about 180 KiB
    base = one_iteration_trace().records[0]
    trace = ConvergenceTrace(records=[dataclasses.replace(base, k=k, f=base.f / k)
                                      for k in range(1, 1001)], status="max_iters")
    summary = run_summary(trace, base.f, base.gnorm_inf)
    for fmt, expected in (("json", dumps_oracle(trace, summary)),
                          ("csv", join_oracle(trace))):
        out = tmp_path / f"t.{fmt}"
        tracemalloc.start()
        try:
            emit_trace(trace, fmt, out, summary=summary)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 128 * 1024, fmt
        assert out.read_text() == expected, fmt
    assert (tmp_path / "t.json").stat().st_size > 128 * 1024


# ------------------------------------------------------------ exit codes

def test_main_all_solvers_quadratic_success(tmp_path):
    code = main(["--solver", "all", "--problem", "quadratic",
                 "--out", str(tmp_path)])
    assert code == 0
    for name in SOLVER_NAMES:
        assert (tmp_path / f"quadratic_{name}.csv").exists()
    assert (tmp_path / "summary.csv").exists()


def test_main_nonconverged_run_exits_one(tmp_path):
    code = main(["--solver", "bfgs", "--problem", "pinn1d",
                 "--max-iters", "3", "--out", str(tmp_path)])
    assert code == 1
    assert (tmp_path / "pinn1d_bfgs.csv").exists()


def test_main_bad_solver_choice_exits_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--solver", "nosuch", "--problem", "quadratic",
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    capsys.readouterr()


def test_main_bad_problem_shape_exits_two(tmp_path, capsys):
    code = main(["--solver", "bfgs", "--problem", "rosenbrock",
                 "--n", "3", "--out", str(tmp_path)])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--max-iters", "0"),
    ("--tol", "0"),
    ("--c1", "0.95"),
    ("--tol", "inf"),
    ("--tol", "nan"),
])
def test_main_invalid_numeric_flag_exits_two(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    code = main(["--solver", "all", "--problem", "quadratic",
                 flag, value, "--out", str(out)])
    assert code == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("problem, flag, value", [
    ("pinn1d", "--n", "50"),
    ("quadratic", "--m", "3"),
    ("rosenbrock", "--npoints", "7"),
])
def test_main_size_flag_the_problem_does_not_take_exits_two(tmp_path, capsys,
                                                            problem, flag, value):
    out = tmp_path / "out"
    code = main(["--solver", "bfgs", "--problem", problem, flag, value,
                 "--max-iters", "1", "--out", str(out)])
    assert code == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_main_solver_error_keeps_message(tmp_path, capsys, monkeypatch):
    real_solve = cli.solve

    def failing_dfp(problem, x0, config):
        if config.variant is UpdateVariant.DFP:
            raise EvaluationError("objective exploded at x[3]")
        return real_solve(problem, x0, config)

    monkeypatch.setattr(cli, "solve", failing_dfp)
    code = main(["--solver", "all", "--problem", "quadratic", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: dfp: EvaluationError: objective exploded at x[3]"]
    lines = (tmp_path / "summary.csv").read_text().strip().split("\n")
    status = {row.split(",")[0]: row.split(",")[1] for row in lines[1:]}
    assert status.pop("dfp") == "error(EvaluationError)"
    assert set(status.values()) == {"converged"}
    assert len(status) == len(SOLVER_NAMES) - 1


def test_main_out_naming_a_file_exits_one(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    code = main(["--solver", "bfgs", "--problem", "quadratic", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"error: cannot write {out / 'summary.csv'}: ")
    assert out.read_text() == ""


def test_main_unwritable_trace_exits_one_and_runs_the_rest(tmp_path, capsys):
    # a directory where the first solver's trace goes: that trace is
    # reported, the other solvers still run and every row is written
    blocked = tmp_path / "quadratic_bfgs.csv"
    blocked.mkdir()
    code = main(["--solver", "all", "--problem", "quadratic", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {blocked}: ")
    assert blocked.is_dir() and not any(blocked.iterdir())
    for name in SOLVER_NAMES[1:]:
        assert (tmp_path / f"quadratic_{name}.csv").is_file()
    lines = (tmp_path / "summary.csv").read_text().strip().split("\n")
    status = {row.split(",")[0]: row.split(",")[1] for row in lines[1:]}
    assert status == {name: "converged" for name in SOLVER_NAMES}


def test_main_unwritable_summary_exits_one_before_any_solve(tmp_path, capsys,
                                                            monkeypatch):
    blocked = tmp_path / "summary.csv"
    blocked.mkdir()

    def no_solve(problem, x0, config):
        raise AssertionError("solved before summary.csv was opened")

    monkeypatch.setattr(cli, "solve", no_solve)
    code = main(["--solver", "all", "--problem", "quadratic", "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {blocked}: ")
    assert captured.out == ""
    assert [path.name for path in tmp_path.iterdir()] == ["summary.csv"]
    assert blocked.is_dir() and not any(blocked.iterdir())


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_main_summary_write_failing_after_open_exits_one(tmp_path, capsys):
    # summary.csv opens, but its rows cannot be written out: the run
    # prints the table, then the one write-failure message, not a traceback
    blocked = tmp_path / "summary.csv"
    blocked.symlink_to("/dev/full")
    code = main(["--solver", "bfgs", "--problem", "quadratic", "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[2].split()[:2] == ["bfgs", "converged"]
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {blocked}: ")


def _module_env():
    """The environment a ``python -m ssbroyden.cli`` child imports this
    package under."""
    src = str(Path(ssbroyden.__file__).resolve().parent.parent)
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def test_cli_module_prints_the_summary_rows(tmp_path):
    # the module entry point, end to end: the table printed to stdout
    # carries each solver's summary.csv row
    proc = subprocess.run([sys.executable, "-m", "ssbroyden.cli", "--solver", "all",
                           "--problem", "quadratic", "--out", str(tmp_path)],
                          env=_module_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    printed = [line.split() for line in proc.stdout.splitlines()[2:]]
    lines = (tmp_path / "summary.csv").read_text().strip().split("\n")
    rows = [dict(zip(SUMMARY_COLUMNS, line.split(","))) for line in lines[1:]]
    assert [cells[0] for cells in printed] == list(SOLVER_NAMES)
    for cells, row in zip(printed, rows, strict=True):
        assert cells[:7] == [row[column] for column in (
            "solver", "status", "qn_iters", "ls_steps", "f_evals",
            "update_skips", "tau_fallbacks")]


def test_cli_module_closed_stdout_exits_one_and_writes_every_file(tmp_path):
    # `bench ... | head -1`: the reader goes after the first line; every
    # trace and summary.csv row is still written, and stdout is blamed.
    # At n = 200 the six solves take ~0.2 s, so rows follow the close.
    proc = subprocess.Popen([sys.executable, "-u", "-m", "ssbroyden.cli",
                             "--solver", "all", "--problem", "quadratic", "--n", "200",
                             "--out", str(tmp_path)],
                            env=_module_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline().startswith("problem: quadratic")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1, err
    assert "summary.csv" not in err
    assert err.startswith("error: cannot write stdout: ")
    for name in SOLVER_NAMES:
        assert (tmp_path / f"quadratic_{name}.csv").is_file()
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert len(lines) == 1 + len(SOLVER_NAMES)


# --------------------------------------------------------- determinism

def test_trace_files_byte_deterministic(tmp_path):
    args = ["--solver", "all", "--problem", "rosenbrock", "--n", "2"]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(dir_a)]) == 0
    assert main(args + ["--out", str(dir_b)]) == 0
    for name in SOLVER_NAMES:
        fa = (dir_a / f"rosenbrock_{name}.csv").read_bytes()
        fb = (dir_b / f"rosenbrock_{name}.csv").read_bytes()
        assert fa == fb


def test_json_traces_byte_deterministic(tmp_path):
    args = ["--solver", "ssbfgs", "--problem", "quadratic",
            "--format", "json"]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(dir_a)]) == 0
    assert main(args + ["--out", str(dir_b)]) == 0
    fa = (dir_a / "quadratic_ssbfgs.json").read_bytes()
    fb = (dir_b / "quadratic_ssbfgs.json").read_bytes()
    assert fa == fb
    jsonschema.validate(json.loads(fa), TRACE_SCHEMA)


# -------------------------------------------------------------- summary

def test_summary_layout_and_counters(tmp_path):
    assert main(["--solver", "dfp", "--problem", "quadratic",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "summary.csv").read_text().strip().split("\n")
    assert lines[0] == ",".join(SUMMARY_COLUMNS)
    row = lines[1].split(",")
    assert row[0] == "dfp"
    assert row[1] == "converged"

    # rerun the identical configuration through the library directly
    quad = make_quadratic(10)
    trace, state, counters = solve(quad, quad.default_start(),
                                   SolverConfig(variant="dfp"))
    assert int(row[2]) == counters.qn_iters
    assert int(row[3]) == counters.ls_steps
    assert int(row[4]) == counters.f_evals
    assert float(row[5]) == state.f
    assert re.fullmatch(r"\d+\.\d{6}", row[7])  # the wall time, to the microsecond
    assert row[8] == ""  # l2 error only applies to the pinn problem


def test_summary_includes_l2_error_for_pinn(tmp_path):
    main(["--solver", "ssbfgs", "--problem", "pinn1d", "--max-iters", "300",
          "--out", str(tmp_path)])
    lines = (tmp_path / "summary.csv").read_text().strip().split("\n")
    row = lines[1].split(",")
    assert row[8] != ""
    assert float(row[8]) >= 0.0


def test_summary_csv_skip_counts_match_json_summary(tmp_path):
    # this small collocation run skips updates once its gradient stalls
    main(["--solver", "ssdfp", "--problem", "pinn1d", "--m", "4",
          "--npoints", "16", "--max-iters", "200", "--format", "json",
          "--out", str(tmp_path)])
    lines = (tmp_path / "summary.csv").read_text().strip().split("\n")
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    summary = json.loads((tmp_path / "pinn1d_ssdfp.json").read_text())["summary"]
    assert int(row["update_skips"]) == summary["update_skips"] > 0
    assert int(row["tau_fallbacks"]) == summary["tau_fallbacks"]


# --------------------------------------------------------------- parser

def test_parser_defaults():
    args = build_parser().parse_args(
        ["--solver", "bfgs", "--problem", "quadratic", "--out", "x"])
    assert args.n is None
    assert args.m is None
    assert args.npoints is None
    assert args.tol == 1e-8
    assert args.max_iters == 1000
    assert (args.c1, args.c2) == (1e-4, 0.9)
    # one source: the CLI takes the library's defaults
    lib = SolverConfig(variant="bfgs")
    assert (args.tol, args.max_iters, args.c1, args.c2) == (
        lib.grad_tol, lib.max_iters, lib.c1, lib.c2)
    assert args.format == "csv"


def test_parsed_defaults_build_the_problems_defaults():
    # bench restates no size: each problem takes its constructor's defaults
    for name, make, dimension in (("quadratic", make_quadratic, 10),
                                  ("rosenbrock", make_rosenbrock, 2),
                                  ("pinn1d", make_pinn1d, 25)):
        args = build_parser().parse_args(
            ["--solver", "bfgs", "--problem", name, "--out", "x"])
        assert build_problem(args).dimension == make().dimension == dimension
