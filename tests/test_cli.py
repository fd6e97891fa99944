import json

import jsonschema
import numpy as np
import pytest

from ssbroyden import SolverConfig, make_quadratic, solve
from ssbroyden.cli import (
    SOLVER_NAMES,
    SUMMARY_COLUMNS,
    TRACE_COLUMNS,
    TRACE_SCHEMA,
    build_parser,
    emit_trace,
    main,
)

CSV_HEADER = "iter,f,gnorm_inf,gnorm_2,alpha,theta,tau,ls_evals,skipped,tau_fallback"


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
    assert row[8] in ("0", "1") and row[9] in ("0", "1")


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


def test_emit_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        emit_trace(one_iteration_trace(), "xml", tmp_path / "t.xml")


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
    assert args.m == 8
    assert args.npoints == 32
    assert args.tol == 1e-8
    assert args.max_iters == 1000
    assert (args.c1, args.c2) == (1e-4, 0.9)
    assert args.format == "csv"
