"""Measurement, checking and reporting for ``run.py``; see its docstring.

Imported only after ``run.py`` has put the checkout's ``src`` first on
``sys.path``.
"""

import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import jsonschema  # noqa: F401  (the gate's; loaded before any memory reading)
import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
PROBE = Path(__file__).resolve().parent / "probe.py"
RUN = Path(__file__).resolve().parent / "run.py"
SPEC = ROOT / "BENCHMARK.json"

SETUP_PROBES = 9  # per run: one before warm-up, the rest between passes
PROBE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 170
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

COEFF_FUNCS = ("updates.curvature_guard", "updates.compute_base_coefficients",
               "updates.compute_theta", "updates.compute_tau")
APPLY_FUNCS = ("updates.apply_update", "updates.apply_bfgs_update",
               "updates.apply_dfp_update", "updates.apply_general_update",
               "updates.compute_phi")
NORM_FUNCS = ("core.norm_inf", "core.norm_2")
# Computed traffic, not measured: a matvec reads the n x n matrix once
# (2n^2 flops); the least a rank-two update can move is one read and one
# write of H, for a scale plus two rank-one terms (5n^2 flops).
MATVEC_BYTES_PER_N2 = 8
MATVEC_FLOPS_PER_N2 = 2
APPLY_BYTES_PER_N2 = 16
APPLY_FLOPS_PER_N2 = 5
COMPUTED = ("core.matvec_bytes", "core.matvec_flop_per_byte",
            "updates.apply_bytes_min", "updates.apply_flop_per_byte")

COUNT_KEYS = ("qn_iters", "f_evals", "update_skips", "tau_fallbacks",
              "resets", "non_wolfe")


# ---------------------------------------------------------------- environment

def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({type(exc).__name__})"
    return done.stdout.strip() or "unknown"


def source_digest():
    """SHA-256 over the library sources, which names the code measured
    also where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def package_version(name):
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(args):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": package_version("scipy"),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "load": "closed loop, 1 caller, one solve at a time",
    }


# ----------------------------------------------------------------- measuring

def setup_probe(workload_name, seed):
    """Seconds from starting a fresh interpreter to its first iteration."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, str(PROBE), workload_name, str(seed)],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1]) - t0


class Run:
    """Passes of one workload plus the verdict on every solve in them."""

    def __init__(self, workload, cells):
        self.workload = workload
        self.cells = cells
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def warm_up(self):
        """A few iterations of every cell, untimed, so that BLAS threads,
        allocator pools and first-call paths exist before timing starts."""
        for cell in self.cells:
            try:
                workloads.warm_up(cell)
            except Exception as exc:  # counted like any failed solve
                self.attempted += 1
                self.failed += 1
                self.failures.append(f"warm-up {cell.variant}: "
                                     f"{type(exc).__name__}: {exc}")

    def solve_peak_mb(self):
        """Peak memory a short solve of a cell holds live, the largest over cells.

        tracemalloc sees numpy's buffers too, so this is the solver's own
        working set (state, H, the update's n x n temporaries), free of the
        allocator effects in resident memory.  It runs after the timed
        passes: tracing slows every allocation, and its tables would raise
        the resident peak.
        """
        peak = 0
        for cell in self.cells:
            tracemalloc.start()
            try:
                workloads.warm_up(cell)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            except Exception as exc:  # counted like any failed solve
                self.attempted += 1
                self.failed += 1
                self.failures.append(f"memory probe {cell.variant}: "
                                     f"{type(exc).__name__}: {exc}")
            finally:
                tracemalloc.stop()
        return peak / 2**20

    def check(self, outcomes, label):
        """Check one pass; the first checked pass becomes the reference."""
        refs = self.reference or [None] * len(self.cells)
        for cell, out, ref in zip(self.cells, outcomes, refs):
            self.attempted += 1
            reasons = workloads.check_cell(self.workload, cell, out, ref)
            self.failed += bool(reasons)
            self.failures += [f"{label} {cell.variant}: {r}" for r in reasons]
        if self.reference is None:
            self.reference = [
                (out, cell.trace_path.read_bytes()
                 if cell.trace_path is not None and out.error is None else None)
                for cell, out in zip(self.cells, outcomes)]

    def timed(self, run_pass):
        t0 = time.perf_counter()
        outcomes = run_pass(self.workload, self.cells)
        return time.perf_counter() - t0, outcomes


def peak_rss_mb():
    """Peak resident memory of this process so far.

    Reported through the first timed pass: allocator fragmentation lets
    the peak creep up with every further pass, so a peak taken at the end
    would depend on how many passes the host's speed allowed.  The part
    above the peak before the warm-up is the solves' own memory: state,
    H and the update's n x n temporaries, records and emitted traces.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(samples):
    """Highest order statistic with TAIL_BEYOND samples beyond it, and its label.

    Below 2 * TAIL_BEYOND + 1 samples that statistic lies under the median,
    so the tail is not resolved; the maximum is reported and labelled so.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND + 1:
        return ordered[-1], (f"max of {n}; a tail with {TAIL_BEYOND} samples "
                             f"beyond it needs {2 * TAIL_BEYOND + 1}")
    return ordered[n - TAIL_BEYOND - 1], f"p{100.0 * (n - TAIL_BEYOND) / n:.0f} of {n}"


def totals(outcomes):
    sums = dict.fromkeys(COUNT_KEYS, 0)
    for out in outcomes:
        counts = out.counts()
        if counts is not None:
            for key in COUNT_KEYS:
                sums[key] += counts[key]
    return sums


def measure_untraced(args, run):
    """Timed passes for ``args.seconds``, with set-up probes spread between
    them so that set-up time samples the same stretch of host speed."""
    base_rss = peak_rss_mb()
    setup_samples = [setup_probe(args.workload, args.seed)]
    run.warm_up()
    samples = []
    deadline = time.perf_counter() + args.seconds
    while not samples or time.perf_counter() < deadline:
        dt, outcomes = run.timed(workloads.run_pass)
        samples.append(dt)
        if len(samples) == 1:
            first_pass_rss = peak_rss_mb()  # before the gate's own allocations
        run.check(outcomes, f"pass {len(samples)}")
        if len(setup_samples) < SETUP_PROBES:
            t0 = time.perf_counter()
            setup_samples.append(setup_probe(args.workload, args.seed))
            deadline += time.perf_counter() - t0
    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(setup_probe(args.workload, args.seed))
    solve_peak = run.solve_peak_mb()
    counts = totals(out for out, _ in run.reference)
    p50 = statistics.median(samples)
    tail_s, tail_label = tail(samples)
    qn_iters = counts["qn_iters"]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "pass_s_p50": (p50, "s"),
        "pass_s_tail": (tail_s, "s"),
        "iter_us": (p50 / qn_iters * 1e6 if qn_iters else float("nan"), "us"),
        "qn_iters": (qn_iters, "count"),
        "f_evals": (counts["f_evals"], "count"),
        "fail_frac": (run.failed / run.attempted, "ratio"),
        "peak_rss_mb": (first_pass_rss, "MiB"),
        "solve_rss_mb": (first_pass_rss - base_rss, "MiB"),
        "solve_peak_mb": (solve_peak, "MiB"),
    }
    notes = {"pass_samples": len(samples), "pass_s_tail": tail_label,
             "setup_s": f"median of {len(setup_samples)} probes",
             "peak_rss_mb": f"through the first pass; {peak_rss_mb():.1f} MiB at the end",
             "solve_rss_mb": f"peak_rss_mb above the {base_rss:.1f} MiB "
                             f"before the warm-up",
             "solve_peak_mb": f"traced, {workloads.WARMUP_ITERS}-iteration solves",
             "setup_samples_s": setup_samples, "pass_samples_s": samples}
    return metrics, notes


def measure_traced(args, run):
    run.warm_up()
    problem_classes = {type(cell.problem) for cell in run.cells}
    tracer = tracing.Tracer(problem_classes)
    traced_pass = tracer.wrap(workloads.run_pass, tracing.ROOT)
    plain, traced, profiles = [], [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        dt, outcomes = run.timed(workloads.run_pass)
        plain.append(dt)
        run.check(outcomes, f"untraced pass {len(plain)}")
        tracer.install()
        try:
            dt, outcomes = run.timed(traced_pass)
        finally:
            tracer.uninstall()
        traced.append(dt)
        profiles.append(tracer.fold())
        run.check(outcomes, f"traced pass {len(traced)}")
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
    tracer.write_spans(spans_path)
    metrics = layer_metrics(run, profiles, statistics.median(plain),
                            statistics.median(traced))
    notes = {"traced_passes": len(traced), "untraced_passes": len(plain),
             "spans_file": str(spans_path.relative_to(ROOT)),
             "traced_pass_samples_s": traced, "untraced_pass_samples_s": plain}
    return metrics, notes


def layer_metrics(run, profiles, untraced_p50, traced_p50):
    """Per-layer metrics, each a mean per traced pass."""
    k = len(profiles)
    n = run.cells[0].problem.dimension

    def calls(*names):
        return sum(p.sum_calls(names) for p in profiles) / k

    def self_s(*names):
        return sum(p.sum_self(names) for p in profiles) / k

    def layer(name):
        return sum(p.layer_self_s(name) for p in profiles) / k

    def ratio(a, b):
        return a / b if b else 0.0

    counts = totals(out for out, _ in run.reference)
    qn_iters = counts["qn_iters"]
    vg_calls = calls(tracing.OBJECTIVE)
    searches = calls(tracing.SEARCH)
    matvecs = calls("core.matvec")
    applies = calls("updates.apply_update")
    steps = calls("solver.step")
    emits = calls("cli.emit_trace")
    emit_bytes = sum(cell.trace_path.stat().st_size for cell in run.cells
                     if cell.trace_path is not None)
    pass_s = sum(p.duration for p in profiles) / k
    layer_self = {name: layer(name) for name in tracing.LAYERS + ("bench",)}
    m = {
        "problems.calls": (vg_calls, "count"),
        "problems.self_s": (layer_self["problems"], "s"),
        "problems.us_per_call": (ratio(layer_self["problems"], vg_calls) * 1e6, "us"),
        "linesearch.searches": (searches, "count"),
        "linesearch.self_s": (layer_self["linesearch"], "s"),
        "linesearch.trials_per_search": (
            ratio(sum(p.search_trials for p in profiles) / k, searches), "ratio"),
        "linesearch.first_trial_frac": (
            ratio(sum(p.first_trial_searches for p in profiles) / k, searches), "ratio"),
        "linesearch.non_wolfe": (counts["non_wolfe"], "count"),
        "core.matvec_calls": (matvecs, "count"),
        "core.matvec_per_iter": (ratio(matvecs, qn_iters), "ratio"),
        "core.matvec_self_s": (self_s("core.matvec"), "s"),
        "core.matvec_bytes": (matvecs * MATVEC_BYTES_PER_N2 * n * n, "B"),
        "core.matvec_flop_per_byte": (MATVEC_FLOPS_PER_N2 / MATVEC_BYTES_PER_N2, "flop/B"),
        "core.norm_self_s": (self_s(*NORM_FUNCS), "s"),
        "core.self_s": (layer_self["core"], "s"),
        "updates.coeff_calls": (calls("updates.compute_base_coefficients"), "count"),
        "updates.coeff_self_s": (self_s(*COEFF_FUNCS), "s"),
        "updates.apply_calls": (applies, "count"),
        "updates.apply_self_s": (self_s(*APPLY_FUNCS), "s"),
        "updates.apply_us_per_call": (ratio(self_s(*APPLY_FUNCS), applies) * 1e6, "us"),
        "updates.apply_bytes_min": (applies * APPLY_BYTES_PER_N2 * n * n, "B"),
        "updates.apply_flop_per_byte": (APPLY_FLOPS_PER_N2 / APPLY_BYTES_PER_N2, "flop/B"),
        "updates.skip_frac": (ratio(counts["update_skips"], qn_iters), "ratio"),
        "updates.tau_fallbacks": (counts["tau_fallbacks"], "count"),
        "updates.self_s": (layer_self["updates"], "s"),
        "solver.steps": (steps, "count"),
        "solver.self_s": (layer_self["solver"], "s"),
        "solver.us_per_step": (ratio(layer_self["solver"], steps) * 1e6, "us"),
        "solver.resets": (counts["resets"], "count"),
        "cli.emit_calls": (emits, "count"),
        "cli.emit_s": (sum(p.total_s.get("cli.emit_trace", 0.0) for p in profiles) / k, "s"),
        "cli.emit_bytes": (emit_bytes, "B"),
        "cli.self_s": (layer_self["cli"], "s"),
        "bench.self_s": (layer_self["bench"], "s"),
        "trace.pass_s": (pass_s, "s"),
        "trace.self_sum_s": (sum(layer_self.values()), "s"),
        "trace.untraced_pass_s": (untraced_p50, "s"),
        "trace.overhead_frac": (traced_p50 / untraced_p50 - 1.0, "ratio"),
        "trace.spans_per_pass": (sum(p.n_spans for p in profiles) / k, "count"),
    }
    unaccounted = abs(m["trace.self_sum_s"][0] - pass_s)
    if unaccounted > 1e-6 * pass_s:
        run.failures.append(f"tracing: layer self times sum to "
                            f"{m['trace.self_sum_s'][0]:.6f} s, pass took {pass_s:.6f} s")
    return m


# ------------------------------------------------------------------ reporting

def print_report(env, cell_rows, metrics, notes, run):
    print(f"# workload {env['workload']}  seed {env['seed']}  trace {int(env['trace'])}"
          f"  seconds {env['seconds']:g}")
    shown = ("commit", "src_sha256", "python", "numpy", "scipy", "blas",
             "blas_threads", "nproc", "cpu", "load")
    print("# env " + json.dumps({k: env[k] for k in shown}))
    print(f"{'cell':<12}" + "".join(f"{k:>14}" for k in COUNT_KEYS) + "  status")
    for row in cell_rows:
        print(f"{row['variant']:<12}" + "".join(f"{row[k]:>14}" for k in COUNT_KEYS)
              + f"  {row['status']}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        computed = " (computed)" if name in COMPUTED else ""
        print(f"{name:<30} {value:>16.6g} {unit:<7}{computed}"
              + (f"  [{note}]" if note else ""))
    print(f"solves: {run.attempted} attempted, {run.failed} failed")
    for failure in run.failures[:20]:
        print(f"FAIL {failure}")


def run_one(args):
    workload = workloads.WORKLOADS[args.workload]
    trace_dir = OUT / f"{args.workload}-traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    env = environment(args)
    run = Run(workload, workloads.prepare(workload, args.seed, trace_dir))
    measure = measure_traced if args.trace else measure_untraced
    metrics, notes = measure(args, run)

    cell_rows = []
    for out, _ in run.reference:
        counts = out.counts() or {**dict.fromkeys(COUNT_KEYS, 0), "status": out.error}
        cell_rows.append({"variant": out.variant, **counts})
    print_report(env, cell_rows, metrics, notes, run)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": gated(metrics, "per_layer" if args.trace else "end_to_end"),
    }
    stored = {"environment": env, "cells": cell_rows,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "notes": notes, "failures": run.failures, "result": result}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(stored, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def gated(metrics, kind):
    """The metrics BENCHMARK.json lists under ``kind``, with their units checked."""
    out = {}
    for entry in json.loads(SPEC.read_text())[kind]:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']} is measured in {unit}, "
                             f"BENCHMARK.json says {entry['unit']}")
        out[entry["name"]] = {"value": value, "unit": unit}
    return out


def run_all(args):
    """Each workload in its own child process, then one table of all metrics."""
    status = 0
    rows = []
    for name in workloads.WORKLOADS:
        stored = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        stored.unlink(missing_ok=True)
        cmd = [sys.executable, str(RUN), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S + args.seconds)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        if done.returncode in (0, 1) and stored.exists():
            rows.append((name, json.loads(stored.read_text())))
    if rows:
        print(f"\n{'metric':<36}" + "".join(f"{name:>17}" for name, _ in rows))
        for key, first in rows[0][1]["metrics"].items():
            print(f"{key + ' (' + first['unit'] + ')':<36}"
                  + "".join(f"{stored['metrics'][key]['value']:>17.6g}"
                            for _, stored in rows))
    print(json.dumps({name: stored["result"] for name, stored in rows}))
    return status


