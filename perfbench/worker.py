"""One timed run of a workload, then the correctness gate.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --dir DIR \
        --trace 0|1 [--probe] [--spans PATH]

Reads the inputs prep.py wrote into DIR and runs a single-process closed loop,
each call after the previous one returns, in the order `nnasolve solve
--matrix FILE --solver general,gmres` uses: read the instance, solve, write
the trace.  Prints one line per solve and writes DIR/result-<trace>.json.
With --trace 1 the package's functions are wrapped in spans (tracer.py) for
the timed passes.  --probe additionally times a bare nna_step after the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import nnasolve
from nnasolve import (
    SolverConfig,
    SolveStatus,
    embed,
    general_solve,
    gmres_restarted,
    nna_step,
    read_matrix_market,
    read_trace,
    rescale,
    shift,
    write_trace,
)
from tracer import NullTracer, Tracer
from workloads import THREAD_PINS, WORKLOADS, passes_for

ROOT = Path(__file__).resolve().parents[1]
GMRES_K = 20
AGREE_TOL = 1e-6  # c06's own agreement check between shifts


@dataclass
class Solve:
    """One logical solve: a solver on one instance (and shift), possibly re-executed for timing."""

    solver: str
    pass_no: int
    instance: int
    t: float | None
    A: object
    b: np.ndarray
    tol: float
    reports: list = field(default_factory=list)
    times: list = field(default_factory=list)
    products: int = 0  # traced runs only: kernel products observed from outside
    attempts: int = 0  # traced runs only: rescale calls, 1 + auto-shift retries

    @property
    def label(self) -> str:
        shift_txt = "" if self.t is None else f"_t{self.t:g}"
        return f"p{self.pass_no}-i{self.instance}-{self.solver}{shift_txt}"

    def trace_path(self, directory: Path) -> Path:
        return directory / f"{self.label}.csv"


def run_passes(w, directory: Path, n_inst: int, passes: int, tracer):
    """The timed region: `passes` x one round per (instance, shift).  Returns what was measured."""
    read = tracer.wrap("problems.read_matrix_market", read_matrix_market)
    solve_general = tracer.wrap("embedding.general_solve", general_solve)
    solve_gmres = tracer.wrap("baselines.gmres_restarted", gmres_restarted)
    write = tracer.wrap("problems.write_trace", write_trace)
    traced = isinstance(tracer, Tracer)
    solves, setup_times, working_sets = [], [], []

    started = time.perf_counter()
    for p in range(passes):
        setup_times.append([])
        for k in range(n_inst):
            for t in w.shifts:
                for _ in range(w.setup_reps):
                    t0 = time.perf_counter()
                    A = read(directory / f"inst{k}.mtx")
                    b = np.load(directory / f"inst{k}.b.npy")
                    setup_times[-1].append(time.perf_counter() - t0)
                tol = w.tol_abs + w.tol_rel * float(np.linalg.norm(b))

                s = Solve("nna", p, k, t, A, b, tol)
                cfg = SolverConfig(eps_tol=tol, t_shift=t, max_iter=w.nna_max_iter)
                t0 = time.perf_counter()
                report = solve_general(A, b, cfg=cfg)
                s.times.append(time.perf_counter() - t0)
                s.reports.append(report)
                if traced:
                    counts = tracer.last_span("embedding.general_solve").descendants
                    s.products = counts.get("sparse.spmv", 0) + counts.get("sparse.spmv_transpose", 0)
                    s.attempts = counts.get("nna.rescale", 0)
                    working_sets.append(tracer.take_working_set())
                write(replace(report, elapsed_ns=0), s.trace_path(directory))
                solves.append(s)

                s = Solve("gmres", p, k, t, A, b, tol)
                cfg = SolverConfig(eps_tol=tol, max_iter=w.gmres_max_iter)
                for _ in range(w.gmres_repeats):
                    t0 = time.perf_counter()
                    report = solve_gmres(A, b, k=GMRES_K, cfg=cfg)
                    s.times.append(time.perf_counter() - t0)
                    s.reports.append(report)
                if traced:
                    working_sets.append(tracer.take_working_set())
                write(replace(report, elapsed_ns=0), s.trace_path(directory))
                solves.append(s)
    run_s = time.perf_counter() - started
    return solves, setup_times, run_s, working_sets


def gate(solves, directory: Path):
    """Independent correctness checks.

    Returns (failed, notes, errors).  A solve fails when its status is not
    converged or its residual, recomputed with scipy.sparse, exceeds the
    target; each such solve gets a note.  An error is an output that cannot
    be trusted: a non-converged report whose final trace residual does not
    describe the returned x, a trace file that does not read back as the
    report, or shifts that disagree.
    """
    import scipy.sparse as sp

    notes, errors = [], []
    failed = 0
    csr = {}

    def true_residual(A, b, x):
        if id(A) not in csr:
            rows, cols, vals = A.triplets()
            csr[id(A)] = sp.csr_matrix((vals, (rows, cols)), shape=A.shape)
        return float(np.linalg.norm(csr[id(A)] @ x - b))

    for s in solves:
        ok = True
        for report in s.reports:
            res = true_residual(s.A, s.b, report.x)
            if report.status is SolveStatus.CONVERGED:
                if not res <= s.tol:
                    ok = False
                    notes.append(f"{s.label}: reported converged, true residual {res:.17g} > {s.tol:.17g}")
            else:
                ok = False
                notes.append(f"{s.label}: status {report.status.value}")
                last = float(report.residual_trace[-1])
                if not math.isclose(res, last, rel_tol=1e-6):
                    errors.append(f"{s.label}: final trace residual {last:.6e} != true residual {res:.6e}")
        failed += not ok

        report = s.reports[-1]
        iters, res_col, kl_col, elapsed = read_trace(s.trace_path(directory))
        kl_ok = (
            np.array_equal(kl_col, report.kl_trace)
            if report.kl_trace.size
            else bool(np.all(np.isnan(kl_col)))
        )
        if not (
            np.array_equal(iters, np.arange(report.residual_trace.size))
            and np.array_equal(res_col, report.residual_trace)
            and kl_ok
            and not np.any(elapsed)
        ):
            errors.append(f"{s.label}: trace file does not match the report")

    groups = {}
    for s in solves:
        if s.solver == "nna" and s.reports[0].status is SolveStatus.CONVERGED:
            groups.setdefault((s.pass_no, s.instance), []).append(s.reports[0].x)
    for key, xs in groups.items():
        for i in range(len(xs)):
            for j in range(i + 1, len(xs)):
                gap = float(np.linalg.norm(xs[i] - xs[j]))
                if not gap <= AGREE_TOL:
                    errors.append(f"pass {key[0]} instance {key[1]}: shifts disagree by {gap:.3e}")

    return failed, notes, errors


def bare_step_seconds(solves) -> float:
    """Median time of one nna_step on the rescaled system of the run's first NNA solve."""
    first = next(s for s in solves if s.solver == "nna")
    emb = embed(first.A, first.b)
    shifted = shift(emb.P, emb.c, first.t)
    system = rescale(emb.P, shifted.b_shifted)
    x = np.full(emb.P.ncols, 1.0 / emb.P.ncols)
    t0 = time.perf_counter()
    x = nna_step(system, x)
    one = time.perf_counter() - t0
    per_batch = max(1, int(0.1 / max(one, 1e-7)))
    samples = []
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(per_batch):
            x = nna_step(system, x)
        samples.append((time.perf_counter() - t0) / per_batch)
    return statistics.median(samples)


def environment():
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l3_cache": l3,
        "thread_pins": {v: os.environ.get(v) for v in THREAD_PINS},
    }


def end_to_end(solves, setup_times, run_s, peak_rss_mb, failed):
    """(bounded metrics, printed-only metrics), each name -> (value, unit).

    setup_s is the median over passes of the pass's mean set-up time: a
    mean moves in proportion to the share of fast time during the pass,
    whereas a median over single set-ups jumps between the two speed states.
    Only run_s and setup_s carry a time bound.  Per-solve times cover a single solve
    window (or one burst of sub-millisecond repeats); on a shared host whose
    speed changes by 1.7x every few seconds their spread across runs reaches
    the largest bound the benchmark may set, so they are printed, not bounded.
    """
    nna = [s for s in solves if s.solver == "nna"]
    gmres = [s for s in solves if s.solver == "gmres"]
    nna_times = [s.times[0] for s in nna]
    nna_matvecs = sum(s.reports[0].matvec_count for s in nna)
    bounded = {
        "run_s": (run_s, "s"),
        "setup_s": (statistics.median(statistics.fmean(times) for times in setup_times), "s"),
        "nna_matvecs": (nna_matvecs, "count"),
        "gmres_matvecs": (sum(s.reports[0].matvec_count for s in gmres), "count"),
        "solved_frac": ((len(solves) - failed) / len(solves), "fraction"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    printed = {
        "nna_solve_s": (statistics.median(nna_times), "s"),
        "nna_solve_s_max": (max(nna_times), "s"),
        "nna_matvecs_per_s": (nna_matvecs / sum(nna_times), "1/s"),
        "gmres_solve_s": (statistics.median(t for s in gmres for t in s.times), "s"),
        "fail_frac": (failed / len(solves), "fraction"),
    }
    return bounded, printed


def per_layer(w, tracer, solves, working_sets, prep, directory):
    spmv_n, spmv_s, _ = tracer.totals("sparse.spmv")
    spmvt_n, spmvt_s, _ = tracer.totals("sparse.spmv_transpose")
    kl_n, kl_s, _ = tracer.totals("metrics.kl_divergence")
    arn_n, arn_s, _ = tracer.totals("baselines.arnoldi_process")
    _, read_s, _ = tracer.totals("problems.read_matrix_market")
    _, write_s, _ = tracer.totals("problems.write_trace")
    kernel_s = spmv_s + spmvt_s
    nna = [s for s in solves if s.solver == "nna"]
    read_mb = sum((directory / f"inst{s.instance}.mtx").stat().st_size for s in nna) * w.setup_reps / 1e6
    embedded = [embed(s.A, s.b) for s in {s.instance: s for s in nna}.values()]
    rows = sum(s.reports[-1].residual_trace.size for s in solves)
    return {
        "sparse.spmv.calls": (spmv_n, "count"),
        "sparse.spmv.s": (spmv_s, "s"),
        "sparse.spmv_transpose.calls": (spmvt_n, "count"),
        "sparse.spmv_transpose.s": (spmvt_s, "s"),
        "sparse.from_arrays.s": (tracer.totals("sparse.from_arrays")[1], "s"),
        "sparse.gflops": (tracer.flops / kernel_s / 1e9, "GFLOP/s"),
        "sparse.gbytes_per_s": (tracer.bytes / kernel_s / 1e9, "GB/s"),
        "sparse.working_set_mb": (max(working_sets) / 1e6, "MB"),
        "metrics.kl_divergence.calls": (kl_n, "count"),
        "metrics.kl_divergence.s": (kl_s, "s"),
        "nna.shift.s": (tracer.totals("nna.shift")[1], "s"),
        "nna.rescale.s": (tracer.totals("nna.rescale")[1], "s"),
        "nna.attempts": (statistics.mean(s.attempts for s in nna), "count"),
        "nna.iterations": (sum(s.reports[0].iterations for s in nna), "count"),
        "nna.loop_self_s": (tracer.totals("nna.nna_solve")[2], "s"),
        "nna.uncounted_products": (
            statistics.mean(s.products - s.reports[0].matvec_count for s in nna),
            "count",
        ),
        "embedding.embed.s": (tracer.totals("embedding.embed")[1], "s"),
        "embedding.J": (statistics.mean(e.J for e in embedded), "count"),
        "embedding.nnz_P": (statistics.mean(e.P.nnz for e in embedded), "count"),
        "embedding.general_self_s": (tracer.totals("embedding.general_solve")[2], "s"),
        "baselines.gmres.self_s": (tracer.totals("baselines.gmres_restarted")[2], "s"),
        "baselines.arnoldi_process.calls": (arn_n, "count"),
        "baselines.arnoldi_process.s": (arn_s, "s"),
        "problems.gen.s": (prep["gen_s"], "s"),
        "problems.read_matrix_market.s": (read_s, "s"),
        "problems.read_matrix_market.mb_per_s": (read_mb / read_s, "MB/s"),
        "problems.write_trace.s": (write_s, "s"),
        "problems.write_trace.rows_per_s": (rows / write_s, "1/s"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    if not Path(nnasolve.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported nnasolve from {nnasolve.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    prep = json.loads((args.dir / "prep.json").read_text())
    n_inst = prep["instances"]
    passes = passes_for(w, args.seconds)
    tracer = Tracer() if args.trace else NullTracer()

    with tracer.patched():
        solves, setup_times, run_s, working_sets = run_passes(w, args.dir, n_inst, passes, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for s in solves:
        r = s.reports[-1]
        print(
            f"solve {s.label:<22} {r.status.value:<15} iters={r.iterations:<7d} matvecs={r.matvec_count:<7d} "
            f"final_residual={r.residual_trace[-1]:.3e} target={s.tol:.3e} wall_s={statistics.median(s.times):.4f}",
            flush=True,
        )
    step_s = bare_step_seconds(solves) if args.probe else None
    failed, notes, errors = gate(solves, args.dir)
    for n in dict.fromkeys(notes):
        print(f"gate failure: {n}", flush=True)
    for e in errors:
        print(f"gate error: {e}", flush=True)

    result = {
        "correct": not errors,
        "attempted": len(solves),
        "failed": failed,
        "passes": passes,
        "env": environment(),
    }
    result["metrics"], result["printed"] = end_to_end(solves, setup_times, run_s, peak_rss_mb, failed)
    if step_s is not None:
        nna = [s for s in solves if s.solver == "nna"]
        per_iter = sum(s.times[0] for s in nna) / max(1, sum(s.reports[0].iterations for s in nna))
        result["solve_over_step"] = per_iter / step_s
    if args.trace:
        result["layers"] = per_layer(w, tracer, solves, working_sets, prep, args.dir)
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            args.spans.write_text(json.dumps(tracer.dump()))
    (args.dir / f"result-{args.trace}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
