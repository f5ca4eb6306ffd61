"""Command-line front end: load or generate a problem, run solvers, emit traces.

Exit codes: 0 all requested solvers converged or ended stagnated_min_kl (a
certified minimal-KL point of a system with no solution; the note line gives
the certificate), 1 solver non-convergence, 2 input/parse error, 3 internal
error, such as an untyped exception out of a solver.

Trace CSVs are written with the elapsed_ns column zeroed so identical runs
produce byte-identical files; wall time appears in the summary instead.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .baselines import (
    Dominance,
    cg_solve,
    dominance_class,
    gauss_seidel_solve,
    gmres_restarted,
    jacobi_solve,
    minres_solve,
    normal_equation_solve,
)
from .embedding import general_solve
from .errors import NnaSolveError
from .nna import SolveReport, SolveStatus, SolverConfig, nna_solve
from .problems import (
    SplitMix64,
    gen_dense_uniform,
    gen_sparse_random,
    read_matrix_market,
    write_trace,
)
from .sparse import SparseMatrix, as_vector, from_arrays, spmv


class _Solver(NamedTuple):
    solve: Callable[..., SolveReport]
    # check: sufficient conditions for convergence on a square matrix, each a
    # (key of cmd_check's measured properties, name) pair; any one suffices
    guaranteed_by: tuple[tuple[str, str], ...]
    takes_t: bool = False  # one run per --t value
    needs_k: bool = False  # --k is the restart length
    rectangular: bool = False  # also solves non-square systems


SOLVERS = {
    "nna": _Solver(nna_solve, (("nonneg", "nonnegative entries"),), takes_t=True, rectangular=True),
    "general": _Solver(general_solve, (("always", "always"),), takes_t=True, rectangular=True),
    "jacobi": _Solver(jacobi_solve, (("dd", "diagonal dominance"),)),
    "gauss-seidel": _Solver(gauss_seidel_solve, (("dd", "diagonal dominance"), ("spd", "SPD"))),
    "cg": _Solver(cg_solve, (("spd", "SPD"),)),
    "gmres": _Solver(gmres_restarted, (("pd", "positive definiteness"),), needs_k=True),
    "minres": _Solver(minres_solve, (("sym", "symmetry"),), needs_k=True),
    "normal-cg": _Solver(normal_equation_solve, (("always", "always"),), rectangular=True),
}
_SHIFTING = "/".join(name for name, entry in SOLVERS.items() if entry.takes_t)
_RESTARTED = "/".join(name for name, entry in SOLVERS.items() if entry.needs_k)

_OK_STATUSES = (SolveStatus.CONVERGED, SolveStatus.STAGNATED_MIN_KL)


class _SolverFault(Exception):
    """Holds as __cause__ an untyped exception out of a solver, a ValueError too."""


def _parse_gen_spec(spec: str, seed: int):
    """Parse 'dense-uniform:m=10' or 'sparse-random:m=1000,offdiag=5000,diag-hi=100'."""
    name, _, rest = spec.partition(":")
    kv = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise ValueError(f"generator option {item!r} is not key=value")
            kv[key.strip()] = value.strip()
    try:
        if name == "dense-uniform":
            m = int(kv.pop("m"))
            _reject_extras(kv)
            return gen_dense_uniform(m, seed)
        if name == "sparse-random":
            m = int(kv.pop("m"))
            offdiag = int(kv.pop("offdiag"))
            diag_hi = float(kv.pop("diag-hi", 100.0))
            _reject_extras(kv)
            return gen_sparse_random(m, offdiag, diag_hi, seed)
    except KeyError as exc:
        raise ValueError(f"generator spec {spec!r} is missing the {exc.args[0]}= option") from None
    raise ValueError(f"unknown generator {name!r} (use dense-uniform or sparse-random)")


def _reject_extras(kv: dict):
    if kv:
        raise ValueError(f"unknown generator options: {', '.join(sorted(kv))}")


def _make_rhs(spec: str, A: SparseMatrix, seed: int) -> np.ndarray:
    """--rhs: 'ones' synthesizes b = A*1 (all-ones solution), 'from-solution:uniform'
    synthesizes b = A x* with x* uniform on [0.5, 1.5), anything else is a
    whitespace-separated vector file."""
    if spec == "ones":
        return spmv(A, np.ones(A.ncols))
    if spec == "from-solution:uniform":
        rng = SplitMix64(seed + 1)
        return spmv(A, rng.uniform(A.ncols, 0.5, 1.5))
    values = np.loadtxt(spec, dtype=np.float64, ndmin=1)
    return as_vector(values, "rhs file")


def _summary_values(report, t_format: str) -> tuple[float, str, str]:
    """The run's final residual (NaN without a trace), kept shift and attempts;
    the last two are empty for solvers that do not shift."""
    final = report.residual_trace[-1] if report.residual_trace.size else float("nan")
    if report.t_shift is None:
        return final, "", ""
    return final, t_format.format(report.t_shift), str(report.attempts)


def cmd_solve(args) -> int:
    if (args.matrix is None) == (args.gen is None):
        raise ValueError("exactly one of --matrix or --gen is required")

    if args.matrix is not None:
        A = read_matrix_market(args.matrix)
        b = None
        source = args.matrix
    else:
        instance = _parse_gen_spec(args.gen, args.seed)
        A, b = instance.A, instance.b
        source = instance.descriptor
    if args.rhs is not None:
        b = _make_rhs(args.rhs, A, args.seed)
    if b is None:
        raise ValueError("--rhs is required with --matrix")

    solvers = [s.strip() for s in args.solver.split(",") if s.strip()]
    unknown = [s for s in solvers if s not in SOLVERS]
    if not solvers or unknown:
        raise ValueError(f"unknown solver(s): {', '.join(unknown) or '(none given)'}")
    if args.k is None and any(SOLVERS[s].needs_k for s in solvers):
        raise ValueError(f"--k is required when {_RESTARTED} is selected")

    cfg = SolverConfig(eps_tol=args.tol, max_iter=args.max_iter)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    # every input, each --t value included, is checked before the first solve
    t_values = args.t if args.t else [None]
    cfgs = {t: replace(cfg, t_shift=t) for t in [None, *t_values]}
    runs = []
    for solver in solvers:
        entry = SOLVERS[solver]
        restart = {"k": args.k} if entry.needs_k else {}
        for t in t_values if entry.takes_t else [None]:
            try:
                report = entry.solve(A, b, cfg=cfgs[t], **restart)
            except NnaSolveError:
                raise
            except Exception as exc:
                raise _SolverFault from exc
            label = solver if t is None else f"{solver}_t{t:g}"
            write_trace(replace(report, elapsed_ns=0), out_dir / f"{label}.csv")
            runs.append((label, report))

    print(f"instance: {source}")
    print(f"size: {A.nrows} x {A.ncols}, nnz {A.nnz}")
    header = (
        f"{'solver':<16} {'status':<18} {'iters':>8} {'final_residual':>15} {'wall_s':>9} {'matvecs':>10}"
        f" {'t':>10} {'attempts':>8}"
    )
    print(header)
    print("-" * len(header))
    for label, report in runs:
        final, t_txt, attempts_txt = _summary_values(report, "{:.4g}")
        print(
            f"{label:<16} {report.status.value:<18} {report.iterations:>8d} "
            f"{final:>15.6e} {report.elapsed_ns / 1e9:>9.3f} {report.matvec_count:>10d} "
            f"{t_txt:>10} {attempts_txt:>8}"
        )
        if report.diagnostic:
            print(f"    note: {report.diagnostic}")

    if args.summary_csv:
        with open(args.summary_csv, "w", newline="") as fh:
            fh.write("solver,status,iterations,final_residual,wall_s,matvecs,t,attempts\n")
            for label, report in runs:
                final, t_txt, attempts_txt = _summary_values(report, "{:.17g}")
                fh.write(
                    f"{label},{report.status.value},{report.iterations},"
                    f"{final:.17g},{report.elapsed_ns / 1e9:.6f},{report.matvec_count},{t_txt},{attempts_txt}\n"
                )

    return 0 if all(r.status in _OK_STATUSES for _, r in runs) else 1


def _positive_definite_certificate(A: SparseMatrix) -> bool:
    """Gershgorin certificate on the symmetric part: dominant with positive
    diagonal implies the quadratic form is positive definite."""
    rows, cols, vals = A.triplets()
    sym_part = from_arrays(
        A.nrows,
        A.ncols,
        np.concatenate([rows, cols]),
        np.concatenate([cols, rows]),
        np.concatenate([vals, vals]) * 0.5,
    )
    dom = dominance_class(sym_part)
    dominant = dom.classification in (Dominance.STRICTLY_DOMINANT, Dominance.IRREDUCIBLY_DOMINANT)
    return dominant and bool(np.all(sym_part.diagonal() > 0.0))


def cmd_check(args) -> int:
    A = read_matrix_market(args.path)
    print(f"file: {args.path}")
    print(f"size: {A.nrows} x {A.ncols}, nnz {A.nnz}")
    if A.nrows != A.ncols:
        names = "/".join(name for name, entry in SOLVERS.items() if entry.rectangular)
        print(f"matrix is rectangular; only {names} apply")
        return 0
    dom = dominance_class(A)
    diag = A.diagonal()
    zero_diag = int(np.count_nonzero(diag == 0.0))
    dominant = dom.classification in (Dominance.STRICTLY_DOMINANT, Dominance.IRREDUCIBLY_DOMINANT)
    pd = _positive_definite_certificate(A)
    spd = dom.symmetric and pd
    nonneg = A.values.min(initial=0.0) >= 0.0
    info = {"dd": dominant, "spd": spd, "sym": dom.symmetric, "pd": pd, "nonneg": nonneg, "always": True}

    print(f"dominance: {dom.classification.value}")
    print(f"symmetric: {'yes' if dom.symmetric else 'no'}")
    if zero_diag:
        print(f"warning: {zero_diag} zero diagonal entries; jacobi/gauss-seidel are undefined")
    print("guaranteed convergence:")
    for name, entry in SOLVERS.items():
        met = [why for key, why in entry.guaranteed_by if info[key]]
        why = met[0] if met else "requires " + " or ".join(why for _, why in entry.guaranteed_by)
        print(f"  {name:<20} {'yes' if met else 'no':<4} ({why})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nnasolve",
        description="Sparse linear solving with the nonnegative multiplicative iteration and classical baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one or more solvers on a problem and emit traces")
    solve.add_argument("--matrix", help="Matrix Market file (coordinate real general/symmetric)")
    solve.add_argument("--gen", help="generator spec, e.g. dense-uniform:m=10 or sparse-random:m=1000,offdiag=5000,diag-hi=100")
    solve.add_argument("--rhs", help="'ones' (b = A*1), 'from-solution:uniform', or a vector file")
    solve.add_argument("--solver", required=True, help=f"comma list of {', '.join(SOLVERS)}")
    solve.add_argument("--tol", type=float, default=None, help="stopping tolerance (default 1e-8*(1+||b||))")
    solve.add_argument("--t", type=float, action="append", help=f"positivity shift for {_SHIFTING}; repeat for several runs")
    solve.add_argument("--max-iter", type=int, default=100_000)
    solve.add_argument("--k", type=int, default=None, help=f"restart length for {_RESTARTED}")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--out", default=".", help="directory for trace CSVs")
    solve.add_argument("--summary-csv", default=None, help="also write the summary table as CSV")
    solve.set_defaults(func=cmd_solve)

    check = sub.add_parser("check", help="report dominance class, symmetry and solver guarantees for a matrix file")
    check.add_argument("path")
    check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (NnaSolveError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        exc = exc.__cause__ if isinstance(exc, _SolverFault) else exc
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
