"""Workload definitions shared by the launcher, the instance writer and the worker.

Every workload pins its instances to fixed members of the acceptance families
(c06 is dense-uniform seed 0, c07 is sparse-random seeds 0-9, mixed-mtx is a
mixed-sign sparse-random instance built from seed 0).  The iteration count of
the multiplicative update depends on the instance by orders of magnitude
(dense-uniform m=10 needs 7.6k to more than 400k iterations across generator
seeds 0-29), so drawing instances from the run seed would make every time and
count wander far beyond any regression bound.  Instead the run seed draws a
symmetric relabeling (one permutation applied to rows and columns) of every
instance: the inputs differ byte for byte from seed to seed, while the system,
its conditioning, the NNA iterates and the GMRES Krylov residuals are the same
up to rounding.  Seed 0 is the identity, so the default run solves exactly the
instances the acceptance tests use.

This module imports nothing from the package, so the launcher can read it.
"""

from __future__ import annotations

from dataclasses import dataclass

# BLAS/OpenMP thread counts the launcher pins for its child processes.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    A pass makes one round per (instance, shift); a round is what one
    ``nnasolve solve --matrix F --solver general,gmres --k 20 [--t T]`` call
    does: set up A and b, solve with general_solve, write its trace, solve
    with GMRES(20), write its trace.

    shifts: the t_shift values, one round each (None is the automatic shift).
    tol_abs / tol_rel: the stopping target is tol_abs + tol_rel * ||b||_2 for
    both solvers.  passes: how many passes a run makes at --seconds 20; the
    count scales with --seconds but never with measured time, so two commits
    always do identical work.  setup_reps and
    gmres_repeats: how many times a round re-executes its set-up and its GMRES
    solve, timed one by one, so that sub-millisecond steps still give a
    steady figure.  A shared host can switch the process between a fast and
    a slow speed state every few seconds, so short samples are spread over
    the run's rounds instead of being taken in one burst.
    """

    name: str
    shifts: tuple
    tol_abs: float
    tol_rel: float
    nna_max_iter: int
    gmres_max_iter: int
    gmres_repeats: int
    passes: int
    setup_reps: int


# Why each workload was chosen is recorded beside its name in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense-c06",
            shifts=(10.0, 100.0, 1000.0),
            tol_abs=1e-8,
            tol_rel=0.0,
            nna_max_iter=100_000,
            gmres_max_iter=2_000,
            gmres_repeats=35,
            passes=2,
            setup_reps=300,
        ),
        Workload(
            name="sparse-c07",
            shifts=(0.0,),
            tol_abs=0.0,
            tol_rel=1e-6,
            nna_max_iter=20_000,
            gmres_max_iter=2_000,
            gmres_repeats=1,
            passes=2,
            setup_reps=3,
        ),
        Workload(
            name="mixed-mtx",
            shifts=(None,),
            tol_abs=0.0,
            tol_rel=1e-4,
            nna_max_iter=100_000,
            gmres_max_iter=2_000,
            gmres_repeats=1,
            passes=3,
            setup_reps=1,
        ),
    )
}


def passes_for(workload: Workload, seconds: float) -> int:
    """Number of passes a run of `seconds` nominal length makes (at least one)."""
    return max(1, round(workload.passes * seconds / 20.0))
