"""Write one workload's inputs: each instance as a Matrix Market file plus its b.

    python3 perfbench/prep.py --workload NAME --seed N --dir DIR

Writes DIR/inst<k>.mtx (the matrix A), DIR/inst<k>.b.npy (the right-hand
side b, exact float64) and DIR/prep.json with the generator time.  The files
are made before timing starts and in a process of their own, so neither the
generation time nor its memory counts against the timed run.  Seed 0 writes
the pinned instances unchanged; any other seed writes a symmetric relabeling
of them (see workloads.py).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from nnasolve import (
    SplitMix64,
    from_arrays,
    gen_dense_uniform,
    gen_sparse_random,
    spmv,
    write_matrix_market,
)

MIXED_NEG_FRACTION = 0.2  # share of mixed-mtx off-diagonals that are negated
MIXED_NEG_STREAM = 1  # splitmix64 seed of the negation draws; part of the pinned instance


def base_instances(name: str):
    """Yield (A, b, generator seconds) for each pinned instance of a workload."""
    if name == "dense-c06":
        started = time.perf_counter()
        inst = gen_dense_uniform(10, 0)
        yield inst.A, inst.b, time.perf_counter() - started
    elif name == "sparse-c07":
        for s in range(10):
            started = time.perf_counter()
            inst = gen_sparse_random(1000, 5000, 100.0, s)
            yield inst.A, inst.b, time.perf_counter() - started
    elif name == "mixed-mtx":
        started = time.perf_counter()
        inst = gen_sparse_random(100_000, 500_000, 100.0, 0)
        gen_s = time.perf_counter() - started
        rows, cols, vals = inst.A.triplets()
        off = np.flatnonzero(rows != cols)
        flip = off[SplitMix64(MIXED_NEG_STREAM).uniform(off.size) < MIXED_NEG_FRACTION]
        vals[flip] = -vals[flip]
        A = from_arrays(inst.A.nrows, inst.A.ncols, rows, cols, vals)
        yield A, spmv(A, inst.x_star), gen_s
    else:
        raise ValueError(f"unknown workload {name!r}")


def relabel(A, b, rng):
    """Apply one random permutation q to rows and columns: A'[q_i, q_j] = A[i, j], b'[q_i] = b_i."""
    if rng is None:
        return A, b
    q = np.argsort(rng.next_u64(A.nrows), kind="stable")
    rows, cols, vals = A.triplets()
    b_new = np.empty_like(b)
    b_new[q] = b
    return from_arrays(A.nrows, A.ncols, q[rows], q[cols], vals), b_new


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    args = ap.parse_args(argv)

    rng = None if args.seed == 0 else SplitMix64(args.seed)
    gen_s = 0.0
    count = 0
    for k, (A, b, seconds) in enumerate(base_instances(args.workload)):
        gen_s += seconds
        A, b = relabel(A, b, rng)
        write_matrix_market(A, args.dir / f"inst{k}.mtx")
        np.save(args.dir / f"inst{k}.b.npy", b)
        count += 1
    (args.dir / "prep.json").write_text(json.dumps({"gen_s": gen_s, "instances": count}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
