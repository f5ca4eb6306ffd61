import numpy as np
import pytest

from nnasolve import from_triplets, write_matrix_market, gen_sparse_random
from nnasolve.cli import main
from conftest import sparse_of


def run(argv):
    return main(argv)


def test_solve_generated_instance(tmp_path, capsys):
    code = run(
        [
            "solve",
            "--gen", "sparse-random:m=20,offdiag=40,diag-hi=50",
            "--solver", "nna",
            "--seed", "3",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "converged" in out
    assert (tmp_path / "nna.csv").exists()


def test_solve_repeatable_shift_values(tmp_path):
    code = run(
        [
            "solve",
            "--gen", "sparse-random:m=15,offdiag=30,diag-hi=40",
            "--solver", "nna",
            "--t", "10", "--t", "100", "--t", "1000",
            "--seed", "1",
            "--max-iter", "50000",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    finals = []
    for t in (10, 100, 1000):
        trace = (tmp_path / f"nna_t{t}.csv").read_text().strip().splitlines()
        finals.append(float(trace[-1].split(",")[1]))
    top, bottom = max(finals), min(finals)
    assert top <= 10.0 * max(bottom, 1e-300)


def test_byte_identical_reruns(tmp_path):
    args = [
        "solve",
        "--gen", "sparse-random:m=12,offdiag=24,diag-hi=30",
        "--solver", "nna,jacobi",
        "--seed", "7",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    for name in ("nna.csv", "jacobi.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_multi_solver_comparison_run(tmp_path, capsys):
    summary = tmp_path / "summary.csv"
    code = run(
        [
            "solve",
            "--gen", "sparse-random:m=60,offdiag=300,diag-hi=100",
            "--solver", "nna,gmres,normal-cg",
            "--k", "10",
            "--seed", "2",
            "--out", str(tmp_path),
            "--summary-csv", str(summary),
        ]
    )
    assert code == 0
    for name in ("nna.csv", "gmres.csv", "normal-cg.csv"):
        assert (tmp_path / name).exists()
    lines = summary.read_text().strip().splitlines()
    assert len(lines) == 4  # header + one row per solver
    out = capsys.readouterr().out
    assert out.count("converged") == 3


def test_gmres_requires_k(tmp_path, capsys):
    code = run(
        ["solve", "--gen", "sparse-random:m=8,offdiag=16,diag-hi=20", "--solver", "gmres", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "--k" in capsys.readouterr().err


def test_restart_length_below_one_is_input_error(tmp_path, capsys):
    argv = ["solve", "--gen", "sparse-random:m=8,offdiag=16,diag-hi=20", "--solver", "gmres", "--k", "0"]
    assert run(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: restart length k must be >= 1\n"


@pytest.mark.parametrize("argv, code", [([], 2), (["solve"], 2), (["--help"], 0)], ids=["none", "solve", "help"])
def test_argparse_exits_become_return_codes(capsys, argv, code):
    # a usage error or --help returns argparse's exit code instead of raising SystemExit
    assert run(argv) == code
    out = capsys.readouterr()
    assert ("usage:" in out.out) if code == 0 else ("error:" in out.err)


def test_unknown_solver_rejected(tmp_path, capsys):
    code = run(
        ["solve", "--gen", "sparse-random:m=8,offdiag=16,diag-hi=20", "--solver", "sor", "--out", str(tmp_path)]
    )
    assert code == 2


def test_matrix_file_with_rhs_modes(tmp_path):
    inst = gen_sparse_random(10, 20, 30.0, 4)
    mtx = tmp_path / "m.mtx"
    write_matrix_market(inst.A, mtx)

    code = run(["solve", "--matrix", str(mtx), "--rhs", "ones", "--solver", "general", "--out", str(tmp_path)])
    assert code == 0

    code = run(["solve", "--matrix", str(mtx), "--rhs", "from-solution:uniform", "--solver", "nna", "--out", str(tmp_path)])
    assert code == 0

    vec = tmp_path / "b.txt"
    vec.write_text("\n".join(str(v) for v in inst.b))
    code = run(["solve", "--matrix", str(mtx), "--rhs", str(vec), "--solver", "nna", "--out", str(tmp_path)])
    assert code == 0


def test_matrix_without_rhs_is_usage_error(tmp_path, capsys):
    inst = gen_sparse_random(5, 8, 10.0, 4)
    mtx = tmp_path / "m.mtx"
    write_matrix_market(inst.A, mtx)
    assert run(["solve", "--matrix", str(mtx), "--solver", "nna", "--out", str(tmp_path)]) == 2


def test_nonconvergence_exit_code(tmp_path):
    # skew off-diagonal flips make jacobi diverge; exit code 1, not an exception
    dense = np.array([[1.0, 3.0], [3.0, 1.0]])
    mtx = tmp_path / "m.mtx"
    write_matrix_market(sparse_of(dense), mtx)
    code = run(
        [
            "solve",
            "--matrix", str(mtx),
            "--rhs", "ones",
            "--solver", "jacobi",
            "--max-iter", "50",
            "--out", str(tmp_path),
        ]
    )
    assert code == 1


def test_overflowing_shift_is_breakdown_exit_code(tmp_path, capsys):
    # b + t * A 1 stays finite but sums to infinity: the rescaled system does not
    # exist, so the run is a typed breakdown (exit 1), not an input error (2)
    # and not a stagnation with a NaN residual (0)
    code = run(["solve", "--gen", "dense-uniform:m=10", "--solver", "nna", "--t", "1e307", "--out", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "breakdown" in out
    assert "NonFiniteValue" in out


@pytest.mark.parametrize(
    "entries",
    [[(0, 0, 1e308), (0, 1, 1e308), (1, 1, 1.0)], [(0, 0, 1e-320), (0, 1, 1.0)]],
    ids=["row-sum-overflows", "scale-overflows"],
)
def test_an_auto_shift_that_cannot_stay_finite_is_breakdown_exit_code(tmp_path, capsys, entries):
    # both systems used to hang in the automatic shift's doubling loop
    mtx, vec = tmp_path / "s.mtx", tmp_path / "s.rhs"
    write_matrix_market(from_triplets(2, 2, entries), mtx)
    vec.write_text("-1 1\n")
    code = run(["solve", "--matrix", str(mtx), "--rhs", str(vec), "--solver", "nna,general", "--out", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert out.count("breakdown") >= 2 and "NonFiniteValue" in out


def _huge_rhs_argv(tmp_path, solver):
    mtx, vec = tmp_path / "d.mtx", tmp_path / "d.rhs"
    write_matrix_market(sparse_of([[1.0, 0.0], [0.0, 2.0]]), mtx)
    vec.write_text("1e300 1e300\n")
    return ["solve", "--matrix", str(mtx), "--rhs", str(vec), "--solver", solver, "--k", "2", "--out", str(tmp_path)]


@pytest.mark.parametrize("solver", ["cg", "normal-cg"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_residual_is_breakdown_exit_code(tmp_path, capsys, solver):
    # r^T r overflows in the CG recurrence; the run used to end as converged
    # with a NaN residual (exit 0)
    assert run(_huge_rhs_argv(tmp_path, solver)) == 1
    assert "breakdown" in capsys.readouterr().out


@pytest.mark.parametrize("solver", ["gmres", "minres"])
def test_huge_rhs_converges_exit_code(tmp_path, capsys, solver):
    # ||b||^2 overflows, but the scaled norm does not: the run converges
    assert run(_huge_rhs_argv(tmp_path, solver)) == 0
    assert "converged" in capsys.readouterr().out


def test_singular_hessenberg_exit_code(tmp_path, capsys):
    # A = [[0, 1], [0, 0]] maps e1 to 0, so GMRES's least-squares matrix is singular
    mtx, vec = tmp_path / "nil.mtx", tmp_path / "nil.rhs"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 1.0\n")
    vec.write_text("1 0\n")
    # the first restart cannot move x, so the run stops there instead of at --max-iter
    argv = ["solve", "--matrix", str(mtx), "--rhs", str(vec), "--solver", "gmres", "--k", "2"]
    assert run(argv + ["--out", str(tmp_path)]) == 1
    assert "breakdown" in capsys.readouterr().out
    residuals = np.loadtxt(tmp_path / "gmres.csv", delimiter=",", skiprows=1, usecols=1)
    assert residuals.size == 2 and np.all(residuals == 1.0)


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.mtx"
    bad.write_text("not a matrix file\n")
    assert run(["solve", "--matrix", str(bad), "--rhs", "ones", "--solver", "nna", "--out", str(tmp_path)]) == 2
    assert run(["check", str(bad)]) == 2


@pytest.mark.parametrize(
    "spec, message",
    [
        ("dense-uniform:m", "generator option 'm' is not key=value"),
        ("sparse-random:m=10", "generator spec 'sparse-random:m=10' is missing the offdiag= option"),
        ("banded:m=10", "unknown generator 'banded' (use dense-uniform or sparse-random)"),
        ("dense-uniform:m=4,width=2", "unknown generator options: width"),
    ],
    ids=["not-key-value", "missing-option", "unknown-generator", "unknown-option"],
)
def test_generator_spec_errors_are_input_errors(tmp_path, capsys, spec, message):
    assert run(["solve", "--gen", spec, "--solver", "nna", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_matrix_and_gen_together_is_usage_error(tmp_path, capsys):
    mtx = tmp_path / "m.mtx"
    write_matrix_market(from_triplets(2, 2, [(0, 0, 1.0), (1, 1, 1.0)]), mtx)
    argv = ["solve", "--matrix", str(mtx), "--gen", "dense-uniform:m=2", "--rhs", "ones", "--solver", "nna"]
    assert run(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: exactly one of --matrix or --gen is required\n"


def test_loose_tolerance_flag(tmp_path):
    code = run(
        [
            "solve",
            "--gen", "sparse-random:m=10,offdiag=20,diag-hi=30",
            "--solver", "nna",
            "--tol", "1.0",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    rows = (tmp_path / "nna.csv").read_text().strip().splitlines()
    assert len(rows) <= 25  # loose tolerance stops almost immediately


def test_summary_csv(tmp_path):
    summary = tmp_path / "summary.csv"
    code = run(
        [
            "solve",
            "--gen", "sparse-random:m=10,offdiag=20,diag-hi=30",
            "--solver", "nna",
            "--summary-csv", str(summary),
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    lines = summary.read_text().strip().splitlines()
    assert lines[0] == "solver,status,iterations,final_residual,wall_s,matvecs,t,attempts"
    assert len(lines) == 2
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert int(row["matvecs"]) > int(row["iterations"])  # NNA makes two products per iteration


def test_summary_reports_the_shift_and_attempts(tmp_path, capsys):
    # t and attempts come from the report; solvers that do not shift leave them empty
    summary = tmp_path / "summary.csv"
    code = run(
        [
            "solve",
            "--gen", "sparse-random:m=10,offdiag=20,diag-hi=30",
            "--solver", "nna,general,gmres",
            "--k", "5",
            "--t", "2.5",
            "--summary-csv", str(summary),
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    lines = summary.read_text().strip().splitlines()
    rows = {r["solver"]: r for r in (dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:])}
    assert (rows["nna_t2.5"]["t"], rows["nna_t2.5"]["attempts"]) == ("2.5", "1")
    assert (rows["general_t2.5"]["t"], rows["general_t2.5"]["attempts"]) == ("2.5", "1")
    assert (rows["gmres"]["t"], rows["gmres"]["attempts"]) == ("", "")
    out = capsys.readouterr().out
    assert out.splitlines()[2].split()[-2:] == ["t", "attempts"]


def test_check_identity(tmp_path, capsys):
    mtx = tmp_path / "id.mtx"
    write_matrix_market(sparse_of(np.eye(3)), mtx)
    assert run(["check", str(mtx)]) == 0
    out = capsys.readouterr().out
    assert "strictly_dominant" in out
    assert "symmetric: yes" in out
    assert out.count("yes") >= 6  # every solver guaranteed


def test_check_skew_warns_zero_diagonal(tmp_path, capsys):
    mtx = tmp_path / "skew.mtx"
    write_matrix_market(sparse_of([[0.0, 1.0], [-1.0, 0.0]]), mtx)
    assert run(["check", str(mtx)]) == 0
    out = capsys.readouterr().out
    assert "zero diagonal" in out
    assert "symmetric: no" in out


def test_check_rectangular(tmp_path, capsys):
    mtx = tmp_path / "rect.mtx"
    write_matrix_market(sparse_of(np.ones((2, 3))), mtx)
    assert run(["check", str(mtx)]) == 0
    assert "rectangular" in capsys.readouterr().out


def test_check_rectangular_names_every_solver_that_runs(tmp_path, capsys):
    # 3 x 2: the named solvers solve the file, the others reject it as input
    mtx = tmp_path / "tall.mtx"
    write_matrix_market(sparse_of([[1.0, 2.0], [3.0, 1.0], [1.0, 1.0]]), mtx)
    assert run(["check", str(mtx)]) == 0
    assert "matrix is rectangular; only nna/general/normal-cg apply" in capsys.readouterr().out
    for solver, code in [("nna", 0), ("general", 0), ("normal-cg", 0), ("jacobi", 2), ("gmres", 2)]:
        argv = ["solve", "--matrix", str(mtx), "--rhs", "ones", "--solver", solver, "--k", "2"]
        assert run(argv + ["--out", str(tmp_path)]) == code, solver


def test_inconsistent_nonnegative_system_exits_0_with_its_certificate(tmp_path, capsys):
    # no x solves this 3 x 2 system; nna settles at the minimal-KL point, and
    # the note gives the divergence and the gap that certify it
    rng = np.random.default_rng(6)
    mtx, vec = tmp_path / "m.mtx", tmp_path / "b.txt"
    write_matrix_market(sparse_of(rng.uniform(0.2, 1.0, (3, 2))), mtx)
    vec.write_text(" ".join(f"{v:.17g}" for v in rng.uniform(0.5, 1.5, 3)))
    argv = ["solve", "--matrix", str(mtx), "--rhs", str(vec), "--solver", "nna", "--tol", "1e-12"]
    assert run(argv + ["--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "stagnated_min_kl" in out
    assert "note: certificate at iterate 1444: D = " in out


def test_capped_consistent_system_exits_1(tmp_path, capsys):
    # c06's instance converges slowly: the certificate is checked at each of
    # its 200 iterations, and never fires on a system that has a solution
    argv = ["solve", "--gen", "dense-uniform:m=10", "--solver", "nna", "--t", "10", "--tol", "1e-12"]
    assert run(argv + ["--max-iter", "200", "--out", str(tmp_path)]) == 1
    assert "max_iterations" in capsys.readouterr().out


def test_check_certifies_nonsymmetric_positive_definite(tmp_path, capsys):
    # symmetric part strictly dominant with positive diagonal => PD,
    # so gmres carries a guarantee even though the matrix is nonsymmetric
    dense = np.array([[4.0, 1.0, -0.5], [0.0, 5.0, 0.5], [0.5, -1.0, 3.0]])
    mtx = tmp_path / "pd.mtx"
    write_matrix_market(sparse_of(dense), mtx)
    assert run(["check", str(mtx)]) == 0
    out = capsys.readouterr().out
    assert "symmetric: no" in out
    for line in out.splitlines():
        if line.strip().startswith("gmres"):
            assert "yes" in line


def test_explicit_shift_too_small_is_input_error(tmp_path, capsys):
    inst = gen_sparse_random(6, 12, 20.0, 5)
    mtx = tmp_path / "m.mtx"
    write_matrix_market(inst.A, mtx)
    vec = tmp_path / "b.txt"
    vec.write_text("\n".join(str(-abs(v) - 100.0) for v in inst.b))  # very negative rhs
    code = run(
        ["solve", "--matrix", str(mtx), "--rhs", str(vec), "--solver", "nna", "--t", "0.001", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "not positive" in capsys.readouterr().err


def test_negative_generator_count_is_input_error(tmp_path, capsys):
    code = run(["solve", "--gen", "sparse-random:m=10,offdiag=-5", "--solver", "nna", "--out", str(tmp_path)])
    assert code == 2
    assert "internal error" not in capsys.readouterr().err


def test_an_untyped_solver_exception_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # numpy.linalg.LinAlgError is a ValueError, yet one out of a solver is no
    # input defect: every input is checked before the first solve
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    monkeypatch.setattr(np.linalg, "lstsq", failing)
    argv = ["solve", "--gen", "dense-uniform:m=10", "--solver", "gmres", "--k", "20", "--out", str(tmp_path)]
    assert run(argv) == 3
    assert capsys.readouterr().err == "internal error: LinAlgError: SVD did not converge in Linear Least Squares\n"


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_nonfinite_shift_is_input_error(tmp_path, capsys, t):
    code = run(["solve", "--gen", "dense-uniform:m=3", "--solver", "nna", "--t", t, "--out", str(tmp_path)])
    assert code == 2
    assert "t_shift" in capsys.readouterr().err


@pytest.mark.parametrize("solver", ["nna", "general", "jacobi", "gauss-seidel", "cg", "gmres", "minres", "normal-cg"])
def test_every_solver_runs_once_per_shift_it_takes(tmp_path, solver):
    # symmetric and strictly dominant, so every solver converges; only the
    # shifting solvers run once per --t, the others ignore it
    labels = [f"{solver}_t1", f"{solver}_t2"] if solver in ("nna", "general") else [solver]
    mtx, out, summary = tmp_path / "spd.mtx", tmp_path / "runs", tmp_path / "summary.csv"
    write_matrix_market(sparse_of([[4.0, 1.0, 0.0], [1.0, 5.0, 2.0], [0.0, 2.0, 6.0]]), mtx)
    argv = ["solve", "--matrix", str(mtx), "--rhs", "ones", "--solver", solver, "--k", "4"]
    code = run(argv + ["--t", "1", "--t", "2", "--out", str(out), "--summary-csv", str(summary)])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == [f"{label}.csv" for label in labels]
    rows = summary.read_text().strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == labels
