import numpy as np
import pytest

from nnasolve import write_matrix_market, gen_sparse_random
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


def test_env_default_tolerance(tmp_path, monkeypatch):
    monkeypatch.setenv("NNA_DEFAULT_TOL", "1.0")
    code = run(
        [
            "solve",
            "--gen", "sparse-random:m=10,offdiag=20,diag-hi=30",
            "--solver", "nna",
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
