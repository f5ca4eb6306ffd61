import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import nnasolve.embedding
import nnasolve.nna
from nnasolve import SolverConfig, gen_dense_uniform, general_solve, nna_solve, spmv
from conftest import sparse_of

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _patches():
    # read the PATCHES literal without importing the benchmark (no bytecode is written there)
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PATCHES"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no PATCHES in {TRACER}")


@pytest.mark.parametrize("module, attr, span", _patches())
def test_traced_names_exist(module, attr, span):
    # `perfbench/run.py --trace 1` replaces these names by lookup; a missing one crashes it
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr} ({span})"


def _count_calls(monkeypatch, module, attr):
    calls = []
    fn = getattr(module, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)
    return calls


def test_general_solve_on_a_nonnegative_matrix_calls_nna_solve_by_name(monkeypatch):
    # nna.loop_self_s on dense-c06 and sparse-c07 is the self time of the span
    # that wraps nnasolve.embedding.nna_solve; a J = 0 path that bypassed the
    # name would read 0 there
    calls = _count_calls(monkeypatch, nnasolve.embedding, "nna_solve")
    inst = gen_dense_uniform(10, 0)
    general_solve(inst.A, inst.b, cfg=SolverConfig(t_shift=10.0, max_iter=100))
    assert len(calls) == 1


def test_rescale_runs_once_per_attempt(monkeypatch):
    # nna.attempts counts the calls of nnasolve.nna.rescale; the auto-shift
    # case of test_solve_auto_shift_retries_count_every_attempt makes 5 attempts
    calls = _count_calls(monkeypatch, nnasolve.nna, "rescale")
    A = sparse_of([[1.0, 0.9], [0.9, 1.0]])
    report = nna_solve(A, spmv(A, np.array([3.0, -3.0])))
    assert report.attempts == 5
    assert len(calls) == 5
