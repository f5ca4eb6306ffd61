"""The input checks every entry point makes: shape first, then values.

Each entry point that takes a vector checks its length against the matrix,
rejects a vector that is not 1-D, and rejects NaN and infinity, all through
as_vector; the restart length check and the typed raises of rate_certificate
and nna_step_counted follow.
"""

import numpy as np
import pytest

from nnasolve import (
    DimensionMismatch,
    NegativeInput,
    NonFiniteValue,
    NonPositiveRhs,
    SolveStatus,
    ZeroColumn,
    ZeroDenominator,
    cg_solve,
    embed,
    gauss_seidel_solve,
    general_solve,
    gmres_restarted,
    jacobi_solve,
    minres_solve,
    nna_solve,
    nna_step,
    nna_step_counted,
    normal_equation_solve,
    rate_certificate,
    rescale,
    shift,
)
from conftest import identity, sparse_of

_SPD = sparse_of([[2.0, 1.0], [1.0, 2.0]])  # nonnegative, symmetric, dominant
_MIXED = sparse_of([[2.0, -1.0], [-1.0, 2.0]])  # embeds with two slack columns

# name -> (call taking the vectors by name, the vectors it checks against length 2)
_ENTRY_POINTS = {
    "nna_solve": (lambda b, x0=None: nna_solve(_SPD, b, x0), ("b", "x0")),
    "general_solve": (lambda b, x0=None: general_solve(_MIXED, b, x0), ("b", "x0")),
    "rescale": (lambda b: rescale(_SPD, b), ("b",)),
    "shift": (lambda b: shift(_SPD, b), ("b",)),
    "embed": (lambda b: embed(_MIXED, b), ("b",)),
    "rate_certificate": (lambda x_star: rate_certificate(_SPD, x_star), ("x_star",)),
    "jacobi": (lambda b, x0=None: jacobi_solve(_SPD, b, x0), ("b", "x0")),
    "gauss-seidel": (lambda b, x0=None: gauss_seidel_solve(_SPD, b, x0), ("b", "x0")),
    "cg": (lambda b, x0=None: cg_solve(_SPD, b, x0), ("b", "x0")),
    "gmres": (lambda b, x0=None: gmres_restarted(_SPD, b, x0, k=2), ("b", "x0")),
    "minres": (lambda b, x0=None: minres_solve(_SPD, b, x0, k=2), ("b", "x0")),
    "normal-cg": (lambda b, x0=None: normal_equation_solve(_SPD, b, x0), ("b", "x0")),
}
_GOOD = {"b": [1.0, 1.0], "x_star": [1.0, 1.0]}


def _with(entry, name, value):
    """The call of an entry point with every vector good but name."""
    call, names = _ENTRY_POINTS[entry]
    vectors = {n: _GOOD[n] for n in names if n in _GOOD}
    return lambda: call(**{**vectors, name: value})


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_every_vector_is_checked(entry):
    for name in _ENTRY_POINTS[entry][1]:
        with pytest.raises(DimensionMismatch, match=f"^{name} has length 3, expected 2$"):
            _with(entry, name, [1.0, 1.0, 1.0])()
        with pytest.raises(DimensionMismatch, match=f"^{name} must be 1-D"):
            _with(entry, name, [[1.0, 1.0]])()
        with pytest.raises(NonFiniteValue, match=f"^{name} contains NaN"):
            _with(entry, name, [1.0, np.nan])()


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_shape_is_checked_before_values(entry):
    for name in _ENTRY_POINTS[entry][1]:
        with pytest.raises(DimensionMismatch, match=f"^{name} has length 3"):
            _with(entry, name, [np.nan, 1.0, 1.0])()


@pytest.mark.parametrize("solve", [gmres_restarted, minres_solve], ids=["gmres", "minres"])
def test_restart_length_below_one_is_rejected(solve):
    with pytest.raises(DimensionMismatch, match="^restart length k must be >= 1$"):
        solve(_SPD, _GOOD["b"], k=0)


def test_nna_checks_x0_before_its_setup_can_break_down():
    # row 1 is empty and b_1 < 0, so no shift clears it: a breakdown report,
    # but only once the shapes are right
    A = sparse_of([[1.0, 1.0], [0.0, 0.0]])
    report = nna_solve(A, [1.0, -1.0])
    assert report.status is SolveStatus.BREAKDOWN and report.diagnostic.startswith("UnshiftableRow")
    with pytest.raises(DimensionMismatch, match="^x0 has length 3, expected 2$"):
        nna_solve(A, [1.0, -1.0], x0=[1.0, 1.0, 1.0])


def test_rate_certificate_typed_raises():
    with pytest.raises(DimensionMismatch, match="requires a square matrix"):
        rate_certificate(sparse_of([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]), [1.0, 1.0])
    with pytest.raises(ZeroColumn) as err:
        rate_certificate(sparse_of([[1.0, 0.0], [1.0, 0.0]]), [1.0, 1.0])
    assert err.value.column == 1
    with pytest.raises(NonPositiveRhs, match="positive total mass"):
        rate_certificate(identity(2), [0.0, 0.0])
    # A x* = (1, -0.5) has positive mass, but x* itself does not stay positive
    with pytest.raises(NegativeInput, match="rescaled x_star must be strictly positive"):
        rate_certificate(identity(2), [1.0, -0.5])


def test_counted_step_raises_zero_denominator_on_the_same_row():
    system = rescale(sparse_of([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), [1.0, 1.0, 1.0])
    x = np.array([0.5, 0.0, 0.5])  # row 1 of M x is 0
    with pytest.raises(ZeroDenominator) as plain:
        nna_step(system, x)
    with pytest.raises(ZeroDenominator) as counted:
        nna_step_counted(system, x)
    assert plain.value.row == counted.value.row == 1
