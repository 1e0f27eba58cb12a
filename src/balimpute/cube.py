"""Cube-method flight phase for balanced random rounding.

Given a vector pi0 in [0, 1]^M and a q x M balancing matrix A, the flight
phase performs a random walk inside the cube that keeps A @ pi constant at
every step and each coordinate a martingale, ending when the kernel of A
restricted to the still-fractional coordinates is trivial.  At most q
coordinates remain fractional.

A is held by column in compressed form, so a problem costs memory in
proportion to its nonzeros: on the imputation grid two per cell instead of
q.  One pure-Python kernel (``_cube_kernels.flight``) walks it, reading only
the few leading fractional columns each step needs.
"""

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from ._cube_kernels import (
    FLIGHT_DEGENERATE,
    FLIGHT_NO_RANDOMNESS,
    FLIGHT_OK,
    FLIGHT_STALLED,
    flight,
)

INTEGER_SNAP_TOL = 1e-9
PIVOT_RTOL = 1e-10
DIRECTION_GUARD = 1e-14


class FlightPhaseError(RuntimeError):
    pass


@dataclass(frozen=True)
class BalanceColumns:
    """A q x M matrix by column: column c has the nonzeros
    ``values[col_ptr[c]:col_ptr[c + 1]]`` in rows ``row_idx[...]``, rows
    ascending."""

    n_rows: int
    col_ptr: npt.NDArray[np.int64]
    row_idx: npt.NDArray[np.int64]
    values: npt.NDArray[np.float64]

    @property
    def n_cols(self) -> int:
        return self.col_ptr.shape[0] - 1

    @classmethod
    def from_entries(cls, n_rows: int, n_cols: int, cols, rows, values) -> "BalanceColumns":
        """From entries sorted by column, then row; zero entries are dropped."""
        cols = np.asarray(cols, dtype=np.int64)
        rows = np.asarray(rows, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not cols.shape == rows.shape == values.shape or cols.ndim != 1:
            raise ValueError("cols, rows and values must be vectors of one length")
        if not np.all(np.isfinite(values)):
            raise ValueError("balancing matrix has non-finite entries")
        if cols.size and (cols.min() < 0 or cols.max() >= n_cols
                          or rows.min() < 0 or rows.max() >= n_rows):
            raise ValueError("entry index out of range")
        if np.any(np.diff(cols * n_rows + rows) <= 0):
            raise ValueError("entries must be sorted by column, then row, without repeats")
        nz = values != 0.0
        if not nz.all():
            cols, rows, values = cols[nz], rows[nz], values[nz]
        col_ptr = np.zeros(n_cols + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=n_cols), out=col_ptr[1:])
        return cls(int(n_rows), col_ptr, rows, values)

    @classmethod
    def from_dense(cls, a: npt.NDArray[np.float64]) -> "BalanceColumns":
        """The nonzeros of a dense q x M array."""
        cols, rows = np.nonzero(a.T)
        return cls.from_entries(a.shape[0], a.shape[1], cols, rows, a[rows, cols])


@dataclass(frozen=True)
class BalanceProblem:
    """Starting point pi0 and its balancing matrix, given either dense as
    ``a_matrix`` (q rows, M columns; converted, and kept as given) or as
    ``columns``."""

    pi0: npt.NDArray[np.float64]
    a_matrix: npt.NDArray[np.float64] | None = None
    columns: BalanceColumns | None = None

    def __post_init__(self):
        pi0 = np.ascontiguousarray(self.pi0, dtype=np.float64)
        if pi0.ndim != 1:
            raise ValueError("pi0 must be a vector")
        if (self.a_matrix is None) == (self.columns is None):
            raise ValueError("give exactly one of a_matrix and columns")
        if self.a_matrix is not None:
            a = np.ascontiguousarray(self.a_matrix, dtype=np.float64)
            if a.ndim != 2 or a.shape[1] != pi0.shape[0]:
                raise ValueError("a_matrix must be (q, len(pi0))")
            object.__setattr__(self, "a_matrix", a)
            object.__setattr__(self, "columns", BalanceColumns.from_dense(a))
        elif self.columns.n_cols != pi0.shape[0]:
            raise ValueError("columns must number len(pi0)")
        if not np.all((pi0 >= 0.0) & (pi0 <= 1.0)):
            raise ValueError("pi0 entries must lie in [0, 1]")
        object.__setattr__(self, "pi0", pi0)

    @property
    def n_cells(self) -> int:
        return self.pi0.shape[0]

    @property
    def n_constraints(self) -> int:
        return self.columns.n_rows


@dataclass(frozen=True)
class FlightResult:
    itilde: npt.NDArray[np.float64]
    fractional: npt.NDArray[np.bool_]
    steps: int

    @property
    def n_fractional(self) -> int:
        return int(self.fractional.sum())


def flight_phase(problem: BalanceProblem, rng: np.random.Generator) -> FlightResult:
    """Run the flight phase; consumes exactly n_cells uniforms from rng.

    The uniform draws are taken up front so the generator state after the
    call does not depend on the number of steps.
    """
    pi = problem.pi0.copy()
    u = rng.random(problem.n_cells)
    cols = problem.columns
    status, steps = flight(
        pi, cols.n_rows, cols.col_ptr, cols.row_idx, cols.values, u,
        INTEGER_SNAP_TOL, PIVOT_RTOL, DIRECTION_GUARD,
    )
    if status == FLIGHT_DEGENERATE:
        raise FlightPhaseError(f"degenerate step length at step {steps}")
    if status == FLIGHT_STALLED:
        raise FlightPhaseError(f"no coordinate fixed at step {steps}")
    if status == FLIGHT_NO_RANDOMNESS:
        raise FlightPhaseError("uniform budget exhausted")
    assert status == FLIGHT_OK
    frac = (pi > 0.0) & (pi < 1.0)
    return FlightResult(itilde=pi, fractional=frac, steps=int(steps))
