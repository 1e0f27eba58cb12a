"""Cube-method flight phase for balanced random rounding.

Given a vector pi0 in [0, 1]^M and a q x M balancing matrix A, the flight
phase performs a random walk inside the cube that keeps A @ pi constant at
every step and each coordinate a martingale, ending when the kernel of A
restricted to the still-fractional coordinates is trivial.  At most q
coordinates remain fractional.

A is held by column in compressed form, so a problem costs memory in
proportion to its nonzeros: on the imputation grid two per cell instead of
q.  The walk reads only the few leading fractional columns each step needs,
one step at a time:

1. take the fractional coordinates in ascending index order and read their
   balancing columns one by one, stopping at the first column that depends
   on the ones before it (Gauss-Jordan with partial pivoting);
2. read off the null vector that column defines, which is the first
   kernel-basis vector of the restricted matrix under this ordering;
3. step to whichever box face the null direction hits, choosing the sign with
   the probability that keeps every coordinate a martingale;
4. snap coordinates that reached a face and repeat until the restricted
   kernel is trivial.

Every column before the first dependent one is a pivot, so that column lies
within the first min(q + 1, #fractional) fractional columns: the window of
Chauvet & Tille (2006).  Only the columns up to it are read.  Each column is
reduced by replaying the earlier pivot operations on it (row swap, pivot-row
division, elimination) in the order a batch Gauss-Jordan over the window
would apply them, so the floating-point operations, the first-position
tie-break of partial pivoting and the resulting trajectory are exactly those
of the batch elimination.  A column touches only its nonzero rows; on the
imputation grid that is two, and the dependent column is found within four.

The pivot tolerance is PIVOT_RTOL times the largest |a| over the first
min(q + 1, #fractional) fractional columns.  A candidate above PIVOT_RTOL
times the largest |a| of the whole matrix clears that tolerance whatever the
window holds, so the window maximum is only computed for the rare candidate
below it.

The fractional coordinates are kept in a list in descending index order, so
the window is its tail and the cells a step fixes are dropped in place.  The
walk consumes exactly one pre-drawn uniform per step.

The pivots are carried from one step to the next.  Pivot k depends only on
the ordered window columns 0..k, and a step leaves the columns in front of the
first cell it fixes where they were, so the pivots of those columns still
hold and the next step resumes the elimination at that cell.  The exception
is a pivot accepted only because it clears the window tolerance: the
tolerance reads the whole window, which the step changed, so that pivot and
every one after it are dropped.  Carried or not, each pivot is the one the
batch elimination over the current window would produce.
"""

import math
from dataclasses import InitVar, dataclass

import numpy as np
import numpy.typing as npt

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
    """Starting point pi0 and its balancing matrix by ``columns``.  The
    matrix may be given dense instead, as ``a_matrix`` (q rows, M columns);
    it is converted to ``columns`` and not kept."""

    pi0: npt.NDArray[np.float64]
    a_matrix: InitVar[npt.NDArray[np.float64] | None] = None
    columns: BalanceColumns | None = None

    def __post_init__(self, a_matrix):
        pi0 = np.ascontiguousarray(self.pi0, dtype=np.float64)
        if pi0.ndim != 1:
            raise ValueError("pi0 must be a vector")
        if (a_matrix is None) == (self.columns is None):
            raise ValueError("give exactly one of a_matrix and columns")
        if a_matrix is not None:
            a = np.ascontiguousarray(a_matrix, dtype=np.float64)
            if a.ndim != 2 or a.shape[1] != pi0.shape[0]:
                raise ValueError("a_matrix must be (q, len(pi0))")
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


# dataclass leaves an InitVar's default behind as a class attribute, which
# would read as problem.a_matrix = None
del BalanceProblem.a_matrix


@dataclass(frozen=True)
class FlightResult:
    itilde: npt.NDArray[np.float64]
    fractional: npt.NDArray[np.bool_]
    steps: int

    @property
    def n_fractional(self) -> int:
        return int(self.fractional.sum())


def _swap_rows(col, i, j):
    x_i = col.pop(i, None)
    x_j = col.pop(j, None)
    if x_i is not None:
        col[j] = x_i
    if x_j is not None:
        col[i] = x_j


def flight_phase(problem: BalanceProblem, rng: np.random.Generator) -> FlightResult:
    """Run the flight phase; consumes exactly n_cells uniforms from rng.

    The uniform draws are taken up front so the generator state after the
    call does not depend on the number of steps.  Raises FlightPhaseError
    when a step has a degenerate length or fixes no coordinate.
    """
    eps_int, pivot_rtol, lam_guard = INTEGER_SNAP_TOL, PIVOT_RTOL, DIRECTION_GUARD
    pi = problem.pi0.copy()
    u = rng.random(problem.n_cells)
    a = problem.columns

    pi[np.abs(pi) <= eps_int] = 0.0
    pi[np.abs(pi - 1.0) <= eps_int] = 1.0
    free = np.flatnonzero((pi > 0.0) & (pi < 1.0))[::-1].tolist()
    x_pi = pi.tolist()
    ptr = a.col_ptr.tolist()
    rows = a.row_idx.tolist()
    vals = a.values.tolist()
    clear = pivot_rtol * (float(np.abs(a.values).max()) if a.values.size else 0.0)
    wmax = a.n_rows + 1

    t = 0
    # pivot k: (row swapped into row k, pivot value, the pivot column's
    # entries in the other rows after the swap); carried across steps
    pivots = []
    while free:
        nf = len(free)
        w = wmax if nf > wmax else nf
        tol = -1.0  # the window tolerance, computed on first need
        carry = w  # pivots[carry:] were accepted on the window tolerance
        while True:
            r = len(pivots)
            if r == w:
                break
            c = free[-1 - r]
            col = dict(zip(rows[ptr[c]:ptr[c + 1]], vals[ptr[c]:ptr[c + 1]]))
            for k, (swap, piv, fac) in enumerate(pivots):
                if swap != k:
                    _swap_rows(col, swap, k)
                x = col.get(k)
                if x is not None:
                    x /= piv
                    col[k] = x
                    for i, f in fac:
                        col[i] = col.get(i, 0.0) - f * x

            best = 0.0
            p_row = -1
            for i, x in col.items():
                if i >= r:
                    x = abs(x)
                    if x > best or (x == best and i < p_row):
                        best = x
                        p_row = i
            if best == 0.0:
                break
            if best <= clear:
                if tol < 0.0:
                    tol = pivot_rtol * max(
                        (abs(vals[e]) for k in free[-w:] for e in range(ptr[k], ptr[k + 1])),
                        default=0.0,
                    )
                if best <= tol:
                    break
                if carry > r:
                    carry = r

            if p_row != r:
                _swap_rows(col, p_row, r)
            piv = col.pop(r)
            pivots.append((p_row, piv, list(col.items())))
        if r == w:
            break

        # null vector on window cells free[-1], ..., free[-1 - r]
        direction = [-col.get(k, 0.0) for k in range(r)]
        direction.append(1.0)

        lam1 = math.inf
        lam2 = math.inf
        for j, val in enumerate(direction):
            if val > lam_guard:
                cur = x_pi[free[-1 - j]]
                c1 = (1.0 - cur) / val
                c2 = cur / val
            elif val < -lam_guard:
                cur = x_pi[free[-1 - j]]
                c1 = cur / (-val)
                c2 = (1.0 - cur) / (-val)
            else:
                continue
            if c1 < lam1:
                lam1 = c1
            if c2 < lam2:
                lam2 = c2
        if not (math.isfinite(lam1) and math.isfinite(lam2)) or lam1 <= 0.0 or lam2 <= 0.0:
            raise FlightPhaseError(f"degenerate step length at step {t}")

        # t < n_cells: every earlier step fixed a window cell and dropped it from free
        step = lam1 if u[t] < lam2 / (lam1 + lam2) else -lam2

        fixed = -1  # first window position the step fixes
        for j, val in enumerate(direction):
            if val > lam_guard or val < -lam_guard:
                k = free[-1 - j]
                x = x_pi[k] + step * val
                if abs(x) <= eps_int:
                    x = 0.0
                elif abs(x - 1.0) <= eps_int:
                    x = 1.0
                x_pi[k] = x
                if fixed < 0 and not 0.0 < x < 1.0:
                    fixed = j

        t += 1
        if fixed < 0:
            raise FlightPhaseError(f"no coordinate fixed at step {t}")
        free[-1 - r:] = [k for k in free[-1 - r:] if 0.0 < x_pi[k] < 1.0]
        del pivots[min(fixed, carry):]

    pi[:] = x_pi
    frac = (pi > 0.0) & (pi < 1.0)
    return FlightResult(itilde=pi, fractional=frac, steps=t)
