"""Cube-method flight phase for balanced random rounding.

Given a vector pi0 in [0, 1]^M and a q x M balancing matrix A, the flight
phase performs a random walk inside the cube that keeps A @ pi constant at
every step and each coordinate a martingale, ending when the kernel of A
restricted to the still-fractional coordinates is trivial.  At most q
coordinates remain fractional.  Every step moves along a null vector of the
restricted matrix to whichever box face it hits, choosing the sign with the
probability that keeps every coordinate a martingale, snaps coordinates that
reached a face, and consumes one uniform.

A problem states its matrix in one of two ways, and each has its own walk.

**The imputation grid** (``CellGrid``): n_m nonrespondent rows by n_r donor
columns, cell (k, l) starting at psi_l.  The matrix is one balance row
dv_k e_l and one purity row per nonrespondent, so each row is a stratum
with the same psi and e: the highly stratified case of Chauvet (2009),
Stratified balanced sampling, and Hasler & Tille (2014), Fast balanced
sampling for highly stratified population.  Their stratified cube method
runs a flight inside each stratum and then one over the leftovers.  Here
the first has a closed form shared by every row and the second a
closed-form null vector, so no step eliminates:

1. within each row, balance on (1, e_l): the splitting method of Deville &
   Tille (1998), Unequal probability sampling without replacement through
   a splitting method.  Once per grid, psi on its free donors is written
   as a mixture of probability measures with mean ebar = sum_l psi_l e_l:
   a one-point measure at each donor with e_l = ebar, and two-point
   measures pairing the donors below ebar with those above, each side
   taken in index order, by the north-west-corner rule.  Pair (a, b) puts
   x_a = (e_b - ebar) / (e_b - e_a) on a and x_b = 1 - x_a on b, with
   weight min(m_a / x_a, m_b / x_b) in the masses m not yet assigned, and
   the donor it exhausts advances.  The set-up is one pass over the
   donors.  Row k then takes the component the uniform u[k] falls in on
   the cumulative weights, all rows at once.  Against rounding, the
   rounding of ebar is carried in the deviations e_l - ebar, and each
   side's donor farthest from ebar goes last and takes what the other
   side leaves: what rounding strands is then mass t / |e_l - ebar| of
   the smallest size;
2. across the rows left split, each has one free variable t_k = x_ka with
   x_kb = 1 - t_k, and the balance row reads sum_k c_k t_k = const with
   c_k = dv_k (e_a - e_b).  A row with c_k = 0 steps alone along (1, -1);
   the others take the one-constraint flight, the last two rows i, j
   stepping along t_i : t_j = c_j : -c_i.  At most one row stays split.

The walk never holds the n_m x n_r cells: it ends with two donors and
their shares per row, read from the components phase 1 picks and from the
shares phase 2 moves, and every other cell of the row is 0.  It draws each
uniform as it takes the step: n_m for phase 1, then one per step of phase
2, not one per cell.  psi is not snapped to the faces: a donor with psi
within rounding of 0 is a donor like any other, so the walk balances psi
itself.  Only a psi of exactly 1 leaves nothing to walk; every row then
takes that donor whole.

Why this is exact: every component of phase 1 keeps the row sum, 1, and
the row's residual total, ebar, so each row keeps its purity row and its
share dv_k ebar of the balance row whichever component it takes; and the
weights reproduce psi, so E[x_kl] = psi_l.  Phase 1 is thus a flight of
each stratum drawn in one step, not a walk: it ends where the within-row
walk of Chauvet's method can end, on one donor or on two that straddle
ebar.  The null vector of phase 2 is an identity in e, not the output of
an elimination, so no pivot tolerance decides anything and the balance
holds to rounding whatever the residuals.  Each step of phase 2 is a
martingale step in the kernel of the full matrix restricted to the
fractional cells, so the walk is a flight phase of the grid problem: it
keeps the balance row and every row sum, and E[itilde] = pi0.  Phase 1
uses one uniform per row and each step of phase 2 fixes a split row, so
there are at most 2 n_m steps.  A direction entry within DIRECTION_GUARD
of 0, relative to the direction's largest entry, is not moved.  The
trajectory is not the one the general walk below would take for the same
uniforms.

**Any other matrix** (``BalanceColumns``, or a dense ``a_matrix``) is held
by column in compressed form, so a problem costs memory in proportion to
its nonzeros.  Its walk draws exactly one uniform per cell up front, and
reads only the few leading fractional columns each step needs:

1. take the fractional coordinates in ascending index order and read their
   balancing columns one by one, stopping at the first column that depends
   on the ones before it (Gauss-Jordan with partial pivoting);
2. read off the null vector that column defines, which is the first
   kernel-basis vector of the restricted matrix under this ordering;
3. step, snap, and repeat until the restricted kernel is trivial.

Every column before the first dependent one is a pivot, so that column lies
within the first min(q + 1, #fractional) fractional columns: the window of
Chauvet & Tille (2006).  Only the columns up to it are read.  Each column is
reduced by replaying the earlier pivot operations on it (row swap, pivot-row
division, elimination) in the order a batch Gauss-Jordan over the window
would apply them, so the floating-point operations, the first-position
tie-break of partial pivoting and the resulting trajectory are exactly those
of the batch elimination.  A column touches only its nonzero rows.

The pivot tolerance is PIVOT_RTOL times the largest |a| over the first
min(q + 1, #fractional) fractional columns.  A candidate above PIVOT_RTOL
times the largest |a| of the whole matrix clears that tolerance whatever the
window holds, so the window maximum is only computed for the rare candidate
below it.

The fractional coordinates are kept in a list in descending index order, so
the window is its tail and the cells a step fixes are dropped in place.
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
class CellGrid:
    """The n_m x n_r selection grid of balanced imputation by its factors.

    Cell (k, l), in row-major order, starts at the donation weight
    ``psi_row[l]`` of donor l in every nonrespondent row k.  Its balancing
    column holds dv_k e_l (``dv[k] * residuals[l]``) in the shared balance
    row 0 and a 1 in the purity row 1 + k of its nonrespondent row.
    """

    psi_row: npt.NDArray[np.float64]
    residuals: npt.NDArray[np.float64]
    dv: npt.NDArray[np.float64]

    def __post_init__(self):
        for name in ("psi_row", "residuals", "dv"):
            x = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if x.ndim != 1 or not np.all(np.isfinite(x)):
                raise ValueError(f"{name} must be a finite vector")
            object.__setattr__(self, name, x)
        if self.psi_row.shape != self.residuals.shape:
            raise ValueError("psi_row and residuals must have one entry per donor")
        psi = self.psi_row
        # each row holds one unit of donation weight, which the walk splits
        # over at most two donors
        if not (np.all((psi >= 0.0) & (psi <= 1.0)) and abs(psi.sum() - 1.0) <= INTEGER_SNAP_TOL):
            raise ValueError("psi_row must be weights in [0, 1] that sum to 1")

    @property
    def n_rows(self) -> int:
        return self.dv.shape[0]

    @property
    def n_donors(self) -> int:
        return self.residuals.shape[0]

    def columns(self, with_purity_vars: bool = True) -> BalanceColumns:
        """The grid's balancing matrix, two nonzeros per cell (one without
        the purity rows), built by column and never dense."""
        n_m, n_r = self.n_rows, self.n_donors
        m = n_m * n_r
        per = 2 if with_purity_vars else 1  # nonzeros per column
        cells = np.repeat(np.arange(m), per)
        rows = np.zeros(per * m, dtype=np.int64)
        vals = np.ones(per * m)
        vals[0::per] = np.outer(self.dv, self.residuals).ravel()
        if with_purity_vars:
            # column k * n_r + l: row 0 holds its balance entry, row 1 + k a 1
            rows[1::2] = np.repeat(np.arange(1, n_m + 1), n_r)
        return BalanceColumns.from_entries(1 + n_m if with_purity_vars else 1, m, cells,
                                           rows, vals)


@dataclass(frozen=True)
class BalanceProblem:
    """A flight's start and balancing matrix, given as exactly one of
    ``columns``; ``a_matrix``, dense (q rows, M columns), converted to
    ``columns`` and not kept; or ``grid``, the imputation grid, walked by
    rows.  The first two start at ``pi0``; a grid has no pi0, as each of its
    rows starts at the grid's psi_row."""

    pi0: npt.NDArray[np.float64] | None = None
    a_matrix: InitVar[npt.NDArray[np.float64] | None] = None
    columns: BalanceColumns | None = None
    grid: CellGrid | None = None

    def __post_init__(self, a_matrix):
        if (a_matrix is not None) + (self.columns is not None) + (self.grid is not None) != 1:
            raise ValueError("give exactly one of a_matrix, columns and grid")
        if self.grid is not None:
            if self.pi0 is not None:
                raise ValueError("a grid starts at its psi_row: give no pi0")
            return
        if self.pi0 is None:
            raise ValueError("pi0 is required with a_matrix or columns")
        pi0 = np.ascontiguousarray(self.pi0, dtype=np.float64)
        if pi0.ndim != 1:
            raise ValueError("pi0 must be a vector")
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
        if self.grid is not None:
            return self.grid.n_rows * self.grid.n_donors
        return self.pi0.shape[0]

    @property
    def n_constraints(self) -> int:
        return self.columns.n_rows if self.grid is None else 1 + self.grid.n_rows


# dataclass leaves an InitVar's default behind as a class attribute, which
# would read as problem.a_matrix = None
del BalanceProblem.a_matrix


@dataclass(frozen=True)
class FlightResult:
    """Where a flight ended.  On a grid, row by row: row k holds
    ``shares[k]`` at the donors ``donors[k]``, two per row, and 0 in every
    other cell; a pure row holds its donor at share 1 beside a share 0, and
    one-point rows name that donor twice.  On any other problem ``itilde``
    holds every cell."""

    steps: int
    itilde: npt.NDArray[np.float64] | None = None
    donors: npt.NDArray[np.int64] | None = None
    shares: npt.NDArray[np.float64] | None = None

    @property
    def fractional(self) -> npt.NDArray[np.bool_]:
        """Where ``itilde``, or on a grid ``shares``, lies strictly inside (0, 1)."""
        x = self.shares if self.itilde is None else self.itilde
        return (x > 0.0) & (x < 1.0)

    @property
    def n_fractional(self) -> int:
        return int(np.count_nonzero(self.fractional))


def _step(x, window, u, t, guard):
    """One martingale step.  ``window`` holds (cell, x[cell], direction
    entry) triples; the cells move along the direction to the face of the
    unit box it hits going up or going down, going up with the probability
    that keeps every cell a martingale, and are snapped.  Entries within
    ``guard`` of 0 stay put.  Returns the window's cells still fractional,
    in window order.  Raises FlightPhaseError at a degenerate step length or
    when no cell reaches a face."""
    lam1 = lam2 = math.inf
    for _, cur, val in window:
        if val > guard:
            c1 = (1.0 - cur) / val
            c2 = cur / val
        elif val < -guard:
            c1 = cur / (-val)
            c2 = (1.0 - cur) / (-val)
        else:
            continue
        if c1 < lam1:
            lam1 = c1
        if c2 < lam2:
            lam2 = c2
    # neither bound can be NaN or negative: both start at inf and only fall
    if not (0.0 < lam1 < math.inf and 0.0 < lam2 < math.inf):
        raise FlightPhaseError(f"degenerate step length at step {t}")

    step = lam1 if u < lam2 / (lam1 + lam2) else -lam2

    eps_int = INTEGER_SNAP_TOL
    kept = []
    for k, cur, val in window:
        if val > guard or val < -guard:
            cur += step * val
            if abs(cur) <= eps_int:
                cur = 0.0
            elif abs(cur - 1.0) <= eps_int:
                cur = 1.0
            x[k] = cur
        if 0.0 < cur < 1.0:
            kept.append(k)
    if len(kept) == len(window):
        raise FlightPhaseError(f"no coordinate fixed at step {t + 1}")
    return kept


def _snapped(pi: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    pi = pi.copy()
    pi[np.abs(pi) <= INTEGER_SNAP_TOL] = 0.0
    pi[np.abs(pi - 1.0) <= INTEGER_SNAP_TOL] = 1.0
    return pi


def _splitting(psi: npt.NDArray[np.float64], e: npt.NDArray[np.float64]):
    """Phase 1's decomposition of the module docstring: psi on its free
    donors as a mixture of one- and two-point measures, each with
    mean ebar.  Returns, per component, its donors lo and hi, their values
    x_lo and x_hi, and its weight; a one-point component at donor l has
    lo = hi = l, x_lo = 0 and x_hi = 1.  The weights sum to the free mass
    of psi."""
    free = np.flatnonzero((psi > 0.0) & (psi < 1.0))
    m = psi[free]
    if free.size == 0:
        return free, free, m, m, m
    d = e[free] - (m * e[free]).sum() / m.sum()
    # carry the rounding of ebar in d: each pass leaves sum m d at eps times
    # the sum m |d| it started from, so two reach the rounding of the
    # spread of e even when e spans a few ulps of ebar
    for _ in range(2):
        d -= (m * d).sum() / m.sum()
    at = d == 0.0
    if not (d < 0.0).any() or not (d > 0.0).any():  # every e within rounding of ebar
        at[:] = True
    lo = hi = free[at]
    x_lo, x_hi, w = np.zeros(lo.size), np.ones(lo.size), m[at]
    if at.all():
        return lo, hi, x_lo, x_hi, w

    # The north-west-corner rule in deviation mass m |d|: pair (a, b) takes
    # t = min of the two, weight t/|d_a| + t/|d_b| = min(m_a/x_a, m_b/x_b).
    # Each side's largest |d| goes last and takes what the other side
    # leaves, so the rounding left over is mass t/|d| of the smallest size.
    sides = []
    for side in (np.flatnonzero(d < 0.0), np.flatnonzero(d > 0.0)):
        k = int(np.argmax(np.abs(d[side])))
        sides.append(np.append(np.delete(side, k), side[k]))
    below, above = sides
    dev_b, dev_a = (m[below] * -d[below]).tolist(), (m[above] * d[above]).tolist()
    last_b, last_a = below.size - 1, above.size - 1
    i = j = 0
    r_b, r_a = dev_b[0], dev_a[0]
    pairs = []  # (i, j, t)
    while i < last_b or j < last_a:
        if j == last_a or (i < last_b and r_b <= r_a):
            pairs.append((i, j, r_b))
            r_a -= r_b
            i += 1
            r_b = dev_b[i]
        else:
            pairs.append((i, j, r_a))
            r_b -= r_a
            j += 1
            r_a = dev_a[j]
    pairs.append((i, j, max(min(r_b, r_a), 0.0)))  # a last donor may be overdrawn by rounding

    i, j, t = (np.array(v) for v in zip(*pairs))
    a, b = below[i], above[j]
    p, q = -d[a], d[b]
    xa = q / (p + q)
    xb = 1.0 - xa
    # a deviation below the rounding of the other leaves one donor
    one = (xb <= 0.0) | (xb >= 1.0)
    xa[one] = 1.0 - xb[one]
    return (np.concatenate((lo, free[a])), np.concatenate((hi, free[b])),
            np.concatenate((x_lo, xa)), np.concatenate((x_hi, xb)),
            np.concatenate((w, t / p + t / q)))


def _grid_walk(grid: CellGrid, rng: np.random.Generator):
    """The two-phase walk of the module docstring.  Returns each row's two
    donors and their shares, (n_m, 2) each, and the step count; draws one
    uniform per step from rng."""
    guard = DIRECTION_GUARD
    n_m = grid.n_rows
    psi, e = grid.psi_row, grid.residuals
    whole = np.flatnonzero(psi == 1.0)
    if whole.size:  # one donor holds all of psi, and any other entry is rounding
        return np.full((n_m, 2), whole[0]), np.tile([0.0, 1.0], (n_m, 1)), 0
    lo, hi, x_lo, x_hi, w = _splitting(psi, e)

    # phase 1: row k takes component pick[k] with probability w / sum(w)
    cum = np.cumsum(w)
    pick = np.minimum(np.searchsorted(cum, rng.random(n_m) * cum[-1], side="right"),
                      w.size - 1)
    donors = np.column_stack((lo[pick], hi[pick]))
    shares = np.column_stack((x_lo[pick], x_hi[pick]))
    t = n_m

    # phase 2: one constraint, sum_k c_k x_ka, over the split rows; split
    # row i holds its two cells at 2i and 2i + 1 of xs
    rows = np.flatnonzero((shares[:, 0] > 0.0) & (shares[:, 0] < 1.0))
    xs = shares[rows].ravel().tolist()
    c = (grid.dv[rows] * (e[donors[rows, 0]] - e[donors[rows, 1]])).tolist()
    uniform = rng.random
    pairs = []
    for i, c_k in enumerate(c):
        if c_k == 0.0:
            _step(xs, ((2 * i, xs[2 * i], 1.0), (2 * i + 1, xs[2 * i + 1], -1.0)), uniform(),
                  t, guard)
            t += 1
        else:
            pairs.append((2 * i, 2 * i + 1, c_k))
    while len(pairs) > 1:
        (a_i, b_i, c_i), (a_j, b_j, c_j) = pairs[-2:]
        kept = _step(xs, ((a_i, xs[a_i], c_j), (b_i, xs[b_i], -c_j),
                          (a_j, xs[a_j], -c_i), (b_j, xs[b_j], c_i)),
                     uniform(), t, guard * max(abs(c_i), abs(c_j)))
        t += 1
        pairs[-2:] = [p for p in pairs[-2:] if p[0] in kept and p[1] in kept]
    shares[rows] = np.array(xs).reshape(-1, 2)
    return donors, shares, t


def _swap_rows(col, i, j):
    x_i = col.pop(i, None)
    x_j = col.pop(j, None)
    if x_i is not None:
        col[j] = x_i
    if x_j is not None:
        col[i] = x_j


def _column_walk(a: BalanceColumns, pi: npt.NDArray[np.float64],
                 u: list[float]) -> tuple[list[float], int]:
    """The general walk of the module docstring from the snapped start
    ``pi``; returns the end point and the step count."""
    pivot_rtol = PIVOT_RTOL
    free = np.flatnonzero((pi > 0.0) & (pi < 1.0))[::-1].tolist()
    x_pi = pi.tolist()
    ptr = a.col_ptr.tolist()
    rows = a.row_idx.tolist()
    vals = a.values.tolist()
    clear = pivot_rtol * (float(np.abs(a.values).max()) if a.values.size else 0.0)
    wmax = a.n_rows + 1

    t = 0
    while free:
        nf = len(free)
        w = wmax if nf > wmax else nf
        tol = -1.0  # the window tolerance, computed on first need
        # pivot k: (row swapped into row k, pivot value, the pivot column's
        # entries in the other rows after the swap)
        pivots = []
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

            if p_row != r:
                _swap_rows(col, p_row, r)
            piv = col.pop(r)
            pivots.append((p_row, piv, list(col.items())))
        if r == w:
            break

        # null vector on window cells free[-1], ..., free[-1 - r]
        direction = [-col.get(k, 0.0) for k in range(r)]
        direction.append(1.0)
        window = [(k, x_pi[k], d) for k, d in zip(free[-1 - r:], reversed(direction))]
        free[-1 - r:] = _step(x_pi, window, u[t], t, DIRECTION_GUARD)
        t += 1
    return x_pi, t


def flight_phase(problem: BalanceProblem, rng: np.random.Generator) -> FlightResult:
    """Run the flight phase.  Raises FlightPhaseError when a step has a
    degenerate length or fixes no coordinate.

    On a grid the walk draws one uniform per step as it goes: n_m for phase
    1, then one per step of phase 2, so ``steps`` in all and none when one
    donor holds all of psi.  These are the doubles a single draw of that
    many would give.  On any other problem exactly n_cells uniforms are
    drawn up front, so the generator state after the call does not depend
    on the number of steps, which is at most n_cells because every step
    fixes a cell.
    """
    if problem.grid is not None:
        donors, shares, steps = _grid_walk(problem.grid, rng)
        return FlightResult(steps=steps, donors=donors, shares=shares)
    x, steps = _column_walk(problem.columns, _snapped(problem.pi0),
                            rng.random(problem.n_cells).tolist())
    return FlightResult(steps=steps, itilde=np.array(x, dtype=np.float64))
