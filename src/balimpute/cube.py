"""Cube-method flight phase for balanced random rounding.

Given a vector pi0 in [0, 1]^M and balancing constraints A pi = A pi0, the
flight phase performs a random walk inside the cube that keeps A @ pi
constant and each coordinate a martingale, ending when the kernel of A
restricted to the still-fractional coordinates is trivial.  Every step
moves along a null vector of the restricted constraints to whichever box
face it hits, choosing the sign with the probability that keeps every
coordinate a martingale, and sets the coordinate that bounds the step to
that face.

The program builds two kinds of problem: the imputation grid, whose
n_m + 1 constraints the walk reads from their structure without forming A,
and a single balancing row, a (1, M) A.  One walk steps every single
balancing row, the grid's second phase included.

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
   c_k = dv_k (e_a - e_b): one balancing row on (t, c), which the one-row
   walk below takes.  At most one row stays split.

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
ebar.  Each step of phase 2 is a martingale step in the kernel of the full
matrix restricted to the fractional cells, so the walk is a flight phase
of the grid problem: it keeps the balance row and every row sum, and
E[itilde] = pi0.  Phase 1 uses one uniform per row and each step of
phase 2 fixes a split row, so there are at most 2 n_m steps.

**One balancing row** (a (1, M) ``a_matrix``, as ``build_cells`` gives
without purity variables, or phase 2's (t, c)) is walked from its start
itself, one uniform per step.  Each step reads the two lowest fractional
cells c1 < c2, the window of Chauvet & Tille (2006) at q = 1, and takes the
first null vector a Gauss-Jordan elimination of the restricted row gives
under that order:

1. when one fractional cell is left and its a is not 0, the restricted
   kernel is trivial and the walk stops;
2. when a[c1] == 0, c1 is no pivot and steps alone along (1); so does a
   lone last cell with a = 0;
3. otherwise c1 and c2 step along (-a[c2] / a[c1], 1).

The null vector is one ratio of two entries of the row, and a cell steps
alone only when its entry is exactly 0, so no pivot tolerance decides
anything, in either walk, and the balance holds to rounding whatever the
entries.  The cell whose bound sets the step length, the lower one on a
tie, is set to its face; the other moves and is clamped to [0, 1].  So
every step fixes a cell, no tolerance decides which, and a cell that
merely ends near a face, as one that starts near it may, keeps its value:
the walk balances its start to rounding, not a start snapped to the faces.
A direction entry within DIRECTION_GUARD of 0 is not moved.  The
fractional cells are kept in a list in descending index order: each step
pops its window off the tail and puts back the cells it leaves fractional.
"""

import math
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

INTEGER_SNAP_TOL = 1e-9
DIRECTION_GUARD = 1e-14


class FlightPhaseError(RuntimeError):
    pass


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
        if not (np.all((psi >= 0.0) & (psi <= 1.0))
                and abs(psi.sum() - 1.0) <= INTEGER_SNAP_TOL):
            raise ValueError("psi_row must be weights in [0, 1] that sum to 1")

    @property
    def n_rows(self) -> int:
        return self.dv.shape[0]

    @property
    def n_donors(self) -> int:
        return self.residuals.shape[0]


@dataclass(frozen=True)
class BalanceProblem:
    """A flight's start and balancing matrix, given as exactly one of
    ``a_matrix``, one balancing row of M entries as a (1, M) array, walked
    from ``pi0``; or ``grid``, the imputation grid, walked by rows.  A grid
    has no pi0, as each of its rows starts at the grid's psi_row."""

    pi0: npt.NDArray[np.float64] | None = None
    a_matrix: npt.NDArray[np.float64] | None = None
    grid: CellGrid | None = None

    def __post_init__(self):
        if (self.a_matrix is None) == (self.grid is None):
            raise ValueError("give exactly one of a_matrix and grid")
        if self.grid is not None:
            if self.pi0 is not None:
                raise ValueError("a grid starts at its psi_row: give no pi0")
            return
        if self.pi0 is None:
            raise ValueError("pi0 is required with a_matrix")
        pi0 = np.ascontiguousarray(self.pi0, dtype=np.float64)
        if pi0.ndim != 1:
            raise ValueError("pi0 must be a vector")
        a = np.ascontiguousarray(self.a_matrix, dtype=np.float64)
        if a.shape != (1, pi0.shape[0]):
            raise ValueError("a_matrix must be one row of len(pi0) entries, shape (1, M)")
        if not np.all(np.isfinite(a)):
            raise ValueError("balancing matrix has non-finite entries")
        if not np.all((pi0 >= 0.0) & (pi0 <= 1.0)):
            raise ValueError("pi0 entries must lie in [0, 1]")
        object.__setattr__(self, "pi0", pi0)
        object.__setattr__(self, "a_matrix", a)

    @property
    def n_cells(self) -> int:
        if self.grid is not None:
            return self.grid.n_rows * self.grid.n_donors
        return self.pi0.shape[0]

    @property
    def n_constraints(self) -> int:
        return 1 if self.grid is None else 1 + self.grid.n_rows


@dataclass(frozen=True)
class FlightResult:
    """Where a flight ended.  On a grid, row by row: row k holds
    ``shares[k]`` at the donors ``donors[k]``, two per row, and 0 in every
    other cell; a pure row holds its donor at share 1 beside a share 0, and
    one-point rows name that donor twice.  On one balancing row ``itilde``
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

    # phase 2: the one-row walk on the split rows' first shares t_k, under
    # c_k = dv_k (e_a - e_b); the second shares are 1 - t_k
    rows = np.flatnonzero((shares[:, 0] > 0.0) & (shares[:, 0] < 1.0))
    c = grid.dv[rows] * (e[donors[rows, 0]] - e[donors[rows, 1]])
    t, steps = _row_walk(c, shares[rows, 0], rng, n_m)
    shares[rows, 0] = t
    shares[:, 1] = 1.0 - shares[:, 0]
    return donors, shares, steps


def _row_walk(a: npt.NDArray[np.float64], pi: npt.NDArray[np.float64],
              rng: np.random.Generator, t: int = 0) -> tuple[list[float], int]:
    """The one-row walk of the module docstring from ``pi``, its steps
    numbered from ``t``; returns the end point and the number after the
    last step, drawing one uniform per step from rng.  Raises
    FlightPhaseError at a degenerate step length."""
    guard = DIRECTION_GUARD
    a = a.tolist()
    x = pi.tolist()
    # descending, so the two lowest fractional cells are the tail
    free = np.flatnonzero((pi > 0.0) & (pi < 1.0))[::-1].tolist()
    uniform = rng.random
    while free:
        c1 = free.pop()
        if a[c1] == 0.0:
            window = ((c1, 1.0),)  # no pivot: c1 alone is a null vector
        elif not free:
            break
        else:
            c2 = free.pop()
            window = ((c1, -(a[c2] / a[c1])), (c2, 1.0))
        u = uniform()
        # the step's length going up and going down, and the cell and face
        # that set each; the first cell in window order wins a tie
        lam1 = lam2 = math.inf
        for k, val in window:
            cur = x[k]
            if val > guard:
                up, down, face = (1.0 - cur) / val, cur / val, 1.0
            elif val < -guard:
                up, down, face = cur / -val, (1.0 - cur) / -val, 0.0
            else:
                continue
            if up < lam1:
                lam1, hit_up, face_up = up, k, face
            if down < lam2:
                lam2, hit_down, face_down = down, k, 1.0 - face
        # neither bound can be NaN or negative: both start at inf and only fall
        if not (0.0 < lam1 < math.inf and 0.0 < lam2 < math.inf):
            raise FlightPhaseError(f"degenerate step length at step {t}")
        if u < lam2 / (lam1 + lam2):
            step, hit, face = lam1, hit_up, face_up
        else:
            step, hit, face = -lam2, hit_down, face_down
        for k, val in window:
            if val > guard or val < -guard:
                x[k] = min(max(x[k] + step * val, 0.0), 1.0)
        x[hit] = face
        for k, _ in reversed(window):  # back onto the tail, descending
            if 0.0 < x[k] < 1.0:
                free.append(k)
        t += 1
    return x, t


def flight_phase(problem: BalanceProblem, rng: np.random.Generator) -> FlightResult:
    """Run the flight phase.  Raises FlightPhaseError when a step has a
    degenerate length.

    The walk draws one uniform per step as it takes it, so ``steps`` in all:
    on a grid n_m for phase 1, then one per step of phase 2, and none when
    one donor holds all of psi; on one balancing row one per step, at most
    one per cell, as every step fixes a cell.  These are the doubles a single
    draw of that many would give.
    """
    if problem.grid is not None:
        donors, shares, steps = _grid_walk(problem.grid, rng)
        return FlightResult(steps=steps, donors=donors, shares=shares)
    x, steps = _row_walk(problem.a_matrix[0], problem.pi0, rng)
    return FlightResult(steps=steps, itilde=np.array(x, dtype=np.float64))
