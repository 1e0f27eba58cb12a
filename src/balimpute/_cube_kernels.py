"""Flight-phase random walk over a balancing matrix stored by column.

The walk, one step at a time:

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

Status codes: 0 done, 1 degenerate step length, 2 no coordinate fixed,
3 uniforms exhausted.
"""

import math

import numpy as np

FLIGHT_OK = 0
FLIGHT_DEGENERATE = 1
FLIGHT_STALLED = 2
FLIGHT_NO_RANDOMNESS = 3


def _swap_rows(col, i, j):
    x_i = col.pop(i, None)
    x_j = col.pop(j, None)
    if x_i is not None:
        col[j] = x_i
    if x_j is not None:
        col[i] = x_j


def flight(pi, n_rows, col_ptr, row_idx, values, u, eps_int, pivot_rtol,
           lam_guard, history=None):
    """Run the walk on ``pi`` in place; returns (status, steps).

    Column c of the q x M balancing matrix has the nonzeros
    ``values[col_ptr[c]:col_ptr[c + 1]]`` in rows ``row_idx[...]``.  When
    ``history`` is an (M + 1) x M array, row t receives pi after step t.
    """
    pi[np.abs(pi) <= eps_int] = 0.0
    pi[np.abs(pi - 1.0) <= eps_int] = 1.0
    if history is not None:
        history[0] = pi
    free = np.flatnonzero((pi > 0.0) & (pi < 1.0))[::-1].tolist()
    x_pi = pi.tolist()
    ptr = col_ptr.tolist()
    rows = row_idx.tolist()
    vals = values.tolist()
    clear = pivot_rtol * (float(np.abs(values).max()) if values.size else 0.0)
    wmax = n_rows + 1

    t = 0
    status = FLIGHT_OK
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
            status = FLIGHT_DEGENERATE
            break

        if t >= u.shape[0]:
            status = FLIGHT_NO_RANDOMNESS
            break
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
        if history is not None:
            history[t] = x_pi

        if fixed < 0:
            status = FLIGHT_STALLED
            break
        free[-1 - r:] = [k for k in free[-1 - r:] if 0.0 < x_pi[k] < 1.0]
        del pivots[min(fixed, carry):]

    pi[:] = x_pi
    return status, t
