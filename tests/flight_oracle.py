"""Reference implementations the flight phase is checked against.

``_flight_numpy`` is the dense-matrix flight kernel for any q x M balancing
matrix: it copies the q + 1 window of the matrix and runs a batch
Gauss-Jordan elimination on it every step, and reports how it ended by one
of the status codes below.  The package steps one balancing row only, both
on a (1, M) matrix and in the grid walk's second phase, and must reproduce
``_flight_numpy`` at q = 1 and ``pivot_rtol = 0`` bit for bit.  Like the
package walk, it starts at pi itself, sets the cell whose bound sets the
step length (the first in window order on a tie) to its face, and clamps
every other moved cell to [0, 1].  ``grid_cells`` expands the row-sparse
end point of a grid walk or donor selection for the tests that read cells.
"""

import numpy as np

FLIGHT_OK = 0
FLIGHT_DEGENERATE = 1
FLIGHT_NO_RANDOMNESS = 3


def grid_cells(donors, shares, n_donors):
    """The n_m x n_donors cells of a row-sparse selection: row k holds
    ``shares[k, j]`` at column ``donors[k, j]`` and 0 elsewhere."""
    n_m, width = donors.shape
    x = np.zeros((n_m, n_donors))
    np.add.at(x, (np.repeat(np.arange(n_m), width), donors.ravel()), shares.ravel())
    return x


def _flight_numpy(pi, a, u, pivot_rtol, lam_guard, record, history):
    q, m = a.shape

    free = np.flatnonzero((pi > 0.0) & (pi < 1.0)).astype(np.int64)

    if record:
        history[0] = pi

    wmax = q + 1
    t = 0
    while free.size > 0:
        w = min(wmax, free.size)
        window = free[:w]
        w_mat = a[:, window].copy()

        amax = np.abs(w_mat).max() if w_mat.size else 0.0
        tol = pivot_rtol * amax

        jd = -1
        r = 0
        piv_col = np.empty(q, dtype=np.int64)
        for j in range(w):
            col = np.abs(w_mat[r:, j])
            p_rel = int(col.argmax()) if col.size else -1
            if p_rel < 0 or col[p_rel] <= tol:
                jd = j
                break
            p_row = r + p_rel
            if p_row != r:
                w_mat[[p_row, r]] = w_mat[[r, p_row]]
            w_mat[r] /= w_mat[r, j]
            fac = w_mat[:, j].copy()
            fac[r] = 0.0
            w_mat -= np.outer(fac, w_mat[r])
            piv_col[r] = j
            r += 1
        if jd < 0:
            return FLIGHT_OK, t

        vwin = np.zeros(w)
        vwin[jd] = 1.0
        if r > 0:
            vwin[piv_col[:r]] = -w_mat[:r, jd]

        sup = np.abs(vwin) > lam_guard
        vals = vwin[sup]
        cur = pi[window[sup]]
        up = np.where(vals > 0.0, (1.0 - cur) / vals, cur / (-vals))
        dn = np.where(vals > 0.0, cur / vals, (1.0 - cur) / (-vals))
        lam1 = up.min() if up.size else np.inf
        lam2 = dn.min() if dn.size else np.inf
        if not (np.isfinite(lam1) and np.isfinite(lam2)) or lam1 <= 0.0 or lam2 <= 0.0:
            return FLIGHT_DEGENERATE, t

        if t >= u.shape[0]:
            return FLIGHT_NO_RANDOMNESS, t
        if u[t] < lam2 / (lam1 + lam2):
            step, hit = lam1, int(up.argmin())
            face = 1.0 if vals[hit] > 0.0 else 0.0
        else:
            step, hit = -lam2, int(dn.argmin())
            face = 0.0 if vals[hit] > 0.0 else 1.0

        kidx = window[sup]
        x = np.clip(pi[kidx] + step * vals, 0.0, 1.0)
        x[hit] = face
        pi[kidx] = x

        t += 1
        if record:
            history[t] = pi

        free = free[(pi[free] > 0.0) & (pi[free] < 1.0)]

    return FLIGHT_OK, t
