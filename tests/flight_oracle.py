"""Reference implementations the flight phase is checked against.

``_flight_numpy`` is the dense-matrix flight kernel the package shipped
before the compressed-column walk of ``balimpute.cube.flight_phase``: it
copies the q + 1 window of the dense balancing matrix and runs a batch
Gauss-Jordan elimination on it every step, and reports how it ended by one
of the status codes below.  ``kernel_basis`` is the full restricted
null-space basis by the same elimination.  Both are kept verbatim as
oracles: ``flight_phase`` must reproduce ``_flight_numpy`` bit for bit, and
the window argument it relies on is checked against ``kernel_basis``.
``dense`` expands a compressed-column matrix for them.
"""

import numpy as np
import numpy.typing as npt

FLIGHT_OK = 0
FLIGHT_DEGENERATE = 1
FLIGHT_STALLED = 2
FLIGHT_NO_RANDOMNESS = 3

PIVOT_RTOL = 1e-10


def dense(columns):
    """The q x M matrix a BalanceColumns holds."""
    a = np.zeros((columns.n_rows, columns.n_cols))
    owner = np.repeat(np.arange(columns.n_cols), np.diff(columns.col_ptr))
    a[columns.row_idx, owner] = columns.values
    return a


def _flight_numpy(pi, a, u, eps_int, pivot_rtol, lam_guard, record, history):
    q, m = a.shape

    near0 = np.abs(pi) <= eps_int
    near1 = np.abs(pi - 1.0) <= eps_int
    pi[near0] = 0.0
    pi[near1] = 1.0

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
        step = lam1 if u[t] < lam2 / (lam1 + lam2) else -lam2

        kidx = window[sup]
        x = pi[kidx] + step * vals
        x[np.abs(x) <= eps_int] = 0.0
        x[np.abs(x - 1.0) <= eps_int] = 1.0
        pi[kidx] = x

        t += 1
        if record:
            history[t] = pi

        keep = (pi[free] > 0.0) & (pi[free] < 1.0)
        if keep.all():
            return FLIGHT_STALLED, t
        free = free[keep]

    return FLIGHT_OK, t


def kernel_basis(
    a: npt.NDArray[np.float64], cols: npt.NDArray[np.int64] | list[int]
) -> list[npt.NDArray[np.float64]]:
    """Basis of the null space of ``a`` restricted to the given columns.

    Returns vectors of full length ``a.shape[1]`` that are zero outside
    ``cols`` and satisfy ``a @ v = 0``.  Column ordering is deterministic:
    basis vectors are indexed by the free (non-pivot) columns of the
    restricted matrix in ascending column order, so repeated calls on the
    same input give the same list.  Empty list iff the restricted kernel is
    trivial.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    q, p = a.shape
    cols = np.asarray(cols, dtype=np.int64)
    if cols.size == 0:
        return []
    if cols.min() < 0 or cols.max() >= p:
        raise ValueError("column index out of range")
    if np.unique(cols).size != cols.size:
        raise ValueError("duplicate column indices")
    cols = np.sort(cols)

    w = a[:, cols].copy()
    c = cols.size
    tol = PIVOT_RTOL * np.abs(w).max() if w.size else 0.0

    # Gauss-Jordan with partial pivoting; pivot rows normalized, eliminated
    # above and below, so dependent columns read off their coefficients
    # directly against the pivot columns.
    piv_col = []
    free_col = []
    r = 0
    for j in range(c):
        p_row = -1
        best = tol
        for i in range(r, q):
            if abs(w[i, j]) > best:
                best = abs(w[i, j])
                p_row = i
        if p_row < 0:
            free_col.append(j)
            continue
        if p_row != r:
            w[[p_row, r]] = w[[r, p_row]]
        w[r] /= w[r, j]
        fac = w[:, j].copy()
        fac[r] = 0.0
        w -= np.outer(fac, w[r])
        piv_col.append(j)
        r += 1

    basis = []
    for j in free_col:
        v = np.zeros(p)
        v[cols[j]] = 1.0
        for rr, pc in enumerate(piv_col):
            v[cols[pc]] = -w[rr, j]
        basis.append(v)
    return basis
