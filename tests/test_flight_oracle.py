"""The one-row flight phase against the dense reference kernel.

For a given problem and uniforms the two must agree bit for bit: the same
final itilde and the same step count, with the reference ending normally.
The grid walk's second phase steps one balancing row too, and must agree
with the reference on it.
"""

from dataclasses import replace

import numpy as np
import pytest
from flight_oracle import FLIGHT_OK, _flight_numpy
from test_cube import random_problem
from test_grid_walk import random_grid

from balimpute import cube
from balimpute.cube import DIRECTION_GUARD, BalanceProblem, flight_phase
from balimpute.imputation import build_cells
from balimpute.regression import fit_model


def assert_same_walk(problem, seed):
    """Run flight_phase on default_rng(seed) and the oracle on the uniforms
    it draws; require the oracle to end FLIGHT_OK with the same steps and
    itilde.  Returns the steps."""
    res = flight_phase(problem, np.random.default_rng(seed))
    u = np.random.default_rng(seed).random(problem.n_cells)
    pi_ref = problem.pi0.copy()
    ref = _flight_numpy(pi_ref, problem.a_matrix, u, 0.0, DIRECTION_GUARD, False,
                        np.empty((1, 1)))
    assert ref == (FLIGHT_OK, res.steps), seed
    assert np.array_equal(res.itilde, pi_ref), seed
    return res.steps


def grid_problem(n_m, n_r, seed, residuals=None):
    """ebri cell grid of an n_m x n_r sample without purity variables, its
    balance row checked against dv_k e_l built cell by cell."""
    rng = np.random.default_rng(seed)
    n = n_m + n_r
    z1 = rng.gamma(2.0, 5.0, size=n)
    y = 2.0 * z1 + np.sqrt(z1) * rng.standard_normal(n)
    respond = np.zeros(n, dtype=bool)
    respond[rng.permutation(n)[:n_r]] = True
    fit = fit_model(z1[:, None], np.where(respond, y, np.nan), z1, respond, 10 * n)
    if residuals is not None:
        fit = replace(fit, residuals=residuals(fit.residuals.copy(), respond))
    d = 1.0 + rng.random(n)
    dv = d[~respond] * np.sqrt(z1[~respond])
    e = fit.residuals[respond]
    problem = build_cells(fit.omega_tilde[respond], e, dv, with_purity_vars=False)
    a = np.zeros((1, n_m * n_r))
    for k in range(n_m):
        for col in range(n_r):
            a[0, k * n_r + col] = dv[k] * e[col]
    np.testing.assert_array_equal(problem.a_matrix, a)
    np.testing.assert_array_equal(problem.pi0, np.tile(fit.omega_tilde[respond], n_m))
    return problem


def test_random_problems_match_oracle():
    for seed in range(200):
        rng = np.random.default_rng(600 + seed)
        problem = random_problem(rng)
        if seed % 3:
            a = problem.a_matrix.copy()
            if seed % 3 == 1:
                a[rng.random(a.shape) < 0.35] = 0.0
            else:
                # small integers: pivot candidates tie in |a|, so the
                # first-position tie-break decides
                a = rng.integers(-2, 3, size=a.shape).astype(float)
            problem = BalanceProblem(pi0=problem.pi0, a_matrix=a)
        assert_same_walk(problem, seed)


def test_tiny_pivots_match_oracle():
    # columns scaled down by up to 10^20: an entry far below the largest
    # still pivots, and only an entry of exactly 0 steps alone
    for seed in range(150):
        rng = np.random.default_rng(900 + seed)
        m = int(rng.integers(4, 20))
        scale = 10.0 ** rng.choice([0, -9, -10, -11, -20], size=m)
        a = rng.standard_normal((1, m)) * scale
        a[rng.random((1, m)) < 0.2] = 0.0
        pi0 = rng.uniform(0.05, 0.95, size=m)
        assert_same_walk(BalanceProblem(pi0=pi0, a_matrix=a), seed)


@pytest.mark.parametrize("n", [25, 50])
def test_square_grid_matches_oracle(n):
    problem = grid_problem(n, n, seed=n)
    assert assert_same_walk(problem, seed=7) > n * n - 2 * n


@pytest.mark.parametrize("n_m, n_r", [(25, 75), (10, 90)])
def test_rectangular_grid_matches_oracle(n_m, n_r):
    # the grid shapes of the Monte Carlo workloads (n = 100 at 75% and 90%
    # response)
    problem = grid_problem(n_m, n_r, seed=n_m)
    for seed in range(3):
        assert assert_same_walk(problem, seed) > n_m * n_r - 2 * n_m


def test_grid_without_purity_matches_oracle():
    problem = grid_problem(30, 30, seed=3)
    assert_same_walk(problem, seed=8)


def test_zero_and_tied_residuals_match_oracle():
    def edit(res, respond):
        donors = np.flatnonzero(respond)
        res[donors[4]] = 0.0
        res[donors[10:16]] = res[donors[9]]
        return res

    problem = grid_problem(20, 24, seed=11, residuals=edit)
    for seed in range(4):
        assert_same_walk(problem, seed)


def test_grids_balance_unsnapped_start():
    # Dirichlet(0.3) donation weights put some psi within 1e-9 of
    # 0 or 1, where a snapped start or a snap of a cell the step does not take
    # to its face would break the balance of pi0 by up to that much
    rng = np.random.default_rng(94)
    for case in range(900):
        n_m = int(rng.integers(1, 7))
        n_r = int(rng.integers(1, 10))
        psi_row = rng.dirichlet(np.full(n_r, 0.3))
        problem = build_cells(psi_row, rng.standard_normal(n_r), rng.uniform(1.0, 9.0, n_m),
                              with_purity_vars=False)
        assert_same_walk(problem, case)
        a = problem.a_matrix[0]
        x = flight_phase(problem, np.random.default_rng(case)).itilde
        scale = max(np.abs(a) @ problem.pi0, 1e-300)
        assert abs(a @ x - a @ problem.pi0) <= 1e-12 * scale, case


def test_grid_phase_2_matches_oracle():
    # phase 1 replayed from _splitting and the first n_m uniforms; phase 2
    # must be the reference walk on the split rows' first shares t and
    # c = dv (e_a - e_b), fed the uniforms after those
    rng = np.random.default_rng(98)
    for case in range(300):
        n_m = int(rng.integers(1, 31))
        n_r = int(rng.integers(2, 31))
        problem = build_cells(*random_grid(rng, n_m, n_r, ties=case % 2 == 1))
        g = problem.grid
        res = flight_phase(problem, np.random.default_rng(case))
        u = np.random.default_rng(case).random(2 * n_m)
        lo, hi, x_lo, _, w = cube._splitting(g.psi_row, g.residuals)
        cum = np.cumsum(w)
        pick = np.minimum(np.searchsorted(cum, u[:n_m] * cum[-1], side="right"), w.size - 1)
        assert np.array_equal(res.donors, np.column_stack((lo[pick], hi[pick]))), case
        t = x_lo[pick]
        rows = np.flatnonzero((t > 0.0) & (t < 1.0))
        c = g.dv[rows] * (g.residuals[lo[pick[rows]]] - g.residuals[hi[pick[rows]]])
        t_ref = t[rows]
        ref = _flight_numpy(t_ref, c[None, :], u[n_m:], 0.0, DIRECTION_GUARD, False,
                            np.empty((1, 1)))
        assert ref == (FLIGHT_OK, res.steps - n_m), case
        t[rows] = t_ref
        assert np.array_equal(res.shares, np.column_stack((t, 1.0 - t))), case
