"""The compressed-column flight phase against the dense reference kernel.

For a given problem and uniforms the two must agree bit for bit: the same
final itilde and the same step count, with the reference ending normally.
"""

from dataclasses import replace

import numpy as np
import pytest
from flight_oracle import FLIGHT_OK, _flight_numpy, dense, kernel_basis
from test_cube import random_problem

from balimpute.cube import (
    DIRECTION_GUARD,
    INTEGER_SNAP_TOL,
    PIVOT_RTOL,
    BalanceProblem,
    flight_phase,
)
from balimpute.imputation import build_cells
from balimpute.regression import fit_model


def assert_same_walk(problem, seed):
    """Run flight_phase on default_rng(seed) and the oracle on the uniforms
    it draws; require the oracle to end FLIGHT_OK with the same steps and
    itilde.  Returns the steps."""
    res = flight_phase(problem, np.random.default_rng(seed))
    u = np.random.default_rng(seed).random(problem.n_cells)
    pi_ref = problem.pi0.copy()
    ref = _flight_numpy(pi_ref, dense(problem.columns), u, INTEGER_SNAP_TOL, PIVOT_RTOL,
                        DIRECTION_GUARD, False, np.empty((1, 1)))
    assert ref == (FLIGHT_OK, res.steps), seed
    assert np.array_equal(res.itilde, pi_ref), seed
    return res.steps


def grid_problem(n_m, n_r, seed, with_purity_vars=True, residuals=None):
    """ebri cell grid of an n_m x n_r sample, checked against the dense
    balancing matrix built row by row.  With purity variables the problem
    is returned with that dense matrix, so the general kernel walks it."""
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
    problem = build_cells(fit.omega_tilde[respond], e, dv, with_purity_vars=with_purity_vars)
    a = np.zeros((1 + n_m if with_purity_vars else 1, n_m * n_r))
    a[0] = np.outer(dv, e).ravel()
    if with_purity_vars:
        for k in range(n_m):
            a[1 + k, k * n_r:(k + 1) * n_r] = 1.0
    if with_purity_vars:
        np.testing.assert_array_equal(dense(problem.grid.columns()), a)
        # the general kernel on the grid's matrix, not the grid walk
        return BalanceProblem(pi0=np.tile(problem.grid.psi_row, n_m), a_matrix=a)
    np.testing.assert_array_equal(dense(problem.columns), a)
    return problem


def test_random_problems_match_oracle():
    for seed in range(200):
        rng = np.random.default_rng(600 + seed)
        problem = random_problem(rng)
        if seed % 3:
            a = dense(problem.columns)
            if seed % 3 == 1:
                a[rng.random(a.shape) < 0.35] = 0.0
            else:
                # small integers: pivot candidates tie in |a|, so the
                # first-position tie-break decides
                a = rng.integers(-2, 3, size=a.shape).astype(float)
            problem = BalanceProblem(pi0=problem.pi0, a_matrix=a)
        assert_same_walk(problem, seed)


def test_tiny_pivots_match_oracle():
    # columns scaled down to, and past, PIVOT_RTOL of the largest entry, so
    # pivot candidates fall into the band where the window maximum decides
    for seed in range(150):
        rng = np.random.default_rng(900 + seed)
        m = int(rng.integers(4, 20))
        q = int(rng.integers(1, 5))
        scale = 10.0 ** rng.choice([0, -9, -10, -11, -20], size=m)
        a = rng.standard_normal((q, m)) * scale
        a[rng.random((q, m)) < 0.2] = 0.0
        pi0 = rng.uniform(0.05, 0.95, size=m)
        assert_same_walk(BalanceProblem(pi0=pi0, a_matrix=a), seed)


@pytest.mark.parametrize("n", [25, 50])
def test_purity_grid_matches_oracle(n):
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
    problem = grid_problem(30, 30, seed=3, with_purity_vars=False)
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


# --- kernel_basis, the restricted null space the window argument rests on --


def test_kernel_basis_annihilates_and_spans():
    for seed in range(40):
        rng = np.random.default_rng(200 + seed)
        p = int(rng.integers(2, 7))
        q = int(rng.integers(1, p + 1))
        a = rng.standard_normal((q, p))
        ncols = int(rng.integers(1, p + 1))
        cols = np.sort(rng.choice(p, size=ncols, replace=False))
        basis = kernel_basis(a, cols)
        expected_dim = ncols - np.linalg.matrix_rank(a[:, cols])
        assert len(basis) == expected_dim
        for v in basis:
            assert np.max(np.abs(a @ v)) < 1e-10 * max(1.0, np.max(np.abs(a)))
            # support stays inside the allowed columns
            outside = np.delete(np.arange(p), cols)
            assert np.all(v[outside] == 0.0)


def test_kernel_basis_first_vector_window():
    # with q independent rows, every column before the first dependent one is
    # a pivot, so the first basis vector only touches the first q+1 columns
    for seed in range(30):
        rng = np.random.default_rng(300 + seed)
        q = int(rng.integers(1, 4))
        p = q + int(rng.integers(1, 5))
        a = rng.standard_normal((q, p))
        cols = np.arange(p)
        basis = kernel_basis(a, cols)
        assert len(basis) == p - q
        first = basis[0]
        assert np.all(first[q + 1:] == 0.0)


def test_kernel_basis_rejects_duplicates():
    a = np.ones((1, 3))
    with pytest.raises(ValueError):
        kernel_basis(a, np.array([0, 0]))
    with pytest.raises(ValueError):
        kernel_basis(a, np.array([0, 5]))
