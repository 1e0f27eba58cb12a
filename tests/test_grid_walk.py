"""The stratified walk ``flight_phase`` takes on the problems ``build_cells``
returns: its law and the invariants that define balanced imputation.

These tests check what any flight phase of the grid must satisfy: every
cell a martingale, the balance row exact, unit row sums and at most one
split row.  ``tests/test_flight_oracle.py`` checks its second phase against
the reference kernel.
"""

import numpy as np
import pytest
from flight_oracle import grid_cells, one_row_problem

from balimpute import cube
from balimpute.cube import CellGrid, FlightPhaseError, flight_phase
from balimpute.imputation import build_cells


def random_grid(rng, n_m, n_r, ties=False):
    psi_row = rng.dirichlet(np.ones(n_r) * 2)
    residuals = rng.standard_normal(n_r)
    if ties and n_r > 2:
        residuals[rng.integers(n_r)] = 0.0
        tied = rng.choice(n_r, size=n_r // 2, replace=False)
        residuals[tied] = residuals[tied[0]]
    dv = rng.uniform(1.0, 9.0, n_m)
    return psi_row, residuals, dv


def check_invariants(g, res):
    """Exact balance, unit row sums, at most one split row, and that split
    between two donors; returns the split row count."""
    n_m, n_r = g.n_rows, g.n_donors
    pi0 = np.tile(g.psi_row, n_m)
    itilde = grid_cells(res.donors, res.shares, n_r).ravel()
    a0 = np.outer(g.dv, g.residuals).ravel()
    scale = max(np.abs(a0) @ pi0, 1e-300)
    assert abs(a0 @ itilde - a0 @ pi0) <= 1e-12 * scale
    grid = itilde.reshape(n_m, n_r)
    assert np.max(np.abs(grid.sum(axis=1) - 1.0)) <= 1e-12
    assert np.all((itilde >= 0.0) & (itilde <= 1.0))
    frac = (grid > 0.0) & (grid < 1.0)
    split = np.flatnonzero(frac.any(axis=1))
    assert split.size <= 1
    for k in split:
        assert frac[k].sum() == 2
    assert res.steps <= g.n_cells
    return split.size


def test_grid_problem_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        CellGrid(np.full(3, 0.3), np.arange(3.0), np.ones(2))
    with pytest.raises(ValueError, match="sum to 1"):
        CellGrid(np.array([1.5, -0.5]), np.arange(2.0), np.ones(2))
    with pytest.raises(ValueError, match="one entry per donor"):
        CellGrid(np.full(3, 1 / 3), np.arange(4.0), np.ones(2))
    with pytest.raises(ValueError, match="finite"):
        CellGrid(np.full(3, 1 / 3), np.array([0.0, np.nan, 1.0]), np.ones(2))


def test_grid_walk_invariants_every_run():
    rng = np.random.default_rng(71)
    split_runs = 0
    for case in range(120):
        n_m = int(rng.integers(1, 13))
        n_r = int(rng.integers(1, 16))
        problem = build_cells(*random_grid(rng, n_m, n_r, ties=case % 2 == 1))
        for seed in range(3):
            res = flight_phase(problem, np.random.default_rng(seed))
            split_runs += check_invariants(problem, res)
    assert split_runs > 0  # splitting does happen; the bound is not vacuous


def test_grid_walk_balances_unsnapped_start():
    # Dirichlet(0.3) donation weights put some psi within 1e-9 of 0 or 1, and
    # Dirichlet(0.05) most of the grids' psi; the walk must balance that psi
    # itself, not a start snapped to the faces
    for family_seed, alpha, cases, n_max, r_max in ((77, 0.3, 600, 12, 15),
                                                    (2020, 0.05, 1000, 40, 40)):
        rng = np.random.default_rng(family_seed)
        for case in range(cases):
            n_m = int(rng.integers(1, n_max + 1))
            n_r = int(rng.integers(1, r_max + 1))
            psi_row = rng.dirichlet(np.full(n_r, alpha))
            problem = build_cells(psi_row, rng.standard_normal(n_r),
                                  rng.uniform(1.0, 9.0, n_m))
            for seed in range(3):
                check_invariants(problem, flight_phase(problem, np.random.default_rng(seed)))


def test_grid_walk_martingale():
    # t-statistics of every cell's mean against pi0, ties and a zero
    # residual included, as criterion 3 does
    n_m, n_r = 4, 6
    residuals = np.array([0.8, -0.3, 0.8, 0.0, 1.7, -0.3])
    psi_row = np.random.default_rng(72).dirichlet(np.ones(n_r) * 3)
    problem = build_cells(psi_row, residuals, np.array([1.0, 2.5, 4.0, 2.5]))
    rng = np.random.default_rng(73)
    reps = 6000
    draws = np.empty((reps, n_m * n_r))
    for i in range(reps):
        res = flight_phase(problem, rng)
        draws[i] = grid_cells(res.donors, res.shares, n_r).ravel()
    mean = draws.mean(axis=0)
    sd = draws.std(axis=0, ddof=1)
    assert np.all(sd > 0.0)
    t_stat = np.abs(mean - np.tile(psi_row, n_m)) / (sd / np.sqrt(reps))
    assert np.all(t_stat < 4.0), t_stat


def test_grid_walk_all_equal_residuals_leaves_every_row_pure():
    # every window steps along (1, -1, 0) and every split row has c_k = 0,
    # so each row is rounded on its own
    psi_row = np.array([0.1, 0.2, 0.3, 0.15, 0.25])
    problem = build_cells(psi_row, np.full(5, 0.7), np.array([1.0, 3.0, 2.0]))
    for seed in range(50):
        res = flight_phase(problem, np.random.default_rng(seed))
        assert check_invariants(problem, res) == 0
        assert set(grid_cells(res.donors, res.shares, 5).ravel()) == {0.0, 1.0}


def test_grid_walk_zero_residuals_and_tied_pairs():
    # two donors per row: no within-row step, and every row with tied or
    # zero residuals has c_k = 0
    for residuals in ([0.0, 0.0], [1.5, 1.5], [0.0, 2.0]):
        problem = build_cells(np.array([0.4, 0.6]), np.array(residuals), np.ones(4))
        for seed in range(30):
            check_invariants(problem, flight_phase(problem, np.random.default_rng(seed)))
    # residuals (-1, -delta, delta, 1) under symmetric psi, so ebar = 0 and
    # the split rows' c_k differ by a factor delta = 10^U(-14, -9); the grid
    # walk, and the one-row walk on the grid's balance row alone, keep the
    # balance to 1e-12 relative to sum |a| pi0
    rng = np.random.default_rng(96)
    for case in range(1000):
        n_m = int(rng.integers(1, 41))
        delta = 10.0 ** rng.uniform(-14.0, -9.0)
        p = rng.uniform(0.05, 0.45)
        psi_row = np.array([p, 0.5 - p, 0.5 - p, p])
        residuals = np.array([-1.0, -delta, delta, 1.0])
        dv = rng.uniform(1.0, 9.0, n_m)
        problem = build_cells(psi_row, residuals, dv)
        check_invariants(problem, flight_phase(problem, np.random.default_rng(case)))
        flat = one_row_problem(psi_row, residuals, dv)
        a, pi0 = flat.a_matrix[0], flat.pi0
        x = flight_phase(flat, np.random.default_rng(case)).itilde
        assert abs(a @ x - a @ pi0) <= 1e-12 * (np.abs(a) @ pi0), case


def test_grid_walk_single_donor_is_a_fixed_point():
    problem = build_cells(np.array([1.0]), np.array([0.3]), np.array([2.0, 5.0]))
    res = flight_phase(problem, np.random.default_rng(0))
    assert res.steps == 0
    np.testing.assert_array_equal(grid_cells(res.donors, res.shares, 1).ravel(), np.ones(2))
    # psi of exactly 1 beside a rounding-sized weight: that donor, whole
    problem = build_cells(np.array([1e-17, 1.0]), np.array([0.3, -0.2]), np.array([2.0, 5.0]))
    res = flight_phase(problem, np.random.default_rng(0))
    assert res.steps == 0
    np.testing.assert_array_equal(grid_cells(res.donors, res.shares, 2), [[0.0, 1.0]] * 2)


def test_grid_walk_rng_consumption_is_one_per_step():
    # n_m uniforms for phase 1, then one per phase-2 step as it is taken
    problem = build_cells(*random_grid(np.random.default_rng(74), 7, 9))
    rng1 = np.random.default_rng(75)
    res = flight_phase(problem, rng1)
    assert 7 < res.steps < problem.n_cells
    rng2 = np.random.default_rng(75)
    rng2.random(res.steps)
    assert rng1.bit_generator.state == rng2.bit_generator.state


def test_grid_walk_degenerate_step_raises(monkeypatch):
    # phase 1 leaves both rows split (no residual equals the mean 1.5), so
    # phase 2's first step, after the two uniforms of phase 1, is step 2; a
    # guard above every direction entry leaves it no cell to step on
    monkeypatch.setattr(cube, "DIRECTION_GUARD", 2.0)
    problem = build_cells(np.full(4, 0.25), np.arange(4.0), np.ones(2))
    with pytest.raises(FlightPhaseError, match="^degenerate step length at step 2$"):
        flight_phase(problem, np.random.default_rng(0))


def check_splitting(psi, e):
    """Phase 1's mixture against its definition, exactly: it reproduces psi
    on the free donors, every component is a probability with mean ebar,
    and the north-west-corner rule makes at most #below + #above - 1 pairs."""
    lo, hi, x_lo, x_hi, w = cube._splitting(psi, e)
    free = (psi > 0.0) & (psi < 1.0)
    mix = np.zeros_like(psi)
    np.add.at(mix, lo, w * x_lo)
    np.add.at(mix, hi, w * x_hi)
    np.testing.assert_allclose(mix[free], psi[free], rtol=0.0, atol=1e-12)
    assert not mix[~free].any()
    assert w.sum() == pytest.approx(psi[free].sum(), rel=0.0, abs=1e-12)
    assert np.all(w >= 0.0)
    assert np.all((x_lo >= 0.0) & (x_hi > 0.0) & (x_lo + x_hi == 1.0))
    if not free.any():
        assert w.size == 0
        return
    ebar = psi[free] @ e[free] / psi[free].sum()
    scale = np.abs(e[free]).max()
    means = x_lo * e[lo] + x_hi * e[hi]
    assert np.all(np.abs(means - ebar) <= 1e-12 * scale), (means, ebar)
    dev = e[free] - ebar
    n_at = int(np.sum(np.abs(dev) <= 1e-13 * scale))
    n_below = int(np.sum(dev < -1e-13 * scale))
    n_above = int(np.sum(dev > 1e-13 * scale))
    pairs = n_below + n_above - 1 if n_below and n_above else 0
    assert w.size <= pairs + n_at


@pytest.mark.parametrize("psi, e", [
    # tied residuals on both sides of the mean
    ([0.1, 0.2, 0.3, 0.15, 0.25], [0.8, -0.3, 0.8, -0.3, 1.7]),
    # a zero residual, and one at the mean exactly (ebar = 0)
    ([0.25, 0.5, 0.25], [-1.0, 0.0, 1.0]),
    ([0.2, 0.3, 0.1, 0.4], [0.0, -2.0, 3.5, 0.6]),
    # all residuals equal: every component one-point, every row pure
    ([0.1, 0.2, 0.3, 0.15, 0.25], [0.7] * 5),
    ([0.1] * 10, [0.1 * 3] * 10),
    # a single free donor
    ([0.0, 0.7, 0.0], [1.0, -2.0, 3.0]),
    # psi with a 0 or a 1 entry
    ([0.0, 0.3, 0.2, 0.5], [5.0, -1.0, 0.5, 1.0]),
    ([1.0, 0.0, 0.0], [0.3, -0.2, 0.1]),
    # two donors, and a residual far from the rest
    ([0.4, 0.6], [0.0, 2.0]),
    ([0.999, 0.001], [0.0, 1e6]),
])
def test_splitting_decomposition_oracle(psi, e):
    check_splitting(np.array(psi), np.array(e))


def test_splitting_decomposition_random_rows():
    rng = np.random.default_rng(76)
    for case in range(200):
        n_r = int(rng.integers(1, 30))
        psi_row, residuals, _ = random_grid(rng, 1, n_r, ties=case % 2 == 1)
        check_splitting(psi_row, residuals)
