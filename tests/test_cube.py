import copy

import numpy as np
import pytest
from flight_oracle import _flight_numpy

from balimpute import cube
from balimpute.cube import (
    DIRECTION_GUARD,
    BalanceProblem,
    FlightPhaseError,
    flight_phase,
)


def random_problem(rng, m=None):
    m = m or int(rng.integers(3, 9))
    a = rng.standard_normal((1, m))
    pi0 = rng.uniform(0.05, 0.95, size=m)
    return BalanceProblem(pi0=pi0, a_matrix=a)


def walk_states(problem, rng):
    """Run the package flight on rng and return it with the per-step states
    of the dense reference kernel on the same uniforms, which must end where
    the package walk ends."""
    u = copy.deepcopy(rng).random(problem.n_cells)
    res = flight_phase(problem, rng)
    history = np.empty((problem.n_cells + 1, problem.n_cells))
    _, steps = _flight_numpy(problem.pi0.copy(), problem.a_matrix, u, 0.0, DIRECTION_GUARD,
                             True, history)
    assert steps == res.steps
    assert np.array_equal(history[steps], res.itilde)
    return res, history[: steps + 1]


def test_two_point_selection():
    # pi = (1/2, 1/2), fixed-size constraint: exactly one cell selected
    problem = BalanceProblem(pi0=np.array([0.5, 0.5]), a_matrix=np.ones((1, 2)))
    rng = np.random.default_rng(1)
    reps = 4000
    first = 0
    for _ in range(reps):
        res = flight_phase(problem, rng)
        assert sorted(res.itilde) == [0.0, 1.0]
        first += res.itilde[0] == 1.0
    p = first / reps
    assert abs(p - 0.5) < 4 * np.sqrt(0.25 / reps)


def test_quarter_cells_pick_one():
    problem = BalanceProblem(pi0=np.full(4, 0.25), a_matrix=np.ones((1, 4)))
    rng = np.random.default_rng(2)
    reps = 8000
    counts = np.zeros(4)
    for _ in range(reps):
        res = flight_phase(problem, rng)
        assert res.n_fractional == 0
        assert res.itilde.sum() == 1.0
        counts += res.itilde
    se = np.sqrt(0.25 * 0.75 / reps)
    assert np.all(np.abs(counts / reps - 0.25) < 4 * se)


def test_balance_preserved_along_walk():
    for seed in range(25):
        rng = np.random.default_rng(400 + seed)
        problem = random_problem(rng)
        _, history = walk_states(problem, rng)
        a = problem.a_matrix
        target = a @ problem.pi0
        scale = max(1.0, np.max(np.abs(a)))
        for state in history:
            assert np.max(np.abs(a @ state - target)) < 1e-9 * scale


def test_steps_move_in_kernel():
    rng = np.random.default_rng(31)
    problem = random_problem(rng, m=8)
    res, history = walk_states(problem, rng)
    a = problem.a_matrix
    for t in range(res.steps):
        d = history[t + 1] - history[t]
        assert np.max(np.abs(a @ d)) < 1e-9


def test_fractional_bound_and_range():
    for seed in range(60):
        rng = np.random.default_rng(500 + seed)
        problem = random_problem(rng)
        res = flight_phase(problem, rng)
        assert res.n_fractional <= problem.n_constraints
        assert np.all((res.itilde >= 0.0) & (res.itilde <= 1.0))


def test_martingale_means():
    rng = np.random.default_rng(77)
    a = rng.standard_normal((1, 6))
    pi0 = rng.uniform(0.1, 0.9, size=6)
    problem = BalanceProblem(pi0=pi0, a_matrix=a)
    reps = 6000
    draws = np.empty((reps, 6))
    for i in range(reps):
        draws[i] = flight_phase(problem, rng).itilde
    mean = draws.mean(axis=0)
    sd = draws.std(axis=0, ddof=1)
    for j in range(6):
        if sd[j] == 0.0:
            assert mean[j] == pytest.approx(pi0[j], abs=1e-12)
        else:
            assert abs(mean[j] - pi0[j]) < 4 * sd[j] / np.sqrt(reps), j


def test_integer_start_is_fixed_point():
    problem = BalanceProblem(pi0=np.array([1.0, 0.0, 1.0]),
                             a_matrix=np.ones((1, 3)))
    res = flight_phase(problem, np.random.default_rng(0))
    assert np.array_equal(res.itilde, problem.pi0)
    assert res.steps == 0


def test_rng_consumption_is_one_per_step():
    # one uniform per step as it is taken, the doubles of a single draw
    problem = BalanceProblem(pi0=np.full(5, 0.4), a_matrix=np.ones((1, 5)))
    rng1 = np.random.default_rng(9)
    res = flight_phase(problem, rng1)
    assert 1 < res.steps < problem.n_cells
    rng2 = np.random.default_rng(9)
    rng2.random(res.steps)
    assert rng1.bit_generator.state == rng2.bit_generator.state


def test_degenerate_step_raises(monkeypatch):
    # a guard above every direction entry leaves no coordinate to step on
    monkeypatch.setattr(cube, "DIRECTION_GUARD", 2.0)
    problem = BalanceProblem(pi0=np.full(4, 0.5), a_matrix=np.ones((1, 4)))
    with pytest.raises(FlightPhaseError, match="^degenerate step length at step 0$"):
        flight_phase(problem, np.random.default_rng(0))


def test_problem_validation():
    with pytest.raises(ValueError):
        BalanceProblem(pi0=np.array([0.5, 1.5]), a_matrix=np.ones((1, 2)))
    with pytest.raises(ValueError):
        BalanceProblem(pi0=np.array([0.5, 0.5]), a_matrix=np.ones((1, 3)))
    with pytest.raises(ValueError):
        BalanceProblem(pi0=np.array([0.5]), a_matrix=np.array([[np.inf]]))
    with pytest.raises(ValueError, match="exactly one"):
        BalanceProblem(pi0=np.array([0.5]))
    # one balancing row only, kept as a float array
    for shape in ((2, 3), (0, 3), (3,), (1, 1, 3)):
        with pytest.raises(ValueError, match="one row"):
            BalanceProblem(pi0=np.full(3, 0.5), a_matrix=np.ones(shape))
    problem = BalanceProblem(pi0=np.full(3, 0.5), a_matrix=[[1, 0, 2]])
    assert problem.a_matrix.dtype == np.float64
    np.testing.assert_array_equal(problem.a_matrix, [[1.0, 0.0, 2.0]])
