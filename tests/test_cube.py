import numpy as np
import pytest

from balimpute.cube import (
    BalanceProblem,
    flight_phase,
    snap_integers,
    write_trace_csv,
)


def random_problem(rng, m=None, q=None):
    m = m or int(rng.integers(3, 9))
    q = q or int(rng.integers(1, min(m, 4)))
    a = rng.standard_normal((q, m))
    pi0 = rng.uniform(0.05, 0.95, size=m)
    return BalanceProblem(pi0=pi0, a_matrix=a)


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
        res = flight_phase(problem, rng, keep_history=True)
        target = problem.a_matrix @ problem.pi0
        scale = max(1.0, np.max(np.abs(problem.a_matrix)))
        for state in res.history:
            assert np.max(np.abs(problem.a_matrix @ state - target)) < 1e-9 * scale
        assert np.array_equal(res.history[res.steps], res.itilde)


def test_steps_move_in_kernel():
    rng = np.random.default_rng(31)
    problem = random_problem(rng, m=8, q=3)
    res = flight_phase(problem, rng, keep_history=True)
    for t in range(res.steps):
        d = res.history[t + 1] - res.history[t]
        assert np.max(np.abs(problem.a_matrix @ d)) < 1e-9


def test_fractional_bound_and_range():
    for seed in range(60):
        rng = np.random.default_rng(500 + seed)
        problem = random_problem(rng)
        res = flight_phase(problem, rng)
        assert res.n_fractional <= problem.n_constraints
        assert np.all((res.itilde >= 0.0) & (res.itilde <= 1.0))


def test_martingale_means():
    rng = np.random.default_rng(77)
    a = rng.standard_normal((2, 6))
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


def test_snap_integers():
    v = np.array([1.0 - 1e-12, 1e-12, 0.5, 0.3])
    snapped = snap_integers(v)
    assert np.array_equal(snapped, np.array([1.0, 0.0, 0.5, 0.3]))


def test_rng_consumption_is_step_independent():
    # exactly n_cells uniforms are consumed whatever trajectory is taken
    problem = BalanceProblem(pi0=np.full(5, 0.4), a_matrix=np.ones((1, 5)))
    rng1 = np.random.default_rng(9)
    flight_phase(problem, rng1)
    rng2 = np.random.default_rng(9)
    rng2.random(5)
    assert rng1.random() == rng2.random()


def test_problem_validation():
    with pytest.raises(ValueError):
        BalanceProblem(pi0=np.array([0.5, 1.5]), a_matrix=np.ones((1, 2)))
    with pytest.raises(ValueError):
        BalanceProblem(pi0=np.array([0.5, 0.5]), a_matrix=np.ones((1, 3)))
    with pytest.raises(ValueError):
        BalanceProblem(pi0=np.array([0.5]), a_matrix=np.array([[np.inf]]))


def test_write_trace_csv(tmp_path):
    rng = np.random.default_rng(12)
    problem = random_problem(rng, m=7, q=2)
    res = flight_phase(problem, rng, keep_history=True)
    path = tmp_path / "trace.csv"
    write_trace_csv(problem, res, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "step"
    assert len(lines) == res.steps + 2
    # residual column stays near zero along the whole walk
    for line in lines[1:]:
        assert float(line.split(",")[2]) < 1e-8
