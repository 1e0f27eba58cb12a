from itertools import combinations

import numpy as np
import pytest

from balimpute.sampling import (
    SampleData,
    SamplingError,
    pips_probabilities,
    rejective_sample,
    sample_from_csv,
    sample_to_csv,
    srswor,
)


def test_pips_proportional_no_capping():
    z = np.array([1.0, 2.0, 3.0, 4.0])
    pi = pips_probabilities(z, 2)
    assert pi == pytest.approx(2 * z / z.sum(), rel=1e-14)
    assert abs(pi.sum() - 2) < 1e-9


def test_pips_single_cap():
    # the big unit saturates, the rest share the remaining budget evenly
    pi = pips_probabilities(np.array([8.0, 1.0, 1.0, 1.0, 1.0]), 2)
    assert pi == pytest.approx([1.0, 0.25, 0.25, 0.25, 0.25], abs=1e-14)


def test_pips_cascading_caps():
    # capping the largest unit pushes the next one over 1 as well
    pi = pips_probabilities(np.array([100.0, 10.0, 1.0, 1.0, 1.0, 1.0]), 3)
    assert pi == pytest.approx([1.0, 1.0, 0.25, 0.25, 0.25, 0.25], abs=1e-14)


def test_pips_census():
    pi = pips_probabilities(np.array([5.0, 1.0, 0.1]), 3)
    assert np.array_equal(pi, np.ones(3))


def test_pips_validation():
    with pytest.raises(ValueError):
        pips_probabilities(np.array([1.0, -1.0]), 1)
    with pytest.raises(ValueError):
        pips_probabilities(np.array([1.0, 2.0]), 3)


def test_rejective_matches_enumerated_law():
    # N=3, n=2: the conditioned-Poisson law is small enough to enumerate
    pi = np.array([0.9, 0.6, 0.5])
    weights = {}
    for pair in combinations(range(3), 2):
        w = 1.0
        for k in range(3):
            w *= pi[k] if k in pair else 1 - pi[k]
        weights[pair] = w
    z = sum(weights.values())
    probs = {pair: w / z for pair, w in weights.items()}

    rng = np.random.default_rng(90)
    reps = 40_000
    counts = {pair: 0 for pair in probs}
    for _ in range(reps):
        s = rejective_sample(pi, rng)
        counts[tuple(s.indices)] += 1
    for pair, p in probs.items():
        se = np.sqrt(p * (1 - p) / reps)
        assert abs(counts[pair] / reps - p) < 4 * se, (pair, counts[pair] / reps, p)


def test_rejective_sample_shape():
    z = np.linspace(1, 5, 30)
    pi = pips_probabilities(z, 6)
    s = rejective_sample(pi, np.random.default_rng(4))
    assert s.size == 6
    assert np.all(np.diff(s.indices) > 0)
    assert np.array_equal(s.pi, pi[s.indices])
    assert np.array_equal(s.d, 1.0 / s.pi)


def test_rejective_rejects_noninteger_total():
    with pytest.raises(ValueError):
        rejective_sample(np.array([0.5, 0.6]), np.random.default_rng(0))


def test_rejective_no_convergence_is_typed(monkeypatch):
    import balimpute.sampling as S

    monkeypatch.setattr(S, "MAX_REJECTIVE_ATTEMPTS", 0)
    with pytest.raises(SamplingError, match="did not reach the target size"):
        rejective_sample(np.array([0.5, 0.5]), np.random.default_rng(0))


def test_srswor_uniform_over_pairs():
    rng = np.random.default_rng(17)
    reps = 30_000
    counts = {pair: 0 for pair in combinations(range(6), 2)}
    for _ in range(reps):
        s = srswor(6, 2, rng)
        counts[tuple(s.indices)] += 1
    p = 1 / 15
    se = np.sqrt(p * (1 - p) / reps)
    for pair, c in counts.items():
        assert abs(c / reps - p) < 5 * se, (pair, c / reps)


def test_srswor_weights():
    s = srswor(50, 10, np.random.default_rng(2))
    assert np.all(s.pi == 10 / 50)
    assert np.all(s.d == 5.0)


def test_sample_data_invariant():
    pi = np.array([0.5, 0.25])
    with pytest.raises(ValueError):
        SampleData(indices=np.array([0, 1]), pi=pi, d=np.array([2.0, 4.000001]))
    with pytest.raises(ValueError):
        SampleData(indices=np.array([0, 1]), pi=np.array([0.5, 1.5]),
                   d=np.array([2.0, 1 / 1.5]))


def test_sample_csv_roundtrip(tmp_path):
    pi = np.array([0.2, 0.4, 0.8, 0.5])
    s = SampleData(indices=np.array([3, 7, 9, 12]), pi=pi, d=1.0 / pi,
                   respond=np.array([True, False, True, True]))
    y = np.array([1.5, np.nan, 3.25, 4.0])
    z1 = np.array([1.0, 2.0, 3.0, 4.0])
    v = z1.copy()
    path = tmp_path / "s.csv"
    sample_to_csv(path, s, y, z1, v)
    s2, y2, z2, v2 = sample_from_csv(path)
    assert np.array_equal(s2.indices, s.indices)
    assert np.array_equal(s2.pi, s.pi)
    assert np.array_equal(s2.respond, s.respond)
    assert np.isnan(y2[1]) and np.array_equal(y2[[0, 2, 3]], y[[0, 2, 3]])
    assert np.array_equal(z2, z1) and np.array_equal(v2, v)


def test_sample_csv_respondent_needs_y(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "id,y,z1,v,pi,d,r\n"
        "1,1.0,1.0,1.0,0.5,2.0,1\n"
        "2,,1.0,1.0,0.5,2.0,1\n"
    )
    with pytest.raises(ValueError, match="line 3"):
        sample_from_csv(path)
