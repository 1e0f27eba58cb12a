"""Design-based estimators: totals and distribution functions.

Expansion estimators weight each sampled unit by d_k = 1/pi_k.  The
imputed variants run on the completed response vector, so with full
response they reduce to the plain expansion estimators.
"""

import numpy as np
import numpy.typing as npt

from .imputation import ImputedDataset


def ht_total(d: npt.NDArray[np.float64], y: npt.NDArray[np.float64]) -> float:
    """Expansion estimator of a population total from a full-response sample."""
    d = np.asarray(d, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if d.shape != y.shape:
        raise ValueError("d and y must have the same shape")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(y))):
        raise ValueError("inputs must be finite")
    return float(d @ y)


def nhat(d: npt.NDArray[np.float64]) -> float:
    """Estimated population size: sum of design weights."""
    return float(np.asarray(d, dtype=np.float64).sum())


def imputed_total(dataset: ImputedDataset, d: npt.NDArray[np.float64]) -> float:
    """Expansion total over the completed responses."""
    return ht_total(d, dataset.y_star)


def fn_population(y_population: npt.NDArray[np.float64], t) -> npt.NDArray[np.float64] | float:
    """Finite-population distribution function F_N(t) = mean 1(y <= t)."""
    y = np.asarray(y_population, dtype=np.float64)
    if y.size == 0:
        raise ValueError("empty population")
    t_arr = np.asarray(t, dtype=np.float64)
    out = (y[None, :] <= t_arr.reshape(-1, 1)).mean(axis=1)
    return float(out[0]) if t_arr.ndim == 0 else out


def quantile(y_population: npt.NDArray[np.float64], alpha: float) -> float:
    """Left-continuous inverse: smallest population value with F_N >= alpha."""
    y = np.asarray(y_population, dtype=np.float64)
    if y.size == 0:
        raise ValueError("empty population")
    return _sorted_quantile(np.sort(y), alpha)


def _sorted_quantile(ys: npt.NDArray[np.float64], alpha: float) -> float:
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    idx = int(np.ceil(alpha * ys.size)) - 1
    return float(ys[max(idx, 0)])


def population_truths(y_population: npt.NDArray[np.float64],
                      alphas) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(t_alpha, F_N(t_alpha)) for each alpha, from one sort of y: the
    values of ``quantile`` and ``fn_population``, bit for bit."""
    ys = np.sort(np.asarray(y_population, dtype=np.float64))
    if ys.size == 0:
        raise ValueError("empty population")
    t_alpha = tuple(_sorted_quantile(ys, a) for a in alphas)
    # the count of y <= t over N, the division fn_population's mean makes
    counts = np.searchsorted(ys, t_alpha, side="right").tolist()
    return t_alpha, tuple(c / ys.size for c in counts)


def fhat(
    d: npt.NDArray[np.float64], y: npt.NDArray[np.float64], t
) -> npt.NDArray[np.float64] | float:
    """Hajek estimator of F_N: weighted share of sampled y at or below t."""
    d = np.asarray(d, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if d.shape != y.shape:
        raise ValueError("d and y must have the same shape")
    t_arr = np.asarray(t, dtype=np.float64)
    ind = y[None, :] <= t_arr.reshape(-1, 1)
    out = (ind @ d) / d.sum()
    return float(out[0]) if t_arr.ndim == 0 else out


def imputed_fhat(dataset: ImputedDataset, d: npt.NDArray[np.float64], t):
    """Distribution-function estimator over the completed responses."""
    return fhat(d, dataset.y_star, t)
