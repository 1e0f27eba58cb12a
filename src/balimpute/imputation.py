"""Response mechanisms and the three imputation methods.

All three methods share the fitted model: the imputed value is always

    y*_k = z_k' beta + v_k^{1/2} eps*_k

and they differ only in the imputed standardized residual eps*_k:

* deterministic (dri):  eps*_k = 0;
* random (rri):         eps*_k drawn iid from the respondent residuals with
                        the normalized weights;
* exact-balanced (ebri): eps*_k = sum_l itilde_kl e_l where the selection
  grid itilde comes from one flight phase over the nonrespondent x donor
  cell population, balanced on the weighted imputation contribution and on
  one purity variable per nonrespondent row.

The purity variables force every row of itilde to sum to 1, so each
nonrespondent receives either a single donor residual or a convex mix, and
the balancing row makes the realized imputation contribution equal its
conditional expectation exactly.
"""

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .cube import BalanceColumns, BalanceProblem, FlightResult, flight_phase
from .regression import FittedModel

MAR_CALIBRATION_TOL = 1e-6


# ---------------------------------------------------------------------------
# response mechanisms


@dataclass(frozen=True)
class Mcar:
    """Uniform response with probability phi0, strictly inside (0, 1)."""

    phi0: float

    def __post_init__(self):
        if not 0.0 < self.phi0 < 1.0:
            raise ValueError("phi0 must lie strictly inside (0, 1)")

    def probabilities(self, z1: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
        return np.full(np.asarray(z1).shape[0], self.phi0)


@dataclass(frozen=True)
class Mar:
    """Logistic response in the size variable: phi_k = expit(l0 + l1 z1_k)."""

    lambda0: float
    lambda1: float

    def __post_init__(self):
        if not (np.isfinite(self.lambda0) and np.isfinite(self.lambda1)):
            raise ValueError("logistic coefficients must be finite")

    def probabilities(self, z1: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
        x = self.lambda0 + self.lambda1 * np.asarray(z1, dtype=np.float64)
        # stable logistic: exp of a nonpositive argument only
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out


ResponseMechanism = Mcar | Mar


def generate_response(
    z1: npt.NDArray[np.float64], mechanism: ResponseMechanism, rng: np.random.Generator
) -> npt.NDArray[np.bool_]:
    """Independent Bernoulli response indicators for the given units."""
    phi = mechanism.probabilities(z1)
    return rng.random(phi.shape[0]) < phi


def calibrate_mar(
    z1_population: npt.NDArray[np.float64], lambda1: float, target_mean: float
) -> Mar:
    """Find lambda0 so the population mean response probability hits target.

    The mean of expit(l0 + l1 z1) is strictly increasing in l0, so plain
    bisection converges; stops once the mean is within 1e-6 of the target.
    """
    z1 = np.asarray(z1_population, dtype=np.float64)
    if not 0.0 < target_mean < 1.0:
        raise ValueError("target mean response must lie strictly inside (0, 1)")

    def mean_phi(l0: float) -> float:
        return float(Mar(l0, lambda1).probabilities(z1).mean())

    lo, hi = -1.0, 1.0
    while mean_phi(lo) > target_mean:
        lo *= 2.0
        if lo < -1e6:
            raise RuntimeError("bisection bracket not found")
    while mean_phi(hi) < target_mean:
        hi *= 2.0
        if hi > 1e6:
            raise RuntimeError("bisection bracket not found")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = mean_phi(mid)
        if abs(fm - target_mean) <= MAR_CALIBRATION_TOL:
            return Mar(mid, lambda1)
        if fm < target_mean:
            lo = mid
        else:
            hi = mid
    raise RuntimeError("bisection did not converge")


# ---------------------------------------------------------------------------
# cell population and imputed datasets


def _donor_split(respond: npt.NDArray[np.bool_]):
    """Sample positions of the nonrespondents (rows) and of the donors
    (columns); raises ValueError when there is no donor."""
    rows = np.flatnonzero(~respond).astype(np.int64)
    cols = np.flatnonzero(respond).astype(np.int64)
    if cols.size == 0:
        raise ValueError("no donors: every unit is a nonrespondent")
    return rows, cols


@dataclass(frozen=True)
class CellPopulation:
    """Nonrespondent x donor grid behind the balanced selection.

    ``psi[k, l]`` is the selection probability of cell (k, l); every row
    repeats the normalized donation weights.  The balancing matrix applies
    to the cells in row-major order and already carries the division of the
    balancing variables by psi, so it is built directly from the quotients:
    row 0 holds d_k v_k^{1/2} e_l, and with purity variables on, row 1 + k
    is the indicator of nonrespondent row k.  It is built by column, two
    nonzeros per cell, never as a dense (1 + n_m) x (n_m n_r) array.
    """

    row_units: npt.NDArray[np.int64]
    col_units: npt.NDArray[np.int64]
    psi: npt.NDArray[np.float64]
    residuals: npt.NDArray[np.float64]
    dv: npt.NDArray[np.float64]
    with_purity_vars: bool

    @property
    def n_rows(self) -> int:
        return self.row_units.shape[0]

    @property
    def n_cols(self) -> int:
        return self.col_units.shape[0]

    def balance_problem(self) -> BalanceProblem:
        n_m, n_r = self.psi.shape
        m = n_m * n_r
        q = 1 + n_m if self.with_purity_vars else 1
        per = 2 if self.with_purity_vars else 1  # nonzeros per column
        cells = np.repeat(np.arange(m), per)
        rows = np.zeros(per * m, dtype=np.int64)
        vals = np.ones(per * m)
        vals[0::per] = np.outer(self.dv, self.residuals).ravel()
        if self.with_purity_vars:
            # column k * n_r + l: row 0 holds its balance entry, row 1 + k a 1
            rows[1::2] = np.repeat(np.arange(1, n_m + 1), n_r)
        columns = BalanceColumns.from_entries(q, m, cells, rows, vals)
        return BalanceProblem(pi0=self.psi.ravel().copy(), columns=columns)


def build_cells(
    model: FittedModel,
    d: npt.NDArray[np.float64],
    v: npt.NDArray[np.float64],
    with_purity_vars: bool = True,
) -> CellPopulation:
    rows, cols = _donor_split(model.respond)
    omega_tilde = model.omega_tilde[cols]
    psi = np.tile(omega_tilde, (rows.size, 1))
    return CellPopulation(
        row_units=rows,
        col_units=cols,
        psi=psi,
        residuals=model.residuals[cols].copy(),
        dv=d[rows] * np.sqrt(v[rows]),
        with_purity_vars=with_purity_vars,
    )


@dataclass(frozen=True)
class ImputedDataset:
    """Outcome of one imputation pass over a drawn sample.

    ``y_star`` keeps observed values at respondents and carries the imputed
    value z'beta + sqrt(v) eps_star at nonrespondents.  ``donor_weights`` is
    the (n_m, n_r) selection grid where the method has one (None for dri);
    ``pure`` flags nonrespondent rows served by a single donor.
    """

    method: str
    y_star: npt.NDArray[np.float64]
    eps_star: npt.NDArray[np.float64]
    respond: npt.NDArray[np.bool_]
    row_units: npt.NDArray[np.int64]
    col_units: npt.NDArray[np.int64]
    donor_weights: npt.NDArray[np.float64] | None = None
    pure: npt.NDArray[np.bool_] | None = None
    flight: FlightResult | None = None

    @property
    def n_imputed(self) -> int:
        return self.row_units.shape[0]


def _base_arrays(model, z, y, v):
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        z = z[:, None]
    y = np.asarray(y, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    rows, cols = _donor_split(model.respond)
    y_star = y.copy()
    mu = z @ model.beta
    return z, y_star, v, rows, cols, mu


def _finish(method, model, y_star, v, rows, cols, mu, eps_rows, weights, pure, flight):
    eps_star = np.zeros(y_star.shape[0])
    if rows.size:
        eps_star[rows] = eps_rows
        y_star[rows] = mu[rows] + np.sqrt(v[rows]) * eps_rows
    return ImputedDataset(
        method=method,
        y_star=y_star,
        eps_star=eps_star,
        respond=model.respond,
        row_units=rows,
        col_units=cols,
        donor_weights=weights,
        pure=pure,
        flight=flight,
    )


def impute_dri(model: FittedModel, z, y, v) -> ImputedDataset:
    """Deterministic regression imputation: eps* = 0, y* = z'beta."""
    z, y_star, v, rows, cols, mu = _base_arrays(model, z, y, v)
    return _finish("dri", model, y_star, v, rows, cols, mu,
                   np.zeros(rows.size), None, None, None)


def impute_rri(model: FittedModel, z, y, v, rng: np.random.Generator) -> ImputedDataset:
    """Random regression imputation: iid donor residuals, weights omega-tilde."""
    z, y_star, v, rows, cols, mu = _base_arrays(model, z, y, v)
    omega_tilde = model.omega_tilde[cols]
    n_m, n_r = rows.size, cols.size
    picks = rng.choice(n_r, size=n_m, p=omega_tilde) if n_m else np.empty(0, dtype=np.int64)
    weights = np.zeros((n_m, n_r))
    weights[np.arange(n_m), picks] = 1.0
    pure = np.ones(n_m, dtype=bool)
    return _finish("rri", model, y_star, v, rows, cols, mu,
                   model.residuals[cols][picks], weights, pure, None)


def impute_ebri(
    model: FittedModel,
    z,
    y,
    v,
    d,
    rng: np.random.Generator,
    with_purity_vars: bool = True,
) -> ImputedDataset:
    """Exact balanced random imputation via one flight phase over the cells."""
    z, y_star, v, rows, cols, mu = _base_arrays(model, z, y, v)
    d = np.asarray(d, dtype=np.float64)
    if rows.size == 0:
        return _finish("ebri", model, y_star, v, rows, cols, mu,
                       np.zeros(0), None, None, None)
    cells = build_cells(model, d, v, with_purity_vars=with_purity_vars)
    flight = flight_phase(cells.balance_problem(), rng)
    itilde = flight.itilde.reshape(cells.n_rows, cells.n_cols)
    eps_rows = itilde @ cells.residuals
    frac = flight.fractional.reshape(cells.n_rows, cells.n_cols)
    pure = ~frac.any(axis=1)
    return _finish("ebri", model, y_star, v, rows, cols, mu,
                   eps_rows, itilde, pure, flight)
