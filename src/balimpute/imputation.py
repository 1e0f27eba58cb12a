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

from .cube import BalanceProblem, CellGrid, FlightResult, flight_phase
from .regression import FittedModel, NoRespondentsError

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

    The mean of expit(l0 + l1 z1) is strictly increasing in l0, with slope
    mean(phi (1 - phi)).  Once a bracket is found, each pass over z1 gives
    the mean and its slope: a Newton step that stays inside the bracket is
    taken, any other is replaced by the bracket's midpoint.  Stops once the
    mean is within MAR_CALIBRATION_TOL of the target.
    """
    z1 = np.asarray(z1_population, dtype=np.float64)
    if not 0.0 < target_mean < 1.0:
        raise ValueError("target mean response must lie strictly inside (0, 1)")

    def mean_and_slope(l0: float) -> tuple[float, float]:
        phi = Mar(l0, lambda1).probabilities(z1)
        mean = float(phi.mean())
        return mean, mean - float(np.einsum("i,i->", phi, phi)) / phi.size

    lo, hi = -1.0, 1.0
    while mean_and_slope(lo)[0] > target_mean:
        lo *= 2.0
        if lo < -1e6:
            raise RuntimeError("bisection bracket not found")
    while mean_and_slope(hi)[0] < target_mean:
        hi *= 2.0
        if hi > 1e6:
            raise RuntimeError("bisection bracket not found")
    l0 = 0.5 * (lo + hi)
    for _ in range(200):
        fm, slope = mean_and_slope(l0)
        if abs(fm - target_mean) <= MAR_CALIBRATION_TOL:
            return Mar(l0, lambda1)
        if fm < target_mean:
            lo = l0
        else:
            hi = l0
        step = l0 - (fm - target_mean) / slope if slope > 0 else float("nan")
        l0 = step if lo < step < hi else 0.5 * (lo + hi)
    raise RuntimeError("bisection did not converge")


# ---------------------------------------------------------------------------
# cell grid and imputed datasets


def _donor_split(respond: npt.NDArray[np.bool_]):
    """Sample positions of the nonrespondents (rows) and of the donors
    (columns); raises NoRespondentsError when there is no donor."""
    rows = np.flatnonzero(~respond).astype(np.int64)
    cols = np.flatnonzero(respond).astype(np.int64)
    if cols.size == 0:
        raise NoRespondentsError("no donors: every unit is a nonrespondent")
    return rows, cols


def build_cells(
    psi_row: npt.NDArray[np.float64],
    residuals: npt.NDArray[np.float64],
    dv: npt.NDArray[np.float64],
    with_purity_vars: bool = True,
) -> BalanceProblem:
    """Balancing problem of the nonrespondent x donor grid behind the
    balanced selection.

    Cell (k, l), in row-major order, starts at the donation weight
    ``psi_row[l]`` of donor l, the same in every nonrespondent row k.  The
    balancing variables come already divided by psi: dv_k e_l in the
    balance row (dv_k = d_k v_k^{1/2}) and, with purity variables on, the
    indicator of row k.  That problem is returned as its grid, which the
    flight walks row by row and never builds a matrix for; without purity
    variables it is the one balance row, by column.
    """
    grid = CellGrid(psi_row, residuals, dv)
    pi0 = np.tile(grid.psi_row, grid.n_rows)
    if with_purity_vars:
        return BalanceProblem(pi0=pi0, grid=grid)
    return BalanceProblem(pi0=pi0, columns=grid.columns(with_purity_vars=False))


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


def _imputed(method, model, z, y, v, rows, cols, eps_rows, **grid) -> ImputedDataset:
    """The dataset with y* = z'beta + sqrt(v) eps* at the nonrespondent
    ``rows``; ``grid`` holds the method's donor_weights, pure and flight."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        z = z[:, None]
    v = np.asarray(v, dtype=np.float64)
    mu = z @ model.beta  # over all rows: z[rows] @ beta may round differently
    y_star = np.array(y, dtype=np.float64)
    eps_star = np.zeros(y_star.shape[0])
    eps_star[rows] = eps_rows
    y_star[rows] = mu[rows] + np.sqrt(v[rows]) * eps_rows
    return ImputedDataset(method=method, y_star=y_star, eps_star=eps_star,
                          respond=model.respond, row_units=rows, col_units=cols, **grid)


def impute_dri(model: FittedModel, z, y, v) -> ImputedDataset:
    """Deterministic regression imputation: eps* = 0, y* = z'beta."""
    rows, cols = _donor_split(model.respond)
    return _imputed("dri", model, z, y, v, rows, cols, np.zeros(rows.size))


def impute_rri(model: FittedModel, z, y, v, rng: np.random.Generator) -> ImputedDataset:
    """Random regression imputation: iid donor residuals, weights omega-tilde."""
    rows, cols = _donor_split(model.respond)
    n_m, n_r = rows.size, cols.size
    picks = (rng.choice(n_r, size=n_m, p=model.omega_tilde[cols]) if n_m
             else np.empty(0, dtype=np.int64))
    weights = np.zeros((n_m, n_r))
    weights[np.arange(n_m), picks] = 1.0
    return _imputed("rri", model, z, y, v, rows, cols, model.residuals[cols][picks],
                    donor_weights=weights, pure=np.ones(n_m, dtype=bool))


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
    rows, cols = _donor_split(model.respond)
    if rows.size == 0:
        return _imputed("ebri", model, z, y, v, rows, cols, np.zeros(0))
    v = np.asarray(v, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    residuals = model.residuals[cols]
    problem = build_cells(model.omega_tilde[cols], residuals, d[rows] * np.sqrt(v[rows]),
                          with_purity_vars=with_purity_vars)
    flight = flight_phase(problem, rng)
    itilde = flight.itilde.reshape(rows.size, cols.size)
    pure = ~flight.fractional.reshape(rows.size, cols.size).any(axis=1)
    return _imputed("ebri", model, z, y, v, rows, cols, itilde @ residuals,
                    donor_weights=itilde, pure=pure, flight=flight)
