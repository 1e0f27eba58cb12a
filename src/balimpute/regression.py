"""Regularized survey regression for imputation.

The working model is y_k = z_k' beta + v_k^{1/2} eps_k.  The fit solves a
weighted moment system over respondents,

    G_r = (1/N) sum r_k w_k v_k^{-1} z_k z_k',
    b   = G_ar^{-1} (1/N) sum r_k w_k v_k^{-1} z_k y_k,

where G_ar is G_r with its eigenvalues clipped from below at a floor a > 0.
The clipping bounds the inverse: ||G_ar^{-1}|| <= 1/a regardless of how
ill-conditioned the respondent pool is.  Standardized residuals, the
normalized donation weights, and their weighted mean come along for the
imputation stage.
"""

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

PSD_TOL = -1e-10
SYMMETRY_RTOL = 1e-12
DEFAULT_FLOOR_FRACTION = 0.01


@dataclass(frozen=True)
class ModelSpec:
    """Fit configuration: eigenvalue floor and per-unit imputation weights.

    ``a`` = None derives the floor as 0.01 * trace(G_r) / K.
    ``omega`` = None means unit weights.
    """

    a: float | None = None
    omega: npt.NDArray[np.float64] | None = None


class NoRespondentsError(ValueError):
    """The drawn sample has no respondent to fit on or to donate from."""


@dataclass(frozen=True)
class FittedModel:
    beta: npt.NDArray[np.float64]
    g_r: npt.NDArray[np.float64]
    g_ar: npt.NDArray[np.float64]
    a: float
    eigenvalues: npt.NDArray[np.float64]
    residuals: npt.NDArray[np.float64]
    omega_tilde: npt.NDArray[np.float64]
    ebar_r: float
    respond: npt.NDArray[np.bool_]

    def report_dict(self) -> dict:
        """JSON-ready summary of the fit (used by the CLI --explain flag)."""
        resp = np.flatnonzero(self.respond)
        return {
            "beta": [float(b) for b in self.beta],
            "floor_a": float(self.a),
            "eigenvalues": [float(e) for e in self.eigenvalues],
            "eigenvalues_clipped": [float(max(e, self.a)) for e in self.eigenvalues],
            "respondents": [int(i) for i in resp],
            "residuals": [float(self.residuals[i]) for i in resp],
            "omega_tilde": [float(self.omega_tilde[i]) for i in resp],
            "residual_mean": float(self.ebar_r),
        }


def _clip_eigenvalues(g: npt.NDArray[np.float64], a: float):
    """Eigen-decomposition of a symmetric PSD matrix, eigenvalues descending,
    with the eigenvalues clipped from below at a finite a > 0:
    (eigenvalues, eigenvectors as matching columns, clipped)."""
    if not (np.isfinite(a) and a > 0):
        raise ValueError(f"eigenvalue floor a must be positive and finite, got {a!r}")
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("matrix has non-finite entries")
    if np.abs(g - g.T).max() > SYMMETRY_RTOL * max(np.abs(g).max(), 1.0):
        raise ValueError("matrix is not symmetric within tolerance")
    vals, vecs = np.linalg.eigh(g)
    vals, u = vals[::-1].copy(), np.ascontiguousarray(vecs[:, ::-1])
    if vals.size and vals.min() < PSD_TOL:
        raise ValueError(f"matrix has eigenvalue {vals.min()}, below the PSD tolerance")
    clipped = np.maximum(np.where(vals < 0.0, 0.0, vals), a)
    return vals, u, clipped


def default_floor(g_r: npt.NDArray[np.float64]) -> float:
    k = g_r.shape[0]
    return DEFAULT_FLOOR_FRACTION * float(np.trace(g_r)) / k


def fit_model(
    z: npt.NDArray[np.float64],
    y: npt.NDArray[np.float64],
    v: npt.NDArray[np.float64],
    respond: npt.NDArray[np.bool_],
    n_population: int,
    spec: ModelSpec = ModelSpec(),
) -> FittedModel:
    """Fit the imputation model on the respondents of a drawn sample.

    ``y`` may hold NaN at nonrespondents; only respondent rows enter the
    moments.  ``z`` and ``v`` must be finite, and v > 0, at every unit.
    ``n_population`` is the N in the 1/N scaling (it cancels in beta but
    keeps G_r on its natural scale for the default floor).
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        z = z[:, None]
    y = np.asarray(y, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    respond = np.asarray(respond, dtype=bool)
    n = z.shape[0]
    if y.shape[0] != n or v.shape[0] != n or respond.shape[0] != n:
        raise ValueError("z, y, v, respond must have matching length")
    # before the floor: a non-finite z or v would surface as a NaN floor
    if not np.isfinite(z).all():
        raise ValueError("z must be finite at every unit")
    if not np.all((v > 0) & (v < np.inf)):
        raise ValueError("variance scale v must be finite and strictly positive")
    resp = np.flatnonzero(respond)
    if resp.size == 0:
        raise NoRespondentsError("cannot fit a model with zero respondents")
    if not np.all(np.isfinite(y[resp])):
        raise ValueError("respondent y values must be finite")

    omega = spec.omega
    if omega is None:
        omega = np.ones(n)
    else:
        omega = np.asarray(omega, dtype=np.float64)
        if omega.shape[0] != n:
            raise ValueError("omega must match sample length")
        if np.any(omega <= 0):
            raise ValueError("imputation weights omega must be strictly positive")

    zr = z[resp]
    wr = omega[resp] / v[resp]
    g_r = (zr.T * wr) @ zr / n_population
    rhs = (zr.T * wr) @ y[resp] / n_population

    a = spec.a if spec.a is not None else default_floor(g_r)
    vals, u, clipped = _clip_eigenvalues(g_r, a)
    g_ar = (u * clipped) @ u.T
    beta = u @ ((u.T @ rhs) / clipped)

    residuals = np.full(n, np.nan)
    residuals[resp] = (y[resp] - zr @ beta) / np.sqrt(v[resp])

    omega_tilde = np.zeros(n)
    omega_tilde[resp] = omega[resp] / omega[resp].sum()
    ebar_r = float(omega_tilde[resp] @ residuals[resp])

    return FittedModel(
        beta=beta,
        g_r=g_r,
        g_ar=g_ar,
        a=float(a),
        eigenvalues=vals,
        residuals=residuals,
        omega_tilde=omega_tilde,
        ebar_r=ebar_r,
        respond=respond,
    )
