"""Finite populations: synthetic generation, serialization, bundled example.

The synthetic recipe is a gamma-size variable with a heteroscedastic linear
response: z1 ~ Gamma(shape, scale), y = beta * z1 + sqrt(z1) * eps.  The
noise variance can be given directly or derived from a target model R^2,
defined as the model-variance share

    R^2 = beta^2 Var(z1) / (beta^2 Var(z1) + sigma^2 E(z1))

with theoretical gamma moments, which gives

    sigma^2 = beta^2 Var(z1) (1 - R^2) / (R^2 E(z1)).
"""

import json
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .csvio import FLAG, FLOAT, finite_positive, read_csv, write_csv


@dataclass(frozen=True)
class Population:
    """Complete finite population: response y, size variable z1, variance
    scale v.  ``z1`` is the one auxiliary: the regressor of the imputation
    model and the size of unequal-probability sampling and response
    modeling.
    """

    y: npt.NDArray[np.float64]
    v: npt.NDArray[np.float64]
    z1: npt.NDArray[np.float64]

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        z1 = np.asarray(self.z1, dtype=np.float64)
        n = y.shape[0]
        if v.shape[0] != n or z1.shape[0] != n:
            raise ValueError("y, v, z1 must have matching first dimension")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(z1)) and np.all(np.isfinite(v))):
            raise ValueError("population values must be finite")
        if np.any(v <= 0):
            raise ValueError("variance scale v must be strictly positive")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "z1", z1)

    @property
    def size(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True)
class PopulationRecipe:
    n_units: int
    beta: tuple[float, ...] = (1.0,)
    gamma_shape: float = 2.0
    gamma_scale: float = 5.0
    sigma2: float | None = None
    target_r2: float | None = None

    def __post_init__(self):
        if self.n_units <= 0:
            raise ValueError("n_units must be positive")
        if self.gamma_shape <= 0 or self.gamma_scale <= 0:
            raise ValueError("gamma parameters must be positive")
        if (self.sigma2 is None) == (self.target_r2 is None):
            raise ValueError("give exactly one of sigma2 and target_r2")
        if self.sigma2 is not None and self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")
        if self.target_r2 is not None and not 0 < self.target_r2 < 1:
            raise ValueError("target_r2 must be in (0, 1)")
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        if len(self.beta) != 1:
            raise ValueError(f"beta must hold one slope, on z1, the only auxiliary; "
                             f"got {len(self.beta)} entries")

    def noise_variance(self) -> float:
        """sigma^2, derived from target_r2 when that is what was given."""
        if self.sigma2 is not None:
            return float(self.sigma2)
        b1 = self.beta[0]
        var_z = self.gamma_shape * self.gamma_scale**2
        mean_z = self.gamma_shape * self.gamma_scale
        r2 = self.target_r2
        return b1 * b1 * var_z * (1.0 - r2) / (r2 * mean_z)

    def to_json(self) -> str:
        d = {
            "n_units": self.n_units,
            "beta": list(self.beta),
            "gamma_shape": self.gamma_shape,
            "gamma_scale": self.gamma_scale,
        }
        if self.sigma2 is not None:
            d["sigma2"] = self.sigma2
        if self.target_r2 is not None:
            d["target_r2"] = self.target_r2
        return json.dumps(d, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PopulationRecipe":
        """The recipe of a JSON object; a key that names no field raises
        TypeError, which names it."""
        d = json.loads(text)
        d.update((k, float(d[k])) for k in ("gamma_shape", "gamma_scale") if k in d)
        if isinstance(d.get("beta"), (int, float)):
            d["beta"] = [d["beta"]]
        return cls(**{**d, "n_units": int(d["n_units"])})


def draw_sizes(recipe: PopulationRecipe, rng: np.random.Generator) -> npt.NDArray[np.float64]:
    """The sizes z1 of a population, the first of ``generate_population``'s draws."""
    z1 = rng.gamma(recipe.gamma_shape, recipe.gamma_scale, size=recipe.n_units)
    # gamma variates are almost surely positive; guard the measure-zero edge
    return np.maximum(z1, np.finfo(np.float64).tiny, out=z1)


def generate_population(recipe: PopulationRecipe, rng: np.random.Generator,
                        z1: npt.NDArray[np.float64] | None = None) -> Population:
    """Draw a population from the recipe, with v = z1.

    ``z1``, when given, must be ``draw_sizes(recipe, rng)`` drawn from this
    same ``rng`` just before: the population is then the one a call without
    it would have drawn, and a caller can use the sizes before the noise is
    drawn.
    """
    if z1 is None:
        z1 = draw_sizes(recipe, rng)
    sigma2 = recipe.noise_variance()
    eps = (rng.normal(0.0, np.sqrt(sigma2), size=recipe.n_units) if sigma2 > 0
           else np.zeros(recipe.n_units))
    # y = b1 z1 + sqrt(z1) eps, bit for bit, written into eps: one N-sized
    # temporary where the plain expression makes three
    s = np.sqrt(z1)
    s *= eps
    y = np.multiply(recipe.beta[0], z1, out=eps)
    y += s
    return Population(y=y, v=z1, z1=z1)


# ---------------------------------------------------------------------------
# bundled example: the money-guess sample (10 drawn units, 4 nonrespondents)


@dataclass(frozen=True)
class ThompsonSample:
    """The classroom money-guess sample: n = 10 units drawn from N = 53.

    ``y`` holds NaN for the four nonrespondents (units 7-10, 0-based 6-9).
    All units share inclusion probability n/N, so the design weight is 5.3.
    """

    z1: npt.NDArray[np.float64]
    y: npt.NDArray[np.float64]
    respond: npt.NDArray[np.bool_]
    n_population: int = 53

    @property
    def n_sample(self) -> int:
        return self.z1.shape[0]

    @property
    def d(self) -> npt.NDArray[np.float64]:
        return np.full(self.n_sample, self.n_population / self.n_sample)


_THOMPSON_Z1 = (8.35, 1.5, 10.0, 0.6, 7.5, 7.95, 0.95, 4.4, 1.0, 0.5)
_THOMPSON_Y = (8.75, 2.55, 9.0, 1.1, 7.5, 5.0, np.nan, np.nan, np.nan, np.nan)


def load_thompson_example() -> ThompsonSample:
    y = np.array(_THOMPSON_Y)
    return ThompsonSample(
        z1=np.array(_THOMPSON_Z1),
        y=y,
        respond=np.isfinite(y),
    )


# ---------------------------------------------------------------------------
# CSV round-trip


POPULATION_FIELDS = ("id", "y", "z1", "v", "missing")


def population_to_csv(pop: Population, path) -> None:
    """Columns (id, y, z1, v, missing); missing is 0 for every unit."""
    write_csv(path, POPULATION_FIELDS,
              (range(1, pop.size + 1), pop.y, pop.z1, pop.v, [0] * pop.size))


def population_from_csv(path) -> tuple[Population, npt.NDArray[np.bool_]]:
    """Returns (the population, its missing flags); y must be finite, z1
    and v finite and > 0."""
    cols = read_csv(path, "population",
                    {"id": None, "y": FLOAT, "z1": FLOAT, "v": FLOAT, "missing": FLAG},
                    [("y", lambda c: np.isfinite(c["y"]), "must be finite, got {}"),
                     finite_positive("z1"), finite_positive("v")])
    return Population(y=cols["y"], v=cols["v"], z1=cols["z1"]), cols["missing"]
