"""Balanced random imputation for survey samples.

Random imputation with the variance of a fixed rule: nonrespondents draw
donor residuals through a balanced allocation so that the imputed total
matches its deterministic counterpart up to a known shift, while individual
values keep the donor-level spread.
"""

__version__ = "0.1.0"

from ._backend import default_workers
from .cube import BalanceProblem, FlightPhaseError, FlightResult, flight_phase, snap_integers
from .estimators import fhat, fn_population, ht_total, imputed_fhat, imputed_total, nhat, quantile
from .harness import (
    ExperimentConfig,
    MechanismSpec,
    MonteCarloResult,
    mean_squared_error,
    relative_bias_percent,
    relative_efficiency,
    run_experiment,
    write_tables,
)
from .imputation import (
    CellPopulation,
    ImputedDataset,
    Mar,
    Mcar,
    build_cells,
    calibrate_mar,
    generate_response,
    impute_dri,
    impute_ebri,
    impute_rri,
    imputed_values,
)
from .linalg import eig_sym, spectral_norm
from .population import (
    Population,
    PopulationRecipe,
    ThompsonSample,
    generate_population,
    load_thompson_example,
    population_from_csv,
    population_to_csv,
)
from .regression import FittedModel, ModelSpec, default_floor, fit_model, regularize
from .sampling import (
    SampleData,
    pips_probabilities,
    rejective_sample,
    sample_from_csv,
    sample_to_csv,
    srswor,
)

__all__ = [
    "default_workers",
    "BalanceProblem",
    "FlightPhaseError",
    "FlightResult",
    "flight_phase",
    "snap_integers",
    "fhat",
    "fn_population",
    "ht_total",
    "imputed_fhat",
    "imputed_total",
    "nhat",
    "quantile",
    "ExperimentConfig",
    "MechanismSpec",
    "MonteCarloResult",
    "mean_squared_error",
    "relative_bias_percent",
    "relative_efficiency",
    "run_experiment",
    "write_tables",
    "CellPopulation",
    "ImputedDataset",
    "Mar",
    "Mcar",
    "build_cells",
    "calibrate_mar",
    "generate_response",
    "impute_dri",
    "impute_ebri",
    "impute_rri",
    "imputed_values",
    "eig_sym",
    "spectral_norm",
    "Population",
    "PopulationRecipe",
    "ThompsonSample",
    "generate_population",
    "load_thompson_example",
    "population_from_csv",
    "population_to_csv",
    "FittedModel",
    "ModelSpec",
    "default_floor",
    "fit_model",
    "regularize",
    "SampleData",
    "pips_probabilities",
    "rejective_sample",
    "sample_from_csv",
    "sample_to_csv",
    "srswor",
]
