"""Balanced random imputation for survey samples.

Random imputation with the variance of a fixed rule: nonrespondents draw
donor residuals through a balanced allocation so that the imputed total
matches its deterministic counterpart up to a known shift, while individual
values keep the donor-level spread.

The top level holds the pipeline (fit, impute, estimate, simulate), its
config and result types, and the bundled example sample.  Everything else
is imported from its submodule: ``balimpute.cube``, ``balimpute.sampling``,
``balimpute.population``, ``balimpute.estimators``, ``balimpute.regression``,
``balimpute.imputation`` and ``balimpute.harness``.
"""

__version__ = "0.1.0"

from .estimators import imputed_total
from .harness import ExperimentConfig, MechanismSpec, MonteCarloResult, run_experiment, write_tables
from .imputation import ImputedDataset, impute_dri, impute_ebri, impute_rri
from .population import PopulationRecipe, load_thompson_example
from .regression import FittedModel, ModelSpec, fit_model

__all__ = [
    "fit_model",
    "impute_dri",
    "impute_rri",
    "impute_ebri",
    "imputed_total",
    "run_experiment",
    "write_tables",
    "ModelSpec",
    "FittedModel",
    "ImputedDataset",
    "PopulationRecipe",
    "ExperimentConfig",
    "MechanismSpec",
    "MonteCarloResult",
    "load_thompson_example",
]
