"""Importance-weight estimation under label shift.

Categorical labels go through generalized confusion-matrix estimators (E1
direct, E2 regularized); continuous labels go through RKHS integral-operator
estimators (E3 direct, E4 regularized).  Finite-sample confidence radii and
importance-weighted ERM round out the pipeline.
"""

from .categorical import (CategoricalWeightEstimate, check_burn_in_categorical,
                          e1_direct, e2_regularized)
from .concentration import (ConfidenceReport, categorical_radii,
                            composite_epsilon, confidence_report,
                            divergence_report, functional_radii)
from .datagen import (CategoricalSynthConfig, Dataset, RegressionSynthConfig,
                      Split, gen_categorical, gen_regression, label_masses,
                      source_density, split_alpha, true_weight_categorical,
                      true_weight_function)
from .erm import (FittedModel, WeightedERMResult, blend_gamma,
                  oracle_target_risk, weighted_erm)
from .errors import (ConfigError, DataError, IllConditioned, NonFiniteInput,
                     ShiftWeightError, SingularOperator)
from .experiments import (ExperimentConfig, build_config, load_config,
                          relative_error, rows_to_csv, run_experiment,
                          write_csv)
from .functional import (FunctionalWeightEstimate, check_burn_in_functional,
                         e3_direct, e4_objective, e4_regularized,
                         evaluate_weight, operator_inverse_norm_proxy,
                         residual_norm_sq, theta_function)
from .moments import (KernelMoments, MomentEstimates,
                      estimate_categorical_moments, estimate_kernel_moments,
                      population_moments_categorical)
from .predictors import (StatisticFn, gaussian_gram, train_hypercube,
                         train_kernel_regressor, train_simplex)

__version__ = "0.1.0"
