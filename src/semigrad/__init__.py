"""Monte Carlo estimation of heat-semigroup derivatives for diffusions.

Stochastic-integral weight estimators for gradients, Hessians,
Feynman-Kac functionals, transition-density scores, and heat semigroups on
differential forms, with built-in flat, circle, sphere, and SO(3)
scenarios and the diagnostic bounds that back the estimators.
"""

from .errors import (AllPathsBlewUp, Degenerate, DegreeMismatch,
                     DimensionMismatch, EmptyBin, InvalidConfig,
                     MissingCodifferential, MissingDerivative, MissingGeometry,
                     NotClosed, NotGradientSystem, NotLieGroup, SemigradError,
                     UnboundedPotential, UnknownEstimator, UnknownScenario,
                     UnsupportedDegree, UnsupportedModel, ZeroDirection)
from .paths import TimeGrid, generate_noise, integrate_block
from .models import (DiffusionModel, LieGroupModel, ManifoldGeometry,
                     PotentialField, ScalarObservable,
                     TimeDependentCoefficients, as_observable, make_bm_model,
                     make_flat_model, make_gradient_sphere_model,
                     make_ou_model, make_so3_model, with_fd_derivatives)
from .estimators import (ConditionalBinSpec, EstimatorResult, bel_gradient,
                         bel_hessian, hessian_flow_gradient,
                         lie_group_gradient, pathwise_gradient,
                         potential_gradient, score_gradient, semigroup_value)
from .forms import (FormField, angle_form_s1, exact_one_form,
                    form_exterior_gradient, one_form_semigroup,
                    q_form_semigroup, volume_form_s2, zero_form_from_observable)
from .diagnostics import (BoundCheckReport, HpReport, evaluate_hp,
                          finite_difference_oracle, gronwall_gradient_bound,
                          hp_report, martingale_mean_check, moment_bound_check,
                          sobolev_norm_check)
from .registry import ESTIMATOR_IDS, Scenario, get_scenario, scenario_ids

__version__ = "0.1.0"
