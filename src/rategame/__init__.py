"""Many-server queues with strategic heterogeneous servers.

Simulation of the finite system, stationary idleness-fairness measures,
fluid and diffusion limits, per-server best responses, and the equilibrium
service-rate distribution through a scalar fixed point.
"""

__version__ = "0.1.0"

from .model import (ModelParams, PolicyFunctions, PopulationDistributions,
                    ServerPopulation, log_family, neg_inverse_family,
                    power_family, sample_population, staffing_level,
                    staffing_load, verify_first_order_monotone)
from .rates import (CdfRateDistribution, DensityRateDistribution,
                    DiscreteRateDistribution, FairnessMeasure,
                    RateDistribution, point_mass_rate_distribution,
                    uniform_rate_distribution)
from .fairness import (AttainabilityCheck, FairnessSolution, RoutingWeight,
                       SolverFailure, check_attainable,
                       conditional_idleness_alpha1,
                       conditional_idleness_idle_order, fairness_density,
                       h_for_target_density, solve_L, special_policy_fairness)
from .equilibrium import (BestResponse, EquilibriumSolution, RegimeClass,
                          ResponseDistribution, best_response,
                          best_response_rates, classify_regime,
                          equilibrium_residual, marginal_rate_of_substitution,
                          response_distribution, solve_equilibrium)
from .limits import (AllocationState, DiffusionSpec, DiffusionStats, FluidSpec,
                     allocation_fixed_point, allocation_fluid_integrate,
                     diffusion_simulate, diffusion_stationary, fluid_closed_form,
                     fluid_integrate, stationary_scaled_idleness)
from .sim import (RoutingPolicy, SimulationResult, empirical_allocation,
                  empirical_conditional_idleness, empirical_fairness,
                  run_simulation, stream_seed)
from .config import ConfigError, ExperimentConfig, resolve_config
