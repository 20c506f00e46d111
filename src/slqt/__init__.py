"""Stochastic linear-quadratic tracking with multiplicative noise.

The package solves the infinite-horizon tracking problem for Ito
systems dx = (Ax + Bu) dt + (Cx + Du) dw against references produced
by a marginally stable exosystem. Three routes to the optimal gains
are provided: a model-based bootstrap policy iteration, an off-policy
learner driven by simulated trajectory ensembles, and a shadow-system
variant that needs no excitation of the plant at all.
"""

from .benchmarks import (ExampleBundle, coupled_oscillators,
                         damped_oscillator, gather_moments,
                         reference_at_offset)
from .bpi import (IterateState, feedforward_gains, run_phase1, run_phase2,
                  solve_tracking)
from .cli import (EXIT_CODES, ExperimentConfig, RunReport, canonical_json,
                  emit_report, exit_code_for, load_config, load_report,
                  parse_experiment_config, reproduce_example, run_experiment)
from .errors import (Blowup, ConfigError, DivergedAlpha, InitConditionViolated,
                     MaxIterExceeded, NonInvertible, NonPositiveP,
                     NotStabilizing, RankDeficient, ResonantSpectra,
                     ShadowUncontrollable, SingularOperator, SlqtError,
                     WindowOutOfRange)
from .learner import (FeedforwardFit, LearnedSolution, ShadowConfig,
                      learn_feedback, learn_feedforward, learn_shadow,
                      shadow_regressors)
from .model import (BpiHyperParams, CostWeights, ReferenceGenerator,
                    StabilityCertificate, StochasticSystem, TrackingProblem,
                    is_stabilizing, lyap_matrix, spectral_abscissa,
                    zero_gain_threshold)
from .regressors import (MomentTable, RankReport, accumulate_raw_moments,
                         assemble_psi, assemble_xi,
                         feedback_required_rank, feedforward_required_rank,
                         phi_rhs, psi_rhs, rank_report,
                         xi_rhs_for_output_map)
from .sim import (CostEstimate, EnsembleDataset, MomentTrajectory, PathRecord,
                  ProbingSignal, SimConfig, TrackingRun, discounted_input,
                  estimate_average_cost, load_dataset, probing_signal,
                  propagate_moments_exact, reference_trajectory, run_ensemble,
                  save_dataset, simulate_sde_path,
                  simulate_tracking)
from .solvers import (LyapunovSolution, TrackingSolution, alpha_update,
                      ff_from_pi, gain_update, sare_residual, solve_gen_lyap,
                      solve_sylvester)
from .symquad import (duplication, h_form, h_form_rows, kron_vec, quad_basis,
                      unvec, unvech, vec, vech, vech_indices, vech_rows)

__version__ = "0.1.0"
