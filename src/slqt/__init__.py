"""Stochastic linear-quadratic tracking with multiplicative noise.

The package solves the infinite-horizon tracking problem for Ito
systems dx = (Ax + Bu) dt + (Cx + Du) dw against references produced
by a marginally stable exosystem. Three routes to the optimal gains
are provided: a model-based bootstrap policy iteration, an off-policy
learner driven by simulated trajectory ensembles, and a shadow-system
variant that needs no excitation of the plant at all.

The top level re-exports the names used in the README and the demos;
everything else lives in the submodules (``slqt.cli``, ``slqt.sim``,
``slqt.regressors``, ...), each listing its public names in ``__all__``.
"""

from .benchmarks import coupled_oscillators, damped_oscillator, gather_moments
from .bpi import feedforward_gains, noise_blind_design, solve_tracking
from .errors import RankDeficient
from .learner import (learn_feedback, learn_feedforward, learn_shadow,
                      shadow_regressors)
from .model import (BpiHyperParams, CostWeights, ReferenceGenerator,
                    StochasticSystem, TrackingProblem, is_stabilizing,
                    spectral_abscissa, zero_gain_threshold)
from .sim import (SimConfig, estimate_average_cost, run_ensemble,
                  simulate_tracking)
from .solvers import sare_residual, solve_gen_lyap

__version__ = "0.1.0"
