"""Error taxonomy shared by every module.

Each class marks a distinct failure mode with a distinct CLI exit code
(see cli.EXIT_CODES). All carry a human-readable message and, where
useful, the offending numbers.
"""


class SlqtError(Exception):
    """Base class for all package errors."""


class ConfigError(SlqtError):
    """Invalid or inconsistent configuration / input dimensions."""


class InitConditionViolated(ConfigError):
    """gamma <= zero-gain threshold + alpha0, so phase I cannot start."""


class NotStabilizing(SlqtError):
    """A gain required to be mean-square stabilizing is not."""

    def __init__(self, msg, abscissa=None):
        super().__init__(msg)
        self.abscissa = abscissa


class SingularOperator(SlqtError):
    """Lyapunov operator condition above 1e12, or a non-finite operator or residual.

    certificate, when the refused solve is a generalized Lyapunov one,
    is the stability certificate it had already computed.
    """

    def __init__(self, msg, certificate=None):
        super().__init__(msg)
        self.certificate = certificate


class NonInvertible(SlqtError):
    """A matrix that must be positive definite (R + D'PD) is not."""


class ResonantSpectra(SlqtError):
    """Sylvester spectra sum to (numerically) zero; no unique solution."""


class NonPositiveP(SlqtError):
    """A value-matrix iterate lost positive definiteness."""


class MaxIterExceeded(SlqtError):
    """Iteration cap hit; per the convergence theory this is a contract breach."""

    def __init__(self, msg, trace=None):
        super().__init__(msg)
        self.trace = trace


class NonFiniteIterate(SlqtError):
    """A policy-iteration step left a non-finite value P, gain K or gain
    cost K'RK (the next step's forcing), as an overflow from an input map
    of 1e300 does.

    trace is the iterate trace before the refused step.
    """

    def __init__(self, msg, trace=None):
        super().__init__(msg)
        self.trace = trace


class RankDeficient(SlqtError):
    """A data matrix misses its required column rank."""

    def __init__(self, msg, report=None):
        super().__init__(msg)
        self.report = report


class DivergedAlpha(SlqtError):
    """Phase-I alpha failed to increase for 3 consecutive iterations.

    trace, when known, is the partial iterate trace up to the failure.
    """

    def __init__(self, msg, trace=None):
        super().__init__(msg)
        self.trace = trace


class Blowup(SlqtError):
    """Simulated state norm exceeded 1e8 (instability or step too large).

    time, when known, is the first time in seconds at which it did, and
    path_index the lowest-index Monte Carlo path over the bound then.
    """

    def __init__(self, msg, path_index=None, time=None):
        super().__init__(msg)
        self.path_index = path_index
        self.time = time


class WindowOutOfRange(SlqtError):
    """A requested moment window falls outside the collected data."""


class ShadowUncontrollable(SlqtError):
    """(A_a, B) fails the controllability rank check."""
