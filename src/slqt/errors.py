"""Error taxonomy shared by every module.

Each class marks a failure mode; cli.exit_code_for maps the classes onto
the four failure codes of cli.EXIT_CODES, so several share a code. The
figures a class carries are its class attributes, None by default;
``SlqtError(msg, **figures)`` sets those a raise knows. A policy
iteration that stops making progress (a phase-I alpha that stops
growing included) has no class of its own: it ends at its iteration
budget as MaxIterExceeded, carrying the trace.
"""


class SlqtError(Exception):
    """Base class for all package errors."""

    def __init__(self, msg, **figures):
        super().__init__(msg)
        vars(self).update(figures)


class ConfigError(SlqtError):
    """Invalid or inconsistent configuration / input dimensions."""


class InitConditionViolated(ConfigError):
    """gamma <= zero-gain threshold + alpha0, so phase I cannot start."""


class NotStabilizing(SlqtError):
    """A gain required to be mean-square stabilizing is not."""

    abscissa = None


class SingularOperator(SlqtError):
    """Lyapunov operator condition above 1e12, or a non-finite operator or residual.

    certificate, when the refused solve is a generalized Lyapunov one,
    is the stability certificate it had already computed.
    """

    certificate = None


class NonInvertible(SlqtError):
    """A gain matrix (R + D'PD, or its estimate R + Lambda) of condition above 1e12."""


class ResonantSpectra(SlqtError):
    """Sylvester spectra sum to (numerically) zero; no unique solution."""


class NonPositiveP(SlqtError):
    """A value-matrix iterate lost positive definiteness."""


class MaxIterExceeded(SlqtError):
    """Iteration cap hit; per the convergence theory this is a contract breach."""

    trace = None


class NonFiniteIterate(SlqtError):
    """A non-finite cost forcing H'QH, or a policy-iteration step that left a
    non-finite value P, gain K or gain cost K'RK (the next step's forcing),
    as an overflow from an input map of 1e300 does.

    trace is the iterate trace before the refused step.
    """

    trace = None


class RankDeficient(SlqtError):
    """A data matrix misses its required column rank."""

    report = None


class Blowup(SlqtError):
    """Simulated state norm exceeded 1e8 (instability or step too large).

    time, when known, is the first time in seconds at which it did, and
    path_index the lowest-index Monte Carlo path over the bound then.
    """

    path_index = time = None


class WindowOutOfRange(SlqtError):
    """A requested moment window falls outside the collected data."""


class ShadowUncontrollable(SlqtError):
    """(A_a, B) fails the controllability rank check."""
