"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """Raised when an operation is called outside its domain of validity."""


class IntegrationDivergedError(RuntimeError):
    """Raised when an ODE trajectory produces a non-finite state.

    Carries the index of the failing step, its noise level ``sigma`` (the
    ``sigma_hat`` of the step's plan row) and the time ``t`` of that level, so
    the caller can report where the blow-up happened instead of silently
    propagating NaNs.
    """

    def __init__(self, step_index: int, sigma: float, t: float,
                 message: str | None = None):
        self.step_index = step_index
        self.sigma = sigma
        self.t = t
        super().__init__(
            message or f"integration diverged at step {step_index}, sigma={sigma!r} at t={t!r}")


class UndefinedCorrelationError(ValueError):
    """Raised when a correlation is requested on a constant (zero-variance) signal."""


class ConfigError(ValueError):
    """Raised when an experiment configuration fails validation."""
