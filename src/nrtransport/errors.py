"""Exception types shared across the toolkit."""


class ConfigurationError(ValueError):
    """Invalid scenario, run, or model configuration."""


class GeometryError(ConfigurationError):
    """Degenerate geometry (e.g. coincident transmitter and receiver); a
    config that places the vehicle on a site is a configuration error."""


class NumericalError(RuntimeError):
    """A numerical failure inside an estimator.

    Carries ``epoch`` so the failing time step can be reported.
    """

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch


class EstimationError(RuntimeError):
    """A geometric position solve diverged; the epoch is excluded, not fatal."""
