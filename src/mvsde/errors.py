"""Exception types shared across the package."""

from __future__ import annotations


class MvsdeError(Exception):
    """Base class for all package-specific errors."""


class NewtonNonConvergence(MvsdeError):
    """The implicit split-step solve did not reach tolerance."""

    def __init__(self, particle, residual, iterations):
        super().__init__(
            f"Newton iteration failed on particle {particle}: "
            f"residual {residual:.3e} after {iterations} iterations"
        )
        self.particle = particle
        self.residual = residual
        self.iterations = iterations


class ConfigError(MvsdeError):
    """Invalid experiment configuration (bad file, bad value, bad grid)."""
