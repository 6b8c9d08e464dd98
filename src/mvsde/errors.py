"""Exception types shared across the package."""

from __future__ import annotations


class MvsdeError(Exception):
    """Base class for all package-specific errors."""


class NewtonNonConvergence(MvsdeError):
    """The implicit split-step solve did not reach tolerance.

    For a batch of particle systems, `replica` is the position of the failed
    system and `particle` counts within it; it is None for one system."""

    def __init__(self, particle, residual, iterations, replica=None):
        where = "" if replica is None else f" of system {replica}"
        super().__init__(
            f"Newton iteration failed on particle {particle}{where}: "
            f"residual {residual:.3e} after {iterations} iterations"
        )
        self.particle = particle
        self.residual = residual
        self.iterations = iterations
        self.replica = replica


class ConfigError(MvsdeError):
    """Invalid experiment configuration (bad file, bad value, bad grid)."""
