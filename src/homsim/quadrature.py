"""IntegrationError, the numerical failure an overlap raises.

Every overlap in :mod:`homsim.spectral` is a closed form, and no integrator
is left: the overlaps' Cauchy-Schwarz check raises :class:`IntegrationError`
and ``homsim.cli`` maps it to exit 3.  It stays a module of its own because
``perfbench/tracer.py`` builds its layers from ``homsim.quadrature``.
"""

__all__ = ["IntegrationError"]


class IntegrationError(RuntimeError):
    """A numerical failure of an overlap; carries the achieved residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual
