"""Numerical laboratory for weighted circle means of analytic functions on the unit disk.

Import from the modules (``hardylab.quadrature``, ``hardylab.identities``,
``hardylab.report``, ...); the package itself exports only its version and
``QuadratureSpec``.
"""

__version__ = "0.1.0"

from .quadrature import QuadratureSpec
