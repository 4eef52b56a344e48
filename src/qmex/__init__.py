"""qmex: exact q-series machinery for excludant statistics of partitions.

The package is organized as a pipeline of trust: partitions.py counts
things by brute force, qfunctions.py builds the same numbers as
coefficients of exact integer series, identities.py pins the two sides
against each other and against classical identities, asymptotics.py
takes the verified series into floating point.
"""

__version__ = "0.1.0"

from . import asymptotics, cli, identities, partitions, qfunctions, series
from .qfunctions import Form, NamedSeries
from .series import IntSeries

__all__ = [
    "Form",
    "IntSeries",
    "NamedSeries",
    "__version__",
    "asymptotics",
    "cli",
    "identities",
    "partitions",
    "qfunctions",
    "series",
]
