"""Partition function of the trigonometric solid-on-solid model with one
reflecting end and domain-wall boundaries, computed two independent ways
(operator contraction and a single determinant), with a seeded verification
harness for every algebraic identity the construction rests on.
It exports the quickstart names and the error types; everything else is
imported from its module (`sosre.partition`, `sosre.verify`, ...)."""

from .params import (
    CapExceeded,
    IllConditionedWarning,
    InvariantViolation,
    ModelParams,
    NearSingular,
    ParseError,
    SamplingExhausted,
    SosError,
)
from .partition import z_bruteforce, z_determinant
from .verify import run_suite

__version__ = "0.1.0"
