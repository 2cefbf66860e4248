"""Exact Gotzmann thresholds for principal Borel-stable monomial ideals.

The package decides whether a monomial u is Gotzmann (its lex interval of
gaps is as cheap to reach as the closed gap form predicts) and computes the
least power of the last variable that makes it so, all in exact integer
arithmetic.  See the README for the command line interface.
"""

__version__ = "0.1.0"

from .combinatorics import (
    CapExceeded,
    MonomialSet,
    borel_enumerate,
    borel_size,
    enumerate_monomials,
    gap_count,
    lex_rank,
    lexinterval,
    lexsegment,
)
from .maxgen import mg_closed, mg_oracle, mg_shifted, target_decompose
from .monomial import Monomial, ParseError, parse, sigma, sigma_pow
from .paths import TargetOvershoot, WalkState, advance, advance_oracle, cost_between, find_z, mc
from .threshold import (
    ConjectureScan,
    GotzmannWitness,
    ThresholdReport,
    conjecture_scan,
    is_gotzmann,
    is_gotzmann_oracle,
    tau,
    tau_formula,
    tau_oracle,
)

__all__ = [
    "CapExceeded",
    "ConjectureScan",
    "GotzmannWitness",
    "Monomial",
    "MonomialSet",
    "ParseError",
    "TargetOvershoot",
    "ThresholdReport",
    "WalkState",
    "advance",
    "advance_oracle",
    "borel_enumerate",
    "borel_size",
    "conjecture_scan",
    "cost_between",
    "enumerate_monomials",
    "find_z",
    "gap_count",
    "is_gotzmann",
    "is_gotzmann_oracle",
    "lex_rank",
    "lexinterval",
    "lexsegment",
    "mc",
    "mg_closed",
    "mg_oracle",
    "mg_shifted",
    "parse",
    "sigma",
    "sigma_pow",
    "target_decompose",
    "tau",
    "tau_formula",
    "tau_oracle",
]
