"""Moments and cumulants of Wishart/Wigner trace words.

The engine sums over pairings of the word's letters: each pairing glues
the trace factors into a surface whose particular vertex cycles dictate
a product of traces of the constant matrices, weighted by q^crossings
and family inner products, with a global N^(-m/2 - r) prefactor.  Two
independent oracles (a brute-force Wick index sum and a Monte Carlo
sampler) back every number the engine produces.

This namespace is the library API: the statistics, their specs and
results, the parser and bindings, and the two oracles.  The per-pairing
specification (``wte.perm``, ``wte.gluing``) and the other helpers are
imported from their modules.
"""

from .engine import (
    BudgetError,
    CltReport,
    MomentResult,
    MomentSpec,
    TermReport,
    clt_report,
    cumulant,
    leading_terms,
    moment,
    subspec,
)
from .expr import ParseError, TraceWordAst, elaborate, parse, pretty
from .gluing import ComponentSurface, SurfaceReport, WordShape
from .matrices import (
    DimensionError,
    Gram,
    Matrix,
    MatrixFormatError,
    UnboundSlotError,
    load_matrix,
    parse_bindings,
    parse_matrix,
)
from .oracles import McReport, mc_oracle, wick_oracle

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CltReport",
    "ComponentSurface",
    "DimensionError",
    "Gram",
    "Matrix",
    "MatrixFormatError",
    "McReport",
    "MomentResult",
    "MomentSpec",
    "ParseError",
    "SurfaceReport",
    "TermReport",
    "TraceWordAst",
    "UnboundSlotError",
    "WordShape",
    "clt_report",
    "cumulant",
    "elaborate",
    "leading_terms",
    "load_matrix",
    "mc_oracle",
    "moment",
    "parse",
    "parse_bindings",
    "parse_matrix",
    "pretty",
    "subspec",
    "wick_oracle",
]
