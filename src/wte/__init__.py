"""Moments and cumulants of Wishart/Wigner trace words.

The engine sums over pairings of the word's letters: each pairing glues
the trace factors into a surface whose particular vertex cycles dictate
a product of traces of the constant matrices, weighted by q^crossings
and family inner products, with a global N^(-m/2 - r) prefactor.  Two
independent oracles (a brute-force Wick index sum and a Monte Carlo
sampler) back every number the engine produces.
"""

from .engine import (
    BudgetError,
    CltReport,
    MomentResult,
    MomentSpec,
    TermReport,
    clt_report,
    cumulant,
    is_transitive,
    leading_terms,
    moment,
    pairing_weight,
    subspec,
)
from .expr import ParseError, TraceWordAst, build_shape, elaborate, parse, pretty
from .gluing import (
    ComponentSurface,
    MirrorPropertyError,
    SurfaceReport,
    WordShape,
    back_rotation,
    front_rotation,
    lift_pairing,
    particular_cycles,
    sign_flip,
    slot_dimensions,
    surface_census,
    transpose_flip,
    vertex_permutation,
)
from .matrices import (
    DimensionError,
    Gram,
    Matrix,
    MatrixFormatError,
    UnboundSlotError,
    bind_matrices,
    load_matrix,
    parse_bindings,
    parse_matrix,
    trace_along,
)
from .oracles import McReport, is_noncrossing, mc_oracle, wick_oracle
from .perm import (
    Pairing,
    SignedPermutation,
    compose,
    crossings,
    cycle_string,
    cycles,
    enumerate_pairings,
    inverse,
    orbits,
    pairing_count,
)

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
    "MirrorPropertyError",
    "MomentResult",
    "MomentSpec",
    "Pairing",
    "ParseError",
    "SignedPermutation",
    "SurfaceReport",
    "TermReport",
    "TraceWordAst",
    "UnboundSlotError",
    "WordShape",
    "back_rotation",
    "bind_matrices",
    "build_shape",
    "clt_report",
    "compose",
    "crossings",
    "cumulant",
    "cycle_string",
    "cycles",
    "elaborate",
    "enumerate_pairings",
    "front_rotation",
    "inverse",
    "is_noncrossing",
    "is_transitive",
    "leading_terms",
    "lift_pairing",
    "load_matrix",
    "mc_oracle",
    "moment",
    "orbits",
    "pairing_count",
    "pairing_weight",
    "parse",
    "parse_bindings",
    "parse_matrix",
    "particular_cycles",
    "pretty",
    "sign_flip",
    "slot_dimensions",
    "subspec",
    "surface_census",
    "trace_along",
    "transpose_flip",
    "vertex_permutation",
    "wick_oracle",
]
