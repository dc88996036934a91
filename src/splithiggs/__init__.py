"""Stability of twisted pairs over a curve in the split model.

Bundles are ordered sums of line bundles, Higgs fields are boolean support
patterns, and every verdict is decided in exact rational arithmetic.  The
package provides two independent deciders (a general filtration-and-weights
test and per-group subbundle criteria), sweep machinery that verifies their
agreement exhaustively, decompositions of polystable real-symplectic pairs
into stable factors, and expected moduli dimensions.
"""
from .bundle import (
    Group,
    HiggsPair,
    HiggsPattern,
    ModelError,
    NonzeroAlphaUnsupported,
    PairingViolation,
    SectionInfeasible,
    SplitBundle,
    SymmetryViolation,
    Twist,
    enumerate_flags,
    orthogonal_pair,
    sl_pair,
    sp_real_pair,
    symplectic_pair,
    validate_pair,
)
from .jordan import (
    Decomposition,
    DecompositionError,
    Factor,
    NotPolystable,
    UnstableFactor,
    decompose,
    reassemble,
)
from .moduli import (
    NonSemisimpleGroup,
    euler_char,
    expected_dimension,
    group_complex_dimension,
)
from .stability import (
    Certificate,
    Status,
    SweepReport,
    SweepSpec,
    Verdict,
    classify_general,
    classify_simplified,
    count_instances,
    degree_consistency_check,
    equivalence_sweep,
    polystable_general_taut,
    polystable_simplified,
    resolve_alpha,
    semistable_general,
    semistable_simplified,
    stable_general,
    stable_simplified,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "Decomposition",
    "DecompositionError",
    "Factor",
    "Group",
    "HiggsPair",
    "HiggsPattern",
    "ModelError",
    "NonSemisimpleGroup",
    "NonzeroAlphaUnsupported",
    "NotPolystable",
    "PairingViolation",
    "SectionInfeasible",
    "SplitBundle",
    "Status",
    "SweepReport",
    "SweepSpec",
    "SymmetryViolation",
    "Twist",
    "UnstableFactor",
    "Verdict",
    "classify_general",
    "classify_simplified",
    "count_instances",
    "decompose",
    "degree_consistency_check",
    "enumerate_flags",
    "equivalence_sweep",
    "euler_char",
    "expected_dimension",
    "group_complex_dimension",
    "orthogonal_pair",
    "polystable_general_taut",
    "polystable_simplified",
    "reassemble",
    "resolve_alpha",
    "semistable_general",
    "semistable_simplified",
    "sl_pair",
    "sp_real_pair",
    "stable_general",
    "stable_simplified",
    "symplectic_pair",
    "validate_pair",
]
