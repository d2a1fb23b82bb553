"""Symbolic calculus for circuits built from controlled roots of NOT.

The package evaluates, verifies and peephole-optimizes reversible
subcircuits whose gates apply Q^p under Boolean controls, where Q^k = NOT
and k is a power of two.  Instead of complex matrices it tracks, per
line, a Boolean base plus an integer exponent polynomial mod 2k; a dense
statevector oracle provides an independent numeric check.
"""

from .circuit import Circuit, Gate, Line
from .errors import (
    BadRootError,
    CnqError,
    EnumerationLimitError,
    LineMismatchError,
    ParseError,
    SelfControlError,
    SimulationLimitError,
    TargetInteractionError,
    UnboundVariableError,
    UndeclaredLineError,
    UnknownLineError,
    ZeroPowerError,
)
from .expr import (
    DEFAULT_ENUM_GUARD,
    Anf,
    Assignment,
    MlPoly,
    display_anf,
    iter_assignments,
)
from .fuzz import random_circuit, random_valid_circuit, self_test
from .optimize import Change, MergeResult, merge_pass
from .oracle import (
    CROSS_CHECK_ATOL,
    DEFAULT_SIM_GUARD,
    CrossCheckResult,
    StateVector,
    apply_gate,
    cross_check,
    q_matrix,
    simulate,
)
from .symbolic import (
    EquivVerdict,
    EvalReport,
    GateRecord,
    LineOutcome,
    SpecVerdict,
    TargetState,
    check_spec,
    equivalent,
    evaluate,
)

__version__ = "0.1.0"

__all__ = [
    "Anf",
    "Assignment",
    "BadRootError",
    "CROSS_CHECK_ATOL",
    "Change",
    "Circuit",
    "CnqError",
    "CrossCheckResult",
    "DEFAULT_ENUM_GUARD",
    "DEFAULT_SIM_GUARD",
    "EnumerationLimitError",
    "EquivVerdict",
    "EvalReport",
    "Gate",
    "GateRecord",
    "Line",
    "LineMismatchError",
    "LineOutcome",
    "MergeResult",
    "MlPoly",
    "ParseError",
    "SelfControlError",
    "SimulationLimitError",
    "SpecVerdict",
    "StateVector",
    "TargetInteractionError",
    "TargetState",
    "UnboundVariableError",
    "UndeclaredLineError",
    "UnknownLineError",
    "ZeroPowerError",
    "apply_gate",
    "check_spec",
    "cross_check",
    "display_anf",
    "equivalent",
    "evaluate",
    "iter_assignments",
    "merge_pass",
    "q_matrix",
    "random_circuit",
    "random_valid_circuit",
    "self_test",
    "simulate",
]
